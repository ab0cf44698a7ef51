"""Triangulation parsing, gluing validation, and derived cell classes."""

from __future__ import annotations

import pytest

from seifertq import (
    EDGE_SLOTS,
    MalformedInputError,
    Triangulation,
    TriangulationError,
    load_triangulation,
    parse_triangulation,
)

BALL = "tet 0: - - - -\n"


def test_two_tet_sphere_counts(sphere):
    assert sphere.tet_count == 2
    assert sphere.vertex_count == 4
    assert sphere.edge_count == 6
    assert sphere.face_count == 4
    assert sphere.euler_characteristic == 0
    assert sphere.is_closed


def test_gluings_given_as_lists(sphere):
    lists = Triangulation({(t, f): [1 - t, f, [0, 1, 2, 3]] for t in range(2) for f in range(4)})
    assert lists.face_classes == sphere.face_classes
    assert [lists.tet_edge_classes(t) for t in range(2)] == [sphere.tet_edge_classes(t) for t in range(2)]
    assert (lists.vertex_count, lists.edge_count, lists.face_count) == (4, 6, 4)


def test_single_tet_ball():
    tri = parse_triangulation(BALL)
    assert not tri.is_closed
    assert tri.vertex_count == 4
    assert tri.edge_count == 6
    assert tri.face_count == 4
    assert tri.euler_characteristic == 1  # a 3-ball


def test_edge_slot_order(sphere):
    assert EDGE_SLOTS == ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))
    # identity gluings identify same-name edges across the two tetrahedra
    assert sphere.tet_edge_classes(0) == sphere.tet_edge_classes(1)
    assert sorted(sphere.tet_edge_classes(0)) == [0, 1, 2, 3, 4, 5]


def test_comments_and_blank_lines_ignored():
    text = "# a sphere\n\ntet 0: 1:0:0123 1:1:0123 1:2:0123 1:3:0123 # all four\ntet 1: 0:0:0123 0:1:0123 0:2:0123 0:3:0123\n"
    assert parse_triangulation(text).is_closed


@pytest.mark.parametrize(
    "text",
    [
        "",  # nothing
        "tet 0: - - -\n",  # wrong arity
        "tet zero: - - - -\n",  # bad id
        "tet \u00b2: - - - -\n",  # a digit to str.isdigit, not to int
        "tet 0: x - - -\n",  # malformed entry
        "tet 0: 1:\u00b2:0123 - - -\n",  # non-ASCII digit as the partner face
        "tet 0: \u00b2:0:0123 - - -\n",  # non-ASCII digit as the partner tetrahedron
        "tet 0: 1:0:01 - - -\n",  # short permutation word
        "tet 0: 1:0:0124 - - -\n",  # bad character
        "tet 0: 1:0:0113 - - -\n",  # not a permutation
        "tet 0: - - - -\ntet 0: - - - -\n",  # duplicate id
        "tet 1: - - - -\n",  # ids must start at 0
        "tet 0: 2:0:0123 - - -\n",  # gluing to a nonexistent tetrahedron
        "tet 0: 0:0:0123 - - -\n",  # face glued to itself
    ],
)
def test_malformed_text_rejected(text):
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


@pytest.mark.parametrize(
    "name, content",
    [
        ("missing.tri", None),
        ("latin1.tri", "# M\u00f6bius\n".encode("latin-1") + BALL.encode()),  # not UTF-8
    ],
)
def test_unreadable_file_is_malformed_input(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(MalformedInputError, match="cannot read triangulation file"):
        load_triangulation(path)


def test_every_face_needs_a_gluing_entry():
    # the parser writes all four faces of each tetrahedron, so only a direct caller can leave one out
    with pytest.raises(TriangulationError, match="^missing gluing entry for tet 0 face 3$"):
        Triangulation({(0, 0): None, (0, 1): None, (0, 2): None})


def test_permutation_must_carry_face_index():
    # face 0 glued to face 1 but the permutation sends vertex 0 to 0
    text = "tet 0: 1:1:0123 - - -\ntet 1: - 0:0:0123 - -\n"
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


def test_gluings_must_be_involutive():
    # partner entry exists but does not point back with the inverse map
    text = "tet 0: 1:0:0123 - - -\ntet 1: - - - -\n"
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


def test_involution_checks_inverse_permutation():
    # 2013 sends vertex 1 to 0 (so the face check passes) but is not the
    # inverse of 1230, whose inverse is 3012
    text = "tet 0: 1:1:1230 - - -\ntet 1: - 0:0:2013 - -\n"
    with pytest.raises(TriangulationError):
        parse_triangulation(text)

    good = "tet 0: 1:1:1230 - - -\ntet 1: - 0:0:3012 - -\n"
    assert parse_triangulation(good).tet_count == 2


def test_self_gluing_between_faces_of_one_tet():
    # glue face 0 of the single tetrahedron to its own face 1: vertex 0 <-> 1
    text = "tet 0: 0:1:1023 0:0:1023 - -\n"
    tri = parse_triangulation(text)
    assert not tri.is_closed
    assert tri.tet_count == 1
    assert tri.face_count == 3  # one interior pair + two boundary faces
