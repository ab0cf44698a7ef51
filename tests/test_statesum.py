"""State sums over closed triangulations, cross-checked by brute force."""

from __future__ import annotations

import math
import sys
from itertools import product

import pytest

from seifertq import (
    DomainError,
    RootContext,
    enumerate_admissible_colorings,
    is_admissible,
    parse_triangulation,
    tv_statesum,
)


def brute_colorings(tri, ctx):
    """Filter the full color grid through every face constraint directly."""
    faces = tri.face_classes
    out = []
    for coloring in product(ctx.colors, repeat=tri.edge_count):
        if all(is_admissible(ctx, coloring[i], coloring[j], coloring[k]) for i, j, k in faces):
            out.append(coloring)
    return out


def test_face_classes_of_the_sphere(sphere):
    triples = sphere.face_classes
    assert len(triples) == 4
    # faces of a tetrahedron: each of the 6 edges lies on exactly 2 faces
    flat = [c for triple in triples for c in triple]
    assert sorted(set(flat)) == [0, 1, 2, 3, 4, 5]
    assert all(flat.count(c) == 2 for c in range(6))


@pytest.mark.parametrize("r, count", [(3, 1), (5, 15), (7, 98), (9, 414), (11, 1331)])
def test_coloring_counts(r, count, sphere):
    colorings = list(enumerate_admissible_colorings(sphere, RootContext(r)))
    assert len(colorings) == count


@pytest.mark.parametrize("r", [3, 5, 7])
def test_colorings_match_brute_force(r, sphere):
    ctx = RootContext(r)
    got = list(enumerate_admissible_colorings(sphere, ctx))
    assert got == brute_colorings(sphere, ctx)
    assert got == sorted(got)  # lexicographic enumeration order


def test_sphere_statesum_is_eta_squared(sphere):
    assert tv_statesum(sphere, 3).value == 1.0
    for r in (5, 7, 9, 11, 13, 15):
        expected = (2.0 * math.sin(2.0 * math.pi / r)) ** 2 / r
        got = tv_statesum(sphere, r)
        if r <= 11:
            assert got.value == pytest.approx(expected, rel=1e-11)
        else:
            # relative to the size of the terms summed, not of the value they cancel down to
            assert abs(got.value - expected) <= 4 * sys.float_info.epsilon * got.term_magnitude_sum
        assert got.term_count == len(list(enumerate_admissible_colorings(sphere, RootContext(r))))


# the 3-sphere from one tetrahedron: faces 0, 1 folded onto each other, and 2, 3
ONE_TET_SPHERE = "tet 0: 0:1:1023 0:0:1023 0:3:0132 0:2:0132\n"


def test_one_tetrahedron_sphere_cells():
    tri = parse_triangulation(ONE_TET_SPHERE)
    assert tri.is_closed
    assert (tri.tet_count, tri.vertex_count, tri.edge_count, tri.face_count) == (1, 2, 3, 2)
    assert tri.euler_characteristic == 0
    assert tri.tet_edge_classes(0) == (0, 1, 1, 2, 1, 1)
    assert tri.face_classes == ((1, 1, 2), (0, 1, 1))


@pytest.mark.parametrize("r", range(3, 15, 2))
def test_statesum_does_not_depend_on_the_triangulation(r, sphere):
    one = tv_statesum(parse_triangulation(ONE_TET_SPHERE), r)
    two = tv_statesum(sphere, r)
    assert one.value == pytest.approx(two.value, rel=1e-12)


def test_statesum_requires_closed():
    ball = parse_triangulation("tet 0: - - - -\n")
    with pytest.raises(DomainError):
        tv_statesum(ball, 5)
    with pytest.raises(DomainError):
        list(enumerate_admissible_colorings(ball, RootContext(5)))


def test_statesum_value_is_real_invariant_record(sphere):
    inv = tv_statesum(sphere, 7)
    assert inv.method == "state-sum"
    assert inv.term_magnitude_sum >= abs(inv.value)
