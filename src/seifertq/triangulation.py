"""Generalized triangulations of compact 3-manifolds.

A triangulation is a set of abstract tetrahedra with faces glued in pairs by
affine maps.  The text format carries one line per tetrahedron,

    tet <id>: <g0> <g1> <g2> <g3>

where <gf> describes the gluing of the face opposite vertex f: either `-`
(an unglued boundary face) or `<tet>:<face>:<perm>` with <perm> a 4-letter
word over 0123 giving the vertex images (perm[v] is where vertex v goes).
Blank lines and `#` comments are ignored.  Gluings must be involutive (the
partner's entry points back with the inverse permutation) and must carry the
face across (perm[f] equals the partner face index).  A face may not be
glued to itself.

Edges and vertices of the glued complex are the orbits of per-tetrahedron
edges and vertices under the face identifications, computed by union-find.
The face classes are the boundary faces and the glued pairs, each pair
represented by its later (tet, face) occurrence, listed in (tet, face) order.
``Triangulation`` computes all three once, in its constructor, and is the one
home of the face-class rule: its ``face_classes`` hold, per face class, the
edge classes of the edges (a,b) (a,c) (b,c), a < b < c, which is the triple
the state sum reads.
Within a tetrahedron the six edges are indexed in the slot order

    (0,1) (0,2) (1,2) (2,3) (1,3) (0,3)

which is the tuple order consumed by six-j evaluations downstream: the four
faces of the tetrahedron then read off the tuple exactly as the symbol's
face triples do.
"""

from __future__ import annotations

import os
from itertools import combinations

from .errors import TriangulationError, _read_text

__all__ = [
    "Triangulation",
    "EDGE_SLOTS",
    "parse_triangulation",
    "load_triangulation",
]

EDGE_SLOTS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))

# the edges of the face opposite vertex f, as vertex pairs (a, b), (a, c), (b, c)
_FACE_EDGES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(combinations([v for v in range(4) if v != f], 2)) for f in range(4)
)


def _is_index(text: str) -> bool:
    """A tetrahedron or face index: ASCII digits only (str.isdigit also takes '²')."""
    return text.isascii() and text.isdigit()


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent.setdefault(x, x)
        if parent != x:
            parent = self._parent[x] = self.find(parent)
        return parent

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[ry] = rx

    def classes(self, items) -> dict:
        """Map each item to a dense class index, in first-seen order."""
        index: dict = {}
        out: dict = {}
        for item in items:
            root = self.find(item)
            out[item] = index.setdefault(root, len(index))
        return out


class Triangulation:
    """A face-paired collection of tetrahedra with derived cell classes."""

    def __init__(self, gluings: dict[tuple[int, int], tuple[int, int, tuple[int, ...]] | None]):
        tet_ids = sorted({t for t, _ in gluings})
        if tet_ids != list(range(len(tet_ids))):
            raise TriangulationError(f"tetrahedron ids must be 0..{len(tet_ids) - 1}, got {tet_ids}")
        self.tet_count = len(tet_ids)
        for t in tet_ids:
            for f in range(4):
                if (t, f) not in gluings:
                    raise TriangulationError(f"missing gluing entry for tet {t} face {f}")
        self.gluings = dict(gluings)
        self._validate()

        edges, vertices = _UnionFind(), _UnionFind()
        for (t, f), glue in self.gluings.items():
            if glue is None:
                continue
            t2, _, perm = glue
            for v in range(4):
                if v != f:
                    vertices.union((t, v), (t2, perm[v]))
            for a, b in _FACE_EDGES[f]:
                edges.union((t, (a, b)), (t2, tuple(sorted((perm[a], perm[b])))))
        self._edge_index = edges.classes((t, e) for t in range(self.tet_count) for e in EDGE_SLOTS)
        self.edge_count = len(set(self._edge_index.values()))
        self.vertex_count = len({vertices.find((t, v)) for t in range(self.tet_count) for v in range(4)})
        # a glued pair is represented by its later (tet, face) occurrence
        self.face_classes = tuple(
            tuple(self._edge_index[(t, pair)] for pair in _FACE_EDGES[f])
            for (t, f), glue in sorted(self.gluings.items())
            if glue is None or (glue[0], glue[1]) < (t, f)
        )

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        for (t, f), glue in self.gluings.items():
            if glue is None:
                continue
            t2, f2, perm = glue
            if sorted(perm) != [0, 1, 2, 3]:
                raise TriangulationError(f"tet {t} face {f}: {perm} is not a permutation of 0123")
            if (t2, f2) not in self.gluings:
                raise TriangulationError(f"tet {t} face {f} glued to nonexistent tet {t2} face {f2}")
            if (t2, f2) == (t, f):
                raise TriangulationError(f"tet {t} face {f} glued to itself")
            if perm[f] != f2:
                raise TriangulationError(
                    f"tet {t} face {f}: permutation sends vertex {f} to {perm[f]}, "
                    f"expected the partner face index {f2}"
                )
            partner = self.gluings[(t2, f2)]
            if partner is None:
                raise TriangulationError(f"tet {t2} face {f2} should glue back to tet {t} face {f}")
            t3, f3, perm2 = partner
            inverse = tuple(perm.index(v) for v in range(4))
            if (t3, f3) != (t, f) or tuple(perm2) != inverse:
                raise TriangulationError(
                    f"gluing of tet {t} face {f} is not involutive with tet {t2} face {f2}"
                )

    # -- queries --------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return all(glue is not None for glue in self.gluings.values())

    @property
    def face_count(self) -> int:
        return len(self.face_classes)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count - self.tet_count

    def tet_edge_classes(self, t: int) -> tuple[int, ...]:
        """Edge-class indices of tetrahedron t in slot order."""
        return tuple(self._edge_index[(t, e)] for e in EDGE_SLOTS)


def parse_triangulation(text: str) -> Triangulation:
    """Parse the `tet <id>: ...` format; raises TriangulationError on bad input."""
    gluings: dict[tuple[int, int], tuple[int, int, tuple[int, ...]] | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "tet" or not _is_index(parts[1]) or not _:
            raise TriangulationError(f"line {lineno}: expected 'tet <id>: <g> <g> <g> <g>'")
        t = int(parts[1])
        entries = rest.split()
        if len(entries) != 4:
            raise TriangulationError(f"line {lineno}: expected 4 face gluings, got {len(entries)}")
        if (t, 0) in gluings:
            raise TriangulationError(f"line {lineno}: duplicate tetrahedron id {t}")
        for f, entry in enumerate(entries):
            if entry == "-":
                gluings[(t, f)] = None
                continue
            fields = entry.split(":")
            if len(fields) != 3:
                raise TriangulationError(f"line {lineno}: malformed gluing {entry!r}")
            tet_s, face_s, perm_s = fields
            if not (_is_index(tet_s) and _is_index(face_s)):
                raise TriangulationError(f"line {lineno}: malformed gluing {entry!r}")
            if len(perm_s) != 4 or any(c not in "0123" for c in perm_s):
                raise TriangulationError(f"line {lineno}: malformed permutation {perm_s!r}")
            gluings[(t, f)] = (int(tet_s), int(face_s), tuple(int(c) for c in perm_s))
    if not gluings:
        raise TriangulationError("no tetrahedra found")
    return Triangulation(gluings)


def load_triangulation(path: str | os.PathLike[str]) -> Triangulation:
    """Read and parse a UTF-8 triangulation file; an unreadable file is a MalformedInputError."""
    return parse_triangulation(_read_text(path, "triangulation"))
