"""Turaev-Viro state sums over triangulations, level by level.

A coloring assigns a color in I_r to every edge class of a closed
triangulation; it is admissible when the three edge colors around every face
class form an admissible triple.  The state sum is

    TV_r = eta^{2 V} sum_colorings  prod_edges (-1)^{c(e)} [c(e) + 1]
           * prod_tets Tet(tuple) / prod_faces theta(triple)

with eta = 2 sin(2 pi / r) / sqrt(r), V the number of vertex classes, the
tetrahedral net evaluated on the six edge colors in slot order, and one
theta per face class.  Squared six-j symbols factor as Tet^2 over the four
face thetas, so distributing one theta to each face class reproduces the
square of the usual vertex normalization while keeping every term real.

Colorings are enumerated by backtracking over edge classes in index order,
pruning as soon as any face class has all three edges colored but fails
admissibility; enumeration order is lexicographic in the color vector.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import DomainError, _in_float_range
from .rootdata import RootContext, tet_symbol, theta
from .rt import InvariantValue
from .triangulation import EDGE_SLOTS, Triangulation, _FACE_VERTICES

__all__ = [
    "face_class_triples",
    "enumerate_admissible_colorings",
    "tv_statesum",
]


def face_class_triples(tri: Triangulation) -> list[tuple[int, int, int]]:
    """Edge-class index triple of each face class (interior pairs counted once)."""
    triples: list[tuple[int, int, int]] = []
    for (t, f), glue in sorted(tri.gluings.items()):
        if glue is not None:
            t2, f2, _ = glue
            if (t2, f2, t, f) > (t, f, t2, f2):
                continue  # the partner occurrence already contributed
        a, b, c = _FACE_VERTICES[f]
        by_pair = dict(zip(EDGE_SLOTS, tri.tet_edge_classes(t)))
        triples.append((by_pair[(a, b)], by_pair[(a, c)], by_pair[(b, c)]))
    return triples


def enumerate_admissible_colorings(tri: Triangulation, ctx: RootContext) -> Iterator[tuple[int, ...]]:
    """All admissible edge-class colorings, lexicographic in the color vector."""
    if not tri.is_closed:
        raise DomainError("state sums are defined for closed triangulations")
    n_edges = tri.edge_count
    faces = face_class_triples(tri)
    # faces become checkable once their highest-indexed edge class is colored
    checkable: list[list[tuple[int, int, int]]] = [[] for _ in range(n_edges)]
    for triple in faces:
        checkable[max(triple)].append(triple)

    bound = 2 * (ctx.r - 2)
    colors = ctx.colors
    assignment = [0] * n_edges

    def admissible(x: int, y: int, z: int) -> bool:
        return x <= y + z and y <= x + z and z <= x + y and x + y + z <= bound

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n_edges:
            yield tuple(assignment)
            return
        for color in colors:
            assignment[pos] = color
            if all(
                admissible(assignment[i], assignment[j], assignment[k])
                for i, j, k in checkable[pos]
            ):
                yield from extend(pos + 1)

    yield from extend(0)


@_in_float_range
def tv_statesum(tri: Triangulation, r: int) -> InvariantValue:
    """Evaluate the state sum of a closed triangulation at level r."""
    ctx = RootContext(r)
    faces = face_class_triples(tri)
    tet_slots = [tri.tet_edge_classes(t) for t in range(tri.tet_count)]
    bracket = ctx._bracket

    terms: list[float] = []
    for coloring in enumerate_admissible_colorings(tri, ctx):
        weight = 1.0
        for color in coloring:
            factor = bracket[color + 1]
            weight *= -factor if color % 2 else factor
        for slots in tet_slots:
            weight *= tet_symbol(ctx, *(coloring[s] for s in slots))
        for i, j, k in faces:
            weight /= theta(ctx, coloring[i], coloring[j], coloring[k])
        terms.append(weight)

    scale = ctx.eta ** (2 * tri.vertex_count)
    return InvariantValue(
        value=scale * math.fsum(terms),
        r=r,
        method="state-sum",
        term_count=len(terms),
        term_magnitude_sum=scale * math.fsum(abs(t) for t in terms),
    )
