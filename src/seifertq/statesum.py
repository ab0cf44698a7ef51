"""Turaev-Viro state sums over triangulations, level by level.

A coloring assigns a color in I_r to every edge class of a closed
triangulation; it is admissible when the three edge colors around every face
class form an admissible triple.  The state sum is

    TV_r = eta^{2 V} sum_colorings  prod_edges (-1)^{c(e)} {c(e) + 1} / zeta
           * prod_tets Tet(tuple) / prod_faces theta(triple)

with eta = 2 sin(2 pi / r) / sqrt(r), zeta = {1}, V the number of vertex
classes, the tetrahedral net evaluated on the six edge colors in slot order,
and one theta per face class; ``rootdata`` writes Tet and theta in the
quantum factorials {n}!, each with one factor zeta^{-1}.  Squared six-j
symbols factor as Tet^2 over the four face thetas, so distributing one theta
to each face class reproduces the square of the usual vertex normalization
while keeping every term real.

Colorings are enumerated by backtracking over edge classes in index order,
pruning as soon as any face class has all three edges colored but fails
admissibility; enumeration order is lexicographic in the color vector.

The face classes and their edge-class triples come from the triangulation,
which computes them once (see ``triangulation``); the admissibility rule is
``rootdata``'s.  The weights are taken through the public ``tet_symbol`` and
``theta``, so each call re-checks a triple the enumeration has already
proved admissible.  The check stays while ``perfbench``'s tracer measures
state-sum work through exactly those public calls.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import DomainError, _in_float_range
from .rootdata import RootContext, _admissible, tet_symbol, theta
from .rt import InvariantValue
from .triangulation import Triangulation

__all__ = [
    "enumerate_admissible_colorings",
    "tv_statesum",
]


def enumerate_admissible_colorings(tri: Triangulation, ctx: RootContext) -> Iterator[tuple[int, ...]]:
    """All admissible edge-class colorings, lexicographic in the color vector."""
    if not tri.is_closed:
        raise DomainError("state sums are defined for closed triangulations")
    n_edges = tri.edge_count
    # faces become checkable once their highest-indexed edge class is colored
    checkable: list[list[tuple[int, int, int]]] = [[] for _ in range(n_edges)]
    for triple in tri.face_classes:
        checkable[max(triple)].append(triple)

    colors = ctx.colors
    assignment = [0] * n_edges

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n_edges:
            yield tuple(assignment)
            return
        for color in colors:
            assignment[pos] = color
            if all(
                _admissible(ctx, assignment[i], assignment[j], assignment[k])
                for i, j, k in checkable[pos]
            ):
                yield from extend(pos + 1)

    yield from extend(0)


@_in_float_range
def tv_statesum(tri: Triangulation, r: int) -> InvariantValue:
    """Evaluate the state sum of a closed triangulation at level r."""
    ctx = RootContext(r)
    faces = tri.face_classes
    tet_slots = [tri.tet_edge_classes(t) for t in range(tri.tet_count)]
    qint, zeta = ctx._qint, ctx.zeta

    terms: list[float] = []
    for coloring in enumerate_admissible_colorings(tri, ctx):
        weight = 1.0
        for color in coloring:
            factor = qint[color + 1] / zeta
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
