"""Quantum SU(2) data at the root of unity q = exp(2*pi*i/r), r odd.

Conventions (fixed once here, used everywhere):

* level r is an odd integer >= 3; the color set is
  I_r = {0, 2, 4, ..., r - 3}, of size (r - 1) / 2 (colors are twice the
  spins that survive at odd levels);
* quantum integers are kept real:  {n} := 2 sin(2 pi n / r),
  with zeta := {1} = 2 sin(2 pi / r) > 0;
* quantum factorials {n}! = prod_{i=1..n} {i}, {0}! = 1, the only
  factorials here, are tabulated for 0 <= n <= r; {r}! = 0 since {r} = 0;
* eta = 2 sin(2 pi / r) / sqrt(r) is the sphere normalization entering
  state sums and the bounded bridge.

A triple (i, j, k) of colors is admissible when it satisfies the triangle
inequalities and i + j + k <= 2 (r - 2).  For an admissible triple,

    Delta(i, j, k) = sqrt(zeta) * sqrt({P1}! {P2}! {P3}! / {S+1}!)

with P1 = (i+j-k)/2 etc., S = (i+j+k)/2, taking the principal square root
(the radicand may be negative, making Delta purely imaginary; only even
powers of Delta are convention-independent).

The six-j symbol of a tuple (i, j, k, l, m, n), with faces
(i,j,k), (j,l,n), (i,m,n), (k,l,m), is

    |i j k; l m n| = zeta^{-1} (-1)^{lambda/2} prod_faces Delta(F) * R,
    R = sum_z (-1)^z {z+1}! / (prod_b {z-T_b}! prod_c {Q_c-z}!),

lambda = i+j+k+l+m+n (even, so sqrt(-1)^lambda is a sign), T_b the
half-sums of the faces, Q_c the half-sums of the three quadrilaterals, z
running from max T to min Q.  The all-zero tuple evaluates to 1.  Each
denominator argument is at most a face parameter, so below r, while
{z+1}! = 0 from z + 1 = r on: R stops at z = r - 2 and reads no entry above r.

State sums use the real regrouping of the same data, the theta graph and
the tetrahedral net

    theta(i,j,k) = zeta^{-1} (-1)^S {S+1}! {P1}! {P2}! {P3}! / ({i}! {j}! {k}!),
    Tet = zeta^{-1} prod_{b,c} {Q_c - T_b}! / prod_edges {e}! * R.

The twelve numbers Q_c - T_b are exactly the twelve face parameters P, so
|i j k; l m n|^2 = Tet^2 / prod_faces theta identically (a closed state sum
divides by theta once per face instead of carrying square roots), and no
admissible tuple has an empty z-range.  Products of factorials leave the
float range long before their quotients do, so theta and Tet take one
factorial at a time; a value still beyond the float range is a DomainError.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, _in_float_range, _is_int, _require_level

__all__ = [
    "RootContext",
    "quantum_integer",
    "quantum_factorial",
    "is_admissible",
    "delta",
    "theta",
    "tet_symbol",
    "six_j",
]

# index slots of the four faces and three quadrilaterals of (i,j,k,l,m,n)
_FACES = ((0, 1, 2), (1, 3, 5), (0, 4, 5), (2, 3, 4))
_QUADS = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))


def _two_sin_two_pi(n: int, r: int) -> float:
    """2 sin(2 pi n / r) with the angle reduced exactly into [0, pi/2].

    Reducing the rational multiple of pi before rounding keeps half-turn
    symmetries exact in floating point: {n} = 0 exactly when r divides n,
    {r - n} = -{n} bit for bit, and small levels hit correctly rounded
    algebraic values (at r = 3, {1} equals math.sqrt(3), so eta = 1.0).
    """
    x = Fraction(2 * n, r) % 2  # the angle is pi * x with x in [0, 2)
    sign = 1.0
    if x >= 1:  # sin(pi (1 + t)) = -sin(pi t)
        x -= 1
        sign = -1.0
    if 2 * x > 1:  # sin(pi (1 - t)) = sin(pi t)
        x = 1 - x
    return sign * 2.0 * math.sin(math.pi * float(x))


class RootContext:
    """Cached quantum data at level r (odd, >= 3)."""

    def __init__(self, r: int):
        _require_level(r)
        self.r = r
        self.zeta = _two_sin_two_pi(1, r)
        self.eta = self.zeta / math.sqrt(r)
        self.colors = tuple(range(0, r - 2, 2))
        # {n} and {n}! for 0 <= n <= r
        self._qint = [_two_sin_two_pi(n, r) for n in range(r + 1)]
        self._qfact = list(accumulate(self._qint[1:], operator.mul, initial=1.0))

    def __repr__(self) -> str:
        return f"RootContext(r={self.r})"

    def _check_color(self, c: int) -> None:
        if not _is_int(c) or c % 2 != 0 or not 0 <= c <= self.r - 3:
            raise DomainError(f"color {c!r} is not in I_{self.r} = {{0, 2, ..., {self.r - 3}}}")


def quantum_integer(ctx: RootContext, n: int) -> float:
    """{n} = 2 sin(2 pi n / r) for integers 0 <= n <= r."""
    if not _is_int(n) or not 0 <= n <= ctx.r:
        raise DomainError(f"quantum_integer defined for integers 0 <= n <= r = {ctx.r}, got {n!r}")
    return ctx._qint[n]


def quantum_factorial(ctx: RootContext, n: int) -> float:
    """{n}! = {1}{2}...{n}, with {0}! = 1, for integers 0 <= n <= r."""
    if not _is_int(n) or not 0 <= n <= ctx.r:
        raise DomainError(f"quantum_factorial defined for integers 0 <= n <= r = {ctx.r}, got {n!r}")
    return ctx._qfact[n]


def is_admissible(ctx: RootContext, i: int, j: int, k: int) -> bool:
    """Admissibility of a color triple at level r."""
    for c in (i, j, k):
        ctx._check_color(c)
    return _admissible(ctx, i, j, k)


def _admissible(ctx: RootContext, i: int, j: int, k: int) -> bool:
    """The triangle inequalities and the ceiling, for colors already in I_r."""
    return i <= j + k and j <= i + k and k <= i + j and i + j + k <= 2 * (ctx.r - 2)


def _require_admissible(ctx: RootContext, i: int, j: int, k: int) -> None:
    if not is_admissible(ctx, i, j, k):
        raise DomainError(f"triple ({i}, {j}, {k}) is not admissible at r = {ctx.r}")


@_in_float_range
def delta(ctx: RootContext, i: int, j: int, k: int) -> complex:
    """Delta(i, j, k), principal square root; may be purely imaginary."""
    _require_admissible(ctx, i, j, k)
    return _delta(ctx, i, j, k)


def _delta(ctx: RootContext, i: int, j: int, k: int) -> complex:
    fact = ctx._qfact
    s = (i + j + k) // 2
    rad = fact[s - k] * fact[s - j] * fact[s - i] / fact[s + 1]
    return math.sqrt(ctx.zeta) * cmath.sqrt(complex(rad, 0.0))


@_in_float_range
def theta(ctx: RootContext, i: int, j: int, k: int) -> float:
    """Theta graph weight of an admissible triple (real)."""
    _require_admissible(ctx, i, j, k)
    fact = ctx._qfact
    s = (i + j + k) // 2
    value = (-1.0 if s % 2 else 1.0) * fact[s + 1] / ctx.zeta
    # the parameter opposite each edge, over that edge
    for p, c in ((s - i, i), (s - j, j), (s - k, k)):
        value = value * fact[p] / fact[c]
    return value


def _half_sums(tup: tuple[int, int, int, int, int, int]) -> tuple[list[int], list[int]]:
    T = [sum(tup[s] for s in face) // 2 for face in _FACES]
    Q = [sum(tup[s] for s in quad) // 2 for quad in _QUADS]
    return T, Q


def _validate_tuple(ctx: RootContext, tup: tuple[int, ...]) -> None:
    if len(tup) != 6:
        raise DomainError(f"six-j tuple must have 6 colors, got {len(tup)}")
    for face in _FACES:
        _require_admissible(ctx, *(tup[s] for s in face))


def _racah_sum(ctx: RootContext, T: list[int], Q: list[int]) -> float:
    """The six-j symbol's R, z from max T to min(min Q, r - 2)."""
    fact = ctx._qfact
    racah = 0.0
    for z in range(max(T), min(*Q, ctx.r - 2) + 1):
        term = fact[z + 1]
        for t in T:
            term /= fact[z - t]
        for q in Q:
            term /= fact[q - z]
        racah += -term if z % 2 else term
    return racah


@_in_float_range
def tet_symbol(ctx: RootContext, *tup: int) -> float:
    """Tetrahedral net evaluation of an admissible tuple (real)."""
    _validate_tuple(ctx, tup)
    T, Q = _half_sums(tup)
    fact = ctx._qfact
    value = _racah_sum(ctx, T, Q) / ctx.zeta
    # two of the twelve parameters Q_c - T_b over each edge
    legs = [q - t for q in Q for t in T]
    for c, p1, p2 in zip(tup, legs[::2], legs[1::2]):
        value = value * fact[p1] / fact[c] * fact[p2]
    return value


@_in_float_range
def six_j(ctx: RootContext, *tup: int) -> complex:
    """Root-of-unity six-j symbol |i j k; l m n| of an admissible tuple.

    Symmetric under column permutations and simultaneous upper/lower
    exchange of two columns; the all-zero tuple gives 1.
    """
    _validate_tuple(ctx, tup)
    T, Q = _half_sums(tup)
    racah = _racah_sum(ctx, T, Q)
    prefactor = (-1.0 if sum(tup) % 4 else 1.0) / ctx.zeta
    for face in _FACES:
        prefactor *= _delta(ctx, *(tup[s] for s in face))
    return prefactor * racah
