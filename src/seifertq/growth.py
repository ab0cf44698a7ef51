"""Lower bounds and asymptotics of the real invariant along level sequences.

For a bounded symbol whose congruence system has solution set B with modulus
A = lcm(a_j), the invariant of the orientation double at a level r = k A
(odd) dominates

    bound(r) = (k A)^{a_eps g - 1} * 2 |B| k prod_j a_j / 2^{2n + a_eps g - 1},

and the closed double's modulus-squared invariant dominates bound(r)^2.
Each gamma of B has one sign vector, so |B| counts rt.z_direct's support at
level A.  Both bounds grow polynomially in r whenever B is nonempty, which
forces the normalized logarithm

    LTV(r) = (2 pi / r) * log |TV_r|

to converge to zero along the sequence r = A, 3A, 5A, ...; the scan helper
samples LTV at given levels and least-squares fits log |TV_r| against log r,
estimating the polynomial growth exponent.  TV_r itself comes from tv, the
one module that turns RT values into TV values.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import DegenerateSystemError, DomainError, _in_float_range
from .rt import _double_setup
from .symbols import SeifertSymbol, _require_symbol
from .tv import tv_bounded, tv_closed

__all__ = ["LowerBound", "lower_bound", "LemmaCheck", "verify_lemma", "LtvSample", "ltv_scan"]


class LowerBound(NamedTuple):
    value: float
    r: int
    modulus: int
    multiplier: int
    cardinality: int
    warnings: tuple[str, ...] = ()


@_in_float_range
def lower_bound(symbol: SeifertSymbol, r: int) -> LowerBound:
    """Growth lower bound for a bounded symbol at an admissible level r = k A."""
    _, _, gammas, A = _double_setup(symbol, r)  # checks that symbol is a SeifertSymbol; A = lcm(a_j) once B is nonempty
    if not gammas:
        raise DegenerateSystemError(
            "the congruence system has no solutions (B is empty), so the "
            "divisibility hypothesis fails and no positive lower bound exists"
        )
    fibers, k, cardinality, a_eps_g = symbol.fibers, r // A, len(gammas), symbol.a_eps * symbol.genus
    value = (
        float(r) ** (a_eps_g - 1) * 2.0 * cardinality * k * math.prod([a for a, _ in fibers])
        / 2.0 ** (2 * len(fibers) + a_eps_g - 1)
    )
    return LowerBound(value, r, A, k, cardinality)


class LemmaCheck(NamedTuple):
    bound: LowerBound  # at the level bound.r of both invariants
    tv_bounded_value: float
    tv_closed_double_value: float

    @property
    def satisfied(self) -> bool:
        return (
            self.tv_bounded_value >= self.bound.value
            and self.tv_closed_double_value >= self.bound.value**2
        )


@_in_float_range
def verify_lemma(symbol: SeifertSymbol, r: int) -> LemmaCheck:
    """Compare the bound against the actual invariants at level r.

    Both invariants come from one evaluation of tv_bounded(M): RT(D(M)) is
    real, so tv_closed(D(M)) = |RT(D(M))|^2 is its square.
    """
    bound = lower_bound(symbol, r)
    tv = tv_bounded(symbol, r).value
    return LemmaCheck(bound, tv, tv**2)


class LtvSample(NamedTuple):
    r: int
    tv_value: float
    ltv: float


def ltv_scan(symbol: SeifertSymbol, levels: Iterable[int]) -> tuple[tuple[LtvSample, ...], float | None]:
    """Sample LTV(r) = (2 pi / r) log |TV_r| at the given levels.

    TV_r is tv_closed of a closed symbol and tv_bounded of a bounded one.
    D(M) and the RT data of all levels are built once (rt._bounded_plan, _plan),
    the pass over the fibers once per class mod A (rt._fiber_class): at r = kA a
    level costs one sine power per gamma of the double's support.

    Returns the samples and, when at least two distinct levels are given,
    the least-squares slope of log |TV_r| against log r (None otherwise).
    The slope estimates the polynomial growth exponent of the invariant; a
    finite exponent is what forces LTV to 0 along the sampled sequence.
    """
    _require_symbol(symbol)
    levels = list(levels)  # read once: an iterator gives its levels to the loop and the slope alike
    if not levels:
        raise DomainError("ltv_scan needs at least one level")
    tv = tv_bounded if symbol.boundary else tv_closed
    samples, ys = [], []  # ys: log |TV_r|, taken once per level for the sample and the slope
    for r in levels:
        value = tv(symbol, r).value
        if value == 0.0:
            raise DomainError(f"invariant vanishes at r={r}; LTV is undefined")
        ys.append(math.log(abs(value)))
        samples.append(LtvSample(r, value, 2.0 * math.pi / r * ys[-1]))

    slope: float | None = None
    if len(set(levels)) >= 2:
        xs = [math.log(r) for r in levels]
        x_mean = math.fsum(xs) / len(xs)
        dx = [x - x_mean for x in xs]
        slope = math.fsum([d * y for d, y in zip(dx, ys)]) / math.fsum([d * d for d in dx])
    return tuple(samples), slope
