"""Turaev-Viro invariants derived from the chiral invariant.

For a closed symbol the TV invariant is the modulus squared of RT.  For a
symbol with boundary it is RT of the orientation double, which rt_closed
computes exactly real, and exactly 0 where the double's sum vanishes (see
rt: each mirrored pair of fibers contributes a real factor, exact where it
is 0), so the value is its real part.
"""

from __future__ import annotations

from .errors import DomainError, _in_float_range
from .rt import InvariantValue, rt_closed
from .symbols import SeifertSymbol, double

__all__ = ["tv_closed", "tv_bounded"]


def _tv_from_rt(rt: InvariantValue) -> InvariantValue:
    """TV of a closed symbol from its RT value: |RT|^2."""
    return InvariantValue(abs(rt.value) ** 2, rt.r, "tv-closed", rt.term_count, rt.term_magnitude_sum, rt.warnings)


def _tv_from_double_rt(rt: InvariantValue) -> InvariantValue:
    """TV of a bounded symbol from the RT value of its double, whose imaginary part is 0."""
    return InvariantValue(rt.value.real, rt.r, "tv-bounded", rt.term_count, rt.term_magnitude_sum, rt.warnings)


@_in_float_range
def tv_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """|RT|^2 of a closed symbol."""
    return _tv_from_rt(rt_closed(symbol, r))


def tv_bounded(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT of the orientation double of a bounded symbol; real, and in float range once rt_closed is."""
    if not symbol.has_boundary:
        raise DomainError("tv_bounded expects a symbol with boundary; use tv_closed")
    return _tv_from_double_rt(rt_closed(double(symbol), r))
