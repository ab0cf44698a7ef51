"""Turaev-Viro invariants derived from the chiral invariant.

For a closed symbol the TV invariant is the modulus squared of RT.  For a
symbol with boundary it is computed on the orientation double: the double
has Euler number zero, its invariant is real up to numerical noise, and the
value is the real part of RT of the double.  A residual imaginary part
exceeding 1e-9 relative to the real part indicates an inconsistency and is
reported as such rather than silently discarded.
"""

from __future__ import annotations

from .errors import DomainError, NumericInconsistencyError, _in_float_range
from .rt import InvariantValue, rt_closed
from .symbols import SeifertSymbol, double

__all__ = ["tv_closed", "tv_bounded"]

_IMAG_TOLERANCE = 1e-9


def _tv_from_rt(rt: InvariantValue) -> InvariantValue:
    """TV of a closed symbol from its RT value: |RT|^2."""
    return InvariantValue(abs(rt.value) ** 2, rt.r, "tv-closed", rt.term_count, rt.term_magnitude_sum, rt.warnings)


def _tv_from_double_rt(rt: InvariantValue) -> InvariantValue:
    """TV of a bounded symbol from the RT value of its double: the real part."""
    real, imag = rt.value.real, rt.value.imag
    if abs(imag) > _IMAG_TOLERANCE * (1.0 + abs(real)):
        raise NumericInconsistencyError(
            f"double's invariant should be real; got imaginary part {imag:.3e} "
            f"against real part {real:.3e} at r={rt.r}"
        )
    return InvariantValue(real, rt.r, "tv-bounded", rt.term_count, rt.term_magnitude_sum, rt.warnings)


@_in_float_range
def tv_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """|RT|^2 of a closed symbol."""
    return _tv_from_rt(rt_closed(symbol, r))


def tv_bounded(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT of the orientation double of a bounded symbol; real, and in float range once rt_closed is."""
    if not symbol.has_boundary:
        raise DomainError("tv_bounded expects a symbol with boundary; use tv_closed")
    return _tv_from_double_rt(rt_closed(double(symbol), r))
