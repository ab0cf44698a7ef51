"""Turaev-Viro invariants derived from the chiral invariant.

This module is the one place that turns an RT value into a TV value.  For a
closed symbol the TV invariant is the modulus squared of RT.  For a symbol
with boundary it is RT of the orientation double, which rt_closed computes
exactly real, and exactly 0 where the double's sum vanishes (see rt: each
mirrored pair of fibers contributes a real factor, exact where it is 0), so
the value is its real part.  Since RT(D(M)) is real, TV(D(M)) = TV(M)^2.
"""

from __future__ import annotations

from .errors import _in_float_range
from .rt import InvariantValue, rt_closed
from .symbols import SeifertSymbol, double

__all__ = ["tv_closed", "tv_bounded"]


@_in_float_range
def tv_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """|RT|^2 of a closed symbol."""
    rt = rt_closed(symbol, r)
    return InvariantValue(abs(rt.value) ** 2, rt.r, "tv-closed", rt.term_count, rt.term_magnitude_sum, rt.warnings)


def tv_bounded(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT of the orientation double of a bounded symbol, which is real; its errors are double's and rt_closed's."""
    rt = rt_closed(double(symbol), r)
    fields = (rt.value.real, rt.r, "tv-bounded", rt.term_count, rt.term_magnitude_sum, rt.warnings)
    return tuple.__new__(InvariantValue, fields)  # as in rt.z_direct, no arity check: test_rt checks every field
