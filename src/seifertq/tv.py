"""Turaev-Viro invariants derived from the chiral invariant.

This module is the one place that turns an RT value into a TV value.  For a
closed symbol the TV invariant is the modulus squared of RT.  For a symbol M
with boundary it is RT of the orientation double D(M), kept in M's rt plan;
rt_closed computes it exactly real, and exactly 0 where the double's sum
vanishes (rt: each mirrored pair of fibers gives a real factor), so the value
is its real part.  Since RT(D(M)) is real, TV(D(M)) = TV(M)^2.
"""

from __future__ import annotations

from .errors import _in_float_range
from .rt import InvariantValue, _plan, rt_closed
from .symbols import SeifertSymbol, _require_symbol, double

__all__ = ["tv_closed", "tv_bounded"]


@_in_float_range
def tv_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """|RT|^2 of a closed symbol."""
    rt = rt_closed(symbol, r)
    return InvariantValue(abs(rt.value) ** 2, rt.r, "tv-closed", rt.term_count, rt.term_magnitude_sum, rt.warnings)


def tv_bounded(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT of the orientation double D(M), which is real; D(M) is the symbol of M's plan (rt._plan), built once."""
    _require_symbol(symbol)  # before the cache, which an equal plain tuple would hit
    rt = rt_closed(_plan(symbol).symbol if symbol.boundary else double(symbol), r)  # double rejects a closed symbol
    fields = (rt.value.real, rt.r, "tv-bounded", rt.term_count, rt.term_magnitude_sum, rt.warnings)
    return tuple.__new__(InvariantValue, fields)  # as in rt.z_direct, no arity check: test_rt checks every field
