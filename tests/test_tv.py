"""Turaev-Viro values from the chiral side: closed symbols and doubles."""

from __future__ import annotations

import pytest

from seifertq import (
    DomainError,
    SeifertSymbol,
    double,
    ltv_scan,
    rt_closed,
    tv_bounded,
    tv_closed,
    verlinde_dimension,
    z_direct,
)


def test_tv_closed_is_modulus_squared():
    symbol = SeifertSymbol("o", 1, ((3, 1), (5, 2)))
    for r in (5, 7):
        rt = rt_closed(symbol, r).value
        tv = tv_closed(symbol, r).value
        assert tv == pytest.approx(abs(rt) ** 2, rel=1e-12)


def test_tv_closed_genus_two_value():
    # RT((o,2;[])) at r = 3 is the Verlinde number 4, so TV is 16
    got = tv_closed(SeifertSymbol("o", 2), 3)
    assert got.value == pytest.approx(16.0, rel=1e-12)
    assert verlinde_dimension(2, 3) == pytest.approx(4.0)


def test_tv_bounded_is_real_part_of_double():
    symbol = SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)
    for r in (15, 45):
        via_double = rt_closed(double(symbol), r).value
        got = tv_bounded(symbol, r)
        assert got.value == via_double.real
        assert got.value > 0
        assert via_double.imag == 0.0


@pytest.mark.parametrize(
    "fibers, r", [(((4, -5), (6, 1)), 49), (((12, -7), (2, 1)), 59), (((2, 3), (12, -1)), 55)]
)
def test_tv_bounded_is_an_exact_zero_where_the_double_s_sum_vanishes(fibers, r):
    # a 60-digit evaluation of the Gauss-sum form gives |Z(D)| < 1e-94 on each; Gauss sums that vanish used to
    # round to about 1e-16 and leave noise, e.g. TV 2.0e-08 against a term magnitude sum of 2.2e25 on the first
    symbol = SeifertSymbol("o", 3, fibers, boundary=True)
    assert rt_closed(double(symbol), r).value == 0
    assert tv_bounded(symbol, r).value == 0.0
    with pytest.raises(DomainError, match=f"^invariant vanishes at r={r}; LTV is undefined$"):
        ltv_scan(symbol, [r, r + 2])


@pytest.mark.parametrize(
    "symbol, r",
    [
        (SeifertSymbol("o", 3, ((12, 11), (14, -1), (2, -1), (4, -5))), 25),
        (SeifertSymbol("n", 3, ((8, -5), (2, -1), (12, -23), (14, -15))), 3),
    ],
)
def test_tv_closed_is_an_exact_zero_where_z_vanishes(symbol, r):
    # no fiber has a mirror, and at every gamma some fiber's two Gauss sums are 0 (to 60 digits), so Z = 0;
    # the unpaired fibers' tables used to keep those sums as about 1e-16 and leave |Z| = 1.0e-22 and 4.2e-29
    assert z_direct(symbol, r).value == 0j
    assert tv_closed(symbol, r).value == 0.0
    with pytest.raises(DomainError, match=f"^invariant vanishes at r={r}; LTV is undefined$"):
        ltv_scan(symbol, [r, r + 2])


def test_tv_bounded_requires_boundary():
    # double checks the boundary, once for the whole tv_bounded -> rt_closed -> z_direct route
    with pytest.raises(DomainError, match=r"^double\(\) requires a symbol with boundary$"):
        tv_bounded(SeifertSymbol("o", 1, ((3, 1),)), 5)


def test_tv_closed_rejects_bounded():
    with pytest.raises(DomainError):
        tv_closed(SeifertSymbol("o", 1, ((3, 1),), boundary=True), 5)


def test_methods_recorded():
    closed = tv_closed(SeifertSymbol("o", 1), 5)
    assert closed.method == "tv-closed"
    bounded = tv_bounded(SeifertSymbol("o", 1, ((3, 1),), boundary=True), 3)
    assert bounded.method == "tv-bounded"
