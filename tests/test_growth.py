"""Growth lower bounds, lemma verification, and LTV decay scans."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seifertq.congruence
import seifertq.growth
import seifertq.rt
import seifertq.tv
from seifertq import (
    DegenerateSystemError,
    DomainError,
    SeifertSymbol,
    classify_system,
    double,
    lower_bound,
    ltv_scan,
    system_modulus,
    tv_bounded,
    tv_closed,
    verify_lemma,
)

ANCHOR = SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)


def test_bound_anchor_values():
    b1 = lower_bound(ANCHOR, 15)
    assert b1.value == pytest.approx(56.25, rel=1e-12)
    assert (b1.modulus, b1.multiplier, b1.cardinality) == (15, 1, 4)
    b3 = lower_bound(ANCHOR, 45)
    assert b3.value == pytest.approx(506.25, rel=1e-12)
    assert b3.multiplier == 3
    # closed doubles are bounded below by the square
    assert b1.value**2 == pytest.approx(3164.0625, rel=1e-12)


def test_bound_scales_quadratically_in_k():
    values = [lower_bound(ANCHOR, 15 * k).value for k in (1, 3, 5)]
    assert values[1] == pytest.approx(values[0] * 9, rel=1e-12)
    assert values[2] == pytest.approx(values[0] * 25, rel=1e-12)


def test_bound_preconditions():
    with pytest.raises(DomainError):
        lower_bound(SeifertSymbol("o", 1, ((3, 1),)), 3)  # closed
    with pytest.raises(DomainError):
        lower_bound(SeifertSymbol("o", 1, boundary=True), 3)  # no fibers
    with pytest.raises(DomainError):
        lower_bound(SeifertSymbol("o", 1, ((3, 1), (1, 2)), boundary=True), 3)  # unit fiber
    with pytest.raises(DomainError):
        lower_bound(ANCHOR, 30)  # even
    with pytest.raises(DomainError):
        lower_bound(ANCHOR, 25)  # not a multiple of A = 15
    with pytest.raises(DomainError):
        lower_bound(ANCHOR, 15.0)  # not an integer


def test_unsolvable_system_has_no_bound():
    symbol = SeifertSymbol("o", 1, ((5, 1), (5, 3)), boundary=True)
    with pytest.raises(DegenerateSystemError, match="no solutions"):
        lower_bound(symbol, 5)
    with pytest.raises(DegenerateSystemError, match="hypothesis"):
        verify_lemma(symbol, 5)


def test_lemma_holds_at_anchor_levels():
    for r in (15, 45):
        check = verify_lemma(ANCHOR, r)
        assert check.satisfied
        assert check.tv_bounded_value >= check.bound.value > 1
        assert check.tv_closed_double_value >= check.bound.value**2


def test_lemma_values_consistent_with_tv():
    check = verify_lemma(ANCHOR, 15)
    assert check.tv_bounded_value == tv_bounded(ANCHOR, 15).value
    assert check.tv_closed_double_value == tv_closed(double(ANCHOR), 15).value


def test_lemma_evaluates_rt_once(monkeypatch):
    original = seifertq.rt.rt_closed
    calls = []

    def counting(symbol, r):
        calls.append((symbol, r))
        return original(symbol, r)

    # replace rt_closed at every module that binds it, whichever route is taken
    for name, module in list(sys.modules.items()):
        if name.startswith("seifertq") and getattr(module, "rt_closed", None) is original:
            monkeypatch.setattr(module, "rt_closed", counting)
    verify_lemma(ANCHOR, 15)
    assert calls == [(double(ANCHOR), 15)]


def test_ltv_scan_builds_one_double_per_level(monkeypatch, clear_rt_caches):
    fiber, checked, doubles = seifertq.congruence._fiber, [], []

    def counting(a, b):
        checked.append((a, b))
        return fiber(a, b)

    def counting_double(symbol):
        doubles.append(symbol)
        return double(symbol)

    monkeypatch.setattr(seifertq.congruence, "_fiber", counting)
    monkeypatch.setattr(seifertq.tv, "double", counting_double)
    clear_rt_caches()
    samples, _ = ltv_scan(ANCHOR, [15, 45, 75])
    # tv_bounded builds the double at each level from ANCHOR's checked fibers, so no fiber is checked again
    assert doubles == [ANCHOR] * 3
    assert checked == []
    monkeypatch.undo()
    assert [s.tv_value for s in samples] == [tv_bounded(ANCHOR, r).value for r in (15, 45, 75)]


@st.composite
def seifert_symbols(draw, boundary, moduli=st.integers(2, 15)):
    """1-3 fibers with a drawn from moduli and coprime b in [-2a, 2a], either base, genus 1-3."""
    fibers = tuple(
        (a, draw(st.sampled_from([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1])))
        for a in draw(st.lists(moduli, min_size=1, max_size=3))
    )
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 3)), fibers, boundary=boundary)


# r = k A is odd only when every a is, so the bounded symbols draw odd a in [3, 15]
@settings(max_examples=40, deadline=None)
@given(symbol=seifert_symbols(boundary=True, moduli=st.sampled_from(range(3, 16, 2))), k=st.sampled_from([1, 3]))
def test_lemma_values_are_tv_values_property(symbol, k):
    assume(classify_system(symbol.fibers).certificate is not None)
    r = k * system_modulus(symbol.fibers)
    check = verify_lemma(symbol, r)
    assert check.tv_bounded_value == tv_bounded(symbol, r).value
    assert check.tv_closed_double_value == tv_closed(double(symbol), r).value


@settings(max_examples=40, deadline=None)
@given(
    symbol=st.booleans().flatmap(seifert_symbols),
    levels=st.lists(st.sampled_from(range(3, 46, 2)), min_size=1, max_size=3),
)
def test_ltv_scan_samples_are_tv_values_property(symbol, levels):
    tv = tv_bounded if symbol.boundary else tv_closed
    values = [tv(symbol, r).value for r in levels]
    if 0.0 in values:
        with pytest.raises(DomainError, match="vanishes"):
            ltv_scan(symbol, levels)
        return
    samples, _ = ltv_scan(symbol, levels)
    assert [s.tv_value for s in samples] == values


def test_scan_and_lemma_build_one_plan(clear_rt_caches):
    clear_rt_caches()
    ltv_scan(ANCHOR, [15, 45, 75])
    verify_lemma(ANCHOR, 15)
    assert seifertq.rt._plan.cache_info().misses == 1
    # 15, 45 and 75 are all 0 (mod A = 15): one pass over the double's fibers serves the four evaluations
    # and the lemma's bound
    assert seifertq.rt._fiber_class.cache_info()[:2] == (4, 1)


@pytest.mark.parametrize(
    "symbol",
    [
        ANCHOR,
        SeifertSymbol("n", 2, ((9, 2),), boundary=True),
        # (5, 1) and (5, 4), b^* = 1 and 4 = -1 (mod 5), give the one constraint (5, 1)
        SeifertSymbol("o", 2, ((5, 1), (5, 4), (3, 2)), boundary=True),
    ],
    ids=["anchor", "one-fiber", "shared-constraint"],
)
def test_scan_and_lemma_fold_the_congruences_once(monkeypatch, symbol, clear_rt_caches):
    # at r = kA the double's constraints (a_j, +-b_j^*) are the same for every k, and at A they are the bound's
    A = system_modulus(symbol.fibers)
    levels = [A, 3 * A, 5 * A, 7 * A]
    fold, folds = seifertq.rt._crt_fold, []

    def counting(constraints):
        folds.append(sorted(constraints))
        return fold(constraints)

    for module in (seifertq.rt, seifertq.congruence):
        monkeypatch.setattr(module, "_crt_fold", counting)
    clear_rt_caches()
    samples, _ = ltv_scan(symbol, levels)
    check = verify_lemma(symbol, A)
    assert len(folds) == 1
    monkeypatch.undo()
    # a fold reused from the cache gives the floats of a fold done from cold, at every level
    for sample in samples:
        clear_rt_caches()
        assert sample.tv_value == tv_bounded(symbol, sample.r).value
    assert check.tv_bounded_value == samples[0].tv_value


def test_ltv_scan_decreases_toward_zero():
    samples, slope = ltv_scan(ANCHOR, [15, 45, 75])
    ltvs = [s.ltv for s in samples]
    assert all(v > 0 for v in ltvs)
    assert ltvs == sorted(ltvs, reverse=True)
    for s in samples:
        assert s.ltv == pytest.approx(2 * math.pi / s.r * math.log(abs(s.tv_value)), rel=1e-12)


def test_ltv_scan_growth_exponent_is_polynomial():
    # |TV| of the doubled anchor grows like r^7 at the sampled levels
    # (prefactor r, six inverse sine powers), safely under the cap
    # 2 (a_eps g_double - 1) + 2 = 8.
    _, slope = ltv_scan(ANCHOR, [15, 45, 75, 105])
    assert slope is not None
    assert 6.0 < slope < 8.0


def test_ltv_scan_single_level_has_no_slope():
    samples, slope = ltv_scan(ANCHOR, [15])
    assert len(samples) == 1
    assert slope is None


def test_ltv_scan_repeated_level_has_no_slope():
    samples, slope = ltv_scan(ANCHOR, [15, 15])
    assert [s.r for s in samples] == [15, 15]
    assert slope is None


def test_ltv_scan_slope_is_least_squares():
    samples, slope = ltv_scan(ANCHOR, [15, 45, 75])
    xs = [math.log(s.r) for s in samples]
    ys = [math.log(abs(s.tv_value)) for s in samples]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy, sxx = sum(x * y for x, y in zip(xs, ys)), sum(x * x for x in xs)
    assert slope == pytest.approx((n * sxy - sx * sy) / (n * sxx - sx * sx), rel=1e-9)


def test_ltv_scan_needs_levels():
    with pytest.raises(DomainError):
        ltv_scan(ANCHOR, [])


def test_ltv_scan_reads_an_iterator_once():
    samples, slope = ltv_scan(ANCHOR, iter([15, 45]))
    assert (samples, slope) == ltv_scan(ANCHOR, [15, 45])
    assert slope == pytest.approx(6.96, abs=0.01)


def test_ltv_scan_rejects_an_empty_iterator():
    with pytest.raises(DomainError):
        ltv_scan(ANCHOR, iter([]))
