"""Chiral invariants: direct sums, prefactors, and the simplified double form.

z_direct is cross-checked against a plain triple-loop oracle that evaluates
every phase with floating exponentials and no shared code, and against a loop
over every gamma with each fiber's literal Gauss sums, bit for bit where no
fibers pair off and none of the sums vanishes; the simplified double-sum form
is then checked against z_direct on the doubled symbol.
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seifertq.congruence
import seifertq.rt
from seifertq import (
    DegenerateSystemError,
    DomainError,
    InvariantValue,
    SeifertSymbol,
    dedekind_sum,
    double,
    enumerate_solutions,
    euler_number,
    lower_bound,
    normalize,
    rt_closed,
    tv_bounded,
    tv_closed,
    verlinde_dimension,
    z_direct,
    z_double_simplified,
)
from seifertq.rt import _fiber_class, _fsum_complex, _gauss_table, _nonzero, _pair_off, _phase, _plan, _scale_sum


# -- oracle ---------------------------------------------------------------------


def oracle_z(symbol, r):
    """Literal triple loop over (gamma, mu, m) with floating-point phases."""
    fibers = symbol.fibers
    n = len(fibers)
    a_eps = 2 if symbol.epsilon == "o" else 1
    g = symbol.genus
    e = float(euler_number(symbol))
    bstars = [pow(b % a, -1, a) if a > 1 else 0 for a, b in fibers]
    total = 0.0
    for gamma in range(1, r):
        for mu in product((1, -1), repeat=n):
            outer = (-1.0) ** (gamma * a_eps * g)
            outer *= cmath.exp(1j * math.pi * e * gamma * gamma / (2 * r))
            for (a, _), m in zip(fibers, mu):
                outer *= m * cmath.exp(-1j * math.pi * gamma * m / (a * r))
            outer /= math.sin(math.pi * gamma / r) ** (n + a_eps * g - 2)
            for ms in product(*(range(a) for a, _ in fibers)):
                inner = 1.0
                for (a, _), m, bs, mm in zip(fibers, mu, bstars, ms):
                    u = mm * (gamma + m * bs) + r * mm * mm * bs
                    inner *= cmath.exp(-2j * math.pi * u / a)
                total += outer * inner
    return total


# -- unit phases ------------------------------------------------------------------


def test_unit_phase_quarter_values_exact():
    assert _phase(0, 1) == 1
    assert _phase(1, 1) == -1
    assert _phase(1, 2) == 1j
    assert _phase(3, 2) == -1j
    assert _phase(7, 2) == -1j
    assert _phase(-1, 2) == -1j


def test_unit_phase_reduces_large_exponents():
    assert _phase(6 * 10**12 + 1, 3) == pytest.approx(_phase(1, 3), abs=1e-15)  # == 1/3 modulo 2


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@given(
    p=st.one_of(st.integers(-100, 100), st.integers(-(10**30), 10**30)),
    q=st.integers(1, 100),
    scale=st.integers(1, 5),
)
def test_unit_phase_rounds_once_after_exact_reduction(p, q, scale):
    x = Fraction(p, q)
    got = _phase(x.numerator, x.denominator)
    assert _bits(_phase(p * scale, q * scale)) == _bits(got)  # the same bits from an unreduced fraction
    if (2 * x).denominator == 1:
        assert got == (1, 1j, -1, -1j)[int(2 * x) % 4]
    else:
        want = cmath.exp(1j * math.pi * float(x % 2))
        assert _bits(got) == _bits(want)


# -- z_direct ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "symbol, r",
    [
        (SeifertSymbol("o", 1, ((3, 1),)), 5),
        (SeifertSymbol("o", 1, ((5, 2),)), 9),
        (SeifertSymbol("n", 1, ((3, 2), (2, 1))), 7),
        (SeifertSymbol("o", 2, ((4, 1), (4, 1))), 7),
        (SeifertSymbol("n", 2, ()), 5),
        (SeifertSymbol("o", 1, ((1001, 1),)), 3),  # a > r: only r - 1 residues occur
        # one case per regime of the Gauss table, split by d = gcd(r, a)
        pytest.param(SeifertSymbol("n", 1, ((7, 3), (4, 1))), 9, id="gcd-1"),
        pytest.param(SeifertSymbol("o", 1, ((9, 2),)), 15, id="gcd-3-of-9-vanishing"),
        pytest.param(SeifertSymbol("o", 1, ((9, 4),)), 15, id="gcd-3-of-9"),
        pytest.param(SeifertSymbol("o", 1, ((25, 1), (3, 1))), 15, id="gcd-5-of-25-and-a-divides-r"),
        pytest.param(double(SeifertSymbol("n", 1, ((3, 2),), boundary=True)), 9, id="double-r-3A"),
        pytest.param(double(SeifertSymbol("o", 1, ((3, 1), (5, 2)), boundary=True)), 15, id="double-r-A"),
    ],
)
def test_z_direct_matches_oracle(symbol, r):
    got = z_direct(symbol, r)
    want = oracle_z(symbol, r)
    scale = max(1.0, abs(want))
    assert abs(got.value - want) < 1e-9 * scale
    n = len(symbol.fibers)
    expected_terms = (r - 1) * 2**n * math.prod(a for a, _ in symbol.fibers)
    assert got.term_count == expected_terms


def test_z_direct_preconditions():
    with pytest.raises(DomainError):
        z_direct(SeifertSymbol("o", 1), 4)  # even level
    with pytest.raises(DomainError):
        z_direct(SeifertSymbol("o", 1, boundary=True), 5)  # bounded symbol
    with pytest.raises(DomainError):
        z_direct(SeifertSymbol("o", 1, ((0, 1),)), 5)  # zero multiplicity


def literal_gauss(a, bstar, r):
    """H(t) = sum_{m in Z_a} exp(-2 pi i (t m + r b^* m^2) / a) for every t in Z_a, each exponent reduced mod a."""
    roots = [cmath.exp(-2j * math.pi * k / a) for k in range(a)]
    return [_fsum_complex([roots[(t * m + r * bstar * m * m) % a] for m in range(a)]) for t in range(a)]


def full_loop_z(symbol, r):
    """z_direct as a loop over every gamma in 1..r-1, each looked up in every fiber's literal Gauss sums."""
    euler = euler_number(symbol)
    exponent = len(symbol.fibers) + symbol.a_eps * symbol.genus - 2
    odd_sign = symbol.a_eps * symbol.genus % 2
    bstars = [(a, pow(b, -1, a)) for a, b in symbol.fibers]
    fibers = [(a, bstar, literal_gauss(a, bstar, r)) for a, bstar in bstars]

    terms, scales = [], []
    for gamma in range(1, r):
        scale = math.sin(math.pi * gamma / r) ** -exponent
        scales.append(scale)
        term = -scale if gamma & odd_sign else scale
        for a, bstar, table in fibers:
            phase = _phase(gamma, a * r)
            term *= phase.conjugate() * table[(gamma + bstar) % a] - phase * table[(gamma - bstar) % a]
        terms.append(term * _phase(euler.numerator * gamma * gamma, 2 * r * euler.denominator))

    per_gamma = 2 ** len(fibers) * math.prod(a for a, _, _ in fibers)
    magnitude = per_gamma * math.fsum(scales)
    return InvariantValue(
        value=_fsum_complex(terms) if magnitude < math.inf else magnitude,
        r=r,
        method="direct",
        term_count=(r - 1) * per_gamma,
        term_magnitude_sum=magnitude,
    )


@st.composite
def symbols_at_levels(draw):
    """A closed symbol (n <= 4, a <= 15, unit fibers, repeated moduli) and an odd level r.

    The level is of one of four kinds: r = k lcm(a_j) with every a_j odd; r
    coprime to every a_j; r < max a_j, where a Gauss table is built from
    the residues that occur; or r > max a_j with 1 < gcd(r, a_0) < a_0, where
    a_0 (odd or even) may come with its mirror, so that the pair takes the
    constant a D in place of a table.
    """
    kind = draw(st.sampled_from(("multiple", "coprime", "below", "shares")))
    multiplicities = range(1, 16, 2) if kind == "multiple" else range(1, 16)
    pool = draw(st.lists(st.sampled_from(multiplicities), min_size=1, max_size=3))
    moduli = draw(st.lists(st.sampled_from(pool), min_size=1 if kind in ("below", "shares") else 0, max_size=4))
    if kind == "below":
        moduli[0] = draw(st.integers(4, 15))
    elif kind == "shares":
        moduli[0] = draw(st.sampled_from((6, 9, 10, 12, 14, 15)))  # each has an odd prime factor p < a
    fibers = tuple((a, draw(st.sampled_from([b for b in range(-a, 2 * a + 1) if math.gcd(a, b) == 1]))) for a in moduli)
    if kind == "shares":
        if draw(st.booleans()):
            fibers += ((moduli[0], -fibers[0][1]),)  # the mirror of fiber 0
        top = max(moduli)
        levels = range(top + 1, 3 * top + 10)
        r = draw(st.sampled_from([r for r in levels if r % 2 and 1 < math.gcd(r, moduli[0]) < moduli[0]]))
    elif kind == "multiple":
        modulus = math.lcm(*moduli)
        r = draw(st.sampled_from([k * modulus for k in (1, 3) if k * modulus >= 3]))
    elif kind == "coprime":
        r = 2 * draw(st.integers(1, 30)) + 1
        while any(math.gcd(r, a) > 1 for a in moduli):
            r += 2
    else:
        r = draw(st.sampled_from(range(3, max(moduli), 2)))
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 2)), fibers), r


def _fields(z):
    return z.value, z.term_magnitude_sum, z.term_count, z.warnings


@settings(deadline=None)
@given(case=symbols_at_levels())
# a pair with gcd(r, a) = 1, an unpaired fiber, e != 0 and the sign (-1)^gamma all in one loop: Z ~ -707 - 889i
@example(case=(SeifertSymbol("n", 1, ((7, 2), (7, 5), (5, 1))), 9))
def test_z_direct_equals_full_loop(case, clear_rt_caches):
    symbol, r = case
    clear_rt_caches()
    cold, warm, want = z_direct(symbol, r), z_direct(symbol, r), full_loop_z(symbol, r)
    assert _fields(cold) == _fields(warm)
    # z_direct skips the Gauss sums that vanish by its exact rule; the full loop keeps their literal sums,
    # which round to a few a eps, and sums each H over every m in Z_a rather than Z_{a/d}
    vanishing = any(abs(h) < 0.5 for a, b in symbol.fibers for h in literal_gauss(a, pow(b, -1, a), r))
    if _pair_off(symbol.fibers)[0] or vanishing:
        # a mirrored pair takes the real -|F|^2 for its two complex factors, the integer -a D where gcd(r, a) > 1:
        # the same terms, rounded otherwise
        assert _fields(cold)[1:] == _fields(want)[1:]
        assert abs(cold.value - want.value) <= 4 * sys.float_info.epsilon * want.term_magnitude_sum
    else:
        # value and term_magnitude_sum are compared exactly: fsum does not depend on the order of the terms
        assert _fields(cold) == _fields(want)


def _record_support_and_phases(monkeypatch, r):
    """Record the gamma of each sine sin(pi gamma / r) z_direct takes at level r, and the calls to _phase by (num, den).

    z_direct takes one sine per gamma it sums; the first _scale_sum(r, E) of a process takes the level's r - 1
    sines as well, so callers whose support is not every gamma evaluate once before they record.
    """
    gammas, phases = [], Counter()
    sin, phase = math.sin, seifertq.rt._phase

    def recording_sin(x):
        gammas.append(round(x * r / math.pi))
        return sin(x)

    def counting_phase(num, den):
        phases[num, den] += 1
        return phase(num, den)

    monkeypatch.setattr(math, "sin", recording_sin)
    monkeypatch.setattr(seifertq.rt, "_phase", counting_phase)
    return gammas, phases


def _support_of(symbol, r):
    """The support z_direct sums over for a closed symbol at level r: the gamma of the sines it takes once warm."""
    z_direct(symbol, r)  # caches the level sum of sines, which a first call takes besides the support's
    with pytest.MonkeyPatch.context() as patch:
        gammas, _ = _record_support_and_phases(patch, r)
        z_direct(symbol, r)
    return gammas


def test_z_direct_sums_only_the_surviving_gamma(monkeypatch):
    r = 9 * 45
    doubled = double(SeifertSymbol("o", 1, ((45, 1),), boundary=True))
    z_direct(doubled, r)  # caches the level sum of sines
    gammas, phases = _record_support_and_phases(monkeypatch, r)
    z_direct(doubled, r)
    # gamma == -+1 (mod 45), lifted by 45 nine times
    surviving = sorted(p * 45 + t for p in range(9) for t in (1, 44))
    assert len(surviving) == 2 * 9
    assert sorted(gammas) == surviving
    # gcd(r, 45) = 45, so the pair (45, 1), (45, -1) takes |F|^2 = 45^2 with no table and no phase
    # exp(i pi gamma / (45 r)); e = 0 needs no Euler phase exp(0 / 2r) either
    assert [(num, den) for num, den in phases if den in (45 * r, 2 * r)] == []


def test_z_direct_visits_each_gamma_once_at_a_coprime_level(monkeypatch):
    r = 27
    gammas, phases = _record_support_and_phases(monkeypatch, r)
    # the support is every gamma, so its sines give the level sum: no other sine is taken, cold or warm
    z_direct(SeifertSymbol("n", 2, ((7, 2), (11, 3), (7, -2), (1, 1))), r)
    assert sorted(gammas) == list(range(1, r))
    # an odd a coprime to r leaves no Gauss sum zero, so every gamma reaches the fiber (11, 3)
    assert {num: count for (num, den), count in phases.items() if den == 11 * r} == dict.fromkeys(range(1, r), 1)


def _coprime_fiber(a):
    return st.tuples(st.just(a), st.sampled_from([b for b in range(a) if math.gcd(a, b) == 1]))


@given(fibers=st.lists(st.integers(1, 15).flatmap(_coprime_fiber), max_size=5), r=st.sampled_from(range(3, 60, 2)))
@example(fibers=[(6, 1)], r=5)  # a == 2 (mod 4) and d = 1: the surviving gamma are 0 (mod 2)
@example(fibers=[(2, 1), (4, 1)], r=9)  # even gamma for (2, 1), odd for (4, 1): none survives
def test_support_matches_brute_force_property(fibers, r):
    bstars = [(a, pow(b, -1, a)) for a, b in fibers]
    support = _support_of(SeifertSymbol("o", 1, tuple(fibers)), r)
    # gamma survives when, for every fiber, the literal Gauss sum at (gamma + b*) or (gamma - b*) mod a is nonzero
    nonzero = [
        (a, bstar, {t for t, h in enumerate(literal_gauss(a, bstar, r)) if abs(h) >= 0.5}) for a, bstar in bstars
    ]
    brute = {
        gamma
        for gamma in range(1, r)
        if all((gamma + bstar) % a in ts or (gamma - bstar) % a in ts for a, bstar, ts in nonzero)
    }
    assert len(support) == len(set(support))
    assert set(support) == brute


def test_gauss_sums_vanish_exactly_off_the_nonzero_class():
    # every a <= 24, unit b* and odd r <= 2a + 9: H(t) != 0 exactly when t == t0 (mod D), and there |H|^2 = a D
    eps = sys.float_info.epsilon
    for a in range(1, 25):
        for bstar in (b for b in range(a) if math.gcd(a, b) == 1):
            for r in range(3, 2 * a + 10, 2):
                _, modulus, t0 = _nonzero(a, r)
                for t, h in enumerate(literal_gauss(a, bstar, r)):
                    if t % modulus == t0:
                        assert abs(abs(h) ** 2 - a * modulus) <= 8 * eps * a * a, (a, bstar, r, t)
                    else:
                        assert abs(h) < 1e-9 * a, (a, bstar, r, t)
                occurring = {(gamma + sign * bstar) % a for gamma in range(1, r) for sign in (1, -1)}
                assert set(_gauss_table(a, bstar, r)) == {t for t in occurring if t % modulus == t0}


def test_mirrored_pair_sharing_a_factor_with_r_has_modulus_a_d_on_its_support():
    # with d = gcd(r, a) > 1, 2 b* != 0 (mod D), so at each gamma of the support exactly one of H(gamma +- b*)
    # is nonzero and the literal |F|^2 = |H|^2 is the integer a D that z_direct multiplies in
    eps = sys.float_info.epsilon
    for a in range(2, 31):
        for r in (r for r in range(3, 2 * a + 10, 2) if math.gcd(r, a) > 1):
            _, modulus, _ = _nonzero(a, r)
            for bstar in (b for b in range(a) if math.gcd(a, b) == 1):
                table = literal_gauss(a, bstar, r)
                b = pow(bstar, -1, a)
                for gamma in _support_of(SeifertSymbol("o", 1, ((a, b), (a, -b))), r):
                    phase = _phase(gamma, a * r)
                    factor = phase.conjugate() * table[(gamma + bstar) % a] - phase * table[(gamma - bstar) % a]
                    assert abs(abs(factor) ** 2 - a * modulus) <= 8 * eps * a * a, (a, bstar, r, gamma)


def test_z_direct_sums_nothing_where_every_gamma_meets_a_vanishing_gauss_sum(monkeypatch):
    symbol = SeifertSymbol("o", 1, ((2, 1), (4, 1)))
    z_direct(symbol, 101)  # caches the level sum of sines
    gammas, _ = _record_support_and_phases(monkeypatch, 101)
    # (2, 1) is nonzero at even gamma only and (4, 1) at odd gamma only, so the support is empty
    z = z_direct(symbol, 101)
    assert gammas == []
    assert _bits(z.value) == _bits(0j)
    assert z.term_count == 100 * 2**2 * 2 * 4


# -- the level sum of sin^{-E} ------------------------------------------------------


# sum_{gamma=1}^{r-1} csc^{2m}(pi gamma / r) in closed form for odd r (Berndt-Yeap, Adv. Appl. Math. 29, 2002)
CSC_POWER_SUMS = {
    2: lambda r: (r * r - 1) / 3,
    4: lambda r: (r * r - 1) * (r * r + 11) / 45,
    6: lambda r: (r * r - 1) * (2 * r**4 + 23 * r * r + 191) / 945,
}


@given(r=st.sampled_from(range(3, 302, 2)), exponent=st.sampled_from(sorted(CSC_POWER_SUMS)))
def test_scale_sum_matches_closed_form(r, exponent):
    # near gamma = r the argument's rounding costs about r / pi ulps per term, times the exponent
    want = CSC_POWER_SUMS[exponent](r)
    assert _scale_sum(r, exponent) == pytest.approx(want, rel=exponent * r * sys.float_info.epsilon)


def _count_sines(monkeypatch):
    calls, sin = [], math.sin

    def counting(x):
        calls.append(x)
        return sin(x)

    monkeypatch.setattr(math, "sin", counting)
    return calls


def test_z_direct_computes_sines_only_at_its_support(monkeypatch, clear_rt_caches):
    double_45 = double(SeifertSymbol("o", 1, ((45, 1),), boundary=True))
    calls = _count_sines(monkeypatch)
    clear_rt_caches()
    z_direct(double_45, 405)
    assert len(calls) == 18 + 404  # the 2 * 9 gamma of the support, then the level sum once
    calls.clear()
    z_direct(double_45, 405)
    assert len(calls) == 18
    # 407 = 11 * 37 is coprime to 45: every gamma is summed and its sines give the level sum, cold or warm
    clear_rt_caches()
    for _ in range(2):
        calls.clear()
        z_direct(double_45, 407)
        assert len(calls) == 406


# -- rt_closed ---------------------------------------------------------------------


@pytest.mark.parametrize("r", [3, 5, 7, 25, 101])
def test_torus_bundle_counts_colors(r):
    # the trivial circle bundle over the torus carries one state per color pair
    value = rt_closed(SeifertSymbol("o", 1), r).value
    assert value == pytest.approx(r - 1, rel=1e-12)


@pytest.mark.parametrize("r", [3, 5, 9, 21])
def test_genus_two_matches_verlinde(r):
    value = rt_closed(SeifertSymbol("o", 2), r).value
    assert value == pytest.approx(verlinde_dimension(2, r), rel=1e-12)


def test_trivial_fibers_do_not_change_rt():
    plain = SeifertSymbol("o", 1, ((3, 1), (5, 2)))
    padded = SeifertSymbol("o", 1, ((3, 1), (1, 0), (5, 2), (1, 0)))
    for r in (5, 9):
        a = rt_closed(plain, r).value
        b = rt_closed(padded, r).value
        assert a == pytest.approx(b, rel=1e-12)


def test_rt_conjugates_under_orientation_reversal():
    symbol = SeifertSymbol("o", 1, ((3, 1), (5, 2)))
    mirrored = SeifertSymbol("o", 1, ((3, -1), (5, -2)))
    for r in (5, 7):
        a = rt_closed(symbol, r).value
        b = rt_closed(mirrored, r).value
        assert b == pytest.approx(a.conjugate(), abs=1e-12 * (1 + abs(a)))


@st.composite
def closed_symbols(draw):
    """Closed symbols with up to 3 fibers of multiplicity <= 9, coprime b in [-2a, 2a], maybe a (1, 0) fiber."""
    fibers = [
        (a, draw(st.sampled_from([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1])))
        for a in draw(st.lists(st.integers(1, 9), max_size=3))
    ]
    if draw(st.booleans()):
        fibers.insert(draw(st.integers(0, len(fibers))), (1, 0))
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 2)), tuple(fibers))


@settings(deadline=None)
@given(symbol=closed_symbols(), r=st.sampled_from(range(3, 16, 2)))
def test_rt_invariant_under_normalize(symbol, r):
    # normalize applies all three moves; the worst of 1 500 seeded draws was 1.9e-16
    value = rt_closed(symbol, r)
    assert abs(value.value - rt_closed(normalize(symbol), r).value) <= 1e-14 * value.term_magnitude_sum


def test_rt_closed_cancels_mirrored_dedekind_sums(monkeypatch):
    calls, dedekind = [], seifertq.rt._dedekind

    def counting(b, a):
        calls.append((b, a))
        return dedekind(b, a)

    monkeypatch.setattr(seifertq.rt, "_dedekind", counting)
    _plan.cache_clear()
    rt_closed(double(SeifertSymbol("o", 1, ((3, 1), (5, 2)), boundary=True)), 15)
    assert calls == []
    rt_closed(SeifertSymbol("o", 1, ((3, 1), (5, 2), (3, -1))), 7)
    assert calls == [(2, 5)]


def oracle_prefactor(symbol, r):
    """P1 P2 P3 from every fiber's Dedekind sum, with Fraction exponents taken by _phase in lowest terms."""
    fibers = symbol.fibers
    n, a_eps, g = len(fibers), symbol.a_eps, symbol.genus
    euler = -sum((Fraction(b, a) for a, b in fibers), Fraction(0))
    sign_e = (euler > 0) - (euler < 0)
    dedekind_total = sum((dedekind_sum(b, a) for a, b in fibers), Fraction(0))
    x1 = (Fraction(3 * (a_eps - 1) * sign_e) - euler - 12 * dedekind_total) / (2 * r)
    p1 = _phase(x1.numerator, x1.denominator)
    half_exp = Fraction(a_eps * g, 2)
    p2 = (
        (-1.0) ** (a_eps * g)
        * 1j**n
        * float(r) ** float(half_exp - 1)
        / (2.0 ** float(n + half_exp - 1) * math.sqrt(math.prod(a for a, _ in fibers)))
    )
    x3 = Fraction(3 * (1 - a_eps) * sign_e, 4)
    p3 = _phase(x3.numerator, x3.denominator)
    return p1 * p2 * p3


@st.composite
def mirrored_closed_symbols(draw):
    """Closed symbols with up to 4 fibers, b in [-2a, 3a), some fibers mirrored, unit fibers included."""
    coprime_b = lambda a: st.sampled_from([b for b in range(-2 * a, 3 * a) if math.gcd(a, b) == 1])  # noqa: E731
    fibers = [(a, draw(coprime_b(a))) for a in draw(st.lists(st.integers(1, 9), max_size=4))]
    mirrors = [(a, -b + a * draw(st.integers(-2, 2))) for a, b in fibers if draw(st.booleans())]
    fibers = draw(st.permutations((fibers + mirrors)[:4]))
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 3)), tuple(fibers))


@settings(deadline=None)
@given(symbol=mirrored_closed_symbols(), r=st.sampled_from(range(3, 16, 2)))
def test_rt_closed_prefactor_matches_oracle_exactly(symbol, r):
    prefactor = oracle_prefactor(symbol, r)
    z = z_direct(symbol, r)
    got = rt_closed(symbol, r)
    assert got.value == prefactor * z.value
    assert got.term_magnitude_sum == abs(prefactor) * z.term_magnitude_sum


@settings(deadline=None)
@given(symbol=mirrored_closed_symbols(), levels=st.lists(st.sampled_from(range(3, 30, 2)), min_size=2, max_size=2))
def test_plan_built_at_one_level_serves_another(symbol, levels, clear_rt_caches):
    first, second = levels
    for evaluate in (z_direct, rt_closed):
        clear_rt_caches()
        evaluate(symbol, first)
        warm = evaluate(symbol, second)
        clear_rt_caches()
        assert _fields(warm) == _fields(evaluate(symbol, second))


@st.composite
def closed_symbols_at_two_levels(draw):
    """Closed symbols with up to 3 fibers of multiplicity <= 25, some mirrored, either base, and two odd levels."""
    coprime_b = lambda a: st.sampled_from([b for b in range(-a, 2 * a) if math.gcd(a, b) == 1])  # noqa: E731
    fibers = [(a, draw(coprime_b(a))) for a in draw(st.lists(st.integers(1, 25), max_size=3))]
    if fibers and len(fibers) < 3 and draw(st.booleans()):
        fibers.append((fibers[0][0], -fibers[0][1]))  # a mirrored pair
    symbol = SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 2)), draw(st.permutations(fibers)))
    levels = st.sampled_from(range(3, 52, 2))
    return symbol, draw(levels), draw(levels)


@settings(deadline=None, max_examples=60)
@given(case=closed_symbols_at_two_levels())
@example(case=(SeifertSymbol("o", 1, ((3, 1), (5, 2))), 7, 15))  # gcd(7, 15) = 1: both fibers build tables
@example(case=(SeifertSymbol("n", 2, ((15, 2), (15, -2), (9, 4))), 3, 5))  # the pair has d = 3, then d = 5
@example(case=(double(SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)), 15, 45))  # a scan's r = 15k
def test_fiber_class_built_at_one_level_serves_its_class(case, clear_rt_caches):
    symbol, r, s = case
    modulus = math.lcm(*(a for a, _ in symbol.fibers))
    levels = [level + k * modulus for k in (0, 2, 4) for level in (r, s)]  # r + 2kA is in r's class mod A
    clear_rt_caches()
    warm = [z_direct(symbol, level) for level in levels]
    classes = len({r % modulus, s % modulus})
    assert seifertq.rt._fiber_class.cache_info()[:2] == (len(levels) - classes, classes)
    for level, value in zip(levels, warm):
        clear_rt_caches()
        assert repr(z_direct(symbol, level)) == repr(value)  # bit for bit, signs of zero included


@pytest.mark.parametrize("cache", [_plan, _fiber_class], ids=["plan", "fiber_class"])
def test_plan_cache_is_bounded(cache, clear_rt_caches):
    # every symbol below has its own fiber list, so each is a new key of both caches
    clear_rt_caches()
    maxsize = cache.cache_info().maxsize
    for genus in range(1, maxsize + 51):
        z_direct(SeifertSymbol("o", genus % 3 + 1, ((genus + 2, 1),)), 3)
    info = cache.cache_info()
    assert (info.misses, info.currsize) == (maxsize + 50, maxsize)


def test_prefactor_overflow_is_rt_closed_s_domain_error():
    # 2^((2n + a_eps g - 2) / 2) = 2^1024 overflows in the plan, which z_direct builds and does not use
    symbol = SeifertSymbol("o", 501, ((1, 0),) * 524)
    _plan.cache_clear()
    assert math.isfinite(z_direct(symbol, 3).term_magnitude_sum)
    with pytest.raises(DomainError, match="^rt_closed: the value exceeds the float range$"):
        rt_closed(symbol, 3)


def test_prefactor_product_overflow_is_not_a_silent_zero():
    # 2^1023 is finite and 2^1023 sqrt(4) is inf: RT was 0 with term_magnitude_sum 0, although |Z| is about 2.3e220
    symbol = SeifertSymbol("o", 501, ((1, 0),) * 522 + ((4, 1),))
    assert abs(z_direct(symbol, 3).value) > 1e220
    with pytest.raises(DomainError, match="^rt_closed: the value exceeds the float range$"):
        rt_closed(symbol, 3)


def test_prefactor_sign_is_exact_past_a_hundred_fibers():
    # 1j**102 rounds to -1 + 9.8e-15j; a double's RT keeps an imaginary part of exactly 0 with 2 * 51 fibers
    value = rt_closed(double(SeifertSymbol("o", 1, ((3, 1),) * 51, boundary=True)), 3).value
    assert value.imag == 0.0
    assert value.real == pytest.approx(4.0, rel=1e-13)


# -- verlinde ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda: verlinde_dimension(400, 7), id="verlinde-product"),
        pytest.param(lambda: z_direct(SeifertSymbol("o", 700), 7), id="z_direct-power"),
        # the terms reach +inf and -inf, on which fsum raises ValueError
        pytest.param(lambda: z_direct(SeifertSymbol("n", 1331, ((5, 1), (5, -1))), 5), id="z_direct-inf-minus-inf"),
        pytest.param(lambda: rt_closed(SeifertSymbol("o", 300), 7), id="rt_closed-product"),
        pytest.param(lambda: tv_closed(SeifertSymbol("o", 160), 7), id="tv_closed-square"),
        # the range is checked by rt_closed on the double, genus 300
        pytest.param(lambda: tv_bounded(SeifertSymbol("o", 150, boundary=True), 7), id="tv_bounded-double"),
        pytest.param(lambda: lower_bound(SeifertSymbol("o", 700, ((3, 1),), boundary=True), 3), id="lower_bound-power"),
        # sin(pi gamma / r) ** exponent underflows to 0: the term is past the float range, not a division by zero
        pytest.param(
            lambda: z_double_simplified(SeifertSymbol("o", 40, ((3, 1),), boundary=True), 999),
            id="simplified-underflow",
        ),
        pytest.param(
            lambda: z_double_simplified(SeifertSymbol("o", 120, ((3, 2),), boundary=True), 99),
            id="simplified-underflow-2",
        ),
    ],
)
def test_value_beyond_float_range_is_a_domain_error(evaluate):
    with pytest.raises(DomainError, match="exceeds the float range"):
        evaluate()


def test_verlinde_values():
    assert verlinde_dimension(1, 7) == pytest.approx(6.0)
    assert verlinde_dimension(2, 3) == pytest.approx(4.0)
    # (3/2) * (sin(pi/3)^-2 + sin(2pi/3)^-2) = (3/2) * (4/3 + 4/3) = 4
    with pytest.raises(DomainError):
        verlinde_dimension(0, 7)
    with pytest.raises(DomainError):
        verlinde_dimension(2, 8)
    with pytest.raises(DomainError):
        verlinde_dimension(True, 5)  # a bool is not a genus


# -- simplified double form ----------------------------------------------------------


HAND_SYMBOL = SeifertSymbol("o", 1, ((3, 1),), boundary=True)
ANCHOR_SYMBOL = SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)


def test_simplified_hand_value():
    # one fiber (3,1): B = {(1,-1), (2,+1)}, A = 3, k = 1,
    # Z = -(3^2) * (sin(pi/3)^-4 + sin(2pi/3)^-4) = -9 * 2 * (16/9) = -32
    got = z_double_simplified(HAND_SYMBOL, 3)
    assert got.value == pytest.approx(-32.0, rel=1e-12)
    direct = z_direct(double(HAND_SYMBOL), 3).value
    assert (direct.real, direct.imag) == (got.value, 0.0)  # one weight, one support: the same floats


@pytest.mark.parametrize(
    "symbol, r, cardinality",
    [
        pytest.param(ANCHOR_SYMBOL, 15, 4, id="15"),
        pytest.param(ANCHOR_SYMBOL, 45, 4, id="45"),
        pytest.param(SeifertSymbol("o", 2, ((3, 1), (11, 7)), boundary=True), 33, 4, id="o2-3.1-11.7-33"),
    ],
)
def test_simplified_equals_direct_on_double(symbol, r, cardinality):
    direct = z_direct(double(symbol), r).value
    simplified = z_double_simplified(symbol, r)
    assert (direct.real, direct.imag) == (simplified.value, 0.0)
    modulus = math.lcm(*(a for a, _ in symbol.fibers))
    assert simplified.term_count == cardinality * (r // modulus)


@st.composite
def bounded_symbols(draw):
    """A bounded symbol with up to 3 fibers, a <= 20 (unit fibers included) and genus up to 3, on either base."""
    moduli = draw(st.lists(st.integers(1, 20), max_size=3))
    fibers = tuple((a, draw(st.sampled_from([b for b in range(-a, 2 * a + 1) if math.gcd(a, b) == 1]))) for a in moduli)
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 3)), fibers, boundary=True)


@settings(deadline=None)
@given(symbol=bounded_symbols(), r=st.sampled_from(range(3, 80, 2)))
@example(symbol=SeifertSymbol("o", 1, ((3, 1),), boundary=True), r=15)  # P2's sign -1 meets one pair's real Z < 0
def test_rt_of_a_double_is_exactly_real(symbol, r):
    imag = rt_closed(double(symbol), r).value.imag
    assert (imag, math.copysign(1.0, imag)) == (0.0, 1.0)


@pytest.mark.parametrize(
    "part",
    [
        lambda: rt_closed(SeifertSymbol("n", 1), 5).value.real,
        lambda: tv_bounded(SeifertSymbol("o", 1, ((5, 1), (5, 3), (5, 1)), boundary=True), 5).value,
    ],
    ids=["rt-no-fibers-real", "tv-bounded-empty-support"],
)
def test_rt_parts_that_are_zero_are_positive_zero(part):
    value = part()
    assert (value, math.copysign(1.0, value)) == (0.0, 1.0)


def _single_gamma(call, gamma, r):
    """call() with z_direct's support at level r replaced by the single gamma given, the one lift of gamma mod r."""
    fiber_class = seifertq.rt._fiber_class
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seifertq.rt, "_fiber_class", lambda *key: fiber_class(*key)[:2] + ((gamma,), r))
        return call()


@settings(deadline=None, max_examples=50)
@given(symbol=bounded_symbols(), r=st.sampled_from(range(3, 80, 2)))
def test_double_sums_terms_of_one_sign(symbol, r):
    # Z(D(M)) = (-1)^n sum_gamma sin^-E prod_j |F_j|^2: restricted to one gamma, z_direct returns that term;
    # off the support a pair with gcd(r, a) > 1 builds no table to return 0 from, so only the support is summed
    doubled, sign = double(symbol), (-1) ** len(symbol.fibers)
    total = z_direct(doubled, r).value
    support = _support_of(doubled, r)
    terms = [_single_gamma(lambda: z_direct(doubled, r), gamma, r).value for gamma in support]
    assert all(term.imag == 0.0 and sign * term.real >= 0.0 for term in terms)
    assert math.fsum(term.real for term in terms) == total.real


def _count_gauss_tables(monkeypatch):
    """Record the (a, b*, r) of each Gauss table z_direct builds."""
    calls, table = [], seifertq.rt._gauss_table

    def counting(a, bstar, r):
        calls.append((a, bstar, r))
        return table(a, bstar, r)

    monkeypatch.setattr(seifertq.rt, "_gauss_table", counting)
    return calls


def test_bounded_tv_with_gcd_of_three_builds_no_gauss_table(monkeypatch):
    calls = _count_gauss_tables(monkeypatch)
    tv_bounded(SeifertSymbol("o", 1, ((15, 1),), boundary=True), 21)  # gcd(21, 15) = 3 < 15
    assert calls == []


@st.composite
def odd_modulus_symbols(draw):
    """Bounded symbols with 1-3 fibers of odd multiplicity <= 15, so A = lcm(a_j) is odd."""
    fibers = []
    for a in draw(st.lists(st.sampled_from(range(3, 16, 2)), min_size=1, max_size=3)):
        fibers.append((a, draw(st.sampled_from([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1]))))
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 2)), tuple(fibers), boundary=True)


@settings(deadline=None, max_examples=30)
@given(symbol=odd_modulus_symbols(), k=st.sampled_from((1, 3)))
def test_double_at_a_multiple_of_a_builds_no_gauss_table(symbol, k):
    # at r = kA every pair of the double has gcd(r, a) = a > 1
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_gauss_tables(patch)
        z_direct(double(symbol), k * math.lcm(*(a for a, _ in symbol.fibers)))
    assert calls == []


@settings(deadline=None)
@given(symbol=odd_modulus_symbols(), k=st.sampled_from((1, 3)))
def test_simplified_matches_direct_property(symbol, k):
    r = k * math.lcm(*(a for a, _ in symbol.fibers))
    # both are the fsum of (-1)^n (prod a_j)^2 sin^-E(pi gamma / r) over one support, from one weight
    direct = z_direct(double(symbol), r).value
    assert (direct.real, direct.imag) == (z_double_simplified(symbol, r).value, 0.0)


@settings(deadline=None)
@given(symbol=odd_modulus_symbols(), k=st.sampled_from((1, 3)))
@example(symbol=SeifertSymbol("o", 1, ((5, 1), (5, 4)), boundary=True), k=3)
@example(symbol=SeifertSymbol("o", 1, ((5, 1), (5, 1)), boundary=True), k=3)
def test_support_at_level_a_is_the_congruence_set(symbol, k):
    # every a_j is odd and >= 3, so each gamma of B has one mu: z_direct's support at level A counts B
    modulus = math.lcm(*(a for a, _ in symbol.fibers))
    r, certificate = k * modulus, enumerate_solutions(symbol.fibers)
    simplified = z_double_simplified(symbol, r)
    if certificate is None:
        with pytest.raises(DegenerateSystemError):
            lower_bound(symbol, r)
        assert (simplified.value, simplified.term_count) == (0.0, 0)
        return
    assert lower_bound(symbol, r).cardinality == certificate.cardinality
    # the literal closed form: one term per (gamma, mu) in B and lift p < k
    n = len(symbol.fibers)
    exponent, scale = 2 * n + 2 * symbol.a_eps * symbol.genus - 2, math.prod(a for a, _ in symbol.fibers) ** 2
    literal = (-1) ** n * math.fsum(
        scale / math.sin(math.pi * (p * modulus + gamma) / r) ** exponent
        for gamma, _ in certificate.set_b
        for p in range(k)
    )
    assert simplified.term_count == certificate.cardinality * k
    assert abs(simplified.value - literal) <= 4 * sys.float_info.epsilon * simplified.term_magnitude_sum


def test_simplified_frozen_anchor():
    assert z_double_simplified(ANCHOR_SYMBOL, 15).value == pytest.approx(
        5573747.204459745, rel=1e-12
    )
    assert z_double_simplified(ANCHOR_SYMBOL, 45).value == pytest.approx(
        3906791517.0336094, rel=1e-12
    )


def test_empty_solution_set_gives_exact_zero():
    # n = 2 and n = 3: the weight (-1)^n (prod a_j)^2 takes either sign, and an fsum of no terms is +0.0
    for fibers in (((5, 1), (5, 3)), ((5, 1), (5, 3), (5, 1))):
        symbol = SeifertSymbol("o", 1, fibers, boundary=True)
        got = z_double_simplified(symbol, 5)
        assert (got.value, math.copysign(1.0, got.value), got.term_count, got.term_magnitude_sum) == (0.0, 1.0, 0, 0.0)
        assert got.warnings == ("empty congruence solution set; the sum vanishes identically",)
        # the double's support is empty as well, so the direct sum is an exact 0, not rounding noise
        assert z_direct(double(symbol), 5).value == 0


def test_simplified_preconditions():
    closed = SeifertSymbol("o", 1, ((3, 1),))
    with pytest.raises(DomainError):
        z_double_simplified(closed, 3)
    no_fibers = SeifertSymbol("o", 1, boundary=True)
    with pytest.raises(DomainError):
        z_double_simplified(no_fibers, 3)
    unit = SeifertSymbol("o", 1, ((3, 1), (1, 2)), boundary=True)
    with pytest.raises(DomainError):
        z_double_simplified(unit, 3)
    with pytest.raises(DomainError):
        z_double_simplified(HAND_SYMBOL, 5)  # 5 is not a multiple of A = 3
    with pytest.raises(DomainError):
        z_double_simplified(HAND_SYMBOL, 6)  # even


@pytest.mark.parametrize("evaluate", [z_double_simplified, lower_bound])
def test_double_setup_solves_the_congruences_once(monkeypatch, evaluate, clear_rt_caches):
    original, fiber = seifertq.rt._crt_fold, seifertq.congruence._fiber
    folds, checked = [], []

    def counting(constraints, *args):
        folds.append(sorted(constraints))
        return original(constraints, *args)

    monkeypatch.setattr(seifertq.rt, "_crt_fold", counting)  # the binding _fiber_class calls
    monkeypatch.setattr(seifertq.congruence, "_fiber", lambda a, b: checked.append((a, b)) or fiber(a, b))
    clear_rt_caches()
    evaluate(ANCHOR_SYMBOL, 15)
    assert folds == [[(3, 1), (5, 1)]]  # one fold over the (a, b*) of the symbol's fibers, none checked again
    assert checked == []


def test_bound_and_invariant_share_the_double_s_pass(monkeypatch, clear_rt_caches):
    fold, folds = seifertq.rt._crt_fold, []
    monkeypatch.setattr(seifertq.rt, "_crt_fold", lambda constraints: folds.append(constraints) or fold(constraints))
    # the second symbol holds a mirrored pair after another fiber, which _pair_off lists first among D(M)'s pairs
    for symbol in (ANCHOR_SYMBOL, SeifertSymbol("o", 1, ((3, 2), (5, 1), (5, 4)), boundary=True)):
        # M's fibers are one of each pair of D(M): at r == 0 (mod A) the bound reads the pass z_direct builds
        clear_rt_caches()
        folds.clear()
        lower_bound(symbol, 15)
        z_direct(double(symbol), 45)
        assert len(folds) == 1, symbol
        # two symbols that differ only in base and genus have doubles with one fiber list
        clear_rt_caches()
        folds.clear()
        tv_bounded(symbol, 15)
        tv_bounded(SeifertSymbol("n", 2, symbol.fibers, boundary=True), 15)
        assert len(folds) == 1, symbol


@settings(deadline=None)
@given(symbol=odd_modulus_symbols())
@example(symbol=SeifertSymbol("o", 1, ((3, 2), (5, 1), (5, 4)), boundary=True))  # a pair of M after another fiber
@example(symbol=SeifertSymbol("o", 1, ((5, 1), (5, 4), (5, 1)), boundary=True))  # a pair and a third of its a
def test_double_setup_keys_the_pass_as_the_double_s_plan_does(symbol):
    # M's fibers when no two share an a, _pair_off's pairs of D(M) otherwise: either way the key _plan builds
    pairs, unpaired = _plan(double(symbol))[6:8]
    assert unpaired == ()
    setup = seifertq.rt._double_setup(symbol, math.lcm(*(a for a, _ in symbol.fibers)))
    assert setup is _fiber_class(pairs, (), 0)  # one cache entry: a key that differed would build another


@pytest.mark.parametrize("evaluate", [z_direct, rt_closed, tv_bounded])
def test_results_built_without_the_arity_check_have_every_field(evaluate):
    # these three build InvariantValue by tuple.__new__, which would not reject a missing field
    symbol = ANCHOR_SYMBOL if evaluate is tv_bounded else double(ANCHOR_SYMBOL)
    for r in (15, 17):  # the double's r = kA branch, then the general one
        result = evaluate(symbol, r)
        assert len(result) == len(InvariantValue._fields) and result == InvariantValue(*result)


def test_rt_path_checks_each_fiber_once(monkeypatch):
    closed = double(ANCHOR_SYMBOL)
    unpaired = SeifertSymbol("o", 1, ((3, 1), (5, 2)))  # no fiber pairs off, so P1 takes both Dedekind sums
    fiber, checked = seifertq.congruence._fiber, []

    def counting(a, b):
        checked.append((a, b))
        return fiber(a, b)

    monkeypatch.setattr(seifertq.congruence, "_fiber", counting)
    _plan.cache_clear()
    tv_bounded(ANCHOR_SYMBOL, 15)
    assert checked == []  # SeifertSymbol checked the n fibers of M; double derives D(M) from them unchecked
    rt_closed(closed, 15)
    assert checked == []
    rt_closed(unpaired, 7)
    assert checked == []


def test_import_and_evaluation_leave_numpy_unloaded():
    code = (
        "import sys, seifertq as sq\n"
        "sq.ltv_scan(sq.SeifertSymbol('o', 1, ((3, 1), (5, 1)), boundary=True), [15, 45])\n"
        "sq.rt_closed(sq.SeifertSymbol('o', 1, ((3, 1), (5, 2))), 7)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_magnitude_accounting():
    inv = z_direct(SeifertSymbol("o", 1, ((3, 1),)), 5)
    assert inv.term_magnitude_sum >= abs(inv.value)
    assert inv.term_count == 4 * 2 * 3
