"""Congruence systems, certificates, and Dedekind sums.

The solver is cross-checked against a brute-force oracle that scans every
residue class modulo lcm(a_j) directly.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifertq import (
    CongruenceCertificate,
    DomainError,
    NumericInconsistencyError,
    classify_system,
    dedekind_sum,
    enumerate_solutions,
    system_modulus,
)
from seifertq import congruence
from seifertq.congruence import _sawtooth_sum, certificate_to_dict


# -- oracles -------------------------------------------------------------------


def brute_solutions(fibers, mu):
    """Every gamma in {0..A-1} satisfying gamma + mu_j b_j* == 0 (mod a_j)."""
    A = math.lcm(*(a for a, _ in fibers))
    inverses = [pow(b % a, -1, a) if a > 1 else 0 for a, b in fibers]
    return [
        gamma
        for gamma in range(A)
        if all((gamma + m * bs) % a == 0 for (a, _), m, bs in zip(fibers, mu, inverses))
    ]


def sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2 off the integers, 0 on them."""
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def sawtooth_dedekind(b, a):
    """Exact s(b, a) = sum_l ((l/a)) ((lb/a)), term by term in O(a)."""
    return sum(
        (sawtooth(Fraction(l, a)) * sawtooth(Fraction(l * b, a)) for l in range(1, a)),
        Fraction(0),
    )


def full_cotangent_table(a):
    """cot(pi m / a) for m = 0..a-1 (0 at m = 0), each angle reduced into (0, pi/2]."""

    def cot_pi(m):
        if 2 * m == a:
            return 0.0
        if 2 * m > a:
            return -cot_pi(a - m)
        return 1.0 / math.tan(math.pi * m / a)

    return [0.0] + [cot_pi(m) for m in range(1, a)]


def cotangent_dedekind(b, a):
    """Float s(b, a) and sum_l |term_l| / 4a via the cotangent sum, independent of the exact code path."""
    table = full_cotangent_table(a)
    terms = [table[l] * table[l * b % a] for l in range(1, a)]
    return math.fsum(terms) / (4.0 * a), math.fsum(map(abs, terms)) / (4.0 * a)


def full_sawtooth_sum(b, a):
    """4 a^2 s(b, a) in integers, summed over every l = 1..a-1, without the mirror."""
    return sum((2 * l - a) * (2 * (l * b % a) - a) for l in range(1, a))


def coprime_pairs(max_a):
    """Every coprime (b, a) with 1 <= a <= max_a and -2a <= b <= 2a."""
    return [
        (b, a)
        for a in range(1, max_a + 1)
        for b in range(-2 * a, 2 * a + 1)
        if math.gcd(a, b) == 1
    ]


# -- dedekind sums ---------------------------------------------------------------


def test_dedekind_known_values():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(1, 2) == 0
    a = 1000003
    assert dedekind_sum(1, a) == Fraction((a - 1) * (a - 2), 12 * a)


def test_dedekind_antisymmetry_and_periodicity():
    for a in (3, 5, 7, 12):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                assert dedekind_sum(a - b, a) == -dedekind_sum(b, a)
                assert dedekind_sum(b + a, a) == dedekind_sum(b, a)
                assert dedekind_sum(-b, a) == -dedekind_sum(b, a)


def test_dedekind_reciprocity():
    for a in range(1, 25):
        for b in range(1, 25):
            if math.gcd(a, b) == 1:
                lhs = dedekind_sum(b, a) + dedekind_sum(a, b)
                rhs = Fraction(-1, 4) + (
                    Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)
                ) / 12
                assert lhs == rhs, (a, b)


@given(a=st.integers(1, 300), b=st.integers(-600, 600))
def test_dedekind_matches_cotangent_oracle(a, b):
    # the documented cotangent convention, within the float tolerance the runtime check once used
    assume(math.gcd(a, b) == 1)
    cot, magnitude = cotangent_dedekind(b, a)
    assert abs(float(dedekind_sum(b, a)) - cot) <= 16 * sys.float_info.epsilon * magnitude


@pytest.mark.parametrize(
    "b, a",
    [(68, 69), (105, 53), (150, 151), (399, 200), (299, 300), (693, 694), (-1, 694)],
)
def test_dedekind_large_multiplicities(b, a):
    # the cotangent cross-check once rejected these valid inputs
    assert dedekind_sum(b, a) == sawtooth_dedekind(b, a)


@given(a=st.integers(1, 200), b=st.integers(-400, 400))
def test_dedekind_matches_sawtooth_oracle(a, b):
    assume(math.gcd(a, b) == 1)
    assert dedekind_sum(b, a) == sawtooth_dedekind(b, a)


@settings(max_examples=10, deadline=None)
@given(a=st.integers(1, 10**6), b=st.integers(-(10**7), 10**7))
def test_dedekind_antisymmetry_and_periodicity_large(a, b):
    assume(math.gcd(a, b) == 1)
    value = dedekind_sum(b, a)
    assert dedekind_sum(-b, a) == -value
    assert dedekind_sum(b + a, a) == value


@settings(max_examples=10, deadline=None)
@given(a=st.integers(1, 10**5), b=st.integers(1, 10**5))
def test_dedekind_reciprocity_large(a, b):
    assume(math.gcd(a, b) == 1)
    lhs = dedekind_sum(b, a) + dedekind_sum(a, b)
    assert lhs == Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12


def test_dedekind_mirror_edges_match_sawtooth_oracle():
    # a = 1 and 2, the midpoint slot of even a, and b < 0 and b > a
    for b, a in coprime_pairs(40):
        assert dedekind_sum(b, a) == sawtooth_dedekind(b, a), (b, a)


def test_half_sawtooth_sum_equals_full_sum():
    # the terms at l and a - l agree and the one at l = a/2 is 0, so the doubled half sum is the full sum exactly
    for b, a in coprime_pairs(150):
        assert _sawtooth_sum(b, a) == full_sawtooth_sum(b, a), (b, a)


def test_dedekind_cross_check_is_live(monkeypatch):
    sawtooth = congruence._sawtooth_sum
    monkeypatch.setattr(congruence, "_sawtooth_sum", lambda b, a: sawtooth(b, a) + 1)
    for b, a in [(1, 3), (5, 12)]:
        with pytest.raises(NumericInconsistencyError):
            dedekind_sum(b, a)


def test_dedekind_check_runs_in_constant_memory():
    dedekind_sum(1, 7)  # import and warm up outside the trace
    tracemalloc.start()
    try:
        dedekind_sum(1, 100_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dedekind_rejects_bad_input():
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)
    with pytest.raises(DomainError):
        dedekind_sum(1, 0)
    for b, a in [(1.0, 3), (1, 3.0), (True, 3), (1, True), ("1", 3)]:  # not an int, or a bool
        with pytest.raises(DomainError):
            dedekind_sum(b, a)


def test_system_modulus():
    assert system_modulus(((3, 1), (5, 1))) == 15
    assert system_modulus(((4, 1), (6, 1))) == 12
    assert system_modulus(()) == 1
    with pytest.raises(DomainError):
        system_modulus(((3, 1), (0, 1)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify_system([("x", 1)]),
        lambda: classify_system(None),
        lambda: classify_system([(3,)]),
        lambda: system_modulus([(2.5, 1)]),
        lambda: enumerate_solutions([(True, 1), (3, 1)]),
        lambda: classify_system([(3, 1.0)]),
    ],
    ids=["string-entry", "none", "not-a-pair", "float-multiplicity", "bool-multiplicity", "float-b"],
)
def test_malformed_fiber_lists_are_domain_errors(call):
    with pytest.raises(DomainError, match=r"fibers must be \(a, b\) pairs|need integers a >= 1"):
        call()


# -- enumerate_solutions -----------------------------------------------------------


def test_solution_set_frozen_example():
    cert = enumerate_solutions(((3, 1), (5, 1)))
    assert cert is not None
    assert cert.modulus == 15
    assert cert.set_b == (
        (1, (-1, -1)),
        (4, (-1, 1)),
        (11, (1, -1)),
        (14, (1, 1)),
    )
    assert cert.cardinality == 4
    assert (cert.gamma, cert.mu) == (1, (-1, -1))


SIX_COPRIME = ((2, 1), (3, 1), (5, 2), (7, 3), (11, 4), (13, 5))  # 2^5 found by the fold, the rest as mirrors


def test_solution_set_closed_under_involution():
    for fibers in [((3, 1), (5, 1)), ((5, 1), (5, 4)), ((2, 1), (3, 1), (5, 1)), SIX_COPRIME]:
        cert = enumerate_solutions(fibers)
        members = set(cert.set_b)
        assert len(members) == cert.cardinality
        for gamma, mu in members:
            mirrored = (cert.modulus - gamma, tuple(-m for m in mu))
            assert mirrored in members


@pytest.mark.parametrize(
    "fibers",
    [
        ((2, 1), (3, 1)),
        ((2, 1), (3, 1), (5, 1)),
        ((3, 2), (5, 3)),
        ((2, 1), (3, 2), (5, 4), (7, 1)),
        SIX_COPRIME,
    ],
)
def test_pairwise_coprime_cardinality_is_power_of_two(fibers):
    cert = enumerate_solutions(fibers)
    assert cert.cardinality == 2 ** len(fibers)


def test_no_solution_system_returns_none():
    assert enumerate_solutions(((5, 1), (5, 3))) is None


def test_degenerate_system():
    cert = enumerate_solutions(((1, 0), (1, 5)))
    assert cert.degenerate
    assert cert.modulus == 1
    assert cert.set_b == ()
    assert cert.cardinality == 0


def test_unit_fibers_double_the_solution_count():
    plain = enumerate_solutions(((3, 1),))
    padded = enumerate_solutions(((3, 1), (1, 0)))
    assert padded.cardinality == 2 * plain.cardinality


@st.composite
def fiber_lists(draw):
    """Up to 5 fibers with a <= 15, unit fibers and repeated moduli included, coprime b in [-2a, 2a]."""
    moduli = draw(st.lists(st.integers(1, 15), max_size=5))
    return tuple(
        (a, draw(st.sampled_from([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1])))
        for a in moduli
    )


@settings(deadline=None)
@given(fibers=fiber_lists())
def test_enumerate_solutions_matches_brute_force_property(fibers):
    expected = sorted(
        (gamma, mu)
        for mu in product((1, -1), repeat=len(fibers))
        for gamma in brute_solutions(fibers, mu)
        if gamma != 0
    )
    cert = enumerate_solutions(fibers)
    degenerate = all(a == 1 for a, _ in fibers)
    assert (cert is not None and cert.degenerate) == degenerate
    if degenerate:
        assert (cert.modulus, cert.set_b) == (1, ())
    elif not expected:
        assert cert is None
    else:
        assert cert.modulus == math.lcm(*(a for a, _ in fibers))
        assert cert.set_b == tuple(expected)
        assert (cert.gamma, cert.mu) == expected[0]


@settings(deadline=None)
@given(fibers=fiber_lists())
def test_solution_set_closed_under_involution_property(fibers):
    cert = enumerate_solutions(fibers)
    assume(cert is not None)
    members = set(cert.set_b)
    for gamma, mu in members:
        assert (cert.modulus - gamma, tuple(-m for m in mu)) in members


# -- classification ----------------------------------------------------------------


def test_classify_pairwise_coprime():
    cls = classify_system(((3, 1), (5, 1), (7, 1)))
    assert cls.case == "pairwise-coprime"
    assert cls.certificate is not None
    assert cls.warnings == ()


def test_classify_even_modulus_warns():
    cls = classify_system(((2, 1), (3, 1), (5, 1)))
    assert cls.case == "pairwise-coprime"
    assert any("even" in warning for warning in cls.warnings)


def test_classify_equal_moduli():
    cls = classify_system(((5, 1), (5, 4)))
    assert cls.case == "equal-moduli"
    assert cls.certificate is not None
    assert cls.certificate.cardinality == 2


def test_classify_pairwise_gcd_with_even_modulus_warning():
    cls = classify_system(((4, 1), (6, 1)))
    assert cls.case == "pairwise-gcd"
    assert cls.certificate is not None
    assert any("even" in w for w in cls.warnings)


def test_classify_no_solution():
    cls = classify_system(((5, 1), (5, 3)))
    assert cls.case == "no-solution"
    assert cls.certificate is None


def test_classify_degenerate_warns():
    cls = classify_system(((1, 0),))
    assert cls.certificate.degenerate
    assert any("vacuous" in w for w in cls.warnings)


@given(fibers=fiber_lists())
def test_classify_pairwise_coprime_property(fibers):
    moduli = [a for a, _ in fibers]
    coprime = all(math.gcd(moduli[s], moduli[t]) == 1 for s in range(len(moduli)) for t in range(s))
    assert (classify_system(fibers).case == "pairwise-coprime") == coprime


def test_iterator_examples_read_once():
    # an iterator of fibers used to be read twice, so the moduli read after the fold were empty
    assert classify_system(iter([(3, 1), (3, 1)])).case == "equal-moduli"
    assert classify_system(f for f in ((4, 1), (6, 1))).case == "pairwise-gcd"


@given(fibers=fiber_lists())
def test_iterator_and_list_give_the_same_result_property(fibers):
    assert classify_system(iter(fibers)) == classify_system(list(fibers))
    assert enumerate_solutions(iter(fibers)) == enumerate_solutions(list(fibers))


def test_certificate_serialization():
    cert = enumerate_solutions(((3, 1), (5, 1)))
    data = certificate_to_dict(cert)
    assert data["gamma"] == 1
    assert data["modulus"] == 15
    assert data["cardinality"] == 4
    assert data["set_B"][0] == [1, [-1, -1]]
    assert data["degenerate"] is False
