"""Quantum data at odd levels: integers, nets, six-j symbols.

The six-j evaluation is cross-checked against a from-scratch oracle that
recomputes every factorial as a bare product of sines, with no caching and
no shared code, over every admissible tuple at r = 5 and r = 7.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import permutations, product

import pytest

from seifertq import (
    DomainError,
    RootContext,
    delta,
    is_admissible,
    quantum_factorial,
    quantum_integer,
    six_j,
    tet_symbol,
    theta,
)


# -- oracle ---------------------------------------------------------------------


def oracle_six_j(r, i, j, k, l, m, n):
    """Direct transcription of the six-j formula, recomputed from sines."""

    def q(x):
        return 2.0 * math.sin(2.0 * math.pi * x / r)

    def qfact(x):
        out = 1.0
        for t in range(1, x + 1):
            out *= q(t)
        return out

    def dlt(a, b, c):
        rad = qfact((a + b - c) // 2) * qfact((a + c - b) // 2) * qfact((b + c - a) // 2)
        rad /= qfact((a + b + c) // 2 + 1)
        return cmath.sqrt(complex(q(1))) * cmath.sqrt(complex(rad))

    T = [(i + j + k) // 2, (i + m + n) // 2, (j + l + n) // 2, (k + l + m) // 2]
    Q = [(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2]
    total = 0.0
    for z in range(max(T), min(Q) + 1):
        term = (-1.0) ** z * qfact(z + 1)
        for t in T:
            term /= qfact(z - t)
        for quad in Q:
            term /= qfact(quad - z)
        total += term
    faces = dlt(i, j, k) * dlt(j, l, n) * dlt(i, m, n) * dlt(k, l, m)
    return (1j ** (i + j + k + l + m + n)) / q(1) * faces * total


def seeded_tuples(ctx, count, seed):
    """``count`` admissible tuples drawn uniformly from the color grid by a seeded generator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tup = tuple(rng.choice(ctx.colors) for _ in range(6))
        i, j, k, l, m, n = tup
        if all(is_admissible(ctx, *f) for f in [(i, j, k), (j, l, n), (i, m, n), (k, l, m)]):
            out.append(tup)
    return out


def admissible_tuples(ctx):
    good = []
    for tup in product(ctx.colors, repeat=6):
        i, j, k, l, m, n = tup
        faces = [(i, j, k), (j, l, n), (i, m, n), (k, l, m)]
        if all(is_admissible(ctx, *f) for f in faces):
            good.append(tup)
    return good


# -- quantum integers -------------------------------------------------------------


@pytest.mark.parametrize("r", [3, 5, 7, 11])
def test_quantum_integer_reflection(r):
    ctx = RootContext(r)
    for n in range(r + 1):
        assert quantum_integer(ctx, r - n) == pytest.approx(-quantum_integer(ctx, n), abs=1e-14)


def test_quantum_integer_values():
    ctx = RootContext(5)
    assert quantum_integer(ctx, 0) == 0.0
    assert quantum_integer(ctx, 1) == pytest.approx(2 * math.sin(2 * math.pi / 5))
    assert quantum_integer(ctx, 5) == 0.0  # exactly, by construction


def test_quantum_factorial_recurrence():
    ctx = RootContext(9)
    for n in range(1, 9):
        assert quantum_factorial(ctx, n) == pytest.approx(
            quantum_factorial(ctx, n - 1) * quantum_integer(ctx, n), rel=1e-15
        )
    assert quantum_factorial(ctx, 0) == 1.0
    assert quantum_factorial(ctx, 9) == 0.0


def test_domain_checks():
    ctx = RootContext(7)
    with pytest.raises(DomainError):
        quantum_integer(ctx, -1)
    with pytest.raises(DomainError):
        quantum_factorial(ctx, 8)
    with pytest.raises(DomainError):
        RootContext(4)
    with pytest.raises(DomainError):
        RootContext(1)


def test_color_set():
    assert RootContext(3).colors == (0,)
    assert RootContext(7).colors == (0, 2, 4)
    assert RootContext(11).colors == (0, 2, 4, 6, 8)


# -- admissibility ---------------------------------------------------------------


def test_admissibility_triangle_and_ceiling():
    ctx = RootContext(7)
    assert is_admissible(ctx, 2, 2, 4)
    assert not is_admissible(ctx, 0, 0, 2)  # triangle inequality fails
    assert not is_admissible(ctx, 4, 4, 4)  # sum exceeds 2(r - 2) = 10
    with pytest.raises(DomainError):
        is_admissible(ctx, 1, 1, 0)  # odd color
    with pytest.raises(DomainError):
        is_admissible(ctx, 6, 0, 6)  # out of range


def test_admissible_tuple_counts():
    assert len(admissible_tuples(RootContext(3))) == 1
    assert len(admissible_tuples(RootContext(5))) == 15
    assert len(admissible_tuples(RootContext(7))) == 98


@pytest.mark.parametrize("r", range(3, 12, 2))
def test_admissible_tuples_have_a_nonempty_z_range(r):
    # each Q_c - T_b is a face parameter, so no admissible tuple has an empty Racah sum
    for i, j, k, l, m, n in admissible_tuples(RootContext(r)):
        T = [(i + j + k) // 2, (i + m + n) // 2, (j + l + n) // 2, (k + l + m) // 2]
        Q = [(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2]
        assert max(T) <= min(Q), (i, j, k, l, m, n)


# -- nets -------------------------------------------------------------------------


def test_theta_of_unit_loops():
    # theta(a, a, 0) = (-1)^a [a + 1]
    for r in (5, 7, 9):
        ctx = RootContext(r)
        zeta = ctx.zeta
        for a in ctx.colors:
            expected = (-1.0) ** a * (2 * math.sin(2 * math.pi * (a + 1) / r) / zeta)
            assert theta(ctx, a, a, 0) == pytest.approx(expected, rel=1e-12)


def test_delta_squared_consistency():
    # Delta^2 equals the bracket-factorial radicand with no zeta factor
    ctx = RootContext(7)
    # [n]! = prod_{t <= n} {t} / zeta, built here from the public quantum integers
    b = [math.prod(quantum_integer(ctx, t) / ctx.zeta for t in range(1, n + 1)) for n in range(ctx.r + 1)]
    for i, j, k in [(2, 2, 2), (2, 4, 2), (4, 4, 2), (0, 2, 2)]:
        d2 = delta(ctx, i, j, k) ** 2
        s = (i + j + k) // 2
        expected = (
            b[(i + j - k) // 2] * b[(i + k - j) // 2] * b[(j + k - i) // 2] / b[s + 1]
        )
        assert d2.real == pytest.approx(expected, rel=1e-12)
        assert abs(d2.imag) < 1e-12


def test_tet_theta_identity_with_six_j():
    # (six-j)^2 * prod(theta over faces) == Tet^2 for every admissible tuple
    for r in (5, 7):
        ctx = RootContext(r)
        for tup in admissible_tuples(ctx):
            i, j, k, l, m, n = tup
            lhs = six_j(ctx, *tup) ** 2
            thetas = (
                theta(ctx, i, j, k)
                * theta(ctx, j, l, n)
                * theta(ctx, i, m, n)
                * theta(ctx, k, l, m)
            )
            rhs = tet_symbol(ctx, *tup) ** 2 / thetas
            assert cmath.isclose(lhs, complex(rhs), rel_tol=1e-9, abs_tol=1e-10), tup


# -- six-j ------------------------------------------------------------------------


def test_six_j_matches_oracle():
    for r in (5, 7):
        ctx = RootContext(r)
        for tup in admissible_tuples(ctx):
            got = six_j(ctx, *tup)
            want = oracle_six_j(r, *tup)
            assert cmath.isclose(got, want, rel_tol=1e-9, abs_tol=1e-10), tup


def test_six_j_all_zero_is_one():
    for r in (3, 5, 7):
        ctx = RootContext(r)
        assert six_j(ctx, 0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_six_j_column_permutation_symmetry():
    ctx = RootContext(7)
    columns = ((0, 3), (1, 4), (2, 5))
    for tup in admissible_tuples(ctx):
        base = six_j(ctx, *tup)
        for perm in permutations(range(3)):
            rearranged = [0] * 6
            for new, old in enumerate(perm):
                rearranged[columns[new][0]] = tup[columns[old][0]]
                rearranged[columns[new][1]] = tup[columns[old][1]]
            assert six_j(ctx, *rearranged) == pytest.approx(base, abs=1e-10)


def test_six_j_rejects_inadmissible():
    ctx = RootContext(7)
    with pytest.raises(DomainError):
        six_j(ctx, 0, 0, 2, 0, 0, 0)
    with pytest.raises(DomainError):
        six_j(ctx, 2, 2, 2, 2, 2)  # wrong arity


@pytest.mark.parametrize(
    "tup",
    [
        (0, 0, 2, 0, 0, 0),  # face (0, 0, 2) breaks the triangle inequality
        (1, 1, 0, 0, 1, 1),  # odd colors
        (6, 6, 0, 0, 6, 6),  # 6 is not in I_7 = {0, 2, 4}
        (2, 2, 2, 2, 2),  # wrong arity
        (2.0, 2, 2, 2, 2, 2),  # a float color
        (False, 0, 0, 0, 0, 0),  # a bool color
    ],
)
def test_tet_symbol_rejects_invalid_tuples(tup):
    with pytest.raises(DomainError):
        tet_symbol(RootContext(7), *tup)


def test_theta_rejects_inadmissible():
    ctx = RootContext(7)
    with pytest.raises(DomainError):
        theta(ctx, 0, 0, 2)
    with pytest.raises(DomainError):
        theta(ctx, 4, 4, 4)  # above the ceiling 2 (r - 2) = 10


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda ctx: six_j(ctx, 2.0, 2, 2, 2, 2, 2), id="six_j-float"),
        pytest.param(lambda ctx: six_j(ctx, 2, 2, 2, 2, 2, "2"), id="six_j-str"),
        pytest.param(lambda ctx: theta(ctx, 2, 2, 2.0), id="theta-float"),
        pytest.param(lambda ctx: delta(ctx, 0, 2, 2.0), id="delta-float"),
        pytest.param(lambda ctx: is_admissible(ctx, 0, 0, False), id="is_admissible-bool"),
        pytest.param(lambda ctx: quantum_integer(ctx, 2.5), id="quantum_integer-float"),
        pytest.param(lambda ctx: quantum_integer(ctx, True), id="quantum_integer-bool"),
        pytest.param(lambda ctx: quantum_factorial(ctx, 2.0), id="quantum_factorial-float"),
    ],
)
def test_non_integer_arguments_rejected(evaluate):
    with pytest.raises(DomainError):
        evaluate(RootContext(7))


# -- large levels ------------------------------------------------------------------


def test_six_j_phase_is_exact_at_large_lambda():
    # each Delta is real or purely imaginary and sqrt(-1)^lambda is +-1, so one component is exactly 0
    ctx = RootContext(1001)
    for tup in seeded_tuples(ctx, 20, 1):
        assert sum(tup) > 100, tup  # past lambda = 100, 1j ** lambda is rounded through exp and log
        value = six_j(ctx, *tup)
        assert value.real == 0.0 or value.imag == 0.0, (tup, value)


@pytest.mark.parametrize("r", [101, 151, 301, 501])
def test_nets_stay_finite(r):
    ctx = RootContext(r)
    for tup in seeded_tuples(ctx, 50, r):
        assert math.isfinite(tet_symbol(ctx, *tup)), tup
        assert math.isfinite(theta(ctx, *tup[:3])), tup


def test_every_evaluator_is_finite_or_a_domain_error_at_r_2001():
    ctx = RootContext(2001)
    assert all(math.isfinite(quantum_integer(ctx, n)) for n in range(ctx.r + 1))
    assert all(math.isfinite(quantum_factorial(ctx, n)) for n in range(ctx.r + 1))
    # the first tuple's Racah sum overflows: six_j printed Infinity, tet_symbol returned nan
    for tup in [(1388, 888, 986, 518, 1050, 1158)] + seeded_tuples(ctx, 40, 2):
        i, j, k, l, m, n = tup
        calls = [(six_j, tup), (tet_symbol, tup)]
        for face in [(i, j, k), (j, l, n), (i, m, n), (k, l, m)]:
            calls += [(delta, face), (theta, face)]
        for evaluate, args in calls:
            try:
                value = evaluate(ctx, *args)
            except DomainError as exc:
                assert "exceeds the float range" in str(exc)
            else:
                assert cmath.isfinite(value), (evaluate.__name__, args)


def test_every_evaluator_is_finite_or_a_domain_error_at_r_20001():
    # the {n}! table leaves the float range, and each evaluator raised a bare ZeroDivisionError
    ctx, tup = RootContext(20001), (10000,) * 6
    for evaluate, args in [(six_j, tup), (tet_symbol, tup), (theta, tup[:3]), (delta, tup[:3])]:
        try:
            value = evaluate(ctx, *args)
        except DomainError as exc:
            assert "exceeds the float range" in str(exc)
        else:
            assert cmath.isfinite(value), evaluate.__name__
