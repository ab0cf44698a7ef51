"""Acceptance criteria for the package, one visible PASS/FAIL line each.

Each test prints a single summary line (A1..A10) even under pytest capture,
then asserts the criterion.  Timing-sensitive checks use generous wall-clock
budgets so they stay meaningful on slow machines without flaking on fast ones.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from seifertq import (
    RootContext,
    SeifertSymbol,
    dedekind_sum,
    double,
    enumerate_solutions,
    is_admissible,
    lower_bound,
    ltv_scan,
    normalize,
    reverse_orientation,
    rt_closed,
    six_j,
    tv_bounded,
    tv_closed,
    tv_statesum,
    verlinde_dimension,
    z_direct,
    z_double_simplified,
)

ANCHOR = SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def test_a1_torus_bundle_matches_color_count(capsys):
    """A1: RT of the trivial torus bundle equals r - 1 for all odd r in [3, 101]."""
    torus = SeifertSymbol("o", 1, (), boundary=False)
    started = time.perf_counter()
    worst = 0.0
    for r in range(3, 102, 2):
        value = rt_closed(torus, r).value
        worst = max(worst, abs(value - (r - 1)) / (r - 1))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 1.0
    report(capsys, "A1", ok, f"max rel err {worst:.2e} over odd r in [3, 101] in {elapsed:.2f}s")


def test_a2_genus_two_matches_verlinde(capsys):
    """A2: RT of the genus-2 trivial bundle equals the Verlinde dimension."""
    surface = SeifertSymbol("o", 2, (), boundary=False)
    worst = 0.0
    for r in range(3, 52, 2):
        value = rt_closed(surface, r).value
        expected = verlinde_dimension(2, r)
        worst = max(worst, abs(value - expected) / expected)
    ok = worst < 1e-9
    report(capsys, "A2", ok, f"max rel err {worst:.2e} over odd r in [3, 51]")


def test_a3_double_sum_agrees_with_direct_evaluation(capsys):
    """A3: the residue-class form of Z(D(M)) matches the literal double sum."""
    started = time.perf_counter()
    worst = 0.0
    for r in (15, 45, 75):
        direct = z_direct(double(ANCHOR), r).value
        fast = z_double_simplified(ANCHOR, r).value
        worst = max(worst, abs(direct - fast) / abs(fast))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 5.0
    report(capsys, "A3", ok, f"max rel err {worst:.2e} at r in (15, 45, 75) in {elapsed:.2f}s")


def test_a4_incompatible_system_cancels(capsys):
    """A4: with no congruence solutions the double sum cancels to numerical zero."""
    symbol = SeifertSymbol("o", 1, ((5, 1), (5, 3)), boundary=True)
    worst = 0.0
    for r in (5, 15, 25):
        inv = z_direct(double(symbol), r)
        worst = max(worst, abs(inv.value) / inv.term_magnitude_sum)
        fast = z_double_simplified(symbol, r)
        assert fast.value == 0.0
        assert fast.term_count == 0
    ok = worst < 1e-8
    report(capsys, "A4", ok, f"max |Z|/sum|terms| {worst:.2e}; residue form exactly 0")


def test_a5_lower_bound_holds(capsys):
    """A5: TV of the bounded manifold and of its double dominate the certified bound."""
    started = time.perf_counter()
    details = []
    ok = True
    for k in (1, 3):
        r = 15 * k
        bound = lower_bound(ANCHOR, r)
        tv_b = tv_bounded(ANCHOR, r).value
        tv_d = tv_closed(double(ANCHOR), r).value
        ok = ok and bound.value > 1.0 and tv_b >= bound.value and tv_d >= bound.value**2
        details.append(f"r={r}: tv={tv_b:.4g} >= {bound.value}, tv(double)={tv_d:.4g} >= {bound.value**2}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(capsys, "A5", ok, "; ".join(details) + f" in {elapsed:.2f}s")


def test_a6_ltv_decreases_along_levels(capsys):
    """A6: (2*pi/r) log TV is positive and strictly decreasing along r = 15k."""
    samples, slope = ltv_scan(ANCHOR, [15, 45, 75, 105])
    values = [s.ltv for s in samples]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = all(v > 0 for v in values) and decreasing and values[-1] < 0.5 * values[0]
    report(capsys, "A6", ok, f"ltv={['%.4f' % v for v in values]}, growth exponent {slope:.2f}")


def test_a7_state_sum_sphere(capsys, sphere):
    """A7: the two-tetrahedron sphere state sum equals eta^2 = (2 sin(2 pi / r))^2 / r."""
    ok = True
    details = []
    for r in (3, 5, 7):
        measured = tv_statesum(sphere, r).value.real
        expected = (2.0 * math.sin(2.0 * math.pi / r)) ** 2 / r
        if r == 3:
            good = measured == 1.0
        else:
            good = abs(measured - expected) < 1e-9 * expected
        if not good:
            eta = RootContext(r).eta
            if measured > 0 and eta not in (0.0, 1.0):
                power = math.log(measured) / math.log(eta)
                details.append(f"r={r}: {measured!r} != {expected!r} (eta power {power:.3f})")
            else:
                details.append(f"r={r}: {measured!r} != {expected!r}")
        ok = ok and good
    report(capsys, "A7", ok, "; ".join(details) if details else "r=3 exact, r=5,7 within 1e-9")


# Symbols covering both epsilon values, genus > 1, three fibers, and two
# unnormalized representatives (one via a multiplicity shift, one via a
# (1, 0) fiber) whose normal forms must give identical invariants.
A8_SYMBOLS = (
    SeifertSymbol("o", 1, ((3, 1), (5, 2)), boundary=False),
    SeifertSymbol("o", 2, ((4, 1), (4, 1)), boundary=False),
    SeifertSymbol("o", 1, ((2, 1), (3, 1), (5, 1)), boundary=False),
    SeifertSymbol("n", 1, ((3, 2),), boundary=False),
    SeifertSymbol("n", 2, ((3, 5), (4, -1)), boundary=False),
    SeifertSymbol("o", 1, ((3, 1), (5, 2), (1, 0)), boundary=False),
)


def test_a8_symmetry_and_normal_form_invariance(capsys):
    """A8: RT is conjugated by orientation reversal and unchanged by normalization."""
    r = 9
    worst = 0.0
    for symbol in A8_SYMBOLS:
        value = rt_closed(symbol, r).value
        scale = max(1.0, abs(value))
        mirror = rt_closed(reverse_orientation(symbol), r).value
        normal = rt_closed(normalize(symbol), r).value
        worst = max(worst, abs(mirror - value.conjugate()) / scale, abs(normal - value) / scale)
    ok = worst < 1e-9
    report(capsys, "A8", ok, f"max deviation {worst:.2e} over {len(A8_SYMBOLS)} symbols at r=9")


def test_a9_exact_arithmetic_certificates(capsys):
    """A9: Dedekind reciprocity holds exactly and solution sets have size 2^n."""
    reciprocity = True
    for a in range(1, 51):
        for b in range(1, 51):
            if math.gcd(a, b) != 1:
                continue
            lhs = dedekind_sum(b, a) + dedekind_sum(a, b)
            rhs = Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b)
            reciprocity = reciprocity and lhs == rhs
    anchor = dedekind_sum(1, 3) == Fraction(1, 18)
    sizes = True
    for fibers in (((3, 1), (5, 1)), ((2, 1), (3, 1), (5, 1)), ((3, 2), (7, 3), (11, 5))):
        certificate = enumerate_solutions(fibers)
        sizes = sizes and certificate is not None and certificate.cardinality == 2 ** len(fibers)
    ok = reciprocity and anchor and sizes
    report(
        capsys,
        "A9",
        ok,
        f"reciprocity exact on coprime a,b <= 50: {reciprocity}; s(1,3)=1/18: {anchor}; |B|=2^n: {sizes}",
    )


def test_a10_six_j_symmetry(capsys):
    """A10: six-j values are invariant under column permutations; all-zero gives 1."""
    worst = 0.0
    for r in (5, 7):
        ctx = RootContext(r)
        tuples = [
            (a, b, c, d, e, f)
            for a in ctx.colors
            for b in ctx.colors
            for c in ctx.colors
            for d in ctx.colors
            for e in ctx.colors
            for f in ctx.colors
            if is_admissible(ctx, a, b, c)
            and is_admissible(ctx, a, e, f)
            and is_admissible(ctx, d, b, f)
            and is_admissible(ctx, d, e, c)
        ]
        for a, b, c, d, e, f in tuples:
            base = six_j(ctx, a, b, c, d, e, f)
            for image in (six_j(ctx, b, a, c, e, d, f), six_j(ctx, a, c, b, d, f, e)):
                worst = max(worst, abs(image - base))
    unit = abs(six_j(RootContext(7), 0, 0, 0, 0, 0, 0) - 1.0)
    ok = worst < 1e-10 and unit < 1e-12
    report(capsys, "A10", ok, f"max column-swap deviation {worst:.2e}; all-zero off by {unit:.2e}")


