"""Reshetikhin-Turaev invariants of closed oriented Seifert fibered spaces.

For a closed symbol (epsilon, g; (a_1, b_1), ..., (a_n, b_n)) with g >= 1 and
level r (odd, >= 3) the invariant factors as RT = P1 * P2 * P3 * Z where the
prefactors carry the framing and signature corrections,

    P1 = exp((i pi / 2r) [3 (a_eps - 1) sign(e) - e - 12 sum_j s(b_j, a_j)]),
    P2 = (-1)^{a_eps g} i^n r^{a_eps g / 2 - 1}
         / (2^{n + a_eps g / 2 - 1} sqrt(prod_j a_j)),
    P3 = exp(i (3 pi / 4) (1 - a_eps) sign(e)),

with a_o = 2, a_n = 1, e = -sum b_j / a_j the Euler number and s(b, a) the
Dedekind sum, and Z is the finite sum

    Z = sum_{gamma=1}^{r-1} sum_{mu in {+-1}^n} (-1)^{gamma a_eps g}
        exp(i pi e gamma^2 / 2r)
        prod_j (mu_j exp(-i pi gamma mu_j / (a_j r)))
        / sin^{n + a_eps g - 2}(pi gamma / r)
        * sum_{m in prod Z_{a_j}} prod_j
              exp(-2 pi i (m_j (gamma + mu_j b_j^*) + r m_j^2 b_j^*) / a_j),

where b_j^* is the inverse of b_j modulo a_j.  The sum over m is a product
of per-fiber quadratic Gauss sums (Lawrence-Rozansky), and then the sum over
mu factors per fiber too:

    Z = sum_{gamma=1}^{r-1} (the factors above before prod_j) prod_j
        sum_{mu_j = +-1} mu_j exp(-i pi gamma mu_j / (a_j r)) H_j((gamma + mu_j b_j^*) mod a_j),
    H_j(t) = sum_{m in Z_{a_j}} exp(-2 pi i (t m + r b_j^* m^2) / a_j).

Write F_j = conj(phi) H_j(gamma + b_j^*) - phi H_j(gamma - b_j^*), phi =
exp(i pi gamma / (a_j r)), for fiber j's factor.  A mirrored fiber
(a, -b mod a) has inverse -b^* and table conj(H), and H(-t) = H(t), so its
factor is -conj(F): a mirrored pair contributes the real -|F|^2.  The fibers
are therefore paired off once per symbol; each pair takes one table and the
sign -1, and only the unpaired fibers take complex factors.  When only one
of the pair's two entries is nonzero, |F|^2 is that entry's squared modulus
and phi is not computed; at r = k lcm(a_j) with every a_j odd and >= 3 this
is the case at every gamma.  An orientation double pairs every fiber and has
e = 0, so its Z is a sum of real terms of the sign (-1)^n built from n
tables, not 2n, and its RT is exactly real.  Each such term vanishes only
where a pair has both entries 0.  H_j(t) has modulus 0 or at least
sqrt(a_j d) >= 1 (d as below), while a zero one rounds to a few a_j eps, so
a pair's table keeps its nonzero entries only, and a double whose Z
vanishes gets an exact 0 rather than a sum of terms of order eps^2.

H_j is tabulated once per pair or unpaired fiber, for the t that occur.
Let d = gcd(r, a_j), which is gcd(r b_j^*, a_j).  Writing
m = m' + (a_j / d) m'' leaves the quadratic term blind to m'', so the sum
over m'' vanishes unless d | t, and

    H_j(t) = d sum_{m in Z_{a_j / d}} exp(-2 pi i ((t/d) m + (r b_j^*/d) m^2) / (a_j / d))

when d | t.  A table therefore costs at most (a_j / d) min(a_j, r) terms.
Since every t in a table is a multiple of d_j, a gamma contributes only if
gamma == -mu_j b_j^* (mod d_j) for some mu_j, for every j: the support S is
one CRT fold over the fibers with d_j > 1, lifted by lcm(d_j), and only the
gamma in S are summed.  Z costs O(|S| n) terms and |S| sines, plus
O(sum_j (a_j / d_j) min(a_j, r)) over the tables built, plus one O(r) pass
per (r, E) per process for the magnitude sum of sin^{-E} over every gamma,
which depends on the level and the exponent E = n + a_eps g - 2 only and is
cached.
At a level coprime to every a_j, S is all of 1..r-1 and the loop's own sines
give that sum.  When a_j | r,
as for every fiber of a double at r = k lcm(a_j), the table is the single
exact entry H_j(t) = a_j [t == 0 mod a_j], and S is the k lifts of the
gamma of the congruence system below.
Every phase is exp(i pi num / den) for integers num and den, reduced modulo 2
in integer arithmetic and exact at quarter turns, so the only rounding
before exp is the one of num / den; every sum is accumulated with
exactly-rounded summation.

The prefactors are computed from integers too.  Since s(-b, a) = -s(b, a)
and s depends on b modulo a only, a fiber (a, b) cancels against a mirrored
fiber (a, -b mod a) in P1, and only the fibers left unpaired need their
Dedekind sums.  On an orientation double e = 0, so P3 = 1, and every fiber
has its mirror, so P1 = 1 with no Dedekind sum computed.  With the rational
x = 3 (a_eps - 1) sign(e) - e - 12 sum_j s(b_j, a_j), P1 is
exp(i pi num / den) with num / den = x / 2r; x is an integer over the
denominator of e unless unpaired fibers add Dedekind sums, the only case
that builds a Fraction.  P3 is
exp(i pi 3 (1 - a_eps) sign(e) / 4), and the powers in P2 have the
half-integer exponents (a_eps g - 2) / 2 and (2n + a_eps g - 2) / 2.
When P2's denominator leaves the float range, RT is nan and rt_closed
raises DomainError rather than return the 0 of a division by inf.

Only the tables, the support, the sines, the loop, P1's phase and P2's
power of r depend on the level.  Everything else (e, E, the pairing, the
b_j^*, the Dedekind sums and P1's exponent, P2's other factors, P3) is built
once per closed symbol per process by _plan, a cache bounded at 256 symbols,
so a symbol evaluated at many levels pays for it once.

For the orientation double D(M) of a bounded symbol whose multiplicities all
satisfy a_j >= 2, evaluated at a level r = k * lcm(a_j), the inner sums
collapse: m-blocks vanish unless (gamma mod A, mu) solves the congruence
system gamma + mu_j b_j^* == 0 (mod a_j), and each solution contributes
through its single family of lifts gamma, gamma + A, ..., gamma + (k-1) A.
This gives the closed form

    Z(D(M)) = (-1)^n (prod_j a_j)^2 sum_{(gamma, mu) in B} sum_{p=0}^{k-1}
              sin^{-(2n + 2 a_eps g - 2)}(pi (p A + gamma) / r),

an exactly-zero value when the solution set B is empty, and a manifestly
positive-or-negative real number otherwise.  It is the pair form above at
r = kA, where each pair's |F|^2 is a_j^2 on the support and 0 off it.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .congruence import CongruenceCertificate, _crt_fold, _dedekind, enumerate_solutions
from .errors import DomainError, _in_float_range, _is_int, _require_level
from .symbols import SeifertSymbol, euler_number

__all__ = [
    "InvariantValue",
    "unit_phase",
    "z_direct",
    "z_double_simplified",
    "rt_closed",
    "verlinde_dimension",
]

_QUARTER_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # exp(i pi k / 2), k = 0..3


class InvariantValue(NamedTuple):
    """A computed invariant together with its numerical provenance.

    term_count and term_magnitude_sum are the number and the summed moduli of
    the terms of the sum the method stands for, so value against the latter
    measures cancellation: the literal (gamma, mu, m) sum Z for "direct"
    (evaluated by per-fiber Gauss sums; "rt" and the TV methods scale it by
    |P1 P2 P3|), the (gamma, mu, p) closed-form terms for "simplified", and the
    admissible colorings' weights for "state-sum".
    """

    value: complex
    r: int
    method: str
    term_count: int
    term_magnitude_sum: float
    warnings: tuple[str, ...] = ()


def _fsum_complex(values: list[complex]) -> complex:
    return complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))


def _phase(num: int, den: int) -> complex:
    """exp(i pi num / den) for integers num and den >= 1, reduced modulo 2 before rounding."""
    num %= 2 * den
    if 2 * num % den == 0:
        return _QUARTER_PHASES[2 * num // den]
    return cmath.exp(1j * math.pi * (num / den))


def unit_phase(exponent: Fraction) -> complex:
    """exp(i pi x) for exact rational x, reduced modulo 2 before rounding."""
    return _phase(exponent.numerator, exponent.denominator)


def _gauss_table(a: int, bstar: int, r: int) -> dict[int, complex]:
    """H(t) = sum_{m in Z_a} exp(-2 pi i (t m + r b^* m^2) / a) for the t that occur, where d | t.

    With d = gcd(r, a), H(t) = d sum_{m in Z_{a/d}} exp(-2 pi i ((t/d) m + (r b^*/d) m^2) / (a/d))
    when d | t and 0 otherwise; the t that occur are (gamma +- b^*) mod a, 0 < gamma < r.
    """
    if r % a == 0:
        return {0: complex(a)}  # d = a: one term, and only t = 0 occurs
    d = math.gcd(r, a)
    reduced, quad = a // d, r * bstar % a // d
    if r > a:
        ts = range(0, a, d)
    else:
        ts = {t for gamma in range(1, r) for t in ((gamma + bstar) % a, (gamma - bstar) % a) if t % d == 0}
    roots = [cmath.exp(-2j * math.pi * k / reduced) for k in range(reduced)]
    return {
        t: d * _fsum_complex([roots[(t // d * m + quad * m * m) % reduced] for m in range(reduced)])
        for t in ts
    }


def _support(bstars: list[tuple[int, int]], r: int) -> Sequence[int]:
    """The gamma in 1..r-1 at which no Gauss table is zero by divisibility, in no set order.

    Every key of the table of a fiber (a, b^*) is a multiple of d = gcd(r, a), so gamma
    survives only if gamma == -+b^* (mod d) for every fiber; fibers with d = 1 constrain nothing.
    """
    # fibers whose (d, +-b^* mod d) agree give one constraint
    constraints = list({(d, min(bstar % d, -bstar % d)) for a, bstar in bstars if (d := math.gcd(r, a)) > 1})
    if not constraints:
        return range(1, r)
    solutions, modulus = _crt_fold(constraints, [(1, -1)] * len(constraints))
    # a set, so that each gamma comes once however many sign vectors reach it; no residue is 0 mod d > 1
    return [gamma for residue in {t for t, _ in solutions} for gamma in range(residue, r, modulus)]


def _scales(gammas: Iterable[int], r: int, exponent: int) -> list[float]:
    """sin^{-E}(pi gamma / r) for each gamma, in order."""
    return list(map(pow, map(math.sin, [math.pi * gamma / r for gamma in gammas]), repeat(-exponent)))


@functools.lru_cache(maxsize=1024)
def _scale_sum(r: int, exponent: int) -> float:
    """fsum of sin^{-E}(pi gamma / r) over gamma = 1..r-1, once per (r, E) per process."""
    return math.fsum(_scales(range(1, r), r, exponent))


@_in_float_range
def z_direct(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """The double sum Z, its inner sum over m taken as one Gauss sum per fiber.

    Per level it costs one Gauss table per mirrored pair and per unpaired
    fiber, O(|S| n) terms and |S| sines, where S is the set of gamma at which
    every Gauss table can be nonzero (_support), plus one O(r) pass per
    (r, E) per process for the magnitude sum (_scale_sum); e, E, the pairs
    and the b^* come from the symbol's _plan.
    """
    _require_level(r)
    if symbol.has_boundary:
        raise DomainError("invariant is defined for closed symbols; double the symbol first")
    e_num, e_den, exponent, odd_sign, pairs, unpaired, per_gamma = _plan(symbol)[:7]
    # |H(t)| is 0 or at least 1 and a zero one rounds to a few a eps: a pair drops it, so its |F|^2 is 0, not eps^2
    pair_tables = [
        (a, bstar, {t: h for t, h in _gauss_table(a, bstar, r).items() if abs(h) >= 0.5}) for a, bstar in pairs
    ]
    fibers = [(a, bstar, _gauss_table(a, bstar, r)) for a, bstar in unpaired]
    support = _support(pairs + unpaired, r)
    scales = _scales(support, r, exponent)
    flip = len(pairs) % 2  # each pair contributes -|F|^2

    terms = []
    for gamma, scale in zip(support, scales):
        term = -scale if (gamma & odd_sign) ^ flip else scale
        for a, bstar, table in pair_tables:
            plus = table.get((gamma + bstar) % a, 0)
            minus = table.get((gamma - bstar) % a, 0)
            if plus and minus:
                phase = _phase(gamma, a * r)
                factor = phase.conjugate() * plus - phase * minus
            else:
                factor = plus or minus  # |F| = |H| when one entry is zero, so no phase is needed
                if not factor:
                    break  # the whole product vanishes
            term *= factor.real * factor.real + factor.imag * factor.imag
        else:
            for a, bstar, table in fibers:
                plus = table.get((gamma + bstar) % a, 0)
                minus = table.get((gamma - bstar) % a, 0)
                if not (plus or minus):
                    break
                phase = _phase(gamma, a * r)  # exp(i pi gamma / (a r)); mu = +1 takes its conjugate
                term *= phase.conjugate() * plus - phase * minus
            else:
                terms.append(term * _phase(e_num * gamma * gamma, 2 * r * e_den) if e_num else term)

    # when the support is every gamma its scales are the level's; fsum rounds exactly, in any order
    magnitude = per_gamma * (math.fsum(scales) if len(scales) == r - 1 else _scale_sum(r, exponent))
    return InvariantValue(
        # magnitude bounds every |term|; past the float range fsum could meet inf - inf
        value=_fsum_complex(terms) if magnitude < math.inf else magnitude,
        r=r,
        method="direct",
        term_count=(r - 1) * per_gamma,
        term_magnitude_sum=magnitude,
    )


def _double_setup(symbol: SeifertSymbol, r: int) -> tuple[int, int, CongruenceCertificate | None]:
    """Check the preconditions the simplified form and the growth bound share.

    Returns (A, k, certificate) with r = k A; certificate is None when B is empty.
    """
    _require_level(r)
    if not symbol.has_boundary:
        raise DomainError("the simplified form and the lower bound apply to symbols with boundary")
    if not symbol.fibers or any(a < 2 for a, _ in symbol.fibers):
        raise DomainError(
            "the simplified form and the lower bound need at least one fiber and "
            "every multiplicity >= 2; normalize the symbol to absorb unit fibers"
        )
    A = math.lcm(*(a for a, _ in symbol.fibers))
    if r % A:
        raise DomainError(f"level {r} is not a multiple of the system modulus {A}")
    return A, r // A, enumerate_solutions(symbol.fibers)


@_in_float_range
def z_double_simplified(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """Z of the orientation double of a bounded symbol, via its congruence set.

    Requires a bounded symbol with at least one fiber, every a_j >= 2, and a
    level r that is an odd multiple of A = lcm(a_j).
    """
    A, k, certificate = _double_setup(symbol, r)
    n = len(symbol.fibers)
    exponent = 2 * n + 2 * symbol.a_eps * symbol.genus - 2
    if certificate is None:
        return InvariantValue(
            value=0.0,
            r=r,
            method="simplified",
            term_count=0,
            term_magnitude_sum=0.0,
            warnings=("empty congruence solution set; the sum vanishes identically",),
        )

    scale = float(math.prod(a for a, _ in symbol.fibers)) ** 2
    sign = -1.0 if n % 2 else 1.0
    magnitudes = [
        scale / math.sin(math.pi * (p * A + gamma) / r) ** exponent
        for gamma, _ in certificate.set_b
        for p in range(k)
    ]
    total = math.fsum(magnitudes)
    return InvariantValue(
        value=sign * total,
        r=r,
        method="simplified",
        term_count=len(magnitudes),
        term_magnitude_sum=total,
    )


def _pair_off(fibers: tuple[tuple[int, int], ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cancel each fiber (a, b mod a) against one (a, -b mod a).

    Returns one fiber of each mirrored pair, and the fibers left unpaired in symbol order.
    """
    pairs, waiting = [], {}  # (a, b mod a) -> indices of the fibers not yet paired
    for i, (a, b) in enumerate(fibers):
        mirrors = waiting.get((a, -b % a))
        if mirrors:
            pairs.append(fibers[mirrors.pop()])
        else:
            waiting.setdefault((a, b % a), []).append(i)
    return pairs, [fibers[i] for i in sorted(i for left in waiting.values() for i in left)]


@functools.lru_cache(maxsize=256)
def _plan(symbol: SeifertSymbol) -> tuple:
    """What z_direct and rt_closed need of a closed symbol at every level, as one tuple.

    P1 = _phase(num, 2 r den) and P2 = sign * r**power / den at level r.
    """
    fibers = symbol.fibers  # SeifertSymbol has checked every fiber, so pow and _dedekind check none
    n, a_eps, g = len(fibers), symbol.a_eps, symbol.genus
    euler = euler_number(symbol)
    sign_e = (euler.numerator > 0) - (euler.numerator < 0)
    # x = 3 (a_eps - 1) sign(e) - e - 12 sum_j s(b_j, a_j), over e's denominator while no Dedekind sum enters
    num, den = 3 * (a_eps - 1) * sign_e * euler.denominator - euler.numerator, euler.denominator
    pairs, unpaired = _pair_off(fibers)  # s(-b, a) = -s(b, a): a mirrored pair adds nothing to the sum
    if unpaired:
        x = Fraction(num, den) - 12 * sum(_dedekind(b, a) for a, b in unpaired)
        num, den = x.numerator, x.denominator
    prod_a = math.prod(a for a, _ in fibers)
    try:
        p2_den = 2.0 ** ((2 * n + a_eps * g - 2) / 2) * math.sqrt(prod_a)
    except OverflowError:
        p2_den = math.inf
    # past the float range RT is then nan, which rt_closed's range check rejects; 1 / inf would be a silent 0
    p2_den = p2_den if p2_den < math.inf else math.nan
    pairs, unpaired = (tuple((a, pow(b, -1, a)) for a, b in part) for part in (pairs, unpaired))
    # i^n from the table: past n = 100 the power 1j**n is taken through exp and log, and rounds
    p2_sign, p3 = (-1.0) ** (a_eps * g) * _QUARTER_PHASES[n % 4], _phase(3 * (1 - a_eps) * sign_e, 4)
    return (euler.numerator, euler.denominator, n + a_eps * g - 2, a_eps * g % 2, pairs, unpaired, 2**n * prod_a,
            num, den, p2_sign, (a_eps * g - 2) / 2, p2_den, p3)


@_in_float_range
def rt_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT invariant of a closed symbol at level r.

    Costs one z_direct, then P1's phase and P2's power of r; the rest of the
    prefactor comes from the symbol's _plan.
    """
    z = z_direct(symbol, r)  # validates r and the symbol, and builds its plan
    num, den, p2_sign, p2_power, p2_den, p3 = _plan(symbol)[7:]
    prefactor = _phase(num, 2 * r * den) * (p2_sign * float(r) ** p2_power / p2_den) * p3
    return InvariantValue(
        value=prefactor * z.value,
        r=r,
        method="rt",
        term_count=z.term_count,
        term_magnitude_sum=abs(prefactor) * z.term_magnitude_sum,
        warnings=z.warnings,
    )


@_in_float_range
def verlinde_dimension(genus: int, r: int) -> float:
    """dim of the level-r space on a genus-g surface: (r/2)^{g-1} sum sin^{2-2g}.

    The sum is _scale_sum(r, 2g - 2), the kernel z_direct takes its magnitude sum from.
    """
    _require_level(r)
    if not _is_int(genus) or genus < 1:
        raise DomainError(f"genus must be a positive integer, got {genus!r}")
    return (r / 2.0) ** (genus - 1) * _scale_sum(r, 2 * genus - 2)
