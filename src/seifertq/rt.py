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
are therefore paired off once per symbol; each pair takes the sign -1 and
the real |F|^2, and only the unpaired fibers take complex factors.  An
orientation double pairs every fiber and has e = 0, so its Z is a sum of
real terms of the sign (-1)^n, and its RT is exactly real.

Let d = gcd(r, a_j), which is gcd(r b_j^*, a_j), and c = a_j / d.  Writing
m = m' + c m'' leaves the quadratic term blind to m'', so the sum over m''
vanishes unless d | t, and

    H_j(t) = d sum_{m in Z_c} exp(-2 pi i ((t/d) m + (r b_j^*/d) m^2) / c)

when d | t: d times a quadratic Gauss sum G(alpha, t/d; c) with alpha a unit
mod c.  Such a sum (Berndt-Evans-Williams, Gauss and Jacobi Sums, ch. 1) is
never 0 for c odd; for c == 2 (mod 4) it is 0 exactly when t/d is even, and
for c == 0 (mod 4) exactly when t/d is odd.  So H_j(t) != 0 exactly when
t == t0 (mod D), with (D, t0) = (d, 0) for c odd and (2d, a_j/2 mod 2d) for
c even, and there |H_j|^2 = a_j D (_nonzero).  A gamma has a nonzero
factor for fiber j exactly when gamma == t0_j - mu_j b_j^* (mod D_j) for some
mu_j; as 2 t0_j == 0 (mod D_j) the support S of the gamma where every fiber
has one is one CRT fold over the fibers with D_j > 1, lifted by lcm(D_j).
Only the gamma in S are summed, so a Z with S empty is an exact 0 rather
than a sum of terms of order eps (eps^2 on a double).

For a pair with d > 1, d is odd and prime to b^*, so 2 b^* != 0 (mod D): at
each gamma of S exactly one of H(gamma +- b^*) is nonzero, and |F|^2 is the
integer a_j D.  Such pairs take no table and no work per gamma: they
multiply into one integer C = prod a_j D_j that weighs every term.  For a
pair with d = 1, D is 1 or 2, so both entries are nonzero on S.  Such pairs
and the unpaired fibers share one F_j(gamma), from a table of H_j on its class
among the t that occur, built for at most (a_j / d) min(a_j, r) terms; a pair
multiplies each term by |F_j|^2, an unpaired fiber by F_j.
When no table, no Euler phase and no sign (-1)^{gamma a_eps g} remain, as on
every double at r = k lcm(a_j) (d = a_j), Z is the fsum of +-C sin^{-E}(pi
gamma / r) over S, one sine power per gamma.  When a_j | r the
table of an unpaired fiber is the single exact entry H_j(t) = a_j [t == 0
mod a_j]; on a double at r = k lcm(a_j), S is the k lifts of the gamma of
the congruence system below.
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
exp(i pi num / den) with num / den = x / 2r, x one exact Fraction.  P3 is
exp(i pi 3 (1 - a_eps) sign(e) / 4), and the powers in P2 have the
half-integer exponents (a_eps g - 2) / 2 and (2n + a_eps g - 2) / 2.
When P2's denominator leaves the float range, RT is nan and rt_closed
raises DomainError rather than return the 0 of a division by inf.

Only the tables, the lifts of S, the sines, P1's phase and P2's power of r
depend on the level itself.  The pass over the fibers (C, which fibers take
tables, S's residues modulo lcm(D_j)) depends on r only through gcd(r, a_j),
so on r mod A = lcm(a_j), and on the symbol only through the (a_j, b_j^*) of
its pairs and unpaired fibers; everything else depends on the symbol alone.
At r = kA a double's level work is one sine power and one product per gamma
of S, read straight from S's residues, and the sine level sum per (r, E).

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
r = kA, where each pair's |F|^2 is a_j D = a_j^2 on the support.  As r is
odd, every a_j is odd and >= 3, so each gamma has one mu: the gamma of B are
the support at level A.  M's fibers are one of each pair of D(M), so
z_double_simplified reads z_direct's pass over them at r == 0 (mod A), the
weight (-1)^n (prod_j a_j)^2 and the gamma of B, and lifts that support k
times: both take their terms from _double_terms, and the two sums are equal.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .congruence import _crt_fold, _dedekind
from .errors import DomainError, _in_float_range, _is_int, _require_level
from .symbols import SeifertSymbol, _require_symbol, euler_number

__all__ = [
    "InvariantValue",
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


def _nonzero(a: int, r: int) -> tuple[int, int, int]:
    """(d, D, t0) with d = gcd(r, a): H(t) != 0 exactly when t == t0 (mod D), and there |H|^2 = a D."""
    d = math.gcd(r, a)
    return (d, 2 * d, a // 2 % (2 * d)) if a // d % 2 == 0 else (d, d, 0)


def _gauss_table(a: int, bstar: int, r: int) -> dict[int, complex]:
    """H(t) = sum_{m in Z_a} exp(-2 pi i (t m + r b^* m^2) / a) for the t that occur where H(t) != 0.

    With d = gcd(r, a), H(t) = d sum_{m in Z_{a/d}} exp(-2 pi i ((t/d) m + (r b^*/d) m^2) / (a/d))
    on the class t == t0 (mod D) of _nonzero; the t that occur are (gamma +- b^*) mod a, 0 < gamma < r,
    and the gamma <= a among them already meet every residue modulo a.
    """
    d, modulus, t0 = _nonzero(a, r)
    reduced, quad = a // d, r * bstar % a // d
    gammas = range(1, min(r, a + 1))
    ts = {t for gamma in gammas for t in ((gamma + bstar) % a, (gamma - bstar) % a) if t % modulus == t0}
    roots = [cmath.exp(-2j * math.pi * k / reduced) for k in range(reduced)]
    return {
        t: d * _fsum_complex([roots[(t // d * m + quad * m * m) % reduced] for m in range(reduced)])
        for t in ts
    }


def _support(residues: tuple[int, ...], modulus: int, r: int) -> Sequence[int]:
    """The gamma in 1..r-1 congruent to one of the residues modulo modulus, residue by residue."""
    if modulus == 1:
        return range(1, r)
    return [gamma for residue in residues for gamma in range(residue or modulus, r, modulus)]  # 0 lifts from modulus


def _double_terms(weight: float, residues: tuple[int, ...], modulus: int, r: int, exponent: int) -> list[float]:
    """A double's terms at r = kA: weight * sin^{-E}(pi gamma / r) over _support(residues, modulus, r), in order."""
    return [weight * math.sin(math.pi * g / r) ** -exponent for t in residues for g in range(t or modulus, r, modulus)]


def _scales(gammas: Iterable[int], r: int, exponent: int) -> list[float]:
    """sin^{-E}(pi gamma / r) for each gamma, in order."""
    return list(map(pow, map(math.sin, [math.pi * gamma / r for gamma in gammas]), repeat(-exponent)))


@functools.lru_cache(maxsize=1024)
def _scale_sum(r: int, exponent: int) -> float:
    """fsum of sin^{-E}(pi gamma / r) over gamma = 1..r-1: O(r), once per (r, E) per process."""
    return math.fsum(_scales(range(1, r), r, exponent))


@_in_float_range
def z_direct(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """The double sum Z, its inner sum over m taken as one Gauss sum per fiber.

    Per level: the Gauss tables of the fibers _fiber_class lists, and O(|S| n)
    terms and |S| sines on the support S (_support).  Where S is every gamma
    those sines give the magnitude sum, else _scale_sum does.  A pair with
    gcd(r, a) > 1 costs one integer product; where nothing else depends on gamma
    (every double at r = kA) each gamma of S costs one sine power and one product,
    read straight from S's residues.  The rest comes from _plan and _fiber_class.
    """
    _require_symbol(symbol)
    _require_level(r)
    if symbol.boundary:
        raise DomainError("invariant is defined for closed symbols; double the symbol first")
    e_num, e_den, exponent, odd_sign, per_gamma, A, pairs, unpaired = _plan(symbol)[:8]
    weight, tabled, residues, modulus = _fiber_class(pairs, unpaired, r % A)
    if not (tabled or e_num or odd_sign):  # every double at r = kA: each term is weight sin^-E, of one sign
        terms = _double_terms(weight, residues, modulus, r, exponent)  # modulus 1: no fiber, weight 1, every scale
        magnitude = per_gamma * (math.fsum(terms) if modulus == 1 else _scale_sum(r, exponent))
        value = complex(math.fsum(terms)) if magnitude < math.inf else magnitude
    else:
        tables = [(a, bstar, _gauss_table(a, bstar, r), paired) for a, bstar, paired in tabled]  # tables depend on r
        support = _support(residues, modulus, r)  # at each of its gamma every table has a nonzero entry
        scales = _scales(support, r, exponent)
        # when the support is every gamma its scales are the level's; fsum rounds exactly, in any order
        magnitude = per_gamma * (math.fsum(scales) if len(scales) == r - 1 else _scale_sum(r, exponent))
        if not magnitude < math.inf:
            value = magnitude  # magnitude bounds every |term|; past the float range fsum could meet inf - inf
        else:
            terms = []
            for gamma, scale in zip(support, scales):
                term = -weight * scale if gamma & odd_sign else weight * scale
                for a, bstar, table, paired in tables:
                    phase = _phase(gamma, a * r)  # exp(i pi gamma / (a r)); mu = +1 takes its conjugate
                    plus, minus = table.get((gamma + bstar) % a, 0), table.get((gamma - bstar) % a, 0)
                    factor = phase.conjugate() * plus - phase * minus
                    term *= factor.real * factor.real + factor.imag * factor.imag if paired else factor
                terms.append(term * _phase(e_num * gamma * gamma, 2 * r * e_den) if e_num else term)
            value = _fsum_complex(terms)
    return tuple.__new__(InvariantValue, (value, r, "direct", (r - 1) * per_gamma, magnitude, ()))


@functools.lru_cache(maxsize=256)
def _fiber_class(pairs: tuple, unpaired: tuple, residue: int) -> tuple[float, tuple, tuple[int, ...], int]:
    """The pass over the fibers at every level r == residue (mod A): (weight, tabled, residues, modulus).

    pairs and unpaired are _plan's (a, b^*) and A = lcm(a_j), so the pass depends on r only through
    d = gcd(r, a_j) = gcd(residue, a_j).  weight is -+C, each pair contributing -|F|^2, with C the integer
    product of a D over the pairs with d > 1; tabled holds the (a, b^*, paired) that take a Gauss table,
    pairs first, so products round in one order; S is the gamma == a residue (mod modulus = lcm(D)).
    One _crt_fold per fiber list and class per process, whatever the base, the genus or the level.
    """
    constant, tabled, constraints = 1, [], set()
    for paired, part in ((True, pairs), (False, unpaired)):
        for a, bstar in part:
            d, D, t0 = _nonzero(a, residue)
            if paired and d > 1:  # a pair with gcd(r, a) > 1 has |F|^2 = a D on the support: no table
                constant *= a * D
            else:  # a pair multiplies |F|^2 and an unpaired fiber F
                tabled.append((a, bstar, paired))
            if D > 1:  # H((gamma -+ b^*) mod a) != 0 at gamma == +-(b^* - t0) (mod D), as 2 t0 == 0 (mod D)
                constraints.add((D, min((bstar - t0) % D, (t0 - bstar) % D)))
    half, modulus = _crt_fold(list(constraints))
    residues = {t for t, _ in half}  # a set: each gamma comes once, however many sign vectors reach it
    residues.update([-t % modulus for t in residues])  # the fold holds the first sign at +1; the mirrors bring -1
    return float(-constant if len(pairs) % 2 else constant), tuple(tabled), tuple(sorted(residues)), modulus


def _double_setup(symbol: SeifertSymbol, r: int) -> tuple[float, tuple, tuple[int, ...], int]:
    """Check the preconditions the simplified form and the growth bound share; return D(M)'s pass at r == 0 (mod A).

    M's fibers are one of each pair of D(M): z_direct's entry for the double at every level r = kA,
    (weight, (), the gamma of B, modulus), with modulus A when B is nonempty.
    """
    _require_symbol(symbol)
    _require_level(r)
    if not symbol.boundary:
        raise DomainError("the simplified form and the lower bound apply to symbols with boundary")
    fibers = symbol.fibers
    if not fibers or min(fibers)[0] < 2:
        raise DomainError(
            "the simplified form and the lower bound need at least one fiber and "
            "every multiplicity >= 2; normalize the symbol to absorb unit fibers"
        )
    multiplicities = dict(fibers)  # one key per multiplicity
    A = math.lcm(*multiplicities)
    if r % A:
        raise DomainError(f"level {r} is not a multiple of the system modulus {A}")
    # each a_j | r is odd and >= 3, so a gamma of B has one mu; at A, (D, t0) = (a_j, 0), and a residue is its one lift
    # _plan's key for D(M) is its _pair_off pairs: M's fibers when no two share an a, as M then pairs none of its own
    pairs = fibers if len(multiplicities) == len(fibers) else _pair_off(fibers + tuple([(a, -b) for a, b in fibers]))[0]
    return _fiber_class(tuple([(a, pow(b, -1, a)) for a, b in pairs]), (), 0)


@_in_float_range
def z_double_simplified(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """Z of the orientation double of a bounded symbol, via its congruence set.

    Requires a bounded symbol with at least one fiber, every a_j >= 2, and a
    level r that is an odd multiple of A = lcm(a_j).  An empty B gives +0.0, with a warning.
    """
    weight, _, gammas, modulus = _double_setup(symbol, r)
    exponent = 2 * len(symbol.fibers) + 2 * symbol.a_eps * symbol.genus - 2
    # one term per lift gamma + p A, p < k = r / A; a sine power past the float range raises OverflowError
    terms = _double_terms(weight, gammas, modulus, r, exponent)
    value = math.fsum(terms)
    warnings = () if gammas else ("empty congruence solution set; the sum vanishes identically",)
    return InvariantValue(value, r, "simplified", len(terms), abs(value), warnings)


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
    """What z_direct and rt_closed need of a closed symbol at every level, as one tuple, once per symbol per process.

    P1 = _phase(num, 2 r den) and P2 = sign * r**power / den at level r; A = lcm(a_j) keys _fiber_class.
    """
    fibers = symbol.fibers  # SeifertSymbol has checked every fiber, so pow and _dedekind check none
    n, a_eps, g = len(fibers), symbol.a_eps, symbol.genus
    euler = euler_number(symbol)
    sign_e = (euler.numerator > 0) - (euler.numerator < 0)
    pairs, unpaired = _pair_off(fibers)  # s(-b, a) = -s(b, a): a mirrored pair adds nothing to the sum
    x = 3 * (a_eps - 1) * sign_e - euler - 12 * sum(_dedekind(b, a) for a, b in unpaired)  # a Fraction, as e is
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
    return (euler.numerator, euler.denominator, n + a_eps * g - 2, a_eps * g % 2, 2**n * prod_a,
            math.lcm(*(a for a, _ in fibers)), pairs, unpaired,
            x.numerator, x.denominator, p2_sign, (a_eps * g - 2) / 2, p2_den, p3)


@_in_float_range
def rt_closed(symbol: SeifertSymbol, r: int) -> InvariantValue:
    """RT invariant of a closed symbol at level r.

    Costs one z_direct, then P2's power of r and, unless P1 is 1 as on a
    double, P1's phase; the rest of the prefactor comes from the symbol's _plan.
    """
    z = z_direct(symbol, r)  # checks that symbol is a closed SeifertSymbol and r a level, and builds its plan
    num, den, p2_sign, p2_power, p2_den, p3 = _plan(symbol)[8:]
    p1 = _phase(num, 2 * r * den) if num else _QUARTER_PHASES[0]  # 1 at every level where num = 0, as on a double
    prefactor = p1 * (p2_sign * float(r) ** p2_power / p2_den) * p3
    # -0.0 + 0.0 is +0.0: a part that is zero is +0.0, whatever P2's sign
    fields = (prefactor * z.value + 0j, r, "rt", z.term_count, abs(prefactor) * z.term_magnitude_sum, z.warnings)
    return tuple.__new__(InvariantValue, fields)  # as in z_direct, no arity check: test_rt checks every field


@_in_float_range
def verlinde_dimension(genus: int, r: int) -> float:
    """dim of the level-r space on a genus-g surface: (r/2)^{g-1} sum sin^{2-2g}.

    The sum is _scale_sum(r, 2g - 2), the kernel z_direct takes its magnitude sum from.
    """
    _require_level(r)
    if not _is_int(genus) or genus < 1:
        raise DomainError(f"genus must be a positive integer, got {genus!r}")
    return (r / 2.0) ** (genus - 1) * _scale_sum(r, 2 * genus - 2)
