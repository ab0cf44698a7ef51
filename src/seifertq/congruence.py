"""Modular arithmetic underlying the fiber congruence system.

For a symbol with fibers (a_j, b_j), write b_j* for the inverse of b_j modulo
a_j reduced into {0, ..., a_j - 1}.  The central object is the system

    gamma + mu_j * b_j*  ==  0  (mod a_j)      for all j,

over gamma in {1, ..., A - 1} with A = lcm(a_j) and sign vectors
mu in {+1, -1}^n.  Solutions (gamma, mu) index the summands of the
Reshetikhin-Turaev sum of the doubled symbol that survive total cancellation,
so the solvability of this system is exactly what a growth certificate
records.

The solution set is closed under the involution (gamma, mu) ->
(A - gamma, -mu); fibers with a_j = 1 impose no constraint and contribute a
free sign, doubling the solution count per unit fiber.

The solutions come from one Chinese-remainder fold over the fibers that
keeps every surviving pair (gamma mod M, sign prefix), M the lcm so far,
the prefix an integer whose bits are the signs taken.  With
g = gcd(M, a_j), merging in fiber j needs the inverse of M/g modulo a_j/g,
which does not depend on the signs, so the fold inverts once per fiber,
drops a prefix as soon as it is incompatible, and costs in proportion to
the surviving partial solutions.  Its test that g divides the gap is the
pairwise compatibility criterion mu_s b_s* == mu_t b_t* (mod gcd(a_s, a_t))
against the fibers merged so far.  The involution flips mu_1, so the fold
holds mu_1 = +1, which leaves at most 2^(n-1) prefixes, and each solution
it finds brings its mirror (A - gamma, -mu).

One rule, ``_fiber``, checks every fiber (integers a >= 1 and b with
gcd(a, b) = 1) for SeifertSymbol, the functions below and dedekind_sum.
A symbol's fibers are checked once, when it is built, so ``_certificate``
and ``_dedekind``, which the symbol-taking evaluators call on them, check
none.

Dedekind sums follow the convention

    s(b, a) = (1/4a) * sum_{l=1}^{a-1} cot(pi*l/a) * cot(pi*l*b/a)
            = sum_{l=1}^{a-1} ((l/a)) * ((l*b/a)),

the cotangent and the sawtooth forms being equal, with ((x)) = x - floor(x)
- 1/2 off the integers and 0 on them.  The exact value comes from the Euclid
recursion of Rademacher-Grosswald (Dedekind Sums, 1972): s(b, a) =
s(b mod a, a), and for coprime 0 < b < a

    s(b, a) = -1/4 + (a^2 + b^2 + 1) / (12 a b) - s(a mod b, b),

so O(log a) integer steps reach s(0, 1) = 0.  Every value is checked exactly
against the sawtooth form, in integers:

    4 a^2 s(b, a) = sum_{l=1}^{a-1} (2l - a) * (2 (l*b mod a) - a).

Since gcd(a, b) = 1 the terms at l and a - l are equal and the term at
l = a/2 is 0, so the check sums l < a/2 and doubles.  With m = 2l the
residue 2 (l*b mod a) = m*b mod 2a moves by 2b mod 2a from one term to the
next, less 2a where it passes 2a: a term costs one addition and one compare
for its residue, with no multiply or modulo, and one product.  The check
costs O(a) integer steps and O(1) memory, about 0.07 s at a = 10^6.
Once the recursion's num/den equals the sawtooth sum S over 4 a^2, the value
is read as the one Fraction S / (4 a^2), whose gcd is taken on integers far
smaller than the recursion's products.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, NumericInconsistencyError, _is_int

__all__ = [
    "dedekind_sum",
    "system_modulus",
    "CongruenceCertificate",
    "enumerate_solutions",
    "SystemClassification",
    "classify_system",
    "certificate_to_dict",
]

Fiber = tuple[int, int]


def _fiber(a: int, b: int) -> None:
    """The fiber rule: a and b are integers (not bools), a >= 1 and gcd(a, b) = 1."""
    if not ((type(a) is type(b) is int or _is_int(a) and _is_int(b)) and a >= 1 and math.gcd(a, b) == 1):
        raise DomainError(f"(a, b) = ({a!r}, {b!r}): need integers a >= 1 and b with gcd(a, b) = 1")


def _fibers(fibers: Iterable[Fiber]) -> tuple[Fiber, ...]:
    """The (a, b) pairs of fibers as a tuple, each checked by _fiber; DomainError otherwise."""
    try:
        pairs = tuple([(a, b) for a, b in fibers])
    except (TypeError, ValueError):
        raise DomainError(f"fibers must be (a, b) pairs, got {fibers!r}") from None
    for a, b in pairs:
        _fiber(a, b)
    return pairs


def _sawtooth_sum(b: int, a: int) -> int:
    """4 a^2 s(b, a) = sum_{l=1}^{a-1} (2l - a)(2 (lb mod a) - a), summed over l < a/2 and doubled."""
    # with m = 2l, 2 (lb mod a) = mb mod 2a, which each step raises by 2b mod 2a; residue holds mb mod 2a - a,
    # in [-a, a), and gcd(a, b) = 1 keeps lb off the multiples of a
    twice_a = 2 * a
    step, residue, total = 2 * b % twice_a, -a, 0
    for offset in range(2 - a, 0, 2):  # offset = m - a
        residue += step
        if residue >= a:
            residue -= twice_a
        total += offset * residue
    return 2 * total


def dedekind_sum(b: int, a: int) -> Fraction:
    """Dedekind sum s(b, a) as an exact rational.

    Requires integers (not bools) a >= 1 and b with gcd(a, b) = 1.  The
    value is antisymmetric in b (s(-b, a) = -s(b, a)), periodic in b modulo
    a, and satisfies the reciprocity law

        s(b, a) + s(a, b) = -1/4 + (a/b + b/a + 1/(ab)) / 12.

    The Euclid recursion runs in O(log a) integer steps; the exact check
    against the sawtooth sum takes l < a/2 by the l <-> a - l symmetry and
    steps the residue l*b mod a by one addition per term, in O(a) integer
    steps and O(1) memory (about 0.07 s at a = 10^6).  The value returned is
    the checked sawtooth integer over 4 a^2.
    """
    _fiber(a, b)
    return _dedekind(b, a)


def _dedekind(b: int, a: int) -> Fraction:
    """dedekind_sum(b, a) for a fiber (a, b) that _fiber has already checked."""
    # the sum so far is num / den, den = 12 * |prefix| * p; a step adds (p^2+q^2+1-3pq) / (12pq) with the sign of
    # prefix, which alternates
    num, den, prefix = 0, 12 * a, 1
    p, q = a, b % a
    while q:
        num = num * q + ((p - q) * (p - q) - p * q + 1) * prefix
        den *= q
        prefix *= -p
        p, q = q, p % q
    # num / den against the sawtooth sum S = 4 a^2 s(b, a), exactly and before any Fraction
    sawtooth, scale = _sawtooth_sum(b, a), 4 * a * a
    if num * scale != sawtooth * den:
        raise NumericInconsistencyError(f"dedekind_sum({b}, {a}): recursion {num}/{den} vs sawtooth {sawtooth}/{scale}")
    return Fraction(sawtooth, scale)


def system_modulus(fibers: Iterable[Fiber]) -> int:
    """A = lcm of the fiber multiplicities (1 for an empty list)."""
    return math.lcm(*(a for a, _ in _fibers(fibers)))


def _crt_fold(constraints: Sequence[Fiber]) -> tuple[list[tuple[int, int]], int]:
    """Solutions (gamma mod M, mask) of gamma + mu_j b_j* == 0 (mod a_j), and M = lcm(a_j) if any survive.

    The first fiber takes mu_1 = +1 only, the others both signs, and callers add each mirror (-gamma, -mu);
    the mask has one bit per fiber, the first fiber's the highest, set where mu_j = +1.
    """
    partial, modulus = [(0, 0)], 1
    for j, (a, bstar) in enumerate(constraints):
        g = math.gcd(modulus, a)
        reduced = a // g
        lift_inverse = pow(modulus // g % reduced, -1, reduced)  # M/g and a/g are coprime
        plus, both = -bstar % a, j > 0  # gamma == -b* (mod a) for mu = +1 and b* for mu = -1
        merged = []
        for residue, mask in partial:
            mask <<= 1
            gap = plus - residue
            if gap % g == 0:
                merged.append((residue + modulus * (gap // g * lift_inverse % reduced), mask | 1))
            if both:
                gap = bstar - residue
                if gap % g == 0:
                    merged.append((residue + modulus * (gap // g * lift_inverse % reduced), mask))
        partial, modulus = merged, modulus * reduced
        if not partial:
            break
    return partial, modulus


@functools.lru_cache(maxsize=1024)
def _mu(mask: int, n: int) -> tuple[int, ...]:
    """The sign vector of an n-fiber mask of _crt_fold, built once per (mask, n) per process."""
    return tuple(1 if mask >> k & 1 else -1 for k in reversed(range(n)))


class CongruenceCertificate(NamedTuple):
    """Witness that the fiber congruence system is solvable.

    gamma/mu is one solution (the least gamma, ties broken by sign vector);
    set_b lists every solution (gamma, mu) with gamma in {1, ..., A-1},
    sorted.  modulus is A = lcm(a_j).  degenerate marks systems with no
    fiber of multiplicity >= 2, where the gamma range is empty by convention
    and the certificate carries no solutions.
    """

    gamma: int
    mu: tuple[int, ...]
    modulus: int
    set_b: tuple[tuple[int, tuple[int, ...]], ...]
    degenerate: bool = False

    @property
    def cardinality(self) -> int:
        return len(self.set_b)


def enumerate_solutions(fibers: Iterable[Fiber]) -> Optional[CongruenceCertificate]:
    """All solutions of the congruence system, or None when there are none.

    One CRT fold over the fibers holds mu_1 = +1 and tries both signs of
    every other fiber against each surviving partial solution, so each b_j*
    and each lift inverse is computed once and the cost follows the
    surviving prefixes (at most 2^(n-1)); each solution found brings its
    mirror (A - gamma, -mu).  A symbol with no fiber of multiplicity >= 2
    yields a degenerate certificate: A = 1 (or every congruence vacuous), an
    empty solution set, and gamma = 0 as a placeholder.
    """
    return _certificate(_fibers(fibers))


def _certificate(pairs: Sequence[Fiber]) -> Optional[CongruenceCertificate]:
    """enumerate_solutions of fibers that _fiber has already checked."""
    n = len(pairs)
    if max(pairs, default=(1, 0))[0] == 1:  # the largest pair has the largest a, and every a is >= 1
        return CongruenceCertificate(0, (1,) * n, 1, (), True)
    half, modulus = _crt_fold([(a, pow(b, -1, a)) for a, b in pairs])
    if not half:
        return None
    # gamma = 0 would need b_j* == 0 (mod a_j), that is a_j = 1, for every j, so A - gamma is in 1..A-1.  A mask
    # orders as its sign vector does: the first fiber takes the highest bit and mu_j = +1 > -1 sets it, so sorting
    # the integer (gamma, mask) pairs sorts the solutions, and each mu is built after the sort
    full = (1 << n) - 1
    found = sorted(half + [(modulus - gamma, mask ^ full) for gamma, mask in half])
    solutions = tuple([(gamma, _mu(mask, n)) for gamma, mask in found])
    gamma, mu = solutions[0]
    return CongruenceCertificate(gamma, mu, modulus, solutions)


class SystemClassification(NamedTuple):
    """Which sufficient solvability condition a fiber list satisfies.

    case is one of:
      'pairwise-coprime' : the a_j are pairwise coprime (solvable for every
                           sign vector; 2^n solutions);
      'equal-moduli'     : all multiple fibers share one modulus a and the
                           mu_j b_j* can be made congruent mod a;
      'pairwise-gcd'     : solvable by the general pairwise-gcd criterion;
      'no-solution'      : the system is incompatible for every sign vector.
    """

    case: str
    certificate: Optional[CongruenceCertificate]
    warnings: tuple[str, ...] = ()


def classify_system(fibers: Iterable[Fiber]) -> SystemClassification:
    """Classify the congruence system attached to a fiber list."""
    pairs = _fibers(fibers)  # read once: an iterator gives its fibers to the fold and the moduli alike
    certificate = _certificate(pairs)
    moduli = [a for a, _ in pairs]

    warnings = []
    if certificate is not None and certificate.modulus % 2 == 0:
        warnings.append(f"A = {certificate.modulus} is even; no odd level r is divisible by A")
    if certificate is not None and certificate.degenerate:
        warnings.append("no fiber of multiplicity >= 2: congruence system is vacuous")

    if math.prod(moduli) == math.lcm(*moduli):  # pairwise coprime
        case = "pairwise-coprime"
    elif certificate is None:
        case = "no-solution"
    elif len({a for a in moduli if a >= 2}) == 1:
        case = "equal-moduli"
    else:
        case = "pairwise-gcd"
    return SystemClassification(case, certificate, tuple(warnings))


def certificate_to_dict(certificate: CongruenceCertificate) -> dict[str, Any]:
    return {
        "gamma": certificate.gamma,
        "mu": list(certificate.mu),
        "modulus": certificate.modulus,
        "set_B": [[gamma, list(mu)] for gamma, mu in certificate.set_b],
        "cardinality": certificate.cardinality,
        "degenerate": certificate.degenerate,
    }
