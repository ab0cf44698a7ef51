"""Seifert symbols for oriented Seifert fibered 3-manifolds.

A Seifert fibered space over a closed base surface is presented here by an
unnormalized symbol

    (epsilon, g; (a_1, b_1), ..., (a_n, b_n))

where epsilon is 'o' for an orientable base of genus g > 0 and 'n' for a
non-orientable base of genus g > 0, and each pair of coprime integers
(a_j, b_j) records a fiber with multiplicity a_j >= 1 (a_j = 1 fibers are
ordinary, a_j >= 2 are exceptional).  A symbol may additionally be flagged as
having boundary, in which case the base surface has one boundary circle and
the manifold is a Seifert fibration over a surface with boundary.

Unnormalized symbols are not unique.  Two moves preserve the fibration:

  1. add or delete a fiber (1, 0);
  2. replace (a_j, b_j) by (a_j, b_j + k_j * a_j), where the integers k_j
     must satisfy sum(k_j) = 0 when the symbol is closed (with boundary the
     shifts are unconstrained).

``normalize`` reduces a symbol to a canonical representative under these
moves.  The rational Euler number e(M) = -sum(b_j / a_j) is a complete
obstruction bookkeeping quantity for closed symbols and is preserved by the
moves; orientation reversal negates every b_j and hence e(M).

The double of a bounded symbol glues two copies of the manifold along their
boundary: D(M) doubles the base genus and adjoins the orientation-reversed
fibers, giving the closed symbol

    (epsilon, 2g; (a_1, b_1), ..., (a_n, b_n), (a_1, -b_1), ..., (a_n, -b_n))

whose Euler number vanishes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from fractions import Fraction
from typing import Any, NamedTuple

from .congruence import _fibers
from .errors import DomainError, MalformedInputError, _is_int

__all__ = [
    "SeifertSymbol",
    "euler_number",
    "orbifold_euler_characteristic",
    "double",
    "reverse_orientation",
    "normalize",
    "symbol_to_dict",
    "symbol_from_dict",
    "symbol_to_json",
    "symbol_from_json",
]


class _SymbolFields(NamedTuple):
    epsilon: str
    genus: int
    fibers: tuple[tuple[int, int], ...] = ()
    boundary: bool = False


class SeifertSymbol(_SymbolFields):
    """An unnormalized Seifert symbol, an immutable named tuple checked on construction.

    Every public function that takes a symbol raises DomainError for any
    other argument (_require_symbol) and checks none of its fields again;
    the symbols it derives are built from fields already checked (_derived).

    Attributes:
        epsilon: 'o' (orientable base) or 'n' (non-orientable base).
        genus: genus of the base surface, > 0.
        fibers: tuple of (a, b) integer pairs, a >= 1, gcd(a, b) = 1.
        boundary: True if the base surface has a boundary circle.
    """

    __slots__ = ()

    def __new__(cls, epsilon: str, genus: int, fibers: Iterable = (), boundary: bool = False) -> SeifertSymbol:
        if epsilon not in ("o", "n"):
            raise DomainError(f"epsilon must be 'o' or 'n', got {epsilon!r}")
        if not _is_int(genus) or genus <= 0:
            raise DomainError(f"genus must be a positive integer, got {genus!r}")
        if not isinstance(boundary, bool):
            raise DomainError(f"boundary must be True or False, got {boundary!r}")
        return super().__new__(cls, epsilon, genus, _fibers(fibers), boundary)

    @classmethod
    def _make(cls, iterable: Iterable) -> SeifertSymbol:
        return cls(*iterable)  # so that _replace checks its result too

    @property
    def a_eps(self) -> int:
        """a_o = 2 for an orientable base, a_n = 1 for a non-orientable one."""
        return 2 if self.epsilon == "o" else 1

    def __str__(self) -> str:
        fib = ", ".join(f"({a},{b})" for a, b in self.fibers)
        tail = "; boundary" if self.boundary else ""
        return f"({self.epsilon}, {self.genus}; [{fib}]{tail})"


def _require_symbol(symbol: object) -> None:
    """DomainError unless symbol is a SeifertSymbol, whose fields its constructor has checked."""
    if not isinstance(symbol, SeifertSymbol):
        raise DomainError(f"expected a SeifertSymbol, got {type(symbol).__name__}")


def _derived(epsilon: str, genus: int, fibers: tuple[tuple[int, int], ...], boundary: bool) -> SeifertSymbol:
    """A SeifertSymbol of fields derived from a checked symbol's, which therefore checks none.

    The derivations below keep each field valid: genus stays positive, and
    gcd(a, -b) = gcd(a, b + k a) = gcd(a, b) = 1 for every fiber they make.
    """
    return tuple.__new__(SeifertSymbol, (epsilon, genus, fibers, boundary))


def euler_number(symbol: SeifertSymbol) -> Fraction:
    """Rational Euler number e(M) = -sum(b_j / a_j), exact, as one fraction over lcm(a_j)."""
    _require_symbol(symbol)
    common = math.lcm(*[a for a, _ in symbol.fibers])
    return Fraction(-sum([b * (common // a) for a, b in symbol.fibers]), common)


def orbifold_euler_characteristic(symbol: SeifertSymbol) -> Fraction:
    """Orbifold Euler characteristic chi(base) - sum(1 - 1/a_j) of the base.

    chi(base) = 2 - a_eps g - (1 if the base has a boundary circle), with
    a_eps = 2 for an orientable base of genus g and 1 for a non-orientable
    one with g cross-caps, the convention of P2 in rt.py.
    """
    _require_symbol(symbol)
    base = 2 - symbol.a_eps * symbol.genus - symbol.boundary
    return base - sum((1 - Fraction(1, a) for a, _ in symbol.fibers), start=Fraction(0))


def double(symbol: SeifertSymbol) -> SeifertSymbol:
    """Double of a bounded symbol along its boundary.

    Doubles the base genus and adjoins the orientation-reversed fibers; the
    result is closed and has Euler number 0.
    """
    _require_symbol(symbol)
    if not symbol.boundary:
        raise DomainError("double() requires a symbol with boundary")
    fibers = symbol.fibers
    return _derived(symbol.epsilon, 2 * symbol.genus, fibers + tuple([(a, -b) for a, b in fibers]), False)


def reverse_orientation(symbol: SeifertSymbol) -> SeifertSymbol:
    """The same fibration with reversed orientation: every b_j is negated."""
    _require_symbol(symbol)
    return _derived(symbol.epsilon, symbol.genus, tuple([(a, -b) for a, b in symbol.fibers]), symbol.boundary)


def normalize(symbol: SeifertSymbol) -> SeifertSymbol:
    """Canonical representative of a symbol under the two moves.

    Each b_j is reduced into 0 <= b_j < a_j and (1, 0) pairs are dropped.
    For closed symbols the reduction shifts must cancel, so the residual
    total shift is carried on the last fiber of multiplicity >= 2 (unit
    fibers always reduce to (1, 0) and are dropped; with no multiple fiber
    the unit fibers merge into one (1, sum b_j)).  Idempotent, and
    equivalent symbols share one canonical form.
    """
    _require_symbol(symbol)
    fibers = symbol.fibers
    if symbol.boundary:  # the shifts are free: each b_j reduces on its own, and only unit fibers reduce to (1, 0)
        return _derived(symbol.epsilon, symbol.genus, tuple([(a, b % a) for a, b in fibers if a != 1]), True)
    carrier = max((j for j, (a, _) in enumerate(fibers) if a >= 2), default=0)
    # the carrier takes the sum of the other shifts, so the shifts sum to zero
    shift = sum(b // a for j, (a, b) in enumerate(fibers) if j != carrier)
    reduced = [(a, b + shift * a if j == carrier else b % a) for j, (a, b) in enumerate(fibers)]
    return _derived(symbol.epsilon, symbol.genus, tuple([f for f in reduced if f != (1, 0)]), False)


# -- serialization ------------------------------------------------------------

def symbol_to_dict(symbol: SeifertSymbol) -> dict[str, Any]:
    _require_symbol(symbol)
    return {
        "epsilon": symbol.epsilon,
        "genus": symbol.genus,
        "fibers": [[a, b] for a, b in symbol.fibers],
        "boundary": symbol.boundary,
    }


_FIELDS = frozenset(_SymbolFields._fields)


def symbol_from_dict(data: Any) -> SeifertSymbol:
    if not isinstance(data, dict):
        raise MalformedInputError(f"symbol must be an object, got {type(data).__name__}")
    if not _FIELDS.issubset(data):
        raise MalformedInputError(f"symbol is missing fields: {sorted(_FIELDS.difference(data))}")
    fibers = data["fibers"]
    if not isinstance(fibers, (list, tuple)):  # a JSON array; an object, a string or a number is malformed
        raise MalformedInputError("fibers must be a list of [a, b] pairs")
    for entry in fibers:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise MalformedInputError(f"bad fiber entry {entry!r}")
    if not isinstance(data["boundary"], bool):
        raise MalformedInputError("boundary must be true or false")
    if not isinstance(data["epsilon"], str):
        raise MalformedInputError(f"epsilon must be a string, got {data['epsilon']!r}")
    try:
        return SeifertSymbol(data["epsilon"], data["genus"], fibers, data["boundary"])
    except DomainError:  # the constructor is the one integer test of genus and entries; a non-integer one is malformed
        if not _is_int(data["genus"]):
            raise MalformedInputError(f"genus must be an integer, got {data['genus']!r}") from None
        for entry in fibers:
            if not all(map(_is_int, entry)):
                raise MalformedInputError(f"bad fiber entry {entry!r}") from None
        raise


def symbol_to_json(symbol: SeifertSymbol) -> str:
    return json.dumps(symbol_to_dict(symbol), sort_keys=True)


def symbol_from_json(text: str) -> SeifertSymbol:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer past int()'s 4300 digits, or deep nesting
        raise MalformedInputError(f"invalid JSON for symbol: {exc}") from exc
    return symbol_from_dict(data)
