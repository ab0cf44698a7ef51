"""Exception hierarchy shared across the package.

Each class carries the process exit code the command line tool maps it to,
so the CLI never needs a type table of its own.  ``_in_float_range`` turns
a float overflow in any evaluator into the same ``DomainError``.  The
helpers shared by every layer live here too, because every module imports
this one: ``_is_int`` (the integer test of all arguments),
``_require_level`` (the odd level r >= 3 of every invariant) and
``_read_text`` (the one file reader of the CLI and of triangulation files).
"""

from __future__ import annotations

import functools

__all__ = [
    "SeifertQError",
    "MalformedInputError",
    "TriangulationError",
    "DomainError",
    "DegenerateSystemError",
    "NumericInconsistencyError",
]

# the field types _in_float_range checks, tested by exact type: the package builds only builtin floats and complexes
_INEXACT = frozenset((float, complex))


class SeifertQError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class MalformedInputError(SeifertQError):
    """Unparseable input: bad JSON, missing fields, broken triangulation file."""

    exit_code = 3


class TriangulationError(MalformedInputError):
    """Structurally invalid triangulation (non-involutive gluings etc.)."""


class DomainError(SeifertQError, ValueError):
    """Semantically invalid input or violated precondition."""

    exit_code = 4


class DegenerateSystemError(DomainError):
    """The congruence set B of a bounded symbol is empty, so lower_bound has no positive bound.

    Only lower_bound raises it; a symbol without fibers or with a fiber of
    multiplicity 1 fails the shared precondition first, as a plain DomainError.
    """


class NumericInconsistencyError(SeifertQError):
    """A numerical self-check failed; signals a formula or convention bug."""

    exit_code = 5


def _in_float_range(evaluate):
    """Make an evaluator raise DomainError when its value leaves the float range.

    A float power, fsum or division out of range raises ArithmeticError
    and an overflowing product gives inf or nan; every float field of the
    result (or the result itself) must be finite, so callers get exit code 4
    rather than a traceback or a non-finite number in their output.
    """

    @functools.wraps(evaluate)
    def checked(*args, **kwargs):
        try:
            result = evaluate(*args, **kwargs)
        except ArithmeticError:  # OverflowError, or ZeroDivisionError from a divisor that underflowed to 0
            result = float("inf")
        for x in result if isinstance(result, tuple) else (result,):
            if type(x) in _INEXACT and x - x:  # 0 when finite; nan for inf or nan, in either part of a complex
                raise DomainError(f"{evaluate.__name__}: the value exceeds the float range")
        return result

    return checked


def _is_int(x: object) -> bool:
    """An int or an int subclass other than bool; exact ints take the first test."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def _require_level(r: int) -> None:
    if not _is_int(r) or r < 3 or r % 2 == 0:
        raise DomainError(f"level r must be an odd integer >= 3, got {r!r}")


def _read_text(path, kind: str) -> str:
    """The UTF-8 text of a file; MalformedInputError (exit 3) when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {kind} file {path!r}: {exc}") from exc
