"""The float-range guard every evaluator shares: which results it rejects, and how."""

from __future__ import annotations

import math

import pytest

from seifertq import DomainError, InvariantValue, LowerBound
from seifertq.errors import _in_float_range

INF, NAN = math.inf, math.nan


def _returning(result):
    def stub(*args, **kwargs):
        return result

    return _in_float_range(stub)


def _raising(error):
    def stub(*args, **kwargs):
        raise error

    return _in_float_range(stub)


REJECTED = "^stub: the value exceeds the float range$"


@pytest.mark.parametrize(
    "result",
    [
        InvariantValue(complex(INF, 0.0), 5, "direct", 4, 1.0),
        InvariantValue(complex(-INF, 0.0), 5, "direct", 4, 1.0),
        InvariantValue(complex(NAN, 0.0), 5, "direct", 4, 1.0),
        InvariantValue(complex(0.0, INF), 5, "direct", 4, 1.0),
        InvariantValue(complex(0.0, NAN), 5, "direct", 4, 1.0),
        InvariantValue(INF, 5, "tv-bounded", 4, 1.0),
        InvariantValue(1.0 + 0j, 5, "direct", 4, INF),
        InvariantValue(1.0 + 0j, 5, "direct", 4, NAN),
        LowerBound(INF, 15, 15, 1, 2),
        INF,
        -INF,
        NAN,
        complex(INF, 0.0),
        complex(0.0, NAN),
    ],
)
def test_a_non_finite_float_field_or_result_is_a_domain_error(result):
    with pytest.raises(DomainError, match=REJECTED):
        _returning(result)()


@pytest.mark.parametrize("error", [OverflowError("math range error"), ZeroDivisionError("float division by zero")])
def test_an_arithmetic_error_inside_is_the_same_domain_error(error):
    with pytest.raises(DomainError, match=REJECTED):
        _raising(error)(3, r=5)


def test_other_errors_pass_through():
    error = DomainError("level r must be an odd integer >= 3, got 4")
    with pytest.raises(DomainError) as caught:
        _raising(error)(4)
    assert caught.value is error


@pytest.mark.parametrize(
    "result",
    [
        InvariantValue(1.5 - 2j, 5, "direct", 4, 3.0),
        InvariantValue(0.0, 5, "tv-bounded", 4, 0.0, ("a warning",)),
        # only float and complex fields are tested: an int past the float range is a finite value
        InvariantValue(1.0, 5, "direct", 10**400, 1.0),
        LowerBound(2.5, 15, 15, 1, 2),
        1e308,
        -0.0,
        complex(1e308, -1e308),
        10**400,
    ],
)
def test_a_finite_result_comes_back_as_the_same_object(result):
    assert _returning(result)(3, r=5) is result
