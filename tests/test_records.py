"""The contract every result record and SeifertSymbol keeps: repr, immutability, equality, hash, pickling, defaults."""

from __future__ import annotations

import pickle

import pytest

from seifertq import (
    CongruenceCertificate,
    InvariantValue,
    LemmaCheck,
    LowerBound,
    LtvSample,
    SeifertSymbol,
    SystemClassification,
)

# a sample built from its required fields only, its repr, and its defaults
RECORDS = [
    pytest.param(
        lambda: SeifertSymbol("o", 1, ((3, 1),), True),
        "SeifertSymbol(epsilon='o', genus=1, fibers=((3, 1),), boundary=True)",
        {},
        id="SeifertSymbol",
    ),
    pytest.param(
        lambda: SeifertSymbol("n", 2),
        "SeifertSymbol(epsilon='n', genus=2, fibers=(), boundary=False)",
        {"fibers": (), "boundary": False},
        id="SeifertSymbol-defaults",
    ),
    pytest.param(
        lambda: InvariantValue(value=1 + 2j, r=5, method="rt", term_count=8, term_magnitude_sum=3.5),
        "InvariantValue(value=(1+2j), r=5, method='rt', term_count=8, term_magnitude_sum=3.5, warnings=())",
        {"warnings": ()},
        id="InvariantValue",
    ),
    pytest.param(
        lambda: CongruenceCertificate(gamma=2, mu=(1, -1), modulus=15, set_b=((2, (1, -1)),)),
        "CongruenceCertificate(gamma=2, mu=(1, -1), modulus=15, set_b=((2, (1, -1)),), degenerate=False)",
        {"degenerate": False},
        id="CongruenceCertificate",
    ),
    pytest.param(
        lambda: SystemClassification(case="no-solution", certificate=None),
        "SystemClassification(case='no-solution', certificate=None, warnings=())",
        {"warnings": ()},
        id="SystemClassification",
    ),
    pytest.param(
        lambda: LowerBound(value=4.5, r=3, modulus=3, multiplier=1, cardinality=2),
        "LowerBound(value=4.5, r=3, modulus=3, multiplier=1, cardinality=2, warnings=())",
        {"warnings": ()},
        id="LowerBound",
    ),
    pytest.param(
        lambda: LemmaCheck(
            bound=LowerBound(value=4.5, r=3, modulus=3, multiplier=1, cardinality=2),
            tv_bounded_value=4.0,
            tv_closed_double_value=16.0,
        ),
        "LemmaCheck(bound=LowerBound(value=4.5, r=3, modulus=3, multiplier=1, cardinality=2, warnings=()), "
        "tv_bounded_value=4.0, tv_closed_double_value=16.0)",
        {},
        id="LemmaCheck",
    ),
    pytest.param(
        lambda: LtvSample(r=15, tv_value=2.5, ltv=0.25),
        "LtvSample(r=15, tv_value=2.5, ltv=0.25)",
        {},
        id="LtvSample",
    ),
]


@pytest.mark.parametrize(("make", "text", "defaults"), RECORDS)
def test_record_contract(make, text, defaults):
    record = make()
    assert repr(record) == text
    for name in type(record)._fields:  # its own fields, not those of a record nested in it
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = make()
    assert twin == record and hash(twin) == hash(record)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and restored == record
    assert {name: getattr(record, name) for name in defaults} == defaults
