"""Symbol validation, moves, derived quantities, and serialization."""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import seifertq
import seifertq.congruence
import seifertq.symbols
from seifertq import (
    DomainError,
    MalformedInputError,
    SeifertSymbol,
    double,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
    reverse_orientation,
    symbol_from_dict,
    symbol_from_json,
    symbol_to_dict,
    symbol_to_json,
)


def test_basic_construction():
    s = SeifertSymbol("o", 2, ((3, 1), (5, -2)), boundary=True)
    assert len(s.fibers) == 2
    assert s.boundary
    assert not hasattr(s, "fiber_count") and not hasattr(s, "has_boundary")  # one name per field
    assert str(s) == "(o, 2; [(3,1), (5,-2)]; boundary)"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon="x", genus=1),
        dict(epsilon="o", genus=0),
        dict(epsilon="o", genus=-2),
        dict(epsilon="n", genus=1, fibers=((4, 2),)),  # not coprime
        dict(epsilon="o", genus=1, fibers=((-3, 1),)),  # negative multiplicity
        dict(epsilon="o", genus=1, fibers=((0, 2),)),  # (0, b) needs b = +-1
        dict(epsilon="o", genus=1, fibers=((3.9, 1),)),  # not truncated to (3, 1)
        dict(epsilon="o", genus=1, fibers=(("5", 2),)),  # not parsed to (5, 2)
        dict(epsilon="o", genus=1, fibers=((3, True),)),  # a bool is not an integer here
        dict(epsilon="o", genus=True),
        dict(epsilon="o", genus=1, fibers=((3,),)),  # an entry that is not a pair
        dict(epsilon="o", genus=1, fibers=((3, 1, 2),)),
        dict(epsilon="o", genus=1, fibers=3),  # not iterable
        dict(epsilon="o", genus=1, boundary="yes"),  # boundary must be a bool
    ],
)
def test_invalid_symbols_rejected(kwargs):
    with pytest.raises(DomainError):
        SeifertSymbol(**kwargs)


@pytest.mark.parametrize(
    "change",
    [dict(genus=0), dict(epsilon="x"), dict(boundary="yes"), dict(fibers=((0, 1),))],
    ids=["genus-0", "epsilon-x", "boundary-yes", "fiber-0-1"],
)
def test_replace_checks_the_new_symbol(change):
    with pytest.raises(DomainError):
        SeifertSymbol("o", 1, ((3, 1),))._replace(**change)


def test_replace_and_make_store_checked_fibers():
    symbol = SeifertSymbol("o", 1, ((5, 2),))._replace(fibers=[[3, 1]])
    assert symbol == SeifertSymbol("o", 1, ((3, 1),))
    assert symbol.fibers == ((3, 1),)
    assert SeifertSymbol._make(["n", 2, [[3, 1]], True]).fibers == ((3, 1),)
    with pytest.raises(DomainError):
        SeifertSymbol._make(["o", 1, ((4, 2),), False])


def test_euler_number_exact():
    s = SeifertSymbol("o", 1, ((3, 1), (5, -2), (7, 3)))
    assert euler_number(s) == Fraction(-1, 3) + Fraction(2, 5) - Fraction(3, 7)
    assert euler_number(SeifertSymbol("o", 1)) == 0


@given(
    fibers=st.lists(
        st.tuples(st.integers(1, 60), st.integers(-200, 200)).filter(lambda f: math.gcd(*f) == 1),
        max_size=6,
    )
)
def test_euler_number_equals_termwise_sum(fibers):
    expected = -sum((Fraction(b, a) for a, b in fibers), Fraction(0))
    assert euler_number(SeifertSymbol("o", 1, tuple(fibers))) == expected


def test_euler_number_rejects_zero_multiplicity():
    # a fiber of multiplicity 0 never reaches euler_number: the symbol cannot be built
    with pytest.raises(DomainError):
        euler_number(SeifertSymbol("o", 1, ((0, 1),)))


def test_orbifold_euler_characteristic():
    s = SeifertSymbol("o", 1, ((2, 1), (3, 1)))
    assert orbifold_euler_characteristic(s) == Fraction(2 - 2) - Fraction(1, 2) - Fraction(2, 3)
    # chi(base) = 2 - a_eps g - (1 if bounded): 2 - g for g cross-caps
    n = SeifertSymbol("n", 2, ((2, 1),))
    assert orbifold_euler_characteristic(n) == 2 - 2 - Fraction(1, 2)
    assert orbifold_euler_characteristic(SeifertSymbol("o", 1, boundary=True)) == -1  # punctured torus
    assert orbifold_euler_characteristic(SeifertSymbol("n", 1, boundary=True)) == 0  # Moebius band
    assert orbifold_euler_characteristic(double(SeifertSymbol("n", 1, boundary=True))) == 0  # Klein bottle


def test_double_mirrors_fibers_and_closes():
    s = SeifertSymbol("o", 1, ((3, 1), (5, 2)), boundary=True)
    d = double(s)
    assert d.genus == 2
    assert d.fibers == ((3, 1), (5, 2), (3, -1), (5, -2))
    assert not d.boundary
    assert euler_number(d) == 0


def test_double_requires_boundary():
    with pytest.raises(DomainError):
        double(SeifertSymbol("o", 1, ((3, 1),)))


def test_reverse_orientation_negates_euler_number():
    s = SeifertSymbol("o", 1, ((3, 1), (5, 2)))
    assert euler_number(reverse_orientation(s)) == -euler_number(s)
    assert reverse_orientation(reverse_orientation(s)) == s


# -- normalization -------------------------------------------------------------


def test_normalize_drops_trivial_fibers():
    s = SeifertSymbol("o", 1, ((1, 0), (3, 1), (1, 0)))
    assert normalize(s).fibers == ((3, 1),)


@pytest.mark.parametrize("b", [1, -1])
def test_transient_pairs_rejected(b):
    with pytest.raises(DomainError):
        SeifertSymbol("o", 1, ((0, b),))
    with pytest.raises(DomainError):
        symbol_from_json(f'{{"epsilon": "o", "genus": 1, "fibers": [[0, {b}], [3, 1]], "boundary": false}}')


def test_normalize_bounded_reduces_each_fiber():
    s = SeifertSymbol("o", 1, ((3, 7), (5, -4)), boundary=True)
    assert normalize(s).fibers == ((3, 1), (5, 1))


def test_normalize_closed_carries_residual_shift():
    s = SeifertSymbol("o", 1, ((3, 7), (5, -4), (1, -3)))
    n = normalize(s)
    assert n.fibers == ((3, 1), (5, -9))
    assert euler_number(n) == euler_number(s)


@pytest.mark.parametrize(
    "fibers",
    [((1, 5), (3, 1)), ((3, 1), (1, 5))],
)
def test_normalize_closed_unit_fiber_absorbed(fibers):
    s = SeifertSymbol("o", 1, fibers)
    n = normalize(s)
    assert n.fibers == ((3, 16),)
    assert euler_number(n) == euler_number(s)


def test_normalize_residual_on_last_unit_fiber_when_no_multiple_fiber():
    s = SeifertSymbol("o", 1, ((1, 2), (1, -5)))
    n = normalize(s)
    assert n.fibers == ((1, -3),)
    assert euler_number(n) == euler_number(s)


def test_normalize_single_closed_fiber_cannot_shift():
    # with one fiber the closed shift constraint forces k = 0
    s = SeifertSymbol("o", 1, ((3, 5),))
    assert normalize(s).fibers == ((3, 5),)


@pytest.mark.parametrize(
    "fibers",
    [
        (),
        ((3, 1),),
        ((3, 7), (5, -4)),
        ((2, 1), (3, 2), (5, 4)),
        ((1, 3), (4, -7), (1, 0)),
    ],
)
def test_normalize_idempotent_and_euler_preserving(fibers):
    s = SeifertSymbol("o", 1, fibers)
    n = normalize(s)
    assert normalize(n) == n
    assert euler_number(n) == euler_number(s)


@st.composite
def symbols(draw):
    """Closed or bounded symbols with up to 4 fibers, unit fibers included."""
    fibers = [
        (a, draw(st.sampled_from([b for b in range(-2 * a - 1, 2 * a + 2) if math.gcd(a, b) == 1])))
        for a in draw(st.lists(st.integers(1, 12), max_size=4))
    ]
    return SeifertSymbol(draw(st.sampled_from("on")), draw(st.integers(1, 3)), tuple(fibers), draw(st.booleans()))


@given(symbol=symbols())
def test_normalize_idempotent_property(symbol):
    canonical = normalize(symbol)
    assert normalize(canonical) == canonical


@given(symbol=symbols())
def test_derived_symbols_pass_the_constructor_property(symbol):
    # double, normalize and reverse_orientation build their results unchecked; the constructor must agree
    derived = [normalize(symbol), reverse_orientation(symbol)] + ([double(symbol)] if symbol.boundary else [])
    for result in derived:
        assert type(result) is SeifertSymbol
        rebuilt = SeifertSymbol(*result)
        assert result == rebuilt
        assert result.fibers == rebuilt.fibers and all(type(f) is tuple for f in result.fibers)


def test_normalize_bounded_shifts_are_unconstrained():
    s = SeifertSymbol("n", 2, ((3, 7), (5, -4), (1, 2)), boundary=True)
    n = normalize(s)
    assert n.fibers == ((3, 1), (5, 1))
    assert n.boundary


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    s = SeifertSymbol("n", 2, ((3, 1), (5, -2)), boundary=True)
    assert symbol_from_json(symbol_to_json(s)) == s
    assert symbol_from_dict(symbol_to_dict(s)) == s


@pytest.mark.parametrize(
    "data",
    [
        "[]",
        '{"epsilon": "o"}',
        '{"epsilon": "o", "genus": 1, "fibers": 3, "boundary": false}',
        '{"epsilon": "o", "genus": 1, "fibers": [[3]], "boundary": false}',
        '{"epsilon": "o", "genus": 1, "fibers": [[3, "x"]], "boundary": false}',
        '{"epsilon": "o", "genus": 1, "fibers": [3], "boundary": true}',
        '{"epsilon": "o", "genus": 1, "fibers": [null], "boundary": true}',
        '{"epsilon": "o", "genus": 1, "fibers": [[3, true]], "boundary": false}',
        '{"epsilon": "o", "genus": 1, "fibers": [[true, 0]], "boundary": false}',
        # a non-integer entry is malformed (exit 3) even where another field is invalid (exit 4)
        '{"epsilon": "q", "genus": 1, "fibers": [[3, 1], [5, 2.0]], "boundary": false}',
        '{"epsilon": "o", "genus": 0, "fibers": [[4, 2], ["3", 1]], "boundary": false}',
        '{"epsilon": "o", "genus": 1.5, "fibers": [], "boundary": false}',
        '{"epsilon": "o", "genus": true, "fibers": [], "boundary": false}',
        '{"epsilon": "o", "genus": "2", "fibers": [[3, 1]], "boundary": true}',
        '{"epsilon": "q", "genus": 1.5, "fibers": [], "boundary": false}',
        '{"epsilon": "o", "genus": null, "fibers": [[4, 2]], "boundary": false}',
        '{"epsilon": "o", "genus": 1, "fibers": [], "boundary": "yes"}',
        '{"epsilon": 1, "genus": 1, "fibers": [], "boundary": false}',
        '{"epsilon": ["o"], "genus": 1, "fibers": [], "boundary": false}',
        '{"epsilon": null, "genus": 1, "fibers": [], "boundary": true}',
        "not json at all",
    ],
)
def test_malformed_symbol_json_rejected(data):
    with pytest.raises(MalformedInputError):
        symbol_from_json(data)


def test_semantically_bad_symbol_is_domain_error():
    with pytest.raises(DomainError):
        symbol_from_json('{"epsilon": "q", "genus": 1, "fibers": [], "boundary": false}')
    # entries of two integers that break the fiber rule are invalid fibers (exit 4), not malformed input
    for fibers in ("[[4, 2]]", "[[0, 1]]"):
        with pytest.raises(DomainError):
            symbol_from_json(f'{{"epsilon": "o", "genus": 1, "fibers": {fibers}, "boundary": false}}')
    # an integer genus <= 0 is an invalid genus (exit 4)
    for genus in (0, -1):
        with pytest.raises(DomainError, match="genus"):
            symbol_from_json(f'{{"epsilon": "o", "genus": {genus}, "fibers": [[3, 1]], "boundary": false}}')


def test_symbol_from_json_checks_each_fiber_once(monkeypatch):
    fiber, checked = seifertq.congruence._fiber, []
    monkeypatch.setattr(seifertq.congruence, "_fiber", lambda a, b: checked.append((a, b)) or fiber(a, b))
    symbol = symbol_from_json('{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, -2]], "boundary": true}')
    assert checked == [(3, 1), (5, -2)]
    checked.clear()
    for derive in (double, normalize, reverse_orientation):
        derive(symbol)
    assert checked == []


def test_symbol_from_json_tests_each_fiber_entry_once(monkeypatch):
    # the JSON loop checks each entry's shape, the fiber rule is the one test of its integers, and the
    # constructor the one test of the genus
    fiber, is_int, checked, tested = seifertq.congruence._fiber, seifertq.symbols._is_int, [], []
    monkeypatch.setattr(seifertq.congruence, "_fiber", lambda a, b: checked.append((a, b)) or fiber(a, b))
    monkeypatch.setattr(seifertq.symbols, "_is_int", lambda x: tested.append(x) or is_int(x))
    symbol_from_json('{"epsilon": "o", "genus": 2, "fibers": [[7, 3], [11, -4], [7, 3]], "boundary": true}')
    assert checked == [(7, 3), (11, -4), (7, 3)]
    assert tested == [2]  # the genus, once, and no fiber entry


# -- the symbol guard -------------------------------------------------------------


def _symbol_functions():
    """Every public function of the package whose first parameter is a symbol."""
    return sorted(
        name
        for name in seifertq.__all__
        if inspect.isfunction(getattr(seifertq, name))
        and next(iter(inspect.signature(getattr(seifertq, name)).parameters), None) == "symbol"
    )


def test_symbol_functions_are_the_documented_ones():
    assert _symbol_functions() == sorted([
        "double", "euler_number", "lower_bound", "ltv_scan", "normalize", "orbifold_euler_characteristic",
        "reverse_orientation", "rt_closed", "symbol_to_dict", "symbol_to_json", "tv_bounded", "tv_closed",
        "verify_lemma", "z_direct", "z_double_simplified",
    ])


@pytest.mark.parametrize("name", _symbol_functions())
@pytest.mark.parametrize(
    "not_a_symbol",
    [("o", 1, ((3, 1),), True), "(o, 1; [(3,1)]; boundary)", None, {"epsilon": "o", "genus": 1}],
    ids=["tuple", "str", "none", "dict"],
)
def test_non_symbols_are_domain_errors(name, not_a_symbol):
    fn = getattr(seifertq, name)
    extra = {"r": 15, "levels": [15]}
    args = [extra[p] for p in list(inspect.signature(fn).parameters)[1:] if p in extra]
    with pytest.raises(DomainError, match="expected a SeifertSymbol") as raised:
        fn(not_a_symbol, *args)
    assert raised.value.exit_code == 4


BOUNDED_PATH = ["tv_bounded", "lower_bound", "verify_lemma", "z_double_simplified", "ltv_scan"]


@pytest.mark.parametrize("name", BOUNDED_PATH)
def test_a_warm_bounded_cache_still_rejects_an_equal_plain_tuple(name, clear_rt_caches):
    # the plain tuple equals the symbol and hashes alike, so a cache read before the type check would accept it
    fn, symbol = getattr(seifertq, name), SeifertSymbol("o", 1, ((3, 1),), boundary=True)
    plain, level = ("o", 1, ((3, 1),), True), [3] if name == "ltv_scan" else 3
    assert (plain, hash(plain)) == (symbol, hash(symbol))
    clear_rt_caches()
    fn(symbol, level)
    with pytest.raises(DomainError, match="^expected a SeifertSymbol, got tuple$") as raised:
        fn(plain, level)
    assert raised.value.exit_code == 4


@pytest.mark.parametrize(
    "symbol, names",
    [
        (SeifertSymbol("o", 1, ((3, 1),)), BOUNDED_PATH[:4]),  # closed: ltv_scan takes tv_closed
        (SeifertSymbol("o", 1, ((3, 1), (1, 2)), boundary=True), BOUNDED_PATH[1:4]),  # tv_bounded takes unit fibers
    ],
    ids=["closed", "unit-fiber"],
)
def test_bounded_path_errors_are_the_same_cold_and_warm(symbol, names, clear_rt_caches):
    for name in names:
        clear_rt_caches()
        messages = []
        for _ in range(2):  # from cold, then with whatever the first call left in the caches
            with pytest.raises(DomainError) as raised:
                getattr(seifertq, name)(symbol, 3)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], name
