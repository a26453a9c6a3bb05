"""Ring behaviour, canonical forms, and serialization of the three backends."""

import functools
import json
import math
import operator
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from vclde import BackendMismatchError
from vclde.scalar import (
    TermSum,
    backend_of,
    format_rational,
    h_sym,
    one,
    parse_rational,
    phi_sym,
    rows_backend,
    scalar_from_json,
    scalar_to_json,
    sum_terms,
    term_sum_json_chunks,
    term_sum_to_json,
    v_sym,
    y_sym,
    zero,
)
from vclde.verification import scalars_close
from testutil import (
    add,
    backend_of_by_isinstance,
    canonical_factor_key,
    factor_from_text,
    mul,
    reference_json_text,
    term_sum_dicts,
    term_sum_from_json,
    term_sum_product,
    uniform_backend_by_loop,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)

_ATOM_POOL = [
    h_sym(1, 1), h_sym(1, 2), h_sym(2, 1), h_sym(2, 2), h_sym(2, 3),
    phi_sym(1, 3), phi_sym(2, 4), y_sym(1), v_sym(3),
]


@st.composite
def term_sums(draw):
    total = TermSum()
    for _ in range(draw(st.integers(0, 3))):
        sign = draw(st.sampled_from((1, -1)))
        term = TermSum.constant(sign)
        for _ in range(draw(st.integers(0, 3))):
            term = term * draw(st.sampled_from(_ATOM_POOL))
        total = total + term
    return total


def test_add_rationals():
    assert add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_add_cancellation():
    term = h_sym(1, 1) * h_sym(2, 2)
    assert not add(term, -term)


def test_add_floats_exact():
    assert add(0.25, 0.5) == 0.75


def test_mul_rationals():
    assert mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)


def test_mul_sorts_factors_by_row():
    product = mul(h_sym(1, 2), h_sym(2, 1))
    reversed_product = mul(h_sym(2, 1), h_sym(1, 2))
    assert product == reversed_product
    assert str(product) == "h[1,2] h[2,1]"


def test_mul_distributes():
    left = h_sym(1, 1) + h_sym(1, 2)
    expanded = mul(left, h_sym(2, 1))
    assert expanded == h_sym(1, 1) * h_sym(2, 1) + h_sym(1, 2) * h_sym(2, 1)


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        add(Fraction(1), 1.0)
    with pytest.raises(BackendMismatchError):
        mul(h_sym(1, 1), 2.0)
    with pytest.raises(BackendMismatchError):
        backend_of("nope")


def test_backends_of_values():
    assert backend_of(Fraction(1, 2)) == "rational"
    assert backend_of(3) == "rational"
    assert backend_of(0.5) == "float64"
    assert backend_of(TermSum()) == "symbolic"


def test_zero_one_constants():
    for b in ("rational", "float64", "symbolic"):
        assert not zero(b)
        assert one(b)
        assert backend_of(zero(b)) == backend_of(one(b)) == b


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(term_sums(), term_sums(), term_sums())
def test_term_sum_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.permutations([h_sym(3, 2), h_sym(1, 1), h_sym(2, 3), phi_sym(1, 5)]))
def test_term_sum_factor_order_invariance(factors):
    product = TermSum.constant(1)
    for f in factors:
        product = product * f
    expected = h_sym(1, 1) * h_sym(2, 3) * h_sym(3, 2) * phi_sym(1, 5)
    assert product == expected


def test_term_sum_multiplicity_and_str():
    doubled = h_sym(1, 1) + h_sym(1, 1)
    assert doubled.term_count == 2
    assert str(doubled) == "2 h[1,1]"
    assert str(TermSum()) == "0"
    assert str(TermSum.constant(-1)) == "-1"
    assert str(h_sym(1, 2) * -h_sym(2, 1)) == "-h[1,2] h[2,1]"


def test_rational_formatting_round_trip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-32)) == "-32"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")
    with pytest.raises(ValueError, match="bool is not a rational"):
        parse_rational(True)
    with pytest.raises(ValueError, match="rational values must be strings or integers, got 1.5"):
        parse_rational(1.5)


def test_scalar_json_modes():
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(Fraction(4, 2)) == "2"
    assert scalar_to_json(0.5) == 0.5
    assert scalar_from_json("1/3", "rational") == Fraction(1, 3)
    assert scalar_from_json(7, "rational") == Fraction(7)
    assert scalar_from_json(2, "float64") == 2.0
    with pytest.raises(ValueError):
        scalar_from_json(0.5, "rational")
    with pytest.raises(ValueError):
        scalar_from_json("1/3", "float64")
    ts = h_sym(1, 1) * h_sym(2, 2) - h_sym(1, 2) * h_sym(2, 1)
    assert scalar_to_json(ts) == term_sum_to_json(ts)


@given(term_sums())
def test_term_sum_json_round_trip(ts):
    assert term_sum_from_json(term_sum_to_json(ts)) == ts


def test_term_sum_json_shape():
    payload = term_sum_to_json(h_sym(1, 1) * h_sym(2, 2) - phi_sym(1, 3) * y_sym(0))
    assert {"sign": 1, "factors": [{"kind": "h", "i": 1, "j": 1}, {"kind": "h", "i": 2, "j": 2}]} in payload
    assert {"sign": -1, "factors": [{"kind": "phi", "m": 1, "t": 3}, {"kind": "y", "t": 0}]} in payload


def _random_term_sum(rng: Random) -> TermSum:
    """Signed products over all four symbol kinds, with multi-digit and
    negative arguments and repeated terms, multiplied and summed in random
    order."""
    makers = (
        lambda: h_sym(rng.randint(1, 12), rng.randint(1, 12)),
        lambda: phi_sym(rng.randint(1, 3), rng.randint(-12, 12)),
        lambda: y_sym(rng.randint(-12, 12)),
        lambda: v_sym(rng.randint(-12, 12)),
    )
    terms = []
    for _ in range(rng.randint(1, 12)):
        factors = [rng.choice(makers)() for _ in range(rng.randint(0, 4))]
        terms.append((rng.choice((1, -1)), factors))
    terms += rng.sample(terms, len(terms) // 3)
    rng.shuffle(terms)
    total = TermSum()
    for sign, factors in terms:
        rng.shuffle(factors)
        term = TermSum.constant(sign)
        for factor in factors:
            term = term * factor
        total = total + term
    return total


def _printed_term_keys(text: str) -> list[tuple]:
    """Reference keys of the terms of a printed sum, in printed order."""
    if text == "0":
        return []
    keys = []
    for term in re.split(r" [+-] ", text.removeprefix("-")):
        tokens = term.split(" ")
        if tokens[0].isdigit():
            tokens = tokens[1:]
        keys.append(tuple(canonical_factor_key(factor_from_text(t)) for t in tokens))
    return keys


@pytest.mark.parametrize("seed", range(40))
def test_output_lists_terms_in_canonical_order(seed):
    value = _random_term_sum(Random(seed))
    payload = term_sum_to_json(value)
    keys = [tuple(map(canonical_factor_key, entry["factors"])) for entry in payload]
    assert all(list(key) == sorted(key) for key in keys)
    assert keys == sorted(keys)
    assert _printed_term_keys(str(value)) == sorted(set(keys))
    one_by_one = [
        entry
        for factors, coeff in value.sorted_items()
        for entry in term_sum_to_json(TermSum({factors: coeff}))
    ]
    assert one_by_one == payload


def test_canonical_order_examples():
    assert str(phi_sym(1, 4) + phi_sym(2, 3)) == "phi2(3) + phi1(4)"
    assert str(v_sym(0) + y_sym(0)) == "y(0) + v(0)"
    assert str(v_sym(-5) + y_sym(5)) == "y(5) + v(-5)"
    assert str(y_sym(10) + y_sym(-3) + y_sym(2)) == "y(-3) + y(2) + y(10)"
    assert (str(h_sym(10, 1) + h_sym(9, 12) + h_sym(1, 10) + h_sym(1, 9))
            == "h[1,9] + h[1,10] + h[9,12] + h[10,1]")
    assert (str(v_sym(-7) + y_sym(0) + phi_sym(3, -1) + h_sym(2, 2))
            == "h[2,2] + phi3(-1) + y(0) + v(-7)")
    assert (str(v_sym(1) * phi_sym(2, 3) * y_sym(-1) * h_sym(3, 1))
            == "h[3,1] phi2(3) y(-1) v(1)")
    h11 = h_sym(1, 1)
    assert str(h11 * h_sym(2, 2) - h11 + TermSum.constant(2)) == "2 - h[1,1] + h[1,1] h[2,2]"
    assert term_sum_to_json(h11 * h_sym(2, 2) + h11 + h11) == [
        {"sign": 1, "factors": [{"kind": "h", "i": 1, "j": 1}]},
        {"sign": 1, "factors": [{"kind": "h", "i": 1, "j": 1}]},
        {"sign": 1, "factors": [{"kind": "h", "i": 1, "j": 1}, {"kind": "h", "i": 2, "j": 2}]},
    ]


def test_scalars_close():
    assert scalars_close(1.0, 1.0 + 1e-12)
    assert not scalars_close(1.0, 1.0 + 1e-6)
    assert scalars_close(Fraction(1, 3), Fraction(1, 3))
    assert not scalars_close(Fraction(1, 3), Fraction(1, 4))


# symbols of all four kinds, with multi-digit and negative arguments
symbols = st.one_of(
    st.builds(h_sym, st.integers(1, 120), st.integers(1, 120)),
    st.builds(phi_sym, st.integers(1, 12), st.integers(-150, 150)),
    st.builds(y_sym, st.integers(-150, 150)),
    st.builds(v_sym, st.integers(-150, 150)),
)
coefficients = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def products(draw, factors=symbols):
    """One product of ``factors`` times a coefficient of +-1 to +-3 (the
    constant term when it has no factor)."""
    term = TermSum.constant(draw(coefficients))
    for factor in draw(st.lists(factors, max_size=4)):
        term = term * factor
    return term


@st.composite
def wide_term_sums(draw):
    """Sums of up to eight products; the empty sum included."""
    total = TermSum()
    for term in draw(st.lists(products(), max_size=8)):
        total = total + term
    return total


@given(wide_term_sums())
def test_term_sum_json_text_equals_reference(value):
    chunks = list(term_sum_json_chunks(value))
    assert "".join(chunks) == reference_json_text(value)
    assert term_sum_to_json(value) == term_sum_dicts(value)
    # one entry per piece, after its separator; "]" closes a non-empty array
    *entries, last = chunks
    assert last == ("]" if entries else "[]")
    assert all(c[0] == ("," if i else "[") for i, c in enumerate(entries))
    assert all(isinstance(json.loads(c[1:]), dict) for c in entries)


def test_term_sum_json_text_edge_cases():
    def text(value):
        return "".join(term_sum_json_chunks(value))

    assert text(TermSum()) == "[]"
    assert text(TermSum.constant(1)) == '[{"factors":[],"sign":1}]'
    assert text(TermSum.constant(-2)) == (
        '[{"factors":[],"sign":-1},{"factors":[],"sign":-1}]')
    value = phi_sym(2, -13) * v_sym(-7) * h_sym(10, 11) - y_sym(100)
    assert text(value) == (
        '[{"factors":[{"i":10,"j":11,"kind":"h"},{"kind":"phi","m":2,"t":-13},'
        '{"kind":"v","t":-7}],"sign":1},{"factors":[{"kind":"y","t":100}],"sign":-1}]')


class Tally(int):
    """An int subclass: a rational scalar found by isinstance, not by type."""


_MIXED_VALUES = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    rationals,
    st.floats(allow_nan=False),
    st.sampled_from(_ATOM_POOL),
    st.text(max_size=2),
    st.builds(Tally, st.integers(-5, 5)),
)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except BackendMismatchError as exc:
        return ("error", str(exc))


@given(st.lists(_MIXED_VALUES, max_size=6), st.sampled_from((None, "float64")))
def test_backend_checks_equal_the_isinstance_loop(values, default):
    for value in values:
        assert _outcome(backend_of, value) == _outcome(backend_of_by_isinstance, value)
    expected = _outcome(uniform_backend_by_loop, values, default)
    assert _outcome(rows_backend, (values,), default) == expected
    half = len(values) // 2
    assert _outcome(rows_backend, [values[:half], values[half:]], default) == expected


def test_float_scalars_pass_through_and_non_finite_are_refused():
    assert scalar_from_json(0.1, "float64") == 0.1
    assert math.copysign(1, scalar_from_json(-0.0, "float64")) == -1
    for bad in (math.inf, -math.inf, math.nan, True, "1", None, 10**400):
        with pytest.raises(ValueError):
            scalar_from_json(bad, "float64")


# one product over a pool of nine atoms repeats atoms often
_pool_products = products(st.sampled_from(_ATOM_POOL))


@given(st.one_of(products(), _pool_products, term_sums()),
       st.one_of(products(), _pool_products, term_sums(), wide_term_sums()))
def test_product_equals_reference(a, b):
    """A one-term product times a sum on either side (the chain's and the
    walks' path, which merges nothing), and a sum times a sum, with repeated
    atoms and negative coefficients."""
    assert a * b == term_sum_product(a, b)
    assert b * a == term_sum_product(a, b)


@given(st.lists(term_sums(), max_size=6), st.data())
def test_n_ary_sum_equals_fold(values, data):
    if values:
        values += [-v for v in data.draw(st.lists(st.sampled_from(values), max_size=3))]
    values = data.draw(st.permutations(values))
    total = TermSum.sum(values)
    assert total == functools.reduce(operator.add, values, TermSum())
    assert all(coeff for _, coeff in total.sorted_items())
    assert sum_terms(iter(values)) == (total if values else None)


def test_n_ary_sum_drops_cancelled_terms():
    term = h_sym(1, 2) * phi_sym(1, 3)
    assert TermSum.sum([]) == TermSum()
    assert not TermSum.sum([term, h_sym(1, 1), -term, -h_sym(1, 1)])
    assert TermSum.sum([term, -term, term]).sorted_items() == term.sorted_items()


def test_sum_terms_adds_left_to_right():
    assert sum_terms([]) is None
    assert sum_terms([1e16, 1.0, 1.0, -1e16]) == 0.0
    assert math.copysign(1, sum_terms([-0.0])) == -1
    assert sum_terms(iter([3, Fraction(1, 2)])) == Fraction(7, 2)
