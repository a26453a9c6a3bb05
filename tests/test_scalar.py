"""Ring behaviour, canonical forms, and serialization of the three backends."""

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
    is_zero,
    one,
    parse_rational,
    phi_sym,
    scalar_from_json,
    scalar_to_json,
    scalars_close,
    term_sum_from_json,
    term_sum_to_json,
    v_sym,
    y_sym,
    zero,
)
from testutil import add, canonical_factor_key, factor_from_text, mul

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


def test_is_zero():
    assert is_zero(Fraction(0, 1))
    assert is_zero(TermSum())
    assert is_zero(1e-15)
    assert not is_zero(1e-9)
    assert not is_zero(Fraction(1, 10**9))


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
        assert is_zero(zero(b))
        assert not is_zero(one(b))


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
