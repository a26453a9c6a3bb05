"""Ring behaviour, canonical forms, and serialization of the three backends."""

from fractions import Fraction

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
from testutil import add, mul

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
    assert add(term, -term).is_zero()


def test_add_floats_exact():
    assert add(0.25, 0.5) == 0.75


def test_mul_rationals():
    assert mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)


def test_mul_sorts_factors_by_row():
    product = mul(h_sym(1, 2), h_sym(2, 1))
    reversed_product = mul(h_sym(2, 1), h_sym(1, 2))
    assert product == reversed_product
    ((factors, coeff),) = product.sorted_items()
    assert factors == (("h", 1, 2), ("h", 2, 1))
    assert coeff == 1


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


def test_scalars_close():
    assert scalars_close(1.0, 1.0 + 1e-12)
    assert not scalars_close(1.0, 1.0 + 1e-6)
    assert scalars_close(Fraction(1, 3), Fraction(1, 3))
    assert not scalars_close(Fraction(1, 3), Fraction(1, 4))
