"""The verification routes: the depth-first Leibnizian and nested-sum walks
(entry reads, float summation order, enumeration guard) and the Casoratian
by Abel's formula against the permutation oracle."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from vclde import (
    CoefficientModel,
    EnumLimitError,
    casorati,
    evaluate_green,
    evaluate_solution,
)
from vclde.coefficients import build_phi_matrix
from vclde.hessenberg import (
    BandedHessenbergMatrix,
    HessenbergMatrix,
    det_leibniz_oracle,
    det_recurrence,
)
from vclde.leibnizian import det_leibnizian
from vclde.nested_sum import det_nested_sum
from testutil import det_leibnizian_per_mask, random_problem, random_model


class CountingMatrix:
    """Read-only view of a Hessenberg matrix that counts h and c reads."""

    def __init__(self, inner):
        self.inner = inner
        self.k = inner.k
        self.one = inner.one
        self.zero = inner.zero
        self.reads = 0

    def h(self, i, j):
        self.reads += 1
        return self.inner.h(i, j)

    def c(self, i, j):
        self.reads += 1
        return self.inner.c(i, j)

    def row_start(self, i):
        return self.inner.row_start(i)


def principal_matrix(model, t, s):
    return build_phi_matrix(model, 1, t, s)


def test_expansions_visit_only_nonzero_prefixes():
    # Order 20, p = 2: a term-by-term sum reads about 4.1M (Leibnizian) and
    # 2.07M (nested) entries; the walks share prefixes and stop at zeros.
    model = CoefficientModel.constant((Fraction(1, 2), Fraction(-1, 3)))
    matrix = principal_matrix(model, 20, 0)
    expected = det_recurrence(matrix)
    for expand in (det_leibnizian, det_nested_sum):
        counted = CountingMatrix(matrix)
        assert expand(counted) == expected
        assert counted.reads <= 200_000, (expand.__name__, counted.reads)


def random_float_matrix(rng, k, p=None):
    """Float Hessenberg matrix (banded with band p when given) in which
    about a quarter of the entries are exact zeros."""

    def entry(i, j):
        if rng.random() < 0.25:
            return 0.0
        return rng.uniform(-2.0, 2.0)

    if p is None:
        return HessenbergMatrix.from_function(k, entry, "float64")
    return BandedHessenbergMatrix.from_function(k, p, entry, "float64")


def test_float_leibnizian_bit_identical_to_per_mask_sum():
    rng = Random(20261018)
    for k in range(1, 11):
        for p in (None, 1, 2, 3):
            for _ in range(4):
                matrix = random_float_matrix(rng, k, p)
                walked = det_leibnizian(matrix)
                reference = det_leibnizian_per_mask(matrix)
                assert walked.hex() == reference.hex(), (k, p)


def test_nested_route_enum_limit():
    model = CoefficientModel.constant((Fraction(1), Fraction(1)))
    with pytest.raises(EnumLimitError):
        det_nested_sum(principal_matrix(model, 5, 0), enum_limit=4)
    with pytest.raises(EnumLimitError):
        evaluate_green(model, 34, 0, "nested")
    assert evaluate_green(model, 5, 0, "nested", enum_limit=5) == 8
    problem = random_problem(Random(3), random_model(Random(3), 2, -1, 9), 0, 9)
    with pytest.raises(EnumLimitError):
        evaluate_solution(problem, 9, "nested", enum_limit=3)


values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def casorati_cases(draw):
    """Rational table of order p <= 6 with anchors s (possibly negative) and
    t >= s inside it; phi_p(u) = 0 is drawn often."""
    p = draw(st.integers(1, 6))
    t_min = draw(st.integers(-8, 2))
    t_max = t_min + draw(st.integers(0, 9))
    rows = {t: tuple(draw(values) for _ in range(p)) for t in range(t_min, t_max + 1)}
    s = draw(st.integers(t_min - 1, t_max))
    t = draw(st.integers(s, t_max))
    return CoefficientModel.from_table(rows), t, s


@settings(max_examples=80, deadline=None)
@given(casorati_cases())
def test_abel_casoratian_equals_permutation_oracle(case):
    model, t, s = case
    matrix = casorati(model, t, s)
    assert matrix.casoratian() == det_leibniz_oracle(matrix.entries)
    zero_rows = [u for u in range(s + 1, t + 1) if model.phi(model.p, u) == 0]
    assert matrix.vanishing_row == (zero_rows[0] if zero_rows else None)
