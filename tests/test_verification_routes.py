"""The verification routes: the depth-first Leibnizian and nested-sum walks
(entry reads, float summation order, enumeration guard) and the Casoratian
by Abel's formula against the permutation oracle."""

from collections import Counter
from fractions import Fraction
from functools import partial
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
from vclde.scalar import h_sym
from testutil import (
    det_leibnizian_per_mask,
    det_nested_per_chain,
    random_model,
    random_problem,
)


class CountedFloat(float):
    """A float that counts the products it takes part in."""

    muls = 0

    def __mul__(self, other):
        CountedFloat.muls += 1
        return CountedFloat(float.__mul__(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return CountedFloat(float.__neg__(self))


class CountingRow:
    """Read-only view of row i of a float matrix that counts the reads of
    each entry in ``reads`` and hands the entries out as
    :class:`CountedFloat`."""

    def __init__(self, row, i, reads):
        self.row, self.i, self.reads = row, i, reads

    def __len__(self):
        return len(self.row)

    def __getitem__(self, j):
        self.reads[self.i, j] += 1
        return CountedFloat(self.row[j])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.row)))


def principal_matrix(model, t, s):
    return build_phi_matrix(model, 1, t, s)


def test_expansions_visit_only_nonzero_prefixes():
    # Order 20, p = 2: a term-by-term sum takes about 3.1M (Leibnizian) and
    # 1.2M (nested) products; the walks share prefixes and stop at zeros
    # (about 57k and 29k), and read each entry once, into row lists.  The
    # entries are dyadic, so every float sum is exact.
    matrix = principal_matrix(CoefficientModel.constant((0.5, -0.25)), 20, 0)
    expected = det_recurrence(matrix)
    for expand in (det_leibnizian, det_nested_sum):
        reads = Counter()
        counted = [CountingRow(row, i, reads) for i, row in enumerate(matrix)]
        CountedFloat.muls = 0
        assert expand(counted) == expected
        assert CountedFloat.muls <= 200_000, (expand.__name__, CountedFloat.muls)
        assert max(reads.values()) == 1, expand.__name__
    exact = principal_matrix(
        CoefficientModel.constant((Fraction(1, 2), Fraction(-1, 3))), 20, 0)
    for expand in (det_leibnizian, det_nested_sum):
        assert expand(exact) == det_recurrence(exact)


def random_float_matrix(rng, k, p=None, superdiag=None):
    """Float Hessenberg matrix (banded with band p when given) in which
    about a quarter of the entries are exact zeros; ``superdiag`` forces
    every (i, i+1) entry to the given value."""

    def entry(i, j):
        if superdiag is not None and j == i + 1:
            return superdiag
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
                plain = det_leibnizian([list(row) for row in matrix])
                assert plain.hex() == walked.hex(), (k, p)


def test_float_nested_bit_identical_to_per_chain_sum():
    rng = Random(20261019)
    for k in range(1, 11):
        for p in (None, 1, 2, 3):
            for _ in range(4):
                matrix = random_float_matrix(rng, k, p, superdiag=-1.0)
                walked = det_nested_sum(matrix)
                reference = det_nested_per_chain(matrix)
                assert walked.hex() == reference.hex(), (k, p)
                plain = det_nested_sum([list(row) for row in matrix])
                assert plain.hex() == walked.hex(), (k, p)


@st.composite
def rational_hessenberg_pairs(draw):
    """A dense or banded rational Hessenberg matrix of order 0..12, and the
    same matrix with -1 on the superdiagonal.  Each row has its own
    denominators; some rows are all zero, some integer-valued (plain ints),
    and entries are negative or exactly zero often."""
    k = draw(st.integers(0, 12))
    band = draw(st.one_of(st.none(), st.integers(1, 5)))
    numerators = st.lists(st.integers(-9, 9), min_size=k, max_size=k)
    grid = []
    for _ in range(k):
        kind = draw(st.sampled_from(("zero", "integer", "fraction", "fraction")))
        if kind == "zero":
            grid.append([Fraction(0)] * k)
        elif kind == "integer":
            grid.append(draw(numerators))
        else:
            den = draw(st.integers(1, 30))
            grid.append([Fraction(n, den * draw(st.sampled_from((1, 1, 2, 7))))
                         for n in draw(numerators)])

    def build(superdiag=None):
        def entry(i, j):
            if superdiag is not None and j == i + 1:
                return superdiag
            return grid[i - 1][j - 1]

        if band is None:
            return HessenbergMatrix.from_function(k, entry, "rational")
        return BandedHessenbergMatrix.from_function(k, band, entry, "rational")

    return build(), build(Fraction(-1))


@settings(max_examples=80, deadline=None)
@given(rational_hessenberg_pairs())
def test_rational_expansions_equal_recurrence_exactly(pair):
    # The walks and the oracle run on integer rows over one denominator;
    # each returns the reduced Fraction that the recurrence gives, and the
    # same value when the matrix comes as plain lists of lists.
    matrix, monic = pair
    routes = [(det_leibnizian, matrix), (partial(det_leibniz_oracle, oracle_limit=12), matrix),
              (det_recurrence, matrix)]
    if matrix:
        routes.append((det_nested_sum, monic))
    for route, m in routes:
        value = route(m)
        assert type(value) is Fraction
        assert value == det_recurrence(m)
        assert route([list(row) for row in m]) == value


def test_nested_route_enum_limit(monkeypatch):
    model = CoefficientModel.constant((Fraction(1), Fraction(1)))
    with pytest.raises(EnumLimitError):
        evaluate_green(model, 34, 0, "nested")
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "4")
    with pytest.raises(EnumLimitError):
        det_nested_sum(principal_matrix(model, 5, 0))
    # the library routes read the limit themselves, as the CLI does
    with pytest.raises(EnumLimitError, match="order 5 exceeds the enumeration limit 4"):
        evaluate_green(model, 5, 0, "leibnizian")
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "5")
    assert evaluate_green(model, 5, 0, "nested") == 8
    problem = random_problem(Random(3), random_model(Random(3), 2, -1, 9), 0, 9)
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "3")
    with pytest.raises(EnumLimitError):
        evaluate_solution(problem, 9, "nested")


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


@pytest.mark.parametrize("k", range(1, 11))
def test_symbolic_walks_equal_recurrence(k):
    matrix = HessenbergMatrix.from_function(k, h_sym, "symbolic")
    expected = det_recurrence(matrix)
    assert expected.term_count == 1 << (k - 1)
    assert det_leibnizian(matrix) == expected
    assert det_leibniz_oracle(matrix, oracle_limit=10) == expected
