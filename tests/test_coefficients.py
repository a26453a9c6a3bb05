"""Coefficient models, extension conventions, and the banded matrix builder."""

from collections import Counter
from fractions import Fraction

import pytest

from vclde import BackendMismatchError, CoefficientModel, DomainError, green
from vclde.coefficients import build_phi_matrix
from vclde.scalar import TermSum, phi_sym


def test_constant_model():
    model = CoefficientModel.constant((Fraction(1, 2), Fraction(3)))
    assert model.p == 2
    assert model.backend == "rational"
    assert model.phi(1, 100) == Fraction(1, 2)
    assert model.phi_row(-5) == (Fraction(1, 2), Fraction(3))


def test_table_model_domain():
    model = CoefficientModel.from_table({3: (Fraction(1),), 4: (Fraction(2),), 5: (Fraction(3),)})
    assert model.t_min == 3 and model.t_max == 5
    assert model.phi(1, 4) == 2
    with pytest.raises(DomainError):
        model.phi(1, 6)
    with pytest.raises(DomainError):
        model.phi_row(2)
    with pytest.raises(DomainError):
        model.phi(2, 4)
    # the stored row function, which the chains read, is the checked one: it
    # neither wraps below the table nor runs off its end
    for t in (2, 6):
        with pytest.raises(DomainError, match=r"outside the declared domain \[3, 5\]"):
            model._row_fn(t)
    twin = CoefficientModel.from_table({3: (Fraction(1),), 4: (Fraction(2),), 5: (Fraction(3),)})
    assert len({model, twin}) == 2  # each hashes, and they differ
    # the constructor checks the domain before it calls the row function
    reads = []
    bounded = CoefficientModel(1, lambda t: reads.append(t) or (Fraction(t),), "rational", 3, 5)
    with pytest.raises(DomainError, match=r"t=6 outside the declared domain \[3, 5\]"):
        green(bounded, 7, 2)
    assert reads == [3, 4, 5]


def test_table_model_rejects_gaps_and_ragged_rows():
    with pytest.raises(ValueError):
        CoefficientModel.from_table({1: (Fraction(1),), 3: (Fraction(2),)})
    with pytest.raises(ValueError):
        CoefficientModel.from_table({1: (Fraction(1),), 2: (Fraction(1), Fraction(2))})
    with pytest.raises(BackendMismatchError):
        CoefficientModel.from_table({1: (Fraction(1),), 2: (0.5,)})
    with pytest.raises(ValueError, match="coefficient table is empty"):
        CoefficientModel.from_table({})


@pytest.mark.parametrize(
    "backend, value",
    [("rational", 0.5), ("float64", Fraction(1, 2)), ("rational", phi_sym(1, 1))],
)
def test_from_function_rows_reject_other_backends(backend, value):
    model = CoefficientModel.from_function(2, lambda m, t: value, backend)
    with pytest.raises(BackendMismatchError):
        model.phi_row(3)
    with pytest.raises(BackendMismatchError):
        green(model, 5, 0)  # the chain reads the stored row function directly


@pytest.mark.parametrize(
    "backend, row",
    [("rational", (Fraction(1), 0.5)), ("float64", (0.5, Fraction(1, 2)))],
)
def test_bare_constructor_checks_each_row_as_read(backend, row):
    # the public constructor trusts no row: a mixed one raises on its first
    # read, whether through phi_row, phi or a chain
    model = CoefficientModel(2, lambda t: row, backend)
    with pytest.raises(BackendMismatchError):
        model.phi_row(1)
    with pytest.raises(BackendMismatchError):
        model.phi(1, 1)
    with pytest.raises(BackendMismatchError):
        green(model, 5, 0)
    # so is a row of another length, which the chain would read as if its
    # missing entries were zero or its extra ones belonged to the band
    for short_or_long in (row[:1], row + row[:1]):
        model = CoefficientModel(2, lambda t: short_or_long, backend)
        with pytest.raises(ValueError, match="has .* values, expected 2"):
            model.phi_row(1)
        with pytest.raises(ValueError, match="has .* values, expected 2"):
            green(model, 5, 0)
    # the order and the backend are checked when the model is made
    with pytest.raises(ValueError, match="order p must be >= 1"):
        CoefficientModel(0, lambda t: row, backend)
    with pytest.raises(ValueError, match="unknown backend: 'decimal'"):
        CoefficientModel(2, lambda t: row, "decimal")


def test_from_function_rows_of_its_backend_pass():
    model = CoefficientModel.from_function(2, lambda m, t: Fraction(m, t), "rational")
    # H(3, 1) = phi_1(3) phi_1(2) + phi_2(3)
    assert green(model, 3, 1) == Fraction(1, 3) * Fraction(1, 2) + Fraction(2, 3)


def test_periodic_model():
    model = CoefficientModel.periodic([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    assert model.phi_row(0) == (Fraction(1), Fraction(0))
    assert model.phi_row(1) == (Fraction(0), Fraction(1))
    assert model.phi_row(2) == model.phi_row(0)
    assert model.phi_row(-1) == model.phi_row(1)
    with pytest.raises(ValueError, match="need at least one periodic row"):
        CoefficientModel.periodic([])


def test_extended_accessor():
    symbolic = CoefficientModel.symbolic(1)
    assert symbolic.phi(1, 7) == phi_sym(1, 7)


def test_principal_matrix_spec_validation():
    model = CoefficientModel.symbolic(2)
    with pytest.raises(DomainError):
        build_phi_matrix(model, 3, 5, 2)
    with pytest.raises(DomainError):
        build_phi_matrix(model, 1, 2, 2)
    assert len(build_phi_matrix(model, 1, 5, 2)) == 3


def test_phi_matrix_first_branch_shape():
    model = CoefficientModel.symbolic(2)
    matrix = build_phi_matrix(model, 1, 3, 0)
    minus_one = TermSum.constant(-1)
    rows = [
        [phi_sym(1, 1), minus_one, TermSum()],
        [phi_sym(2, 2), phi_sym(1, 2), minus_one],
        [TermSum(), phi_sym(2, 3), phi_sym(1, 3)],
    ]
    for i in range(1, 4):
        for j in range(1, 4):
            assert matrix[i - 1][j - 1] == rows[i - 1][j - 1]


def test_phi_matrix_highest_branch_first_column():
    model = CoefficientModel.symbolic(3)
    matrix = build_phi_matrix(model, 3, 4, 0)
    assert matrix[0][0] == phi_sym(3, 1)
    for i in (2, 3, 4):
        assert matrix[i - 1][0] == TermSum()


def test_phi_matrix_middle_branch_first_column():
    model = CoefficientModel.symbolic(3)
    matrix = build_phi_matrix(model, 2, 4, 0)
    col = [row[0] for row in matrix]
    assert col == [phi_sym(2, 1), phi_sym(3, 2), TermSum(), TermSum()]


def test_phi_matrix_bandwidth():
    model = CoefficientModel.symbolic(3)
    matrix = build_phi_matrix(model, 1, 8, 0)
    assert matrix[5][1] == TermSum()  # below the band
    assert matrix[5][3] == phi_sym(3, 6)
    assert matrix[1][3] == TermSum()  # above the superdiagonal


def test_phi_matrix_reads_each_row_once():
    reads = Counter()

    def fn(m, t):
        if m == 1:  # a row read calls fn(1, t) once
            reads[t] += 1
        return Fraction(m, t)

    model = CoefficientModel.from_function(3, fn, "rational", t_min=1)
    matrix = build_phi_matrix(model, 2, 9, 1)
    assert reads == Counter(range(2, 10))
    assert matrix[7][5] == Fraction(3, 9)
