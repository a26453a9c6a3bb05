"""Matrix storage, the permutation-sum oracle, and the chain recurrence."""

from fractions import Fraction
from random import Random

import pytest

from vclde import BackendMismatchError
from vclde.hessenberg import (
    BandedHessenbergMatrix,
    HessenbergMatrix,
    det_leibniz_oracle,
    det_recurrence,
    leading_principal_chain,
)
from vclde.scalar import TermSum, h_sym
from testutil import Permutation, random_hessenberg, rational


def laplace_det(rows):
    """Independent oracle: cofactor expansion along the first row."""
    k = len(rows)
    if k == 0:
        return TermSum.constant(1)
    if k == 1:
        return rows[0][0]
    total = None
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def symbol_rows(k):
    return [[h_sym(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]


def test_oracle_empty_matrix():
    assert det_leibniz_oracle([]) == 1


def test_oracle_2x2():
    assert det_leibniz_oracle([[1, 2], [3, 4]]) == -2


def test_oracle_general_3x3_matches_cofactor_expansion():
    rows = symbol_rows(3)
    expansion = det_leibniz_oracle(rows)
    assert expansion.term_count == 6
    assert expansion == laplace_det(rows)


def test_oracle_limit_guard():
    rows = [[1] * 10 for _ in range(10)]
    with pytest.raises(ValueError):
        det_leibniz_oracle(rows)
    assert det_leibniz_oracle([[2]], oracle_limit=1) == 2
    with pytest.raises(ValueError, match="row 2 has 1 entries, not square"):
        det_leibniz_oracle([[1, 2], [3]])


def test_permutation_signs():
    assert Permutation((1, 2, 3)).sign == 1
    assert Permutation((2, 1, 3)).sign == -1
    assert Permutation((2, 3, 1)).sign == 1
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_det_recurrence_base_cases():
    h = HessenbergMatrix.from_function(1, h_sym, "symbolic")
    assert det_recurrence(h) == h_sym(1, 1)
    assert det_recurrence([]) == Fraction(1)


def test_det_recurrence_2x2_symbolic():
    h = HessenbergMatrix.from_function(2, h_sym, "symbolic")
    assert det_recurrence(h) == h_sym(1, 1) * h_sym(2, 2) - h_sym(1, 2) * h_sym(2, 1)


def test_det_recurrence_matches_oracle_random():
    rng = Random(20240811)
    for k in range(9):
        for _ in range(15):
            matrix = random_hessenberg(rng, k)
            assert det_recurrence(matrix) == det_leibniz_oracle(matrix)


def test_leading_principal_chain():
    h = HessenbergMatrix.from_function(1, h_sym, "symbolic")
    assert leading_principal_chain(h) == [TermSum.constant(1), h_sym(1, 1)]
    ones = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert leading_principal_chain(ones) == [Fraction(1), Fraction(1), Fraction(0)]
    rng = Random(7)
    matrix = random_hessenberg(rng, 6)
    assert leading_principal_chain(matrix)[-1] == det_recurrence(matrix)


def test_banded_matches_dense_embedding():
    rng = Random(13)
    for k, p in ((5, 2), (7, 3), (6, 1), (3, 4)):
        banded = BandedHessenbergMatrix.from_function(
            k, p, lambda i, j: rational(rng), "rational"
        )
        dense = HessenbergMatrix.from_function(
            k, lambda i, j: banded[i - 1][j - 1], "rational"
        )
        assert det_recurrence(banded) == det_recurrence(dense)
        assert det_recurrence(banded) == det_leibniz_oracle(dense)
        assert banded == dense
        for i, row in enumerate(banded, start=1):
            for j, value in enumerate(row, start=1):
                if not -1 <= i - j <= p - 1:
                    assert value == 0


def test_band_zero_pattern():
    banded = BandedHessenbergMatrix.from_function(
        6, 2, lambda i, j: Fraction(1), "rational"
    )
    assert banded[3][0] == 0
    assert banded[0][2] == 0
    assert banded[3][2] == 1
    assert banded[4][:3] == (0, 0, 0) and banded[4][3] == 1
    with pytest.raises(ValueError, match="band parameter must be >= 1"):
        BandedHessenbergMatrix.from_function(3, 0, lambda i, j: Fraction(1), "rational")


def test_superdiagonal_queries_are_exact_zero():
    matrix = HessenbergMatrix.from_function(2, lambda i, j: Fraction(2 * i + j - 2), "rational")
    assert matrix == ((1, 2), (3, 4))
    three = random_hessenberg(Random(1), 3)
    assert three[0][2] == 0


def test_from_function_entries_must_match_backend():
    with pytest.raises(BackendMismatchError):
        HessenbergMatrix.from_function(2, lambda i, j: 0.5, "rational")
    with pytest.raises(BackendMismatchError):
        BandedHessenbergMatrix.from_function(3, 2, lambda i, j: Fraction(1, 2), "float64")
    with pytest.raises(BackendMismatchError):
        HessenbergMatrix.from_function(1, lambda i, j: 1, "symbolic")
    assert HessenbergMatrix.from_function(2, lambda i, j: 1, "rational") == ((1, 1), (1, 1))
    assert HessenbergMatrix.from_function(0, lambda i, j: 0.5, "float64") == ()
