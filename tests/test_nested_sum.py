"""Nested-sum determinant route, and the Green's function by the nested
method."""

from fractions import Fraction
from random import Random

import pytest

from vclde import CoefficientModel, evaluate_green, green
from vclde.hessenberg import HessenbergMatrix, det_recurrence
from vclde.leibnizian import det_leibnizian
from vclde.nested_sum import SuperdiagonalError, det_nested_sum
from vclde.scalar import TermSum, h_sym, phi_sym
from testutil import random_hessenberg, random_model


def test_order_one():
    matrix = HessenbergMatrix.from_function(1, h_sym, "symbolic")
    assert det_nested_sum(matrix) == h_sym(1, 1)


def test_order_two_symbolic():
    def entry(i, j):
        if j == i + 1:
            return TermSum.constant(-1)
        return h_sym(i, j)

    matrix = HessenbergMatrix.from_function(2, entry, "symbolic")
    assert det_nested_sum(matrix) == h_sym(2, 1) + h_sym(2, 2) * h_sym(1, 1)
    assert det_nested_sum(matrix) == det_recurrence(matrix)


def test_matches_recurrence_random():
    rng = Random(20240813)
    for k in range(1, 8):
        for _ in range(20):
            matrix = random_hessenberg(rng, k, superdiag=-1)
            value = det_nested_sum(matrix)
            assert value == det_recurrence(matrix)
            assert value == det_leibnizian(matrix)


def test_symbolic_sum_merges_once(monkeypatch):
    """Symbolic values equal the recurrence's at orders 1-12, and the walk's
    products are merged into one sum, never added pairwise."""

    def entry(i, j):
        return TermSum.constant(-1) if j == i + 1 else h_sym(i, j)

    calls = []
    add = TermSum.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    for k in range(1, 13):
        matrix = HessenbergMatrix.from_function(k, entry, "symbolic")
        with monkeypatch.context() as patch:
            patch.setattr(TermSum, "__add__", counted)
            value = det_nested_sum(matrix)
        assert value == det_recurrence(matrix)
        assert value.term_count == 1 << (k - 1)
    assert not calls


def test_superdiagonal_precondition():
    matrix = random_hessenberg(Random(5), 4, superdiag=Fraction(1))
    with pytest.raises(SuperdiagonalError):
        det_nested_sum(matrix)
    with pytest.raises(ValueError):
        det_nested_sum([])


def test_green_single_step():
    model = CoefficientModel.symbolic(3)
    assert evaluate_green(model, 3, 2, "nested") == phi_sym(1, 3)


def test_green_second_order_expansion():
    model = CoefficientModel.symbolic(2)
    expected = (
        phi_sym(1, 3) * phi_sym(1, 4) * phi_sym(1, 5)
        + phi_sym(1, 5) * phi_sym(2, 4)
        + phi_sym(1, 3) * phi_sym(2, 5)
    )
    assert evaluate_green(model, 5, 2, "nested") == expected


def test_green_matches_recurrence_random():
    rng = Random(20240814)
    for p in (1, 2, 3, 4):
        for trial in range(6):
            model = random_model(rng, p, -2, 16)
            s = rng.randint(0, 4)
            t = s + rng.randint(1, 8)
            assert evaluate_green(model, t, s, "nested") == green(model, t, s)

