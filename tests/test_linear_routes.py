"""The two linear kernels behind every production value: the banded chain
(Green's function, fundamental solutions, Kittappa determinants) and the
adjoint Green row (Green's-function solutions).  Their cost bounds, and
property checks against independently derived references."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vclde import (
    CoefficientModel,
    DomainError,
    MissingForcingError,
    SolutionProblem,
    build_phi_matrix,
    casorati,
    det_recurrence,
    general_solution,
    general_solution_kittappa,
    green,
    homogeneous_solution_green,
    particular_solution,
    particular_solution_det,
    principal_chain,
    recursion_oracle,
    xi,
)
from vclde.hessenberg import leading_principal_chain
from vclde.lde import _green_row
from testutil import dense_bordered_matrix, to_dense

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# ints and Fractions mixed, small and large (up to 10^6) denominators
values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)


@st.composite
def tables(draw, max_p=5):
    """Rational table model over [t_min, t_max], t_min possibly negative;
    some rows are all zero."""
    p = draw(st.integers(1, max_p))
    t_min = draw(st.integers(-8, 2))
    t_max = t_min + draw(st.integers(p + 1, 12))
    rows = {
        t: (0,) * p if draw(st.integers(0, 7)) == 0 else tuple(draw(values) for _ in range(p))
        for t in range(t_min, t_max + 1)
    }
    return CoefficientModel.from_table(rows)


@st.composite
def table_problems(draw):
    """A forced problem on a table model; the anchor and horizon often sit on
    the domain edges (s - p + 1 = t_min, t = t_max)."""
    model = draw(tables())
    p = model.p
    s = draw(st.integers(model.t_min + p - 1, model.t_max - 1))
    t = draw(st.integers(s + 1, model.t_max))
    init = tuple(draw(values) for _ in range(p))
    forcing = {u: draw(values) for u in range(s + 1, model.t_max + 1)}
    return SolutionProblem(model, s, init, forcing), t


def counting_model(p):
    """Float model whose row function counts its calls."""
    cycle = [tuple(0.1 + 0.05 * ((3 * t + m) % 7) for m in range(p)) for t in range(5)]
    reads = [0]

    def row_fn(t):
        reads[0] += 1
        return cycle[t % 5]

    return CoefficientModel(p, row_fn, "float64"), reads


def test_solution_routes_read_linear_rows():
    p, s, t = 3, -2, 398
    model, reads = counting_model(p)
    forcing = {u: 0.5 + 0.01 * (u % 11) for u in range(s + 1, t + 1)}
    problem = SolutionProblem(model, s, (1.0, -0.5, 0.25), forcing)
    for route in (
        general_solution,
        general_solution_kittappa,
        particular_solution,
        particular_solution_det,
    ):
        reads[0] = 0
        route(problem, t)
        assert reads[0] <= (p + 2) * (t - s), (route.__name__, reads[0])


def test_single_values_need_constant_memory():
    model = CoefficientModel.constant((0.25, 0.25, 0.25, 0.25))
    problem = SolutionProblem(model, 0, (1.0, 0.5, 0.25, 0.125), lambda u: 0.5)
    tracemalloc.start()
    try:
        green(model, 10**5, 0)
        general_solution_kittappa(problem, 2000)
        particular_solution_det(problem, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} bytes"


@PROPERTY_SETTINGS
@given(tables(), st.data())
def test_green_row_equals_forward_chain_rational(model, data):
    # rows s+2..t are read; s = t_min - 2 and t = t_max touch both edges
    s = data.draw(st.integers(model.t_min - 2, model.t_max - 1))
    t = data.draw(st.integers(s + 1, model.t_max))
    row = _green_row(model, t, s)
    assert row == [green(model, t, u) for u in range(t, s, -1)]


@PROPERTY_SETTINGS
@given(st.integers(1, 5), st.integers(-6, 3), st.integers(1, 6))
def test_green_row_equals_forward_chain_symbolic(p, s, gap):
    model = CoefficientModel.symbolic(p)
    t = s + gap
    assert _green_row(model, t, s) == [green(model, t, u) for u in range(t, s, -1)]


@PROPERTY_SETTINGS
@given(table_problems())
def test_bordered_chain_equals_dense_determinant(case):
    problem, t = case
    assert general_solution_kittappa(problem, t) == det_recurrence(
        dense_bordered_matrix(problem, t, with_init=True)
    )
    assert particular_solution_det(problem, t) == det_recurrence(
        dense_bordered_matrix(problem, t, with_init=False)
    )


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(-5, 3), st.integers(1, 5))
def test_bordered_chain_equals_dense_determinant_symbolic(p, s, gap):
    problem = SolutionProblem.symbolic(CoefficientModel.symbolic(p), s)
    t = s + gap
    assert general_solution_kittappa(problem, t) == det_recurrence(
        dense_bordered_matrix(problem, t, with_init=True)
    )
    assert particular_solution_det(problem, t) == det_recurrence(
        dense_bordered_matrix(problem, t, with_init=False)
    )


@PROPERTY_SETTINGS
@given(table_problems())
def test_linear_routes_equal_recursion(case):
    problem, t = case
    reference = recursion_oracle(problem, t)
    assert general_solution(problem, t) == reference
    assert general_solution_kittappa(problem, t) == reference
    assert particular_solution(problem, t) == particular_solution_det(problem, t)
    homogeneous = SolutionProblem(problem.model, problem.s, problem.init)
    assert homogeneous_solution_green(homogeneous, t) == recursion_oracle(homogeneous, t)


def unit_problem(model, s, m):
    """Homogeneous problem whose solution is the branch-m fundamental
    solution: y = 1 at s-m+1, 0 elsewhere on the window."""
    init = tuple(int(u == s - m + 1) for u in range(s - model.p + 1, s + 1))
    return SolutionProblem(model, s, init)


@PROPERTY_SETTINGS
@given(tables(), st.data())
def test_integer_chain_equals_dense_determinant_and_recursion(model, data):
    # s = t_min - 1 reads rows from t_min on, t = t_max the last one
    p = model.p
    s = data.draw(st.integers(model.t_min - 1, model.t_max - 1))
    t = data.draw(st.integers(s + 1, model.t_max))
    with_window = s - p + 1 >= model.t_min
    for m in range(1, p + 1):
        dense = leading_principal_chain(to_dense(build_phi_matrix(model, m, t, s)))
        assert principal_chain(model, m, t, s) == dense
        assert xi(model, m, t, s) == dense[-1] == det_recurrence(
            build_phi_matrix(model, m, t, s)
        )
        if with_window:
            problem = unit_problem(model, s, m)
            assert [recursion_oracle(problem, s + n) for n in range(1, t - s + 1)] == dense[1:]
    assert green(model, t, s) == xi(model, 1, t, s)
    entries = casorati(model, t, s).entries
    for i in range(p):
        for j in range(p):
            u = t - i
            if u > s:
                expected = det_recurrence(to_dense(build_phi_matrix(model, j + 1, u, s)))
            else:
                expected = int(u == s - j)
            assert entries[i][j] == expected
            if with_window:
                assert entries[i][j] == recursion_oracle(unit_problem(model, s, j + 1), u)


@PROPERTY_SETTINGS
@given(table_problems())
def test_bordered_integer_chain_equals_recursion(case):
    problem, t = case
    zero_init = SolutionProblem(problem.model, problem.s, (0,) * problem.p, problem.forcing)
    assert particular_solution_det(problem, t) == recursion_oracle(zero_init, t)
    assert general_solution_kittappa(problem, t) == recursion_oracle(problem, t)


def test_rational_chain_normalizes_once_per_value(monkeypatch):
    # Fraction arithmetic runs math.gcd on every add and multiply; the
    # integer chain runs it once per returned minor, whatever t - s is.
    p, t = 3, 2000
    model = CoefficientModel.periodic(
        [(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)), (1, Fraction(2, 5), Fraction(-3, 10))]
    )
    expected = recursion_oracle(unit_problem(model, 0, 1), t)
    calls = []
    gcd = math.gcd

    def counting_gcd(*args):
        calls.append(len(args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    value = green(model, t, 0)
    assert len(calls) <= 2 * p, len(calls)
    assert value == expected


def test_chain_reports_the_first_failing_step():
    # Rows are checked where they are read: a forcing gap at t=2 comes
    # before the first row outside the table (t=5), so it is the error.
    model = CoefficientModel.from_table({t: (Fraction(1, 2), 1) for t in range(-1, 5)})
    gap = SolutionProblem(model, 0, (1, 1), {1: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    with pytest.raises(MissingForcingError) as info:
        general_solution_kittappa(gap, 6)
    assert info.value.t == 2
    with pytest.raises(MissingForcingError):
        particular_solution_det(gap, 6)
    full = SolutionProblem(model, 0, (1, 1), {u: 1 for u in range(1, 6)})
    with pytest.raises(DomainError):
        general_solution_kittappa(full, 6)
