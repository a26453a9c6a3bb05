"""The one linear kernel behind every production value: the banded chain,
run forward (Green's function, fundamental solutions, Kittappa
determinants) and over the adjoint rows (Green's-function solutions).  Its
cost bounds, and property checks against independently derived references,
exact in rational arithmetic and within ``scalars_close`` in float64; and
the chain's period skip on periodic and constant models."""

import json
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import count
from operator import eq

import pytest
from hypothesis import given, settings, strategies as st

from vclde import (
    CoefficientModel,
    DomainError,
    MissingForcingError,
    SolutionProblem,
    casorati,
    evaluate_green,
    evaluate_solution,
    general_solution,
    general_solution_kittappa,
    green,
    xi,
)
from vclde.cli import main
from vclde.coefficients import build_phi_matrix
from vclde.hessenberg import det_recurrence, leading_principal_chain
from vclde.lde import (GREEN_METHODS, SOLVE_METHODS, _adjoint_rows, _branch_column,
                       _column, principal_chain)
from vclde.oracles import recursion_oracle
from vclde.scalar import phi_sym
from vclde.verification import _corrupted, scalars_close
from testutil import (
    dense_bordered_matrix,
    float_chain,
    homogeneous_solution,
    particular_solution,
    to_dense,
    zero_init,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# ints and Fractions mixed, small and large (up to 10^6) denominators
values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)


def full_mantissa(lo, hi, den=999983):
    """Floats n / den for integers lo <= n <= hi.  With den a multiple of
    the prime 999983 most of them carry full 53-bit mantissas, so the order
    of a sum shows in its last bits; plain ``st.floats`` draws many short
    binary fractions, whose sums round alike in any order."""
    return st.integers(lo, hi).map(lambda n: n / den)


float_values = st.one_of(st.just(0.0), full_mantissa(-3 * 999983, 3 * 999983))


def coefficients(arith, p):
    """Coefficient entries: rational ``values``, or non-negative floats of
    at most 1/p, so float rows sum to at most 1 and chains stay bounded."""
    if arith == "rational":
        return values
    return st.one_of(st.just(0.0), full_mantissa(0, 999983, 999983 * p))


def close(a, b):
    """``scalars_close``, entrywise on sequences."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(close, a, b))
    return scalars_close(a, b)


@st.composite
def tables(draw, max_p=5, arith="rational"):
    """Table model over [t_min, t_max], t_min possibly negative; some rows
    are all zero."""
    p = draw(st.integers(1, max_p))
    t_min = draw(st.integers(-8, 2))
    t_max = t_min + draw(st.integers(p + 1, 12))
    zero, entry = (0 if arith == "rational" else 0.0), coefficients(arith, p)
    rows = {
        t: (zero,) * p if draw(st.integers(0, 7)) == 0 else tuple(draw(entry) for _ in range(p))
        for t in range(t_min, t_max + 1)
    }
    return CoefficientModel.from_table(rows)


@st.composite
def table_problems(draw, arith="rational"):
    """A forced problem on a table model; the anchor and horizon often sit on
    the domain edges (s - p + 1 = t_min, t = t_max)."""
    model = draw(tables(arith=arith))
    p = model.p
    s = draw(st.integers(model.t_min + p - 1, model.t_max - 1))
    t = draw(st.integers(s + 1, model.t_max))
    given = values if arith == "rational" else float_values
    init = tuple(draw(given) for _ in range(p))
    forcing = {u: draw(given) for u in range(s + 1, model.t_max + 1)}
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
    for route in (general_solution, general_solution_kittappa, particular_solution):
        reads[0] = 0
        route(problem, t)
        assert reads[0] <= (p + 2) * (t - s), (route.__name__, reads[0])


def test_single_values_need_constant_memory():
    model = CoefficientModel.constant((0.25, 0.25, 0.25, 0.25))
    init = (1.0, 0.5, 0.25, 0.125)
    problem = SolutionProblem(model, 0, init, lambda u: 0.5)
    # a bare-constructor model has no period, so the chain takes every step
    homogeneous = SolutionProblem(CoefficientModel(4, lambda t: (0.25,) * 4, "float64"), 0, init)
    tracemalloc.start()
    try:
        green(model, 10**5, 0)
        general_solution_kittappa(problem, 2000)
        general_solution_kittappa(zero_init(problem), 2000)
        general_solution(problem, 10**5)
        particular_solution(problem, 10**5)
        general_solution(homogeneous, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} bytes"


@PROPERTY_SETTINGS
@given(tables(), st.data())
def test_green_row_equals_forward_chain_rational(model, data):
    check_green_row(model, data, eq)


@PROPERTY_SETTINGS
@given(tables(arith="float64"), st.data())
def test_green_row_equals_forward_chain_float64(model, data):
    check_green_row(model, data, close)


def impulse_problems(model, s, t):
    """(u, the zero-init problem forced by a unit impulse at u) for each u in
    s+1..t: its solution y_t = sum_j H(t, s+j) v_{s+j} is H(t, u)."""
    init = (model.zero,) * model.p
    for u in range(s + 1, t + 1):
        forcing = {w: model.one if w == u else model.zero for w in range(s + 1, t + 1)}
        yield u, SolutionProblem(model, s, init, forcing)


def check_green_row(model, data, same):
    # the Green's-function route reads rows t down to s+2 (and s+1 for the
    # initial terms); t = t_max touches the last row
    s = data.draw(st.integers(model.t_min + model.p - 1, model.t_max - 1))
    t = data.draw(st.integers(s + 1, model.t_max))
    for u, problem in impulse_problems(model, s, t):
        assert same(particular_solution(problem, t), green(model, t, u))


@PROPERTY_SETTINGS
@given(st.integers(1, 5), st.integers(-6, 3), st.integers(1, 6))
def test_green_row_equals_forward_chain_symbolic(p, s, gap):
    model = CoefficientModel.symbolic(p)
    t = s + gap
    for u, problem in impulse_problems(model, s, t):
        assert particular_solution(problem, t) == green(model, t, u)


@PROPERTY_SETTINGS
@given(table_problems())
def test_bordered_chain_equals_dense_determinant(case):
    check_bordered_chain(case, eq)


@PROPERTY_SETTINGS
@given(table_problems(arith="float64"))
def test_bordered_chain_equals_dense_determinant_float64(case):
    check_bordered_chain(case, close)


def check_bordered_chain(case, same):
    problem, t = case
    for bordered in (problem, zero_init(problem)):
        assert same(general_solution_kittappa(bordered, t),
                    det_recurrence(dense_bordered_matrix(bordered, t)))


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(-5, 3), st.integers(1, 5))
def test_bordered_chain_equals_dense_determinant_symbolic(p, s, gap):
    problem = SolutionProblem.symbolic(CoefficientModel.symbolic(p), s)
    t = s + gap
    for bordered in (problem, zero_init(problem)):
        assert general_solution_kittappa(bordered, t) == det_recurrence(
            dense_bordered_matrix(bordered, t))


@PROPERTY_SETTINGS
@given(table_problems())
def test_linear_routes_equal_recursion(case):
    check_linear_routes(case, eq)


@PROPERTY_SETTINGS
@given(table_problems(arith="float64"))
def test_linear_routes_equal_recursion_float64(case):
    check_linear_routes(case, close)


def check_linear_routes(case, same):
    problem, t = case
    reference = recursion_oracle(problem, t)
    assert same(general_solution(problem, t), reference)
    assert same(general_solution_kittappa(problem, t), reference)
    assert same(particular_solution(problem, t), general_solution_kittappa(zero_init(problem), t))
    homogeneous = SolutionProblem(problem.model, problem.s, problem.init)
    assert same(general_solution(homogeneous, t), recursion_oracle(homogeneous, t))


def unit_problem(model, s, m):
    """Homogeneous problem whose solution is the branch-m fundamental
    solution: y = 1 at s-m+1, 0 elsewhere on the window."""
    init = tuple(
        model.one if u == s - m + 1 else model.zero for u in range(s - model.p + 1, s + 1)
    )
    return SolutionProblem(model, s, init)


@PROPERTY_SETTINGS
@given(tables(), st.data())
def test_integer_chain_equals_dense_determinant_and_recursion(model, data):
    check_chain(model, data, eq)


@PROPERTY_SETTINGS
@given(tables(arith="float64"), st.data())
def test_float_chain_equals_dense_determinant_and_recursion(model, data):
    check_chain(model, data, close)


def check_chain(model, data, same):
    # s = t_min - 1 reads rows from t_min on, t = t_max the last one
    p = model.p
    s = data.draw(st.integers(model.t_min - 1, model.t_max - 1))
    t = data.draw(st.integers(s + 1, model.t_max))
    with_window = s - p + 1 >= model.t_min
    for m in range(1, p + 1):
        dense = leading_principal_chain(to_dense(build_phi_matrix(model, m, t, s)))
        # every intermediate minor of the kernel: xi at each horizon s+n
        assert same([xi(model, m, s + n, s) for n in range(1, t - s + 1)], dense[1:])
        assert same(dense[-1], det_recurrence(build_phi_matrix(model, m, t, s)))
        if with_window:
            problem = unit_problem(model, s, m)
            assert same([recursion_oracle(problem, s + n) for n in range(1, t - s + 1)], dense[1:])
    assert same(green(model, t, s), xi(model, 1, t, s))
    entries = casorati(model, t, s).entries
    for i in range(p):
        for j in range(p):
            u = t - i
            if u > s:
                expected = det_recurrence(to_dense(build_phi_matrix(model, j + 1, u, s)))
            else:
                expected = model.one if u == s - j else model.zero
            assert same(entries[i][j], expected)
            if with_window:
                assert same(entries[i][j], recursion_oracle(unit_problem(model, s, j + 1), u))


@st.composite
def bare_float_problems(draw):
    """A forced float64 problem on a bare-constructor table model, which has
    no period, so no chain skips.  Entries lie in [-1/p, 1/p] and carry full
    53-bit mantissas, so the order of a sum shows in its last bits."""
    p = draw(st.integers(1, 5))
    t_max = draw(st.integers(p + 1, 16))
    entry = full_mantissa(-10**6, 10**6, 999983 * p)
    rows = {u: tuple(draw(entry) for _ in range(p)) for u in range(t_max + 1)}
    model = CoefficientModel(p, rows.__getitem__, "float64", 0, t_max)
    s = draw(st.integers(p - 1, t_max - 1))
    t = draw(st.integers(s + 1, t_max))
    given = full_mantissa(-3 * 10**6, 3 * 10**6)
    init = tuple(draw(given) for _ in range(p))
    return SolutionProblem(model, s, init, {u: draw(given) for u in range(s + 1, t + 1)}), t


@PROPERTY_SETTINGS
@given(bare_float_problems())
def test_float_chain_sums_in_reference_order(case):
    # Bit for bit, not within a tolerance: the float64 chain sums its terms
    # left to right, as the reference loop does.
    problem, t = case
    model, s = problem.model, problem.s

    def rows(u):
        return map(model.phi_row, range(s + 1, u + 1))

    for u in range(s + 1, t + 1):
        for m in range(1, model.p + 1):
            expected = float_chain(model, rows(u), u - s, partial(_branch_column, m))[0][-1]
            assert xi(model, m, u, s).hex() == expected.hex(), (m, u)
        assert green(model, u, s).hex() == xi(model, 1, u, s).hex()
    column = _column(problem)
    expected = float_chain(model, rows(t), t - s, column)[0][-1]
    assert general_solution_kittappa(problem, t).hex() == expected.hex()
    k = t - s - 1
    expected = float_chain(model, _adjoint_rows(model, t, s), k, partial(_branch_column, 1),
                           weight=lambda n: column(k + 1 - n))[1]
    assert general_solution(problem, t).hex() == expected.hex()


@st.composite
def dense_float_tables(draw):
    """A float64 table model with no zero entry and a horizon 3 <= t - s <=
    12, so most minors sum several nonzero terms.  Entries lie in
    [-1/p, 1/p] and carry full 53-bit mantissas, so the order of a sum
    shows in its last bits."""
    p = draw(st.integers(1, 5))
    s = p - 1
    t = s + draw(st.integers(3, 12))
    entry = st.integers(-10**6, 10**6).filter(bool).map(lambda n: n / (999983 * p))
    rows = {u: tuple(draw(entry) for _ in range(p)) for u in range(t + 1)}
    return CoefficientModel.from_table(rows), t, s


@PROPERTY_SETTINGS
@given(dense_float_tables())
def test_dense_float_chain_sums_in_reference_order(case):
    # Every branch at the horizon, bit for bit against the reference loop:
    # the route-agreement properties compare within scalars_close, which no
    # last-bit difference crosses.
    model, t, s = case
    for m in range(1, model.p + 1):
        rows = map(model.phi_row, range(s + 1, t + 1))
        expected = float_chain(model, rows, t - s, partial(_branch_column, m))[0][-1]
        assert xi(model, m, t, s).hex() == expected.hex(), m
    assert green(model, t, s).hex() == xi(model, 1, t, s).hex()


@PROPERTY_SETTINGS
@given(table_problems())
def test_bordered_integer_chain_equals_recursion(case):
    check_bordered_recursion(case, eq)


@PROPERTY_SETTINGS
@given(table_problems(arith="float64"))
def test_bordered_float_chain_equals_recursion(case):
    check_bordered_recursion(case, close)


def check_bordered_recursion(case, same):
    problem, t = case
    particular = zero_init(problem)
    assert same(general_solution_kittappa(particular, t), recursion_oracle(particular, t))
    assert same(general_solution_kittappa(problem, t), recursion_oracle(problem, t))


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
    # The Green's-function routes read the forcing backward, so they check
    # a mapping in order first and name the same t.
    for route in (general_solution_kittappa, general_solution, particular_solution):
        with pytest.raises(MissingForcingError) as info:
            route(gap, 6)
        assert info.value.t == 2
    with pytest.raises(MissingForcingError):
        general_solution_kittappa(zero_init(gap), 6)
    full = SolutionProblem(model, 0, (1, 1), {u: 1 for u in range(1, 6)})
    for route in (general_solution_kittappa, general_solution, particular_solution):
        with pytest.raises(DomainError):
            route(full, 6)


# ---------------------------------------------------------------- period skip


def first_skip(p, period):
    """Fewest homogeneous steps R after which the chain skips whole periods,
    by its operation count: R*p > P*p^2 + 2p^3 * bits(R // P)."""
    return next(
        rest for rest in count(1)
        if rest * p > period * p * p + 2 * p**3 * (rest // period).bit_length()
    )


@st.composite
def periodic_models(draw, arith="rational"):
    """A periodic model (P <= 6) or a constant one, p <= 5, and a horizon
    gap t - s that is either short or long enough for every branch to skip
    periods.  Half the models draw all-zero rows and phi_p = 0 often; the
    other half keep phi_p nonzero, so their Casoratian is too.  Rational
    entries have denominators up to 4, so the references stay fast at a few
    hundred steps; float rows are non-negative and sum to 1 (or less, when
    their weights do), so values neither blow up nor fade below the
    tolerance."""
    p = draw(st.integers(1, 5))
    period = draw(st.integers(1, 6))
    zeros = draw(st.booleans())
    if arith == "rational":
        zero, entry = 0, st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=4))
        nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
    else:
        zero, nonzero = 0.0, full_mantissa(10**4, 999983)
        entry = st.one_of(st.just(0.0), full_mantissa(0, 999983))
    rows = []
    for _ in range(period):
        row = [draw(entry) for _ in range(p - 1)] + [draw(nonzero)]
        if zeros and draw(st.integers(0, 2)) == 0:
            row[-1] = zero
        if zeros and draw(st.integers(0, 4)) == 0:
            row = [zero] * p
        if arith != "rational":
            row = [w / max(sum(row), 1.0) for w in row]
        rows.append(row)
    if period == 1 and draw(st.booleans()):
        model = CoefficientModel.constant(rows[0])
    else:
        model = CoefficientModel.periodic(rows)
    long = first_skip(p, period) + p + 1
    gap = draw(st.one_of(st.integers(1, 3 * p), st.integers(long, long + 2 * period * p)))
    return model, gap


def check_period_skip(model, s, gap, same):
    p, t = model.p, s + gap
    chains = [principal_chain(model, m, t, s) for m in range(1, p + 1)]
    assert same(green(model, t, s), chains[0][-1])
    for m in range(1, p + 1):
        assert same(xi(model, m, t, s), chains[m - 1][-1])
    unit = unit_problem(model, s, 1)
    assert same(green(model, t, s), recursion_oracle(unit, t))
    # homogeneous problems: the bordered chain and the adjoint chain skip too
    assert same(general_solution_kittappa(unit, t), chains[0][-1])
    assert same(general_solution(unit, t), chains[0][-1])
    # a forcing weights every step of the adjoint chain, so that chain never skips
    forced = SolutionProblem(model, s, unit.init, lambda u: model.one)
    assert same(general_solution(forced, t), recursion_oracle(forced, t))
    matrix = casorati(model, t, s)
    for i in range(p):
        for j in range(p):
            n = gap - i
            expected = chains[j][n] if n > 0 else (model.one if n == -j else model.zero)
            assert same(matrix.entries[i][j], expected)
    product = model.one
    for u in range(s + 1, t + 1):
        product = product * ((-1) ** (p + 1) * model.phi(p, u))
    assert same(matrix.abel, product)


@settings(max_examples=60, deadline=None)
@given(periodic_models(), st.integers(-7, 3))
def test_period_skip_is_exact(case, s):
    model, gap = case
    check_period_skip(model, s, gap, eq)


@settings(max_examples=60, deadline=None)
@given(periodic_models(arith="float64"), st.integers(-7, 3))
def test_period_skip_float64_within_tolerance(case, s):
    model, gap = case
    check_period_skip(model, s, gap, close)


@pytest.mark.parametrize("rows, expected", [
    ([(0.6, 0.4)],
     ("0x1.6db6db6db676bp-1", "0x1.2492492491f88p-2", "0x1.492492492437ap-1",
      "0x1.4924924924379p-1")),
    ([(0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25),
      (0.7, 0.1, 0.1, 0.1), (0.2, 0.5, 0.2, 0.1)],
     ("0x1.98361be478230p-2", "0x1.5ba3582a9e0fep-5", "0x1.7906e221e1734p-2",
      "0x1.7906e221e15efp-2")),
])
def test_period_skip_float64_bits(rows, expected):
    # Rows are non-negative and sum to 1, so values stay near 1.  The
    # step-by-step chain differs from these in the last bits, so the pin
    # holds the skip's own order: the monodromy built row by row, its
    # powers by scalar.mat_mul.
    model = CoefficientModel.periodic(rows)
    p, t = model.p, 10**5
    problem = SolutionProblem(model, 0, tuple(1.0 / (m + 1) for m in range(p)))
    values = (green(model, t, 0), xi(model, p, t, 0), general_solution(problem, t),
              general_solution_kittappa(problem, t))
    assert tuple(v.hex() for v in values) == expected


def test_period_skip_is_taken(monkeypatch):
    # Each chain step clears its row's denominators with one math.lcm call;
    # the skip reads one period of rows, whatever t - s is (10^5 calls at
    # t - s = 10^5 without it).
    rows = [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 3),) * 3]
    model = CoefficientModel.periodic(rows)
    same_rows = CoefficientModel(3, lambda t: rows[t % 2], "rational")
    assert (model.period, same_rows.period) == (2, None)
    calls = []
    lcm = math.lcm

    def counting_lcm(*args):
        calls.append(len(args))
        return lcm(*args)

    monkeypatch.setattr(math, "lcm", counting_lcm)
    values = {}
    for t in (10**4, 10**5):
        calls.clear()
        values[t] = green(model, t, 0)
        assert len(calls) <= 2 * (model.period + model.p + 1), (t, len(calls))
    monkeypatch.setattr(math, "lcm", lcm)
    assert values[10**4] == green(same_rows, 10**4, 0)
    assert values[10**5].denominator.bit_length() > 10**5


def test_homogeneous_solution_routes_skip_periods(monkeypatch):
    # Past the initial terms column 1 of the bordered chain is zero, and the
    # Green's-function route needs only the last p minors of the adjoint
    # chain: on a homogeneous problem both skip periods, so their math.lcm
    # calls stay bounded whatever t - s is.
    rows = [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 3),) * 3]
    lcm = math.lcm
    calls = []

    def counting_lcm(*args):
        calls.append(len(args))
        return lcm(*args)

    for model in (CoefficientModel.constant(rows[0]), CoefficientModel.periodic(rows)):
        problem = SolutionProblem(model, 0, (Fraction(1), Fraction(-1, 2), Fraction(2)))
        t = first_skip(model.p, model.period) + 10**4
        for route in (general_solution_kittappa, general_solution):
            calls.clear()
            monkeypatch.setattr(math, "lcm", counting_lcm)
            value = route(problem, t)
            monkeypatch.setattr(math, "lcm", lcm)
            assert len(calls) <= 2 * (model.period + model.p + 1), (route.__name__, len(calls))
            assert value == homogeneous_solution(problem, t)


def test_bare_constructor_models_never_skip(tmp_path, capsys):
    # Periodic rows except one far past the start: only a declared period
    # may be skipped, and the bare constructor declares none.
    cycle = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(2, 3))]
    bump = 150

    def row_fn(t):
        a, b = cycle[t % 2]
        return (a + 1, b) if t == bump else (a, b)

    model = CoefficientModel(2, row_fn, "rational")
    assert model.period is None
    assert green(model, 400, 0) == recursion_oracle(unit_problem(model, 0, 1), 400)
    constant = CoefficientModel.constant((Fraction(1, 2),))
    assert constant.period == 1
    with pytest.raises(AttributeError):
        model.period = 2  # no caller may declare a period
    assert _corrupted(constant, 0).period is None
    assert counting_model(2)[0].period is None
    # verify --corrupt on a constant p = 1 model at a horizon where the
    # unmodified model skips periods still fails
    t = 14
    assert t - 2 >= first_skip(1, 1)  # column 1 dies at step 2
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"p": 1, "kind": "constant", "phi": ["1/2"]}))
    argv = ["verify", "--coeffs", str(coeffs), "--t", str(t), "--s", "0"]
    assert main(argv) == 0
    assert main(argv + ["--corrupt"]) == 1
    failed = [c for c in json.loads(capsys.readouterr().out.splitlines()[-1])["checks"]
              if not c["passed"]]
    assert [c["name"] for c in failed] == ["green-four-way"]


def test_symbolic_models_never_skip():
    # Symbolic constant and periodic models have no period: past the skip
    # threshold their chains and Abel product run step by step.
    a, b = phi_sym(1, 0), phi_sym(2, 0)
    for model, t in ((CoefficientModel.constant((a,)), 10 + first_skip(1, 1)),
                     (CoefficientModel.periodic([(a, b), (b, a)]), 4 + first_skip(2, 2))):
        assert model.period is None
        p = model.p
        chains = [principal_chain(model, m, t, 0) for m in range(1, p + 1)]
        assert green(model, t, 0) == chains[0][-1]
        matrix = casorati(model, t, 0)
        for i in range(p):
            for j in range(p):
                assert matrix.entries[i][j] == chains[j][t - i]
        product = model.one
        for u in range(1, t + 1):
            product = product * model.phi(p, u)
        assert matrix.abel == (-product if p % 2 == 0 and t % 2 else product)


def identical(a, b):
    """Equal values of one type; floats bit for bit."""
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


@PROPERTY_SETTINGS
@given(st.sampled_from(["rational", "float64", "symbolic"]), st.data())
def test_fundamental_set_shares_one_window_rule(arith, data):
    # H(t, s) is the first fundamental solution: each Casorati entry is xi at
    # its own time, and every route answers a window time t <= s with the
    # window value, for gaps t - s = 0..p+1 where the domain allows.
    if arith == "symbolic":
        model = CoefficientModel.symbolic(data.draw(st.integers(1, 4)))
        p, s = model.p, data.draw(st.integers(-3, 3))
        t_max = s + p + 1
        problem = SolutionProblem.symbolic(model, s)
    else:
        model = data.draw(tables(max_p=4, arith=arith))
        p, t_max = model.p, model.t_max
        s = data.draw(st.integers(model.t_min + p - 1, max(model.t_min + p - 1, t_max - p - 1)))
        given = values if arith == "rational" else float_values
        init = tuple(data.draw(given) for _ in range(p))
        forcing = data.draw(st.one_of(st.none(), st.just({u: model.one for u in
                                                           range(s + 1, t_max + 1)})))
        problem = SolutionProblem(model, s, init, forcing)
    for t in range(s, min(s + p + 1, t_max) + 1):
        entries = casorati(model, t, s).entries
        for i in range(p):
            for m in range(1, p + 1):
                assert identical(entries[i][m - 1], xi(model, m, t - i, s)), (t, i, m)
    for t in range(s - p + 1, s + 1):
        window = model.one if t == s else model.zero
        for method in GREEN_METHODS:
            assert identical(evaluate_green(model, t, s, method), window), (t, method)
        for method in SOLVE_METHODS:
            assert identical(evaluate_solution(problem, t, method),
                             problem.prescribed(t)), (t, method)
        for route in (general_solution, general_solution_kittappa):
            assert identical(route(problem, t), problem.prescribed(t)), (t, route.__name__)
    for route in (general_solution, general_solution_kittappa):
        with pytest.raises(DomainError):
            route(problem, s - p)
    for method in GREEN_METHODS:
        with pytest.raises(DomainError):
            evaluate_green(model, s - p, s, method)
    for method in SOLVE_METHODS:
        with pytest.raises(DomainError):
            evaluate_solution(problem, s - p, method)
