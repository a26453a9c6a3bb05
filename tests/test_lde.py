"""Fundamental solutions, Green's function routes, and solution equivalences."""

from fractions import Fraction
from random import Random

import pytest

from vclde import (
    BackendMismatchError,
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
    particular_solution,
    xi,
)
from vclde.coefficients import build_phi_matrix
from vclde.hessenberg import det_recurrence
from vclde.lde import principal_chain
from vclde.oracles import companion_product, recursion_oracle
from vclde.scalar import TermSum, phi_sym, v_sym, y_sym
from testutil import (
    float_model,
    float_problem,
    homogeneous_solution,
    random_model,
    random_problem,
    random_rows,
    xi_via_green,
    zero_init,
)


def fib_model():
    return CoefficientModel.constant((Fraction(1), Fraction(1)))


def expected_green_5_2() -> TermSum:
    return (
        phi_sym(1, 3) * phi_sym(1, 4) * phi_sym(1, 5)
        + phi_sym(1, 5) * phi_sym(2, 4)
        + phi_sym(1, 3) * phi_sym(2, 5)
    )


def expected_solution_5() -> TermSum:
    """The known-good nine-term expansion of y_5 for p=2, s=2."""
    y1, y2 = y_sym(1), y_sym(2)
    return (
        phi_sym(1, 4) * phi_sym(1, 5) * phi_sym(2, 3) * y1
        + phi_sym(2, 3) * phi_sym(2, 5) * y1
        + phi_sym(1, 3) * phi_sym(1, 4) * phi_sym(1, 5) * y2
        + phi_sym(1, 5) * phi_sym(2, 4) * y2
        + phi_sym(1, 3) * phi_sym(2, 5) * y2
        + v_sym(4) * phi_sym(1, 5)
        + v_sym(3) * phi_sym(1, 4) * phi_sym(1, 5)
        + v_sym(3) * phi_sym(2, 5)
        + v_sym(5)
    )


def test_xi_initial_window():
    model = CoefficientModel.constant(tuple(Fraction(n) for n in (2, 3, 5)))
    s = 4
    for m in range(1, 4):
        for t in range(s - 2, s + 1):
            expected = Fraction(1) if t == s - m + 1 else Fraction(0)
            assert xi(model, m, t, s) == expected
    with pytest.raises(DomainError):
        xi(model, 1, s - 3, s)
    with pytest.raises(DomainError):
        xi(model, 4, s + 1, s)


def test_xi_geometric_first_order():
    model = CoefficientModel.constant((Fraction(3, 2),))
    for gap in range(1, 8):
        assert xi(model, 1, gap, 0) == Fraction(3, 2) ** gap


def test_xi_fibonacci_values():
    model = fib_model()
    assert [xi(model, 1, t, 0) for t in range(1, 5)] == [1, 2, 3, 5]
    assert [xi(model, 2, t, 0) for t in range(1, 5)] == [1, 1, 2, 3]


def test_principal_chain_matches_matrix_determinants():
    rng = Random(20240815)
    for p in (1, 2, 3):
        model = random_model(rng, p, 0, 12)
        chain = principal_chain(model, 1, 8, 1)
        for n in range(1, 8):
            block = build_phi_matrix(model, 1, 1 + n, 1)
            assert chain[n] == det_recurrence(block)


def test_green_window_and_symbolic_expansion():
    model = CoefficientModel.symbolic(2)
    assert green(model, 4, 4) == TermSum.constant(1)
    assert green(model, 3, 4) == TermSum()
    assert green(model, 5, 2) == expected_green_5_2()


def test_green_first_order_power():
    model = CoefficientModel.constant((Fraction(2),))
    assert green(model, 5, 0) == 32


def test_green_leibnizian_routes():
    model = CoefficientModel.symbolic(2)
    assert evaluate_green(model, 3, 2, "leibnizian") == phi_sym(1, 3)
    assert evaluate_green(model, 5, 2, "leibnizian") == expected_green_5_2()
    rng = Random(20240816)
    for _ in range(8):
        numeric = random_model(rng, 3, 0, 12)
        assert evaluate_green(numeric, 9, 2, "leibnizian") == green(numeric, 9, 2)


def test_xi_via_green_identities():
    first_order = CoefficientModel.constant((Fraction(5, 3),))
    assert xi_via_green(first_order, 1, 6, 2) == green(first_order, 6, 2)
    symbolic = CoefficientModel.symbolic(2)
    matrix = build_phi_matrix(symbolic, 2, 5, 2)
    assert xi_via_green(symbolic, 2, 5, 2) == det_recurrence(matrix)
    rng = Random(20240817)
    for p in (1, 2, 3, 4):
        model = random_model(rng, p, -1, 14)
        for m in range(1, p + 1):
            assert xi_via_green(model, m, 9, 1) == xi(model, m, 9, 1)
            # H(t, s+j) = 0 for s+j > t, so no row past t = t_max is read
            assert xi_via_green(model, m, 14, 13) == xi(model, m, 14, 13)


def test_casorati_identity_at_anchor():
    model = CoefficientModel.constant(tuple(Fraction(n) for n in (1, 2, 3)))
    matrix = casorati(model, 5, 5)
    for i in range(3):
        for j in range(3):
            assert matrix.entries[i][j] == (1 if i == j else 0)
    assert matrix.casoratian() == 1


def test_casorati_first_order():
    model = CoefficientModel.constant((Fraction(7, 2),))
    matrix = casorati(model, 4, 1)
    assert matrix.entries == ((green(model, 4, 1),),)


def test_casoratian_nonzero_random():
    # the guarantee needs a genuinely order-p equation: phi_p(t) != 0
    rng = Random(20240818)
    for p in (1, 2, 3, 4):
        model = random_model(rng, p, 0, 10, regular=True)
        for gap in range(0, 7 - p):
            assert casorati(model, 2 + gap, 2).casoratian() != 0


@pytest.mark.parametrize("p", [2, 3])
def test_abel_product_in_row_order(p):
    # casorati multiplies phi_p(s+1), ..., phi_p(t) left to right, so a float
    # Casoratian equals that plain product bit for bit, zero rows included,
    # and a horizon past the table raises DomainError.
    rng = Random(31 + p)
    rows = {u: tuple(rng.uniform(-2.0, 2.0) for _ in range(p)) for u in range(41)}
    for u in (17, 23):
        rows[u] = rows[u][:-1] + (0.0,)
    table = CoefficientModel.from_table(rows)
    periodic = CoefficientModel.periodic([rows[u] for u in range(1, 8)])
    for model in (table, periodic):
        for s, t in ((0, 40), (0, 16), (17, 40), (18, 39), (3, 3)):
            det = 1.0
            for u in range(s + 1, t + 1):
                det = det * model.phi(p, u)
            if p % 2 == 0 and (t - s) % 2:
                det = -det
            matrix = casorati(model, t, s)
            assert matrix.casoratian().hex() == (det or 0.0).hex()
    for s, t in ((0, 41), (35, 45), (-3, 3)):
        with pytest.raises(DomainError, match="outside the declared domain"):
            casorati(table, t, s)


def test_companion_single_factor():
    model = CoefficientModel.symbolic(2)
    product = companion_product(model, 3, 2)
    assert product == ((phi_sym(1, 3), phi_sym(2, 3)), (TermSum.constant(1), TermSum()))
    assert product[0][0] == phi_sym(1, 3) == green(model, 3, 2)
    assert product[1][0] == TermSum.constant(1)
    with pytest.raises(DomainError, match="requires t > s, got t=2, s=2"):
        companion_product(model, 2, 2)


def test_companion_two_step_top_left():
    model = CoefficientModel.symbolic(2)
    product = companion_product(model, 4, 2)
    expected = phi_sym(1, 4) * phi_sym(1, 3) + phi_sym(2, 4)
    assert product[0][0] == expected


def test_companion_equals_casorati():
    rng = Random(20240819)
    for p in (1, 2, 3, 4):
        model = random_model(rng, p, -2, 12)
        for gap in (1, 4, 8):
            t, s = gap, 0
            product = companion_product(model, t, s)
            fundamental = casorati(model, t, s).entries
            assert product == fundamental


def test_homogeneous_solution_window_and_recursion():
    rng = Random(20240820)
    model = random_model(rng, 2, -1, 12)
    problem = random_problem(rng, model, s=0, t_max=10, homogeneous=True)
    assert homogeneous_solution(problem, -1) == problem.init[0]
    assert homogeneous_solution(problem, 0) == problem.init[1]
    for t in range(1, 11):
        assert homogeneous_solution(problem, t) == recursion_oracle(problem, t)


def test_homogeneous_zero_window_is_zero():
    model = fib_model()
    problem = SolutionProblem(model, 0, (Fraction(0), Fraction(0)))
    for t in range(1, 8):
        assert homogeneous_solution(problem, t) == 0
    # a homogeneous problem's forcing is zero at every t past its anchor
    assert type(problem.forcing_value(5)) is Fraction
    assert problem.forcing_value(5) == 0


def test_homogeneous_rejects_forcing():
    model = fib_model()
    problem = SolutionProblem(model, 0, (Fraction(1), Fraction(1)), {1: Fraction(1)})
    with pytest.raises(DomainError):
        homogeneous_solution(problem, 3)


def test_homogeneous_green_first_order():
    model = CoefficientModel.constant((Fraction(4, 3),))
    problem = SolutionProblem(model, 2, (Fraction(5),))
    for t in range(3, 8):
        assert general_solution(problem, t) == green(model, t, 2) * 5


def test_homogeneous_green_symbolic_part():
    model = CoefficientModel.symbolic(2)
    problem = SolutionProblem(model, 2, (y_sym(1), y_sym(2)))
    y1, y2 = y_sym(1), y_sym(2)
    expected = (
        phi_sym(1, 4) * phi_sym(1, 5) * phi_sym(2, 3) * y1
        + phi_sym(2, 3) * phi_sym(2, 5) * y1
        + phi_sym(1, 3) * phi_sym(1, 4) * phi_sym(1, 5) * y2
        + phi_sym(1, 5) * phi_sym(2, 4) * y2
        + phi_sym(1, 3) * phi_sym(2, 5) * y2
    )
    assert general_solution(problem, 5) == expected
    assert homogeneous_solution(problem, 5) == expected


def test_particular_solution_basics():
    model = fib_model()
    zero_forcing = SolutionProblem(
        model, 0, (Fraction(1), Fraction(1)), {t: Fraction(0) for t in range(1, 6)}
    )
    # the zero initial values are the solution on the window
    for t in range(-1, 6):
        assert particular_solution(zero_forcing, t) == 0
    with pytest.raises(DomainError):
        particular_solution(zero_forcing, -2)


def test_particular_solution_symbolic():
    model = CoefficientModel.symbolic(2)
    problem = SolutionProblem.symbolic(model, 2)
    expected = (
        v_sym(4) * phi_sym(1, 5)
        + v_sym(3) * phi_sym(1, 4) * phi_sym(1, 5)
        + v_sym(3) * phi_sym(2, 5)
        + v_sym(5)
    )
    assert particular_solution(problem, 5) == expected


def test_particular_solution_det_routes():
    # the particular solution as one bordered determinant: Kittappa's
    # route on the problem with zero initial values
    model = CoefficientModel.symbolic(2)
    problem = SolutionProblem.symbolic(model, 2)
    assert general_solution_kittappa(zero_init(problem), 3) == v_sym(3)
    assert general_solution_kittappa(zero_init(problem), 5) == particular_solution(problem, 5)
    rng = Random(20240821)
    for p in (1, 2, 3):
        numeric = random_model(rng, p, -4, 12)
        prob = random_problem(rng, numeric, s=1, t_max=9)
        for t in (2, 5, 9):
            assert general_solution_kittappa(zero_init(prob), t) == particular_solution(prob, t)


def test_missing_forcing_is_hard_error():
    model = fib_model()
    problem = SolutionProblem(model, 0, (Fraction(1), Fraction(1)), {1: Fraction(2)})
    with pytest.raises(MissingForcingError) as info:
        particular_solution(problem, 3)
    assert info.value.t == 2
    with pytest.raises(MissingForcingError):
        general_solution(problem, 2)
    with pytest.raises(MissingForcingError):
        recursion_oracle(problem, 2)


def test_forcing_keys_must_follow_anchor():
    model = fib_model()
    with pytest.raises(DomainError):
        SolutionProblem(model, 3, (Fraction(1), Fraction(1)), {3: Fraction(1)})
    problem = SolutionProblem(model, 3, (Fraction(1), Fraction(1)), {4: Fraction(1)})
    with pytest.raises(DomainError, match="forcing is defined only for t > s, got t=3"):
        problem.forcing_value(3)


def test_anchor_must_fit_domain():
    model = CoefficientModel.from_table(random_rows(Random(0), 2, 5, 15))
    with pytest.raises(DomainError):
        SolutionProblem(model, 5, (Fraction(1), Fraction(0)))
    SolutionProblem(model, 6, (Fraction(1), Fraction(0)))


def test_general_solution_golden_nine_terms():
    model = CoefficientModel.symbolic(2)
    problem = SolutionProblem.symbolic(model, 2)
    expected = expected_solution_5()
    assert general_solution(problem, 5) == expected
    assert recursion_oracle(problem, 5) == expected
    assert general_solution_kittappa(problem, 5) == expected
    assert evaluate_solution(problem, 5, "leibnizian") == expected
    assert evaluate_solution(problem, 5, "nested") == expected


def test_general_solution_reduces_to_homogeneous():
    rng = Random(20240822)
    model = random_model(rng, 3, -2, 12)
    problem = random_problem(rng, model, s=0, t_max=9, homogeneous=True)
    for t in (1, 5, 9):
        assert general_solution(problem, t) == homogeneous_solution(problem, t)


def test_kittappa_reductions():
    model = CoefficientModel.symbolic(2)
    zero_init = SolutionProblem(
        model, 2, (TermSum(), TermSum()), v_sym
    )
    assert general_solution_kittappa(zero_init, 5) == particular_solution(zero_init, 5)
    geom = CoefficientModel.constant((Fraction(3),))
    no_forcing = SolutionProblem(geom, 0, (Fraction(5),))
    assert general_solution_kittappa(no_forcing, 4) == 5 * Fraction(3) ** 4


def test_bordered_routes_reject_mixed_backends():
    # rejected where the problem is built, so no route ever sees the values
    model = CoefficientModel.constant((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(BackendMismatchError):
        SolutionProblem(model, 0, (Fraction(1), Fraction(2)), {1: 0.5, 2: 0.5})
    with pytest.raises(BackendMismatchError):
        SolutionProblem(model, 0, (0.5, 1.0), {1: Fraction(1), 2: Fraction(1)})
    with pytest.raises(BackendMismatchError):
        SolutionProblem(model, 0, (0.5, 1.0))


def test_callable_forcing_rejects_mixed_backends():
    model = CoefficientModel.constant((Fraction(1, 2), Fraction(1, 3)))
    problem = SolutionProblem(model, 0, (Fraction(1), Fraction(2)), lambda t: 0.5)
    for route in (general_solution, recursion_oracle, general_solution_kittappa):
        with pytest.raises(BackendMismatchError):
            route(problem, 3)


def test_solution_single_step():
    model = CoefficientModel.symbolic(2)
    problem = SolutionProblem.symbolic(model, 2)
    expected = phi_sym(1, 3) * y_sym(2) + phi_sym(2, 3) * y_sym(1) + v_sym(3)
    for method in ("green", "kittappa", "leibnizian", "nested", "recursion"):
        assert evaluate_solution(problem, 3, method) == expected


def test_recursion_oracle_window_and_fibonacci():
    model = fib_model()
    problem = SolutionProblem(model, 0, (Fraction(0), Fraction(1)))
    assert recursion_oracle(problem, -1) == 0
    assert recursion_oracle(problem, 0) == 1
    assert [recursion_oracle(problem, t) for t in range(1, 5)] == [1, 2, 3, 5]


def test_five_way_agreement_random_rational():
    rng = Random(20240823)
    for trial in range(12):
        p = rng.randint(1, 4)
        model = random_model(rng, p, -4, 16)
        s = rng.randint(-1, 2)
        t = s + rng.randint(p, 10)
        problem = random_problem(rng, model, s=s, t_max=t)
        reference = recursion_oracle(problem, t)
        assert general_solution(problem, t) == reference
        assert general_solution_kittappa(problem, t) == reference
        assert evaluate_solution(problem, t, "leibnizian") == reference
        assert evaluate_solution(problem, t, "nested") == reference


def test_five_way_agreement_short_horizon():
    # t - s below the order: window Green values enter the expansions
    rng = Random(20240828)
    model = random_model(rng, 4, -6, 8)
    problem = random_problem(rng, model, s=0, t_max=2)
    for t in (1, 2):
        reference = recursion_oracle(problem, t)
        assert general_solution(problem, t) == reference
        assert general_solution_kittappa(problem, t) == reference
        assert evaluate_solution(problem, t, "leibnizian") == reference
        assert evaluate_solution(problem, t, "nested") == reference


def test_solution_window_values_are_prescribed():
    rng = Random(20240829)
    model = random_model(rng, 3, -6, 8)
    problem = random_problem(rng, model, s=0, t_max=4)
    homogeneous = SolutionProblem(model, 0, problem.init)
    for t in (-2, -1, 0):
        assert general_solution(problem, t) == problem.prescribed(t)
        assert evaluate_solution(problem, t, "recursion") == problem.prescribed(t)
        assert general_solution(homogeneous, t) == problem.prescribed(t)
    for t in (-3, 1):
        with pytest.raises(DomainError, match=f"t={t} outside the initial window"):
            problem.prescribed(t)


def test_float_paths_close():
    rng = Random(20240824)
    rows = random_rows(rng, 2, -2, 12)
    model = float_model(rows)
    exact = CoefficientModel.from_table(rows)
    problem = float_problem(random_problem(rng, exact, s=0, t_max=8), model)
    reference = recursion_oracle(problem, 8)
    for method in ("green", "kittappa", "leibnizian", "nested"):
        value = evaluate_solution(problem, 8, method)
        assert abs(value - reference) <= 1e-9 * max(abs(value), abs(reference), 1e-3)


def test_fundamental_solution_recurrence_property():
    rng = Random(20240825)
    for p in (1, 2, 3, 4):
        model = random_model(rng, p, -4, 14)
        s = 0
        for m in range(1, p + 1):
            for t in range(s + 1, s + 9):
                total = Fraction(0)
                for r in range(1, p + 1):
                    total += model.phi(r, t) * xi(model, m, t - r, s)
                assert xi(model, m, t, s) == total


def test_evaluate_green_window_any_method():
    model = CoefficientModel.constant((Fraction(1), Fraction(1)))
    for method in ("recurrence", "leibnizian", "nested", "companion"):
        assert evaluate_green(model, 3, 3, method) == 1
        assert evaluate_green(model, 2, 3, method) == 0
    with pytest.raises(DomainError):
        evaluate_green(model, 1, 3)
    with pytest.raises(ValueError):
        evaluate_green(model, 5, 3, "magic")
    problem = SolutionProblem(model, 3, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="unknown solve method 'bogus'"):
        evaluate_solution(problem, 5, "bogus")
