"""Acceptance criteria: oracle- and golden-file-based checks with the stated
tolerances and runtime budgets.  One pass/fail line is printed per criterion
(visible with ``pytest -s`` or in captured output)."""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

import vclde
from vclde import (
    CoefficientModel,
    SolutionProblem,
    casorati,
    evaluate_solution,
    general_solution,
    general_solution_kittappa,
    green,
    xi,
)
from vclde.hessenberg import det_leibniz_oracle, det_recurrence
from vclde.leibnizian import det_leibnizian
from vclde.nested_sum import det_nested_sum
from vclde.oracles import companion_product, recursion_oracle
from testutil import (
    Permutation,
    float_model,
    float_problem,
    mask_from_index,
    mask_from_sep,
    random_hessenberg,
    random_model,
    random_problem,
    random_rows,
    sep_from_mask,
    term_sum_from_json,
    validate_string_properties,
    zero_run,
    zero_run_piecewise,
)

from test_leibnizian import k4_expected
from test_lde import expected_green_5_2, expected_solution_5


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def run_cli(args):
    # the child imports the same vclde as this process, installed or not
    src = str(Path(vclde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "vclde", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_1_expand_golden():
    with criterion(1, "expand --order 4 emits the eight signed order-4 terms and TRUE"):
        start = time.perf_counter()
        result = run_cli(["expand", "--order", "4"])
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verified"] is True
        assert payload["count"] == 8
        assert term_sum_from_json(payload["terms"]) == k4_expected()
        pretty = run_cli(["expand", "--order", "4", "--pretty"])
        assert pretty.stdout.strip().splitlines()[-1] == "TRUE"
        assert elapsed < 1.0, f"expand took {elapsed:.3f}s"


def test_criterion_2_symbolic_golden():
    with criterion(2, "symbolic p=2, t=5, s=2 matches the expected H and y_5 expansions"):
        model = CoefficientModel.symbolic(2)
        problem = SolutionProblem.symbolic(model, 2)
        start = time.perf_counter()
        h = green(model, 5, 2)
        y5 = general_solution(problem, 5)
        recursion = recursion_oracle(problem, 5)
        elapsed = time.perf_counter() - start
        assert h == expected_green_5_2()
        assert y5 == expected_solution_5()
        assert recursion == expected_solution_5()
        assert elapsed < 1.0, f"symbolic run took {elapsed:.3f}s"
        # the same expansions through the CLI
        out = run_cli(["green", "--p", "2", "--t", "5", "--s", "2", "--arith", "symbolic"])
        assert term_sum_from_json(json.loads(out.stdout)["H"]) == expected_green_5_2()
        out = run_cli(["solve", "--p", "2", "--t", "5", "--s", "2", "--arith", "symbolic"])
        assert term_sum_from_json(json.loads(out.stdout)["y"]) == expected_solution_5()


def test_criterion_3_determinant_oracle_equivalence():
    with criterion(3, "200 random matrices per order k=1..8, three-way exact"):
        rng = Random(3_2024)
        start = time.perf_counter()
        for k in range(1, 9):
            for _ in range(200):
                matrix = random_hessenberg(rng, k)
                reference = det_recurrence(matrix)
                assert det_leibnizian(matrix) == reference
                assert det_leibniz_oracle(matrix) == reference
                banded_form = random_hessenberg(rng, k, superdiag=-1)
                assert det_nested_sum(banded_form) == det_recurrence(banded_form)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_bijection_exhaustives():
    with criterion(4, "bijections and zero-run forms, exhaustive k<=12"):
        start = time.perf_counter()
        for k in range(1, 13):
            masks = set()
            for m in range(1 << (k - 1)):
                mask = mask_from_index(k, m)
                masks.add(mask)
                term = sep_from_mask(k, mask)
                assert mask_from_sep(term) == mask
                cols = term.columns
                assert sorted(cols) == list(range(1, k + 1))
                assert term.sign == Permutation(cols).sign
                for i in range(1, k + 1):
                    assert zero_run(k, i, mask) == zero_run_piecewise(k, i, mask)
            assert len(masks) == 1 << (k - 1)
            assert all(r[-1] == 1 for r in masks)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_string_properties():
    with criterion(5, "string-structure properties 1-3 for all SEPs, k<=12"):
        for k in range(1, 13):
            report = validate_string_properties(k)
            assert report.all_passed, report


def test_criterion_6_companion_identity_at_scale():
    with criterion(6, "100 random models: H equals companion top-left, F = Xi"):
        rng = Random(6_2024)
        start = time.perf_counter()
        for trial in range(100):
            p = rng.randint(1, 4)
            model = random_model(rng, p, -4, 12)
            s = rng.randint(-2, 2)
            t = s + rng.randint(1, 8)
            product = companion_product(model, t, s)
            assert green(model, t, s) == product[0][0]
            fundamental = casorati(model, t, s).entries
            assert product == fundamental
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_solution_equivalence():
    with criterion(7, "100 random problems: five paths exact + float-close"):
        rng = Random(7_2024)
        start = time.perf_counter()
        for trial in range(100):
            p = rng.randint(1, 4)
            gap = rng.randint(p, 12)
            s = rng.randint(-2, 2)
            rows = random_rows(rng, p, s - p, s + gap + 1)
            model = CoefficientModel.from_table(rows)
            problem = random_problem(rng, model, s=s, t_max=s + gap)
            t = s + gap
            reference = recursion_oracle(problem, t)
            assert general_solution(problem, t) == reference
            assert general_solution_kittappa(problem, t) == reference
            assert evaluate_solution(problem, t, "leibnizian") == reference
            assert evaluate_solution(problem, t, "nested") == reference
            fproblem = float_problem(problem, float_model(rows))
            fref = recursion_oracle(fproblem, t)
            for method in ("green", "kittappa", "leibnizian", "nested"):
                value = evaluate_solution(fproblem, t, method)
                assert math.isclose(value, fref, rel_tol=1e-9, abs_tol=1e-12), (
                    f"trial {trial}: {method} gave {value}, recursion {fref}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_fundamental_set_properties():
    with criterion(8, "fundamental solutions: recurrence, window, Casoratian"):
        rng = Random(8_2024)
        for trial in range(25):
            p = rng.randint(1, 4)
            model = random_model(rng, p, -6, 12, regular=True)
            s = rng.randint(-2, 1)
            for m in range(1, p + 1):
                # initial window: 1 at t = s-m+1, 0 elsewhere
                for t in range(s - p + 1, s + 1):
                    expected = Fraction(1) if t == s - m + 1 else Fraction(0)
                    assert xi(model, m, t, s) == expected
                # the recurrence holds at every step past the anchor
                for t in range(s + 1, s + 9):
                    total = Fraction(0)
                    for r in range(1, p + 1):
                        total += model.phi(r, t) * xi(model, m, t - r, s)
                    assert xi(model, m, t, s) == total
            for gap in range(0, 7):
                assert casorati(model, s + gap, s).casoratian() != 0


def test_criterion_9_banded_path_performance():
    with criterion(9, "H(t,s) for p=4, t-s=100000 in binary64 under 1s"):
        model = CoefficientModel.constant((0.25, 0.25, 0.25, 0.25))
        start = time.perf_counter()
        value = green(model, 100_000, 0)
        elapsed = time.perf_counter() - start
        assert math.isfinite(value)
        assert value > 0.0
        assert elapsed < 1.0, f"banded evaluation took {elapsed:.3f}s"
