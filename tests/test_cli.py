"""End-to-end CLI behaviour: payloads, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from vclde import CoefficientModel, SolutionProblem, casorati, cli, evaluate_green
from vclde.cli import load_coefficients, load_problem, main
from vclde.hessenberg import HessenbergMatrix
from vclde.leibnizian import det_leibnizian
from vclde.scalar import (TermSum, format_rational, h_sym, render_scalar,
                          scalar_from_json, term_sum_json_chunks)
from testutil import (enumerate_seps, random_rows, reference_json_text, term_sum_dicts,
                      term_sum_from_json)

from test_lde import expected_green_5_2, expected_solution_5


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fib_coeffs(tmp_path):
    return write_json(tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": ["1", "1"]})


@pytest.fixture
def fib_problem(tmp_path):
    return write_json(
        tmp_path / "p.json",
        {"s": 0, "init": ["0", "1"], "forcing": {str(t): "0" for t in range(1, 7)}},
    )


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_green_constant_first_order(tmp_path, capsys):
    coeffs = write_json(tmp_path / "c.json", {"p": 1, "kind": "constant", "phi": ["2"]})
    code, out, _ = run_cli(capsys, ["green", "--coeffs", coeffs, "--t", "5", "--s", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["H"] == "32"
    assert payload["method"] == "recurrence"


def test_green_fibonacci_all_methods(fib_coeffs, capsys):
    for method in ("recurrence", "leibnizian", "nested", "companion"):
        code, out, _ = run_cli(
            capsys,
            ["green", "--coeffs", fib_coeffs, "--t", "4", "--s", "0", "--method", method],
        )
        assert code == 0
        assert json.loads(out)["H"] == "5"


def test_green_at_anchor_is_one(fib_coeffs, capsys):
    code, out, _ = run_cli(capsys, ["green", "--coeffs", fib_coeffs, "--t", "3", "--s", "3"])
    assert code == 0
    assert json.loads(out)["H"] == "1"


def test_green_symbolic_matches_printed_expansion(fib_coeffs, capsys):
    code, out, _ = run_cli(
        capsys,
        ["green", "--coeffs", fib_coeffs, "--t", "5", "--s", "2", "--arith", "symbolic"],
    )
    assert code == 0
    assert term_sum_from_json(json.loads(out)["H"]) == expected_green_5_2()


def test_solve_zero_problem(fib_coeffs, tmp_path, capsys):
    problem = write_json(
        tmp_path / "p0.json",
        {"s": 0, "init": ["0", "0"], "forcing": {str(t): "0" for t in range(1, 5)}},
    )
    code, out, _ = run_cli(
        capsys, ["solve", "--coeffs", fib_coeffs, "--problem", problem, "--t", "4"]
    )
    assert code == 0
    assert json.loads(out)["y"] == "0"


def test_solve_methods_byte_identical(tmp_path, capsys):
    rng = Random(20240826)
    rows = random_rows(rng, 3, -3, 9, regular=True)
    coeffs = write_json(
        tmp_path / "c.json",
        {
            "p": 3,
            "kind": "table",
            "rows": {str(t): [str(v) for v in row] for t, row in rows.items()},
        },
    )
    problem = write_json(
        tmp_path / "p.json",
        {
            "s": 0,
            "init": ["1/2", "-2/3", "3"],
            "forcing": {str(t): str(Fraction(t, 3)) for t in range(1, 10)},
        },
    )
    outputs = set()
    for method in ("green", "kittappa", "leibnizian", "nested", "recursion"):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--coeffs", coeffs, "--problem", problem, "--t", "9", "--method", method],
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_solve_symbolic_second_order_run(fib_coeffs, capsys):
    code, out, _ = run_cli(
        capsys,
        ["solve", "--coeffs", fib_coeffs, "--t", "5", "--s", "2", "--arith", "symbolic"],
    )
    assert code == 0
    assert term_sum_from_json(json.loads(out)["y"]) == expected_solution_5()


def test_solve_missing_forcing_exit_4(fib_coeffs, tmp_path, capsys):
    problem = write_json(
        tmp_path / "gap.json",
        {"s": 0, "init": ["1", "1"], "forcing": {"1": "1", "3": "1"}},
    )
    code, out, err = run_cli(
        capsys, ["solve", "--coeffs", fib_coeffs, "--problem", problem, "--t", "3"]
    )
    assert code == 4
    assert out == ""
    body = json.loads(err)
    assert body["error"] == "missing-forcing"
    assert body["t"] == 2


def test_parse_error_exit_2(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # the decoder recurses once per level of nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # a JSON true is no integer, for "p" and for "period" alike
    bool_p = write_json(tmp_path / "bool-p.json", {"p": True, "kind": "constant", "phi": ["2"]})
    bool_period = write_json(tmp_path / "bool-period.json",
                             {"p": 1, "kind": "periodic", "period": True, "rows": [["2"]]})
    # a rejected value is quoted by at most about 40 characters
    huge = "9" * 100_000
    long_p = write_json(tmp_path / "long-p.json", {"p": huge, "kind": "constant", "phi": ["2"]})
    long_period = write_json(tmp_path / "long-period.json",
                             {"p": 1, "kind": "periodic", "period": huge, "rows": [["2"]]})
    long_s = write_json(tmp_path / "long-s.json", {"s": huge, "init": ["1"]})
    long_kind = write_json(tmp_path / "long-kind.json", {"p": 1, "kind": huge})
    long_row_key = write_json(tmp_path / "long-row-key.json",
                              {"p": 1, "kind": "table", "rows": {huge: ["2"]}})
    long_forcing_key = write_json(tmp_path / "long-forcing-key.json",
                                  {"s": 0, "init": ["1"], "forcing": {huge: "1"}})
    fine = write_json(tmp_path / "fine.json", {"p": 1, "kind": "constant", "phi": ["2"]})
    argvs = [["green", "--coeffs", path, "--t", "3", "--s", "0"]
             for path in (str(bad), str(deep), bool_p, bool_period, long_p, long_period,
                          long_kind, long_row_key)]
    argvs += [["solve", "--coeffs", fine, "--problem", path, "--t", "3"]
              for path in (long_s, long_forcing_key)]
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "invalid-input"
        assert len(err) < 200, argv
    # a periodic file needs one row per phase, and a problem's forcing is an object
    short_periodic = write_json(tmp_path / "short-periodic.json",
                                {"p": 1, "kind": "periodic", "period": 2, "rows": [["2"]]})
    forcing_list = write_json(tmp_path / "forcing-list.json",
                              {"s": 0, "init": ["1"], "forcing": ["1"]})
    for argv, message in (
        (["green", "--coeffs", short_periodic, "--t", "3", "--s", "0"],
         "periodic coefficients need 'rows' with one row per phase"),
        (["solve", "--coeffs", fine, "--problem", forcing_list, "--t", "3"],
         "'forcing' must be an object of t -> value"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": "invalid-input", "message": message}
    # a malformed enumeration limit is refused before any subcommand runs,
    # ahead of its other inputs: here a missing coefficient file
    fine_problem = write_json(tmp_path / "fine-problem.json", {"s": 0, "init": ["1"]})
    for argv in (["green", "--coeffs", fine, "--t", "3", "--s", "0"],
                 ["solve", "--coeffs", fine, "--problem", fine_problem, "--t", "3"],
                 ["fundamental", "--coeffs", fine, "--t", "3", "--s", "0"],
                 ["expand", "--order", "3"],
                 ["verify", "--coeffs", fine, "--t", "3", "--s", "0"]):
        monkeypatch.setenv("VCLDE_ENUM_LIMIT", "9" * 5000)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "invalid-input"
        assert len(err) < 200, argv
        monkeypatch.setenv("VCLDE_ENUM_LIMIT", "abc")
        missing = [str(tmp_path / "missing.json") if a == fine else a for a in argv]
        code, out, err = run_cli(capsys, missing)
        assert (code, out) == (2, ""), missing
        assert json.loads(err) == {"error": "invalid-input",
                                   "message": "VCLDE_ENUM_LIMIT must be an integer, got 'abc'"}


def test_problem_file_must_be_an_object_with_integer_s(fib_coeffs, tmp_path, capsys,
                                                      monkeypatch):
    # a symbolic problem file is read for its anchor s by the same loader as
    # a numeric one, so both report the same error; verify reads it before
    # any route runs
    monkeypatch.setattr("vclde.cli.casorati", None)
    monkeypatch.setattr("vclde.oracles.companion_product", None)
    for doc in ([], {"s": True, "init": ["0", "1"]}, {"init": ["0", "1"]}):
        problem = write_json(tmp_path / "p.json", doc)
        errors = []
        for source in (["--arith", "symbolic", "--p", "2"], ["--coeffs", fib_coeffs]):
            for argv in (["solve", "--problem", problem, "--t", "3"],
                         ["verify", "--problem", problem, "--t", "3", "--s", "0"]):
                code, out, err = run_cli(capsys, argv + source)
                assert (code, out) == (2, ""), (doc, argv + source)
                errors.append(json.loads(err))
        assert all(error == errors[0] for error in errors)
        assert errors[0]["error"] == "invalid-input"


def test_symbolic_verify_reads_problem_files(tmp_path, capsys):
    # verify takes a symbolic problem through the one problem loader: its
    # anchor s, with the symbols y(t) and v(t) as values
    problem = write_json(tmp_path / "p.json", {"s": 0, "init": ["0", "1"]})
    code, out, err = run_cli(capsys, ["verify", "--arith", "symbolic", "--p", "2",
                                      "--problem", problem, "--t", "6", "--s", "0"])
    assert (code, err) == (0, "")
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks["solution-five-way"] is True
    assert all(checks.values())


def test_time_keys_must_be_written_as_str_t(fib_coeffs, tmp_path, capsys):
    # int() reads " 1" and "01" as 1 and "1_0" as 10, so such keys could name
    # the same t as another key, and the last one would win.
    for key in (" 1", "01", "+1", "1_0", "1.0", "one"):
        coeffs = write_json(tmp_path / "c.json", {
            "p": 1, "kind": "table", "rows": {"0": ["2"], "1": ["3"], key: ["5"]}})
        problem = write_json(tmp_path / "p.json", {
            "s": 0, "init": ["0", "1"], "forcing": {"1": "1", key: "7"}})
        for argv in (["green", "--coeffs", coeffs, "--t", "1", "--s", "0"],
                     ["solve", "--coeffs", fib_coeffs, "--problem", problem, "--t", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, ""), (key, argv[0])
            body = json.loads(err)
            assert body["error"] == "invalid-input"
            assert repr(key) in body["message"]
    coeffs = write_json(tmp_path / "c.json", {
        "p": 1, "kind": "table", "rows": {"-1": ["2"], "0": ["3"]}})
    code, out, _ = run_cli(capsys, ["green", "--coeffs", coeffs, "--t", "0", "--s", "-1"])
    assert (code, json.loads(out)["H"]) == (0, "3")


def test_symbolic_horizon_is_guarded(tmp_path, capsys, monkeypatch):
    # A symbolic H(t, s) has a term for each nonzero product of the
    # order-(t-s) expansion, about 1.6^(t-s) of them at p = 2: each symbolic
    # command refuses t - s past the enumeration limit before it computes.
    problem = write_json(tmp_path / "p.json", {"s": 0, "init": ["0", "1"]})
    symbolic = ["--arith", "symbolic", "--p", "2"]
    start = time.perf_counter()
    for argv in (
        ["green", "--t", "40", "--s", "0"],
        ["solve", "--s", "0", "--t", "40"],
        ["solve", "--problem", problem, "--t", "40"],
        ["fundamental", "--t", "40", "--s", "0"],
        ["verify", "--t", "40", "--s", "0"],
        # the problem's own anchor sets the solution's horizon
        ["verify", "--problem", problem, "--t", "40", "--s", "38"],
    ):
        code, out, err = run_cli(capsys, argv + symbolic)
        assert (code, out) == (3, ""), argv
        assert json.loads(err)["error"] == "enum-limit"
    assert time.perf_counter() - start < 10
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "3")
    assert run_cli(capsys, ["green", "--t", "3", "--s", "0"] + symbolic)[0] == 0
    assert run_cli(capsys, ["green", "--t", "4", "--s", "0"] + symbolic)[0] == 3
    assert run_cli(capsys, ["fundamental", "--t", "4", "--s", "0"] + symbolic)[0] == 3


def test_domain_error_exit_2(fib_coeffs, capsys):
    code, _, err = run_cli(capsys, ["green", "--coeffs", fib_coeffs, "--t", "-5", "--s", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"
    # a symbolic solve needs an anchor, and verify a horizon past it
    for argv, message in (
        (["solve", "--arith", "symbolic", "--p", "2", "--t", "4"],
         "symbolic solve needs --s (or a problem file with 's')"),
        (["verify", "--coeffs", fib_coeffs, "--t", "3", "--s", "3"],
         "verification requires t > s, got t=3, s=3"),
        (["verify", "--coeffs", fib_coeffs, "--t", "2", "--s", "3"],
         "verification requires t > s, got t=2, s=3"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": "invalid-input", "message": message}


def test_enum_limit_env_exit_3(fib_coeffs, fib_problem, capsys, monkeypatch):
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "3")
    code, _, err = run_cli(
        capsys,
        ["green", "--coeffs", fib_coeffs, "--t", "8", "--s", "0", "--method", "leibnizian"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "enum-limit"
    # verify refuses such a horizon before any route runs, the companion
    # product above all, which costs far more than the chains at long
    # rational horizons; the solution's expansions reach order t - s - 1 of
    # the problem's own anchor s, here below --s
    monkeypatch.setattr("vclde.cli.casorati", None)
    monkeypatch.setattr("vclde.oracles.companion_product", None)
    for argv in (["--t", "8", "--s", "0"], ["--problem", fib_problem, "--t", "6", "--s", "4"]):
        code, _, err = run_cli(capsys, ["verify", "--coeffs", fib_coeffs] + argv)
        assert code == 3, argv
        assert json.loads(err)["error"] == "enum-limit"
    # expand obeys the limit below its own cap of 12
    assert run_cli(capsys, ["expand", "--order", "3"])[0] == 0
    code, out, err = run_cli(capsys, ["expand", "--order", "4"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "enum-limit",
                               "message": "order 4 exceeds the enumeration limit 3"}


def test_nested_route_enum_limit_exit_3(fib_coeffs, fib_problem, capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["green", "--coeffs", fib_coeffs, "--t", "34", "--s", "0", "--method", "nested"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "enum-limit"
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "3")
    for argv in (
        ["green", "--coeffs", fib_coeffs, "--t", "8", "--s", "0", "--method", "nested"],
        ["solve", "--coeffs", fib_coeffs, "--problem", fib_problem, "--t", "6",
         "--method", "nested"],
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert json.loads(err)["error"] == "enum-limit"


def test_fundamental_order_12_without_permutation_oracle(tmp_path, capsys, monkeypatch):
    import vclde

    def refuse(*args, **kwargs):
        raise AssertionError("the Casoratian must not use the permutation oracle")

    for module in (vclde, vclde.hessenberg, vclde.lde, vclde.cli):
        if hasattr(module, "det_leibniz_oracle"):
            monkeypatch.setattr(module, "det_leibniz_oracle", refuse)
    p, s, t = 12, 0, 30
    rows = random_rows(Random(12), p, s - p + 1, t, regular=True)
    coeffs = write_json(
        tmp_path / "c.json",
        {"p": p, "kind": "table",
         "rows": {str(u): [str(v) for v in row] for u, row in rows.items()}},
    )
    code, out, _ = run_cli(
        capsys, ["fundamental", "--coeffs", coeffs, "--t", str(t), "--s", str(s)]
    )
    assert code == 0
    expected = Fraction(1)
    for u in range(s + 1, t + 1):
        expected *= (-1) ** (p + 1) * rows[u][p - 1]
    assert Fraction(json.loads(out)["casoratian"]) == expected


def test_verify_names_vanishing_casoratian_row(tmp_path, capsys):
    # verify names the first u in s+1..t with phi_2(u) = 0; a zero at row s
    # lies outside that range, so the Casoratian there is nonzero
    rows = random_rows(Random(4), 2, -1, 8, regular=True)
    for arith, write, zero in (("rational", str, "0"), ("float64", float, 0.0)):
        for zero_rows, u in (((4,), 4), ((5, 3), 3), ((7,), 7), ((1,), None)):
            table = {t: (row[0], Fraction(0) if t in zero_rows else row[1])
                     for t, row in rows.items()}
            coeffs = write_json(
                tmp_path / "c.json",
                {"p": 2, "kind": "table",
                 "rows": {str(t): [write(v) for v in row] for t, row in table.items()}},
            )
            code, out, _ = run_cli(capsys, ["verify", "--coeffs", coeffs, "--arith", arith,
                                            "--t", "7", "--s", "1"])
            assert code == (0 if u is None else 1), (arith, zero_rows)
            checks = {c["name"]: c for c in json.loads(out)["checks"]}
            assert set(checks) == {"green-four-way", "fundamental-matrix",
                                   "casoratian-nonzero"}
            assert checks["green-four-way"]["passed"] and checks["fundamental-matrix"]["passed"]
            nonzero = checks["casoratian-nonzero"]
            if u is None:
                assert nonzero == {"name": "casoratian-nonzero", "passed": True}
            else:
                assert nonzero["counterexample"] == {"casoratian": zero, "u": u}


def test_verify_float_casoratian_is_exact(tmp_path, capsys):
    # phi_2 = 0.1 never vanishes, so the Casoratian 0.1^14 is nonzero however
    # small it is against a float tolerance
    coeffs = write_json(tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": [0.1, 0.1]})
    argv = ["verify", "--coeffs", coeffs, "--arith", "float64", "--t", "14", "--s", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["casoratian-nonzero"] == {"name": "casoratian-nonzero", "passed": True}
    table = write_json(
        tmp_path / "t.json",
        {"p": 2, "kind": "table", "rows": {str(u): [0.5, 0.0 if u == 3 else 2.0]
                                           for u in range(-1, 9)}},
    )
    code, out, _ = run_cli(capsys, ["verify", "--coeffs", table, "--arith", "float64",
                                    "--t", "7", "--s", "1"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["casoratian-nonzero"]["counterexample"] == {"casoratian": 0.0, "u": 3}


def test_table_ending_before_t_fails_alike(tmp_path, capsys):
    # verify and fundamental read H(t, s) through the Casorati matrix, so a
    # table that ends before t is refused with green's message
    coeffs = write_json(tmp_path / "c.json", {
        "p": 2, "kind": "table", "rows": {str(t): ["1", "1/2"] for t in range(5)}})
    errors = []
    for command in ("green", "verify", "fundamental"):
        code, out, err = run_cli(capsys, [command, "--coeffs", coeffs, "--t", "7", "--s", "1"])
        assert (code, out) == (2, ""), command
        errors.append(json.loads(err))
    assert errors[0]["error"] == "invalid-input"
    assert errors[1] == errors[2] == errors[0]


def test_fundamental_identity_and_step(fib_coeffs, capsys):
    code, out, _ = run_cli(capsys, ["fundamental", "--coeffs", fib_coeffs, "--t", "2", "--s", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "0"], ["0", "1"]]
    assert payload["casoratian"] == "1"
    code, out, _ = run_cli(capsys, ["fundamental", "--coeffs", fib_coeffs, "--t", "3", "--s", "2"])
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "1"], ["1", "0"]]
    code, _, err = run_cli(capsys, ["fundamental", "--coeffs", fib_coeffs, "--t", "1", "--s", "2"])
    assert code == 2


PRETTY_CASES = [
    (["green", "--arith", "symbolic", "--p", "2", "--t", "3", "--s", "0"],
     "phi1(1) phi1(2) phi1(3) + phi1(1) phi2(3) + phi2(2) phi1(3)\n"),
    (["solve", "--arith", "symbolic", "--p", "2", "--s", "0", "--t", "2"],
     "phi1(1) phi1(2) y(0) + phi2(1) phi1(2) y(-1) + phi1(2) v(1) + phi2(2) y(0) + v(2)\n"),
    (["fundamental", "--arith", "symbolic", "--p", "2", "--t", "2", "--s", "0"],
     "phi1(1) phi1(2) + phi2(2)  phi2(1) phi1(2)\nphi1(1)  phi2(1)\n"
     "casoratian: phi2(1) phi2(2)\n"),
    (["fundamental", "--coeffs", "{coeffs}", "--t", "3", "--s", "0"],
     "2  3/4\n3/2  1/2\ncasoratian: -1/8\n"),
    (["solve", "--coeffs", "{coeffs}", "--problem", "{problem}", "--t", "3"], "9/2\n"),
    (["green", "--coeffs", "{coeffs}", "--t", "4", "--s", "0"], "11/4\n"),
    (["green", "--coeffs", "{fcoeffs}", "--arith", "float64", "--t", "3", "--s", "0"],
     "0.375\n"),
    (["fundamental", "--coeffs", "{fcoeffs}", "--arith", "float64", "--t", "3", "--s", "0"],
     "0.375  0.125\n0.5  0.125\ncasoratian: -0.015625\n"),
    (["solve", "--coeffs", "{fcoeffs}", "--problem", "{fproblem}", "--arith", "float64",
      "--t", "3"], "2.3125\n"),
]


@pytest.mark.parametrize(
    "argv, pretty", PRETTY_CASES,
    ids=["green-symbolic", "solve-symbolic", "fundamental-symbolic", "fundamental",
         "solve", "green", "green-float", "fundamental-float", "solve-float"],
)
def test_pretty_text_rendered_only_under_pretty(tmp_path, capsys, monkeypatch, argv, pretty):
    files = {
        "coeffs": write_json(tmp_path / "c.json",
                             {"p": 2, "kind": "constant", "phi": ["1", "1/2"]}),
        "problem": write_json(tmp_path / "p.json",
                              {"s": 0, "init": ["0", "1"],
                               "forcing": {"1": "1/3", "2": "0", "3": "2"}}),
        "fcoeffs": write_json(tmp_path / "fc.json",
                              {"p": 2, "kind": "constant", "phi": [0.5, 0.25]}),
        "fproblem": write_json(tmp_path / "fp.json",
                               {"s": 0, "init": [1.0, 0.5],
                                "forcing": {"1": 1.0, "2": 1.0, "3": 1.0}}),
    }
    argv = [arg.format(**files) for arg in argv]
    calls = []
    monkeypatch.setattr("vclde.cli.render_scalar",
                        lambda value: calls.append(value) or render_scalar(value))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.startswith("{")
    assert calls == []
    code, out, _ = run_cli(capsys, argv + ["--pretty"])
    assert code == 0 and calls
    assert out == pretty


def test_expand_golden_four(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--order", "4", "--pretty"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "TRUE"
    assert lines[0].startswith("-h[1,2] h[2,3] h[3,4] h[4,1]")
    assert lines[0].count("h[") == 32


def test_expand_order_one(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--order", "1", "--pretty"])
    assert code == 0
    assert out.strip().splitlines() == ["h[1,1]", "TRUE"]


def test_expand_pretty_lists_the_verified_expansion(capsys, monkeypatch):
    # the text comes from the expansion just verified, in ascending SEP
    # index order, not from a second enumeration
    import vclde.leibnizian

    expected = {}
    for k in range(1, 13):
        bodies = [("-" if term.sign < 0 else "")
                  + " ".join(f"h[{i},{col}]" for i, col in enumerate(term.columns, 1))
                  for term in vclde.leibnizian.enumerate_seps(k)]
        first, *rest = bodies
        signed = [f"- {b[1:]}" if b.startswith("-") else f"+ {b}" for b in rest]
        expected[k] = " ".join([first, *signed]) + "\nTRUE\n"

    def refuse(*_):
        raise AssertionError("enumerate_seps called")

    monkeypatch.setattr(vclde.leibnizian, "enumerate_seps", refuse)
    for k, text in expected.items():
        code, out, _ = run_cli(capsys, ["expand", "--order", str(k), "--pretty"])
        assert (code, out) == (0, text), k


def test_expand_term_count_order_five(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--order", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    assert payload["verified"] is True
    assert len(payload["terms"]) == 16


def test_expand_limits(capsys):
    code, _, err = run_cli(capsys, ["expand", "--order", "13"])
    assert code == 3
    assert json.loads(err)["error"] == "enum-limit"
    code, _, err = run_cli(capsys, ["expand", "--order", "0"])
    assert code == 2


@pytest.mark.parametrize("k", range(1, 13))
def test_expand_bytes_equal_an_independent_reference(k, capsys):
    # each SEP's entry from its columns; canonical order sorts the factor
    # tuples, whose rows run 1..k, so it sorts the column sequences
    terms = [{"factors": [{"i": i, "j": col, "kind": "h"}
                          for i, col in enumerate(term.columns, start=1)],
              "sign": term.sign}
             for term in sorted(enumerate_seps(k), key=lambda term: term.columns)]
    payload = {"count": 1 << (k - 1), "order": k, "terms": terms, "verified": True}
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert run_cli(capsys, ["expand", "--order", str(k)]) == (0, expected, "")


def _drop(products):
    del products[1]


def _flip(products):
    products[2] = -products[2]


def _append(products):
    products.append(products[0])


@pytest.mark.parametrize("corrupt", [_drop, _flip, _append])
@pytest.mark.parametrize("stream", ["leibnizian", "oracle"])
def test_expand_checks_every_streamed_product(stream, corrupt, capsys, monkeypatch):
    """A product dropped, negated or added on either side fails the
    pairwise check, and the terms written are the Leibnizian stream's."""
    from vclde import hessenberg, leibnizian

    expansion = det_leibnizian(HessenbergMatrix.from_function(5, h_sym, "symbolic"))
    written = []

    def patched(walk, side):
        def run(*args, **kwargs):
            products = list(walk(*args, **kwargs))
            if side == stream:
                corrupt(products)
            if side == "leibnizian":
                written.extend(products)
            return iter(products)

        return run

    monkeypatch.setattr(leibnizian, "_walk", patched(leibnizian._walk, "leibnizian"))
    monkeypatch.setattr(hessenberg, "_permutation_terms",
                        patched(hessenberg._permutation_terms, "oracle"))
    code, out, err = run_cli(capsys, ["expand", "--order", "5"])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["verified"] is False and payload["count"] == 16
    assert payload["terms"] == [entry for product in written
                                for entry in term_sum_dicts(product)]
    if stream == "oracle":
        assert TermSum.sum(written) == expansion and len(written) == 16


def test_verify_passes_and_corrupt_fails(tmp_path, capsys):
    rng = Random(20240827)
    rows = random_rows(rng, 3, -4, 9, regular=True)
    coeffs = write_json(
        tmp_path / "c.json",
        {
            "p": 3,
            "kind": "table",
            "rows": {str(t): [str(v) for v in row] for t, row in rows.items()},
        },
    )
    problem = write_json(
        tmp_path / "p.json",
        {
            "s": 1,
            "init": ["1", "1/2", "-1/3"],
            "forcing": {str(t): "1/4" for t in range(2, 8)},
        },
    )
    code, out, _ = run_cli(
        capsys,
        ["verify", "--coeffs", coeffs, "--problem", problem, "--t", "7", "--s", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "green-four-way",
        "fundamental-matrix",
        "casoratian-nonzero",
        "solution-five-way",
    }
    code, out, _ = run_cli(
        capsys, ["verify", "--coeffs", coeffs, "--t", "7", "--s", "1", "--corrupt"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed and "counterexample" in failed[0]


def test_verify_reports_the_first_mismatched_matrix_entry(fib_coeffs, capsys, monkeypatch):
    # --corrupt perturbs only the Leibnizian route, so a wrong companion
    # product is what makes the fundamental-matrix check fail
    from vclde import oracles

    product = oracles.companion_product

    def bumped(model, t, s):
        rows = [list(row) for row in product(model, t, s)]
        rows[1][0] += 1
        return rows

    monkeypatch.setattr("vclde.oracles.companion_product", bumped)
    argv = ["verify", "--coeffs", fib_coeffs, "--t", "7", "--s", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["green-four-way"]["passed"] and checks["casoratian-nonzero"]["passed"]
    assert checks["fundamental-matrix"] == {
        "name": "fundamental-matrix", "passed": False,
        "counterexample": {"col": 1, "row": 2, "t": 6,
                           "values": {"companion": "14", "fundamental": "13"}}}
    code, out, _ = run_cli(capsys, argv + ["--pretty"])
    assert code == 1
    assert out == "PASS green-four-way\nFAIL fundamental-matrix\nPASS casoratian-nonzero\n"


def test_symbolic_payloads_equal_reference_bytes(capsys):
    """Term sums at the top level, in nested lists and in a counterexample's
    values are written as json.dumps writes their dict form."""
    code, out, _ = run_cli(capsys, ["expand", "--order", "6"])
    assert code == 0
    terms = det_leibnizian(HessenbergMatrix.from_function(6, h_sym, "symbolic"))
    assert out == reference_json_text(
        {"count": 32, "order": 6, "terms": terms, "verified": True}) + "\n"

    p, s, t = 3, 1, 6
    code, out, _ = run_cli(capsys, ["fundamental", "--arith", "symbolic", "--p", str(p),
                                    "--t", str(t), "--s", str(s)])
    assert code == 0
    matrix = casorati(CoefficientModel.symbolic(p), t, s)
    expected = {"arith": "symbolic", "casoratian": matrix.casoratian(),
                "matrix": [list(row) for row in matrix.entries], "p": p, "s": s, "t": t}
    assert out == reference_json_text(expected) + "\n"

    code, out, _ = run_cli(capsys, ["verify", "--arith", "symbolic", "--p", "2",
                                    "--t", "5", "--s", "0", "--corrupt"])
    assert code == 1
    payload = json.loads(out)
    assert [c["passed"] for c in payload["checks"]] == [False, True, True]
    example = payload["checks"][0]["counterexample"]
    example["values"] = {route: term_sum_from_json(v) for route, v in example["values"].items()}
    green = evaluate_green(CoefficientModel.symbolic(2), 5, 0, "recurrence")
    assert {route for route, v in example["values"].items() if v != green} == {"leibnizian"}
    assert out == reference_json_text(payload) + "\n"


class _Writes(list):
    """A stdout that keeps each write."""

    def write(self, text):
        self.append(text)
        return len(text)


class _Sink:
    """A stdout that keeps nothing, so that only the writer's own memory
    is traced."""

    def write(self, text):
        return len(text)


def test_symbolic_answer_is_written_in_bounded_blocks(monkeypatch):
    """A 1.6 MB answer reaches stdout in blocks of about 64 KiB, and writing
    it never holds more than a small part of its text."""
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(["green", "--arith", "symbolic", "--p", "2", "--t", "18", "--s", "0"]) == 0
    value = evaluate_green(CoefficientModel.symbolic(2), 18, 0)
    payload = {"H": value, "arith": "symbolic", "method": "recurrence", "s": 0, "t": 18}
    text = reference_json_text(payload)
    assert "".join(writes) == text + "\n"
    longest = max(map(len, term_sum_json_chunks(value)))
    assert len(writes) > 1
    assert max(map(len, writes)) <= (1 << 16) + longest

    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        cli._emit(payload, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4


def test_expand_holds_a_block_not_its_terms(monkeypatch):
    """expand writes and checks its terms a product at a time: from order 8
    (128 terms, under one block of text) to order 12 (2048 terms, about
    0.8 MB) its peak grows by at most what one output block holds while it
    is written, its pieces and their joined text, where holding either
    term sum would cost some 0.4 MB."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    peaks = {}
    for k in (8, 12):
        argv = ["expand", "--order", str(k)]
        assert main(argv) == 0  # imports and first-use caches are not traced
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] - peaks[8] <= 2 * cli._BLOCK


def test_verify_homogeneous_problem(tmp_path, fib_coeffs, capsys):
    problem = write_json(tmp_path / "h.json", {"s": 0, "init": ["1", "2"]})
    code, out, _ = run_cli(
        capsys,
        ["verify", "--coeffs", fib_coeffs, "--problem", problem, "--t", "5", "--s", "0"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_rational_output_reproducible(fib_coeffs, fib_problem, capsys):
    runs = {
        run_cli(
            capsys, ["solve", "--coeffs", fib_coeffs, "--problem", fib_problem, "--t", "6"]
        )[1]
        for _ in range(3)
    }
    assert len(runs) == 1


def test_float_mode_files(tmp_path, capsys):
    coeffs = write_json(tmp_path / "cf.json", {"p": 1, "kind": "constant", "phi": [0.5]})
    code, out, _ = run_cli(capsys, ["green", "--coeffs", coeffs, "--t", "3", "--s", "0", "--arith", "float64"])
    assert code == 0
    assert json.loads(out)["H"] == 0.125
    # rational payloads in float mode are rejected
    bad = write_json(tmp_path / "cb.json", {"p": 1, "kind": "constant", "phi": ["1/2"]})
    code, _, err = run_cli(capsys, ["green", "--coeffs", bad, "--t", "3", "--s", "0", "--arith", "float64"])
    assert code == 2


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "-1e999", "int400"],
)
def test_float_mode_rejects_non_finite_input(tmp_path, capsys, literal):
    # json.load accepts NaN and Infinity literals and reads 1e999 as inf; a
    # 400-digit integer overflows float().  Each is invalid input (exit 2),
    # never a NaN in the output or a traceback.
    coeffs = tmp_path / "bad-coeffs.json"
    coeffs.write_text('{"p": 2, "kind": "constant", "phi": [%s, 0.5]}' % literal)
    good = write_json(tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": [0.5, 0.5]})
    bad_init = tmp_path / "bad-init.json"
    bad_init.write_text('{"s": 0, "init": [%s, 1.0], "forcing": {"1": 0.5}}' % literal)
    bad_forcing = tmp_path / "bad-forcing.json"
    bad_forcing.write_text('{"s": 0, "init": [0.5, 1.0], "forcing": {"1": %s}}' % literal)
    for argv in (
        ["green", "--coeffs", str(coeffs), "--t", "5", "--s", "0"],
        ["solve", "--coeffs", good, "--problem", str(bad_init), "--t", "1"],
        ["solve", "--coeffs", good, "--problem", str(bad_forcing), "--t", "1"],
    ):
        code, out, err = run_cli(capsys, argv + ["--arith", "float64"])
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "invalid-input"


def assert_non_finite_exit_5(capsys, argv, t):
    code, out, err = run_cli(capsys, argv + ["--arith", "float64"])
    assert (code, out) == (5, ""), argv
    body = json.loads(err)
    assert body["error"] == "non-finite"
    assert body["t"] == t


@pytest.fixture
def overflowing_coeffs(tmp_path):
    # |H(t, 0)| grows like 2^t, past the largest binary64 near t = 1024
    return write_json(tmp_path / "big.json", {"p": 2, "kind": "constant", "phi": [1.5, 1.0]})


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
def test_green_non_finite_result_exit_5(overflowing_coeffs, capsys, pretty):
    argv = ["green", "--coeffs", overflowing_coeffs, "--t", "5000", "--s", "0"]
    assert_non_finite_exit_5(capsys, argv + pretty, 5000)


def test_solve_non_finite_result_exit_5(overflowing_coeffs, tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {"s": 0, "init": [0.0, 1.0]})
    for method in ("green", "kittappa", "recursion"):
        argv = ["solve", "--coeffs", overflowing_coeffs, "--problem", problem,
                "--t", "5000", "--method", method]
        assert_non_finite_exit_5(capsys, argv, 5000)


def test_fundamental_non_finite_result_exit_5(overflowing_coeffs, capsys):
    argv = ["fundamental", "--coeffs", overflowing_coeffs, "--t", "5000", "--s", "0"]
    assert_non_finite_exit_5(capsys, argv, 5000)


def test_fundamental_non_finite_casoratian_exit_5(tmp_path, capsys):
    # at t = 2 every entry is finite, but the Casoratian (1e200)^2 is not
    coeffs = write_json(tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": [0, 1e200]})
    argv = ["fundamental", "--coeffs", coeffs, "--s", "0"]
    code, out, _ = run_cli(capsys, argv + ["--t", "1", "--arith", "float64"])
    assert code == 0 and json.loads(out)["casoratian"] == -1e200
    assert_non_finite_exit_5(capsys, argv + ["--t", "2"], 2)


def test_verify_non_finite_counterexample_exit_5(tmp_path, capsys):
    # inf - inf turns every route's H(3, 0) into NaN, which no route matches
    coeffs = write_json(
        tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": [1e300, -1e300]}
    )
    argv = ["verify", "--coeffs", coeffs, "--t", "3", "--s", "0"]
    assert_non_finite_exit_5(capsys, argv, 3)


def test_verify_does_not_pass_on_infinities(tmp_path, capsys):
    # every route overflows to the same +inf, so each check would "agree"
    coeffs = write_json(
        tmp_path / "c.json", {"p": 2, "kind": "constant", "phi": [1e300, 1e300]}
    )
    problem = write_json(tmp_path / "p.json", {"s": 0, "init": [1.0, 1.0], "forcing": {}})
    argv = ["--coeffs", coeffs, "--t", "3", "--s", "0"]
    assert_non_finite_exit_5(capsys, ["green", *argv], 3)
    assert_non_finite_exit_5(capsys, ["verify", *argv, "--problem", problem], 3)
    assert_non_finite_exit_5(capsys, ["verify", *argv], 3)
    # finite Green values, but the solutions overflow
    small = write_json(tmp_path / "s.json", {"p": 2, "kind": "constant", "phi": [1.0, 1.0]})
    huge = write_json(tmp_path / "h.json", {"s": 0, "init": [1e308, 1e308], "forcing": {}})
    argv = ["verify", "--coeffs", small, "--problem", huge, "--t", "3", "--s", "0"]
    assert_non_finite_exit_5(capsys, argv, 3)


def test_periodic_coefficients_file(tmp_path, capsys):
    coeffs = write_json(
        tmp_path / "cp.json",
        {"p": 1, "kind": "periodic", "period": 2, "rows": [["2"], ["3"]]},
    )
    code, out, _ = run_cli(capsys, ["green", "--coeffs", coeffs, "--t", "4", "--s", "0"])
    assert code == 0
    # phi(1) phi(2) phi(3) phi(4) = 3 * 2 * 3 * 2
    assert json.loads(out)["H"] == "36"


def test_rational_output_past_int_digit_limit(tmp_path, capsys):
    # Rows (a/7, (7-a)/7) keep the numerator of H prime to 7, so H(6000, 0)
    # has the reduced denominator 7^6000: 5071 digits, past CPython's default
    # 4300-digit int-to-str limit.
    coeffs = write_json(
        tmp_path / "c7.json",
        {"p": 2, "kind": "periodic", "period": 2, "rows": [["3/7", "4/7"], ["5/7", "2/7"]]},
    )
    code, out, err = run_cli(capsys, ["green", "--coeffs", coeffs, "--t", "6000", "--s", "0"])
    assert code == 0, err
    _, denominator = json.loads(out)["H"].split("/")
    assert len(denominator) == 5071
    assert denominator[-1] == "1"  # 7^6000 ends in 1


def test_loaders_direct():
    rng = Random(1)
    rows = random_rows(rng, 2, 0, 6)
    import json as _json
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        cpath = os.path.join(tmp, "c.json")
        with open(cpath, "w") as fh:
            _json.dump(
                {
                    "p": 2,
                    "kind": "table",
                    "rows": {str(t): [str(v) for v in row] for t, row in rows.items()},
                },
                fh,
            )
        model = load_coefficients(cpath, "rational")
        assert isinstance(model, CoefficientModel)
        assert model.phi_row(3) == rows[3]
        ppath = os.path.join(tmp, "p.json")
        with open(ppath, "w") as fh:
            _json.dump({"s": 2, "init": ["1", "2"], "forcing": {"3": "1/2"}}, fh)
        problem = load_problem(ppath, "rational", model)
        assert isinstance(problem, SolutionProblem)
        assert problem.forcing_value(3) == Fraction(1, 2)
        assert not problem.is_homogeneous


def run_child(argv_list, *flags, timeout=10):
    """Each argv through ``python [flags] -m vclde`` in a fresh interpreter
    that imports this vclde: (exit code, stdout, stderr) per argv."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    results = []
    for argv in argv_list:
        proc = subprocess.run([sys.executable, *flags, "-m", "vclde", *argv],
                              capture_output=True, text=True, timeout=timeout, env=env)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def test_file_rationals_are_bounded_by_the_int_digit_limit(tmp_path):
    # Fraction expands a decimal exponent before anything checks its size,
    # so "1e10000000" would build an integer of ten million digits.  A value
    # written with more digits than the interpreter's int limit (an exponent
    # counting as its zeros) exits 2 at once, naming where it sits and
    # quoting at most about 40 characters of it.
    # the limit as parse_rational reads it: 0 turns the bound off
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if not limit:
        pytest.skip("no int digit limit is set")
    long_int = "7" * (limit + 700)
    rows = {str(t): ["1"] for t in range(5)}
    rows["3"] = ["1e-10000000"]
    # each document under the text its message must hold
    files = {
        "phi": {"p": 1, "kind": "constant", "phi": ["1e10000000"]},
        f"'1e{limit}'": {"p": 1, "kind": "constant", "phi": [f"1e{limit}"]},
        "rows[3]": {"p": 1, "kind": "table", "rows": rows},
        "rows[1]": {"p": 1, "kind": "periodic", "period": 2, "rows": [["2"], [long_int]]},
    }
    problems = {
        "init": {"s": 0, "init": ["1e10000000"]},
        "forcing[7]": {"s": 0, "init": ["1"], "forcing": {"6": "1", "7": "5e-99999999"}},
    }
    fine = write_json(tmp_path / "fine.json", {"p": 1, "kind": "constant", "phi": ["2"]})
    argvs = [["green", "--coeffs", write_json(tmp_path / f"c{i}.json", doc),
              "--t", "1", "--s", "0"] for i, doc in enumerate(files.values())]
    argvs += [["solve", "--coeffs", fine, "--t", "8",
               "--problem", write_json(tmp_path / f"p{i}.json", doc)]
              for i, doc in enumerate(problems.values())]
    argvs.append(["green", "--coeffs", write_json(tmp_path / "edge.json", {
        "p": 1, "kind": "constant", "phi": [f"1e{limit - 1}"]}), "--t", "1", "--s", "0"])
    *refused, (code, out, err) = run_child(argvs)
    assert (code, err) == (0, "")
    assert json.loads(out)["H"] == "1" + "0" * (limit - 1)
    for named, (code, out, err) in zip([*files, *problems], refused):
        assert (code, out) == (2, ""), named
        body = json.loads(err)
        assert body["error"] == "invalid-input"
        assert named in body["message"] and len(body["message"]) < 120, body


def test_first_bad_entry_in_file_order_is_named(tmp_path, capsys, fib_coeffs):
    # file order, not time order: rows[5] and forcing[4] come first
    coeffs = write_json(tmp_path / "table.json", {"p": 1, "kind": "table", "rows": {
        "5": ["x"], "1": ["1", "2"], "2": ["y"]}})
    problem = write_json(tmp_path / "p.json", {"s": 0, "init": ["0", "1"], "forcing": {
        "1": "1", "4": "1/0", "2": "z", "03": "1"}})
    for argv, where in ((["green", "--coeffs", coeffs, "--t", "2", "--s", "1"], "rows[5]"),
                        (["solve", "--coeffs", fib_coeffs, "--problem", problem, "--t", "4"],
                         "forcing[4]")):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        message = json.loads(err)["message"]
        assert message.startswith(where), message


_RATIONAL_TEXTS = st.one_of(
    st.fractions(max_denominator=10**6).map(format_rational),
    st.integers(-10**6, 10**6),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
    st.sampled_from(["1e3", "-2.5e-2", "+3", "1_000", " 7/8 ", "0.0"]),
)
_FLOAT_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-10**20, 10**20))


def _same_scalars(a, b) -> bool:
    """Equal values of the same type; floats bit for bit (signed zeros too)."""
    return len(a) == len(b) and all(
        type(x) is type(y) and (x.hex() == y.hex() if type(x) is float else x == y)
        for x, y in zip(a, b))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), arith=st.sampled_from(["rational", "float64"]), p=st.integers(1, 3))
def test_loaders_convert_each_value_as_scalar_from_json(tmp_path_factory, data, arith, p):
    """Table, periodic and constant coefficient files and problem files load
    to the rows, initial values and forcing that a parse of each value
    alone gives, whatever the order of their keys."""
    value = _RATIONAL_TEXTS if arith == "rational" else _FLOAT_NUMBERS
    row = st.lists(value, min_size=p, max_size=p)
    t0, n = data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 12))
    times = data.draw(st.permutations(range(t0, t0 + n)))
    table = {str(t): data.draw(row) for t in times}
    cycle = data.draw(st.lists(row, min_size=1, max_size=4))
    phi = data.draw(row)
    init, s = data.draw(row), data.draw(st.integers(-3, 3))
    forcing = {str(t): data.draw(value)
               for t in data.draw(st.lists(st.integers(s + 1, s + 20), unique=True))}

    def parsed(values):
        return tuple(scalar_from_json(v, arith) for v in values)

    folder = tmp_path_factory.mktemp("load")
    docs = {"table": {"p": p, "kind": "table", "rows": table},
            "periodic": {"p": p, "kind": "periodic", "period": len(cycle), "rows": cycle},
            "constant": {"p": p, "kind": "constant", "phi": phi}}
    models = {kind: load_coefficients(write_json(folder / f"{kind}.json", doc), arith)
              for kind, doc in docs.items()}
    for t in times:
        assert _same_scalars(models["table"].phi_row(t), parsed(table[str(t)]))
    for t in range(-len(cycle), len(cycle)):
        assert _same_scalars(models["periodic"].phi_row(t), parsed(cycle[t % len(cycle)]))
    assert _same_scalars(models["constant"].phi_row(0), parsed(phi))

    problem = load_problem(write_json(folder / "problem.json", {
        "s": s, "init": init, "forcing": forcing}), arith, models["constant"])
    assert _same_scalars(problem.init, parsed(init))
    assert sorted(problem.forcing or {}) == sorted(map(int, forcing))
    for key, v in forcing.items():
        assert _same_scalars((problem.forcing[int(key)],), parsed([v]))


@settings(max_examples=80, deadline=None)
@given(x=st.fractions())
def test_rational_output_round_trips_byte_for_byte(tmp_path_factory, x):
    # H(s+1, s) = phi_1(s+1): the file's value comes back as it was written
    text = format_rational(x)
    coeffs = tmp_path_factory.mktemp("rt") / "c.json"
    coeffs.write_text(json.dumps({"p": 1, "kind": "constant", "phi": [text]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["green", "--coeffs", str(coeffs), "--t", "1", "--s", "0"]) == 0
    assert f'"H":"{text}"' in out.getvalue()
    assert json.loads(out.getvalue())["H"] == text


def _load_peak_ratio(path, load):
    """tracemalloc peak of ``load()`` over that of json.load on the file."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def decode():
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    return peak(load) / peak(decode)


def test_loads_peak_at_the_decoded_json(tmp_path):
    """Loading a 20,000-row table or a 20,000-entry problem file converts it
    in one pass: the load peaks at about the memory json.load needs, not at
    a second copy of the table."""
    rng = Random(7)
    n, p = 20_000, 4
    floats = {str(t): [rng.uniform(-1, 1) for _ in range(p)] for t in range(n)}
    rationals = {str(t): [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(p)]
                 for t in range(n)}
    forcing = {str(t): rng.uniform(-1, 1) for t in range(1, n + 1)}
    model = CoefficientModel.constant([0.5] * p)
    cases = {
        "float table": ({"p": p, "kind": "table", "rows": floats},
                        lambda path: load_coefficients(path, "float64")),
        "rational table": ({"p": p, "kind": "table", "rows": rationals},
                           lambda path: load_coefficients(path, "rational")),
        "float problem": ({"s": 0, "init": [0.5] * p, "forcing": forcing},
                          lambda path: load_problem(path, "float64", model)),
    }
    for name, (doc, load) in cases.items():
        path = write_json(tmp_path / "doc.json", doc)
        ratio = _load_peak_ratio(path, lambda: load(path))
        assert ratio <= 1.05, (name, ratio)


def test_dev_mode_runs_warning_free(tmp_path):
    # -X dev reports unclosed files and other resource warnings, and
    # -W error makes each of them fatal
    coeffs = write_json(tmp_path / "c.json", {"p": 2, "kind": "table", "rows": {
        str(t): [f"{t + 2}/3", "-1/2"] for t in range(-1, 9)}})
    problem = write_json(tmp_path / "p.json", {
        "s": 0, "init": ["1", "1/2"], "forcing": {str(t): f"1/{t}" for t in range(1, 9)}})
    common = ["--coeffs", coeffs, "--t", "8"]
    argvs = [["green", *common, "--s", "0"], ["solve", *common, "--problem", problem],
             ["verify", *common, "--s", "0", "--problem", problem],
             ["green", *common, "--s", "x"], ["green", "--help"]]
    results = run_child(argvs, "-X", "dev", "-W", "error", timeout=60)
    for argv, (code, out, err) in zip(argvs[:3], results):
        assert (code, err) == (0, ""), argv
        json.loads(out)
    (code, out, err), (help_code, help_out, help_err) = results[3:]
    assert (code, out, json.loads(err)["error"]) == (2, "", "usage")
    assert (help_code, help_err) == (0, "") and "vclde green" in help_out


def test_usage_error_is_json(fib_coeffs, capsys):
    code, out, err = run_cli(capsys, ["green", "--coeffs", fib_coeffs, "--t", "4", "--s", "0",
                                      "--method", "magic"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


def test_command_line_grammar(fib_coeffs, capsys):
    """Each accepted spelling prints what its plain spelling prints; each
    refusal exits 2 with one usage line; help names every subcommand and,
    on that subcommand's line, every one of its options."""
    green = ["green", "--coeffs", fib_coeffs]
    plain = green + ["--t", "6", "--s", "-3"]
    accepted = [
        (["green", f"--coeffs={fib_coeffs}", "--t=6", "--s=-3"], plain),
        (["green", "--s", "-3", "--t", "6", "--coeffs", fib_coeffs], plain),
        (green + ["--t", "9", "--s", "-3", "--t", "6"], plain),
        (plain + ["--method=nested", "--method", "recurrence", "--arith", "rational"], plain),
        (plain + ["--pretty", "--pretty"], plain + ["--pretty"]),
        (["expand", "--order=-1"], ["expand", "--order", "-1"]),
    ]
    for argv, plain_argv in accepted:
        expected = run_cli(capsys, plain_argv)
        assert run_cli(capsys, argv) == expected, argv
    methods = "'green', 'kittappa', 'leibnizian', 'nested', 'recursion'"
    refused = [
        ([], "the following arguments are required: command"),
        (["--t", "6"], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' "
                    "(choose from 'green', 'solve', 'fundamental', 'expand', 'verify')"),
        (plain + ["--foo", "1"], "unrecognized arguments: --foo 1"),
        (["green", "--t", "6", "--s", "0", "--coe", "c.json"],
         "unrecognized arguments: --coe c.json"),
        (plain + ["stray"], "unrecognized arguments: stray"),
        (plain + ["-t"], "unrecognized arguments: -t"),
        (green + ["--t", "6", "--s"], "argument --s: expected one argument"),
        (green + ["--t", "--s", "0"], "argument --t: expected one argument"),
        (green + ["--t", "-x", "--s", "0"], "argument --t: expected one argument"),
        (plain + ["--pretty=yes"], "argument --pretty: ignored explicit argument 'yes'"),
        (["verify", "--t", "6", "--s", "0", "--corrupt=1"],
         "argument --corrupt: ignored explicit argument '1'"),
        (green + ["--t", "x", "--s", "0"], "argument --t: invalid int value: 'x'"),
        (green + ["--t=-x", "--s", "0"], "argument --t: invalid int value: '-x'"),
        (plain + ["--method", "bogus"], "argument --method: invalid choice: 'bogus' "
                                        "(choose from 'recurrence', 'leibnizian', 'nested', "
                                        "'companion')"),
        (["solve", "--t", "1", "--method", "bogus"],
         f"argument --method: invalid choice: 'bogus' (choose from {methods})"),
        (plain + ["--arith="], "argument --arith: invalid choice: '' "
                               "(choose from 'rational', 'float64', 'symbolic')"),
        (green, "the following arguments are required: --t, --s"),
        (green + ["--s", "0"], "the following arguments are required: --t"),
        (["expand"], "the following arguments are required: --order"),
    ]
    for argv, message in refused:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == json.dumps({"error": "usage", "message": message},
                                 separators=(",", ":")) + "\n", argv
    for argv in (["-h"], ["--help"], ["green", "--help"], ["bogus", "-h"],
                 green + ["--t", "x", "-h"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        lines = {line.split()[1]: line for line in out.splitlines()
                 if line.startswith("  vclde ")}
        assert list(lines) == list(cli.COMMANDS), argv
        for command, (help_line, _, _, options) in cli.COMMANDS.items():
            assert help_line in out
            words = [word.strip("[]") for word in lines[command].split()]
            assert [w for w in words if w.startswith("--")] == [f"--{n}" for n in options]


def test_integer_options_are_written_as_str_int(fib_coeffs, capsys):
    # the rule of the file keys: int() reads " 3", "+3" and "٣" as 3 and
    # "1_0" as 10, but only the text str(int(v)) is accepted
    commands = {
        "t": ["green", "--coeffs", fib_coeffs, "--s", "0", "--t"],
        "s": ["green", "--coeffs", fib_coeffs, "--t", "6", "--s"],
        "p": ["green", "--arith", "symbolic", "--t", "2", "--s", "0", "--p"],
        "order": ["expand", "--order"],
    }
    for name, argv in commands.items():
        assert run_cli(capsys, argv + ["3"])[0] == 0, name
        for value in ("1_0", " 3", "+3", "٣", "-٣", "03", "-0", "3.0", "+" + "9" * 50):
            code, out, err = run_cli(capsys, argv + [value])
            assert (code, out) == (2, ""), (name, value)
            message = f"argument --{name}: invalid int value: {repr(value)[:40]}"
            assert json.loads(err) == {"error": "usage", "message": message}, (name, value)


def test_usage_errors_quote_at_most_40_characters(fib_coeffs, capsys):
    long = "x" * 5000
    plain = ["green", "--coeffs", fib_coeffs, "--t", "4", "--s", "0"]
    for argv in (["green", "--coeffs", fib_coeffs, "--t", long, "--s", "0"],
                 plain + ["--arith", long], plain + [f"--{long}"], [long]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert json.loads(err)["error"] == "usage"


def test_symbolic_needs_structure(capsys):
    code, out, _ = run_cli(capsys, ["green", "--p", "2", "--t", "4", "--s", "2", "--arith", "symbolic"])
    assert code == 0
    code, _, err = run_cli(capsys, ["green", "--p", "2", "--t", "4", "--s", "2"])
    assert code == 2  # --p alone only works in symbolic mode


def test_options_a_file_sets_are_refused(fib_coeffs, fib_problem, tmp_path, capsys):
    # the coefficient file sets p and the problem file sets s, so an option
    # that would be ignored is refused instead
    for argv, option in (
        (["green", "--coeffs", fib_coeffs, "--p", "7", "--t", "9", "--s", "0"], "--p"),
        (["solve", "--coeffs", fib_coeffs, "--problem", fib_problem, "--s", "5", "--t", "6"],
         "--s"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        body = json.loads(err)
        assert body["error"] == "invalid-input"
        assert option in body["message"]
    # symbolic mode reads --s, and --p without --coeffs
    code, out, _ = run_cli(capsys, ["solve", "--arith", "symbolic", "--p", "2",
                                    "--problem", fib_problem, "--s", "5", "--t", "6"])
    assert (code, json.loads(out)["s"]) == (0, 5)
    # where --s wins, a given problem file is still read and checked
    not_an_object = write_json(tmp_path / "list.json", [1, 2])
    for problem in (str(tmp_path / "missing.json"), not_an_object):
        code, out, err = run_cli(capsys, ["solve", "--arith", "symbolic", "--p", "2",
                                          "--problem", problem, "--s", "3", "--t", "5"])
        assert (code, out) == (2, ""), problem
        assert json.loads(err)["error"] == "invalid-input"


# Integers in the fuzzed documents stay small, because s, p and the time keys
# set how long a run is.
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
              st.sampled_from(["1/2", "-3", "0", "1/0", "x", "0.25", "1e3", "7/-2"]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
_scalars = st.one_of(st.sampled_from(["1/2", "-2", "0", "3/7"]),
                     st.integers(-3, 3), st.floats(-4, 4))
_time_keys = st.one_of(st.integers(-2, 6).map(str), st.text(max_size=3))


@st.composite
def _documents(draw, p):
    """Mostly an object holding most of the keys, each with a value of the
    kind it needs (rows of p values, mostly) or, less often, any JSON
    value; at times any JSON value."""
    mostly = st.sampled_from((True,) * 5 + (False,))
    if not draw(mostly):
        return draw(_json_values)
    if draw(mostly):
        row = st.lists(_scalars, min_size=p, max_size=p)
    else:
        row = st.lists(_scalars, max_size=4)
    fields = {
        "p": st.just(p),
        "kind": st.sampled_from(["table", "constant", "periodic", "bogus"]),
        "rows": st.one_of(st.dictionaries(_time_keys, row, max_size=8),
                          st.lists(row, max_size=3)),
        "phi": row,
        "period": st.integers(0, 3),
        "s": st.integers(-2, 4),
        "init": row,
        "forcing": st.dictionaries(_time_keys, _scalars, max_size=6),
    }
    doc = {}
    for key, values in fields.items():
        if draw(mostly):
            doc[key] = draw(values if draw(mostly) else _json_values)
    return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(0, 3),
       arith=st.sampled_from(["rational", "float64", "symbolic"]),
       t=st.integers(-1, 6), s=st.integers(-1, 3))
def test_fuzzed_input_files_exit_with_documented_codes(tmp_path_factory, data, p, arith,
                                                       t, s):
    """Random coefficient and problem files end in an exit code 0-5; a
    failure writes nothing to stdout and one JSON line to stderr."""
    coeffs, problem = data.draw(_documents(p)), data.draw(_documents(p))
    folder = tmp_path_factory.mktemp("fuzz")
    paths = [folder / "c.json", folder / "p.json"]
    for path, doc in zip(paths, (coeffs, problem)):
        path.write_text(json.dumps(doc))
    common = ["--coeffs", str(paths[0]), "--arith", arith, "--t", str(t)]
    for argv in (["green", *common, "--s", str(s)],
                 ["solve", *common, "--problem", str(paths[1])]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(6), argv
        if code:
            assert out.getvalue() == "", argv
            line, = err.getvalue().splitlines()
            assert json.loads(line)["error"], argv
        else:
            assert err.getvalue() == "", argv
            json.loads(out.getvalue())
