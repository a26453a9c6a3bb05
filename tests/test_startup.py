"""Start-up cost and the public surface: the package imports nothing eagerly,
each CLI command loads only the modules it runs, the exports are the names
README documents, and the value classes stay immutable without
dataclasses."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vclde
from vclde import BackendMismatchError, CoefficientModel, DomainError, SolutionProblem

EXPANSIONS = {"vclde.leibnizian", "vclde.nested_sum", "vclde.hessenberg"}
VERIFICATION_ONLY = EXPANSIONS | {"vclde.oracles", "vclde.verification", "dataclasses"}
# the rational backend's modules, and the symbolic backend
RATIONAL_ONLY = {"fractions", "decimal"}
SYMBOLIC_ONLY = {"vclde.symbolic"}
# the command line is read from a table in cli, not by argparse
ARGPARSE = {"argparse", "gettext"}
README = Path(__file__).resolve().parents[1] / "README.md"

# Runs in a fresh interpreter: records the modules loaded since start after
# `import vclde`, after `import vclde.cli` and after each command; prints one
# JSON document.
CHILD = """
import contextlib, io, json, sys
start = set(sys.modules)
import vclde
seen = {"package": sorted(set(sys.modules) - start),
        "eager": sorted(set(vars(vclde)) & set(vclde.__all__))}
import vclde.cli
seen["import"] = sorted(set(sys.modules) - start)
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = vclde.cli.main(argv)
    seen[label] = [code, sorted(set(sys.modules) - start)]
print(json.dumps(seen))
"""


def run_child(commands, code=CHILD):
    """The JSON that ``code`` prints in a fresh interpreter, given the JSON
    of ``commands`` as its argv[1]."""
    src = str(Path(vclde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def fib_files(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"p": 2, "kind": "constant", "phi": ["1", "1"]}')
    problem = tmp_path / "p.json"
    problem.write_text('{"s": 0, "init": ["0", "1"], "forcing": {"1": "1", "2": "1/2"}}')
    return str(coeffs), str(problem)


def test_production_commands_skip_verification_modules(fib_files):
    # The modules loaded are cumulative, so the oracle routes run last.
    coeffs, problem = fib_files
    seen = run_child([
        ["green", ["green", "--coeffs", coeffs, "--t", "9", "--s", "0"]],
        ["solve", ["solve", "--coeffs", coeffs, "--problem", problem, "--t", "2",
                   "--method", "kittappa"]],
        ["solve-green", ["solve", "--coeffs", coeffs, "--problem", problem, "--t", "2"]],
        ["fundamental", ["fundamental", "--coeffs", coeffs, "--t", "9", "--s", "0"]],
        ["green-companion", ["green", "--coeffs", coeffs, "--t", "9", "--s", "0",
                             "--method", "companion"]],
        ["solve-recursion", ["solve", "--coeffs", coeffs, "--problem", problem,
                             "--t", "2", "--method", "recursion"]],
    ])
    assert seen.pop("package") == ["vclde"]
    assert seen.pop("eager") == []
    assert not (VERIFICATION_ONLY | ARGPARSE) & set(seen.pop("import"))
    for label, (code, modules) in seen.items():
        assert code == 0, label
        assert not ARGPARSE & set(modules), label
        if label in ("green-companion", "solve-recursion"):
            assert "vclde.oracles" in modules, label
            assert not (VERIFICATION_ONLY - {"vclde.oracles"}) & set(modules), label
        else:
            assert not VERIFICATION_ONLY & set(modules), label


def test_each_arithmetic_loads_only_its_backend(tmp_path, fib_files):
    # The modules loaded are cumulative: float64, then rational, then symbolic.
    coeffs = tmp_path / "f.json"
    coeffs.write_text('{"p": 2, "kind": "constant", "phi": [0.5, 0.25]}')
    problem = tmp_path / "fp.json"
    problem.write_text('{"s": 0, "init": [0.0, 1.0], "forcing": {"1": 1.0, "2": 0.5}}')
    floats = ["--coeffs", str(coeffs), "--arith", "float64"]
    rational = ["--coeffs", fib_files[0]]
    commands = []
    for arith, model, problem_file in (("float64", floats, str(problem)),
                                       ("rational", rational, fib_files[1])):
        commands += [
            [f"{arith}-green", ["green", *model, "--t", "9", "--s", "0"]],
            [f"{arith}-solve-green", ["solve", *model, "--problem", problem_file,
                                      "--t", "2"]],
            [f"{arith}-solve-kittappa", ["solve", *model, "--problem", problem_file,
                                         "--t", "2", "--method", "kittappa"]],
            [f"{arith}-fundamental", ["fundamental", *model, "--t", "9", "--s", "0"]],
        ]
    commands.append(["symbolic-green", ["green", "--arith", "symbolic", "--p", "2",
                                        "--t", "4", "--s", "0"]])
    seen = run_child(commands)
    assert not (RATIONAL_ONLY | SYMBOLIC_ONLY) & set(seen["import"])
    for label, _ in commands:
        code, modules = seen[label]
        assert code == 0, label
        assert not VERIFICATION_ONLY & set(modules), label
        if label.startswith("float64"):
            assert not (RATIONAL_ONLY | SYMBOLIC_ONLY) & set(modules), label
        elif label.startswith("rational"):
            assert RATIONAL_ONLY <= set(modules), label
            assert not SYMBOLIC_ONLY & set(modules), label
        else:
            assert SYMBOLIC_ONLY <= set(modules), label


# Runs in a fresh interpreter, where nothing has imported fractions: passes
# caller-built values through one backend check, named in argv[1], and
# prints whether fractions was loaded before the caller's import, and each
# outcome.
BACKEND_CHILD = """
import json, sys
import vclde.cli
from vclde import scalar
from vclde.coefficients import CoefficientModel
loaded = "fractions" in sys.modules
from fractions import Fraction

class Half(Fraction):
    pass

name = json.loads(sys.argv[1])
check = {"backend_of": lambda values: scalar.backend_of(*values),
         "rows_backend": lambda values: scalar.rows_backend((values,)),
         "constant": lambda values: CoefficientModel.constant(values).backend}[name]
cases = {"subclass": [Half(1, 2)], "fraction": [Fraction(1, 3)], "int": [3],
         "bool": [True], "termsum": [scalar.TermSum.constant(1)],
         "mixed": [0.5, Fraction(1, 2)]}
if name == "backend_of":
    del cases["mixed"]
outcomes = {}
for label, values in cases.items():
    try:
        outcomes[label] = check(values)
    except scalar.BackendMismatchError:
        outcomes[label] = "BackendMismatchError"
print(json.dumps([loaded, outcomes]))
"""


@pytest.mark.parametrize("check", ["backend_of", "rows_backend", "constant"])
def test_backends_are_classified_before_their_modules_load(check):
    # Fraction and TermSum enter the backend table when first met, so each
    # check meets them first in an interpreter where no file was parsed.
    loaded, outcomes = run_child(check, BACKEND_CHILD)
    assert loaded is False
    expected = {"subclass": "rational", "fraction": "rational", "int": "rational",
                "bool": "BackendMismatchError", "termsum": "symbolic",
                "mixed": "BackendMismatchError"}
    if check == "backend_of":
        del expected["mixed"]
    assert outcomes == expected


def test_verify_and_expand_load_what_they_run(fib_files):
    coeffs, problem = fib_files
    seen = run_child([
        ["expand", ["expand", "--order", "4"]],
        ["verify", ["verify", "--coeffs", coeffs, "--problem", problem, "--t", "2",
                    "--s", "0"]],
        ["verify-corrupt", ["verify", "--coeffs", coeffs, "--t", "6", "--s", "0",
                            "--corrupt"]],
        ["usage-error", ["verify", "--t", "6"]],
        ["help", ["--help"]],
    ])
    assert not (VERIFICATION_ONLY | ARGPARSE) & set(seen["import"])
    for label in ("expand", "verify", "verify-corrupt", "usage-error", "help"):
        assert not ARGPARSE & set(seen[label][1]), label
    assert (seen["usage-error"][0], seen["help"][0]) == (2, 0)
    expand_code, expand_modules = seen["expand"]
    assert expand_code == 0
    assert {"vclde.leibnizian", "vclde.hessenberg", "vclde.verification"} <= set(expand_modules)
    assert seen["verify"][0] == 0
    assert {"vclde.oracles", "vclde.leibnizian", "vclde.nested_sum"} <= set(seen["verify"][1])
    assert seen["verify-corrupt"][0] == 1
    assert "dataclasses" not in set(seen["verify-corrupt"][1])


def test_exports_are_the_readme_library_list():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = []
    for item in section.split("\n- ")[1:]:
        # the names a list item documents lead it, before its colon
        documented += re.findall(r"`(\w+)`", re.match(r"(?:`\w+`,?\s*)+", item)[0])
    assert len(documented) == len(set(documented))
    assert sorted(documented) == vclde.__all__


def test_every_public_name_resolves_lazily():
    assert len(vclde.__all__) == len(set(vclde.__all__))
    for name in vclde.__all__:
        assert vclde.__getattr__(name) is getattr(vclde, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from vclde import *", namespace)
    assert set(vclde.__all__) <= set(namespace)
    assert namespace["green"] is vclde.lde.green


def test_unknown_names_raise():
    with pytest.raises(AttributeError):
        vclde.no_such_name
    with pytest.raises(AttributeError):
        vclde.validate_string_properties  # moved to the tests
    # wrappers of a dispatch that evaluate_green / evaluate_solution do, the
    # Hessenberg JSON format that nothing read or wrote, and identities that
    # only the tests called (now test references, or deleted)
    for name in ("green_leibnizian", "green_nested_sum", "general_solution_leibnizian",
                 "general_solution_nested", "homogeneous_solution_green",
                 "companion_matrix", "hessenberg_to_json", "hessenberg_from_json",
                 "xi_via_green", "homogeneous_solution", "particular_solution_det"):
        assert name not in vclde.__all__
        with pytest.raises(AttributeError):
            getattr(vclde, name)
    assert not hasattr(vclde.lde, "particular_solution_det")
    assert not hasattr(vclde.hessenberg.HessenbergMatrix, "from_entries")
    with pytest.raises(ImportError):
        exec("from vclde import no_such_name", {})


def test_value_classes_are_immutable_and_validated():
    model = CoefficientModel.constant((Fraction(1), Fraction(1)))
    problem = SolutionProblem(model, 0, [Fraction(0), Fraction(1)])
    assert problem.init == (Fraction(0), Fraction(1))
    matrix = vclde.casorati(model, 5, 0)
    assert type(matrix).__slots__ == ("entries", "abel")
    term = next(vclde.leibnizian.enumerate_seps(3))
    for obj, field in ((problem, "s"), (matrix, "abel"), (term, "sign"), (model, "p"),
                       (model, "backend"), (model, "t_min"), (model, "t_max"),
                       (model, "period")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
    with pytest.raises(DomainError):
        SolutionProblem(model, 0, [Fraction(1)])
    with pytest.raises(BackendMismatchError):
        SolutionProblem(model, 0, [0.0, 1.0])
    with pytest.raises(DomainError):
        SolutionProblem(model, 0, [Fraction(0), Fraction(1)], {0: Fraction(1)})
    with pytest.raises(ValueError):
        vclde.leibnizian.SepTerm(3, (2, 1, 3), 1)
    # equality and hashing go by value, as they did for the dataclasses
    assert term == vclde.leibnizian.SepTerm(term.k, term.columns, term.sign)
    assert hash(term) == hash(vclde.leibnizian.SepTerm(term.k, term.columns, term.sign))
    assert vclde.casorati(model, 5, 0) == matrix
    # row functions compare by identity, so separately built models differ
    assert model == model and hash(model) == hash(model)
    assert CoefficientModel.constant(model.phi_row(0)) != model
    assert repr(term) == f"SepTerm(k=3, columns={term.columns!r}, sign={term.sign})"
