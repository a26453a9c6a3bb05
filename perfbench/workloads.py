"""Seeded inputs and fixed query lists for the three benchmark workloads.

Every input file is generated from the workload name and the seed; the
program under test only ever sees these files and the command lines built
here.  A query carries what the answer check needs (``expect``), so the
check never has to re-read the command line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long-horizon", "short-queries", "identity-suite")

GREEN_METHODS = ("recurrence", "leibnizian", "nested", "companion")
SOLVE_METHODS = ("green", "kittappa", "leibnizian", "nested", "recursion")

# Known defect kept in long-horizon: an exact answer longer than CPython's
# 4300-digit int-to-str limit makes the CLI exit 2 with "invalid-input" on a
# valid input.  Its failure is counted; only this failure mode is expected.
DIGIT_LIMIT_DEFECT = {
    "code": 2,
    "error": "invalid-input",
    "message_contains": "4300 digits",
}


@dataclass
class Query:
    qid: str
    argv: list[str]
    expect: dict
    ladder: bool = False
    known_defect: dict | None = None


@dataclass
class Inputs:
    queries: list[Query]
    docs: dict[str, dict] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.inputs = Inputs(queries=[])

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        text = json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        self.inputs.docs[name] = doc
        self.inputs.sizes[name] = len(text)
        return str(path)

    def add(self, qid: str, argv: list[str], expect: dict, **extra) -> None:
        self.inputs.queries.append(Query(qid, argv, expect, **extra))


# ---------------------------------------------------------------- values
#
# The seed picks values, not sizes: zeros sit at fixed positions and each
# rational coefficient position has a fixed prime denominator, so the work a
# query does (skipped zeros, big-int growth) barely changes between seeds.

RATIONAL_DENOMINATORS = (7, 11, 13, 5, 3, 17, 19, 23)
FORCING_DENOMINATOR = 4


def _is_zero_slot(t: int, m: int, p: int) -> bool:
    # About one lower-order coefficient in five is an exact zero, so the
    # zero-skip branches run; phi_p is never zero, so Casoratians are not.
    return m < p and (t + m) % 5 == 0


def _float_row(rng: random.Random, p: int, t: int) -> list[float]:
    # Non-negative and summing to 1, so values stay in the normal range.
    weights = [0.0 if _is_zero_slot(t, m, p) else rng.uniform(0.05, 1.0)
               for m in range(1, p + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _rational_row(rng: random.Random, p: int, t: int) -> list[str]:
    return [
        "0" if _is_zero_slot(t, m, p)
        else f"{rng.choice((-1, 1, 1, 1)) * rng.randint(1, 6)}/{RATIONAL_DENOMINATORS[m - 1]}"
        for m in range(1, p + 1)
    ]


def _row(rng, p, arith, t):
    if arith == "float64":
        return _float_row(rng, p, t)
    return _rational_row(rng, p, t)


def _value(rng, arith, zero=False):
    if arith == "float64":
        return 0.0 if zero else rng.uniform(0.1, 1.1)
    if zero:
        return "0"
    return f"{rng.choice((-1, 1, 1, 1)) * rng.randint(1, 9)}/{FORCING_DENOMINATOR}"


def table_doc(rng, p, arith, t_lo, t_hi) -> dict:
    rows = {str(t): _row(rng, p, arith, t) for t in range(t_lo, t_hi + 1)}
    return {"p": p, "kind": "table", "rows": rows}


def periodic_doc(rng, p, arith, period) -> dict:
    rows = [_row(rng, p, arith, idx) for idx in range(period)]
    return {"p": p, "kind": "periodic", "period": period, "rows": rows}


def constant_doc(rng, p, arith) -> dict:
    return {"p": p, "kind": "constant", "phi": _row(rng, p, arith, 4)}


def problem_doc(rng, p, arith, s, horizon, zeros=False, skip=None) -> dict:
    """Initial window and forcing for s+1..s+horizon; with ``zeros`` every
    seventh forcing value is an exact zero; ``skip`` leaves one t out."""
    forcing = {
        str(t): _value(rng, arith, zeros and t % 7 == 0)
        for t in range(s + 1, s + horizon + 1)
        if t != skip
    }
    init = [_value(rng, arith) for _ in range(p)]
    return {"s": s, "init": init, "forcing": forcing}


# ------------------------------------------------------------- workloads

LADDER = (250, 500, 1000, 2000)
RATIONAL_LADDER = (100, 200, 400)
FLOAT_LONG_GREEN_T = 1_000_000
RATIONAL_DIGITS_T = 6000


def _long_horizon(w: _Writer, rng: random.Random) -> None:
    p, top = 4, LADDER[-1]
    f4 = w.write("f4-table.json", table_doc(rng, p, "float64", 1 - p, top))
    f4p = w.write("f4-problem.json", problem_doc(rng, p, "float64", 0, top))
    for n in LADDER:
        for method in ("green", "kittappa", "recursion"):
            w.add(
                f"solve-f4-{method}-{n}",
                ["solve", "--coeffs", f4, "--problem", f4p, "--t", str(n),
                 "--arith", "float64", "--method", method],
                {"kind": "solve", "coeffs": "f4-table.json",
                 "problem": "f4-problem.json", "t": n, "arith": "float64"},
                ladder=True,
            )
        w.add(
            f"green-f4-recurrence-{n}",
            ["green", "--coeffs", f4, "--t", str(n), "--s", "0",
             "--arith", "float64", "--method", "recurrence"],
            {"kind": "green", "coeffs": "f4-table.json", "t": n, "s": 0,
             "arith": "float64"},
            ladder=True,
        )

    p, top = 2, RATIONAL_LADDER[-1]
    q2 = w.write("q2-table.json", table_doc(rng, p, "rational", 1 - p, top))
    q2p = w.write("q2-problem.json", problem_doc(rng, p, "rational", 0, top, zeros=True))
    for n in RATIONAL_LADDER:
        for method in ("green", "kittappa", "recursion"):
            w.add(
                f"solve-q2-{method}-{n}",
                ["solve", "--coeffs", q2, "--problem", q2p, "--t", str(n),
                 "--method", method],
                {"kind": "solve", "coeffs": "q2-table.json",
                 "problem": "q2-problem.json", "t": n, "arith": "rational"},
            )

    per = w.write(
        "f4-periodic.json", periodic_doc(rng, 4, "float64", 5)
    )
    t = FLOAT_LONG_GREEN_T
    w.add(
        f"green-f4-periodic-{t}",
        ["green", "--coeffs", per, "--t", str(t), "--s", "0", "--arith", "float64"],
        {"kind": "green", "coeffs": "f4-periodic.json", "t": t, "s": 0,
         "arith": "float64"},
    )

    # Rows (a/7, (7-a)/7): the numerator of H stays prime to 7, so the
    # reduced denominator is 7^(t-s), 5071 digits at t-s = 6000.
    rows = []
    for _ in range(2):
        a = rng.randint(1, 6)
        rows.append([f"{a}/7", f"{7 - a}/7"])
    big = w.write("q2-digits.json", {"p": 2, "kind": "periodic", "period": 2,
                                     "rows": rows})
    t = RATIONAL_DIGITS_T
    w.add(
        f"green-q2-digits-{t}",
        ["green", "--coeffs", big, "--t", str(t), "--s", "0"],
        {"kind": "green", "coeffs": "q2-digits.json", "t": t, "s": 0,
         "arith": "rational"},
        known_defect=DIGIT_LIMIT_DEFECT,
    )


# Short queries rotate (t - s, p) over these pairs; symbolic queries use
# the smaller half of each horizon, since their outputs grow fastest.
SHORT_SHAPES = ((4, 4), (8, 3), (12, 2))
SHORT_KINDS = ("table", "periodic", "constant")


def _short_models(w: _Writer, rng: random.Random) -> dict:
    """One model and problem file per (arith, p).

    Values are (coeffs path, problem path, coeffs name, problem name,
    anchor s, kind); table models anchor at s = -3, the others at 0.
    """
    models = {}
    for idx, (horizon, p) in enumerate(SHORT_SHAPES):
        for arith, tag in (("rational", "q"), ("float64", "f")):
            kind = SHORT_KINDS[(idx + (arith == "float64")) % 3]
            s = -3 if kind == "table" else 0
            if kind == "table":
                doc = table_doc(rng, p, arith, s - p + 1, s + horizon)
            elif kind == "periodic":
                doc = periodic_doc(rng, p, arith, 3)
            else:
                doc = constant_doc(rng, p, arith)
            name = f"{tag}{p}-{kind}.json"
            prob = f"{tag}{p}-problem.json"
            models[(arith, p)] = (
                w.write(name, doc),
                w.write(prob, problem_doc(rng, p, arith, s, horizon, zeros=True)),
                name,
                prob,
                s,
                kind,
            )
    return models


def _short_queries(w: _Writer, rng: random.Random) -> None:
    models = _short_models(w, rng)
    for horizon, p in SHORT_SHAPES:
        sym_h = horizon // 2
        for arith in ("rational", "float64", "symbolic"):
            if arith == "symbolic":
                h, s = sym_h, 0
                src = ["--p", str(p)]
                base = {"coeffs": None, "p": p}
            else:
                path, _, name, _, s, _ = models[(arith, p)]
                h = horizon
                src = ["--coeffs", path]
                base = {"coeffs": name}
            for method in GREEN_METHODS:
                w.add(
                    f"green-{arith}-p{p}-{method}-{h}",
                    ["green", *src, "--t", str(s + h), "--s", str(s),
                     "--arith", arith, "--method", method],
                    {"kind": "green", "t": s + h, "s": s, "arith": arith, **base},
                )
            for method in SOLVE_METHODS:
                if arith == "symbolic":
                    files = ["--s", str(s)]
                    prob = None
                else:
                    _, prob_path, _, prob, _, _ = models[(arith, p)]
                    files = ["--problem", prob_path]
                w.add(
                    f"solve-{arith}-p{p}-{method}-{h}",
                    ["solve", *src, *files, "--t", str(s + h),
                     "--arith", arith, "--method", method],
                    {"kind": "solve", "t": s + h, "s": s, "problem": prob,
                     "arith": arith, **base},
                )
            fh = sym_h // 2 if arith == "symbolic" else h
            w.add(
                f"fundamental-{arith}-p{p}-{fh}",
                ["fundamental", *src, "--t", str(s + fh), "--s", str(s),
                 "--arith", arith],
                {"kind": "fundamental", "t": s + fh, "s": s, "arith": arith, **base},
            )
            if arith == "symbolic":
                vh = sym_h
                extra = []
            else:
                vh = h
                extra = ["--problem", models[(arith, p)][1]]
            w.add(
                f"verify-{arith}-p{p}-{vh}",
                ["verify", *src, *extra, "--t", str(s + vh), "--s", str(s),
                 "--arith", arith],
                {"kind": "verify", "arith": arith},
            )
        order = horizon // 2 + 1
        w.add(f"expand-{order}", ["expand", "--order", str(order)],
              {"kind": "expand", "order": order})

    # Inputs the CLI must reject with their documented exit codes.
    bad_mix = w.write("bad-mixed.json", {"p": 2, "kind": "constant",
                                         "phi": [0.5, "1/2"]})
    w.add("reject-float-in-rational", ["green", "--coeffs", bad_mix, "--t", "3",
                                       "--s", "0"],
          {"kind": "reject", "code": 2, "error": "invalid-input"})
    path, prob_path, _, _, s, _ = next(
        m for (arith, _), m in models.items() if arith == "rational" and m[5] == "table"
    )
    w.add("reject-outside-domain", ["green", "--coeffs", path, "--t", str(s + 40),
                                    "--s", str(s)],
          {"kind": "reject", "code": 2, "error": "invalid-input"})
    w.add("reject-unknown-method", ["solve", "--coeffs", path, "--problem",
                                    prob_path, "--t", "2", "--method", "bogus"],
          {"kind": "reject", "code": 2, "error": "usage"})
    w.add("reject-expand-order", ["expand", "--order", "13"],
          {"kind": "reject", "code": 3, "error": "enum-limit"})
    for arith, tag in (("rational", "q"), ("float64", "f")):
        path, _, _, _, s, _ = models[(arith, 3)]
        gap = s + 5
        doc = problem_doc(rng, 3, arith, s, 8, skip=gap)
        hole = w.write(f"{tag}3-hole.json", doc)
        w.add(f"reject-missing-forcing-{arith}",
              ["solve", "--coeffs", path, "--problem", hole, "--t", str(s + 8),
               "--arith", arith],
              {"kind": "reject", "code": 4, "error": "missing-forcing", "t": gap})


VERIFY_HORIZONS = (12, 14, 16)
FUNDAMENTAL_ORDERS = (4, 6, 8)
FUNDAMENTAL_T = 30
EXPAND_ORDERS = (8, 10, 12)
SEP_T = 18


def _identity_suite(w: _Writer, rng: random.Random) -> None:
    top = max(max(VERIFY_HORIZONS), SEP_T)
    q3 = w.write("q3-table.json", table_doc(rng, 3, "rational", -2, top))
    q3p = w.write("q3-problem.json", problem_doc(rng, 3, "rational", 0, top, zeros=True))
    for n in VERIFY_HORIZONS:
        w.add(f"verify-q3-{n}",
              ["verify", "--coeffs", q3, "--problem", q3p, "--t", str(n), "--s", "0"],
              {"kind": "verify", "arith": "rational"})
    f3 = w.write("f3-table.json", table_doc(rng, 3, "float64", -2, 12))
    f3p = w.write("f3-problem.json", problem_doc(rng, 3, "float64", 0, 12))
    w.add("verify-f3-12",
          ["verify", "--coeffs", f3, "--problem", f3p, "--t", "12", "--s", "0",
           "--arith", "float64"],
          {"kind": "verify", "arith": "float64"})
    for p in FUNDAMENTAL_ORDERS:
        name = f"q{p}-table.json"
        path = w.write(name, table_doc(rng, p, "rational", 1 - p, FUNDAMENTAL_T))
        w.add(f"fundamental-q{p}-{FUNDAMENTAL_T}",
              ["fundamental", "--coeffs", path, "--t", str(FUNDAMENTAL_T), "--s", "0"],
              {"kind": "fundamental", "coeffs": name, "t": FUNDAMENTAL_T, "s": 0,
               "arith": "rational"})
    for k in EXPAND_ORDERS:
        w.add(f"expand-{k}", ["expand", "--order", str(k)],
              {"kind": "expand", "order": k})
    w.add("green-symbolic-p3-14",
          ["green", "--arith", "symbolic", "--p", "3", "--t", "14", "--s", "0"],
          {"kind": "green", "coeffs": None, "p": 3, "t": 14, "s": 0,
           "arith": "symbolic"})
    w.add("solve-symbolic-p2-12",
          ["solve", "--arith", "symbolic", "--p", "2", "--s", "0", "--t", "12"],
          {"kind": "solve", "coeffs": None, "problem": None, "p": 2, "t": 12,
           "s": 0, "arith": "symbolic"})
    for method in ("leibnizian", "nested"):
        w.add(f"green-q3-{method}-{SEP_T}",
              ["green", "--coeffs", q3, "--t", str(SEP_T), "--s", "0",
               "--method", method],
              {"kind": "green", "coeffs": "q3-table.json", "t": SEP_T, "s": 0,
               "arith": "rational"})


_BUILDERS = {
    "long-horizon": _long_horizon,
    "short-queries": _short_queries,
    "identity-suite": _identity_suite,
}


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files under ``workdir``; same seed, same bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(workdir)
    _BUILDERS[workload](writer, random.Random(f"{workload}:{seed}"))
    return writer.inputs


def warmup_queries(workdir: Path) -> Inputs:
    """One tiny call per subcommand, used to warm the bytecode cache."""
    workdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(workdir)
    fib = w.write("warm-coeffs.json", {"p": 2, "kind": "constant", "phi": ["1", "1"]})
    prob = w.write("warm-problem.json", {"s": 0, "init": ["0", "1"], "forcing": {}})
    fib_expect = {"coeffs": "warm-coeffs.json", "arith": "rational"}
    w.add("warm-green", ["green", "--coeffs", fib, "--t", "5", "--s", "0"],
          {"kind": "green", "t": 5, "s": 0, **fib_expect})
    w.add("warm-solve", ["solve", "--coeffs", fib, "--problem", prob, "--t", "5"],
          {"kind": "solve", "problem": "warm-problem.json", "t": 5, **fib_expect})
    w.add("warm-fundamental", ["fundamental", "--coeffs", fib, "--t", "4", "--s", "0"],
          {"kind": "fundamental", "t": 4, "s": 0, **fib_expect})
    w.add("warm-expand", ["expand", "--order", "3"], {"kind": "expand", "order": 3})
    w.add("warm-verify", ["verify", "--coeffs", fib, "--t", "4", "--s", "0"],
          {"kind": "verify", "arith": "rational"})
    return w.inputs
