"""Traced run: per-layer metrics measured from outside the program.

The workload's queries run in this process through ``vclde.cli.main(argv)``
with stdout and stderr captured.  Each layer's public functions are rebound,
in every vclde module namespace that holds them, by wrappers that record a
span (name, start, end, parent, query id) or bump a counter; every binding
is restored afterwards.  Spans stay in memory and are written once, at the
end.  Hot per-element calls (coefficient rows, TermSum operators, chain
calls) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from reference import Checker
from workloads import GREEN_METHODS, SOLVE_METHODS

MODULES = ("scalar", "hessenberg", "leibnizian", "nested_sum", "coefficients", "lde",
           "cli")
EMIT_SPANS = ("cli._emit", "scalar.scalar_to_json", "scalar.term_sum_to_json",
              "scalar.render_scalar")
LOAD_SPANS = ("cli.load_coefficients", "cli.load_problem")
EXPONENT_ROUTES = (
    ("green", "lde.evaluate_solution", "green"),
    ("kittappa", "lde.evaluate_solution", "kittappa"),
    ("recursion", "lde.evaluate_solution", "recursion"),
    ("recurrence", "lde.evaluate_green", "recurrence"),
)
IMPORT_SAMPLES = 9


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        # span: [name, start, end, parent index, query id, attrs]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query_counts: dict[str, Counter] = defaultdict(Counter)
        self.maxima: Counter = Counter()
        self.qid: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, describe=None, observe=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else None
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, attrs]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe:
                observe(result)
            return result

        return wrapper

    def spanned_generator(self, name, fn):
        # A span whose duration is the time spent inside the generator.
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                      tracer.qid, {"busy": 0.0}]
            tracer.spans.append(record)
            busy = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    if not record[1]:
                        record[1] = t0
                    try:
                        item = next(gen)
                    finally:
                        busy += time.perf_counter() - t0
                        record[2] = time.perf_counter()
                        record[5]["busy"] = busy
                    yield item
            except StopIteration:
                return
            finally:
                gen.close()

        return wrapper

    def counted(self, name, fn, weight=None):
        counts, per_query = self.counts, self.query_counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if weight is not None:
                w = weight(*args, **kwargs)
                counts[name + ".weight"] += w
                per_query[self.qid][name + ".weight"] += w
            return fn(*args, **kwargs)

        return wrapper

    # -- binding ----------------------------------------------------------

    def rebind_function(self, modules, owner, attr, make):
        original = getattr(owner, attr)
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def rebind_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        self._restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------

    def duration(self, index: int) -> float:
        record = self.spans[index]
        attrs = record[5]
        if attrs and "busy" in attrs:
            return attrs["busy"]
        return record[2] - record[1]

    def self_times(self) -> list[float]:
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, record in enumerate(self.spans):
            if record[3] >= 0:
                own[record[3]] -= self.duration(i)
        return own

    def total(self, name: str, key=None, value=None) -> float:
        return sum(
            self.duration(i)
            for i, r in enumerate(self.spans)
            if r[0] == name and (key is None or (r[5] or {}).get(key) == value)
        )


def _observe_result(tracer: Tracer, term_sum_cls):
    def observe(value):
        if isinstance(value, term_sum_cls):
            tracer.maxima["terms"] = max(tracer.maxima["terms"], value.term_count)
        elif isinstance(value, (Fraction, int)) and not isinstance(value, bool):
            f = Fraction(value)
            bits = max(f.numerator.bit_length(), f.denominator.bit_length())
            tracer.maxima["bits"] = max(tracer.maxima["bits"], bits)

    return observe


def _matrix_order(matrix) -> int:
    # Hessenberg objects carry their order; the Casoratian passes plain rows.
    return matrix.k if hasattr(matrix, "k") else len(matrix)


def instrument(tracer: Tracer, vclde) -> None:
    """Rebind each layer's public functions; ``tracer.restore()`` undoes it."""
    mods = [vclde] + [getattr(vclde, m) for m in MODULES]
    scalar, hessenberg, leibnizian = vclde.scalar, vclde.hessenberg, vclde.leibnizian
    coefficients, lde, cli, nested = (vclde.coefficients, vclde.lde, vclde.cli,
                                      vclde.nested_sum)
    observe = _observe_result(tracer, scalar.TermSum)

    def span(name, **kw):
        return lambda fn: tracer.spanned(name, fn, **kw)

    def count(name, weight=None):
        return lambda fn: tracer.counted(name, fn, weight)

    def solve_attrs(problem, t, method="green", *a, **kw):
        return {"method": kw.get("method", method), "n": t - problem.s}

    def green_attrs(model, t, s, method="recurrence", *a, **kw):
        return {"method": kw.get("method", method), "n": t - s}

    def order_attrs(matrix, *a, **kw):
        return {"k": _matrix_order(matrix)}

    for name in ("load_coefficients", "load_problem", "_emit"):
        tracer.rebind_function(mods, cli, name, span(f"cli.{name}"))
    for name in ("scalar_to_json", "term_sum_to_json", "render_scalar"):
        tracer.rebind_function(mods, scalar, name, span(f"scalar.{name}"))

    tracer.rebind_function(mods, lde, "evaluate_solution",
                           span("lde.evaluate_solution", describe=solve_attrs,
                                observe=observe))
    tracer.rebind_function(mods, lde, "evaluate_green",
                           span("lde.evaluate_green", describe=green_attrs,
                                observe=observe))
    tracer.rebind_function(mods, lde, "casorati", span("lde.casorati"))
    tracer.rebind_method(lde.CasoratiMatrix, "casoratian",
                         span("lde.casoratian", observe=observe))
    tracer.rebind_function(mods, lde, "principal_chain",
                           count("lde.principal_chain", lambda model, m, t, s: t - s))

    for attr in ("phi_row", "phi"):
        tracer.rebind_method(coefficients.CoefficientModel, attr,
                             count("coefficients.row_reads"))
    tracer.rebind_function(mods, coefficients, "build_phi_matrix",
                           span("coefficients.build_phi_matrix"))

    for cls in (hessenberg.HessenbergMatrix, hessenberg.BandedHessenbergMatrix):
        tracer.rebind_method(cls, "from_function", span("hessenberg.from_function"))
    tracer.rebind_function(mods, hessenberg, "det_recurrence",
                           span("hessenberg.det_recurrence", describe=order_attrs))
    tracer.rebind_function(mods, hessenberg, "det_leibniz_oracle",
                           span("hessenberg.det_leibniz_oracle", describe=order_attrs))

    tracer.rebind_function(mods, leibnizian, "det_leibnizian",
                           span("leibnizian.det_leibnizian", describe=order_attrs,
                                observe=observe))
    tracer.rebind_function(mods, leibnizian, "enumerate_seps",
                           lambda fn: tracer.spanned_generator("leibnizian.enumerate_seps",
                                                               fn))
    tracer.rebind_function(mods, nested, "det_nested_sum",
                           span("nested_sum.det_nested_sum"))

    tracer.rebind_method(scalar.TermSum, "__mul__", count("scalar.termsum_mul"))
    tracer.rebind_method(scalar.TermSum, "__add__", count("scalar.termsum_add"))


# ------------------------------------------------------------------ runs

def _run_in_process(main, queries, tracer=None):
    outcomes = []
    for query in queries:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.qid = query.qid
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(query.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # A crash fails this query, as a traceback exit would in a child.
                traceback.print_exc()
                code = 1
        outcomes.append((query, code, out.getvalue(), err.getvalue()))
    if tracer is not None:
        tracer.qid = None
    return outcomes


def import_ms(env: dict) -> float:
    """Median `import vclde.cli` time minus a bare interpreter, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, sink in (("pass", bare), ("import vclde.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            sink.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000.0


def _slope(points: list[tuple[int, float]]) -> float:
    by_n: dict[int, list[float]] = defaultdict(list)
    for n, seconds in points:
        if n >= 1 and seconds > 0:
            by_n[n].append(seconds)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def _exponents(tracer: Tracer, ladder: set[str]) -> dict[str, float]:
    """Log-log slope of route time against t - s over the workload's ladder
    queries; 0 when the workload has no ladder for the route."""
    out = {}
    for label, name, method in EXPONENT_ROUTES:
        out[label] = _slope([
            (r[5]["n"], tracer.duration(i))
            for i, r in enumerate(tracer.spans)
            if r[0] == name and r[5]["method"] == method and r[4] in ladder
        ])
    return out


def traced_run(inputs, seed: int, src: Path, env: dict, trace_path: Path) -> dict:
    """Run the queries untraced then traced in-process; return the summary."""
    sys.path.insert(0, str(src))
    vclde = importlib.import_module("vclde")
    for name in MODULES:
        importlib.import_module(f"vclde.{name}")
    main = vclde.cli.main
    queries = inputs.queries

    t0 = time.perf_counter()
    _run_in_process(main, queries)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    instrument(tracer, vclde)
    try:
        t0 = time.perf_counter()
        outcomes = _run_in_process(main, queries, tracer)
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()

    checker = Checker(inputs.docs, seed)
    statuses = [(q, *checker.check(q, code, out, err)) for q, code, out, err in outcomes]
    metrics = layer_metrics(tracer, {q.qid for q in queries if q.ladder})
    metrics["cli.import_ms"] = import_ms(env)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0

    chain = chain_steps_check(tracer, queries)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "query_counts": {q: dict(c) for q, c in tracer.query_counts.items()},
        "untraced_s": untraced,
        "traced_s": traced,
        "metrics": metrics,
    }))
    return {"statuses": statuses, "metrics": metrics, "chain_check": chain,
            "untraced_s": untraced, "traced_s": traced}


def chain_steps_check(tracer: Tracer, queries) -> list[tuple[str, int, int]]:
    """(query id, measured chain steps, n(n-1)/2) for each float green solve."""
    rows = []
    for q in queries:
        e = q.expect
        if q.ladder and e["kind"] == "solve" and "--method" in q.argv and \
                q.argv[q.argv.index("--method") + 1] == "green":
            n = e["t"]
            steps = tracer.query_counts[q.qid]["lde.principal_chain.weight"]
            rows.append((q.qid, steps, n * (n - 1) // 2))
    return rows


def layer_metrics(tracer: Tracer, ladder: set[str]) -> dict[str, float]:
    own = tracer.self_times()

    def self_ms(names):
        return 1000.0 * sum(own[i] for i, r in enumerate(tracer.spans) if r[0] in names)

    def count_spans(name):
        return sum(1 for r in tracer.spans if r[0] == name)

    oracle_orders = [r[5]["k"] for r in tracer.spans
                     if r[0] == "hessenberg.det_leibniz_oracle"]
    m = {
        "cli.load_ms": self_ms(LOAD_SPANS),
        "cli.emit_ms": self_ms(EMIT_SPANS),
    }
    for method in SOLVE_METHODS:
        m[f"lde.solve.{method}_s"] = tracer.total("lde.evaluate_solution", "method", method)
    for method in GREEN_METHODS:
        m[f"lde.green.{method}_s"] = tracer.total("lde.evaluate_green", "method", method)
    m["lde.principal_chain.calls"] = tracer.counts["lde.principal_chain"]
    m["lde.principal_chain.steps"] = tracer.counts["lde.principal_chain.weight"]
    m["lde.casorati_s"] = tracer.total("lde.casorati")
    m["lde.casoratian_s"] = tracer.total("lde.casoratian")
    for label, slope in _exponents(tracer, ladder).items():
        m[f"lde.exponent.{label}"] = slope
    m["coefficients.row_reads"] = tracer.counts["coefficients.row_reads"]
    m["coefficients.build_phi_matrix_s"] = tracer.total("coefficients.build_phi_matrix")
    m["hessenberg.from_function_s"] = tracer.total("hessenberg.from_function")
    m["hessenberg.det_recurrence_s"] = tracer.total("hessenberg.det_recurrence")
    m["hessenberg.det_recurrence.order_sum"] = sum(
        r[5]["k"] for r in tracer.spans if r[0] == "hessenberg.det_recurrence"
    )
    m["hessenberg.det_leibniz_oracle_s"] = tracer.total("hessenberg.det_leibniz_oracle")
    m["hessenberg.det_leibniz_oracle.calls"] = len(oracle_orders)
    m["hessenberg.det_leibniz_oracle.order_max"] = max(oracle_orders, default=0)
    m["leibnizian.det_leibnizian_s"] = tracer.total("leibnizian.det_leibnizian")
    m["leibnizian.terms"] = sum(
        1 << (r[5]["k"] - 1)
        for r in tracer.spans
        if r[0] == "leibnizian.det_leibnizian" and r[5]["k"] >= 1
    )
    m["leibnizian.enumerate_seps_s"] = tracer.total("leibnizian.enumerate_seps")
    m["nested_sum.det_nested_sum_s"] = tracer.total("nested_sum.det_nested_sum")
    m["nested_sum.calls"] = count_spans("nested_sum.det_nested_sum")
    m["scalar.termsum_mul.calls"] = tracer.counts["scalar.termsum_mul"]
    m["scalar.termsum_add.calls"] = tracer.counts["scalar.termsum_add"]
    m["scalar.result_bits_max"] = tracer.maxima["bits"]
    m["scalar.result_terms_max"] = tracer.maxima["terms"]
    return m
