"""Closed-loop benchmark of the vclde command line.

    python3 perfbench/run.py --workload long-horizon --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

One client runs one ``python -m vclde`` child at a time against the
checkout's ``src/`` and sends the next query only after the previous child
has exited.  A run repeats the workload's fixed query list in whole passes
for about ``--seconds`` seconds (at least one pass), checks every answer
against the benchmark's own references (``reference.py``), and prints a
table followed by one JSON result line.

End-to-end metrics (``--trace 0``):

- queries_per_s: queries in the list over the time of one pass, taking
  each query at its median wall time over the run's passes;
- query_p50_ms: median wall time per query, spawn to exit, taken over the
  per-query medians so that one slow sample cannot move it between queries;
- peak_rss_mb: the largest peak RSS of any single child, from ``wait4`` in
  ``launcher.py``, whose small footprint keeps the reading the child's own;
- setup_s: median of five set-ups, each generating the inputs and making
  one warm-up call per subcommand.

The table also shows query_p90_ms on short-queries (at least 100 samples)
and error_rate; ``attempted`` and ``failed`` carry the latter in the JSON.

``--trace 1`` runs the same queries in-process, untraced and then traced,
and reports the per-layer metrics (``tracing.py``); spans go to
``.perfbench_work/traces/<workload>-seed<seed>.json``.

``correct`` is false when any query fails other than by a documented known
defect (see workloads.py); known defects still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import schema
import workloads
from reference import FAILED, KNOWN, OK, Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_kb: int
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env.pop("VCLDE_ENUM_LIMIT", None)
    return env


class Launcher:
    """Client of launcher.py, which spawns and reaps the CLI children."""

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )

    def run(self, argv: list[str], workdir: Path, timeout: float) -> Outcome:
        """One CLI query: wall time from spawn to exit, that child's peak RSS."""
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        request = {"argv": [sys.executable, "-m", "vclde", *argv],
                   "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher exited early")
        reply = json.loads(line)
        if reply["timed_out"]:
            raise BenchError(f"query {argv} passed the run deadline")
        return Outcome(reply["code"], reply["wall_s"], reply["rss_kb"],
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.launcher = Launcher(self.env, run_dir)

    def spawn(self, argv, workdir) -> Outcome:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("the run deadline passed")
        return self.launcher.run(argv, workdir, remaining)

    def setup(self, repeats: int = SETUP_REPEATS):
        """Generate inputs and warm each subcommand, ``repeats`` times."""
        times = []
        for i in range(repeats):
            base = self.run_dir / f"setup-{i}"
            t0 = time.perf_counter()
            inputs = workloads.generate(self.workload, self.seed, base / "inputs")
            warm = workloads.warmup_queries(base / "warm")
            outcomes = [self.spawn(q.argv, base) for q in warm.queries]
            times.append(time.perf_counter() - t0)
            checker = Checker(warm.docs, self.seed)
            for q, o in zip(warm.queries, outcomes):
                status, why = checker.check(q, o.code, o.out, o.err)
                if status != OK:
                    raise BenchError(f"warm-up {q.qid} failed: {why}")
            if i < repeats - 1:
                shutil.rmtree(base)
        return times, inputs

    def timed(self, inputs, seconds: float):
        """Whole passes over the query list while another pass fits in time."""
        records = []
        passes = 0
        start = time.perf_counter()
        while True:
            for q in inputs.queries:
                records.append((q, self.spawn(q.argv, self.run_dir)))
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
        return records, passes, elapsed


def _status_lines(statuses) -> tuple[int, int, bool, list[str]]:
    failed = sum(1 for _, status, _ in statuses if status != OK)
    unexpected = [(q, why) for q, status, why in statuses if status == FAILED]
    notes = [f"  FAILED {q.qid}: {why}" for q, why in unexpected[:10]]
    known = sorted({q.qid for q, status, _ in statuses if status == KNOWN})
    notes += [f"  known defect {qid}: counted as failed" for qid in known]
    return len(statuses), failed, not unexpected, notes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(runner: Runner, seconds: float, bench: dict):
    setup_times, inputs = runner.setup()
    records, passes, loop_s = runner.timed(inputs, seconds)
    checker = Checker(inputs.docs, runner.seed)
    statuses = [(q, *checker.check(q, o.code, o.out, o.err)) for q, o in records]
    attempted, failed, correct, notes = _status_lines(statuses)
    walls = [o.wall_s for _, o in records]
    per_query: dict[str, list[float]] = {}
    for q, o in records:
        per_query.setdefault(q.qid, []).append(o.wall_s)
    medians = [statistics.median(v) for v in per_query.values()]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    values = {
        "queries_per_s": len(medians) / sum(medians),
        "query_p50_ms": statistics.median(medians) * 1000.0,
        "peak_rss_mb": max(o.rss_kb for _, o in records) / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    p90 = statistics.quantiles(walls, n=10)[8] * 1000.0 if len(walls) >= 100 else None
    table = [
        f"workload {runner.workload}: {len(inputs.queries)} queries x {passes} pass(es), "
        f"seed {runner.seed}, closed loop, 1 client, 1 child at a time",
        f"  queries_per_s  {values['queries_per_s']:.4f} 1/s  (one pass at per-query "
        f"medians; raw {len(records) / loop_s:.4f} over {loop_s:.1f} s)",
        f"  query_p50_ms   {values['query_p50_ms']:.2f} ms  (median of {len(medians)} "
        f"per-query medians, {len(walls)} samples)",
    ]
    if p90 is not None:
        beyond = sum(1 for w in walls if w * 1000.0 > p90)
        table.append(f"  query_p90_ms   {p90:.2f} ms  (n={len(walls)}, {beyond} beyond)")
    table += [
        f"  peak_rss_mb    {values['peak_rss_mb']:.2f} MB  (largest single child)",
        f"  error_rate     {failed / attempted:.4f}  ({failed} of {attempted} failed)",
        f"  setup_s        {values['setup_s']:.4f} s  (median of {SETUP_REPEATS}: "
        + ", ".join(f"{t:.3f}" for t in setup_times) + ")",
        "  input bytes    " + ", ".join(f"{k}={v}" for k, v in sorted(inputs.sizes.items())),
    ] + notes
    metrics = {name: _metric(values[name], units[name]) for name in units}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, table


def run_traced(runner: Runner, bench: dict):
    import tracing

    _, inputs = runner.setup(repeats=1)
    trace_path = WORK / "traces" / f"{runner.workload}-seed{runner.seed}.json"
    summary = tracing.traced_run(inputs, runner.seed, SRC, runner.env, trace_path)
    attempted, failed, correct, notes = _status_lines(summary["statuses"])
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    values = summary["metrics"]
    table = [
        f"workload {runner.workload} (traced, in-process): {len(inputs.queries)} queries, "
        f"seed {runner.seed}; untraced {summary['untraced_s']:.3f} s, "
        f"traced {summary['traced_s']:.3f} s; spans in {trace_path.relative_to(ROOT)}",
    ]
    table += [f"  {name:40s} {values[name]:.6g} {unit}" for name, unit in units.items()]
    for qid, steps, expected in summary["chain_check"]:
        table.append(f"  {qid}: principal_chain steps {steps}, n(n-1)/2 = {expected}")
    table += notes
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, table


def run_one(workload: str, seed: int, seconds: float, trace: bool, bench: dict):
    run_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, seed, run_dir)
    try:
        if trace:
            return run_traced(runner, bench)
        return run_untraced(runner, seconds, bench)
    finally:
        runner.launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vclde" / "cli.py").is_file():
        print(f"no vclde sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        bench = schema.load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"machine: nproc={os.cpu_count()}, Python {platform.python_version()}, "
          f"{platform.machine()}")
    results = {}
    try:
        for name in names:
            result, table = run_one(name, args.seed, seconds, bool(args.trace), bench)
            schema.check_result(result, bench, bool(args.trace))
            print("\n".join(table), flush=True)
            results[name] = result
    except (BenchError, schema.SchemaError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
