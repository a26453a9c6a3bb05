"""Every benchmark query, run in-process, passes the benchmark's own answer
check, so an output change the benchmark would count as a wrong answer fails
here first."""

import contextlib
import io
import sys
from pathlib import Path

from vclde.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))  # usage errors too return their exit code
    return code, out.getvalue(), err.getvalue()


def test_every_benchmark_query_passes_the_answer_check(tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import reference
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    batches = [workloads.generate(name, SEED, tmp_path / name) for name in workloads.WORKLOADS]
    batches.append(workloads.warmup_queries(tmp_path / "warm"))
    failures = []
    for inputs in batches:
        assert inputs.queries
        checker = reference.Checker(inputs.docs, SEED)
        for query in inputs.queries:
            status, detail = checker.check(query, *_outcome(query.argv))
            if status != reference.OK:
                failures.append((query.qid, status, detail))
    assert failures == []
