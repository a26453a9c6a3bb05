"""Compare the command line of two source trees byte for byte.

    python3 tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``vclde`` package (a
checkout's ``src/``).  Each query runs as ``python -m vclde`` once under
each tree, with ``PYTHONDONTWRITEBYTECODE=1`` and without
``VCLDE_ENUM_LIMIT``, one child at a time.  The queries are every seed-1
query of the benchmark's workloads (``perfbench/workloads.py``), its
warm-up queries, ``--help``, and ``expand --order 1..12`` with and without
``--pretty``.  Input files are written once, to a temporary directory, and
both trees read the same files.

Prints the id of each query whose exit code, stdout or stderr differ, then
a count; exits 1 if any differ, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

TIMEOUT_S = 600


def queries(workdir: Path) -> list[tuple[str, list[str]]]:
    """(id, argv) of every query to compare, inputs written under ``workdir``."""
    out = []
    for name in workloads.WORKLOADS:
        out += [(f"{name}/{q.qid}", q.argv)
                for q in workloads.generate(name, 1, workdir / name).queries]
    out += [(f"warm/{q.qid}", q.argv)
            for q in workloads.warmup_queries(workdir / "warm").queries]
    out.append(("help", ["--help"]))
    for k in range(1, 13):
        out.append((f"expand-{k}", ["expand", "--order", str(k)]))
        out.append((f"expand-{k}-pretty", ["expand", "--order", str(k), "--pretty"]))
    return out


def run(src: Path, argv: list[str], cwd: Path) -> tuple:
    """Exit code, stdout and stderr bytes of one child; a child that passes
    the timeout reads as code None with what it wrote discarded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    env.pop("VCLDE_ENUM_LIMIT", None)
    try:
        done = subprocess.run([sys.executable, "-m", "vclde", *argv], cwd=cwd, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", b""
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_cli.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    for src in (old, new):
        if not (src / "vclde" / "__main__.py").is_file():
            print(f"no vclde package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cases = queries(workdir)
        differ = [qid for qid, args in cases
                  if run(old, args, workdir) != run(new, args, workdir)]
    for qid in differ:
        print(qid)
    print(f"{len(differ)} of {len(cases)} queries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
