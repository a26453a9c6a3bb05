"""Spawns the benchmark's CLI children from a process with a small footprint.

The peak RSS that wait4 reports for a child includes the high-water RSS of
the process that spawned it, because the kernel records the old address
space's peak when the child execs.  Spawned from the benchmark process, every
child would read at least the benchmark's own size.  This launcher runs
without ``site`` and imports almost nothing, so its footprint (about 9 MB)
is the floor of every reading instead.

Protocol, one JSON object per line:

    stdin:  {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
    stdout: {"code": int, "wall_s": float, "rss_kb": int, "timed_out": bool}

The wall time runs from spawn to exit; a child still running at its timeout
is killed and reaped.  The launcher exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time

_running = {"pid": 0, "timed_out": False}


def _on_alarm(signum, frame):
    if _running["pid"]:
        _running["timed_out"] = True
        os.kill(_running["pid"], signal.SIGKILL)


def run(request: dict) -> dict:
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], out_flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], out_flags, 0o644),
    ]
    argv = request["argv"]
    _running["timed_out"] = False
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _running["pid"] = pid
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running["pid"] = 0
    wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "rss_kb": usage.ru_maxrss,
        "timed_out": _running["timed_out"],
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
