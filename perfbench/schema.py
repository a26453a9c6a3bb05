"""Schema checks for BENCHMARK.json and for the benchmark's result line.

No timing is gated here: only names, units, types and limits.  Run it
directly to check BENCHMARK.json:

    python3 perfbench/schema.py
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


class SchemaError(ValueError):
    """A document breaks the benchmark's schema."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SchemaError(message)


def _names(items, keys, where):
    seen = set()
    for item in items:
        _require(isinstance(item, dict) and set(item) == keys,
                 f"{where}: each entry needs exactly {sorted(keys)}")
        name = item["name"]
        _require(isinstance(name, str) and NAME.fullmatch(name) is not None,
                 f"{where}: bad name {name!r}")
        _require(name not in seen, f"{where}: duplicate name {name!r}")
        seen.add(name)
    return seen


def check_benchmark(doc: dict) -> None:
    _require(isinstance(doc, dict) and set(doc) == TOP_KEYS,
             f"BENCHMARK.json needs exactly the keys {sorted(TOP_KEYS)}")
    command = doc["command"]
    _require(isinstance(command, list) and 1 <= len(command) <= 32
             and all(isinstance(c, str) and len(c) <= 200 for c in command),
             "command: 1 to 32 strings of at most 200 characters")
    paths = doc["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for p in paths:
        _require(isinstance(p, str) and PATH.fullmatch(p) is not None
                 and not p.startswith("/") and ".." not in p.split("/"),
                 f"paths: bad path {p!r}")
    for arg in command:
        _require(not arg.startswith("/") and ".." not in arg.split("/"),
                 f"command: absolute or escaping path {arg!r}")
    seconds = doc["run_seconds"]
    _require(isinstance(seconds, int) and not isinstance(seconds, bool)
             and 1 <= seconds <= 60, "run_seconds: a whole number from 1 to 60")
    workloads = doc["workloads"]
    _require(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
             "workloads: 2 to 8 entries")
    names = _names(workloads, {"name", "why"}, "workloads")
    for w in workloads:
        why = w["why"]
        _require(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
                 f"workloads: 'why' of {w['name']} must be one line of at most 200")
    e2e = doc["end_to_end"]
    _require(isinstance(e2e, list) and 1 <= len(e2e) <= 16, "end_to_end: 1 to 16 metrics")
    names |= _names(e2e, {"name", "unit", "better", "bound"}, "end_to_end")
    for m in e2e:
        bound = m["bound"]
        _require(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
                 f"end_to_end: bound of {m['name']} must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
             "end_to_end: needs setup_s in s, lower is better")
    _require(setup[0]["bound"] == max(m["bound"] for m in e2e),
             "end_to_end: setup_s must have the largest bound")
    layers = doc["per_layer"]
    _require(isinstance(layers, list) and 1 <= len(layers) <= 128,
             "per_layer: 1 to 128 metrics")
    layer_names = _names(layers, {"name", "unit", "better"}, "per_layer")
    _require(not names & layer_names, "per_layer: names must not repeat other names")
    for m in e2e + layers:
        _require(isinstance(m["unit"], str) and UNIT.fullmatch(m["unit"]) is not None,
                 f"{m['name']}: bad unit {m['unit']!r}")
        _require(m["better"] in ("higher", "lower"), f"{m['name']}: bad 'better'")
    _require(len(json.dumps(doc).encode()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")


def check_result(result: dict, doc: dict, trace: bool) -> None:
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    _require(isinstance(result, dict) and set(result) == RESULT_KEYS,
             f"result needs exactly the keys {sorted(RESULT_KEYS)}")
    _require(isinstance(result["correct"], bool), "correct must be a boolean")
    for key in ("attempted", "failed"):
        _require(isinstance(result[key], int) and not isinstance(result[key], bool),
                 f"{key} must be a whole number")
    _require(result["attempted"] >= 1, "attempted must be at least 1")
    _require(0 <= result["failed"] <= result["attempted"], "failed out of range")
    wanted = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    _require(isinstance(metrics, dict) and set(metrics) == set(wanted),
             f"metrics must be exactly {sorted(wanted)}")
    for name, entry in metrics.items():
        _require(isinstance(entry, dict) and set(entry) == {"value", "unit"},
                 f"{name}: needs exactly value and unit")
        value = entry["value"]
        _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                 and math.isfinite(value), f"{name}: value must be a finite number")
        _require(entry["unit"] == wanted[name], f"{name}: unit must be {wanted[name]}")


def load_benchmark() -> dict:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    check_benchmark(doc)
    return doc


if __name__ == "__main__":
    try:
        load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"BENCHMARK.json: {exc}", file=sys.stderr)
        sys.exit(1)
    print("BENCHMARK.json: ok")
