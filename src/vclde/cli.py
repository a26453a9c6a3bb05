"""Command-line front end.

Subcommands: green, solve, fundamental, expand, verify.  File payloads and
stdout are JSON (one document per run, stable key order) unless --pretty
selects the text rendering.  Errors print a single-line JSON object on
stderr with a distinct exit code per failure class:

    0  success            3  enumeration limit breached
    1  verification fail   4  missing forcing value
    2  parse/domain error  5  non-finite float64 result

The environment variable VCLDE_ENUM_LIMIT sets the enumeration guard of the
leibnizian and nested routes, of ``expand`` below its cap and of every
symbolic query, whose values have as many terms as those expansions; a value
that is not an integer exits 2 for every subcommand.  ``expand`` and
``verify`` live in :mod:`vclde.verification`, imported when one of them
first runs.  Only they, and the methods other than recurrence, green and
kittappa, import the verification modules (``vclde.oracles`` and the
expansions).
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

from . import scalar
from .coefficients import CoefficientModel, EnumLimitError, check_enum_limit, enum_limit
from .lde import (
    GREEN_METHODS,
    SOLVE_METHODS,
    MissingForcingError,
    SolutionProblem,
    casorati,
    evaluate_green,
    evaluate_solution,
)
from .scalar import render_scalar, scalar_from_json, scalar_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_MISSING_DATA = 4
EXIT_NON_FINITE = 5


class NonFiniteError(ArithmeticError):
    """A float64 result bound for stdout is NaN or infinite."""

    def __init__(self, t: int):
        super().__init__(f"float64 result at t={t} is not finite")
        self.t = t


def _finite(values, t: int) -> None:
    """Refuse NaN and infinities among the results at time t: JSON cannot
    carry them, and a check that compares them verifies nothing."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise NonFiniteError(t)


def _out(value, t: int):
    """JSON form of a result value at time t; a term sum stays as it is,
    for :func:`_json_chunks` to write."""
    _finite((value,), t)
    return value if scalar.backend_of(value) == scalar.SYMBOLIC else scalar_to_json(value)


def _guard_symbolic(model: CoefficientModel, t: int, s: int) -> None:
    """A symbolic H(t, s) has a term for each nonzero product of the
    order-(t-s) expansion, so a symbolic query is guarded like one."""
    if model.backend == scalar.SYMBOLIC:
        check_enum_limit(t - s)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            # the decoder recurses once per level of nesting
            raise ValueError(f"{path} is nested too deeply") from None


def load_coefficients(path: str, arith: str) -> CoefficientModel:
    """Build a model from a coefficient file, converting each value once."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("coefficient file must be a JSON object")
    p = doc.get("p")
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"'p' must be a positive integer, got {repr(p)[:40]}")
    if arith == scalar.SYMBOLIC:
        return CoefficientModel.symbolic(p)
    kind, raw_rows = doc.get("kind"), doc.get("rows")
    if kind == "table":
        if not isinstance(raw_rows, dict) or not raw_rows:
            raise ValueError("table coefficients need a non-empty 'rows' object")
        return CoefficientModel.from_table(_entries(raw_rows, "rows", arith, p))
    if kind == "constant":
        return CoefficientModel.constant(_parse(doc.get("phi"), arith, p, "phi"))
    if kind == "periodic":
        period = doc.get("period")
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise ValueError(
                f"'period' must be a positive integer, got {repr(period)[:40]}")
        if not isinstance(raw_rows, list) or len(raw_rows) != period:
            raise ValueError("periodic coefficients need 'rows' with one row per phase")
        return CoefficientModel.periodic(
            [_parse(row, arith, p, "rows", i) for i, row in enumerate(raw_rows)])
    raise ValueError(f"unknown coefficient kind {repr(kind)[:40]}")


def _int_text(text: str) -> int | None:
    """The integer that ``text`` writes as str(t), or None: a text with a
    "+", a space, an underscore, a leading zero or a non-ASCII digit names
    no integer, so no two texts name the same one."""
    try:
        t = int(text)
    except ValueError:
        return None
    return t if str(t) == text else None


def _entries(raw: dict, where: str, arith: str, p: int | None) -> dict:
    """{t: _parse(value)} over a decoded JSON object in file order, each key
    a time t written as str(t) so that no two name the same t; entries leave
    ``raw`` as they are read, so what is built from them reuses their memory."""
    keys = list(reversed(raw))
    out = {}
    while keys:
        key = keys.pop()
        t = _int_text(key)
        if t is None:
            raise ValueError(
                f"{where} key {repr(key)[:40]} is not an integer written as str(t)")
        out[t] = _parse(raw.pop(key), arith, p, where, key)
    return out


def _parse(value, arith: str, p: int | None, where: str, key=None):
    """One scalar, or a row of exactly ``p``; an error names where[key]."""
    try:
        if p is None:
            return scalar_from_json(value, arith)
        if isinstance(value, list) and len(value) == p:
            return tuple([scalar_from_json(v, arith) for v in value])
        raise ValueError(f"must be a list of exactly {p} values")
    except ValueError as exc:
        name = where if key is None else f"{where}[{key}]"
        raise ValueError(f"{name}: {exc}") from None


def load_problem(path: str, arith: str, model: CoefficientModel) -> SolutionProblem:
    """Build a solution problem from a problem file with an integer anchor
    ``s``, converting each value once; an absent or empty forcing object
    declares the equation homogeneous.  In symbolic mode only ``s`` is read:
    the values are the symbols y(t) and v(t)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    s = doc.get("s")
    if not isinstance(s, int) or isinstance(s, bool):
        raise ValueError(f"'s' must be an integer, got {repr(s)[:40]}")
    if arith == scalar.SYMBOLIC:
        return SolutionProblem.symbolic(model, s)
    init = _parse(doc.get("init"), arith, model.p, "init")
    raw_forcing = doc.get("forcing", {})
    if not isinstance(raw_forcing, dict):
        raise ValueError("'forcing' must be an object of t -> value")
    forcing = _entries(raw_forcing, "forcing", arith, None)
    return SolutionProblem(model, s, init, forcing or None)


def _json_chunks(obj):
    """Compact sorted-key JSON of a payload whose leaves may be term sums, in
    pieces: the text of json.dumps(obj, sort_keys=True, separators=(",", ":"))
    on their dict form, without building it."""
    if isinstance(obj, dict):
        sep = "{"
        for key in sorted(obj):
            yield f"{sep}{json.dumps(key)}:"
            yield from _json_chunks(obj[key])
            sep = ","
        yield "}" if sep == "," else "{}"
    elif isinstance(obj, list):
        sep = "["
        for item in obj:
            yield sep
            yield from _json_chunks(item)
            sep = ","
        yield "]" if sep == "," else "[]"
    elif isinstance(obj, (str, int, float)):
        yield json.dumps(obj)
    else:  # a term sum, the one other leaf that _out leaves in a payload
        from .symbolic import term_sum_json_chunks

        yield from term_sum_json_chunks(obj)


# stdout is written in blocks of about this many characters, so that an
# answer's text is never held whole; one write per piece costs more time
_BLOCK = 1 << 16


def _emit(payload, text: str | None) -> None:
    """Print ``text`` if given (``--pretty``), else the payload's JSON; a
    payload that is not a dict is the pieces of its JSON text, as ``expand``
    makes them."""
    if text is not None:
        print(text)
        return
    write = sys.stdout.write
    block, size = [], 0
    for chunk in _json_chunks(payload) if isinstance(payload, dict) else payload:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            write("".join(block))
            block, size = [], 0
    block.append("\n")
    write("".join(block))


def _error(kind: str, message: str, **extra) -> None:
    body = {"error": kind, "message": message}
    body.update(extra)
    print(json.dumps(body, sort_keys=True, separators=(",", ":")), file=sys.stderr)


def _load_model(args) -> CoefficientModel:
    if args.coeffs is not None:
        if args.p is not None:
            raise ValueError("--p is read only without --coeffs, whose file sets p")
        return load_coefficients(args.coeffs, args.arith)
    if args.arith == scalar.SYMBOLIC and args.p is not None:
        return CoefficientModel.symbolic(args.p)
    raise ValueError("need --coeffs (or --p in symbolic mode)")


def cmd_green(args) -> int:
    model = _load_model(args)
    _guard_symbolic(model, args.t, args.s)
    value = evaluate_green(model, args.t, args.s, args.method)
    payload = {
        "H": _out(value, args.t),
        "arith": args.arith,
        "method": args.method,
        "s": args.s,
        "t": args.t,
    }
    _emit(payload, render_scalar(value) if args.pretty else None)
    return EXIT_OK


def cmd_solve(args) -> int:
    model = _load_model(args)
    symbolic = args.arith == scalar.SYMBOLIC
    if args.s is not None and not symbolic:
        raise ValueError("--s is read only in symbolic mode; the problem file sets s")
    if args.problem is not None:
        problem = load_problem(args.problem, args.arith, model)  # read even where --s wins
    if args.s is not None:
        problem = SolutionProblem.symbolic(model, args.s)
    elif args.problem is None:
        raise ValueError("symbolic solve needs --s (or a problem file with 's')"
                         if symbolic else "need --problem")
    _guard_symbolic(model, args.t, problem.s)
    value = evaluate_solution(problem, args.t, args.method)
    payload = {
        "arith": args.arith,
        "s": problem.s,
        "t": args.t,
        "y": _out(value, args.t),
    }
    _emit(payload, render_scalar(value) if args.pretty else None)
    return EXIT_OK


def cmd_fundamental(args) -> int:
    model = _load_model(args)
    _guard_symbolic(model, args.t, args.s)
    matrix = casorati(model, args.t, args.s)
    cas = matrix.casoratian()
    payload = {
        "arith": args.arith,
        "casoratian": _out(cas, args.t),
        "matrix": [
            [_out(v, args.t - i) for v in row] for i, row in enumerate(matrix.entries)
        ],
        "p": model.p,
        "s": args.s,
        "t": args.t,
    }
    text = None
    if args.pretty:
        lines = ["  ".join(render_scalar(v) for v in row) for row in matrix.entries]
        lines.append(f"casoratian: {render_scalar(cas)}")
        text = "\n".join(lines)
    _emit(payload, text)
    return EXIT_OK


def _verification(name: str):
    """The command ``name`` of :mod:`vclde.verification`, imported when a
    verification command first runs."""
    def command(args) -> int:
        from . import verification

        return getattr(verification, name)(args)

    return command


# subcommand: (help line, command, required options, options); each option's
# kind is int, str, a tuple of choices whose first entry is its default, or
# None for a flag
_MODEL_OPTIONS = {"coeffs": str, "p": int, "arith": scalar.BACKENDS, "pretty": None}
COMMANDS = {
    "green": ("evaluate the Green's function H(t, s)", cmd_green, ("t", "s"),
              {"t": int, "s": int, **_MODEL_OPTIONS, "method": GREEN_METHODS}),
    "solve": ("evaluate the general solution y_t", cmd_solve, ("t",),
              {"t": int, "s": int, **_MODEL_OPTIONS, "problem": str,
               "method": SOLVE_METHODS}),
    "fundamental": ("print the fundamental matrix and Casoratian", cmd_fundamental,
                    ("t", "s"), {"t": int, "s": int, **_MODEL_OPTIONS}),
    "expand": ("symbolic Hessenbergian expansion", _verification("cmd_expand"), ("order",),
               {"order": int, "pretty": None}),
    "verify": ("run the identity checks", _verification("cmd_verify"), ("t", "s"),
               {"t": int, "s": int, **_MODEL_OPTIONS, "problem": str, "corrupt": None}),
}


class UsageError(Exception):
    """The command line does not fit :data:`COMMANDS`."""


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against :data:`COMMANDS`: the subcommand, then options
    as ``--name value`` or ``--name=value`` in any order, a repeated option
    keeping its last value.  A value may start with "-" only as a negative
    integer, and no option is abbreviated.  Anything else raises
    :class:`UsageError`, worded as argparse words it and quoting at most 40
    characters of the input."""
    if not argv or argv[0].startswith("-"):
        raise UsageError("the following arguments are required: command")
    if argv[0] not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {repr(argv[0])[:40]} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    _, _, required, options = COMMANDS[argv[0]]
    values = {name: False if kind is None else kind[0] if isinstance(kind, tuple) else None
              for name, kind in options.items()}
    extras, tokens = [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        if not token.startswith("--") or name not in options:
            extras.append(token)
            continue
        kind, where = options[name], f"argument --{name}"
        if kind is None:
            if eq:
                raise UsageError(f"{where}: ignored explicit argument {repr(value)[:40]}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not value[1:].isdecimal():
                raise UsageError(f"{where}: expected one argument")
        if kind is int:
            number = _int_text(value)
            if number is None:
                raise UsageError(f"{where}: invalid int value: {repr(value)[:40]}")
            value = number
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{where}: invalid choice: {repr(value)[:40]} "
                             f"(choose from {', '.join(map(repr, kind))})")
        values[name] = value
    missing = [f"--{name}" for name in required if values[name] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)[:40]}")
    return SimpleNamespace(command=argv[0], **values)


def _help() -> str:
    lines = ["usage: vclde COMMAND [--OPTION VALUE ...]; -h or --help prints this text"]
    for command, (text, _, required, options) in COMMANDS.items():
        words = []
        for name, kind in options.items():
            word = (f"--{name}" if kind is None else
                    f"--{name} {{{','.join(kind)}}}" if isinstance(kind, tuple) else
                    f"--{name} {name.upper()}")
            words.append(word if name in required else f"[{word}]")
        lines += [f"  vclde {command} {' '.join(words)}", f"      {text}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help())
        return EXIT_OK
    try:
        args = parse_args(argv)
        enum_limit()  # a malformed limit is refused before any subcommand runs
        return COMMANDS[args.command][1](args)
    except UsageError as exc:
        _error("usage", str(exc))
        return EXIT_INPUT
    except EnumLimitError as exc:
        _error("enum-limit", str(exc))
        return EXIT_LIMIT
    except MissingForcingError as exc:
        _error("missing-forcing", str(exc), t=exc.t)
        return EXIT_MISSING_DATA
    except NonFiniteError as exc:
        _error("non-finite", str(exc), t=exc.t)
        return EXIT_NON_FINITE
    except (scalar.BackendMismatchError, ValueError, KeyError, OSError) as exc:
        _error("invalid-input", str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
