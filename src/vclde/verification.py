"""The command line's verification commands, ``verify`` and ``expand``.

:data:`vclde.cli.COMMANDS` imports this module when one of them first runs,
so the production commands never compile it.  Both reach the library and the
loaders, writers and exit codes of :mod:`vclde.cli` through that module's
bindings, looked up at each call, so a name rebound there is seen here too.
"""

from __future__ import annotations

import math

from . import cli, hessenberg, leibnizian, scalar
from .coefficients import CoefficientModel, DomainError, EnumLimitError, check_enum_limit
from .scalar import Scalar

EXPAND_ORDER_CAP = 12


def scalars_close(a: Scalar, b: Scalar) -> bool:
    """Equality check: exact for rational/symbolic, tolerant for binary64."""
    if scalar.rows_backend(((a, b),)) == scalar.FLOAT64:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def cmd_expand(args) -> int:
    from .symbolic import TermSum, h_sym

    k = args.order
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if k > EXPAND_ORDER_CAP:
        raise EnumLimitError(f"order {k} exceeds the expansion cap {EXPAND_ORDER_CAP}")
    matrix = hessenberg.HessenbergMatrix.from_function(k, h_sym, scalar.SYMBOLIC)
    expansion = leibnizian.det_leibnizian(matrix)
    verified = expansion == hessenberg.det_leibniz_oracle(matrix,
                                                          oracle_limit=EXPAND_ORDER_CAP)
    payload = {
        "count": 1 << (k - 1),
        "order": k,
        "terms": expansion,
        "verified": verified,
    }
    text = None
    if args.pretty:
        # ascending SEP index order is the reverse of the canonical order
        first, *rest = (str(TermSum({factors: coeff}))
                        for factors, coeff in reversed(expansion.sorted_items()))
        signed = (f"- {body[1:]}" if body.startswith("-") else f"+ {body}" for body in rest)
        text = " ".join([first, *signed]) + "\n" + ("TRUE" if verified else "FALSE")
    cli._emit(payload, text)
    return cli.EXIT_OK if verified else cli.EXIT_VERIFY_FAILED


def _corrupted(model: CoefficientModel, s: int) -> CoefficientModel:
    # Debug aid for verify: bumps phi_1(s+1) by one so identity checks fail.
    def row_fn(t: int):
        row = model.phi_row(t)
        return (row[0] + model.one, *row[1:]) if t == s + 1 else row

    return CoefficientModel(model.p, row_fn, model.backend, model.t_min, model.t_max)


def _agreement(name: str, reference: str, cases) -> dict:
    """Check that in each (t, where, values) case every route's value is
    close to the ``reference`` route's, after checking every value finite in
    case order; a failure's counterexample is the first failing case: its t,
    ``where`` and every value."""
    for t, _, values in cases:
        cli._finite(values.values(), t)
    for t, where, values in cases:
        if not all(scalars_close(values[reference], v) for v in values.values()):
            routes = {route: cli._out(v, t) for route, v in values.items()}
            return {"name": name, "passed": False,
                    "counterexample": {"t": t, **where, "values": routes}}
    return {"name": name, "passed": True}


def cmd_verify(args) -> int:
    from . import oracles

    model = cli._load_model(args)
    t, s = args.t, args.s
    if t <= s:
        raise DomainError(f"verification requires t > s, got t={t}, s={s}")
    problem = (None if args.problem is None
               else cli.load_problem(args.problem, args.arith, model))
    # every input is loaded and every order guarded before any route runs:
    # the expansions of H(t, s) have order t - s, and those of the solution
    # at most t - problem.s - 1
    check_enum_limit(t - s)
    if problem is not None:
        cli._guard_symbolic(model, t, problem.s)
        check_enum_limit(t - problem.s - 1)

    # H(t, s) is the (1, 1) entry of the Casorati matrix and of the companion
    # product
    xi, product = cli.casorati(model, t, s), oracles.companion_product(model, t, s)
    lei_model = _corrupted(model, s) if args.corrupt else model
    green = {
        "recurrence": xi.entries[0][0],
        "leibnizian": cli.evaluate_green(lei_model, t, s, "leibnizian"),
        "nested": cli.evaluate_green(model, t, s, "nested"),
        "companion": product[0][0],
    }
    # by Abel's formula the Casoratian vanishes exactly where some phi_p(u)
    # does, so that check is exact in every arithmetic
    vanishing = next((u for u in range(s + 1, t + 1) if not model.phi(model.p, u)), None)
    checks = [
        _agreement("green-four-way", "recurrence", [(t, {"s": s}, green)]),
        _agreement("fundamental-matrix", "fundamental", [
            (t - i, {"row": i + 1, "col": j + 1}, {"fundamental": a, "companion": b})
            for i, (xi_row, row) in enumerate(zip(xi.entries, product))
            for j, (a, b) in enumerate(zip(xi_row, row))]),
        {"name": "casoratian-nonzero", "passed": vanishing is None},
    ]
    if vanishing is not None:
        checks[-1]["counterexample"] = {
            "casoratian": cli._out(xi.casoratian(), t), "u": vanishing}
    if problem is not None:
        solutions = {method: cli.evaluate_solution(problem, t, method)
                     for method in cli.SOLVE_METHODS}
        checks.append(_agreement("solution-five-way", "recursion", [(t, {}, solutions)]))

    passed = all(c["passed"] for c in checks)
    text = None
    if args.pretty:
        text = "\n".join(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}" for c in checks)
    cli._emit({"checks": checks, "passed": passed}, text)
    return cli.EXIT_OK if passed else cli.EXIT_VERIFY_FAILED
