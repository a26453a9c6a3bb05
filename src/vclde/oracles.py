"""Verification oracles: routes that exist only to check the banded chain of
:mod:`vclde.lde` against the paper's other representations.

- :func:`companion_product`: the product of one-step companion matrices,
  whose top-left entry is H(t, s) and which equals the Casorati matrix;
- the Leibnizian and nested-sum expansions of the banded Hessenbergian;
- :func:`recursion_oracle`: the recurrence iterated forward, independent of
  every determinant representation.

:func:`~vclde.lde.evaluate_green`, :func:`~vclde.lde.evaluate_solution`
and ``verify`` import this module at call time, so the production commands
never load it.  The expansions and the banded matrix builder are looked up
in their modules at each call, so a name rebound there is seen here too.
"""

from __future__ import annotations

from . import coefficients, scalar
from .coefficients import CoefficientModel, DomainError, check_enum_limit
from .lde import SolutionProblem, _check_window, _column, _lazy_dot
from .scalar import Scalar


def companion_product(
    model: CoefficientModel, t: int, s: int
) -> tuple[tuple[Scalar, ...], ...]:
    """Product of the one-step matrices from time s+1 up to t, newest on the
    left; equals the Casorati matrix entrywise, so its top-left entry is
    H(t, s).  The one-step matrix at u has first row (phi_1(u)..phi_p(u)),
    ones on the subdiagonal and zeros elsewhere."""
    if t <= s:
        raise DomainError(f"requires t > s, got t={t}, s={s}")
    p, zero, one = model.p, model.zero, model.one
    shift = tuple(tuple(one if j == i - 1 else zero for j in range(p))
                  for i in range(1, p))
    product = None
    for u in range(s + 1, t + 1):
        step = (tuple(model.phi_row(u)), *shift)
        product = step if product is None else scalar.mat_mul(step, product, zero)
    return product


def recursion_oracle(problem: SolutionProblem, t: int) -> Scalar:
    """Ground truth: iterate the recurrence forward from the initial window.

    Independent of every determinant representation; all solution paths must
    agree with it.
    """
    _check_window(problem.p, t, problem.s)
    if t <= problem.s:
        return problem.prescribed(t)
    model, s, p = problem.model, problem.s, problem.p
    homogeneous = problem.is_homogeneous
    window = list(problem.init)
    for n in range(s + 1, t + 1):
        row = model.phi_row(n)
        acc: Scalar | None = None
        for m in range(1, p + 1):
            coeff = row[m - 1]
            prev = window[-m]
            if not coeff or not prev:
                continue
            acc = coeff * prev if acc is None else acc + coeff * prev
        if not homogeneous:
            v = problem.forcing_value(n)
            if v:
                acc = v if acc is None else acc + v
        window.append(acc if acc is not None else model.zero)
        window.pop(0)
    return window[-1]


def green_by(model: CoefficientModel, t: int, s: int, method: str) -> Scalar:
    """H(t, s) for t > s by the ``companion``, ``leibnizian`` or ``nested``
    method.  The expansions take the principal banded matrix, whose order
    t - s is checked against VCLDE_ENUM_LIMIT before it is built; their
    modules are imported at call time, so the companion route never loads
    them."""
    if method == "companion":
        return companion_product(model, t, s)[0][0]
    check_enum_limit(t - s)
    matrix = coefficients.build_phi_matrix(model, 1, t, s)
    if method == "leibnizian":
        from . import leibnizian

        return leibnizian.det_leibnizian(matrix)
    from . import nested_sum

    return nested_sum.det_nested_sum(matrix)


def solution_by(problem: SolutionProblem, t: int, method: str) -> Scalar:
    """y_t for t > s by the ``recursion`` method, or as sum_j H(t, s+j) b_j
    with each H(t, s+j), s+j < t, from :func:`green_by` by ``method``."""
    if method == "recursion":
        return recursion_oracle(problem, t)
    model, s = problem.model, problem.s
    return _lazy_dot(model.zero, t - s, _column(problem),
                     lambda j: green_by(model, t, s + j, method)
                     if s + j < t else model.one)
