"""Fundamental solutions, Green's function, and general solutions of
variable-coefficient linear difference equations of order p:

    y_t = phi_1(t) y_{t-1} + ... + phi_p(t) y_{t-p} + v_t.

Every production value but the Casoratian, Abel's product of phi_p(u) over
u = s+1..t, comes from one linear kernel, the banded chain
(``_banded_chain``): one loop, for every arithmetic, that expands an order-k
banded Hessenbergian along its last row in O(k*p) time and O(p) memory; in
rational mode it runs on integer numerators over one running denominator
(fraction-free, after Bareiss), in float64 and symbolic mode on the values
themselves.  Its first column is a function of the row index, so it serves
each fundamental-solution branch (Green's function, xi, Casorati matrix) and
the bordered Kittappa determinants, whose column 1 is
b_j = v_{s+j} + sum_m phi_{m+j-1}(s+j) y_{s-m+1}.  Over the adjoint rows it
gives H(t, t-n), n = 0, 1, ..., and weighted by b_{t-s-n} the
Green's-function solution y_t = sum_j H(t, s+j) b_j.  The kernel has no
options: on a model with a period every unweighted chain skips whole periods
once its column 1 is zero.

The Leibnizian, nested-sum, companion-product and forward-recursion routes
are independent verification oracles in :mod:`vclde.oracles`, reached by
method name through :func:`evaluate_green` and :func:`evaluate_solution`,
which import that module only when such a route runs.  All operations are
pure and keep no state between calls, so independent queries may run
concurrently.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from functools import partial, reduce
from itertools import chain, islice, repeat, tee
from operator import add, itemgetter, mul
from typing import Callable, Iterator, Sequence, Union

from . import scalar
from .coefficients import CoefficientModel, DomainError, build_phi_matrix
from .scalar import Scalar

GREEN_METHODS = ("recurrence", "leibnizian", "nested", "companion")
SOLVE_METHODS = ("green", "kittappa", "leibnizian", "nested", "recursion")


class MissingForcingError(LookupError):
    """A forcing value was required but not provided."""

    def __init__(self, t: int):
        super().__init__(f"no forcing value for t={t}")
        self.t = t


Forcing = Union[Mapping[int, Scalar], Callable[[int], Scalar], None]


class SolutionProblem(scalar.Frozen):
    """One initial-value problem, immutable: model, anchor s, the p initial
    values y_{s-p+1}..y_s in that order, and the forcing sequence.

    ``forcing`` may be a mapping t -> v_t, a callable, or None.  None (or an
    empty mapping) declares the equation homogeneous, with v_t structurally
    zero; a nonempty mapping that lacks a queried t is a hard error, never an
    implicit zero.  Initial and forcing values must share the model's
    backend: mapping values are checked here, callable values as they are
    read; a mismatch raises :class:`~vclde.scalar.BackendMismatchError`.
    """

    __slots__ = ("model", "s", "init", "forcing")

    def __init__(
        self,
        model: CoefficientModel,
        s: int,
        init: Sequence[Scalar],
        forcing: Forcing = None,
    ):
        p = model.p
        init = tuple(init)
        if len(init) != p:
            raise DomainError(f"need exactly {p} initial values, got {len(init)}")
        if model.t_min is not None and s - p + 1 < model.t_min:
            raise DomainError(
                f"anchor s={s} puts the initial window below the "
                f"coefficient domain start {model.t_min}"
            )
        rows = (init,)
        if isinstance(forcing, Mapping):
            if forcing and min(forcing) <= s:
                bad = sorted(t for t in forcing if t <= s)
                raise DomainError(f"forcing keys must exceed the anchor s={s}: {bad}")
            rows += (forcing.values(),)
        scalar.check_backend(rows, model.backend)
        self._set(model=model, s=s, init=init, forcing=forcing)

    @classmethod
    def symbolic(cls, model: CoefficientModel, s: int) -> "SolutionProblem":
        """Problem whose initial values and forcing are the symbols y(t), v(t)."""
        from .symbolic import v_sym, y_sym

        return cls(model, s, [y_sym(u) for u in range(s - model.p + 1, s + 1)], v_sym)

    @property
    def p(self) -> int:
        return self.model.p

    @property
    def is_homogeneous(self) -> bool:
        forcing = self.forcing
        return forcing is None or (isinstance(forcing, Mapping) and not forcing)

    def prescribed(self, t: int) -> Scalar:
        """The given value at a window position s-p+1 <= t <= s."""
        if not self.s - self.p + 1 <= t <= self.s:
            raise DomainError(f"t={t} outside the initial window")
        return self.init[t - (self.s - self.p + 1)]

    def forcing_value(self, t: int) -> Scalar:
        if t <= self.s:
            raise DomainError(f"forcing is defined only for t > s, got t={t}")
        forcing = self.forcing
        if callable(forcing):
            value = forcing(t)
            scalar.check_backend(((value,),), self.model.backend)
            return value
        if not forcing:
            return self.model.zero
        try:
            return forcing[t]
        except KeyError:
            raise MissingForcingError(t) from None


def _check_window(p: int, t: int, s: int) -> None:
    """Refuse a t below the initial window s-p+1..s."""
    if t < s - p + 1:
        raise DomainError(f"t={t} below the window start {s - p + 1}")


def _banded_chain(
    model: CoefficientModel,
    rows: Iterator[tuple[Scalar, ...]],
    k: int,
    first: Callable[[int, tuple[Scalar, ...]], Scalar | None],
    weight: Callable[[int], Scalar | None] | None = None,
) -> tuple[Sequence[Scalar], Scalar]:
    """The last p leading principal minors d_k, d_{k-1}, ... of an order-k
    banded Hessenbergian, newest first (fewer if k < p), and the sum of
    weight(n) d_n over n = 0..k (d_0 = 1; a None weight adds nothing).

    Row n holds -1 on the superdiagonal, row[r-1] in column n-r+1 for
    1 <= r <= min(n-1, p), and ``first(n, row)`` in column 1, where ``row``
    is the n-th item of ``rows``; a None from ``first`` means column 1 is
    zero from that row on.  Expanding along the last row gives

        d_0 = 1,   d_n = sum_r row[r-1] d_{n-r} + first(n, row),

    O(p) operations per step and O(p) memory.  The loop keeps numerators
    N = d D over one running denominator D, and the weighted sum over D W.
    In rational mode step n scales its row and column-1 entry to integers
    by the lcm L of their denominators (:func:`~vclde.scalar.integer_step`):

        N_n = sum_r (row[r-1] L) N_{n-r} + (first L) D,   D <- D L,

    the older numerators and the sum gain the factor L, and W is the lcm of
    the weight denominators so far; the results are normalized once, so no
    Fraction arithmetic runs in the loop.  In float64 and symbolic mode L,
    D and W stay 1 and nothing is scaled; float terms are summed left to
    right.  On a model with period P an unweighted chain skips whole
    periods once column 1 is zero after step n: each later step maps
    x = (N_n, ..., N_{n-p+1}) to (c . x, L x_1, ..., L x_{p-1}), c its row
    as scaled, and one period's map is the monodromy M (Floquet theory).
    When stepping ((k-n) p operations) costs more than building M from the
    next P rows (P p^2) and squaring it (2 p^3 per bit of q = (k-n) // P),
    the chain sets x <- M^q x by repeated squaring and D <- D F^q, F the
    period's product of L; as q >= 1, the rows left in ``rows`` equal those
    past the skipped periods.  Every chain's rows, the adjoint diagonals
    included, repeat with ``model.period``.
    """
    p, period = model.p, model.period if weight is None else None
    step = scalar.integer_step if model.backend == scalar.RATIONAL else None
    zero, unit = (0, 1) if step else (model.zero, model.one)
    dets: deque = deque(maxlen=p)  # N_{n-1}, N_{n-2}, ...: newest first
    scale = wscale = 1  # D and W
    total, value, n = zero, unit, 0  # value: N_0 = D = 1
    while True:  # weight(n) d_n enters the sum before step n + 1
        w = weight and weight(n)
        if w and value:
            if step:
                if wscale % w.denominator:
                    grow = w.denominator // math.gcd(wscale, w.denominator)
                    total, wscale = total * grow, wscale * grow
                w = w.numerator * (wscale // w.denominator)
            total = total + w * value
        if n == k:
            break
        n += 1
        row = next(rows)
        head = None
        if first is not None:
            head = first(n, row)
            if head is None:
                first = None
        if step:
            row, lcm, head = step(row, head)
            if head:
                head *= scale
        # row[r-1] pairs with N_{n-r}; N_0 enters only through column 1
        terms = map(mul, row, dets)
        acc = next(terms, None)
        for term in terms:
            acc = acc + term
        if head is not None:
            acc = head if acc is None else acc + head
        value = acc if acc is not None else zero
        if step and lcm != 1:
            dets = deque([x * lcm for x in islice(dets, p - 1)], p)
            scale *= lcm
            total *= lcm
        dets.appendleft(value)
        if first is None and period:
            q = (k - n) // period
            if (k - n) * p > period * p * p + 2 * p**3 * q.bit_length():
                mono = [[unit if i == j else zero for j in range(p)] for i in range(p)]
                factor = unit
                for row in islice(rows, period):
                    c, f = step(row)[:2] if step else (row, unit)
                    top = [reduce(add, map(mul, c, col)) for col in zip(*mono)]
                    mono = [top, *([f * v for v in line] for line in mono[:-1])]
                    factor = factor * f
                x = [[v] for v in dets] + [[zero]] * (p - len(dets))
                scale *= factor**q
                n += q * period
                while q:
                    if q & 1:
                        x = scalar.mat_mul(mono, x, zero)
                    q >>= 1
                    if q:
                        mono = scalar.mat_mul(mono, mono, zero)
                dets = deque([v for v, in x], p)
            period = None
    if step:
        from fractions import Fraction

        return [Fraction(x, scale) for x in dets], Fraction(total, scale * wscale)
    return list(dets), total


def _branch_column(m: int, n: int, row: tuple[Scalar, ...]) -> Scalar | None:
    """Column 1 of the branch-m matrix: phi_{n-1+m} of row n while
    n-1+m <= p, then zero."""
    q = n - 1 + m
    return row[q - 1] if q <= len(row) else None


def _branch_chain(model: CoefficientModel, m: int, t: int, s: int) -> Sequence[Scalar]:
    """Last p minors of the branch-m matrix over rows s+1..t, newest first;
    the caller ensures 1 <= m <= p and t > s."""
    return _banded_chain(model, map(model._row_fn, range(s + 1, t + 1)),
                         t - s, partial(_branch_column, m))[0]


def _adjoint_rows(
    model: CoefficientModel, t: int, s: int
) -> Iterator[tuple[Scalar, ...]]:
    """Rows of the adjoint chain g_n = H(t, t-n), for which

        g_0 = 1,   g_n = sum_{m=1..min(n, p)} phi_m(t-n+m) g_{n-m}:

    the branch-1 chain over the diagonal rows (phi_1(t-n+1), ...,
    phi_p(t-n+p)), with zeros for the unused entries past row t.  Step n
    reads row t-n+1 (rows t down to s+2), and p lagged copies of that stream
    hold at most p rows."""
    rows = map(model._row_fn, range(t, s + 1, -1))
    return zip(*(chain(repeat(model.zero, m), map(itemgetter(m), copy))
                 for m, copy in enumerate(tee(rows, model.p))))


def principal_chain(model: CoefficientModel, m: int, t: int, s: int) -> list[Scalar]:
    """Determinants of the leading blocks of the branch-m banded matrix, a
    reference for the tests.

    Returns [d_0, ..., d_{t-s}] where d_n is the order-n leading principal
    minor (d_0 = 1), by the Hessenbergian recurrence on the rows of
    :func:`~vclde.coefficients.build_phi_matrix`.  Those rows are dense, so
    it takes O((t-s)^2) time and memory; the production values run on
    :func:`_banded_chain` instead.
    """
    from .hessenberg import leading_principal_chain

    return leading_principal_chain(build_phi_matrix(model, m, t, s))


def xi(model: CoefficientModel, m: int, t: int, s: int) -> Scalar:
    """The m-th fundamental solution at (t, s).

    1 at t = s-m+1, 0 elsewhere on the initial window, and the branch-m
    banded determinant for t > s.
    """
    if not 1 <= m <= model.p:
        raise DomainError(f"branch {m} outside 1..{model.p}")
    _check_window(model.p, t, s)
    if t <= s:
        return model.one if t == s - m + 1 else model.zero
    return _branch_chain(model, m, t, s)[0]


def green(model: CoefficientModel, t: int, s: int) -> Scalar:
    """Green's function H(t, s): the first fundamental solution, so
    H(s, s) = 1, H(t, s) = 0 for s-p+1 <= t < s, and the principal
    determinant for t > s."""
    return xi(model, 1, t, s)


class CasoratiMatrix(scalar.Frozen):
    """p x p matrix at (t, s) with entry (i, j) equal to the branch-j
    fundamental solution at time t - i + 1; the identity matrix at t = s.
    Immutable; ``abel`` is its determinant by Abel's formula."""

    __slots__ = ("entries", "abel")

    def __init__(self, entries: tuple[tuple[Scalar, ...], ...], abel: Scalar):
        self._set(entries=entries, abel=abel)

    def casoratian(self) -> Scalar:
        """The Casoratian det C(t, s): each one-step companion matrix has
        determinant (-1)^(p+1) phi_p(u), so it is their product over
        u = s+1..t, computed by :func:`casorati` in O(t-s)."""
        return self.abel


def casorati(model: CoefficientModel, t: int, s: int) -> CasoratiMatrix:
    """Casorati matrix of the fundamental set at (t, s); needs t >= s."""
    if t < s:
        raise DomainError(f"requires t >= s, got t={t}, s={s}")
    p = model.p
    # the last min(t-s, p) minors of each branch, newest first: row i (time
    # t-i) reads tail[i] while t-i > s, then xi's window value
    tails = [_branch_chain(model, m, t, s) if t > s else () for m in range(1, p + 1)]
    entries = tuple(
        tuple(tail[i] if i < len(tail) else xi(model, m, t - i, s)
              for m, tail in enumerate(tails, 1))
        for i in range(p))
    # rows s+1..t left to right, giving the plain float product bit for bit
    det = math.prod(map(itemgetter(p - 1), map(model._row_fn, range(s + 1, t + 1))),
                    start=model.one)
    if p % 2 == 0 and (t - s) % 2:
        det = -det
    return CasoratiMatrix(entries, det if det else model.zero)


def _column(problem: SolutionProblem) -> Callable[..., Scalar | None]:
    """Column 1 of the bordered (Kittappa) determinant, the coefficient of
    H(t, s+j) in the solution y_t = sum_j H(t, s+j) b_j, as column(j, row):

        b_j = v_{s+j} + sum_m phi_{m+j-1}(s+j) y_{s-m+1},   m+j-1 <= p;

    ``row`` is model row s+j, read if not given.  A homogeneous problem
    gives None past its initial terms."""
    model, s = problem.model, problem.s
    init = problem.init[::-1] if any(problem.init) else ()
    forcing = None if problem.is_homogeneous else problem.forcing_value
    zero = model.zero

    def column(j: int, row: tuple[Scalar, ...] | None = None) -> Scalar | None:
        if j > len(init):
            return None if forcing is None else forcing(s + j)
        acc = zero if forcing is None else forcing(s + j)
        if row is None:
            row = model.phi_row(s + j)
        for m in range(1, len(init) - j + 2):  # init[m-1] = y_{s-m+1}
            coeff, y0 = row[m + j - 2], init[m - 1]
            if coeff and y0:
                acc = acc + coeff * y0
        return acc

    return column


def _lazy_dot(zero: Scalar, k: int, coeff: Callable, value: Callable) -> Scalar:
    """sum_j value(j) coeff(j) over j = 1..k, evaluating value(j) only where
    coeff(j) is nonzero; a None coeff(j) ends the sum.  With coeff = b_j and
    value = H(t, s+j) it is the Green's-function solution."""
    total = zero
    for j in range(1, k + 1):
        c = coeff(j)
        if c is None:
            break
        if c:
            v = value(j)
            if v:
                total = total + v * c
    return total


def general_solution(problem: SolutionProblem, t: int) -> Scalar:
    """Green's-function representation of the full solution:
    sum_j H(t, s+j) b_j, b_j the initial-value and forcing terms at s+j
    (:func:`_column`), on the adjoint chain g_n = H(t, t-n) in O((t-s)*p)
    time and O(p) memory.  A forced problem weights g_n by b_{t-s-n}; as
    that pass reads the forcing backward, a mapping is first checked for
    s+1..t in order, to name the smallest missing t.  A homogeneous problem
    needs only the last p minors, so its unweighted chain may skip periods."""
    _check_window(problem.p, t, problem.s)
    if t <= problem.s:
        return problem.prescribed(t)
    model, s, forcing = problem.model, problem.s, problem.forcing
    column = _column(problem)
    rows, first, k = _adjoint_rows(model, t, s), partial(_branch_column, 1), t - s - 1
    if problem.is_homogeneous:
        last = [*_banded_chain(model, rows, k, first)[0],
                model.one]  # last[j-1] = H(t, s+j)
        return _lazy_dot(model.zero, t - s, column, lambda j: last[j - 1])
    if isinstance(forcing, Mapping):
        for u in range(s + 1, t + 1):
            if u not in forcing:
                model._row_fn(u)  # a row outside the domain fails before its forcing
                raise MissingForcingError(u)
    return _banded_chain(model, rows, k, first, weight=lambda n: column(k + 1 - n))[1]


def general_solution_kittappa(problem: SolutionProblem, t: int) -> Scalar:
    """Full solution as a single bordered Hessenbergian of order t-s on the
    banded chain; its first column (:func:`_column`) merges the
    initial-value and forcing contributions by multilinearity.  A
    homogeneous problem skips periods past its initial terms.  Window
    values are the prescribed ones, as in :func:`general_solution`."""
    _check_window(problem.p, t, problem.s)
    if t <= problem.s:
        return problem.prescribed(t)
    model, s = problem.model, problem.s
    return _banded_chain(model, map(model._row_fn, range(s + 1, t + 1)),
                         t - s, _column(problem))[0][0]


def evaluate_green(
    model: CoefficientModel, t: int, s: int, method: str = "recurrence"
) -> Scalar:
    """H(t, s) by the chosen route; window values, and every value of
    ``recurrence``, are :func:`green`'s.  Every other method is an oracle of
    :mod:`vclde.oracles`."""
    if method not in GREEN_METHODS:
        raise ValueError(f"unknown Green method {method!r}")
    if method == "recurrence" or t <= s:
        return green(model, t, s)
    from . import oracles

    return oracles.green_by(model, t, s, method)


def evaluate_solution(problem: SolutionProblem, t: int, method: str = "green") -> Scalar:
    """y_t by the chosen route; window values, and every value of ``green``,
    are :func:`general_solution`'s.  Every method but ``green`` and
    ``kittappa`` is an oracle of :mod:`vclde.oracles`."""
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown solve method {method!r}")
    if method == "green" or t <= problem.s:
        return general_solution(problem, t)
    if method == "kittappa":
        return general_solution_kittappa(problem, t)
    from . import oracles

    return oracles.solution_by(problem, t, method)
