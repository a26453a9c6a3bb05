"""Variable-coefficient models and the banded matrices built from them.

A :class:`CoefficientModel` evaluates the order-p coefficient family
phi_m(t) over a declared integer domain.  Evaluation must be pure: models
are table-backed or closed-form, never stateful.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

from . import scalar
from .scalar import Scalar

DEFAULT_ENUM_LIMIT = 24


class DomainError(ValueError):
    """Raised for arguments outside a declared integer domain."""


class EnumLimitError(ValueError):
    """Raised when an enumeration would exceed the configured term budget."""


def enum_limit() -> int:
    """The largest expansion order allowed: the environment variable
    VCLDE_ENUM_LIMIT, read at each call, or :data:`DEFAULT_ENUM_LIMIT`
    when it is unset."""
    raw = os.environ.get("VCLDE_ENUM_LIMIT", DEFAULT_ENUM_LIMIT)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"VCLDE_ENUM_LIMIT must be an integer, got {repr(raw)[:40]}")


def check_enum_limit(k: int) -> None:
    """Refuse an expansion of order k above :func:`enum_limit`; the
    expansions are exponential in k."""
    limit = enum_limit()
    if k > limit:
        raise EnumLimitError(f"order {k} exceeds the enumeration limit {limit}")


def _row_length(rows: Sequence[tuple], names, label: str) -> int:
    """The length p shared by ``rows``; the first row of another length is
    named by its entry of ``names`` after ``label``."""
    p = len(rows[0])
    if any(map(p.__ne__, map(len, rows))):
        name, row = next((n, r) for n, r in zip(names, rows) if len(r) != p)
        raise ValueError(f"{label}{name} has {len(row)} values, expected {p}")
    return p


def _domain_error(t: int, t_min: int | None, t_max: int | None) -> DomainError:
    return DomainError(
        f"t={t} outside the declared domain "
        f"[{'-inf' if t_min is None else t_min}, {'+inf' if t_max is None else t_max}]")


class _TableRows(dict):
    """A table's rows by t.  A t outside the table raises DomainError, so
    ``__getitem__`` is a checked row function at one dict lookup per row."""

    def __missing__(self, t: int):
        raise _domain_error(t, min(self), max(self))


class CoefficientModel(scalar.Frozen):
    """Coefficients phi_m(t) for 1 <= m <= p over a declared t-domain,
    immutable.

    ``row_fn(t)`` gives (phi_1(t), ..., phi_p(t)).  Every model stores one
    row function, read by :meth:`phi_row`, :meth:`phi` and the chains, that
    raises DomainError outside the domain rather than return a zero.  The
    one this constructor stores calls ``row_fn`` only inside the domain and
    checks the length (ValueError) and backend
    (:class:`~vclde.scalar.BackendMismatchError`) of each row it reads.
    ``phi`` rejects positions outside 1..p.  ``period`` is P when row t+P
    equals row t: 1 for :meth:`constant`, the number of rows for
    :meth:`periodic`; None for other models and symbolic rows.
    """

    __slots__ = ("p", "backend", "t_min", "t_max", "period", "_row_fn")

    def __init__(
        self,
        p: int,
        row_fn: Callable[[int], tuple[Scalar, ...]],
        backend: str,
        t_min: int | None = None,
        t_max: int | None = None,
    ):
        def checked_row(t: int) -> tuple[Scalar, ...]:
            if (t_min is not None and t < t_min) or (t_max is not None and t > t_max):
                raise _domain_error(t, t_min, t_max)
            row = row_fn(t)
            if len(row) != p:
                raise ValueError(f"row t={t} has {len(row)} values, expected {p}")
            scalar.check_backend((row,), backend)
            return row

        self._fill(p, checked_row, backend, t_min, t_max, None)

    def _fill(self, p, row_fn, backend, t_min, t_max, period) -> None:
        if p < 1:
            raise ValueError("order p must be >= 1")
        if backend not in scalar.BACKENDS:
            raise ValueError(f"unknown backend: {backend!r}")
        self._set(p=p, backend=backend, t_min=t_min, t_max=t_max, period=period,
                  _row_fn=row_fn)

    @classmethod
    def _checked_rows(cls, p: int, row_fn, backend: str, period: int | None,
                      t_min: int | None = None, t_max: int | None = None):
        """Model over rows already checked for length and backend, read as
        they are."""
        model = cls.__new__(cls)
        model._fill(p, row_fn, backend, t_min, t_max, period)
        return model

    @property
    def zero(self) -> Scalar:
        return scalar.zero(self.backend)

    @property
    def one(self) -> Scalar:
        return scalar.one(self.backend)

    def phi_row(self, t: int) -> tuple[Scalar, ...]:
        """(phi_1(t), ..., phi_p(t)); DomainError outside the domain."""
        return self._row_fn(t)

    def phi(self, m: int, t: int) -> Scalar:
        if not 1 <= m <= self.p:
            raise DomainError(f"coefficient position {m} outside 1..{self.p}")
        return self._row_fn(t)[m - 1]

    @classmethod
    def constant(cls, values: Sequence[Scalar]) -> "CoefficientModel":
        return cls.periodic((values,))

    @classmethod
    def from_table(cls, rows: Mapping[int, Sequence[Scalar]]) -> "CoefficientModel":
        """Table-backed model over the contiguous key range of ``rows``."""
        if not rows:
            raise ValueError("coefficient table is empty")
        t_min, t_max = min(rows), max(rows)
        span = range(t_min, t_max + 1)
        if len(span) != len(rows) or not all(map(rows.__contains__, span)):
            raise ValueError("coefficient table keys must be contiguous integers")
        # tuple() of a tuple is the tuple itself: rows are not copied
        table = list(map(tuple, map(rows.__getitem__, span)))
        p = _row_length(table, span, "row t=")
        return cls._checked_rows(p, _TableRows(zip(span, table)).__getitem__,
                                 scalar.rows_backend(table), None, t_min, t_max)

    @classmethod
    def periodic(cls, rows: Sequence[Sequence[Scalar]]) -> "CoefficientModel":
        """phi values repeating with period len(rows): row index t mod period."""
        cycle = tuple(map(tuple, rows))
        period = len(cycle)
        if period < 1:
            raise ValueError("need at least one periodic row")
        p = _row_length(cycle, range(period), "periodic row ")
        backend = scalar.rows_backend(cycle)
        return cls._checked_rows(p, lambda t: cycle[t % period], backend,
                                 None if backend == scalar.SYMBOLIC else period)

    @classmethod
    def from_function(
        cls,
        p: int,
        fn: Callable[[int, int], Scalar],
        backend: str,
        t_min: int | None = None,
        t_max: int | None = None,
    ) -> "CoefficientModel":
        """Model with phi_m(t) = fn(m, t), its rows checked as they are read."""
        return cls(p, lambda t: tuple([fn(m, t) for m in range(1, p + 1)]), backend,
                   t_min, t_max)

    @classmethod
    def symbolic(cls, p: int) -> "CoefficientModel":
        """Model whose coefficients are the symbols phi_m(t)."""
        from .symbolic import phi_sym

        return cls.from_function(p, phi_sym, scalar.SYMBOLIC)


def build_phi_matrix(model: CoefficientModel, m: int, t: int, s: int):
    """The order-(t-s) banded Hessenberg rows of branch m
    (:class:`~vclde.hessenberg.BandedHessenbergMatrix`), for the
    verification routes that expand them entry by entry.

    Row i carries phi_{i-j+1}(s+i) in interior columns, the truncated column
    phi_{i-1+m}(s+i) at j = 1 (rows 1..p-m+1 only), and -1 on the
    superdiagonal.  Each model row s+1..t is read once.
    """
    from .hessenberg import BandedHessenbergMatrix

    p = model.p
    if not 1 <= m <= p:
        raise DomainError(f"branch {m} outside 1..{p}")
    if t <= s:
        raise DomainError(f"requires t > s, got t={t}, s={s}")
    phi = [model.phi_row(u) for u in range(s + 1, t + 1)]
    zero = model.zero
    minus_one = -model.one

    def entry(i: int, j: int) -> Scalar:
        if j == i + 1:
            return minus_one
        q = i - 1 + m if j == 1 else i - j + 1
        return phi[i - 1][q - 1] if q <= p else zero

    return BandedHessenbergMatrix.from_function(t - s, p, entry, model.backend)
