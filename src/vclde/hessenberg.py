"""Lower Hessenberg matrices (dense and banded) and the two reference
determinant evaluators: the principal-chain recurrence and the brute-force
permutation-sum oracle.

Indexing is 1-based in the public API; storage is 0-based internally.
Matrices are immutable after construction and every evaluator here is a pure
function of its matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import scalar
from .scalar import Scalar, check_backend, rows_backend

ORACLE_LIMIT_DEFAULT = 9


class StructureError(ValueError):
    """Raised for entries that violate the Hessenberg zero pattern."""


class _HessenbergBase:
    """Shared read-only surface: h/c accessors and backend constants."""

    k: int
    backend: str

    @property
    def zero(self) -> Scalar:
        return scalar.zero(self.backend)

    @property
    def one(self) -> Scalar:
        return scalar.one(self.backend)

    def h(self, i: int, j: int) -> Scalar:  # pragma: no cover - overridden
        raise NotImplementedError

    def c(self, i: int, j: int) -> Scalar:
        """Sign-flipped view: c(i, i+1) = -h(i, i+1), c(i, j) = h(i, j) else."""
        value = self.h(i, j)
        if j == i + 1:
            return -value
        return value

    def row_start(self, i: int) -> int:
        """First column that can hold a nonzero entry in row i."""
        return 1

    def to_rows(self) -> list[list[Scalar]]:
        z = self.zero
        k = self.k
        return [
            [self.h(i, j) if j <= i + 1 else z for j in range(1, k + 1)]
            for i in range(1, k + 1)
        ]


class HessenbergMatrix(_HessenbergBase):
    """Dense lower Hessenberg matrix: h(i, j) = 0 whenever j - i > 1.

    Only the entries with j <= i + 1 are stored; queries above the
    superdiagonal return an exact zero without storage.  Order k = 0 is the
    valid empty matrix with determinant one.
    """

    __slots__ = ("k", "backend", "_rows")

    def __init__(self, k: int, rows: list[list[Scalar]], backend: str):
        if k < 0:
            raise ValueError("order must be >= 0")
        self.k = k
        self.backend = backend
        self._rows = rows

    @classmethod
    def from_function(
        cls, k: int, fn: Callable[[int, int], Scalar], backend: str
    ) -> "HessenbergMatrix":
        rows = [
            [fn(i, j) for j in range(1, min(i + 1, k) + 1)] for i in range(1, k + 1)
        ]
        check_backend(rows, backend)
        return cls(k, rows, backend)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Scalar]], backend: str | None = None
    ) -> "HessenbergMatrix":
        k = len(rows)
        stored: list[list[Scalar]] = []
        for i, row in enumerate(rows, start=1):
            if len(row) != k:
                raise StructureError(f"row {i} has {len(row)} entries, expected {k}")
            for j, value in enumerate(row, start=1):
                if j - i > 1 and not scalar.is_zero(value, abs_tol=0.0):
                    raise StructureError(
                        f"nonzero entry ({i},{j}) above the superdiagonal"
                    )
            stored.append(list(row[: min(i + 1, k)]))
        resolved = rows_backend(stored, backend or scalar.RATIONAL)
        return cls(k, stored, resolved)

    def h(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise IndexError(f"entry ({i},{j}) outside a {self.k}x{self.k} matrix")
        if j - i > 1:
            return self.zero
        return self._rows[i - 1][j - 1]


class BandedHessenbergMatrix(_HessenbergBase):
    """Lower Hessenberg matrix of total bandwidth p + 1.

    Entries vanish outside -1 <= i - j <= p - 1; the p + 1 nonzero diagonals
    are stored as stripes.
    """

    __slots__ = ("k", "p", "backend", "_stripes")

    def __init__(self, k: int, p: int, stripes: dict[int, list[Scalar]], backend: str):
        if k < 0:
            raise ValueError("order must be >= 0")
        if p < 1:
            raise ValueError("band parameter must be >= 1")
        self.k = k
        self.p = p
        self.backend = backend
        self._stripes = stripes

    @classmethod
    def from_function(
        cls, k: int, p: int, fn: Callable[[int, int], Scalar], backend: str
    ) -> "BandedHessenbergMatrix":
        stripes: dict[int, list[Scalar]] = {}
        for offset in range(-1, p):
            lo = max(1, 1 + offset)
            hi = min(k, k + offset)
            stripes[offset] = [fn(i, i - offset) for i in range(lo, hi + 1)]
        check_backend(stripes.values(), backend)
        return cls(k, p, stripes, backend)

    def h(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise IndexError(f"entry ({i},{j}) outside a {self.k}x{self.k} matrix")
        offset = i - j
        if offset < -1 or offset > self.p - 1:
            return self.zero
        lo = max(1, 1 + offset)
        return self._stripes[offset][i - lo]

    def row_start(self, i: int) -> int:
        return max(1, i - self.p + 1)


def leading_principal_chain(matrix: _HessenbergBase) -> list[Scalar]:
    """Determinants of the leading principal submatrices, orders 0..k.

    One pass of the Hessenbergian recurrence over the raw entries, with
    explicit alternating signs; for banded matrices the inner sum truncates
    to the band, giving O(k*p) scalar operations.
    """
    dets: list[Scalar] = [matrix.one]
    for n in range(1, matrix.k + 1):
        acc = matrix.h(n, n) * dets[n - 1]
        prod = matrix.one
        negative = False
        for j in range(n - 1, matrix.row_start(n) - 1, -1):
            prod = prod * matrix.h(j, j + 1)
            negative = not negative
            a = matrix.h(n, j)
            if a:
                term = a * prod * dets[j - 1]
                acc = acc - term if negative else acc + term
        dets.append(acc)
    return dets


def det_recurrence(matrix: _HessenbergBase) -> Scalar:
    """Hessenbergian via the principal-chain recurrence (the default path)."""
    return leading_principal_chain(matrix)[-1]


def det_leibniz_oracle(
    matrix, oracle_limit: int = ORACLE_LIMIT_DEFAULT
) -> Scalar:
    """Brute-force determinant: the full signed permutation sum.

    Accepts any square matrix (a Hessenberg matrix object or a sequence of
    rows).  Enumerates permutations depth-first with incremental
    inversion-count signs, skipping exactly-zero factors; exact in the
    rational and symbolic backends.  Rational rows are scaled to integers
    by the lcm L_i of their denominators (:func:`~vclde.scalar.integer_step`);
    every permutation takes one entry per row, so the integer sum is the
    determinant times L_1 ... L_k.  Guarded by ``oracle_limit`` because the
    enumeration is factorial in k.
    """
    if isinstance(matrix, _HessenbergBase):
        rows = matrix.to_rows()
        empty = matrix.one
        backend = matrix.backend
    else:
        rows = [list(r) for r in matrix]
        for i, row in enumerate(rows, start=1):
            if len(row) != len(rows):
                raise ValueError(f"row {i} has {len(row)} entries, not square")
        empty = 1
        backend = rows_backend(rows)
    k = len(rows)
    if k > oracle_limit:
        raise ValueError(
            f"order {k} exceeds the permutation-oracle limit {oracle_limit}"
        )
    if k == 0:
        return empty
    scale = None
    if backend == scalar.RATIONAL:
        rows, lcms = zip(*(scalar.integer_step(row)[:2] for row in rows))
        scale = math.prod(lcms)

    total = scalar.sum_terms(_permutation_terms(rows, k))
    if total is None:
        return scalar.zero(backend)
    return total if scale is None else Fraction(total, scale)


def _permutation_terms(rows, k: int) -> Iterator:
    """The signed nonzero permutation products of :func:`det_leibniz_oracle`,
    depth first with columns in ascending order."""
    # (rows placed, columns used, odd inversion count, their product); the
    # children are pushed in descending column order so the lowest is
    # walked first
    stack: list = [(0, 0, False, None)]
    while stack:
        i, used, negative, partial = stack.pop()
        if i == k:
            yield -partial if negative else partial
            continue
        row = rows[i]
        for col in range(k - 1, -1, -1):
            bit = 1 << col
            if used & bit:
                continue
            a = row[col]
            if not a:
                continue
            inversions = (used >> (col + 1)).bit_count()
            stack.append((
                i + 1,
                used | bit,
                negative ^ bool(inversions & 1),
                a if partial is None else partial * a,
            ))
