"""Lower Hessenberg matrices as plain rows, and the two reference
determinant evaluators: the principal-chain recurrence and the brute-force
permutation-sum oracle.

A matrix of order k is any sequence of k rows of k entries each, with zeros
above the superdiagonal; indexing is 1-based in the docstrings, 0-based in
the rows.  :class:`HessenbergMatrix` and :class:`BandedHessenbergMatrix`
only build such rows, as tuples.  Every evaluator is a pure function of the
rows and reads the backend from their values.
"""

from __future__ import annotations

import math
from itertools import compress, count
from typing import Callable, Iterator

from . import scalar
from .scalar import Scalar, check_backend, rows_backend

ORACLE_LIMIT_DEFAULT = 9


class HessenbergMatrix(tuple):
    """Dense lower Hessenberg matrix: the tuple of its k row tuples, with
    h(i, j) = 0 whenever j - i > 1.  Order k = 0 is the valid empty matrix
    with determinant one."""

    __slots__ = ()

    @classmethod
    def from_function(
        cls, k: int, fn: Callable[[int, int], Scalar], backend: str
    ) -> "HessenbergMatrix":
        return _band_rows(cls, k, k, fn, backend)


class BandedHessenbergMatrix(tuple):
    """Lower Hessenberg matrix of total bandwidth p + 1: the tuple of its k
    row tuples, with h(i, j) = 0 outside -1 <= i - j <= p - 1."""

    __slots__ = ()

    @classmethod
    def from_function(
        cls, k: int, p: int, fn: Callable[[int, int], Scalar], backend: str
    ) -> "BandedHessenbergMatrix":
        if p < 1:
            raise ValueError("band parameter must be >= 1")
        return _band_rows(cls, k, p, fn, backend)


def _band_rows(cls, k: int, p: int, fn, backend: str):
    """The k rows with h(i, j) = fn(i, j) for -1 <= i - j < p and the zero of
    ``backend`` elsewhere, read row by row; every value must be of
    ``backend``."""
    zero = scalar.zero(backend)
    rows = cls((zero,) * max(i - p, 0)
               + tuple(fn(i, j) for j in range(max(i - p + 1, 1), min(i + 1, k) + 1))
               + (zero,) * max(k - i - 1, 0) for i in range(1, k + 1))
    check_backend(rows, backend)
    return rows


def leading_principal_chain(rows) -> list[Scalar]:
    """Determinants of the leading principal submatrices, orders 0..k.

    One pass of the Hessenbergian recurrence over the raw entries, with
    explicit alternating signs.  Row n's inner sum starts at its first
    nonzero column, so on banded rows it truncates to the band, giving
    O(k*p) scalar multiplies.
    """
    one = scalar.one(rows_backend(rows, scalar.RATIONAL))
    dets: list[Scalar] = [one]
    for n, row in enumerate(rows, start=1):
        acc = row[n - 1] * dets[n - 1]
        prod = one
        negative = False
        first = next(compress(count(1), row), n)
        for j in range(n - 1, first - 1, -1):
            prod = prod * rows[j - 1][j]
            negative = not negative
            a = row[j - 1]
            if a:
                term = a * prod * dets[j - 1]
                acc = acc - term if negative else acc + term
        dets.append(acc)
    return dets


def det_recurrence(rows) -> Scalar:
    """Hessenbergian via the principal-chain recurrence (the default path)."""
    return leading_principal_chain(rows)[-1]


def det_leibniz_oracle(rows, oracle_limit: int = ORACLE_LIMIT_DEFAULT) -> Scalar:
    """Brute-force determinant: the full signed permutation sum.

    Accepts any square matrix given as a sequence of rows.  Enumerates
    permutations depth-first with incremental inversion-count signs,
    skipping exactly-zero factors; exact in the rational and symbolic
    backends.  Rational rows are scaled to integers by the lcm L_i of their
    denominators (:func:`~vclde.scalar.integer_step`); every permutation
    takes one entry per row, so the integer sum is the determinant times
    L_1 ... L_k.  Guarded by ``oracle_limit`` because the enumeration is
    factorial in k.
    """
    k = len(rows)
    for i, row in enumerate(rows, start=1):
        if len(row) != k:
            raise ValueError(f"row {i} has {len(row)} entries, not square")
    if k > oracle_limit:
        raise ValueError(
            f"order {k} exceeds the permutation-oracle limit {oracle_limit}"
        )
    backend = rows_backend(rows, scalar.RATIONAL)
    if k == 0:
        return scalar.one(backend)
    if backend != scalar.RATIONAL:
        total = scalar.sum_terms(_permutation_terms(rows, k))
        return scalar.zero(backend) if total is None else total
    from fractions import Fraction

    rows, lcms = zip(*(scalar.integer_step(row)[:2] for row in rows))
    return Fraction(scalar.sum_terms(_permutation_terms(rows, k)) or 0, math.prod(lcms))


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
