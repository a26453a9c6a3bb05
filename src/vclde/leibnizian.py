"""Compact Hessenbergian expansion over non-trivial signed elementary
products (SEPs).

A k-th order Hessenbergian has exactly 2^(k-1) SEPs that avoid the
structural zeros above the superdiagonal.  Each one is indexed by a 0/1 mask
of length k whose entries flag standard factors (on or below the diagonal)
with 1 and non-standard factors (superdiagonal) with 0; the last factor is
always standard, so the last mask bit is 1.  The functions below list the
products in index order and sum them, which equals the determinant.

Everything here is a pure function; enumeration order is ascending index m,
and exact-backend sums are independent of that order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from . import scalar
from .coefficients import check_enum_limit
from .scalar import Scalar


def _columns_from_bits(bits) -> tuple[int, ...]:
    # A standard factor lands one column to the right of the previous
    # standard row (row 0 acts as a standard anchor); a non-standard factor
    # always sits at column i + 1.
    cols = []
    last = 0
    for i, bit in enumerate(bits, start=1):
        if bit:
            cols.append(last + 1)
            last = i
        else:
            cols.append(i + 1)
    return tuple(cols)


class SepTerm(scalar.Frozen):
    """One non-trivial signed elementary product, immutable.

    ``columns`` is the permutation of {1..k} giving each row's factor column;
    ``sign`` equals the parity of the non-standard factor count (columns
    equal to row + 1), which coincides with the permutation signature.
    """

    __slots__ = ("k", "columns", "sign")

    def __init__(self, k: int, columns: tuple[int, ...], sign: int):
        if len(columns) != k or sorted(columns) != list(range(1, k + 1)):
            raise ValueError(f"columns are not a permutation of 1..{k}: {columns}")
        non_standard = 0
        for i, col in enumerate(columns, start=1):
            if col == i + 1:
                non_standard += 1
            elif col > i + 1:
                raise ValueError(f"factor ({i},{col}) above the superdiagonal")
        expected = -1 if non_standard % 2 else 1
        if sign != expected:
            raise ValueError(
                f"sign {sign} does not match non-standard parity {expected}"
            )
        self._set(k=k, columns=columns, sign=sign)


def enumerate_seps(k: int) -> Iterator[SepTerm]:
    """Yield all 2^(k-1) products in ascending index order."""
    check_enum_limit(k)
    if k < 1:
        raise ValueError("order must be >= 1")
    # itertools.product runs the leading bit slowest: ascending index m
    for bits in itertools.product((0, 1), repeat=k - 1):
        mask = bits + (1,)
        yield SepTerm(k, _columns_from_bits(mask), -1 if mask.count(0) % 2 else 1)


def det_leibnizian(rows) -> Scalar:
    """Hessenbergian as the sum of its 2^(k-1) non-trivial products.

    Sums sign-flipped c-entries (so no explicit signature appears) in
    ascending index order; equals the recurrence evaluator exactly in the
    rational and symbolic backends.  The products are walked depth first
    over the mask tree: row i takes column i + 1 (bit 0, tried first) or
    column last + 1 (bit 1), the partial product is shared by every term
    below it, and a subtree is cut at an exactly-zero entry, so only nonzero
    prefixes are visited.  Each product and the summation order are those
    of the term-by-term sum.  The entries are read once, into row lists; in
    rational mode row i is scaled to integers by the lcm L_i of its
    denominators (:func:`~vclde.scalar.integer_step`), and since every
    product takes one entry from each row, the integer sum is the
    determinant times L_1 ... L_k.  Guarded by VCLDE_ENUM_LIMIT
    (:func:`~vclde.coefficients.check_enum_limit`): the term count is
    exponential by nature, so an oversized order is an error, not a hang.
    """
    k = len(rows)
    check_enum_limit(k)
    rows = [list(row) for row in rows]
    backend = scalar.rows_backend(rows, scalar.RATIONAL)
    if k == 0:
        return scalar.one(backend)
    for i, row in enumerate(rows[:-1], start=1):
        row[i] = -row[i]  # c(i, i+1) = -h(i, i+1)
    scale = None
    if backend == scalar.RATIONAL:
        rows, lcms = zip(*(scalar.integer_step(row)[:2] for row in rows))
        scale = math.prod(lcms)
    total = scalar.sum_terms(_walk(rows, k))
    if total is None:
        return scalar.zero(backend)
    return total if scale is None else Fraction(total, scale)


def _walk(rows, k: int) -> Iterator:
    """The nonzero products of :func:`det_leibnizian`'s walk, in ascending
    index order."""
    # (rows chosen, last standard row, their product); the bit-1 child is
    # pushed first so the bit-0 subtree is walked before it
    stack: list = [(0, 0, None)]
    while stack:
        i, last, prod = stack.pop()
        row = rows[i]
        i += 1
        a = row[last]
        if i == k:
            if a:
                yield a if prod is None else prod * a
            continue
        if a:
            stack.append((i, i, a if prod is None else prod * a))
        a = row[i]
        if a:
            stack.append((i, last, a if prod is None else prod * a))
