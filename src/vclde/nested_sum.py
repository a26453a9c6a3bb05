"""Nested-sum evaluator for Hessenbergians with a -1 superdiagonal.

An independent third determinant route used for cross-verification: a
variable-depth iterated sum over index tuples whose terms are products of
matrix entries, valid only when every superdiagonal entry equals -1.  The
precondition is enforced, not normalized away; rescaling silently would mask
caller errors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import Iterator

from . import scalar
from .coefficients import check_enum_limit
from .scalar import Scalar


class SuperdiagonalError(ValueError):
    """Raised when a superdiagonal entry differs from -1."""


def det_nested_sum(rows) -> Scalar:
    """Determinant of Hessenberg rows whose superdiagonal is all -1.

    h(k,1) plus, for each depth j, the sum over index chains
    k >= k_1 > ... > k_{j-1} >= 2 of
    h(k,k_1) * prod h(k_{m-1}-1, k_m) * h(k_{j-1}-1, 1).  The chains are
    walked depth first from row k: at row r a chain either ends in column 1
    or steps to column c in [2, r] and continues at row c - 1.  Each prefix
    product is shared by every chain below it, and a branch is cut at an
    exactly-zero entry, so the zeros outside a band are never visited.  The
    entries are read once, into row lists, and the products are summed by
    :func:`~vclde.scalar.sum_terms`.  In rational mode row r is scaled to
    integers by the lcm L_r of its denominators
    (:func:`~vclde.scalar.integer_step`); a chain takes the superdiagonal
    of every row it skips, so the entry in column c of row r also carries
    L_c ... L_{r-1} (and column 1 carries L_1 ... L_{r-1}), every chain
    gains L_1 ... L_k, and the integer sum is the determinant times that
    product.  Guarded by VCLDE_ENUM_LIMIT like the Leibnizian expansion,
    which also bounds the depth of the walk.
    """
    k = len(rows)
    if k < 1:
        raise ValueError("nested-sum evaluation needs order >= 1")
    check_enum_limit(k)
    rows = [list(row) for row in rows]
    backend = scalar.rows_backend(rows)
    minus_one = -scalar.one(backend)
    for i in range(1, k):
        if rows[i - 1][i] != minus_one:
            raise SuperdiagonalError(
                f"superdiagonal entry ({i},{i + 1}) is not -1"
            )
    scale = None
    if backend == scalar.RATIONAL:
        ints, lcms = zip(*(scalar.integer_step(row)[:2] for row in rows))
        prefix = list(accumulate(lcms, mul, initial=1))  # prefix[n] = L_1 ... L_n
        # row r + 1 carries L_{c+1} ... L_r in column c + 1
        rows = [[a * (prefix[r] // prefix[c]) for c, a in enumerate(row[:r + 1])]
                for r, row in enumerate(ints)]
        scale = prefix[-1]
    # per row: its column-1 entry, and the nonzero (next row, entry) steps
    # to columns r down to 2
    heads = [row[0] for row in rows]
    steps = [[(c - 1, row[c - 1]) for c in range(r, 1, -1) if row[c - 1]]
             for r, row in enumerate(rows, start=1)]
    # summed from zero, as the fold zero + p_1 + p_2 + ... is, so that a
    # float sum keeps its order and the sign of a zero result
    zero = scalar.zero(backend) if scale is None else 0
    total = scalar.sum_terms(chain((zero,), _walk(heads, steps, k)))
    return total if scale is None else Fraction(total, scale)


def _walk(heads, steps, k: int) -> Iterator:
    """The nonzero chain products of :func:`det_nested_sum`'s walk, in its
    order."""
    stack: list = [(k, None)]  # (row, product of the chain's entries so far)
    while stack:
        r, prod = stack.pop()
        a = heads[r - 1]
        if a:
            yield a if prod is None else prod * a
        for nxt, a in steps[r - 1]:
            stack.append((nxt, a if prod is None else prod * a))
