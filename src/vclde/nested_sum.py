"""Nested-sum evaluator for Hessenbergians with a -1 superdiagonal.

An independent third determinant route used for cross-verification: a
variable-depth iterated sum over index tuples whose terms are products of
matrix entries, valid only when every superdiagonal entry equals -1.  The
precondition is enforced, not normalized away; rescaling silently would mask
caller errors.
"""

from __future__ import annotations

from .coefficients import check_enum_limit
from .scalar import Scalar


class SuperdiagonalError(ValueError):
    """Raised when a superdiagonal entry differs from -1."""


def det_nested_sum(matrix, enum_limit: int | None = None) -> Scalar:
    """Determinant of a Hessenberg matrix whose superdiagonal is all -1.

    h(k,1) plus, for each depth j, the sum over index chains
    k >= k_1 > ... > k_{j-1} >= 2 of
    h(k,k_1) * prod h(k_{m-1}-1, k_m) * h(k_{j-1}-1, 1).  The chains are
    walked depth first from row k: at row r a chain either ends in column 1
    or steps to column c in [2, r] and continues at row c - 1.  Each prefix
    product is shared by every chain below it, a branch is cut at an
    exactly-zero entry, and columns left of ``matrix.row_start(r)`` are
    never read.  Guarded by ``enum_limit`` like the Leibnizian expansion,
    which also bounds the depth of the walk.
    """
    k = matrix.k
    if k < 1:
        raise ValueError("nested-sum evaluation needs order >= 1")
    check_enum_limit(k, enum_limit)
    minus_one = -matrix.one
    for i in range(1, k):
        if matrix.h(i, i + 1) != minus_one:
            raise SuperdiagonalError(
                f"superdiagonal entry ({i},{i + 1}) is not -1"
            )
    h, row_start = matrix.h, matrix.row_start
    total = matrix.zero
    stack: list = [(k, None)]  # (row, product of the chain's entries so far)
    while stack:
        r, prod = stack.pop()
        start = row_start(r)
        if start == 1:
            a = h(r, 1)
            if a:
                total = total + (a if prod is None else prod * a)
        for col in range(r, max(start, 2) - 1, -1):
            a = h(r, col)
            if a:
                stack.append((col - 1, a if prod is None else prod * a))
    return total

