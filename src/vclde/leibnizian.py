"""Compact Hessenbergian expansion over non-trivial signed elementary
products (SEPs).

A k-th order Hessenbergian has exactly 2^(k-1) SEPs that avoid the
structural zeros above the superdiagonal.  Each one is indexed by a 0/1 mask
of length k whose entries flag standard factors (on or below the diagonal)
with 1 and non-standard factors (superdiagonal) with 0; the last factor is
always standard, so the last mask bit is 1.  The functions below build the
mask for an integer index, recover column positions from a mask, and sum the
resulting products, which equals the determinant.

Everything here is a pure function; enumeration order is ascending index m,
and exact-backend sums are independent of that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import scalar
from .scalar import Scalar, TermSum

DEFAULT_ENUM_LIMIT = 24

Mask = tuple  # 0/1 entries, last entry 1


class EnumLimitError(ValueError):
    """Raised when an enumeration would exceed the configured term budget."""


def check_enum_limit(k: int, enum_limit: int | None) -> None:
    """Refuse an expansion of order k above ``enum_limit`` (default
    :data:`DEFAULT_ENUM_LIMIT`); the expansions are exponential in k."""
    limit = DEFAULT_ENUM_LIMIT if enum_limit is None else enum_limit
    if k > limit:
        raise EnumLimitError(f"order {k} exceeds the enumeration limit {limit}")


def check_mask(k: int, mask: Mask) -> None:
    """Validate a standard/non-standard mask of length k."""
    if k < 1:
        raise ValueError("mask order must be >= 1")
    if len(mask) != k:
        raise ValueError(f"mask has length {len(mask)}, expected {k}")
    if any(bit not in (0, 1) for bit in mask):
        raise ValueError(f"mask entries must be 0 or 1: {mask}")
    if mask[-1] != 1:
        raise ValueError(f"mask must end in 1: {mask}")


def mask_from_index(k: int, m: int) -> Mask:
    """Binary expansion of m over k-1 bits (most significant first), then 1.

    Bijective from [0, 2^(k-1) - 1] onto the masks of length k.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if not 0 <= m < (1 << (k - 1)):
        raise ValueError(f"index {m} out of range [0, {(1 << (k - 1)) - 1}]")
    bits = tuple((m >> (k - 1 - i)) & 1 for i in range(1, k))
    return bits + (1,)


def zero_run(k: int, i: int, mask: Mask) -> int:
    """Number of consecutive 0s immediately preceding position i, or -1.

    Computed in the closed form r_i * (i - max_{j<i} j*r_j) - 1, with the
    maximum over an empty set taken as 0: -1 whenever the i-th bit is 0,
    otherwise the length of the zero run separating it from the previous 1
    (i - 1 when no previous 1 exists).
    """
    check_mask(k, mask)
    if not 1 <= i <= k:
        raise ValueError(f"position {i} out of range 1..{k}")
    best = 0
    for j in range(1, i):
        if mask[j - 1]:
            best = j
    return mask[i - 1] * (i - best) - 1


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


def sep_columns(k: int, m: int) -> tuple[int, ...]:
    """All k factor columns of the m-th product in one pass: the columns of
    the mask :func:`mask_from_index` gives for m.  Entry i equals
    i - zero_run(k, i, mask).
    """
    return _columns_from_bits(mask_from_index(k, m))


@dataclass(frozen=True)
class SepTerm:
    """One non-trivial signed elementary product.

    ``columns`` is the permutation of {1..k} giving each row's factor column;
    ``sign`` equals the parity of the non-standard factor count (columns
    equal to row + 1), which coincides with the permutation signature.
    """

    k: int
    columns: tuple[int, ...]
    sign: int

    def __post_init__(self):
        k, cols = self.k, self.columns
        if len(cols) != k or sorted(cols) != list(range(1, k + 1)):
            raise ValueError(f"columns are not a permutation of 1..{k}: {cols}")
        non_standard = 0
        for i, col in enumerate(cols, start=1):
            if col == i + 1:
                non_standard += 1
            elif col > i + 1:
                raise ValueError(f"factor ({i},{col}) above the superdiagonal")
        expected = -1 if non_standard % 2 else 1
        if self.sign != expected:
            raise ValueError(
                f"sign {self.sign} does not match non-standard parity {expected}"
            )

    @property
    def atoms(self) -> tuple[scalar.Atom, ...]:
        return tuple(("h", i, col) for i, col in enumerate(self.columns, start=1))

    def mask(self) -> Mask:
        return tuple(
            0 if col == i + 1 else 1 for i, col in enumerate(self.columns, start=1)
        )

    def term_sum(self) -> TermSum:
        return TermSum({self.atoms: self.sign})

    def pretty(self) -> str:
        body = " ".join(f"h[{i},{col}]" for i, col in enumerate(self.columns, start=1))
        return f"-{body}" if self.sign < 0 else body


def sep_from_mask(k: int, mask: Mask) -> SepTerm:
    """The unique non-trivial product classified by ``mask``.

    The i-th factor is the superdiagonal entry when the bit is 0, and the
    entry ``run`` columns left of the diagonal when the bit is 1 with
    ``run`` preceding zeros; the sign is (-1)^(number of zeros).
    """
    check_mask(k, mask)
    zeros = mask.count(0)
    return SepTerm(k, _columns_from_bits(mask), -1 if zeros % 2 else 1)


def mask_from_sep(term: SepTerm) -> Mask:
    """Standard/non-standard classification of a product; inverse of
    :func:`sep_from_mask`."""
    return term.mask()


def enumerate_seps(k: int, enum_limit: int | None = None) -> Iterator[SepTerm]:
    """Yield all 2^(k-1) products in ascending index order."""
    check_enum_limit(k, enum_limit)
    if k < 1:
        raise ValueError("order must be >= 1")
    # itertools.product runs the leading bit slowest: ascending index m
    for bits in itertools.product((0, 1), repeat=k - 1):
        mask = bits + (1,)
        yield SepTerm(k, _columns_from_bits(mask), -1 if mask.count(0) % 2 else 1)


def det_leibnizian(matrix, enum_limit: int | None = None) -> Scalar:
    """Hessenbergian as the sum of its 2^(k-1) non-trivial products.

    Sums sign-flipped c-entries (so no explicit signature appears) in
    ascending index order; equals the recurrence evaluator exactly in the
    rational and symbolic backends.  The products are walked depth first
    over the mask tree: row i takes column i + 1 (bit 0, tried first) or
    column last + 1 (bit 1), the partial product is shared by every term
    below it, and a subtree is cut at an exactly-zero entry, so only nonzero
    prefixes are visited.  Each product and the summation order are those
    of the term-by-term sum.  Guarded by ``enum_limit``: the term count is
    exponential by nature, so an oversized order is an error rather than a
    hang.
    """
    k = matrix.k
    check_enum_limit(k, enum_limit)
    if k == 0:
        return matrix.one
    c = matrix.c
    total: Scalar | None = None
    # (rows chosen, last standard row, their product); the bit-1 child is
    # pushed first so the bit-0 subtree is summed before it
    stack: list = [(0, 0, None)]
    while stack:
        i, last, prod = stack.pop()
        i += 1
        a = c(i, last + 1)
        if i == k:
            if a:
                term = a if prod is None else prod * a
                total = term if total is None else total + term
            continue
        if a:
            stack.append((i, i, a if prod is None else prod * a))
        a = c(i, i + 1)
        if a:
            stack.append((i, last, a if prod is None else prod * a))
    return total if total is not None else matrix.zero


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    counterexample: dict | None = None


@dataclass(frozen=True)
class StringPropertyReport:
    """Outcome of the exhaustive string-structure scan for one order."""

    k: int
    successor_cover: PropertyCheck
    standard_successor: PropertyCheck
    run_column: PropertyCheck

    @property
    def all_passed(self) -> bool:
        return (
            self.successor_cover.passed
            and self.standard_successor.passed
            and self.run_column.passed
        )


def validate_string_properties(k: int) -> StringPropertyReport:
    """Exhaustively check the string structure of all products of order k.

    P1 (successor_cover): every non-trivial entry in rows 2..k occurs as some
    product's i-th factor.  P2 (standard_successor): a factor following a
    standard factor sits at column i or i + 1.  P3 (run_column): a standard
    factor preceded by a run of j non-standard factors sits at column i - j.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if k > 12:
        raise ValueError("string-property scan is capped at order 12")
    needed = {
        (i, j) for i in range(2, k + 1) for j in range(1, min(i + 1, k) + 1)
    }
    seen: set[tuple[int, int]] = set()
    p2_bad: dict | None = None
    p3_bad: dict | None = None
    for m, term in enumerate(enumerate_seps(k)):
        cols = term.columns
        for i in range(2, k + 1):
            seen.add((i, cols[i - 1]))
        if p2_bad is None:
            for i in range(2, k + 1):
                if cols[i - 2] <= i - 1 and cols[i - 1] not in (i, i + 1):
                    p2_bad = {"m": m, "i": i, "columns": cols}
                    break
        if p3_bad is None:
            last_standard = 0
            for i in range(1, k + 1):
                if cols[i - 1] <= i:
                    run = i - last_standard - 1
                    if cols[i - 1] != i - run:
                        p3_bad = {"m": m, "i": i, "columns": cols}
                        break
                    last_standard = i
    missing = needed - seen
    p1 = PropertyCheck(not missing, {"missing": sorted(missing)} if missing else None)
    p2 = PropertyCheck(p2_bad is None, p2_bad)
    p3 = PropertyCheck(p3_bad is None, p3_bad)
    return StringPropertyReport(k, p1, p2, p3)
