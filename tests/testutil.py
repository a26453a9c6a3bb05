"""Shared random-input builders for the test suite (seeded, deterministic),
and the reference helpers that only the tests use."""

import itertools
import json
import operator
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from vclde import CoefficientModel, DomainError, SolutionProblem, green, scalar, xi
from vclde.hessenberg import HessenbergMatrix
from vclde.leibnizian import SepTerm, _columns_from_bits, enumerate_seps
from vclde.scalar import BackendMismatchError, TermSum, h_sym, rows_backend


def rational(rng: Random, num_max: int = 9, den_max: int = 9) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def rational_nonzero(rng: Random, num_max: int = 9, den_max: int = 9) -> Fraction:
    num = rng.choice([n for n in range(-num_max, num_max + 1) if n])
    return Fraction(num, rng.randint(1, den_max))


def random_hessenberg(rng: Random, k: int, superdiag=None) -> HessenbergMatrix:
    """Random dense lower Hessenberg matrix with Fraction entries.

    ``superdiag`` forces every (i, i+1) entry to the given value.
    """

    def entry(i, j):
        if superdiag is not None and j == i + 1:
            return Fraction(superdiag)
        return rational(rng)

    return HessenbergMatrix.from_function(k, entry, "rational")


def random_rows(rng: Random, p: int, t_lo: int, t_hi: int, regular: bool = False) -> dict:
    """Random coefficient table; ``regular`` keeps phi_p(t) nonzero so the
    equation is genuinely of order p at every step."""
    rows = {}
    for t in range(t_lo, t_hi + 1):
        row = [rational(rng, num_max=4, den_max=4) for _ in range(p)]
        if regular:
            row[-1] = rational_nonzero(rng, num_max=4, den_max=4)
        rows[t] = tuple(row)
    return rows


def random_model(
    rng: Random, p: int, t_lo: int, t_hi: int, regular: bool = False
) -> CoefficientModel:
    return CoefficientModel.from_table(random_rows(rng, p, t_lo, t_hi, regular=regular))


def float_model(model_rows: dict) -> CoefficientModel:
    return CoefficientModel.from_table(
        {t: tuple(float(v) for v in row) for t, row in model_rows.items()}
    )


def random_problem(
    rng: Random,
    model: CoefficientModel,
    s: int,
    t_max: int,
    homogeneous: bool = False,
) -> SolutionProblem:
    init = tuple(rational(rng, num_max=4, den_max=4) for _ in range(model.p))
    forcing = None
    if not homogeneous:
        forcing = {
            t: rational(rng, num_max=4, den_max=4) for t in range(s + 1, t_max + 1)
        }
    return SolutionProblem(model, s, init, forcing)


def float_problem(problem: SolutionProblem, model: CoefficientModel) -> SolutionProblem:
    forcing = problem.forcing
    if isinstance(forcing, dict):
        forcing = {t: float(v) for t, v in forcing.items()}
    return SolutionProblem(
        model, problem.s, tuple(float(v) for v in problem.init), forcing
    )


def zero_init(problem: SolutionProblem) -> SolutionProblem:
    """The problem with the same forcing and zero initial values, whose
    solution is the particular solution."""
    model = problem.model
    return SolutionProblem(model, problem.s, (model.zero,) * model.p, problem.forcing)


def dense_bordered_matrix(problem: SolutionProblem, t: int) -> HessenbergMatrix:
    """Reference for the Kittappa routes: the order-(t-s) bordered matrix
    built densely, entry by entry.  Column 1 is the forcing v_{s+i} plus
    sum_m phi_{m+i-1}(s+i) y_{s-m+1}; the other columns are the banded phi
    entries and -1 on the superdiagonal."""
    model, s, p = problem.model, problem.s, problem.p
    minus_one = -model.one

    def first_column(i):
        acc = problem.forcing_value(s + i)
        for m in range(1, p + 1):
            q = m + i - 1
            if q > p:
                break
            coeff = model.phi(q, s + i)
            y0 = problem.init[problem.p - m]
            if coeff and y0:
                acc = acc + coeff * y0
        return acc

    def entry(i, j):
        if j == i + 1:
            return minus_one
        if j == 1:
            return first_column(i)
        q = i - j + 1
        if 1 <= q <= p:
            return model.phi(q, s + i)
        return model.zero

    return HessenbergMatrix.from_function(t - s, entry, model.backend)


def det_leibnizian_per_mask(rows):
    """Reference for ``det_leibnizian``: each of the 2^(k-1) products is
    formed on its own from its mask index (row i takes column i + 1 for bit
    0 and column last + 1 for bit 1), stopping at an exactly-zero entry, and
    the products are summed in ascending index order."""
    k = len(rows)
    backend = rows_backend(rows, "rational")
    if k == 0:
        return scalar.one(backend)

    def c(i, j):  # c(i, i+1) = -h(i, i+1), c(i, j) = h(i, j) else
        value = rows[i - 1][j - 1]
        return -value if j == i + 1 else value

    total = None
    for m in range(1 << (k - 1)):
        last = 0
        prod = None
        for i in range(1, k + 1):
            bit = 1 if i == k else (m >> (k - 1 - i)) & 1
            if bit:
                col = last + 1
                last = i
            else:
                col = i + 1
            a = c(i, col)
            if not a:
                prod = None
                break
            prod = a if prod is None else prod * a
        if prod is not None:
            total = prod if total is None else total + prod
    return total if total is not None else scalar.zero(backend)


def det_nested_per_chain(rows):
    """Reference for ``det_nested_sum``: each chain's product is formed on
    its own, left to right from row k, stopping at an exactly-zero entry,
    and the products are added to the backend's zero in the walk's order.  At
    row r the chain that ends in column 1 comes first, then those that step
    to column c and continue at row c - 1, by ascending c."""

    def chains(r):
        yield ((r, 1),)
        for col in range(2, r + 1):
            for rest in chains(col - 1):
                yield ((r, col),) + rest

    total = scalar.zero(rows_backend(rows))
    for factors in chains(len(rows)):
        prod = None
        for i, j in factors:
            a = rows[i - 1][j - 1]
            if not a:
                prod = None
                break
            prod = a if prod is None else prod * a
        if prod is not None:
            total = total + prod
    return total


def xi_via_green(model, m, t, s):
    """Reference for ``xi`` for t > s, from the first-column cofactor
    identity: sum_j phi_{j-1+m}(s+j) H(t, s+j) over j = 1..min(t-s, p-m+1)
    (H(t, s+j) = 0 for s+j > t, so no row past t is read)."""
    total = model.zero
    for j in range(1, min(t - s, model.p - m + 1) + 1):
        coeff = model.phi(j - 1 + m, s + j)
        if coeff:
            total = total + green(model, t, s + j) * coeff
    return total


def homogeneous_solution(problem, t):
    """Reference for the homogeneous solution through the fundamental set:
    sum_m y_{s-m+1} xi_m(t, s), the prescribed values on the window."""
    if not problem.is_homogeneous:
        raise DomainError("operation requires an empty forcing sequence")
    if t <= problem.s:
        return problem.prescribed(t)
    total = problem.model.zero
    for m in range(1, problem.p + 1):
        y0 = problem.init[problem.p - m]
        if y0:
            total = total + xi(problem.model, m, t, problem.s) * y0
    return total


def float_chain(model, rows, k, first, weight=None):
    """Reference for ``lde._banded_chain`` in float64 on a model without a
    period, to pin its summation order: row n is the n-th item of ``rows``,
    each minor sums row[r-1] d_{n-r} left to right and adds column 1 last,
    and the weighted sum adds weight(n) d_n in order of n.  Returns the last
    p minors oldest first, and the weighted sum."""
    zero = model.zero
    dets = deque(maxlen=model.p)  # newest first
    total = (weight and weight(0)) or zero
    n = 0
    while n < k:
        n += 1
        row = next(rows)
        # row[r-1] pairs with d_{n-r}, summed left to right; d_0 enters
        # only through column 1
        terms = map(operator.mul, row, dets)
        acc = next(terms, None)
        for term in terms:
            acc = acc + term
        if first is not None:
            head = first(n, row)
            if head is None:
                first = None
            else:
                acc = head if acc is None else acc + head
        value = acc if acc is not None else zero
        dets.appendleft(value)
        w = weight and weight(n)
        if w and value:
            total = total + w * value
    return list(reversed(dets)), total


def canonical_factor_key(factor: dict) -> tuple:
    """Reference for the documented order of symbolic output, on one JSON
    factor: h by (i, j), then phi by (t, m), then y by t, then v by t.  A
    term sorts by the tuple of its factor keys, so the constant term comes
    first and a product comes before its extensions."""
    kind = factor["kind"]
    if kind == "h":
        return (0, factor["i"], factor["j"])
    if kind == "phi":
        return (1, factor["t"], factor["m"])
    return ({"y": 2, "v": 3}[kind], factor["t"], 0)


_FACTOR_TEXT = re.compile(
    r"h\[(?P<i>-?\d+),(?P<j>-?\d+)\]|phi(?P<m>\d+)\((?P<pt>-?\d+)\)"
    r"|(?P<kind>[yv])\((?P<t>-?\d+)\)"
)


def factor_from_text(text: str) -> dict:
    """The JSON factor of one rendered symbol: "h[i,j]", "phim(t)", "y(t)"
    or "v(t)"."""
    match = _FACTOR_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not a symbol: {text!r}")
    if match["i"] is not None:
        return {"kind": "h", "i": int(match["i"]), "j": int(match["j"])}
    if match["m"] is not None:
        return {"kind": "phi", "m": int(match["m"]), "t": int(match["pt"])}
    return {"kind": match["kind"], "t": int(match["t"])}


def atom_to_json(atom: tuple) -> dict:
    """Reference JSON object of one atom of a term sum, by kind: (0, i, j)
    is h[i,j], (1, t, m) is phi_m(t), (2, t) is y(t) and (3, t) is v(t)."""
    kind = atom[0]
    if kind == 0:
        return {"kind": "h", "i": atom[1], "j": atom[2]}
    if kind == 1:
        return {"kind": "phi", "m": atom[2], "t": atom[1]}
    return {"kind": ("y", "v")[kind - 2], "t": atom[1]}


def term_sum_dicts(value: TermSum) -> list:
    """Reference dict form of a term sum: one {sign, factors} entry per term
    in canonical order, a coefficient c repeated |c| times."""
    out = []
    for factors, coeff in value.sorted_items():
        entry = {"sign": 1 if coeff > 0 else -1,
                 "factors": [atom_to_json(a) for a in factors]}
        out.extend([entry] * abs(coeff))
    return out


def reference_json_text(obj) -> str:
    """Reference compact sorted-key JSON of a payload whose leaves may be
    term sums: json.dumps over their dict form."""

    def plain(node):
        if isinstance(node, TermSum):
            return term_sum_dicts(node)
        if isinstance(node, dict):
            return {key: plain(v) for key, v in node.items()}
        if isinstance(node, list):
            return [plain(v) for v in node]
        return node

    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))


def term_sum_product(a: TermSum, b: TermSum) -> TermSum:
    """Reference product: every pair of terms, merged into one mapping."""
    merged = {}
    for f1, c1 in a.sorted_items():
        for f2, c2 in b.sorted_items():
            key = tuple(sorted(f1 + f2))
            merged[key] = merged.get(key, 0) + c1 * c2
    return TermSum(merged)


def term_sum_from_json(items) -> TermSum:
    """Reference reader of a term sum's JSON array, the inverse of
    ``scalar.term_sum_to_json``: each atom object back to its tuple."""

    def atom(obj):
        kind = obj["kind"]
        if kind == "h":
            return (0, int(obj["i"]), int(obj["j"]))
        if kind == "phi":
            return (1, int(obj["t"]), int(obj["m"]))
        return ({"y": 2, "v": 3}[kind], int(obj["t"]))

    terms = {}
    for entry in items:
        sign = int(entry["sign"])
        if sign not in (1, -1):
            raise ValueError(f"term sign must be +-1, got {sign}")
        factors = tuple(sorted(atom(f) for f in entry["factors"]))
        terms[factors] = terms.get(factors, 0) + sign
    return TermSum(terms)


def backend_of_by_isinstance(value) -> str:
    """Reference backend tag by isinstance checks alone."""
    if isinstance(value, TermSum):
        return "symbolic"
    if isinstance(value, bool):
        raise BackendMismatchError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return "rational"
    if isinstance(value, float):
        return "float64"
    raise BackendMismatchError(f"not a scalar: {value!r}")


def uniform_backend_by_loop(values, default=None):
    """Reference shared backend: one ordered pass that raises at the first
    value whose backend differs from the first one found."""
    found = None
    for v in values:
        b = backend_of_by_isinstance(v)
        if found is None:
            found = b
        elif found != b:
            raise BackendMismatchError(f"backend mismatch: {found} vs {b}")
    return default if found is None else found


def add(a, b):
    """Ring addition within one backend; mixing backends is an error."""
    rows_backend(((a, b),))
    return a + b


def mul(a, b):
    """Ring multiplication within one backend; mixing backends is an error."""
    rows_backend(((a, b),))
    return a * b


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..k} with its signature.

    The sign is computed by inversion-count parity: -1 for an odd number of
    pairs i < j with mapping[i] > mapping[j], +1 otherwise.
    """

    mapping: tuple

    def __post_init__(self):
        k = len(self.mapping)
        if sorted(self.mapping) != list(range(1, k + 1)):
            raise ValueError(f"not a bijection of 1..{k}: {self.mapping}")

    @property
    def sign(self) -> int:
        m = self.mapping
        inversions = sum(
            1 for i in range(len(m)) for j in range(i + 1, len(m)) if m[i] > m[j]
        )
        return -1 if inversions % 2 else 1


def to_dense(banded) -> list:
    """A banded Hessenberg matrix as plain lists of its rows, a form every
    evaluator also takes."""
    return [list(row) for row in banded]


def mask_from_index(k: int, m: int) -> tuple:
    """Binary expansion of m over k-1 bits (most significant first), then 1.

    Bijective from [0, 2^(k-1) - 1] onto the masks of length k.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if not 0 <= m < (1 << (k - 1)):
        raise ValueError(f"index {m} out of range [0, {(1 << (k - 1)) - 1}]")
    bits = tuple((m >> (k - 1 - i)) & 1 for i in range(1, k))
    return bits + (1,)


def sep_columns(k: int, m: int) -> tuple:
    """All k factor columns of the m-th product in one pass: the columns of
    the mask :func:`mask_from_index` gives for m.  A standard factor sits
    as many columns left of the diagonal as there are non-standard factors
    right above it; a non-standard one sits at column i + 1.
    """
    return _columns_from_bits(mask_from_index(k, m))


def sep_term_sum(term: SepTerm) -> TermSum:
    """The product ``term`` as a term sum of h[i,j] symbols, with its sign."""
    product = TermSum.constant(term.sign)
    for i, col in enumerate(term.columns, start=1):
        product = product * h_sym(i, col)
    return product


def zero_run_piecewise(k: int, i: int, mask) -> int:
    """Branch-by-branch variant of ``zero_run``, kept as its cross-check."""
    check_mask(k, mask)
    if not 1 <= i <= k:
        raise ValueError(f"position {i} out of range 1..{k}")
    if mask[i - 1] == 0:
        return -1
    run = 0
    while i - 1 - run >= 1 and mask[i - 2 - run] == 0:
        run += 1
    return run


def factor_column(k: int, i: int, mask) -> int:
    """Column of the i-th factor of the product selected by ``mask``.

    i + 1 for a non-standard factor; for a standard factor, i minus the
    number of consecutive non-standard rows immediately above it.
    """
    return i - zero_run(k, i, mask)


def column_for_index(k: int, i: int, m: int) -> int:
    """Column of the i-th factor of the m-th product: factor_column after
    mask_from_index.  For fixed m the map i -> column is a permutation of
    {1..k}."""
    return factor_column(k, i, mask_from_index(k, m))


def initial_strings(length: int) -> set:
    """All factor strings of the given length that start at row 1 and extend
    to a non-trivial product, as ((row, column), ...) tuples.

    Unlike full products, a prefix may end in a non-standard factor, so
    there are 2^length of them.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return {()}
    out = set()
    for bits in itertools.product((0, 1), repeat=length):
        cols = _columns_from_bits(bits)
        out.add(tuple((i, col) for i, col in enumerate(cols, start=1)))
    return out


def check_mask(k: int, mask) -> None:
    """Validate a standard/non-standard mask of length k."""
    if k < 1:
        raise ValueError("mask order must be >= 1")
    if len(mask) != k:
        raise ValueError(f"mask has length {len(mask)}, expected {k}")
    if any(bit not in (0, 1) for bit in mask):
        raise ValueError(f"mask entries must be 0 or 1: {mask}")
    if mask[-1] != 1:
        raise ValueError(f"mask must end in 1: {mask}")


def zero_run(k: int, i: int, mask) -> int:
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


def sep_from_mask(k: int, mask) -> SepTerm:
    """The unique non-trivial product classified by ``mask``.

    The i-th factor is the superdiagonal entry when the bit is 0, and the
    entry ``run`` columns left of the diagonal when the bit is 1 with
    ``run`` preceding zeros; the sign is (-1)^(number of zeros).
    """
    check_mask(k, mask)
    zeros = mask.count(0)
    return SepTerm(k, _columns_from_bits(mask), -1 if zeros % 2 else 1)


def mask_from_sep(term: SepTerm) -> tuple:
    """Standard/non-standard classification of a product; inverse of
    :func:`sep_from_mask`."""
    return tuple(0 if col == i + 1 else 1 for i, col in enumerate(term.columns, start=1))


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
