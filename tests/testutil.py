"""Shared random-input builders for the test suite (seeded, deterministic)."""

from fractions import Fraction
from random import Random

from vclde import CoefficientModel, HessenbergMatrix, SolutionProblem


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


def dense_bordered_matrix(
    problem: SolutionProblem, t: int, with_init: bool
) -> HessenbergMatrix:
    """Reference for the Kittappa routes: the order-(t-s) bordered matrix
    built densely, entry by entry.  Column 1 is the forcing v_{s+i}, plus
    sum_m phi_{m+i-1}(s+i) y_{s-m+1} when ``with_init``; the other columns
    are the banded phi entries and -1 on the superdiagonal."""
    model, s, p = problem.model, problem.s, problem.p
    minus_one = -model.one

    def first_column(i):
        acc = problem.forcing_value(s + i)
        if with_init:
            for m in range(1, p + 1):
                q = m + i - 1
                if q > p:
                    break
                coeff = model.phi(q, s + i)
                y0 = problem.initial_value(m)
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


def det_leibnizian_per_mask(matrix):
    """Reference for ``det_leibnizian``: each of the 2^(k-1) products is
    formed on its own from its mask index (row i takes column i + 1 for bit
    0 and column last + 1 for bit 1), stopping at an exactly-zero entry, and
    the products are summed in ascending index order."""
    k = matrix.k
    if k == 0:
        return matrix.one
    c = matrix.c
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
    return total if total is not None else matrix.zero
