"""Building functions, the mask bijection, and the compact expansion."""

from random import Random

import pytest

from vclde import EnumLimitError
from vclde.hessenberg import (HessenbergMatrix, _permutation_terms, det_leibniz_oracle,
                              det_recurrence)
from vclde.leibnizian import SepTerm, _c_rows, _walk, det_leibnizian, enumerate_seps
from vclde.scalar import TermSum, h_sym
from testutil import (
    Permutation,
    column_for_index,
    factor_column,
    initial_strings,
    mask_from_index,
    mask_from_sep,
    random_hessenberg,
    sep_columns,
    sep_from_mask,
    sep_term_sum,
    validate_string_properties,
    zero_run,
    zero_run_piecewise,
)

# Known-good k=4 expansion: signs and h-columns of all eight products.
K4_EXPANSION = [
    (-1, (2, 3, 4, 1)),
    (+1, (1, 3, 4, 2)),
    (+1, (2, 1, 4, 3)),
    (-1, (1, 2, 4, 3)),
    (+1, (2, 3, 1, 4)),
    (-1, (1, 3, 2, 4)),
    (-1, (2, 1, 3, 4)),
    (+1, (1, 2, 3, 4)),
]


def k4_expected() -> TermSum:
    total = TermSum()
    for sign, cols in K4_EXPANSION:
        term = TermSum.constant(sign)
        for i, col in enumerate(cols, start=1):
            term = term * h_sym(i, col)
        total = total + term
    return total


def test_mask_from_index_examples():
    assert mask_from_index(1, 0) == (1,)
    assert mask_from_index(4, 5) == (1, 0, 1, 1)
    assert mask_from_index(4, 0) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        mask_from_index(4, 8)
    with pytest.raises(ValueError):
        mask_from_index(3, -1)


def test_mask_from_index_injective():
    for k in range(1, 11):
        images = {mask_from_index(k, m) for m in range(1 << (k - 1))}
        assert len(images) == 1 << (k - 1)
        assert all(r[-1] == 1 for r in images)


DEMO_MASK = (1, 0, 0, 0, 1, 1, 0, 0, 1)  # k = 9


def test_zero_run_demo_values():
    assert zero_run(9, 1, DEMO_MASK) == 0
    assert zero_run(9, 5, DEMO_MASK) == 3
    assert zero_run(9, 6, DEMO_MASK) == 0
    assert zero_run(9, 9, DEMO_MASK) == 2
    assert zero_run(9, 2, DEMO_MASK) == -1


def test_zero_run_all_zero_prefix():
    for k in (1, 4, 7):
        mask = (0,) * (k - 1) + (1,)
        assert zero_run(k, k, mask) == k - 1


def test_zero_run_piecewise_agrees():
    for k in range(1, 11):
        for m in range(1 << (k - 1)):
            mask = mask_from_index(k, m)
            for i in range(1, k + 1):
                assert zero_run(k, i, mask) == zero_run_piecewise(k, i, mask)


def test_factor_column_examples():
    assert factor_column(9, 2, DEMO_MASK) == 3  # non-standard rows sit at i+1
    assert factor_column(9, 5, DEMO_MASK) == 2
    assert factor_column(9, 1, DEMO_MASK) == 1


def test_column_for_index_examples():
    assert column_for_index(1, 1, 0) == 1
    assert tuple(column_for_index(4, i, 7) for i in range(1, 5)) == (1, 2, 3, 4)


def test_column_map_is_permutation_with_matching_sign():
    for k in range(1, 9):
        for m in range(1 << (k - 1)):
            cols = tuple(column_for_index(k, i, m) for i in range(1, k + 1))
            assert sorted(cols) == list(range(1, k + 1))
            non_standard = sum(1 for i, c in enumerate(cols, start=1) if c == i + 1)
            assert Permutation(cols).sign == (-1) ** non_standard


def test_sep_columns_matches_column_for_index():
    for k in range(1, 11):
        for m in range(1 << (k - 1)):
            assert sep_columns(k, m) == tuple(
                column_for_index(k, i, m) for i in range(1, k + 1)
            )


def test_sep_from_mask_worked_example():
    term = sep_from_mask(7, (1, 0, 1, 0, 0, 1, 1))
    assert term.columns == (1, 3, 2, 5, 6, 4, 7)
    assert term.sign == -1
    expected = TermSum.constant(-1)
    for i, c in [(1, 1), (2, 3), (3, 2), (4, 5), (5, 6), (6, 4), (7, 7)]:
        expected = expected * h_sym(i, c)
    assert sep_term_sum(term) == expected


def test_sep_from_mask_trivial_and_generic():
    assert sep_term_sum(sep_from_mask(1, (1,))) == h_sym(1, 1)
    diag = sep_from_mask(4, (1, 1, 1, 1))
    assert diag.columns == (1, 2, 3, 4)
    assert diag.sign == 1
    # k = 9 instance of the running example mask (1,0,...,0,1,1,0,0,1)
    term = sep_from_mask(9, DEMO_MASK)
    assert term.columns == (1, 3, 4, 5, 2, 6, 8, 9, 7)


def test_mask_round_trip_exhaustive():
    for k in range(1, 11):
        for m in range(1 << (k - 1)):
            mask = mask_from_index(k, m)
            assert mask_from_sep(sep_from_mask(k, mask)) == mask


def test_sep_term_validation():
    with pytest.raises(ValueError):
        SepTerm(3, (1, 1, 2), 1)  # not a permutation
    with pytest.raises(ValueError):
        SepTerm(3, (3, 1, 2), 1)  # factor above the superdiagonal
    with pytest.raises(ValueError):
        SepTerm(3, (2, 1, 3), 1)  # sign does not match parity


def test_enumerate_seps_counts_and_signs():
    terms = list(enumerate_seps(2))
    assert [(t.sign, t.columns) for t in terms] == [(-1, (2, 1)), (1, (1, 2))]
    assert len(list(enumerate_seps(5))) == 16
    for k in range(1, 9):
        seen = set()
        for term in enumerate_seps(k):
            assert term.sign == Permutation(term.columns).sign
            seen.add(term.columns)
        assert len(seen) == 1 << (k - 1)
    with pytest.raises(ValueError, match="order must be >= 1"):
        list(enumerate_seps(0))


def test_enumerate_limit_guard(monkeypatch):
    with pytest.raises(EnumLimitError):
        list(enumerate_seps(30))
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "3")
    with pytest.raises(EnumLimitError):
        list(enumerate_seps(4))


def test_det_leibnizian_k4_golden():
    matrix = HessenbergMatrix.from_function(4, h_sym, "symbolic")
    assert det_leibnizian(matrix) == k4_expected()


def test_det_leibnizian_k1():
    matrix = HessenbergMatrix.from_function(1, h_sym, "symbolic")
    assert det_leibnizian(matrix) == h_sym(1, 1)


def test_det_leibnizian_matches_both_oracles():
    rng = Random(20240812)
    for k in range(9):
        for _ in range(10):
            matrix = random_hessenberg(rng, k)
            compact = det_leibnizian(matrix)
            assert compact == det_recurrence(matrix)
            assert compact == det_leibniz_oracle(matrix)


def test_walk_orders():
    # descending index order is ascending order reversed, and on symbolic
    # rows it is the canonical order, in which the permutation oracle also
    # makes its products: one product per term, as expand writes them
    rng = Random(20261022)
    for k in range(1, 9):
        rows = _c_rows(random_hessenberg(rng, k))
        assert list(_walk(rows, descending=True)) == list(_walk(rows))[::-1]
    for k in range(1, 10):
        matrix = HessenbergMatrix.from_function(k, h_sym, "symbolic")
        canonical = det_leibnizian(matrix).sorted_items()
        for products in (_walk(_c_rows(matrix), descending=True),
                         _permutation_terms(matrix, k)):
            assert [item for p in products for item in p.sorted_items()] == canonical


def test_det_leibnizian_limit_guard(monkeypatch):
    matrix = HessenbergMatrix.from_function(5, h_sym, "symbolic")
    monkeypatch.setenv("VCLDE_ENUM_LIMIT", "4")
    with pytest.raises(EnumLimitError):
        det_leibnizian(matrix)


def test_string_properties_small_orders():
    report = validate_string_properties(4)
    assert report.all_passed
    vacuous = validate_string_properties(1)
    assert vacuous.all_passed
    with pytest.raises(ValueError):
        validate_string_properties(13)


def test_initial_strings_classes():
    assert initial_strings(0) == {()}
    assert initial_strings(1) == {((1, 1),), ((1, 2),)}
    assert initial_strings(2) == {
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((1, 2), (2, 1)),
        ((1, 2), (2, 3)),
    }
    assert len(initial_strings(5)) == 32
