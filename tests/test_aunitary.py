"""Tensor-power grade norms, chain bounds, linear growth."""

import tracemalloc
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcayley import aunitary
from qcayley.aunitary import (
    _grade_walk,
    cg_bounds_closed,
    check_index_independence,
    cn_lower,
    parseval_violations,
    ql_norm_sq,
    ql_sums,
)
from qcayley.errors import EnumerationSizeError, GateError
from qcayley.scalars import QQ


@dataclass(frozen=True)
class LegDecomposition:
    """Per-leg split of e_i e_k^* into scalar and traceless parts (squared norms):
    the reference for the grade norms below."""

    scalar_part_sq: object
    traceless_part_sq: object

    @classmethod
    def of(cls, i: int, k: int, N: int) -> "LegDecomposition":
        delta = 1 if i == k else 0
        return cls(QQ(delta, N * N), QQ(1, N) - QQ(delta, N * N))

    @property
    def total_sq(self):
        return self.scalar_part_sq + self.traceless_part_sq


def test_leg_decomposition_invariants():
    for N in (2, 3, 4):
        for i, k in product(range(1, N + 1), repeat=2):
            leg = LegDecomposition.of(i, k, N)
            delta = 1 if i == k else 0
            assert leg.scalar_part_sq == QQ(delta, N * N)
            assert leg.traceless_part_sq == QQ(1, N) - QQ(delta, N * N)
            assert leg.total_sq == QQ(1, N)


def test_ql_norm_special_pattern_value():
    # k_l != i_l and matching beyond l: the norm is exactly m1^(l - 2n)
    assert ql_norm_sq((1, 1), (1, 2), 2, 3) == QQ(1, 9)
    assert ql_norm_sq((1, 1), (1, 2), 2, 3) == QQ(3) ** (-2 * 2 + 2)


def test_ql_norm_vanishes_on_mismatched_scalar_leg():
    assert ql_norm_sq((1, 2, 3), (1, 2, 1), 1, 3) == 0
    assert ql_norm_sq((1, 2), (2, 1), 0, 3) == 0


def test_ql_parseval_single_pair():
    total = sum(ql_norm_sq((1, 1), (1, 1), l, 3) for l in range(3))
    assert total == QQ(1, 9)


def test_parseval_exhaustive_small():
    for N in (2, 3, 4):
        for n in range(1, 5):
            assert parseval_violations(n, N) == 0


def test_ql_sums_factorize():
    # grade totals: S_0 = m1^{-2n}; S_l = (1 - m1^{-2}) m1^{-2(n-l)}
    N, n = 3, 4
    sums = ql_sums((1, 2, 3, 1), N)
    m1sq = QQ(N) ** 2
    assert sums[0] == m1sq ** (-n)
    for l in range(1, n + 1):
        assert sums[l] == (1 - 1 / m1sq) * m1sq ** (-(n - l))


def test_validation_errors():
    with pytest.raises(ValueError):
        ql_norm_sq((1, 2), (1,), 0, 3)
    with pytest.raises(ValueError):
        ql_norm_sq((1, 4), (1, 1), 0, 3)
    with pytest.raises(ValueError):
        ql_norm_sq((1, 1), (1, 1), 3, 3)
    for l in (0.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="not an integer"):
            ql_norm_sq((1,), (1,), l, 3)


@pytest.mark.parametrize("call", [
    lambda: cn_lower(2, 3.5, method="closed"),
    lambda: cn_lower(2, 3.5),
    lambda: cg_bounds_closed(3, 1, 3.5),
    lambda: cn_lower(2, 3.0),
    lambda: cg_bounds_closed(3, 1, 3.0),
], ids=["cn_lower-closed", "cn_lower-enumerate", "cg_bounds_closed", "cn_lower-float-integral",
        "cg_bounds_closed-float-integral"])
def test_gated_functions_refuse_a_non_integer_dimension(call):
    with pytest.raises(ValueError, match="positive integer"):
        call()


@pytest.mark.parametrize("i_idx", [(5,), (0, 1), (1, 2, 4)])
def test_ql_sums_refuses_entries_outside_the_range(i_idx):
    with pytest.raises(ValueError):
        ql_sums(i_idx, 3)


@pytest.mark.parametrize("method", ["enumerate", "closed"])
def test_non_integer_entries_are_refused(method):
    with pytest.raises(ValueError):
        cn_lower(2, 3, (1.5, 2), method=method)
    with pytest.raises(ValueError):
        ql_sums((2.5,), 3)
    with pytest.raises(ValueError):
        ql_norm_sq((1.5,), (1.5,), 0, 3)


@pytest.mark.parametrize("method", ["enumerate", "closed"])
@pytest.mark.parametrize("i_idx", [(), (1, 1), (1, 2, 3, 1)])
def test_cn_lower_refuses_a_source_of_the_wrong_length(i_idx, method):
    with pytest.raises(ValueError):
        cn_lower(3, 3, i_idx, method=method)


def _reference_cg_bounds(n, l, N):
    """The chain sum: the preimage chain of a grade-l source has norms
    m1^{2(i-1)} for i = 1..n-l+1; lower is half the sum of all but the last,
    upper adds the last in full."""
    norms_sq = [QQ(N) ** (2 * (i - 1)) for i in range(1, n - l + 2)]
    lower = sum(norms_sq[:-1], QQ(0)) / 2
    return lower, lower + norms_sq[-1]


def test_cg_bounds_frozen():
    for bounds in (cg_bounds_closed, _reference_cg_bounds):
        assert bounds(3, 1, 3) == (5, 86)
        assert bounds(3, 3, 3) == (0, 1)
        assert bounds(1, 0, 3) == (QQ(1, 2), QQ(1, 2) + 9)


def test_cg_bounds_closed_form_agrees():
    for n in range(1, 7):
        for l in range(n + 1):
            assert _reference_cg_bounds(n, l, 3) == cg_bounds_closed(n, l, 3)
            assert _reference_cg_bounds(n, l, 4) == cg_bounds_closed(n, l, 4)


def test_cg_bounds_ordering():
    for n in range(1, 6):
        for l in range(n + 1):
            lower, upper = cg_bounds_closed(n, l, 3)
            assert 0 <= lower <= upper
            assert (lower, upper) == _reference_cg_bounds(n, l, 3)


def test_cn_lower_frozen_values():
    assert [cn_lower(n, 3) for n in (1, 2, 3)] == [QQ(1, 18), QQ(1, 9), QQ(1, 6)]


def test_cn_lower_enumeration_equals_closed_form():
    for N in (3, 4):
        for n in range(1, 10):
            closed = cn_lower(n, N, method="closed")
            assert cn_lower(n, N) == closed
            mixed = tuple(1 + (3 * p + 1) % N for p in range(n))
            assert cn_lower(n, N, mixed) == closed, (N, mixed)


def test_cn_lower_linear_growth():
    values = [cn_lower(n, 3) for n in range(1, 11)]
    diffs = {b - a for a, b in zip(values, values[1:])}
    assert diffs == {QQ(1, 18)}
    assert all(v > 0 for v in values)
    # the double sum collapses to n / (2 N^2) for these grade totals
    assert all(cn_lower(n, 3, method="closed") == QQ(n, 18) for n in range(1, 11))
    assert all(cn_lower(n, 4, method="closed") == QQ(n, 32) for n in range(1, 8))


def test_cn_lower_independent_of_source_index():
    assert check_index_independence(3, 3)
    assert check_index_independence(2, 4)
    assert cn_lower(4, 3, i_idx=(2, 3, 1, 2)) == cn_lower(4, 3)


def test_dimension_two_gates():
    # N >= 3 is one condition of the N check: a GateError naming the dimension
    for call in (lambda: cg_bounds_closed(3, 1, 2), lambda: cn_lower(3, 2),
                 lambda: cn_lower(2, 2), lambda: cn_lower(2, 2, method="closed")):
        with pytest.raises(GateError, match="dimension"):
            call()
    # the grade decomposition itself is dimension-agnostic
    assert parseval_violations(3, 2) == 0


@pytest.mark.parametrize("call", [
    lambda: cn_lower(14, 3),
    lambda: ql_sums((1,) * 14, 3),
    lambda: parseval_violations(7, 3),
    lambda: check_index_independence(7, 3),
    lambda: cn_lower(10 ** 6, 3),
], ids=["cn_lower", "ql_sums", "parseval_violations", "check_index_independence",
        "cn_lower-huge-n"])
def test_enumerations_refuse_more_than_the_walk_cap(call):
    """3^14 grade walks are past the 2^22 cap: refused before the first walk."""
    with pytest.raises(EnumerationSizeError, match="exceed the cap"):
        call()


# -- the grade norms and the grade walk against independent references ----------

_leg = lru_cache(maxsize=None)(LegDecomposition.of)  # the exhaustive test makes ~400k reference calls


def _reference_ql_norm_sq(i_idx, k_idx, l, N):
    """The definition: the product over legs of the leg's full, traceless or
    scalar squared norm, as legs p < l, p = l or p > l (from the last leg, whose
    scalar part is most often zero)."""
    out = QQ(1)
    for p in reversed(range(len(i_idx))):
        leg = _leg(i_idx[p], k_idx[p], N)
        if p + 1 < l:
            out *= leg.total_sq
        elif p + 1 == l:
            out *= leg.traceless_part_sq
        else:
            out *= leg.scalar_part_sq
        if not out:
            break
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_ql_norm_sq_is_the_per_leg_product(N):
    for n in range(5):
        for i_idx in product(range(1, N + 1), repeat=n):
            for k_idx in product(range(1, N + 1), repeat=n):
                for l in range(n + 1):
                    assert ql_norm_sq(i_idx, k_idx, l, N) == _reference_ql_norm_sq(
                        i_idx, k_idx, l, N), (i_idx, k_idx, l, N)


def _reference_scaled_one(i_idx, k_idx, l, N):
    """ql_norm_sq(i, k, l, N) * N^(2n) for one grade, scanning the legs."""
    n = len(i_idx)
    if l == 0:
        return int(all(i_idx[p] == k_idx[p] for p in range(n)))
    out = N ** (l - 1) * (N - (1 if i_idx[l - 1] == k_idx[l - 1] else 0))
    for p in range(l, n):
        if i_idx[p] != k_idx[p]:
            return 0
    return out


def _reference_ql_sums(i_idx, N):
    n = len(i_idx)
    scaled = [0] * (n + 1)
    for k_idx in product(range(1, N + 1), repeat=n):
        for l in range(n + 1):
            scaled[l] += _reference_scaled_one(i_idx, k_idx, l, N)
    return [QQ(s) / QQ(N) ** (2 * n) for s in scaled]


def _reference_cn_lower(n, N, i_idx):
    weights = [N ** (2 * (n - l)) - 1 for l in range(n + 1)]
    scaled = 0
    for k_idx in product(range(1, N + 1), repeat=n):
        for l in range(n + 1):
            scaled += weights[l] * _reference_scaled_one(i_idx, k_idx, l, N)
    return QQ(scaled) / (2 * (QQ(N) ** 2 - 1) * QQ(N) ** (2 * n))


def _reference_parseval_violations(n, N):
    rng = range(1, N + 1)
    return sum(
        sum(_reference_scaled_one(i_idx, k_idx, l, N) for l in range(n + 1)) != N ** n
        for i_idx in product(rng, repeat=n) for k_idx in product(rng, repeat=n)
    )


@st.composite
def _index_pairs(draw):
    """(i, k, N) with k agreeing with i on a drawn set of legs."""
    N = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 6))
    i_idx = tuple(draw(st.integers(1, N)) for _ in range(n))
    k_idx = tuple(
        i if draw(st.booleans()) else draw(st.sampled_from([x for x in range(1, N + 1) if x != i]))
        for i in i_idx
    )
    return i_idx, k_idx, N


@given(_index_pairs())
@settings(max_examples=300, deadline=None)
def test_grade_walk_row_is_the_scaled_grade_norms(pair):
    i_idx, k_idx, N = pair
    n = len(i_idx)
    row = [0] * (n + 1)
    _grade_walk(i_idx, (k_idx,), N, row)
    assert row == [_reference_ql_norm_sq(i_idx, k_idx, l, N) * N ** (2 * n) for l in range(n + 1)]
    assert row == [_reference_scaled_one(i_idx, k_idx, l, N) for l in range(n + 1)]


def test_ql_sums_match_the_per_grade_loop():
    for N, n in ((2, 4), (3, 3), (4, 2)):
        for i_idx in product(range(1, N + 1), repeat=n):
            assert ql_sums(i_idx, N) == _reference_ql_sums(i_idx, N), (N, i_idx)
    assert ql_sums((), 3) == _reference_ql_sums((), 3) == [1]


def test_cn_lower_enumeration_matches_the_per_grade_loop():
    for N, n_max in ((3, 6), (4, 5)):
        for n in range(1, n_max + 1):
            for i_idx in ((1,) * n, tuple(1 + (p * p) % N for p in range(n))):
                assert cn_lower(n, N, i_idx) == _reference_cn_lower(n, N, i_idx), (N, i_idx)


def test_parseval_matches_the_per_grade_loop():
    for N, n_max in ((2, 4), (3, 3), (4, 2)):
        for n in range(n_max + 1):
            assert parseval_violations(n, N) == _reference_parseval_violations(n, N) == 0


@st.composite
def _source_and_targets(draw):
    """(i, ks, N): a source and a list of targets, repeats allowed, possibly empty."""
    N = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(0, 5))
    leg = st.integers(1, N)
    i_idx = tuple(draw(leg) for _ in range(n))
    pool = draw(st.lists(st.tuples(*[leg] * n), min_size=1, max_size=4))
    return i_idx, draw(st.lists(st.sampled_from(pool), max_size=10)), N


@given(_source_and_targets())
@settings(max_examples=200, deadline=None)
def test_grade_walk_of_a_batch_is_the_sum_of_its_single_walks(case):
    i_idx, ks, N = case
    n = len(i_idx)
    batch = [0] * (n + 1)
    _grade_walk(i_idx, ks, N, batch)
    total = [0] * (n + 1)
    for k_idx in ks:
        single = [0] * (n + 1)
        _grade_walk(i_idx, (k_idx,), N, single)
        total = [a + b for a, b in zip(total, single)]
    assert batch == total


def test_parseval_counts_the_pairs_of_a_wrong_grade_row(monkeypatch):
    """A grade row that misses N^n is one violation for every pair whose last
    disagreeing leg is that row's j, and ql_norm_sq reads the same entry."""
    n, N, j = 3, 3, 2
    grade_entry = aunitary._grade_entry

    def bent_entry(j_, l, N_):
        return grade_entry(j_, l, N_) + ((j_, l, N_) == (j, j, N))

    monkeypatch.setattr(aunitary, "_grade_entry", bent_entry)
    indices = list(product(range(1, N + 1), repeat=n))
    expected = sum(
        max((p + 1 for p in range(n) if i_idx[p] != k_idx[p]), default=0) == j
        for i_idx in indices for k_idx in indices)
    assert expected == N ** n * N ** (j - 1) * (N - 1)
    assert parseval_violations(n, N) == expected
    assert parseval_violations(n, 2) == 0
    assert ql_norm_sq((1, 1, 1), (3, 2, 1), j, N) == QQ(N ** j + 1, N ** (2 * n))


# -- the cached exact norm and the closed-form grade entries ----------------------

def test_ql_norm_sq_returns_one_fraction_per_value():
    first = ql_norm_sq((1, 1), (1, 2), 2, 3)
    assert ql_norm_sq((1, 1), (1, 2), 2, 3) is first
    # another pair whose entry and scale are the same: the same object
    assert ql_norm_sq((2, 3), (3, 1), 2, 3) is first


@pytest.mark.parametrize("i_idx, l, N, match", [
    ((1, 1.0), 2, 3, "not an integer in 1..3"),
    ((1, "1"), 2, 3, "not an integer in 1..3"),
    ((True, 1), 2, 3, "not an integer in 1..3"),
    ((1, 4), 2, 3, "not an integer in 1..3"),
    ((1, 0), 2, 3, "not an integer in 1..3"),
    ((1, 1), 2.0, 3, "not an integer in 0..2"),
    ((1, 1), 3, 3, "not an integer in 0..2"),
    ((1, 1), 2, 3.0, "positive integer"),
], ids=["float-entry", "str-entry", "bool-entry", "entry-above-N", "entry-zero", "float-l",
        "l-above-n", "float-N"])
def test_a_warmed_norm_still_validates_its_arguments(i_idx, l, N, match):
    """Equal-valued arguments (1.0 == 1 == True) reach the validation, not the cache."""
    assert ql_norm_sq((1, 1), (1, 2), 2, 3) == QQ(1, 9)
    with pytest.raises(ValueError, match=match):
        ql_norm_sq(i_idx, (1, 2), l, N)


def _pair_with_last_disagreement(n, j):
    """(i, k) of length n whose last disagreeing leg is j (k == i when j = 0)."""
    return (1,) * n, (2,) * j + (1,) * (n - j)


def test_norms_past_the_cache_size_match_the_definition():
    maxsize = aunitary._exact_norm.cache_info().maxsize
    aunitary._exact_norm.cache_clear()
    shapes = [(n, N) for n in range(1, 21) for N in (2, 3)]
    for n, N in shapes + shapes[:2]:  # the first shapes again, after their keys were evicted
        for j in range(n + 1):
            i_idx, k_idx = _pair_with_last_disagreement(n, j)
            for l in range(n + 1):
                assert ql_norm_sq(i_idx, k_idx, l, N) == _reference_ql_norm_sq(
                    i_idx, k_idx, l, N), (n, N, j, l)
    info = aunitary._exact_norm.cache_info()
    assert info.currsize == maxsize < info.misses


def test_ql_norm_sq_at_a_thousand_legs():
    n, N = 1000, 3
    for j, l in ((0, 0), (0, 1000), (1, 1), (1, 0), (500, 500), (500, 731), (999, 1000),
                 (1000, 1000), (1000, 999)):
        i_idx, k_idx = _pair_with_last_disagreement(n, j)
        assert ql_norm_sq(i_idx, k_idx, l, N) == QQ(
            _reference_scaled_one(i_idx, k_idx, l, N), N ** (2 * n)), (j, l)


def test_grade_entry_rows_are_zero_below_j_and_sum_to_the_full_norm():
    n, N = 1000, 3
    for j in (0, 1, 500, 1000):
        row = [aunitary._grade_entry(j, l, N) for l in range(n + 1)]
        assert row[:j] == [0] * j and row[j] == N ** j
        assert sum(row) == N ** n


def _peak_bytes(call):
    """(call(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ql_norm_sq_at_three_thousand_legs_builds_no_table():
    n, N = 3000, 3
    i_idx, k_idx = _pair_with_last_disagreement(n, 1200)
    norm, peak = _peak_bytes(lambda: ql_norm_sq(i_idx, k_idx, 2000, N))
    assert norm == QQ(N ** 1999 * (N - 1), N ** (2 * n))
    assert peak < 1 << 20


# The two cases use different n, so neither can reuse memory the other one left behind.
@pytest.mark.parametrize("call, expected", [
    (lambda: parseval_violations(3000, 1), 0),
    (lambda: ql_sums((1,) * 3001, 1), [1] + [0] * 3001),
], ids=["parseval_violations", "ql_sums"])
def test_the_single_walk_of_n_one_takes_linear_memory(call, expected):
    result, peak = _peak_bytes(call)
    assert result == expected
    assert peak < 2 << 20


# -- refused arguments: a bool is not an int, and n is an int -----------------------

@pytest.mark.parametrize("call", [
    lambda: ql_norm_sq((1,), (1,), 0, True),
    lambda: ql_sums((1,), True),
    lambda: cn_lower(2, True),
    lambda: cg_bounds_closed(2, 1, True),
    lambda: parseval_violations(1, True),
    lambda: check_index_independence(2, True),
    lambda: check_index_independence(2, 3.0),
], ids=["ql_norm_sq", "ql_sums", "cn_lower", "cg_bounds_closed", "parseval_violations",
        "check_index_independence", "check_index_independence-float"])
def test_a_bool_or_float_dimension_is_refused(call):
    with pytest.raises(ValueError, match="positive integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ql_norm_sq((True,), (1,), 0, 3),
    lambda: ql_norm_sq((1, 2), (1, True), 0, 3),
    lambda: ql_sums((1, True), 3),
    lambda: cn_lower(2, 3, (True, 1)),
    lambda: cn_lower(2, 3, (True, 1), method="closed"),
], ids=["ql_norm_sq-source", "ql_norm_sq-target", "ql_sums", "cn_lower-enumerate",
        "cn_lower-closed"])
def test_a_bool_index_entry_is_refused(call):
    with pytest.raises(ValueError, match="is not an integer in 1..3"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ql_norm_sq((1,), (1,), True, 3),
    lambda: ql_norm_sq((1,), (1,), False, 3),
    lambda: cg_bounds_closed(3, True, 3),
    lambda: cg_bounds_closed(3, 1.5, 3),
    lambda: cg_bounds_closed(3, 4, 3),
], ids=["ql_norm_sq-True", "ql_norm_sq-False", "cg_bounds_closed-bool", "cg_bounds_closed-float",
        "cg_bounds_closed-above-n"])
def test_a_bool_or_non_integer_grade_is_refused(call):
    with pytest.raises(ValueError, match=r"l = .* is not an integer in 0\.\.[13]"):
        call()


@pytest.mark.parametrize("call, least", [
    (lambda: parseval_violations(-1, 3), 0),
    (lambda: parseval_violations(1.5, 3), 0),
    (lambda: parseval_violations(True, 3), 0),
    (lambda: check_index_independence(2.0, 3), 1),
    (lambda: check_index_independence(0, 3), 1),
    (lambda: check_index_independence(True, 3), 1),
    (lambda: cn_lower(1.5, 3), 1),
    (lambda: cn_lower(1.5, 3, method="closed"), 1),
    (lambda: cn_lower(True, 3), 1),
    (lambda: cn_lower(0, 3), 1),
    (lambda: cg_bounds_closed(1.5, 0, 3), 0),
    (lambda: cg_bounds_closed(True, 0, 3), 0),
    (lambda: cg_bounds_closed(-1, 0, 3), 0),
], ids=["parseval-negative", "parseval-float", "parseval-bool", "independence-float",
        "independence-zero", "independence-bool", "cn_lower-float", "cn_lower-closed-float",
        "cn_lower-bool", "cn_lower-zero", "cg_bounds-float", "cg_bounds-bool", "cg_bounds-negative"])
def test_a_power_that_is_not_an_integer_in_range_is_refused(call, least):
    with pytest.raises(ValueError, match=f"n must be an integer >= {least}"):
        call()


def test_the_smallest_powers_are_still_accepted():
    assert parseval_violations(0, 3) == 0
    assert cg_bounds_closed(0, 0, 3) == (0, 1)
    assert cn_lower(1, 3) == cn_lower(1, 3, method="closed") == QQ(1, 18)
    assert check_index_independence(1, 3)
