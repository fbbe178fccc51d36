"""Certified series, Toeplitz bounds, summation-inequality chain."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcayley import estimates
from qcayley.errors import GateError, ToeplitzSizeError
from qcayley.estimates import (
    MAX_TOEPLITZ_SIZE,
    ChainCheckResult,
    _above_one,
    _certified_pd,
    _minors_positive,
    _toeplitz_candidate,
    _toeplitz_matvec,
    dim_ratio_domination,
    nonuni_norm_sq,
    orientation_chain_check,
    rd_norm_sq,
    toeplitz_schur_bound,
    truncated_toeplitz_norm,
)
from qcayley.fusion import a_param, ao_dims, growth_floor, parse_spec
from qcayley.qctree import gram, gram_bound
from qcayley.scalars import QQ, Interval, Radical
from qcayley.verify import PROFILES, _random_chain_vector


# -- rapid-decay series ---------------------------------------------------------

def test_rd_series_converges_with_tiny_tail():
    res = rd_norm_sq(QQ(3), QQ(3), 60)
    assert res.tail_bound < QQ(1, 10**12)
    assert res.ratio < 1
    refined = rd_norm_sq(QQ(3), QQ(3), 120)
    assert res.partial <= refined.partial <= res.hi


def test_rd_series_s0_matches_gram_series():
    res = rd_norm_sq(QQ(3), QQ(0), 40)
    g = gram(parse_spec("Ao(3)"), 0, 0, 40)
    assert res.partial == g.lo


def test_rd_gates():
    with pytest.raises(GateError):
        rd_norm_sq(QQ(2), QQ(3), 40)
    with pytest.raises(ValueError):
        rd_norm_sq(QQ(3), QQ(1, 3), 40)  # 2s must be a whole number
    with pytest.raises(ValueError):
        rd_norm_sq(QQ(3), QQ(30), 1)  # radius too small to certify the tail


@pytest.mark.parametrize("s", [QQ(0), QQ(1), QQ(3)])
def test_rd_series_below_dimension_three_is_the_unweighted_series(s):
    # Ao(5/2) (a = 2) passes the one growth gate; rd_norm_sq is nonuni_norm_sq at r = 1
    assert rd_norm_sq(QQ(5, 2), s, 60) == nonuni_norm_sq(s, 1, QQ(5, 2), 60)


def test_rd_half_integer_exponents_supported():
    res = rd_norm_sq(QQ(3), QQ(1, 2), 40)
    assert res.tail_bound > 0


def test_nonuni_modular_example():
    # Tr F = 7/2 with weight base 2: the growth root ~3.186 clears the gate
    res = nonuni_norm_sq(QQ(3), QQ(2), QQ(7, 2), 80)
    assert res.tail_bound < QQ(1, 10**10)


def test_nonuni_frozen_certificate():
    # recorded when nonuni_norm_sq refined its growth floor inline; the
    # partial sum (3317 digits) and the tail are pinned by their sha256
    res = nonuni_norm_sq(3, 2, QQ(7, 2), 80)

    def digest(q):
        return hashlib.sha256(str(q).encode()).hexdigest()

    assert digest(res.partial) == "095de3be5f205472fba8a16f89907ba807305ec29847cfc56f43860ac83a7042"
    assert digest(res.tail_bound) == "186654943cf45421e6d28d0684902ee150ac6c4c894323009714521de01db8d4"
    assert res.ratio == QQ(17348284907821736476756032101531703976178309136384,
                           40975030229781639707726712525357694401460206674569)


def test_nonuni_weight_one_reduces_to_rd():
    flat = nonuni_norm_sq(QQ(3), QQ(1), QQ(3), 60)
    plain = rd_norm_sq(QQ(3), QQ(3), 60)
    assert flat.partial == plain.partial


def test_negative_radius_refused():
    # the tail term would read m_{R+1} m_{R+2} from the wrong end of the
    # dimension list and certify [0, 0.2694] for a sum of about 1.0347
    with pytest.raises(ValueError, match="radius"):
        nonuni_norm_sq(QQ(0), QQ(2), QQ(7, 2), -2)
    with pytest.raises(ValueError, match="radius"):
        rd_norm_sq(QQ(7, 2), QQ(0), -2)


def test_nonuni_gate_weight_at_or_above_growth():
    with pytest.raises(GateError):
        nonuni_norm_sq(QQ(3), QQ(3), QQ(3), 40)  # a ~ 2.618 < r = 3
    with pytest.raises(GateError):
        nonuni_norm_sq(QQ(3), QQ(2), QQ(2), 40)


_GATE_DIMQS = [QQ(2), QQ(9, 4), QQ(5, 2), QQ(3), QQ(10, 3), QQ(7, 2), QQ(4), QQ(17, 4)]
_GATE_WEIGHTS = [QQ(1, 3), QQ(1, 2), QQ(1), QQ(3, 2), QQ(2), QQ(5, 2), QQ(3), QQ(4)]


@pytest.mark.parametrize("dimq", _GATE_DIMQS, ids=str)
def test_nonuni_gate_matches_the_quadratic_field(dimq):
    # a = 1, 2, 3, 4 exactly at dimq = 2, 5/2, 10/3, 17/4: the grid holds
    # each boundary r = a, (r, dimq) = (1, 2) among them, and (1, 3)
    # growth_floor is the gate: it returns rho > r or raises, at r = a too,
    # and just above an irrational a (the upper end of a tight enclosure)
    a = a_param(dimq).exact
    for r in _GATE_WEIGHTS + [a_param(dimq, QQ(1, 10**40)).interval.hi]:
        if dimq > 2 and a > Radical.from_rational(r):
            rho = growth_floor(dimq, above=r)
            assert rho > r and rho > 1 and rho + 1 / rho <= dimq, (r, dimq)
            assert nonuni_norm_sq(QQ(0), r, dimq, 40).tail_bound > 0, (r, dimq)
        else:  # dimq = 2 has no growth floor at all, whatever the weight
            with pytest.raises(GateError):
                growth_floor(dimq, above=r)
            with pytest.raises(GateError):
                nonuni_norm_sq(QQ(0), r, dimq, 40)


def test_nonuni_gate_refuses_below_dimension_two():
    # no growth parameter exists; small weights pass the rational test and
    # are refused by the growth floor instead
    for r in (QQ(1, 2), QQ(1), QQ(2)):
        with pytest.raises(GateError):
            nonuni_norm_sq(QQ(0), r, QQ(3, 2), 40)


def test_nonuni_gate_holds_for_three_by_three_weight_matrices():
    # weight matrix diag(q, 1, 1/q): trace q + 1 + 1/q, operator norm q;
    # the growth root always clears the norm strictly (exact field check)
    for q in (QQ(3, 2), QQ(2), QQ(3)):
        dimq = q + 1 + 1 / q
        a = a_param(dimq).exact
        assert a > Radical.from_rational(q)
        assert nonuni_norm_sq(QQ(3), q, dimq, 60).tail_bound > 0


def test_series_refinement_brackets():
    for maker in (lambda R: rd_norm_sq(QQ(3), QQ(3), R),
                  lambda R: nonuni_norm_sq(QQ(3), QQ(2), QQ(7, 2), R)):
        coarse = maker(50)
        fine = maker(100)
        assert coarse.partial <= fine.partial <= coarse.hi


# -- Toeplitz decay matrix ---------------------------------------------------------

def test_schur_bound_frozen_a2():
    bound = toeplitz_schur_bound(QQ(2))
    assert bound.lo == 3 and bound.hi == 3
    # symbol maximum oracle: (1 - a^-2) / (1 - a^-1)^2 = 3 at a = 2
    assert (1 - QQ(1, 4)) / (1 - QQ(1, 2)) ** 2 == 3


def test_truncated_norm_below_schur_bound():
    trunc = truncated_toeplitz_norm(QQ(2), 50)
    assert trunc.hi <= 3
    assert trunc.lo > QQ(29, 10)


def test_truncated_norm_size_one():
    assert truncated_toeplitz_norm(QQ(2), 1) == Interval.point(1)


def test_truncated_norm_monotone_in_size():
    golden = a_param(QQ(3)).interval
    for a in (QQ(3, 2), QQ(2), golden):
        schur = toeplitz_schur_bound(a)
        prev = QQ(0)
        for size in (1, 2, 5, 10, 25, 50):
            cur = truncated_toeplitz_norm(a, size)
            assert cur.hi <= schur.hi + QQ(1, 10**9)
            assert cur.hi >= prev - QQ(1, 10**6)  # nondecreasing up to enclosure width
            prev = cur.lo


def test_toeplitz_gate():
    with pytest.raises(ValueError):
        truncated_toeplitz_norm(QQ(1), 5)


def test_truncated_norm_refuses_a_size_past_the_cap():
    with pytest.raises(ToeplitzSizeError, match=f"cap of {MAX_TOEPLITZ_SIZE}"):
        truncated_toeplitz_norm(QQ(2), MAX_TOEPLITZ_SIZE + 1)


def _reference_toeplitz_norm(a, size: int) -> Interval:
    """The O(size^2) interval mat-vec over the powers of 1/a, on the library's
    float candidate: the route the two-sided recurrences replaced."""
    ia = _above_one(a)
    if size == 1:
        return Interval.point(1)
    inv = ia.inverse()
    powers = [Interval.point(1)]
    for _ in range(size - 1):
        powers.append(powers[-1] * inv)
    xr = _toeplitz_candidate(float(inv.mid), size)
    lo = hi = None
    for i in range(size):
        acc = Interval.point(0)
        for j in range(size):
            acc = acc + powers[abs(i - j)] * xr[j]
        ratio = acc / Interval.point(xr[i])
        lo = ratio.lo if lo is None else min(lo, ratio.lo)
        hi = ratio.hi if hi is None else max(hi, ratio.hi)
    return Interval(max(lo, QQ(1)), hi)


@pytest.mark.parametrize("a, sizes", [
    (QQ(3, 2), range(1, 51)),
    (QQ(2), range(1, 51)),
    # the reference costs ~10 s over every size on the golden enclosure's long endpoints
    (a_param(QQ(3)).interval, (1, 2, 3, 7, 25, 49, 50)),
], ids=["3/2", "2", "golden"])
def test_truncated_norm_equals_the_quadratic_mat_vec(a, sizes):
    for size in sizes:
        assert truncated_toeplitz_norm(a, size) == _reference_toeplitz_norm(a, size), size


@pytest.mark.parametrize("rho", [QQ(2, 3), QQ(1, 2), QQ(9, 10)])
def test_toeplitz_matvec_is_the_dense_product(rho):
    xs = [QQ(i * i % 7 + 1, i + 1) for i in range(13)]
    dense = [sum(rho ** abs(i - j) * x for j, x in enumerate(xs)) for i in range(len(xs))]
    assert _toeplitz_matvec(rho, xs) == dense


def _exact_pd(rows) -> bool:
    """Positive definiteness of a rational point matrix: exact leading minors."""
    den = math.lcm(*(e.denominator for row in rows for e in row))
    return _minors_positive([[int(e * den) for e in row] for row in rows])


def _points(rows):
    return [[Interval.point(e) for e in row] for row in rows]


def _kms(rho, size: int):
    return [[rho ** abs(k - l) for l in range(size)] for k in range(size)]


def test_certified_pd_accepts_a_positive_definite_point_matrix():
    assert _certified_pd(_points(_kms(QQ(2, 3), 12)))


def test_certified_pd_refuses_an_indefinite_matrix():
    rows = [[QQ(1), QQ(2)], [QQ(2), QQ(1)]]
    assert not _exact_pd(rows)
    assert not _certified_pd(_points(rows))


def test_certified_pd_refuses_a_box_holding_a_singular_matrix():
    # the midpoint is positive definite, but the box reaches [[1, 1], [1, 1]]
    eps = QQ(1, 2 ** 20)
    mid = [[QQ(1), QQ(1)], [QQ(1), 1 + eps]]
    assert _exact_pd(mid)
    box = _points(mid)
    box[1][1] = Interval(QQ(1), 1 + 2 * eps)
    assert not _certified_pd(box)


@pytest.mark.parametrize("a", [QQ(3, 2), QQ(2)], ids=["3/2", "2"])
@pytest.mark.parametrize("size", [3, 7, 20, 50])
def test_truncated_norm_brackets_the_largest_eigenvalue(a, size):
    # hi*I - T positive definite means hi > lambda_max; c*I - T not positive
    # definite for some c >= lo means lo <= c <= lambda_max.  Rounding lo up to
    # the 2^-64 grid keeps the exact minors short.
    enclosure = truncated_toeplitz_norm(a, size)
    toeplitz = _kms(1 / a, size)

    def shifted(c):
        return [[c * (k == l) - e for l, e in enumerate(row)] for k, row in enumerate(toeplitz)]

    assert _certified_pd(_points(shifted(enclosure.hi)))
    assert not _exact_pd(shifted(QQ(math.ceil(enclosure.lo * 2 ** 64), 2 ** 64)))


# -- the summation-inequality chain ----------------------------------------------

def test_chain_single_spike():
    res = orientation_chain_check(QQ(2), [QQ(1), QQ(0), QQ(0)])
    assert res.ok and res.aggregate_ok


def test_chain_rejects_negative_entries():
    cases = [
        [QQ(1), QQ(-1)],
        [QQ(-1, 7)],
        [QQ(-3), QQ(2), QQ(5)],
        [QQ(9), QQ(0), QQ(-1, 1000)],  # after a larger positive entry
        [40, QQ(3, 7), -1, QQ(2, 9)],  # ints and Fractions mixed
        [QQ(5, 3), 0, 2, QQ(-2, 9), 7],
    ]
    for xs in cases:
        for a in (QQ(2), a_param(QQ(3)).interval):
            with pytest.raises(ValueError, match="^entries must be nonnegative$"):
                orientation_chain_check(a, xs)


@pytest.mark.parametrize("a, shown", [
    (QQ(1), "Interval(1, 1)"),
    (QQ(1, 2), "Interval(1/2, 1/2)"),
    (QQ(0), "Interval(0, 0)"),
    (a_param(QQ(2)).interval, "Interval(1, 1)"),
    (Interval(QQ(1), QQ(2)), "Interval(1, 2)"),
], ids=["1", "1/2", "0", "a_param(2)", "Interval(1, 2)"])
def test_chain_refuses_a_at_most_one(a, shown):
    message = f"need a > 1, got enclosure {shown}"
    for xs in ([QQ(1), QQ(2)], []):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orientation_chain_check(a, xs)


def test_chain_takes_ints_and_fractions_alike():
    xs = [3, QQ(1, 2), 0, 7, QQ(5, 3)]
    for a in _CHAIN_AS:
        assert orientation_chain_check(a, xs) == orientation_chain_check(a, [QQ(x) for x in xs])


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=9),
                min_size=1, max_size=12),
       st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 2)]))
@settings(max_examples=150, deadline=None)
def test_chain_holds_on_random_nonneg_vectors(xs, a):
    assert orientation_chain_check(QQ(a), [QQ(x) for x in xs]).ok


def _reference_chain_check(a, xs, tighten=QQ(1)) -> ChainCheckResult:
    """The O(n^2) interval sums over the powers of 1/a: the route the Horner
    recurrences replaced."""
    ia = _above_one(a)
    xs = [QQ(x) for x in xs]
    n = len(xs)
    inv = ia.inverse()
    one = Interval.point(1)
    constant = Interval.point(QQ(tighten)) / (one - inv)
    powers = [one]
    for _ in range(max(n - 1, 0)):
        powers.append(powers[-1] * inv)
    per_k_ok = []
    agg_lhs = Interval.point(0)
    for k in range(n):
        s1 = Interval.point(0)
        s2 = Interval.point(0)
        for j in range(k, n):
            s1 = s1 + powers[j - k] * xs[j]
            s2 = s2 + powers[j - k] * (xs[j] * xs[j])
        lhs = s1 * s1
        rhs = constant * s2
        per_k_ok.append(lhs.hi <= rhs.lo)
        agg_lhs = agg_lhs + lhs
    agg_rhs = constant * constant * sum((x * x for x in xs), QQ(0))
    aggregate_ok = agg_lhs.hi <= agg_rhs.lo
    return ChainCheckResult(all(per_k_ok) and aggregate_ok, per_k_ok, aggregate_ok)


# the wide interval's two ends give different verdicts on most vectors, so a swap of
# the ends of 1/a shows there; the 1e-60 enclosure's ends have long denominators; at
# a = 201/100, 1/a is near 0.905; on the last interval the upper end of 1/a rounds up
# to 1 on the 2^-32 grid, so no grid pass runs
_CHAIN_AS = [QQ(3, 2), QQ(2), a_param(QQ(3)).interval, a_param(QQ(7, 2)).interval,
             a_param(QQ(3), QQ(1, 10**60)).interval, Interval(QQ(3, 2), QQ(5, 2)),
             a_param(QQ(201, 100)).interval, Interval(QQ(2**40 + 1, 2**40), QQ(2))]
_CHAIN_TIGHTEN = [QQ(1), QQ(3, 4), QQ(0), QQ(-1)]


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=9), max_size=40),
       st.sampled_from(_CHAIN_AS),
       st.sampled_from(_CHAIN_TIGHTEN))
@settings(max_examples=150, deadline=None)
def test_chain_equals_the_quadratic_sums(xs, a, tighten):
    got = orientation_chain_check(a, xs, tighten)
    want = _reference_chain_check(a, xs, tighten)
    assert (got.ok, got.per_k_ok, got.aggregate_ok) == (want.ok, want.per_k_ok, want.aggregate_ok)


@pytest.mark.parametrize("tighten", _CHAIN_TIGHTEN, ids=str)
def test_chain_on_the_empty_vector(tighten):
    for a in _CHAIN_AS:
        assert orientation_chain_check(a, [], tighten) == ChainCheckResult(True, [], True)


@pytest.mark.parametrize("tighten", [QQ(1), QQ(3, 4)], ids=str)
def test_chain_on_near_extremal_vectors_equals_the_quadratic_sums(tighten):
    # the tight cases: a wrong endpoint shows first where lhs nearly meets rhs
    for a in _CHAIN_AS:
        near = _near_extremal(float(_above_one(a).mid), 40)
        got = orientation_chain_check(a, near, tighten)
        assert got == _reference_chain_check(a, near, tighten)


def test_chain_failure_on_a_1e60_enclosure():
    # a tightened check fails on an enclosure of 1/a with long denominators,
    # with the verdicts of the quadratic sums
    a = a_param(QQ(3), tol=QQ(1, 10**60)).interval
    xs = [QQ(1, j + 1) for j in range(30)]
    got = orientation_chain_check(a, xs, tighten=QQ(3, 4))
    assert not got.ok and False in got.per_k_ok
    assert got == _reference_chain_check(a, xs, QQ(3, 4))


def test_chain_at_the_exact_boundary_of_a_one_entry_vector():
    # on [1] both tests read 1 <= tighten / (1 - inv.lo): the grid's lower end of 1/a lies
    # below inv.lo, so at the boundary only the exact ends can pass the check
    golden = a_param(QQ(3)).interval
    boundary = 1 - _above_one(golden).inverse().lo
    for tighten, ok in ((boundary, True), (boundary - QQ(1, 2**100), False)):
        got = orientation_chain_check(golden, [QQ(1)], tighten)
        assert got == ChainCheckResult(ok, [ok], ok)
        assert got == _reference_chain_check(golden, [QQ(1)], tighten)


def test_chain_grid_pass_decides_every_golden_c8_check(monkeypatch):
    # a guard that always fell back to the exact ends would still give right verdicts
    calls = []
    real = estimates._chain_tests

    def counting(ints, squares, pl, ql, ph, qh, t):
        calls.append((ql, qh))
        return real(ints, squares, pl, ql, ph, qh, t)

    monkeypatch.setattr(estimates, "_chain_tests", counting)
    grid = 1 << estimates._GRID_BITS
    golden = a_param(QQ(3)).interval
    rng = random.Random(108)
    for _ in range(PROFILES["full"]["c8_vectors"]):
        xs = _random_chain_vector(rng)
        for a in (QQ(3, 2), QQ(2)):
            calls.clear()
            assert orientation_chain_check(a, xs).ok
            assert calls == [(a.numerator, a.numerator)]
        calls.clear()
        assert orientation_chain_check(golden, xs).ok
        assert calls == [(grid, grid)]
    calls.clear()
    assert not orientation_chain_check(golden, _near_extremal(float(golden.mid)), QQ(3, 4)).ok
    assert calls == [(grid, grid), (golden.hi.numerator, golden.lo.numerator)]


def test_chain_with_interval_a():
    golden = a_param(QQ(3)).interval
    assert orientation_chain_check(golden, [QQ(1), QQ(1, 2), QQ(0), QQ(3)]).ok


def _near_extremal(a: float, n: int = 25):
    return [QQ(Fraction(a ** (-j / 2)).limit_denominator(10**7)) for j in range(n)]


def test_chain_near_extremal_passes_and_mutation_fails():
    for a in (QQ(3, 2), QQ(2)):
        near = _near_extremal(float(Fraction(a)))
        assert orientation_chain_check(a, near).ok
        mutated = orientation_chain_check(a, near, tighten=QQ(3, 4))
        assert not mutated.ok
    golden = a_param(QQ(3)).interval
    near = _near_extremal(float(golden.mid))
    assert orientation_chain_check(golden, near).ok
    assert not orientation_chain_check(golden, near, tighten=QQ(3, 4)).ok


# -- the shared half-line series and the integer dimension recurrence ------------------

@pytest.mark.parametrize("text", ["Ao(3)", "Ao(4)", "Ao(7/2)", "Ao(5/2)"])
def test_gram_bound_is_the_largest_weighted_entry(text):
    spec = parse_spec(text)
    a_hi = a_param(spec.factors[0].dimq).interval.hi
    # the quick profile's shape, c4's full shape and the one-entry table
    for kmax, radius in ((8, 30), (20, 60), (0, 30)):
        want = max(gram(spec, k, l, radius).hi * a_hi ** (l - k)
                   for k in range(kmax + 1) for l in range(k, kmax + 1))
        assert gram_bound(spec, kmax, radius) == want, (kmax, radius)


def test_gram_bound_refuses_a_table_past_the_radius():
    with pytest.raises(ValueError):
        gram_bound(parse_spec("Ao(3)"), 5, 4)
    with pytest.raises(ValueError):
        gram_bound(parse_spec("Ao(3)"), -1, 10)


def _naive_series(dimq, lo, hi, r=Fraction(1), e=0):
    """sum_{lo <= i <= hi} r^{2i+2} (i+2)^e / (m_i m_{i+1}) and m_1, summed term by term."""
    dims = [Fraction(1), Fraction(dimq)]
    while len(dims) < hi + 2:
        dims.append(dims[1] * dims[-1] - dims[-2])
    total = sum((r ** (2 * i + 2) * (i + 2) ** e / (dims[i] * dims[i + 1])
                 for i in range(lo, hi + 1)), Fraction(0))
    return total, dims


BOUNDARY_DIMQS = [QQ(3), QQ(7, 2), QQ(4)]


@pytest.mark.parametrize("radius", [0, 1, 7])
@pytest.mark.parametrize("dimq", BOUNDARY_DIMQS, ids=str)
def test_gram_entries_at_the_ends_equal_the_naive_sum(dimq, radius):
    spec = parse_spec(f"Ao({dimq})")
    for k, l in {(0, 0), (0, radius), (radius, radius)}:
        j = max(k, l)
        partial, dims = _naive_series(dimq, j, radius)
        beyond, _ = _naive_series(dimq, radius + 1, radius + 60)
        weight = 2 * dims[k] * dims[l] / dims[1]
        g = gram(spec, k, l, radius)
        assert g.lo == weight * partial
        assert g.hi - g.lo >= weight * beyond


@pytest.mark.parametrize("radius", [0, 1, 5, 40])
@pytest.mark.parametrize("dimq", BOUNDARY_DIMQS, ids=str)
def test_nonuni_equals_the_naive_sum(dimq, radius):
    a_hi = a_param(dimq).interval.hi
    for s in (Fraction(0), Fraction(1, 2), Fraction(3)):
        e = int(2 * s)
        for r in (Fraction(1), Fraction(3, 2), Fraction(2)):
            assert r < a_hi  # admissible on this grid
            try:
                res = nonuni_norm_sq(s, r, dimq, radius)
            except ValueError:
                # refused only when even the ratio at a itself reaches 1
                assert (r / a_hi) ** 2 * Fraction(radius + 4, radius + 3) ** e >= 1
                continue
            partial, dims = _naive_series(dimq, 0, radius, r, e)
            beyond, _ = _naive_series(dimq, radius + 1, radius + 60, r, e)
            assert res.partial == 2 * partial / dims[1]
            assert res.tail_bound >= 2 * beyond / dims[1]
            assert res.crossover == radius + 1


@pytest.mark.parametrize("dimq", [QQ(2), QQ(3), QQ(7, 2), QQ(10, 3), QQ(25, 7)], ids=str)
def test_ao_dims_equal_the_rational_recurrence(dimq):
    want = [QQ(1), dimq]
    while len(want) < 200:
        want.append(dimq * want[-1] - want[-2])
    for count in range(1, 201):
        assert ao_dims(dimq, count) == want[:count]


def test_dimension_ratio_domination_sweep():
    assert dim_ratio_domination(QQ(3), 30, 30)
    assert dim_ratio_domination(QQ(7, 2), 15, 15)
    assert dim_ratio_domination(QQ(4), 15, 15)


def test_dimension_ratio_domination_fails_on_one_lowered_dimension(monkeypatch):
    # m_4 of Ao(3) lowered from 55: of the inequalities m_{k-1} a^(j-k) <= m_j, k <= 2,
    # j <= 4, the tightest is (k, j) = (2, 4), 3a^2 = 20.56, and the next a^3 = 17.94;
    # so m_4 = 21 keeps every one, m_4 = 20 breaks exactly that one
    a = float(a_param(QQ(3)).interval.mid)
    for m4, holds in ((QQ(21), True), (QQ(20), False)):
        lowered = ao_dims(QQ(3), 6)
        lowered[4] = m4
        slack = [lowered[j] - lowered[k - 1] * a ** (j - k) for k in (1, 2) for j in range(k - 1, 5)]
        assert sum(s < 0 for s in slack) == (0 if holds else 1)
        assert min(abs(s) for s in slack) > QQ(2, 5)  # far beyond float rounding
        monkeypatch.setattr(estimates, "ao_dims", lambda dimq, count: lowered[:count])
        assert dim_ratio_domination(QQ(3), 2, 4) is holds, m4
