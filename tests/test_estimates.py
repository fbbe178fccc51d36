"""Certified series, Toeplitz bounds, summation-inequality chain."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcayley.errors import GateError
from qcayley.estimates import (
    dim_ratio_domination,
    nonuni_norm_sq,
    orientation_chain_check,
    rd_norm_sq,
    s_norm_ratio,
    toeplitz_schur_bound,
    truncated_toeplitz_norm,
)
from qcayley.fusion import a_param, parse_spec
from qcayley.qctree import gram
from qcayley.scalars import QQ, Interval


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


def test_nonuni_gate_holds_for_three_by_three_weight_matrices():
    # weight matrix diag(q, 1, 1/q): trace q + 1 + 1/q, operator norm q;
    # the growth root always clears the norm strictly (exact field check)
    from qcayley.scalars import Radical

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


# -- the summation-inequality chain ----------------------------------------------

def test_chain_single_spike():
    res = orientation_chain_check(QQ(2), [QQ(1), QQ(0), QQ(0)])
    assert res.ok and res.aggregate_ok


def test_chain_rejects_negative_entries():
    with pytest.raises(ValueError):
        orientation_chain_check(QQ(2), [QQ(1), QQ(-1)])


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=9),
                min_size=1, max_size=12),
       st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 2)]))
@settings(max_examples=150, deadline=None)
def test_chain_holds_on_random_nonneg_vectors(xs, a):
    assert orientation_chain_check(QQ(a), [QQ(x) for x in xs]).ok


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
        assert "violated" in mutated.detail
    golden = a_param(QQ(3)).interval
    near = _near_extremal(float(golden.mid))
    assert orientation_chain_check(golden, near).ok
    assert not orientation_chain_check(golden, near, tighten=QQ(3, 4)).ok


# -- shift-norm ratios ----------------------------------------------------------------

def test_s_norm_ratio_frozen():
    spec = parse_spec("Ao(3)")
    assert s_norm_ratio(spec, 1, 1).square().as_rational() == QQ(1, 8)
    assert s_norm_ratio(spec, 4, 3).as_rational() == 1  # l = j + 1 gives the unit ratio


def test_s_norm_ratio_bounds():
    spec = parse_spec("Ao(3)")
    with pytest.raises(ValueError):
        s_norm_ratio(spec, 0, 3)
    with pytest.raises(ValueError):
        s_norm_ratio(spec, 5, 3)


def test_dimension_ratio_domination_sweep():
    assert dim_ratio_domination(QQ(3), 30, 30)
    assert dim_ratio_domination(QQ(7, 2), 15, 15)
    assert dim_ratio_domination(QQ(4), 15, 15)
