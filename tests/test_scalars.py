"""Exact scalar kernel: radicals, intervals, enclosures."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcayley.scalars import QQ, Interval, Radical, sqrt_bounds, sqrt_rational

rationals = st.fractions(min_value=0, max_value=1000, max_denominator=200)
pos_rationals = st.fractions(min_value=Fraction(1, 200), max_value=1000, max_denominator=200)


def test_sqrt_bounds_encloses():
    lo, hi = sqrt_bounds(QQ(2), 96)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo < QQ(1, 2**90)


@given(pos_rationals)
def test_sqrt_bounds_property(q):
    lo, hi = sqrt_bounds(QQ(q), 64)
    assert 0 <= lo <= hi
    assert lo * lo <= q <= hi * hi


def test_interval_arithmetic_directed():
    a = Interval(QQ(1), QQ(2))
    b = Interval(QQ(-1), QQ(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert (a * a).lo == 1 and (a * a).hi == 4
    inv = a.inverse()
    assert inv.lo == QQ(1, 2) and inv.hi == 1
    with pytest.raises(ZeroDivisionError):
        b.inverse()


class _Half(Fraction):
    """A Fraction subclass: Interval must not keep it as an endpoint."""


@pytest.mark.parametrize("lo, hi", [(1, 2), (0.5, 2.25), (Fraction(1, 3), Fraction(7, 3)),
                                    (_Half(1, 2), _Half(3, 2)), (-2, Fraction(1, 3))], ids=str)
def test_interval_endpoints_are_plain_rationals(lo, hi):
    for iv in (Interval(lo, hi), Interval(lo), Interval.point(hi)):
        assert type(iv.lo) is QQ and type(iv.hi) is QQ
    iv = Interval(lo, hi)
    assert (iv.lo, iv.hi) == (QQ(lo), QQ(hi))
    with pytest.raises(ValueError, match="empty interval"):
        Interval(hi, lo)


def test_interval_keeps_a_rational_endpoint_as_it_is():
    lo, hi = QQ(1, 3), QQ(5, 3)
    iv = Interval(lo, hi)
    assert iv.lo is lo and iv.hi is hi
    assert Interval.point(lo).hi is lo


def test_interval_contains():
    assert Interval(QQ(0), QQ(4)).contains(QQ(4))
    assert not Interval(QQ(0), QQ(4)).contains(QQ(5))
    assert Interval(QQ(1), QQ(2)).hi < Interval(QQ(3), QQ(4)).lo


def test_radical_perfect_square_collapse():
    two = sqrt_rational(2)
    assert (two * two).as_rational() == 2
    assert sqrt_rational(QQ(9, 4)).as_rational() == QQ(3, 2)
    # large prime squares must collapse as well (not just small factors)
    big = sqrt_rational(29 * 29 * 377)
    assert big == 29 * sqrt_rational(377)


def test_radical_merging_equivalent_radicands():
    assert sqrt_rational(8) == 2 * sqrt_rational(2)
    assert sqrt_rational(8) - 2 * sqrt_rational(2) == Radical.from_rational(0)
    assert sqrt_rational(QQ(1, 2)) * sqrt_rational(2) == Radical.from_rational(1)


def test_radical_multi_term_products():
    s = 1 + sqrt_rational(2)
    sq = s * s
    assert sq == Radical.from_rational(3) + 2 * sqrt_rational(2)
    assert not sq.is_rational
    assert s * (1 - sqrt_rational(2)) == Radical.from_rational(-1)
    # one square class: sqrt(8) = 2 sqrt(2)
    assert (s + sqrt_rational(8)) * (QQ(1, 3) - sqrt_rational(QQ(1, 2))) == \
        Radical.from_rational(QQ(-8, 3)) + QQ(1, 2) * sqrt_rational(2)


def test_radical_zero_iff_all_coefficients_zero():
    v = sqrt_rational(2) + 1 - sqrt_rational(8) + sqrt_rational(2) - 1
    assert v.is_zero()
    w = 1 - sqrt_rational(2)
    assert not w.is_zero() and w.sign() == -1


def test_radical_signs_and_ordering():
    golden = (Radical.from_rational(3) + sqrt_rational(5)) / 2
    assert golden > QQ(2618, 1000)
    assert golden < QQ(2619, 1000)
    # the larger root of a^2 - 3a + 1 = 0
    assert golden * golden - 3 * golden + 1 == Radical.from_rational(0)


def test_radical_division():
    x = 3 * sqrt_rational(7) - 1
    assert x / 3 == sqrt_rational(7) - QQ(1, 3)
    assert x / QQ(-1, 2) == 2 - 6 * sqrt_rational(7)
    with pytest.raises(ZeroDivisionError):
        x / 0
    # a Radical holds no surd denominator: dividing by a surd raises
    with pytest.raises(ValueError):
        Radical.from_rational(1) / sqrt_rational(2)
    with pytest.raises(TypeError):
        1 / sqrt_rational(2)


def test_radical_interval_encloses_value():
    for sign in (1, -1):
        # v = 7/3 + sign*sqrt(3) lies in iv exactly when sqrt(3) lies between
        # sign*(iv.lo - 7/3) and sign*(iv.hi - 7/3)
        iv = (QQ(7, 3) + sign * sqrt_rational(3)).interval(96)
        near, far = sorted((sign * (iv.lo - QQ(7, 3)), sign * (iv.hi - QQ(7, 3))))
        assert 0 < near and near * near <= 3 <= far * far
        assert float(iv.width) < 1e-25


@given(pos_rationals, pos_rationals)
@settings(max_examples=60)
def test_radical_product_square_property(p, q):
    prod = sqrt_rational(QQ(p)) * sqrt_rational(QQ(q))
    assert (prod * prod).as_rational() == QQ(p) * QQ(q)


@given(pos_rationals, st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20))
@settings(max_examples=60)
def test_radical_binomial_square(p, k):
    q = p * k * k  # in the square class of p
    s = sqrt_rational(QQ(p)) + sqrt_rational(QQ(q))
    expected = Radical.from_rational(QQ(p) + QQ(q)) + 2 * sqrt_rational(QQ(p) * QQ(q))
    assert s * s == expected


def test_radical_equal_values_hash_equal():
    # radicands 578 = 17^2 * 2 and 2 name one square class
    a, b = Radical.sqrt_of(578), 17 * Radical.sqrt_of(2)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(Radical.from_rational(QQ(7, 3))) == hash(QQ(7, 3))


def _general_product(x, num, den):
    return x * Radical.sqrt_of(QQ(num, den))


@pytest.mark.parametrize("x, num, den", [
    (Radical.sqrt_of(QQ(2, 3)), 3, 2),          # sqrt(2/3) * sqrt(3/2) = 1
    (QQ(5, 7) * Radical.sqrt_of(6), 3, 8),      # (5/7) sqrt(6) * sqrt(3/8) = 15/14
    (Radical.sqrt_of(578), 2, 9),               # radicand 578 = 17^2 * 2
    (Radical.from_rational(QQ(-4, 3)), 9, 4),   # a rational
    (Radical.sqrt_of(2), 1, 2),                 # sqrt(2) * sqrt(1/2) = 1
    (QQ(2, 5) * Radical.sqrt_of(3), 3, 1),      # (2/5) sqrt(3) * sqrt(3) = 6/5
])
def test_times_sqrt_single_term_collapses(x, num, den):
    got = x.times_sqrt(num, den)
    assert got.is_rational
    assert got == _general_product(x, num, den)
    assert repr(got) == repr(_general_product(x, num, den))


@pytest.mark.parametrize("x, num, den", [
    (Radical.sqrt_of(2), 3, 1),
    (QQ(-3, 5) * Radical.sqrt_of(7), 2, 5),
    (Radical.from_rational(QQ(1, 2)), 5, 3),
])
def test_times_sqrt_single_term_irrational(x, num, den):
    got = x.times_sqrt(num, den)
    assert not got.is_rational
    assert repr(got) == repr(_general_product(x, num, den))


@pytest.mark.parametrize("x, num, den", [
    (1 + Radical.sqrt_of(2), 2, 1),
    (QQ(2, 7) - Radical.sqrt_of(15), 15, 4),
    (1 + Radical.sqrt_of(QQ(3, 2)), 6, 1),
])
def test_times_sqrt_multi_term(x, num, den):
    assert repr(x.times_sqrt(num, den)) == repr(_general_product(x, num, den))


def test_times_sqrt_of_zero():
    assert Radical.from_rational(0).times_sqrt(3, 2).is_zero()


@given(st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
       st.integers(1, 60), st.integers(1, 400), st.integers(1, 400))
@settings(max_examples=80)
def test_times_sqrt_matches_general_product(c, rad, num, den):
    x = QQ(c) * Radical.sqrt_of(rad)
    got = x.times_sqrt(num, den)
    assert got == _general_product(x, num, den)
    assert repr(got) == repr(_general_product(x, num, den))


@given(st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
       st.integers(1, 60), st.integers(1, 12), st.integers(1, 40))
@settings(max_examples=80)
def test_times_sqrt_collapse_property(c, rad, k, den):
    x = QQ(c) * Radical.sqrt_of(rad)
    got = x.times_sqrt(rad * k * k * den, den)  # rad * num * den = (rad*k*den)^2
    assert got.is_rational
    assert got == QQ(c) * rad * k
    assert got == _general_product(x, rad * k * k * den, den)


def test_eq_identical_terms_and_uncanonical_radicands():
    a = QQ(3, 4) * Radical.sqrt_of(5) + 1
    assert a == 1 + Radical.sqrt_of(QQ(45, 16))
    assert a != Radical.sqrt_of(QQ(45, 16))
    # radicands that differ by a square factor give equal values
    assert Radical.sqrt_of(578) == 17 * Radical.sqrt_of(2)
    assert Radical.sqrt_of(578) != 17 * Radical.sqrt_of(3)
    assert Radical.sqrt_of(578) != Radical.sqrt_of(2)


def test_sign_of_one_surd_is_exact_at_any_precision():
    # a rational within 2^-70000 of sqrt(2), below it
    below = Radical.from_rational(Fraction(isqrt(2 << 140000), 1 << 70000))
    assert (below - sqrt_rational(2)).sign() == -1
    assert (sqrt_rational(2) - below).sign() == 1
    assert (below + sqrt_rational(2)).sign() == 1


def test_two_square_classes_are_refused():
    for build in (lambda: sqrt_rational(2) + sqrt_rational(3),
                  lambda: sqrt_rational(3) - sqrt_rational(2),
                  lambda: (1 + sqrt_rational(2)) * sqrt_rational(3),
                  lambda: sqrt_rational(3) * (sqrt_rational(2) - QQ(1, 5))):
        with pytest.raises(ValueError) as info:
            build()
        assert "sqrt(2)" in str(info.value) and "sqrt(3)" in str(info.value)
    # the product of two pure surds is one surd
    assert sqrt_rational(2) * sqrt_rational(3) == sqrt_rational(6)
    assert (-sqrt_rational(2)) * sqrt_rational(QQ(3, 4)) == -sqrt_rational(QQ(3, 2))
    assert repr(sqrt_rational(2) * sqrt_rational(3)) == repr(sqrt_rational(6))


def test_repr_is_canonical():
    assert repr(Radical.sqrt_of(578)) == repr(17 * Radical.sqrt_of(2))
    assert repr(Radical.sqrt_of(QQ(9, 4))) == repr(Radical.from_rational(QQ(3, 2)))
    assert repr(Radical.from_rational(0)) == repr(Radical.sqrt_of(2) - Radical.sqrt_of(2))


@given(st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
       st.integers(2, 40), st.integers(2, 400))
@example(QQ(3, 2), 17, 2)
@settings(max_examples=80)
def test_square_factors_give_one_form(c, k, n):
    # c*sqrt(k^2 n) and (ck)*sqrt(n) built by products, sums, division and times_sqrt
    whole = QQ(c) * Radical.sqrt_of(k * k * n)
    forms = [
        whole,
        QQ(c * k) * Radical.sqrt_of(n),
        Radical.sqrt_of(n) * QQ(c * k),
        Radical.sqrt_of(k * k) * Radical.sqrt_of(n) * QQ(c),
        sum([QQ(c) * Radical.sqrt_of(n)] * k, Radical.from_rational(0)),
        QQ(c) * Radical.sqrt_of(n) + QQ(c * (k - 1)) * Radical.sqrt_of(n * k * k) / k,
        Radical.from_rational(QQ(c)).times_sqrt(k * k * n, 1),
        (QQ(c) * Radical.sqrt_of(n)).times_sqrt(k * k, 1),
        (QQ(c * k) * Radical.sqrt_of(QQ(n, 4))).times_sqrt(4, 1),
    ]
    for form in forms:
        assert form == whole
        assert repr(form) == repr(whole)
        assert hash(form) == hash(whole)
    # and beside a nonzero rational part
    left, right = QQ(5, 3) + whole, QQ(5, 3) + QQ(c * k) * Radical.sqrt_of(n)
    assert left == right
    assert repr(left) == repr(right)
    assert hash(left) == hash(right)


_sum_parts = st.one_of(st.just(Fraction(0)), st.integers(-60, 60).map(Fraction),
                       st.fractions(min_value=-60, max_value=60, max_denominator=40))


@given(_sum_parts, _sum_parts)
@example(Fraction(0), Fraction(0))
@example(Fraction(-3, 4), Fraction(3, 4))
@example(Fraction(-2), Fraction(7))
@example(Fraction(5, 6), Fraction(1, 6))
@settings(max_examples=150)
def test_rational_sum_is_the_fraction_sum(a, b):
    # the integer-pair sum of two rational Radicals, also beside a surd
    got = Radical.from_rational(a) + Radical.from_rational(b)
    want = Radical.from_rational(a + b)
    assert type(got._p) is Fraction and got._p == a + b and not got._s
    assert got == want and got == a + b
    assert repr(got) == repr(want) and hash(got) == hash(want) == hash(a + b)
    assert Radical.from_rational(a) + b == want and a + Radical.from_rational(b) == want
    with_surd = (Radical.from_rational(a) + Radical.sqrt_of(2)) + Radical.from_rational(b)
    assert with_surd == want + Radical.sqrt_of(2)
    assert repr(with_surd) == repr(want + Radical.sqrt_of(2))
