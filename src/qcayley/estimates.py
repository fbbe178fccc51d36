"""Certified series sums and inequality checks.

Every infinite sum in scope is returned as a SeriesResult: an exact partial
sum plus a tail bound proved by explicit geometric domination (a rational
ratio < 1 valid beyond a computed index), never by asymptotic reasoning.
The inequality checks (Toeplitz/Schur bound, the summation chain, the
dimension-ratio domination) run in exact rational or quadratic-field
arithmetic so that a reported pass is a certificate, not an observation.
The truncated Toeplitz norm and the summation chain are decided by exact
integer comparisons: the entries and each end of the enclosure of 1/a are
put over common denominators, the one-sided geometric sums are integer
recurrences (`_scaled_suffix_sums`), and a result is built as one Fraction
(the Toeplitz bounds) or not at all: a failed chain check names the tests
that failed (`per_k_ok`, `aggregate_ok`), not the values of their two
sides.  The chain check reads the integer ends of 1/a straight from the
ends of a.  On a long-denominator enclosure with tighten >= 0 it first runs
its tests on 1/a widened outward to the 2^-32 grid: each test only gets
harder as the enclosure widens, so a pass there is a pass, and a failure
is decided again on the exact ends.  The dimension-ratio domination builds
the powers of a once, in the quadratic field of a, and shares them across
every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .errors import ToeplitzSizeError
from .fusion import a_param, ao_dims, growth_floor
from .scalars import QQ, Interval, Radical

__all__ = [
    "SeriesResult",
    "rd_norm_sq",
    "nonuni_norm_sq",
    "toeplitz_schur_bound",
    "truncated_toeplitz_norm",
    "orientation_chain_check",
    "ChainCheckResult",
    "dim_ratio_domination",
]


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series with a certified geometric tail.

    The true sum lies in [partial, partial + tail_bound]; term ratios are
    at most `ratio` (< 1) from index `crossover` on.
    """

    partial: object
    tail_bound: object
    ratio: object
    crossover: int

    @property
    def hi(self):
        return self.partial + self.tail_bound


def _even_exponent(s) -> int:
    """The decay weights (i+2)^{2s} stay rational only when 2s is a whole number."""
    s = QQ(s)
    twice = 2 * s
    if twice.denominator != 1 or twice < 0:
        raise ValueError(
            f"s = {s} not supported: need 2s to be a nonnegative integer "
            "for exact weights"
        )
    return int(twice)


def rd_norm_sq(dimq, s, radius: int) -> SeriesResult:
    """Rapid-decay norm series (2/m_1) * sum_i (i+2)^{2s} / (m_i m_{i+1}): the
    weight r = 1 case of `nonuni_norm_sq`.

    Requires generator dimension > 2 (`growth_floor`) so the dimensions grow
    geometrically; the tail is dominated by ratio ((R+4)/(R+3))^{2s} / rho^2 < 1.
    """
    return nonuni_norm_sq(s, 1, dimq, radius)


def _half_line(dimq, radius: int, r=1, e: int = 0):
    """(dims, prefix, tail, ratio) of sum_i w_i / (m_i m_{i+1}), w_i = r^{2i+2} (i+2)^e:
    prefix[k] is the exact sum over i <= k <= radius, and past the radius the
    terms shrink by `ratio` < 1 per step, so `tail` bounds the rest.  GateError
    unless r < a (see `growth_floor`).
    """
    r = QQ(r)
    rho = growth_floor(dimq, above=r)
    dims = ao_dims(dimq, radius + 3)
    wn, wd = r.numerator ** 2, r.denominator ** 2  # r^2 = wn/wd, kept in integers
    prefix = accumulate(QQ(wn ** (i + 1) * (i + 2) ** e, wd ** (i + 1)) / (dims[i] * dims[i + 1])
                        for i in range(radius + 1))
    # ratio = (r/rho)^2 ((R+4)/(R+3))^e, compared with 1 in integers: at a large e
    # a refusal then costs no gcd, and it does not print the ratio's thousands of digits
    num = wn * rho.denominator ** 2 * (radius + 4) ** e
    den = wd * rho.numerator ** 2 * (radius + 3) ** e
    if num >= den:
        raise ValueError(f"radius {radius} too small to certify the tail "
                         "(term ratio >= 1); increase it")
    ratio = QQ(num, den)
    t_next = r ** (2 * radius + 4) * QQ((radius + 3) ** e) / (dims[radius + 1] * dims[radius + 2])
    return tuple(dims), tuple(prefix), t_next / (1 - ratio), ratio


def nonuni_norm_sq(s, r, dimq, radius: int) -> SeriesResult:
    """Weighted variant (2/m_1) * sum_i r^{2i+2} (i+2)^{2s} / (m_i m_{i+1}).

    Admissible only when the weight base r stays strictly below the growth
    parameter a of dimq; `growth_floor` decides the gate exactly, in rationals.
    """
    e = _even_exponent(s)
    r = QQ(r)
    if r <= 0:
        raise ValueError("r must be positive")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dims, prefix, tail, ratio = _half_line(dimq, radius, r, e)
    scale = 2 / dims[1]
    return SeriesResult(scale * prefix[radius], scale * tail, ratio, radius + 1)


# ---------------------------------------------------------------------------
# Toeplitz decay matrix (a^{-|k-l|})
# ---------------------------------------------------------------------------

# At the cap, truncated_toeplitz_norm on the enclosure `schur --a growth:3` reads (width
# 1e-30) takes about 10-13 s (Python 3.11 on 2 vCPU; 1.3-1.7 s at size 400, 60 s at
# 2000): the exact sums carry q^(size-1) for 1/a = p/q.  The golden `schur` and c4 use
# size 50 (0.01 s).
MAX_TOEPLITZ_SIZE = 1000

def _above_one(a) -> Interval:
    """`a` (a rational, or an Interval enclosing it) as an Interval; it must be > 1."""
    ia = a if isinstance(a, Interval) else Interval.point(a)
    if not ia.lo > 1:
        raise ValueError(f"need a > 1, got enclosure {ia}")
    return ia


def toeplitz_schur_bound(a) -> Interval:
    """Row-sum Schur bound (1 + 1/a) / (1 - 1/a) for the decay matrix; needs a > 1."""
    inv = _above_one(a).inverse()
    return (Interval.point(1) + inv) / (Interval.point(1) - inv)


def _toeplitz_matvec(rho, xs) -> list:
    """(Tx)_i = L_i + R_i - x_i for T = (rho^|k-l|), by one-sided sums: O(len(xs))."""
    left, right = _scaled_suffix_sums(rho, 1, xs[::-1])[::-1], _scaled_suffix_sums(rho, 1, xs)
    return [lt + rt - v for lt, rt, v in zip(left, right, xs)]


def _toeplitz_candidate(rho: float, size: int) -> list:
    """Positive rationals near the Perron vector of (rho^|k-l|), by 200 float power steps."""
    x = [1.0] * size
    for _ in range(200):
        y = _toeplitz_matvec(rho, x)
        norm = math.sqrt(sum(v * v for v in y))
        x = [v / norm for v in y]
    return [max(Fraction(v).limit_denominator(1 << 40), QQ(1, 1 << 40)) for v in x]


_BY_RATIO = cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1])  # (y, x) as y/x, x > 0


def _collatz_bound(pick, rho, xs):
    """pick (min or max) over k of (Tx)_k / x_k, for T = (rho^|k-l|)_{k,l < n} and
    x = xs / D with positive integers xs, as one Fraction.

    With rho = p/q, the one-sided sums of xs reversed and of xs
    (`_scaled_suffix_sums`) give (Tx)_k / x_k = Y_k / (X_k q^(n-1)) with
    Y_k = left_k q^(n-1-k) + right_k q^k - X_k q^(n-1): D cancels, and the pairs
    (Y_k, X_k) are compared by cross-multiplication."""
    p, q = rho.as_integer_ratio()
    n = len(xs)
    qpow = list(accumulate(repeat(q, n - 1), mul, initial=1))  # q^0 .. q^(n-1)
    top = qpow[-1]
    left = _scaled_suffix_sums(p, q, xs[::-1])[::-1]  # sum_{j<=k} rho^(k-j) X_j = left_k / q^k
    right = _scaled_suffix_sums(p, q, xs)
    y, x = pick(((lt * ql + rt * qr - v * top, v)
                 for lt, ql, rt, qr, v in zip(left, reversed(qpow), right, qpow, xs)),
                key=_BY_RATIO)
    return QQ(y, x * top)


def truncated_toeplitz_norm(a, size: int) -> Interval:
    """Certified enclosure of the largest eigenvalue of (a^{-|k-l|})_{k,l < size}.

    A float candidate x > 0 picks where the bounds min/max (Tx)_k / x_k, valid
    for entrywise nonnegative symmetric T, are taken; Tx grows with 1/a, so the
    min is taken at the lower end of the enclosure of 1/a and the max at the
    upper end.  Both are decided in integers: x is put over the common
    denominator D of its entries, the extreme k is picked by cross-multiplied
    comparisons (`_collatz_bound`), and one Fraction is built per end.

    Refused with ToeplitzSizeError above MAX_TOEPLITZ_SIZE, before anything is
    allocated.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > MAX_TOEPLITZ_SIZE:
        raise ToeplitzSizeError(f"size {size} exceeds the Toeplitz size cap of {MAX_TOEPLITZ_SIZE}")
    inv = _above_one(a).inverse()
    xr = _toeplitz_candidate(float(inv.mid), size)
    d = math.lcm(*(x.denominator for x in xr))
    ints = [x.numerator * (d // x.denominator) for x in xr]
    lo = _collatz_bound(min, inv.lo, ints)
    hi = _collatz_bound(max, inv.hi, ints)
    return Interval(max(lo, QQ(1)), hi)  # diagonal alone forces the norm >= 1


def _minors_positive(m) -> bool:
    """Every leading minor of the square integer matrix m (overwritten) is > 0, by
    Bareiss elimination: its k-th pivot is the k-th minor (Math. Comp. 22 (1968))."""
    prev = 1
    for k, row in enumerate(m):
        if row[k] <= 0:
            return False
        for other in m[k + 1:]:
            for j in range(k + 1, len(m)):
                other[j] = (row[k] * other[j] - other[k] * row[j]) // prev
        prev = row[k]
    return True


def _certified_pd(rows) -> bool:
    """True proves that every matrix in the symmetric interval box `rows` is
    positive definite: by Rump (BIT 46 (2006)) it suffices that M - delta*I is,
    for M the midpoints rounded down to the 2^-64 grid and delta >= the Frobenius
    norm of (half-width + 2^-64); decided exactly on 2^64 (M - delta*I)."""
    grid = 1 << 64
    rad_sq = sum((math.ceil(e.width * grid / 2) + 1) ** 2 for row in rows for e in row)
    shift = math.isqrt(rad_sq - 1) + 1  # ceil(sqrt(rad_sq)) = 2^64 delta
    return _minors_positive([[math.floor(e.mid * grid) - shift * (i == j) for j, e in enumerate(row)]
                             for i, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# the summation-inequality chain
# ---------------------------------------------------------------------------

@dataclass
class ChainCheckResult:
    ok: bool
    per_k_ok: list
    aggregate_ok: bool

    def __bool__(self):
        return self.ok


def _scaled_suffix_sums(p: int, q: int, xs: Sequence) -> list:
    """[S_k] for integers xs and rho = p/q, where S_k / q^(n-1-k) is
    sum_{j>=k} rho^{j-k} xs[j] (n = len(xs)), by S_k = xs[k] q^(n-1-k) + p S_{k+1}.
    With q = 1, p and xs may be any numbers (floats too) and S_k is the sum itself."""
    out = [0] * len(xs)
    acc, qpow = 0, 1
    for k in range(len(xs) - 1, -1, -1):
        acc = xs[k] * qpow + p * acc
        out[k] = acc
        qpow *= q
    return out


def _chain_tests(ints, squares, pl, ql, ph, qh, t) -> tuple:
    """(per_k_ok, aggregate_ok) of the chain on x_j = ints[j] / d (squares[j] = ints[j]^2)
    for 1/a in [pl/ql, ph/qh] and C = t / (1 - pl/ql), each test one integer comparison."""
    # x_j >= 0 and 0 < pl/ql <= ph/qh, so the sums of the lhs are largest at ph/qh and
    # those of the rhs smallest at pl/ql:
    # s1_k = s1[k] / (d qh^m) and s2_k = s2[k] / (d^2 ql^m), m = n-1-k.
    s1, s2 = _scaled_suffix_sums(ph, qh, ints), _scaled_suffix_sums(pl, ql, squares)
    # C = cn / cd is the constant's lower end when t >= 0.  When t < 0 any negative
    # constant gives the same per-k verdicts, since s1_k = 0 exactly when s2_k = 0,
    # and C^2 is the lower end of the constant's square.
    cn, cd = t.numerator * ql, t.denominator * (ql - pl)
    per_k_ok = [False] * len(ints)
    agg = 0  # sum_k s1[k]^2 qh^(2k+2) = d^2 qh^(2n) sum_k s1_k^2
    ql_m = qh_2m = 1  # ql^m and qh^(2m)
    qh2 = qh * qh
    for k in range(len(ints) - 1, -1, -1):
        lhs = s1[k] * s1[k]
        # s1_k^2 <= C s2_k, times d^2 qh^(2m) ql^m cd (d^2 cancels)
        per_k_ok[k] = lhs * cd * ql_m <= cn * s2[k] * qh_2m
        agg = (agg + lhs) * qh2
        ql_m *= ql
        qh_2m *= qh2
    # sum_k s1_k^2 <= C^2 sum_j x_j^2, times d^2 qh^(2n) cd^2
    return per_k_ok, agg * cd * cd <= cn * cn * sum(squares) * qh_2m


# The grid pass widens 1/a outward to multiples of 2^-_GRID_BITS.  On the 312 chain
# checks of a series-certify pass (seed 1001, best of 7; 2 vCPU, Python 3.11), 32 bits
# took 6.1 ms and 64 bits 7.5 ms.  A coarser grid saves little (24 bits: 5.7 ms) and
# passes fewer tight inputs: of 400 vectors x_j = b^j, 1/2 <= b <= 1, on the golden
# enclosure, 16 bits sent 3 and 8 bits 79 back to the exact ends, 24 and 32 bits none.
_GRID_BITS = 32


def orientation_chain_check(a, xs: Sequence, tighten=QQ(1)) -> ChainCheckResult:
    """Verify the geometric-weight Cauchy-Schwarz chain on nonnegative data.

    For every k:   (sum_{j>=k} a^{k-j} x_j)^2 <= C * sum_{j>=k} a^{k-j} x_j^2
    and aggregated: sum_k (sum_{j>=k} a^{k-j} x_j)^2 <= C^2 * sum_j x_j^2,
    with C = tighten / (1 - 1/a).  tighten = 1 is the valid inequality (it
    must never fail); tighten < 1 is the mutation hook for negative controls.

    All comparisons are certified (interval endpoints in the right
    direction) and exact: each test is one integer comparison (`_chain_tests`).
    `a` is a rational or an Interval enclosing it (`a_param(dimq).interval`);
    the ends of 1/a are read off as integers, pl/ql = 1/a.hi and ph/qh = 1/a.lo.

    When tighten >= 0 and those ends have denominators past _GRID_BITS bits, the
    tests run first on 1/a widened outward to the 2^-_GRID_BITS grid, whose short
    denominators make the powers cheap.  Widening only makes each test harder: the
    left sums grow with the upper end of 1/a, and for tighten >= 0 the right sums
    and C = tighten / (1 - lower end) shrink as the lower end goes down.  So a pass
    on the grid is a pass on the exact ends and is returned as it is; otherwise the
    exact ends decide every verdict.
    """
    ia = _above_one(a)
    xs = [x if type(x) is QQ else QQ(x) for x in xs]
    # x_j = ints[j] / d with d > 0, so x_j < 0 exactly when ints[j] < 0
    d = math.lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (d // x.denominator) for x in xs]
    if ints and min(ints) < 0:
        raise ValueError("entries must be nonnegative")
    squares = [v * v for v in ints]
    pl, ql, ph, qh = ia.hi.denominator, ia.hi.numerator, ia.lo.denominator, ia.lo.numerator
    t = QQ(tighten)
    if t >= 0 and max(ql, qh).bit_length() > _GRID_BITS:
        grid = 1 << _GRID_BITS
        lo, hi = pl * grid // ql, -(-ph * grid // qh)  # floor and ceil on the grid
        if 0 < lo and hi < grid:
            per_k_ok, aggregate_ok = _chain_tests(ints, squares, lo, grid, hi, grid, t)
            if aggregate_ok and all(per_k_ok):
                return ChainCheckResult(True, per_k_ok, True)
    per_k_ok, aggregate_ok = _chain_tests(ints, squares, pl, ql, ph, qh, t)
    return ChainCheckResult(all(per_k_ok) and aggregate_ok, per_k_ok, aggregate_ok)


# ---------------------------------------------------------------------------
# dimension-ratio domination on the half line
# ---------------------------------------------------------------------------

def dim_ratio_domination(dimq, kmax: int, jmax: int) -> bool:
    """Exact check of m_{k-1} / m_j <= a^{-(j-k)} for 1 <= k <= kmax, k-1 <= j <= jmax.

    Decided in the quadratic field of a (no rounding): a^{-1} = dimq - a.  The
    powers a^t, t = -1 .. jmax-1, are built once by repeated multiplication and
    shared by every k, and each m_{k-1} is made a Radical once per k.
    """
    dimq = QQ(dimq)
    a = a_param(dimq).exact
    powers = list(accumulate(repeat(a, jmax), mul, initial=Radical.from_rational(dimq) - a))
    dims = [Radical.from_rational(m) for m in ao_dims(dimq, jmax + 2)]
    for k in range(1, min(kmax, jmax + 1) + 1):  # past jmax + 1 no j is left
        m = dims[k - 1]
        # at j the power is a^(j-k) = powers[j - k + 1]
        for j in range(k - 1, jmax + 1):
            if not (m * powers[j - k + 1] <= dims[j]):
                return False
    return True
