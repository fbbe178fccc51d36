"""Exact scalar kernel: rationals, certified intervals, and radical numbers.

Three layers, from cheap to rich:

* ``QQ`` -- exact rational constructor, ``fractions.Fraction``.
* ``Interval`` -- closed interval with rational endpoints.  Ring operations
  are exact (no rounding is ever needed for +,-,*,/ of rationals); square
  roots are enclosed via integer square roots, outward.
* ``Radical`` -- finite sums ``sum_i c_i * sqrt(n_i)`` with rational ``c_i``
  and positive integer radicands ``n_i`` kept pairwise inequivalent modulo
  squares.  Products of square roots collapse to rationals exactly whenever
  the combined radicand is a perfect square, which is what makes the
  telescoping identities of the weighted tree hold with zero residual.

Zero testing for ``Radical`` is exact: radicands with pairwise non-square
ratios have linearly independent square roots over the rationals, so a value
vanishes iff every coefficient does.  Sign determination therefore
terminates: refine the interval enclosure until zero is excluded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational

__all__ = [
    "QQ",
    "RATIONAL_BACKEND",
    "rational",
    "is_perfect_square",
    "sqrt_bounds",
    "Interval",
    "Radical",
    "sqrt_rational",
]

QQ = Fraction
RATIONAL_BACKEND = "fractions"

_ZERO = QQ(0)
_ONE = QQ(1)


def rational(value, den=None):
    """Coerce to an exact rational.

    Accepts ints, Fractions, decimal strings ("3.5") and fraction strings
    ("7/2").  Floats are rejected: every quantity in this package is exact
    or an interval, never a float in disguise.
    """
    if den is not None:
        return QQ(value, den)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass a Fraction, int or string")
    if isinstance(value, str):
        return QQ(value.strip())
    return QQ(value)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def sqrt_bounds(q, bits: int = 96):
    """Rational enclosure lo <= sqrt(q) <= hi with hi - lo <= 2^-bits * scale.

    q must be a nonnegative rational.  The enclosure is computed from the
    integer square root of a scaled integer, so both bounds are certified.
    """
    q = QQ(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return (_ZERO, _ZERO)
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    n = num * den
    shift = 1 << bits
    s = isqrt(n * shift * shift)
    lo = QQ(s, shift * den)
    hi = QQ(s + 1, shift * den)
    return (lo, hi)


def _round_down(q, bits: int):
    scale = 1 << bits
    num, den = q.numerator, q.denominator
    return QQ(num * scale // den, scale)


def _round_up(q, bits: int):
    scale = 1 << bits
    num, den = q.numerator, q.denominator
    return QQ(-((-num) * scale // den), scale)


class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = QQ(lo)
        hi = lo if hi is None else QQ(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, value) -> "Interval":
        v = QQ(value)
        return cls(v, v)

    # -- arithmetic (exact on rational endpoints) --------------------------

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers")
        if k < 0:
            return (self ** (-k)).inverse()
        out = Interval.point(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sqrt(self, bits: int = 96) -> "Interval":
        lo, _ = sqrt_bounds(self.lo, bits)
        _, hi = sqrt_bounds(self.hi, bits)
        return Interval(lo, hi)

    # -- structure ---------------------------------------------------------

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return (self.hi + self.lo) / 2

    def contains(self, value) -> bool:
        if isinstance(value, Interval):
            return self.lo <= value.lo and value.hi <= self.hi
        v = QQ(value)
        return self.lo <= v <= self.hi

    def round_outward(self, bits: int = 128) -> "Interval":
        return Interval(_round_down(self.lo, bits), _round_up(self.hi, bits))

    # certified order relations: True only when it holds for every member
    def certainly_lt(self, other) -> bool:
        o = self._coerce(other)
        return self.hi < o.lo

    def certainly_le(self, other) -> bool:
        o = self._coerce(other)
        return self.hi <= o.lo

    def certainly_gt(self, other) -> bool:
        o = self._coerce(other)
        return self.lo > o.hi

    def certainly_ge(self, other) -> bool:
        o = self._coerce(other)
        return self.lo >= o.hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __float__(self):
        return float(self.mid)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))


def _strip_small_squares(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s^2 * m, extracting small prime squares only.

    Keeps radicands from growing without ever needing a full factorization;
    equivalence of the remaining radicands is decided by pairwise
    perfect-square ratio tests.
    """
    s = 1
    for p in (2, 3, 5, 7, 11, 13):
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    return s, n


class Radical:
    """Exact element of the square-root closure of the rationals.

    Stored as a map {radicand: coefficient} where radicands are positive
    integers, pairwise inequivalent modulo squares, and radicand 1 carries
    the rational part.  Closed under +, -, * and division by single-term
    values, which covers every computation in the weighted tree.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        # internal constructor; use from_rational / sqrt_rational
        self._terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Radical":
        q = QQ(q)
        return cls({1: q}) if q else cls({})

    @classmethod
    def sqrt_of(cls, q) -> "Radical":
        """sqrt of a nonnegative rational, exact."""
        if not isinstance(q, QQ):
            q = QQ(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        if q == 0:
            return cls({})
        num, den = q.numerator, q.denominator
        # sqrt(num/den) = sqrt(num*den) / den
        n = num * den
        s, m = _strip_small_squares(n)
        coeff = QQ(s, den)
        if m == 1:
            return cls({1: coeff})
        r = isqrt(m)
        if r * r == m:
            return cls({1: coeff * r})
        return cls({m: coeff})

    def times_sqrt(self, num: int, den: int) -> "Radical":
        """self * sqrt(num/den) for positive ints num and den.

        When self is one term c*sqrt(r) and r*num*den = s^2 is a perfect
        square, the product is the rational c*s/den, found with one integer
        square root; anything else takes the general product.
        """
        terms = self._terms
        if len(terms) == 1:
            ((r, c),) = terms.items()
            n = r * num * den
            s = isqrt(n)
            if s * s == n:
                return Radical({1: QQ(c.numerator * s, c.denominator * den)})
        return self * Radical.sqrt_of(QQ(num, den))

    @staticmethod
    def _coerce(value) -> "Radical":
        if isinstance(value, Radical):
            return value
        return Radical.from_rational(value)

    # -- term insertion with square-ratio merging ----------------------------

    def _add_term(self, rad: int, coeff) -> None:
        if not coeff:
            return
        if rad != 1:
            r = isqrt(rad)
            if r * r == rad:  # full perfect squares collapse to the rational part
                rad, coeff = 1, coeff * r
        terms = self._terms
        if rad in terms:
            c = terms[rad] + coeff
            if c:
                terms[rad] = c
            else:
                del terms[rad]
            return
        if rad != 1:
            for existing in terms:
                if existing == 1:
                    continue
                prod = existing * rad
                r = isqrt(prod)
                if r * r == prod:
                    # sqrt(rad) = (r/existing) * sqrt(existing)
                    self._add_term(existing, coeff * QQ(r, existing))
                    return
        terms[rad] = coeff

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        out = Radical(dict(self._terms))
        for rad, c in o._terms.items():
            out._add_term(rad, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return Radical({rad: -c for rad, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self._terms, o._terms
        if not a or not b:
            return Radical({})
        out = Radical({})
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                if r1 == r2:
                    out._add_term(1, c1 * c2 * r1)
                elif r1 == 1:
                    out._add_term(r2, c1 * c2)
                elif r2 == 1:
                    out._add_term(r1, c1 * c2)
                else:
                    prod = r1 * r2
                    s, m = _strip_small_squares(prod)
                    out._add_term(m, c1 * c2 * s)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        items = list(o._terms.items())
        if not items:
            raise ZeroDivisionError("division by zero Radical")
        if len(items) == 1:
            rad, c = items[0]
            # 1 / (c*sqrt(rad)) = sqrt(rad) / (c*rad)
            inv = Radical({rad: QQ(1, 1) / (c * rad)})
            return self * inv
        raise NotImplementedError("division by multi-term radical values")

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 1 in self._terms)

    def as_rational(self):
        """Exact rational value; raises if the value is irrational."""
        if not self._terms:
            return QQ(0)
        if self.is_rational:
            return self._terms[1]
        raise ValueError(f"not a rational value: {self}")

    def square(self) -> "Radical":
        return self * self

    def interval(self, bits: int = 96) -> Interval:
        lo = QQ(0)
        hi = QQ(0)
        for rad, c in self._terms.items():
            if rad == 1:
                lo += c
                hi += c
                continue
            slo, shi = sqrt_bounds(QQ(rad), bits)
            if c >= 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return Interval(lo, hi)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}.

        Terminates because a nonzero value has a nonzero enclosure at some
        precision (the stored radicands are linearly independent over Q).
        """
        if not self._terms:
            return 0
        if all(c > 0 for c in self._terms.values()):
            return 1
        if all(c < 0 for c in self._terms.values()):
            return -1
        bits = 64
        while True:
            iv = self.interval(bits)
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            bits *= 2
            if bits > 1 << 16:  # ~20000 decimal digits; unreachable for sane inputs
                raise RuntimeError("sign undecided at extreme precision")

    # -- comparisons (exact) ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Radical) and self._terms == other._terms:
            return True  # radicands are not canonical, so unequal dicts prove nothing
        if isinstance(other, (Radical, int, Fraction)) or isinstance(other, Rational):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_rational() if self._terms else QQ(0))
        # c*sqrt(r) is fixed by (sign c, c^2 r) whichever square factors r keeps
        return hash(frozenset((c > 0, c * c * r) for r, c in self._terms.items()))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.interval(64).mid)

    def __repr__(self):
        if not self._terms:
            return "Radical(0)"
        parts = []
        for rad in sorted(self._terms, key=int):
            c = self._terms[rad]
            parts.append(str(c) if rad == 1 else f"{c}*sqrt({rad})")
        return "Radical(" + " + ".join(parts) + ")"


def sqrt_rational(q) -> Radical:
    """Module-level alias for Radical.sqrt_of."""
    return Radical.sqrt_of(q)
