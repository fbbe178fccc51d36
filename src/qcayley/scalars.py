"""Exact scalar kernel: rationals, certified intervals, and radical numbers.

Three layers, from cheap to rich:

* ``QQ`` -- exact rational constructor, ``fractions.Fraction``.
* ``Interval`` -- closed interval with rational endpoints.  Ring operations
  are exact (no rounding is ever needed for +,-,*,/ of rationals); square
  roots are enclosed via integer square roots, outward.
* ``Radical`` -- a rational plus surds ``s_i``, each stored as its signed
  square ``s_i * |s_i|``, at most one per square class.  Products of surds
  collapse to rationals exactly whenever their signed squares multiply to a
  rational square, which is what makes the telescoping identities of the
  weighted tree hold with zero residual.

Square roots of distinct squarefree integers are linearly independent over
the rationals (Besicovitch 1940), so the ``Radical`` form is canonical:
equality, hashing and zero testing compare the stored rationals.  The sign
of a rational plus one surd is an exact comparison of squares; a value with
more surds refines its interval enclosure until zero is excluded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational

__all__ = [
    "QQ",
    "RATIONAL_BACKEND",
    "rational",
    "sqrt_bounds",
    "Interval",
    "Radical",
    "sqrt_rational",
]

QQ = Fraction
RATIONAL_BACKEND = "fractions"

_CHUNK = 10 ** 600  # below 640 digits, the least limit sys.set_int_max_str_digits takes


def _digits(n: int) -> str:
    """str(n) at any length: str refuses an int of more than
    sys.get_int_max_str_digits() digits (4300 by default)."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(600))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _text(q) -> str:
    """str(q) of a rational at any length."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


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

    def __repr__(self):
        return f"Interval({_text(self.lo)}, {_text(self.hi)})"

    def __float__(self):
        return float(self.mid)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))


def _rational_sqrt(q):
    """sqrt(q) for a rational q >= 0 when it is rational, else None: one isqrt."""
    n, d = q.numerator, q.denominator
    s = isqrt(n * d)
    return QQ(s, d) if s * s == n * d else None


def _scaled_sigmas(q, sigmas) -> tuple:
    """Signed squares of q*s for the surds s of `sigmas` and a rational q."""
    if not sigmas or not q:
        return ()
    q2 = q * q
    if q > 0:
        return tuple(q2 * s for s in sigmas)
    return tuple(-q2 * s for s in reversed(sigmas))


def _merged(p, sigmas, extra) -> "Radical":
    """p plus the surds of the canonical `sigmas` and of `extra`, one per square class.

    Surds s, t with signed squares a, b share a class when |ab| is a rational
    square; then (s + t)^2 = |a| + |b| + 2st with st = +-sqrt(|ab|), and s + t
    has the sign of a + b.
    """
    out = list(sigmas)
    for b in extra:
        for i, a in enumerate(out):
            ab = a * b
            r = _rational_sqrt(abs(ab))
            if r is not None:
                if a + b:
                    m = abs(a) + abs(b) + (2 * r if ab > 0 else -2 * r)
                    out[i] = m if a + b > 0 else -m
                else:
                    del out[i]
                break
        else:
            out.append(b)
    out.sort()
    return Radical(p, tuple(out))


class Radical:
    """Exact element of the square-root closure of the rationals.

    A value ``p + s_1 + ... + s_k`` is stored as its rational part ``p`` and
    the sorted tuple of the signed squares ``s_i * |s_i|`` of its surds.  No
    signed square is a rational square and no two surds share a square class
    (``s_i * s_j`` is irrational), so each surd is the whole component of the
    value in its class.  Square roots of distinct squarefree integers are
    linearly independent over Q, so the form is unique without factoring any
    radicand: equal values have equal ``(p, sigmas)``, hash and repr.  Closed
    under +, -, * and division by a rational or a single surd, which covers
    every computation in the weighted tree.
    """

    __slots__ = ("_p", "_s")

    def __init__(self, p=_ZERO, sigmas=()):
        # internal constructor: p rational, sigmas already canonical;
        # use from_rational / sqrt_of and arithmetic to build surds
        self._p = p
        self._s = sigmas

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Radical":
        return cls(QQ(q))

    @classmethod
    def sqrt_of(cls, q) -> "Radical":
        """sqrt of a nonnegative rational, exact."""
        if not isinstance(q, QQ):
            q = QQ(q)
        if q.numerator < 0:
            raise ValueError("sqrt of negative rational")
        r = _rational_sqrt(q)
        return cls(_ZERO, (q,)) if r is None else cls(r)

    def times_sqrt(self, num: int, den: int) -> "Radical":
        """self * sqrt(num/den) for positive ints num and den.

        When self is one term, a rational a/b or a surd of signed square N/D,
        and the product is rational, it is found with one integer square
        root; anything else takes the general product.
        """
        p, sigmas = self._p, self._s
        if not sigmas:
            n = num * den
            s = isqrt(n)
            if s * s == n:
                return Radical(QQ(p.numerator * s, p.denominator * den))
        elif len(sigmas) == 1 and not p:
            N, d = sigmas[0].numerator, sigmas[0].denominator * den
            n = abs(N) * num * d
            s = isqrt(n)
            if s * s == n:
                return Radical(QQ(s if N > 0 else -s, d))
        return self * Radical.sqrt_of(QQ(num, den))

    @staticmethod
    def _coerce(value) -> "Radical":
        if isinstance(value, Radical):
            return value
        return Radical(QQ(value))

    def _scaled(self, q) -> "Radical":
        """self * q for a rational q."""
        return Radical(self._p * q, _scaled_sigmas(q, self._s))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        p = self._p + o._p
        if not o._s:
            return Radical(p, self._s)
        if not self._s:
            return Radical(p, o._s)
        return _merged(p, self._s, o._s)

    __radd__ = __add__

    def __neg__(self):
        return Radical(-self._p, tuple(-s for s in reversed(self._s)) if self._s else ())

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if not o._s:
            return self._scaled(o._p)
        if not self._s:
            return o._scaled(self._p)
        p = self._p * o._p
        extra = list(_scaled_sigmas(self._p, o._s))
        for s in self._s:
            for t in o._s:
                st = s * t  # the signed square of the product of the surds
                r = _rational_sqrt(abs(st))
                if r is None:
                    extra.append(st)
                else:
                    p += r if st > 0 else -r
        return _merged(p, _scaled_sigmas(o._p, self._s), extra)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o._s:
            if not o._p:
                raise ZeroDivisionError("division by zero Radical")
            return self._scaled(1 / o._p)
        if len(o._s) == 1 and not o._p:
            # 1/s has the signed square 1/(s|s|)
            return self * Radical(_ZERO, (1 / o._s[0],))
        raise NotImplementedError("division by multi-term radical values")

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not self._p and not self._s

    def __bool__(self):
        return not self.is_zero()

    @property
    def is_rational(self) -> bool:
        return not self._s

    def as_rational(self):
        """Exact rational value; raises if the value is irrational."""
        if self._s:
            raise ValueError(f"not a rational value: {self}")
        return self._p

    def interval(self, bits: int = 96) -> Interval:
        lo = hi = self._p
        for s in self._s:
            slo, shi = sqrt_bounds(abs(s), bits)
            if s > 0:
                lo, hi = lo + slo, hi + shi
            else:
                lo, hi = lo - shi, hi - slo
        return Interval(lo, hi)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}.

        With at most one surd s the sign is that of p when p^2 > s^2 and that
        of s otherwise (p^2 = s^2 would make s rational).  With more, the
        enclosure is refined until it excludes zero, which a nonzero value's
        does at some precision because its surds are independent over Q.
        """
        p, sigmas = self._p, self._s
        if not sigmas:
            return (p > 0) - (p < 0)
        if len(sigmas) == 1:
            lead = p if p * p > abs(sigmas[0]) else sigmas[0]
            return 1 if lead > 0 else -1
        bits = 64
        while True:
            iv = self.interval(bits)
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            bits *= 2

    # -- comparisons (exact) ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Radical):
            return self._p == other._p and self._s == other._s
        if isinstance(other, Rational):
            return not self._s and self._p == other
        return NotImplemented

    def __hash__(self):
        return hash((self._p, self._s)) if self._s else hash(self._p)

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
        # a surd s prints as +-sqrt(|s|^2)
        text = "".join(f" {'-' if s < 0 else '+'} sqrt({abs(s)})" for s in self._s)
        if self._p or not text:
            return f"Radical({self._p}{text})"
        return f"Radical({text[1] if text[1] == '-' else ''}{text[3:]})"


def sqrt_rational(q) -> Radical:
    """Module-level alias for Radical.sqrt_of."""
    return Radical.sqrt_of(q)
