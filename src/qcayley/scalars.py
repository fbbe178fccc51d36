"""Exact scalar kernel: rationals, certified intervals, and radical numbers.

Three layers, from cheap to rich:

* ``QQ`` -- exact rational constructor, ``fractions.Fraction``.
* ``Interval`` -- closed interval with rational endpoints.  Ring operations
  are exact (no rounding is ever needed for +,-,*,/ of rationals); the
  square root of a rational is enclosed via integer square roots, outward
  (``sqrt_bounds``).
* ``Radical`` -- a rational plus at most one surd, stored as its signed
  square.  Products of surds of one square class collapse to rationals
  exactly, which is what makes the telescoping identities of the weighted
  tree hold with zero residual.  Equality, hashing and sign are exact
  comparisons of the stored rationals.  A sum or product that would need
  surds of two square classes raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational

__all__ = [
    "QQ",
    "RATIONAL_BACKEND",
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
    """Closed interval [lo, hi] with exact rational endpoints.

    An endpoint of type exactly ``QQ`` is kept as it is (Fractions are
    immutable); anything else, a ``QQ`` subclass included, becomes ``QQ(x)``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if type(lo) is not QQ:
            lo = QQ(lo)
        if hi is None:
            hi = lo
        elif type(hi) is not QQ:
            hi = QQ(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(value)

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


def _scaled_square(q, s):
    """Signed square of q*t for the surd t of signed square s (0: none) and a rational q."""
    if not s or not q:
        return 0
    q2 = q * q
    return q2 * s if q > 0 else -q2 * s


def _surd_product(a, b):
    """s*t for the surds s, t of signed squares a, b when it is rational, else None.

    It is rational exactly when s and t share a square class: |ab| is a
    rational square.
    """
    ab = a * b
    r = _rational_sqrt(abs(ab))
    if r is None:
        return None
    return r if ab > 0 else -r


def _two_classes(a, b) -> ValueError:
    return ValueError(f"sqrt({abs(a)}) and sqrt({abs(b)}) lie in two square classes; "
                      "a Radical holds one surd")


class Radical:
    """Exact real number ``p + t``: a rational ``p`` plus at most one surd ``t``.

    It is stored as ``p`` and the signed square ``s = t * |t|`` of the surd,
    or the int 0 when there is none; ``s`` is never a rational square.  The
    pair is determined by the value, so equal values have equal ``(p, s)``,
    hash and repr, and no radicand is ever factored.  Closed under negation,
    division by a rational, and the +, - and * whose result needs one surd:
    operands whose surds share a square class (``|ab|`` a rational square for
    signed squares ``a``, ``b``), or a product of two pure surds (``sqrt(2) *
    sqrt(3) = sqrt(6)``).  Any other sum or product would need surds of two
    classes and raises ``ValueError`` naming both radicands.
    """

    __slots__ = ("_p", "_s")

    def __init__(self, p=_ZERO, s=0):
        # internal constructor: p rational, s a signed square that is not a
        # rational square, or 0; use from_rational / sqrt_of and arithmetic
        self._p = p
        self._s = s

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
        return cls(_ZERO, q) if r is None else cls(r)

    def _sqrt_product(self, num: int, den: int):
        """self * sqrt(num/den), for positive ints num and den, as an unreduced
        integer pair (n, d) with d > 0 when self is one term (a rational a/b or
        a surd of signed square N/D) and the product is rational: one integer
        square root.  None otherwise."""
        p, s = self._p, self._s
        if type(s) is int:  # no surd: s is the int 0, so no Fraction.__bool__ call
            n = num * den
            r = isqrt(n)
            if r * r == n:
                return p.numerator * r, p.denominator * den
        elif not p:
            N, d = s.numerator, s.denominator * den
            n = abs(N) * num * d
            r = isqrt(n)
            if r * r == n:
                return (r if N > 0 else -r), d
        return None

    def times_sqrt(self, num: int, den: int) -> "Radical":
        """self * sqrt(num/den) for positive ints num and den: the pair of
        `_sqrt_product` when it finds one, else the general product."""
        pair = self._sqrt_product(num, den)
        if pair is None:
            return self * Radical.sqrt_of(QQ(num, den))
        return Radical(QQ(*pair))

    @staticmethod
    def _coerce(value) -> "Radical":
        if isinstance(value, Radical):
            return value
        return Radical(QQ(value))

    def _scaled(self, q) -> "Radical":
        """self * q for a rational q."""
        return Radical(self._p * q, _scaled_square(q, self._s))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Radical else self._coerce(other)
        a, b = self._s, o._s
        p, q = self._p, o._p
        if type(a) is int and type(b) is int and type(p) is QQ and type(q) is QQ:
            # two rationals: one integer pair, one Fraction
            pd, qd = p.denominator, q.denominator
            return Radical(QQ(p.numerator * qd + q.numerator * pd, pd * qd))
        p = p + q
        if not b:
            return Radical(p, a)
        if not a:
            return Radical(p, b)
        st = _surd_product(a, b)
        if st is None:
            raise _two_classes(a, b)
        # t = (st/|a|) * s, so s + t = (1 + st/|a|) * s
        return Radical(p, _scaled_square(1 + st / abs(a), a))

    __radd__ = __add__

    def __neg__(self):
        return Radical(-self._p, -self._s)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self._s, o._s
        if not b:
            return self._scaled(o._p)
        if not a:
            return o._scaled(self._p)
        p, q = self._p, o._p
        st = _surd_product(a, b)
        if st is None:
            if p or q:
                raise _two_classes(a, b)
            return Radical(_ZERO, a * b)
        # (p + s)(q + t) = pq + st + (q + p*st/|a|) * s
        return Radical(p * q + st, _scaled_square(q + p * st / abs(a), a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other for a rational other; a surd divisor raises ValueError."""
        return self._scaled(1 / self._coerce(other).as_rational())

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not self._s and not self._p

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
        lo, hi = sqrt_bounds(abs(self._s), bits)
        if self._s < 0:
            lo, hi = -hi, -lo
        return Interval(self._p + lo, self._p + hi)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}: that of p when p^2 > |s|, else that of
        the surd (p^2 = |s| would make the surd rational)."""
        p, s = self._p, self._s
        if not s:
            return (p > 0) - (p < 0)
        lead = p if p * p > abs(s) else s
        return 1 if lead > 0 else -1

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
        # the surd prints as +-sqrt(|s|)
        p, s = self._p, self._s
        if not s:
            return f"Radical({p})"
        surd = f"sqrt({abs(s)})"
        if not p:
            return f"Radical({'-' if s < 0 else ''}{surd})"
        return f"Radical({p} {'-' if s < 0 else '+'} {surd})"


def sqrt_rational(q) -> Radical:
    """Module-level alias for Radical.sqrt_of."""
    return Radical.sqrt_of(q)
