"""Irreducible labels, free-fusion rules and exact quantum dimensions.

Vertices of the classical Cayley tree of a free product of orthogonal (Ao)
and unitary (Au) universal quantum groups are reduced words: letters
alternate between factors, an Ao letter is a positive integer k (the k-th
irreducible of that factor), an Au letter is a nonempty word over the
generator u and its conjugate (encoded +1 / -1).

Fusion with a generator follows the standard free rules:

* Ao letter k against its own generator:  k -> {k-1, k+1}  (k-1 = 0 drops
  the letter);
* Au letter w against u: always w.u, plus the reduced word when w ends in
  the conjugate (and symmetrically for the conjugate direction);
* a generator from a different factor concatenates as a new letter.

Every rule is cross-checked by the dimension bookkeeping
``m_alpha * m_gamma = sum of summand dimensions``, which the test-suite
enforces on whole trees: a wrong rule cannot stay silent.

Dimensions are exact: ints when every factor's dimq is an integer, else
Fractions (see `QuantumGroupSpec.dim_scalars`).  For an Ao factor they
satisfy the Chebyshev-type recursion ``m_{k+1} = dimq*m_k - m_{k-1}``; the
growth parameter ``a`` (larger root of ``a + 1/a = dimq``) is irrational and
is only ever exposed as a certified interval or an exact Radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

from .errors import GateError, SpecSyntaxError
from .scalars import QQ, Interval, Radical, _text

__all__ = [
    "ORTHOGONAL",
    "UNITARY",
    "FactorSpec",
    "QuantumGroupSpec",
    "Direction",
    "Irrep",
    "TRIVIAL",
    "GrowthParam",
    "parse_spec",
    "format_spec",
    "single_ao_dimq",
    "a_param",
    "growth_floor",
    "ao_dims",
    "au_word_dim",
    "letter_dim",
    "quantum_dim",
    "fuse_generator",
    "dual_direction",
    "format_irrep",
]

ORTHOGONAL = "Ao"
UNITARY = "Au"


@dataclass(frozen=True)
class FactorSpec:
    """One free-product factor: kind Ao/Au and generator quantum dimension."""

    kind: str
    dimq: object  # exact rational

    def __post_init__(self):
        if self.kind not in (ORTHOGONAL, UNITARY):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        object.__setattr__(self, "dimq", QQ(self.dimq))
        if self.dimq < 2:
            raise ValueError("dimq below 2: Ao and Au generators have quantum dimension >= 2")


@dataclass(frozen=True)
class QuantumGroupSpec:
    """Ordered free product of FactorSpec entries."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("free product needs at least one factor")
        for f in factors:
            if not isinstance(f, FactorSpec):
                raise TypeError("factors must be FactorSpec instances")
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return format_spec(self)

    @property
    def directions(self) -> tuple:
        """Canonical direction list: one per Ao factor, two (u, conj) per Au."""
        out = []
        for i, f in enumerate(self.factors):
            if f.kind == ORTHOGONAL:
                out.append(Direction(i, 0))
            else:
                out.append(Direction(i, 1))
                out.append(Direction(i, -1))
        return tuple(out)

    @cached_property
    def dim_scalars(self) -> tuple:
        """Each factor's dimq in the arithmetic type of the spec's quantum
        dimensions: all ints when every dimq is integral (every dimension is
        then an integer), else all Fractions."""
        if all(f.dimq.denominator == 1 for f in self.factors):
            return tuple(f.dimq.numerator for f in self.factors)
        return tuple(f.dimq for f in self.factors)


@dataclass(frozen=True)
class Direction:
    """A generating direction: factor index plus conjugation flag.

    bar = 0 for the self-conjugate Ao generator, +1 / -1 for the Au
    generator and its conjugate.
    """

    factor: int
    bar: int


# A letter is (factor_index, payload); payload is an int k >= 1 for Ao,
# a nonempty tuple of +1/-1 for Au.
@dataclass(frozen=True)
class Irrep:
    """Reduced word labelling an irreducible; letters alternate factors."""

    word: tuple = ()

    def __post_init__(self):
        # the tree and the fusion rules pass tuples: only another sequence is copied
        if type(self.word) is not tuple:
            object.__setattr__(self, "word", tuple(self.word))


TRIVIAL = Irrep(())


# ---------------------------------------------------------------------------
# spec grammar: Factor ( "*" Factor )*,  Factor = Ao(<rational>) | Au(<rational>)
# ---------------------------------------------------------------------------

def parse_spec(text: str) -> QuantumGroupSpec:
    """Parse spec text like "Ao(3)*Au(7/2)"; errors carry the position."""
    factors = []
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    while True:
        if text.startswith(ORTHOGONAL, i):
            kind = ORTHOGONAL
        elif text.startswith(UNITARY, i):
            kind = UNITARY
        else:
            raise SpecSyntaxError("expected factor 'Ao(...)' or 'Au(...)'", i)
        i += 2
        i = skip_ws(i)
        if i >= n or text[i] != "(":
            raise SpecSyntaxError("expected '('", i)
        i += 1
        close = text.find(")", i)
        if close < 0:
            raise SpecSyntaxError("unbalanced '(': missing ')'", i - 1)
        number = text[i:close].strip()
        try:
            dimq = QQ(number)
        except (ValueError, ZeroDivisionError):
            raise SpecSyntaxError(f"bad rational literal {number!r}", i) from None
        if dimq < 2:
            raise SpecSyntaxError("dimq below 2", i)
        factors.append(FactorSpec(kind, dimq))
        i = skip_ws(close + 1)
        if i >= n:
            break
        if text[i] != "*":
            raise SpecSyntaxError("expected '*' between factors", i)
        i = skip_ws(i + 1)
    return QuantumGroupSpec(tuple(factors))


def format_spec(spec: QuantumGroupSpec) -> str:
    """Canonical printer; parse_spec(format_spec(s)) == s."""
    return "*".join(f"{f.kind}({_text(f.dimq)})" for f in spec.factors)


def single_ao_dimq(spec: QuantumGroupSpec) -> object:
    """Generator dimension of a single Ao factor, the domain of every half-line
    operation; TypeError for anything but a spec (a tree or a ray included)."""
    if not isinstance(spec, QuantumGroupSpec):
        raise TypeError(f"expected a QuantumGroupSpec, got {type(spec).__name__}")
    if len(spec.factors) != 1 or spec.factors[0].kind != ORTHOGONAL:
        raise GateError(f"half-line operations need a single Ao factor, got {format_spec(spec)}")
    return spec.factors[0].dimq


# ---------------------------------------------------------------------------
# growth parameter and dimension sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthParam:
    """The root a >= 1 of a + 1/a = dimq, as exact Radical plus interval."""

    dimq: object
    interval: Interval
    exact: Radical


_DEFAULT_TOL = QQ(1, 10**30)


def a_param(dimq, tol=_DEFAULT_TOL) -> GrowthParam:
    """Certified growth parameter for dimq >= 2; width of the interval <= tol.

    For dimq = p/q, a = (p + sqrt(disc)) / (2q) with the integer discriminant
    disc = p^2 - 4q^2.  One integer square root r of disc decides the case:
    if r^2 = disc, a = (p + r)/(2q) is rational, `exact` has no surd and the
    interval is a point.  Otherwise `exact` is p/(2q) plus the surd of square
    disc/(4q^2), which is no rational square because disc is no integer one,
    and the enclosure takes one integer square root at the first of 64, 128,
    ... bits that meets tol.  The bit count is chosen in integers against
    QQ(tol); any tol >= 1, float('inf') included, gives 64 bits.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if type(dimq) is not QQ:
        dimq = QQ(dimq)
    if dimq < 2:
        raise GateError(
            f"no growth parameter for dimq = {dimq} < 2: a + 1/a = dimq has no real root >= 1"
        )
    p, q = dimq.numerator, dimq.denominator
    disc = p * p - 4 * q * q
    r = isqrt(disc)
    if r * r == disc:
        a = QQ(p + r, 2 * q)
        return GrowthParam(dimq, Interval(a), Radical(a))
    exact = Radical(QQ(p, 2 * q), QQ(disc, 4 * q * q))
    # 1/(q 2^(bits+1)) > tol = tn/td, in integers
    tn, td = QQ(tol).as_integer_ratio() if tol < 1 else (1, 1)
    bits = 64
    while tn * (q << (bits + 1)) < td:
        bits *= 2
    s = isqrt(disc << (2 * bits))
    return GrowthParam(dimq, Interval(QQ((p << bits) + s, q << (bits + 1)),
                                      QQ((p << bits) + s + 1, q << (bits + 1))), exact)


def growth_floor(dimq, above=None) -> object:
    """Rational rho with 1 < rho <= a used as a certified per-step growth ratio.

    Every ascending tree edge inside a factor of generator dimension dimq
    multiplies the quantum dimension by at least rho: the base step has
    ratio dimq >= rho, and ratio r >= rho forces the next ratio
    dimq - 1/r >= dimq - 1/rho >= rho because rho + 1/rho <= dimq.

    With `above`, also rho > above, refining the enclosure of a; GateError unless
    above < a, decided in rationals: a >= 1 settles above < 1, and t + 1/t
    increases on t >= 1, so else the test is above + 1/above < a + 1/a = dimq.
    """
    dimq = QQ(dimq)
    if dimq <= 2:
        raise GateError(f"generator quantum dimension {dimq} <= 2 excluded: the exceptional "
                        "generators of dimension 1 and 2 have no geometric dimension growth")
    if above is not None:
        above = QQ(above)
        if not (above < 1 or above + 1 / above < dimq):
            raise GateError(f"weight base r = {above} is not below the growth parameter a of "
                            f"dimq = {dimq}; the weighted series is not summable")
    tol = QQ(1, 10**12)
    rho = a_param(dimq, tol).interval.lo
    while above is not None and rho <= above:
        tol /= QQ(10**6)
        rho = a_param(dimq, tol).interval.lo
    # certified inductive step; both hold because rho < a
    if not (rho > 1 and rho + 1 / rho <= dimq):
        raise RuntimeError(f"growth floor certification failed for dimq = {dimq}")
    return rho


def ao_dims(dimq, count: int) -> list:
    """First `count` quantum dimensions of an Ao factor: m_0 = 1, m_1 = dimq,
    m_{k+1} = dimq*m_k - m_{k-1}.  Exact rationals.

    With dimq = p/q the recurrence runs on integers: m_k = P_k / q^k with
    P_0 = 1, P_1 = p and P_{k+1} = p*P_k - q^2*P_{k-1}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    dimq = QQ(dimq)
    p, q = dimq.numerator, dimq.denominator
    q2 = q * q
    nums = [1, p]
    for _ in range(count - 2):
        nums.append(p * nums[-1] - q2 * nums[-2])
    return [QQ(num, q ** k) for k, num in enumerate(nums[:count])]


# The letter dimensions come back in the type of `dimq` (int or Fraction); the
# caches are typed, since 3 and Fraction(3) are equal keys.

@lru_cache(maxsize=65536, typed=True)
def _ao_letter_dim(dimq, k: int):
    return type(dimq)(ao_dims(dimq, k + 1)[k])


@lru_cache(maxsize=65536, typed=True)
def au_word_dim(dimq, word: tuple):
    """Dimension of an Au letter: m(ws) = m1*m(w) - [w ends in conj(s)]*m(w')."""
    prev2 = prev = dimq ** 0  # dims of prefixes of length -1 (unused), 0
    for i, s in enumerate(word):
        cur = dimq * prev
        if i >= 1 and word[i - 1] == -s:
            cur -= prev2
        prev2, prev = prev, cur
    return prev


def letter_dim(spec: QuantumGroupSpec, letter) -> object:
    fidx, payload = letter
    dimq = spec.dim_scalars[fidx]
    if spec.factors[fidx].kind == ORTHOGONAL:
        return _ao_letter_dim(dimq, payload)
    return au_word_dim(dimq, payload)


def quantum_dim(spec: QuantumGroupSpec, alpha: Irrep):
    """Multiplicative over letters; exact, in the type of `spec.dim_scalars`:
    an int when every factor's dimq is integral, else a Fraction."""
    out = spec.dim_scalars[0] ** 0  # 1, in that type
    for letter in alpha.word:
        out *= letter_dim(spec, letter)
    return out


# ---------------------------------------------------------------------------
# fusion with a generator, duality
# ---------------------------------------------------------------------------

def fuse_generator(spec: QuantumGroupSpec, alpha: Irrep, d: Direction):
    """Neighbours of alpha in the Cayley tree reachable in direction d.

    Returns a tuple: the descending reduced word first when the last letter
    absorbs the generator, then the ascending word (always present).
    """
    if not 0 <= d.factor < len(spec.factors):
        raise ValueError(f"unknown direction factor {d.factor}")
    kind = spec.factors[d.factor].kind
    if kind == ORTHOGONAL and d.bar != 0:
        raise ValueError("Ao direction carries no conjugation flag")
    if kind == UNITARY and d.bar not in (1, -1):
        raise ValueError("Au direction must have bar = +-1")

    word = alpha.word
    last = word[-1] if word else None
    if last is None or last[0] != d.factor:
        payload = 1 if kind == ORTHOGONAL else (d.bar,)
        return (Irrep(word + ((d.factor, payload),)),)

    fidx, payload = last
    if kind == ORTHOGONAL:
        ascending = Irrep(word[:-1] + ((fidx, payload + 1),))
        if payload == 1:
            descending = Irrep(word[:-1])
        else:
            descending = Irrep(word[:-1] + ((fidx, payload - 1),))
        return (descending, ascending)

    ascending = Irrep(word[:-1] + ((fidx, payload + (d.bar,)),))
    if payload[-1] == -d.bar:
        reduced = payload[:-1]
        if reduced:
            descending = Irrep(word[:-1] + ((fidx, reduced),))
        else:
            descending = Irrep(word[:-1])
        return (descending, ascending)
    return (ascending,)


def dual_direction(spec: QuantumGroupSpec, d: Direction) -> Direction:
    if spec.factors[d.factor].kind == ORTHOGONAL:
        return d
    return Direction(d.factor, -d.bar)


def format_irrep(alpha: Irrep) -> str:
    """Compact display form: '1' for the root, e.g. 'g0^2.u1U1' for mixed words."""
    if not alpha.word:
        return "1"
    parts = []
    for fidx, payload in alpha.word:
        if isinstance(payload, int):
            parts.append(f"g{fidx}" if payload == 1 else f"g{fidx}^{payload}")
        else:
            parts.append("".join(("u" if s == 1 else "U") + str(fidx) for s in payload))
    return ".".join(parts)
