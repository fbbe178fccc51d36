"""Weighted hilbertian structure on the classical Cayley tree.

Orthonormal bases and the map between them:

* vertex basis ``xt_a`` (one unit vector per vertex; the unnormalized
  vectors carry weight ``m_a``),
* geometric (antisymmetric) edge basis ``xt_{a^b}``, one per ascending edge,
  keyed here by the upper endpoint (the parent is unique).

The target map on the normalized antisymmetric basis is

    E2(xt_{a^b}) = sqrt(m_g/2) * ( sqrt(m_a/m_b) xt_b - sqrt(m_b/m_a) xt_a ).

All coefficients live in the exact Radical scalar type: products of the
square-root weights collapse to rationals exactly, which is what the
telescoping checks rely on.  `e2` reads each edge once (`CayleyTree.edge`)
and takes one square-root product per edge, at the upper endpoint b; the
term at a is minus that times m_b/m_a.  Rational terms add up per vertex as
unreduced integer pairs, so the terms that cancel at the interior vertices
of a path build no Fraction.

Path vectors sum ``sqrt(2/m_g) xt_{a_i ^ a_{i+1}} / sqrt(m_i m_{i+1})``
along geodesics; the tree functions take a tree and an int vertex id.  An
edge's squared coefficient ``2/(m_g m_i m_{i+1})`` is an integer pair built
from the three dimensions' numerators and denominators (`_edge_term`), so a
path term is one rational, its root (`_root`) one Fraction, and
`path_norm_sq` one integer sum.  `path_vectors` roots each edge once for
many ids; `path_vector` is its one-id case.

The infinite-geodesic limits of path vectors, the half-line inverse series
and its Gram entries are returned as truncations with certified geometric
tail bounds (per-step dimension growth >= a floor rho > 1).  These take a
QuantumGroupSpec, never a tree: a truncated vector is keyed by the ids of a
fresh GeodesicRay, its `basis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, Optional

from .cayley import GeodesicRay, _checked_pattern, canonical_ray_pattern
from .estimates import _half_line
from .fusion import QuantumGroupSpec, a_param, growth_floor, single_ao_dimq
from .scalars import QQ, Interval, Radical

__all__ = [
    "VertexVector",
    "GeomEdgeVector",
    "e2",
    "e2_maps_to",
    "path_vector",
    "path_vectors",
    "path_norm_sq",
    "path_target",
    "fixed_vector",
    "FixedVectorResult",
    "e2_inverse_ao",
    "InverseResult",
    "TailCertificate",
    "gram",
    "gram_bound",
]

_ZERO = QQ(0)
_MINUS_ONE = Radical.from_rational(-1)


class _SparseVector:
    """Finitely supported coefficient map with exact Radical entries."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
        if coeffs:
            cleaned = {}
            for k, v in coeffs.items():
                r = v if isinstance(v, Radical) else Radical.from_rational(v)
                if not r.is_zero():
                    cleaned[k] = r
            self._coeffs = cleaned
        else:
            self._coeffs = {}

    @classmethod
    def _of(cls, coeffs: dict):
        """Wrap `coeffs` as it is: every value must already be a nonzero Radical."""
        new = cls.__new__(cls)
        new._coeffs = coeffs
        return new

    @classmethod
    def unit(cls, key):
        return cls({key: Radical.from_rational(1)})

    def coeff(self, key) -> Radical:
        return self._coeffs.get(key, Radical())

    def items(self):
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            cur = out.get(k)
            if cur is None:
                out[k] = v
            else:
                s = cur + v
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return self._of(out)

    def __neg__(self):
        return self._of({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset((k, hash(v)) for k, v in self._coeffs.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self._coeffs.items(),
                                                         key=lambda kv: str(kv[0])))
        return f"{type(self).__name__}({{{inner}}})"


class VertexVector(_SparseVector):
    """Coefficients over the orthonormal vertex basis, keyed by vertex id."""


class GeomEdgeVector(_SparseVector):
    """Coefficients over the antisymmetric edge basis, keyed by upper endpoint."""


def _bump(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum cancels."""
    cur = out.get(key)
    s = value if cur is None else cur + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def e2(tree, vec: GeomEdgeVector) -> VertexVector:
    """Target map on antisymmetric edge vectors.

    On the edge p -> c (m_g = gn/gd, m_p/m_c = u/v), x goes to
    x*sqrt(gn*u / (2*gd*v)) at c and to minus that times v/u at p.  A rational
    term is an integer pair from `Radical._sqrt_product`, summed per vertex
    unreduced; each nonzero sum becomes one Fraction.  Any other term is a
    Radical product, merged per vertex; surds of two square classes at one
    vertex raise ValueError.
    """
    if not isinstance(vec, GeomEdgeVector):
        raise TypeError("e2 expects a GeomEdgeVector")
    edge = tree.edge
    pairs: dict = {}
    out: dict = {}
    for c, coeff in vec.items():
        p, _, mg, mp, mc = edge(c)
        gn, gd = mg.numerator, mg.denominator
        u, v = mp.numerator * mc.denominator, mp.denominator * mc.numerator
        pair = coeff._sqrt_product(gn * u, 2 * gd * v)
        if pair is None:
            term = coeff.times_sqrt(gn * u, 2 * gd * v)
            _bump(out, c, term)
            _bump(out, p, term * QQ(-v, u))
            continue
        # += n/d at c and -n*v/(d*u) at p, unreduced
        n, d = pair
        cur = pairs.get(c)
        pairs[c] = (n, d) if cur is None else (cur[0] * d + n * cur[1], cur[1] * d)
        n, d = -n * v, d * u
        cur = pairs.get(p)
        pairs[p] = (n, d) if cur is None else (cur[0] * d + n * cur[1], cur[1] * d)
    if not out:
        return VertexVector._of({key: Radical(QQ(n, d)) for key, (n, d) in pairs.items() if n})
    for key, (n, d) in pairs.items():
        if n:
            _bump(out, key, Radical(QQ(n, d)))
    return VertexVector._of(out)


def e2_maps_to(tree, vec: GeomEdgeVector, target: VertexVector) -> bool:
    """True when E2(vec) is `target` exactly; a vector that e2 refuses (surds
    of two square classes at one vertex) maps to nothing, so False."""
    try:
        return e2(tree, vec) == target
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# path vectors
# ---------------------------------------------------------------------------

def _edge_term(mg, mp, mc):
    """(num, den) of 2/(m_g m_p m_c), the squared path-vector coefficient of
    an edge p -> c along a generator of dimension m_g: positive ints from the
    numerators and denominators of the three dimensions, not in lowest terms."""
    return (2 * mg.denominator * mp.denominator * mc.denominator,
            mg.numerator * mp.numerator * mc.numerator)


def _root(num: int, den: int) -> Radical:
    """`sqrt_rational(QQ(num, den))` for positive ints, not necessarily coprime,
    with one Fraction: sqrt(num/den) = sqrt(num*den)/den."""
    nd = num * den
    r = isqrt(nd)
    return Radical(QQ(r, den)) if r * r == nd else Radical(_ZERO, QQ(num, den))


def path_vectors(tree, ids) -> Iterator[GeomEdgeVector]:
    """Yield path_vector(tree, v) for each v in ids, rooting each edge once per
    call: every vector is assembled from its own geodesic, and the vectors
    that pass an edge share its root."""
    roots: dict = {}
    for vid in ids:
        coeffs = {}
        for c, _, _, mg, mp, mc in tree.geodesic_edges(vid):
            x = roots.get(c)
            if x is None:
                x = roots[c] = _root(*_edge_term(mg, mp, mc))
            coeffs[c] = x
        yield GeomEdgeVector._of(coeffs)


def path_vector(tree, vid: int) -> GeomEdgeVector:
    """Canonical preimage of xt_a/m_a - xt_root under E2, summed along the
    geodesic: keyed by each edge's upper endpoint c, the square root of its
    `_edge_term`."""
    return next(path_vectors(tree, (vid,)))


def path_norm_sq(tree, vid: int):
    """Exact rational ||path_vector||^2 without building the vector, summed
    in integers and reduced at every edge, so a deep path's sum stays short."""
    num, den = 0, 1
    for _, _, _, mg, mp, mc in tree.geodesic_edges(vid):
        n, d = _edge_term(mg, mp, mc)
        num, den = num * d + n * den, den * d
        g = gcd(num, den)
        num, den = num // g, den // g
    return QQ(num, den)


def path_target(tree, vid: int) -> VertexVector:
    """xt_a / m_a - xt_root: what E2 of the path vector must equal exactly."""
    m = tree.dim(vid)
    if vid == 0:
        return VertexVector({0: QQ(1) / m - 1})
    return VertexVector._of({vid: Radical(QQ(m.denominator, m.numerator)), 0: _MINUS_ONE})


# ---------------------------------------------------------------------------
# certified truncations: fixed vector, half-line inverse, Gram entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCertificate:
    """Geometric domination certificate: term(i+1) <= ratio * term(i) for i >= start."""

    ratio: object
    start: int


@dataclass
class FixedVectorResult:
    vector: GeomEdgeVector
    tail_bound: object
    norm_sq: object
    residual_norm: object
    radius: int
    basis: object
    certificate: TailCertificate


def fixed_vector(spec: QuantumGroupSpec, radius: int, pattern=None) -> FixedVectorResult:
    """Truncated infinite-geodesic path vector with a certified tail.

    The geodesic follows `pattern` (default `canonical_ray_pattern`), and the
    vector is keyed by the ids of a fresh GeodesicRay along it, returned as
    `basis`: ray id i is the vertex at distance i.  A tree or a ray in place
    of the spec raises TypeError.  Refused when a factor used by the pattern
    has generator dimension <= 2: the dimensions along the ray then grow too
    slowly for the defining series to converge (the exceptional generators
    of quantum dimension 1 and 2).
    """
    if not isinstance(spec, QuantumGroupSpec):
        raise TypeError(f"expected a QuantumGroupSpec, got {type(spec).__name__}")
    if radius < 0:
        raise ValueError("need radius >= 0")
    pattern = _checked_pattern(spec, canonical_ray_pattern(spec) if pattern is None else pattern)
    rho = min(growth_floor(spec.factors[f].dimq) for f in sorted({d.factor for d in pattern}))
    ray = GeodesicRay(spec, pattern, radius + 1)
    vector = path_vector(ray, radius)
    norm_sq = path_norm_sq(ray, radius)

    # the edge terms past the radius shrink by 1/rho^2 per step
    mg_min = min(ray.dir_dim(d) for d in pattern)
    m_r, m_r1 = ray.dim(radius), ray.dim(radius + 1)
    ratio = 1 / (rho * rho)
    tail = 2 / (mg_min * m_r * m_r1) / (1 - ratio)

    # the truncation is the path vector of the ray's end vertex a_R, so E2
    # sends it to xt_{a_R}/m_R - xi_0: it approximates a preimage of -xi_0
    # with residual norm 1/m_R
    if not e2_maps_to(ray, vector, path_target(ray, radius)):
        raise AssertionError("fixed-vector residual audit failed")
    return FixedVectorResult(vector, tail, norm_sq, QQ(1) / m_r, radius, ray,
                             TailCertificate(ratio, radius))


@dataclass
class InverseResult:
    vector: GeomEdgeVector
    tail_bound: object
    residual_norm: object
    k: int
    radius: int
    basis: object
    certificate: TailCertificate


_gram_series = lru_cache(maxsize=64)(_half_line)  # sum_i 1/(m_i m_{i+1}) by (dimq, radius)


def e2_inverse_ao(spec: QuantumGroupSpec, k: int, radius: int) -> InverseResult:
    """Truncation of the half-line inverse series for E2.

    E2^{-1}(xt_k) = -m_k sqrt(2/m_1) sum_{i>=k} xt_{i^i+1} / sqrt(m_i m_{i+1});
    the truncation at `radius` satisfies
    E2(truncation) = xt_k - (m_k/m_{R+1}) xt_{R+1}  exactly.
    `spec` is a single Ao factor (a tree or a ray raises TypeError); the
    vector is keyed by the ids of a fresh half-line ray, returned as `basis`.
    """
    if k < 0 or radius < k:
        raise ValueError("need 0 <= k <= radius")
    dims, _, tail, ratio = _gram_series(single_ao_dimq(spec), radius)
    ray = GeodesicRay(spec, canonical_ray_pattern(spec), radius + 1)

    m1, mk = dims[1], dims[k]
    # -m_k times the path vector of vertex R+1, restricted to the edges above k;
    # its entries are nonzero: a rational p gives -m_k*p, a surd of signed
    # square s the surd of signed square -m_k^2*s
    neg_mk2 = -mk * mk
    vector = GeomEdgeVector._of({c: Radical(_ZERO, neg_mk2 * x._s) if x._s else Radical(-mk * x._p)
                                 for c, x in path_vector(ray, radius + 1).items() if c > k})

    if not e2_maps_to(ray, vector, VertexVector({k: QQ(1), radius + 1: -(mk / dims[radius + 1])})):
        raise AssertionError("inverse-series residual audit failed")
    return InverseResult(vector, 2 * mk * mk / m1 * tail, mk / dims[radius + 1], k, radius,
                         ray, TailCertificate(ratio, radius))


# Each Gram table reads one pair per j = max(k, l) <= kmax: c4 reads 21 (kmax 20) and
# `gram --kmax 200` reads 201, so 256 keeps a whole table's pairs between its rows.
@lru_cache(maxsize=256)
def _entry_sums(dimq, radius: int, j: int):
    """(lo, hi) of (2/m_1) sum_{i >= j} 1/(m_i m_{i+1}): the exact sum up to the radius,
    and that plus the tail bound.  The Gram entry (k, l) is m_k m_l times it, at
    j = max(k, l).  Cached per (dimq, radius, j): a Gram table computes each j once,
    and no call builds the pairs of every j."""
    dims, prefix, tail, _ = _gram_series(dimq, radius)
    s = prefix[radius] - prefix[j - 1] if j else prefix[radius]
    scale = 2 / dims[1]
    return s * scale, (s + tail) * scale


def gram(spec: QuantumGroupSpec, k: int, l: int, radius: int) -> Interval:
    """Certified interval for the Gram entry of the half-line inverse series:

        (2/m_1) sum_{i >= max(k,l)} m_k m_l / (m_i m_{i+1}).
    """
    if min(k, l) < 0 or radius < max(k, l):
        raise ValueError("need 0 <= k, l <= radius")
    dimq = single_ao_dimq(spec)
    dims = _gram_series(dimq, radius)[0]
    lo, hi = _entry_sums(dimq, radius, max(k, l))
    weight = dims[k] * dims[l]
    return Interval(weight * lo, weight * hi)


def gram_bound(spec: QuantumGroupSpec, kmax: int, radius: int):
    """Smallest D with every computed entry (k, l <= kmax) <= D * a^{-|k-l|}.

    Upper interval ends are used on both the entries and the powers of a, so
    the returned rational D certifies the decay inequality for every entry.
    The series is read once: for each l, h_l = m_l times the upper end of
    `_entry_sums`, which already carries the factor 2/m_1, is one Fraction, and
    the candidates h_l m_k a_hi^(l-k), k <= l, are unreduced integer pairs
    compared by cross-multiplication; only the largest is reduced, and it is D.
    """
    if not 0 <= kmax <= radius:
        raise ValueError("need 0 <= kmax <= radius")
    dimq = single_ao_dimq(spec)
    dims = _gram_series(dimq, radius)[0]
    a_hi = a_param(dimq).interval.hi
    an, ad = a_hi.numerator, a_hi.denominator
    best_n, best_d = 0, 1
    for l in range(kmax + 1):
        h = _entry_sums(dimq, radius, l)[1] * dims[l]
        hn, hd = h.numerator, h.denominator
        # k = l, l-1, ..., 0: one more power of a_hi per step
        for m in reversed(dims[:l + 1]):
            num, den = hn * m.numerator, hd * m.denominator
            if num * best_d > best_n * den:
                best_n, best_d = num, den
            hn, hd = hn * an, hd * ad
    return QQ(best_n, best_d)
