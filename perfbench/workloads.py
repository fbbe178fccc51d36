"""The four seeded benchmark workloads.

Each workload has two halves:

* ``prepare(lib, seed)`` builds the seeded inputs and, where the check needs
  one, an expected value computed here with plain ``fractions`` and integer
  square roots, independently of the code under test.  It runs during set-up.
* ``run(lib, inputs, log)`` makes every library call of one pass through
  ``log.op``, which times the call and checks its result.

Sizes are fixed per workload; the seed only chooses entries, vertices,
indices and orderings, so every seed does the same amount of work.
``lib`` holds the freshly imported ``qcayley`` modules; calls always go
through its module attributes so that the traced run can wrap them.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from time import perf_counter_ns

from speed import EVERY_NS

ORACLE_BITS = 320


# ---------------------------------------------------------------------------
# op log: timing and the correctness gate
# ---------------------------------------------------------------------------

class OpLog:
    """Per-op wall times and failures of one pass.

    Each time is scaled to the reference speed by ``speed``, a
    ``speed.Speedometer``.  A failing check or a raising call counts as a
    failed op; it never stops the pass.  A label is a string or a tuple of
    parts, which is joined only when the op fails, so the hot loops do not
    format one per op.
    """

    def __init__(self, speed):
        self.speed = speed
        self.times_ns = array("d")  # at the reference speed
        self.failures: list[str] = []

    def _record(self, took_ns: int, scale: float) -> None:
        if took_ns > EVERY_NS:  # a long op: average the speeds before and after it
            scale = (scale + self.speed.current()) / 2
        self.times_ns.append(took_ns * scale)

    def op(self, label, call, check):
        scale = self.speed.current()
        t0 = perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # the gate records every failure and goes on
            self._record(perf_counter_ns() - t0, scale)
            self.failures.append(f"{_describe(label)}: raised {type(exc).__name__}: {exc}")
            return None
        self._record(perf_counter_ns() - t0, scale)
        try:
            ok = check(result)
        except Exception as exc:
            ok = False
            label = f"{_describe(label)} (check raised {type(exc).__name__}: {exc})"
        if not ok:
            self.failures.append(f"{_describe(label)}: result failed its check: {str(result)[:160]}")
        return result


def _describe(label) -> str:
    return " ".join(map(str, label)) if isinstance(label, tuple) else label


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def chebyshev_dims(dimq, count: int) -> list:
    """m_0 = 1, m_1 = dimq, m_{k+1} = dimq*m_k - m_{k-1}."""
    dimq = Fraction(dimq)
    dims = [Fraction(1), dimq]
    while len(dims) < count:
        dims.append(dimq * dims[-1] - dims[-2])
    return dims[:count]


def word_length(word) -> int:
    return sum(p if isinstance(p, int) else len(p) for _, p in word)


def word_dim(dimqs, word):
    """Quantum dimension of a reduced word, letter by letter."""
    out = Fraction(1)
    for factor, payload in word:
        d = Fraction(dimqs[factor])
        if isinstance(payload, int):
            out *= chebyshev_dims(d, payload + 1)[payload]
            continue
        prev2, prev = Fraction(0), Fraction(1)
        for i, s in enumerate(payload):
            cur = d * prev - (prev2 if i and payload[i - 1] == -s else 0)
            prev2, prev = prev, cur
        out *= prev
    return out


def growth_root(dimq):
    """Enclosure (lo, hi) of the root a >= 1 of a + 1/a = dimq, for rational dimq >= 2.

    a = (p + sqrt(p^2 - 4q^2)) / (2q) for dimq = p/q; the enclosure is a point
    when the discriminant is a perfect square.
    """
    dimq = Fraction(dimq)
    p, q = dimq.numerator, dimq.denominator
    disc = (p * p - 4 * q * q) << (2 * ORACLE_BITS)
    s = isqrt(disc)
    scale = 1 << ORACLE_BITS
    lo = Fraction(p * scale + s, 2 * q * scale)
    return lo, lo if s * s == disc else Fraction(p * scale + s + 1, 2 * q * scale)


def contains(outer, lo, hi) -> bool:
    return outer.lo <= lo and hi <= outer.hi


# ---------------------------------------------------------------------------
# tree-telescope
# ---------------------------------------------------------------------------

@dataclass
class TelescopeInputs:
    trees: list  # (spec, radius, vertex count, ids checked directly)


TELESCOPE_TREES = (("Ao(3)", 12), ("Ao(4)", 12), ("Au(3)", 10), ("Ao(3)*Au(3)", 8))
DIRECT_SHARE = 50  # one vertex in 50 also gets the direct check
DIRECT_ALL_BELOW = 64  # trees this small are checked directly everywhere


def tree_size(spec, radius: int) -> int:
    """Closed-form vertex count: every vertex has one child per direction."""
    k = len(spec.directions)
    return radius + 1 if k == 1 else (k ** (radius + 1) - 1) // (k - 1)


def prepare_telescope(lib, seed):
    rng = random.Random(seed)
    trees = []
    for text, radius in TELESCOPE_TREES:
        spec = lib.fusion.parse_spec(text)
        n = tree_size(spec, radius)
        if n <= DIRECT_ALL_BELOW:
            direct = list(range(n))
        else:
            direct = sorted(rng.sample(range(n), n // DIRECT_SHARE))
        trees.append((spec, radius, n, direct))
    return TelescopeInputs(trees)


def run_telescope(lib, inp, log):
    qt, sqrt_rational = lib.qctree, lib.scalars.sqrt_rational

    def incremental(tree, c):
        # E2(path(c)) = E2(path(parent)) + E2(edge term below c)
        p, d = tree.parent(c)
        t = 2 / (tree.dir_dim(d) * tree.dim(p) * tree.dim(c))
        term = qt.GeomEdgeVector({c: sqrt_rational(t)})
        return qt.e2(tree, term) + qt.path_target(tree, p) == qt.path_target(tree, c)

    def direct(tree, v):
        return qt.e2(tree, qt.path_vector(tree, v)) == qt.path_target(tree, v)

    for spec, radius, n, direct_ids in inp.trees:
        tree = log.op(f"build_tree({spec}, {radius})",
                      lambda: lib.cayley.build_tree(spec, radius),
                      lambda t: t.n_vertices == n)
        if tree is None:
            continue
        for c in range(1, tree.n_vertices):
            log.op((spec, "incremental", c), lambda: incremental(tree, c), bool)
        for v in direct_ids:
            log.op((spec, "direct", v), lambda: direct(tree, v), bool)


# ---------------------------------------------------------------------------
# tree-walk
# ---------------------------------------------------------------------------

@dataclass
class WalkInputs:
    big: object
    big_radius: int
    big_size: int
    reads: list
    validated: list  # (spec, radius, vertex count)
    rays: list  # (kind, spec, pattern or k, radius)


WALK_BIG = ("Ao(3)*Au(3)", 11)
WALK_VALIDATE = (("Ao(3)*Au(3)", 8), ("Au(3)", 10))
WALK_READS = 1500
RAY_RADII = (110, 120, 130, 140, 150, 160, 170, 180, 190, 200)
RAY_SPECS = ("Ao(3)", "Ao(4)", "Au(3)", "Ao(3)*Au(3)")
INVERSE_SPECS = ("Ao(3)", "Ao(4)")
INVERSE_KMAX = 30


def _ray_patterns(lib, spec):
    """Every infinite geodesic pattern of period at most two in `spec`."""
    dirs = spec.directions
    if len(spec.factors) == 1:
        return [lib.cayley.canonical_ray_pattern(spec)]
    return [(a, b) for a in dirs for b in dirs if a.factor != b.factor]


def prepare_walk(lib, seed):
    rng = random.Random(seed)
    big = lib.fusion.parse_spec(WALK_BIG[0])
    big_size = tree_size(big, WALK_BIG[1])
    reads = rng.sample(range(big_size), WALK_READS)
    validated = []
    for text, radius in WALK_VALIDATE:
        spec = lib.fusion.parse_spec(text)
        validated.append((spec, radius, tree_size(spec, radius)))
    rays = []
    for kind in ("ray", "fixed", "inverse"):
        radii = list(RAY_RADII)
        rng.shuffle(radii)
        for radius in radii:
            if kind == "inverse":
                spec = lib.fusion.parse_spec(rng.choice(INVERSE_SPECS))
                rays.append((kind, spec, rng.randint(0, INVERSE_KMAX), radius))
            else:
                spec = lib.fusion.parse_spec(rng.choice(RAY_SPECS))
                rays.append((kind, spec, rng.choice(_ray_patterns(lib, spec)), radius))
    return WalkInputs(big, WALK_BIG[1], big_size, reads, validated, rays)


def _dimqs(spec):
    return [f.dimq for f in spec.factors]


def run_walk(lib, inp, log):
    cayley, qt = lib.cayley, lib.qctree
    spec = inp.big
    dimqs = _dimqs(spec)
    tree = log.op(f"build_tree({spec}, {inp.big_radius})",
                  lambda: cayley.build_tree(spec, inp.big_radius, max_vertices=inp.big_size),
                  lambda t: t.n_vertices == inp.big_size)
    if tree is not None:
        def read(v):
            return tree.word(v), cayley.geodesic(tree, v), qt.path_norm_sq(tree, v)

        def check_read(v, result):
            word, geo, norm = result
            length = tree.length(v)
            ids = tree.geodesic_ids(v)
            expected = sum((2 / (tree.dir_dim(tree.parent(c)[1]) * tree.dim(p) * tree.dim(c))
                            for p, c in zip(ids, ids[1:])), Fraction(0))
            return (word_length(word.word) == length == len(geo)
                    and word_dim(dimqs, word.word) == tree.dim(v)
                    and (not geo or geo[-1].target == word)
                    and all(e.ascending for e in geo)
                    and norm == expected)

        for v in inp.reads:
            log.op(("read", v), lambda: read(v), lambda r: check_read(v, r))
    tree = None  # free the big tree before the next builds: peak RSS holds one of them

    for vspec, radius, n in inp.validated:
        small = log.op(f"build_tree({vspec}, {radius})",
                       lambda: cayley.build_tree(vspec, radius),
                       lambda t: t.n_vertices == n)
        if small is not None:
            log.op(f"validate({vspec}, {radius})", lambda: cayley.validate(small),
                   lambda r: r.ok and r.n_geometric_edges == n - 1)

    for kind, rspec, arg, radius in inp.rays:
        dq = _dimqs(rspec)
        label = f"{kind} {rspec} {arg} R={radius}"
        if kind == "ray":
            log.op(label, lambda: cayley.GeodesicRay(rspec, arg, radius),
                   lambda ray: (ray.n_vertices == radius + 1
                                and word_length(ray.word(radius).word) == radius
                                and ray.dim(radius) == word_dim(dq, ray.word(radius).word)))
        elif kind == "fixed":
            log.op(label, lambda: qt.fixed_vector(rspec, radius, arg),
                   lambda fv: (fv.residual_norm == 1 / word_dim(dq, fv.basis.word(radius).word)
                               and 0 < fv.tail_bound and fv.certificate.ratio < 1))
        else:
            dims = chebyshev_dims(dq[0], radius + 2)
            log.op(label, lambda: qt.e2_inverse_ao(rspec, arg, radius),
                   lambda inv: (inv.residual_norm == dims[arg] / dims[radius + 1]
                                and 0 < inv.tail_bound))


# ---------------------------------------------------------------------------
# series-certify
# ---------------------------------------------------------------------------

@dataclass
class SeriesInputs:
    roots: list  # (dimq, enclosure of a)
    short: list  # (a index, vector)
    long: list
    near: list  # near-extremal vector per a index
    gram: list  # (spec, dimq, {(k, l): (lo, hi)})
    schur: tuple
    rd_partial: dict
    nonuni_partial: object


ROOTS = 300
SHORT_PER_CELL = 8  # vectors per (length, a) cell
SHORT_LENGTHS = range(1, 13)
LONG_LENGTHS = (16, 20, 24, 28, 32, 40)
GRAM_SPECS = ("Ao(3)", "Ao(4)")
GRAM_KMAX = 20
GRAM_RADIUS = 60
TOEPLITZ_SIZE = 50
RD_RADII = (60, 120)
NONUNI = (Fraction(3), Fraction(2), Fraction(7, 2), 80)  # s, r, dimq, radius
DOMINATION = (3, 10, 30)  # dimq, kmax, jmax
GOLDEN_FLOAT = (3 + 5 ** 0.5) / 2


def _random_vector(rng, length):
    return [Fraction(rng.randint(0, 40), rng.randint(1, 9)) if rng.random() > 0.3 else Fraction(0)
            for _ in range(length)]


def _near_extremal(a_float, n=25):
    return [Fraction(a_float ** (-j / 2)).limit_denominator(10**7) for j in range(n)]


def _gram_oracle(dimq):
    """Closed form (2 m_k m_l / m_1) (1/a - m_{j-1}/m_j), j = max(k, l)."""
    dims = chebyshev_dims(dimq, GRAM_KMAX + 2)
    a_lo, a_hi = growth_root(dimq)
    inv_lo, inv_hi = 1 / a_hi, 1 / a_lo
    out = {}
    for k in range(GRAM_KMAX + 1):
        for l in range(k, GRAM_KMAX + 1):
            start = dims[l - 1] / dims[l] if l else Fraction(0)
            factor = 2 * dims[k] * dims[l] / dims[1]
            out[(k, l)] = (factor * (inv_lo - start), factor * (inv_hi - start))
    return out


def _rd_partial(dimq, e, radius, r=Fraction(1)):
    dims = chebyshev_dims(dimq, radius + 2)
    total = sum((r ** (2 * i + 2) * (i + 2) ** e / (dims[i] * dims[i + 1])
                 for i in range(radius + 1)), Fraction(0))
    return total * 2 / dims[1]


def prepare_series(lib, seed):
    rng = random.Random(seed)
    roots = []
    for _ in range(ROOTS):
        q = rng.randint(1, 9)
        dimq = Fraction(rng.randint(2 * q, 12 * q), q)
        roots.append((dimq, growth_root(dimq)))
    cells = [(length, ai) for length in SHORT_LENGTHS for ai in range(3)] * SHORT_PER_CELL
    rng.shuffle(cells)
    short = [(ai, _random_vector(rng, length)) for length, ai in cells]
    long = [(ai, _random_vector(rng, length)) for length in LONG_LENGTHS for ai in range(3)]
    near = [_near_extremal(a) for a in (1.5, 2.0, GOLDEN_FLOAT)]
    gram = [(lib.fusion.parse_spec(text), int(text[3]), _gram_oracle(int(text[3])))
            for text in GRAM_SPECS]
    a_lo, a_hi = growth_root(3)
    schur = ((a_hi + 1) / (a_hi - 1), (a_lo + 1) / (a_lo - 1))  # (a + 1)/(a - 1) decreases in a
    rd_partial = {radius: _rd_partial(3, 6, radius) for radius in RD_RADII}
    s, r, dimq, radius = NONUNI
    nonuni = _rd_partial(dimq, int(2 * s), radius, r)
    return SeriesInputs(roots, short, long, near, gram, schur, rd_partial, nonuni)


def run_series(lib, inp, log):
    est, fusion, qt = lib.estimates, lib.fusion, lib.qctree

    def root_check(enclosure):
        return lambda g: contains(g.interval, *enclosure) and g.interval.width <= Fraction(1, 10**30)

    for dimq, enclosure in inp.roots:
        log.op(("a_param", dimq), lambda: fusion.a_param(dimq), root_check(enclosure))
    growth = log.op("a_param(3)", lambda: fusion.a_param(3), root_check(growth_root(3)))
    golden = growth.interval if growth is not None else Fraction(3, 2)
    avals = (Fraction(3, 2), Fraction(2), golden)

    for ai, xs in inp.short + inp.long:
        a = avals[ai]
        log.op(("chain check, a", avals[ai], xs), lambda: est.orientation_chain_check(a, xs),
               lambda res: res.ok)
    for ai, a in enumerate(avals):
        near = inp.near[ai]
        log.op(f"near-extremal a#{ai}", lambda: est.orientation_chain_check(a, near),
               lambda res: res.ok)
        # negative control: the tightened constant must be rejected
        log.op(f"tightened a#{ai}",
               lambda: est.orientation_chain_check(a, near, tighten=Fraction(3, 4)),
               lambda res: not res.ok)

    for spec, dimq, oracle in inp.gram:
        for (k, l), (lo, hi) in oracle.items():
            log.op(("gram", spec, k, l), lambda: qt.gram(spec, k, l, GRAM_RADIUS),
                   lambda g: contains(g, lo, hi))
        a_lo = growth_root(dimq)[0]
        floor = max(lo * a_lo ** (l - k) for (k, l), (lo, _) in oracle.items())
        log.op(f"gram_bound {spec}", lambda: qt.gram_bound(spec, GRAM_KMAX, GRAM_RADIUS),
               lambda d: d >= floor)

    schur = log.op("toeplitz_schur_bound", lambda: est.toeplitz_schur_bound(golden),
                   lambda iv: contains(iv, *inp.schur))
    schur_hi = schur.hi if schur is not None else Fraction(0)
    log.op("truncated_toeplitz_norm", lambda: est.truncated_toeplitz_norm(golden, TOEPLITZ_SIZE),
           lambda iv: iv.lo >= 1 and iv.hi <= schur_hi + Fraction(1, 10**9))

    coarse = None
    for radius in RD_RADII:
        # the finer truncation must land inside the coarser one's certified interval
        bracket = coarse
        coarse = log.op(f"rd_norm_sq R={radius}", lambda: est.rd_norm_sq(3, 3, radius),
                        lambda res: (res.partial == inp.rd_partial[radius]
                                     and res.tail_bound < Fraction(1, 10**12)
                                     and (bracket is None or bracket.partial <= res.partial <= bracket.hi)))
    s, r, dimq, radius = NONUNI
    log.op("nonuni_norm_sq", lambda: est.nonuni_norm_sq(s, r, dimq, radius),
           lambda res: res.partial == inp.nonuni_partial and res.tail_bound < Fraction(1, 10**10))
    log.op("dim_ratio_domination", lambda: est.dim_ratio_domination(*DOMINATION),
           lambda ok: ok is True)


# ---------------------------------------------------------------------------
# tensor-grades
# ---------------------------------------------------------------------------

@dataclass
class TensorInputs:
    grade_norms: list  # (i_idx, k_idx, l, N, expected)
    cn_sources: list  # (N, n, i_idx)
    sums: list  # (N, i_idx, expected list)


PARSEVAL = ((2, 5), (3, 5), (4, 4))  # (N, largest n)
CN_LOWER = ((3, 9), (4, 9))
GRADE_NORMS = 8000  # so that the slowest 1% of ops lies among them, not among the ~60 kernel calls
GRADE_SHAPES = ((3, 4), (4, 4))  # (N, largest n) for the grade-norm samples
QL_SUMS = ((3, 6), (3, 7), (4, 5), (4, 6))  # (N, n), two sources each
INDEPENDENCE = ((3, 3), (3, 4))  # (n, N)


def grade_norm(i_idx, k_idx, l, N):
    """Squared norm of the grade-l component, leg by leg (1/N per free leg)."""
    out = Fraction(1)
    for p, (i, k) in enumerate(zip(i_idx, k_idx), start=1):
        delta = Fraction(int(i == k), N * N)
        out *= Fraction(1, N) if p < l else (Fraction(1, N) - delta if p == l else delta)
    return out


def prepare_tensor(lib, seed):
    rng = random.Random(seed)
    grade_norms = []
    for j in range(GRADE_NORMS):
        N, nmax = GRADE_SHAPES[j % len(GRADE_SHAPES)]
        n = rng.randint(1, nmax)
        i_idx = tuple(rng.randint(1, N) for _ in range(n))
        l = rng.randint(0, n)
        if j % 5 and l:
            # hypothesis pattern: free below l, k_l != i_l, equal above l
            k_l = rng.choice([x for x in range(1, N + 1) if x != i_idx[l - 1]])
            k_idx = tuple(rng.randint(1, N) for _ in range(l - 1)) + (k_l,) + i_idx[l:]
        else:
            k_idx = tuple(rng.randint(1, N) for _ in range(n))
        grade_norms.append((i_idx, k_idx, l, N, grade_norm(i_idx, k_idx, l, N)))
    cn_sources = [(N, n, tuple(rng.randint(1, N) for _ in range(n)))
                  for N, nmax in CN_LOWER for n in range(1, nmax + 1)]
    sums = []
    for N, n in QL_SUMS:
        m1sq = Fraction(N * N)
        expected = [m1sq ** -n] + [(1 - 1 / m1sq) * m1sq ** -(n - l) for l in range(1, n + 1)]
        for _ in range(2):
            sums.append((N, tuple(rng.randint(1, N) for _ in range(n)), expected))
    return TensorInputs(grade_norms, cn_sources, sums)


def run_tensor(lib, inp, log):
    au = lib.aunitary
    for N, nmax in PARSEVAL:
        for n in range(1, nmax + 1):
            log.op(f"parseval N={N} n={n}", lambda: au.parseval_violations(n, N), lambda v: v == 0)
    for i_idx, k_idx, l, N, expected in inp.grade_norms:
        log.op(("ql_norm_sq", i_idx, k_idx, l, N), lambda: au.ql_norm_sq(i_idx, k_idx, l, N),
               lambda v: v == expected)
    for N, n, i_idx in inp.cn_sources:
        closed = log.op(f"cn_lower closed N={N} n={n}",
                        lambda: au.cn_lower(n, N, i_idx, method="closed"), lambda v: v > 0)
        log.op(f"cn_lower enumerate N={N} n={n} {i_idx}",
               lambda: au.cn_lower(n, N, i_idx, method="enumerate"), lambda v: v == closed)
    for N, i_idx, expected in inp.sums:
        log.op(f"ql_sums N={N} {i_idx}", lambda: au.ql_sums(i_idx, N), lambda v: v == expected)
    for n, N in INDEPENDENCE:
        log.op(f"check_index_independence n={n} N={N}",
               lambda: au.check_index_independence(n, N), lambda ok: ok is True)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run: object


WORKLOADS = {w.name: w for w in (
    Workload("tree-telescope", prepare_telescope, run_telescope),
    Workload("tree-walk", prepare_walk, run_walk),
    Workload("series-certify", prepare_series, run_series),
    Workload("tensor-grades", prepare_tensor, run_tensor),
)}
