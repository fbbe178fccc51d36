"""Acceptance criteria as a library: one callable per criterion.

Each criterion returns a CriterionResult with deterministic detail lines, so
the CLI `verify` command and the pytest acceptance module share one
implementation.  Profiles: "full" runs the criteria at their stated sizes
and tolerances; "quick" shrinks radii/counts for a fast smoke run.

The closed-form cross-checks in this module are deliberately independent of
the series code they certify (e.g. the Gram oracle uses the quadratic-field
identity sum_{i>=j} 1/(m_i m_{i+1}) = 1/a - m_{j-1}/m_j, not the truncated
summation loop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import aunitary as au
from . import estimates as est
from . import qctree as qt
from .cayley import _class_levels, build_tree, validate
from .errors import GateError
from .fusion import a_param, ao_dims, parse_spec
from .scalars import QQ, Radical

__all__ = ["CriterionResult", "run_all", "run_criterion", "report_lines", "PROFILES", "CRITERIA"]

DEFAULT_SEED = 108
C1_VERTEX_CAP = 900_000  # criterion 1 builds trees past the default vertex cap


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status} {self.name}"


PROFILES = {
    "full": dict(
        c1_radius=12, c1_direct_radius=8, c1_deep_stride=5000,
        c2_radius=12, c2_fixed_radius=40,
        c3_kmax=10, c3_radius=30, c3_tol=QQ(1, 10**10),
        c4_kmax=20, c4_radius=60, c4_toeplitz_size=50,
        c5_nmax=8,
        c6_nmax=4,
        c7_r1=60, c7_r2=120, c7_nonuni_radius=80, c7_nonuni_tol=QQ(1, 10**10),
        c8_vectors=1000,
        c9_radius=8, c9_terms=40,
    ),
    # smaller radii need looser numeric thresholds; the stated tolerances are
    # pinned by the full profile, which is the acceptance gate
    "quick": dict(
        c1_radius=6, c1_direct_radius=5, c1_deep_stride=50,
        c2_radius=8, c2_fixed_radius=20,
        c3_kmax=5, c3_radius=15, c3_tol=QQ(1, 10**4),
        c4_kmax=8, c4_radius=30, c4_toeplitz_size=20,
        c5_nmax=5,
        c6_nmax=3,
        c7_r1=30, c7_r2=60, c7_nonuni_radius=40, c7_nonuni_tol=QQ(1, 10**6),
        c8_vectors=100,
        c9_radius=5, c9_terms=20,
    ),
}

NAMES = {
    1: "path-telescoping-identity",
    2: "bounded-paths-vs-classical-properness",
    3: "inverse-series-residual",
    4: "gram-decay-certification",
    5: "unitary-linear-growth",
    6: "tensor-grade-parseval",
    7: "rapid-decay-series",
    8: "geometric-weight-cauchy-schwarz-chain",
    9: "dimension-engine",
    10: "deterministic-reports",
}

TEST_SPECS = ("Ao(3)", "Ao(4)", "Au(3)", "Ao(3)*Au(3)")

_TOL_1E8 = QQ(1, 10**8)
_TOL_1E9 = QQ(1, 10**9)
_TOL_1E10 = QQ(1, 10**10)
_TOL_1E12 = QQ(1, 10**12)


# ---------------------------------------------------------------------------
# criterion 1: exact telescoping of path vectors
# ---------------------------------------------------------------------------

def criterion_1(profile: dict, seed: int) -> CriterionResult:
    details = []
    ok = True
    radius = profile["c1_radius"]
    for spec_text in TEST_SPECS:
        spec = parse_spec(spec_text)
        tree = build_tree(spec, radius, max_vertices=C1_VERTEX_CAP)
        n = tree.n_vertices
        bad = 0
        if n <= 20_000:
            # direct route: assemble each full path vector and apply the target map
            direct_ids = range(n)
            mode = "direct"
        else:
            # incremental route: the geodesic of a child extends its parent's by
            # one edge, so E2(path(child)) = E2(path(parent)) + E2(edge term);
            # verifying each edge term bridges the two targets checks every
            # vertex, and a strided direct recheck guards the vector assembly
            # itself.  Both sides of the edge identity depend on the edge p -> c
            # only through its state (m_p, m_c, direction) and depth (p == 0 at
            # depth 1): ids are mere keys, and e2 branches on a coefficient's form,
            # never on them.  So the exact check runs at each state's smallest
            # child and the others take its verdict (an e2 defect keyed by id shows
            # only in the recheck); that child's built edge must carry the state,
            # and the counts must cover every edge.
            dirs, edges = tree.directions, 0
            for level in _class_levels(spec, radius):
                for (mp, mc, j), (c, count) in level.items():
                    p, d, mg, tp, tc = tree.edge(c)
                    term = qt.GeomEdgeVector._of({c: qt._root(*qt._edge_term(mg, tp, tc))})
                    lhs = qt.e2(tree, term) + qt.path_target(tree, p)
                    if (tp, tc, d) != (mp, mc, dirs[j]) or lhs != qt.path_target(tree, c):
                        bad += count
                    edges += count
            bad += abs(n - 1 - edges)
            direct_ids = list(range(tree.sphere_ids(profile["c1_direct_radius"]).stop))
            for level in range(profile["c1_direct_radius"] + 1, radius + 1):
                direct_ids.extend(list(tree.sphere_ids(level))[:: profile["c1_deep_stride"]])
            mode = f"incremental+direct({len(direct_ids)})"
        bad += sum(1 for v, vec in zip(direct_ids, qt.path_vectors(tree, direct_ids))
                   if not qt.e2_maps_to(tree, vec, qt.path_target(tree, v)))
        ok &= bad == 0
        details.append(f"{spec_text}: {n} vertices radius<={radius} exact ({mode}), {bad} residuals")
    return CriterionResult(1, NAMES[1], ok, details)


# ---------------------------------------------------------------------------
# criterion 2: bounded weighted paths vs classical properness
# ---------------------------------------------------------------------------

def criterion_2(profile: dict, seed: int) -> CriterionResult:
    details = []
    spec = parse_spec("Ao(3)")
    radius = profile["c2_radius"]
    tree = build_tree(spec, radius + 1)
    norms = [qt.path_norm_sq(tree, v) for v in range(radius + 1)]
    sup = max(norms)
    monotone = all(norms[i] < norms[i + 1] for i in range(radius))
    cap_ok = sup < QQ(2547, 10000)

    fv = qt.fixed_vector(spec, profile["c2_fixed_radius"])
    fv_low = qt.fixed_vector(spec, radius)
    # the per-vertex norms increase to the series limit; the deepest one must
    # sit within the certified tail of the deep truncation
    within = sup <= fv.norm_sq and (fv.norm_sq - sup) <= fv_low.tail_bound
    classical = tree.classical()
    unit_ok = all(qt.path_norm_sq(classical, v) == 2 * classical.length(v)
                  for v in range(classical.n_vertices))
    ok = cap_ok and monotone and within and unit_ok
    details.append(f"Ao(3): sup ||path||^2 over radius<={radius} = {float(sup):.10f} < 0.2547: {cap_ok}")
    details.append(f"monotone along the half line: {monotone}; within tail of radius-{profile['c2_fixed_radius']} truncation: {within}")
    details.append(f"weight-1 mode ||path||^2 = 2*length exactly at all {tree.n_vertices} vertices: {unit_ok}")
    return CriterionResult(2, NAMES[2], ok, details)


# ---------------------------------------------------------------------------
# criterion 3: inverse-series residuals
# ---------------------------------------------------------------------------

def criterion_3(profile: dict, seed: int) -> CriterionResult:
    spec = parse_spec("Ao(3)")
    radius = profile["c3_radius"]
    kmax = profile["c3_kmax"]
    dims = ao_dims(QQ(3), radius + 2)
    ok = True
    worst = QQ(0)
    for k in range(kmax + 1):
        inv = qt.e2_inverse_ao(spec, k, radius)
        exact = dims[k] / dims[radius + 1]
        ok &= inv.residual_norm == exact
        worst = max(worst, exact)
    tol = profile["c3_tol"]
    numeric_ok = worst < tol
    details = [
        f"k <= {kmax}, R = {radius}: residual == m_k/m_R+1 exactly: {ok}",
        f"largest residual {float(worst):.3e} < {float(tol):.0e}: {numeric_ok}",
    ]
    if not numeric_ok:
        # the two clauses conflict at these parameters: the exactness clause
        # forces the value m_kmax/m_R+1, which exceeds the stated threshold
        # (the dimension ratio is the growth root ~2.618, not the naive m_1);
        # find the smallest truncation radius at which the threshold holds
        r_needed = radius
        while True:
            r_needed += 1
            deep = ao_dims(QQ(3), r_needed + 2)
            if deep[kmax] / deep[r_needed + 1] < tol:
                break
        check = qt.e2_inverse_ao(spec, kmax, r_needed)
        details.append(
            f"threshold is unattainable at R = {radius}: the exact residual is "
            f"{worst.numerator}/{worst.denominator}; it first drops below "
            f"{float(tol):.0e} at R = {r_needed} "
            f"(verified: {float(check.residual_norm):.3e})"
        )
    return CriterionResult(3, NAMES[3], ok and numeric_ok, details)


# ---------------------------------------------------------------------------
# criterion 4: Gram certification (closed form, PD, decay, Toeplitz bound)
# ---------------------------------------------------------------------------

def _gram_closed_oracle(dimq, k: int, l: int) -> Radical:
    """Quadratic-field value of the Gram entry: telescoping of 1/(m_i m_{i+1}).

    The Chebyshev-type dimensions satisfy m_i^2 - m_{i-1} m_{i+1} = 1, hence
    1/(m_i m_{i+1}) = m_i/m_{i+1} - m_{i-1}/m_i and the series from index j
    sums to 1/a - m_{j-1}/m_j exactly.
    """
    j = max(k, l)
    dims = ao_dims(dimq, j + 2)
    a = a_param(dimq).exact
    inv_a = Radical.from_rational(QQ(dimq)) - a
    start = Radical.from_rational(dims[j - 1] / dims[j]) if j else Radical.from_rational(0)
    factor = QQ(2) * dims[k] * dims[l] / dims[1]
    return (inv_a - start) * factor


def criterion_4(profile: dict, seed: int) -> CriterionResult:
    spec = parse_spec("Ao(3)")
    kmax = profile["c4_kmax"]
    radius = profile["c4_radius"]
    details = []

    entries = {}
    width_ok = True
    closed_ok = True
    for k in range(kmax + 1):
        for l in range(k, kmax + 1):
            g = qt.gram(spec, k, l, radius)
            entries[(k, l)] = g
            width_ok &= g.width < _TOL_1E10
            oracle = _gram_closed_oracle(QQ(3), k, l).interval(160)
            closed_ok &= not (oracle.hi < g.lo or g.hi < oracle.lo)
    details.append(f"entries k,l <= {kmax}: interval width < 1e-10: {width_ok}; "
                   f"closed-sum oracle inside: {closed_ok}")

    pd_ok = est._certified_pd([[entries[(min(k, l), max(k, l))] for l in range(kmax + 1)]
                               for k in range(kmax + 1)])
    details.append(f"Gram box positive definite (exact minors of mid - |rad|_F I): {pd_ok}")

    growth = a_param(QQ(3))
    a_hi = growth.interval.hi
    dee = qt.gram_bound(spec, kmax, radius)
    decay_ok = all(entries[(k, l)].hi * a_hi ** (l - k) <= dee
                   for k in range(kmax + 1) for l in range(k, kmax + 1))
    details.append(f"every entry <= D * a^-|k-l| with D = {float(dee):.6f}: {decay_ok}")

    schur = est.toeplitz_schur_bound(growth.interval)
    trunc = est.truncated_toeplitz_norm(growth.interval, profile["c4_toeplitz_size"])
    toeplitz_ok = trunc.hi <= schur.hi + _TOL_1E9
    details.append(f"truncated Toeplitz norm {float(trunc.hi):.9f} <= Schur bound "
                   f"{float(schur.hi):.9f} + 1e-9: {toeplitz_ok}")

    ok = width_ok and closed_ok and pd_ok and decay_ok and toeplitz_ok
    return CriterionResult(4, NAMES[4], ok, details)


# ---------------------------------------------------------------------------
# criterion 5: linear growth of the unitary cocycle bound
# ---------------------------------------------------------------------------

def criterion_5(profile: dict, seed: int) -> CriterionResult:
    nmax = profile["c5_nmax"]
    N = 3
    enum = [au.cn_lower(n, N, method="enumerate") for n in range(1, nmax + 1)]
    closed = [au.cn_lower(n, N, method="closed") for n in range(1, nmax + 1)]
    agree = enum == closed
    step = QQ(1, 2 * N * N)
    diffs_ok = all(enum[i + 1] - enum[i] == step for i in range(len(enum) - 1))
    floor_ok = all(enum[n - 1] >= (n - 1) * step for n in range(1, nmax + 1))
    ok = agree and diffs_ok and floor_ok
    details = [
        f"N=3, n <= {nmax}: exhaustive enumeration == closed form: {agree}",
        f"first differences == 1/(2N^2) = {step}: {diffs_ok}",
        f"cn_lower(n) >= (n-1)/(2N^2): {floor_ok} (so the cocycle matrix norm grows like sqrt(n))",
    ]
    return CriterionResult(5, NAMES[5], ok, details)


# ---------------------------------------------------------------------------
# criterion 6: Parseval and the special-case grade norms
# ---------------------------------------------------------------------------

def criterion_6(profile: dict, seed: int) -> CriterionResult:
    nmax = profile["c6_nmax"]
    violations = 0
    pairs = 0
    for N in (2, 3, 4):
        for n in range(1, nmax + 1):
            violations += au.parseval_violations(n, N)
            pairs += N ** (2 * n)
    parseval_ok = violations == 0

    # the hypothesis pattern: k_l != i_l, k_p = i_p beyond l, free below
    special_ok = True
    checked = 0
    for N in (3, 4):
        for n in range(1, nmax + 1):
            expected = [QQ(N) ** (-2 * n + l) for l in range(n + 1)]
            for i_idx in product(range(1, N + 1), repeat=n):
                for l in range(1, n + 1):
                    tail = i_idx[l:]
                    for k_low in product(range(1, N + 1), repeat=l - 1):
                        for k_l in range(1, N + 1):
                            if k_l == i_idx[l - 1]:
                                continue
                            k_idx = k_low + (k_l,) + tail
                            special_ok &= au.ql_norm_sq(i_idx, k_idx, l, N) == expected[l]
                            checked += 1
    ok = parseval_ok and special_ok
    details = [
        f"Parseval over {pairs} index pairs (n <= {nmax}, N <= 4): {violations} violations",
        f"special-case grade norm m1^(-2n+l) on {checked} hypothesis patterns: {special_ok}",
    ]
    return CriterionResult(6, NAMES[6], ok, details)


# ---------------------------------------------------------------------------
# criterion 7: rapid-decay series, unimodular and weighted
# ---------------------------------------------------------------------------

def criterion_7(profile: dict, seed: int) -> CriterionResult:
    r1 = est.rd_norm_sq(QQ(3), QQ(3), profile["c7_r1"])
    r2 = est.rd_norm_sq(QQ(3), QQ(3), profile["c7_r2"])
    agree = abs(r2.partial - r1.partial) <= _TOL_1E8
    bracket = r1.partial <= r2.partial <= r1.hi
    tail_ok = r1.tail_bound < _TOL_1E12

    gate_ok = True
    try:
        nn = est.nonuni_norm_sq(QQ(3), QQ(2), QQ(7, 2), profile["c7_nonuni_radius"])
        nonuni_tail_ok = nn.tail_bound < profile["c7_nonuni_tol"]
    except GateError:
        gate_ok = False
        nonuni_tail_ok = False
    ok = agree and bracket and tail_ok and gate_ok and nonuni_tail_ok
    details = [
        f"rd(dimq=3, s=3): R={profile['c7_r1']} vs R={profile['c7_r2']} agree to 1e-8: {agree}; "
        f"refinement inside certified interval: {bracket}",
        f"tail bound {float(r1.tail_bound):.3e} < 1e-12: {tail_ok}",
        f"weighted series dimq=7/2, r=2: growth gate passes: {gate_ok}; "
        f"tail < {float(profile['c7_nonuni_tol']):.0e}: {nonuni_tail_ok}",
    ]
    return CriterionResult(7, NAMES[7], ok, details)


# ---------------------------------------------------------------------------
# criterion 8: the summation-inequality chain, with negative control
# ---------------------------------------------------------------------------

def _near_extremal(a_float: float, n: int = 25):
    return [Fraction(a_float ** (-j / 2)).limit_denominator(10**7) for j in range(n)]


def _random_chain_vector(rng: random.Random) -> list:
    """A nonnegative rational vector of length 1..12, about 30% zeros, drawn from `rng`."""
    length = rng.randint(1, 12)
    return [QQ(rng.randint(0, 40), rng.randint(1, 9)) if rng.random() > 0.3 else QQ(0)
            for _ in range(length)]


def criterion_8(profile: dict, seed: int) -> CriterionResult:
    rng = random.Random(seed)
    golden = a_param(QQ(3)).interval
    cases = [("3/2", QQ(3, 2)), ("2", QQ(2)), ("golden", golden)]
    count = profile["c8_vectors"]
    all_ok = True
    for _ in range(count):
        xs = _random_chain_vector(rng)
        for _, a in cases:
            if not est.orientation_chain_check(a, xs):
                all_ok = False

    control_ok = True
    for label, a in cases:
        near = _near_extremal(float(a))
        if not est.orientation_chain_check(a, near):
            all_ok = False
        mutated = est.orientation_chain_check(a, near, tighten=QQ(3, 4))
        if mutated.ok:
            control_ok = False
    ok = all_ok and control_ok
    details = [
        f"{count} seeded random nonneg vectors x 3 values of a: all pass: {all_ok}",
        f"tightened constant (3/4) fails on the near-extremal input for every a: {control_ok}",
    ]
    return CriterionResult(8, NAMES[8], ok, details)


# ---------------------------------------------------------------------------
# criterion 9: dimension engine (closed form, bookkeeping, dimension-2 gates)
# ---------------------------------------------------------------------------

def criterion_9(profile: dict, seed: int) -> CriterionResult:
    details = []
    terms = profile["c9_terms"]
    dims = ao_dims(QQ(3), terms)
    growth = a_param(QQ(3))
    a = growth.interval
    apow = a  # a^(k+1) at k = 0
    closed_ok = True
    denom = a - a.inverse()
    for k in range(terms):
        closed = (apow - apow.inverse()) / denom
        closed_ok &= closed.round_outward(256).contains(dims[k]) and closed.width < _TOL_1E10
        apow = apow * a
    details.append(f"ao_dims vs closed form via the growth parameter, {terms} terms, to 1e-10: {closed_ok}")

    book_ok = True
    for spec_text in TEST_SPECS:
        tree = build_tree(parse_spec(spec_text), profile["c9_radius"])
        report = validate(tree)
        book_ok &= report.ok
        details.append(f"{spec_text}: bookkeeping at all {report.n_geometric_edges} edges "
                       f"(radius {profile['c9_radius']}): {report.ok}")

    gates_fire = True
    spec2 = parse_spec("Ao(2)")
    for fn in (lambda: qt.fixed_vector(spec2, 10),
               lambda: qt.e2_inverse_ao(spec2, 0, 10),
               lambda: qt.gram(spec2, 0, 0, 10),
               lambda: est.rd_norm_sq(QQ(2), QQ(3), 10),
               lambda: au.cg_bounds_closed(3, 1, 2),
               lambda: au.cn_lower(2, 2)):
        try:
            fn()
            gates_fire = False
        except GateError:
            pass
    # degenerate specs remain accepted by the fusion/tree layer
    degenerate_ok = build_tree(spec2, 5).n_vertices == 6 and ao_dims(QQ(2), 4) == [1, 2, 3, 4]
    details.append(f"dimension-2 gates fire on all gated operations: {gates_fire}; "
                   f"fusion/tree still accept the degenerate spec: {degenerate_ok}")
    ok = closed_ok and book_ok and gates_fire and degenerate_ok
    return CriterionResult(9, NAMES[9], ok, details)


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reports for a fixed seed
# ---------------------------------------------------------------------------

def criterion_10(profile: dict, seed: int) -> CriterionResult:
    # deterministic reruns of the seed-dependent criteria; the CLI-level
    # byte comparison of two full `verify` runs lives in the test-suite
    quick = PROFILES["quick"]
    first = [criterion_8(quick, seed), criterion_2(quick, seed)]
    second = [criterion_8(quick, seed), criterion_2(quick, seed)]
    render = lambda results: "\n".join(r.line() + "|" + "|".join(r.details) for r in results)
    ok = render(first) == render(second)
    details = [f"criteria 2 and 8 re-run with seed {seed}: byte-identical: {ok}"]
    return CriterionResult(10, NAMES[10], ok, details)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_criterion(number: int, profile: str = "full", seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion `number`: an internal audit that raises AssertionError is its FAIL."""
    try:
        return CRITERIA[number](PROFILES[profile], seed)
    except AssertionError as exc:
        return CriterionResult(number, NAMES[number], False, [f"audit failed: {exc}"])


def run_all(profile: str = "full", seed: int = DEFAULT_SEED) -> list:
    return [run_criterion(number, profile, seed) for number in sorted(CRITERIA)]


def report_lines(results) -> list:
    lines = []
    for r in results:
        lines.append(r.line())
        lines.extend(f"    {d}" for d in r.details)
    failed = [r.number for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed"
                 + (f"; FAILED: {failed}" if failed else ""))
    return lines
