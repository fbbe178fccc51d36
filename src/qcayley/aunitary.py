"""Tensor-power model for the unitary factor: exact cocycle-norm bounds.

Monomial vectors of the n-th generator power are identified with rank-one
operators e_i e_k^* in the n-fold matrix algebra under the normalized
Hilbert-Schmidt norm.  Splitting every leg as x = x0 + (Tr x / m1) id grades
the space by the last non-scalar leg; the component norms are exact
rationals, and summing them with the chain weights m1^{2(i-1)} gives
two-sided bounds for the squared cocycle norms, growing linearly in n.

Everything is per unit source vector; only norms are materialized, never the
chain vectors themselves (their norms are pinned, their ambient spaces are
not needed).  The exhaustive multi-index enumerations are the definitional
route and double as the oracle for the closed-form summations.  The grade-l
norm of a pair (i, k), scaled by m1^{2n} with m1 = N, is a closed-form integer
fixed by j, the last leg where k differs from i (_grade_entry(j, l, N)), so no
table is built.  ql_norm_sq computes its one entry and returns the exact norm
from a bounded cache keyed by the entry's value and its scale, so repeated
norms are one Fraction.  One walk call (_last_disagreements) takes a source i
and all its targets k and counts the k of each last disagreeing leg; the
enumerations add those counts times the entries of row j, and
parseval_violations totals the counts of each j over all sources and counts
the pairs of every reached row that misses the full norm.

Every integer argument (N, n, l and the multi-index entries) must be an int,
not a bool, and is refused with ValueError otherwise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import EnumerationSizeError, GateError
from .scalars import QQ

__all__ = [
    "ql_norm_sq",
    "ql_sums",
    "cg_bounds_closed",
    "cn_lower",
    "check_index_independence",
    "parseval_violations",
]

# At the cap (Python 3.11 on 2 vCPU, three runs), cn_lower (N = 4, n = 11) and ql_sums at
# N = 4 take 0.47-0.55 s, ql_sums at N = 2 (n = 22, longer walks) 0.79-0.83 s, and
# parseval_violations, one walk call per source (N = 2, n = 11), 0.46-0.54 s; the largest
# size in use (cn_lower for N = 4, n = 9: 262,144 walks) is 16 times smaller.
MAX_GRADE_WALKS = 2 ** 22


def _check_n(N: int, least: int = 1) -> int:
    """Refuse an N that is not a positive int (ValueError) or is below least (GateError)."""
    if not (type(N) is int and N >= 1):
        raise ValueError("N must be a positive integer")
    if N < least:
        raise GateError(f"generator dimension N = {N} < {least}: the cocycle bounds assume "
                        "geometric dimension growth (dimension-2 generators are excluded)")
    return N


def _check_power(n: int, least: int) -> int:
    """Refuse a tensor power n that is not an int (a bool is not one) >= least."""
    if not (type(n) is int and n >= least):
        raise ValueError(f"n must be an integer >= {least}")
    return n


def _check_grade(l: int, n: int) -> int:
    if not (type(l) is int and 0 <= l <= n):
        raise ValueError(f"l = {l!r} is not an integer in 0..{n}")
    return l


def _check_walks(N: int, exponent: int) -> None:
    """Refuse an enumeration of N ** exponent grade walks above MAX_GRADE_WALKS."""
    # N = 1 is exempt: there is one walk, O(n) work however large n is.
    # N >= 2 with exponent >= 23 is past the cap, so the power stays small
    if N > 1 and N ** min(exponent, MAX_GRADE_WALKS.bit_length()) > MAX_GRADE_WALKS:
        raise EnumerationSizeError(
            f"{N}^{exponent} grade walks exceed the cap of {MAX_GRADE_WALKS}")


def _validate_indices(i_idx, k_idx, N: int) -> int:
    if len(i_idx) != len(k_idx):
        raise ValueError("multi-index length mismatch")
    for seq in (i_idx, k_idx):
        for e in seq:
            if not (type(e) is int and 1 <= e <= N):
                raise ValueError(f"multi-index entry {e!r} is not an integer in 1..{N}")
    return len(i_idx)


# Keyed by value, not by (n, N, j, l): _grade_entry is computed on every call.
_exact_norm = lru_cache(maxsize=256)(QQ)


def ql_norm_sq(i_idx, k_idx, l: int, N: int):
    """Squared norm of the grade-l component of the monomial (i, k); exact.

    Grade l means: legs before l are unrestricted, leg l is traceless, legs
    after l are scalar.  Grade 0 is the all-scalar component.

    The arguments are validated first.  The value is _grade_entry(j, l, N)
    over N^(2n), with j the pair's last disagreeing leg, and that Fraction
    comes from a bounded cache keyed by the two integers, so equal norms are
    returned as one object.  The cost is O(n) for any n.
    """
    _check_n(N)
    n = _validate_indices(i_idx, k_idx, N)
    _check_grade(l, n)
    j = n  # the last disagreeing leg, walked as in _last_disagreements
    while j and i_idx[j - 1] == k_idx[j - 1]:
        j -= 1
    return _exact_norm(_grade_entry(j, l, N), N ** (2 * n))


# Per leg p the components of the rank-one e_i e_k^* under x = x0 + (Tr x/N) id,
# in the normalized Hilbert-Schmidt norm, scaled by N^2:
#   scalar part   -> delta_{ik}
#   traceless part-> N - delta_{ik}
#   full leg      -> N
# so ql_norm_sq(i, k, l) * N^(2n) is the integer product
#   prod_{p<l} N  *  (N - delta_l)  *  prod_{p>l} delta_p      (l >= 1)
#   prod_p delta_p                                             (l = 0).
# Grade l is nonzero only when legs l+1..n agree, so the whole row of a pair is
# fixed by j, its last disagreeing leg (j = 0 when k == i).

def _last_disagreements(i_idx, k_idxs):
    """hist[j] = how many k in k_idxs have j as their last leg differing from i
    (j = 0 when k == i); each k is walked down from leg n."""
    n = len(i_idx)
    hist = [0] * (n + 1)
    for k_idx in k_idxs:
        j = n
        while j and i_idx[j - 1] == k_idx[j - 1]:
            j -= 1
        hist[j] += 1
    return hist


def _grade_entry(j: int, l: int, N: int) -> int:
    """ql_norm_sq(i, k, l, N) * N^(2n) of any pair whose last disagreeing leg is j:
    N^j at l = j, N^(l-1) (N-1) above j (those legs agree), 0 below.  Row j
    (l = 0..n) sums to N^n."""
    if l < j:
        return 0
    return N ** j if l == j else N ** (l - 1) * (N - 1)


def _grade_walk(i_idx, k_idxs, N, row):
    """Add ql_norm_sq(i, k, l, N) * N^(2n) to row[l] for every l = 0..n and k in k_idxs."""
    for j, count in enumerate(_last_disagreements(i_idx, k_idxs)):
        if count:
            for l in range(j, len(row)):
                row[l] += count * _grade_entry(j, l, N)


def ql_sums(i_idx, N: int):
    """[sum over all k of ql_norm_sq(i, k, l) for l = 0..n], by enumeration."""
    _check_n(N)
    i_idx = tuple(i_idx)
    n = _validate_indices(i_idx, i_idx, N)
    _check_walks(N, n)
    scaled = [0] * (n + 1)
    _grade_walk(i_idx, product(range(1, N + 1), repeat=n), N, scaled)
    scale = QQ(N) ** (2 * n)
    return [QQ(s) / scale for s in scaled]


def cg_bounds_closed(n: int, l: int, N: int):
    """Exact two-sided bounds for the squared cocycle norm of a grade-l unit vector.

    lower = (1/2) sum_{i=1}^{n-l} m1^{2(i-1)} = (m1^{2(n-l)} - 1)/(2(m1^2 - 1)),
    the chain terms whose antisymmetric projections are orthogonal and
    norm-halving; upper = lower + m1^{2(n-l)} adds the full norm of the one
    remaining chain term, since the projection is a contraction.
    """
    _check_n(N, least=3)
    _check_grade(l, _check_power(n, 0))
    m1sq = QQ(N) ** 2
    lower = (m1sq ** (n - l) - 1) / (2 * (m1sq - 1))
    return lower, lower + m1sq ** (n - l)


def cn_lower(n: int, N: int, i_idx=None, method: str = "enumerate"):
    """Certified lower bound for the squared norm of the n-th power cocycle matrix,
    per unit basis vector:  sum_k sum_l lower(n, l) * ql_norm_sq(i, k, l), with
    lower(n, l) the lower end of cg_bounds_closed.

    method="enumerate" runs the definitional exhaustive sum over all N^n
    multi-indices k; method="closed" evaluates the same double sum through
    the factorized per-grade totals.  The value does not depend on i
    (see check_index_independence).
    """
    _check_n(N, least=3)
    _check_power(n, 1)
    i_idx = (1,) * n if i_idx is None else tuple(i_idx)
    if _validate_indices(i_idx, i_idx, N) != n:
        raise ValueError(f"source multi-index has length {len(i_idx)}, need n = {n}")
    if method == "enumerate":
        # sum_l (N^(2(n-l)) - 1) * sum_k ql_norm_sq(i,k,l) * N^(2n), in integers
        _check_walks(N, n)
        row = [0] * (n + 1)
        _grade_walk(i_idx, product(range(1, N + 1), repeat=n), N, row)
        scaled = sum((N ** (2 * (n - l)) - 1) * r for l, r in enumerate(row))
        return QQ(scaled) / (2 * (QQ(N) ** 2 - 1) * QQ(N) ** (2 * n))
    if method == "closed":
        m1sq = QQ(N) ** 2
        total = QQ(0)
        # grade totals over all k: S_0 = m1^{-2n}, S_l = (1 - m1^{-2}) m1^{-2(n-l)}
        for l in range(n + 1):
            lower = cg_bounds_closed(n, l, N)[0]
            if l == 0:
                s_l = m1sq ** (-n)
            else:
                s_l = (1 - 1 / m1sq) * m1sq ** (-(n - l))
            total += lower * s_l
        return total
    raise ValueError(f"unknown method {method!r}")


def check_index_independence(n: int, N: int) -> bool:
    """Exhaustively confirm cn_lower is the same for every source multi-index."""
    _check_n(N)
    _check_power(n, 1)
    _check_walks(N, 2 * n)
    values = {cn_lower(n, N, i_idx=i) for i in product(range(1, N + 1), repeat=n)}
    return len(values) == 1


def parseval_violations(n: int, N: int) -> int:
    """Pairs (i, k) where the grade components fail to resolve the full norm.

    Zero on a correct decomposition: sum_l ql_norm_sq(i,k,l) must equal the
    normalized Hilbert-Schmidt norm m1^{-n} of the rank-one monomial.
    """
    _check_n(N)
    _check_power(n, 0)
    _check_walks(N, 2 * n)
    indices = list(product(range(1, N + 1), repeat=n))
    pairs = [0] * (n + 1)  # pairs[j]: the pairs whose last disagreeing leg is j
    for i_idx in indices:
        for j, count in enumerate(_last_disagreements(i_idx, indices)):
            pairs[j] += count
    target = N ** n  # the scaled norm m1^{-n} * m1^{2n}
    return sum(count for j, count in enumerate(pairs)
               if count and sum(_grade_entry(j, l, N) for l in range(n + 1)) != target)
