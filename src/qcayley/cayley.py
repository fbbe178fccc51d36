"""Classical Cayley tree of a free product, built breadth-first up to a radius.

Vertices are BFS-order integer ids (deterministic), and every vertex query
takes an id; per-vertex data lives in flat arrays so that trees with ~10^6
vertices stay cheap.  The reduced word of a vertex is materialized lazily from
the parent chain, since the big acceptance sweeps only need ids and dimensions.

Every vertex has exactly one ascending child per direction and one parent;
the descending summand of any generator fusion is the parent, which is what
makes the incremental dimension recursion in `_bfs_tree` exact.
"""

from __future__ import annotations

from array import array
from copy import copy
from dataclasses import dataclass, field
from typing import Iterator

from .errors import TreeSizeError
from .fusion import (
    ORTHOGONAL,
    UNITARY,
    Direction,
    Irrep,
    QuantumGroupSpec,
    fuse_generator,
    quantum_dim,
)
from .scalars import QQ

__all__ = [
    "Edge",
    "CayleyTree",
    "GeodesicRay",
    "build_tree",
    "geodesic",
    "validate",
    "ValidationReport",
    "canonical_ray_pattern",
]

DEFAULT_VERTEX_CAP = 200_000


@dataclass(frozen=True)
class Edge:
    source: Irrep
    target: Irrep
    direction: Direction
    ascending: bool


class CayleyTree:
    """Rooted, direction-labelled tree of irreducibles up to a radius: the whole
    ball (`build_tree`) or the path along one geodesic (`GeodesicRay`).

    A vertex is its int id; a word is read from an id (`word`) but never
    names a vertex.  Every vertex accessor makes one check, an int (not a
    bool) in range(n_vertices), and raises ValueError otherwise: a negative
    id, which Python would read from the end, is refused too."""

    def __init__(self, spec, radius, parent, pdir, length, dims):
        self.spec = spec
        self.radius = radius
        self.directions = spec.directions
        self._parent = parent
        self._pdir = pdir
        self._length = length
        self._dims = dims
        # a Fraction per factor even when the vertex dimensions are ints, so
        # that quotients like 2 / (dir_dim * dim * dim) stay exact
        self._dir_dims = tuple(f.dimq for f in spec.factors)
        self._n = n = len(dims)
        self._words: list = [None] * n
        self._words[0] = Irrep(())
        # BFS order sorts by length; record sphere boundaries once
        starts = [0] * (radius + 2)
        for v in range(n):
            starts[length[v] + 1] = v + 1
        for i in range(1, radius + 2):
            starts[i] = max(starts[i], starts[i - 1])
        self._level_start = starts

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_geometric_edges(self) -> int:
        return self._n - 1

    def dim(self, vid: int):
        """Quantum dimension of a vertex, in the type of `spec.dim_scalars`."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        return self._dims[vid]

    def length(self, vid: int) -> int:
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        return self._length[vid]

    def parent(self, vid: int):
        """(parent id, direction of the ascending parent edge), None at the root."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        return (self._parent[vid], self.directions[self._pdir[vid]]) if vid else None

    def dir_dim(self, d: Direction):
        return self._dir_dims[d.factor]

    def classical(self) -> CayleyTree:
        """The classical Cayley tree of the free product: this tree, sharing its
        arrays and words, with every vertex and generator weight 1."""
        view = copy(self)
        view._dims = [1] * self.n_vertices
        view._dir_dims = (QQ(1),) * len(self._dir_dims)
        return view

    def word(self, vid: int) -> Irrep:
        """Reduced word of a vertex, materialized from the parent chain."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        w = self._words[vid]
        if w is not None:
            return w
        chain = []
        v = vid
        while self._words[v] is None:
            chain.append(v)
            v = self._parent[v]
        letters = list(self._words[v].word)
        for v2 in reversed(chain):
            d = self.directions[self._pdir[v2]]
            kind = self.spec.factors[d.factor].kind
            if letters and letters[-1][0] == d.factor:
                fidx, payload = letters[-1]
                if kind == ORTHOGONAL:
                    letters[-1] = (fidx, payload + 1)
                else:
                    letters[-1] = (fidx, payload + (d.bar,))
            else:
                payload = 1 if kind == ORTHOGONAL else (d.bar,)
                letters.append((d.factor, payload))
            self._words[v2] = Irrep(tuple(letters))
        return self._words[vid]

    # -- traversal -----------------------------------------------------------

    def sphere_ids(self, n: int) -> range:
        """Ids of the vertices at distance n from the root, in BFS order."""
        if not 0 <= n <= self.radius:
            raise ValueError(f"sphere radius {n} is not in 0..{self.radius}")
        return range(self._level_start[n], self._level_start[n + 1])

    def geodesic_ids(self, vid: int) -> list[int]:
        """Vertex ids along the unique ascending path root -> vid."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        chain = [vid]
        while vid != 0:
            vid = self._parent[vid]
            chain.append(vid)
        chain.reverse()
        return chain

    def ascending_edges(self) -> Iterator[tuple]:
        """(parent id, child id, direction) for every geometric edge."""
        for v in range(1, self.n_vertices):
            yield self._parent[v], v, self.directions[self._pdir[v]]


def _id_error(tree: CayleyTree, vid) -> ValueError:
    """The refusal of every vertex accessor: `vid` is not an int (a bool is
    not one) in range(n_vertices)."""
    return ValueError(f"vertex id {vid!r} is not in range({tree.n_vertices})")


def _bfs_tree(spec: QuantumGroupSpec, factor_m1, radius: int, cap: int, pattern=None):
    """Breadth-first structural closure of the Cayley tree.

    With a `pattern` of direction indices, a vertex at length n expands only
    direction pattern[n % len(pattern)]: the closure is then one geodesic.

    Per-vertex outputs (index = BFS id, root = 0):
      parent, pdir      -- parent id and the direction index of the parent edge
      length            -- distance to the root
      dims              -- quantum dimension, in the arithmetic type of `factor_m1`

    Every vertex has exactly one ascending child per direction; the
    descending summand of any fusion is the parent, which gives the dimension
    recursion  m_child = m1 * m_v - m_parent  when the generator is absorbed
    and  m_child = m1 * m_v  otherwise.  The recursion needs the factor and
    the code (Ao: the letter's k; Au: the last symbol +-1) of each vertex's
    last letter, kept here and dropped on return.
    """
    dir_factor = [d.factor for d in spec.directions]
    dir_bar = [d.bar for d in spec.directions]
    factor_is_ao = [f.kind == ORTHOGONAL for f in spec.factors]
    ndir = len(dir_factor)
    parent = array("q", [-1])
    pdir = array("h", [-1])
    length = array("i", [0])
    last_factor = array("h", [-1])
    last_code = array("q", [0])
    dims = [factor_m1[0] * 0 + 1]  # 1 in the caller's arithmetic type
    all_dirs = range(ndir)

    v = 0
    while v < len(dims):
        if length[v] >= radius:
            break  # BFS order: all later vertices are at least this deep
        lf = last_factor[v]
        lc = last_code[v]
        dv = dims[v]
        dpar = dims[parent[v]] if v else None
        for d in all_dirs if pattern is None else (pattern[length[v] % len(pattern)],):
            f = dir_factor[d]
            b = dir_bar[d]
            m1 = factor_m1[f]
            if lf != f:
                child_dim = dv * m1
                code = 1 if factor_is_ao[f] else b
            elif factor_is_ao[f]:
                child_dim = dv * m1 - dpar
                code = lc + 1
            else:
                child_dim = dv * m1 - dpar if lc == -b else dv * m1
                code = b
            if len(dims) >= cap:
                raise TreeSizeError(
                    f"tree for {spec} at radius {radius} exceeds the vertex cap "
                    f"{cap}; raise max_vertices explicitly if intended"
                )
            parent.append(v)
            pdir.append(d)
            length.append(length[v] + 1)
            last_factor.append(f)
            last_code.append(code)
            dims.append(child_dim)
        v += 1
    return parent, pdir, length, dims


def build_tree(spec: QuantumGroupSpec, radius: int,
               max_vertices: int = DEFAULT_VERTEX_CAP) -> CayleyTree:
    """Breadth-first closure of generator fusion from the root.

    Raises TreeSizeError instead of silently truncating when the closure
    would exceed `max_vertices` (unitary factors grow the tree as 2^radius).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    # ints when every dimq is integral, Fractions otherwise
    parent, pdir, length, dims = _bfs_tree(spec, spec.dim_scalars, radius, max_vertices)
    return CayleyTree(spec, radius, parent, pdir, length, dims)


def geodesic(tree: CayleyTree, vid: int) -> list[Edge]:
    """The unique ascending path root -> vid as Edge objects."""
    ids = tree.geodesic_ids(vid)
    out = []
    for p, c in zip(ids, ids[1:]):
        out.append(Edge(tree.word(p), tree.word(c),
                        tree.directions[tree._pdir[c]], True))
    return out


@dataclass
class ValidationReport:
    ok: bool
    n_vertices: int
    n_geometric_edges: int
    issues: list = field(default_factory=list)


def validate(tree: CayleyTree) -> ValidationReport:
    """Re-check the tree axioms and the fusion-dimension bookkeeping.

    Dimensions are recomputed letterwise from the words, independently of the
    incremental recursion used during the build.
    """
    spec = tree.spec
    m1s = spec.dim_scalars
    issues = []
    n = tree.n_vertices
    ndir = len(tree.directions)
    taken = bytearray(n * ndir)  # one flag per (parent, direction)
    for v in range(1, n):
        p = tree._parent[v]
        slot = p * ndir + tree._pdir[v]
        if taken[slot]:
            issues.append(f"vertex {v}: a second child of {p} in one direction")
        taken[slot] = 1
        if tree.length(v) != tree.length(p) + 1:
            issues.append(f"vertex {v}: length not graded along parent edge")
        if quantum_dim(spec, tree.word(v)) != tree.dim(v):
            issues.append(f"vertex {v}: stored dimension disagrees with letterwise product")
    for p, c, d in tree.ascending_edges():
        summands = fuse_generator(spec, tree.word(p), d)
        if tree.word(c) != summands[-1]:
            issues.append(f"edge {p}->{c}: ascending fusion result mismatch")
        total = sum(quantum_dim(spec, s) for s in summands)
        if total != tree.dim(p) * m1s[d.factor]:
            issues.append(f"edge {p}->{c}: dimension bookkeeping fails")
        if len(summands) == 2:
            # the generator absorbed the last letter of p: the reduced word is p's parent
            if p == 0 or summands[0] != tree.word(tree._parent[p]):
                issues.append(f"edge {p}->{c}: descending summand is not p's parent")
    return ValidationReport(not issues, n, n - 1, issues)


# ---------------------------------------------------------------------------
# infinite geodesics: finite prefixes built by the BFS closure along a pattern
# ---------------------------------------------------------------------------

def canonical_ray_pattern(spec: QuantumGroupSpec) -> tuple:
    """Default infinite geodesic: the half-line for a single Ao factor, the
    alternating generator/conjugate spine for a unitary factor, and an
    alternating two-factor spine otherwise."""
    for i, f in enumerate(spec.factors):
        if f.kind == UNITARY:
            return (Direction(i, 1), Direction(i, -1))
    if len(spec.factors) == 1:
        return (Direction(0, 0),)
    return (Direction(0, 0), Direction(1, 0))


class GeodesicRay(CayleyTree):
    """Finite prefix of an infinite geodesic: the path tree of its first `steps` edges.

    The geodesic repeats the direction `pattern` forever from the root, always
    taking the ascending fusion result.  Vertex i is the ray vertex at distance
    i from the root, so path and fixed-vector computations can run far beyond
    any materializable tree radius; its word is built only when asked for.
    """

    def __init__(self, spec: QuantumGroupSpec, pattern, steps: int):
        self.pattern = tuple(pattern)
        if not self.pattern:
            raise ValueError("empty direction pattern")
        if not set(self.pattern) <= set(spec.directions):
            raise ValueError(f"pattern {self.pattern} has a direction outside {spec}")
        codes = [spec.directions.index(d) for d in self.pattern]
        steps = max(steps, 0)
        # a path of steps + 1 vertices: the cap cannot be reached
        super().__init__(spec, steps,
                         *_bfs_tree(spec, spec.dim_scalars, steps, steps + 1, codes))
