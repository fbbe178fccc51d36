"""Classical Cayley tree of a free product, built breadth-first up to a radius.

Vertices are BFS-order integer ids (deterministic), and every vertex query
takes an id.  A tree stores only its dimension list: it is complete k-ary in
BFS order, so the parent, the parent-edge direction and the depth of a vertex
are arithmetic on its id, and trees with ~10^6 vertices stay cheap.  The
reduced word of a vertex is materialized lazily from the parent chain, since
the big acceptance sweeps only need ids and dimensions.

Every vertex has exactly one ascending child per direction and one parent;
the descending summand of any generator fusion is the parent.  So a child's
dimension is m1 * m_v, less m_parent when the generator absorbs the last
letter of v, and whether it does is read from the direction of v's parent
edge alone (the absorption table of `_child_rule`): building a tree reads no
letter of any word.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, NamedTuple

from .errors import TreeSizeError
from .fusion import (
    ORTHOGONAL,
    UNITARY,
    Direction,
    Irrep,
    QuantumGroupSpec,
    fuse_generator,
    letter_dim,
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


class Edge(NamedTuple):
    """An ascending geodesic edge source -> target along `direction`: an
    immutable tuple, so equal fields give equal Edges with equal hashes."""

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
    id, which Python would read from the end, is refused too.

    The layout is complete k-ary in BFS order: vertex v > 0 hangs below
    (v - 1) // k along directions[cycle[(v - 1) % len(cycle)]], with `cycle`
    a sequence of direction indices, and `dims` holds one dimension per id,
    sum(k**i for i <= radius) of them; any other count raises ValueError."""

    def __init__(self, spec, radius, k, cycle, dims):
        # sphere i holds k**i ids, and BFS order lists the spheres in turn
        self._level_start = list(accumulate((k ** i for i in range(radius + 1)), initial=0))
        if len(dims) != self._level_start[-1]:
            raise ValueError(f"{len(dims)} dims do not fill a tree of radius {radius} "
                             f"with {k} children per vertex ({self._level_start[-1]} ids)")
        self.spec = spec
        self.radius = radius
        self.directions = spec.directions
        self._k = k
        self._cycle = tuple(spec.directions[c] for c in cycle)
        self._period = len(cycle)
        self._dims = dims
        # a Fraction per factor even when the vertex dimensions are ints, so
        # that quotients like 2 / (dir_dim * dim * dim) stay exact
        self._dir_dims = tuple(f.dimq for f in spec.factors)
        self._n = n = len(dims)
        self._words: list = [None] * n
        self._words[0] = Irrep(())
        # the letter step of each cycle position: an Ao letter counts its
        # steps, an Au letter lists its symbols
        self._steps = tuple((d.factor, 1 if spec.factors[d.factor].kind == ORTHOGONAL
                             else (d.bar,)) for d in self._cycle)

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    def dim(self, vid: int):
        """Quantum dimension of a vertex, in the type of `spec.dim_scalars`."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        return self._dims[vid]

    def length(self, vid: int) -> int:
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        return bisect_right(self._level_start, vid) - 1

    def parent(self, vid: int):
        """(parent id, direction of the ascending parent edge), None at the root."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        if not vid:
            return None
        vid -= 1
        return vid // self._k, self._cycle[vid % self._period]

    def dir_dim(self, d: Direction):
        return self._dir_dims[d.factor]

    def edge(self, vid: int) -> tuple:
        """(parent id, direction, m_g, m_p, m_c) of the ascending edge p -> vid:
        one id check.  The root has no parent edge and is refused."""
        if not (type(vid) is int and 0 < vid < self._n):
            if vid == 0 and type(vid) is int:
                raise ValueError("vertex 0 is the root; it has no parent edge")
            raise _id_error(self, vid)
        p = (vid - 1) // self._k
        d = self._cycle[(vid - 1) % self._period]
        return p, d, self._dir_dims[d.factor], self._dims[p], self._dims[vid]

    def classical(self) -> CayleyTree:
        """The classical Cayley tree of the free product: this tree, sharing its
        layout and words, with every vertex and generator weight 1."""
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
        words, k, steps, period = self._words, self._k, self._steps, self._period
        chain = []
        v = vid
        while words[v] is None:
            chain.append(v)
            v = (v - 1) // k
        w = words[v].word
        for v2 in reversed(chain):
            f, step = steps[(v2 - 1) % period]
            # the step extends the last letter when it is of the same factor
            w = w[:-1] + ((f, w[-1][1] + step),) if w and w[-1][0] == f else w + ((f, step),)
            words[v2] = Irrep(w)
        return words[vid]

    # -- traversal -----------------------------------------------------------

    def sphere_ids(self, n: int) -> range:
        """Ids of the vertices at distance n from the root, in BFS order."""
        if not 0 <= n <= self.radius:
            raise ValueError(f"sphere radius {n} is not in 0..{self.radius}")
        return range(self._level_start[n], self._level_start[n + 1])

    def geodesic_edges(self, vid: int) -> list[tuple]:
        """(child id, parent id, direction, m_g, m_p, m_c) for each edge p -> c
        of the ascending path root -> vid, in order: one id check per call."""
        if not (type(vid) is int and 0 <= vid < self._n):
            raise _id_error(self, vid)
        k, cycle, period, dims, dir_dims = (self._k, self._cycle, self._period,
                                            self._dims, self._dir_dims)
        edges = []
        while vid:
            p = (vid - 1) // k
            d = cycle[(vid - 1) % period]
            edges.append((vid, p, d, dir_dims[d.factor], dims[p], dims[vid]))
            vid = p
        edges.reverse()
        return edges

    def geodesic_ids(self, vid: int) -> list[int]:
        """Vertex ids along the unique ascending path root -> vid."""
        return [0] + [e[0] for e in self.geodesic_edges(vid)]

    def ascending_edges(self) -> Iterator[tuple]:
        """(parent id, child id, direction) for every geometric edge."""
        k, cycle, period = self._k, self._cycle, self._period
        for v in range(1, self._n):
            yield (v - 1) // k, v, cycle[(v - 1) % period]


def _id_error(tree: CayleyTree, vid) -> ValueError:
    """The refusal of every vertex accessor: `vid` is not an int (a bool is
    not one) in range(n_vertices)."""
    return ValueError(f"vertex id {vid!r} is not in range({tree.n_vertices})")


def _child_rule(spec: QuantumGroupSpec):
    """(absorbs, m1) of the child-dimension recursion over direction indices:

        m_child = m1[d] * m_v - m_parent   when (p, d) in absorbs,  else  m1[d] * m_v,

    for the child of v along d, v entered along p (-1 at the root, which absorbs
    nothing).  d absorbs the last letter of v exactly when p is a direction of
    d's factor with p.bar == -d.bar: always for Ao, whose bars are 0; for Au when
    a symbol meets its conjugate.  m1 holds each direction's generator dimension,
    in the type of `spec.dim_scalars`.  `_bfs_tree` and `_class_levels` read it."""
    dirs = spec.directions
    ndir = len(dirs)
    absorbs = {(p, d) for p in range(ndir) for d in range(ndir)
               if dirs[p].factor == dirs[d].factor and dirs[p].bar == -dirs[d].bar}
    return absorbs, [spec.dim_scalars[d.factor] for d in dirs]


def _bfs_tree(spec: QuantumGroupSpec, radius: int, cap: int, pattern=None):
    """Breadth-first structural closure of the Cayley tree, one level at a time.

    With a `pattern` of direction indices, level n + 1 expands only direction
    pattern[n % len(pattern)]: the closure is then one geodesic, one vertex a
    level, built by one step of the same recursion per level (its radius + 1
    vertices are not checked against the cap).  Returns the
    layout and the dimensions, `CayleyTree`'s (k, cycle, dims): k children per
    vertex (len(directions) for a tree, 1 for a ray), the cycle of direction
    indices (range(len(directions)) or the pattern) and the dims list (index =
    BFS id, root = 0, in the type of `spec.dim_scalars`).

    Every child's dimension, in the ray branch and in the level loop alike,
    is one step of `_child_rule`'s recursion, as in `_class_levels`.

    Every vertex of a level expands the same k directions, so with P the
    previous level's k, vertex r of a level was entered along the previous
    directions[r % P] and hangs below vertex r // P of the previous level:
    class i, level[i::P], lines up with the previous level, and its children
    along the j-th direction are one list comprehension, stored at
    children[i*k + j :: P*k].  The whole tree is complete k-ary in BFS
    order: vertex v > 0 hangs below (v - 1) // k along cycle[(v - 1) % len(cycle)].
    """
    absorbs, m1 = _child_rule(spec)
    dims = [spec.dim_scalars[0] ** 0]  # 1, in the type of spec.dim_scalars
    if pattern is not None:
        # a ray level is one vertex: one multiply per step, no level loop
        cycle, p = tuple(pattern), -1
        for n in range(radius):
            d = cycle[n % len(cycle)]
            m = dims[n] * m1[d]
            dims.append(m - dims[n - 1] if (p, d) in absorbs else m)
            p = d
        return 1, cycle, dims
    k = len(m1)
    cycle = range(k)
    level = list(dims)
    prev, prev_dirs = [], (-1,)  # the root was entered along no direction
    for _ in range(radius):
        period = len(prev_dirs)
        size = len(level) * k
        if len(dims) + size > cap:
            raise TreeSizeError(
                f"tree for {spec} at radius {radius} exceeds the vertex cap "
                f"{cap}; raise max_vertices explicitly if intended"
            )
        children = [None] * size
        for i, p in enumerate(prev_dirs):
            cls = level[i::period]
            for j, d in enumerate(cycle):
                m = m1[d]
                children[i * k + j::period * k] = (
                    [x * m - y for x, y in zip(cls, prev)] if (p, d) in absorbs
                    else [x * m for x in cls])
        dims += children
        prev, level, prev_dirs = level, children, cycle
    return k, cycle, dims


def _class_levels(spec: QuantumGroupSpec, radius: int) -> Iterator[dict]:
    """The state quotient of the tree of `radius`, one dict per depth n = 1..radius:
    {(m_p, m_c, direction index): [smallest child id, edge count]} over the edges
    p -> c into depth n.  A state fixes the subtree below c, so each level is the
    last one stepped by `_child_rule`, reading no vertex.  The children of v are
    k*v + 1 + d, so visiting the parent states in order of their smallest ids
    stores each child state's smallest id first."""
    absorbs, m1 = _child_rule(spec)
    k = len(m1)
    level = {(None, spec.dim_scalars[0] ** 0, -1): [0, 1]}  # the root, entered along no direction
    for _ in range(radius):
        states = {}
        for (mq, mp, p), (v, count) in level.items():
            for d, m in enumerate(m1):
                key = (mp, mp * m - mq if (p, d) in absorbs else mp * m, d)
                states.setdefault(key, [k * v + 1 + d, 0])[1] += count
        yield states
        level = states


def build_tree(spec: QuantumGroupSpec, radius: int,
               max_vertices: int = DEFAULT_VERTEX_CAP) -> CayleyTree:
    """Breadth-first closure of generator fusion from the root.

    Raises TreeSizeError instead of silently truncating when the closure
    would exceed `max_vertices` (unitary factors grow the tree as 2^radius).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return CayleyTree(spec, radius, *_bfs_tree(spec, radius, max_vertices))


def geodesic(tree: CayleyTree, vid: int) -> list[Edge]:
    """The unique ascending path root -> vid as Edge objects."""
    edges = tree.geodesic_edges(vid)
    # each edge's target word is the next edge's source
    words = [tree.word(0)] + [tree.word(e[0]) for e in edges]
    return [Edge(s, t, e[2], True) for s, t, e in zip(words, words[1:], edges)]


@dataclass
class ValidationReport:
    ok: bool
    n_vertices: int
    n_geometric_edges: int
    issues: list = field(default_factory=list)


def validate(tree: CayleyTree) -> ValidationReport:
    """Re-check the tree axioms and the fusion-dimension bookkeeping, in one
    pass over the ascending edges p -> c.

    Dimensions are recomputed letterwise from the words, independently of the
    stored dims and of the build's recursion: full[v] is the product of
    `letter_dim` over the letters of word(v), pre[v] over all but the last.
    A fusion summand of p keeps p's letters but the last, which it changes,
    drops, or follows with a new letter, so its letterwise dimension is one
    `letter_dim` times pre[p] or full[p] (a summand of another shape fails a
    word check).  The last summand is c's word: its dimension is c's check
    and gives c's products; a child whose word is not that summand takes
    them from its own letters.  One child per (parent, direction) needs no
    check: the layout has one slot for each.  Nor does the length grading:
    the sphere starts satisfy S_L = 1 + k * S_(L-1), so the parent
    (c - 1) // k of an id c in sphere L lies in sphere L - 1.
    """
    spec = tree.spec
    m1s = spec.dim_scalars
    one = m1s[0] ** 0  # 1, in the type of spec.dim_scalars
    word, dim = tree.word, tree.dim
    issues = []
    n = tree.n_vertices
    full, pre = [one] * n, [one] * n
    last = None
    for p, c, d in tree.ascending_edges():
        if p != last:  # the edges below p come in a run: read p once
            last, wp, mp, fp, pp = p, word(p), dim(p), full[p], pre[p]
            lp = len(wp.word)
        summands = fuse_generator(spec, wp, d)
        total = 0
        for s in summands:
            # p's letters and one new letter, p's with the last one changed, or
            # p's without the last one; m ends as the last summand's dimension
            ws = s.word
            m = (fp * letter_dim(spec, ws[-1]) if len(ws) > lp else
                 pp * letter_dim(spec, ws[-1]) if len(ws) == lp else pp)
            total += m
        wc = word(c)
        if wc == summands[-1]:
            full[c], pre[c] = m, (fp if len(wc.word) > lp else pp)
        else:
            issues.append(f"edge {p}->{c}: ascending fusion result mismatch")
            for letter in wc.word[:-1]:
                pre[c] *= letter_dim(spec, letter)
            full[c] = pre[c] * letter_dim(spec, wc.word[-1]) if wc.word else one
        if m != dim(c):
            issues.append(f"vertex {c}: stored dimension disagrees with letterwise product")
        if total != mp * m1s[d.factor]:
            issues.append(f"edge {p}->{c}: dimension bookkeeping fails")
        if len(summands) == 2:
            # the generator absorbed the last letter of p: the reduced word is p's parent
            if p == 0 or summands[0] != word(tree.parent(p)[0]):
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


def _checked_pattern(spec: QuantumGroupSpec, pattern) -> tuple:
    """`pattern` as a tuple; ValueError unless it is a nonempty sequence of
    directions of `spec`."""
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("empty direction pattern")
    if not set(pattern) <= set(spec.directions):
        raise ValueError(f"pattern {pattern} has a direction outside {spec}")
    return pattern


class GeodesicRay(CayleyTree):
    """Finite prefix of an infinite geodesic: the path tree of its first `steps` edges.

    The geodesic repeats the direction `pattern` forever from the root, always
    taking the ascending fusion result.  Vertex i is the ray vertex at distance
    i from the root, so path and fixed-vector computations can run far beyond
    any materializable tree radius; its word is built only when asked for.
    """

    def __init__(self, spec: QuantumGroupSpec, pattern, steps: int):
        if steps < 0:
            raise ValueError("steps must be >= 0")
        self.pattern = _checked_pattern(spec, pattern)
        codes = [spec.directions.index(d) for d in self.pattern]
        # a path of steps + 1 vertices: the cap cannot be reached
        super().__init__(spec, steps, *_bfs_tree(spec, steps, steps + 1, codes))
