"""Tree construction, queries, rays, validation."""

from fractions import Fraction

import pytest

from qcayley import cayley, fusion
from qcayley.cayley import (
    CayleyTree,
    Edge,
    GeodesicRay,
    ValidationReport,
    build_tree,
    canonical_ray_pattern,
    geodesic,
    validate,
)
from qcayley.errors import TreeSizeError
from qcayley.fusion import (
    Direction,
    Irrep,
    TRIVIAL,
    ao_dims,
    ao_irrep,
    au_word,
    fuse_generator,
    irrep_length,
    parse_spec,
    quantum_dim,
)


def _ids(tree):
    """The test-side word -> id lookup of a tree: the ball holds each word once."""
    ids = {tree.word(v): v for v in range(tree.n_vertices)}
    assert len(ids) == tree.n_vertices
    return ids


def test_half_line_shape():
    tree = build_tree(parse_spec("Ao(3)"), 5)
    assert tree.n_vertices == 6
    assert len(list(tree.ascending_edges())) == 5
    assert [tree.length(v) for v in range(6)] == list(range(6))
    assert [int(tree.dim(v)) for v in range(6)] == [1, 3, 8, 21, 55, 144]


def test_unitary_binary_tree_shape():
    tree = build_tree(parse_spec("Au(3)"), 2)
    words = {tree.word(v) for v in range(tree.n_vertices)}
    assert words == {TRIVIAL, au_word("u"), au_word("U"), au_word("uu"),
                     au_word("uU"), au_word("Uu"), au_word("UU")}
    # every non-root vertex has exactly two ascending children stored
    deep = build_tree(parse_spec("Au(3)"), 3)
    for v in deep.sphere_ids(1):
        kids = [c for c in range(deep.n_vertices) if c and deep.parent(c)[0] == v]
        assert len(kids) == 2


def test_radius_zero():
    tree = build_tree(parse_spec("Ao(3)*Au(3)"), 0)
    assert tree.n_vertices == 1
    assert list(tree.ascending_edges()) == []


def test_sphere_counts_and_errors():
    tree = build_tree(parse_spec("Au(3)"), 4)
    assert len(tree.sphere_ids(2)) == 4
    assert tree.sphere_ids(0) == range(1)
    half = build_tree(parse_spec("Ao(3)"), 7)
    assert all(len(half.sphere_ids(n)) == 1 for n in range(8))
    for n in (5, -1):
        with pytest.raises(ValueError, match="sphere radius"):
            tree.sphere_ids(n)


def test_geodesic_half_line():
    tree = build_tree(parse_spec("Ao(3)"), 5)
    assert tree.word(3) == ao_irrep(3)
    path = geodesic(tree, 3)
    assert [(e.source, e.target) for e in path] == \
        [(ao_irrep(0), ao_irrep(1)), (ao_irrep(1), ao_irrep(2)), (ao_irrep(2), ao_irrep(3))]


@pytest.mark.parametrize("read", [
    lambda t, v: t.parent(v), lambda t, v: t.dim(v), lambda t, v: t.length(v),
    lambda t, v: t.word(v), geodesic, lambda t, v: t.geodesic_ids(v),
    lambda t, v: t.geodesic_edges(v), lambda t, v: t.edge(v),
], ids=["parent", "dim", "length", "word", "geodesic", "geodesic_ids", "geodesic_edges", "edge"])
def test_negative_vertex_ids_are_refused(read):
    # Python would read -1 as vertex 39, the last one
    tree = build_tree(parse_spec("Ao(3)*Au(3)"), 3)
    assert tree.n_vertices == 40
    # nor is a bool, a float or a word a vertex id
    for vid in (-1, -40, -41, True, 2.0, tree.word(2)):
        with pytest.raises(ValueError, match="vertex id"):
            read(tree, vid)


@pytest.mark.parametrize("read, vid", [
    (geodesic, 40), (geodesic, True), (geodesic, False), (lambda t, v: t.word(v), 40),
    (lambda t, v: t.word(v), True), (lambda t, v: t.geodesic_ids(v), 40),
    (lambda t, v: t.geodesic_ids(v), True), (lambda t, v: t.parent(v), 40),
    (lambda t, v: t.dim(v), 40), (lambda t, v: t.length(v), 40),
    (lambda t, v: t.dim(v), True), (lambda t, v: t.length(v), True),
    (lambda t, v: t.parent(v), True), (lambda t, v: t.dim(v), 2.0),
    (lambda t, v: t.parent(v), 2.0), (lambda t, v: t.word(v), 2.0),
    (geodesic, au_word("u", 1)), (geodesic, TRIVIAL),
    (lambda t, v: t.edge(v), 40), (lambda t, v: t.edge(v), True),
    (lambda t, v: t.edge(v), False), (lambda t, v: t.edge(v), 2.0),
    (lambda t, v: t.edge(v), 0.0), (lambda t, v: t.edge(v), TRIVIAL),
], ids=["geodesic-40", "geodesic-True", "geodesic-False", "word-40", "word-True",
        "geodesic_ids-40", "geodesic_ids-True", "parent-40", "dim-40", "length-40",
        "dim-True", "length-True", "parent-True", "dim-2.0", "parent-2.0", "word-2.0",
        "geodesic-word", "geodesic-trivial-word", "edge-40", "edge-True", "edge-False",
        "edge-2.0", "edge-0.0", "edge-trivial-word"])
def test_geodesic_and_word_refuse_ids_outside_the_tree(read, vid):
    with pytest.raises(ValueError, match="vertex id"):
        read(build_tree(parse_spec("Ao(3)*Au(3)"), 3), vid)


@pytest.mark.parametrize("tree", [build_tree(parse_spec("Ao(3)*Au(3)"), 3),
                                  GeodesicRay(parse_spec("Au(3)"), (Direction(0, 1),), 4)],
                         ids=["tree", "ray"])
def test_edge_refuses_the_root(tree):
    with pytest.raises(ValueError, match="^vertex 0 is the root; it has no parent edge$"):
        tree.edge(0)
    assert tree.edge(1)[0] == 0


def test_geodesic_directions_match_letters():
    tree = build_tree(parse_spec("Au(3)"), 4)
    path = geodesic(tree, _ids(tree)[au_word("uU")])
    assert [e.direction for e in path] == [Direction(0, 1), Direction(0, -1)]
    assert geodesic(tree, 0) == []


def test_geodesic_alternates_factors_exactly_when_letters_do():
    spec = parse_spec("Ao(3)*Au(3)")
    tree = build_tree(spec, 6)
    for v in range(tree.n_vertices):
        dirs = [e.direction for e in geodesic(tree, v)]
        word = tree.word(v)
        expanded = []
        for fidx, payload in word.word:
            expanded.extend([fidx] * (payload if isinstance(payload, int) else len(payload)))
        assert [d.factor for d in dirs] == expanded


def test_vertex_lookup_round_trip():
    # the words of a ball are distinct, each read back from the parent chain
    tree = build_tree(parse_spec("Ao(3)*Au(3)"), 5)
    ids = _ids(tree)
    for v in range(tree.n_vertices):
        assert ids[tree.word(v)] == v
        assert [ids[e.target] for e in geodesic(tree, v)] == tree.geodesic_ids(v)[1:]
    assert au_word("uuuuuuuu", 1) not in ids


def test_vertex_cap_raises_instead_of_truncating():
    with pytest.raises(TreeSizeError, match="vertex cap"):
        build_tree(parse_spec("Au(3)"), 20, max_vertices=1000)


@pytest.mark.parametrize("text, radius", [("Ao(3)", 12), ("Ao(7/2)", 10), ("Au(3)", 8),
                                          ("Au(3)*Au(4)", 5), ("Ao(3)*Ao(4)*Au(3)", 5)])
def test_level_builder_matches_the_letterwise_dimensions(text, radius):
    # the builder reads no letter: the words, the letterwise product and the
    # fusion rules are an independent route to every dimension and sphere
    spec = parse_spec(text)
    tree = build_tree(spec, radius)
    ndir = len(spec.directions)
    assert tree.n_vertices == sum(ndir ** n for n in range(radius + 1))
    for n in range(radius + 1):
        sphere = tree.sphere_ids(n)
        assert len(sphere) == ndir ** n
        words = {tree.word(v) for v in sphere}
        assert len(words) == ndir ** n
        assert all(irrep_length(w) == n for w in words)
        assert all(tree.length(v) == n for v in sphere)
    for v in range(tree.n_vertices):
        assert tree.dim(v) == quantum_dim(spec, tree.word(v))
    report = validate(tree)
    assert report.ok, report.issues[:5]


@pytest.mark.parametrize("text, radius", [("Au(3)", 6), ("Ao(3)*Au(3)", 4), ("Ao(3)", 9),
                                          ("Ao(3)*Ao(4)*Au(3)", 3)])
def test_vertex_cap_is_exact(text, radius):
    spec = parse_spec(text)
    n = build_tree(spec, radius).n_vertices
    assert build_tree(spec, radius, max_vertices=n).n_vertices == n
    with pytest.raises(TreeSizeError, match="vertex cap"):
        build_tree(spec, radius, max_vertices=n - 1)


def test_validate_clean_trees():
    for text in ("Ao(3)", "Au(3)", "Ao(3)*Au(3)", "Ao(7/2)"):
        report = validate(build_tree(parse_spec(text), 4))
        assert report.ok, report.issues


def _with_one_wrong_dim(where):
    """A built Au(3) tree of radius 3 with the stored dimension of one inner
    vertex or one leaf off by one, and that vertex."""
    spec = parse_spec("Au(3)")
    tree = build_tree(spec, 3)
    n, ndir = tree.n_vertices, len(spec.directions)
    v = 2 if where == "inner" else n - 1
    dims = [tree.dim(u) for u in range(n)]
    dims[v] += 1
    return CayleyTree(spec, 3, ndir, range(ndir), dims), v


@pytest.mark.parametrize("where", ["inner", "leaf"])
def test_validate_flags_a_wrong_stored_dimension(where):
    # the letterwise check names the vertex, and an inner vertex fails its
    # children's bookkeeping too
    tree, v = _with_one_wrong_dim(where)
    ndir = len(tree.directions)
    report = validate(tree)
    assert not report.ok
    assert [i for i in report.issues if i.startswith("vertex")] == \
        [f"vertex {v}: stored dimension disagrees with letterwise product"]
    assert len(report.issues) == (1 + ndir if where == "inner" else 1)


@pytest.mark.parametrize("radius, count", [(1, 7), (2, 5)])
def test_tree_refuses_dims_of_another_size(radius, count):
    # the seven dims of the radius-2 Au(3) ball read at radius 1 would put
    # vertex 5 past the radius; five of them at radius 2 would give a
    # sphere 2 of ids 3..6 in a five-vertex tree
    spec = parse_spec("Au(3)")
    tree = build_tree(spec, 2)
    dims = [tree.dim(v) for v in range(tree.n_vertices)][:count]
    with pytest.raises(ValueError, match=f"{count} dims do not fill a tree of radius {radius}"):
        CayleyTree(spec, radius, 2, range(2), dims)


def test_rational_dimension_tree():
    tree = build_tree(parse_spec("Ao(7/2)"), 4)
    from qcayley.scalars import QQ

    assert tree.dim(2) == QQ(45, 4)
    assert validate(tree).ok


def test_infinite_geodesic_lazy_ray():
    spec = parse_spec("Au(3)")
    ray = GeodesicRay(spec, canonical_ray_pattern(spec), 4)
    assert [ray.word(i) for i in range(5)] == \
        [TRIVIAL, au_word("u"), au_word("uU"), au_word("uUu"), au_word("uUuU")]
    assert [int(ray.dim(i)) for i in range(5)] == [1, 3, 8, 21, 55]
    # dims along the ray agree with the letterwise product
    for i in range(5):
        assert ray.dim(i) == quantum_dim(spec, ray.word(i))


def test_ray_patterns_for_mixed_products():
    spec = parse_spec("Ao(3)*Ao(3)")
    ray = GeodesicRay(spec, canonical_ray_pattern(spec), 4)
    assert [int(ray.dim(i)) for i in range(5)] == [1, 3, 9, 27, 81]


MIXED = parse_spec("Ao(3)*Au(3)")
PERIOD_LE_2 = [(d,) for d in MIXED.directions] + [
    (d, e) for d in MIXED.directions for e in MIXED.directions]


RATIONAL_MIXED = parse_spec("Ao(7/2)*Au(3)")  # Fraction dims: the ray step multiplies rationals


@pytest.mark.parametrize("spec, pattern",
                         [(MIXED, q) for q in PERIOD_LE_2] + [(RATIONAL_MIXED, q) for q in PERIOD_LE_2],
                         ids=[str(q) for q in PERIOD_LE_2] + [f"Ao(7/2)*Au(3)-{q}" for q in PERIOD_LE_2])
def test_rays_match_tree_vertices(spec, pattern):
    tree = build_tree(spec, 8)
    ray = GeodesicRay(spec, pattern, 8)
    assert ray.n_vertices == 9
    ids = _ids(tree)
    v = 0
    for i in range(9):
        if i:
            d = pattern[(i - 1) % len(pattern)]
            assert ray.parent(i) == (i - 1, d)
            u, v = v, ids[ray.word(i)]
            assert tree.parent(v) == (u, d)
        assert ray.word(i) == tree.word(v)
        assert ray.dim(i) == tree.dim(v)


@pytest.mark.parametrize("pattern", PERIOD_LE_2, ids=str)
def test_rays_are_valid_path_trees(pattern):
    ray = GeodesicRay(MIXED, pattern, 12)
    report = validate(ray)
    assert report.ok, report.issues
    assert report.n_vertices == 13 and ray.radius == 12
    assert [len(ray.sphere_ids(n)) for n in range(13)] == [1] * 13


def test_ray_refuses_empty_pattern():
    with pytest.raises(ValueError, match="empty direction pattern"):
        GeodesicRay(MIXED, (), 3)


def test_ray_refuses_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        GeodesicRay(MIXED, canonical_ray_pattern(MIXED), -3)
    assert GeodesicRay(MIXED, canonical_ray_pattern(MIXED), 0).n_vertices == 1


@pytest.mark.parametrize("pattern", [(Direction(2, 0),), (Direction(0, 0), Direction(0, 1)),
                                     (Direction(1, 0),)], ids=str)
def test_ray_refuses_a_direction_outside_the_spec(pattern):
    # MIXED's directions are (0, 0) for its Ao factor and (1, +1), (1, -1) for its Au factor
    with pytest.raises(ValueError, match="direction outside"):
        GeodesicRay(MIXED, pattern, 3)


def test_half_line_beyond_127_levels():
    spec = parse_spec("Ao(3)")
    tree = build_tree(spec, 150)
    assert tree.n_vertices == 151
    assert [tree.dim(v) for v in range(151)] == ao_dims(3, 151)


def test_more_than_127_directions():
    tree = build_tree(parse_spec("*".join(["Au(3)"] * 65)), 1)
    assert tree.n_vertices == 131


@pytest.mark.parametrize("text, kind", [("Ao(3)", int), ("Au(3)", int), ("Ao(3)*Au(3)", int),
                                        ("Ao(7/2)", Fraction), ("Ao(7/2)*Au(3)", Fraction)])
def test_tree_and_ray_store_one_dimension_type(text, kind):
    # ints exactly when every factor's dimq is integral, equal to the letterwise product
    spec = parse_spec(text)
    for source in (build_tree(spec, 4), GeodesicRay(spec, canonical_ray_pattern(spec), 8)):
        for v in range(source.n_vertices):
            letterwise = quantum_dim(spec, source.word(v))
            assert type(source.dim(v)) is kind and type(letterwise) is kind
            assert source.dim(v) == letterwise


# -- validate against its letter-by-letter oracle ------------------------------------

def _oracle_validate(tree):
    """validate letter by letter: the dimension of each fusion summand is the
    product of `letter_dim` over all of its letters (`quantum_dim`)."""
    spec = tree.spec
    m1s = spec.dim_scalars
    issues = []
    n = tree.n_vertices
    for p, c, d in tree.ascending_edges():
        summands = fuse_generator(spec, tree.word(p), d)
        if tree.word(c) != summands[-1]:
            issues.append(f"edge {p}->{c}: ascending fusion result mismatch")
        dims = [quantum_dim(spec, s) for s in summands]
        if dims[-1] != tree.dim(c):
            issues.append(f"vertex {c}: stored dimension disagrees with letterwise product")
        if sum(dims) != tree.dim(p) * m1s[d.factor]:
            issues.append(f"edge {p}->{c}: dimension bookkeeping fails")
        if len(summands) == 2:
            if p == 0 or summands[0] != tree.word(tree.parent(p)[0]):
                issues.append(f"edge {p}->{c}: descending summand is not p's parent")
    return ValidationReport(not issues, n, n - 1, issues)


def _assert_validate_is_the_oracle(tree):
    report = validate(tree)
    assert report == _oracle_validate(tree)  # ok, both counts and the issues in order
    return report


@pytest.mark.parametrize("text, radius", [("Ao(3)", 9), ("Au(3)", 6), ("Ao(3)*Au(3)", 5),
                                          ("Ao(7/2)*Au(3)", 4)])
def test_validate_equals_the_oracle_on_clean_trees(text, radius):
    assert _assert_validate_is_the_oracle(build_tree(parse_spec(text), radius)).ok


@pytest.mark.parametrize("spec, pattern", [(MIXED, (Direction(0, 0), Direction(1, -1))),
                                           (RATIONAL_MIXED, (Direction(1, 1), Direction(0, 0))),
                                           (parse_spec("Au(3)"), (Direction(0, 1),))], ids=str)
def test_validate_equals_the_oracle_on_rays(spec, pattern):
    assert _assert_validate_is_the_oracle(GeodesicRay(spec, pattern, 15)).ok


@pytest.mark.parametrize("where", ["inner", "leaf"])
def test_validate_equals_the_oracle_on_a_wrong_stored_dimension(where):
    assert not _assert_validate_is_the_oracle(_with_one_wrong_dim(where)[0]).ok


def test_validate_equals_the_oracle_on_a_word_extended_with_the_wrong_bar(monkeypatch):
    # vertex v's word u1u1 reads as u1U1: the edge into v, every edge out of
    # v (whose summands are fused from the wrong word) and the descending
    # checks below v's children fail, and each child's products come from
    # its own letters
    tree = build_tree(MIXED, 4)
    v = next(u for u in tree.sphere_ids(2) if tree.word(u) == au_word("uu", 1))
    true_word = CayleyTree.word

    def word(self, vid):
        w = true_word(self, vid)
        if vid != v:
            return w
        f, symbols = w.word[-1]
        return Irrep(w.word[:-1] + ((f, symbols[:-1] + (-symbols[-1],)),))

    monkeypatch.setattr(CayleyTree, "word", word)
    report = _assert_validate_is_the_oracle(tree)
    p = tree.parent(v)[0]
    assert f"edge {p}->{v}: ascending fusion result mismatch" in report.issues
    assert f"edge {v}->{3 * v + 1}: ascending fusion result mismatch" in report.issues


def test_validate_reads_its_dimensions_from_the_letters(monkeypatch):
    # one letter's dimension off by one, with every stored dimension right:
    # validate fails, so the dimensions it checks come from the letters
    tree = build_tree(MIXED, 4)
    assert validate(tree).ok
    true_letter_dim = fusion.letter_dim

    def letter_dim(spec, letter):
        return true_letter_dim(spec, letter) + (letter == (1, (1, -1)))

    for module in (fusion, cayley):
        monkeypatch.setattr(module, "letter_dim", letter_dim)
    report = _assert_validate_is_the_oracle(tree)
    assert not report.ok
    assert any(i.startswith("vertex") for i in report.issues)


# -- value contracts of the vertex layer ------------------------------------------------

def test_irrep_keeps_a_tuple_word_and_coerces_any_other_sequence():
    irrep = Irrep([(0, 1)])
    assert type(irrep.word) is tuple and irrep.word == ((0, 1),)
    assert hash(irrep) == hash(Irrep(((0, 1),)))
    tree = build_tree(MIXED, 4)
    for v in range(tree.n_vertices):
        w = tree.word(v)
        assert type(w.word) is tuple
        rebuilt = Irrep(list(w.word))
        assert w == rebuilt and hash(w) == hash(rebuilt)


def test_irreps_and_edges_are_immutable():
    tree = build_tree(MIXED, 3)
    edge = geodesic(tree, 20)[-1]
    with pytest.raises(AttributeError):
        tree.word(20).word = ()
    with pytest.raises(AttributeError):
        edge.target = TRIVIAL
    with pytest.raises(AttributeError):
        edge.ascending = False
    assert edge.target == tree.word(20)


def test_equal_edges_hash_equal():
    # two builds share no Irrep object, so the equality is by value
    first, second = build_tree(MIXED, 4), build_tree(MIXED, 4)
    for v in range(0, first.n_vertices, 7):
        a, b = geodesic(first, v), geodesic(second, v)
        assert a == b and [hash(e) for e in a] == [hash(e) for e in b]
        assert len(set(a + b)) == len(a)
    assert Edge(TRIVIAL, au_word("u", 1), Direction(1, 1), True) != \
        Edge(TRIVIAL, au_word("u", 1), Direction(1, -1), True)


@pytest.mark.parametrize("text, radius", [("Au(3)", 5), ("Ao(7/2)*Au(3)", 4)])
def test_geodesic_equals_the_per_edge_construction(text, radius):
    # the per-edge reads geodesic was built from: each edge's words, parent and direction
    tree = build_tree(parse_spec(text), radius)
    for v in range(tree.n_vertices):
        ids = [v]
        while ids[-1]:
            ids.append(tree.parent(ids[-1])[0])
        ids.reverse()
        assert geodesic(tree, v) == [Edge(tree.word(p), tree.word(c), tree.parent(c)[1], True)
                                     for p, c in zip(ids, ids[1:])]
        assert tree.geodesic_ids(v) == ids
        assert tree.geodesic_edges(v) == [
            (c, p, tree.parent(c)[1], tree.dir_dim(tree.parent(c)[1]), tree.dim(p), tree.dim(c))
            for p, c in zip(ids, ids[1:])]


# the trees the state quotient is checked on: two or three factors, one Ao (k = 1),
# Fraction dimensions, and dimension 2, where one state recurs at many depths
QUOTIENT_TREES = [("Ao(3)*Au(3)", 12), ("Au(3)", 12), ("Ao(3)*Ao(4)", 10), ("Ao(7/2)*Au(3)", 9),
                  ("Ao(3)", 12), ("Ao(2)*Au(2)", 8), ("Au(3)*Au(4)*Ao(5)", 6)]


def _oracle_edge_classes(tree, children=None):
    """{(m_p, m_c, direction index, p == 0): (first child id, edge count)} over
    the edges p -> c with c in `children` (default: every edge), in order of
    each class's first edge: one dict lookup per edge."""
    dims, k, period = tree._dims, tree._k, tree._period
    cycle = [tree.directions.index(d) for d in tree._cycle]
    classes = {}
    for c in children or range(1, tree.n_vertices):
        p = (c - 1) // k
        key = (dims[p], dims[c], cycle[(c - 1) % period], p == 0)
        hit = classes.get(key)
        if hit is None:
            classes[key] = [c, 1]
        else:
            hit[1] += 1
    return {key: tuple(hit) for key, hit in classes.items()}


@pytest.mark.parametrize("text, radius", QUOTIENT_TREES)
def test_class_levels_merged_are_the_edge_classes(text, radius):
    spec = parse_spec(text)
    merged = {}
    for n, level in enumerate(cayley._class_levels(spec, radius), 1):
        for (mp, mc, j), (c, count) in level.items():
            merged.setdefault((mp, mc, j, n == 1), [c, 0])[1] += count
    oracle = _oracle_edge_classes(build_tree(spec, radius, max_vertices=900_000))
    # keys, first ids and counts, in the same order
    assert [(key, tuple(hit)) for key, hit in merged.items()] == list(oracle.items())


@pytest.mark.parametrize("text, radius", QUOTIENT_TREES[1:])
def test_class_levels_store_each_state_at_its_smallest_child(text, radius):
    # setdefault keeps the first id it meets: the smallest, since the parent
    # states are visited in order of their smallest ids
    tree = build_tree(parse_spec(text), radius)
    levels = list(cayley._class_levels(tree.spec, radius))
    assert len(levels) == radius
    for n, level in enumerate(levels, 1):
        firsts = [c for c, _ in level.values()]
        assert firsts == sorted(set(firsts)) and firsts[0] == tree.sphere_ids(n).start
        oracle = _oracle_edge_classes(tree, tree.sphere_ids(n))
        assert {key[:3]: list(hit) for key, hit in oracle.items()} == level


@pytest.mark.parametrize("text, radius", QUOTIENT_TREES + [("Ao(3)*Au(3)", 0)])
def test_class_levels_count_every_edge(text, radius):
    spec = parse_spec(text)
    k = len(spec.directions)
    counts = [sum(count for _, count in level.values())
              for level in cayley._class_levels(spec, radius)]
    assert counts == [k ** n for n in range(1, radius + 1)]
    assert sum(counts) == sum(k ** n for n in range(radius + 1)) - 1  # n_vertices - 1
