"""Weighted tree vectors: target map, paths, inverse series, Gram."""

import re
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcayley import qctree
from qcayley.cayley import CayleyTree, GeodesicRay, build_tree, canonical_ray_pattern, validate
from qcayley.errors import GateError
from qcayley.estimates import _certified_pd, _half_line
from qcayley.fusion import Direction, a_param, ao_dims, parse_spec, quantum_dim
from qcayley.qctree import (
    GeomEdgeVector,
    VertexVector,
    e2,
    e2_inverse_ao,
    fixed_vector,
    gram,
    gram_bound,
    path_norm_sq,
    path_target,
    path_vector,
)
from qcayley.scalars import QQ, Radical, sqrt_rational
from qcayley.verify import _gram_closed_oracle

from _oracles import au_word

AO3 = parse_spec("Ao(3)")
AO4 = parse_spec("Ao(4)")
AU3 = parse_spec("Au(3)")
MIXED = parse_spec("Ao(3)*Au(3)")
AO5_2 = parse_spec("Ao(5/2)")  # a = 2 exactly: the series between dimensions 2 and 3
# the infinite geodesics of period two that alternate the two factors
MIXED_PATTERNS = [(a, b) for a in MIXED.directions for b in MIXED.directions
                  if a.factor != b.factor]


def _oracle_e2_unit_edge(tree, child):
    """Independent route: unnormalized target map E2(x_(a,b)) = (m_a m_g / m_b) x_b,
    pushed through the antisymmetric normalization by hand."""
    pvid, d = tree.parent(child)
    ma, mb, mg = tree.dim(pvid), tree.dim(child), tree.dir_dim(d)
    scale = sqrt_rational(1 / (2 * ma * mb * mg))
    return VertexVector({
        child: scale * (ma * mg),
        pvid: scale * (-(mb * mg)),
    })


def _rationals(x) -> list:
    """Every scalar inside x: a rational, a Radical or a vector of Radicals."""
    if isinstance(x, Radical):
        return [x._p, x._s]
    if hasattr(x, "items"):
        return [q for _, r in x.items() for q in _rationals(r)]
    return [x]


def _with_fraction_dims(tree):
    """The same layout with Fraction dims, read through the public accessors:
    k is the root's child count, and the cycle lists every parent-edge direction."""
    n = tree.n_vertices
    cycle = [tree.directions.index(tree.parent(v)[1]) for v in range(1, n)]
    return CayleyTree(tree.spec, tree.radius, len(tree.sphere_ids(1)), cycle,
                      [Fraction(tree.dim(v)) for v in range(n)])


@pytest.mark.parametrize("spec", [AO3, AU3, MIXED], ids=str)
def test_integral_tree_gives_no_float_and_the_fraction_dims_results(spec):
    tree = build_tree(spec, 5)
    twin = _with_fraction_dims(tree)
    assert type(tree.dim(1)) is int and type(twin.dim(1)) is Fraction
    ops = [path_norm_sq, path_target, lambda t, v: e2(t, path_vector(t, v))]
    for v in range(tree.n_vertices):
        for op in ops:
            got = op(tree, v)
            assert all(isinstance(q, Rational) for q in _rationals(got))
            assert got == op(twin, v)
    fv = fixed_vector(spec, 5)
    for name in ("vector", "tail_bound", "norm_sq", "residual_norm"):
        assert all(isinstance(q, Rational) for q in _rationals(getattr(fv, name)))
    ray = _with_fraction_dims(fv.basis)
    assert type(fv.basis.dim(1)) is int and type(ray.dim(1)) is Fraction
    assert (fv.vector, fv.norm_sq) == (path_vector(ray, 5), path_norm_sq(ray, 5))


# -- sparse vectors -----------------------------------------------------------

def test_constructor_drops_zero_values_and_equals_the_wrapped_nonzero_entries():
    half = Radical.sqrt_of(QQ(1, 2))
    vec = VertexVector({0: 0, 1: QQ(2), 2: Radical(), 3: half, 4: half - half})
    nonzero = {1: Radical.from_rational(2), 3: half}
    assert dict(vec.items()) == nonzero
    wrapped = VertexVector._of(dict(nonzero))
    assert vec == wrapped and hash(vec) == hash(wrapped)
    assert VertexVector({0: 0}) == VertexVector() and VertexVector({0: 0}).is_zero()


def test_add_drops_a_key_whose_sum_cancels_and_leaves_both_operands_unchanged():
    half = Radical.sqrt_of(QQ(1, 2))
    x = GeomEdgeVector({1: 1, 2: half})
    y = GeomEdgeVector({1: 2, 2: -half, 3: QQ(1, 3)})
    before = dict(x.items()), dict(y.items())
    for total in (x + y, y + x):
        assert dict(total.items()) == {1: Radical.from_rational(3), 3: Radical.from_rational(QQ(1, 3))}
        assert total == GeomEdgeVector({1: 3, 3: QQ(1, 3)})
        assert (dict(x.items()), dict(y.items())) == before


def test_vectors_over_the_two_bases_do_not_add():
    vertex, edge = VertexVector({1: 1}), GeomEdgeVector({1: 1})
    with pytest.raises(TypeError):
        vertex + edge
    with pytest.raises(TypeError):
        edge + vertex
    assert vertex != edge


# -- target map ---------------------------------------------------------------

def test_e2_frozen_coefficients_first_edge():
    tree = build_tree(AO3, 3)
    img = dict(e2(tree, GeomEdgeVector({1: 1})).items())
    c1, c0 = img[1], img[0]
    assert (c1 * c1).as_rational() == QQ(1, 2) and c1.sign() > 0
    assert (c0 * c0).as_rational() == QQ(9, 2) and c0.sign() < 0


def test_e2_frozen_coefficients_second_edge():
    tree = build_tree(AO3, 3)
    img = dict(e2(tree, GeomEdgeVector({2: 1})).items())
    assert (img[2] * img[2]).as_rational() == QQ(9, 16)
    assert (img[1] * img[1]).as_rational() == QQ(4)


def test_e2_zero_vector():
    tree = build_tree(AO3, 3)
    assert e2(tree, GeomEdgeVector()).is_zero()


def test_e2_matches_unnormalized_oracle_everywhere():
    for text in ("Au(3)", "Ao(3)*Au(3)", "Ao(7/2)"):
        tree = build_tree(parse_spec(text), 3)
        for child in range(1, tree.n_vertices):
            assert e2(tree, GeomEdgeVector({child: 1})) == _oracle_e2_unit_edge(tree, child)


def _coefficient_cases(tree, child):
    """A path coefficient (every image rational), a single-term coefficient whose
    images stay irrational, and a rational plus a surd in the square class of
    both images: the up and down weights differ by the square (m_a/m_b)^2."""
    pvid, d = tree.parent(child)
    ma, mb, mg = tree.dim(pvid), tree.dim(child), tree.dir_dim(d)
    return (sqrt_rational(2 / (mg * ma * mb)),
            QQ(3, 7) * sqrt_rational(QQ(5, 11)),
            1 + QQ(2, 3) * sqrt_rational(mg * ma / (2 * mb)))


@pytest.mark.parametrize("text", ["Ao(3)*Au(3)", "Ao(7/2)*Au(3)"])
def test_edge_maps_match_general_product(text):
    tree = build_tree(parse_spec(text), 3)
    classical = tree.classical()
    for child in range(1, tree.n_vertices):
        pvid, d = tree.parent(child)
        ma, mb, mg = tree.dim(pvid), tree.dim(child), tree.dir_dim(d)
        up, down = mg * ma / mb, mg * mb / ma
        square = sqrt_rational(up / 2).is_rational  # then the third case is rational
        for n, coeff in enumerate(_coefficient_cases(tree, child)):
            img = e2(tree, GeomEdgeVector({child: coeff}))
            assert img == VertexVector({child: coeff * Radical.sqrt_of(up / 2),
                                        pvid: -(coeff * Radical.sqrt_of(down / 2))})
            assert (n == 0 or n == 2 and square) == all(v.is_rational for _, v in img.items())
        half = Radical.sqrt_of(QQ(1, 2))
        assert e2(classical, GeomEdgeVector({child: 1})) == VertexVector({child: half, pvid: -half})


def test_e2_refuses_a_coefficient_of_another_square_class():
    # on an edge whose weight m_g m_a / (2 m_b) is neither a rational square
    # nor in the class of 2, (1 + sqrt 2) times its root would need two surds
    tree = build_tree(parse_spec("Ao(3)*Au(3)"), 3)
    refused = 0
    for child in range(1, tree.n_vertices):
        pvid, d = tree.parent(child)
        weight = tree.dir_dim(d) * tree.dim(pvid) / (2 * tree.dim(child))
        vec = GeomEdgeVector({child: 1 + sqrt_rational(2)})
        if sqrt_rational(weight).is_rational or sqrt_rational(2 * weight).is_rational:
            e2(tree, vec)
            continue
        with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(" + str(weight) + r"\)"):
            e2(tree, vec)
        refused += 1
    assert refused


def _oracle_e2(tree, vec):
    """Independent route for e2: each edge read through parent, dim and dir_dim,
    two times_sqrt products per edge, the parent's from its own square root,
    each vertex summed as Radicals."""
    out = {}
    for c, coeff in vec.items():
        p, d = tree.parent(c)
        mg, mp, mc = QQ(tree.dir_dim(d)), QQ(tree.dim(p)), QQ(tree.dim(c))
        gn, gd = mg.numerator, mg.denominator
        u, v = mp.numerator * mc.denominator, mp.denominator * mc.numerator
        qctree._bump(out, c, coeff.times_sqrt(gn * u, 2 * gd * v))
        qctree._bump(out, p, -coeff.times_sqrt(gn * v, 2 * gd * u))
    return VertexVector._of(out)


def _per_field_edge(tree, c):
    """(p, direction, m_g, m_p, m_c) of the edge below c from parent, dim and dir_dim."""
    p, d = tree.parent(c)
    return p, d, tree.dir_dim(d), tree.dim(p), tree.dim(c)


@pytest.mark.parametrize("make", [
    lambda: build_tree(MIXED, 4),
    lambda: GeodesicRay(MIXED, MIXED_PATTERNS[0], 30),
    lambda: build_tree(parse_spec("Ao(7/2)*Au(3)"), 4).classical(),
    lambda: _with_fraction_dims(build_tree(parse_spec("Ao(7/2)*Au(3)"), 4)),
], ids=["tree", "ray", "classical", "fraction-dims"])
def test_edge_equals_the_per_field_reads(make):
    tree = make()
    for c in range(1, tree.n_vertices):
        got = tree.edge(c)
        assert got == _per_field_edge(tree, c)
        assert [type(x) for x in got] == [type(x) for x in _per_field_edge(tree, c)]
    with pytest.raises(ValueError, match="vertex 0 is the root; it has no parent edge"):
        tree.edge(0)
    with pytest.raises(ValueError, match="vertex id"):
        tree.edge(tree.n_vertices)


def _assert_e2_is_the_oracle(tree, vec):
    """e2 gives the oracle's repr with no zero entry, or raises its ValueError."""
    try:
        expected = _oracle_e2(tree, vec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            e2(tree, vec)
        return None
    got = e2(tree, vec)
    assert repr(got) == repr(expected)
    assert not any(x.is_zero() for _, x in got.items())
    return got


@pytest.mark.parametrize("text, radius", [("Au(3)", 6), ("Ao(7/2)*Au(3)", 4)])
def test_e2_equals_the_oracle_on_every_path_vector(text, radius):
    tree = build_tree(parse_spec(text), radius)
    for v in range(tree.n_vertices):
        got = _assert_e2_is_the_oracle(tree, path_vector(tree, v))
        # every interior vertex of the path cancels
        assert {k for k, _ in got.items()} == ({v, 0} if v else set())


_E2_TREES = [build_tree(parse_spec(text), 3) for text in ("Ao(3)*Au(3)", "Ao(7/2)*Au(3)")]


@st.composite
def _adjacent_edge_vectors(draw):
    """(tree, vector) on 1-4 edges meeting at one vertex, each coefficient a
    rational, q*sqrt(r) or p + q*sqrt(r); r is 2, 3, or a radicand that makes
    the edge's products rational, so a shared vertex meets both routes."""
    tree = draw(st.sampled_from(_E2_TREES))
    x = draw(st.integers(0, tree.sphere_ids(tree.radius).start - 1))  # not a leaf
    k = len(tree.sphere_ids(1))
    incident = ([x] if x else []) + [c for c in range(x * k + 1, x * k + k + 1)
                                     if c < tree.n_vertices]
    edges = draw(st.lists(st.sampled_from(incident), min_size=1, max_size=4, unique=True))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    coeffs = {}
    for c in edges:
        p, d = tree.parent(c)
        mp, mc, mg = tree.dim(p), tree.dim(c), tree.dir_dim(d)
        q = draw(nonzero)
        kind = draw(st.sampled_from(["rational", "surd", "rational + surd"]))
        if kind == "rational":
            coeffs[c] = Radical.from_rational(q)
            continue
        r = draw(st.sampled_from([QQ(2), QQ(3), 2 / (mg * mp * mc), 2 * mc / (mg * mp)]))
        coeffs[c] = q * sqrt_rational(r)
        if kind == "rational + surd":
            coeffs[c] = coeffs[c] + draw(nonzero)
    return tree, GeomEdgeVector(coeffs)


@given(_adjacent_edge_vectors())
@settings(max_examples=200, deadline=None)
def test_e2_equals_the_oracle_on_adjacent_edges(case):
    _assert_e2_is_the_oracle(*case)


def test_e2_merges_a_rational_pair_with_a_surd_and_drops_what_cancels():
    tree = _E2_TREES[0]  # the root's children 1, 2, 3 all have m_c = m_g = 3
    path = dict(path_vector(tree, 1).items())[1]
    # edge 1's terms are rational; edge 2's coefficient 1 gives surds, and
    # edge 3's -1 gives their negatives, so the root keeps edge 1's rational
    got = _assert_e2_is_the_oracle(tree, GeomEdgeVector({1: path, 2: 1, 3: -1}))
    assert dict(got.items())[0] == QQ(-1) and len(got) == 4
    # edge 3's sqrt(2) times its sqrt(1/2) is rational: the root merges a pair and a surd
    got = _assert_e2_is_the_oracle(tree, GeomEdgeVector({1: path, 2: 1, 3: sqrt_rational(2)}))
    root = dict(got.items())[0]
    assert not root.is_rational and root._p == -4  # -1 from edge 1, -3 from edge 3


def test_e2_refuses_two_square_classes_met_at_one_vertex():
    # the edges 1 and 2 send sqrt(2/9 r) to -sqrt(r) at the root
    tree = _E2_TREES[0]
    vec = GeomEdgeVector({1: sqrt_rational(QQ(4, 9)), 2: sqrt_rational(QQ(6, 9))})
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        e2(tree, vec)
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        _oracle_e2(tree, vec)


def test_path_target_entries():
    tree = build_tree(parse_spec("Ao(7/2)*Au(3)"), 2)
    classical = tree.classical()
    assert path_target(tree, 0).is_zero()
    for vid in range(1, tree.n_vertices):
        target = path_target(tree, vid)
        assert dict(target.items()) == {vid: Radical.from_rational(1 / QQ(tree.dim(vid))),
                                        0: Radical.from_rational(-1)}
        assert path_target(classical, vid) == VertexVector({vid: 1, 0: -1})


# -- counit ---------------------------------------------------------------------

def _counit(tree, vec):
    """eps(xt_a) = m_a, extended linearly."""
    return sum((coeff * tree.dim(v) for v, coeff in vec.items()), Radical())


def test_counit_annihilates_target_map_of_geometric_edges():
    for text in ("Ao(3)", "Au(3)", "Ao(3)*Au(3)", "Ao(7/2)"):
        tree = build_tree(parse_spec(text), 4)
        for child in range(1, tree.n_vertices):
            assert _counit(tree, e2(tree, GeomEdgeVector({child: 1}))).is_zero()


# -- path vectors ------------------------------------------------------------------

def test_path_vector_single_edge_frozen():
    tree = build_tree(AO3, 3)
    z = path_vector(tree, 1)
    assert z == GeomEdgeVector({1: sqrt_rational(QQ(2, 9))})
    assert e2(tree, z) == VertexVector({1: QQ(1, 3), 0: QQ(-1)})


def test_path_vector_trivial_is_zero():
    tree = build_tree(AO3, 3)
    assert path_vector(tree, 0).is_zero()
    assert path_target(tree, 0).is_zero()


def test_unit_weight_paths_are_classically_proper():
    tree = build_tree(AU3, 5).classical()
    for v in range(tree.n_vertices):
        assert path_norm_sq(tree, v) == 2 * tree.length(v)
        z = path_vector(tree, v)
        assert e2(tree, z) == path_target(tree, v)


def test_classical_view_leaves_the_weighted_tree_untouched():
    tree = build_tree(MIXED, 4)
    dims = [tree.dim(v) for v in range(tree.n_vertices)]
    norms = [path_norm_sq(tree, v) for v in range(tree.n_vertices)]
    assert validate(tree).ok
    classical = tree.classical()
    assert all(classical.dim(v) == 1 for v in range(classical.n_vertices))
    assert all(classical.dir_dim(d) == 1 for d in MIXED.directions)
    assert [classical.word(v) for v in range(9)] == [tree.word(v) for v in range(9)]
    assert [tree.dim(v) for v in range(tree.n_vertices)] == dims
    assert [path_norm_sq(tree, v) for v in range(tree.n_vertices)] == norms
    assert validate(tree).ok and not validate(classical).ok


def _path_vectors_with(tree, vid):
    return list(qctree.path_vectors(tree, [1, vid]))


@pytest.mark.parametrize("fn", [path_target, path_norm_sq, path_vector, _path_vectors_with],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("vid", [-1, -3, 40, True, False, 2.0])
def test_vertex_ids_outside_the_tree_are_refused(fn, vid):
    tree = build_tree(MIXED, 3)
    assert tree.n_vertices == 40
    with pytest.raises(ValueError, match="vertex id"):
        fn(tree, vid)


def test_telescoping_identity_small_trees():
    for text in ("Ao(3)", "Ao(4)", "Au(3)", "Ao(3)*Au(3)", "Ao(7/2)"):
        tree = build_tree(parse_spec(text), 5)
        for v in range(tree.n_vertices):
            assert e2(tree, path_vector(tree, v)) == path_target(tree, v)


def test_path_norms_match_vector_norms():
    tree = build_tree(parse_spec("Ao(3)*Au(3)"), 5)
    for v in range(0, tree.n_vertices, 37):
        norm_sq = sum((c * c for _, c in path_vector(tree, v).items()), Radical())
        assert norm_sq.as_rational() == path_norm_sq(tree, v)


def _fraction_term(tree, c):
    """2/(m_g m_p m_c) of the edge below c, in Fraction arithmetic."""
    p, d = tree.parent(c)
    return Fraction(2) / (Fraction(tree.dir_dim(d)) * Fraction(tree.dim(p)) * Fraction(tree.dim(c)))


def test_integer_path_norms_equal_the_fraction_sums():
    tree = build_tree(parse_spec("Ao(7/2)*Au(3)"), 6)
    assert tree.n_vertices == 1093
    for v in range(tree.n_vertices):
        ids = tree.geodesic_ids(v)[1:]
        got = path_norm_sq(tree, v)
        assert type(got) is Fraction
        terms = [Fraction(*qctree._edge_term(tree.dir_dim(tree.parent(c)[1]),
                                             tree.dim(tree.parent(c)[0]), tree.dim(c)))
                 for c in ids]
        assert got == sum(terms, Fraction(0))
        assert got == sum((_fraction_term(tree, c) for c in ids), Fraction(0))
    classical = tree.classical()
    assert all(path_norm_sq(classical, v) == 2 * classical.length(v)
               for v in range(classical.n_vertices))


@pytest.mark.parametrize("text", ["Ao(3)", "Ao(7/2)", "Ao(3)*Au(3)"])
def test_deep_integer_path_norm_equals_the_fraction_sum(text):
    spec = parse_spec(text)
    ray = GeodesicRay(spec, canonical_ray_pattern(spec), 300)
    expected = sum((_fraction_term(ray, c) for c in range(1, 301)), Fraction(0))
    assert path_norm_sq(ray, 300) == expected


@pytest.mark.parametrize("text", ["Ao(7/2)*Au(3)", "Ao(3)*Au(3)", "Ao(4)"])
def test_path_vector_coefficients_are_the_fraction_terms(text):
    tree = build_tree(parse_spec(text), 4)
    for v in range(tree.n_vertices):
        expected = {c: sqrt_rational(_fraction_term(tree, c)) for c in tree.geodesic_ids(v)[1:]}
        assert path_vector(tree, v) == GeomEdgeVector(expected)


_ASSEMBLER_TREES = [("Au(3)", 6), ("Ao(7/2)*Au(3)", 4)]


@pytest.mark.parametrize("text, radius", _ASSEMBLER_TREES)
def test_path_vectors_equal_path_vector(text, radius):
    tree = build_tree(parse_spec(text), radius)
    ids = list(range(tree.n_vertices))
    assert [repr(x) for x in qctree.path_vectors(tree, ids)] == \
        [repr(path_vector(tree, v)) for v in ids]
    # in any order, with repeats: each vector is its own geodesic's
    shuffled = ids[::-7] + ids[::5] + [ids[-1]] * 2
    got = list(qctree.path_vectors(tree, shuffled))
    assert [repr(x) for x in got] == [repr(path_vector(tree, v)) for v in shuffled]
    roots = [x for vec in got for _, x in vec.items()]
    assert any(x.is_rational for x in roots) and not all(x.is_rational for x in roots)


@pytest.mark.parametrize("make", [
    *[lambda t=t, r=r: build_tree(parse_spec(t), r) for t, r in _ASSEMBLER_TREES],
    lambda: GeodesicRay(AO3, canonical_ray_pattern(AO3), 200),
], ids=[t for t, _ in _ASSEMBLER_TREES] + ["Ao(3)-ray-200"])
def test_root_is_the_sqrt_of_the_reduced_term(make):
    tree = make()
    roots = []
    for c in range(1, tree.n_vertices):
        _, _, mg, mp, mc = _per_field_edge(tree, c)
        term = qctree._edge_term(mg, mp, mc)
        root = qctree._root(*term)
        assert repr(root) == repr(sqrt_rational(QQ(*term)))
        assert type(root._p) is Fraction
        roots.append(root)
    assert any(x.is_rational for x in roots) and not all(x.is_rational for x in roots)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 50))
@settings(max_examples=200)
def test_root_of_an_unreduced_pair(num, den, g):
    want = sqrt_rational(QQ(num, den))
    for pair in ((num, den), (num * g, den * g), (num * g * g, den * g * g)):
        got = qctree._root(*pair)
        assert repr(got) == repr(want) and got == want and hash(got) == hash(want)


# -- fixed vector ---------------------------------------------------------------------

def test_fixed_vector_half_line_bounds():
    fv = fixed_vector(AO3, 40)
    assert QQ(2546, 10**4) < fv.norm_sq < QQ(2547, 10**4)
    assert fv.tail_bound < QQ(1, 10**30)
    dims = ao_dims(QQ(3), 41)
    assert fv.residual_norm == 1 / dims[40]
    assert fv.residual_norm < QQ(1, 10**16)


def test_fixed_vector_dimension_two_refused():
    with pytest.raises(GateError, match="dimension"):
        fixed_vector(parse_spec("Ao(2)"), 10)


def test_fixed_vector_negative_radius_refused():
    with pytest.raises(ValueError, match="radius"):
        fixed_vector(AO3, -1)


@pytest.mark.parametrize("pattern, match", [((), "empty direction pattern"),
                                            ((Direction(1, 0),), "direction outside")], ids=str)
def test_fixed_vector_refuses_a_bad_pattern_before_reading_it(pattern, match):
    # the ray's pattern check runs before the growth floor reads the factors
    with pytest.raises(ValueError, match=match):
        fixed_vector(AO3, 5, pattern)


def test_fixed_vector_unitary_ray_converges():
    fv = fixed_vector(AU3, 25)
    # alternating-word dimensions satisfy the same recursion as the half line
    assert fv.norm_sq == fixed_vector(AO3, 25).norm_sq
    assert fv.tail_bound < QQ(1, 10**19)
    for i in range(5):
        assert fv.basis.dim(i) == quantum_dim(AU3, fv.basis.word(i))


def test_classical_tree_has_no_fixed_vector_or_inverse_series():
    # a tree is refused, not read as its spec: the vectors live on fresh rays
    tree = build_tree(AO3, 8).classical()
    with pytest.raises(TypeError, match="QuantumGroupSpec"):
        fixed_vector(tree, 6)
    with pytest.raises(TypeError, match="QuantumGroupSpec"):
        e2_inverse_ao(tree, 1, 6)


_HALF_LINE = canonical_ray_pattern(AO3)
_SPEC_ENTRY_POINTS = {
    "fixed_vector": lambda source: fixed_vector(source, 6),
    "e2_inverse_ao": lambda source: e2_inverse_ao(source, 1, 6),
    "gram": lambda source: gram(source, 0, 1, 6),
    "gram_bound": lambda source: gram_bound(source, 2, 6),
}


@pytest.mark.parametrize("fn", sorted(_SPEC_ENTRY_POINTS))
@pytest.mark.parametrize("source", ["tree", "ray"])
def test_a_tree_or_a_ray_as_source_is_refused(fn, source):
    # both would pass a `.spec` lookup; neither may be re-keyed silently
    given = build_tree(AO3, 8) if source == "tree" else GeodesicRay(AO3, _HALF_LINE, 8)
    with pytest.raises(TypeError, match="QuantumGroupSpec"):
        _SPEC_ENTRY_POINTS[fn](given)


@pytest.mark.parametrize("q", MIXED_PATTERNS, ids=str)
def test_fixed_vector_from_a_ray_uses_the_asked_pattern(q):
    # the vector is keyed by a fresh ray along q, whatever ray is at hand
    fv = fixed_vector(MIXED, 8, q)
    assert fv.basis.pattern == q and fv.basis.n_vertices == 10
    assert sorted(c for c, _ in fv.vector.items()) == list(range(1, 9))
    for i in range(1, 10):
        assert fv.basis.parent(i) == (i - 1, q[(i - 1) % 2])
    for p in MIXED_PATTERNS:
        with pytest.raises(TypeError, match="QuantumGroupSpec"):
            fixed_vector(GeodesicRay(MIXED, p, 20), 8, q)


def test_fixed_vector_on_a_tree_matches_the_ray():
    # the truncation is the path vector of the ball vertex at the ray's end,
    # found through a test-side word -> id lookup; a ball of radius 8 holds it
    for spec, patterns in ((MIXED, MIXED_PATTERNS), (AU3, [None])):
        tree = build_tree(spec, 8)
        ids = {tree.word(v): v for v in range(tree.n_vertices)}
        for q in patterns:
            fv = fixed_vector(spec, 8, q)
            end = ids[fv.basis.word(8)]
            assert fv.norm_sq == path_norm_sq(tree, end)
            assert {tree.word(c): x for c, x in path_vector(tree, end).items()} \
                == {fv.basis.word(c): x for c, x in fv.vector.items()}
            assert [tree.length(ids[fv.basis.word(c)]) for c in sorted(c for c, _ in fv.vector.items())] \
                == list(range(1, 9))
    # Au(3)'s default ray is the alternating spine u, uU, uUu, ... of the binary tree
    assert [fv.basis.word(i) for i in (1, 2)] == [au_word("u"), au_word("uU")]


def test_fixed_vector_tail_brackets_refinement():
    fv20 = fixed_vector(AO3, 20)
    fv40 = fixed_vector(AO3, 40)
    assert fv20.norm_sq <= fv40.norm_sq <= fv20.norm_sq + fv20.tail_bound


# -- inverse series ----------------------------------------------------------------------

def test_inverse_residual_k0():
    inv = e2_inverse_ao(AO3, 0, 20)
    dims = ao_dims(QQ(3), 22)
    assert inv.residual_norm == 1 / dims[21]
    assert inv.residual_norm < QQ(1, 10**8)


def test_inverse_k0_is_minus_fixed_vector():
    inv = e2_inverse_ao(AO3, 0, 20)
    fv = fixed_vector(AO3, 21)
    assert inv.vector == GeomEdgeVector({c: -x for c, x in fv.vector.items()})


@pytest.mark.parametrize("text, k, radius", [("Ao(3)", 0, 20), ("Ao(3)", 1, 30), ("Ao(4)", 3, 25),
                                             ("Ao(7/2)", 2, 20)])
def test_inverse_entries_are_minus_m_k_times_the_path_vector(text, k, radius):
    # the entries are built directly from each path entry's rational part or
    # signed square; Ao(3)'s edge below vertex 2 has the rational entry 1/6
    spec = parse_spec(text)
    inv = e2_inverse_ao(spec, k, radius)
    m_k = ao_dims(spec.factors[0].dimq, k + 1)[k]
    expected = GeomEdgeVector({c: -(m_k * x) for c, x in path_vector(inv.basis, radius + 1).items()
                               if c > k})
    assert inv.vector == expected and repr(inv.vector) == repr(expected)
    assert all(not x.is_zero() for _, x in inv.vector.items())
    if text == "Ao(3)" and k < 2:
        assert dict(inv.vector.items())[2] == -m_k * QQ(1, 6)


def test_inverse_single_term_truncation():
    inv = e2_inverse_ao(AO3, 5, 5)
    assert len(inv.vector) == 1
    dims = ao_dims(QQ(3), 7)
    assert inv.residual_norm == dims[5] / dims[6]
    assert float(inv.residual_norm) == pytest.approx(0.381963, abs=1e-5)


@pytest.mark.parametrize("k, radius", [(0, 0), (0, 20), (3, 7), (5, 40), (12, 12)])
def test_inverse_tail_is_m_k_squared_times_the_ray_tail(k, radius):
    # the inverse series reads its tail from the half-line table; the fixed
    # vector's comes from its own ray, past the same vertex R + 1
    m_k = ao_dims(QQ(3), k + 1)[k]
    assert e2_inverse_ao(AO3, k, radius).tail_bound == \
        m_k * m_k * fixed_vector(AO3, radius + 1).tail_bound


@pytest.mark.parametrize("k, radius", [(0, 10), (3, 12), (8, 30)])
def test_inverse_residual_below_dimension_three(k, radius):
    # Ao(5/2) passes the one growth gate: the residual is m_k / m_{R+1}, exactly
    dims = ao_dims(QQ(5, 2), radius + 2)
    assert e2_inverse_ao(AO5_2, k, radius).residual_norm == dims[k] / dims[radius + 1]


def test_inverse_gates():
    with pytest.raises(GateError):
        e2_inverse_ao(AU3, 0, 10)
    with pytest.raises(GateError):
        e2_inverse_ao(parse_spec("Ao(2)"), 0, 10)
    with pytest.raises(GateError):
        e2_inverse_ao(parse_spec("Ao(3)*Ao(3)"), 0, 10)


# -- Gram entries ---------------------------------------------------------------------------

def test_gram_symmetry_exact():
    for k, l in ((0, 5), (2, 7), (3, 3)):
        a = gram(AO3, k, l, 30)
        b = gram(AO3, l, k, 30)
        assert a.lo == b.lo and a.hi == b.hi


def test_gram_00_matches_fixed_vector_series():
    g = gram(AO3, 0, 0, 40)
    fv = fixed_vector(AO3, 41)
    assert g.lo == fv.norm_sq  # identical partial sums
    assert g.width < QQ(1, 10**12)


def test_gram_closed_form_oracle():
    # sum_{i>=j} 1/(m_i m_{i+1}) telescopes to 1/a - m_{j-1}/m_j in the field of a
    a = a_param(QQ(3)).exact
    inv_a = Radical.from_rational(QQ(3)) - a
    dims = ao_dims(QQ(3), 12)
    for k, l in ((0, 0), (1, 4), (3, 10), (7, 7)):
        j = max(k, l)
        tailsum = inv_a - Radical.from_rational(dims[j - 1] / dims[j] if j else QQ(0))
        exact = tailsum * (2 * dims[k] * dims[l] / dims[1])
        enclosure = exact.interval(160)
        g = gram(AO3, k, l, 50)
        assert not (enclosure.hi < g.lo or g.hi < enclosure.lo)


def test_gram_refinement_bracketing():
    g1 = gram(AO3, 2, 5, 20)
    g2 = gram(AO3, 2, 5, 40)
    assert g1.lo <= g2.lo and g2.hi <= g1.hi


def test_gram_decay_bound():
    dee = gram_bound(AO3, 10, 50)
    a_hi = a_param(QQ(3)).interval.hi
    g = gram(AO3, 0, 5, 50)
    assert g.hi * a_hi ** 5 <= dee


def test_gram_below_dimension_three_contains_the_closed_sum_and_decays():
    # at a = 2 the closed sum is rational, so containment and decay are exact checks
    kmax, radius = 8, 40
    dee = gram_bound(AO5_2, kmax, radius)
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            oracle = _gram_closed_oracle(QQ(5, 2), k, l)
            assert oracle.is_rational
            g = gram(AO5_2, k, l, radius)
            assert g.lo <= oracle.as_rational() <= g.hi, (k, l)
            assert g.hi <= dee * QQ(1, 2) ** abs(k - l), (k, l)


def test_gram_matrix_positive_semidefinite_30():
    # certified: every matrix in the interval Gram box is positive definite
    size = 31
    box = [[gram(AO3, min(k, l), max(k, l), 75) for l in range(size)] for k in range(size)]
    assert _certified_pd(box)


_GRAM_SPECS = ["Ao(3)", "Ao(4)", "Ao(7/2)", "Ao(5/2)"]


def _unscaled_gram(series, k, l, radius):
    """(lo, hi) of the Gram entry as 2 m_k m_l / m_1 times the prefix difference
    prefix[R] - prefix[j-1], and that plus the tail, j = max(k, l)."""
    dims, prefix, tail, _ = series
    j = max(k, l)
    s = prefix[radius] - prefix[j - 1] if j else prefix[radius]
    weight = 2 * dims[k] * dims[l] / dims[1]
    return weight * s, weight * (s + tail)


@pytest.mark.parametrize("text", _GRAM_SPECS)
def test_gram_entries_and_bound_equal_the_unscaled_sums(text):
    spec, radius, kmax = parse_spec(text), 60, 20
    series = _half_line(spec.factors[0].dimq, radius)
    dims, a_hi = series[0], a_param(spec.factors[0].dimq).interval.hi
    best = 0
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            g = gram(spec, k, l, radius)
            want = _unscaled_gram(series, k, l, radius)
            assert (g.lo, g.hi) == want, (k, l)
            if k <= l:
                best = max(best, want[1] * dims[1] / 2 * a_hi ** (l - k))
    assert gram_bound(spec, kmax, radius) == 2 * best / dims[1]


def test_gram_entries_at_two_radii_in_either_call_order():
    # the cached sums are keyed by the radius as well as by dimq and j
    want = {radius: _unscaled_gram(_half_line(3, radius), 4, 9, radius) for radius in (40, 60)}
    assert want[40] != want[60]
    for order in ((40, 60), (60, 40)):
        qctree._entry_sums.cache_clear()
        for radius in order + order:
            g = gram(AO3, 4, 9, radius)
            assert (g.lo, g.hi) == want[radius], (order, radius)


def test_a_gram_table_reads_the_series_once_and_each_j_once(monkeypatch):
    calls = {"series": 0, "sums": 0}
    sums = qctree._entry_sums.__wrapped__

    def counting_series(*args):
        calls["series"] += 1
        return _half_line(*args)

    def counting_sums(*args):
        calls["sums"] += 1
        return sums(*args)

    monkeypatch.setattr(qctree, "_gram_series", lru_cache(maxsize=64)(counting_series))
    monkeypatch.setattr(qctree, "_entry_sums",
                        lru_cache(**qctree._entry_sums.cache_parameters())(counting_sums))
    for k in range(21):
        for l in range(21):
            gram(AO4, k, l, 60)
    assert calls["series"] == 1
    assert calls["sums"] <= 21
