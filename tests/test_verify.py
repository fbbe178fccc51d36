"""Criterion internals: negative controls that a criterion must catch.

Criterion 1 checks its large tree on the incremental route, one exact edge
check per edge class.  The quick profile never builds a tree that large, so
these run it at radius 9 (29,524 vertices for Ao(3)*Au(3)).
"""

from qcayley import qctree as qt
from qcayley import verify
from qcayley.cayley import build_tree
from qcayley.fusion import parse_spec
from qcayley.scalars import Radical

MIXED = parse_spec("Ao(3)*Au(3)")
RADIUS_9 = dict(verify.PROFILES["quick"], c1_radius=9)


def _mixed_line(result) -> str:
    return next(d for d in result.details if d.startswith("Ao(3)*Au(3):"))


def _edge_class(tree, c):
    p, d = tree.parent(c)
    return tree.dim(p), tree.dim(c), tree.directions.index(d), p == 0


def test_criterion_1_at_radius_9_takes_the_incremental_route():
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert result.passed, result.details
    line = _mixed_line(result)
    assert line.startswith("Ao(3)*Au(3): 29524 vertices radius<=9 exact (incremental+direct(")
    assert line.endswith(", 0 residuals")


def test_criterion_1_catches_e2_wrong_on_one_deep_edge_class(monkeypatch):
    tree = build_tree(MIXED, 9)
    target = _edge_class(tree, max(tree.sphere_ids(9), key=tree.dim))
    members = [c for c in range(1, tree.n_vertices) if _edge_class(tree, c) == target]
    # the class occurs only beyond radius 8, and has more than one edge
    assert len(members) > 1 and all(tree.length(c) == 9 for c in members)
    assert tree.edge_classes()[target] == (members[0], len(members))
    real_e2 = qt.e2

    def e2_wrong_on_the_class(t, vec):
        out = real_e2(t, vec)
        if t.spec == MIXED and len(vec) == 1:
            ((c, _),) = vec.items()
            if _edge_class(t, c) == target:
                out = out + qt.VertexVector({c: 1})
        return out

    monkeypatch.setattr(qt, "e2", e2_wrong_on_the_class)
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert not result.passed
    # residuals count edges, not classes
    assert _mixed_line(result).endswith(f", {len(members)} residuals")


def test_criterion_1_catches_the_sqrt_product_dropping_a_factor(monkeypatch):
    # the one product rule of e2 and times_sqrt
    real = Radical._sqrt_product
    monkeypatch.setattr(Radical, "_sqrt_product", lambda self, num, den: real(self, num, 1))
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert not result.passed
    assert not _mixed_line(result).endswith(", 0 residuals")


def test_criterion_1_catches_path_vectors_handing_one_id_a_wrong_root(monkeypatch):
    real = qt.path_vectors
    wrong = []

    def one_wrong_root(tree, ids):
        ids = list(ids)
        for v, vec in zip(ids, real(tree, ids)):
            if tree.spec == MIXED and v == ids[-1]:
                # the last edge gets the shared root of the edge above it
                coeffs = dict(vec.items())
                coeffs[v] = coeffs[tree.parent(v)[0]]
                vec = qt.GeomEdgeVector._of(coeffs)
                wrong.append(v)
            yield vec

    monkeypatch.setattr(qt, "path_vectors", one_wrong_root)
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert len(wrong) == 1 and build_tree(MIXED, 9).length(wrong[0]) == 9
    assert not result.passed
    assert _mixed_line(result).endswith(", 1 residuals")
    assert all(d.endswith(", 0 residuals") for d in result.details if d != _mixed_line(result))
