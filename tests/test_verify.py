"""Criterion internals: negative controls that a criterion must catch.

Criterion 1 checks its large tree on the incremental route, one exact edge
check per state of the tree's class quotient.  The quick profile never builds
a tree that large, so these run it at radius 9 (29,524 vertices for
Ao(3)*Au(3)).
"""

from math import isqrt

from qcayley import qctree as qt
from qcayley import verify
from qcayley.cayley import _class_levels, build_tree
from qcayley.cli import main
from qcayley.fusion import parse_spec
from qcayley.scalars import QQ, Radical

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
    assert list(_class_levels(MIXED, 9))[-1][target[:3]] == [members[0], len(members)]
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


def test_criterion_1_catches_a_wrong_built_dimension_at_a_class_representative(monkeypatch):
    # the edge identity holds for any positive dimensions, so only the check of
    # the built edge against its state sees this
    v = build_tree(MIXED, 9).sphere_ids(5).start
    assert any(c == v for c, _ in list(_class_levels(MIXED, 9))[4].values())
    real = verify.build_tree

    def one_wrong_dim(spec, radius, **kwargs):
        tree = real(spec, radius, **kwargs)
        if spec == MIXED:
            tree._dims[v] += 1
        return tree

    monkeypatch.setattr(verify, "build_tree", one_wrong_dim)
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert not result.passed
    # v's state (1 edge) and the states of its three children, which are their
    # representatives (1 + 2 + 2 edges)
    assert _mixed_line(result).endswith(", 6 residuals")


def test_criterion_1_catches_a_state_missing_from_the_quotient(monkeypatch):
    real = verify._class_levels
    dropped = []

    def without_the_last_state(spec, radius):
        levels = list(real(spec, radius))
        if spec == MIXED:
            dropped.append(levels[-1].pop(list(levels[-1])[-1])[1])
        return levels

    monkeypatch.setattr(verify, "_class_levels", without_the_last_state)
    result = verify.criterion_1(RADIUS_9, verify.DEFAULT_SEED)
    assert not result.passed
    assert _mixed_line(result).endswith(f", {dropped[0]} residuals")


def test_a_refused_image_fails_its_criteria_and_the_rest_still_run(monkeypatch, capsys):
    # every root rational: e2 then meets surds of two square classes at one
    # vertex in the audits of fixed_vector (criteria 2 and 10) and
    # e2_inverse_ao (criterion 3), and in criterion 1's path vectors
    monkeypatch.setattr(qt, "_root", lambda num, den: Radical(QQ(isqrt(num * den), den)))
    assert main(["verify", "--profile", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    status = {int(line.split()[1]): line.split()[2] for line in lines
              if line.startswith("criterion ")}
    assert status == {n: "FAIL" if n in (1, 2, 3, 10) else "PASS" for n in range(1, 11)}
    assert lines[-1] == "6/10 criteria passed; FAILED: [1, 2, 3, 10]"
    for n, audit in [(2, "fixed-vector"), (3, "inverse-series"), (10, "fixed-vector")]:
        at = lines.index(f"criterion {n:02d} FAIL {verify.NAMES[n]}")
        assert lines[at + 1] == f"    audit failed: {audit} residual audit failed"
