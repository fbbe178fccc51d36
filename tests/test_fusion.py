"""Labels, fusion rules, dimension sequences, growth parameter."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcayley.errors import GateError, SpecSyntaxError
from qcayley.fusion import (
    Direction,
    FactorSpec,
    Irrep,
    TRIVIAL,
    a_param,
    ao_dims,
    au_word_dim,
    format_irrep,
    format_spec,
    fuse_generator,
    growth_floor,
    parse_spec,
    quantum_dim,
)
from qcayley.cayley import build_tree
from qcayley.cli import main
from qcayley.aunitary import cg_bounds_closed, cn_lower
from qcayley.estimates import nonuni_norm_sq, rd_norm_sq
from qcayley.qctree import e2_inverse_ao, fixed_vector, gram, gram_bound
from qcayley.scalars import QQ, Interval, Radical

from _oracles import ao_irrep, au_word, irrep_length


# -- spec grammar ------------------------------------------------------------

def test_parse_single_factor():
    spec = parse_spec("Ao(3)")
    assert len(spec.factors) == 1
    assert spec.factors[0].kind == "Ao" and spec.factors[0].dimq == 3


def test_parse_free_product_order():
    spec = parse_spec("Ao(3)*Au(3)")
    assert [f.kind for f in spec.factors] == ["Ao", "Au"]


def test_parse_rational_and_decimal():
    assert parse_spec("Ao(7/2)").factors[0].dimq == QQ(7, 2)
    assert parse_spec("Au(3.5)").factors[0].dimq == QQ(7, 2)
    assert format_spec(parse_spec("Au(3.5)")) == "Au(7/2)"


def test_parse_dimq_below_one_rejected():
    with pytest.raises(SpecSyntaxError, match="dimq below 2"):
        parse_spec("Ao(0.5)")


def test_parse_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("Ao(3)+Au(3)")
    assert err.value.position == 5
    with pytest.raises(SpecSyntaxError):
        parse_spec("Ax(3)")
    with pytest.raises(SpecSyntaxError):
        parse_spec("Ao(3")


def test_printer_round_trip():
    for text in ("Ao(3)", "Ao(3)*Au(3)", "Au(7/2)*Ao(4)*Au(2)"):
        assert format_spec(parse_spec(text)) == text


def test_parse_tolerates_whitespace():
    assert format_spec(parse_spec("  Ao(3) * Au( 7/2 ) ")) == "Ao(3)*Au(7/2)"


@given(st.lists(st.tuples(st.sampled_from(["Ao", "Au"]),
                          st.fractions(min_value=2, max_value=50, max_denominator=12)),
                min_size=1, max_size=4))
@settings(max_examples=50)
def test_round_trip_property(factors):
    from qcayley.fusion import QuantumGroupSpec

    spec = QuantumGroupSpec(tuple(FactorSpec(k, QQ(d)) for k, d in factors))
    assert parse_spec(format_spec(spec)) == spec


# -- growth parameter ---------------------------------------------------------

def _bisect_growth(dimq, iters=200):
    # independent oracle: bisection on a + 1/a = dimq over [1, dimq]
    lo, hi = Fraction(1), Fraction(dimq)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid + 1 / mid < dimq:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_a_param_double_root_at_two():
    gp = a_param(QQ(2))
    assert gp.interval.lo == 1 and gp.interval.hi == 1
    assert gp.exact.as_rational() == 1


def test_a_param_dimq_three_matches_bisection():
    gp = a_param(QQ(3))
    lo, hi = _bisect_growth(Fraction(3))
    assert gp.interval.lo <= QQ(hi) and QQ(lo) <= gp.interval.hi
    # substitute back: a + 1/a - 3 must straddle zero tightly
    iv = gp.interval
    residual = iv + iv.inverse() - Interval.point(QQ(3))
    assert residual.contains(0) and float(residual.width) < 1e-12


def test_a_param_non_unimodular_case():
    gp = a_param(QQ(7, 2))
    assert float(gp.interval.mid) == pytest.approx(3.1861406616, abs=1e-9)
    # exact root of a^2 - (7/2) a + 1 = 0 in the quadratic field
    assert gp.exact * gp.exact - QQ(7, 2) * gp.exact + 1 == Radical.from_rational(0)


_DIMQS = ([QQ(d) for d in range(3, 41)]
          + [QQ(p, q) for q in range(2, 10) for p in range(2 * q + 1, 6 * q) if QQ(p, q).denominator == q])


@pytest.mark.parametrize("tol", [QQ(1, 10**12), QQ(1, 10**30)])
def test_a_param_encloses_the_root(tol):
    for d in _DIMQS:
        iv = a_param(d, tol).interval
        assert iv.lo >= 1
        assert iv.lo * iv.lo - d * iv.lo + 1 <= 0 <= iv.hi * iv.hi - d * iv.hi + 1
        assert iv.width <= tol


@pytest.mark.parametrize("dimq, root", [(QQ(5, 2), 2), (QQ(10, 3), 3)])
def test_a_param_rational_root_is_a_point(dimq, root):
    gp = a_param(dimq)
    assert gp.interval.lo == gp.interval.hi == root
    assert gp.exact == root


def test_a_param_gate():
    with pytest.raises(GateError):
        a_param(QQ(3, 2))


@pytest.mark.parametrize("tol", [0, -1, QQ(-1, 10**30), float("nan")], ids=str)
def test_a_param_refuses_a_tolerance_that_is_not_positive(tol):
    # no enclosure has width <= 0: the bit count would double without end
    for dimq in (QQ(3), QQ(5, 2)):
        with pytest.raises(ValueError, match="tol must be positive"):
            a_param(dimq, tol)


def _oracle_a_param(dimq, tol=QQ(1, 10**30)):
    """(interval, exact) by the Radical route (dimq + sqrt(dimq^2 - 4)) / 2, with
    the enclosure's bit count found by one Fraction 1/(q 2^(bits+1)) per doubling."""
    dimq = QQ(dimq)
    exact = (Radical.from_rational(dimq) + Radical.sqrt_of(dimq * dimq - 4)) / 2
    if exact.is_rational:
        return Interval.point(exact.as_rational()), exact
    p, q = dimq.numerator, dimq.denominator
    bits = 64
    while QQ(1, q << (bits + 1)) > tol:
        bits *= 2
    s = isqrt((p * p - 4 * q * q) << (2 * bits))
    return Interval(QQ((p << bits) + s, q << (bits + 1)),
                    QQ((p << bits) + s + 1, q << (bits + 1))), exact


_SQUARE_DISC = [QQ(2), QQ(5, 2), QQ(10, 3), QQ(17, 4), QQ(26, 5)]  # p^2 - 4q^2 a square
_SURD_DISC = [QQ(3), QQ(7, 2), QQ(12), QQ(2001, 1000)]
_TOLS = [None, QQ(1, 10**12), QQ(1, 10**60), QQ(1, 10**200)]


@pytest.mark.parametrize("tol", _TOLS, ids=["default", "1e-12", "1e-60", "1e-200"])
@pytest.mark.parametrize("dimq", _SQUARE_DISC + _SURD_DISC, ids=str)
def test_a_param_equals_the_radical_route(dimq, tol):
    got = a_param(dimq) if tol is None else a_param(dimq, tol)
    interval, exact = _oracle_a_param(dimq) if tol is None else _oracle_a_param(dimq, tol)
    assert (got.interval.lo, got.interval.hi) == (interval.lo, interval.hi)
    assert type(got.interval.lo) is QQ and type(got.interval.hi) is QQ
    assert (got.exact._p, got.exact._s) == (exact._p, exact._s)
    assert type(got.exact._p) is QQ
    # Radical._sqrt_product takes the rational branch only on the int 0
    assert type(got.exact._s) is (int if dimq in _SQUARE_DISC else QQ)
    assert got.exact.is_rational == (dimq in _SQUARE_DISC)


@pytest.mark.parametrize("tol", [1e-12, 1e-40, 2.5e-100, 0.3, 1.0, 7.0])
def test_a_param_float_tolerance_is_its_exact_rational(tol):
    for dimq in _SURD_DISC + [QQ(5, 2)]:
        assert a_param(dimq, tol) == a_param(dimq, QQ(tol))


def test_a_param_infinite_tolerance_gives_the_64_bit_enclosure():
    for dimq in _SURD_DISC + [QQ(5, 2)]:
        got = a_param(dimq, float("inf"))
        interval, _ = _oracle_a_param(dimq, float("inf"))
        assert got.interval == interval == a_param(dimq, 1).interval
    q = QQ(7, 2).denominator
    assert a_param(QQ(7, 2), float("inf")).interval.width == QQ(1, q << 65)


@pytest.mark.parametrize("dimq", [QQ(3), QQ(7, 2), QQ(4)])
def test_growth_floor_above_refines_past_the_bound(dimq):
    # a lower end of a tighter enclosure than the default floor's forces refinement
    r = a_param(dimq, QQ(1, 10**20)).interval.lo
    assert growth_floor(dimq) <= r
    rho = growth_floor(dimq, above=r)
    assert rho > r
    assert rho + 1 / rho <= dimq


# -- the single-Ao gate ----------------------------------------------------------

SINGLE_AO_ENTRY_POINTS = {
    "e2_inverse_ao": lambda spec: e2_inverse_ao(spec, 0, 10),
    "gram": lambda spec: gram(spec, 0, 0, 10),
    "gram_bound": lambda spec: gram_bound(spec, 2, 10),
    "cli dims": ["dims"],
    "cli rd-norm": ["rd-norm"],
}


@pytest.mark.parametrize("text", ["Au(3)", "Ao(3)*Ao(3)"])
@pytest.mark.parametrize("entry", sorted(SINGLE_AO_ENTRY_POINTS))
def test_single_ao_gate_refuses(entry, text, capsys):
    target = SINGLE_AO_ENTRY_POINTS[entry]
    if isinstance(target, list):
        assert main(target + ["--spec", text]) == 2
        assert "single Ao factor" in capsys.readouterr().err
    else:
        with pytest.raises(GateError, match="single Ao factor"):
            target(parse_spec(text))


# -- the one growth gate ----------------------------------------------------------

AO2, AO5_2 = parse_spec("Ao(2)"), parse_spec("Ao(5/2)")

GATED = {
    "rd_norm_sq Ao(2)": lambda: rd_norm_sq(QQ(2), QQ(3), 40),
    "e2_inverse_ao Ao(2)": lambda: e2_inverse_ao(AO2, 0, 10),
    "gram Ao(2)": lambda: gram(AO2, 0, 0, 10),
    "gram_bound Ao(2)": lambda: gram_bound(AO2, 2, 10),
    "cn_lower N=1": lambda: cn_lower(2, 1),
    "cn_lower N=2": lambda: cn_lower(2, 2),
    "cg_bounds_closed N=1": lambda: cg_bounds_closed(3, 1, 1),
    "cg_bounds_closed N=2": lambda: cg_bounds_closed(3, 1, 2),
}

# growth_floor takes every dimq > 2, so the half line of Ao(5/2) (a = 2) has a
# fixed vector, Gram entries, an inverse series and weighted series
ACCEPTED = {
    "fixed_vector Ao(5/2)": lambda: fixed_vector(AO5_2, 10).tail_bound,
    "nonuni_norm_sq r=1 Ao(5/2)": lambda: nonuni_norm_sq(QQ(3), 1, QQ(5, 2), 40).tail_bound,
    "rd_norm_sq Ao(5/2)": lambda: rd_norm_sq(QQ(5, 2), QQ(3), 40).tail_bound,
    "e2_inverse_ao Ao(5/2)": lambda: e2_inverse_ao(AO5_2, 0, 10).tail_bound,
    "gram Ao(5/2)": lambda: gram(AO5_2, 0, 0, 10).width,
    "gram_bound Ao(5/2)": lambda: gram_bound(AO5_2, 2, 10),
}


@pytest.mark.parametrize("case", sorted(GATED) + sorted(ACCEPTED))
def test_dimension_gates_and_their_thresholds(case):
    if case in ACCEPTED:
        assert ACCEPTED[case]() > 0
    else:
        with pytest.raises(GateError, match="dimension"):
            GATED[case]()


# every half-line door, as a positive certified quantity of the series of Ao(dimq)
HALF_LINE_DOORS = {
    "rd_norm_sq": lambda dimq: rd_norm_sq(dimq, QQ(3), 40).tail_bound,
    "nonuni_norm_sq r=1": lambda dimq: nonuni_norm_sq(QQ(3), 1, dimq, 40).tail_bound,
    "gram": lambda dimq: gram(parse_spec(f"Ao({dimq})"), 1, 2, 12).width,
    "gram_bound": lambda dimq: gram_bound(parse_spec(f"Ao({dimq})"), 3, 12),
    "e2_inverse_ao": lambda dimq: e2_inverse_ao(parse_spec(f"Ao({dimq})"), 1, 12).tail_bound,
    "fixed_vector": lambda dimq: fixed_vector(parse_spec(f"Ao({dimq})"), 12).tail_bound,
}


@pytest.mark.parametrize("door", sorted(HALF_LINE_DOORS))
def test_growth_floor_is_the_one_gate_of_every_half_line_door(door):
    """Ao(2) is refused with growth_floor's own message and Ao(5/2) certified, through
    every door: no door adds a threshold of its own."""
    with pytest.raises(GateError) as refused:
        growth_floor(QQ(2))
    with pytest.raises(GateError) as at_the_door:
        HALF_LINE_DOORS[door](QQ(2))
    assert str(at_the_door.value) == str(refused.value)
    assert HALF_LINE_DOORS[door](QQ(5, 2)) > 0


# -- dimension sequences -------------------------------------------------------

def test_ao_dims_frozen_values():
    assert ao_dims(QQ(3), 6) == [1, 3, 8, 21, 55, 144]
    assert ao_dims(QQ(2), 4) == [1, 2, 3, 4]
    assert ao_dims(QQ(3), 1) == [1]


def test_ao_dims_rational_dimq_stays_exact():
    dims = ao_dims(QQ(7, 2), 5)
    assert dims[2] == QQ(45, 4)
    assert [d.denominator for d in dims] == [1, 2, 4, 8, 16]


def test_ao_dims_match_closed_form_40_terms():
    gp = a_param(QQ(3))
    a = gp.interval
    dims = ao_dims(QQ(3), 40)
    denom = a - a.inverse()
    apow = a
    for k in range(40):
        closed = (apow - apow.inverse()) / denom
        assert closed.contains(dims[k])
        assert closed.width < QQ(1, 10**10)
        apow = apow * a


def test_dimension_ratio_monotone_to_growth_param():
    # the one-step ratios decrease strictly towards a (they stay >= a)
    gp = a_param(QQ(3))
    dims = ao_dims(QQ(3), 30)
    ratios = [dims[k + 1] / dims[k] for k in range(29)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert all(QQ(r) >= gp.interval.lo for r in ratios)
    assert abs(ratios[-1] - gp.interval.hi) < QQ(1, 10**20)


# -- fusion with a generator ---------------------------------------------------

def test_fuse_au_reduction():
    spec = parse_spec("Au(3)")
    # word ending in the conjugate absorbs the generator
    out = fuse_generator(spec, au_word("uU"), Direction(0, 1))
    assert set(out) == {au_word("uUu"), au_word("u")}
    # bookkeeping: 8 * 3 = 21 + 3
    assert quantum_dim(spec, au_word("uU")) * 3 == \
        quantum_dim(spec, au_word("uUu")) + quantum_dim(spec, au_word("u"))


def test_fuse_ao_half_line():
    spec = parse_spec("Ao(3)")
    out = fuse_generator(spec, ao_irrep(2), Direction(0, 0))
    assert out == (ao_irrep(1), ao_irrep(3))
    assert fuse_generator(spec, ao_irrep(1), Direction(0, 0)) == (TRIVIAL, ao_irrep(2))


def test_fuse_at_root_has_no_descending_edge():
    spec = parse_spec("Au(3)")
    assert fuse_generator(spec, TRIVIAL, Direction(0, 1)) == (au_word("u"),)


def test_fuse_cross_factor_concatenates():
    spec = parse_spec("Ao(3)*Au(3)")
    alpha = ao_irrep(2, factor=0)
    out = fuse_generator(spec, alpha, Direction(1, 1))
    assert out == (Irrep(alpha.word + ((1, (1,)),)),)


def test_fusion_dimension_bookkeeping_on_trees():
    for text in ("Ao(3)", "Ao(4)", "Au(3)", "Ao(3)*Au(3)"):
        spec = parse_spec(text)
        tree = build_tree(spec, 6)
        for v in range(tree.n_vertices):
            word = tree.word(v)
            for d in spec.directions:
                summands = fuse_generator(spec, word, d)
                total = sum((quantum_dim(spec, s) for s in summands), QQ(0))
                assert total == quantum_dim(spec, word) * spec.factors[d.factor].dimq


# -- quantum dimensions ----------------------------------------------------------

def test_quantum_dim_frozen_values():
    spec = parse_spec("Au(3)")
    assert quantum_dim(spec, au_word("uUu")) == 21
    assert quantum_dim(spec, au_word("uuuu")) == 81  # irreducible tensor powers
    assert quantum_dim(spec, TRIVIAL) == 1


def test_quantum_dim_multiplicative_across_letters():
    spec = parse_spec("Ao(3)*Au(3)")
    alpha = Irrep(((0, 2), (1, (1, -1)), (0, 1)))
    assert quantum_dim(spec, alpha) == 8 * 8 * 3


# -- length -----------------------------------------------------------------------

def test_irrep_length_counts_generator_steps():
    assert irrep_length(au_word("uUu")) == 3
    assert irrep_length(TRIVIAL) == 0
    assert irrep_length(Irrep(((0, 1), (1, 1), (0, 1)))) == 3
    assert irrep_length(Irrep(((0, 2), (1, (1, -1))))) == 4


def test_length_is_lipschitz_along_edges():
    spec = parse_spec("Au(3)")
    tree = build_tree(spec, 5)
    for v in range(tree.n_vertices):
        for d in spec.directions:
            for s in fuse_generator(spec, tree.word(v), d):
                assert abs(irrep_length(s) - tree.length(v)) == 1


def test_format_irrep():
    assert format_irrep(TRIVIAL) == "1"
    assert format_irrep(au_word("uU")) == "u0U0"
    assert format_irrep(Irrep(((0, 2), (1, (1,))))) == "g0^2.u1"


def test_letter_dims_keep_the_type_of_dimq_in_either_call_order():
    # 5 and Fraction(5) are equal cache keys; the typed caches keep them apart
    word = (1, -1, 1, 1)
    for first, second in ((QQ(5), 5), (6, QQ(6))):
        a, b = au_word_dim(first, word), au_word_dim(second, word)
        assert a == b and type(a) is type(first) and type(b) is type(second)
    letter = ao_irrep(4)
    for texts in (("Ao(5)*Au(7/2)", "Ao(5)"), ("Ao(6)", "Ao(6)*Au(7/2)")):
        dims = [quantum_dim(parse_spec(t), letter) for t in texts]
        assert dims[0] == dims[1]
        assert [type(m) for m in dims] == [int if "/" not in t else Fraction for t in texts]
