import itertools

import pytest
from hypothesis import given, settings, strategies as st

from eqkr.groups import build_root_data, tensor_decompose, weyl_dimension
from eqkr.realstruct import (
    Involution,
    InvolutionSpecError,
    IrrepClass,
    UnclassifiableError,
    classify_type,
    fs_rule_type,
    split_fundamentals,
)


def test_twisted_dual_examples():
    su3 = build_root_data("SU3")
    triv = Involution(su3, "trivial")
    sR = Involution(su3, "sigmaR")
    assert triv.twisted_dual_weight((1, 0)) == (0, 1)
    assert sR.twisted_dual_weight((1, 0)) == (1, 0)
    su4 = build_root_data("SU4")
    sH = Involution(su4, "sigmaH")
    assert sH.twisted_dual_weight((0, 1, 0)) == (0, 1, 0)


def test_twisted_dual_is_involutive():
    cases = [("SU3", "trivial"), ("SU3", "sigmaR"), ("SU4", "sigmaH"),
             ("Sp2", "trivial"), ("Spin7", "trivial")]
    for name, kind in cases:
        rd = build_root_data(name)
        inv = Involution(rd, kind)
        for lam in itertools.product(range(3), repeat=rd.rank):
            star = inv.twisted_dual_weight(lam)
            assert inv.twisted_dual_weight(star) == lam


def test_classify_examples():
    su2 = build_root_data("SU2")
    triv = Involution(su2, "trivial")
    assert classify_type(su2, triv, (1,)).type == "H"
    su3 = build_root_data("SU3")
    assert classify_type(su3, Involution(su3, "trivial"), (1, 0)).type == "C"
    for k, w in enumerate(su3.fundamental_weights()):
        assert classify_type(su3, Involution(su3, "sigmaR"), w).type == "R"
    su4 = build_root_data("SU4")
    sH = Involution(su4, "sigmaH")
    types = [classify_type(su4, sH, w).type for w in su4.fundamental_weights()]
    assert types == ["H", "R", "H"]


def test_classify_respects_twisted_dual_symmetry():
    su3 = build_root_data("SU3")
    inv = Involution(su3, "trivial")
    for lam in itertools.product(range(3), repeat=2):
        cls = classify_type(su3, inv, lam)
        mate = classify_type(su3, inv, cls.twisted_dual)
        assert cls.type == mate.type
        assert (cls.type == "C") == (cls.twisted_dual != tuple(lam))


def test_fs_rule_examples():
    su2 = build_root_data("SU2")
    for n in range(6):
        expect = "R" if n % 2 == 0 else "H"
        assert fs_rule_type(su2, (n,)) == expect
    sp2 = build_root_data("Sp2")
    assert fs_rule_type(sp2, (1, 0)) == "H"
    assert fs_rule_type(sp2, (0, 1)) == "R"
    su3 = build_root_data("SU3")
    with pytest.raises(ValueError):
        fs_rule_type(su3, (1, 0))  # not self-dual


def test_split_examples():
    su3 = build_root_data("SU3")
    s = split_fundamentals(su3, Involution(su3, "sigmaR"))
    assert (s.r, s.s, s.t) == (2, 0, 0)
    s = split_fundamentals(su3, Involution(su3, "trivial"))
    assert (s.r, s.s, s.t) == (0, 0, 1)
    assert s.pairs == (((0, 1), (1, 0)),)  # lexicographically smaller first
    su4 = build_root_data("SU4")
    s = split_fundamentals(su4, Involution(su4, "sigmaH"))
    assert s.real == ((0, 1, 0),)
    assert s.quat == ((1, 0, 0), (0, 0, 1))
    assert (s.r, s.s, s.t) == (1, 2, 0)
    sp2 = build_root_data("Sp2")
    s = split_fundamentals(sp2, Involution(sp2, "trivial"))
    assert s.quat == ((1, 0),) and s.real == ((0, 1),)


def test_split_counts_cover_fundamentals():
    for name, kind in [("SU5", "trivial"), ("SU5", "sigmaR"),
                       ("SU4", "trivial"), ("Sp3", "trivial")]:
        rd = build_root_data(name)
        s = split_fundamentals(rd, Involution(rd, kind))
        assert s.r + s.s + 2 * s.t == len(rd.fundamental_weights())


def test_override_priority():
    su2 = build_root_data("SU2")
    inv = Involution(su2, "trivial", overrides={(1,): "R"})
    cls = classify_type(su2, inv, (1,))
    assert cls.type == "R" and cls.provenance == "override"
    # the rule would have said H
    cls2 = classify_type(su2, Involution(su2, "trivial"), (1,))
    assert cls2.type == "H" and cls2.provenance == "rule"


def test_unclassifiable_catalog_gap():
    # a custom diagram permutation has no catalog row
    su3 = build_root_data("SU3")
    inv = Involution(su3, ((1, 0),))
    with pytest.raises(UnclassifiableError, match="no catalog rule"):
        classify_type(su3, inv, (1, 0))


def test_custom_involution_needs_a_simple_factor():
    u3 = build_root_data("U3")
    with pytest.raises(InvolutionSpecError, match="simple factor"):
        Involution(u3, ((1, 0),))
    with pytest.raises(InvolutionSpecError, match="simple factor"):
        Involution(build_root_data("SU2xU3"), ("trivial", (1, 0)))


@pytest.mark.parametrize("perm,message", [
    ((0, 1), "wrong length"), ((1, 2, 0), "square to identity"),
    ((1, 0, 2), "does not preserve the Cartan matrix")])
def test_custom_diagram_permutation_refusals(perm, message):
    with pytest.raises(InvolutionSpecError, match=message):
        Involution(build_root_data("SU4"), (perm,))


def test_sigma_r_types_every_family_real():
    for name in ("Sp1", "Sp3", "Spin7", "Spin8", "Spin10", "G2", "F4", "E6", "E7", "E8"):
        rd = build_root_data(name)
        inv = Involution(rd, "sigmaR")
        for w in rd.fundamental_weights():
            cls = classify_type(rd, inv, w)
            assert (cls.type, cls.provenance) == ("R", "rule")


def test_sigma_h_is_the_parity_of_the_central_minus_one():
    # -1 in SU(2m)/U(2m) acts on V_lam by (-1)^(total degree)
    for name in ("SU2", "SU4", "SU6", "U2", "U4"):
        rd = build_root_data(name)
        inv = Involution(rd, "sigmaH")
        for lam in itertools.product(range(-1 if name[0] == "U" else 0, 3), repeat=rd.dim):
            if not rd.is_dominant(lam):
                continue
            degree = sum(lam) if name[0] == "U" else sum((i + 1) * a for i, a in enumerate(lam))
            assert classify_type(rd, inv, lam).type == "RH"[degree % 2]


FAMILIES = ("SU2", "SU3", "SU4", "SU5", "SU6", "Sp1", "Sp2", "Sp3", "Spin7", "Spin8",
            "Spin10", "G2", "F4", "E6", "E7", "E8", "U1", "U2", "U3", "U4")
CATALOGED = ([(g, k) for g in FAMILIES for k in ("trivial", "sigmaR")]
             + [(g, "sigmaH") for g in ("SU2", "SU4", "SU6", "U2", "U4")])


def self_twisted_dual_generators(inv):
    """Generators of the self-twisted-dual dominant weights: w or w + tau(w)
    over the fundamentals (and, for U(n), the inverse determinant)."""
    rd = inv.rd
    ws = list(rd.fundamental_weights())
    if rd.spec.factors[0][0] == "U":
        ws.append((-1,) * rd.dim)
    out = set()
    for w in ws:
        star = inv.twisted_dual_weight(w)
        out.add(w if star == w else tuple(a + b for a, b in zip(w, star)))
    return sorted(out)


@st.composite
def self_twisted_dual_pair(draw):
    name, kind = draw(st.sampled_from(CATALOGED))
    rd = build_root_data(name)
    inv = Involution(rd, kind)
    gens = self_twisted_dual_generators(inv)

    def weight():
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
        return tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(rd.dim))
    return rd, inv, weight(), weight()


@given(self_twisted_dual_pair())
@settings(max_examples=150, deadline=None)
def test_catalog_type_is_multiplicative(case):
    # V_{lam+mu} occurs once in V_lam (x) V_mu, so the antilinear
    # structures of the two factors induce its type: R.R = H.H = R, R.H = H
    rd, inv, lam, mu = case
    a, b = classify_type(rd, inv, lam).type, classify_type(rd, inv, mu).type
    top = tuple(x + y for x, y in zip(lam, mu))
    assert a in "RH" and b in "RH"
    assert classify_type(rd, inv, top).type == ("R" if a == b else "H")
    if weyl_dimension(rd, lam) * weyl_dimension(rd, mu) <= 400:
        assert tensor_decompose(rd, lam, mu)[top] == 1


def test_custom_involution_needs_an_override():
    # a custom diagram part has no catalog rule, so only an override can
    # type a self-twisted-dual weight, even where a matrix model exists
    su2 = build_root_data("SU2")
    with pytest.raises(UnclassifiableError, match="no catalog rule"):
        classify_type(su2, Involution(su2, ((0,),)), (1,))
    cls = classify_type(su2, Involution(su2, ((0,),), overrides={(1,): "H"}), (1,))
    assert cls.type == "H" and cls.provenance == "override"


def test_un_trivial_split_has_no_catalog():
    u2 = build_root_data("U2")
    with pytest.raises(UnclassifiableError):
        split_fundamentals(u2, Involution(u2, "trivial"))


def test_un_sigma_involutions():
    u2 = build_root_data("U2")
    s = split_fundamentals(u2, Involution(u2, "sigmaR"))
    assert (s.r, s.s, s.t) == (2, 0, 0)
    s = split_fundamentals(u2, Involution(u2, "sigmaH"))
    assert s.quat == ((1, 0),) and s.real == ((1, 1),)
    with pytest.raises(InvolutionSpecError):
        Involution(build_root_data("U3"), "sigmaH")
    with pytest.raises(InvolutionSpecError):
        Involution(build_root_data("SU3"), "sigmaH")


def test_product_involutions():
    rd = build_root_data("SU2xSU2")
    inv = Involution(rd, ("trivial", "trivial"))
    # H (x) H = R across factors
    cls = classify_type(rd, inv, (1, 1))
    assert cls.type == "R"
    assert classify_type(rd, inv, (1, 0)).type == "H"
    s = split_fundamentals(rd, inv)
    assert (s.r, s.s, s.t) == (0, 2, 0)
    with pytest.raises(InvolutionSpecError):
        Involution(rd, ("trivial",))


def test_tensor_type_bookkeeping():
    """R (x) R and H (x) H products contain only self-twisted-dual parts."""
    for name in ("SU2", "Sp2"):
        rd = build_root_data(name)
        inv = Involution(rd, "trivial")
        funds = rd.fundamental_weights()
        for a, b in itertools.product(funds, repeat=2):
            ta = classify_type(rd, inv, a).type
            tb = classify_type(rd, inv, b).type
            if ta == "C" or tb == "C" or ta != tb:
                continue
            for nu in tensor_decompose(rd, a, b):
                assert inv.twisted_dual_weight(nu) == nu


def test_irrep_class_invariants():
    su3 = build_root_data("SU3")
    inv = Involution(su3, "trivial")
    cls = classify_type(su3, inv, (2, 0))
    assert cls.type == "C"
    assert weyl_dimension(su3, cls.weight) == weyl_dimension(su3, cls.twisted_dual)
    with pytest.raises(ValueError, match="must be self-twisted-dual"):
        IrrepClass((1, 0), (0, 1), "R", "rule")
    with pytest.raises(ValueError, match="must move under the twisted dual"):
        IrrepClass((1, 1), (1, 1), "C", "rule")
