import itertools
import random

import pytest
from conftest import GOLDEN, kr
from hypothesis import example, given
from hypothesis import strategies as st

from eqkr.coeffs import KRCoeff
from eqkr.groups import build_root_data, dominant_weights_up_to_dim
from eqkr.presentation import (
    PresentationError,
    RClassIndex,
    RingElement,
    as_fundamental_polynomial,
    augment_bz,
    augment_element,
    build_bz_presentation,
    build_kr_presentation,
    canon_degree,
    classified_irreps,
    complexify,
    delta_lift,
    koszul_sort,
    plain_monomial_elements,
    plain_monomials,
    poincare_table,
    rclass_square,
)
from eqkr.realstruct import Involution
from eqkr.verifier import (
    enumerate_rclasses,
    odd_monomials,
    verify_cr,
    verify_leibniz,
    verify_squares,
)

# ---------------------------------------------------------------------------
# Brylinski-Zhang side
# ---------------------------------------------------------------------------

def test_bz_su2():
    bz = build_bz_presentation(build_root_data("SU2"))
    assert plain_monomials(bz) == [(), (0,)]
    # K^0_G = R(G): a weight times the empty monomial
    e = bz.bz_weight((3,))
    assert (e * bz.one()) == e


def test_k_su2_total_rank_two():
    bz = build_bz_presentation(build_root_data("SU2"))
    k = augment_bz(bz)
    assert len(plain_monomials(k)) == 2  # free Z-module of total rank 2
    # augmentation sends a weight to its dimension
    e = augment_element(k, bz.bz_weight((2,)))
    assert e == 3 * k.one()


def test_bz_product_rules():
    bz = build_bz_presentation(build_root_data("SU3"))
    # the exterior algebra on two generators: plain monomials of sizes
    # 0, 1, 1, 2, none zero through the engine
    assert [len(bits) for bits in plain_monomials(bz)] == [0, 1, 1, 2]
    assert not any(e.is_zero() for e in plain_monomial_elements(bz))
    d1, d2 = bz.gen_element(0), bz.gen_element(1)
    assert (d1 * d1).is_zero()
    assert d1 * d2 == -(d2 * d1)
    v = bz.bz_weight((1, 0))
    assert v * d1 == d1 * v


# ---------------------------------------------------------------------------
# KR presentations
# ---------------------------------------------------------------------------

def test_omega_form_golden_cases():
    expected = {
        ("SU2", "trivial"): [-3],
        ("SU3", "sigmaR"): [1, 1],
        ("SU4", "sigmaH"): [-3, -3, 1],
        ("Sp2", "trivial"): [-3, 1],
    }
    for (name, kind), degs in expected.items():
        p = kr(name, kind)
        assert p.omega_form and p.split.t == 0
        assert sorted(g.degree for g in p.gens) == sorted(degs)
        assert len(p.gens) == len(p.rd.fundamental_weights())
        for g in p.gens:
            assert g.degree == (1 if p.classify(g.payload).type == "R" else -3)
            assert (p.gen_element(g.index) * p.gen_element(g.index)).is_zero()


def test_su3_trivial_generators():
    p = kr("SU3", "trivial")
    assert not p.omega_form
    kinds = [g.kind for g in p.gens]
    assert kinds == ["lam"]
    lam = p.gen_element(0)
    assert (lam * lam).is_zero()
    assert lam.degrees() == [0]


def test_an_h_override_squares_through_mu_doubling():
    # V(1,1) (x) V(1,1) = V(0,0) + V(2,2) + 2 V(1,1) + V(3,0) + V(0,3) on
    # SU3; with V(1,1) of H type the square is a real class, so the two
    # H-type copies of V(1,1) pair up as V(1,1).mu (the R/H branch of
    # _rep_class, which catalog types never reach)
    rd = build_root_data("SU3")
    p = build_kr_presentation(rd, Involution(rd, "trivial", {(1, 1): "H"}))
    v = p.class_element((1, 1))
    square = v * v
    assert square == (p.one() + p.class_element((2, 2))
                      + p.class_element((1, 1), "mu")
                      + p.rclass_element(RClassIndex((0, 3), 0, (0,), (0,))))
    assert square.degrees() == [0]
    c = complexify(p)
    assert c(square) == c(v) * c(v)

def test_multiply_examples():
    p = kr("SU3", "sigmaR")
    a, b = p.gen_element(0), p.gen_element(1)
    assert (a * a).is_zero()
    assert a * b == -(b * a)
    with pytest.raises(PresentationError):
        a * kr("SU2", "trivial").one()


def test_eta_mu_rules_on_realified_classes():
    p = kr("SU3", "trivial")
    eta = p.scalar(KRCoeff.basis("eta"))
    mu = p.scalar(KRCoeff.basis("mu"))

    def virtual(idx):  # 2 r(V(1,0)) + (-r(V(0,1))), summed by the engine
        def r(rho):
            return p.rclass_element(RClassIndex(rho, idx.i, idx.eps, idx.nu))
        return 2 * r((1, 0)) + -r((0, 1))

    for idx, element in [(RClassIndex(None, 0, (1,), (0,)), p.rclass_element),
                         (RClassIndex((1, 0), 1, (0,), (0,)), p.rclass_element),
                         (RClassIndex((0, 1), 2, (1,), (0,)), p.rclass_element),
                         (RClassIndex(None, 0, (1,), (0,)), virtual)]:
        r = element(idx)
        assert (r * eta).is_zero()
        assert r * mu == 2 * element(idx.shifted(2))
        # Bott periodicity of the realified index
        assert element(idx.shifted(4)) == r


def test_rclass_square_cases_su3():
    p = kr("SU3", "trivial")
    # degree -1: eta^2 . (rho sigmabar rho) . lam
    res = rclass_square(p, RClassIndex(None, 0, (1,), (0,)))
    assert res.case == "eta2"
    lam = p.gen_element(0)
    eta2 = p.scalar(KRCoeff.basis("eta2"))
    assert res.element == eta2 * lam
    # with rho = the defining representation: rho sigmabar*rho = 1 + adjoint
    res = rclass_square(p, RClassIndex((1, 0), 0, (1,), (0,)))
    assert res.case == "eta2"
    expected = eta2 * lam * (p.one() + p.class_element((1, 1)))
    assert res.element == expected
    # degrees -3 and 1: zero
    for i in (1, 3):
        res = rclass_square(p, RClassIndex(None, i, (1,), (0,)))
        assert res.case == "zero" and res.element.is_zero()
    # bare realifications are coefficient arithmetic
    with pytest.raises(PresentationError):
        rclass_square(p, RClassIndex((1, 0), 1, (0,), (0,)))
    # the degree decides the case, on every enumerated index
    cases = {-1: "eta2", -5: "eta2", -2: "mu", -6: "mu",
             -3: "zero", 1: "zero", 0: "two", -4: "two"}
    got = {idx: rclass_square(p, idx).case for idx in enumerate_rclasses(p, 20)
           if idx.factor_count}
    assert got == {idx: cases[idx.degree()] for idx in got}
    assert {"eta2", "zero"} <= set(got.values())


def test_rclass_square_mu_case_su5():
    p = kr("SU5", "trivial")
    res = rclass_square(p, RClassIndex(None, 0, (1, 1), (0, 0)))
    assert res.case == "mu"
    assert res.transpositions == 1
    assert res.sign == -1
    lam12 = p.gen_element(p._lam_gen[0]) * p.gen_element(p._lam_gen[1])
    assert res.element == -(p.scalar(KRCoeff.basis("mu")) * lam12)
    # mixed eps/nu pattern costs two transpositions
    res = rclass_square(p, RClassIndex(None, 0, (1, 0), (0, 1)))
    assert res.case == "mu" and res.transpositions == 2 and res.sign == 1
    # double realifications in degrees 0/-4 do not vanish: their
    # complexification is 2 x tau(x)
    res = rclass_square(p, RClassIndex(None, 1, (1, 1), (0, 0)))
    assert res.case == "two"
    assert res.element == 2 * res.sign * lam12


def test_graded_commutativity_random():
    rng = random.Random(99)
    for name, kind in GOLDEN:
        p = kr(name, kind)
        pool = _homogeneous_pool(p)
        for _ in range(200):
            d1, a = pool[rng.randrange(len(pool))]
            d2, b = pool[rng.randrange(len(pool))]
            lhs = a * b
            rhs = b * a
            if d1 % 2 and d2 % 2:
                rhs = -rhs
            assert lhs == rhs


def _homogeneous_pool(p):
    pool = [(0, p.one()), (-4, p.scalar(KRCoeff.basis("mu"))),
            (-1, p.scalar(KRCoeff.basis("eta")))]
    for g in p.gens:
        pool.append((g.degree, p.gen_element(g.index)))
    for w in p.split.real:
        pool.append((0, p.class_element(w)))
    for w in p.split.quat:
        pool.append((-4, p.class_element(w)))
    if p.split.t:
        for idx in [RClassIndex(None, 0, (1,) + (0,) * (p.split.t - 1),
                                (0,) * p.split.t),
                    RClassIndex(p.split.pairs[0][0], 1,
                                (0,) * p.split.t, (0,) * p.split.t)]:
            e = p.rclass_element(idx)
            pool.append((canon_degree(idx.degree()), e))
    return pool


def _bubble_sort_swaps(seq, parity):
    """Reference for koszul_sort: bubble sort counting the swaps of two odd
    entries; None when an entry repeats."""
    if len(set(seq)) < len(seq):
        return None
    out, swaps = list(seq), 0
    for end in range(len(out) - 1, 0, -1):
        for i in range(end):
            if out[i] > out[i + 1]:
                swaps += parity(out[i]) * parity(out[i + 1])
                out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out), swaps


@given(st.lists(st.integers(0, 9), max_size=8))
def test_koszul_sort_all_odd_is_bubble_sort(seq):
    assert koszul_sort(seq) == _bubble_sort_swaps(seq, lambda x: 1)


@given(st.lists(st.integers(0, 9), max_size=8),
       st.lists(st.integers(0, 1), min_size=10, max_size=10))
@example([1, 0], [1] * 10)  # distinct odd entries out of order: one swap
def test_koszul_sort_parity_weighted_is_bubble_sort(seq, parities):
    parity = parities.__getitem__
    assert koszul_sort(seq, parity) == _bubble_sort_swaps(seq, parity)


# generators dR, dR, lam, lam: two odd, then two even
SU4_SQUARED = kr("SU4xSU4", "trivial")


@given(st.lists(st.sampled_from(range(len(SU4_SQUARED.gens))), max_size=6))
@example([3, 0, 3])  # a repeated lam: no normal-form monomial, so None
def test_koszul_sort_on_generator_parities(seq):
    parity = SU4_SQUARED._gen_parity
    assert [g.kind for g in SU4_SQUARED.gens] == ["dR", "dR", "lam", "lam"]
    assert koszul_sort(seq, parity) == _bubble_sort_swaps(seq, parity)


def test_associativity_and_normal_form_idempotence():
    rng = random.Random(5)
    for name, kind in GOLDEN:
        p = kr(name, kind)
        pool = [e for _, e in _homogeneous_pool(p)]
        for _ in range(100):
            a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert (a * b) * c == a * (b * c)
        for e in pool:
            assert p._element(dict(e.terms)) == e  # renormalize fixed point


def test_complexify_generator_images():
    p = kr("SU3", "sigmaR")
    c = complexify(p)
    bz = c.target
    for fi, g in enumerate(p.gens):
        assert c(p.gen_element(g.index)) == bz.dg_element(fi, 1)
    p3 = kr("SU3", "trivial")
    c3 = complexify(p3)
    lam_img = c3(p3.gen_element(0))
    u = p3._pair_factor(0, "u")
    v = p3._pair_factor(0, "v")
    assert lam_img == -(c3.target.dg_element(u, 3) * c3.target.dg_element(v, 0))


def test_complexify_is_multiplicative():
    for name, kind in GOLDEN:
        p = kr(name, kind)
        c = complexify(p)
        elems = [p.gen_element(g.index) for g in p.gens]
        elems.append(p.scalar(KRCoeff.basis("mu")))
        elems.append(p.scalar(KRCoeff.basis("eta")))
        # R- and H-type classes: on SU3/trivial, V(1,1) (x) V(1,1) holds
        # the complex pair V(3,0) + V(0,3), whose mu piece is 2 beta^2
        for classes in classified_irreps(p, 10)[:2]:
            if classes:
                w = max(cls.weight for cls in classes)
                elems.extend(p.class_element(w, name)
                             for name in ("1", "eta", "mu"))
        if p.split.t:
            elems.append(p.rclass_element(
                RClassIndex(None, 0, (1,) + (0,) * (p.split.t - 1),
                            (0,) * p.split.t)))
        for a, b in itertools.product(elems, repeat=2):
            assert c(a * b) == c(a) * c(b)


def test_complexify_intertwines_relations():
    p = kr("SU4", "sigmaH")
    c = complexify(p)
    for g in p.gens:
        img = c(p.gen_element(g.index))
        assert (img * img).is_zero()


def test_monomial_degree_tables():
    # each plain monomial's product through the engine has the sum of its
    # generators' degrees, taken mod 8
    for group, kind, raw in (("SU3", "sigmaR", [0, 1, 1, 2]), ("SU2", "trivial", [-3, 0]),
                             ("SU4", "sigmaH", [0, -3, -3, 1, -6, -2, -2, -5])):
        got = sorted(d for e in plain_monomial_elements(kr(group, kind)) for d in e.degrees())
        assert got == sorted(canon_degree(d) for d in raw), group


def test_delta_lift_examples():
    su2 = build_root_data("SU2")
    bz = build_bz_presentation(su2)
    assert delta_lift(bz, {(0,): 1}).is_zero()  # d(trivial) = 0
    lhs = delta_lift(bz, {(2,): 1})
    # d(V (x) V) = 2 V dV = d(V_2) + d(1), and the lift is linear
    assert lhs == bz.bz_weight((1,)) * bz.dg_element(0) * 2
    assert lhs == delta_lift(bz, {(2,): 1, (0,): -1}) + delta_lift(bz, {(0,): 1})


def test_tau_swaps_the_fundamentals_of_a_complex_pair():
    bz = build_bz_presentation(build_root_data("SU3"))
    # tau(dG[f]) = -dG[f*], and (1, 0)* = (0, 1) under the trivial involution
    tau_d = bz._element(bz._tau_bz(bz.dg_element(0).terms))
    assert tau_d == -bz.dg_element(1)


@pytest.mark.parametrize("name,kind", [("SU3", "trivial"), ("SU4", "trivial"),
                                       ("SU3xSU3", ("trivial", "sigmaR"))],
                         ids=["SU3", "SU4", "SU3xSU3-trivial,sigmaR"])
def test_tau_of_a_derivation_is_minus_the_derivation_of_the_dual(name, kind):
    # d(abar* V_lam) = -d(V_lam*): tau after the derivation against the
    # derivation of the twisted dual weight's own polynomial, on the
    # complexification target's catalog
    p = kr(name, kind)
    bz = complexify(p).target
    for lam in dominant_weights_up_to_dim(p.rd, 15):
        d = delta_lift(bz, as_fundamental_polynomial(p.rd, lam))
        da = bz._element(bz._tau_bz(d.terms))
        dual = as_fundamental_polynomial(p.rd, p.inv.twisted_dual_weight(lam))
        assert da == -delta_lift(bz, dual), lam


def test_tau_needs_fundamental_duals():
    # the dual of a U(2) fundamental is no fundamental: the presentation
    # builds, and tau raises once it reaches that factor
    bz = build_bz_presentation(build_root_data("U2"))
    with pytest.raises(PresentationError, match="is not fundamental"):
        bz._tau_bz(delta_lift(bz, {(1, 0): 1}).terms)


def test_delta_lift_un_laurent():
    u2 = build_root_data("U2")
    bz = build_bz_presentation(u2)
    d_inv = delta_lift(bz, {(0, -1): 1})
    assert d_inv == -(bz.bz_weight((-2, -2)) * bz.dg_element(1))
    # Leibniz on det . det^-1 = 1
    lhs = bz.bz_weight((-1, -1)) * delta_lift(bz, {(0, 1): 1}) + \
        bz.bz_weight((1, 1)) * d_inv
    assert lhs.is_zero()


@pytest.mark.parametrize("group,poly", [
    ("SU2", {(2,): 1}), ("SU3", {(1, 1): 2, (0, 2): -1}),
    ("U2", {(1, -1): 1, (0, -2): 3}),
])
def test_delta_lift_on_k_is_the_augmented_bz_lift(group, poly):
    # K*(G) has Z coefficients: the cofactor lands as its rank
    bz = build_bz_presentation(build_root_data(group))
    k = augment_bz(bz)
    got = delta_lift(k, poly)
    assert got == augment_element(k, delta_lift(bz, poly))
    assert all(w == k.zero_weight for w, _, _ in got.terms)
    if group == "SU2":
        assert got == 4 * k.dg_element(0)


def test_delta_lift_kr_side():
    p = kr("SU2", "trivial")
    l = delta_lift(p, {(2,): 1})
    assert l == p.class_element((1,)) * p.gen_element(0) * 2
    assert l.degrees() == [1]  # V (x) V is a degree-0 class, d lands in 1


def _ring_delta_lift(p, exp):
    """d(prod f^exp) in a KR presentation, each cofactor a ring product
    of class elements times the generator dR or dH[f_i]: the derivation
    spelled out through the engine's multiplication."""
    funds = p.rd.fundamental_weights()
    gen_of = {g.payload: g.index for g in p.gens if g.kind in ("dR", "dH")}
    out = p.zero()
    for i, a in enumerate(exp):
        if a == 0:
            continue
        cof = p.one()
        for k, e in enumerate(exp):
            for _ in range(e - (k == i)):
                cof = cof * p.class_element(funds[k])
        out = out + cof * p.gen_element(gen_of[funds[i]]) * a
    return out


@pytest.mark.parametrize("name,kind", [
    ("SU2", "trivial"), ("SU3", "sigmaR"), ("SU4", "sigmaH"),
    ("Sp2", "trivial"), ("Sp2xSU2", "trivial"), ("U3", "sigmaR"),
    ("G2", "trivial"), ("Sp3", "trivial"),
])
def test_kr_delta_lift_matches_the_ring_product(name, kind):
    # every monomial of total degree 1..3 in the R/H fundamentals
    p = kr(name, kind)
    n = len(p.rd.fundamental_weights())
    exps = [e for e in itertools.product(range(4), repeat=n) if 1 <= sum(e) <= 3]
    for exp in exps:
        assert delta_lift(p, {exp: 1}) == _ring_delta_lift(p, exp), exp


def test_kr_delta_lift_exponents_follow_the_fundamentals():
    # Sp2: the generators are dR[0,1], dH[1,0] (split order), but exponent
    # slots follow fundamental_weights(): (1, 0) is omega_1, quaternionic
    p = kr("Sp2", "trivial")
    assert [g.label() for g in p.gens] == ["dR[0,1]", "dH[1,0]"]
    assert delta_lift(p, {(1, 0): 1}) == p.gen_element(1)
    assert delta_lift(p, {(0, 1): 1}) == p.gen_element(0)


def test_kr_delta_lift_refuses_complex_fundamentals():
    p = kr("SU3", "trivial")  # (1, 0) and (0, 1) form a complex pair
    for poly in ({(1, 0): 1}, {(0, 2): 3}):
        with pytest.raises(PresentationError, match="R/H fundamentals"):
            delta_lift(p, poly)


@pytest.mark.parametrize("p", [
    build_bz_presentation(build_root_data("SU3")), kr("SU3", "sigmaR")],
    ids=["BZ", "KR"])
def test_delta_lift_checks_every_exponent_length(p):
    # a zero coefficient does not excuse a malformed exponent tuple
    for poly in ({(1,): 0}, {(1, 0): 1, (1, 0, 0): 0}, {(2, 0, 1): 1}):
        with pytest.raises(PresentationError, match="one slot per fundamental"):
            delta_lift(p, poly)


def test_kr_delta_lift_un_laurent():
    # the KR twin of test_delta_lift_un_laurent: the determinant (1, 1) of
    # U2 is invertible and real under sigmaR
    p = kr("U2", "sigmaR")
    d_det = p.gens[1]
    assert d_det.label() == "dR[1,1]"
    d_inv = delta_lift(p, {(0, -1): 1})
    assert d_inv == -(p.class_element((-2, -2)) * p.gen_element(d_det))
    # Leibniz on det . det^-1 = 1
    lhs = p.class_element((1, 1)) * d_inv + \
        p.class_element((-1, -1)) * delta_lift(p, {(0, 1): 1})
    assert lhs.is_zero()


@pytest.mark.parametrize("lam,poly", [
    ((0, 1, 1), {(0, 0, 1): 1}),
    ((0, 0, -1), {(0, 1, -1): 1}),
    ((2, 1, -1), {(2, 2, -1): 1, (2, 0, 0): -1, (0, 2, -1): -1, (0, 0, 0): 1}),
])
def test_fundamental_polynomial_on_a_product_with_a_unitary_factor(lam, poly):
    # fundamentals of SU2xU2: (1,0,0), (0,1,0) and the U2 determinant (0,1,1)
    assert as_fundamental_polynomial(build_root_data("SU2xU2"), lam) == poly


def test_poincare_table_bz():
    bz = build_bz_presentation(build_root_data("SU3"))
    tab = poincare_table(bz)
    assert all(v == (2, 0) for v in tab.values())


def test_realify_roundtrip_canonical_slots():
    p = kr("SU3", "trivial")
    for idx in [RClassIndex(None, 0, (1,), (0,)),
                RClassIndex((0, 1), 2, (0,), (0,)),
                RClassIndex((0, 1), 1, (1,), (0,))]:
        e = p.rclass_element(idx)
        assert len(e.terms) == 1
        assert list(e.terms.values()) == [1]


def test_realify_is_tau_invariant():
    """r(y) = r(tau y) holds on the nose after canonicalization."""
    rng = random.Random(17)
    for name, kind in [("SU3", "trivial"), ("SU4", "sigmaH"),
                       ("SU4", "trivial")]:
        p = kr(name, kind)
        c = complexify(p)
        bz = c.target
        nf = len(p.factors)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = [p.zero_weight] + [w for _, w, _ in p.factors]
                terms[(w[rng.randrange(len(w))], rng.randrange(4),
                       tuple(sorted(rng.sample(range(nf),
                                    rng.randint(0, min(2, nf))))))] = \
                    rng.randint(-3, 3)
            y = bz._element(terms)
            ty = bz._element(dict(bz._tau_bz(y.terms)))
            assert p.realify_bz(y) == p.realify_bz(ty)


@pytest.mark.parametrize("name,kind", [
    ("SU4", "trivial"), ("SU6", "trivial"), ("SU3xSU3", "trivial"),
    ("Spin10", "trivial"),
    pytest.param("SU2xSU4", ("trivial", "trivial"), id="SU2xSU4-trivial,trivial")])
def test_c_of_r_is_y_plus_tau_y_on_every_single_term(name, kind):
    """c(r(y)) = y + tau(y) on each y = beta^j . V_w . dG[bits], for every
    sorted factor subset: patterns of three to five factors, which the
    two-factor random draws of verify_cr never build, included."""
    p = kr(name, kind)
    cmap = complexify(p)
    bz = cmap.target
    nf = len(p.factors)
    subsets = [bits for k in range(nf + 1)
               for bits in itertools.combinations(range(nf), k)]
    weights = [p.zero_weight] + [w for _, w, _ in p.factors]
    for bits, j, w in itertools.product(subsets, range(4), weights):
        y = bz._element({(w, j, bits): 1})
        tau_y = bz._element(bz._tau_bz(y.terms))
        assert cmap(p.realify_bz(y)) == y + tau_y, (w, j, bits)

@pytest.mark.parametrize("name,kind", [("SU3", "trivial"), ("SU4", "sigmaH"),
                                       ("SU3xSU3", "trivial")])
def test_product_table_keeps_order_and_slots(name, kind):
    """A warm product table answers every ordered pair as a fresh
    presentation does, and odd monomials still anticommute."""
    warm = kr(name, kind)
    pool = odd_monomials(warm, 1)
    for a in pool:
        for b in pool:
            a * b
    assert warm._mul_table
    fresh = kr(name, kind)
    fresh_pool = odd_monomials(fresh, 1)
    n = len(pool)
    nonzero = 0
    # the fresh presentation meets each pair in the opposite order
    for i in reversed(range(n)):
        for j in reversed(range(n)):
            ab = pool[i] * pool[j]
            assert ab.terms == (fresh_pool[i] * fresh_pool[j]).terms
            assert ab == -(pool[j] * pool[i])
            nonzero += not ab.is_zero()
    if name != "SU4":
        assert nonzero  # SU4/sigmaH has one odd monomial, its square is 0


def test_term_tables_are_linear_in_the_coefficient():
    """Scaling a cached unit result and then reducing mod 2 gives the
    product and the realification of the scaled arguments."""
    p = kr("SU3", "trivial")
    eta, eta2 = p.scalar(KRCoeff.basis("eta")), p.scalar(KRCoeff.basis("eta2"))
    r = p.rclass_element(RClassIndex(None, 1, (1,), (0,)))
    r_rho = p.rclass_element(RClassIndex(p.split.pairs[0][0], 0, (0,), (0,)))
    lam = p.gen_element(next(g for g in p.gens if g.kind == "lam"))
    x = eta + r + lam + p.one()
    y = eta2 + r_rho + r * 2 + lam
    xy = x * y
    assert any(t[1] in ("eta", "eta2") for t in xy.terms)
    assert any(t[3] is not None for t in xy.terms)
    assert (x * 3) * (y * -5) == xy * -15
    bz = complexify(p).target
    w = p.split.pairs[0][0]
    z = (bz.bz_weight(p.zero_weight, 1) + bz.bz_weight(w, 2)
         + bz.dg_element(0, 0) + bz.dg_element(1, 3, w) * 2)
    rz = p.realify_bz(z)
    assert any(t[1] in ("eta", "eta2") for t in rz.terms)
    for k in (-3, 2, 5):
        assert p.realify_bz(z * k) == rz * k


def _stale_entries(warm, ref):
    """Keys of warm's term tables whose entry differs from its
    recomputation in the cold presentation ref."""
    unit_mul = ref._mul_kr_unit if ref.kind == "KR" else ref._mul_bz_unit
    stale = [k for k, v in warm._mul_table.items() if unit_mul(*k) != v]
    stale += [k for k, v in warm._realify_table.items() if ref._realify_unit(*k) != v]
    stale += [k for k, v in warm._c_table.items() if ref._c_unit(k) != v]
    return stale


def _assert_warm_answers_like_cold(warm, name, kind):
    cold = kr(name, kind)
    rng = random.Random(17)
    pool = [e for _, e in _homogeneous_pool(warm)]
    cold_pool = [e for _, e in _homogeneous_pool(cold)]
    c_warm, c_cold = complexify(warm), complexify(cold)
    for _ in range(60):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        assert (pool[i] * pool[j]).terms == (cold_pool[i] * cold_pool[j]).terms
        assert c_warm(pool[i]).terms == c_cold(cold_pool[i]).terms
        assert ((c_warm(pool[i]) * c_warm(pool[j])).terms
                == (c_cold(cold_pool[i]) * c_cold(cold_pool[j])).terms)
    ws = list(warm.split.real) + list(warm.split.quat)
    for a, b in itertools.combinations_with_replacement(ws, 2):
        poly = {tuple(x + y for x, y in zip(e1, e2)): c1 * c2
                for e1, c1 in as_fundamental_polynomial(warm.rd, a).items()
                for e2, c2 in as_fundamental_polynomial(warm.rd, b).items()}
        assert delta_lift(warm, poly).terms == delta_lift(cold, poly).terms
    # no caller changed a shared table entry
    assert _stale_entries(warm, kr(name, kind)) == []
    assert _stale_entries(c_warm.target, complexify(kr(name, kind)).target) == []


@pytest.mark.parametrize("name,kind", [("SU3", "trivial"), ("SU4", "sigmaH"),
                                       ("SU2xSU2", ("trivial", "sigmaR")),
                                       ("U3", "sigmaR")])
def test_warm_presentation_answers_like_a_cold_one(name, kind):
    warm = kr(name, kind)
    for check in (verify_squares, verify_cr, verify_leibniz):
        assert check(warm).passed
    assert warm._mul_table and warm._realify_table and warm._c_table
    _assert_warm_answers_like_cold(warm, name, kind)


def test_a_poisoned_c_table_entry_is_caught():
    warm = kr("SU3", "trivial")
    assert verify_cr(warm).passed
    term, image = next((t, v) for t, v in warm._c_table.items() if v)
    warm._c_table[term] = {t: c + 1 for t, c in image.items()}
    assert _stale_entries(warm, kr("SU3", "trivial")) == [term]
    with pytest.raises(AssertionError):
        _assert_warm_answers_like_cold(warm, "SU3", "trivial")


def test_the_public_constructor_normalises():
    p = kr("SU3", "trivial")
    z = p.zero_weight
    t, t_eta = (z, "1", (), None), (z, "eta", (), None)
    assert RingElement(p, {t_eta: 2, t: 0}).is_zero()
    assert RingElement(p, {t_eta: -3, t: -2}).terms == {t_eta: 1, t: -2}
    bz = complexify(p).target
    u = (z, 1, (0,))
    assert RingElement(bz, {u: 2, (z, 0, ()): 0}).terms == {u: 2}


def test_mixed_split_su4_trivial():
    """SU(4) trivial has one real fundamental and one complex pair."""
    p = kr("SU4", "trivial")
    assert (p.split.r, p.split.s, p.split.t) == (1, 0, 1)
    dR = next(g for g in p.gens if g.kind == "dR")
    lam = next(g for g in p.gens if g.kind == "lam")
    a, b = p.gen_element(dR.index), p.gen_element(lam.index)
    assert (a * a).is_zero() and (b * b).is_zero()
    r = p.rclass_element(RClassIndex(None, 0, (1,), (0,)))
    # odd (deg 1) times odd (deg -1) anticommute
    assert a * r == -(r * a)
    assert b * r == r * b


def test_stress_verifier_on_wider_groups():
    from eqkr.verifier import (verify_cr, verify_module_iso,
                               verify_rclass_squares, verify_squares)
    for name, kind in [("SU5", "trivial"), ("Sp3", "trivial"),
                       ("Spin7", "trivial"), ("SU2xSU2",
                                              ("trivial", "trivial"))]:
        p = kr(name, kind)
        assert verify_squares(p, n_random=20).passed
        assert verify_cr(p, n_random=20).passed
        assert verify_module_iso(p, 18).passed
        if p.split.t:
            assert verify_rclass_squares(p).passed


# ---------------------------------------------------------------------------
# element protocol, labels and refused inputs
# ---------------------------------------------------------------------------

def test_ring_element_truth_and_foreign_operands():
    p = kr("SU3", "trivial")
    assert p.one() and not p.zero()
    assert p.one() != 1
    e = p.one()
    for foreign in (lambda: 1.5 * e, lambda: e * 1.5, lambda: e + 1, lambda: 1 + e):
        with pytest.raises(TypeError):
            foreign()
    # an int scales; an element of another presentation is refused
    assert (e * 3).terms == {t: 3 * c for t, c in e.terms.items()}
    other = kr("SU3", "sigmaR").one()
    for mixed in (lambda: e * other, lambda: e + other):
        with pytest.raises(PresentationError, match="different presentations"):
            mixed()


def test_term_labels():
    bz = build_bz_presentation(build_root_data("SU3"))
    assert repr(bz.dg_element(0, 1, (0, 1))) == "1*V[0,1].b^1.dG[1,0]"
    p = kr("SU4", "trivial")
    assert repr(p.class_element((0, 1, 0), "eta")) == "1*V[0,1,0].eta"
    lam = next(g for g in p.gens if g.kind == "lam")
    x = p.gen_element(lam.index) * p.rclass_element(RClassIndex((0, 0, 1), 2, (0,), (0,)))
    assert repr(x) == "1*lam[1].r[0,0,1;2;-;-]"
    assert repr(p.rclass_element(RClassIndex(None, 1, (1,), (0,)))) == "1*r[1;1;0;-]"


@pytest.mark.parametrize("call,message", [
    (lambda p, bz: bz.scalar(KRCoeff(one=1)), "KR scalars only live in KR"),
    (lambda p, bz: p.class_element((1, 0)), "complex type"),
    (lambda p, bz: p.dg_element(0), "dg_element lives in BZ"),
    (lambda p, bz: p.bz_weight((1, 0)), "bz_weight lives in BZ"),
    (lambda p, bz: bz.rclass_element(RClassIndex(None, 0, (1,), (0,))),
     "realified classes live in KR"),
    (lambda p, bz: p.rclass_element(RClassIndex(None, 0, (), ())), "length t=1"),
    (lambda p, bz: p.rclass_element(RClassIndex((1, 1), 0, (1,), (0,))),
     "must be trivial or complex type"),
    (lambda p, bz: bz.realify_bz(bz.one()), "lands in a KR presentation"),
    (lambda p, bz: p.realify_bz(bz.one()), "different catalog"),
    (lambda p, bz: complexify(bz), "maps a KR presentation"),
], ids=["scalar", "class", "dg", "bz-weight", "rclass-kind", "rclass-length",
        "rclass-rho", "realify-kind", "realify-catalog", "complexify"])
def test_inputs_of_the_wrong_kind_are_refused(call, message):
    p, bz = kr("SU3", "trivial"), build_bz_presentation(build_root_data("SU3"))
    with pytest.raises(PresentationError, match=message):
        call(p, bz)


@pytest.mark.parametrize("args,message", [
    ((None, -1, (), ()), "Bott exponent"), ((None, 0, (1,), ()), "equal length"),
    ((None, 0, (2,), (0,)), "must be bits"),
    (({(1, 0): 2, (0, 1): -1}, 0, (1,), (0,)), "rho must be")])
def test_rclass_index_validation(args, message):
    with pytest.raises(ValueError, match=message):
        RClassIndex(*args)


def test_rclass_index_from_lists_is_the_tuple_record():
    # lists are stored as tuples, so the frozen record hashes and equals
    # the one built from tuples
    from_lists = RClassIndex([1, 0], 0, [1], [0])
    from_tuples = RClassIndex((1, 0), 0, (1,), (0,))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert (from_lists.rho, from_lists.eps, from_lists.nu) == ((1, 0), (1,), (0,))
    assert RClassIndex(None, 0, [1], [0]) == RClassIndex(None, 0, (1,), (0,))


@pytest.mark.parametrize("name", ["SU3", "SU4", "SU3xSU3"])
def test_lam_kills_a_slot_on_its_own_pair(name):
    # lam_1 . r(rho) times r(dG[gamma_1]): the product's slot uses pair 1,
    # which lam_1 kills; c cannot see this, since c of that term is 0
    p = kr(name, "trivial")
    t = p.split.t
    lam = next(g for g in p.gens if g.kind == "lam" and g.pair == 0)
    rho = p.split.pairs[0][0]
    x = p.gen_element(lam.index) * p.rclass_element(RClassIndex(rho, 0, (0,) * t, (0,) * t))
    y = p.rclass_element(RClassIndex(None, 0, (1,) + (0,) * (t - 1), (0,) * t))
    assert not x.is_zero() and not y.is_zero()
    assert (x * y).is_zero() and (y * x).is_zero()


@pytest.mark.parametrize("name", ["SU3", "Sp2", "U2"])
def test_augmentation_is_a_ring_map(name):
    bz = build_bz_presentation(build_root_data(name))
    k = augment_bz(bz)
    f = bz.rd.fundamental_weights()
    a = bz.dg_element(0, 1, f[1]) + 2 * bz.bz_weight(f[0])
    b = bz.dg_element(1, 0, f[0]) + bz.dg_element(0, 3) * bz.bz_weight(f[1], 2)
    ab = augment_element(k, a * b)
    assert not ab.is_zero()
    assert ab == augment_element(k, a) * augment_element(k, b)
