import random

from conftest import kr
from hypothesis import given, settings
from hypothesis import strategies as st

from eqkr.coeffs import (
    KR_BASIS,
    KR_DEGREE,
    KR_TORSION,
    KCoeff,
    KRCoeff,
    c_coeff,
    r_coeff,
    r_pattern,
)
from eqkr.presentation import poincare_table, rclass_indices

ONE = KRCoeff(one=1)
ETA = KRCoeff.basis("eta")
ETA2 = KRCoeff.basis("eta2")
MU = KRCoeff.basis("mu")


def test_normal_form_relations():
    assert (ETA * ETA) == ETA2
    assert (ETA * ETA * ETA).is_zero()
    assert (2 * ETA).is_zero()
    assert (ETA * MU).is_zero()
    assert MU * MU == 4 * ONE


def test_basis_records_equal_their_fields():
    built = {"1": KRCoeff(1, 0, 0, 0), "eta": KRCoeff(0, 1, 0, 0),
             "eta2": KRCoeff(0, 0, 1, 0), "mu": KRCoeff(0, 0, 0, 1)}
    for name in KR_BASIS:
        x = KRCoeff.basis(name)
        assert x == built[name] and hash(x) == hash(built[name])
        assert x.as_dict() == {n: int(n == name) for n in KR_BASIS}
        # one shared record per name, which is safe because it is frozen
        assert KRCoeff.basis(name) is x


def test_c_map_values():
    assert c_coeff(ONE) == KCoeff((1, 0, 0, 0))
    assert c_coeff(ETA).is_zero()
    assert c_coeff(MU) == KCoeff((0, 0, 2, 0))


def test_r_map_values():
    assert r_coeff(KCoeff((1, 0, 0, 0))) == 2 * ONE
    assert r_pattern(1) == ETA2
    assert r_pattern(2) == MU
    assert r_pattern(3).is_zero()
    assert r_pattern(5) == ETA2  # periodic in i mod 4


def test_c_is_ring_map_r_is_not():
    for a in (ONE, ETA, ETA2, MU):
        for b in (ONE, ETA, ETA2, MU):
            assert c_coeff(a * b) == c_coeff(a) * c_coeff(b)
    r1 = r_coeff(KCoeff((1, 0, 0, 0)))
    assert r1 * r1 == 2 * r1  # r(1)^2 = 4 = 2 r(1), not r of a product


def test_c_r_composite_is_one_plus_conj():
    for i in range(8):
        b = KCoeff.beta(i)
        assert c_coeff(r_coeff(b)) == b + b.conj()


def test_projection_formula_full_basis():
    for x in (ONE, ETA, ETA2, MU):
        for j in range(4):
            y = KCoeff.beta(j)
            assert r_coeff(c_coeff(x) * y) == x * r_coeff(y)


def test_eta_detection():
    assert not r_pattern(1).is_zero()
    assert (2 * r_pattern(1)).is_zero()


def _random_kr(rng):
    return KRCoeff(rng.randint(-6, 6), rng.randint(0, 1), rng.randint(0, 1),
                   rng.randint(-6, 6))


def test_associativity_and_commutativity_200_random_triples():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = _random_kr(rng), _random_kr(rng), _random_kr(rng)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


kr_elems = st.builds(KRCoeff, st.integers(-9, 9), st.integers(0, 1),
                     st.integers(0, 1), st.integers(-9, 9))
k_elems = st.builds(lambda t: KCoeff(tuple(t)),
                    st.tuples(*(st.integers(-9, 9),) * 4))


@given(kr_elems, kr_elems, kr_elems)
@settings(max_examples=80)
def test_kr_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(k_elems, kr_elems)
@settings(max_examples=80)
def test_projection_formula_random(y, x):
    assert r_coeff(c_coeff(x) * y) == x * r_coeff(y)


@given(k_elems)
@settings(max_examples=80)
def test_c_r_random(y):
    assert c_coeff(r_coeff(y)) == y + y.conj()


# ---------------------------------------------------------------------------
# equivariant graded pieces
# ---------------------------------------------------------------------------

def test_trivial_group_pattern():
    # KR*(pt) itself: (free rank, Z/2 rank) in degrees 0, -1, ..., -7
    expected = {0: (1, 0), -1: (0, 1), -2: (0, 1), -3: (0, 0),
                -4: (1, 0), -5: (0, 0), -6: (0, 0), -7: (0, 0)}
    for q, (free, tors) in expected.items():
        names = [name for name, deg in KR_DEGREE.items() if deg % 8 == q % 8]
        assert (sum(name not in KR_TORSION for name in names),
                sum(name in KR_TORSION for name in names)) == (free, tors)


def test_su2_pieces():
    # the engine's coefficient classes: an H-type irreducible carries the
    # KO pattern shifted by -4, so its mu lands in degree 0
    p = kr("SU2", "trivial")
    for n in range(4):
        kind = p.classify((n,)).type
        assert kind == ("R", "H")[n % 2]
        shift = 0 if kind == "R" else -4
        degrees = {}
        for name in KR_BASIS:
            (term,) = p.class_element((n,), name).terms
            degrees[name] = p.term_degree(term) % 8
        assert degrees == {name: (deg + shift) % 8 for name, deg in KR_DEGREE.items()}
        # every self-dual irrep contributes exactly one free summand in degree 0
        free0 = [name for name, d in degrees.items() if d == 0 and name not in KR_TORSION]
        assert free0 == (["1"] if kind == "R" else ["mu"])


def test_complex_pairs_contribute_free_even_degrees():
    p = kr("SU3", "trivial")
    # r(beta^i) of one member of the pair (1, 0)/(0, 1): one class in each
    # even degree
    plain = [idx for idx in rclass_indices(p.split.t, (0, 1))
             if not any(idx.eps) and not any(idx.nu)]
    degrees = sorted(p.term_degree(t) for idx in plain for t in p.rclass_element(idx).terms)
    assert degrees == [-6, -4, -2, 0]
    # the whole pair adds free ranks and no torsion to the module table
    with_pair, without = poincare_table(p, 3), poincare_table(p, 1)
    assert all(with_pair[q][1] == without[q][1] for q in with_pair)
    assert all(with_pair[q][0] > without[q][0] for q in with_pair)
