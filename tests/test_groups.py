import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import run_python

import eqkr

from eqkr import groups, presentation
from eqkr.groups import (
    _KERNEL_CACHES,
    DominanceError,
    GroupSpec,
    InvariantError,
    SimpleRootData,
    UnsupportedGroupError,
    _dominant_multiplicities,
    _dominate_signed,
    _expand_monomial_cached,
    build_root_data,
    cartan_matrix,
    character,
    dominant_weights_up_to_dim,
    parse_group,
    tensor_decompose,
    weyl_dimension,
)
from eqkr.presentation import as_fundamental_polynomial


# ---------------------------------------------------------------------------
# brute-force Weyl group oracle
# ---------------------------------------------------------------------------

def _reflection_matrix(rd, i):
    dim = rd.dim
    cols = [rd.reflect_simple(tuple(1 if k == j else 0 for k in range(dim)), i)
            for j in range(dim)]
    return tuple(tuple(cols[j][k] for j in range(dim)) for k in range(dim))


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def weyl_group(rd):
    """Closure of the simple reflections, as matrices on weight tuples."""
    eye = tuple(tuple(int(i == j) for j in range(rd.dim))
                for i in range(rd.dim))
    gens = [_reflection_matrix(rd, i) for i in range(rd.n_simple())]
    seen = {eye}
    todo = [eye]
    while todo:
        m = todo.pop()
        for g in gens:
            m2 = _matmul(g, m)
            if m2 not in seen:
                seen.add(m2)
                todo.append(m2)
    return seen


def _apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(v)))


def _w0(rd):
    """The brute-force longest element: the one sending rho to -rho."""
    rho = rd.rho_vec()
    w0s = [m for m in weyl_group(rd) if _apply(m, rho) == tuple(-x for x in rho)]
    assert len(w0s) == 1
    return w0s[0]


def _w0_by_reduced_word(rd):
    """w0 as the product of the reflections that carry rho to -rho.

    rho is regular, so the only element sending it to -rho is w0; the
    word must have one letter per positive root.
    """
    rho = rd.rho_vec()
    m = tuple(tuple(int(i == j) for j in range(rd.dim)) for i in range(rd.dim))
    v, length = rho, 0
    while True:
        up = [i for i in range(rd.n_simple()) if rd.pairing_simple(v, i) > 0]
        if not up:
            break
        v = rd.reflect_simple(v, up[0])
        m = _matmul(_reflection_matrix(rd, up[0]), m)
        length += 1
    assert v == tuple(-x for x in rho) and length == len(rd.positive_roots())
    return m


def _assert_dual_is_minus_w0(rd, w0):
    for lam in rd.fundamental_weights():
        assert _apply(w0, lam) == tuple(-x for x in rd.dual_weight(lam))


def test_su2_root_data_smallest_case():
    rd = build_root_data("SU2")
    assert rd.rank == 1
    assert len(rd.positive_roots()) == 1
    w0 = _w0(rd)
    assert w0 == ((-1,),)
    _assert_dual_is_minus_w0(rd, w0)


def test_su4_root_data_against_weyl_enumeration():
    rd = build_root_data("SU4")
    w = weyl_group(rd)
    assert len(w) == 24  # S_4
    assert len(rd.positive_roots()) == 6
    # w0 is the unique element sending rho to -rho, and equals -(flip)
    flip = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
    assert _w0(rd) == flip
    _assert_dual_is_minus_w0(rd, flip)


def test_sp2_root_data_against_weyl_enumeration():
    rd = build_root_data("Sp2")
    w = weyl_group(rd)
    assert len(w) == 8
    assert len(rd.positive_roots()) == 4
    assert rd.diagram_automorphisms() == ((0, 1),)  # trivial group
    _assert_dual_is_minus_w0(rd, _w0(rd))


def test_w0_negates_positive_roots():
    for name in ("SU2", "SU3", "SU4", "SU5", "SU6", "Sp2", "Spin7", "Spin8", "Spin10", "G2",
                 "E6", "E7"):
        rd = build_root_data(name)
        w0 = _w0_by_reduced_word(rd)
        if len(rd.positive_roots()) <= 20:  # |W| <= 1920: enumerate the whole group
            assert w0 == _w0(rd)
        pos = {rd.root_to_weight(c) for c in rd.positive_roots()}
        neg = {tuple(-x for x in v) for v in pos}
        assert {_apply(w0, v) for v in pos} == neg
        _assert_dual_is_minus_w0(rd, w0)
        # -w0 moves Dynkin labels only on A_n (n >= 2), D_odd and E6
        moved = any(rd.dual_weight(w) != w for w in rd.fundamental_weights())
        assert moved == (name in ("SU3", "SU4", "SU5", "SU6", "Spin10", "E6")), name


def test_cartan_matrix_invariants():
    for name in ("SU5", "Sp3", "Spin8", "G2", "F4", "E6"):
        rd = build_root_data(name)
        a = rd.cartan
        for i in range(rd.rank):
            assert a[i][i] == 2
            for j in range(rd.rank):
                if i != j:
                    assert a[i][j] <= 0
        # <omega_i, alpha_j^vee> = delta: reflections act on fundamentals
        for i, w in enumerate(rd.fundamental_weights()):
            for j in range(rd.rank):
                assert rd.pairing_simple(w, j) == int(i == j)


def _cartan_data_over_the_rationals(a):
    """The symmetrizers d and the Gram matrix of a Cartan matrix, computed
    with Fraction: d propagated along the diagram, the inverse by
    Gauss-Jordan, the form scaled by the lcm of its denominators."""
    n = len(a)
    d = [Fraction(1)] + [None] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                todo.append(j)
    scale = math.lcm(*(x.denominator for x in d))
    d = [int(x * scale) for x in d]
    g = math.gcd(*d)
    d = [x // g for x in d]
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    qform = [[aug[j][n + i] * d[j] for j in range(n)] for i in range(n)]
    scale = math.lcm(*(x.denominator for row in qform for x in row))
    gram = tuple(tuple(int(x * scale) for x in row) for row in qform)
    return tuple(d), gram


# every catalog series and rank: A1-A8, B2-B8, C2-C8, D4-D8, G2, F4, E6-E8
_SIMPLE_CATALOG = ([f"SU{r + 1}" for r in range(1, 9)]
                   + [f"Spin{2 * r + 1}" for r in range(2, 9)]
                   + [f"Sp{r}" for r in range(2, 9)]
                   + [f"Spin{2 * r}" for r in range(4, 9)]
                   + ["G2", "F4", "E6", "E7", "E8"])


@pytest.mark.parametrize("name", _SIMPLE_CATALOG)
def test_integer_cartan_data_match_the_rationals(name):
    rd = build_root_data(name)
    a, n = rd.cartan, rd.rank
    d, gram = _cartan_data_over_the_rationals(a)
    # alpha^vee = 2 alpha / (alpha, alpha) in the basis alpha_j^vee = 2 alpha_j / (2 d_j)
    coroots = []
    for c in rd.positive_roots():
        norm = sum(c[j] * c[k] * d[k] * a[k][j] for j in range(n) for k in range(n))
        coroots.append(tuple(Fraction(2 * c[j] * d[j], norm) for j in range(n)))
    assert rd.positive_coroots() == tuple(sorted(coroots))
    # the canonical form is W-invariant and a positive multiple of the reference
    for i in range(n):
        s = _reflection_matrix(rd, i)
        assert _matmul(_matmul(tuple(zip(*s)), rd.gram), s) == rd.gram
    scale = Fraction(rd.gram[0][0], gram[0][0])
    assert scale > 0
    assert rd.gram == tuple(tuple(scale * x for x in row) for row in gram)


# ---------------------------------------------------------------------------
# dimensions and characters
# ---------------------------------------------------------------------------

def test_weyl_dimension_su2_classical():
    rd = build_root_data("SU2")
    for n in range(8):
        assert weyl_dimension(rd, (n,)) == n + 1


def test_weyl_dimension_su3_hand_value():
    rd = build_root_data("SU3")
    assert weyl_dimension(rd, (1, 0)) == 3
    assert weyl_dimension(rd, (1, 1)) == 8


def test_weyl_dimension_sp2_against_character_mass():
    rd = build_root_data("Sp2")
    assert weyl_dimension(rd, (0, 1)) == 5
    for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert sum(character(rd, lam).values()) == weyl_dimension(rd, lam)


def test_character_su2():
    rd = build_root_data("SU2")
    assert character(rd, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}


def test_character_su3_adjoint_freudenthal_by_hand():
    rd = build_root_data("SU3")
    ch = character(rd, (1, 1))
    assert ch[(0, 0)] == 2
    roots = {rd.root_to_weight(c) for c in rd.positive_roots()}
    for r in roots:
        assert ch[r] == 1
        assert ch[tuple(-x for x in r)] == 1
    assert sum(ch.values()) == 8


def test_character_sp2_defining_orbit():
    rd = build_root_data("Sp2")
    ch = character(rd, (1, 0))
    assert len(ch) == 4
    assert set(ch.values()) == {1}
    assert ch == {w: 1 for w in rd.orbit((1, 0))}


def test_character_weyl_invariance():
    for name, lam in [("SU3", (2, 1)), ("Sp2", (1, 1)), ("Spin7", (0, 0, 1))]:
        rd = build_root_data(name)
        ch = character(rd, lam)
        for i in range(rd.n_simple()):
            assert all(ch[rd.reflect_simple(w, i)] == m for w, m in ch.items())


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_su2_clebsch_gordan():
    rd = build_root_data("SU2")
    assert tensor_decompose(rd, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert tensor_decompose(rd, (2,), (1,)) == {(3,): 1, (1,): 1}


def test_tensor_su3_examples_against_character_product():
    rd = build_root_data("SU3")
    assert tensor_decompose(rd, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert tensor_decompose(rd, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}


def _char_product(rd, a, b):
    out = {}
    for w1, m1 in character(rd, a).items():
        for w2, m2 in character(rd, b).items():
            w = tuple(x + y for x, y in zip(w1, w2))
            out[w] = out.get(w, 0) + m1 * m2
    return out


@pytest.mark.parametrize("name,pairs", [
    ("SU3", [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((2, 0), (2, 0))]),
    ("Sp2", [((1, 0), (1, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1))]),
    ("SU4", [((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 1, 0))]),
    ("U3", [((2, 0, 0), (2, 0, 0)), ((2, 1, 0), (1, 0, -1))]),
    ("SU2xSU3", [((1, 2, 0), (1, 2, 0)), ((0, 1, 1), (1, 0, 1))]),
])
def test_tensor_is_character_homomorphism(name, pairs):
    rd = build_root_data(name)
    for a, b in pairs:
        dec = tensor_decompose(rd, a, b)
        total = {}
        for nu, m in dec.items():
            for w, k in character(rd, nu).items():
                total[w] = total.get(w, 0) + m * k
                if total[w] == 0:
                    del total[w]
        assert total == _char_product(rd, a, b)
        dims = sum(m * weyl_dimension(rd, nu) for nu, m in dec.items())
        assert dims == weyl_dimension(rd, a) * weyl_dimension(rd, b)


@pytest.mark.parametrize("name", ["SU6", "Spin10"])
def test_tensor_with_the_trivial_weight_is_identity(name):
    rd = build_root_data(name)
    zero = rd.zero()
    assert _dominant_multiplicities(rd, zero) == {zero: 1}
    for w in rd.fundamental_weights():
        assert tensor_decompose(rd, zero, w) == tensor_decompose(rd, w, zero) == {w: 1}


def test_duality():
    su3 = build_root_data("SU3")
    assert su3.dual_weight((1, 0)) == (0, 1)
    sp3 = build_root_data("Sp3")
    for lam in [(1, 0, 0), (0, 1, 0), (2, 1, 0)]:
        assert sp3.dual_weight(lam) == lam  # w0 = -1 in type C
    rng = random.Random(3)
    for name in ("SU4", "Spin7", "G2"):
        rd = build_root_data(name)
        for _ in range(5):
            lam = tuple(rng.randrange(3) for _ in range(rd.rank))
            assert rd.dual_weight(rd.dual_weight(lam)) == lam


def test_character_returns_a_fresh_dict():
    rd = build_root_data("SU3")
    ch = character(rd, (1, 1))
    ch[(0, 0)] = 99
    del ch[(1, 1)]
    assert character(rd, (1, 1))[(0, 0)] == 2
    assert (1, 1) in character(rd, (1, 1))


@pytest.mark.parametrize("group,lam,mu", [("SU3", (1, 0), (0, 1)),
                                          ("SU2xSU3", (1, 1, 0), (1, 0, 1))])
def test_tensor_decompose_returns_a_fresh_dict(group, lam, mu):
    rd = build_root_data(group)
    got = tensor_decompose(rd, lam, mu)
    expected = dict(got)
    top = tuple(a + b for a, b in zip(lam, mu))
    got[top] = 99
    del got[min(got)]
    assert tensor_decompose(rd, lam, mu) == expected
    assert tensor_decompose(rd, mu, lam) == expected


def test_determinism():
    a = character(build_root_data("SU3"), (2, 1))
    b = character(build_root_data("SU3"), (2, 1))
    assert a == b
    assert tensor_decompose(build_root_data("Sp2"), (1, 1), (1, 0)) == \
        tensor_decompose(build_root_data("Sp2"), (1, 1), (1, 0))


# ---------------------------------------------------------------------------
# U(n) and products
# ---------------------------------------------------------------------------

def test_un_torus_restriction_examples():
    u1 = build_root_data("U1")
    assert character(u1, (1,)) == {(1,): 1}
    u2 = build_root_data("U2")
    assert character(u2, (1, 0)) == {(1, 0): 1, (0, 1): 1}
    assert character(u2, (1, 1)) == {(1, 1): 1}


def test_un_arithmetic():
    u2 = build_root_data("U2")
    assert weyl_dimension(u2, (1, 0)) == 2
    assert weyl_dimension(u2, (2, 0)) == 3
    assert u2.dual_weight((1, 0)) == (0, -1)
    assert tensor_decompose(u2, (1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
    assert tensor_decompose(u2, (1, 0), (0, -1)) == {(1, -1): 1, (0, 0): 1}
    u3 = build_root_data("U3")
    ch = character(u3, (1, 1, 0))
    assert ch == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}


def test_products():
    rd = build_root_data("SU2xSU2")
    assert weyl_dimension(rd, (1, 1)) == 4
    assert tensor_decompose(rd, (1, 0), (1, 0)) == {(2, 0): 1, (0, 0): 1}
    ch = character(rd, (1, 1))
    assert sum(ch.values()) == 4


def test_every_root_data_is_the_product_of_its_factors():
    rd = build_root_data("SU2xSU3")
    assert rd is build_root_data(parse_group("SU2xSU3"))
    assert rd.factors[1] is build_root_data("SU3")
    assert build_root_data("SU3").factors == (build_root_data("SU3"),)
    with pytest.raises(DominanceError):
        weyl_dimension(build_root_data("SU2xU2"), (1, 0, 1))  # U2 part (0, 1)


def test_group_spec_validation():
    with pytest.raises(UnsupportedGroupError):
        parse_group("SU1")
    with pytest.raises(UnsupportedGroupError):
        parse_group("Spin4")
    with pytest.raises(UnsupportedGroupError):
        parse_group("E9")
    with pytest.raises(UnsupportedGroupError):
        parse_group("bogus")
    assert str(parse_group("SU2xSp3")) == "SU2xSp3"


@pytest.mark.parametrize("factor,message", [
    (("Spin", 4), "type D needs rank >= 3"), (("Spin", 3), "type B needs rank >= 2"),
    (("SU", 1), "rank 0 invalid for type A"), (("X", 1), "unsupported family X")])
def test_a_hand_built_group_spec_is_checked_by_the_root_data(factor, message):
    # a GroupSpec built directly skips parse_group's rank table
    with pytest.raises(UnsupportedGroupError, match=message):
        build_root_data(GroupSpec((factor,)))


def test_cartan_matrix_refuses_an_unknown_series():
    with pytest.raises(UnsupportedGroupError, match="unknown series 'X'"):
        cartan_matrix("X", 2)


def test_dominance_errors():
    rd = build_root_data("SU3")
    with pytest.raises(DominanceError):
        weyl_dimension(rd, (-1, 0))
    with pytest.raises(DominanceError):
        character(rd, (1,))


def test_non_integral_pairing_raises_typed_error(monkeypatch):
    # (2, 1) is not a coroot of SU3: with it as the only coroot the Weyl
    # quotient of lam = (1, 0) is <lam + rho, c> / <rho, c> = 5/3
    monkeypatch.setattr(SimpleRootData, "positive_coroots", lambda self: ((2, 1),))
    with pytest.raises(InvariantError, match="5/3"):
        groups._weyl_dimension(build_root_data("SU3"), (1, 0))


def test_invariant_error_survives_optimized_mode():
    code = ("from eqkr.groups import InvariantError, _expand_monomial_cached, "
            "build_root_data\n"
            "try:\n"
            "    _expand_monomial_cached(build_root_data('SU3'), (-1, 0))\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    res = run_python("-O", "-c", code)
    assert res.returncode == 0, res.stderr


def test_the_package_has_no_assert_statement():
    # python -O strips assert, so every check in eqkr raises a typed error
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(eqkr.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_imports_no_numpy():
    # eqkr has no runtime dependency, and the tests check it in exact
    # arithmetic: neither the package nor the test suite imports numpy
    found = [f"{path.parent.name}/{path.name}:{node.lineno}"
             for path in sorted(Path(eqkr.__file__).parent.rglob("*.py"))
             + sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "numpy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert found == []


def _broken_form(monkeypatch, form):
    monkeypatch.setattr(SimpleRootData, "ip", lambda self, v, w: form(v, w))
    rd = build_root_data("SU3")
    return lambda lam: _dominant_multiplicities(rd, lam)


@pytest.mark.usefixtures("cold_kernel_caches")
def test_zero_freudenthal_denominator_raises_typed_error(monkeypatch):
    # a form that vanishes makes every denominator |lam+rho|^2 - |mu+rho|^2 zero
    multiplicities = _broken_form(monkeypatch, lambda v, w: 0)
    with pytest.raises(InvariantError, match="denominator of \\(0, 0\\) .* is zero"):
        multiplicities((1, 1))


@pytest.mark.usefixtures("cold_kernel_caches")
def test_non_integral_freudenthal_quotient_raises_typed_error(monkeypatch):
    # the plain dot product of Dynkin labels is not W-invariant: the weight
    # (0, 1) of the symmetric square comes out as 8/5
    multiplicities = _broken_form(monkeypatch, lambda v, w: sum(x * y for x, y in zip(v, w)))
    with pytest.raises(InvariantError, match="8/5"):
        multiplicities((2, 0))


# ---------------------------------------------------------------------------
# the Weyl alternant walk of the Klimyk step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ["SU2", "SU3", "SU4", "SU5", "Spin7", "Sp3", "Spin8",
                                   "G2", "F4", "E6", "U3"])
def test_dominate_signed_against_the_positive_root_pairings(group):
    # v lies on a wall iff some positive root pairs to zero with it;
    # otherwise the Weyl element taking v to the dominant chamber has
    # length = the number of positive roots pairing negatively with v
    rd = build_root_data(group)
    rng = random.Random(group)
    for _ in range(60):
        v = tuple(rng.randint(-4, 4) for _ in range(rd.dim))
        pairings = [rd.coroot_pairing(v, c) for c in rd.positive_coroots()]
        sign, w = _dominate_signed(rd, v)
        if 0 in pairings:
            assert sign == 0, v
        else:
            assert sign == (-1) ** sum(x < 0 for x in pairings), v
            assert w == rd.dominate(v), v


# ---------------------------------------------------------------------------
# R(G): fundamental polynomials, monomial expansions, bounded weight lists
# ---------------------------------------------------------------------------

def test_as_fundamental_polynomial_roundtrip():
    su3 = build_root_data("SU3")
    for lam in [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3)]:
        poly = as_fundamental_polynomial(su3, lam)
        total = {}
        for exp, c in poly.items():
            for w, m in _expand_monomial_cached(su3, exp).items():
                total[w] = total.get(w, 0) + c * m
                if total[w] == 0:
                    del total[w]
        assert total == {lam: 1}


def _weight_product(a, b):
    """The product of two characters, as weight -> multiplicity maps."""
    out = {}
    for w, m in a.items():
        for w2, m2 in b.items():
            key = tuple(x + y for x, y in zip(w, w2))
            out[key] = out.get(key, 0) + m * m2
    return out


@pytest.mark.parametrize("group,weights", [
    ("SU3", [(1, 0), (2, 1), (0, 3), (2, 2)]),
    ("U3", [(1, 0, 0), (2, 1, -1), (0, 0, -2), (3, 1, 1)]),
    ("SU2xSU2", [(0, 0), (1, 0), (2, 1), (0, 3), (3, 2)]),
    ("SU2xSU3", [(1, 1, 0), (2, 0, 1), (0, 2, 1), (3, 1, 1)]),
    ("SU3xSU3", [(1, 0, 0, 1), (2, 1, 0, 1), (0, 1, 2, 0)]),
    ("Sp2xSU2", [(1, 0, 1), (0, 1, 2), (1, 1, 1)]),
    ("SU2xU2", [(1, 1, 0), (2, 0, -1), (0, 2, 1), (1, -1, -2)]),
])
def test_fundamental_polynomial_against_fundamental_characters(group, weights):
    # sum c . prod chi(f_i)^e_i, the fundamental characters multiplied as
    # weight maps (a negative exponent through the inverse determinant's
    # character), must be the character of V_lam
    rd = build_root_data(group)
    funds = rd.fundamental_weights()
    chars = [character(rd, f) for f in funds]
    inverses = [character(rd, rd.dual_weight(f)) if weyl_dimension(rd, f) == 1 else None
                for f in funds]
    for lam in weights:
        total = {}
        for exp, c in as_fundamental_polynomial(rd, lam).items():
            term = {rd.zero(): c}
            for chi, inverse, e in zip(chars, inverses, exp):
                for _ in range(abs(e)):
                    term = _weight_product(term, chi if e > 0 else inverse)
            for w, m in term.items():
                total[w] = total.get(w, 0) + m
        assert {w: m for w, m in total.items() if m} == character(rd, lam), lam


def _naive_monomial(rd, funds, exp):
    """prod funds[i]^exp[i], one fundamental at a time; a negative
    exponent multiplies by the inverse character -funds[i]."""
    weights = {rd.zero(): 1}
    for f, a in zip(funds, exp):
        if a < 0:
            f, a = tuple(-x for x in f), -a
        for _ in range(a):
            nxt = {}
            for w, m in weights.items():
                for w2, m2 in tensor_decompose(rd, w, f).items():
                    nxt[w2] = nxt.get(w2, 0) + m * m2
            weights = nxt
    return weights


@pytest.mark.parametrize("group,exps", [
    ("SU3", [(0, 0), (2, 0), (1, 2), (0, 3), (2, 2)]),
    ("Sp2", [(1, 1), (2, 0), (0, 2), (2, 1)]),
    ("G2", [(1, 1), (2, 0), (0, 2)]),
    ("SU2xSU3", [(1, 1, 1), (2, 0, 1), (0, 1, 2), (3, 2, 0)]),
    ("U3", [(1, 1, -1), (2, 0, -2), (0, 1, 1), (1, 2, 0), (0, 0, -3)]),
    ("SU2xU2", [(1, 1, -1), (2, 2, -1), (0, 0, -2)]),
])
def test_monomial_expansion_matches_naive_product(group, exps):
    # the expansion builds on cached shorter monomials; the reference
    # multiplies afresh
    rd = build_root_data(group)
    funds = rd.fundamental_weights()
    for exp in exps:
        got = _expand_monomial_cached(rd, exp)
        assert got == _naive_monomial(rd, funds, exp), exp


@pytest.mark.parametrize("group,exp", [("SU3", (-1, 2)), ("SU2xSU3", (1, -1, 1)),
                                       ("U3", (-1, 1, 1)), ("U3", (2, -1, 0))])
def test_negative_exponent_before_the_last_slot_is_refused(group, exp):
    rd = build_root_data(group)
    with pytest.raises(InvariantError, match="negative exponent") as excinfo:
        _expand_monomial_cached(rd, exp)
    assert excinfo.type is InvariantError


@pytest.mark.parametrize("group", ["SU2", "SU3", "Sp2", "G2", "SU3xSU3", "SU2xSU2",
                                   "SU2xG2", "SU2xSU2xSU2"])
def test_dominant_weights_up_to_dim_honour_the_bound(group):
    rd = build_root_data(group)
    # dim V_w > w_i (the alpha_i-string through w), so every dominant
    # weight of dimension <= 10 has entries <= 9
    dims = {w: weyl_dimension(rd, w)
            for w in itertools.product(range(10), repeat=rd.dim)}
    for bound in (-5, 0, 1, 2, 3, 8, 10):
        got = dominant_weights_up_to_dim(rd, bound)
        assert got == tuple(sorted(w for w, d in dims.items() if d <= bound))
        assert got is dominant_weights_up_to_dim(rd, bound)


def test_every_kernel_cache_is_registered():
    # cold_kernel_caches clears groups._KERNEL_CACHES, so a process-wide
    # cache keyed on root data outside it would leak across patched tests;
    # _root_data is the per-spec registry of the root-data objects themselves
    def caches(mod):
        return {obj for obj in vars(mod).values()
                if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__}
    assert caches(groups) == set(_KERNEL_CACHES) | {groups._root_data}
    assert len(_KERNEL_CACHES) == len(set(_KERNEL_CACHES))
    assert caches(presentation) == set()
