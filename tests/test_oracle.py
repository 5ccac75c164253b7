"""The exact oracle: its linear algebra, models and decisions.  Each
decision is re-verified by ``certificate.check``, an exact checker that
imports nothing from eqkr; no floating-point reference is left."""

import copy
import random
import re
from collections import Counter
from fractions import Fraction
from inspect import isfunction
from itertools import product

import certificate
import pytest
from certificate import _bracket, _mul
from hypothesis import given, settings
from hypothesis import strategies as st

from eqkr import oracle
from eqkr.groups import build_root_data, character, dominant_weights_up_to_dim
from eqkr.oracle import (
    OracleError,
    RepModel,
    _echelon,
    _kernel,
    _weight_model,
    matrix_oracle_type,
    rep_for_weight,
)
from eqkr.realstruct import Involution

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _gauss_jordan(rows, width):
    """Reference reduced echelon form, dense and in Fractions throughout:
    {pivot column: row as a list}."""
    rest = [[Fraction(v) for v in row] for row in rows]
    pivots = {}
    for col in range(width):
        lead = next((row for row in rest if row[col]), None)
        if lead is None:
            continue
        rest.remove(lead)
        lead = [v / lead[col] for v in lead]
        for row in rest + list(pivots.values()):
            row[:] = [v - row[col] * w for v, w in zip(row, lead)]
        pivots[col] = lead
    return pivots


def _random_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _check_kernel(mat, nullity):
    """The kernel of integer rows by _echelon and _kernel, checked: mat
    kills each vector, which is 1 at its own free column, 0 at the others."""
    width = len(mat[0])
    pivots = _echelon([{c: v for c, v in enumerate(row) if v} for row in mat])
    kernel = _kernel(pivots, range(width))
    assert len(kernel) == nullity == width - len(_gauss_jordan(mat, width))
    assert all(sum(row[c] * v for c, v in vec.items()) == 0 for row in mat for vec in kernel)
    free = [c for c in range(width) if c not in pivots]
    assert [[vec.get(f, 0) for f in free] for vec in kernel] == [
        [int(f == g) for f in free] for g in free]
    return kernel


def test_echelon_kernel_of_wide_and_tall_matrices():
    # the kernel from the reduced echelon form (_echelon, _kernel), exact,
    # against the rank of the dense reference elimination
    rng = random.Random(7)
    wide = _random_matrix(rng, 2, 4, 5)  # rank 2: kernel of dimension 2
    tall = _times(_random_matrix(rng, 6, 2, 5), _random_matrix(rng, 2, 3, 5))  # rank 2
    for mat, nullity in ((wide, 2), (tall, 1)):
        _check_kernel(mat, nullity)


@pytest.mark.parametrize("nullity", [1, 2])
def test_echelon_kernel_of_a_stacked_intertwiner_shaped_system(nullity):
    # 23 integer blocks of d^2 x d^2 that all factor through one map c of
    # corank nullity: the stack's exact kernel is the kernel of c, found
    # once across all 23 * 9 rows
    rng = random.Random(nullity)
    d, blocks = 3, 23
    c = _random_matrix(rng, d * d - nullity, d * d, 3)
    mat = [row for _ in range(blocks)
           for row in _times(_random_matrix(rng, d * d, d * d - nullity, 3), c)]
    for vec in _check_kernel(mat, nullity):
        assert all(sum(row[k] * v for k, v in vec.items()) == 0 for row in c)


@st.composite
def _sparse_integer_matrices(draw):
    """(width, rows): mostly-zero integer rows with non-unit entries, some
    of them zero rows or integer combinations of two earlier rows."""
    width = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "combination", "zero"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * width)
        elif kind == "combination":
            (x, a), (y, b) = (draw(st.tuples(entry, st.sampled_from(rows))) for _ in range(2))
            rows.append([x * u + y * w for u, w in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return width, rows


@given(_sparse_integer_matrices())
@settings(max_examples=150, deadline=None)
def test_echelon_and_kernel_against_dense_gauss_jordan(matrix):
    # the sparse elimination gives the reference's pivots and values, and
    # keeps every integral value an int: the oracle's models, systems and
    # S.Sbar stay in int arithmetic through it
    width, rows = matrix
    pivots = _echelon([{c: v for c, v in enumerate(row) if v} for row in rows])
    want = _gauss_jordan(rows, width)
    assert sorted(pivots) == list(want)
    for col, row in pivots.items():
        assert [row.get(c, 0) for c in range(width)] == want[col]
        assert all(v and (type(v) is int) == (v.denominator == 1) for v in row.values())
    kernel = _kernel(pivots, range(width))
    assert len(pivots) + len(kernel) == width
    for vec in kernel:
        assert all(type(v) is int or v.denominator > 1 for v in vec.values())
        assert all(sum(row[c] * v for c, v in vec.items()) == 0 for row in rows)
    free = [c for c in range(width) if c not in pivots]
    assert [[vec.get(f, 0) for f in free] for vec in kernel] == [
        [int(f == g) for f in free] for g in free]


# ---------------------------------------------------------------------------
# the highest-weight model
# ---------------------------------------------------------------------------

FAMILIES = ["SU2", "SU3", "SU4", "SU5", "SU6", "Sp2", "Sp3", "Sp4", "Spin7", "Spin8",
            "Spin9", "Spin10", "G2", "F4", "E6", "E7", "E8"]


def test_weight_spaces_have_the_character_multiplicities():
    # every dominant weight of dimension <= 60 on every family, and E8's
    # adjoint: each weight space has Freudenthal's dimension, and under
    # trivial every self-dual weight is decided as the catalog types it
    modules = decisions = 0
    for group in FAMILIES:
        rd = build_root_data(group)
        inv = Involution(rd, "trivial")
        for w in dominant_weights_up_to_dim(rd, 60) + ((0,) * 7 + (1,),) * (group == "E8"):
            rep = _weight_model(rd, w)
            assert Counter(rep.weights) == Counter(character(rd, w)), (group, w)
            modules += 1
            if inv.twisted_dual_weight(w) == w:
                assert matrix_oracle_type(rep, "trivial")[0] == inv.catalog_type(w), (group, w)
                decisions += 1
    assert (modules, decisions) == (211, 137)


@pytest.mark.parametrize("group,weight", [
    ("SU3", (1, 1)), ("Sp2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 1)),
    ("Spin8", (0, 1, 0, 0)), ("F4", (0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0))])
def test_chevalley_relations_hold(group, weight):
    # the checker's relation half: e_i and f_i move every weight by
    # +-alpha_i, [e_i, f_j] = delta_ij h_i with h_i diagonal on the
    # weights, and the Serre relations ad(e_i)^(1 - a_ij) e_j = 0 =
    # ad(f_i)^(1 - a_ij) f_j, with a_ij = <alpha_j, alpha_i^vee>
    rep = _weight_model(build_root_data(group), weight)
    assert certificate.relations(rep.cartan, rep.weights, rep.e, rep.f) is None



def _lowered_with_a_wrong_h_term(rep, i, b):
    out = _LOWERED(rep, i, b)
    out[b] = out.get(b, 0) + 1
    return out


def _lowered_without_e1(rep, i, b):
    # drops e_1 f_i b, the part of weight wt b - alpha_i + alpha_1
    shift = [row[0] - row[i] for row in rep.cartan]
    target = tuple(x + y for x, y in zip(rep.weights[b], shift))
    return {c: v for c, v in _LOWERED(rep, i, b).items() if rep.weights[c] != target}


_LOWERED = oracle._lowered


@pytest.mark.parametrize("mutant", [_lowered_with_a_wrong_h_term, _lowered_without_e1])
@pytest.mark.parametrize("group,weight", [("SU3", (1, 1)), ("Sp2", (1, 1)), ("G2", (0, 1))])
def test_a_wrong_model_fails_the_rank_test(monkeypatch, group, weight, mutant):
    # negative controls: a wrong h-term in e_j f_i b, and e_1 dropped from
    # the stacked images, each make the rank miss the Weyl dimension (a
    # wrong h-term passes it and, without the cap, never ends)
    rd = build_root_data(group)
    monkeypatch.setattr(oracle, "_lowered", mutant)
    with pytest.raises(OracleError, match="Weyl dimension"):
        _weight_model.__wrapped__(rd, weight)


def test_rep_for_weight_keeps_the_fundamentals_of_su_sp_and_u():
    # a plain function, so that the benchmark's tracer sees it, over a
    # cache shared by every involution: SU4's three decide on one build
    assert isfunction(rep_for_weight)
    rd = build_root_data("SU4")
    for w in rd.fundamental_weights():
        assert rep_for_weight(rd, w) is rep_for_weight(rd, list(w))
    assert rep_for_weight(rd, (1, 1, 0)) is None
    for group in ("G2", "Spin8", "E6", "F4", "SU2xSU2", "SU3xU2"):
        rd = build_root_data(group)
        assert all(rep_for_weight(rd, w) is None for w in rd.fundamental_weights())
    # U(n): the A_(n-1) labels plus the central weight, and U1 is rank 0
    rep = rep_for_weight(build_root_data("U3"), (1, 1, 0))
    assert (rep.size, rep.label, rep.group) == (3, "U3 V(1, 1, 0)", "U(3)")
    assert sorted(rep.weights) == [(-1, 0, 2), (0, 1, 2), (1, -1, 2)]
    rep = rep_for_weight(build_root_data("U1"), (1,))
    assert (rep.size, rep.weights, rep.cartan) == (1, [(1,)], ())


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------

ORACLE_SUITE_CASES = [("SU4", "sigmaH"), ("Sp3", "trivial"), ("Sp1", "sigmaR"),
                      ("Sp2", "sigmaR"), ("Sp3", "sigmaR"), ("U3", "sigmaR")]


def _decisions(group, kind):
    """(weight, model, S) for every self-twisted-dual fundamental."""
    rd = build_root_data(group)
    inv = Involution(rd, kind)
    for w in rd.fundamental_weights():
        if inv.twisted_dual_weight(w) == w:
            rep = rep_for_weight(rd, w)
            yield w, rep, matrix_oracle_type(rep, kind)


# every decision that has a model: perfbench's oracle-crosscheck cases, plus
# Sp(n)/sigmaR and the U(n) cases
ALL_ORACLE_CASES = ([(f"SU{n}", kind) for n in range(2, 6) for kind in ("trivial", "sigmaR")]
                    + [("SU2", "sigmaH"), ("SU4", "sigmaH")]
                    + [(f"Sp{n}", kind) for n in range(1, 4) for kind in ("trivial", "sigmaR")]
                    + [("U2", "sigmaR"), ("U3", "sigmaR"), ("U4", "sigmaH")])


def test_intertwiner_is_returned_in_fractions_with_a_leading_one():
    # matrix_oracle_type's contract, on all 37 decisions: the elimination
    # keeps integral values as ints, and the returned S alone is made of
    # Fractions, scaled so that its first nonzero entry is 1
    count = 0
    for group, kind in ALL_ORACLE_CASES:
        for _, rep, (_, s) in _decisions(group, kind):
            assert all(type(v) is Fraction for row in s for v in row), rep.label
            assert next(v for row in s for v in row if v) == 1, rep.label
            count += 1
    assert count == 37


def test_the_checker_certifies_every_oracle_decision():
    # all 37 decisions, re-verified from their data alone: the model is
    # V_lam, and S intertwines rho with rho o theta, for the checker's own
    # theta, with S^2 = c I of the decided sign
    count = 0
    for group, kind in ALL_ORACLE_CASES:
        for _, rep, (got, s) in _decisions(group, kind):
            assert certificate.check(rep.cartan, rep.weights, rep.e, rep.f, kind, s,
                                     got) is None, rep.label
            count += 1
    assert count == 37


@pytest.mark.parametrize("fault,witness", [
    ("S entry", "S does not intertwine"),
    ("e entry", "[e_0, f_0] is not h_0"),
    ("V+V", "the e_i kill a space of dimension 2, not a line"),
    ("theta", "S does not intertwine e_0 with theta e_0 under sigmaR"),
    ("type", "S^2 = 4 I, which is not of type H")])
def test_the_checker_refuses_a_broken_certificate(fault, witness):
    # negative controls on Sp2 V(0, 1), R under trivial: one entry of S or
    # of e_0 changed, the reducible V + V with the S that intertwines it,
    # sigmaR's theta, and the other type claimed
    rep = _model_of("Sp2", (0, 1))
    got, s = matrix_oracle_type(rep, "trivial")
    e, kind = copy.deepcopy(rep.e), "trivial"
    if fault == "S entry":
        s[0][s[0].index(1)] = 2
    elif fault == "e entry":
        col = next(col for col in e[0] if col)
        col[min(col)] *= 2
    elif fault == "V+V":
        rep, n = _direct_sum(rep, rep, "Sp2 V(0, 1)+V(0, 1)"), len(s)
        e, s = rep.e, [row + [0] * n for row in s] + [[0] * n + row for row in s]
        assert all(_mul(x, _sparse(s)) == _mul(_sparse(s), tx) for x, tx in _pairs(rep, kind))
    elif fault == "theta":
        kind = "sigmaR"
    else:
        got = "H"
    assert certificate.check(rep.cartan, rep.weights, e, rep.f, kind, s, got).startswith(witness)


def _sparse(s):
    return {(a, b): v for a, row in enumerate(s) for b, v in enumerate(row) if v}


def _pairs(rep, kind):
    """(rho(x), rho(theta x)) for x = e_i, f_i, h_i and the centre, with
    the checker's theta."""
    return [(x, tx) for _, x, tx in
            certificate.theta_pairs(kind, rep.cartan, rep.weights, rep.e, rep.f)]


def _spanning_pairs(pairs):
    """Pairs (x, theta x), from the given ones and their nested brackets,
    whose first entries form a basis of the image of the algebra they
    generate; theta is an automorphism, so the bracket of two pairs is
    again a pair."""
    span, level = [], pairs
    while level:
        new = []
        for x, tx in level:
            if len(_echelon([y for y, _ in span + new] + [x])) > len(span) + len(new):
                new.append((x, tx))
        span += new
        level = [(_bracket(x, y), _bracket(tx, ty)) for (x, tx), (y, ty) in product(pairs, new)]
    return span


@pytest.mark.parametrize("group,kind", ORACLE_SUITE_CASES)
def test_intertwiner_solves_the_equation_on_the_whole_algebra(group, kind):
    # the oracle uses the generators e_i, f_i only; its S satisfies
    # rho(x) S = S rho(theta x) exactly for every x of a basis of the
    # algebra they and the centre generate
    for _, rep, (_, s) in _decisions(group, kind):
        basis, s = _spanning_pairs(_pairs(rep, kind)), _sparse(s)
        # the whole algebra; on the determinant of U3, its centre alone
        assert len(basis) == (1 if rep.size == 1 else {
            "SU4": 15, "Sp1": 3, "Sp2": 10, "Sp3": 21, "U3": 9}[group])
        for x, tx in basis:
            assert _mul(x, s) == _mul(s, tx), rep.label


KERNEL_CASES = [("SU5", "sigmaR", (0, 1, 0, 0)), ("Sp3", "trivial", (0, 1, 0)),
                ("Sp3", "trivial", (0, 0, 1)), ("Sp3", "sigmaR", (0, 1, 0)),
                ("Sp3", "sigmaR", (0, 0, 1)), ("SU4", "sigmaH", (0, 1, 0)),
                ("U4", "sigmaH", (1, 1, 0, 0))]


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_two_stage_kernel_is_the_stacked_kernel(group, kind, weight, seed):
    # the two-stage S (the weights restrict it, then e_i, f_i) spans the
    # kernel of S -> rho(x) S - S rho(theta x) over every generator x and
    # all d^2 entries; the decision draws nothing, so any seed gives it
    rep = rep_for_weight(build_root_data(group), weight)
    _, s = matrix_oracle_type(rep, kind, seed=seed)
    assert s == matrix_oracle_type(rep, kind)[1]
    d, system = rep.size, {}
    for g, (x, tx) in enumerate(_pairs(rep, kind)):  # entry (p, q) of x S - S tx
        terms = [(p, q, a * d + q, v) for (p, a), v in x.items() for q in range(d)]
        terms += [(p, q, p * d + b, -v) for (b, q), v in tx.items() for p in range(d)]
        for p, q, u, v in terms:
            eq = system.setdefault((g, p, q), {})
            eq[u] = eq.get(u, 0) + v
    kernel, = certificate.null_space(system.values(), d * d)
    lead = kernel[min(kernel)]
    assert {u: v / lead for u, v in kernel.items() if v} == {
        a * d + b: v for (a, b), v in _sparse(s).items()}


def _model_of(group, weight):
    return _weight_model(build_root_data(group), weight)


def _direct_sum(a, b, label):
    """The model of a + b: b's basis vectors follow a's."""
    rep = RepModel(a.cartan, a.group, label, a.weights[0], a.size + b.size)
    rep.weights = a.weights + b.weights
    rep.e, rep.f = ([ma + [{c + a.size: v for c, v in col.items()} for col in mb]
                     for ma, mb in zip(xa, xb)] for xa, xb in ((a.e, b.e), (a.f, b.f)))
    return rep


def test_models_outside_the_catalog_are_refused():
    for group, weight, name in (("SU3", (1, 0), "SU\\(3\\)"), ("G2", (1, 0), "G\\(2\\)"),
                                ("U1", (1,), "U\\(1\\)")):
        with pytest.raises(OracleError, match=f"no matrix realization of sigmaH on {name}"):
            matrix_oracle_type(_model_of(group, weight), "sigmaH")


def test_su3_defining_has_no_trivial_intertwiner():
    # C^3 is not self-dual: no S solves rho(g) S = S conj(rho(g))
    with pytest.raises(OracleError, match="SU3 V\\(1, 0\\) has dimension 0"):
        matrix_oracle_type(_model_of("SU3", (1, 0)), "trivial")


@pytest.mark.parametrize("group,weight", [("U2", (1, 0)), ("U4", (1, 1, 0, 0))])
def test_unitary_fundamentals_have_no_trivial_intertwiner(group, weight):
    # theta negates the central weight under trivial only, so the models
    # of U2 wedge^1 and U4 wedge^2 are not self-conjugate there
    with pytest.raises(OracleError, match="dimension 0"):
        matrix_oracle_type(_model_of(group, weight), "trivial")


def test_a_scalar_square_is_required():
    # C^3 + C: the intertwiner space is one-dimensional (it lives on the
    # trivial summand), but S^2 is not a multiple of the identity
    rep = _direct_sum(_model_of("SU3", (1, 0)), _model_of("SU3", (0, 0)), "SU3 V(1, 0)+C")
    with pytest.raises(OracleError, match="S.Sbar of SU3 V\\(1, 0\\)\\+C is not a "
                                          "nonzero multiple of the identity"):
        matrix_oracle_type(rep, "trivial")


def test_su2_defining_trivial_is_quaternionic():
    t, s = matrix_oracle_type(_model_of("SU2", (1,)), "trivial")
    assert t == "H"
    # S is the classical epsilon matrix, scaled to a leading 1
    assert s == [[0, 1], [-1, 0]]


def test_su2_defining_conjugation_is_real():
    t, s = matrix_oracle_type(_model_of("SU2", (1,)), "sigmaR")
    assert t == "R"
    assert s == [[1, 0], [0, 1]]


def test_sp2_defining_trivial_is_quaternionic():
    t, _ = matrix_oracle_type(_model_of("Sp2", (1, 0)), "trivial")
    assert t == "H"


def test_sp2_primitive_wedge2_is_real():
    rep = _model_of("Sp2", (0, 1))
    assert rep.size == 5
    t, _ = matrix_oracle_type(rep, "trivial")
    assert t == "R"


def test_full_wedge2_of_sp2_is_not_irreducible():
    # wedge^2 C^4 = V_omega2 + C over Sp(2), and V + V is not irreducible either
    v = _model_of("Sp2", (0, 1))
    for rep, dim in ((_direct_sum(v, _model_of("Sp2", (0, 0)), "Sp2 wedge^2"), 2),
                     (_direct_sum(v, v, "Sp2 V(0, 1)+V(0, 1)"), 4)):
        with pytest.raises(OracleError, match=re.escape(f"{rep.label} has dimension {dim}")):
            matrix_oracle_type(rep, "trivial")


def test_full_wedge2_of_sp3_is_not_irreducible():
    # wedge^2 C^6 = V_omega2 + C: a two-dimensional intertwiner space
    rep = _direct_sum(_model_of("Sp3", (0, 1, 0)), _model_of("Sp3", (0, 0, 0)), "Sp3 wedge^2")
    with pytest.raises(OracleError, match="dimension 2"):
        matrix_oracle_type(rep, "trivial")


def test_su2_symmetric_powers_alternate():
    for n in range(1, 5):
        rep = _model_of("SU2", (n,))
        assert rep.size == n + 1
        t, _ = matrix_oracle_type(rep, "trivial")
        assert t == ("H" if n % 2 else "R")


def test_sigma_h_alternation_cross_check():
    # catalog rule for SU(4) with the symplectic involution, against the oracle
    rd = build_root_data("SU4")
    for w, expect in zip(rd.fundamental_weights(), "HRH"):
        t, _ = matrix_oracle_type(rep_for_weight(rd, w), "sigmaH")
        assert t == expect


@pytest.mark.parametrize("group,kind", [("U2", "sigmaR"), ("U3", "sigmaR"), ("U4", "sigmaH")])
def test_unitary_group_fundamentals_match_the_catalog(group, kind):
    # U(n) carries its central weight, which theta keeps under these kinds,
    # through the U branch of rep_for_weight; every fundamental is
    # self-twisted-dual here
    rd = build_root_data(group)
    inv = Involution(rd, kind)
    funds = rd.fundamental_weights()
    assert all(inv.twisted_dual_weight(w) == w for w in funds)
    for w in funds:
        got, _ = matrix_oracle_type(rep_for_weight(rd, w), kind)
        assert got == inv.catalog_type(w), w
