import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqkr.groups import build_root_data
from eqkr.oracle import (
    OracleError,
    RepModel,
    _chevalley,
    _contraction_rows,
    _echelon,
    _kernel,
    _primitive_basis,
    _theta,
    _weight_pairs,
    defining_rep,
    exterior_rep,
    matrix_oracle_type,
    primitive_exterior_rep,
    rep_for_weight,
    symmetric_rep,
)
from eqkr.realstruct import Involution

# ---------------------------------------------------------------------------
# reference code: dense numpy models, Lie algebras and group elements
# ---------------------------------------------------------------------------


def _pair_basis(n, pairs, s):
    """E_jk + s E_kj and i(E_jk + E_kj) for each (j, k) in pairs, in that order."""
    out = []
    for j, k in pairs:
        for v, w in ((1, s), (1j, 1j)):
            m = np.zeros((n, n), dtype=complex)
            m[j, k], m[k, j] = v, w
            out.append(m)
    return out


def _compact_basis(family, n):
    """A basis of the compact real form: su(n), u(n), or sp(n) inside u(2n)
    as the blocks [[A, B], [-Bbar, Abar]]."""
    e = 1j * np.eye(n)
    if family == "Sp":
        zero = np.zeros((n, n), dtype=complex)
        blocks = ([(np.diag(e[j]), zero) for j in range(n)]
                  + [(a, zero) for a in _pair_basis(n, itertools.combinations(range(n), 2), -1)]
                  + [(zero, b) for b in _pair_basis(
                      n, itertools.combinations_with_replacement(range(n), 2), 1)])
        a, b = (np.array(x) for x in zip(*blocks))
        return np.block([[a, b], [-np.conj(b), np.conj(a)]])
    su = (_pair_basis(n, itertools.combinations(range(n), 2), -1)
          + [np.diag(e[j] - e[j + 1]) for j in range(n - 1)])
    return np.array(su + ([1j * np.eye(n)] if family == "U" else []))


def _unit(m, r, c):
    x = np.zeros((m, m), dtype=int)
    x[r, c] = 1
    return x


def _complex_basis(family, n):
    """A basis of the complexified algebra by integer matrices: sl(n),
    gl(n), or sp(2n, C) = [[A, B], [C, -A^T]] with B and C symmetric."""
    if family == "Sp":
        m = 2 * n
        basis = [_unit(m, i, j) - _unit(m, n + j, n + i) for i in range(n) for j in range(n)]
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            basis += [_unit(m, i, n + j) + _unit(m, j, n + i),
                      _unit(m, n + i, j) + _unit(m, n + j, i)]
        return basis
    basis = [_unit(n, r, c) for r in range(n) for c in range(n) if r != c]
    if family == "U":
        return basis + [_unit(n, i, i) for i in range(n)]
    return basis + [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]


def _symplectic_j(h):
    """J = [[0, I], [-I, 0]] on C^{2h}."""
    eye, zero = np.eye(h, dtype=int), np.zeros((h, h), dtype=int)
    return np.block([[zero, eye], [-eye, zero]])


def _theta_dense(kind, x):
    """theta(X) = conj(sigma_* X), extended C-linearly, on dense matrices."""
    if kind == "trivial":
        return -np.swapaxes(x, -1, -2)
    if kind == "sigmaR":
        return x
    j = _symplectic_j(x.shape[-1] // 2)
    return j @ x @ j.T  # J^-1 = J^T


def _sigma_dense(kind, x):
    """sigma_* on the compact real form."""
    return x if kind == "trivial" else _theta_dense(kind, np.conj(x))


@lru_cache(maxsize=None)
def _integral_units(rep):
    """(N, den): den times d rho of every matrix unit, as one dense int
    (m, m, d, d) array N, with den the common denominator of the entries;
    shared, so read only."""
    m = defining_rep(rep.family, rep.n).size
    den = lcm(*(Fraction(v).denominator for e in rep.units.values() for _, _, v in e))
    out = np.zeros((m, m, rep.size, rep.size), dtype=np.int64)
    for (r, c), entries in rep.units.items():
        for i, j, v in entries:
            out[r, c, i, j] = Fraction(v) * den
    return out, den


def _dense_differential(rep, xs, exact=False):
    """d rho of a dense defining-size matrix, or of each in a stack; exact
    (den times d rho, in integers, for integer xs) or in floating point."""
    units, den = _integral_units(rep)
    got = np.tensordot(xs, units, axes=([-2, -1], [0, 1]))
    return got if exact else got / den


def _integral(rows):
    """den times a matrix of Fractions, as an int array, and den."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return np.array([[int(v * den) for v in row] for row in rows], dtype=np.int64), den


def _expm(a):
    """exp of a square matrix or a stack of them, by scaling and squaring
    of the Taylor series."""
    norm = max(np.abs(a).sum(axis=-1).max(), 1e-300)
    s = max(0, int(np.ceil(np.log2(norm))) + 1)
    a = a / 2 ** s
    out = term = np.broadcast_to(np.eye(a.shape[-1]), a.shape).astype(complex)
    for i in range(1, 20):
        term = term @ a / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _algebra_stack(rng, family, n, count):
    """count random combinations of the compact basis, as one stack."""
    m = defining_rep(family, n).size
    basis = _compact_basis(family, n).reshape(-1, m, m)  # su(1) is empty
    return np.tensordot(rng.uniform(-1, 1, size=(count, len(basis))), basis, 1)


def _compound_by_minors(u, k):
    """Reference compound matrix: one determinant per pair of k-subsets."""
    subs = np.array(list(itertools.combinations(range(u.shape[0]), k)))
    return np.linalg.det(u[subs[:, None, :, None], subs[None, :, None, :]])


def _kron_power(u, k):
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, u)
    return out


def _contraction_dense(n, k):
    """The contraction wedge^k -> wedge^(k-2) with J, from its definition."""
    j = _symplectic_j(n)
    rows = list(itertools.combinations(range(2 * n), k - 2))
    cols = list(itertools.combinations(range(2 * n), k))
    out = np.zeros((len(rows), len(cols)), dtype=int)
    for b, s in enumerate(cols):
        for p, q in itertools.combinations(range(k), 2):
            rest = tuple(x for i, x in enumerate(s) if i not in (p, q))
            out[rows.index(rest), b] += (-1) ** (p + q + 1) * j[s[p], s[q]]
    return out


def _primitive_coordinates(n, k):
    """(Q, R): the model's kernel basis as columns in wedge^k, and the map
    reading a kernel vector's coordinates, checked against the definition."""
    free, kernel = _primitive_basis(n, k)
    q = np.zeros((comb(2 * n, k), len(free)), dtype=object)
    q[...] = Fraction(0)
    for b, vec in enumerate(kernel):
        for i, v in vec.items():
            q[i, b] = Fraction(v)
    r = np.zeros((len(free), comb(2 * n, k)), dtype=int)
    r[range(len(free)), free] = 1
    assert len(free) == comb(2 * n, k) - comb(2 * n, k - 2)
    assert (_contraction_dense(n, k) @ q == 0).all()
    assert (r @ q == np.eye(len(free), dtype=int)).all()
    return q.astype(float), r


def _symmetric_coordinates(m, k):
    """(Q, R) of Sym^k C^m in its monomial basis: Q sends v_1...v_k to the
    sum of v_p(1) x ... x v_p(k) over all permutations p, and R reads a
    monomial's coefficient off its sorted ordering, which Q counts
    (prod of multiplicity factorials) times."""
    monomials = list(itertools.combinations_with_replacement(range(m), k))
    q = np.zeros((m ** k, len(monomials)))
    r = np.zeros((len(monomials), m ** k))
    for b, s in enumerate(monomials):
        for t in itertools.permutations(s):
            q[np.ravel_multi_index(t, (m,) * k), b] += 1
        r[b, np.ravel_multi_index(s, (m,) * k)] = 1 / q[np.ravel_multi_index(s, (m,) * k), b]
    return q, r


def _model(family, n, kind, k):
    """A model and its group-level reference rho, built from minors or
    Kronecker powers of the defining matrix, read in the model's basis."""
    if kind == "wedge":
        return exterior_rep(family, n, k), lambda u: _compound_by_minors(u, k)
    if kind == "primitive":
        q, r = _primitive_coordinates(n, k)
        return primitive_exterior_rep(n, k), lambda u: r @ _compound_by_minors(u, k) @ q
    q, r = _symmetric_coordinates(defining_rep(family, n).size, k)
    return symmetric_rep(family, n, k), lambda u: r @ _kron_power(u, k) @ q


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


def _sparse(x):
    """{(r, c): entry} of a dense matrix, entries as Python numbers."""
    return {(r, c): v.item() for (r, c), v in np.ndenumerate(x) if v}


def _densify(sparse, size, dtype=int):
    out = np.zeros((size, size), dtype=dtype)
    for (r, c), v in sparse.items():
        out[r, c] = v
    return out


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _rows(mat):
    return [{c: int(v) for c, v in enumerate(row) if v} for row in mat]


def _check_kernel(mat, nullity):
    pivots = _echelon(_rows(mat))
    kernel = _kernel(pivots, range(mat.shape[1]))
    assert len(kernel) == nullity
    basis = np.zeros((mat.shape[1], nullity), dtype=object)
    basis[...] = Fraction(0)
    for b, vec in enumerate(kernel):
        for c, v in vec.items():
            basis[c, b] = Fraction(v)
    assert (mat @ basis == 0).all()
    # each vector is 1 at its own free column and 0 at the others: independent
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    assert (basis[free] == np.eye(nullity, dtype=int)).all()
    return basis


def test_echelon_kernel_of_wide_and_tall_matrices():
    # the kernel from the reduced echelon form (_echelon, _kernel),
    # exact, against the numpy rank
    rng = np.random.default_rng(7)
    wide = rng.integers(-5, 6, size=(2, 4))  # rank 2: kernel of dimension 2
    tall = rng.integers(-5, 6, size=(6, 2)) @ rng.integers(-5, 6, size=(2, 3))  # rank 2
    for mat, nullity in ((wide, 2), (tall, 1)):
        assert np.linalg.matrix_rank(mat) == mat.shape[1] - nullity
        _check_kernel(mat, nullity)


@pytest.mark.parametrize("nullity", [1, 2])
def test_echelon_kernel_of_a_stacked_intertwiner_shaped_system(nullity):
    # 23 integer blocks of d^2 x d^2 that all factor through one map c of
    # corank nullity: the stack's exact kernel is the kernel of c, found
    # once across all 23 * 9 rows
    rng = np.random.default_rng(nullity)
    d, blocks = 3, 23
    c = rng.integers(-3, 4, size=(d * d - nullity, d * d))
    mat = np.vstack([rng.integers(-3, 4, size=(d * d, d * d - nullity)) @ c
                     for _ in range(blocks)])
    assert np.linalg.matrix_rank(mat) == d * d - nullity
    basis = _check_kernel(mat, nullity)
    assert (c @ basis == 0).all()


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
# the models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_is_the_compound_matrix(n):
    # exp of the derivation on wedge^k is the compound matrix of exp, on a
    # stack; the defining model is the identity map
    rng = np.random.default_rng(n)
    for family in ("SU", "U"):
        xs = _algebra_stack(rng, family, n, 3)
        _close(_dense_differential(defining_rep(family, n), xs), xs)
        us = _expm(xs)
        for k in range(1, n + 1):
            rep = exterior_rep(family, n, k)
            assert rep.size == comb(n, k)
            _close(_expm(_dense_differential(rep, xs)),
                   np.array([_compound_by_minors(u, k) for u in us]))


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_on_a_stack(n):
    # the dense wedge^k model on a stack of integer matrices is the exact
    # sparse differential of each slice; wedge^0 is the zero map and
    # wedge^n the trace
    xs = np.random.default_rng(n).integers(-4, 5, size=(3, n, n))
    for k in range(n + 1):
        rep = exterior_rep("U", n, k)
        assert _integral_units(rep)[1] == 1
        got = _dense_differential(rep, xs, exact=True)
        assert (got == np.array([_densify(rep.differential(_sparse(x)), rep.size)
                                 for x in xs])).all()
    assert (_dense_differential(exterior_rep("U", n, 0), xs, exact=True) == 0).all()
    top = _dense_differential(exterior_rep("U", n, n), xs, exact=True)
    assert list(top[:, 0, 0]) == list(np.trace(xs, axis1=1, axis2=2))


MODELS = [("SU", 4, "wedge", 2), ("U", 3, "wedge", 2), ("SU", 6, "wedge", 3),
          ("Sp", 2, "wedge", 2), ("Sp", 2, "primitive", 2), ("Sp", 3, "primitive", 2),
          ("Sp", 3, "primitive", 3), ("SU", 2, "sym", 2), ("SU", 2, "sym", 3),
          ("SU", 2, "sym", 4)]
MODEL_IDS = [f"{f}{n}-{kind}{k}" for f, n, kind, k in MODELS]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_differential_exponentiates_to_the_group_model(model):
    rep, rho = _model(*model)
    xs = _algebra_stack(np.random.default_rng(3), model[0], model[1], 4)
    got = _expm(_dense_differential(rep, xs))
    assert got.shape == (4, rep.size, rep.size)
    _close(got, np.array([rho(u) for u in _expm(xs)]))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_differential_is_a_lie_algebra_map(model):
    # d rho([x, y]) = [d rho(x), d rho(y)], exactly, on integer combinations
    # of a basis of the complexified algebra of the model's group
    rep, _ = _model(*model)
    basis = np.array(_complex_basis(model[0], model[1]))
    rng = np.random.default_rng(7)
    xs, ys = (np.tensordot(rng.integers(-3, 4, size=(3, len(basis))), basis, 1)
              for _ in range(2))
    dx, dy = (_dense_differential(rep, z, exact=True) for z in (xs, ys))
    den = _integral_units(rep)[1]
    assert (den * _dense_differential(rep, xs @ ys - ys @ xs, exact=True)
            == dx @ dy - dy @ dx).all()


def test_complex_bases_span_the_algebras():
    for family, n, dim in (("SU", 4, 15), ("U", 3, 9), ("Sp", 3, 21), ("Sp", 1, 3)):
        basis = np.array(_complex_basis(family, n))
        assert len(basis) == dim == np.linalg.matrix_rank(basis.reshape(dim, -1))
        if family == "Sp":
            j = _symplectic_j(n)
            assert (np.swapaxes(basis, 1, 2) @ j + j @ basis == 0).all()
        if family == "SU":
            assert (np.trace(basis, axis1=1, axis2=2) == 0).all()
    # the Chevalley generators and the Cartan basis lie in those algebras
    for family, n in (("SU", 4), ("Sp", 3)):
        m = defining_rep(family, n).size
        cartan, generators = _chevalley(family, n)
        span = np.array(_complex_basis(family, n)).reshape(-1, m * m)
        for x in cartan + generators:
            stacked = np.vstack([span, _densify(x, m).reshape(1, -1)])
            assert np.linalg.matrix_rank(stacked) == len(span)


# ---------------------------------------------------------------------------
# the involutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inv_kind,family,n,size", [
    ("trivial", "SU", 3, 3), ("sigmaR", "SU", 3, 3), ("sigmaR", "Sp", 2, 4),
    ("sigmaH", "SU", 4, 4), ("sigmaH", "U", 2, 2),
])
def test_sigma_on_defining_on_a_stack(inv_kind, family, n, size):
    # sigma on the defining representation maps a stack of compact group
    # elements into the group, and the oracle's theta is conj(sigma_*) on
    # the compact algebra; on a stack of integer matrices theta is the
    # dense formula on each slice, and it is a Lie algebra automorphism
    theta = _theta(inv_kind, family, n)
    rng = np.random.default_rng(size)
    xs = _algebra_stack(rng, family, n, 3)
    for x in xs:
        assert (_densify(theta(_sparse(x)), size, complex)
                == np.conj(_sigma_dense(inv_kind, x))).all()
    us = _sigma_dense(inv_kind, _expm(xs))
    _close(us @ np.conj(np.swapaxes(us, 1, 2)), np.broadcast_to(np.eye(size), us.shape))
    if family == "SU":
        _close(np.linalg.det(us), np.ones(len(us)))
    if family == "Sp":
        j = _symplectic_j(n)
        _close(np.swapaxes(us, 1, 2) @ j @ us, np.broadcast_to(j, us.shape))
    xs = rng.integers(-4, 5, size=(6, size, size))
    for x in xs:
        assert (_densify(theta(_sparse(x)), size) == _theta_dense(inv_kind, x)).all()
    xs, ys = np.split(xs, 2)
    tx, ty = _theta_dense(inv_kind, xs), _theta_dense(inv_kind, ys)
    assert (_theta_dense(inv_kind, xs @ ys - ys @ xs) == tx @ ty - ty @ tx).all()


def test_symplectic_j_squares_to_minus_one():
    for m in (1, 2):
        j = _symplectic_j(m)
        assert (j @ j == -np.eye(2 * m)).all()
        # theta for sigmaH is conjugation by this J, on every matrix unit
        theta = _theta("sigmaH", "SU", 2 * m)
        for r, c in itertools.product(range(2 * m), repeat=2):
            assert (_densify(theta({(r, c): 1}), 2 * m) == j @ _unit(2 * m, r, c) @ -j).all()


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------

def _model_for_weight(group, weight):
    rd = build_root_data(group)
    family, n = rd.spec.factors[0]
    k = rd.fundamental_weights().index(weight) + 1
    if k == 1:
        return defining_rep(family, n)
    rep, _ = _model(family, n, "primitive" if family == "Sp" else "wedge", k)
    assert rep is rep_for_weight(rd, weight)
    return rep


def _stacked_system(rep, kind, xs):
    """S -> d rho(x) S - S d rho(theta x) for each x, stacked, as dense
    (len(xs) d^2, d^2) blocks on row-major vec(S)."""
    eye = np.eye(rep.size)
    return np.vstack([np.kron(_dense_differential(rep, x), eye)
                      - np.kron(eye, _dense_differential(rep, _theta_dense(kind, x)).T)
                      for x in xs])


def _kernel_projector(system):
    _, sv, vh = np.linalg.svd(system, full_matrices=False)  # system is tall
    null = vh[sv < 1e-10 * max(sv[0], 1.0)].conj().T
    return null @ null.conj().T


KERNEL_CASES = [
    ("SU5", "sigmaR", (0, 1, 0, 0)),
    ("Sp3", "trivial", (0, 1, 0)), ("Sp3", "trivial", (0, 0, 1)),
    ("Sp3", "sigmaR", (0, 1, 0)), ("Sp3", "sigmaR", (0, 0, 1)),
    ("SU4", "sigmaH", (0, 1, 0)), ("U4", "sigmaH", (1, 1, 0, 0)),
]


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_eigenbasis_kernel_is_the_sylvester_kernel(group, kind, weight, seed):
    # stage 1 reads the allowed entries of S off the weights, the joint
    # eigenbasis of the Cartan elements; they span the kernel of the
    # Sylvester operator S -> d rho(h) S - S d rho(theta h) of a generic
    # Cartan element h, also where a weight repeats (Sp3 omega2)
    rep = _model_for_weight(group, weight)
    m = defining_rep(rep.family, rep.n).size
    theta = _theta(kind, rep.family, rep.n)
    cartan, _ = _chevalley(rep.family, rep.n)
    pairs = _weight_pairs(rep, theta, cartan)
    rng = random.Random(seed)
    h = sum(rng.uniform(-1, 1) * _densify(x, m) for x in cartan)
    units = np.zeros((rep.size, rep.size))
    for a, b in pairs:
        units[a, b] = 1
    np.testing.assert_allclose(np.diag(units.ravel()), _kernel_projector(
        _stacked_system(rep, kind, [h])), rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_two_stage_kernel_is_the_stacked_kernel(group, kind, weight, seed):
    # the two-stage intertwiner (the Cartan elements restrict S to weight
    # pairs, then the Chevalley generators give the remaining equations)
    # spans the kernel of the system stacked over the whole algebra basis,
    # which an SVD finds in floating point; the decision draws nothing, so
    # any seed gives the same S
    rep = _model_for_weight(group, weight)
    _, s = matrix_oracle_type(rep, kind, seed=seed)
    assert s == matrix_oracle_type(rep, kind)[1]
    v = np.array(s, dtype=float).reshape(-1, 1)
    np.testing.assert_allclose(
        v @ v.T / (v.T @ v),
        _kernel_projector(_stacked_system(rep, kind, _complex_basis(rep.family, rep.n))),
        rtol=0, atol=1e-10)


ORACLE_SUITE_CASES = [("SU4", "sigmaH"), ("Sp3", "trivial"), ("Sp1", "sigmaR"),
                      ("Sp2", "sigmaR"), ("Sp3", "sigmaR"), ("U3", "sigmaR")]


def _decisions(group, kind):
    rd = build_root_data(group)
    inv = Involution(rd, kind)
    for w in rd.fundamental_weights():
        if inv.twisted_dual_weight(w) == w:
            rep = rep_for_weight(rd, w)
            yield rep, matrix_oracle_type(rep, kind)[1]


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
        for rep, s in _decisions(group, kind):
            assert all(type(v) is Fraction for row in s for v in row), rep.label
            assert next(v for row in s for v in row if v) == 1, rep.label
            count += 1
    assert count == 37


@pytest.mark.parametrize("group,kind", ORACLE_SUITE_CASES)
def test_intertwiner_solves_the_equation_on_the_whole_algebra(group, kind):
    # the oracle uses the Chevalley generators only; its S satisfies
    # d rho(x) S = S d rho(theta x) exactly for every x of a basis of the
    # complexified algebra
    for rep, s in _decisions(group, kind):
        s, _ = _integral(s)  # both sides scale by the same denominators
        for x in _complex_basis(rep.family, rep.n):
            lhs = _dense_differential(rep, x, exact=True) @ s
            rhs = s @ _dense_differential(rep, _theta_dense(kind, x), exact=True)
            assert (lhs == rhs).all(), (rep.label, x)


@pytest.mark.parametrize("group,kind", ORACLE_SUITE_CASES)
def test_intertwiner_intertwines_group_elements(group, kind):
    # rho(g) S = S conj(rho(sigma g)) for random g = exp(x) of the compact
    # group, with rho(g) the exponential of the densified model
    rng = np.random.default_rng(11)
    for rep, s in _decisions(group, kind):
        s = np.array(s, dtype=float)
        xs = _algebra_stack(rng, rep.family, rep.n, 3)
        rg = _expm(_dense_differential(rep, xs))
        rsg = _expm(_dense_differential(rep, _sigma_dense(kind, xs)))
        _close(rg @ s, s @ np.conj(rsg))


def test_contraction_rows_are_the_contraction():
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 4)):
        dense = np.zeros((comb(2 * n, k - 2), comb(2 * n, k)), dtype=int)
        for i, row in enumerate(_contraction_rows(n, k)):
            for c, v in row.items():
                dense[i, c] = v
        assert (dense == _contraction_dense(n, k)).all()


def test_models_outside_the_catalog_are_refused():
    with pytest.raises(OracleError, match="no matrix realization of sigmaH on SU\\(3\\)"):
        matrix_oracle_type(defining_rep("SU", 3), "sigmaH")
    with pytest.raises(OracleError, match="no Lie algebra model for family G"):
        matrix_oracle_type(defining_rep("G", 2), "trivial")


def test_su3_defining_has_no_trivial_intertwiner():
    # C^3 is not self-dual: no S solves rho(g) S = S conj(rho(g))
    with pytest.raises(OracleError, match="dimension 0"):
        matrix_oracle_type(defining_rep("SU", 3), "trivial")


def test_a_scalar_square_is_required():
    # C^3 + C: the intertwiner space is one-dimensional (it lives on the
    # trivial summand), but S^2 is not a multiple of the identity
    rep = RepModel("SU", 3, defining_rep("SU", 3).units, 4, "SU3 defining+trivial")
    with pytest.raises(OracleError, match="S.Sbar of SU3 defining\\+trivial is not a "
                                          "nonzero multiple of the identity"):
        matrix_oracle_type(rep, "trivial")


def test_su2_defining_trivial_is_quaternionic():
    t, s = matrix_oracle_type(defining_rep("SU", 2), "trivial")
    assert t == "H"
    # S is the classical epsilon matrix, scaled to a leading 1
    assert s == [[0, 1], [-1, 0]]


def test_su2_defining_conjugation_is_real():
    t, s = matrix_oracle_type(defining_rep("SU", 2), "sigmaR")
    assert t == "R"
    assert s == [[1, 0], [0, 1]]


def test_sp2_defining_trivial_is_quaternionic():
    t, _ = matrix_oracle_type(defining_rep("Sp", 2), "trivial")
    assert t == "H"


def test_sp2_primitive_wedge2_is_real():
    rep = primitive_exterior_rep(2, 2)
    assert rep.size == 5
    t, _ = matrix_oracle_type(rep, "trivial")
    assert t == "R"


def test_full_wedge2_of_sp2_is_not_irreducible():
    # wedge^2 C^4 is 6-dimensional and reducible over Sp(2)
    with pytest.raises(OracleError):
        matrix_oracle_type(exterior_rep("Sp", 2, 2), "trivial")


def test_full_wedge2_of_sp3_is_not_irreducible():
    # wedge^2 C^6 = V_omega2 + C: a two-dimensional intertwiner space
    with pytest.raises(OracleError, match="dimension 2"):
        matrix_oracle_type(exterior_rep("Sp", 3, 2), "trivial")


def test_su2_symmetric_powers_alternate():
    for n in range(1, 5):
        rep = defining_rep("SU", 2) if n == 1 else symmetric_rep("SU", 2, n)
        assert rep.size == n + 1
        t, _ = matrix_oracle_type(rep, "trivial")
        assert t == ("H" if n % 2 else "R")


def test_sigma_h_alternation_cross_check():
    # catalog rule for SU(4) with the symplectic involution, against the oracle
    for k, expect in ((1, "H"), (2, "R"), (3, "H")):
        rep = defining_rep("SU", 4) if k == 1 else exterior_rep("SU", 4, k)
        t, _ = matrix_oracle_type(rep, "sigmaH")
        assert t == expect


@pytest.mark.parametrize("group,kind", [("U2", "sigmaR"), ("U3", "sigmaR"), ("U4", "sigmaH")])
def test_unitary_group_fundamentals_match_the_catalog(group, kind):
    # U(n) takes the gl(n) Cartan basis (the centre included) and the U
    # branch of rep_for_weight; every fundamental is self-twisted-dual here
    rd = build_root_data(group)
    inv = Involution(rd, kind)
    funds = rd.fundamental_weights()
    assert all(inv.twisted_dual_weight(w) == w for w in funds)
    for w in funds:
        got, _ = matrix_oracle_type(rep_for_weight(rd, w), kind)
        assert got == inv.catalog_type(w), w
