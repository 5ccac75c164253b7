import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from inspect import isfunction
from math import comb, lcm

import numpy as np
import pytest
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
# reference models: SU(n), Sp(n) and U(n) on the matrix units of the
# defining representation, as the oracle modelled them before it built
# V_lam from the Cartan matrix; the float decisions below are made on them
# ---------------------------------------------------------------------------


class RefModel:
    """A representation given by its differential d rho on a rational weight
    basis: units[(r, c)] lists the nonzero entries (i, j, v) of d rho(E_rc)
    for the matrix unit E_rc of the defining representation."""

    def __init__(self, family, n, units, size, label):
        self.family, self.n, self.units, self.size, self.label = family, n, units, size, label


def _tensor_derivation(m, k, exterior):
    """(units, size) of wedge^k C^m on its k-subsets, or of Sym^k C^m on its
    k-multisets, both as sorted tuples.  E_rc replaces a factor e_c by e_r:
    on wedge^k with the sign of sorting e_r into place, on Sym^k with the
    multiplicity of c as coefficient.  Each r from lo up to the next factor
    (onto it in Sym^k) goes to place q, |p - q| factors from e_c's place p."""
    basis = list((itertools.combinations if exterior
                  else itertools.combinations_with_replacement)(range(m), k))
    idx = {s: i for i, s in enumerate(basis)}
    units = {}
    for b, s in enumerate(basis):
        for c in dict.fromkeys(s):
            p = s.index(c)
            rest, lo = s[:p] + s[p + 1:], 0
            for q, hi in enumerate(rest + (m,)):
                v = (-1) ** ((p - q) % 2) if exterior else s.count(c)
                for r in range(lo, hi + (not exterior and hi < m)):
                    units.setdefault((r, c), []).append((idx[rest[:q] + (r,) + rest[q:]], b, v))
                lo = hi + 1
    return {rc: tuple(e) for rc, e in units.items()}, len(basis)


@lru_cache(maxsize=None)
def defining_rep(family, n):
    m = 2 * n if family == "Sp" else n
    units = {(r, c): ((r, c, 1),) for r in range(m) for c in range(m)}
    return RefModel(family, n, units, m, f"{family}{n} defining")


@lru_cache(maxsize=None)
def exterior_rep(family, n, k):
    units, size = _tensor_derivation(defining_rep(family, n).size, k, True)
    return RefModel(family, n, units, size, f"{family}{n} wedge^{k}")


@lru_cache(maxsize=None)
def symmetric_rep(family, n, k):
    units, size = _tensor_derivation(defining_rep(family, n).size, k, False)
    return RefModel(family, n, units, size, f"{family}{n} sym^{k}")


def _contraction_rows(n, k):
    """The contraction wedge^k C^2n -> wedge^(k-2) with the form J = [[0, I],
    [-I, 0]]: one sparse row per (k-2)-subset, over the k-subsets."""
    idx = {s: i for i, s in enumerate(itertools.combinations(range(2 * n), k - 2))}
    rows = [{} for _ in idx]
    for b, s in enumerate(itertools.combinations(range(2 * n), k)):
        for p, q in itertools.combinations(range(k), 2):
            if s[q] == s[p] + n:  # J is 1 at (i, i + n); s is sorted, so never -1
                rows[idx[s[:p] + s[p + 1:q] + s[q + 1:]]][b] = (-1) ** (p + q + 1)
    return rows


@lru_cache(maxsize=None)
def _primitive_basis(n, k):
    """(free columns, kernel vectors) of the contraction on wedge^k C^2n,
    from its reduced echelon form: one kernel vector per free column, and
    a kernel vector's coordinates are its entries at the free columns."""
    pivots, size = _echelon(_contraction_rows(n, k)), exterior_rep("Sp", n, k).size
    return [f for f in range(size) if f not in pivots], _kernel(pivots, range(size))


@lru_cache(maxsize=None)
def primitive_exterior_rep(n, k):
    """Fundamental V_{omega_k} of Sp(n): the kernel of the contraction in
    wedge^k, invariant under d rho of sp(2n, C).  d rho(E_rc) sends each
    kernel vector to the free-column entries of its wedge^k image, which
    are its coordinates when E_rc is replaced by an element of sp(2n, C)."""
    free, kernel = _primitive_basis(n, k)
    coord = {f: i for i, f in enumerate(free)}
    at = {}  # the entries (b, x) of the kernel vectors at each wedge^k column
    for b, vec in enumerate(kernel):
        for j, x in vec.items():
            at.setdefault(j, []).append((b, x))
    units = {}
    for rc, entries in exterior_rep("Sp", n, k).units.items():
        image = {}
        for i, j, v in entries:
            if i in coord:
                a = coord[i]
                for b, x in at.get(j, ()):
                    image[a, b] = image.get((a, b), 0) + x * v
        units[rc] = tuple((a, b, v) for (a, b), v in image.items() if v)
    return RefModel("Sp", n, units, len(free), f"Sp{n} primitive wedge^{k}")


def _reference_for_weight(group, weight):
    """The reference model of a fundamental weight of SU(n), Sp(n) or U(n)."""
    rd = build_root_data(group)
    family, n = rd.spec.factors[0]
    k = rd.fundamental_weights().index(tuple(weight)) + 1
    if k == 1:
        return defining_rep(family, n)
    return primitive_exterior_rep(n, k) if family == "Sp" else exterior_rep(family, n, k)


# ---------------------------------------------------------------------------
# dense numpy helpers: Lie algebras, group elements and the reference models
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
# the reference models
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
    # the wedge^k model is integral, and on a stack of integer matrices
    # wedge^0 is the zero map and wedge^n the trace
    xs = np.random.default_rng(n).integers(-4, 5, size=(3, n, n))
    assert all(_integral_units(exterior_rep("U", n, k))[1] == 1 for k in range(n + 1))
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


def test_contraction_rows_are_the_contraction():
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 4)):
        dense = np.zeros((comb(2 * n, k - 2), comb(2 * n, k)), dtype=int)
        for i, row in enumerate(_contraction_rows(n, k)):
            for c, v in row.items():
                dense[i, c] = v
        assert (dense == _contraction_dense(n, k)).all()


# ---------------------------------------------------------------------------
# the involutions on the reference side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inv_kind,family,n,size", [
    ("trivial", "SU", 3, 3), ("sigmaR", "SU", 3, 3), ("sigmaR", "Sp", 2, 4),
    ("sigmaH", "SU", 4, 4), ("sigmaH", "U", 2, 2),
])
def test_sigma_on_defining_on_a_stack(inv_kind, family, n, size):
    # sigma on the defining representation maps a stack of compact group
    # elements into the group, and the matrix theta is conj(sigma_*) on the
    # compact algebra; on a stack of integer matrices theta is a Lie
    # algebra automorphism
    rng = np.random.default_rng(size)
    xs = _algebra_stack(rng, family, n, 3)
    _close(_theta_dense(inv_kind, xs), np.conj(_sigma_dense(inv_kind, xs)))
    us = _sigma_dense(inv_kind, _expm(xs))
    _close(us @ np.conj(np.swapaxes(us, 1, 2)), np.broadcast_to(np.eye(size), us.shape))
    if family == "SU":
        _close(np.linalg.det(us), np.ones(len(us)))
    if family == "Sp":
        j = _symplectic_j(n)
        _close(np.swapaxes(us, 1, 2) @ j @ us, np.broadcast_to(j, us.shape))
    xs, ys = np.split(rng.integers(-4, 5, size=(6, size, size)), 2)
    tx, ty = _theta_dense(inv_kind, xs), _theta_dense(inv_kind, ys)
    assert (_theta_dense(inv_kind, xs @ ys - ys @ xs) == tx @ ty - ty @ tx).all()


def test_symplectic_j_squares_to_minus_one():
    # so J^-1 = J^T = -J, which the matrix theta of sigmaH relies on
    for m in (1, 2):
        j = _symplectic_j(m)
        assert (j @ j == -np.eye(2 * m)).all()
        assert (j.T == -j).all()


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


def _integral_generators(rep):
    """(E, F, den): den times rho(e_i) and rho(f_i), as dense int arrays."""
    den = lcm(*(Fraction(v).denominator for m in rep.e + rep.f for col in m
                for v in col.values()))

    def dense(cols):
        out = np.zeros((rep.size, rep.size), dtype=np.int64)
        for b, col in enumerate(cols):
            for a, v in col.items():
                out[a, b] = Fraction(v) * den
        return out
    return [dense(c) for c in rep.e], [dense(c) for c in rep.f], den


@pytest.mark.parametrize("group,weight", [
    ("SU3", (1, 1)), ("Sp2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 1)),
    ("Spin8", (0, 1, 0, 0)), ("F4", (0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0))])
def test_chevalley_relations_hold(group, weight):
    # [e_i, f_j] = delta_ij h_i, with h_i diagonal on the weights, and the
    # Serre relations ad(e_i)^(1 - a_ij) e_j = 0 = ad(f_i)^(1 - a_ij) f_j,
    # with a_ij = <alpha_j, alpha_i^vee>
    rd = build_root_data(group)
    rep = _weight_model(rd, weight)
    es, fs, den = _integral_generators(rep)
    hs = [np.diag([w[i] for w in rep.weights]) for i in range(rd.rank)]
    for i, j in itertools.product(range(rd.rank), repeat=2):
        assert (es[i] @ fs[j] - fs[j] @ es[i] == (i == j) * den * den * hs[i]).all()
        if i != j:
            for xs in (es, fs):
                z = xs[j]
                for _ in range(1 - rd.cartan[i][j]):
                    z = xs[i] @ z - z @ xs[i]
                assert not z.any(), (group, i, j)


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

def _sylvester(pairs):
    """S -> x S - S y for each (x, y), stacked, as dense (len(pairs) d^2,
    d^2) blocks on row-major vec(S)."""
    eye = np.eye(len(pairs[0][0]))
    return np.vstack([np.kron(x, eye) - np.kron(eye, y.T) for x, y in pairs])


def _stacked_system(rep, kind, xs):
    """The reference system: S -> d rho(x) S - S d rho(theta x) for each x."""
    return _sylvester([(_dense_differential(rep, x), _dense_differential(rep, _theta_dense(kind, x)))
                       for x in xs])


def _null_vectors(system):
    _, sv, vh = np.linalg.svd(system, full_matrices=False)  # system is tall
    return vh[sv < 1e-10 * max(sv[0], 1.0)].conj()


def _kernel_projector(system):
    null = _null_vectors(system).T
    return null @ null.conj().T


@lru_cache(maxsize=None)
def _float_intertwiner(rep, kind):
    """The reference S: the one kernel vector of the system stacked over a
    basis of the complexified algebra, in floating point; shared, so read
    only."""
    null = _null_vectors(_stacked_system(rep, kind, _complex_basis(rep.family, rep.n)))
    assert len(null) == 1, rep.label
    return null[0].reshape(rep.size, rep.size)


def _generator_pairs(rep, kind):
    """(rho(x), rho(theta x)) for x = e_i, f_i and h_i of a highest-weight
    model, as dense int arrays with e_i and f_i scaled by a common
    denominator, and theta read off the oracle's table."""
    flip, swap, _ = oracle._THETA[kind]
    rank = len(rep.cartan)
    es, fs, _ = _integral_generators(rep)
    hs = [np.diag([w[i] for w in rep.weights]) for i in range(rank)]
    s = -1 if swap else 1  # theta x = s y
    pairs = []
    for i, t in enumerate(range(rank)[::-1] if flip else range(rank)):
        pairs += [(es[i], s * (fs if swap else es)[t]), (fs[i], s * (es if swap else fs)[t]),
                  (hs[i], s * hs[t])]
    return pairs


KERNEL_CASES = [
    ("SU5", "sigmaR", (0, 1, 0, 0)),
    ("Sp3", "trivial", (0, 1, 0)), ("Sp3", "trivial", (0, 0, 1)),
    ("Sp3", "sigmaR", (0, 1, 0)), ("Sp3", "sigmaR", (0, 0, 1)),
    ("SU4", "sigmaH", (0, 1, 0)), ("U4", "sigmaH", (1, 1, 0, 0)),
]


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_eigenbasis_kernel_is_the_sylvester_kernel(group, kind, weight, seed):
    # stage 1 allows S[a][b] only where the weight of a is the weight of b
    # composed with theta; those entries span the kernel of the Sylvester
    # operator S -> rho(h) S - S rho(theta h) of a generic Cartan element h,
    # which is diagonal on the weight basis, also where a weight repeats
    # (Sp3 omega2), and they carry the exact S
    rep = rep_for_weight(build_root_data(group), weight)
    rng = random.Random(seed)
    cartan = [(np.diag(x), np.diag(y)) for k, (x, y) in enumerate(_generator_pairs(rep, kind))
              if k % 3 == 2]
    allowed = np.ones((rep.size, rep.size), dtype=bool)
    generic = np.zeros((rep.size, rep.size))
    for x, y in cartan:
        allowed &= np.equal.outer(x, y)
        generic += rng.uniform(-1, 1) * np.subtract.outer(x, y)
    assert ((np.abs(generic) < 1e-10) == allowed).all()
    _, s = matrix_oracle_type(rep, kind)
    assert all(allowed[a, b] for a, row in enumerate(s) for b, v in enumerate(row) if v)


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_two_stage_kernel_is_the_stacked_kernel(group, kind, weight, seed):
    # the two-stage intertwiner (the weights restrict S, then the
    # generators e_i, f_i give the remaining equations) spans the kernel of
    # the system stacked over e_i, f_i and h_i, which an SVD finds in
    # floating point; the decision draws nothing, so any seed gives the
    # same S
    rep = rep_for_weight(build_root_data(group), weight)
    _, s = matrix_oracle_type(rep, kind, seed=seed)
    assert s == matrix_oracle_type(rep, kind)[1]
    v = np.array(s, dtype=float).reshape(-1, 1)
    np.testing.assert_allclose(v @ v.T / (v.T @ v),
                               _kernel_projector(_sylvester(_generator_pairs(rep, kind))),
                               rtol=0, atol=1e-10)


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


def test_reference_models_decide_as_the_oracle():
    # all 37 decisions again, from the reference models, the matrix theta
    # and the float kernel: S Sbar = c I, and the sign of c is the type
    count = 0
    for group, kind in ALL_ORACLE_CASES:
        for w, rep, (got, _) in _decisions(group, kind):
            s = _float_intertwiner(_reference_for_weight(group, w), kind)
            square = s @ np.conj(s)
            c = square[0, 0]
            _close(square, c * np.eye(len(s)))
            assert abs(c.imag) < 1e-10 and ("R" if c.real > 0 else "H") == got, rep.label
            count += 1
    assert count == 37


def _spanning_pairs(pairs):
    """Pairs (x, theta x), from the given ones and their nested brackets,
    whose first entries form a basis of the image of the algebra they
    generate; theta is an automorphism, so the bracket of two pairs is
    again a pair."""
    span, level = [], pairs
    while level:
        new = []
        for z in level:
            flat = np.array([x.ravel() for x, _ in span + new + [z]], dtype=float)
            if np.linalg.matrix_rank(flat) == len(flat):
                new.append(z)
        span += new
        level = [(x @ y - y @ x, tx @ ty - ty @ tx) for (x, tx), (y, ty) in itertools.product(pairs, new)]
    return span


@pytest.mark.parametrize("group,kind", ORACLE_SUITE_CASES)
def test_intertwiner_solves_the_equation_on_the_whole_algebra(group, kind):
    # the oracle uses the generators e_i, f_i only; its S satisfies
    # rho(x) S = S rho(theta x) exactly for every x of a basis of the
    # algebra they generate, in integers (both sides scale alike)
    for _, rep, (_, s) in _decisions(group, kind):
        basis = _spanning_pairs(_generator_pairs(rep, kind))
        # the whole algebra, but on the determinant of U3
        assert len(basis) == (rep.size > 1) * {"SU4": 15, "Sp1": 3, "Sp2": 10, "Sp3": 21,
                                               "U3": 8}[group]
        s, _ = _integral(s)
        for x, tx in basis:
            assert (x @ s == s @ tx).all(), rep.label


@pytest.mark.parametrize("group,kind", ORACLE_SUITE_CASES)
def test_intertwiner_intertwines_group_elements(group, kind):
    # rho(g) S = S conj(rho(sigma g)) for random g = exp(x) of the compact
    # group, with rho(g) the exponential of the densified reference model
    # and S its float intertwiner: the matrix theta is the real sigma
    rng = np.random.default_rng(11)
    for w, _, _ in _decisions(group, kind):
        rep = _reference_for_weight(group, w)
        s = _float_intertwiner(rep, kind)
        xs = _algebra_stack(rng, rep.family, rep.n, 3)
        rg = _expm(_dense_differential(rep, xs))
        rsg = _expm(_dense_differential(rep, _sigma_dense(kind, xs)))
        _close(rg @ s, s @ np.conj(rsg))


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
