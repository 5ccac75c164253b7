import itertools
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import eqkr
from eqkr.groups import build_root_data
from eqkr.oracle import (
    OracleError,
    _contraction_matrix,
    _null_space,
    _sigma_on_defining,
    _sylvester_kernel,
    _symmetrizer,
    defining_rep,
    expm_antihermitian,
    exterior_rep,
    lie_basis,
    matrix_oracle_type,
    primitive_exterior_rep,
    rep_for_weight,
    symmetric_rep,
    symplectic_j,
)
from eqkr.realstruct import Involution


def _random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _compound_by_minors(u, k):
    """Reference compound matrix: one determinant per pair of k-subsets."""
    subs = np.array(list(itertools.combinations(range(u.shape[0]), k)))
    return np.linalg.det(u[subs[:, None, :, None], subs[None, :, None, :]])


def _kron_power(u, k):
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, u)
    return out


def _model(family, n, kind, k):
    """A model and its group-level reference rho, built from minors or
    Kronecker powers of the defining matrix; the Sp primitive part and
    Sym^k are restricted to the same bases as the model."""
    if kind == "wedge":
        return exterior_rep(family, n, k), lambda u: _compound_by_minors(u, k)
    if kind == "primitive":
        q = _null_space(_contraction_matrix(2 * n, k, symplectic_j(n)), 1e-12)
        return (primitive_exterior_rep(n, k),
                lambda u: q.conj().T @ _compound_by_minors(u, k) @ q)
    q = _symmetrizer(defining_rep(family, n).size, k)
    return symmetric_rep(family, n, k), lambda u: q.T @ _kron_power(u, k) @ q


def _model_for_weight(group, weight):
    rd = build_root_data(group)
    family, n = rd.spec.factors[0]
    k = rd.fundamental_weights().index(weight) + 1
    rep, rho = _model(family, n, "primitive" if family == "Sp" else "wedge", k)
    assert rep is rep_for_weight(rd, weight)
    return rep, rho


def _algebra_stack(rng, family, n, count):
    """count random combinations of lie_basis(family, n), as one stack."""
    size = defining_rep(family, n).size
    basis = np.array(lie_basis(family, n)).reshape(-1, size, size)
    return np.tensordot(rng.uniform(-1, 1, size=(count, len(basis))), basis, 1)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_is_the_compound_matrix(n):
    # exp of the derivation on wedge^k is the compound matrix of exp, on a
    # stack; the defining model is the identity map
    rng = np.random.default_rng(n)
    for family in ("SU", "U"):
        xs = _algebra_stack(rng, family, n, 3)
        _close(defining_rep(family, n).differential(xs), xs)
        us = expm_antihermitian(xs)
        for k in range(1, n + 1):
            rep = exterior_rep(family, n, k)
            assert rep.size == comb(n, k)
            _close(expm_antihermitian(rep.differential(xs)),
                   np.array([_compound_by_minors(u, k) for u in us]))


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_on_a_stack(n):
    # the wedge^k model on a stack of algebra elements, and its exponential,
    # are the model on each slice; wedge^0 is the trivial representation
    xs = _algebra_stack(np.random.default_rng(n), "U", n, 3)
    for k in range(n + 1):
        rep = exterior_rep("U", n, k)
        _close_slicewise(rep.differential, xs)
        _close_slicewise(lambda x: expm_antihermitian(rep.differential(x)), xs)
    _close(expm_antihermitian(exterior_rep("U", n, 0).differential(xs)),
           np.ones((3, 1, 1)))


MODELS = [("SU", 4, "wedge", 2), ("U", 3, "wedge", 2), ("SU", 6, "wedge", 3),
          ("Sp", 2, "wedge", 2), ("Sp", 2, "primitive", 2), ("Sp", 3, "primitive", 2),
          ("Sp", 3, "primitive", 3), ("SU", 2, "sym", 2), ("SU", 2, "sym", 3),
          ("SU", 2, "sym", 4)]
MODEL_IDS = [f"{f}{n}-{kind}{k}" for f, n, kind, k in MODELS]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_differential_exponentiates_to_the_group_model(model):
    rep, rho = _model(*model)
    xs = _algebra_stack(np.random.default_rng(3), model[0], model[1], 4)
    got = expm_antihermitian(rep.differential(xs))
    assert got.shape == (4, rep.size, rep.size)
    _close(got, np.array([rho(u) for u in expm_antihermitian(xs)]))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_differential_is_a_lie_algebra_map(model):
    # d rho([x, y]) = [d rho(x), d rho(y)] on the algebra of the model's group
    rep, _ = _model(*model)
    xs, ys = np.split(_algebra_stack(np.random.default_rng(7), model[0], model[1], 6), 2)
    dx, dy = rep.differential(xs), rep.differential(ys)
    _close(rep.differential(xs @ ys - ys @ xs), dx @ dy - dy @ dx)


def _random_unitaries(rng, count, n):
    return np.linalg.qr(rng.normal(size=(count, n, n))
                        + 1j * rng.normal(size=(count, n, n)))[0]


def _close_slicewise(fn, stack):
    # a function of a stack of matrices is that function on each slice
    _close(fn(stack), np.array([fn(u) for u in stack]))


def test_expm_antihermitian_on_a_stack():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    x = a - a.conj().swapaxes(1, 2)
    _close_slicewise(expm_antihermitian, x)
    u = expm_antihermitian(x)
    _close(u @ u.conj().swapaxes(1, 2), np.broadcast_to(np.eye(5), u.shape))


@pytest.mark.parametrize("inv_kind,family,n,size", [
    ("trivial", "SU", 3, 3), ("sigmaR", "SU", 3, 3), ("sigmaR", "Sp", 2, 4),
    ("sigmaH", "SU", 4, 4), ("sigmaH", "U", 2, 2),
])
def test_sigma_on_defining_on_a_stack(inv_kind, family, n, size):
    sigma = _sigma_on_defining(inv_kind, family, n)
    _close_slicewise(sigma, _random_unitaries(np.random.default_rng(size), 3, size))


def test_null_space_of_wide_and_tall_matrices():
    rng = np.random.default_rng(7)
    wide = _random_complex(rng, 2, 4)  # rank 2: kernel of dimension 2
    tall = _random_complex(rng, 6, 2) @ _random_complex(rng, 2, 3)  # rank 2
    for mat, nullity in ((wide, 2), (tall, 1)):
        null = _null_space(mat, 1e-10)
        assert null.shape == (mat.shape[1], nullity)
        _close(mat @ null, np.zeros((mat.shape[0], nullity)))
        _close(null.conj().T @ null, np.eye(nullity))


@pytest.mark.parametrize("nullity", [1, 2])
def test_null_space_of_a_stacked_intertwiner_shaped_system(nullity):
    # 23 blocks of d^2 x d^2, as the oracle stacks them, all vanishing on
    # the span of the orthonormal columns of k: a tall system that goes
    # through the QR reduction
    rng = np.random.default_rng(nullity)
    d, blocks = 3, 23
    k = np.linalg.qr(_random_complex(rng, d * d, nullity))[0]
    off_k = np.eye(d * d) - k @ k.conj().T
    mat = np.vstack([_random_complex(rng, d * d, d * d) @ off_k
                     for _ in range(blocks)])
    null = _null_space(mat, 1e-10)
    assert null.shape == (d * d, nullity)
    _close(mat @ null, np.zeros((blocks * d * d, nullity)))
    _, sv, vh = np.linalg.svd(mat, full_matrices=False)
    ref = vh[sv < 1e-10 * max(sv[0], 1.0)].conj().T
    np.testing.assert_allclose(null @ null.conj().T, ref @ ref.conj().T,
                               rtol=0, atol=1e-12 * sv[0])


def _oracle_samples(family, n, seed):
    """The oracle's stage-1 and stage-2 samples on the algebra: the Lie
    basis and two combinations drawn from random.Random(seed)."""
    basis = lie_basis(family, n)
    rng = random.Random(seed)
    combos = [[rng.uniform(-1, 1) for _ in basis] for _ in range(2)]
    return basis + [sum(c * x for c, x in zip(coeffs, basis)) for coeffs in combos]


def _sylvester_block(r, rs):
    """S -> r S - S conj(rs) as a d^2 x d^2 matrix on row-major vec(S)."""
    eye = np.eye(len(r))
    return np.kron(r, eye) - np.kron(eye, np.conj(rs).T)


def _svd_kernel_projector(system):
    _, sv, vh = np.linalg.svd(system, full_matrices=False)
    null = vh[sv < 1e-10 * max(sv[0], 1.0)].conj().T
    return null @ null.conj().T


def _stacked_kernel_projector(rep, rho, inv_kind, seed):
    """Reference: the projector onto the joint kernel of all the samples'
    Sylvester blocks, from the SVD of their full stack, with rho the
    group-level model."""
    sigma = _sigma_on_defining(inv_kind, rep.family, rep.n)
    samples = [expm_antihermitian(x) for x in _oracle_samples(rep.family, rep.n, seed)]
    return _svd_kernel_projector(
        np.vstack([_sylvester_block(rho(g), rho(sigma(g))) for g in samples]))


KERNEL_CASES = [
    ("SU5", "sigmaR", (0, 1, 0, 0)),
    ("Sp3", "trivial", (0, 1, 0)), ("Sp3", "trivial", (0, 0, 1)),
    ("Sp3", "sigmaR", (0, 1, 0)), ("Sp3", "sigmaR", (0, 0, 1)),
    ("SU4", "sigmaH", (0, 1, 0)), ("U4", "sigmaH", (1, 1, 0, 0)),
]


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_eigenbasis_kernel_is_the_sylvester_kernel(group, kind, weight, seed):
    # stage 1 reads the kernel of the last sample's equation off the two
    # eigenbases; it equals the SVD kernel of that sample's Sylvester
    # block, also where eigenvalues repeat (the zero weight of Sp3 omega2)
    rep, rho = _model_for_weight(group, weight)
    x = _oracle_samples(rep.family, rep.n, seed)[-1]
    sigma = _sigma_on_defining(kind, rep.family, rep.n)
    h, w = np.linalg.eigh(-1j * rep.differential(x))
    hs, ws = np.linalg.eigh(-1j * rep.differential(sigma(x)))
    cands = _sylvester_kernel(h, w, hs, ws)
    v = cands.reshape(len(cands), -1).T
    _close(v.conj().T @ v, np.eye(len(cands)))
    g = expm_antihermitian(x)
    np.testing.assert_allclose(
        v @ v.conj().T, _svd_kernel_projector(_sylvester_block(rho(g), rho(sigma(g)))),
        rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", KERNEL_CASES)
def test_two_stage_kernel_is_the_stacked_kernel(group, kind, weight, seed):
    # the intertwiner found on the last sample's kernel spans the kernel
    # of the whole stacked system
    rep, rho = _model_for_weight(group, weight)
    _, s = matrix_oracle_type(rep, kind, seed=seed)
    v = s.reshape(-1, 1)
    np.testing.assert_allclose(v @ v.conj().T, _stacked_kernel_projector(rep, rho, kind, seed),
                               rtol=0, atol=1e-10)


def test_a_decision_loads_no_numpy_random():
    # the samples come from the standard library's random.Random, so a
    # process that decides pays no numpy.random import
    code = ("import sys; from eqkr.oracle import defining_rep, matrix_oracle_type; "
            "matrix_oracle_type(defining_rep('SU', 2), 'trivial'); "
            "sys.exit('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_models_outside_the_catalog_are_refused():
    with pytest.raises(OracleError, match="no matrix realization of sigmaH on SU\\(3\\)"):
        matrix_oracle_type(defining_rep("SU", 3), "sigmaH")
    with pytest.raises(OracleError, match="no Lie algebra model for family G"):
        lie_basis("G", 2)


def test_su3_defining_has_no_trivial_intertwiner():
    # C^3 is not self-dual: no S solves rho(g) S = S conj(rho(g))
    with pytest.raises(OracleError, match="dimension 0"):
        matrix_oracle_type(defining_rep("SU", 3), "trivial")


def test_su2_defining_trivial_is_quaternionic():
    t, s = matrix_oracle_type(defining_rep("SU", 2), "trivial")
    assert t == "H"
    # S is proportional to the classical epsilon matrix
    s = s / s[0, 1]
    assert np.allclose(s, np.array([[0, 1], [-1, 0]]), atol=1e-8)


def test_su2_defining_conjugation_is_real():
    t, s = matrix_oracle_type(defining_rep("SU", 2), "sigmaR")
    assert t == "R"
    ss = s @ np.conj(s)
    assert ss[0, 0].real > 0


def test_sp2_defining_trivial_is_quaternionic():
    t, _ = matrix_oracle_type(defining_rep("Sp", 2), "trivial")
    assert t == "H"


def test_sp2_primitive_wedge2_is_real():
    rep = primitive_exterior_rep(2, 2)
    assert rep.size == 5
    t, _ = matrix_oracle_type(rep, "trivial")
    assert t == "R"


def test_symplectic_j_squares_to_minus_one():
    for m in (1, 2):
        j = symplectic_j(m)
        assert np.allclose(j @ j, -np.eye(2 * m))
        assert np.allclose(j @ np.conj(j), -np.eye(2 * m))  # sigmaH invariant
    assert np.allclose(np.eye(3) @ np.conj(np.eye(3)), np.eye(3))  # sigmaR


def test_full_wedge2_of_sp2_is_not_irreducible():
    # wedge^2 C^4 is 6-dimensional and reducible over Sp(2)
    with pytest.raises(OracleError):
        matrix_oracle_type(exterior_rep("Sp", 2, 2), "trivial")


def test_full_wedge2_of_sp3_is_not_irreducible():
    # wedge^2 C^6 = V_omega2 + C: the largest system the oracle stacks
    # (23 * 15^2 rows) still has a two-dimensional intertwiner space
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
    # U(n) takes the u(n) basis (su(n) and the centre) and the U branch
    # of rep_for_weight; every fundamental is self-twisted-dual here
    rd = build_root_data(group)
    inv = Involution(rd, kind)
    funds = rd.fundamental_weights()
    assert all(inv.twisted_dual_weight(w) == w for w in funds)
    for w in funds:
        got, _ = matrix_oracle_type(rep_for_weight(rd, w), kind)
        assert got == inv.catalog_type(w), w
