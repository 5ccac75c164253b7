import itertools
from math import comb

import numpy as np
import pytest

from eqkr.groups import build_root_data
from eqkr.oracle import (
    OracleError,
    _null_space,
    _sigma_on_defining,
    defining_rep,
    expm_antihermitian,
    exterior_power,
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
    subs = list(itertools.combinations(range(u.shape[0]), k))
    out = np.zeros((len(subs), len(subs)), dtype=complex)
    for a, rows in enumerate(subs):
        for b, cols in enumerate(subs):
            out[a, b] = np.linalg.det(u[np.ix_(rows, cols)])
    return out


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_is_the_compound_matrix(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a, b = _random_complex(rng, n, n), _random_complex(rng, n, n)
        for k in range(n + 1):
            size = comb(n, k)
            lam_a = exterior_power(a, k)
            assert lam_a.shape == (size, size)
            _close(lam_a, _compound_by_minors(a, k))
            _close(exterior_power(np.eye(n, dtype=complex), k), np.eye(size))
            # Cauchy-Binet: the compound is multiplicative
            _close(exterior_power(a @ b, k), lam_a @ exterior_power(b, k))
        _close(exterior_power(a, n), np.array([[np.linalg.det(a)]]))


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


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_power_on_a_stack(n):
    us = _random_unitaries(np.random.default_rng(n), 3, n)
    for k in range(n + 1):
        _close_slicewise(lambda u: exterior_power(u, k), us)


@pytest.mark.parametrize("make,defining_size", [
    (lambda: primitive_exterior_rep(3, 2), 6),
    (lambda: primitive_exterior_rep(3, 3), 6),
    (lambda: symmetric_rep("SU", 2, 3), 2),
], ids=["Sp3-omega2", "Sp3-omega3", "SU2-sym3"])
def test_rep_apply_on_a_stack(make, defining_size):
    rep = make()
    us = _random_unitaries(np.random.default_rng(defining_size), 4, defining_size)
    assert rep.apply(us).shape == (4, rep.size, rep.size)
    _close_slicewise(rep.apply, us)


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


def _stacked_kernel_projector(rep, inv_kind, seed):
    """Reference: the projector onto the joint kernel of all the samples'
    Sylvester blocks, from the SVD of their full stack."""
    basis = lie_basis(rep.family, rep.n)
    samples = [expm_antihermitian(x) for x in basis]
    rng = np.random.default_rng(seed)
    for _ in range(2):
        coeffs = rng.uniform(-1, 1, size=len(basis))
        samples.append(expm_antihermitian(sum(c * x for c, x in zip(coeffs, basis))))
    sigma = _sigma_on_defining(inv_kind, rep.family, rep.n)
    eye = np.eye(rep.size)
    system = np.vstack([np.kron(rep.apply(g), eye)
                        - np.kron(eye, np.conj(rep.apply(sigma(g))).T) for g in samples])
    _, sv, vh = np.linalg.svd(system, full_matrices=False)
    null = vh[sv < 1e-10 * max(sv[0], 1.0)].conj().T
    return null @ null.conj().T


@pytest.mark.parametrize("seed", [1789, 1])
@pytest.mark.parametrize("group,kind,weight", [
    ("SU5", "sigmaR", (0, 1, 0, 0)),
    ("Sp3", "trivial", (0, 1, 0)), ("Sp3", "trivial", (0, 0, 1)),
    ("Sp3", "sigmaR", (0, 1, 0)), ("Sp3", "sigmaR", (0, 0, 1)),
    ("SU4", "sigmaH", (0, 1, 0)),
])
def test_two_stage_kernel_is_the_stacked_kernel(group, kind, weight, seed):
    # the intertwiner found on the last sample's kernel spans the kernel
    # of the whole stacked system
    rep = rep_for_weight(build_root_data(group), weight)
    _, s = matrix_oracle_type(rep, kind, seed=seed)
    v = s.reshape(-1, 1)
    np.testing.assert_allclose(v @ v.conj().T, _stacked_kernel_projector(rep, kind, seed),
                               rtol=0, atol=1e-10)


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
