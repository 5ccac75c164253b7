"""Numerical antilinear-intertwiner oracle that checks R-vs-H decisions.

The oracle decides no type in the engine: the classifier in
eqkr.realstruct uses overrides and the catalog rule only, and this
module checks that rule independently (``eqkr verify --suite oracle``).

For a self-twisted-dual unitary representation rho and an involution
sigma(g) = J gbar J^{-1}, the oracle solves the linear system

    S . conj(rho(sigma(g))) = rho(g) . S        for all sampled g

for the matrix S of the antilinear intertwiner v -> S(vbar).  It is
solved in two stages: the kernel N of the last (generic) sample's
d^2 x d^2 equation, then the kernel of the other samples' equations
restricted to N, a ((samples - 1) d^2, dim N) system.  The intertwiner
space must be one-dimensional (Schur); then S.Sbar is a real multiple
of the identity and its sign decides the type: positive for Real,
negative for Quaternionic.

Representations are modelled concretely for SU(n), Sp(n) and U(n):
the defining representation, its exterior powers, the primitive (form-
traceless) parts of exterior powers for Sp(n), and symmetric powers.
Group elements are exponentials of a fixed Lie algebra basis and of
seeded random combinations of it, drawn and mapped as one stack; the
accepted intertwiner must keep residuals below tolerance on 20 more.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .groups import RootData

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 1789


class OracleError(RuntimeError):
    """Oracle could not produce a trustworthy answer."""


# ---------------------------------------------------------------------------
# Lie algebra bases and matrix models
# ---------------------------------------------------------------------------

def su_basis(n):
    """Antihermitian traceless basis of su(n)."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1
            m[k, j] = -1
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1j
            m[k, j] = 1j
            out.append(m)
    for j in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1j
        m[j + 1, j + 1] = -1j
        out.append(m)
    return out


def u_basis(n):
    out = su_basis(n)
    m = np.zeros((n, n), dtype=complex)
    for j in range(n):
        m[j, j] = 1j
    out.append(m)
    return out


def sp_basis(n):
    """Antihermitian basis of sp(n) inside u(2n), blocks [[A,B],[-Bbar,Abar]]."""
    out = []

    def embed(a, b):
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        m[:n, :n] = a
        m[n:, n:] = np.conj(a)
        m[:n, n:] = b
        m[n:, :n] = -np.conj(b)
        return m

    zero = np.zeros((n, n), dtype=complex)
    for j in range(n):
        a = zero.copy()
        a[j, j] = 1j
        out.append(embed(a, zero))
    for j in range(n):
        for k in range(j + 1, n):
            a = zero.copy()
            a[j, k] = 1
            a[k, j] = -1
            out.append(embed(a, zero))
            a = zero.copy()
            a[j, k] = 1j
            a[k, j] = 1j
            out.append(embed(a, zero))
    for j in range(n):
        for k in range(j, n):
            b = zero.copy()
            b[j, k] = 1
            b[k, j] = 1
            out.append(embed(zero, b))
            b = zero.copy()
            b[j, k] = 1j
            b[k, j] = 1j
            out.append(embed(zero, b))
    return out


def symplectic_j(m):
    """The standard J with J^2 = -1 on C^{2m}, block form [[0,I],[-I,0]]."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def expm_antihermitian(x):
    """exp of an antihermitian matrix or stack, by one batched eigh (exact unitary)."""
    vals, vecs = np.linalg.eigh(-1j * x)  # hermitian
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _subsets(n, k):
    return list(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def _minor_index(n, k):
    """The k-subsets of range(n) as a read-only (C(n,k), k) index array."""
    subs = np.array(_subsets(n, k), dtype=np.intp)
    subs.flags.writeable = False
    return subs


def exterior_power(u, k):
    """k-th compound matrix (action on wedge^k of the defining space).

    Entry (a, b) is the minor of u on rows subs[a] and columns subs[b];
    the minors of u, or of every matrix in a stack u, are gathered into
    one array and LAPACK factors each.
    """
    subs = _minor_index(u.shape[-1], k)
    return np.linalg.det(u[..., subs[:, None, :, None], subs[None, :, None, :]])


def _contraction_matrix(n, k, form):
    """Contraction wedge^k -> wedge^{k-2} with the bilinear form."""
    rows = _subsets(n, k - 2)
    cols = _subsets(n, k)
    idx = {s: i for i, s in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for b, s in enumerate(cols):
        for p in range(k):
            for q in range(p + 1, k):
                w = form[s[p], s[q]]
                if w == 0:
                    continue
                rest = tuple(x for i, x in enumerate(s) if i not in (p, q))
                out[idx[rest], b] += (-1) ** (p + q + 1) * w
    return out


def _null_space(mat, tol):
    # A wide matrix needs the full V to expose its kernel.  A tall one
    # (the oracle's stage-2 stack) is first reduced to its square R
    # factor (mat = QR): R has the singular values and right singular
    # vectors of mat, so the SVD runs on n x n and neither Q nor U is
    # built (Chan's R-SVD).
    if mat.shape[0] > mat.shape[1]:
        mat = np.linalg.qr(mat, mode="r")
    _, sv, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    if mat.shape[0] < mat.shape[1]:
        sv = np.concatenate([sv, np.zeros(mat.shape[1] - mat.shape[0])])
    scale = max(sv[0], 1.0) if len(sv) else 1.0
    null = vh[sv < tol * scale]
    return null.conj().T  # columns span the kernel


def _symmetrizer(n, k):
    """Orthonormal basis of Sym^k inside the k-fold tensor power of C^n."""
    dim = n ** k
    proj = np.zeros((dim, dim))
    for perm in itertools.permutations(range(k)):
        p = np.zeros((dim, dim))
        for idx in itertools.product(range(n), repeat=k):
            src = sum(x * n ** (k - 1 - i) for i, x in enumerate(idx))
            permuted = tuple(idx[perm[i]] for i in range(k))
            dst = sum(x * n ** (k - 1 - i) for i, x in enumerate(permuted))
            p[dst, src] = 1
        proj += p
    proj /= factorial(k)
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5]


class UnitaryRep:
    """A unitary representation given as a functor of the defining one."""

    def __init__(self, family, n, size, apply_fn, label):
        self.family = family
        self.n = n  # defining matrix size
        self.size = size
        self.apply = apply_fn
        self.label = label


def defining_rep(family, n):
    size = 2 * n if family == "Sp" else n
    return UnitaryRep(family, n, size, lambda u: u, f"{family}{n} defining")


def exterior_rep(family, n, k):
    size = 2 * n if family == "Sp" else n
    return UnitaryRep(family, n, comb(size, k),
                      lambda u: exterior_power(u, k),
                      f"{family}{n} wedge^{k}")


@lru_cache(maxsize=None)
def _primitive_basis(n, k):
    form = symplectic_j(n)
    c = _contraction_matrix(2 * n, k, form)
    q = _null_space(c, 1e-12)
    return q


def primitive_exterior_rep(n, k):
    """Fundamental V_{omega_k} of Sp(n): kernel of contraction in wedge^k."""
    q = _primitive_basis(n, k)

    def apply_fn(u):
        return q.conj().T @ exterior_power(u, k) @ q

    return UnitaryRep("Sp", n, q.shape[1], apply_fn, f"Sp{n} primitive wedge^{k}")


def symmetric_rep(family, n, k):
    size = 2 * n if family == "Sp" else n
    q = _symmetrizer(size, k)

    def apply_fn(u):
        t = np.ones(u.shape[:-2] + (1, 1))  # k-fold Kronecker power, per matrix
        for _ in range(k):
            m = t.shape[-1] * u.shape[-1]
            t = (t[..., :, None, :, None] * u[..., None, :, None, :]).reshape(u.shape[:-2] + (m, m))
        return q.conj().T @ t @ q

    return UnitaryRep(family, n, q.shape[1], apply_fn, f"{family}{n} sym^{k}")


def rep_for_weight(rd: RootData, lam) -> UnitaryRep | None:
    """A concrete matrix model for lam, when the catalog has one: the
    fundamental representations of SU(n), Sp(n) and U(n)."""
    if len(rd.factors) > 1:
        return None
    fam, n = rd.spec.factors[0]
    funds = rd.fundamental_weights()
    lam = tuple(lam)
    if fam not in ("SU", "Sp", "U") or lam not in funds:
        return None
    k = funds.index(lam) + 1
    if k == 1:
        return defining_rep(fam, n)
    return primitive_exterior_rep(n, k) if fam == "Sp" else exterior_rep(fam, n, k)


def _sigma_on_defining(inv_kind, family, n):
    """sigma as a map on defining-representation matrices, or None."""
    if inv_kind == "trivial":
        return lambda u: u
    if inv_kind == "sigmaR":
        # entrywise conjugation; it preserves Sp(n) in the sp_basis form
        return np.conj
    if inv_kind == "sigmaH" and family in ("SU", "U") and n % 2 == 0:
        j = symplectic_j(n // 2)
        return lambda u: j @ np.conj(u) @ j.conj().T
    return None


def lie_basis(family, n):
    if family == "SU":
        return su_basis(n)
    if family == "Sp":
        return sp_basis(n)
    if family == "U":
        return u_basis(n)
    raise OracleError(f"no Lie algebra model for family {family}")


def matrix_oracle_type(rep: UnitaryRep, inv_kind: str,
                       tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED):
    """Decide R vs H for a self-twisted-dual representation.

    Returns (type, S) where S is the intertwiner matrix.  Raises
    OracleError when the intertwiner space is not one-dimensional
    ("not irreducible or not self-conjugate") or when S.Sbar is not a
    real multiple of the identity within tolerance ("inconclusive").
    """
    sigma = _sigma_on_defining(inv_kind, rep.family, rep.n)
    if sigma is None:
        raise OracleError(f"no matrix realization of {inv_kind} on "
                          f"{rep.family}({rep.n})")
    basis = np.array(lie_basis(rep.family, rep.n))
    rng = np.random.default_rng(seed)
    # the basis and two generic combinations (against degenerate bases), as one stack
    coeffs = rng.uniform(-1, 1, size=(2, len(basis)))
    samples = expm_antihermitian(np.concatenate([basis, np.tensordot(coeffs, basis, 1)]))

    d = rep.size
    eye = np.eye(d)
    # equation rho(g) S - S conj(rho(sigma g)) = 0 for every sample.
    # Stage 1: the kernel of the last (generic) sample's Sylvester block,
    # row-major vec.  Stage 2: the other samples on that kernel, one
    # (d^2, k) block per sample; the joint kernel is the stage-1 basis
    # times the kernel of their stack.
    rg = rep.apply(samples)  # under trivial, rho(sigma g) is rho(g): map once
    rsg = np.conj(rg if inv_kind == "trivial" else rep.apply(sigma(samples)))
    kernel = _null_space(np.kron(rg[-1], eye) - np.kron(eye, rsg[-1].T), 1e-10)
    k = kernel.shape[1]
    cands = kernel.T.reshape(k, d, d)
    system = np.empty(((len(samples) - 1) * d * d, k), dtype=complex)
    for block, r, rs in zip(np.split(system, len(samples) - 1), rg, rsg):
        block[...] = (r @ cands - cands @ rs).reshape(k, d * d).T
    null = kernel @ _null_space(system, 1e-10)
    if null.shape[1] != 1:
        raise OracleError(
            f"intertwiner space of {rep.label} has dimension "
            f"{null.shape[1]}: not irreducible or not self-conjugate")
    s = null[:, 0].reshape(d, d)

    ss = s @ np.conj(s)
    c = np.trace(ss).real / d
    if abs(np.trace(ss).imag) > tol * d or abs(c) < tol:
        raise OracleError(f"oracle inconclusive for {rep.label}: S.Sbar trace {np.trace(ss)}")
    if np.linalg.norm(ss - c * eye) > tol * max(abs(c), 1.0) * d:
        raise OracleError(f"oracle inconclusive for {rep.label}: S.Sbar not scalar")

    g = expm_antihermitian(np.tensordot(rng.uniform(-1, 1, size=(20, len(basis))), basis, 1))
    rg = rep.apply(g)
    rsg = rg if inv_kind == "trivial" else rep.apply(sigma(g))
    resids = np.linalg.norm(rg @ s - s @ np.conj(rsg), axis=(1, 2))
    for resid in resids:
        if resid > tol * max(np.linalg.norm(s), 1.0) * 10:
            raise OracleError(f"oracle residual {resid:.2e} above tolerance "
                              f"for {rep.label}")
    return ("R" if c > 0 else "H"), s
