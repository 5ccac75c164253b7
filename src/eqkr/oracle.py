"""Numerical antilinear-intertwiner oracle that checks R-vs-H decisions.

The oracle decides no type in the engine: the classifier in
eqkr.realstruct uses overrides and the catalog rule only, and this
module checks that rule independently (``eqkr verify --suite oracle``).

For a self-twisted-dual unitary representation rho and an involution
sigma(g) = J gbar J^{-1}, the oracle solves the linear system

    S . conj(rho(sigma(g))) = rho(g) . S        for all sampled g

for the matrix S of the antilinear intertwiner v -> S(vbar).  It is
solved in two stages: the kernel N of the last (generic) sample's
equation, then the kernel of the other samples' equations restricted
to N, a ((samples - 1) d^2, dim N) system.  The intertwiner space must
be one-dimensional (Schur); then S.Sbar is a real multiple of the
identity and its sign decides the type: positive for Real, negative
for Quaternionic.

Representations are modelled on the Lie algebra for SU(n), Sp(n) and
U(n): each model is its differential d rho, one exact linear map from
defining-size matrices to d x d ones (the identity, the derivation on
an exterior power, its primitive part for Sp(n), the projected
Kronecker sum on a symmetric power).  Group elements are exponentials
of a fixed Lie algebra basis and of seeded random combinations of it,
and rho(exp x) = exp(d rho(x)) comes from one batched eigh of
-i d rho(x).  The first stage needs no factorisation: the equation of
two unitaries is a normal operator, whose singular vectors and values
are read off their two eigenbases.  The accepted intertwiner must keep
residuals below tolerance on 20 more samples.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import factorial

import numpy as np

from .groups import RootData

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 1789


class OracleError(RuntimeError):
    """Oracle could not produce a trustworthy answer."""


# ---------------------------------------------------------------------------
# Lie algebra bases and matrix models
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


def su_basis(n):
    """Antihermitian traceless basis of su(n)."""
    e = 1j * np.eye(n)
    return (_pair_basis(n, itertools.combinations(range(n), 2), -1)
            + [np.diag(e[j] - e[j + 1]) for j in range(n - 1)])


def u_basis(n):
    return su_basis(n) + [1j * np.eye(n)]


def sp_basis(n):
    """Antihermitian basis of sp(n) inside u(2n), blocks [[A,B],[-Bbar,Abar]]."""
    e, zero = 1j * np.eye(n), np.zeros((n, n), dtype=complex)
    blocks = ([(np.diag(e[j]), zero) for j in range(n)]
              + [(a, zero) for a in _pair_basis(n, itertools.combinations(range(n), 2), -1)]
              + [(zero, b) for b in _pair_basis(
                  n, itertools.combinations_with_replacement(range(n), 2), 1)])
    a, b = (np.array(x) for x in zip(*blocks))
    return list(np.block([[a, b], [-np.conj(b), np.conj(a)]]))


def symplectic_j(m):
    """The standard J with J^2 = -1 on C^{2m}, block form [[0,I],[-I,0]]."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def _exp_from_eigh(h, w):
    """w e^{ih} w^H, for one eigendecomposition or a stack of them."""
    return (w * np.exp(1j * h)[..., None, :]) @ w.conj().swapaxes(-1, -2)


def expm_antihermitian(x):
    """exp of an antihermitian matrix or stack, by one batched eigh (exact unitary)."""
    return _exp_from_eigh(*np.linalg.eigh(-1j * x))  # hermitian


def _subsets(n, k):
    return list(itertools.combinations(range(n), k))


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


def _matrix_units(m):
    """The m^2 matrix units E_rc of size m, as one stack in row-major (r, c) order."""
    return np.eye(m * m).reshape(m * m, m, m)


def _wedge_derivation(m, k):
    """d rho(E_rc) on wedge^k C^m for every matrix unit: the derivation
    sending e_B (B a sorted k-subset) to the sum over c in B of e_B with
    e_c replaced by E_rc e_c = e_r."""
    subs = _subsets(m, k)
    idx = {s: i for i, s in enumerate(subs)}
    out = np.zeros((m, m, len(subs), len(subs)))
    for b, s in enumerate(subs):
        for c in s:
            rest = [x for x in s if x != c]
            for r in range(m):
                if r in rest:
                    continue
                # sorting e_r into c's place passes the members strictly between r and c
                sign = (-1) ** sum(min(r, c) < x < max(r, c) for x in rest)
                out[r, c, idx[tuple(sorted(rest + [r]))], b] = sign
    return out.reshape(m * m, len(subs), len(subs))


class UnitaryRep:
    """A unitary representation given by its differential d rho, one exact
    linear map with rho(exp x) = exp(d rho(x)) on the defining algebra."""

    def __init__(self, family, n, units, label):
        units.flags.writeable = False
        self.family = family
        self.n = n  # rank parameter of the defining representation
        self.units = units  # d rho(E_rc) for the matrix units, as _matrix_units orders them
        self.size = units.shape[-1]
        self.label = label

    def differential(self, x):
        """d rho of a defining-size matrix, or of each in a stack."""
        return np.tensordot(x.reshape(x.shape[:-2] + (-1,)), self.units, 1)


@lru_cache(maxsize=None)
def defining_rep(family, n):
    return UnitaryRep(family, n, _matrix_units(2 * n if family == "Sp" else n),
                      f"{family}{n} defining")


@lru_cache(maxsize=None)
def exterior_rep(family, n, k):
    return UnitaryRep(family, n, _wedge_derivation(defining_rep(family, n).size, k),
                      f"{family}{n} wedge^{k}")


@lru_cache(maxsize=None)
def primitive_exterior_rep(n, k):
    """Fundamental V_{omega_k} of Sp(n): kernel of contraction in wedge^k,
    invariant under the derivation of every element of sp(n)."""
    q = _null_space(_contraction_matrix(2 * n, k, symplectic_j(n)), 1e-12)
    return UnitaryRep("Sp", n, q.conj().T @ _wedge_derivation(2 * n, k) @ q,
                      f"Sp{n} primitive wedge^{k}")


@lru_cache(maxsize=None)
def symmetric_rep(family, n, k):
    """Sym^k of the defining representation: the Kronecker sum of d rho = x
    over the k-fold tensor power, restricted to the symmetric tensors."""
    units = defining_rep(family, n).units
    m = units.shape[-1]
    ksum = sum(np.kron(np.kron(np.eye(m ** j), units), np.eye(m ** (k - 1 - j)))
               for j in range(k))
    q = _symmetrizer(m, k)
    return UnitaryRep(family, n, q.T @ ksum @ q, f"{family}{n} sym^{k}")


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
    """sigma on defining-size matrices (group or algebra elements), or None."""
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


def _combinations(rng, count, basis):
    """count combinations of the basis stack, coefficients uniform in [-1, 1)."""
    coeffs = np.array([rng.uniform(-1, 1) for _ in range(count * len(basis))])
    return np.tensordot(coeffs.reshape(count, len(basis)), basis, 1)


def _spectra(rep, sigma, xs):
    """(h, w, h', w') with rho(exp x) = w e^{ih} w^H and rho(sigma(exp x)) =
    w' e^{ih'} w'^H for each x in xs, from one batched eigh of -i d rho;
    sigma None stands for the identity."""
    stack = xs if sigma is None else np.concatenate([xs, sigma(xs)])
    h, w = np.linalg.eigh(-1j * rep.differential(stack))
    m = len(xs)
    return h[:m], w[:m], h[-m:], w[-m:]


def _sylvester_kernel(h, w, hs, ws):
    """Orthonormal basis, as a (k, d, d) stack, of the kernel of
    S -> u S - S conj(u') for u = w e^{ih} w^H and u' = w' e^{ih'} w'^H.
    The operator is normal: it maps w_a w'_b^T to (e^{ih_a} - e^{-ih'_b})
    w_a w'_b^T, and the pairs whose singular value is below
    1e-10 max(sigma_max, 1) span the kernel."""
    sv = np.abs(np.exp(1j * h)[:, None] - np.exp(-1j * hs)[None, :])
    a, b = np.nonzero(sv < 1e-10 * max(sv.max(), 1.0))
    return w.T[a][:, :, None] * ws.T[b][:, None, :]


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
    if inv_kind == "trivial":
        sigma = None  # rho(sigma g) is rho(g): one eigh and one exp per sample
    basis = np.array(lie_basis(rep.family, rep.n))
    rng = random.Random(seed)  # a negative seed acts as its absolute value
    # the basis and two generic combinations (against degenerate bases), as one stack
    h, w, hs, ws = _spectra(rep, sigma, np.concatenate([basis, _combinations(rng, 2, basis)]))

    d = rep.size
    # equation rho(g) S - S conj(rho(sigma g)) = 0 for every sample.
    # Stage 1: the kernel of the last (generic) sample's equation, read
    # off its two eigenbases.  Stage 2: the other samples on that kernel,
    # one (d^2, k) block per sample; the joint kernel is the stage-1
    # basis times the kernel of their stack.
    cands = _sylvester_kernel(h[-1], w[-1], hs[-1], ws[-1])
    k = len(cands)
    rg = _exp_from_eigh(h[:-1], w[:-1])
    rsg = np.conj(rg if sigma is None else _exp_from_eigh(hs[:-1], ws[:-1]))
    system = np.empty((len(rg) * d * d, k), dtype=complex)
    for block, r, rs in zip(np.split(system, len(rg)), rg, rsg):
        block[...] = (r @ cands - cands @ rs).reshape(k, d * d).T
    null = cands.reshape(k, d * d).T @ _null_space(system, 1e-10)
    if null.shape[1] != 1:
        raise OracleError(
            f"intertwiner space of {rep.label} has dimension "
            f"{null.shape[1]}: not irreducible or not self-conjugate")
    s = null[:, 0].reshape(d, d)

    ss = s @ np.conj(s)
    c = np.trace(ss).real / d
    if abs(np.trace(ss).imag) > tol * d or abs(c) < tol:
        raise OracleError(f"oracle inconclusive for {rep.label}: S.Sbar trace {np.trace(ss)}")
    if np.linalg.norm(ss - c * np.eye(d)) > tol * max(abs(c), 1.0) * d:
        raise OracleError(f"oracle inconclusive for {rep.label}: S.Sbar not scalar")

    h, w, hs, ws = _spectra(rep, sigma, _combinations(rng, 20, basis))
    rg = _exp_from_eigh(h, w)
    rsg = rg if sigma is None else _exp_from_eigh(hs, ws)
    resids = np.linalg.norm(rg @ s - s @ np.conj(rsg), axis=(1, 2))
    for resid in resids:
        if resid > tol * max(np.linalg.norm(s), 1.0) * 10:
            raise OracleError(f"oracle residual {resid:.2e} above tolerance "
                              f"for {rep.label}")
    return ("R" if c > 0 else "H"), s
