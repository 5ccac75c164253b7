"""Exact antilinear-intertwiner oracle that checks R-vs-H decisions.

The oracle decides no type in the engine: the classifier in
eqkr.realstruct uses overrides and the catalog rule only, and this
module checks that rule independently (``eqkr verify --suite oracle``).

For a self-twisted-dual representation rho and an involution sigma, the
antilinear intertwiner v -> S(vbar) solves rho(g) S = S conj(rho(sigma g)).
Differentiated, with theta(X) = conj(sigma_* X) extended C-linearly (-X^T
for the trivial sigma, X for sigmaR, J X J^-1 for sigmaH), this reads

    d rho(X) S = S d rho(theta X)        for X in the complexified algebra.

Every model is exact: d rho of each matrix unit is a sparse rational
matrix on a weight basis, so the equation is solved over Q, in two
stages.  The Cartan elements allow an entry S[a][b] only where the weight
of a equals the weight of b composed with theta.  The Chevalley
generators e_i, f_i then give the other equations: they generate the
algebra, and theta is an automorphism, so the X that satisfy the
equation form a subalgebra that is all of it.  Elimination, exact over Q
and kept in integers wherever the values are integral, gives the kernel,
which must be one-dimensional (Schur).  S is rational, so S.Sbar = S^2,
which must be c times the identity: c > 0 is Real, c < 0 Quaternionic.

Models exist for SU(n), Sp(n) and U(n): the defining representation (the
identity map), the derivation on the k-subsets of an exterior power, its
Sp(n) primitive part (the kernel of the contraction with the symplectic
form, on the rational basis that the reduced echelon form gives), and the
derivation on the monomials of a symmetric power.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .groups import RootData


class OracleError(RuntimeError):
    """Oracle could not produce a trustworthy answer."""


# ---------------------------------------------------------------------------
# exact linear algebra on sparse rows {column: coefficient}
# ---------------------------------------------------------------------------

def _quotient(v, d=1):
    """v / d, exactly: an int when it is integral, else a Fraction."""
    return Fraction(v, d) if v % d else v // d


def _echelon(rows):
    """Reduced echelon form of sparse rows, as {pivot column: row}: each
    row is 1 at its pivot and has no entry at any other pivot column."""
    pivots = {}
    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in pivots]:
            a = row[col]
            for c, v in pivots[col].items():
                row[c] = row.get(c, 0) - a * v
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        col = min(row)
        lead = row[col]
        row = {c: _quotient(v, lead) for c, v in row.items()}
        for p, other in pivots.items():
            a = other.get(col)
            if a:
                for c, v in row.items():
                    other[c] = _quotient(other.get(c, 0) - a * v)
                pivots[p] = {c: v for c, v in other.items() if v}
        pivots[col] = row
    return pivots


def _kernel(pivots, columns):
    """The kernel of echelon rows, one vector {column: value} per free
    column f: 1 at f, and minus each pivot row's entry at f."""
    return [{f: 1, **{p: -row[f] for p, row in pivots.items() if f in row}}
            for f in columns if f not in pivots]


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

class RepModel:
    """A representation given by its differential d rho on a rational weight
    basis: units[(r, c)] lists the nonzero entries (i, j, v) of d rho(E_rc)
    for the matrix unit E_rc of the defining representation.  Built once
    per model and shared; never modified."""

    def __init__(self, family, n, units, size, label):
        self.family = family
        self.n = n  # rank parameter of the defining representation
        self.units = units
        self.size = size
        self.label = label

    def differential(self, x):
        """d rho of a sparse defining-size matrix {(r, c): coefficient}, as a
        sparse matrix {(i, j): value}."""
        out = {}
        for rc, a in x.items():
            for i, j, v in self.units.get(rc, ()):
                out[i, j] = out.get((i, j), 0) + a * v
        return {ij: v for ij, v in out.items() if v}


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
    return RepModel(family, n, units, m, f"{family}{n} defining")


@lru_cache(maxsize=None)
def exterior_rep(family, n, k):
    units, size = _tensor_derivation(defining_rep(family, n).size, k, True)
    return RepModel(family, n, units, size, f"{family}{n} wedge^{k}")


@lru_cache(maxsize=None)
def symmetric_rep(family, n, k):
    units, size = _tensor_derivation(defining_rep(family, n).size, k, False)
    return RepModel(family, n, units, size, f"{family}{n} sym^{k}")


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
    return RepModel("Sp", n, units, len(free), f"Sp{n} primitive wedge^{k}")


def rep_for_weight(rd: RootData, lam) -> RepModel | None:
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


# ---------------------------------------------------------------------------
# the intertwiner equation
# ---------------------------------------------------------------------------

def _theta(inv_kind, family, n):
    """theta(X) = conj(sigma_* X), extended C-linearly, on sparse
    defining-size matrices, or None when sigma has no matrix realization."""
    if inv_kind == "trivial":
        return lambda x: {(c, r): -a for (r, c), a in x.items()}
    if inv_kind == "sigmaR":
        # sigma is entrywise conjugation, which preserves Sp(n) too
        return lambda x: x
    if inv_kind == "sigmaH" and family in ("SU", "U") and n % 2 == 0:
        h = n // 2

        def j(c):  # J e_c for J = [[0, I], [-I, 0]], as (index, sign)
            return (c - h, 1) if c >= h else (c + h, -1)

        def theta(x):  # J E_rc J^-1 = (J e_r)(J e_c)^T, since J^-1 = J^T
            out = {}
            for (r, c), a in x.items():
                (jr, sr), (jc, sc) = j(r), j(c)
                out[jr, jc] = sr * sc * a
            return out
        return theta
    return None


def _chevalley(family, n):
    """(Cartan basis, Chevalley generators e_i and f_i) of the complexified
    Lie algebra, as sparse defining-size matrices."""
    if family in ("SU", "U"):
        es = [{(i, i + 1): 1} for i in range(n - 1)]
        cartan = ([{(i, i): 1} for i in range(n)] if family == "U"
                  else [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)])
    elif family == "Sp":
        # sp(2n, C) is [[A, B], [C, -A^T]] with B and C symmetric
        es = ([{(i, i + 1): 1, (n + i + 1, n + i): -1} for i in range(n - 1)]
              + [{(n - 1, 2 * n - 1): 1}])
        cartan = [{(i, i): 1, (n + i, n + i): -1} for i in range(n)]
    else:
        raise OracleError(f"no Lie algebra model for family {family}")
    return cartan, es + [{(c, r): a for (r, c), a in e.items()} for e in es]


def _weight_pairs(rep, theta, cartan):
    """The entries (a, b) of S that the Cartan equations allow: those where
    the weight of basis vector a equals the weight of b composed with
    theta.  Every basis vector is an eigenvector of each d rho(h), so the
    weights are read off the diagonals."""
    def weights(hs):
        ds = [rep.differential(h) for h in hs]
        return [tuple(dh.get((i, i), 0) for dh in ds) for i in range(rep.size)]

    by_weight = {}
    for b, w in enumerate(weights([theta(h) for h in cartan])):
        by_weight.setdefault(w, []).append(b)
    return [(a, b) for a, w in enumerate(weights(cartan)) for b in by_weight.get(w, ())]


def matrix_oracle_type(rep: RepModel, inv_kind: str, seed: int | None = None):
    """Decide R vs H for a self-twisted-dual representation.

    Returns (type, S), with S the intertwiner as d rows of Fractions,
    scaled so that its first nonzero entry is 1.  Raises OracleError when
    the intertwiner space is not one-dimensional ("not irreducible or not
    self-conjugate") or S.Sbar is not a nonzero multiple of the identity.
    The decision is exact and draws nothing: seed is accepted from callers
    that pass one, and ignored.
    """
    theta = _theta(inv_kind, rep.family, rep.n)
    if theta is None:
        raise OracleError(f"no matrix realization of {inv_kind} on "
                          f"{rep.family}({rep.n})")
    cartan, generators = _chevalley(rep.family, rep.n)
    unknowns = _weight_pairs(rep, theta, cartan)
    index = {ab: u for u, ab in enumerate(unknowns)}
    cols, rows = {}, {}  # the unknown columns of each row of S, and rows of each column
    for a, b in unknowns:
        cols.setdefault(a, []).append(b)
        rows.setdefault(b, []).append(a)

    system = {}  # entry (p, q) of d rho(x) S - S d rho(theta x) for each generator x
    for g, x in enumerate(generators):
        terms = [(p, q, index[a, q], v) for (p, a), v in rep.differential(x).items()
                 for q in cols.get(a, ())]
        terms += [(p, q, index[p, b], -v) for (b, q), v in rep.differential(theta(x)).items()
                  for p in rows.get(b, ())]
        for p, q, u, v in terms:
            eq = system.setdefault((g, p, q), {})
            eq[u] = eq.get(u, 0) + v
    kernel = _kernel(_echelon(system.values()), range(len(unknowns)))
    if len(kernel) != 1:
        raise OracleError(
            f"intertwiner space of {rep.label} has dimension "
            f"{len(kernel)}: not irreducible or not self-conjugate")
    s = {unknowns[u]: v for u, v in kernel[0].items() if v}

    by_row = {}
    for (b, c), v in s.items():
        by_row.setdefault(b, []).append((c, v))
    square = {}  # S is rational, so S.Sbar = S^2; scaling S by l scales c by l^2 > 0
    for (a, b), v in s.items():
        for c, w in by_row.get(b, ()):
            square[a, c] = square.get((a, c), 0) + v * w
    c = square.get((0, 0), 0)
    if c == 0 or {ac: v for ac, v in square.items() if v} != {
            (i, i): c for i in range(rep.size)}:
        raise OracleError(f"S.Sbar of {rep.label} is not a nonzero multiple "
                          "of the identity")
    lead, zero = s[min(s)], Fraction(0)
    s = {ab: Fraction(v, lead) for ab, v in s.items()}
    return ("R" if c > 0 else "H"), [[s.get((i, j), zero) for j in range(rep.size)]
                                     for i in range(rep.size)]
