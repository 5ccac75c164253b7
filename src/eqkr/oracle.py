"""Exact antilinear-intertwiner oracle that checks R-vs-H decisions.

The oracle decides no type in the engine: the classifier in
eqkr.realstruct uses overrides and the catalog rule only, and this
module checks that rule independently (``eqkr verify --suite oracle``).

For a self-twisted-dual representation rho and an involution sigma, the
antilinear intertwiner v -> S(vbar) solves rho(g) S = S conj(rho(sigma g)).
Differentiated, with theta(X) = conj(sigma_* X) extended C-linearly, this
reads

    d rho(X) S = S d rho(theta X)        for X in the complexified algebra.

One model serves every weight: V_lam is built from the Cartan matrix
alone, over Q, one weight space at a time from the top (Humphreys,
Introduction to Lie Algebras and Representation Theory, sections 20-21;
de Graaf, Lie Algebras: Theory and Algorithms, on representations).
Below lam a vector is zero exactly when every e_j kills it, so each
candidate f_i b is stored by its images e_j f_i b = f_i e_j b +
delta_ij <wt b, alpha_i^vee> b, which lie in weight spaces already built;
the reduced echelon form of those images gives the new basis and every
candidate's coordinates.  The rank must reach the Weyl dimension and
never pass it, or the build raises OracleError.  A U(n) weight is its
A_{n-1} labels plus its central weight.

theta is a table on the Chevalley generators: the Chevalley involution
e_i -> -f_i, f_i -> -e_i for ``trivial`` (negating the centre of U(n)),
the identity for ``sigmaR``, and tau o omega for ``sigmaH``, with tau the
diagram flip of A_{2m-1}; both realizations of sigmaH fix Sp(m), so they
are conjugate.  The models are rational, so under ``sigmaR`` S is the
identity and every decision is R by construction.

The equation is solved over Q in two stages.  The Cartan elements allow
an entry S[a][b] only where the weight of a equals the weight of b
composed with theta, read off the model's weights.  The generators e_i,
f_i then give the other equations: they generate the algebra, and theta
is an automorphism, so the X that satisfy the equation form a subalgebra
that is all of it.  Elimination, exact over Q and kept in integers
wherever the values are integral, gives the kernel, which must be
one-dimensional (Schur).  S is rational, so S.Sbar = S^2, which must be c
times the identity: c > 0 is Real, c < 0 Quaternionic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .groups import RootData, _weyl_dimension, cartan_matrix


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
# highest-weight models
# ---------------------------------------------------------------------------

class RepModel:
    """V_lam on a rational basis of weight vectors: weights[b] is the
    weight of basis vector b (Dynkin labels, then the central weight of
    U(n)), and e[i][b], f[i][b] are its images under the Chevalley
    generators, as sparse columns {basis vector: coefficient}.  Built once
    per weight and shared; never modified."""

    def __init__(self, cartan, group, label, top, dim):
        self.cartan = cartan
        self.group = group  # the group a refusal names, e.g. "SU(3)"
        self.label = label
        self.size = dim
        self.weights = [top]  # basis vector 0 spans the top weight space
        self.e = [[{} for _ in range(dim)] for _ in cartan]
        self.f = [[{} for _ in range(dim)] for _ in cartan]


def _lowered(rep, i, b):
    """The images of f_i b under e_1 + ... + e_r, as one sparse vector:
    e_j f_i b = f_i e_j b + delta_ij <wt b, alpha_i^vee> b lies in the
    weight space of wt b - alpha_i + alpha_j, so distinct j stay apart."""
    out = {}
    fi = rep.f[i]
    for ej in rep.e:
        for c, v in ej[b].items():
            for d, w in fi[c].items():
                out[d] = out.get(d, 0) + v * w
    h = rep.weights[b][i]
    if h:
        out[b] = out.get(b, 0) + h
    return out


def _highest_weight_model(cartan, top, dim, group, label):
    """V_top of the Lie algebra with Cartan matrix cartan (columns are
    the simple roots on Dynkin labels), for top its Dynkin labels and any
    further coordinates, which every basis vector shares.

    Below top, V_mu is spanned by the f_i V_{mu+alpha_i}, and mu - alpha_i
    is visited only when the i-string through mu goes below it:
    <mu, alpha_i^vee> + p > 0, with p its length above mu.  Raises
    OracleError as soon as the rank passes dim, and at the end unless it
    equals dim."""
    alphas = [tuple(row[i] for row in cartan) + (0,) * (len(top) - len(cartan))
              for i in range(len(cartan))]
    rep = RepModel(cartan, group, label, top, dim)
    built = {top: ([0], [0] * len(alphas))}  # the basis vectors and the p of each weight
    layer = [top]
    while layer:
        below = {}  # the candidates (i, b) and the p of each weight one layer down
        for nu in layer:
            basis, p = built[nu]
            for i, a in enumerate(alphas):
                if nu[i] + p[i] > 0:
                    mu = tuple(map(sub, nu, a))
                    if mu not in below:
                        below[mu] = [], [0] * len(alphas)
                    candidates, q = below[mu]
                    candidates += [(i, b) for b in basis]
                    q[i] = p[i] + 1
        layer = []
        for mu, (candidates, q) in below.items():
            images = [_lowered(rep, i, b) for i, b in candidates]
            pivots = _echelon(images)
            size = len(rep.weights)
            if size + len(pivots) > dim:
                raise OracleError(f"{label} passes its Weyl dimension {dim}")
            raised = {tuple(map(add, mu, a)): ej for a, ej in zip(alphas, rep.e)}
            new = {}  # pivot column -> (new basis vector, den, g)
            for k, (col, row) in enumerate(pivots.items(), size):
                # the basis vector is the row made a primitive integer vector,
                # den / g times it, so a weight space of dimension 1 keeps
                # every coordinate integral
                den = lcm(*(v.denominator for v in row.values()))
                row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
                g = gcd(*row.values())
                new[col] = k, den, g
                for c, v in row.items():
                    raised[rep.weights[c]][k][c] = v // g
            rep.weights += [mu] * len(new)
            for (i, b), image in zip(candidates, images):
                rep.f[i][b] = {new[c][0]: _quotient(v * new[c][2], new[c][1])
                               for c, v in image.items() if v and c in new}
            if new:
                built[mu] = list(range(size, len(rep.weights))), q
                layer.append(mu)
    if len(rep.weights) != dim:
        raise OracleError(f"{label} ends at dimension {len(rep.weights)}, short of its "
                          f"Weyl dimension {dim}")
    return rep


@lru_cache(maxsize=None)
def _weight_model(rd: RootData, lam) -> RepModel:
    """The model of V_lam for a simple or unitary group, built once per
    (root data, weight): a U(n) weight becomes its A_{n-1} labels plus its
    central weight sum(lam)."""
    (fam, n), = rd.spec.factors
    top = tuple(rd.pairing_simple(lam, i) for i in range(rd.n_simple()))
    if fam == "U":
        cartan, top = (cartan_matrix("A", n - 1) if n > 1 else ()), top + (sum(lam),)
    else:
        cartan = rd.cartan
    return _highest_weight_model(cartan, top, _weyl_dimension(rd, lam), f"{fam}({n})",
                                f"{rd.spec} V({', '.join(map(str, lam))})")


def rep_for_weight(rd: RootData, lam) -> RepModel | None:
    """The model of V_lam when lam is a fundamental weight of one SU(n),
    Sp(n) or U(n) factor; None otherwise."""
    lam = tuple(lam)
    if (len(rd.factors) > 1 or rd.spec.factors[0][0] not in ("SU", "Sp", "U")
            or lam not in rd.fundamental_weights()):
        return None
    return _weight_model(rd, lam)


# ---------------------------------------------------------------------------
# the intertwiner equation
# ---------------------------------------------------------------------------

# theta on the Chevalley generators, by involution: (flip, swap, z).  With
# swap, e_i -> -f_tau(i) and f_i -> -e_tau(i), else e_i -> e_tau(i) and
# f_i -> f_tau(i); tau is the diagram flip with flip, else the identity;
# z scales the centre of U(n)
_THETA = {"trivial": (False, True, -1),  # the Chevalley involution omega
          "sigmaR": (False, False, 1),
          "sigmaH": (True, True, 1)}  # tau o omega, on A_{2m-1} only


def matrix_oracle_type(rep: RepModel, inv_kind: str, seed: int | None = None):
    """Decide R vs H for a self-twisted-dual representation.

    Returns (type, S), with S the intertwiner as d rows of Fractions,
    scaled so that its first nonzero entry is 1.  Raises OracleError when
    the intertwiner space is not one-dimensional ("not irreducible or not
    self-conjugate") or S.Sbar is not a nonzero multiple of the identity.
    The decision is exact and draws nothing: seed is accepted from callers
    that pass one, and ignored.
    """
    rank = len(rep.cartan)
    if inv_kind not in _THETA or _THETA[inv_kind][0] and not (
            rank % 2 and rep.cartan == cartan_matrix("A", rank)):
        raise OracleError(f"no matrix realization of {inv_kind} on {rep.group}")
    flip, swap, z = _THETA[inv_kind]
    tau = range(rank - 1, -1, -1) if flip else range(rank)
    by_weight = {}  # basis vectors by their weight composed with theta
    for b, w in enumerate(rep.weights):  # theta h_i = -h_tau(i) when swap
        w = tuple(-w[t] if swap else w[t] for t in tau) + tuple(z * x for x in w[rank:])
        by_weight.setdefault(w, []).append(b)
    # deepest rows first: S grows down the basis, so each pivot falls on the
    # larger entry of its equation and the elimination stays in integers
    unknowns = [(a, b) for a in range(rep.size - 1, -1, -1)
                for b in by_weight.get(rep.weights[a], ())]
    index = {ab: u for u, ab in enumerate(unknowns)}
    cols, rows = {}, {}  # the unknown columns of each row of S, and rows of each column
    for a, b in unknowns:
        cols.setdefault(a, []).append(b)
        rows.setdefault(b, []).append(a)

    pairs = []  # (x, s, y) with theta x = s y, for each generator x
    for i, t in enumerate(tau):
        if swap:
            pairs += [(rep.e[i], -1, rep.f[t]), (rep.f[i], -1, rep.e[t])]
        else:
            pairs += [(rep.e[i], 1, rep.e[t]), (rep.f[i], 1, rep.f[t])]
    system = {}  # entry (p, q) of d rho(x) S - s S d rho(y) for each generator x
    for g, (x, s, y) in enumerate(pairs):
        terms = [(p, q, index[a, q], v) for a, col in enumerate(x) for p, v in col.items()
                 for q in cols.get(a, ())]
        terms += [(p, q, index[p, b], -s * v) for q, col in enumerate(y) for b, v in col.items()
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
