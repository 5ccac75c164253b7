"""An exact checker that re-verifies one type decision of the oracle from
its data alone (R. M. McConnell, K. Mehlhorn, S. Naher and P. Schweitzer,
"Certifying algorithms", Computer Science Review 5, 2011).

A decision is the Cartan matrix, the weights of a basis (Dynkin labels,
then any central coordinates), the sparse columns e[i][b] = {row:
coefficient} of rho(e_i) and likewise f, the involution, the intertwiner
S as rows, and the claimed type.  ``check`` accepts it when

1. e_j and f_j move every weight by +-alpha_j (column j of the Cartan
   matrix), [e_i, f_j] = delta_ij h_i with h_i diagonal on the weights,
   and ad(e_i)^(1 - a_ij) e_j = 0 = ad(f_i)^(1 - a_ij) f_j for i != j,
   a_ij = cartan[i][j] = <alpha_j, alpha_i^vee>;
2. the vectors every e_i kills form one line, of one weight lam, so the
   module is irreducible of highest weight lam, and
3. of Weyl's dimension for lam, from the Cartan matrix alone;
4. rho(x) S = S rho(theta x) for x = e_i, f_i, h_i and the centre, and
   S^2 = c I with c != 0: by Schur S is unique up to a scalar l, and
   (lS)(lS)bar = |l|^2 S Sbar, so c > 0 is R and c < 0 is H.

theta(X) = conj(sigma_* X), extended C-linearly, is stated here: the
Chevalley involution omega (e_i -> -f_i, f_i -> -e_i, h_i -> -h_i) with
the centre negated for ``trivial``, the identity for ``sigmaR``, and
tau o omega for ``sigmaH``, tau the diagram flip, with the centre kept.
It imports nothing from eqkr and computes in int and Fraction only.
"""

from fractions import Fraction
from itertools import product


def _matrix(columns):
    """A sparse matrix {(row, column): value} from its sparse columns."""
    return {(a, b): v for b, col in enumerate(columns) for a, v in col.items() if v}


def _diag(weights, k):
    return {(b, b): w[k] for b, w in enumerate(weights) if w[k]}


def _mul(x, y):
    by_row = {}
    for (a, b), v in y.items():
        by_row.setdefault(a, []).append((b, v))
    out = {}
    for (a, k), v in x.items():
        for b, w in by_row.get(k, ()):
            out[a, b] = out.get((a, b), 0) + v * w
    return {ab: v for ab, v in out.items() if v}


def _add(x, y, s=1):
    out = dict(x)
    for ab, v in y.items():
        out[ab] = out.get(ab, 0) + s * v
    return {ab: v for ab, v in out.items() if v}


def _bracket(x, y):
    return _add(_mul(x, y), _mul(y, x), -1)


def null_space(rows, n):
    """A basis of {x in Q^n : row . x = 0 for each sparse row {column: v}},
    from the reduced echelon form: one vector per free column f, 1 at f
    and minus each pivot row's entry at f."""
    pivots = {}  # pivot column -> row, 1 there and 0 at every other pivot column
    for row in rows:
        row = dict(row)
        for p in [c for c in row if c in pivots]:
            a = row[p]
            for c, v in pivots[p].items():
                row[c] = row.get(c, 0) - a * v
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        p = min(row)
        lead = row[p]
        row = {c: Fraction(v) / lead for c, v in row.items()}
        for q, other in pivots.items():
            if p in other:
                pivots[q] = _add(other, row, -other[p])
        pivots[p] = row
    return [{f: 1, **{p: -row[f] for p, row in pivots.items() if f in row}}
            for f in range(n) if f not in pivots]


def weyl_dimension(cartan, lam):
    """The product of (lam + rho, beta) / (rho, beta) over the positive
    roots beta, built by height from their simple-root strings; (alpha_j,
    alpha_j) = d_j with d_i a_ij = d_j a_ji, so (lam, alpha_j) = lam_j d_j / 2."""
    r = len(cartan)
    d = [None] * r
    for start in range(r):
        if d[start] is None:
            d[start], todo = Fraction(1), [start]
            while todo:
                i = todo.pop()
                for j in range(r):
                    if cartan[i][j] and d[j] is None:
                        d[j] = d[i] * cartan[i][j] / cartan[j][i]
                        todo.append(j)
    layer = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(layer)
    while layer:
        above = []
        for beta, i in product(layer, range(r)):
            step = tuple(int(i == j) for j in range(r))
            p = 0  # the i-string through beta goes p steps down ...
            while tuple(b - (p + 1) * s for b, s in zip(beta, step)) in roots:
                p += 1
            # ... and p - <beta, alpha_i^vee> steps up
            up = tuple(b + s for b, s in zip(beta, step))
            if p > sum(b * a for b, a in zip(beta, cartan[i])) and up not in roots:
                roots.add(up)
                above.append(up)
        layer = above
    dim = Fraction(1)
    for beta in roots:
        dim *= (sum(b * (x + 1) * y for b, x, y in zip(beta, lam, d))
                / sum(b * y for b, y in zip(beta, d)))
    return dim


def relations(cartan, weights, e, f):
    """The first Chevalley or Serre relation that fails, or None."""
    r = len(cartan)
    es, fs = [_matrix(m) for m in e], [_matrix(m) for m in f]
    for j, (name, xs, s) in product(range(r), (("e", es, 1), ("f", fs, -1))):
        alpha = [s * row[j] for row in cartan] + [0] * (len(weights[0]) - r)
        for a, b in xs[j]:
            if [x - y for x, y in zip(weights[a], weights[b])] != alpha:
                return f"{name}_{j} sends basis vector {b} to {a}, off its root"
    for i, j in product(range(r), repeat=2):
        if _bracket(es[i], fs[j]) != (_diag(weights, i) if i == j else {}):
            return f"[e_{i}, f_{j}] is not {f'h_{i}' if i == j else 0}"
        if i == j:
            continue
        for name, xs in (("e", es), ("f", fs)):
            z = xs[j]
            for _ in range(1 - cartan[i][j]):
                z = _bracket(xs[i], z)
            if z:
                return f"ad({name}_{i})^{1 - cartan[i][j]} {name}_{j} is not 0"
    return None


def theta_pairs(kind, cartan, weights, e, f):
    """(name of x, rho(x), rho(theta x)) for x = e_i, f_i, h_i and each
    central coordinate z_k."""
    r = len(cartan)
    if kind not in ("trivial", "sigmaR", "sigmaH"):
        raise ValueError(f"no theta for {kind!r}")
    tau = [r - 1 - i if kind == "sigmaH" else i for i in range(r)]
    if any(cartan[tau[i]][tau[j]] != cartan[i][j] for i, j in product(range(r), repeat=2)):
        raise ValueError(f"{kind}: the diagram flip is not an automorphism of {cartan}")
    h = [_diag(weights, k) for k in range(len(weights[0]))]
    gens = {"e": [_matrix(m) for m in e], "f": [_matrix(m) for m in f], "h": h}
    omega = {"e": "f", "f": "e", "h": "h"}
    return ([(f"{g}_{i}", gens[g][i], gens[g][i] if kind == "sigmaR"
              else _add({}, gens[omega[g]][tau[i]], -1)) for g, i in product("efh", range(r))]
            + [(f"z_{k - r}", h[k], _add({}, h[k], -1) if kind == "trivial" else h[k])
               for k in range(r, len(h))])


def check(cartan, weights, e, f, kind, s, claimed):
    """None when the decision is certified, else a witness: the first of
    the four checks (module docstring) that fails, and where.  Raises
    ValueError when kind names no involution of this algebra."""
    size, r = len(weights), len(cartan)
    if any(len(m) != size for m in e + f) or len(s) != size or any(len(row) != size for row in s):
        return f"the generators and S are not all {size} x {size}"
    witness = relations(cartan, weights, e, f)
    if witness:
        return witness
    killed = {}  # one equation per (i, row): row of rho(e_i) x = 0
    for i, x in enumerate(e):
        for b, col in enumerate(x):
            for a, v in col.items():
                killed.setdefault((i, a), {})[b] = v
    kernel = null_space(killed.values(), size)
    if len(kernel) != 1:
        return f"the e_i kill a space of dimension {len(kernel)}, not a line"
    top = weights[min(kernel[0])]  # the line is of one weight: the e_i move weights
    dim = weyl_dimension(cartan, top[:r])
    if dim != size:
        return f"dimension {size} is not Weyl's {dim} for the top weight {top}"
    sm = {(a, b): v for a, row in enumerate(s) for b, v in enumerate(row) if v}
    for name, x, y in theta_pairs(kind, cartan, weights, e, f):
        if _mul(x, sm) != _mul(sm, y):
            return f"S does not intertwine {name} with theta {name} under {kind}"
    square = _mul(sm, sm)
    c = square.get((0, 0), 0)
    if not c or square != {(b, b): c for b in range(size)}:
        return "S^2 is not a nonzero multiple of the identity"
    if ("R" if c > 0 else "H") != claimed:
        return f"S^2 = {c} I, which is not of type {claimed}"
    return None
