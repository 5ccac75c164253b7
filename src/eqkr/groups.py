"""Exact root-system, weight-lattice and character arithmetic.

Supported families: SU(n), Sp(n), Spin(n), G2, F4, E6, E7, E8, U(n), and
finite products of these.  All arithmetic is exact: weights are integer
tuples, inner products are taken in an integer multiple of the invariant
form, multiplicities and dimensions are Python ints.

Conventions
-----------
For the simply-connected families a weight is a tuple of Dynkin labels
(coordinates in the fundamental-weight basis).  The Cartan matrix is
stored as A[i][j] = <alpha_j, alpha_i^vee>, so the j-th column of A is
the j-th simple root written in the fundamental-weight basis.

U(n) is modelled directly on the lattice Z^n with Weyl group S_n:
weights are integer n-tuples, dominant means weakly decreasing, and the
determinant character (1,...,1) is invertible.  It is not treated via a
semisimple cover.

Every root data is the product of its factors; a simple or unitary group
is the product of itself.  Characters, dimensions and tensor products are
computed factor by factor, by kernels cached per root-data object, and
build_root_data returns one object per group so those caches are shared.

R(G) is the polynomial ring on the fundamental representations, with the
U(n) determinants inverted.  _as_fund_poly_cached writes V_lam in the
fundamentals from cached monomial expansions (one tensor product past a
shorter monomial each); dominant_weights_up_to_dim lists the weights of
bounded dimension.  _KERNEL_CACHES holds every cache keyed on root data.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from ._record import FrozenRecord

Weight = tuple  # tuple of ints


class UnsupportedGroupError(ValueError):
    """Raised for group families or ranks outside the supported catalog."""


class DominanceError(ValueError):
    """Raised when an operation requires a dominant weight."""


class InvariantError(RuntimeError):
    """An exact computation broke one of its own invariants (a bug, not
    bad input); unlike an assert it survives ``python -O``."""


# ---------------------------------------------------------------------------
# Cartan matrices (columns are simple roots in the fundamental-weight basis)
# ---------------------------------------------------------------------------

def _chain(rank):
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
        if i + 1 < rank:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def cartan_matrix(series: str, rank: int) -> tuple:
    """Cartan matrix of the given Dynkin type, Bourbaki node numbering."""
    if rank < 1:
        raise UnsupportedGroupError(f"rank {rank} invalid for type {series}")
    a = _chain(rank)
    if series == "A":
        pass
    elif series == "B":
        if rank < 2:
            raise UnsupportedGroupError("type B needs rank >= 2")
        a[rank - 1][rank - 2] = -2  # last simple root is short
    elif series == "C":
        if rank >= 2:
            a[rank - 2][rank - 1] = -2  # last simple root is long
    elif series == "D":
        if rank < 3:
            raise UnsupportedGroupError("type D needs rank >= 3")
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif series == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedGroupError("type E needs rank 6, 7 or 8")
        # Bourbaki: chain 1-3-4-...-n, node 2 attached to node 4.
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [0] + list(range(2, rank))
        for x, y in zip(chain, chain[1:]):
            a[x][y] = a[y][x] = -1
        a[1][3] = a[3][1] = -1
    elif series == "F":
        if rank != 4:
            raise UnsupportedGroupError("type F needs rank 4")
        a[2][1] = -2  # alpha_3 short
    elif series == "G":
        if rank != 2:
            raise UnsupportedGroupError("type G needs rank 2")
        a = [[2, -3], [-1, 2]]  # alpha_1 short
    else:
        raise UnsupportedGroupError(f"unknown series {series!r}")
    return tuple(tuple(row) for row in a)


def _symmetrizers(a) -> tuple:
    """Minimal positive integers d with d_i * a[i][j] == d_j * a[j][i]."""
    # Dynkin diagrams are connected: walk one from node 0.  Reaching j
    # from i scales every value found so far by -a[j][i], so that
    # d_j = d_i a[i][j] / a[j][i] stays an integer.
    d = [0] * len(a)
    d[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(len(a)):
            if a[i][j] and not d[j]:
                dj = -d[i] * a[i][j]
                d = [-x * a[j][i] for x in d]
                d[j] = dj
                todo.append(j)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


def _det_adjugate(a):
    """det a and adj a = det a * a^-1, both integer, by fraction-free
    Gauss-Jordan elimination (Bareiss).  Every leading principal minor of
    a Cartan matrix is positive, so no pivot is zero or needs a swap."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot = m[k]
        for r in range(n):
            if r != k:
                m[r] = [(pivot[k] * x - m[r][k] * y) // prev
                        for x, y in zip(m[r], pivot)]
        prev = pivot[k]
    return prev, [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Group specifications
# ---------------------------------------------------------------------------

_FAMILY_RE = re.compile(r"^(SU|Sp|Spin|U|G|F|E)(\d+)$")

_MIN_RANK = {"SU": 2, "Sp": 1, "U": 1, "Spin": 5}


class GroupSpec(FrozenRecord):
    """A product of simple-or-unitary factors, e.g. (("SU", 3), ("U", 2))."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self._init(factors)

    def __str__(self):
        return "x".join(f"{fam}{n}" for fam, n in self.factors)


def parse_group(text: str) -> GroupSpec:
    """Parse a group string like "SU3", "Sp2", "U2" or "SU2xSU2"."""
    factors = []
    for part in text.strip().split("x"):
        m = _FAMILY_RE.match(part.strip())
        if not m:
            raise UnsupportedGroupError(f"cannot parse group factor {part!r}")
        fam, n = m.group(1), int(m.group(2))
        if fam in ("G", "F", "E"):
            cartan_matrix(fam, n)  # validates the exceptional rank
        elif n < _MIN_RANK[fam]:
            raise UnsupportedGroupError(
                f"{fam}({n}) unsupported: {fam} needs n >= {_MIN_RANK[fam]}")
        factors.append((fam, n))
    return GroupSpec(tuple(factors))


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------

class RootData:
    """A compact group's root data; weights are integer tuples of length
    self.dim.

    Every root data is the product of its factors: a simple or unitary
    group is the product of itself (``factors == (self,)``), and
    ProductRootData concatenates its factors' weights.  ``split`` cuts a
    weight into factor parts, ``join`` glues parts back and ``combine``
    builds a product's weight map from one map per factor.  A factor
    subclass provides the primitives: ``n_simple()``; ``pairing_simple(v,
    i)`` = <v, alpha_i^vee>; the simple reflection ``reflect_simple(v,
    i)``; ``ip(v, w)``, the invariant inner product scaled to be integer
    on weights; ``rho_vec()``, any vector with <rho, alpha_i^vee> = 1 for
    all i; ``positive_roots()`` with ``coroot_pairing(v, c)``, and
    ``positive_root_vecs()`` as (weight-lattice vector, height) pairs.
    Every root data gives ``fundamental_weights()``, the ordered
    highest weights of the fundamental representations.  The character
    and tensor kernels below run factor by factor on that interface and
    are cached per root-data object, which is why build_root_data hands
    out one object per group.
    """

    spec: GroupSpec
    rank: int
    dim: int  # length of weight tuples

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.factors = (self,)

    def is_dominant(self, v):
        return all(self.pairing_simple(v, i) >= 0 for i in range(self.n_simple()))

    def positive_coroot_pairing(self, v):
        """<v, 2 rho^vee> = sum over positive roots of <v, alpha^vee>."""
        return sum(self.coroot_pairing(v, c) for c in self.positive_roots())

    def zero(self):
        return (0,) * self.dim

    # -- the product structure --------------------------------------------------
    def split(self, v):
        """The factor parts of a weight."""
        return (tuple(v),)

    def join(self, parts):
        """The weight with the given factor parts."""
        return tuple(itertools.chain(*parts))

    def combine(self, maps):
        """Weight -> multiplicity map of the product from one map per
        factor.  With one factor it is that factor's map itself, which may
        be a shared cached map: read only."""
        if len(maps) == 1:
            return maps[0]
        out = {}
        for combo in itertools.product(*[m.items() for m in maps]):
            weights, mults = zip(*combo)
            out[self.join(weights)] = math.prod(mults)  # join is injective
        return out

    # -- generic machinery ----------------------------------------------------
    def check_dominant(self, v):
        if len(v) != self.dim:
            raise DominanceError(f"weight {v} has wrong length for {self.spec}")
        if not self.is_dominant(v):
            raise DominanceError(f"weight {v} is not dominant for {self.spec}")

    def dominate(self, v):
        """The dominant representative of the Weyl orbit of v."""
        v = tuple(v)
        while True:
            for i in range(self.n_simple()):
                if self.pairing_simple(v, i) < 0:
                    v = self.reflect_simple(v, i)
                    break
            else:
                return v

    def dual_weight(self, lam):
        """Highest weight of the dual representation: -w0(lam)."""
        self.check_dominant(lam)
        return self._minus_w0(lam)

    def _minus_w0(self, lam):
        # w0(lam) is the antidominant weight of the orbit, so -w0(lam) is
        # the dominant one of the orbit of -lam
        return self.dominate(tuple(-x for x in lam))

    def orbit(self, v):
        """The full Weyl orbit of a weight, as a frozenset."""
        seen = {tuple(v)}
        todo = [tuple(v)]
        while todo:
            w = todo.pop()
            for i in range(self.n_simple()):
                u = self.reflect_simple(w, i)
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return frozenset(seen)


class SimpleRootData(RootData):
    """Root data for one simple, simply-connected factor (Dynkin labels)."""

    def __init__(self, spec: GroupSpec, series: str, rank: int):
        super().__init__(spec)
        self.series = series
        self.rank = rank
        self.dim = rank
        self.cartan = cartan_matrix(series, rank)
        self.d = _symmetrizers(self.cartan)
        det, adj = _det_adjugate(self.cartan)
        # quadratic form on Dynkin labels: (omega_i, omega_j) = ainv[j][i]*d_j
        # with ainv = adj/det, scaled to the least integer multiple
        qform = [[adj[j][i] * self.d[j] for j in range(rank)] for i in range(rank)]
        g = math.gcd(det, *itertools.chain(*qform))
        self.gram = tuple(tuple(x // g for x in row) for row in qform)
        self._positive_roots = None
        self._root_norms = {}
        # -w0 permutes the fundamental weights: w0(omega_i) = -omega_sigma(i)
        self._dual_perm = tuple(self.dominate(tuple(-x for x in w)).index(1)
                                for w in self.fundamental_weights())

    def n_simple(self):
        return self.rank

    def pairing_simple(self, v, i):
        return v[i]

    def reflect_simple(self, v, i):
        c = v[i]
        if c == 0:
            return tuple(v)
        col = self.cartan
        return tuple(v[j] - c * col[j][i] for j in range(self.rank))

    def ip(self, v, w):
        g = self.gram
        return sum(v[i] * g[i][j] * w[j] for i in range(self.rank) for j in range(self.rank)
                   if v[i] and w[j])

    def rho_vec(self):
        return (1,) * self.rank

    def fundamental_weights(self):
        return tuple(tuple(1 if j == i else 0 for j in range(self.rank))
                     for i in range(self.rank))

    def _minus_w0(self, lam):
        # sigma is an involution, so label i of -w0(lam) is lam[sigma(i)]
        return tuple(lam[s] for s in self._dual_perm)

    # -- roots ---------------------------------------------------------------
    def positive_roots(self):
        """Positive roots in simple-root coordinates, deterministic order."""
        if self._positive_roots is None:
            rank = self.rank
            a = self.cartan
            simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
            seen = set(simple)
            todo = list(simple)
            while todo:
                c = todo.pop()
                for i in range(rank):
                    pai = sum(a[i][j] * c[j] for j in range(rank))
                    c2 = tuple(c[j] - (pai if j == i else 0) for j in range(rank))
                    if c2 not in seen:
                        seen.add(c2)
                        todo.append(c2)
            pos = sorted(c for c in seen if all(x >= 0 for x in c))
            self._positive_roots = tuple(pos)
        return self._positive_roots

    def root_to_weight(self, c):
        """Convert simple-root coordinates to Dynkin labels."""
        a = self.cartan
        return tuple(sum(a[i][j] * c[j] for j in range(self.rank)) for i in range(self.rank))

    def positive_root_vecs(self):
        return tuple((self.root_to_weight(c), sum(c)) for c in self.positive_roots())

    def coroot_pairing(self, v, c):
        """<v, alpha^vee> for the root with simple-root coordinates c."""
        norm = self._root_norms.get(c)
        if norm is None:
            norm = self._root_norms[c] = sum(
                c[j] * c[k] * self.d[k] * self.cartan[k][j]
                for j in range(self.rank) for k in range(self.rank))
        num = 2 * sum(c[j] * self.d[j] * v[j] for j in range(self.rank))
        val, rem = divmod(num, norm)
        if rem:
            from fractions import Fraction
            raise InvariantError(
                f"<{v}, alpha^vee> = {Fraction(num, norm)} for {c}: not an integer")
        return val

    def diagram_automorphisms(self):
        """All permutations of simple-root indices preserving the Cartan matrix."""
        a = self.cartan
        auts = []
        for perm in itertools.permutations(range(self.rank)):
            if all(a[perm[i]][perm[j]] == a[i][j]
                   for i in range(self.rank) for j in range(self.rank)):
                auts.append(perm)
        return tuple(sorted(auts))


class UnRootData(RootData):
    """U(n) on the lattice Z^n; dominant = weakly decreasing tuples."""

    def __init__(self, spec: GroupSpec, n: int):
        super().__init__(spec)
        self.n = n
        self.rank = n
        self.dim = n

    def n_simple(self):
        return self.n - 1

    def pairing_simple(self, v, i):
        return v[i] - v[i + 1]

    def reflect_simple(self, v, i):
        w = list(v)
        w[i], w[i + 1] = w[i + 1], w[i]
        return tuple(w)

    def ip(self, v, w):
        return sum(x * y for x, y in zip(v, w))

    def rho_vec(self):
        # rho substitute (n-1, ..., 1, 0); differs from rho by a multiple of
        # (1,...,1), which is orthogonal to every root.
        return tuple(range(self.n - 1, -1, -1))

    def fundamental_weights(self):
        """The exterior powers of the defining representation, k = 1..n."""
        return tuple((1,) * k + (0,) * (self.n - k) for k in range(1, self.n + 1))

    def positive_roots(self):
        return tuple((i, j) for i in range(self.n) for j in range(i + 1, self.n))

    def positive_root_vecs(self):
        return tuple((tuple(1 if k == i else (-1 if k == j else 0) for k in range(self.n)),
                      j - i) for i, j in self.positive_roots())

    def coroot_pairing(self, v, c):
        i, j = c
        return v[i] - v[j]


class ProductRootData(RootData):
    """Finite ordered product; weights are concatenations of factor weights."""

    def __init__(self, spec: GroupSpec, factors):
        super().__init__(spec)
        self.factors = tuple(factors)
        self.rank = sum(f.rank for f in factors)
        self.dim = sum(f.dim for f in factors)
        self.slices = []
        off = 0
        for f in factors:
            self.slices.append(slice(off, off + f.dim))
            off += f.dim
        funds = []
        for f, s in zip(self.factors, self.slices):
            for w in f.fundamental_weights():
                vec = [0] * self.dim
                vec[s] = list(w)
                funds.append(tuple(vec))
        self._fundamental_weights = tuple(funds)

    def split(self, v):
        return tuple(tuple(v[s]) for s in self.slices)

    def is_dominant(self, v):
        return all(f.is_dominant(p) for f, p in zip(self.factors, self.split(v)))

    def fundamental_weights(self):
        return self._fundamental_weights

    def _minus_w0(self, lam):
        return self.join([f._minus_w0(p) for f, p in zip(self.factors, self.split(lam))])


@lru_cache(maxsize=None)
def _root_data(spec: GroupSpec) -> RootData:
    if len(spec.factors) > 1:
        return ProductRootData(spec, [_root_data(GroupSpec((f,))) for f in spec.factors])
    (fam, n), = spec.factors
    if fam == "SU":
        return SimpleRootData(spec, "A", n - 1)
    if fam == "Sp":
        return SimpleRootData(spec, "C", n)
    if fam == "Spin":
        if n % 2:
            return SimpleRootData(spec, "B", (n - 1) // 2)
        return SimpleRootData(spec, "D", n // 2)
    if fam == "U":
        return UnRootData(spec, n)
    if fam in ("G", "F", "E"):
        return SimpleRootData(spec, fam, n)
    raise UnsupportedGroupError(f"unsupported family {fam}")


def build_root_data(spec: GroupSpec | str) -> RootData:
    """Root data for a group spec: one shared object per group, so the
    kernels cached on it are shared too.  A product's factors are the
    root data of its one-factor groups."""
    if isinstance(spec, str):
        spec = parse_group(spec)
    return _root_data(spec)


# ---------------------------------------------------------------------------
# Characters (dimension, Freudenthal multiplicities, tensor decomposition)
# and R(G) on the fundamentals
# ---------------------------------------------------------------------------

def weyl_dimension(rd: RootData, lam: Weight) -> int:
    """dim V_lam = prod over positive roots of <lam+rho, a^vee>/<rho, a^vee>."""
    rd.check_dominant(lam)
    return _weyl_dimension(rd, lam)


def _weyl_dimension(rd: RootData, lam: Weight) -> int:
    """`weyl_dimension` of a weight known to be dominant, factor by factor."""
    num = den = 1
    for f, part in zip(rd.factors, rd.split(lam)):
        rho = f.rho_vec()
        lr = tuple(x + r for x, r in zip(part, rho))
        for c in f.positive_roots():
            num *= f.coroot_pairing(lr, c)
            den *= f.coroot_pairing(rho, c)
    dim, rem = divmod(num, den)
    if rem:
        from fractions import Fraction
        raise InvariantError(
            f"Weyl dimension of {lam} is {Fraction(num, den)}: not an integer")
    return dim


@lru_cache(maxsize=None)
def _dominant_multiplicities(rd, lam):
    """Multiplicities of the dominant weights of V_lam (all positive).

    The dominant weights mu <= lam are exactly those reached from lam by
    subtracting positive roots and keeping only dominant results
    (Stembridge, "The partial order of dominant weights"), so the search
    never leaves the dominant chamber.  Freudenthal's formula then runs
    over them by increasing height of lam - mu, in the integer form ip.
    """
    roots = rd.positive_root_vecs()
    height = {lam: 0}
    todo = [lam]
    while todo:
        mu = todo.pop()
        for a, h in roots:
            nu = tuple(x - y for x, y in zip(mu, a))
            if nu not in height and rd.is_dominant(nu):
                height[nu] = height[mu] + h
                todo.append(nu)

    rho = rd.rho_vec()

    def shifted_norm(mu):
        mr = tuple(x + r for x, r in zip(mu, rho))
        return rd.ip(mr, mr)

    top = shifted_norm(lam)
    dominate = lru_cache(maxsize=None)(rd.dominate)  # weights recur across strings
    mult = {lam: 1}
    for mu in sorted(height, key=lambda m: (height[m], m))[1:]:
        denom = top - shifted_norm(mu)
        if denom == 0:
            raise InvariantError(f"Freudenthal denominator of {mu} in V_{lam} is zero")
        total = 0
        for a, _ in roots:
            nu = tuple(x + y for x, y in zip(mu, a))
            pair = rd.ip(nu, a)
            aa = rd.ip(a, a)
            # weight strings are unbroken: stop at the first weight outside
            while (nud := dominate(nu)) in height:
                total += mult[nud] * pair
                nu = tuple(x + y for x, y in zip(nu, a))
                pair += aa
        m, rem = divmod(2 * total, denom)
        if rem or m < 1:
            from fractions import Fraction
            raise InvariantError(
                f"multiplicity of {mu} in V_{lam} is {Fraction(2 * total, denom)}: "
                "not a positive integer")
        mult[mu] = m
    return mult


@lru_cache(maxsize=None)
def _orbit_character(rd, lam):
    """The character of V_lam for one simple or unitary factor; shared, so
    never handed to a caller."""
    out = {}
    for mu, m in _dominant_multiplicities(rd, lam).items():
        for w in rd.orbit(mu):
            out[w] = m
    return out


def character(rd: RootData, lam: Weight) -> dict:
    """Formal character of V_lam: finite map weight -> multiplicity.

    Dominant multiplicities come from the Freudenthal recursion and are
    spread over Weyl orbits (multiplicity is orbit-constant).
    """
    rd.check_dominant(lam)
    return dict(rd.combine([_orbit_character(f, p)
                            for f, p in zip(rd.factors, rd.split(lam))]))


def tensor_decompose(rd: RootData, lam: Weight, mu: Weight) -> dict:
    """Brauer-Klimyk decomposition of V_lam (x) V_mu into irreducibles.

    Returns a map highest weight -> multiplicity.  Exact; ties cannot
    occur because rho-shifted weights on walls are dropped.  The
    decomposition is cached per simple or unitary factor (a product
    combines its factors' maps); every call returns a fresh map.
    """
    rd.check_dominant(lam)
    rd.check_dominant(mu)
    return dict(_decompose(rd, tuple(lam), tuple(mu)))


def _decompose(rd: RootData, lam: Weight, mu: Weight) -> dict:
    """`tensor_decompose` of weights the engine built itself: no dominance
    check, and on one factor the shared cached map, so read only."""
    return rd.combine([_klimyk(f, a, b)
                       for f, a, b in zip(rd.factors, rd.split(lam), rd.split(mu))])


@lru_cache(maxsize=None)
def _klimyk(rd, lam, mu):
    """Klimyk's formula on one simple or unitary factor: V_lam (x) V_mu is
    the sum over the weights nu of the smaller factor of m(nu) times the
    signed irreducible at the dominant representative of lam + nu + rho
    (minus rho).  Shared, so never handed to a caller."""
    if _weyl_dimension(rd, mu) > _weyl_dimension(rd, lam):
        lam, mu = mu, lam
    rho = rd.rho_vec()
    out = {}
    for nu, m in _orbit_character(rd, mu).items():
        sign, v = _dominate_signed(rd, tuple(a + b + r for a, b, r in zip(lam, nu, rho)))
        if sign:
            w = tuple(a - r for a, r in zip(v, rho))
            out[w] = out.get(w, 0) + sign * m
    return {k: v for k, v in out.items() if v != 0}


def _dominate_signed(rd, v):
    """(sign, w): w is the dominant representative of the Weyl orbit of v
    and sign is (-1)^(number of simple reflections taken to reach it);
    (0, v) at the first zero pairing met, where v lies on a wall and its
    Weyl alternant vanishes."""
    sign = 1
    while True:
        for i in range(rd.n_simple()):
            p = rd.pairing_simple(v, i)
            if p == 0:
                return 0, v
            if p < 0:
                v = rd.reflect_simple(v, i)
                sign = -sign
                break
        else:
            return sign, v


@lru_cache(maxsize=None)
def _expand_monomial_cached(rd, exp):
    """Highest weight -> multiplicity of prod f_i^exp[i] over the
    fundamentals f_i = rd.fundamental_weights()[i]; shared, so read only.

    The cached expansion of the shorter monomial, with the last nonzero
    exponent moved one step towards zero, tensored with that fundamental:
    one tensor product per new monomial, in slot order.  A negative
    exponent tensors with the dual, the inverse of a one-dimensional
    fundamental (a U(n) determinant) only.
    """
    last = max((i for i, a in enumerate(exp) if a), default=None)
    if last is None:
        return {rd.zero(): 1}
    f = rd.fundamental_weights()[last]
    step = 1 if exp[last] > 0 else -1
    if step < 0:
        if _weyl_dimension(rd, f) != 1:
            raise InvariantError(f"negative exponent on non-invertible fundamental {f}")
        f = rd.dual_weight(f)
    shorter = tuple(a - step * (i == last) for i, a in enumerate(exp))
    out = {}
    for w, m in _expand_monomial_cached(rd, shorter).items():
        for w2, m2 in _decompose(rd, w, f).items():
            out[w2] = out.get(w2, 0) + m * m2
    return out


def _natural_exponents(rd: RootData, lam):
    """Exponents a with highest weight of prod f_i^{a_i} equal to lam: factor
    by factor, the coordinates of lam in the fundamental weights."""
    out = []
    for f, part in zip(rd.factors, rd.split(lam)):
        if isinstance(f, UnRootData):
            # lam = sum_k (lam_k - lam_k+1) (1^k, 0^n-k) + lam_n (1^n)
            out.extend(part[k] - part[k + 1] for k in range(f.n - 1))
            out.append(part[-1])
        else:  # Dynkin labels
            out.extend(part)
    return tuple(out)


@lru_cache(maxsize=None)
def _as_fund_poly_cached(rd, lam):
    """V_lam as sorted (exponent tuple, coefficient) pairs over the fundamentals:
    its natural monomial minus the lower constituents, each recursively."""
    if lam == rd.zero():
        return (((0,) * len(rd.fundamental_weights()), 1),)
    exp = _natural_exponents(rd, lam)
    poly = {exp: 1}
    for w, m in _expand_monomial_cached(rd, exp).items():
        if w == lam:
            if m != 1:
                raise InvariantError(f"natural monomial of {lam} has top multiplicity {m}")
            continue
        for e2, c2 in _as_fund_poly_cached(rd, w):
            poly[e2] = poly.get(e2, 0) - m * c2
    return tuple(sorted((e, c) for e, c in poly.items() if c))


@lru_cache(maxsize=None)
def dominant_weights_up_to_dim(rd: RootData, bound: int):
    """All dominant weights of dimension <= bound, as a sorted tuple.

    Refused for U(n) factors, which have infinitely many (determinant
    twists).  Dimension is multiplicative over factors and at least 1 on
    each, so a product joins its factors' lists, keeping the joins within
    the bound.  One factor climbs from the zero weight by fundamental
    weights: w + e_i of a dominant w is dominant.
    """
    if any(isinstance(f, UnRootData) for f in rd.factors):
        raise UnsupportedGroupError("dimension truncation is not finite for U(n) factors")
    if bound < 1:  # even the trivial irreducible exceeds the bound
        return ()
    if len(rd.factors) > 1:
        parts = [((), 1)]
        for f in rd.factors:
            sized = [(w, _weyl_dimension(f, w)) for w in dominant_weights_up_to_dim(f, bound)]
            parts = [(ws + (w,), dim * dw) for ws, dim in parts for w, dw in sized
                     if dim * dw <= bound]
        return tuple(sorted(rd.join(ws) for ws, _ in parts))
    seen = {rd.zero()}
    todo = list(seen)
    while todo:
        w = todo.pop()
        for i in range(rd.dim):
            w2 = tuple(x + (1 if k == i else 0) for k, x in enumerate(w))
            if w2 not in seen and _weyl_dimension(rd, w2) <= bound:
                seen.add(w2)
                todo.append(w2)
    return tuple(sorted(seen))


# every process-wide cache keyed on root data; patching a root-data method clears them
_KERNEL_CACHES = (_dominant_multiplicities, _orbit_character, _klimyk, _expand_monomial_cached,
                  _as_fund_poly_cached, dominant_weights_up_to_dim)
