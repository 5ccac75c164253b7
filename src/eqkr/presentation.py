"""Generators-and-relations presentations of KR*_G(G^-), K*_G(G) and K*(G).

Each is an exterior algebra of Grothendieck differentials over a
coefficient ring, so one Presentation core serves all three and asks a
ring object for what differs: RepRing, R(G) (with Z[beta]/(beta^4-1)),
for K*_G(G) on one odd generator dG[f] per fundamental f; RankRing, Z
through the rank, for K*(G); AssemblyRing, KR_G(pt), for KR*_G(G^-),
whose normal-form term is

    coeff . (weight, class) . plain-monomial . r-slot

where (weight, class) is an atom of the assembly (weight
self-twisted-dual, class one of 1, eta, eta^2, mu), the plain monomial is
a square-free product of the generators dR[phi] (degree 1), dH[theta]
(degree -3), lam[k] (degree 0), and the r-slot is a realified class

    r( beta^i . rho . prod dG[gamma_k]^eps_k . prod dG[abar gamma_k]^nu_k )

with rho trivial or the lexicographically smaller member of a complex
pair, i mod 4 (periodicity), eps_k nu_k never both set, and the
redundancy r(x) = r(tau x) canonicalized.  tau is the twisted
conjugation: beta -> -beta, weights -> twisted dual, dG[f] -> -dG[f*].

The complexification c of a term has one routine,
Presentation._c_image, and the product of two assembly terms has two
cases: without an r-slot it is type bookkeeping on the coefficient
atoms; with one it is the projection formula r(x) . y = r(x . c(y)),
which realizes the whole relation table: generator squares vanish, eta
kills realified classes, mu doubles them and shifts i by 2, realified
squares reduce by degree mod 8 to eta^2/mu/zero/two multiples of
realified rho sigmabar*rho times lam monomials, and graded
commutativity holds with computed signs.
"""

from __future__ import annotations

import itertools
from math import comb

from ._record import FrozenRecord, Record
from .coeffs import KR_BASIS, KR_DEGREE, KR_TORSION, KRCoeff, c_coeff, r_pattern
from .groups import (
    InvariantError,
    RootData,
    dominant_weights_up_to_dim,
    tensor_decompose,
    weyl_dimension,
    _as_fund_poly_cached,
    _expand_monomial_cached,
)
from .realstruct import (
    TYPE_C,
    TYPE_H,
    TYPE_R,
    Involution,
    classify_type,
    split_fundamentals,
)


class PresentationError(InvariantError):
    """Internal invariant violation in the presentation engine."""


def canon_degree(d: int) -> int:
    """Degree representative in the canonical set {1, 0, -1, ..., -6}."""
    d %= 8
    return d if d <= 1 else d - 8


GEN_DEGREE = {"dR": 1, "dH": -3, "lam": 0, "dG": -1}
GEN_PARITY = {"dR": 1, "dH": 1, "lam": 0, "dG": 1}


def _csv(xs):
    return ",".join(map(str, xs))


class Generator(FrozenRecord):
    """A generator: ``kind`` is dR | dH | lam | dG, ``payload`` its
    highest weight (for lam: the pair representative), ``index`` its
    position in the presentation's generator list and ``pair`` the
    complex-pair index of a lam generator (-1 otherwise)."""

    __slots__ = ("kind", "payload", "index", "pair")

    def __init__(self, kind, payload, index, pair=-1):
        self._init(kind, payload, index, pair)

    @property
    def degree(self):
        return GEN_DEGREE[self.kind]

    @property
    def parity(self):
        return GEN_PARITY[self.kind]

    def label(self):
        if self.kind == "lam":
            return f"lam[{self.pair + 1}]"
        return f"{self.kind}[{_csv(self.payload)}]"


class RClassIndex(FrozenRecord):
    """Index of a realified generator r_{rho, i, eps, nu}.

    rho: None for the trivial representation, or a complex-type dominant
    weight; i: Bott exponent >= 0 (periodicity identifies i with i+4);
    eps/nu: 0/1 tuples with eps_k nu_k never both 1 and the first eps
    index preceding the first nu index.  rho, eps and nu are stored as
    tuples whatever sequences they are given as, so the record hashes.
    """

    __slots__ = ("rho", "i", "eps", "nu")

    def __init__(self, rho, i, eps, nu):
        if rho is not None and any(type(x) is not int for x in rho):
            raise ValueError(f"rho must be None or an integer weight, not {rho!r}")
        if i < 0:
            raise ValueError("Bott exponent must be >= 0")
        if len(eps) != len(nu):
            raise ValueError("eps and nu must have equal length")
        for e, n in zip(eps, nu):
            if e not in (0, 1) or n not in (0, 1):
                raise ValueError("eps/nu entries must be bits")
            if e == 1 and n == 1:
                raise ValueError("eps_k and nu_k may not both be 1")
        first_e = next((k for k, e in enumerate(eps) if e), None)
        first_n = next((k for k, n in enumerate(nu) if n), None)
        if first_n is not None and (first_e is None or first_e > first_n):
            raise ValueError("first eps index must precede first nu index")
        self._init(None if rho is None else tuple(rho), i, tuple(eps), tuple(nu))

    @property
    def factor_count(self):
        return sum(self.eps) + sum(self.nu)

    def degree(self):
        return canon_degree(-(2 * self.i + self.factor_count))

    def shifted(self, di):
        return RClassIndex(self.rho, self.i + di, self.eps, self.nu)


class RingElement:
    """A finite sum of (coefficient, normal-form term) pairs, normalised
    on construction by the presentation's ring."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        self.p = p
        self.terms = p.ring.normalize(p, terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.p is other.p and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self.p._check_same(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        return self.p._element(out)

    def __neg__(self):
        return self.p._element({t: -c for t, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.p._element({t: c * other for t, c in self.terms.items()})
        if not isinstance(other, RingElement):
            return NotImplemented
        self.p._check_same(other)
        return self.p._mul_elements(self, other)

    __rmul__ = __mul__  # reached only from a left operand that is no RingElement

    def degrees(self):
        """The sorted degrees of the terms."""
        return sorted({self.p.term_degree(t) for t in self.terms})

    def __repr__(self):
        terms = sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        return " + ".join(f"{c}*{self.p.term_label(t)}" for t, c in terms) or "0"


def koszul_sort(factors, parity=None):
    """(factors sorted increasingly, the number of transpositions of two
    odd entries that sorts them), so the Koszul sign is (-1) ** count;
    None when an entry repeats.  ``parity`` maps an entry to 0 or 1; every
    entry is odd without it."""
    out, count = [], 0
    for x in factors:
        pos = len(out)
        while pos and out[pos - 1] > x:
            pos -= 1
        if pos and out[pos - 1] == x:
            return None
        if parity is None:
            count += len(out) - pos
        elif parity(x):
            count += sum(map(parity, out[pos:]))
        out.insert(pos, x)
    return tuple(out), count


def _label(w, parts):
    """A term label: V[w] unless w is trivial, then the parts; 1 if empty."""
    return ".".join(([f"V[{_csv(w)}]"] if any(w) else []) + parts) or "1"


def _degree_table():
    return {canon_degree(-q): [0, 0] for q in range(8)}


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class RepRing:
    """R(G).  A term is (w, j, bits): beta^j . V_w . the dG-monomial on the
    sorted factor indices ``bits``.  A ring holds the generator catalog,
    the term shape (``monomial``, ``label``, ``degree``), ``normalize``,
    the unit product, the derivation cofactor, the coefficient ``tag``,
    the Omega-form flag and the module table; its methods take the
    presentation whose memo tables they read."""

    tag = "R(G)"
    complexification = None  # the ring c maps into; None: no realified classes

    def generators(self, factors):
        return [Generator("dG", w, fi) for fi, (_, w, _) in enumerate(factors)]

    def omega_form(self, split):
        return False

    def monomial(self, p, gis):
        return (p.zero_weight, 0, gis)

    def label(self, p, t):
        w, j, bits = t
        return _label(w, ([f"b^{j}"] if j else [])
                      + [f"dG[{_csv(p.factors[b][1])}]" for b in bits])

    def degree(self, p, t):
        return canon_degree(-2 * t[1] - len(t[2]))

    def normalize(self, p, terms):
        return {t: c for t, c in terms.items() if c}

    def mul_unit(self, p, t1, t2):
        """Brauer-Klimyk on the weights, Koszul signs on the dG factors."""
        w1, j1, b1 = t1
        w2, j2, b2 = t2
        merged = koszul_sort(b1 + b2)
        if merged is None:
            return {}
        bits, count = merged
        sign, j = (-1) ** count, (j1 + j2) % 4
        return {(w, j, bits): sign * m for w, m in p.tensor(w1, w2).items()}

    def derivation(self, p, expansion, cof, i):
        """f^cof . df_i, the cofactor expanded into irreducibles."""
        bits = (p._fund_factor[i],)
        return {(w, 0, bits): m for w, m in expansion.items()}

    def poincare(self, p, bound):
        table = _degree_table()
        n = len(p.gens)
        for k in range(n + 1):
            for j in range(4):
                table[canon_degree(-2 * j - k)][0] += comb(n, k)
        return table


class RankRing(RepRing):
    """Z through the rank: the coefficients of K*(G).  Normalisation sends
    a weight to its rank at the zero weight, so R(G)'s product and
    derivation push forward unchanged and every constructor agrees with
    the augmentation of K*_G(G)."""

    tag = "Z"

    def normalize(self, p, terms):
        zero, out = p.zero_weight, {}
        for (w, j, bits), c in terms.items():
            if w != zero:
                c *= weyl_dimension(p.rd, w)
            out[zero, j, bits] = out.get((zero, j, bits), 0) + c
        return {t: c for t, c in out.items() if c}


REP_RING = RepRing()
RANK_RING = RankRing()


class AssemblyRing:
    """KR_G(pt)'s assembly.  A term is (cw, cls, plain, rslot), rslot None
    or (rho, i, eps, nu) with eps/nu as sorted pair indices; torsion
    classes reduce mod 2."""

    tag = "KRG-assembly"
    complexification = REP_RING
    _GEN_KIND = {"phi": "dR", "theta": "dH", "u": "lam"}

    def generators(self, factors):
        # the table lists its pairs last, so lam[k] follows dR/dH
        return [Generator(self._GEN_KIND[role], w, gi, pair) for gi, (role, w, pair)
                in enumerate(f for f in factors if f[0] != "v")]

    def omega_form(self, split):
        return split.t == 0

    def monomial(self, p, gis):
        return (p.zero_weight, "1", gis, None)

    def label(self, p, t):
        cw, cls, plain, rslot = t
        parts = [] if cls == "1" else [cls]
        parts += [p.gens[gi].label() for gi in plain]
        if rslot is not None:
            rho, i, eps, nu = rslot
            parts.append(f"r[{'1' if rho is None else _csv(rho)};{i};"
                         f"{_csv(eps) or '-'};{_csv(nu) or '-'}]")
        return _label(cw, parts)

    def degree(self, p, t):
        cw, cls, plain, rslot = t
        d = KR_DEGREE[cls] - 4 * p._h_type(cw) + sum(p.gens[gi].degree for gi in plain)
        if rslot is not None:
            d -= 2 * rslot[1] + len(rslot[2]) + len(rslot[3])
        return canon_degree(d)

    def normalize(self, p, terms):
        out = {}
        for t, c in terms.items():
            if t[1] in KR_TORSION:
                c %= 2
            if c:
                out[t] = c
        return out

    def mul_unit(self, p, t1, t2):
        """Type bookkeeping without an r-slot, the projection formula with
        one."""
        cw1, cls1, p1, s1 = t1
        cw2, cls2, p2, s2 = t2
        if s1 is None and s2 is None:
            merged = koszul_sort(p1 + p2, p._gen_parity)
            if merged is None:
                return {}
            plain, count = merged
            # the class of V_cw1 (x) V_cw2, scaled by cls1 . cls2
            parity = (p._h_type(cw1) + p._h_type(cw2)) % 2
            kr = KRCoeff.basis(cls1) * KRCoeff.basis(cls2)
            if kr.is_zero():
                return {}
            return self._rep_class(p, p.tensor(cw1, cw2), parity, kr, plain,
                                   (-1) ** count)
        # a.p.r(x) . y = p . r(c(a) . x . c(y)), with the slot term in
        # front: y . t = (-1)^(|y| |t|) t . y
        own, other, sign = t1, t2, 1
        if s1 is None:
            own, other = t2, t1
            sign = (-1) ** (self.degree(p, t1) * self.degree(p, t2) % 2)
        cw, cls, plain, slot = own
        x, xsign = p._slot_to_bz(slot)
        arg = p._bz_mul_dicts(p._c_image((cw, cls, (), None)), {x: xsign})
        arg = p._bz_mul_dicts(arg, p._c_image(other))
        out = {}
        self._add_times_plain(p, out, plain, p._realify(arg), sign)
        return out

    def derivation(self, p, expansion, cof, i):
        """f^cof . df_i: the class of the cofactor (real or quaternionic by
        the parity of its H-type exponents) times dR or dH[f_i]."""
        gen_of = [p._gen_by_factor.get(fi) for fi in p._fund_factor]
        if gen_of[i] is None or any(a and g is None
                                    for a, g in zip(cof, gen_of)):
            raise PresentationError(
                "the KR derivation takes exponents on R/H fundamentals only")
        parity = sum(a for a, g in zip(cof, gen_of)
                     if a and p.gens[g].kind == "dH") % 2
        return self._rep_class(p, expansion, parity, KRCoeff.basis("1"),
                               (gen_of[i],))

    def _rep_class(self, p, decomp, parity, kr, plain, coeff=1):
        """coeff . kr times the class of a real (parity 0) or quaternionic
        (parity 1) representation, given as highest weight ->
        multiplicity, times the plain monomial ``plain``.

        R/H constituents are assembly atoms; a complex pair rho +
        sigmabar*rho of multiplicity m is m . r(beta^(2 . parity) rho),
        and kr . r(y) = r(c(kr) . y).
        """
        out, pairs, pair_mults = {}, {}, {}
        for nu_w, m in decomp.items():
            t = p.classify(nu_w).type
            if t == TYPE_C:
                rep = p.pair_rep(nu_w)
                slot = pair_mults.setdefault(rep, [0, 0])
                slot[0 if nu_w == rep else 1] += m
                continue
            if (t == TYPE_H) == (parity == 1):
                base, mult = "1", m
            else:
                if m % 2:
                    raise PresentationError(
                        f"odd multiplicity {m} of {t}-type {nu_w} in a "
                        f"parity-{parity} class: type bookkeeping violated")
                base, mult = "mu", m // 2
            for name, val in (KRCoeff.basis(base) * kr).as_dict().items():
                if val:
                    out[nu_w, name, plain, None] = coeff * mult * val
        ck = c_coeff(kr).c
        for rep, (ma, mb) in pair_mults.items():
            if ma != mb:
                raise PresentationError(f"unbalanced complex pair {rep}")
            for i, a in enumerate(ck):
                if a:
                    pairs[(rep, (2 * parity + i) % 4, ())] = ma * a
        self._add_times_plain(p, out, plain, p._realify(pairs), coeff)
        return out

    def _add_times_plain(self, p, out, plain, terms, coeff):
        """Accumulate coeff . plain . t into out for each KR term t."""
        for (tw, tcls, tplain, tslot), c in terms.items():
            merged = koszul_sort(plain + tplain, p._gen_parity)
            if merged is None:
                continue
            nplain, count = merged
            if self._lam_kills(p, nplain, tslot):
                continue
            key = (tw, tcls, nplain, tslot)
            out[key] = out.get(key, 0) + coeff * c * (-1) ** count

    def _lam_kills(self, p, plain, slot):
        """lam_k in the plain monomial times a slot using pair k vanishes."""
        if slot is None:
            return False
        used = set(slot[2]) | set(slot[3])
        return any(p.gens[gi].pair in used for gi in plain)

    def poincare(self, p, bound):
        table = _degree_table()
        reals, quats, pairs = classified_irreps(p, bound)
        t = p.split.t
        trivial_rho = [p.rclass_element(idx) for idx in rclass_indices(t)
                       if idx.factor_count]
        pieces = []  # (number of irreducibles of the kind, basis factors)
        for classes in (reals, quats):
            if classes:
                w = max(cls.weight for cls in classes)
                pieces.append((len(classes),
                               [p.class_element(w, name) for name in KR_BASIS]
                               + [r * p.class_element(w) for r in trivial_rho]))
        if pairs:
            cls = pairs[0]
            pieces.append((len(pairs), [p.rclass_element(idx)
                                        for rho in (cls.weight, cls.twisted_dual)
                                        for idx in rclass_indices(t, rho)]))
        monomials = plain_monomial_elements(p)
        for count, factors in pieces:
            terms = set()
            for m in monomials:
                for f in factors:
                    terms.update((m * f).terms)
            for term in terms:
                table[self.degree(p, term)][int(term[1] in KR_TORSION)] += count
        return table


ASSEMBLY_RING = AssemblyRing()


class Presentation:
    """A built presentation: the factor table, its generators and the
    coefficient ``ring``.

    The factor table ``factors`` lists one (role, weight, pair) per
    fundamental: role phi/theta for an R/H fundamental, u/v for the
    representative and the twisted dual of complex pair ``pair``.  It is
    the one catalog: the ring reads the generators off it, and
    realification and complexification, the changes of ring between the
    assembly and R(G), read it.  Every sign from reordering odd factors
    comes from ``koszul_sort``, every product of terms from the one entry
    ``_mul_unit``.  Immutable once built, apart from seven memo tables
    that fill as it is used (at unit coefficient; entries are shared, so
    read only).  A mutant or a copy over another ring is a new
    presentation, built from the same factor table, with empty tables.
    """

    def __init__(self, rd: RootData, inv, split, ring, factors):
        self.rd, self.inv, self.split, self.ring = rd, inv, split, ring
        self.factors = tuple(factors)   # (role, weight, pair) in order
        self.zero_weight = rd.zero()
        self.omega_form = ring.omega_form(split)
        self._classify_cache, self._tensor_cache, self._weight_tau = {}, {}, {}
        self._mul_table, self._realify_table, self._c_table = {}, {}, {}
        self._derivation_table = {}
        self.gens = tuple(ring.generators(self.factors))
        factor_of = {w: fi for fi, (_, w, _) in enumerate(self.factors)}
        self._pair_factors = {(pair, role): fi for fi, (role, _, pair)
                              in enumerate(self.factors) if role in ("u", "v")}
        # an odd generator is the differential of its factor; lam[k] is even
        self._gen_by_factor = {factor_of[g.payload]: g.index
                               for g in self.gens if g.parity}
        self._lam_gen = {g.pair: g.index for g in self.gens if not g.parity}
        self._gen_parity = tuple(g.parity for g in self.gens).__getitem__
        self._factor_by_gen = {gi: fi for fi, gi in self._gen_by_factor.items()}
        # tau on factors: dG[f] -> -dG[f*]; None where f* is no factor
        # (U(n) under the trivial involution), an error only once it is used
        self._factor_tau = tuple(factor_of.get(self._tau_weight(w))
                                 for _, w, _ in self.factors)
        # the factor of each fundamental, in rd.fundamental_weights() order
        self._fund_factor = tuple(factor_of.get(w)
                                  for w in rd.fundamental_weights())

    def _check_same(self, other):
        if not isinstance(other, RingElement) or other.p is not self:
            raise PresentationError("operands belong to different presentations")

    def _real(self, real, message):
        """Refuse a KR-only (``real``) or K-theory-only operation elsewhere."""
        if (self.ring.complexification is None) == real:
            raise PresentationError(message)

    def _element(self, terms):
        return RingElement(self, terms)

    def zero(self):
        return RingElement(self, {})

    def classify(self, w):
        w = tuple(w)
        cached = self._classify_cache.get(w)
        if cached is None:
            cached = self._classify_cache[w] = classify_type(self.rd, self.inv, w)
        return cached

    def _h_type(self, cw):
        """Whether the coefficient atom V_cw is of H type."""
        return cw != self.zero_weight and self.classify(cw).type == TYPE_H

    def _tau_factor(self, fi):
        """Index of the factor f* with tau(dG[f]) = -dG[f*]."""
        fs = self._factor_tau[fi]
        if fs is None:
            w = self.factors[fi][1]
            raise PresentationError(
                f"twisted dual {self._tau_weight(w)} of "
                f"fundamental {w} is not fundamental")
        return fs

    def pair_rep(self, w):
        cls = self.classify(w)
        return min(cls.weight, cls.twisted_dual)

    def tensor(self, a, b):
        key = (a, b) if a <= b else (b, a)
        out = self._tensor_cache.get(key)
        if out is None:
            out = self._tensor_cache[key] = tensor_decompose(self.rd, key[0], key[1])
        return out

    def term_degree(self, t):
        return self.ring.degree(self, t)

    def term_label(self, t):
        return self.ring.label(self, t)

    # -- element constructors ----------------------------------------------------
    def one(self):
        return self._element({self.ring.monomial(self, ()): 1})

    def gen_element(self, g):
        if isinstance(g, Generator):
            g = g.index
        return self._element({self.ring.monomial(self, (g,)): 1})

    def scalar(self, kr: KRCoeff):
        self._real(True, "KR scalars only live in KR presentations")
        return self._element({(self.zero_weight, name, (), None): val
                              for name, val in kr.as_dict().items()})

    def class_element(self, w, cls="1"):
        """The coefficient class of a self-twisted-dual (R or H type) weight."""
        self._real(True, "coefficient classes live in KR presentations")
        w = tuple(w)
        if self.classify(w).type == TYPE_C:
            raise PresentationError(
                f"{w} is complex type; use rclass_element for realifications")
        return self._element({(w, cls, (), None): 1})

    def dg_element(self, fi, j=0, w=None):
        """beta^j . V_w . dG[factor fi] in a K-theory presentation."""
        self._real(False, "dg_element lives in BZ presentations")
        w = self.zero_weight if w is None else tuple(w)
        return self._element({(w, j % 4, (fi,)): 1})

    def bz_weight(self, w, j=0):
        self._real(False, "bz_weight lives in BZ presentations")
        return self._element({(tuple(w), j % 4, ()): 1})

    def rclass_element(self, idx: RClassIndex):
        """The realified class r_{rho, i, eps, nu} in normal form."""
        self._real(True, "realified classes live in KR presentations")
        t = self.split.t
        if len(idx.eps) != t:
            raise PresentationError(f"eps/nu must have length t={t}")
        w = self.zero_weight if idx.rho is None else tuple(idx.rho)
        if w != self.zero_weight and self.classify(w).type != TYPE_C:
            raise PresentationError(
                f"rho weight {w} must be trivial or complex type")
        eps = tuple(k for k, e in enumerate(idx.eps) if e)
        nu = tuple(k for k, n in enumerate(idx.nu) if n)
        term, sign = self._slot_to_bz((w, idx.i, eps, nu))
        return self._element(self._realify({term: sign}))

    def _pair_factor(self, k, role):
        fi = self._pair_factors.get((k, role))
        if fi is None:
            raise PresentationError(f"no factor for pair {k} role {role}")
        return fi

    # -- R(G) terms under tau ------------------------------------------------------
    def _bz_mul_dicts(self, a, b):
        """Product of two dicts of R(G) terms, the ring c maps into."""
        mul = self.ring.complexification.mul_unit
        out = {}
        for t1, c1 in a.items():
            for t2, c2 in b.items():
                c12 = c1 * c2
                for t, c in mul(self, t1, t2).items():
                    out[t] = out.get(t, 0) + c12 * c
        return {t: c for t, c in out.items() if c}

    def _tau_weight(self, w):
        """Twisted dual of a weight, computed once per weight."""
        ws = self._weight_tau.get(w)
        if ws is None:
            ws = self._weight_tau[w] = self.inv.twisted_dual_weight(w)
        return ws

    def _tau_bz_term(self, w, j, bits):
        """tau-image of one BZ term; returns (w*, bits*, sign)."""
        mapped, count = koszul_sort([self._tau_factor(b) for b in bits])
        return self._tau_weight(w), mapped, (-1) ** (j % 2 + len(bits) + count)

    def _tau_bz(self, terms):
        out = {}
        for (w, j, bits), c in terms.items():
            ws, mapped, sign = self._tau_bz_term(w, j, bits)
            key = (ws, j, mapped)
            out[key] = out.get(key, 0) + c * sign
        return out

    # -- realification ----------------------------------------------------------
    def _realify_term(self, w, j, bits, coeff, allow_flip=True):
        """Normal-form KR terms of coeff . r(beta^j . V_w . dG-monomial).

        Realification is linear and the mod-2 reduction of torsion atoms
        happens later, when the element is built, so the unit result is
        computed once per (w, j, bits, allow_flip) and scaled here.
        """
        key = (w, j, bits, allow_flip)
        unit = self._realify_table.get(key)
        if unit is None:
            unit = self._realify_table[key] = self._realify_unit(w, j, bits,
                                                                 allow_flip)
        return [(t, coeff * c) for t, c in unit]

    def _realify_unit(self, w, j, bits, allow_flip):
        """Normal-form KR terms of r(beta^j . V_w . dG-monomial).

        Projection-formula identities drive the reduction: R/H-type
        delta factors pull out as plain generators, full gamma pairs
        pull out as lam generators, an R/H weight pulls out as a
        coefficient atom, and tau-redundant slots flip once.
        """
        if any(bits[i] >= bits[i + 1] for i in range(len(bits) - 1)):
            raise PresentationError("realification needs sorted delta factors")
        # one pass: the factor table lists phi/theta first and each u just
        # before its v, so plain, eps and nu come out sorted
        plain, eps, nu = [], [], []
        sign, i = 1, j
        for pos, fi in enumerate(bits):
            role, _, k = self.factors[fi]
            if role in ("phi", "theta"):
                # dG[f] = beta^{-1} c(dF[f])
                plain.append(self._gen_by_factor[fi])
                i -= 1
            elif role == "u" and pos + 1 < len(bits) and bits[pos + 1] == fi + 1:
                # dG[gamma_k] dG[sigmabar gamma_k] = -beta c(lam_k); the
                # adjacent pair crosses an even number of odd factors
                plain.append(self._lam_gen[k])
                sign = -sign
                i += 1
            elif role == "u":
                eps.append(k)
            elif not pos or bits[pos - 1] != fi - 1:  # a v not taken by lam
                nu.append(k)
        plain, eps, nu = tuple(plain), tuple(eps), tuple(nu)

        rho = None
        cw = self.zero_weight
        if w != self.zero_weight:
            wtype = self.classify(w).type
            if wtype == TYPE_C:
                rho = w
            else:
                cw = w
                if wtype == TYPE_H:
                    i += 2

        if rho is not None:
            needs_flip = rho != self.pair_rep(rho)
        else:
            needs_flip = nu and (not eps or nu[0] < eps[0])
        if needs_flip:
            if not allow_flip:
                raise PresentationError("realified class failed to canonicalize")
            ws, mapped, tsign = self._tau_bz_term(w, j, bits)
            return self._realify_term(ws, j, mapped, tsign, allow_flip=False)

        if rho is None and not eps and not nu:
            return [((cw, name, plain, None), sign * val)
                    for name, val in r_pattern(i).as_dict().items() if val]
        # the lam factors took whole pairs out of the strictly increasing
        # bits, so the slot uses none of their pairs: no lam kill here
        slot = (rho, i % 4, eps, nu)
        # the leftover factors are the slot's, sorted: r(them) = s . r(slot)
        _, slot_sign = self._slot_to_bz(slot)
        return [((cw, "1", plain, slot), sign * slot_sign)]

    def realify_bz(self, e: RingElement) -> RingElement:
        """Realification of a K-theory element (from the complexify target).

        The argument must live in a BZ presentation sharing this
        presentation's fundamental catalog.
        """
        self._real(True, "realify_bz lands in a KR presentation")
        if e.p.factors != self.factors:
            raise PresentationError("K-theory element has a different catalog")
        return self._element(self._realify(e.terms))

    def _realify(self, terms):
        """Realification of a BZ term dict, as KR terms (unreduced)."""
        out = {}
        for (w, j, bits), c in terms.items():
            for term, cc in self._realify_term(w, j, bits, c):
                out[term] = out.get(term, 0) + cc
        return out

    def _slot_to_bz(self, slot):
        """A BZ term whose realification is exactly the slot class.

        The slot (rho, i, eps, nu) is r(beta^i . rho . u block . v
        block): dG[gamma_k] for k in eps, then dG[abar gamma_k] =
        -dG[sigmabar gamma_k] for k in nu.  Returns the term with its
        delta factors sorted and the sign s with r(slot) = s . r(term).
        """
        rho, i, eps, nu = slot
        bits, count = koszul_sort([self._pair_factor(k, "u") for k in eps]
                                  + [self._pair_factor(k, "v") for k in nu])
        w = self.zero_weight if rho is None else rho
        return (w, i, bits), (-1) ** (len(nu) + count)

    def _c_image(self, term):
        """Complexification of one KR term, as a BZ term dict over this
        presentation's catalog, computed once per term.  The returned
        dict is the table entry itself: read only."""
        image = self._c_table.get(term)
        if image is None:
            image = self._c_table[term] = self._c_unit(term)
        return image

    def _c_unit(self, term):
        """V_cw . c(cls), beta^2 more on an H-type weight, times beta
        dG[f] for dR/dH[f], -beta^3 dG[gamma_k] dG[sigmabar gamma_k] for
        lam_k, and x + tau x for the slot r(x)."""
        cw, cls, plain, rslot = term
        shift = 2 if self._h_type(cw) else 0
        out = {(cw, (i + shift) % 4, ()): a
               for i, a in enumerate(c_coeff(KRCoeff.basis(cls)).c) if a}
        for gi in plain:
            g = self.gens[gi]
            if g.kind == "lam":
                pair = (self._pair_factor(g.pair, "u"),
                        self._pair_factor(g.pair, "v"))
                image = {(self.zero_weight, 3, pair): -1}
            else:
                image = {(self.zero_weight, 1, (self._factor_by_gen[gi],)): 1}
            out = self._bz_mul_dicts(out, image)
        if rslot is not None:
            x, sign = self._slot_to_bz(rslot)
            image = {x: sign}
            for t, c in self._tau_bz(image).items():
                image[t] = image.get(t, 0) + c
            out = self._bz_mul_dicts(out, image)
        return out

    # -- multiplication and the derivation -------------------------------------------
    def _mul_unit(self, t1, t2):
        """Product of two terms at unit coefficient, the ring's."""
        return self.ring.mul_unit(self, t1, t2)

    def _mul_elements(self, a, b):
        """Bilinear, through _mul_table: each ordered pair of terms is
        multiplied once, at unit coefficient (torsion is reduced later)."""
        table = self._mul_table
        unit_mul = self._mul_unit
        out = {}
        for t1, c1 in a.terms.items():
            for t2, c2 in b.terms.items():
                unit = table.get((t1, t2))
                if unit is None:
                    unit = table[t1, t2] = unit_mul(t1, t2)
                c12 = c1 * c2
                for t, c in unit.items():
                    out[t] = out.get(t, 0) + c12 * c
        return RingElement(self, out)

    def _derivative(self, exp):
        """d(f^exp) = sum_i exp_i f^(exp - e_i) . df_i, at unit coefficient,
        each cofactor expanded into irreducibles and typed by the ring."""
        out = {}
        for i, a in enumerate(exp):
            if a:
                cof = exp[:i] + (a - 1,) + exp[i + 1:]
                expansion = _expand_monomial_cached(self.rd, cof)
                for t, m in self.ring.derivation(self, expansion, cof, i).items():
                    out[t] = out.get(t, 0) + a * m
        return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_bz_presentation(rd: RootData) -> Presentation:
    """K*_G(G) as an exterior algebra over R(G), or K*(G) when augmented.

    One odd generator dG[f] per fundamental representation; squares
    are zero and coefficients multiply by exact tensor decomposition.
    The involution is the trivial one; under another involution the
    ring is ``complexify(p).target`` on the KR factor table of p.
    """
    return Presentation(rd, Involution(rd, "trivial"), None, REP_RING,
                        [("phi", w, -1) for w in rd.fundamental_weights()])


def augment_bz(p: Presentation) -> Presentation:
    """The K*(G) variant: the same factor table over Z, through the rank."""
    return Presentation(p.rd, p.inv, None, RANK_RING, p.factors)


def augment_element(p_k: Presentation, e: RingElement) -> RingElement:
    """The image of a K*_G(G) element in K*(G): each weight its rank."""
    return p_k._element(e.terms)


def build_kr_presentation(rd: RootData, inv: Involution) -> Presentation:
    """KR*_G(G^-) with the full relation table installed.

    The factor table lists the R fundamentals (phi), the H fundamentals
    (theta), then each complex pair as u and v; the generators follow
    from it: dR[phi_i] (degree 1), dH[theta_j] (degree -3), lam[k]
    (degree 0), plus the constrained family of realified classes
    handled as r-slots.  When t = 0 the presentation is in Omega form.
    """
    split = split_fundamentals(rd, inv)
    factors = ([("phi", w, -1) for w in split.real]
               + [("theta", w, -1) for w in split.quat]
               + [(role, w, k) for k, pair in enumerate(split.pairs)
                  for role, w in zip("uv", pair)])
    return Presentation(rd, inv, split, ASSEMBLY_RING, factors)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

class RClassSquareResult(Record):
    """The square ``element`` of a realified generator; ``case`` is
    "zero" | "eta2" | "mu" | "two", ``sign`` the +-1 of the mu/two cases
    (None otherwise), ``transpositions`` the delta-factor sorting count
    in r(x . tau x), and ``probe`` the predicted (term, coefficient) of
    the trivial-weight lam-monomial term of the square: eta^2 with 1, mu
    with ``sign``, 1 with 2 . ``sign``; None in the zero case, where the
    whole square vanishes."""

    __slots__ = ("element", "case", "sign", "transpositions", "probe")

    def __init__(self, element, case, sign, transpositions, probe):
        self._init(element, case, sign, transpositions, probe)


# the case of a realified square by the degree of the class mod 8
_SQUARE_CASE = {-1: "eta2", -5: "eta2", -2: "mu", -6: "mu",
               0: "two", -4: "two", -3: "zero", 1: "zero"}


def rclass_square(p: Presentation, idx: RClassIndex) -> RClassSquareResult:
    """Square of a realified generator, with the computed sign emitted.

    The square expands through r(x)^2 = r(x^2 + x.tau(x)); with at
    least one delta factor x^2 = 0, and sorting the delta factors of
    x.tau(x) into adjacent gamma pairs costs the emitted transposition
    count, leaving +-prod(lam_k) . r(beta^J . rho sigmabar*rho) with
    J = 2i - 3m.  The Bott pattern of J settles the case by the degree
    of the class mod 8 (_SQUARE_CASE): eta^2.(rho sigmabar*rho).prod lam
    in degrees -1/-5, +-mu.(...) in degrees -2/-6 with sign (-1)^(i +
    transpositions), 0 in degrees -3/1, and +-2.(...) in degrees
    0/-4.  (The last case refines the blanket "otherwise zero" of the
    source relation table, whose complexification is 2 x.tau(x) and
    provably nonzero there.)  The square is computed by the engine and
    the prediction is returned beside it, not checked here.
    """
    if idx.factor_count == 0:
        raise PresentationError(
            "rclass_square needs at least one delta factor; a bare "
            "realification is coefficient-ring arithmetic (use a * b)")
    e = p.rclass_element(idx)
    sq = e * e

    s_idx = [k for k, b in enumerate(idx.eps) if b]
    n_idx = [k for k, b in enumerate(idx.nu) if b]
    seq = ([("u", k) for k in s_idx] + [("v", k) for k in n_idx]
           + [("v", k) for k in s_idx] + [("u", k) for k in n_idx])
    rank = {}
    for k in sorted(s_idx + n_idx):
        rank[("u", k)] = len(rank)
        rank[("v", k)] = len(rank)
    _, transpositions = koszul_sort([rank[x] for x in seq])

    case = _SQUARE_CASE[idx.degree()]
    s = (-1) ** (idx.i + transpositions)
    cls, coeff, sign = {"zero": (None, 0, None), "eta2": ("eta2", 1, None),
                        "mu": ("mu", s, s), "two": ("1", 2 * s, s)}[case]
    probe = None
    if case != "zero":
        # rho (x) sigmabar*rho contains the trivial representation once
        lam_plain = tuple(sorted(p._lam_gen[k] for k in s_idx + n_idx))
        probe = ((p.zero_weight, cls, lam_plain, None), coeff)
    return RClassSquareResult(sq, case, sign, transpositions, probe)


def delta_lift(p: Presentation, poly) -> RingElement:
    """Extend the derivation to a polynomial in the fundamentals.

    ``poly`` maps exponent tuples, one slot per fundamental in
    ``p.rd.fundamental_weights()`` order on every ring, to integer
    coefficients.  A negative exponent needs an invertible, that is
    one-dimensional, fundamental (a U(n) determinant); in a KR
    presentation every nonzero exponent must sit on an R/H fundamental.
    Leibniz gives d(prod f^a) = sum_i a_i f^{a-e_i} df_i, each cofactor
    expanded exactly into the weight basis; the derivative of each
    monomial is computed once per presentation.
    """
    n = len(p._fund_factor)
    if any(len(exp) != n for exp in poly):
        raise PresentationError(
            f"exponent tuples must have one slot per fundamental ({n})")
    table = p._derivation_table
    out = {}
    for exp, c in poly.items():
        if c == 0:
            continue
        d = table.get(exp)
        if d is None:
            d = table[exp] = p._derivative(exp)
        for t, m in d.items():
            out[t] = out.get(t, 0) + c * m
    return p._element(out)


def as_fundamental_polynomial(rd: RootData, lam) -> dict:
    """Express the class of V_lam as a polynomial in the fundamentals.

    Returns a map exponent-tuple -> integer over the presentation's
    fundamental catalog (Laurent in the U(n) determinant slots).  The
    recursion peels the natural monomial and subtracts the lower
    constituents; R(G) is a free polynomial ring on the fundamentals
    (with the determinants inverted), so the expression is unique.

    R(G1 x G2) is R(G1) (x) R(G2), so a product multiplies its factors'
    polynomials, each from the cached ``groups._as_fund_poly_cached``:
    exponents concatenate and coefficients multiply.  The product itself
    is not cached; the caller owns the returned map.
    """
    return rd.combine([dict(_as_fund_poly_cached(f, part))
                       for f, part in zip(rd.factors, rd.split(lam))])


def complexify(p: Presentation):
    """The complexification map into the Brylinski-Zhang presentation
    on the same fundamental catalog; each term maps through
    Presentation._c_image."""
    p._real(True, "complexify maps a KR presentation")
    return ComplexificationMap(p, Presentation(p.rd, p.inv, None,
                                               p.ring.complexification, p.factors))


class ComplexificationMap:
    def __init__(self, source: Presentation, target: Presentation):
        self.source = source
        self.target = target

    def __call__(self, e: RingElement) -> RingElement:
        p = self.source
        p._check_same(e)
        out = {}
        for t, c in e.terms.items():
            for t2, c2 in p._c_image(t).items():
                out[t2] = out.get(t2, 0) + c * c2
        return self.target._element(out)


# ---------------------------------------------------------------------------
# module tables
# ---------------------------------------------------------------------------

def classified_irreps(p: Presentation, bound: int):
    """(R-classes, H-classes, pair-classes) of all irreps of dim <= bound."""
    reals, quats, pairs = [], [], []
    seen_pairs = set()
    for w in dominant_weights_up_to_dim(p.rd, bound):
        cls = p.classify(w)
        if cls.type == TYPE_R:
            reals.append(cls)
        elif cls.type == TYPE_H:
            quats.append(cls)
        else:
            rep = min(w, cls.twisted_dual)
            if rep not in seen_pairs:
                seen_pairs.add(rep)
                pairs.append(p.classify(rep))
    return reals, quats, pairs


def plain_monomials(p: Presentation):
    """Every square-free generator product, as a sorted index tuple
    (the empty product first, then by size)."""
    n = len(p.gens)
    return [bits for k in range(n + 1)
            for bits in itertools.combinations(range(n), k)]


def plain_monomial_elements(p: Presentation):
    """The plain monomials as ring elements, each a product of its
    generators through the engine, in plain_monomials order."""
    out = []
    for bits in plain_monomials(p):
        m = p.one()
        for g in bits:
            m = m * p.gen_element(g)
        out.append(m)
    return out


def rclass_indices(t: int, rho=None):
    """Every valid realified-class index over t complex pairs with the
    given rho and Bott exponent 0..3, the bare r(beta^i rho) included."""
    out = []
    for i in range(4):
        for eps in itertools.product((0, 1), repeat=t):
            for nu in itertools.product((0, 1), repeat=t):
                try:
                    out.append(RClassIndex(rho, i, eps, nu))
                except ValueError:
                    continue
    return out


def poincare_table(p: Presentation, bound: int = 50):
    """Per-degree (free rank, 2-torsion count) of the normal-form basis.

    Truncated to irreducibles of dimension <= bound; the ring counts it.
    Over R(G) and Z the table counts exterior monomials (times the four
    beta-classes), has no torsion and does not depend on the bound.  Over
    the assembly the engine builds the basis itself: one representative
    irreducible per kind (a non-trivial one where there is one; both
    members of a complex pair) times the coefficient classes, the
    trivial-rho realified classes and the pair realified classes, each
    multiplied by every plain monomial.  The distinct normal-form terms
    are counted by degree and by the torsion of their coefficient class,
    and scaled by the number of irreducibles of that kind.
    """
    return {d: tuple(v) for d, v in p.ring.poincare(p, bound).items()}


def noneq_table(p: Presentation):
    """Module table of KR*(G^-) as the structure theorem states it.

    Representation content is forgotten: every plain monomial carries
    the KO pattern of KR*(pt), and every trivial-rho realified slot not
    killed by a lam factor of the monomial carries a free Z.
    """
    table = _degree_table()
    slots = [idx for idx in rclass_indices(p.split.t) if idx.factor_count]
    for bits in plain_monomials(p):
        d = sum(p.gens[g].degree for g in bits)
        lams = {p.gens[g].pair for g in bits if p.gens[g].kind == "lam"}
        for name, off in KR_DEGREE.items():
            table[canon_degree(d + off)][int(name in KR_TORSION)] += 1
        for idx in slots:
            if not any(idx.eps[k] or idx.nu[k] for k in lams):
                table[canon_degree(d + idx.degree())][0] += 1
    return {d: tuple(v) for d, v in table.items()}
