"""Generators-and-relations presentations of KR*_G(G^-) and K*_G(G).

Two presentation kinds share one element wrapper:

  * kind "BZ": K*_G(G) as the exterior algebra over R(G) (tensored
    with Z[beta]/(beta^4-1)) on one odd generator dG[f] per fundamental
    representation f; kind "K" is its augmentation to K*(G).

  * kind "KR": KR*_G(G^-).  A normal-form term is

        coeff . (weight, class) . plain-monomial . r-slot

    where (weight, class) is an atom of the equivariant coefficient
    assembly (weight self-twisted-dual, class one of 1, eta, eta^2,
    mu), the plain monomial is a square-free product of the generators
    dR[phi] (degree 1), dH[theta] (degree -3), lam[k] (degree 0), and
    the r-slot is a realified class

        r( beta^i . rho . prod dG[gamma_k]^eps_k . prod dG[abar gamma_k]^nu_k )

    with rho trivial or the lexicographically smaller member of a
    complex pair, i mod 4 (periodicity), eps_k nu_k never both set,
    and the redundancy r(x) = r(tau x) canonicalized.  tau is the
    twisted conjugation: beta -> -beta, weights -> twisted dual,
    dG[f] -> -dG[f*].

    The complexification c of a term has one routine,
    Presentation._c_image, and the product of two terms has two cases:
    without an r-slot it is type bookkeeping on the coefficient atoms;
    with one it is the projection formula r(x) . y = r(x . c(y)),
    which realizes the whole relation table: generator squares vanish,
    eta kills realified classes, mu doubles them and shifts i by 2,
    realified squares reduce by degree mod 8 to eta^2/mu/zero/two
    multiples of realified rho sigmabar*rho times lam monomials, and
    graded commutativity holds with computed signs.
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
    FundamentalSplit,
    Involution,
    classify_type,
    split_fundamentals,
    twisted_dual,
)


class PresentationError(InvariantError):
    """Internal invariant violation in the presentation engine."""


def canon_degree(d: int) -> int:
    """Degree representative in the canonical set {1, 0, -1, ..., -6}."""
    d %= 8
    return d if d <= 1 else d - 8


GEN_DEGREE = {"dR": 1, "dH": -3, "lam": 0, "dG": -1}
GEN_PARITY = {"dR": 1, "dH": 1, "lam": 0, "dG": 1}


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
        w = ",".join(str(x) for x in self.payload)
        if self.kind == "lam":
            return f"lam[{self.pair + 1}]"
        return f"{self.kind}[{w}]"


class RClassIndex(FrozenRecord):
    """Index of a realified generator r_{rho, i, eps, nu}.

    rho: None for the trivial representation, a complex-type dominant
    weight, or a dict weight -> int for a virtual one; i: Bott
    exponent >= 0 (periodicity identifies i with i+4); eps/nu: 0/1
    tuples with eps_k nu_k never both 1 and the first eps index
    preceding the first nu index.
    """

    __slots__ = ("rho", "i", "eps", "nu")

    def __init__(self, rho, i, eps, nu):
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
        self._init(rho, i, eps, nu)

    @property
    def factor_count(self):
        return sum(self.eps) + sum(self.nu)

    def degree(self):
        return canon_degree(-(2 * self.i + self.factor_count))

    def shifted(self, di):
        return RClassIndex(self.rho, self.i + di, self.eps, self.nu)


class RingElement:
    """A finite sum of (coefficient, normal-form term) pairs, normalised
    on construction (Presentation._normalize_terms)."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        self.p = p
        self.terms = p._normalize_terms(terms)

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
        """The sorted degrees of the terms of a KR element."""
        return sorted({self.p.term_degree(t) for t in self.terms})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for t, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{c}*{self.p.term_label(t)}")
        return " + ".join(bits)


def _merge_graded(a, b, parity):
    """Koszul-signed merge of sorted index tuples; None on collision."""
    out = []
    sign = 1
    i = j = 0
    rem_odd = sum(parity(x) for x in a)
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            rem_odd -= parity(a[i])
            out.append(a[i])
            i += 1
        else:
            if parity(b[j]) and rem_odd % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _inversions(seq):
    """Number of pairs i < j with seq[i] > seq[j]: the transpositions
    that sort seq."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


class Presentation:
    """A built presentation: generators, relation table, coefficient tag.

    Term tuples:  KR: (cw, cls, plain, rslot) with rslot = None or
    (rho, i, eps, nu);  BZ/K: (w, j, bits).  Immutable once built, apart
    from memo tables that fill as it is used; the element operations are
    pure.  ``_c_image`` is the one complexification of a KR term,
    ``_realify`` the one realification of a BZ term dict, and
    ``_mul_kr_unit`` multiplies two KR terms in two cases: no r-slot
    (type bookkeeping) or a slot (the projection formula).  Each
    presentation memoises its own term arithmetic at unit coefficient:
    ``_mul_table`` maps an ordered pair of terms of the presentation's
    own kind (KR, or BZ/K) to their product, ``_realify_table`` maps
    (w, j, bits, allow_flip) to the realification of that BZ term and
    ``_c_table`` maps a KR term to its complexification; ``_weight_tau``
    maps a weight to its twisted dual; ``_derivation_table`` maps
    (cofactor exponents, i) to the terms of f^cofactor . df_i.  Table
    entries are shared, so read only.  A mutant or an augmented copy is
    a new presentation and starts with empty tables.
    """

    def __init__(self, rd: RootData, inv, split, kind: str, factors, gens):
        self.rd = rd
        self.inv = inv
        self.split = split
        self.kind = kind  # "KR" | "BZ" | "K"
        self.factors = tuple(factors)   # (role, weight, pair) in order
        self.gens = tuple(gens)
        self.zero_weight = rd.zero()
        self._classify_cache = {}
        self._tensor_cache = {}
        self._mul_table = {}
        self._realify_table = {}
        self._c_table = {}
        self._weight_tau = {}
        self._derivation_table = {}
        self._lam_gen = {g.pair: g.index for g in self.gens if g.kind == "lam"}
        self._lam_pair = {g.index: g.pair for g in self.gens if g.kind == "lam"}
        gen_of_weight = {g.payload: g.index for g in self.gens
                         if g.kind in ("dR", "dH")}
        self._gen_by_factor = {fi: gen_of_weight[w]
                               for fi, (_, w, _) in enumerate(self.factors)
                               if w in gen_of_weight}
        self._factor_by_gen = {gi: fi for fi, gi in self._gen_by_factor.items()}
        self._pair_factors = {(pair, role): fi
                              for fi, (role, _, pair) in enumerate(self.factors)
                              if role in ("u", "v")}
        # tau on factors: dG[f] -> -dG[f*]; None where f* is no factor
        # (U(n) under the trivial involution), an error only once it is used
        factor_of = {w: fi for fi, (_, w, _) in enumerate(self.factors)}
        self._factor_tau = tuple(factor_of.get(self._tau_weight(w))
                                 for _, w, _ in self.factors)
        # the factor of each fundamental, in rd.fundamental_weights() order
        self._fund_factor = tuple(factor_of.get(w)
                                  for w in rd.fundamental_weights())

    @property
    def omega_form(self):
        return self.kind == "KR" and self.split is not None and self.split.t == 0

    @property
    def coefficient_tag(self):
        return {"KR": "KRG-assembly", "BZ": "R(G)", "K": "Z"}[self.kind]

    def _check_same(self, other):
        if not isinstance(other, RingElement) or other.p is not self:
            raise PresentationError("operands belong to different presentations")

    def _element(self, terms):
        return RingElement(self, terms)

    def zero(self):
        return RingElement(self, {})

    def classify(self, w):
        w = tuple(w)
        cached = self._classify_cache.get(w)
        if cached is None:
            cached = classify_type(self.rd, self.inv, w)
            self._classify_cache[w] = cached
        return cached

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
            out = tensor_decompose(self.rd, key[0], key[1])
            self._tensor_cache[key] = out
        return out

    # -- degrees ---------------------------------------------------------------
    def term_degree(self, t):
        """Degree of a KR term."""
        cw, cls, plain, rslot = t
        d = KR_DEGREE[cls]
        if cw != self.zero_weight and self.classify(cw).type == TYPE_H:
            d -= 4
        for gi in plain:
            d += self.gens[gi].degree
        if rslot is not None:
            _, i, eps, nu = rslot
            d -= 2 * i + len(eps) + len(nu)
        return canon_degree(d)

    def term_label(self, t):
        if self.kind in ("BZ", "K"):
            w, j, bits = t
            parts = []
            if any(w):
                parts.append("V[" + ",".join(map(str, w)) + "]")
            if j:
                parts.append(f"b^{j}")
            parts.extend(f"dG[{','.join(map(str, self.factors[b][1]))}]"
                         for b in bits)
            return ".".join(parts) or "1"
        cw, cls, plain, rslot = t
        parts = []
        if any(cw):
            parts.append("V[" + ",".join(map(str, cw)) + "]")
        if cls != "1":
            parts.append(cls)
        parts.extend(self.gens[gi].label() for gi in plain)
        if rslot is not None:
            rho, i, eps, nu = rslot
            rr = "1" if rho is None else ",".join(map(str, rho))
            parts.append(f"r[{rr};{i};{','.join(map(str, eps)) or '-'};"
                         f"{','.join(map(str, nu)) or '-'}]")
        return ".".join(parts) or "1"

    # -- element constructors ----------------------------------------------------
    def one(self):
        if self.kind in ("BZ", "K"):
            return self._element({(self.zero_weight, 0, ()): 1})
        return self._element({(self.zero_weight, "1", (), None): 1})

    def scalar(self, kr: KRCoeff):
        if self.kind != "KR":
            raise PresentationError("KR scalars only live in KR presentations")
        terms = {}
        for name, val in kr.as_dict().items():
            if val:
                terms[(self.zero_weight, name, (), None)] = val
        return self._element(terms)

    def class_element(self, w, cls="1"):
        """The coefficient class of a self-twisted-dual (R or H type) weight."""
        w = tuple(w)
        if self.classify(w).type == TYPE_C:
            raise PresentationError(
                f"{w} is complex type; use rclass_element for realifications")
        return self._element({(w, cls, (), None): 1})

    def gen_element(self, g):
        if isinstance(g, Generator):
            g = g.index
        if self.kind in ("BZ", "K"):
            return self.dg_element(g)
        return self._element({(self.zero_weight, "1", (g,), None): 1})

    def dg_element(self, fi, j=0, w=None):
        """beta^j . V_w . dG[factor fi] in a BZ presentation."""
        if self.kind not in ("BZ", "K"):
            raise PresentationError("dg_element lives in BZ presentations")
        w = self.zero_weight if w is None else tuple(w)
        return self._element({(w, j % 4, (fi,)): 1})

    def bz_weight(self, w, j=0):
        if self.kind not in ("BZ", "K"):
            raise PresentationError("bz_weight lives in BZ presentations")
        return self._element({(tuple(w), j % 4, ()): 1})

    def rclass_element(self, idx: RClassIndex):
        """The realified class r_{rho, i, eps, nu} in normal form."""
        if self.kind != "KR":
            raise PresentationError("realified classes live in KR presentations")
        t = self.split.t
        if len(idx.eps) != t:
            raise PresentationError(f"eps/nu must have length t={t}")
        if idx.rho is None:
            rhos = {self.zero_weight: 1}
        elif isinstance(idx.rho, dict):
            rhos = {tuple(w): c for w, c in idx.rho.items()}
        else:
            rhos = {tuple(idx.rho): 1}
        eps = tuple(k for k, e in enumerate(idx.eps) if e)
        nu = tuple(k for k, n in enumerate(idx.nu) if n)
        bz = {}
        for w, c in rhos.items():
            if w != self.zero_weight and self.classify(w).type != TYPE_C:
                raise PresentationError(
                    f"rho weight {w} must be trivial or complex type")
            term, sign = self._slot_to_bz((w, idx.i, eps, nu))
            bz[term] = c * sign
        return self._element(self._realify(bz))

    def _pair_factor(self, k, role):
        fi = self._pair_factors.get((k, role))
        if fi is None:
            raise PresentationError(f"no factor for pair {k} role {role}")
        return fi

    # -- BZ arithmetic -------------------------------------------------------------
    def _mul_bz_unit(self, t1, t2):
        """Product of two BZ terms at unit coefficient."""
        w1, j1, b1 = t1
        w2, j2, b2 = t2
        merged = _merge_graded(b1, b2, lambda x: 1)
        if merged is None:
            return {}
        bits, sign = merged
        if self.kind == "K":
            return {(self.zero_weight, (j1 + j2) % 4, bits): sign}
        out = {}
        for w, m in self.tensor(w1, w2).items():
            out[(w, (j1 + j2) % 4, bits)] = sign * m
        return out

    def _bz_mul_dicts(self, a, b):
        out = {}
        for t1, c1 in a.items():
            for t2, c2 in b.items():
                c12 = c1 * c2
                for t, c in self._mul_bz_unit(t1, t2).items():
                    out[t] = out.get(t, 0) + c12 * c
        return {t: c for t, c in out.items() if c}

    def _tau_weight(self, w):
        """Twisted dual of a weight, computed once per weight."""
        ws = self._weight_tau.get(w)
        if ws is None:
            ws = self._weight_tau[w] = twisted_dual(self.rd, self.inv, w)
        return ws

    def _tau_bz_term(self, w, j, bits):
        """tau-image of one BZ term; returns (w*, bits*, sign)."""
        mapped = [self._tau_factor(b) for b in bits]
        sign = (-1) ** (j % 2 + len(bits) + _inversions(mapped))
        return self._tau_weight(w), tuple(sorted(mapped)), sign

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
        happens later, in _normalize_terms, so the unit result is
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
        w0, j0, bits0 = w, j, bits
        plain = []
        bl = list(bits)
        sign = 1
        # phi/theta factors lead in sorted order; dG[f] = beta^{-1} c(dF[f])
        while bl and self.factors[bl[0]][0] in ("phi", "theta"):
            fi = bl.pop(0)
            plain.append(self._gen_by_factor[fi])
            j -= 1
        # full gamma pairs: dG[gamma_k] dG[sigmabar gamma_k] = -beta c(lam_k)
        while True:
            hit = None
            for pos, fi in enumerate(bl):
                role, _, k = self.factors[fi]
                if role == "u" and pos + 1 < len(bl) and bl[pos + 1] == fi + 1:
                    hit = (pos, k)
                    break
            if hit is None:
                break
            pos, k = hit
            del bl[pos:pos + 2]  # adjacent pair crosses 2*pos odd factors: net +
            sign = -sign
            j += 1
            plain.append(self._lam_gen[k])
        eps = tuple(sorted(self.factors[fi][2] for fi in bl
                           if self.factors[fi][0] == "u"))
        nu = tuple(sorted(self.factors[fi][2] for fi in bl
                          if self.factors[fi][0] == "v"))
        plain = tuple(sorted(plain))

        rho = None
        cw = self.zero_weight
        if w != self.zero_weight:
            wcls = self.classify(w)
            if wcls.type == TYPE_R:
                cw = w
            elif wcls.type == TYPE_H:
                cw = w
                j += 2
            else:
                rho = w

        needs_flip = False
        if rho is not None:
            if rho != self.pair_rep(rho):
                needs_flip = True
        elif eps or nu:
            if not eps or (nu and min(nu) < min(eps)):
                needs_flip = True
        if needs_flip:
            if not allow_flip:
                raise PresentationError("realified class failed to canonicalize")
            ws, mapped, tsign = self._tau_bz_term(w0, j0, bits0)
            return self._realify_term(ws, j0, mapped, tsign, allow_flip=False)

        if rho is None and not eps and not nu:
            return [((cw, name, plain, None), sign * val)
                    for name, val in r_pattern(j).as_dict().items() if val]
        # the lam factors took whole pairs out of the strictly increasing
        # bits, so the slot uses none of their pairs: no lam kill here
        slot = (rho, j % 4, eps, nu)
        # the leftover factors bl are the slot's, sorted: r(bl) = s . r(slot)
        _, slot_sign = self._slot_to_bz(slot)
        return [((cw, "1", plain, slot), sign * slot_sign)]

    def _lam_kills(self, plain, slot):
        """lam_k in the plain monomial times a slot using pair k vanishes."""
        if slot is None:
            return False
        used = set(slot[2]) | set(slot[3])
        return any(self._lam_pair.get(gi) in used for gi in plain)

    def realify_bz(self, e: RingElement) -> RingElement:
        """Realification of a K-theory element (from the complexify target).

        The argument must live in a BZ presentation sharing this
        presentation's fundamental catalog.
        """
        if self.kind != "KR":
            raise PresentationError("realify_bz lands in a KR presentation")
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
        bits = [self._pair_factor(k, "u") for k in eps]
        bits += [self._pair_factor(k, "v") for k in nu]
        sign = (-1) ** (len(nu) + _inversions(bits))
        w = self.zero_weight if rho is None else rho
        return (w, i, tuple(sorted(bits))), sign

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
        shift = 2 if (cw != self.zero_weight
                      and self.classify(cw).type == TYPE_H) else 0
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

    # -- KR term multiplication ----------------------------------------------------
    def _typed_mult(self, cw1, cls1, cw2, cls2):
        """Product of two coefficient atoms with type bookkeeping: the
        class of V_cw1 (x) V_cw2, scaled by cls1 . cls2 (see _rep_class)."""
        h1 = int(cw1 != self.zero_weight and self.classify(cw1).type == TYPE_H)
        h2 = int(cw2 != self.zero_weight and self.classify(cw2).type == TYPE_H)
        kr = KRCoeff.basis(cls1) * KRCoeff.basis(cls2)
        if kr.is_zero():
            return [], {}
        return self._rep_class(self.tensor(cw1, cw2), (h1 + h2) % 2, kr)

    def _rep_class(self, decomp, parity, kr):
        """kr times the class of a real (parity 0) or quaternionic (parity
        1) representation, given as highest weight -> multiplicity.

        Returns (fragments, pairs): (weight, cls, coeff) atoms of the R/H
        assembly, and the BZ term dict whose realification is the
        complex-type part: a pair rho + sigmabar*rho of multiplicity m is
        m . r(beta^(2 . parity) rho), and kr . r(y) = r(c(kr) . y).
        """
        frags, pairs = [], {}
        pair_mults = {}
        for nu_w, m in decomp.items():
            t = self.classify(nu_w).type
            if t == TYPE_C:
                rep = self.pair_rep(nu_w)
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
                    frags.append((nu_w, name, mult * val))
        ck = c_coeff(kr).c
        for rep, (ma, mb) in pair_mults.items():
            if ma != mb:
                raise PresentationError(f"unbalanced complex pair {rep}")
            for i, a in enumerate(ck):
                if a:
                    pairs[(rep, (2 * parity + i) % 4, ())] = ma * a
        return frags, pairs

    def _mul_kr_unit(self, t1, t2):
        """Product of two KR terms at unit coefficient."""
        cw1, cls1, p1, s1 = t1
        cw2, cls2, p2, s2 = t2
        if s1 is None and s2 is None:
            merged = _merge_graded(p1, p2, self._gen_parity)
            if merged is None:
                return {}
            plain, sign = merged
            return self._class_terms(self._typed_mult(cw1, cls1, cw2, cls2),
                                     plain, sign)
        # a.p.r(x) . y = p . r(c(a) . x . c(y)), with the slot term in
        # front: y . t = (-1)^(|y| |t|) t . y
        own, other, sign = t1, t2, 1
        if s1 is None:
            own, other = t2, t1
            sign = (-1) ** (self.term_degree(t1) * self.term_degree(t2) % 2)
        cw, cls, plain, slot = own
        x, xsign = self._slot_to_bz(slot)
        arg = self._bz_mul_dicts(self._c_image((cw, cls, (), None)), {x: xsign})
        arg = self._bz_mul_dicts(arg, self._c_image(other))
        out = {}
        self._add_times_plain(out, plain, self._realify(arg), sign)
        return out

    def _gen_parity(self, gi):
        return self.gens[gi].parity

    def _class_terms(self, pieces, plain, coeff=1):
        """Terms of a coefficient class (see _rep_class) times a plain
        monomial, scaled by coeff."""
        frags, pairs = pieces
        out = {}
        for w, name, c in frags:
            t = (w, name, plain, None)
            out[t] = out.get(t, 0) + coeff * c
        self._add_times_plain(out, plain, self._realify(pairs), coeff)
        return out

    def _add_times_plain(self, out, plain, terms, coeff):
        """Accumulate coeff . plain . t into out for each KR term t."""
        for (tw, tcls, tplain, tslot), c in terms.items():
            merged = _merge_graded(plain, tplain, self._gen_parity)
            if merged is None:
                continue
            nplain, nsign = merged
            if self._lam_kills(nplain, tslot):
                continue
            key = (tw, tcls, nplain, tslot)
            out[key] = out.get(key, 0) + coeff * c * nsign

    # -- normalization and public multiplication ------------------------------------
    def _normalize_terms(self, terms):
        if self.kind != "KR":
            return {t: c for t, c in terms.items() if c}
        out = {}
        for t, c in terms.items():
            if t[1] in KR_TORSION:
                c %= 2
            if c:
                out[t] = c
        return out

    def _mul_elements(self, a, b):
        """Bilinear, through _mul_table: each ordered pair of terms is
        multiplied once, at unit coefficient (torsion is reduced later)."""
        table = self._mul_table
        unit_mul = self._mul_kr_unit if self.kind == "KR" else self._mul_bz_unit
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

    # -- derivation ---------------------------------------------------------------
    def _derivation_unit(self, cof, i):
        """f^cof . df_i, the cofactor expanded into irreducibles: in K,
        pushed to its rank; in KR, its class (real or quaternionic by
        the parity of its H-type exponents) times the generator dR or
        dH[f_i]."""
        ff = self._fund_factor
        expansion = _expand_monomial_cached(self.rd, cof)
        if self.kind == "BZ":
            return {(w, 0, (ff[i],)): m for w, m in expansion.items()}
        if self.kind == "K":
            rank = sum(m * weyl_dimension(self.rd, w)
                       for w, m in expansion.items())
            return {(self.zero_weight, 0, (ff[i],)): rank}
        gen_of = [self._gen_by_factor.get(fi) for fi in ff]
        if gen_of[i] is None or any(a and g is None
                                    for a, g in zip(cof, gen_of)):
            raise PresentationError(
                "the KR derivation takes exponents on R/H fundamentals only")
        parity = sum(a for a, g in zip(cof, gen_of)
                     if a and self.gens[g].kind == "dH") % 2
        return self._class_terms(self._rep_class(expansion, parity,
                                                 KRCoeff.basis("1")),
                                 (gen_of[i],))

    # -- tables ------------------------------------------------------------------
    def monomial_degrees(self):
        """Degree multiset of the plain generator monomials (raw sums)."""
        return sorted(sum(self.gens[i].degree for i in bits)
                      for bits in plain_monomials(self))

    def generator_square(self, g):
        """The relation table's square of a generator."""
        e = self.gen_element(g)
        return e * e


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_bz_presentation(rd: RootData,
                          inv: Involution | None = None) -> Presentation:
    """K*_G(G) as an exterior algebra over R(G), or K*(G) when augmented.

    One odd generator dG[f] per fundamental representation; squares
    are zero and coefficients multiply by exact tensor decomposition.
    ``inv`` defaults to the trivial involution.
    """
    if inv is None:
        inv = Involution(rd, "trivial")
    factors = tuple(("phi", w, -1) for w in rd.fundamental_weights())
    gens = tuple(Generator("dG", w, i) for i, (_, w, _) in enumerate(factors))
    return Presentation(rd, inv, None, "BZ", factors, gens)


def augment_bz(p: Presentation) -> Presentation:
    """The K*(G) variant: coefficients pushed to Z by the rank map."""
    return Presentation(p.rd, p.inv, None, "K", p.factors, p.gens)


def augment_element(p_k: Presentation, e: RingElement) -> RingElement:
    out = {}
    for (w, j, bits), c in e.terms.items():
        key = (p_k.zero_weight, j, bits)
        out[key] = out.get(key, 0) + c * weyl_dimension(e.p.rd, w)
    return p_k._element(out)


def build_kr_presentation(rd: RootData, inv: Involution,
                          split: FundamentalSplit | None = None) -> Presentation:
    """KR*_G(G^-) with the full relation table installed.

    Generators: dR[phi_i] (degree 1), dH[theta_j] (degree -3), lam[k]
    (degree 0), plus the constrained family of realified classes
    handled as r-slots.  When t = 0 the presentation is in Omega form.
    """
    if split is None:
        split = split_fundamentals(rd, inv)
    gens = []
    factors = []
    for w in split.real:
        gens.append(Generator("dR", w, len(gens)))
        factors.append(("phi", w, -1))
    for w in split.quat:
        gens.append(Generator("dH", w, len(gens)))
        factors.append(("theta", w, -1))
    for k, (rep, _) in enumerate(split.pairs):
        gens.append(Generator("lam", rep, len(gens), pair=k))
    for k, (rep, other) in enumerate(split.pairs):
        factors.append(("u", rep, k))
        factors.append(("v", other, k))
    return Presentation(rd, inv, split, "KR", tuple(factors), tuple(gens))


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
    whole square vanishes, and for a virtual rho."""

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
    transpositions = _inversions([rank[x] for x in seq])

    case = _SQUARE_CASE[idx.degree()]
    s = (-1) ** (idx.i + transpositions)
    cls, coeff, sign = {"zero": (None, 0, None), "eta2": ("eta2", 1, None),
                        "mu": ("mu", s, s), "two": ("1", 2 * s, s)}[case]
    probe = None
    if case != "zero" and not isinstance(idx.rho, dict):
        # rho (x) sigmabar*rho contains the trivial representation once
        lam_plain = tuple(sorted(p._lam_gen[k] for k in s_idx + n_idx))
        probe = ((p.zero_weight, cls, lam_plain, None), coeff)
    return RClassSquareResult(sq, case, sign, transpositions, probe)


def delta_lift(p: Presentation, poly, twist: str | None = None) -> RingElement:
    """Extend the derivation to a polynomial in the fundamentals.

    ``poly`` maps exponent tuples, one slot per fundamental in
    ``p.rd.fundamental_weights()`` order for both kinds, to integer
    coefficients.  A negative exponent needs an invertible, that is
    one-dimensional, fundamental (a U(n) determinant); in a KR
    presentation every nonzero exponent must sit on an R/H fundamental.
    Leibniz gives d(prod f^a) = sum_i a_i f^{a-e_i} df_i, the cofactor
    expanded exactly into the weight basis; each (cofactor, i) is
    computed once per presentation.

    ``twist`` (K-theory only): None; "sigmabar", the derivation of
    sigmabar* poly (the twisted dual permutes the fundamentals); or
    "abar", the pullback along the anti-involution, which is tau o
    delta: the presentation's twisted conjugation applied to the
    derivation of poly.  The law d(abar* rho) = -d(sigmabar* rho) thus
    compares tau with delta o sigmabar*.
    """
    n = len(p._fund_factor)
    if any(len(exp) != n for exp in poly):
        raise PresentationError(
            f"exponent tuples must have one slot per fundamental ({n})")
    if twist is not None and p.kind == "KR":
        raise PresentationError(
            "twisted arguments apply to the K-theory derivation")
    if twist == "abar":
        return p._element(p._tau_bz(delta_lift(p, poly).terms))
    if twist == "sigmabar":
        ff = p._fund_factor
        perm = [ff.index(p._tau_factor(fi)) for fi in ff]
        poly = {tuple(exp[k] for k in perm): c for exp, c in poly.items()}
    elif twist is not None:
        raise PresentationError(f"unknown twist {twist!r}")
    out = {}
    for exp, c in poly.items():
        if c == 0:
            continue
        for i, a in enumerate(exp):
            if a == 0:
                continue
            cof = exp[:i] + (a - 1,) + exp[i + 1:]
            unit = p._derivation_table.get((cof, i))
            if unit is None:
                unit = p._derivation_table[cof, i] = p._derivation_unit(cof, i)
            for t, m in unit.items():
                out[t] = out.get(t, 0) + c * a * m
    return p._element(out)


def as_fundamental_polynomial(rd: RootData, lam) -> dict:
    """Express the class of V_lam as a polynomial in the fundamentals.

    Returns a map exponent-tuple -> integer over the presentation's
    fundamental catalog (Laurent in the U(n) determinant slots).  The
    recursion peels the natural monomial and subtracts the lower
    constituents; R(G) is a free polynomial ring on the fundamentals
    (with the determinants inverted), so the expression is unique.

    A copy-out wrapper of ``groups._as_fund_poly_cached``; it stays here
    because the benchmark names its span presentation.as_fundamental_polynomial.
    """
    return dict(_as_fund_poly_cached(rd, tuple(lam)))


def exterior_ranks(p: Presentation):
    """Ranks of the exterior powers over the coefficient ring (BZ/K)."""
    n = len(p.gens)
    return tuple(comb(n, k) for k in range(n + 1))


def complexify(p: Presentation):
    """The complexification map into the Brylinski-Zhang presentation
    on the same fundamental catalog; each term maps through
    Presentation._c_image."""
    if p.kind != "KR":
        raise PresentationError("complexify maps a KR presentation")
    target = Presentation(
        p.rd, p.inv, None, "BZ", p.factors,
        tuple(Generator("dG", w, i) for i, (_, w, _) in enumerate(p.factors)))
    return ComplexificationMap(p, target)


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

    Truncated to irreducibles of dimension <= bound.  For BZ/K
    presentations the table counts exterior monomials (times the four
    beta-classes) and has no torsion.  For KR the engine builds the
    basis itself: one representative irreducible per kind (a
    non-trivial one where there is one; both members of a complex
    pair) times the coefficient classes, the trivial-rho realified
    classes and the pair realified classes, each multiplied by every
    plain monomial.  The distinct normal-form terms are counted by
    term_degree and by the torsion of their coefficient class, and
    scaled by the number of irreducibles of that kind.
    """
    table = {canon_degree(-q): [0, 0] for q in range(8)}
    if p.kind in ("BZ", "K"):
        n = len(p.gens)
        for k in range(n + 1):
            for j in range(4):
                table[canon_degree(-2 * j - k)][0] += comb(n, k)
        return {d: tuple(v) for d, v in table.items()}

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
            table[p.term_degree(term)][int(term[1] in KR_TORSION)] += count
    return {d: tuple(v) for d, v in table.items()}


def noneq_table(p: Presentation):
    """Module table of KR*(G^-) as the structure theorem states it.

    Representation content is forgotten: every plain monomial carries
    the KO pattern of KR*(pt), and every trivial-rho realified slot not
    killed by a lam factor of the monomial carries a free Z.
    """
    table = {canon_degree(-q): [0, 0] for q in range(8)}
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
