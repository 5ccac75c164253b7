"""Real/Quaternionic/complex type classification relative to an involution.

An involution here is a group automorphism sigma of a compact connected
group G.  It acts on isomorphism classes of irreducibles through the
"twisted dual": the conjugate representation pulled back along sigma.
An irreducible is of complex type when it is not isomorphic to its
twisted dual; otherwise it carries an antilinear intertwiner squaring
to +1 (Real type) or -1 (Quaternionic type).

The classifier resolves a self-twisted-dual weight by a user override
table or else the catalog rule, and raises UnclassifiableError when
neither applies; the decision path is recorded in the IrrepClass
provenance field.  The exact intertwiner oracle in eqkr.oracle
decides nothing here: it checks the catalog rule independently
(``eqkr verify --suite oracle`` and the tests).

Catalog rule: each cataloged sigma has a central element z_sigma
(CENTRAL_ELEMENT), and a self-twisted-dual V_lam is R iff lam(z_sigma) =
+1; across product factors the signs multiply.  Two rows suffice:

  * z = exp(2 pi i rho^vee), acting by (-1)^<lam, 2 rho^vee>: the trivial
    sigma (Frobenius-Schur), and sigmaH = Ad(J) o sigmaR on SU(2m)/U(2m),
    where z = J^2 = -1 = exp(2 pi i rho^vee);
  * z = 1, so every irreducible is R: sigmaR, the Chevalley involution
    (-1 on a maximal torus) of every family, since the split real form
    carries every irreducible.

A user-defined diagram permutation has no row.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .groups import RootData, UnRootData

TYPE_R = "R"
TYPE_C = "C"
TYPE_H = "H"

INVOLUTION_NAMES = ("trivial", "sigmaR", "sigmaH")

# z_sigma per cataloged kind; lam(exp(2 pi i rho^vee)) = (-1)^<lam, 2 rho^vee>
Z_EXP_RHO = "exp(2 pi i rho^vee)"
Z_ONE = "1"
CENTRAL_ELEMENT = {"trivial": Z_EXP_RHO, "sigmaR": Z_ONE, "sigmaH": Z_EXP_RHO}


class UnclassifiableError(ValueError):
    """A self-twisted-dual weight with no override and no catalog rule."""


class InvolutionSpecError(ValueError):
    """Invalid involution for the given group (validation-level error)."""


class IrrepClass(FrozenRecord):
    """A dominant weight with its twisted dual, type tag and provenance."""

    __slots__ = ("weight", "twisted_dual", "type", "provenance")

    def __init__(self, weight, twisted_dual, type, provenance):
        if type in (TYPE_R, TYPE_H) and twisted_dual != weight:
            raise ValueError("R/H class must be self-twisted-dual")
        if type == TYPE_C and twisted_dual == weight:
            raise ValueError("complex class must move under the twisted dual")
        self._init(weight, twisted_dual, type, provenance)


class Involution:
    """Involutive automorphism data for a (product) group.

    ``kinds`` pairs one involution name per factor of ``rd.spec``.  The
    lattice action ("diagram part") of each cataloged kind is: identity
    for ``trivial``; the duality automorphism -w0 for ``sigmaR`` and
    ``sigmaH`` (an inner twist does not change the lattice action).  A
    user-defined kind is a permutation of a simple factor's simple roots;
    it has no catalog row, so its self-twisted-dual weights need
    overrides.  ``overrides`` maps self-twisted-dual dominant weights to
    R or H; every entry is checked here, before any weight is classified.
    """

    def __init__(self, rd: RootData, kinds, overrides=None):
        if isinstance(kinds, str):
            kinds = tuple(kinds for _ in rd.spec.factors)
        kinds = tuple(kinds)
        if len(kinds) != len(rd.spec.factors):
            raise InvolutionSpecError(
                f"{len(rd.spec.factors)} factors need {len(rd.spec.factors)} "
                f"involution names, got {len(kinds)}")
        for kind, (fam, n) in zip(kinds, rd.spec.factors):
            if isinstance(kind, tuple):
                continue  # custom diagram permutation
            if kind not in INVOLUTION_NAMES:
                raise InvolutionSpecError(f"unknown involution {kind!r}")
            if kind == "sigmaH" and not (fam in ("SU", "U") and n % 2 == 0):
                raise InvolutionSpecError(
                    "sigmaH needs an even-rank unitary factor, got "
                    f"{fam}({n})")
        self.rd = rd
        self.kinds = kinds
        self.overrides = dict(overrides or {})
        self._check_diagram_involutive()
        for lam, t in self.overrides.items():
            if t not in (TYPE_R, TYPE_H):
                raise InvolutionSpecError(
                    f"override for {lam} must be R or H, got {t!r}")
            if self.twisted_dual_weight(lam) != lam:
                raise InvolutionSpecError(
                    f"override weight {lam} is not self-twisted-dual: it is "
                    "of complex type and cannot be R or H")

    @property
    def name(self):
        return ",".join(k if isinstance(k, str) else "custom" for k in self.kinds)

    def _check_diagram_involutive(self):
        for kind, f in zip(self.kinds, self.rd.factors):
            if isinstance(kind, tuple):
                if isinstance(f, UnRootData):
                    raise InvolutionSpecError(
                        f"custom diagram permutations need a simple factor, "
                        f"got {f.spec}")
                if len(kind) != f.n_simple():
                    raise InvolutionSpecError("diagram permutation has wrong length")
                if any(kind[kind[i]] != i for i in range(len(kind))):
                    raise InvolutionSpecError("diagram part must square to identity")
                if kind not in f.diagram_automorphisms():
                    raise InvolutionSpecError(
                        "permutation does not preserve the Cartan matrix")

    # -- lattice action -----------------------------------------------------
    def _factor_twisted_dual(self, kind, f: RootData, lam):
        # lam is a factor of a weight twisted_dual_weight has checked
        if kind in ("sigmaR", "sigmaH"):
            # diagram part is the duality automorphism, so the composite
            # with conjugation is the identity on dominant weights
            return tuple(lam)
        dual = f._minus_w0(lam)
        if kind == "trivial":
            return dual
        # custom permutation of simple-root indices (Dynkin labels)
        return tuple(dual[kind[i]] for i in range(len(dual)))

    def twisted_dual_weight(self, lam):
        rd = self.rd
        rd.check_dominant(lam)
        return rd.join([self._factor_twisted_dual(k, f, p)
                        for k, f, p in zip(self.kinds, rd.factors, rd.split(lam))])

    # -- catalog typing for self-twisted-dual weights -----------------------
    def catalog_type(self, lam):
        """Catalog type of a self-twisted-dual weight, or None when some
        factor's kind has no catalog row (a custom diagram permutation).

        H iff exp(2 pi i rho^vee) acts by -1, i.e. iff <lam_f, 2 rho^vee>
        summed over the factors f whose z_sigma is that element is odd.
        """
        if any(isinstance(k, tuple) for k in self.kinds):
            return None
        parity = sum(f.positive_coroot_pairing(p)
                     for k, f, p in zip(self.kinds, self.rd.factors, self.rd.split(lam))
                     if CENTRAL_ELEMENT[k] == Z_EXP_RHO)
        return TYPE_H if parity % 2 else TYPE_R


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def classify_type(rd: RootData, inv: Involution, lam) -> IrrepClass:
    """Classify V_lam as R, C or H relative to the involution.

    Exactly one path decides, and provenance records which: complex
    type by ``definition`` (the twisted dual differs from lam); for a
    self-twisted-dual weight, the user ``override`` table, else the
    catalog ``rule``.  With neither, raises UnclassifiableError rather
    than guessing.
    """
    lam = tuple(lam)
    star = inv.twisted_dual_weight(lam)
    if star != lam:
        return IrrepClass(lam, star, TYPE_C, "definition")
    if lam in inv.overrides:
        return IrrepClass(lam, lam, inv.overrides[lam], "override")
    t = inv.catalog_type(lam)
    if t is not None:
        return IrrepClass(lam, lam, t, "rule")
    raise UnclassifiableError(
        f"weight {lam} of {rd.spec} is self-twisted-dual but has no "
        "override and no catalog rule; supply an override table")


class FundamentalSplit(FrozenRecord):
    """Fundamental representations split by type.

    ``real``/``quat`` hold the self-twisted-dual fundamentals; ``pairs``
    lists one (representative, twisted dual) per complex pair, the
    representative the lexicographically smaller highest weight.
    """

    __slots__ = ("real", "quat", "pairs")

    def __init__(self, real, quat, pairs):
        self._init(real, quat, pairs)

    @property
    def r(self):
        return len(self.real)

    @property
    def s(self):
        return len(self.quat)

    @property
    def t(self):
        return len(self.pairs)


def split_fundamentals(rd: RootData, inv: Involution) -> FundamentalSplit:
    """Partition the fundamental representations into R/H/complex-pair lists.

    The twisted dual must permute the fundamental list; when it maps a
    fundamental outside the list (U(n) with the trivial involution does
    this) the presentation machinery upstream has no generator catalog,
    so this raises UnclassifiableError.
    """
    fundamentals = rd.fundamental_weights()
    fund_set = set(fundamentals)
    real, quat, pairs = [], [], []
    seen_cplx = set()
    for w in fundamentals:
        cls = classify_type(rd, inv, w)
        if cls.type == TYPE_R:
            real.append(w)
        elif cls.type == TYPE_H:
            quat.append(w)
        else:
            if cls.twisted_dual not in fund_set:
                raise UnclassifiableError(
                    f"twisted dual {cls.twisted_dual} of fundamental {w} of "
                    f"{rd.spec} is not fundamental; no generator catalog for "
                    "this involution")
            if w in seen_cplx:
                continue
            pairs.append((min(w, cls.twisted_dual), max(w, cls.twisted_dual)))
            seen_cplx.update((w, cls.twisted_dual))
    split = FundamentalSplit(tuple(real), tuple(quat), tuple(pairs))
    if split.r + split.s + 2 * split.t != len(fundamentals):
        raise UnclassifiableError(
            f"split counts r={split.r} s={split.s} t={split.t} do not cover "
            f"{len(fundamentals)} fundamentals")
    return split


def involution_from_name(rd: RootData, name: str, overrides=None) -> Involution:
    """Build an involution from a CLI-style name or comma list."""
    names = [n.strip() for n in name.split(",")] if "," in name else name
    return Involution(rd, names, overrides=overrides)
