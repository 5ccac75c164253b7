"""Real/Quaternionic/complex type classification relative to an involution.

An involution here is a group automorphism sigma of a compact connected
group G.  It acts on isomorphism classes of irreducibles through the
"twisted dual": the conjugate representation pulled back along sigma.
An irreducible is of complex type when it is not isomorphic to its
twisted dual; otherwise it carries an antilinear intertwiner squaring
to +1 (Real type) or -1 (Quaternionic type).

The classifier resolves a self-twisted-dual weight by a user override
table or else a catalog rule, and raises UnclassifiableError when
neither applies; the decision path is recorded in the IrrepClass
provenance field.  The numerical intertwiner oracle in eqkr.oracle
decides nothing here: it checks the catalog rules independently
(``eqkr verify --suite oracle`` and the tests).  Catalog rules:

  * trivial sigma: type R iff <lam, 2 rho^vee> is even (the classical
    self-dual criterion);
  * complex conjugation on SU(n)/U(n): every irreducible is type R
    (entrywise conjugation in an integral weight basis is a compatible
    antilinear involution);
  * the symplectic-type involution on SU(2m)/U(2m): type follows the
    parity of the central element -1 acting on V_lam, i.e. R for even
    total degree and H for odd.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    ProductRootData,
    RootData,
    SimpleRootData,
    UnRootData,
)

TYPE_R = "R"
TYPE_C = "C"
TYPE_H = "H"

INVOLUTION_NAMES = ("trivial", "sigmaR", "sigmaH")


class UnclassifiableError(ValueError):
    """A self-twisted-dual weight with no override and no catalog rule."""


class InvolutionSpecError(ValueError):
    """Invalid involution for the given group (validation-level error)."""


@dataclass(frozen=True)
class IrrepClass:
    """A dominant weight with its twisted dual, type tag and provenance."""

    weight: tuple
    twisted_dual: tuple
    type: str
    provenance: str

    def __post_init__(self):
        if self.type in (TYPE_R, TYPE_H) and self.twisted_dual != self.weight:
            raise ValueError("R/H class must be self-twisted-dual")
        if self.type == TYPE_C and self.twisted_dual == self.weight:
            raise ValueError("complex class must move under the twisted dual")


class Involution:
    """Involutive automorphism data for a (product) group.

    ``kinds`` pairs one involution name per factor of ``rd.spec``.  The
    lattice action ("diagram part") of each cataloged kind is: identity
    for ``trivial``; the duality automorphism -w0 for ``sigmaR`` and
    ``sigmaH`` (an inner twist does not change the lattice action).  A
    user-defined kind is a permutation of the factor's simple roots; it
    has no catalog rule, so its self-twisted-dual weights need overrides.
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
        self._factors = rd.factors if isinstance(rd, ProductRootData) else (rd,)
        self._check_diagram_involutive()

    def __repr__(self):
        return f"Involution({self.rd.spec}, {','.join(map(str, self.kinds))})"

    @property
    def name(self):
        return ",".join(k if isinstance(k, str) else "custom" for k in self.kinds)

    def _check_diagram_involutive(self):
        for kind, f in zip(self.kinds, self._factors):
            if isinstance(kind, tuple):
                if len(kind) != f.n_simple():
                    raise InvolutionSpecError("diagram permutation has wrong length")
                if any(kind[kind[i]] != i for i in range(len(kind))):
                    raise InvolutionSpecError("diagram part must square to identity")
                if isinstance(f, SimpleRootData) and kind not in f.diagram_automorphisms():
                    raise InvolutionSpecError(
                        "permutation does not preserve the Cartan matrix")

    # -- lattice action -----------------------------------------------------
    def _factor_twisted_dual(self, kind, f: RootData, lam):
        dual = f.dual_weight(lam)
        if kind == "trivial":
            return dual
        if kind in ("sigmaR", "sigmaH"):
            # diagram part is the duality automorphism, so the composite
            # with conjugation is the identity on dominant weights
            return tuple(lam)
        # custom permutation of simple-root indices (Dynkin labels)
        return tuple(dual[kind[i]] for i in range(len(dual)))

    def twisted_dual_weight(self, lam):
        rd = self.rd
        rd.check_dominant(lam)
        if isinstance(rd, ProductRootData):
            parts = rd.split(lam)
            return rd.join([self._factor_twisted_dual(k, f, p)
                            for k, f, p in zip(self.kinds, self._factors, parts)])
        return self._factor_twisted_dual(self.kinds[0], rd, lam)

    # -- catalog typing for self-twisted-dual weights -----------------------
    def _factor_rule(self, kind, f: RootData, lam):
        """Catalog type of a self-twisted-dual factor weight, or None."""
        if kind == "trivial":
            if f.dual_weight(lam) != lam:
                return None  # complex within the factor; handled globally
            return fs_rule_type(f, lam)
        fam = f.spec.factors[0][0]
        if kind == "sigmaR":
            if fam in ("SU", "U"):
                return TYPE_R
            return None
        if kind == "sigmaH":
            return TYPE_R if _total_degree_parity(f, lam) == 0 else TYPE_H
        return None

    def catalog_type(self, lam):
        """Combined catalog type, or None when some factor has no rule.

        Factor types combine like tensor products of antilinear
        structures: an even number of H factors gives R, odd gives H.
        """
        if isinstance(self.rd, ProductRootData):
            parts = self.rd.split(lam)
        else:
            parts = (lam,)
        h_parity = 0
        for kind, f, p in zip(self.kinds, self._factors, parts):
            t = self._factor_rule(kind, f, p)
            if t is None:
                return None
            if t == TYPE_H:
                h_parity ^= 1
        return TYPE_H if h_parity else TYPE_R


def _total_degree_parity(f: RootData, lam) -> int:
    """Parity of the central element -1 in U(2m)/SU(2m) acting on V_lam."""
    if isinstance(f, UnRootData):
        return sum(lam) % 2
    # SU(2m) Dynkin labels: fundamental k has total degree k
    return sum((i + 1) * a for i, a in enumerate(lam)) % 2


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def twisted_dual(rd: RootData, inv: Involution | None, lam) -> tuple:
    """Highest weight of the conjugate representation twisted by sigma;
    the plain dual when no involution is given."""
    if inv is None:
        return rd.dual_weight(lam)
    return inv.twisted_dual_weight(lam)


def fs_rule_type(rd: RootData, lam) -> str:
    """Type of a self-dual irreducible under the trivial involution.

    R when <lam, 2 rho^vee> is even, H when odd.  Must agree with the
    matrix oracle wherever both apply (enforced in the test suite and by
    ``eqkr verify --suite oracle``).
    """
    rd.check_dominant(lam)
    if rd.dual_weight(lam) != lam:
        raise ValueError(f"weight {lam} is not self-dual")
    return TYPE_R if rd.positive_coroot_pairing(lam) % 2 == 0 else TYPE_H


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
        t = inv.overrides[lam]
        if t not in (TYPE_R, TYPE_H):
            raise UnclassifiableError(
                f"override for {lam} must be R or H, got {t!r}")
        return IrrepClass(lam, lam, t, "override")
    t = inv.catalog_type(lam)
    if t is not None:
        return IrrepClass(lam, lam, t, "rule")
    raise UnclassifiableError(
        f"weight {lam} of {rd.spec} is self-twisted-dual but has no "
        "override and no catalog rule; supply an override table")


@dataclass(frozen=True)
class FundamentalSplit:
    """Fundamental representations split by type.

    ``real``/``quat`` hold the self-twisted-dual fundamentals, ``cplx``
    one representative per complex pair (the lexicographically smaller
    highest weight); ``pairs`` lists (representative, twisted dual).
    """

    real: tuple
    quat: tuple
    cplx: tuple
    pairs: tuple

    @property
    def r(self):
        return len(self.real)

    @property
    def s(self):
        return len(self.quat)

    @property
    def t(self):
        return len(self.cplx)


def split_fundamentals(rd: RootData, inv: Involution) -> FundamentalSplit:
    """Partition the fundamental representations into R/H/complex-pair lists.

    The twisted dual must permute the fundamental list; when it maps a
    fundamental outside the list (U(n) with the trivial involution does
    this) the presentation machinery upstream has no generator catalog,
    so this raises UnclassifiableError.
    """
    fundamentals = rd.fundamental_weights()
    fund_set = set(fundamentals)
    real, quat, cplx, pairs = [], [], [], []
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
            rep = min(w, cls.twisted_dual)
            other = max(w, cls.twisted_dual)
            cplx.append(rep)
            pairs.append((rep, other))
            seen_cplx.update((w, cls.twisted_dual))
    split = FundamentalSplit(tuple(real), tuple(quat), tuple(cplx),
                             tuple(pairs))
    if split.r + split.s + 2 * split.t != len(fundamentals):
        raise UnclassifiableError(
            f"split counts r={split.r} s={split.s} t={split.t} do not cover "
            f"{len(fundamentals)} fundamentals")
    return split


def involution_from_name(rd: RootData, name: str, overrides=None) -> Involution:
    """Build an involution from a CLI-style name or comma list."""
    names = [n.strip() for n in name.split(",")] if "," in name else name
    return Involution(rd, names, overrides=overrides)
