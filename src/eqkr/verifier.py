"""Property suites that re-derive and check the algebraic laws.

Each check is a pure function from a built presentation, or from the
involution or rank it alone needs (plus a seed), to a CheckResult;
failures carry a witness, never an exception.  run_suite alone decides
which suites build a presentation; the negative controls (make_mutant)
break it, so a test or ``--sensitivity-probe`` confirms that each check
reading it fails when its law breaks.
"""

from __future__ import annotations

import itertools
import random
import time
from operator import add

from ._record import Record
from .coeffs import KR_BASIS, KCoeff, KRCoeff, c_coeff, r_coeff
from .groups import UnsupportedGroupError, dominant_weights_up_to_dim
from .presentation import (
    Presentation,
    RClassIndex,
    as_fundamental_polynomial,
    build_kr_presentation,
    canon_degree,
    classified_irreps,
    complexify,
    delta_lift,
    noneq_table,
    plain_monomial_elements,
    poincare_table,
    rclass_indices,
    rclass_square,
)
from .realstruct import TYPE_C, Involution

DEFAULT_SEED = 20240801
DEFAULT_TRUNCATION = 50


class CheckResult(Record):
    """One check's outcome; ``status`` is pass | fail | skipped."""

    __slots__ = ("name", "status", "witness", "seed", "elapsed")

    def __init__(self, name, status, witness=None, seed=None, elapsed=0.0):
        if status == "fail" and not witness:
            raise ValueError("failures must carry a witness")
        self._init(name, status, witness, seed, elapsed)

    @property
    def passed(self):
        return self.status == "pass"


def _timed(name, seed, fn):
    t0 = time.perf_counter()
    witness = fn()
    elapsed = time.perf_counter() - t0
    if witness is None:
        return CheckResult(name, "pass", None, seed, elapsed)
    return CheckResult(name, "fail", witness, seed, elapsed)


# ---------------------------------------------------------------------------
# random element pools
# ---------------------------------------------------------------------------

def odd_monomials(p: Presentation, degree: int):
    """Normal-form monomials of the given pure odd degree."""
    out = [e for e in plain_monomial_elements(p)
           if not e.is_zero() and e.degrees() == [degree]]
    if p.split is not None and p.split.t:
        rhos = [None] + [rep for rep, _ in p.split.pairs]
        for idx in rclass_indices(p.split.t):
            if idx.factor_count == 0 or idx.degree() != degree:
                continue
            for rho in rhos:
                e = p.rclass_element(RClassIndex(rho, idx.i, idx.eps, idx.nu))
                if not e.is_zero() and e.degrees() == [degree]:
                    out.append(e)
    return out


def random_odd_element(p, pool, rng):
    """Integer combination of one to four odd monomials, scaled by even
    coefficients."""
    out = {}
    for _ in range(rng.randint(1, 4)):
        m = pool[rng.randrange(len(pool))]
        if rng.random() < 0.35:
            m = m * p.scalar(KRCoeff.basis("mu"))
        if rng.random() < 0.25 and p.split is not None and p.split.real:
            m = m * p.class_element(p.split.real[0])
        k = rng.randint(-5, 5)
        for t, c in m.terms.items():
            out[t] = out.get(t, 0) + c * k
    return p._element(out)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_squares(p: Presentation, seed: int = DEFAULT_SEED,
                   n_random: int = 100) -> CheckResult:
    """Every generator squares to zero, as the relation table states, and
    so do random odd elements."""
    def run():
        for g in p.gens:
            e = p.gen_element(g)
            sq = e * e
            if not sq.is_zero():
                return f"square of {g.label()} is {sq!r}, not 0"
        rng = random.Random(seed)
        for degree in (1, -3):
            pool = odd_monomials(p, degree)
            if not pool:
                continue
            for trial in range(n_random):
                x = random_odd_element(p, pool, rng)
                sq = x * x
                if not sq.is_zero():
                    return (f"degree {degree} element (seed {seed}, trial "
                            f"{trial}) has nonzero square: x = {x!r}, "
                            f"x^2 = {sq!r}")
        return None
    return _timed(f"squares[{p.rd.spec}/{p.inv.name}]", seed, run)


def verify_leibniz(p: Presentation, bound: int = 15,
                   seed: int = DEFAULT_SEED) -> CheckResult:
    """The derivation is well defined across tensor identities.

    Lifting V_a . V_b = sum m_nu V_nu along the derivation gives the
    same element on both sides, for every pair of two instance sets: in
    K*_G(G), the irreducibles of dimension <= bound (with a U(n) factor,
    the trivial one and the fundamentals); in KR*_G(G^-) with t = 0, the
    ring of Grothendieck differentials, the R/H fundamentals.  The
    K*_G(G) side is ``complexify(p).target`` on a KR presentation, on the
    one catalog that realification reads, and p itself otherwise.  On
    every complex pair the pullback rewrite d(abar* gamma) = -d(sigmabar*
    gamma) holds: abar* is the engine's tau applied to d(gamma), sigmabar*
    the involution's permutation of the fundamentals, so the two sides
    share no factor map.
    """
    def run():
        bz = complexify(p).target if p.kind == "KR" else p
        try:
            weights = dominant_weights_up_to_dim(p.rd, bound)
        except UnsupportedGroupError:
            weights = [p.rd.zero()] + list(p.rd.fundamental_weights())
        instances = [(bz, weights)]
        if p.kind == "KR" and p.split is not None and p.split.t == 0:
            instances.append((p, list(p.split.real) + list(p.split.quat)))
        polys = {}  # V_w in the fundamentals depends on rd alone: shared

        def poly(w):
            if w not in polys:
                polys[w] = as_fundamental_polynomial(p.rd, w)
            return polys[w]
        for q, ws in instances:
            lifts = {}
            for a, b in itertools.combinations_with_replacement(ws, 2):
                prod_poly = {}
                for e1, c1 in poly(a).items():
                    for e2, c2 in poly(b).items():
                        key = tuple(map(add, e1, e2))
                        prod_poly[key] = prod_poly.get(key, 0) + c1 * c2
                lhs = delta_lift(q, prod_poly)
                rhs = {}
                for nu, m in p.tensor(a, b).items():
                    if nu not in lifts:
                        lifts[nu] = delta_lift(q, poly(nu))
                    for t, c in lifts[nu].terms.items():
                        rhs[t] = rhs.get(t, 0) + c * m
                rhs = q._element(rhs)
                if lhs != rhs:
                    return (f"derivation disagrees on {a} x {b}: "
                            f"lhs {lhs!r}, rhs {rhs!r}")
        if p.split is not None:
            funds = p.rd.fundamental_weights()
            perm = [funds.index(p.inv.twisted_dual_weight(w)) for w in funds]
            for rep, _ in p.split.pairs:
                rep_poly = as_fundamental_polynomial(p.rd, rep)
                da = bz._element(bz._tau_bz(delta_lift(bz, rep_poly).terms))
                ds = delta_lift(bz, {tuple(exp[k] for k in perm): c
                                     for exp, c in rep_poly.items()})
                if da != -ds:
                    return (f"pullback rewrite fails on pair {rep}: "
                            f"d(abar*) = {da!r}, -d(sigmabar*) = {(-ds)!r}")
        return None
    return _timed(f"leibniz[{p.rd.spec}/{p.inv.name};dim<={bound}]", seed, run)


def k_basis_count(p: Presentation):
    """Degree census of the K*(G) basis as realified (phi shifts by 4)."""
    table = {canon_degree(-q): 0 for q in range(8)}
    roles = [role for role, _, _ in p.factors]
    n = len(roles)
    for k in range(n + 1):
        for bits in itertools.combinations(range(n), k):
            phis = sum(1 for b in bits if roles[b] == "phi")
            for j in range(4):
                d = canon_degree(-2 * j - k + 4 * phis)
                table[d] += 1
    return table


def rhs_module_table(p: Presentation, bound: int):
    """Structure-theorem side: (RR + RH) (x) KR*(G^-) + r(pairs (x) K*(G))."""
    reals, quats, pairs = classified_irreps(p, bound)
    ne = noneq_table(p)
    kb = k_basis_count(p)
    table = {}
    for q in ne:
        free = (len(reals) * ne[q][0]
                + len(quats) * ne[canon_degree(q + 4)][0]
                + len(pairs) * kb[q])
        tors = (len(reals) * ne[q][1]
                + len(quats) * ne[canon_degree(q + 4)][1])
        table[q] = (free, tors)
    return table


def verify_module_iso(p: Presentation, truncation: int = 30,
                      seed: int = DEFAULT_SEED) -> CheckResult:
    """Both sides of the structure theorem have equal per-degree tables.

    The left side is the engine's normal-form basis: poincare_table
    multiplies plain monomials by coefficient and realified classes and
    counts the distinct terms, so a fault in the term arithmetic (the
    tau-canonicalisation of realified slots, the H-type degree shift)
    changes it.  The right side assembles (RR + RH) (x) KR*(G^-) +
    r(R(G,C) (x) K*(G)) in closed form from the stated non-equivariant
    tables.  Free ranks and Z/2-torsion counts must agree in every
    degree mod 8 at the truncation.
    """
    def run():
        lhs = poincare_table(p, truncation)
        rhs = rhs_module_table(p, truncation)
        for q in sorted(lhs, reverse=True):
            if lhs[q] != rhs[q]:
                return (f"degree {q}: basis table {lhs[q]} != structure "
                        f"side {rhs[q]} (truncation {truncation})")
        return None
    return _timed(f"module-iso[{p.rd.spec}/{p.inv.name};D={truncation}]",
                  seed, run)


def verify_cr(p: Presentation, seed: int = DEFAULT_SEED,
              n_random: int = 100) -> CheckResult:
    """Complexification/realification laws, coefficient and element level."""
    def run():
        # coefficient level, exhaustive over the bases
        for i in range(8):
            b = KCoeff.beta(i)
            if c_coeff(r_coeff(b)) != b + b.conj():
                return f"c(r(beta^{i})) != beta^{i} + conj"
        for name in KR_BASIS:
            x = KRCoeff.basis(name)
            for j in range(4):
                y = KCoeff.beta(j)
                if r_coeff(c_coeff(x) * y) != x * r_coeff(y):
                    return f"projection formula fails on ({name}, beta^{j})"
        if p.kind != "KR":
            return None
        cmap = complexify(p)
        bz = cmap.target
        rng = random.Random(seed)
        # element level: c(r(y)) = y + tau(y) and r(c(x) y) = x r(y)
        pool_w = [p.zero_weight] + [w for _, w, _ in p.factors]
        nf = len(p.factors)
        for trial in range(n_random):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = pool_w[rng.randrange(len(pool_w))]
                j = rng.randrange(4)
                bits = tuple(sorted(rng.sample(range(nf),
                                               rng.randint(0, min(2, nf)))))
                terms[(w, j, bits)] = rng.randint(-3, 3)
            y = bz._element(terms)
            ry = p.realify_bz(y)
            lhs = cmap(ry)
            rhs = y + bz._element(dict(bz._tau_bz(y.terms)))
            if lhs != rhs:
                return (f"c(r(y)) != y + tau(y) for y = {y!r} (seed {seed}, "
                        f"trial {trial}): {lhs!r} vs {rhs!r}")
            x = p.one() if trial % 2 else p.scalar(KRCoeff.basis("mu"))
            if p.split.real and trial % 3 == 0:
                x = p.class_element(p.split.real[0])
            if p.realify_bz(cmap(x) * y) != x * ry:
                return (f"projection formula fails on trial {trial} "
                        f"(seed {seed})")
        # generator-level eta/mu rules on enumerated realified classes
        if p.split.t:
            eta = p.scalar(KRCoeff.basis("eta"))
            mu = p.scalar(KRCoeff.basis("mu"))
            for idx in enumerate_rclasses(p, 20):
                r = p.rclass_element(idx)
                if not (r * eta).is_zero():
                    return f"r.eta != 0 for {idx}"
                if r * mu != 2 * p.rclass_element(idx.shifted(2)):
                    return f"r.mu != 2 r_(i+2) for {idx}"
        return None
    return _timed(f"cr[{p.rd.spec}/{p.inv.name}]", seed, run)


def enumerate_rclasses(p: Presentation, count: int):
    """A deterministic list of realified-class indexes for rule checks."""
    t = p.split.t
    rhos = [None] + [rep for rep, _ in p.split.pairs]
    for rep, other in p.split.pairs:
        for w2, m in p.tensor(rep, rep).items():
            if p.classify(w2).type == TYPE_C and w2 not in rhos:
                rhos.append(w2)
    out = []
    patterns = [(tuple(int(k == a) for k in range(t)), (0,) * t)
                for a in range(t)]
    patterns.insert(0, ((0,) * t, (0,) * t))
    if t >= 2:
        patterns.append(((1, 1) + (0,) * (t - 2), (0,) * t))
        patterns.append(((1,) + (0,) * (t - 1),
                         (0, 1) + (0,) * (t - 2)))
    for rho in rhos:
        for i in range(4):
            for eps, nu in patterns:
                if rho is None and not any(eps) and not any(nu):
                    continue
                out.append(RClassIndex(rho, i, eps, nu))
                if len(out) >= count:
                    return out
    return out


def verify_weyl_denominator(n: int, seed: int = DEFAULT_SEED) -> CheckResult:
    """The torus-restriction product carries the Weyl denominator.

    The product of the restricted character differentials equals
    d_U(n) . de_1...de_n exactly (the Jacobian identity) and is nonzero,
    so a form product that collapses to zero cannot match its collapsed
    target, and the product of the weight-decorated restrictions equals
    the monomial unit e_1...e_n times prod_{i<j}(e_i + e_j) times the
    same element.  Both sides are built from the engine's own U(n) data
    (the characters of wedge^k C^n from groups.character, the roots
    e_i - e_j from the root data) with the engine's one sign rule,
    presentation.koszul_sort, so a wrong U(n) character or sign rule
    fails the check.
    """
    if n > 4:
        raise ValueError("Weyl-denominator check limited to n <= 4")
    # imported here so that only a process that runs this check loads torus
    from .torus import (LaurentForm, root_product, top_form, weyl_denominator,
                        weyl_denominator_product)

    def run():
        char_prod, weighted = weyl_denominator_product(n)
        target = weyl_denominator(n) * top_form(n)
        if char_prod != target:
            return (f"character product differs from the Weyl denominator "
                    f"times the top form for U({n})")
        if char_prod.is_zero():
            return "character product is zero"
        # nonzero with target, so a zero weighted product fails here
        expect = LaurentForm.monomial(n, (1,) * n) * root_product(n, 1) * target
        if weighted != expect:
            return (f"weighted product is not the expected unit-adjusted "
                    f"multiple of the Weyl denominator for U({n})")
        return None
    return _timed(f"weyl-denominator[U({n})]", seed, run)


def verify_rclass_squares(p: Presentation, seed: int = DEFAULT_SEED) -> CheckResult:
    """Realified squares follow the degree-case table with computed signs:
    the zero case vanishes, and otherwise the trivial-weight lam-monomial
    term has exactly the predicted coefficient."""
    def run():
        for idx in enumerate_rclasses(p, 24):
            if idx.factor_count == 0:
                continue
            res = rclass_square(p, idx)
            if res.case == "zero":
                if not res.element.is_zero():
                    return f"square of {idx} should vanish, got {res.element!r}"
            elif res.probe is not None:
                term, want = res.probe
                got = res.element.terms.get(term, 0)
                if got != want:
                    return (f"square of {idx} ({res.case} case) has "
                            f"{got}*{p.term_label(term)}, expected {want} "
                            f"(sign {res.sign}, transpositions "
                            f"{res.transpositions}): {res.element!r}")
        return None
    return _timed(f"rclass-squares[{p.rd.spec}/{p.inv.name}]", seed, run)


def verify_oracle(inv: Involution, seed: int = DEFAULT_SEED) -> CheckResult:
    """The matrix oracle agrees with the catalog rule.

    Every self-twisted-dual fundamental weight of one SU(n), Sp(n) or
    U(n) factor that has a catalog type is decided by the exact
    antilinear-intertwiner oracle, on the model of V_lam that eqkr.oracle
    builds from the Cartan matrix, and compared with
    ``Involution.catalog_type``.  The check needs the involution only, not
    a presentation.  Under ``sigmaR`` the rational model makes every
    decision R by construction.  The oracle draws nothing, so the seed is
    only echoed in the result.  Skipped when no such weight exists
    (products, exceptional and orthogonal groups, U(n) under ``trivial``).
    """
    # imported here so that the other suites start without fractions
    from .oracle import OracleError, matrix_oracle_type, rep_for_weight
    rd = inv.rd
    name = f"oracle[{rd.spec}/{inv.name}]"
    cases = []
    for w in rd.fundamental_weights():
        if inv.twisted_dual_weight(w) != w:
            continue
        rep, catalog = rep_for_weight(rd, w), inv.catalog_type(w)
        if rep is not None and catalog is not None:
            cases.append((w, rep, catalog))
    if not cases:
        return CheckResult(name, "skipped",
                           "no self-twisted-dual fundamental with a matrix "
                           "model and a catalog type", seed)

    def run():
        for w, rep, catalog in cases:
            try:
                got, _ = matrix_oracle_type(rep, inv.kinds[0])
            except OracleError as exc:
                return f"weight {w}: {exc}"
            if got != catalog:
                return f"weight {w} ({rep.label}): oracle {got}, catalog {catalog}"
        return None
    return _timed(name, seed, run)


# ---------------------------------------------------------------------------
# mutants (negative controls) and suites
# ---------------------------------------------------------------------------

MUTANT_KINDS = ("delta-square", "tau-flip")


def make_mutant(p: Presentation, kind: str) -> Presentation:
    """A deliberately broken copy of a presentation, for sensitivity tests.

    "delta-square": the unit product of terms (``_mul_kr_unit``, or
    ``_mul_bz_unit`` on BZ/K) squares the first generator's term to
    lam[1], or to 1 where there is no lam generator, so the fault sits
    in the engine's multiplication, under every caller.  "tau-flip":
    realified slots skip the tau-canonicalisation, so r(x) and r(tau x)
    stay distinct terms.
    """
    if kind not in MUTANT_KINDS:
        raise ValueError(
            f"unknown mutant kind {kind!r}; pick one of {MUTANT_KINDS}")
    bad = Presentation(p.rd, p.inv, p.split, p.kind, p.factors)
    if kind == "delta-square":
        lam = bad._lam_gen.get(0)
        wrong = (bad.one() if lam is None else bad.gen_element(lam)).terms
        first, = bad.gen_element(0).terms
        name = "_mul_kr_unit" if p.kind == "KR" else "_mul_bz_unit"
        unit = getattr(bad, name)
        setattr(bad, name, lambda t1, t2: wrong if t1 == t2 == first else unit(t1, t2))
    else:
        bad.pair_rep = tuple  # every weight is its own pair representative
    return bad


class VerificationReport(Record):
    __slots__ = ("group", "involution", "suite", "seed", "truncation", "results")

    def __init__(self, group, involution, suite, seed, truncation, results=None):
        self._init(group, involution, suite, seed, truncation,
                   [] if results is None else results)

    @property
    def passed(self):
        return all(r.status != "fail" for r in self.results)


SUITES = ("none", "fast", "all", "weyl", "oracle")


class SuiteSpecError(ValueError):
    """A sensitivity probe that cannot act: given to a suite that reads no
    presentation, or tau-flip on a presentation without complex pairs."""


def run_suite(inv: Involution, suite: str, seed: int = DEFAULT_SEED,
              truncation: int = DEFAULT_TRUNCATION,
              probe: str | None = None) -> VerificationReport:
    """Run a named check suite on the group and involution ``inv``.

    fast and all alone build the KR presentation of ``inv``
    (UnclassifiableError where none exists, as on U(n) with the trivial
    involution) and check ``make_mutant(p, probe)`` if ``probe`` is set.
    The weyl check runs once per distinct U(n) rank n <= 4 of the spec,
    the oracle check reads ``inv``, so none, weyl and oracle run on every
    group and refuse a probe, which could not fail them, with
    SuiteSpecError.  fast and all refuse tau-flip so where t = 0: the
    twisted dual then fixes every weight, so the pair representative that
    tau-flip replaces is never read.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    report = VerificationReport(str(inv.rd.spec), inv.name, suite, seed,
                                truncation)
    results = report.results
    ranks = sorted({n for fam, n in inv.rd.spec.factors if fam == "U"})
    if suite in ("fast", "all"):
        p = build_kr_presentation(inv.rd, inv)
        if probe == "tau-flip" and not p.split.t:
            raise SuiteSpecError(f"{inv.rd.spec}/{inv.name} has no complex pair, "
                                 "so the tau-flip probe cannot act on it")
        if probe is not None:
            p = make_mutant(p, probe)
        results += [verify_squares(p, seed), verify_cr(p, seed),
                    verify_leibniz(p, 10, seed)]
        if p.split.t:
            results.append(verify_rclass_squares(p, seed))
        if suite == "all" and not ranks:
            results.append(verify_module_iso(p, truncation, seed))
    elif probe is not None:
        raise SuiteSpecError(f"suite {suite} reads no presentation, so the "
                             f"{probe} probe cannot act on it")
    if suite == "oracle":
        results.append(verify_oracle(inv, seed))
    if suite in ("all", "weyl"):
        results += [verify_weyl_denominator(n, seed) for n in ranks if n <= 4]
    if suite == "weyl" and not results:
        results.append(CheckResult("weyl-denominator", "skipped",
                                   "no U(n) factor with n <= 4", seed))
    results.sort(key=lambda r: r.name)
    return report

