"""Acceptance suite: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All assertions are exact unless a tolerance is stated inline.
"""

import random
import time

from conftest import GOLDEN, kr

from eqkr.cli import main as cli_main
from eqkr.coeffs import KCoeff, KRCoeff, c_coeff, r_coeff, r_pattern
from eqkr.groups import build_root_data
from eqkr.oracle import (
    defining_rep,
    exterior_rep,
    matrix_oracle_type,
    primitive_exterior_rep,
)
from eqkr.presentation import (
    RClassIndex,
    as_fundamental_polynomial,
    augment_bz,
    build_bz_presentation,
    delta_lift,
    exterior_ranks,
    rclass_square,
)
from eqkr.realstruct import Involution, classify_type, fs_rule_type
from eqkr.verifier import (
    enumerate_rclasses,
    odd_monomials,
    random_odd_element,
    verify_leibniz,
    verify_module_iso,
    verify_weyl_denominator,
)

# every golden case but SU3/trivial, which has a complex pair (t = 1)
OMEGA_GOLDEN = [case for case in GOLDEN if case != ("SU3", "trivial")]


def report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}".rstrip())


def test_criterion_1_omega_form_theorem():
    for name, kind in OMEGA_GOLDEN:
        t0 = time.perf_counter()
        p = kr(name, kind)
        assert p.omega_form, f"{name}/{kind} not flagged Omega form"
        assert p.split.t == 0
        funds = p.rd.fundamental_weights()
        assert len(p.gens) == len(funds)
        for g in p.gens:
            cls = classify_type(p.rd, p.inv, g.payload)
            expected = 1 if cls.type == "R" else -3
            assert g.degree == expected
            assert g.degree in (1, -3)
            sq = p.gen_element(g.index) * p.gen_element(g.index)
            assert sq.is_zero()
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{name}/{kind} took {elapsed:.2f}s"
    report(1, "Omega-form theorem", f"{len(OMEGA_GOLDEN)} golden cases")


def test_criterion_2_primitive_generator_typing():
    for n in range(2, 6):
        rd = build_root_data(f"SU{n}")
        inv = Involution(rd, "sigmaR")
        for w in rd.fundamental_weights():
            assert classify_type(rd, inv, w).type == "R"
    for m in (1, 2):
        rd = build_root_data(f"SU{2 * m}")
        inv = Involution(rd, "sigmaH")
        types = [classify_type(rd, inv, w).type
                 for w in rd.fundamental_weights()]
        assert types == ["H" if k % 2 else "R"
                         for k in range(1, 2 * m)]
    report(2, "primitive-generator typing", "SU(n<=5) conj, SU(2m<=4) sympl")


def test_criterion_3_classifier_consistency():
    checked = 0
    for n in range(2, 6):
        rd = build_root_data(f"SU{n}")
        for k, w in enumerate(rd.fundamental_weights(), start=1):
            if rd.dual_weight(w) != w:
                continue
            rep = defining_rep("SU", n) if k == 1 else exterior_rep("SU", n, k)
            got, _ = matrix_oracle_type(rep, "trivial", tol=1e-9)
            assert got == fs_rule_type(rd, w)
            checked += 1
    for n in range(1, 4):
        rd = build_root_data(f"Sp{n}")
        for k, w in enumerate(rd.fundamental_weights(), start=1):
            rep = (defining_rep("Sp", n) if k == 1
                   else primitive_exterior_rep(n, k))
            got, _ = matrix_oracle_type(rep, "trivial", tol=1e-9)
            assert got == fs_rule_type(rd, w)
            checked += 1
    report(3, "classifier consistency", f"{checked} self-dual fundamentals")


def test_criterion_4_brylinski_zhang_side():
    bz3 = build_bz_presentation(build_root_data("SU3"))
    assert exterior_ranks(bz3) == (1, 2, 1)
    bz2 = build_bz_presentation(build_root_data("SU2"))
    k2 = augment_bz(bz2)
    assert sum(exterior_ranks(k2)) == 2
    report(4, "Brylinski-Zhang side", "SU3 ranks (1,2,1); K*(SU2) rank 2")


def test_criterion_5_derivation_laws():
    for name, kind in GOLDEN:
        res = verify_leibniz(kr(name, kind), 15)
        assert res.passed, res.witness
    # the stated instance on SU(2): d(V (x) V) = 2 V dV = d(V_2) + d(1)
    su2 = build_root_data("SU2")
    bz = build_bz_presentation(su2)
    lhs = delta_lift(bz, {(2,): 1})
    assert lhs == bz.bz_weight((1,)) * bz.dg_element(0) * 2
    assert lhs == delta_lift(bz, {(2,): 1, (0,): -1}) + delta_lift(bz, {(0,): 1})
    # the pullback rewrite on every complex pair of the golden corpus
    p = kr("SU3", "trivial")
    bz3 = build_bz_presentation(p.rd, inv=p.inv)
    for rep, other in p.split.pairs:
        poly = as_fundamental_polynomial(p.rd, rep)
        assert delta_lift(bz3, poly, twist="abar") == \
            -delta_lift(bz3, poly, twist="sigmabar")
    report(5, "derivation laws", "bound 15 on the golden corpus")


def test_criterion_6_relation_table():
    p = kr("SU3", "trivial")
    lam = p.gen_element(0)
    assert (lam * lam).is_zero()
    eta = p.scalar(KRCoeff.basis("eta"))
    mu = p.scalar(KRCoeff.basis("mu"))
    indexes = enumerate_rclasses(p, 20)
    assert len(indexes) == 20
    for idx in indexes:
        r = p.rclass_element(idx)
        assert (r * eta).is_zero(), f"r.eta != 0 at {idx}"
        assert r * mu == 2 * p.rclass_element(idx.shifted(2)), \
            f"r.mu != 2 r_(i+2) at {idx}"
    cases = {-1: "eta2", -5: "eta2", -2: "mu", -6: "mu",
             -3: "zero", 1: "zero", 0: "two", -4: "two"}
    seen = set()
    for idx in indexes:
        if idx.factor_count == 0:
            continue
        res = rclass_square(p, idx)
        assert res.case == cases[idx.degree()]
        assert res.transpositions >= 0
        seen.add(res.case)
    assert {"eta2", "zero"} <= seen
    # the mu case needs two complex pairs; exercise it on SU(5)
    p5 = kr("SU5", "trivial")
    res = rclass_square(p5, RClassIndex(None, 0, (1, 1), (0, 0)))
    assert res.case == "mu" and res.sign == -1 and res.transpositions == 1
    lam12 = p5.gen_element(p5._lam_gen[0]) * p5.gen_element(p5._lam_gen[1])
    assert res.element == -(p5.scalar(KRCoeff.basis("mu")) * lam12)
    report(6, "relation table", "20 realified indexes + mu case with sign")


def test_criterion_7_module_isomorphism():
    t0 = time.perf_counter()
    for name, kind in GOLDEN:
        res = verify_module_iso(kr(name, kind), truncation=30)
        assert res.passed, f"{name}/{kind}: {res.witness}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"module-iso sweep took {elapsed:.1f}s"
    report(7, "module isomorphism", f"D=30, {elapsed:.1f}s total")


def test_criterion_8_universal_odd_squares():
    rng = random.Random(20240801)
    for name, kind in GOLDEN:
        p = kr(name, kind)
        for degree in (1, -3):
            pool = odd_monomials(p, degree)
            if not pool:
                continue
            for _ in range(100):
                x = random_odd_element(p, pool, rng)
                assert (x * x).is_zero(), \
                    f"{name}/{kind} degree {degree}: x={x!r}"
    report(8, "universal odd squares", "100 elements per degree per case")


def test_criterion_9_coefficient_identities():
    for i in range(8):
        b = KCoeff.beta(i)
        assert c_coeff(r_coeff(b)) == b + b.conj()
    for x in (KRCoeff.unit(), KRCoeff.basis("eta"), KRCoeff.basis("eta2"),
              KRCoeff.basis("mu")):
        for j in range(4):
            y = KCoeff.beta(j)
            assert r_coeff(c_coeff(x) * y) == x * r_coeff(y)
    eta = KRCoeff.basis("eta")
    mu = KRCoeff.basis("mu")
    assert (eta * eta * eta).is_zero()
    assert (2 * eta).is_zero()
    assert (eta * mu).is_zero()
    assert mu * mu == 4 * KRCoeff.unit()
    assert eta * eta == r_pattern(1)
    assert not r_pattern(1).is_zero()
    report(9, "coefficient identities", "c/r, projection, torsion table")


def test_criterion_10_weyl_denominator():
    t0 = time.perf_counter()
    for n in (2, 3):
        res = verify_weyl_denominator(n)
        assert res.passed, res.witness
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(10, "Weyl denominator", f"U(2), U(3) in {elapsed:.2f}s")


def test_criterion_11_determinism(tmp_path):
    jobs = [
        ["compute", "--group", "SU3", "--involution", "trivial",
         "--truncate", "30", "--seed", "42"],
        ["verify", "--group", "SU4", "--involution", "sigmaH",
         "--suite", "all", "--truncate", "25", "--seed", "42"],
    ]
    for k, job in enumerate(jobs):
        a = tmp_path / f"a{k}.json"
        b = tmp_path / f"b{k}.json"
        assert cli_main(job + ["--out", str(a)]) == 0
        assert cli_main(job + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"job {job} not deterministic"
    report(11, "determinism", "byte-identical compute and verify outputs")
