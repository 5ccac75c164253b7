import json

import pytest
from conftest import GOLDEN, kr, run_python

from eqkr import groups, oracle, presentation, realstruct, torus, verifier
from eqkr.coeffs import KCoeff, KRCoeff
from eqkr.groups import build_root_data
from eqkr.presentation import ComplexificationMap, Presentation, build_bz_presentation
from eqkr.realstruct import Involution
from eqkr.verifier import (
    CheckResult,
    SuiteSpecError,
    enumerate_rclasses,
    make_mutant,
    run_suite,
    verify_cr,
    verify_leibniz,
    verify_module_iso,
    verify_oracle,
    verify_rclass_squares,
    verify_squares,
    verify_weyl_denominator,
)

@pytest.mark.parametrize("name,kind", GOLDEN)
def test_squares_pass_on_golden(name, kind):
    assert verify_squares(kr(name, kind)).passed


@pytest.mark.parametrize("name,kind", GOLDEN)
def test_cr_pass_on_golden(name, kind):
    assert verify_cr(kr(name, kind)).passed


@pytest.mark.parametrize("name,kind", GOLDEN)
def test_leibniz_pass_on_golden(name, kind):
    p = kr(name, kind)
    # 10 is the bound the suites run; 15 adds SU4's adjoint and SU3's four
    # irreducibles of dimension 15 to the sweep
    assert verify_leibniz(p, 10).passed and verify_leibniz(p, 15).passed


@pytest.mark.parametrize("name,kind", GOLDEN)
def test_module_iso_pass_on_golden(name, kind):
    assert verify_module_iso(kr(name, kind), 30).passed


def test_rclass_squares_check():
    assert verify_rclass_squares(kr("SU3", "trivial")).passed
    assert verify_rclass_squares(kr("SU5", "trivial")).passed


def test_weyl_check():
    assert verify_weyl_denominator(1).passed
    assert verify_weyl_denominator(2).passed
    assert verify_weyl_denominator(3).passed
    with pytest.raises(ValueError):
        verify_weyl_denominator(5)


@pytest.mark.usefixtures("cold_kernel_caches")
@pytest.mark.parametrize("n", [3, 4])
def test_weyl_check_fails_on_a_wrong_un_character(monkeypatch, n):
    # the check reads the weights of wedge^k C^n from the engine's U(n)
    # characters, so dropping one weight of wedge^2 C^n must fail it
    orbit_character = groups._orbit_character
    wedge2 = (1, 1) + (0,) * (n - 2)

    def drop_one_weight(rd, lam):
        out = dict(orbit_character(rd, lam))
        if str(rd.spec) == f"U{n}" and lam == wedge2:
            del out[min(out)]
        return out

    monkeypatch.setattr(groups, "_orbit_character", drop_one_weight)
    assert verify_weyl_denominator(n).status == "fail"


@pytest.mark.parametrize("n", [2, 3])
def test_weyl_check_fails_on_a_wrong_weighted_restriction(monkeypatch, n):
    # doubling every weight-decorated restriction leaves the character
    # product alone and multiplies the weighted product by 2^n
    restriction = torus.torus_restriction_un
    monkeypatch.setattr(torus, "torus_restriction_un",
                        lambda n, k: restriction(n, k) + restriction(n, k))
    res = verify_weyl_denominator(n)
    assert res.status == "fail"
    assert res.witness == (f"weighted product is not the expected unit-adjusted "
                           f"multiple of the Weyl denominator for U({n})")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", ["zero-product", "every-merge-repeats"])
def test_weyl_check_fails_when_every_form_product_vanishes(monkeypatch, n, mutant):
    # a form product that is always zero makes the character product and
    # its target both zero, and so equal, and the weighted product equal
    # its expected multiple: the nonzero test alone catches it
    if mutant == "zero-product":
        monkeypatch.setattr(torus.LaurentForm, "__mul__",
                            lambda a, b: torus.LaurentForm.zero(a.n))
    else:
        sort = torus.koszul_sort
        monkeypatch.setattr(torus, "koszul_sort",
                            lambda f, parity=None: None if len(f) > 1 else sort(f, parity))
    res = verify_weyl_denominator(n)
    assert res.status == "fail" and res.witness == "character product is zero"


def test_negative_controls_fail():
    p = kr("SU3", "sigmaR")
    bad = make_mutant(p, "delta-square")
    res = verify_squares(bad)
    assert res.status == "fail" and res.witness
    p3 = kr("SU3", "trivial")
    res = verify_module_iso(make_mutant(p3, "tau-flip"), 20)
    assert res.status == "fail" and res.witness.startswith("degree ")


def test_mutants_of_a_warm_presentation_still_fail():
    # the mutants are taken after the checks have filled p's term tables
    p3 = kr("SU3", "trivial")
    assert verify_squares(p3).passed and verify_module_iso(p3, 20).passed
    assert p3._mul_table and p3._realify_table
    res = verify_module_iso(make_mutant(p3, "tau-flip"), 20)
    assert res.status == "fail" and res.witness.startswith("degree ")
    p = kr("SU3", "sigmaR")
    assert verify_squares(p).passed
    assert p._mul_table
    res = verify_squares(make_mutant(p, "delta-square"))
    assert res.status == "fail" and res.witness


def test_leibniz_catches_a_dropped_tau_sign(monkeypatch):
    tau_term = Presentation._tau_bz_term

    def unsigned(self, w, j, bits):
        ws, mapped, sign = tau_term(self, w, j, bits)
        return ws, mapped, sign * (-1) ** len(bits)  # drops the dG sign

    monkeypatch.setattr(Presentation, "_tau_bz_term", unsigned)
    res = verify_leibniz(kr("SU3", "trivial"), 10)
    assert res.status == "fail" and "pullback rewrite" in res.witness


@pytest.mark.parametrize("group,kind,lifts,polys", [
    ("SU2xSU2", ("trivial", "sigmaR"), 519, 134),
    ("SU3xSU3", "trivial", 314, 122),
    ("Sp2xSU2", "trivial", 197, 62),
])
def test_leibniz_workload_is_pinned(monkeypatch, group, kind, lifts, polys):
    # a faster sweep must not be a smaller one: count the derivations it
    # lifts and the fundamental polynomials it asks for
    calls = dict.fromkeys(("delta_lift", "as_fundamental_polynomial"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(verifier, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(verifier, name, counted)
    assert verify_leibniz(kr(group, kind), 10).passed
    assert calls == {"delta_lift": lifts, "as_fundamental_polynomial": polys}


def test_rclass_squares_catch_a_dropped_bott_sign(monkeypatch):
    tau_term = Presentation._tau_bz_term

    def unsigned(self, w, j, bits):
        ws, mapped, sign = tau_term(self, w, j, bits)
        return ws, mapped, sign * (-1) ** (j % 2)  # drops the beta sign

    monkeypatch.setattr(Presentation, "_tau_bz_term", unsigned)
    # the faulty square is reported, not raised
    res = verify_rclass_squares(kr("SU5", "trivial"))
    assert res.status == "fail"
    assert "(two case) has -2*lam[1].lam[2], expected 2" in res.witness


def _drop_a_kr_constituent(monkeypatch, p):
    # only the KR side's tensor products, not those of its complexification
    tensor = p.tensor

    def dropped(a, b):
        out = dict(tensor(a, b))
        if len(out) > 1:
            del out[min(out)]
        return out
    monkeypatch.setattr(p, "tensor", dropped)


def _unsigned_koszul_sort(monkeypatch, p):
    # odd generators commute: each still squares to zero, sums do not
    sort = presentation.koszul_sort

    def unsigned(factors, parity=None):
        merged = sort(factors, parity)
        return None if merged is None else (merged[0], 0)
    monkeypatch.setattr(presentation, "koszul_sort", unsigned)


def _c_of_eta_is_c_of_one(monkeypatch, p):
    c_unit = Presentation._c_unit
    monkeypatch.setattr(Presentation, "_c_unit", lambda self, t: c_unit(
        self, (t[0], "1", *t[2:]) if t[1] == "eta" else t))


def _eta_times_mu_is_eta(monkeypatch, p):
    mul = KRCoeff.__mul__
    monkeypatch.setattr(KRCoeff, "__mul__", lambda a, b: mul(a, b) if isinstance(b, int)
                        else mul(a, b) + KRCoeff(eta=a.eta * b.mu))


def _complexification_doubled(monkeypatch, p):
    call = ComplexificationMap.__call__
    monkeypatch.setattr(ComplexificationMap, "__call__", lambda c, e: call(c, e) + call(c, e))


def _upper_rclasses_doubled(monkeypatch, p):
    element = p.rclass_element
    monkeypatch.setattr(p, "rclass_element", lambda idx: element(idx) * (1 + (idx.i >= 2)))


def _r_beta3_is_eta2(monkeypatch, p):
    pattern = presentation.r_pattern
    monkeypatch.setattr(presentation, "r_pattern", lambda i: (
        KRCoeff.basis("eta2") if i % 4 == 3 else pattern(i)))


# each failure return of squares, cr and rclass-squares that no other test
# reaches, with one engine fault that reaches it first: (check, group,
# involution, fault, witness prefix)
FAILURE_RETURNS = [
    (verify_squares, "SU3", "sigmaR", _unsigned_koszul_sort,
     "degree 1 element (seed 20240801, trial 0) has nonzero square: x = "),
    (verify_cr, "SU3", "trivial", lambda mp, p: mp.setattr(KCoeff, "conj", lambda b: b),
     "c(r(beta^1)) != beta^1 + conj"),
    (verify_cr, "SU3", "trivial", _eta_times_mu_is_eta,
     "projection formula fails on (eta, beta^2)"),
    (verify_cr, "SU3", "trivial", _complexification_doubled, "c(r(y)) != y + tau(y) for y = "),
    (verify_cr, "Sp2", "trivial", _drop_a_kr_constituent,
     "projection formula fails on trial 0 (seed 20240801)"),
    (verify_cr, "SU3", "trivial", _c_of_eta_is_c_of_one,
     "r.eta != 0 for RClassIndex(rho=None, i=0, eps=(1,), nu=(0,))"),
    (verify_cr, "SU3", "trivial", _upper_rclasses_doubled,
     "r.mu != 2 r_(i+2) for RClassIndex(rho=None, i=0, eps=(1,), nu=(0,))"),
    (verify_rclass_squares, "SU3", "trivial", _r_beta3_is_eta2,
     "square of RClassIndex(rho=None, i=1, eps=(1,), nu=(0,)) should vanish, got "),
]


@pytest.mark.parametrize("check,group,kind,fault,witness", FAILURE_RETURNS,
                         ids=["squares-random", "cr-beta", "cr-projection", "cr-element",
                              "cr-element-projection", "cr-eta", "cr-mu", "rclass-zero"])
def test_each_failure_return_is_reached(monkeypatch, check, group, kind, fault, witness):
    p = kr(group, kind)
    fault(monkeypatch, p)
    res = check(p)
    assert res.status == "fail" and res.witness.startswith(witness)


def test_leibniz_catches_a_dropped_klimyk_constituent():
    # a fresh interpreter, so no warm cache can hide the faulty kernel
    code = ("import sys, eqkr.groups as g; from eqkr.cli import main\n"
            "klimyk = g._klimyk\n"
            "def dropped(key, lam, mu):\n"
            "    out = dict(klimyk(key, lam, mu))\n"
            "    if len(out) > 1:\n"
            "        del out[min(out)]\n"
            "    return out\n"
            "g._klimyk = dropped\n"
            "sys.exit(main(['verify', '--group', 'SU3xSU3', '--suite', 'all']))\n")
    res = run_python("-c", code, timeout=120)
    assert res.returncode == 5, res.stderr
    failed = [r["name"].split("[")[0] for r in json.loads(res.stdout)["results"]
              if r["status"] == "fail"]
    assert "leibniz" in failed


def test_unknown_mutant_kind_is_refused():
    with pytest.raises(ValueError, match="unknown mutant kind 'nope'"):
        make_mutant(kr("SU2", "trivial"), "nope")


def test_cr_on_a_k_theory_presentation_checks_the_coefficients_only():
    rd = build_root_data("SU3")
    # the bare build defaults to the trivial involution
    for bz in (build_bz_presentation(rd, Involution(rd, "trivial")), build_bz_presentation(rd)):
        res = verify_cr(bz)
        assert res.passed and res.name == "cr[SU3/trivial]"
    res = verify_leibniz(bz, 15)
    assert res.passed and res.name == "leibniz[SU3/trivial;dim<=15]"


def test_check_result_requires_witness_on_failure():
    with pytest.raises(ValueError):
        CheckResult("x", "fail")


def test_enumerate_rclasses_is_deterministic():
    p = kr("SU3", "trivial")
    a = enumerate_rclasses(p, 20)
    b = enumerate_rclasses(p, 20)
    assert a == b and len(a) == 20


def test_reports_are_seed_deterministic():
    inv = Involution(build_root_data("SU2"), "trivial")
    r1 = run_suite(inv, "fast", seed=123)
    r2 = run_suite(inv, "fast", seed=123)
    assert [(x.name, x.status, x.witness) for x in r1.results] == \
        [(x.name, x.status, x.witness) for x in r2.results]
    assert all(x.seed == 123 for x in r1.results)


def test_suite_composition():
    inv = Involution(build_root_data("SU3"), "sigmaR")
    rep = run_suite(inv, "none")
    assert rep.results == []
    rep = run_suite(inv, "fast")
    names = {r.name.split("[")[0] for r in rep.results}
    assert names == {"squares", "cr", "leibniz"}
    rep = run_suite(inv, "all", truncation=20)
    names = {r.name.split("[")[0] for r in rep.results}
    assert "module-iso" in names
    assert "oracle" not in names
    assert rep.passed
    rep = run_suite(inv, "oracle")
    assert [r.name for r in rep.results] == ["oracle[SU3/sigmaR]"]
    assert rep.passed
    with pytest.raises(ValueError):
        run_suite(inv, "everything")


def test_oracle_check_fails_on_disagreement(monkeypatch):
    inv = Involution(build_root_data("SU4"), "sigmaH")
    assert verify_oracle(inv).passed
    catalog = inv.catalog_type
    flipped = {"R": "H", "H": "R"}
    monkeypatch.setattr(inv, "catalog_type", lambda w: flipped[catalog(w)])
    res = verify_oracle(inv)
    assert res.status == "fail"
    assert res.witness.startswith("weight (1, 0, 0) (SU4 V(1, 0, 0)): oracle H, catalog R")
    monkeypatch.undo()

    def inconclusive(rep, kind, **kw):
        raise oracle.OracleError(f"oracle inconclusive for {rep.label}")
    monkeypatch.setattr(oracle, "matrix_oracle_type", inconclusive)
    res = verify_oracle(inv)
    assert res.status == "fail" and "inconclusive" in res.witness


@pytest.mark.parametrize("group,kind,wrong", [
    ("SU4", "sigmaH", realstruct.Z_ONE),
    ("Sp2", "sigmaR", realstruct.Z_EXP_RHO)])
def test_oracle_check_catches_a_wrong_central_element(monkeypatch, group, kind, wrong):
    inv = Involution(build_root_data(group), kind)
    assert verify_oracle(inv).passed
    monkeypatch.setitem(realstruct.CENTRAL_ELEMENT, kind, wrong)
    res = verify_oracle(inv)
    assert res.status == "fail" and "catalog" in res.witness


def test_oracle_check_skips_weights_without_a_catalog_type():
    # a custom diagram involution has no catalog rule, and the check needs
    # no presentation, so no override is needed either
    custom = Involution(build_root_data("SU2"), ((0,),))
    res = verify_oracle(custom)
    assert res.status == "skipped" and "catalog type" in res.witness


def test_probe_makes_suite_fail():
    rep = run_suite(Involution(build_root_data("SU3"), "sigmaR"), "fast",
                    probe="delta-square")
    assert not rep.passed


def test_only_fast_and_all_build_a_presentation(monkeypatch):
    class Built(Exception):
        pass

    def build(rd, inv):
        raise Built
    monkeypatch.setattr(verifier, "build_kr_presentation", build)
    inv = Involution(build_root_data("SU2"), "trivial")
    for suite in ("none", "weyl", "oracle"):
        assert run_suite(inv, suite).passed
        # nor does a probe reach one: it is refused, having nothing to break
        with pytest.raises(SuiteSpecError, match=f"suite {suite} "):
            run_suite(inv, suite, probe="tau-flip")
    for suite in ("fast", "all"):
        with pytest.raises(Built):
            run_suite(inv, suite)


def test_un_suite_runs_weyl_only():
    u2 = Involution(build_root_data("U2"), "trivial")
    rep = run_suite(u2, "weyl")
    assert rep.passed
    assert [r.name for r in rep.results] == ["weyl-denominator[U(2)]"]
    # the oracle check needs no presentation either
    rep = run_suite(u2, "oracle")
    assert [(r.name, r.status) for r in rep.results] == [("oracle[U2/trivial]", "skipped")]
