import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN, kr

import eqkr
from eqkr import oracle, realstruct
from eqkr.groups import build_root_data
from eqkr.presentation import Presentation, build_bz_presentation, build_kr_presentation
from eqkr.realstruct import Involution
from eqkr.verifier import (
    CheckResult,
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
    assert verify_leibniz(kr(name, kind), 10).passed


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
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
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
    p = kr("SU2", "trivial")
    r1 = run_suite(p, "fast", seed=123)
    r2 = run_suite(p, "fast", seed=123)
    assert [(x.name, x.status, x.witness) for x in r1.results] == \
        [(x.name, x.status, x.witness) for x in r2.results]
    assert all(x.seed == 123 for x in r1.results)


def test_suite_composition():
    p = kr("SU3", "sigmaR")
    rep = run_suite(p, "none")
    assert rep.results == []
    rep = run_suite(p, "fast")
    names = {r.name.split("[")[0] for r in rep.results}
    assert names == {"squares", "cr", "leibniz"}
    rep = run_suite(p, "all", truncation=20)
    names = {r.name.split("[")[0] for r in rep.results}
    assert "module-iso" in names
    assert "oracle" not in names
    assert rep.passed
    rep = run_suite(p, "oracle")
    assert [r.name for r in rep.results] == ["oracle[SU3/sigmaR]"]
    assert rep.passed
    with pytest.raises(ValueError):
        run_suite(p, "everything")


def test_oracle_check_fails_on_disagreement(monkeypatch):
    p = kr("SU4", "sigmaH")
    assert verify_oracle(p).passed
    catalog = p.inv.catalog_type
    flipped = {"R": "H", "H": "R"}
    monkeypatch.setattr(p.inv, "catalog_type", lambda w: flipped[catalog(w)])
    res = verify_oracle(p)
    assert res.status == "fail"
    assert res.witness.startswith("weight (1, 0, 0) (SU4 defining): oracle H, catalog R")
    monkeypatch.undo()

    def inconclusive(rep, kind, **kw):
        raise oracle.OracleError(f"oracle inconclusive for {rep.label}")
    monkeypatch.setattr(oracle, "matrix_oracle_type", inconclusive)
    res = verify_oracle(p)
    assert res.status == "fail" and "inconclusive" in res.witness


@pytest.mark.parametrize("group,kind,wrong", [
    ("SU4", "sigmaH", realstruct.Z_ONE),
    ("Sp2", "sigmaR", realstruct.Z_EXP_RHO)])
def test_oracle_check_catches_a_wrong_central_element(monkeypatch, group, kind, wrong):
    assert verify_oracle(kr(group, kind)).passed
    monkeypatch.setitem(realstruct.CENTRAL_ELEMENT, kind, wrong)
    res = verify_oracle(kr(group, kind))
    assert res.status == "fail" and "catalog" in res.witness


def test_oracle_check_skips_weights_without_a_catalog_type():
    su2 = build_root_data("SU2")
    # a custom diagram involution has no catalog rule; the override
    # only lets the presentation be built
    custom = Involution(su2, ((0,),), overrides={(1,): "H"})
    res = verify_oracle(build_kr_presentation(su2, custom))
    assert res.status == "skipped" and "catalog type" in res.witness


def test_probe_makes_suite_fail():
    p = kr("SU3", "sigmaR")
    rep = run_suite(p, "fast", probe="delta-square")
    assert not rep.passed


def test_un_suite_runs_weyl_only():
    u2 = Involution(build_root_data("U2"), "trivial")
    rep = run_suite(None, "weyl", inv=u2)
    assert rep.passed
    assert [r.name for r in rep.results] == ["weyl-denominator[U(2)]"]
