import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN

import eqkr
from eqkr.cli import main
from eqkr.groups import SimpleRootData, build_root_data
from eqkr.presentation import build_bz_presentation, build_kr_presentation
from eqkr.realstruct import involution_from_name
from eqkr.serialize import presentation_payload
from eqkr.verifier import make_mutant

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
# compute bytes of the groups whose roots and coroots differ
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(argv):
    return main(argv)


def test_compute_su3_sigma_r(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run(["compute", "--group", "SU3", "--involution", "sigmaR",
                "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["omega_form"] is True
    assert len(data["generators"]) == 2
    assert all(g["degree"] == "1" for g in data["generators"])


def test_compute_validation_exit_codes(capsys):
    assert run(["compute", "--group", "SU3", "--involution", "sigmaH"]) == 2
    assert run(["compute", "--group", "SU1"]) == 2
    assert run(["compute", "--group", "SU3", "--involution", "foo"]) == 2
    assert "unknown involution 'foo'" in capsys.readouterr().err
    code = run(["compute", "--group", "U2", "--involution", "trivial"])
    assert code == 3
    err = capsys.readouterr().err
    assert "not fundamental" in err and "(1, 0)" in err


def test_verify_golden(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--group", "SU2", "--involution", "trivial",
                "--suite", "all", "--truncate", "20", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert all(r["status"] == "pass" for r in data["results"])


def test_verify_weyl_suite(tmp_path):
    out = tmp_path / "w.json"
    assert run(["verify", "--group", "U2", "--suite", "weyl",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"][0]["name"].startswith("weyl-denominator")


def test_verify_weyl_suite_skips_a_group_without_a_unitary_factor(capsys):
    assert run(["verify", "--group", "SU2", "--suite", "weyl"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["status"]) for r in data["results"]] == [
        ("weyl-denominator", "skipped")]


@pytest.mark.parametrize("suite", ["weyl", "none"])
def test_verify_without_presentation_labels_the_requested_group(suite, capsys):
    # SU2xU2/trivial has no presentation; the report still names it
    assert run(["verify", "--group", "SU2xU2", "--suite", suite]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["group"], data["involution"]) == ("SU2xU2", "trivial,trivial")
    if suite == "weyl":
        assert [r["name"] for r in data["results"]] == ["weyl-denominator[U(2)]"]


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    json.dumps({"overrides": [{"type": "R"}]}),
    json.dumps({"overrides": [{"weight": [1]}]}),
    json.dumps({"overrides": [{"weight": [1.7], "type": "R"}]}),
    json.dumps({"overrides": [{"weight": ["1"], "type": "R"}]}),
    json.dumps({"overrides": [{"weight": [True], "type": "R"}]}),
], ids=["missing", "not-json", "no-weight", "no-type", "float", "string", "bool"])
def test_bad_override_file_exits_two(tmp_path, capsys, content):
    ov = tmp_path / "ov.json"
    if content is not None:
        ov.write_text(content)
    assert run(["compute", "--group", "SU2", "--override", str(ov)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ov) in err


@pytest.mark.parametrize("group,entry,message", [
    ("SU2", {"weight": [1, 0, 5], "type": "R"}, "wrong length"),
    ("SU2", {"weight": [-1], "type": "R"}, "not dominant"),
    ("SU2", {"weight": [1], "type": "X"}, "must be R or H"),
    ("SU3", {"weight": [1, 1], "type": "X"}, "must be R or H"),
    ("SU3", {"weight": [1, 0], "type": "R"}, "not self-twisted-dual"),
], ids=["length", "dominance", "type", "type-unreached", "complex"])
def test_bad_override_entry_exits_two(tmp_path, capsys, group, entry, message):
    # every entry is checked, also one the classifier would never reach
    ov = tmp_path / "ov.json"
    ov.write_text(json.dumps({"overrides": [entry]}))
    assert run(["compute", "--group", group, "--override", str(ov)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [
    ["compute", "--group", "SU2", "--truncate", "-1"],
    ["compute", "--group", "SU3", "--truncate", "0", "--format", "text"],
    ["verify", "--group", "SU3", "--suite", "all", "--truncate", "-5"],
])
def test_truncation_below_one_exits_two(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --truncate must be at least 1")


def test_unknown_probe_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--group", "SU3", "--sensitivity-probe", "no-such"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "delta-square" in err and "tau-flip" in err


@pytest.mark.parametrize("group,involution,status", [
    ("SU4", "sigmaH", "pass"), ("Sp3", "trivial", "pass"),
    ("G2", "trivial", "skipped"), ("Sp1", "sigmaR", "pass"),
    ("Sp2", "sigmaR", "pass"), ("Sp3", "sigmaR", "pass"), ("U3", "sigmaR", "pass"),
    ("SU2xSU2", "trivial,trivial", "skipped"), ("SU3", "trivial", "skipped")])
def test_verify_oracle_suite(tmp_path, group, involution, status):
    out = tmp_path / "o.json"
    assert run(["verify", "--group", group, "--involution", involution,
                "--suite", "oracle", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [(r["name"], r["status"]) for r in data["results"]] == [
        (f"oracle[{group}/{involution}]", status)]


def test_verify_oracle_suite_takes_a_negative_seed(tmp_path):
    # the oracle draws nothing; the report echoes the seed as given
    out = tmp_path / "o.json"
    assert run(["verify", "--group", "SU2", "--suite", "oracle",
                "--seed", "-1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == "-1" and data["passed"] is True


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect",
                                    "fractions", "decimal", "eqkr.oracle",
                                    "eqkr.torus"])
def test_cli_starts_without(module):
    # no module imports numpy; the records are plain slotted classes, so
    # dataclasses (and the inspect it pulls in) are never needed; the
    # Cartan data are computed over the integers, and fractions (with
    # decimal) is imported only by the oracle, when an oracle check runs,
    # and to word an invariant error; torus is imported only when the weyl
    # check runs.  A module that the bare interpreter has already loaded is
    # not counted against eqkr.
    code = ("import sys; bare = set(sys.modules); import eqkr.cli; "
            f"sys.exit({module!r} in set(sys.modules) - bare)")
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_oracle_suite_loads_no_numpy():
    # the oracle is exact: a process that decides loads no numpy at all
    code = ("import sys; from eqkr.cli import main; "
            "code = main(['verify', '--group', 'SU4', '--involution', 'sigmaH', "
            "'--suite', 'oracle']); sys.exit(100 * ('numpy' in sys.modules) + code)")
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["passed"] is True


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--group", "SU2", "--suite", "fast"]
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "eqkr", *argv], env=env,
                         capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert run(argv) == 0
    assert res.stdout == capsys.readouterr().out.encode()


def test_unclassifiable_exit_loads_no_numpy():
    # U2/trivial has a matrix model but no generator catalog: the
    # classifier stops at exit 3 without consulting the oracle
    code = ("import sys; from eqkr.cli import main; "
            "code = main(['compute', '--group', 'U2', '--involution', "
            "'trivial']); sys.exit(100 * ('numpy' in sys.modules) + code)")
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
    assert "not fundamental" in res.stderr


def test_probe_exits_five(tmp_path):
    out = tmp_path / "bad.json"
    code = run(["verify", "--group", "SU3", "--involution", "sigmaR",
                "--suite", "fast", "--sensitivity-probe", "delta-square",
                "--out", str(out)])
    assert code == 5
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert any(r["status"] == "fail" and r["witness"] for r in data["results"])


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--group", "SU4", "--involution", "sigmaH",
            "--truncate", "25", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    vargs = ["verify", "--group", "Sp2", "--suite", "fast", "--seed", "11"]
    assert run(vargs + ["--out", str(ra)]) == 0
    assert run(vargs + ["--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()


def test_override_table(tmp_path):
    ov = tmp_path / "ov.json"
    ov.write_text(json.dumps(
        {"overrides": [{"weight": [1], "type": "R"}]}))
    out = tmp_path / "p.json"
    code = run(["compute", "--group", "SU2", "--involution", "trivial",
                "--override", str(ov), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    # the override flips the defining representation to R type
    assert data["generators"][0]["kind"] == "dR"
    assert data["generators"][0]["degree"] == "1"


@pytest.mark.parametrize("group,message", [("F5", "type F needs rank 4"),
                                           ("G3", "type G needs rank 2"),
                                           ("G0", "rank 0 invalid for type G")])
def test_exceptional_rank_mismatch_exits_two(group, message, capsys):
    assert run(["compute", "--group", group]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("probe,code,overall", [(None, 0, "pass"),
                                                ("delta-square", 5, "FAIL")])
def test_text_report_matches_the_json_report(probe, code, overall, capsys):
    argv = ["verify", "--group", "SU2"]
    if probe:
        argv += ["--sensitivity-probe", probe]
    assert run(argv) == code
    data = json.loads(capsys.readouterr().out)
    assert run(argv + ["--format", "text"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"group SU2  involution trivial  suite fast  seed {data['seed']}"
    rows = [re.fullmatch(r"  \[ *(\w+)\] (\S+)(  -- .+)?", line).groups()[:2]
            for line in lines[1:-1]]
    assert rows == [(r["status"], r["name"]) for r in data["results"]]
    assert lines[-1] == f"overall: {overall}"
    assert data["passed"] is (code == 0)


def test_text_format(capsys):
    assert run(["compute", "--group", "Sp2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "omega_form true" in out
    assert "δ_H[θ1]" in out and "δ_R[φ1]" in out


def test_un_groups_cli(tmp_path):
    out = tmp_path / "u2.json"
    assert run(["compute", "--group", "U2", "--involution", "sigmaR",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["omega_form"] is True
    assert "non-equivariant" in data["poincare_scope"]
    assert run(["verify", "--group", "U2", "--involution", "sigmaH",
                "--suite", "fast", "--out", str(tmp_path / "r.json")]) == 0


def test_product_group_cli(tmp_path):
    out = tmp_path / "p.json"
    code = run(["compute", "--group", "SU2xSU2",
                "--involution", "trivial,trivial", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["generators"]) == 2


@pytest.mark.parametrize("group,inv", [("SU2xU2", "trivial,sigmaR"),
                                       ("U2xSU2", "sigmaR,trivial")])
def test_verify_all_on_products_with_a_unitary_factor(group, inv, capsys):
    assert run(["verify", "--group", group, "--involution", inv,
                "--suite", "all"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("group,inv", GOLDEN)
def test_compute_matches_reference_bytes(group, inv, capsys):
    assert run(["compute", "--group", group, "--involution", inv,
                "--format", "json"]) == 0
    expected = (REFERENCE / f"{group}_{inv}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("group,inv", [("Spin7", "trivial"), ("Spin9", "trivial"),
                                       ("Sp3", "trivial"), ("Sp3", "sigmaR"),
                                       ("G2", "trivial"), ("F4", "trivial")])
def test_compute_matches_golden_bytes(group, inv, capsys):
    assert run(["compute", "--group", group, "--involution", inv,
                "--format", "json"]) == 0
    expected = (GOLDEN_DIR / f"{group}_{inv}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("group,split", [("E6", (2, 0, 2)), ("E7", (4, 3, 0)),
                                         ("E8", (8, 0, 0))])
def test_compute_exceptional_groups(group, split, capsys):
    assert run(["compute", "--group", group, "--involution", "trivial",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    gens = data["generators"]
    assert tuple(sum(g["kind"] == k for g in gens) for k in ("dR", "dH", "lam")) == split
    assert data["omega_form"] is (split[2] == 0)
    rels = {r["lhs"]: r["rhs"] for r in data["relations"]}
    assert all(rels[f"{g['name']}^2"] == "0" for g in gens)


@pytest.mark.parametrize("group,split", [("E6", (6, 0, 0)), ("Spin8", (4, 0, 0)),
                                         ("G2", (2, 0, 0))])
def test_sigma_r_on_exceptional_and_orthogonal_groups(group, split, capsys):
    # the Chevalley involution types every fundamental R
    assert run(["compute", "--group", group, "--involution", "sigmaR"]) == 0
    gens = json.loads(capsys.readouterr().out)["generators"]
    assert tuple(sum(g["kind"] == k for g in gens) for k in ("dR", "dH", "lam")) == split
    assert run(["verify", "--group", group, "--involution", "sigmaR",
                "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert all(r["status"] == "pass" for r in report["results"])


@pytest.mark.parametrize("group", ["E6", "F4", "Spin10"])
def test_verify_all_on_large_groups(group, capsys):
    assert run(["verify", "--group", group, "--involution", "trivial",
                "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert all(r["status"] == "pass" for r in report["results"])


def test_invariant_violation_exits_four(monkeypatch, capsys, cold_kernel_caches):
    # the non-coroot (2, 1) as the only coroot makes Weyl dimensions
    # fractional; the kernels are memoised per root data, so start cold
    # for compute to meet the Weyl formula
    monkeypatch.setattr(SimpleRootData, "positive_coroots", lambda self: ((2, 1),))
    assert run(["compute", "--group", "SU3", "--involution", "trivial"]) == 4
    err = capsys.readouterr().err
    assert "internal invariant violation" in err and "Weyl dimension" in err


def test_square_provenance_follows_the_computed_square():
    rd = build_root_data("SU3")
    p = build_kr_presentation(rd, involution_from_name(rd, "sigmaR"))
    provenances = [r["provenance"]
                   for r in presentation_payload(p, 10)["relations"]]
    assert all(x.startswith("generator square zero") for x in provenances)
    bad = presentation_payload(make_mutant(p, "delta-square"), 10)
    first, second = bad["relations"][:2]
    assert first["rhs"] != "0" and "override" in first["provenance"]
    assert second["provenance"].startswith("generator square zero")


def test_payload_of_a_k_theory_presentation():
    bz = build_bz_presentation(build_root_data("SU3"))
    data = presentation_payload(bz, 10)
    assert [g["name"] for g in data["generators"]] == ["δ_G[1,0]", "δ_G[0,1]"]
    assert (data["involution"], data["coefficients"]) == ("trivial", "R(G)")
    assert all(r["rhs"] == "0" for r in data["relations"])
