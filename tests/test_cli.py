import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from conftest import GOLDEN, run_python
from hypothesis import given, settings
from hypothesis import strategies as st

from eqkr.cli import _OPTIONS, _parse, main
from eqkr.groups import SimpleRootData, build_root_data
from eqkr.presentation import build_bz_presentation, build_kr_presentation
from eqkr.realstruct import involution_from_name
from eqkr.serialize import presentation_payload
from eqkr.verifier import (
    DEFAULT_SEED,
    DEFAULT_TRUNCATION,
    MUTANT_KINDS,
    SUITES,
    make_mutant,
)

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


def _reference_parser():
    """The argparse parser the CLI used before its own option table, kept as
    the reference that table's parser is held to."""
    ap = argparse.ArgumentParser(
        prog="eqkr",
        description="generators-and-relations presentations of equivariant "
                    "KR-theory rings",
        epilog="--sensitivity-probe injects a named fault into the presentation "
               "that the fast and all suites check (self-test of their ability "
               "to fail); the other suites read none and refuse it")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--group", required=True,
                        help="group spec, e.g. SU3, Sp2, U2, SU2xSU2")
        sp.add_argument("--involution", default="trivial",
                        help="trivial | sigmaR | sigmaH, or a comma list "
                             "for products")
        sp.add_argument("--override", metavar="FILE",
                        help="JSON file with type overrides "
                             '{"overrides": [{"weight": [..], "type": "R"}]}')
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATION,
                        metavar="D", help="irrep dimension bound for tables")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", metavar="FILE", help="write output here")

    sp = sub.add_parser("compute", help="build and emit a presentation")
    common(sp)

    sp = sub.add_parser("verify", help="run property checks")
    common(sp)
    sp.add_argument("--suite", choices=SUITES, default="fast")
    sp.add_argument("--sensitivity-probe", choices=MUTANT_KINDS, default=None,
                    help=argparse.SUPPRESS)
    return ap


def _read_with(parse, argv):
    """(values, None) when parse accepts argv, else (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv), None
    except SystemExit as exc:
        assert out.getvalue() == ""
        return exc.code, err.getvalue()


def _reference_parse(argv):
    return vars(_reference_parser().parse_args(argv))


def _shortest_prefix(name, names):
    # the shortest cut of name that no other option name starts with
    return next(k for k in range(3, len(name) + 1)
                if not any(o.startswith(name[:k]) for o in names if o != name))


VALUES = {int: st.integers(-10**6, 10**6).map(str),
          # a value may hold = and may be a negative number
          str: st.text("SUp23x,.=_", min_size=1, max_size=6)
          | st.integers(-99, -1).map(str)}


@st.composite
def _option_words(draw, command):
    """The words of a well-formed argv after its command, one list per option:
    any order, repeats, unique prefixes, both value forms, --group present."""
    rows = [row for row in _OPTIONS if command in row[1]]
    names = [row[0] for row in rows] + ["--help"]
    picks = draw(st.permutations(draw(st.lists(st.sampled_from(rows), max_size=8))
                                 + [rows[0]]))
    chunks = []
    for name, _, _, kind, _, _ in picks:
        word = name[:draw(st.integers(_shortest_prefix(name, names), len(name)))]
        value = draw(st.sampled_from(kind) if isinstance(kind, tuple) else VALUES[kind])
        chunks.append([f"{word}={value}"] if draw(st.booleans()) else [word, value])
    return chunks


@st.composite
def _well_formed(draw):
    command = draw(st.sampled_from(["compute", "verify"]))
    return [command, *(w for chunk in draw(_option_words(command)) for w in chunk)]


FAULTS = ("unknown option", "ambiguous option", "missing value", "bad choice",
          "not an integer", "no command", "no --group", "stray positional")


@st.composite
def _malformed(draw):
    command = draw(st.sampled_from(["compute", "verify"]))
    chunks = draw(_option_words(command))
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(chunks)))
    if fault == "unknown option":
        word = draw(st.sampled_from(["--no-such", "--suite" if command == "compute"
                                     else "--sei", "--group-x"]))
        chunks.insert(at, [word, "1"])
    elif fault == "ambiguous option":
        word = draw(st.sampled_from(["--o", "--s", "--se"] if command == "verify"
                                    else ["--o"]))
        chunks.insert(at, [word, "1"] if draw(st.booleans()) else [f"{word}=1"])
    elif fault == "missing value":
        chunks.append([draw(st.sampled_from(
            [row[0] for row in _OPTIONS if command in row[1]]))])
    elif fault == "bad choice":
        bad = [["--format", "xml"], ["--format=JSON"]]
        if command == "verify":
            bad += [["--suite=fastest"], ["--sensitivity-probe", "no-such"]]
        chunks.insert(at, draw(st.sampled_from(bad)))
    elif fault == "not an integer":
        name = draw(st.sampled_from(["--seed", "--truncate"]))
        chunks.insert(at, [name, draw(st.sampled_from(["x", "1.5", "-1.5", "", "0x10"]))])
    elif fault == "no --group":
        chunks = [c for c in chunks if not "--group".startswith(c[0].partition("=")[0])]
    elif fault == "stray positional":
        chunks.insert(at, [draw(st.sampled_from(["stray", "-3", command]))])
    words = [w for chunk in chunks for w in chunk]
    return words if fault == "no command" else [command, *words]


@settings(max_examples=200, deadline=None)
@given(_well_formed())
def test_the_option_table_parses_as_argparse_did(argv):
    expected, _ = _read_with(_reference_parse, argv)
    assert isinstance(expected, dict), expected
    assert _read_with(_parse, argv) == (expected, None)


@settings(max_examples=200, deadline=None)
@given(_malformed())
def test_a_usage_error_exits_two_with_one_error_line(argv):
    assert _read_with(_reference_parse, argv)[0] == 2
    code, err = _read_with(_parse, argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _public_options(command):
    """{option: (default, choices)} of each option the reference parser's
    help lists for command, or for either command when None."""
    commands = _reference_parser()._subparsers._group_actions[0].choices
    return {action.option_strings[-1]: (action.default, action.choices)
            for name, sp in commands.items() if command in (None, name)
            for action in sp._actions
            if action.help != argparse.SUPPRESS and action.dest != "help"}


@pytest.mark.parametrize("command", [None, "compute", "verify"])
def test_help_lists_every_public_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"] if command else ["-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    listed = {line.split()[0]: line for line in lines if line.startswith("  --")}
    public = _public_options(command)
    assert set(listed) == set(public) and "--sensitivity-probe" not in listed
    for name, (default, choices) in public.items():
        entry = lines[lines.index(listed[name]) + 1]
        assert (f"(default: {default})" in entry) is (default is not None), entry
        assert choices is None or "{" + ",".join(choices) + "}" in listed[name]
    assert " ".join(_reference_parser().epilog.split()) in " ".join(out.split())


def test_unknown_probe_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--group", "SU3", "--sensitivity-probe", "no-such"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "delta-square" in err and "tau-flip" in err


@pytest.mark.parametrize("group,involution,status", [
    ("SU4", "sigmaH", "pass"), ("Sp3", "trivial", "pass"), ("SU2", "trivial", "pass"),
    ("SU4", "trivial", "pass"), ("Sp1", "trivial", "pass"), ("Sp2", "trivial", "pass"),
    ("G2", "trivial", "skipped"), ("Sp1", "sigmaR", "pass"),
    ("Sp2", "sigmaR", "pass"), ("Sp3", "sigmaR", "pass"), ("U3", "sigmaR", "pass"),
    ("SU2xSU2", "trivial,trivial", "skipped"), ("SU3", "trivial", "skipped"),
    ("U2", "trivial", "skipped"), ("U1", "sigmaR", "pass"), ("U2", "sigmaH", "pass"),
    ("U4", "sigmaH", "pass"), ("SU2", "sigmaH", "pass"), ("SU5", "trivial", "skipped"),
    ("Spin8", "trivial", "skipped"), ("E6", "trivial", "skipped")])
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
def test_cli_starts_without(footprint, module):
    # no module imports numpy; the records are plain slotted classes, so
    # dataclasses (and the inspect it pulls in) are never needed; the
    # Cartan data are computed over the integers, and fractions (with
    # decimal) is imported only by the oracle, when an oracle check runs,
    # and to word an invariant error; torus is imported only when the weyl
    # check runs
    _, loaded, _ = footprint("import eqkr.cli")
    assert module not in loaded


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--group", "SU2", "--suite", "fast"]
    res = run_python("-m", "eqkr", *argv)
    assert res.returncode == 0, res.stderr
    assert run(argv) == 0
    assert res.stdout == capsys.readouterr().out


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_exits_two(tmp_path, command, target):
    # an --out that cannot be opened is a usage error: one line, no traceback
    out = tmp_path if target == "directory" else tmp_path / "missing" / "p.json"
    res = run_python("-m", "eqkr", command, "--group", "SU2", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: cannot write output file {out}: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_a_cli_process_writes_the_whole_report_before_it_exits(tmp_path, capsys):
    # the heap is frozen at exit; the --out file is closed before that
    out = tmp_path / "bad.json"
    argv = ["verify", "--group", "SU3", "--suite", "fast",
            "--sensitivity-probe", "delta-square"]
    res = run_python("-m", "eqkr", *argv, "--out", str(out))
    assert (res.returncode, res.stdout, res.stderr) == (5, "", "")
    assert run(argv) == 5
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_probe_exits_five(tmp_path):
    out = tmp_path / "bad.json"
    code = run(["verify", "--group", "SU3", "--involution", "sigmaR",
                "--suite", "fast", "--sensitivity-probe", "delta-square",
                "--out", str(out)])
    assert code == 5
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert any(r["status"] == "fail" and r["witness"] for r in data["results"])


@pytest.mark.parametrize("probe", MUTANT_KINDS)
@pytest.mark.parametrize("suite", ["none", "weyl", "oracle"])
@pytest.mark.parametrize("group,involution", [("SU2", "trivial"), ("SU4", "sigmaH"),
                                              ("U2", "trivial")])
def test_probe_on_a_suite_without_a_presentation_exits_two(group, involution, suite,
                                                           probe, capsys):
    # no check of these suites reads the presentation the probe breaks
    assert run(["verify", "--group", group, "--involution", involution,
                "--suite", suite, "--sensitivity-probe", probe]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: suite {suite} reads no presentation, so the {probe} " \
        "probe cannot act on it\n"


@pytest.mark.parametrize("probe", MUTANT_KINDS)
def test_probe_on_u2_trivial_fast_still_exits_three(probe, capsys):
    assert run(["verify", "--group", "U2", "--suite", "fast",
                "--sensitivity-probe", probe]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not fundamental" in err


@pytest.mark.parametrize("group,involution,suite", [("SU2", "trivial", "all"),
                                                    ("SU4", "sigmaH", "fast")])
def test_tau_flip_without_a_complex_pair_exits_two(group, involution, suite, capsys):
    # with t = 0 the twisted dual fixes every weight, so no check reads the
    # pair representative that tau-flip replaces
    assert run(["verify", "--group", group, "--involution", involution,
                "--suite", suite, "--sensitivity-probe", "tau-flip"]) == 2
    assert capsys.readouterr() == ("", f"error: {group}/{involution} has no complex "
                                   "pair, so the tau-flip probe cannot act on it\n")


def test_tau_flip_on_a_complex_pair_exits_five(capsys):
    assert run(["verify", "--group", "SU3", "--suite", "fast",
                "--sensitivity-probe", "tau-flip"]) == 5
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("argv,code", [
    (["compute", "--group", "SU3xSU3", "--format", "json"], 0),
    (["verify", "--group", "SU4", "--involution", "sigmaH", "--suite", "all"], 0),
    (["verify", "--group", "U3", "--involution", "sigmaR", "--suite", "all"], 0),
    (["verify", "--group", "SU3", "--sensitivity-probe", "delta-square"], 5),
], ids=["compute-SU3xSU3", "verify-SU4-sigmaH", "verify-U3-sigmaR", "probe-SU3"])
def test_outputs_do_not_depend_on_the_hash_seed(argv, code):
    # str hashes, and so the iteration order of sets of names, follow
    # PYTHONHASHSEED; no output may
    first, second = (run_python("-m", "eqkr", *argv, env={"PYTHONHASHSEED": seed})
                     for seed in ("0", "1"))
    assert (first.returncode, first.stderr) == (code, "")
    assert (second.returncode, second.stdout, second.stderr) == \
        (first.returncode, first.stdout, first.stderr)


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
