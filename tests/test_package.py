"""The package's public names and what each entry point imports.

The package resolves its exports lazily (PEP 562), so these tests pin
both sides: the names and objects ``eqkr`` offers are those of its
eager form, and a process loads only the layers it runs.
"""

import importlib
import json
import sys

import pytest
from conftest import run_python

import eqkr

ALL = ["CheckResult", "DominanceError", "FundamentalSplit", "GroupSpec",
       "Involution", "IrrepClass", "KCoeff", "KRCoeff", "LaurentForm",
       "Presentation", "PresentationError", "RClassIndex", "RingElement",
       "UnclassifiableError", "UnsupportedGroupError", "build_bz_presentation",
       "build_kr_presentation", "build_root_data", "c_coeff", "character",
       "classify_type", "coeffs", "complexify", "delta_lift", "groups",
       "parse_group", "poincare_table", "presentation", "r_coeff",
       "rclass_square", "realstruct", "run_suite", "split_fundamentals",
       "tensor_decompose", "torus", "torus_restriction_un", "verifier",
       "verify_cr", "verify_leibniz", "verify_module_iso", "verify_oracle",
       "verify_squares", "verify_weyl_denominator", "weyl_denominator_product",
       "weyl_dimension"]
SUBMODULES = {"coeffs", "groups", "presentation", "realstruct", "torus", "verifier"}


def test_all_names_are_unchanged():
    assert sorted(eqkr.__all__) == ALL


@pytest.mark.parametrize("name", ALL)
def test_each_export_is_its_submodule_object(name):
    obj = getattr(eqkr, name)
    if name in SUBMODULES:
        assert obj is sys.modules[f"eqkr.{name}"]
    else:
        assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_an_export_follows_a_rebinding_in_its_submodule(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(eqkr.groups, "character", sentinel)
    assert eqkr.character is sentinel


def test_dir_lists_all_and_every_export():
    assert "__all__" in dir(eqkr)
    assert set(ALL) <= set(dir(eqkr))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        eqkr.nope  # noqa: B018


def test_star_import_binds_every_export():
    namespace = {}
    exec("from eqkr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


# What each CLI process loads of eqkr, in order (presentation first, see
# test_the_cli_compiles_presentation_first).
CLI = ("eqkr", "eqkr.cli", "eqkr.presentation", "eqkr._record", "eqkr.coeffs",
       "eqkr.groups", "eqkr.realstruct", "eqkr.serialize", "eqkr.verifier")
# No process loads numpy (the oracle is exact), dataclasses or inspect (the
# records are plain slotted classes), or argparse and its gettext (the CLI
# parses argv from its own option table).  fractions and decimal are
# loaded only by the oracle, and to word an invariant error.
NEVER = {"numpy", "dataclasses", "inspect", "argparse", "gettext"}
ORACLE_ONLY = {"fractions", "decimal"}

# entry point (an import, or the argv of one CLI run), its exit code, the
# eqkr modules it loads in load order, and the other modules it must not load;
# the tests after the table read the same runs
FOOTPRINTS = [
    # the oracle cross-check has no use for the engine
    ("import eqkr.groups", 0, ("eqkr", "eqkr.groups", "eqkr._record"), {"random", *ORACLE_ONLY}),
    ("import eqkr.oracle", 0, ("eqkr", "eqkr.oracle", "eqkr.groups", "eqkr._record"),
     {"random"}),
    ("import eqkr.cli", 0, CLI, ORACLE_ONLY),
    (("compute", "--group", "SU3"), 0, CLI, ORACLE_ONLY),
    # U2/trivial has a matrix model but no generator catalog: the classifier
    # stops at exit 3 without consulting the oracle
    (("compute", "--group", "U2"), 3, CLI, ORACLE_ONLY),
    # only the weyl check loads torus
    (("verify", "--group", "SU3", "--suite", "all"), 0, CLI, ORACLE_ONLY),
    (("verify", "--group", "U2", "--suite", "weyl"), 0, (*CLI, "eqkr.torus"), ORACLE_ONLY),
    (("verify", "--group", "SU4", "--involution", "sigmaH", "--suite", "oracle"), 0,
     (*CLI, "eqkr.oracle"), set()),
]


@pytest.mark.parametrize("entry, code, eqkr_order, absent", FOOTPRINTS, ids=[
    "import-eqkr.groups", "import-eqkr.oracle", "import-eqkr.cli", "compute-SU3",
    "compute-U2", "verify-SU3-all", "verify-U2-weyl", "verify-SU4-sigmaH-oracle"])
def test_each_entry_point_loads_only_its_layers(footprint, entry, code, eqkr_order, absent):
    res, loaded, out = footprint(entry)
    assert res.returncode == code, res.stderr
    assert tuple(m for m in loaded if m.startswith("eqkr")) == eqkr_order
    assert (NEVER | absent).isdisjoint(loaded)
    if code:
        assert "not fundamental" in res.stderr and not out.exists()
        return
    assert res.stderr == ""
    if entry[0] == "compute":
        assert json.loads(out.read_text(encoding="utf-8"))["generators"]
    elif entry[0] == "verify":
        assert json.loads(out.read_text(encoding="utf-8"))["passed"] is True


def test_the_cli_compiles_presentation_first(footprint):
    # cli.py imports presentation first: without bytecode caches its compile
    # is where a CLI process peaks in memory, and the less is loaded by then
    # the lower the peak
    _, loaded, _ = footprint("import eqkr.cli")
    eqkr_modules = [m for m in loaded if m.startswith("eqkr")]
    assert eqkr_modules[:3] == ["eqkr", "eqkr.cli", "eqkr.presentation"]


@pytest.mark.parametrize("group, suite, loads_torus", [
    ("SU3", "all", False), ("U2", "weyl", True)])
def test_only_the_weyl_check_loads_torus(footprint, group, suite, loads_torus):
    _, loaded, _ = footprint(("verify", "--group", group, "--suite", suite))
    assert ("eqkr.torus" in loaded) is loads_torus


@pytest.mark.parametrize("argv", [
    ("compute", "--group", "SU3"),
    ("verify", "--group", "SU3", "--suite", "all")])
def test_the_cli_loads_no_argparse(footprint, argv):
    # the CLI parses argv from its own option table; argparse (and the
    # gettext it loads) would cost every process their import
    _, loaded, out = footprint(argv)
    assert out.stat().st_size > 0
    assert {"argparse", "gettext"}.isdisjoint(loaded)


def _new_exit_callbacks(code):
    """How many atexit callbacks a fresh interpreter registers running code."""
    script = ("import atexit\nbefore = atexit._ncallbacks()\n" + code
              + "\nprint(atexit._ncallbacks() - before)")
    res = run_python("-S", "-c", script)
    assert res.returncode == 0, res.stderr
    return int(res.stdout)


def test_importing_the_package_registers_no_exit_callback():
    assert _new_exit_callbacks(
        "import eqkr, eqkr.groups, eqkr.presentation, eqkr.verifier") == 0


def test_main_registers_one_exit_callback_per_process(tmp_path):
    # cli.main freezes the heap at exit, so the shutdown collection skips
    # what the job built; a second call must not register it again
    call = f"main(['compute', '--group', 'SU2', '--out', {str(tmp_path / 'p.json')!r}])"
    assert _new_exit_callbacks(f"from eqkr.cli import main\n{call}\n{call}") == 1
