"""The package's public names and what each entry point imports.

The package resolves its exports lazily (PEP 562), so these tests pin
both sides: the names and objects ``eqkr`` offers are those of its
eager form, and a process loads only the layers it runs.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqkr

ALL = ["CheckResult", "DominanceError", "FundamentalSplit", "GroupSpec",
       "Involution", "IrrepClass", "KCoeff", "KRCoeff", "LaurentForm",
       "Presentation", "PresentationError", "RClassIndex", "RingElement",
       "UnclassifiableError", "UnsupportedGroupError", "build_bz_presentation",
       "build_kr_presentation", "build_root_data", "c_coeff", "character",
       "classify_type", "coeffs", "complexify", "delta_lift", "fs_rule_type",
       "groups", "parse_group", "poincare_table", "presentation", "r_coeff",
       "rclass_square", "realstruct", "run_suite", "split_fundamentals",
       "tensor_decompose", "torus", "torus_restriction_un", "verifier",
       "verify_cr", "verify_leibniz", "verify_module_iso", "verify_oracle",
       "verify_squares", "verify_weyl_denominator", "weyl_denominator_product",
       "weyl_dimension"]
SUBMODULES = {"coeffs", "groups", "presentation", "realstruct", "torus", "verifier"}
# what the oracle cross-check has no use for
ENGINE = {"eqkr.presentation", "eqkr.verifier", "eqkr.torus", "eqkr.coeffs", "random"}


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


def _loaded(code):
    """The modules a fresh interpreter imports while running ``code``, in the
    order it starts importing them.

    ``-S`` keeps site hooks from preloading modules (some .pth files
    import random); a module the bare interpreter has loaded anyway is not
    looked up again, so it is not counted against eqkr."""
    script = ("import atexit, sys, types; order = []\n"
              "sys.meta_path.insert(0, types.SimpleNamespace(\n"
              "    find_spec=lambda name, *args: order.append(name)))\n"
              "atexit.register(lambda: print(*[m for m in order if m in sys.modules]))\n"
              + code)
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


@pytest.mark.parametrize("module", ["eqkr.oracle", "eqkr.groups"])
def test_oracle_and_groups_load_no_engine(module):
    loaded = set(_loaded(f"import {module}"))
    assert module in loaded
    assert loaded & ENGINE == set()


def test_the_cli_compiles_presentation_first():
    # cli.py imports presentation first: without bytecode caches its compile
    # is where a CLI process peaks in memory, and the less is loaded by then
    # the lower the peak
    eqkr_modules = [m for m in _loaded("import eqkr.cli") if m.startswith("eqkr")]
    assert eqkr_modules[:3] == ["eqkr", "eqkr.cli", "eqkr.presentation"]


@pytest.mark.parametrize("group, suite, loads_torus", [
    ("SU3", "all", False), ("U2", "weyl", True)])
def test_only_the_weyl_check_loads_torus(tmp_path, group, suite, loads_torus):
    out = tmp_path / "report.json"
    loaded = _loaded("from eqkr.cli import main\n"
                     f"sys.exit(main(['verify', '--group', {group!r}, '--suite', "
                     f"{suite!r}, '--out', {str(out)!r}]))")
    assert ("eqkr.torus" in loaded) is loads_torus
