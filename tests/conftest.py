"""Shared helpers of the test suite: the golden corpus, one builder and
one fresh interpreter.

Test modules import them with ``from conftest import GOLDEN, kr``.
The fixtures ``cold_kernel_caches`` and ``footprint`` are found by name.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqkr
from eqkr.groups import _KERNEL_CACHES, build_root_data
from eqkr.presentation import build_kr_presentation
from eqkr.realstruct import Involution

# the five group/involution pairs whose compute bytes perfbench/reference pins
GOLDEN = [("SU2", "trivial"), ("SU3", "sigmaR"), ("SU4", "sigmaH"),
          ("Sp2", "trivial"), ("SU3", "trivial")]


def run_python(*args, env=None, timeout=60):
    """Run ``python *args`` in a fresh interpreter that imports eqkr from
    this source tree, with ``env`` added to the environment.  The
    finished process, its output decoded as UTF-8 text."""
    env = dict(os.environ, PYTHONPATH=str(Path(eqkr.__file__).parents[1]), **(env or {}))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          encoding="utf-8", timeout=timeout)


@pytest.fixture(scope="session")
def footprint(tmp_path_factory):
    """Run an entry point in a fresh ``-S`` interpreter, once per session:
    ``footprint("import eqkr.cli")``, or ``footprint(argv)`` for one CLI run
    with a tuple ``argv`` and an ``--out`` file added.  The finished process,
    the modules it imported in the order it started importing them, and the
    ``--out`` path.

    ``-S`` keeps site hooks from preloading modules (some .pth files
    import random); a module the bare interpreter has loaded anyway is not
    looked up again, so it is not counted against eqkr."""
    @functools.cache
    def run(entry):
        out = tmp_path_factory.mktemp("entry") / "out.json"
        if not isinstance(entry, str):
            entry = f"from eqkr.cli import main\nsys.exit(main({[*entry, '--out', str(out)]!r}))"
        script = ("import atexit, sys, types; order = []\n"
                  "sys.meta_path.insert(0, types.SimpleNamespace(\n"
                  "    find_spec=lambda name, *args: order.append(name)))\n"
                  "atexit.register(lambda: print(*[m for m in order if m in sys.modules]))\n"
                  + entry)
        res = run_python("-S", "-c", script)
        return res, res.stdout.split(), out
    return run


def kr(name, kind):
    """KR*_G(G^-) for a group spec and an involution name (or one name
    per factor)."""
    rd = build_root_data(name)
    return build_kr_presentation(rd, Involution(rd, kind))


@pytest.fixture
def cold_kernel_caches():
    """Empty the process-wide kernel caches before and after the test.

    They are keyed on the shared root-data objects, so a test that patches
    a root-data method would otherwise read answers computed before the
    patch, and leave answers computed under it to later tests."""
    for cache in _KERNEL_CACHES:
        cache.cache_clear()
    yield
    for cache in _KERNEL_CACHES:
        cache.cache_clear()
