"""In-memory span tracer that wraps eqkr's public functions from outside.

`install()` replaces every public module-level function of each eqkr
module, plus the methods in METHODS, with a wrapper that records a span
(name, start, end, parent, error, tag).  Every module attribute that held
the original is rebound, so a call through an imported alias such as
`eqkr.presentation.tensor_decompose` or `eqkr.cli.run_suite` is recorded
too.  Spans stay in memory until `Tracer.dump` writes them with the job id.

Run as a script it traces one CLI job:

    python perfbench/tracer.py SPANS.json JOB_ID compute --group SU3 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("groups", "realstruct", "oracle", "coeffs", "presentation", "torus",
           "verifier", "serialize", "cli")

# Methods wrapped in addition to the module-level functions.  The hot
# RootData primitives (pairing_simple, reflect_simple, ip, dominate, orbit)
# are left out on purpose: they run millions of times inside the character
# kernel and wrapping them would swamp the time it is meant to attribute.
METHODS = {
    "groups": ("RootData.dual_weight",),
    "coeffs": ("KRCoeff.__mul__",),
    "presentation": ("RingElement.__mul__", "RingElement.__add__",
                     "Presentation.tensor", "Presentation.classify",
                     "Presentation.realify_bz", "ComplexificationMap.__call__"),
    "torus": ("LaurentForm.__mul__",),
}

# Span tags computed from a call's result: classify_type's provenance.
TAGS = {"realstruct.classify_type": lambda result: result.provenance}


class Tracer:
    """Collects spans of one job; not thread-safe (eqkr is single-threaded)."""

    def __init__(self, job):
        self.job = job
        self.names = []
        self.spans = []  # [name index, start, end, parent index, error, tag]
        self._stack = [-1]

    def wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1], 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            else:
                if tag_of is not None:
                    span[5] = tag_of(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


def install(job) -> Tracer:
    """Wrap eqkr in place and return the tracer that records its spans."""
    tracer = Tracer(job)
    mods = {m: importlib.import_module(f"eqkr.{m}") for m in MODULES}
    replaced = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr, fn in list(_public_functions(mod)):
            replaced[id(fn)] = tracer.wrap(fn, f"{short}.{attr}")
        for qual in METHODS.get(short, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], f"{short}.{qual}"))
    for mod in [importlib.import_module("eqkr"), *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return tracer


def main(argv):
    spans_path, job, cli_args = argv[0], argv[1], argv[2:]
    tracer = install(job)
    import eqkr.cli
    try:
        return eqkr.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
