"""Per-layer metrics: reduce the spans written by tracer.py.

A span's self time is its duration minus the durations of its direct
children (children never overlap: eqkr is single-threaded).  ``total_s``
sums only the outermost span of a name, so recursive calls such as
`character` on product factors are not counted twice.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

# (metric prefix, span name, fields).  The comment before each group names
# the end-to-end metric and workload the layer metrics should move.
SPAN_METRICS = [
    # groups: verify_s/compute_s/wall_s on lie-heavy; products for the
    # per-call layers; build_root_data moves setup_s
    ("groups.character", "groups.character", ("calls", "self_s")),
    ("groups.tensor_decompose", "groups.tensor_decompose", ("calls", "self_s")),
    ("groups.weyl_dimension", "groups.weyl_dimension", ("calls", "self_s")),
    ("groups.dual_weight", "groups.RootData.dual_weight", ("calls", "self_s")),
    ("groups.build_root_data", "groups.build_root_data", ("self_s",)),
    # realstruct: provenance counts follow as tags
    ("realstruct.classify_type", "realstruct.classify_type", ("calls", "self_s")),
    ("realstruct.split_fundamentals", "realstruct.split_fundamentals", ("self_s",)),
    # oracle: wall_s on oracle-crosscheck, zero calls elsewhere
    ("oracle.matrix_oracle_type", "oracle.matrix_oracle_type", ("calls", "self_s", "errors")),
    ("oracle.exterior_power", "oracle.exterior_power", ("calls", "self_s")),
    ("oracle.rep_for_weight", "oracle.rep_for_weight", ("self_s",)),
    # coeffs: verify_s on products
    ("coeffs.KRCoeff.__mul__", "coeffs.KRCoeff.__mul__", ("calls",)),
    ("coeffs.c_coeff", "coeffs.c_coeff", ("calls",)),
    ("coeffs.r_coeff", "coeffs.r_coeff", ("calls",)),
    ("coeffs.r_pattern", "coeffs.r_pattern", ("calls",)),
    # presentation: verify_s on products; the last four compute_s on
    # golden and products
    ("presentation.RingElement.__mul__", "presentation.RingElement.__mul__", ("calls", "self_s")),
    ("presentation.RingElement.__add__", "presentation.RingElement.__add__", ("calls", "self_s")),
    ("presentation.delta_lift", "presentation.delta_lift", ("calls", "self_s")),
    ("presentation.as_fundamental_polynomial", "presentation.as_fundamental_polynomial",
     ("calls", "self_s")),
    ("presentation.realify_bz", "presentation.Presentation.realify_bz", ("calls", "self_s")),
    ("presentation.ComplexificationMap.__call__", "presentation.ComplexificationMap.__call__",
     ("calls", "self_s")),
    ("presentation.rclass_square", "presentation.rclass_square", ("calls", "self_s")),
    ("presentation.poincare_table", "presentation.poincare_table", ("self_s",)),
    ("presentation.classified_irreps", "presentation.classified_irreps", ("self_s",)),
    ("presentation.build_kr_presentation", "presentation.build_kr_presentation", ("self_s",)),
    # torus: verify_s on products (U3, U4)
    ("torus.weyl_denominator_product", "torus.weyl_denominator_product", ("self_s",)),
    ("torus.LaurentForm.__mul__", "torus.LaurentForm.__mul__", ("calls",)),
    # verifier: attribute verify_s on every CLI workload
    *[(f"verifier.{name}", f"verifier.{name}", ("total_s", "self_s"))
      for name in ("verify_squares", "verify_cr", "verify_leibniz", "verify_rclass_squares",
                   "verify_module_iso", "verify_weyl_denominator")],
    ("verifier.odd_monomials", "verifier.odd_monomials", ("self_s",)),
    # serialize: compute_s on golden
    ("serialize.presentation_json", "serialize.presentation_json", ("total_s", "self_s")),
    ("serialize.report_json", "serialize.report_json", ("self_s",)),
    # cli: job time minus interpreter start; the gap to job wall is setup_s
    ("cli.main", "cli.main", ("total_s",)),
]

PROVENANCES = ("rule", "oracle", "override", "definition")

# cache name -> (caching method, the call it saves)
CACHES = {
    "tensor_cache": ("presentation.Presentation.tensor", "groups.tensor_decompose"),
    "classify_cache": ("presentation.Presentation.classify", "realstruct.classify_type"),
}

UNITS = {"calls": "count", "errors": "count", "self_s": "s", "total_s": "s"}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = [(f"{prefix}.{f}", UNITS[f], "lower")
             for prefix, _, fields in SPAN_METRICS for f in fields]
    specs += [(f"realstruct.classify_type.{p}", "count", "lower") for p in PROVENANCES]
    specs += [(f"presentation.{c}.hit_ratio", "ratio", "higher") for c in CACHES]
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


class LayerTotals:
    """Sums over the spans of one or more jobs."""

    def __init__(self):
        self.stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "errors": 0})
        self.tags = Counter()    # (span name, tag) -> count
        self.direct = Counter()  # (parent name, child name) -> count

    def add_job(self, doc):
        names, spans = doc["names"], doc["spans"]
        child_s = [0.0] * len(spans)
        for nid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        open_names = Counter()
        stack = []  # open ancestors of the current span, outermost first
        for i, (nid, start, end, parent, error, tag) in enumerate(spans):
            while stack and stack[-1] != parent:
                open_names[spans[stack.pop()][0]] -= 1
            name = names[nid]
            st = self.stats[name]
            st["calls"] += 1
            st["errors"] += error
            st["self_s"] += (end - start) - child_s[i]
            if open_names[nid] == 0:
                st["total_s"] += end - start
            if tag is not None:
                self.tags[name, tag] += 1
            if parent >= 0:
                self.direct[names[spans[parent][0]], name] += 1
            stack.append(i)
            open_names[nid] += 1

    def add_file(self, path):
        with open(path, encoding="utf-8") as fh:
            self.add_job(json.load(fh))

    def metrics(self):
        """Per-layer values, without trace.overhead_frac."""
        out = {}
        for prefix, span, fields in SPAN_METRICS:
            for f in fields:
                out[f"{prefix}.{f}"] = self.stats[span][f]
        for p in PROVENANCES:
            out[f"realstruct.classify_type.{p}"] = self.tags["realstruct.classify_type", p]
        for cache, (method, saved) in CACHES.items():
            lookups = self.stats[method]["calls"]
            misses = self.direct[method, saved]
            # no lookups means nothing was cached: report 0, not 1
            out[f"presentation.{cache}.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
        return out
