"""Stable serialization of presentations and verification reports.

JSON is the machine format: keys sorted, integer payloads rendered as
arbitrary-precision decimal strings, no timestamps, so identical jobs
serialize to identical bytes.  The text format renders generators in
the classical notation with degree annotations.
"""

from __future__ import annotations

import json

from .groups import UnsupportedGroupError
from .presentation import (
    Presentation,
    RClassIndex,
    noneq_table,
    poincare_table,
    rclass_square,
)

FORMAT_NOTES = (
    "omega_t exponent rule applied uniformly in every pair index",
    "eta action on quaternionic summands follows the shifted KO pattern "
    "(derived-by-pattern)",
    "module tables inherit the stated (unproved) description of the "
    "non-equivariant side",
)


def _stringify(obj):
    """Integers to decimal strings, recursively (bools stay bools)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def generator_name(p: Presentation, g) -> str:
    """Classical label: delta_R[phi1], delta_H[theta1], lambda[k]."""
    if g.kind == "dR":
        return f"δ_R[φ{p.split.real.index(g.payload) + 1}]"
    if g.kind == "dH":
        return f"δ_H[θ{p.split.quat.index(g.payload) + 1}]"
    if g.kind == "lam":
        return f"λ[{g.pair + 1}]"
    return f"δ_G[{','.join(map(str, g.payload))}]"


def presentation_payload(p: Presentation, truncation: int = 50,
                         seed: int = 0) -> dict:
    """The documented presentation schema as a plain dict."""
    gens = []
    for g in p.gens:
        gens.append({
            "name": generator_name(p, g),
            "kind": g.kind,
            "degree": g.degree,
            "payload": list(g.payload),
        })
    relations = []
    for g in p.gens:
        e = p.gen_element(g)
        sq = e * e
        if not sq.is_zero():
            provenance = "relation-table override (nonzero square)"
        elif g.kind == "lam":
            provenance = "generator square zero (complex-pair class)"
        else:
            provenance = "generator square zero (image of the odd derivation)"
        relations.append({
            "lhs": f"{generator_name(p, g)}^2",
            "rhs": repr(sq),
            "provenance": provenance,
        })
    if p.kind == "KR" and p.split is not None and p.split.t:
        t = p.split.t
        relations.append({
            "lhs": "r[rho;i;eps;nu].eta",
            "rhs": "0",
            "provenance": "realified classes are eta-torsion-free",
        })
        relations.append({
            "lhs": "r[rho;i;eps;nu].mu",
            "rhs": "2 r[rho;i+2;eps;nu]",
            "provenance": "projection formula with c(mu) = 2 beta^2",
        })
        for i in range(4):
            for a in range(t):
                eps = tuple(int(k == a) for k in range(t))
                idx = RClassIndex(None, i, eps, (0,) * t)
                res = rclass_square(p, idx)
                relations.append({
                    "lhs": f"r[1;{i};{a+1};-]^2",
                    "rhs": repr(res.element),
                    "provenance": (
                        f"case {res.case}; transpositions "
                        f"{res.transpositions}"
                        + (f"; sign {res.sign}" if res.sign is not None else "")
                        + "; omega rule applied at every index"),
                })
    try:
        table = poincare_table(p, truncation)
        scope = f"equivariant assembly, irrep dimension <= {truncation}"
    except UnsupportedGroupError:
        # U(n) factors admit no finite dimension truncation (determinant
        # twists); fall back to the non-equivariant module table
        table = noneq_table(p)
        scope = "non-equivariant module (U factors: no finite truncation)"
    poincare = [{"degree": d, "free_rank": table[d][0], "torsion": table[d][1]}
                for d in sorted(table, reverse=True)]
    return {
        "poincare_scope": scope,
        "group": str(p.rd.spec),
        "involution": p.inv.name,
        "coefficients": p.coefficient_tag,
        "omega_form": p.omega_form,
        "generators": gens,
        "relations": relations,
        "poincare": poincare,
        "truncation": truncation,
        "seed": seed,
        "notes": list(FORMAT_NOTES),
    }


def presentation_json(p: Presentation, truncation: int = 50,
                      seed: int = 0) -> str:
    payload = _stringify(presentation_payload(p, truncation, seed))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def presentation_text(p: Presentation, truncation: int = 50,
                      seed: int = 0) -> str:
    pay = presentation_payload(p, truncation, seed)
    lines = [f"group {pay['group']}  involution {pay['involution']}",
             f"coefficients {pay['coefficients']}",
             f"omega_form {str(pay['omega_form']).lower()}",
             "generators:"]
    for g in pay["generators"]:
        lines.append(f"  {g['name']}  (deg {g['degree']})")
    lines.append("relations:")
    for r in pay["relations"]:
        lines.append(f"  {r['lhs']} = {r['rhs']}    [{r['provenance']}]")
    lines.append(f"module table ({pay['poincare_scope']}):")
    for row in pay["poincare"]:
        lines.append(f"  deg {row['degree']:>2}: free {row['free_rank']}"
                     f"  torsion {row['torsion']}")
    for note in pay["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def report_payload(report) -> dict:
    """Verification report schema; elapsed times are omitted so the
    bytes depend only on (spec, seed)."""
    return {
        "group": report.group,
        "involution": report.involution,
        "suite": report.suite,
        "seed": report.seed,
        "truncation": report.truncation,
        "passed": report.passed,
        "results": [
            {"name": r.name, "status": r.status,
             "witness": r.witness or "", "seed": r.seed}
            for r in report.results
        ],
    }


def report_json(report) -> str:
    return json.dumps(_stringify(report_payload(report)), sort_keys=True,
                      indent=2) + "\n"


def report_text(report) -> str:
    pay = report_payload(report)
    lines = [f"group {pay['group']}  involution {pay['involution']}  "
             f"suite {pay['suite']}  seed {pay['seed']}"]
    for r in pay["results"]:
        line = f"  [{r['status']:>7}] {r['name']}"
        if r["witness"]:
            line += f"  -- {r['witness']}"
        lines.append(line)
    lines.append(f"overall: {'pass' if pay['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
