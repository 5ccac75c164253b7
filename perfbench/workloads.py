"""Workload job lists and the output gate that decides whether a job failed.

A job is one `eqkr compute` / `eqkr verify` invocation in a fresh
interpreter, or (on `oracle-crosscheck`) one process that runs the
matrix oracle against the catalog rule.  The gate is the only place that
reads program output; everything it rejects counts towards `failed_frac`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``kind`` is "compute", "verify" or "crosscheck".  ``split`` is the
    hand-written (r, s, t) a compute job must report.
    """

    kind: str
    group: str
    involution: str = "trivial"
    suite: str = "all"
    split: tuple | None = None
    probe: str | None = None

    @property
    def name(self):
        base = f"{self.kind}:{self.group}/{self.involution}"
        if self.kind == "verify" and self.suite != "all":
            base += f":{self.suite}"
        return base + (f":probe={self.probe}" if self.probe else "")

    @property
    def reference(self) -> Path:
        inv = self.involution.replace(",", "+")
        return REFERENCE_DIR / f"{self.group}_{inv}.json"

    def cli_args(self, seed: int) -> list:
        args = [self.kind, "--group", self.group, "--involution", self.involution]
        if self.kind == "compute":
            # compute runs at its default seed, the one the reference bytes
            # were captured with
            return args + ["--format", "json"]
        args += ["--suite", self.suite, "--seed", str(seed)]
        if self.probe:
            args += ["--sensitivity-probe", self.probe]
        return args


def _compute(group, involution, split):
    return Job("compute", group, involution, split=split)


def _verify(group, involution="trivial", suite="all"):
    return Job("verify", group, involution, suite=suite)


GOLDEN_CASES = [("SU2", "trivial", (0, 1, 0)), ("SU3", "sigmaR", (2, 0, 0)),
                ("SU4", "sigmaH", (1, 2, 0)), ("Sp2", "trivial", (1, 1, 0)),
                ("SU3", "trivial", (0, 0, 1))]

WORKLOADS = {
    # the set users and tests run most; interpreter start dominates
    "golden": [job for g, inv, split in GOLDEN_CASES
               for job in (_compute(g, inv, split), _verify(g, inv))]
              + [_verify("U2", suite="weyl")],
    # few, huge character computations: the Freudenthal/Brauer-Klimyk kernel
    "lie-heavy": [_verify("Spin8"), _verify("Sp4"), _verify("G2"),
                  _compute("SU6", "trivial", (0, 1, 2))],
    # tens of thousands of small calls: per-call overhead and caches, torus
    "products": [_verify("SU2xSU2", "trivial,sigmaR"), _verify("SU3xSU3"),
                 _verify("SU3xSU3", "trivial,sigmaR"), _verify("Sp2xSU2"),
                 _verify("U3", "sigmaR"), _verify("U4", "sigmaH"),
                 _compute("SU2xSU2", "trivial,sigmaR", (1, 1, 0)),
                 _compute("SU3xSU3", "trivial", (0, 0, 2))],
    # the only floating-point layer; no CLI path reaches it
    "oracle-crosscheck": [Job("crosscheck", "catalog")],
}

# (group, involution) pairs with a matrix model whose self-twisted-dual
# fundamentals the crosscheck decides; 22 decisions in all
ORACLE_CASES = ([(f"SU{n}", inv) for n in range(2, 6) for inv in ("trivial", "sigmaR")]
                + [("SU2", "sigmaH"), ("SU4", "sigmaH")]
                + [(f"Sp{n}", "trivial") for n in range(1, 4)])
ORACLE_DECISIONS = 22


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    detail: dict = field(default_factory=dict)


def _fail(reason):
    return Verdict(False, reason)


def check_verify(job: Job, seed: int, text: str) -> Verdict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail(f"verify output is not JSON: {exc}")
    if report.get("passed") is not True:
        return _fail("report not passed")
    results = report.get("results") or []
    if not results:
        return _fail("report has no checks")
    bad = [r.get("name") for r in results if r.get("status") != "pass"]
    if bad:
        return _fail(f"checks not pass: {bad}")
    if report.get("seed") != str(seed) or report.get("group") != job.group:
        return _fail("report does not echo the requested group and seed")
    return Verdict(True)


def check_compute(job: Job, text: str, reference: bytes | None = None) -> Verdict:
    """Hand-written expectations first, then byte equality with the reference."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail(f"compute output is not JSON: {exc}")
    gens = doc.get("generators", [])
    split = tuple(sum(1 for g in gens if g.get("kind") == k) for k in ("dR", "dH", "lam"))
    if split != job.split:
        return _fail(f"split {split} != expected {job.split}")
    if doc.get("omega_form") is not (split[2] == 0):
        return _fail("omega_form does not match t == 0")
    squares = {f"{g['name']}^2" for g in gens}
    rels = {r["lhs"]: r["rhs"] for r in doc.get("relations", [])}
    if not squares <= rels.keys():
        return _fail("a generator-square relation is missing")
    nonzero = sorted(lhs for lhs in squares if rels[lhs] != "0")
    if nonzero:
        return _fail(f"generator squares not zero: {nonzero}")
    if reference is None:
        reference = job.reference.read_bytes()
    if text.encode("utf-8") != reference:
        return _fail(f"output differs from reference {job.reference.name}")
    return Verdict(True)


def check_crosscheck(text: str) -> Verdict:
    """Every oracle decision must equal the catalog rule, and all must run."""
    try:
        decisions = [json.loads(line) for line in text.splitlines() if line.strip()]
        wrong = [d for d in decisions if d["oracle"] != d["catalog"]]
        seconds = [float(d["seconds"]) for d in decisions]
        windows = [(float(d["window"][0]), float(d["window"][1])) for d in decisions]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"crosscheck output is malformed: {exc!r}")
    if wrong:
        return _fail(f"oracle disagrees with catalog: {wrong}")
    if len(decisions) != ORACLE_DECISIONS:
        return _fail(f"{len(decisions)} decisions, expected {ORACLE_DECISIONS}")
    return Verdict(True, detail={"decision_s": seconds, "decision_window": windows})


def gate(job: Job, seed: int, returncode: int | None, text: str) -> Verdict:
    """Decide one job; ``returncode`` None means the job hit its time cap."""
    if returncode is None:
        return _fail("time cap")
    if returncode != 0:
        return _fail(f"exit code {returncode}")
    if job.kind == "verify":
        return check_verify(job, seed, text)
    if job.kind == "compute":
        return check_compute(job, text)
    return check_crosscheck(text)
