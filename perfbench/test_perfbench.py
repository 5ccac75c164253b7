"""Tests of the benchmark itself: the output gate, its negative controls,
the speed meter, the tracer and the span reduction.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import layers
import run
import yardstick
from workloads import WORKLOADS, Job, Verdict, check_compute, check_crosscheck, gate


def _run(job, spans=None, seed=3):
    run.OUT.mkdir(parents=True, exist_ok=True)
    return run.run_job(job, seed, time.perf_counter() + 120, spans)


def _failed_frac(results):
    setup = SimpleNamespace(setup_s=0.1, unscaled_s=0.1)
    metrics, _, _ = run.end_to_end([run.Pass(1.0, results)], setup)
    return metrics["failed_frac"]


def test_sensitivity_probe_job_counts_as_failed():
    good = _run(Job("verify", "SU2"))
    probed = _run(Job("verify", "SU2", probe="delta-square"))
    assert good.verdict.ok, good.verdict.reason
    assert not probed.verdict.ok
    assert _failed_frac([good, probed]) == 0.5


def test_altered_reference_counts_as_failed():
    job = WORKLOADS["golden"][0]
    res = _run(job)
    assert res.verdict.ok, res.verdict.reason
    text = job.reference.read_text(encoding="utf-8")  # what the job printed
    altered = job.reference.read_bytes().replace(b'"0"', b'"1"', 1)
    verdict = check_compute(job, text, reference=altered)
    assert not verdict.ok and "reference" in verdict.reason
    assert _failed_frac([res, run.JobResult(job, 1.0, verdict, 0)]) == 0.5


def test_gate_rejects_each_failure_kind():
    job = WORKLOADS["golden"][0]
    good = job.reference.read_text(encoding="utf-8")
    assert gate(job, 1, 0, good).ok
    assert gate(job, 1, None, good).reason == "time cap"
    assert gate(job, 1, 4, good).reason == "exit code 4"
    wrong_split = json.loads(good)
    wrong_split["generators"][0]["kind"] = "dR"
    assert "split" in check_compute(job, json.dumps(wrong_split)).reason
    report = {"passed": True, "group": "SU2", "seed": "1",
              "results": [{"name": "squares", "status": "fail"}]}
    assert not gate(Job("verify", "SU2"), 1, 0, json.dumps(report)).ok
    decision = {"oracle": "R", "catalog": "H", "seconds": 0.1, "window": [0.0, 0.1]}
    assert "disagrees" in check_crosscheck(json.dumps(decision)).reason


def test_tracer_rebinds_every_alias():
    code = ("import tracer; tracer.install('t'); import eqkr, eqkr.cli, eqkr.groups, "
            "eqkr.presentation, eqkr.serialize, eqkr.verifier\n"
            "pairs = [(eqkr.presentation.tensor_decompose, eqkr.groups.tensor_decompose),"
            " (eqkr.cli.run_suite, eqkr.verifier.run_suite),"
            " (eqkr.serialize.rclass_square, eqkr.presentation.rclass_square),"
            " (eqkr.verifier.poincare_table, eqkr.presentation.poincare_table),"
            " (eqkr.character, eqkr.groups.character)]\n"
            "assert all(a is b and hasattr(a, '__wrapped__') for a, b in pairs)\n")
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, env=run.child_env(),
                   check=True, timeout=60)


def test_traced_job_records_layers(tmp_path):
    spans = tmp_path / "spans.json"
    res = _run(Job("compute", "SU3", split=(0, 0, 1)), spans=spans)
    assert res.verdict.ok, res.verdict.reason
    doc = json.loads(spans.read_text())
    assert doc["job"] == "compute:SU3/trivial"
    totals = layers.LayerTotals()
    totals.add_job(doc)
    m = totals.metrics()
    assert m["serialize.presentation_json.total_s"] > 0
    assert m["cli.main.total_s"] >= m["serialize.presentation_json.total_s"]
    assert m["realstruct.classify_type.rule"] + m["realstruct.classify_type.definition"] \
        == m["realstruct.classify_type.calls"]
    assert 0 < m["presentation.tensor_cache.hit_ratio"] < 1


def test_self_time_and_recursion():
    # a(0..10) -> a(1..4) -> b(2..3); a(5..6) is a second call of a
    doc = {"job": "x", "names": ["a", "b", "c"],
           "spans": [[0, 0.0, 10.0, -1, 0, None], [0, 1.0, 4.0, 0, 0, None],
                     [1, 2.0, 3.0, 1, 1, None], [0, 5.0, 6.0, 0, 0, None]]}
    totals = layers.LayerTotals()
    totals.add_job(doc)
    a, b = totals.stats["a"], totals.stats["b"]
    assert (a["calls"], a["self_s"], a["total_s"]) == (3, 9.0, 10.0)
    assert (b["calls"], b["self_s"], b["errors"]) == (1, 1.0, 1)
    assert totals.direct["a", "b"] == 1


def test_times_are_scaled_by_the_ticks_taken_while_they_ran():
    meter = yardstick.SpeedMeter()
    ref = yardstick.TICK_REF_S
    # ticks ending at t = 0..9 s: the machine at half speed until t = 5 s
    meter.ends = [float(t) for t in range(10)]
    meter.durations = [2 * ref] * 5 + [ref] * 5
    assert meter.scale(0.5, 3.5) == 0.5 and meter.scale(5.5, 9.0) == 1.0
    assert meter.median_tick(2.2, 2.4) == 2 * ref  # widened to the nearest ticks

    job = Job("verify", "SU2")
    passes = [run.Pass(s, [run.JobResult(job, s, Verdict(True), 0, scaled)])
              for s, scaled in ((2.0, 1.0), (2.7, 1.4), (9.0, 4.5))]
    setup = SimpleNamespace(setup_s=0.1, unscaled_s=0.2)
    metrics, raw, _ = run.end_to_end(passes, setup)
    assert raw["wall_s"] == 2.7 and metrics["wall_s"] == metrics["job_max_s"] == 1.4
    assert (raw["setup_s"], metrics["setup_s"]) == (0.2, 0.1)

    # oracle decisions are scaled over their own windows, reported by the child
    detail = {"decision_s": [1.0, 2.0], "decision_window": [(0.5, 1.5), (6.0, 8.0)]}
    verdict = Verdict(True, detail=detail)
    for a, b in detail["decision_window"]:
        verdict.detail.setdefault("decision_scaled_s", []).append((b - a) * meter.scale(a, b))
    oracle = run.JobResult(Job("crosscheck", "catalog"), 3.5, verdict, 0)
    metrics, _, _ = run.end_to_end([run.Pass(3.5, [oracle])], setup)
    assert metrics["verify_s"] == 0.5 + 2.0 and metrics["job_max_s"] == 2.0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "golden",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
