"""eqkr benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One client runs a workload's job list one job at a time, each CLI job in a
fresh interpreter, and repeats whole passes until --seconds have elapsed.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The benchmark pins itself
and its jobs to one CPU and reports every time at the reference speed of
the speed meter in yardstick.py.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import yardstick
from cli_job import PEAK_PREFIX
from workloads import WORKLOADS, Job, Verdict, gate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"

HASH_SEED = "0"
SETUP_SAMPLES = 15
# One BLAS thread in every process.  With one thread per core OpenBLAS
# threads spin on each other, and any other load on the host stretched a
# 0.05 s SVD to over 3 s (README.md, "Steadiness").
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
JOB_CAP_S = 60.0
RUN_BUDGET_S = 165.0  # a stuck job is cut so that a run ends within 180 s

END_TO_END = [  # (name, unit); the bounds live in BENCHMARK.json
    ("wall_s", "s"), ("verify_s", "s"), ("job_max_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# Printed and recorded, but not gated.  compute_s is 0 on oracle-crosscheck
# and failed_frac is 0 at a correct commit, so neither has a median to bound;
# job_p50_s falls in a gap between job sizes on lie-heavy and
# oracle-crosscheck and jumps between runs (README.md, "Steadiness").
REPORTED = [("compute_s", "s"), ("job_p50_s", "s"), ("failed_frac", "ratio")]

SETUP_PROBES = {  # what "ready" means for a workload's processes
    "oracle-crosscheck": "import numpy, eqkr.oracle",
}
CLI_SETUP = "import eqkr.cli"


class ProgramMissing(RuntimeError):
    """The checkout has no eqkr sources to benchmark."""


@dataclass
class JobResult:
    job: Job
    seconds: float
    verdict: Verdict
    rss_kib: int
    scaled_s: float | None = None  # seconds at the speed meter's reference speed

    def __post_init__(self):
        if self.scaled_s is None:
            self.scaled_s = self.seconds


@dataclass
class Pass:
    seconds: float
    results: list


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.update(BLAS_ENV)
    return env


class SetupProbe:
    """Times fresh interpreters from spawn until eqkr is imported and ready.

    The samples are spread over the whole run rather than taken in one
    burst, and each is scaled by the speed meter over its own window.
    """

    def __init__(self, workload, seconds, meter):
        self.code = SETUP_PROBES.get(workload, CLI_SETUP) + "; print('ready', flush=True)"
        self.interval = seconds / SETUP_SAMPLES
        self.meter = meter
        self.samples = []  # (seconds, scaled seconds)
        self.t0 = time.perf_counter()
        self._spawn()  # the first spawn writes bytecode caches; not counted

    def _spawn(self):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise ProgramMissing(f"cannot import eqkr from {SRC}")
        return t1 - t0, (t1 - t0) * self.meter.scale(t0, t1)

    def sample_if_due(self):
        due = len(self.samples) * self.interval
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.t0 >= due:
            self.samples.append(self._spawn())

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(self._spawn())
        return self

    @property
    def setup_s(self):
        return statistics.median(scaled for _, scaled in self.samples)

    @property
    def unscaled_s(self):
        return statistics.median(raw for raw, _ in self.samples)


def job_command(job: Job, seed, spans):
    if job.kind == "crosscheck":
        return [sys.executable, str(BENCH / "crosscheck.py"), str(seed)] + (
            [str(spans)] if spans else [])
    args = job.cli_args(seed)
    if spans:
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), job.name] + args
    return [sys.executable, str(BENCH / "cli_job.py")] + args


def run_job(job: Job, seed, deadline, spans=None, meter=None) -> JobResult:
    out_path, err_path = (OUT / f"job-{os.getpid()}.{ext}" for ext in ("stdout", "stderr"))
    cap = max(min(JOB_CAP_S, deadline - time.perf_counter()), 0.001)
    if spans:
        spans.unlink(missing_ok=True)  # a killed job writes none
    expired = threading.Event()
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(job_command(job, seed, spans), stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
    killer = threading.Timer(cap, lambda: (expired.set(), proc.kill()))
    killer.start()
    try:
        # a blocking wait: Popen.wait(timeout) polls with a back-off of up
        # to 50 ms, which would quantise every job time
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.perf_counter()
    seconds = t1 - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if expired.is_set() else proc.returncode
    verdict = gate(job, seed, rc, out_path.read_text(encoding="utf-8"))
    scale = meter.scale(t0, t1) if meter else 1.0
    if "decision_window" in verdict.detail:  # the child's clock is the same monotonic clock
        verdict.detail["decision_scaled_s"] = [
            (b - a) * (meter.scale(a, b) if meter else 1.0)
            for a, b in verdict.detail["decision_window"]]
    rss_kib, stderr = usage.ru_maxrss, []
    for line in err_path.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith(PEAK_PREFIX):
            rss_kib = int(line.split()[1])
        elif line.strip():
            stderr.append(line)
    if not verdict.ok and stderr:
        verdict.reason += f" (stderr: {stderr[-1]})"
    out_path.unlink()
    err_path.unlink()
    return JobResult(job, seconds, verdict, rss_kib, seconds * scale)


def run_pass(jobs, seed, deadline, spans_dir=None, between=None, meter=None) -> Pass:
    """One sweep over the job list; ``between`` runs before each job, untimed."""
    seconds = 0.0
    results = []
    for i, job in enumerate(jobs):
        if between is not None:
            between()
        t0 = time.perf_counter()
        spans = spans_dir / f"{i}.json" if spans_dir else None
        results.append(run_job(job, seed, deadline, spans, meter))
        seconds += time.perf_counter() - t0
    return Pass(seconds, results)


def typical_times(passes, scaled=True):
    """Each job's median time over the run's passes, and each oracle decision's.

    With ``scaled`` the times are at the speed meter's reference speed,
    each scaled by the ticks taken while it ran (see yardstick.py).
    """
    key = "decision_scaled_s" if scaled else "decision_s"
    jobs, decisions = {}, {}
    for p in passes:
        for r in p.results:
            jobs.setdefault(r.job, []).append(r.scaled_s if scaled else r.seconds)
            for i, s in enumerate(r.verdict.detail.get(key, ())):
                decisions.setdefault(i, []).append(s)
    return ({j: statistics.median(v) for j, v in jobs.items()},
            [statistics.median(v) for v in decisions.values()])


def _reduce(jobs, decisions):
    samples = decisions or list(jobs.values())  # oracle decisions count as jobs
    return {
        "wall_s": sum(jobs.values()),
        "verify_s": sum(s for j, s in jobs.items() if j.kind == "verify") + sum(decisions),
        "job_p50_s": statistics.median(samples),
        "job_max_s": max(samples),
        "compute_s": sum(s for j, s in jobs.items() if j.kind == "compute"),
    }


def end_to_end(passes, setup):
    """End-to-end metrics at reference speed, the same unscaled, and the sample count."""
    jobs, decisions = typical_times(passes)
    metrics = _reduce(jobs, decisions)
    raw = _reduce(*typical_times(passes, scaled=False))
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.verdict.ok for p in passes for r in p.results)
    metrics.update({
        "setup_s": setup.setup_s,
        "peak_rss_mb": max(r.rss_kib for p in passes for r in p.results) / 1024,
        "failed_frac": failed / attempted,
    })
    raw["setup_s"] = setup.unscaled_s
    return metrics, raw, len(decisions or jobs)


def _blas_threads():
    try:
        import numpy  # noqa: F401  (loads the BLAS library)
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except (ImportError, OSError):
        return None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_commit():
    if not (ROOT / ".git").exists():  # a plain checkout: git would look upwards
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload, seed):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "PYTHONHASHSEED": HASH_SEED,
        "workload": workload,
        "seed": seed,
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _source_commit(),
        "src_sha256": _source_digest(),
    }


def run_workload(workload, seed, seconds, trace):
    jobs = WORKLOADS[workload]
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    with yardstick.SpeedMeter() as meter:
        if not trace:
            setup = SetupProbe(workload, seconds, meter)
            passes = []
            t0 = time.perf_counter()
            while not passes or time.perf_counter() - t0 < seconds:
                passes.append(run_pass(jobs, seed, deadline, between=setup.sample_if_due,
                                       meter=meter))
            metrics, raw, n_jobs = end_to_end(passes, setup.finish())
            units = dict(END_TO_END + REPORTED)
            notes = {"passes": len(passes), "timed_jobs": n_jobs,
                     "ticks": len(meter.durations),
                     "tick_median_s": statistics.median(meter.durations),
                     "unscaled": raw,
                     "pass_s": [p.seconds for p in passes],
                     "job_s": {r.job.name: [q.results[i].seconds for q in passes]
                               for i, r in enumerate(passes[0].results)},
                     "job_scaled_s": {r.job.name: [q.results[i].scaled_s for q in passes]
                                      for i, r in enumerate(passes[0].results)},
                     "setup_samples_s": setup.samples,
                     "wait_time": "not applicable: one client, one process, no queues"}
        else:
            spans_dir = OUT / "spans" / workload
            spans_dir.mkdir(parents=True, exist_ok=True)
            passes, traced, per_pass = [], [], []
            t0 = time.perf_counter()
            while not traced or time.perf_counter() - t0 < seconds:
                passes.append(run_pass(jobs, seed, deadline, meter=meter))
                traced.append(run_pass(jobs, seed, deadline, spans_dir, meter=meter))
                totals = layers.LayerTotals()
                for path in spans_dir.glob("*.json"):
                    totals.add_file(path)
                per_pass.append(totals.metrics())
            metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            untraced_s = sum(typical_times(passes)[0].values())
            metrics["trace.overhead_frac"] = sum(typical_times(traced)[0].values()) / untraced_s - 1
            units = {name: unit for name, unit, _ in layers.metric_specs()}
            notes = {"pairs": len(traced), "untraced_wall_s": untraced_s,
                     "spans": str(spans_dir.relative_to(ROOT))}
            passes += traced
    failures = [(r.job.name, r.verdict.reason) for p in passes for r in p.results
                if not r.verdict.ok]
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "environment": environment(workload, seed),
        "notes": notes,
        "failures": failures,
        "attempted": sum(len(p.results) for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_result(res):
    print(f"# {res['workload']} trace={res['trace']} env={json.dumps(res['environment'])}")
    print(f"# {json.dumps({k: v for k, v in res['notes'].items() if not isinstance(v, (list, dict))})}")
    if "unscaled" in res["notes"]:
        print(f"# unscaled {json.dumps(res['notes']['unscaled'])}")
    for name, failure in res["failures"]:
        print(f"# FAILED {name}: {failure}")
    for name, m in res["metrics"].items():
        print(f"{res['workload']:>18} {name:<48} {m['value']:>14.6g} {m['unit']}")


def contract_line(res, trace):
    if trace:
        keep = [name for name, _, _ in layers.metric_specs()]
    else:
        keep = [name for name, _ in END_TO_END]
    failed = len(res["failures"])
    return json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                       "failed": failed,
                       "metrics": {k: res["metrics"][k] for k in keep}})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced, and write --out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT / "all.json",
                    help="results file written by --all")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    if not (SRC / "eqkr" / "cli.py").is_file():
        print(f"error: no eqkr sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ.update(BLAS_ENV)  # before this process loads numpy, so the record is true
    yardstick.pin_to_one_cpu()  # the jobs and the speed meter share one CPU
    try:
        if args.all:
            results = [run_workload(w, args.seed, args.seconds, t)
                       for w in WORKLOADS for t in (0, 1)]
            for res in results:
                print_result(res)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps({"claim": None, "results": results}, indent=1)
                                + "\n", encoding="utf-8")
            print(f"# wrote {args.out}")
            return 0 if not any(r["failures"] for r in results) else 1
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n", encoding="utf-8")
    print_result(res)
    print(contract_line(res, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
