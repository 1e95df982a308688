#!/usr/bin/env python3
"""uwbagsim benchmark: end-to-end CLI workloads in fresh processes.

Run from the repository root:

    python3 bench/run.py --workload roundtrip-all --seed 42 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, seed 42, trace 0

Each repetition is a fresh ``bench/workload.py`` interpreter with the default
``--jobs 1``; repetitions run one at a time until ``--seconds`` is spent, and
never fewer than MIN_REPS. Every repetition's outputs are checked (see
checks.py). With ``--trace 0`` the metrics are end-to-end medians over the
repetitions, with every time scaled to the nominal CPU speed that
speedprobe.py samples inside the child; with ``--trace 1`` one extra, traced
repetition gives per-layer self times. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of each
run goes to ``.bench_work/results/``. NOTES.md explains workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
SETUP_SAMPLES = 5  # extra import-only processes per run, on top of one per repetition
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
    "setup_s": "s",
}

NOTES = {
    "roundtrip-all": [],
    "generate-waveforms": [
        "known defect, not gated: render's noise seed is seed + index, so scan 0's noise "
        "is drawn from realization 1's tap stream (noise-stream overlap, ROADMAP item 4)",
    ],
    "inverse-scans": [
        "known defect, not gated: analyze fits the direct path as scatter (ROADMAP item 4) "
        "and this cell keeps the 48 dB cut (about 2 taps per realization), so its estimates "
        "sit far from the table; ray decay reads about 15-18 against 8.7",
    ],
}


def spawn(work: Path, child_args: list[str]) -> dict:
    """Run one ``workload.py`` process in ``work``; time it and collect its report.

    ``wall_s``, ``cpu_s`` and ``setup_s`` are scaled by the child's measured
    CPU speed (see speedprobe.py); the ``raw_`` keys hold the measured values.
    """
    report_path = work / "child.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), *child_args, "--report", str(report_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "child.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    if proc.returncode != 0:
        report = None
    cpu = usage.ru_utime + usage.ru_stime
    setup = report["imported"] - start if report else None
    speed = report["speed"] if report else 1.0
    return {
        "wall_s": wall * speed,
        "cpu_s": cpu * speed,
        "setup_s": setup * report["speed_setup"] if report else None,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "raw_setup_s": setup,
        "speed": speed,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "report": report,
    }


def mean_file_size(directory: Path, pattern: str) -> float:
    sizes = [p.stat().st_size for p in directory.glob(pattern)]
    return sum(sizes) / len(sizes) if sizes else 0.0


class Workload:
    """One workload's set-up, checked repetitions and metrics for one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.n = spec.N[name]
        self.work = WORK / name
        self.reference_digest = None
        self.truth: dict = {}
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> None:
        import checks

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        spawn(self.work, ["setup"])  # fills the bytecode and page caches; untimed
        if self.name == "inverse-scans":
            input_seed = self.seed + spec.INPUT_SEED_OFFSET
            spawn(self.work, ["generate-waveforms", "--seed", str(input_seed),
                              "--n", str(self.n), "--out", "inputs"])
            self.truth = checks.direct_path_delays(self.work / "inputs", self.n)

    def repetition(self, trace: bool) -> dict:
        """One checked fresh-process run; its outputs are deleted afterwards."""
        import checks

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        args = [self.name, "--seed", str(self.seed), "--n", str(self.n)]
        rep = spawn(self.work, args + (["--trace"] if trace else []))
        rc = rep["report"]["rc"] if rep["report"] else None
        if self.name == "roundtrip-all":
            attempted, failed = checks.check_roundtrip(out, rc)
            rep["items"] = attempted * self.n
            rep["bytes_per_scan"] = 0.0
        elif self.name == "generate-waveforms":
            attempted, failed, digest = checks.check_generate(out, self.n, rc, self.reference_digest)
            self.reference_digest = self.reference_digest or digest
            rep["items"] = self.n
            rep["bytes_per_scan"] = mean_file_size(out, "waveform_*.csv")
        else:
            scans = rep["report"]["scans"] if rep["report"] else []
            attempted, failed = checks.check_inverse(out, rc, scans, self.truth)
            rep["items"] = self.n
            rep["bytes_per_scan"] = mean_file_size(self.work / "inputs", "waveform_*.csv")
            rep["direct_path_hits"] = checks.direct_path_hits(scans, self.truth)
            rep["clean_taps"] = sum(row[2] for row in scans)
            rep["estimates"] = checks.estimate_errors(out)
        rep["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        rep["attempted"], rep["failed"] = attempted, failed
        self.attempted += attempted
        self.failed += failed
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def clean_up(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> dict:
    """Metric name -> (median, samples), for the BENCHMARK.json metrics."""
    values = {
        "wall_s": [r["wall_s"] for r in reps],
        "realizations_per_s": [r["items"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "output_bytes": [r["output_bytes"] for r in reps],
        "setup_s": setups,
    }
    return {name: (statistics.median(v), v) for name, v in values.items()}


def raw_samples(reps: list[dict], setup_runs: list[dict]) -> dict:
    """Measured, unscaled times and the speed factors, kept in the run's record."""
    return {
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        "raw_cpu_s": [r["raw_cpu_s"] for r in reps],
        "raw_setup_s": [r["raw_setup_s"] for r in reps + setup_runs],
        "speed": [r["speed"] for r in reps],
    }


def per_layer_metrics(traced: dict, untraced_walls: list[float], n_scans: int) -> dict:
    report = traced["report"] or {}
    layers = report.get("layers", {})
    metrics = {}
    total_self = 0.0
    for layer in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        total_self += self_s
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    metrics["generator.taps_per_realization"] = (report.get("taps_per_realization", 0.0), "count")
    metrics["waveform.bytes_per_scan"] = (traced["bytes_per_scan"], "B")
    scans = n_scans if "direct_path_hits" in traced else 0
    metrics["analysis.clean_taps_per_scan"] = (traced["clean_taps"] / scans if scans else 0.0, "count")
    metrics["analysis.clean_los_hit_ratio"] = (
        traced["direct_path_hits"] / scans if scans else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.median(untraced_walls), "s")
    active = traced["raw_wall_s"] - (traced["raw_setup_s"] or 0.0)  # self times are unscaled
    metrics["trace.self_coverage"] = (total_self / active if active > 0 else 0.0, "ratio")
    return metrics


def git_state() -> tuple:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(workload: Workload, tracing_overhead_s) -> dict:
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": workload.name,
        "seed": workload.seed,
        "n": workload.n,
        "jobs": 1,
        "tracing_overhead_s": tracing_overhead_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = Workload(name, seed)
    workload.set_up()
    started = time.monotonic()
    traced = workload.repetition(trace=True) if trace else None
    reps: list[dict] = []
    while True:
        reps.append(workload.repetition(trace=False))
        elapsed = time.monotonic() - started
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    if trace:
        metrics = per_layer_metrics(traced, [r["wall_s"] for r in reps], workload.n)
        overhead = metrics["trace.overhead_s"][0]
    else:
        setup_runs = [spawn(workload.work, ["setup"]) for _ in range(SETUP_SAMPLES)]
        setups = [r["setup_s"] for r in reps + setup_runs if r["setup_s"] is not None] or [0.0]
        e2e = end_to_end_metrics(reps, setups)
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, (value, _) in e2e.items()}
        raw = raw_samples(reps, setup_runs)
        overhead = None
    workload.clean_up()
    notes = list(NOTES[name])
    estimates = (traced or reps[-1]).get("estimates")
    if estimates:
        notes.append("analyze estimates vs table cell (not gated): " + ", ".join(
            f"{k} {v['estimated']:.4g} vs {v['table']:g} ({v['rel_error']:+.1%})"
            for k, v in estimates.items()))
    return {
        "workload": name,
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "samples": None if trace else {k: v for k, (_, v) in e2e.items()},
        "raw_samples": None if trace else raw,
        "repetitions": len(reps),
        "notes": notes,
        "provenance": provenance(workload, overhead),
    }


def print_summary(result: dict) -> None:
    prov = result["provenance"]
    print(f"== {result['workload']}  seed {prov['seed']}  n {prov['n']}  "
          f"{result['repetitions']} fresh-process repetitions, --jobs 1")
    samples = result["samples"] or {}
    for name, (value, unit) in result["metrics"].items():
        line = f"  {name:44s} {value:14.6g} {unit}"
        values = samples.get(name)
        if values and len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"   (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    frac = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"  {'failed_frac':44s} {frac:14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, values in (result["raw_samples"] or {}).items():
        values = [v for v in values if v is not None]
        if values:
            print(f"  {name:44s} {statistics.median(values):14.6g}   (median of {len(values)}, "
                  f"unscaled; not a BENCHMARK.json metric)")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *spec.N])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uwbagsim" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no uwbagsim sources in {SRC}; run it from a repository checkout")
    sys.path.insert(0, str(SRC))  # checks.py reads outputs with the uwbagsim under test

    names = list(spec.N) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(result)
        results.append(result)
        record = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(result, indent=1) + "\n")

    def metric_name(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            metric_name(r, name): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
