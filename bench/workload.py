"""One benchmark repetition: import uwbagsim, run one workload, write a report.

run.py starts this script in a fresh interpreter for every repetition, with
``src`` on PYTHONPATH and the workload's directory under ``.bench_work`` as
the working directory:

    python3 bench/workload.py WORKLOAD --seed S --n N [--out DIR] [--trace] --report FILE

WORKLOAD is ``setup`` (import only), ``roundtrip-all``, ``generate-waveforms``
or ``inverse-scans``. The report records when ``import uwbagsim`` returned
(``time.monotonic``, which is shared by all processes), the CLI exit code,
per-scan CLEAN results, the CPU speed factors of the import and of the whole
process (see speedprobe.py) and, with ``--trace``, per-layer self times.
"""

import time

import speedprobe

PROBE = speedprobe.SpeedProbe().start()

import uwbagsim  # noqa: F401, E402  (set-up ends when this returns)

IMPORTED = time.monotonic()
IMPORT_SAMPLES = len(PROBE.samples_us)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402


def run_inverse_scans(args) -> dict:
    """``analyze`` over the realization CSVs, then CLEAN and segment each scan."""
    from uwbagsim import analysis, cli, waveform

    inputs = Path("inputs")
    realizations = sorted(str(p) for p in inputs.glob("realization_*.csv"))
    rc = cli.main(["analyze", *realizations, "--out", f"{args.out}/report.json"])
    template = waveform.template_pulse()
    scans = []
    for path in sorted(inputs.glob("waveform_*.csv")):
        record = waveform.read_waveform_csv(path)
        taps = analysis.clean_deconvolve(record, template)
        clusters = analysis.identify_clusters(analysis.compute_pdp([record]))
        strongest = max(taps, key=lambda tap: tap.amplitude).delay_ns if taps else None
        significant = analysis.count_significant_mpcs(taps) if taps else 0
        scans.append([path.name, strongest, len(taps), len(clusters), significant])
    return {"rc": rc, "scans": scans}


def run(args) -> dict:
    from uwbagsim import cli

    if args.workload == "setup":
        return {}
    if args.workload == "roundtrip-all":
        return {"rc": cli.main(spec.roundtrip_argv(args.seed, args.n, f"{args.out}/verdict.json"))}
    if args.workload == "generate-waveforms":
        return {"rc": cli.main(spec.generate_argv(args.seed, args.n, args.out))}
    return run_inverse_scans(args)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["setup", *spec.N])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--out", default="out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    tracer = None
    taps_per_realization: list[int] = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(observers={"generator.generate": lambda r: taps_per_realization.append(len(r))})
    try:
        report = run(args)
    finally:
        if tracer is not None:
            tracer.restore()
        PROBE.stop()
    report["imported"] = IMPORTED
    report["speed_setup"] = speedprobe.speed_factor(PROBE.samples_us[:IMPORT_SAMPLES])
    report["speed"] = speedprobe.speed_factor(PROBE.samples_us)
    if tracer is not None:
        report["layers"] = tracer.self_times()
        report["taps_per_realization"] = (
            sum(taps_per_realization) / len(taps_per_realization) if taps_per_realization else 0.0
        )
    Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
