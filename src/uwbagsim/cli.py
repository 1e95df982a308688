"""Command-line front end.

Subcommands: ``tables`` (dump the embedded parameter tables), ``generate``
(batch channel synthesis with a reproducibility manifest), ``analyze``
(re-extract statistics from realization files), ``pathloss`` (deterministic
geometry sweeps), and ``roundtrip`` (generate -> estimate -> compare against
the tables).

Exit codes: 0 success, 1 roundtrip verdict failure, 2 configuration error,
3 I/O error, 4 malformed input file. All randomized commands take an
explicit ``--seed``; without one the ``CHANSIM_DEFAULT_SEED`` environment
variable is honored, or a fresh seed is drawn and announced on stderr.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import math
import os
import secrets
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import analysis_report, estimate_params
from .core import (
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    ScenarioParams,
    chunk_ranges,
    iter_table_cells,
    lookup_params,
    tables_as_dict,
)
from .errors import MalformedFile, UnknownCell, UwbAgSimError
from .generator import (
    AmplitudeFading,
    DecayMode,
    GeneratorConfig,
    _atomic_write_text,
    generate,  # noqa: F401  (kept as cli.generate, an alias bench/tracer.py wraps)
    generate_ensemble,
    read_realization_csv,
    write_realization_csv,
)
from .geometry import DEFAULT_XPD_DB, ElevationPattern, LinkGeometry, polarization_power_loss
from .linkbudget import (
    DEFAULT_RADIO,
    link_margin_db,
    los_amplitude,
    path_loss_db,
    reference_power,
)
from .simulate import LinkScenario, realize_batch
from .waveform import SamplingGrid, render, write_waveform_csv

SEED_ENV_VAR = "CHANSIM_DEFAULT_SEED"

# Round-trip acceptance tolerances: relative error on the recovered rates
# and decay constants.
RATE_TOLERANCE = 0.15
DECAY_TOLERANCE = 0.20
RECOMMENDED_MIN_REALIZATIONS = 100


class ConfigError(UwbAgSimError):
    """Bad command configuration; maps to exit code 2."""


# --- Run configuration -------------------------------------------------------

CONFIG_DEFAULTS = {
    "scenario": None,
    "receiver": "RX1",
    "orientation": "VV",
    "x_m": None,
    "h_m": None,
    "n_realizations": 1,
    "seed": None,
    "decay_mode": DecayMode.RATE.value,
    "amplitude_fading": AmplitudeFading.DETERMINISTIC.value,
    "xpd_db": DEFAULT_XPD_DB,
    "snr_db": None,
    "window_ns": 100.0,
    "dynamic_range_db": 48.0,
    "out_dir": "realizations",
    "params": None,
    "waveforms": False,
    "jobs": 1,
}

CONFIG_FIELDS = tuple(CONFIG_DEFAULTS)


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer defaults < config file < manifest < explicit flags."""
    merged = dict(CONFIG_DEFAULTS)
    for source_path, key in ((getattr(args, "config", None), None),
                             (getattr(args, "from_manifest", None), "config")):
        if source_path is None:
            continue
        try:
            with open(source_path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {source_path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise MalformedFile(str(source_path), exc.lineno, exc.msg) from None
        if key is not None:
            doc = doc.get(key, {})
        unknown = set(doc) - set(CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields in {source_path}: {sorted(unknown)}")
        params = doc.get("params")
        if isinstance(params, dict):
            doc["params"] = _params_from_doc(params, source_path)
        elif params is not None and not isinstance(params, str):
            # only a path names a params file: an integer would open a descriptor
            raise MalformedFile(str(source_path), 0, "params must be a path or a mapping")
        merged.update(doc)
    for field in CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            merged[field] = value
    return merged


def _resolve_seed(seed, announce: bool = True) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    fresh = secrets.randbits(63)
    if announce:
        print(f"seed = {fresh} (auto-generated; pass --seed to reproduce)", file=sys.stderr)
    return fresh


def _parse_enum(enum_cls, value, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"invalid {what} {value!r}; choose from: {valid}") from None


def _params_from_doc(doc, source) -> ScenarioParams:
    """Parameters from a JSON mapping read from ``source``.

    Every field must be finite and > 0; ``ScenarioParams`` itself accepts
    any values, so this is the check for parameters from outside.
    """
    try:
        params = ScenarioParams.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:  # a missing or non-numeric field
        raise MalformedFile(str(source), 0, f"bad params: {exc!r}") from None
    bad = [name for name, value in params.as_dict().items() if not 0 < value < math.inf]
    if bad:
        raise MalformedFile(str(source), 0, f"params must be finite and > 0: {', '.join(bad)}")
    return params


def _load_params_file(path) -> ScenarioParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read params file {path}: {exc}") from None
    except ValueError as exc:  # JSON syntax or text encoding
        raise MalformedFile(str(path), 0, f"bad params file: {exc}") from None
    return _params_from_doc(doc, path)


def _xpd_db(value) -> float:
    """The cross-polarization discrimination option; negative or NaN exits 2."""
    try:
        xpd_db = float(value)
        polarization_power_loss(Orientation.VH, xpd_db)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return xpd_db


def _scenario_from_config(cfg: dict) -> tuple[LinkScenario, GeneratorConfig]:
    if cfg["scenario"] is None:
        raise ConfigError("--scenario is required")
    if cfg["x_m"] is None or cfg["h_m"] is None:
        raise ConfigError("--x and --h are required")
    scenario = _parse_enum(Scenario, cfg["scenario"], "scenario")
    receiver = _parse_enum(Receiver, cfg["receiver"], "receiver")
    orientation = _parse_enum(Orientation, cfg["orientation"], "orientation")
    try:
        link = LinkConfig(receiver, orientation, float(cfg["x_m"]), float(cfg["h_m"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    xpd_db = _xpd_db(cfg["xpd_db"])

    pattern = None
    if cfg.get("pattern_file"):
        pattern = ElevationPattern.from_csv(cfg["pattern_file"])

    if cfg["params"] is not None:
        params = (
            cfg["params"]
            if isinstance(cfg["params"], ScenarioParams)
            else _load_params_file(cfg["params"])
        )
        link_scenario = LinkScenario(scenario, link, params, xpd_db=xpd_db, pattern=pattern)
    else:
        try:
            link_scenario = LinkScenario.from_tables(
                scenario, link, xpd_db=xpd_db, pattern=pattern
            )
        except UnknownCell as exc:
            raise ConfigError(f"{exc} (pass --params-file for free geometry)") from None

    try:
        gen_config = GeneratorConfig(
            window_ns=float(cfg["window_ns"]),
            decay_mode=_parse_enum(DecayMode, cfg["decay_mode"], "decay mode"),
            amplitude_fading=_parse_enum(
                AmplitudeFading, cfg["amplitude_fading"], "amplitude fading"
            ),
            dynamic_range_db=float(cfg["dynamic_range_db"]),
            seed=int(cfg["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return link_scenario, gen_config


# --- generate ----------------------------------------------------------------


def _worker_generate(payload) -> list[str]:
    link_scenario, gen_config, indices, out_dir, snr_db, waveforms = payload
    grid = SamplingGrid(window_ns=gen_config.window_ns)
    names = []
    for index, realization in zip(indices, realize_batch(link_scenario, gen_config, indices)):
        names.append(f"realization_{index:05d}.csv")
        write_realization_csv(realization, Path(out_dir) / names[-1])
        if waveforms:
            record = render(realization, grid, snr_db=snr_db, noise_seed=gen_config.seed + index)
            write_waveform_csv(record, Path(out_dir) / f"waveform_{index:05d}.csv")
    return names


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    cfg["seed"] = _resolve_seed(cfg["seed"])
    n = int(cfg["n_realizations"])
    if n < 1:
        raise ConfigError(f"n_realizations must be >= 1, got {n}")
    jobs = max(1, int(cfg["jobs"]))
    cfg["pattern_file"] = getattr(args, "pattern_file", None)
    link_scenario, gen_config = _scenario_from_config(cfg)
    if cfg["params"] is not None:
        # resolve a params-file path into values so the manifest alone
        # reproduces the run
        cfg["params"] = link_scenario.params.as_dict()
    snr_db = None if cfg["snr_db"] is None else float(cfg["snr_db"])
    if snr_db is not None and not math.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    payloads = [
        (link_scenario, gen_config, indices, str(out_dir), snr_db, bool(cfg["waveforms"]))
        for indices in chunk_ranges(n)
    ]
    if jobs == 1:
        files = [name for p in payloads for name in _worker_generate(p)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            files = [name for names in pool.map(_worker_generate, payloads) for name in names]

    manifest = {
        "tool": "uwbagsim",
        "version": __version__,
        "command": "generate",
        "config": {k: cfg[k] for k in CONFIG_FIELDS},
        "files": sorted(files),
    }
    _atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {n} realization(s) to {out_dir} (seed {cfg['seed']})")
    return 0


# --- analyze -----------------------------------------------------------------


def _expand_inputs(patterns: Sequence[str]) -> list[str]:
    paths: list[str] = []
    for pattern in patterns:
        hits = sorted(globmod.glob(pattern))
        if hits:
            paths.extend(hits)
        elif os.path.exists(pattern):
            paths.append(pattern)
    return sorted(dict.fromkeys(paths))


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0 < args.threshold_frac <= 1:
        raise ConfigError(f"threshold_frac must lie in (0, 1], got {args.threshold_frac}")
    for name in ("rise_fall_db", "min_peak_to_fall_ns"):
        if not 0 <= getattr(args, name) < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {getattr(args, name)}")
    paths = _expand_inputs(args.inputs)
    if not paths:
        raise ConfigError(f"no input files match {args.inputs}")
    window = float(args.window_ns)
    decay_mode = _parse_enum(DecayMode, args.decay_mode, "decay mode")
    # the grid checks the window before any input is read, so a bad window
    # is a configuration error and not a malformed file
    try:
        grid = SamplingGrid(window_ns=window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    realizations = [read_realization_csv(p, window_ns=window) for p in paths]
    try:
        report = analysis_report(
            realizations,
            decay_mode=decay_mode,
            grid=grid,
            smoothing_window_samples=int(args.smoothing_window),
            rise_fall_db=float(args.rise_fall_db),
            min_peak_to_fall_ns=float(args.min_peak_to_fall_ns),
            threshold_frac=float(args.threshold_frac),
            config_echo={
                "inputs": paths,
                "window_ns": window,
                "decay_mode": decay_mode.value,
                "smoothing_window_samples": int(args.smoothing_window),
                "rise_fall_db": float(args.rise_fall_db),
                "min_peak_to_fall_ns": float(args.min_peak_to_fall_ns),
                "threshold_frac": float(args.threshold_frac),
            },
        )
    except ValueError as exc:  # window or smoothing window the grid cannot hold
        raise ConfigError(str(exc)) from None
    _atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")

    est = report["estimates"]
    print(f"analyzed {len(paths)} realization(s); report -> {args.out}")
    print(f"  significant MPCs (avg):    {report['significant_mpc_avg']:.3f}")
    print(f"  identified clusters:       {len(report['clusters'])}")
    if "error" in est:
        print(f"  parameter estimates:       unavailable ({est['error']})")
    else:
        print(f"  mean cluster count:        {est['n_clusters_hat']:.3f}")
        print(f"  cluster rate (1/ns):       {est['cluster_rate_per_ns_hat']:.5f}")
        print(f"  cluster decay:             {est['cluster_decay_hat']:.4f}")
        print(f"  ray rate (1/ns):           {est['ray_rate_per_ns_hat']:.5f}")
        print(f"  ray decay:                 {est['ray_decay_hat']:.4f}")
    return 0


# --- pathloss ----------------------------------------------------------------


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid {what} list: {text!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def cmd_pathloss(args: argparse.Namespace) -> int:
    xs = _parse_float_list(args.x, "x")
    hs = _parse_float_list(args.h, "h")
    if not all(0 < x < math.inf for x in xs):
        raise ConfigError("horizontal distances must be finite and > 0")
    if not all(0 < h < math.inf for h in hs):
        raise ConfigError("heights must be finite and > 0")
    xpd_db = _xpd_db(args.xpd_db)
    orientations = [
        _parse_enum(Orientation, o.strip(), "orientation") for o in str(args.orient).split(",")
    ]
    pattern = ElevationPattern.from_csv(args.pattern_file) if args.pattern_file else None

    p_ref = reference_power(DEFAULT_RADIO)
    lines = ["x_m,h_m,theta_deg,d_m,orientation,path_loss_db,margin_db"]
    for orientation in orientations:
        for h in hs:
            for x in xs:
                geom = LinkGeometry(x_m=x, h_m=h)
                amp = los_amplitude(
                    geom, orientation, DEFAULT_RADIO, xpd_db=xpd_db, pattern=pattern
                )
                loss = path_loss_db(amp * amp, p_ref, DEFAULT_RADIO)
                margin = link_margin_db(loss, DEFAULT_RADIO)
                lines.append(
                    f"{x:g},{h:g},{geom.theta_deg:.3f},{geom.d_m:.4f},"
                    f"{orientation.value},{loss:.3f},{margin:.3f}"
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write_text(args.out, text)
        print(f"wrote {len(lines) - 1} row(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --- roundtrip ---------------------------------------------------------------


def _cell_seed(base_seed: int, cell_index: int) -> int:
    words = np.random.SeedSequence(entropy=base_seed, spawn_key=(cell_index,)).generate_state(
        1, dtype=np.uint64
    )
    return int(words[0])


def _roundtrip_cell(
    scenario: Scenario,
    receiver: Receiver,
    orientation: Orientation,
    distance: float,
    expected: ScenarioParams,
    n: int,
    seed: int,
    decay_mode: DecayMode,
) -> dict:
    """Generate a clean ensemble and compare re-estimated statistics.

    Scatter-only, deterministic amplitudes, no dynamic-range cut: the cut
    censors inter-arrivals and would swamp the estimators with truncation
    bias rather than exercising the arrival/decay laws.
    """
    config = GeneratorConfig(
        decay_mode=decay_mode,
        amplitude_fading=AmplitudeFading.DETERMINISTIC,
        dynamic_range_db=math.inf,
        seed=seed,
    )
    est = estimate_params(
        (generate_ensemble(expected, config, indices) for indices in chunk_ranges(n)), decay_mode
    )

    checks = {
        "cluster_rate_per_ns": (expected.cluster_rate, est.cluster_rate_hat, RATE_TOLERANCE),
        "ray_rate_per_ns": (expected.ray_rate, est.ray_rate_hat, RATE_TOLERANCE),
        "cluster_decay": (expected.cluster_decay, est.cluster_decay_hat, DECAY_TOLERANCE),
        "ray_decay": (expected.ray_decay, est.ray_decay_hat, DECAY_TOLERANCE),
    }
    comparisons = {}
    ok = True
    for name, (truth, got, tol) in checks.items():
        rel = abs(got - truth) / truth
        passed = rel <= tol
        ok = ok and passed
        comparisons[name] = {
            "expected": truth,
            "estimated": got,
            "rel_error": rel,
            "tolerance": tol,
            "pass": passed,
        }
    return {
        "scenario": scenario.value,
        "receiver": receiver.value,
        "orientation": orientation.value,
        "x_m": distance,
        "n_realizations": n,
        "seed": seed,
        "n_clusters_hat": est.n_clusters_hat,
        "comparisons": comparisons,
        "pass": ok,
    }


def cmd_roundtrip(args: argparse.Namespace) -> int:
    n = int(args.n)
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    seed = _resolve_seed(args.seed)
    decay_mode = _parse_enum(DecayMode, args.decay_mode, "decay mode")

    warnings = []
    if n < RECOMMENDED_MIN_REALIZATIONS:
        warnings.append(
            f"sample size below recommendation ({n} < {RECOMMENDED_MIN_REALIZATIONS}); "
            "estimates will be noisy"
        )
        print(f"warning: {warnings[-1]}", file=sys.stderr)

    if args.all:
        cells = list(iter_table_cells())
    else:
        if args.scenario is None or args.x is None:
            raise ConfigError("either --all or --scenario/--rx/--orient/--x are required")
        scenario = _parse_enum(Scenario, args.scenario, "scenario")
        receiver = _parse_enum(Receiver, args.rx, "receiver")
        orientation = _parse_enum(Orientation, args.orient, "orientation")
        distance = float(args.x)
        params = lookup_params(scenario, receiver, orientation, distance)
        cells = [(scenario, receiver, orientation, distance, params)]

    results = []
    for index, (scenario, receiver, orientation, distance, params) in enumerate(cells):
        result = _roundtrip_cell(
            scenario,
            receiver,
            orientation,
            distance,
            params,
            n,
            _cell_seed(seed, index),
            decay_mode,
        )
        results.append(result)
        status = "PASS" if result["pass"] else "FAIL"
        worst = max(c["rel_error"] for c in result["comparisons"].values())
        print(
            f"{status}  {scenario.value:17s} {receiver.value} {orientation.value} "
            f"x={distance:g}m  worst rel err {worst:6.2%}"
        )

    all_pass = all(r["pass"] for r in results)
    verdict = {
        "command": "roundtrip",
        "n_realizations": n,
        "seed": seed,
        "decay_mode": decay_mode.value,
        "warnings": warnings,
        "results": results,
        "all_pass": all_pass,
    }
    if args.out:
        _atomic_write_text(args.out, json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    print(f"{sum(r['pass'] for r in results)}/{len(results)} cells pass")
    return 0 if all_pass else 1


# --- tables ------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    text = json.dumps(tables_as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write_text(args.out, text)
        print(f"wrote parameter tables to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --- parser ------------------------------------------------------------------


def _number(text: str) -> float:
    """Type of every float option: NaN is rejected like any other non-number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbagsim",
        description="UWB air-to-ground channel simulator and analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=f"uwbagsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="dump the embedded parameter tables as JSON")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("generate", help="synthesize channel realizations")
    p.add_argument("--scenario", help="hovering-open | hovering-foliage | moving-circle")
    p.add_argument("--rx", dest="receiver", help="RX1 | RX2")
    p.add_argument("--orient", dest="orientation", help="VV | VH")
    p.add_argument("--x", dest="x_m", type=_number, help="horizontal distance, m")
    p.add_argument("--h", dest="h_m", type=_number, help="platform height, m")
    p.add_argument("--n", dest="n_realizations", type=int, help="number of realizations")
    p.add_argument("--seed", type=int)
    p.add_argument("--decay-mode", dest="decay_mode", help="rate | time-constant")
    p.add_argument("--fading", dest="amplitude_fading", help="deterministic | rayleigh")
    p.add_argument("--xpd-db", dest="xpd_db", type=_number)
    p.add_argument("--snr-db", dest="snr_db", type=_number)
    p.add_argument("--window-ns", dest="window_ns", type=_number)
    p.add_argument("--dynamic-range-db", dest="dynamic_range_db", type=_number)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--params-file", dest="params", help="JSON parameter override (free geometry)")
    p.add_argument("--pattern-file", dest="pattern_file", help="elevation pattern CSV")
    p.add_argument("--waveforms", action="store_const", const=True, default=None,
                   help="also render sampled waveforms")
    p.add_argument("--jobs", type=int, help="parallel workers")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--from-manifest", dest="from_manifest", help="reproduce a previous run")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="analyze realization CSV files")
    p.add_argument("inputs", nargs="+", help="realization files or globs")
    p.add_argument("--out", default="analysis_report.json", help="report JSON path")
    p.add_argument("--window-ns", dest="window_ns", type=_number, default=100.0)
    p.add_argument("--decay-mode", dest="decay_mode", default=DecayMode.RATE.value)
    p.add_argument("--smoothing-window", type=int, default=25, help="PDP smoothing, samples")
    p.add_argument("--rise-fall-db", type=_number, default=10.0)
    p.add_argument("--min-peak-to-fall-ns", type=_number, default=2.0)
    p.add_argument("--threshold-frac", type=_number, default=0.2)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pathloss", help="deterministic path-loss sweep")
    p.add_argument("--x", default="15,30", help="comma list of horizontal distances, m")
    p.add_argument("--h", default="10,20,30", help="comma list of heights, m")
    p.add_argument("--orient", default="VV", help="orientation(s), e.g. VV or VV,VH")
    p.add_argument("--xpd-db", dest="xpd_db", type=_number, default=DEFAULT_XPD_DB)
    p.add_argument("--pattern-file", dest="pattern_file", help="elevation pattern CSV")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_pathloss)

    p = sub.add_parser("roundtrip", help="generate -> estimate -> compare to the tables")
    p.add_argument("--scenario")
    p.add_argument("--rx")
    p.add_argument("--orient")
    p.add_argument("--x", type=_number)
    p.add_argument("--all", action="store_true", help="run every table cell")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--decay-mode", dest="decay_mode", default=DecayMode.RATE.value)
    p.add_argument("--out", help="verdict JSON path")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MalformedFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UwbAgSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
