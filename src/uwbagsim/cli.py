"""Command-line front end.

Subcommands: ``tables`` (dump the embedded parameter tables), ``generate``
(batch channel synthesis with a reproducibility manifest), ``analyze``
(re-extract statistics from realization files), ``pathloss`` (deterministic
geometry sweeps), and ``roundtrip`` (generate -> estimate -> compare against
the tables).

Exit codes: 0 success, 1 roundtrip verdict failure, 2 configuration error (a failed
allocation among them), 3 I/O error, 4 malformed input file, 5 a worker process died
(``roundtrip`` or ``generate``). All randomized commands
take an explicit ``--seed``; without one the ``CHANSIM_DEFAULT_SEED`` environment
variable is honored, or a fresh seed is drawn and announced on stderr.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import analysis_report, estimate_params
from .core import (
    ENSEMBLE_CHUNK,
    SCAN_WINDOW_NS,
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    ScenarioParams,
    chunk_ranges,
    iter_table_cells,
    lookup_params,
    tables_as_dict,
    window_samples,
)
from .errors import InsufficientData, MalformedFile, UnknownCell, UwbAgSimError
from .generator import (
    AmplitudeFading,
    DecayMode,
    GeneratorConfig,
    _atomic_write_text,
    _realization_csv_texts,
    generate,  # noqa: F401  (kept as cli.generate, an alias bench/tracer.py wraps)
    generate_ensemble,
    read_realization_csv,
)
from .geometry import DEFAULT_XPD_DB, ElevationPattern, LinkGeometry
from .linkbudget import link_margin_db, los_amplitude, path_loss_db, reference_power
from .simulate import _BATCH_TAPS, LinkScenario, _batch_ranges, _member_taps, realize_batch
from .waveform import SNR_DB_LIMIT, render, write_waveform_csv

SEED_ENV_VAR = "CHANSIM_DEFAULT_SEED"

# Round-trip acceptance tolerances: relative error on the recovered rates
# and decay constants.
RATE_TOLERANCE = 0.15
DECAY_TOLERANCE = 0.20
RECOMMENDED_MIN_REALIZATIONS = 100

# Samples of the scans that one generate batch renders at once (16 MB of float64).
SCAN_BATCH_SAMPLES = 2**21


class ConfigError(UwbAgSimError):
    """Bad command configuration; maps to exit code 2."""


class WorkerDied(UwbAgSimError):
    """A pool worker process ended without returning its result; maps to exit code 5."""


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, calls: list, workers: int) -> list:
    """``[fn(*args) for args in calls]`` on up to ``workers`` processes, forked where the
    platform can (so no worker imports numpy again), and no more than one a call, since the
    pool starts them all at once. One worker runs in-process and loads no pool module."""
    workers = min(workers, len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context(method)) as pool:
            return list(pool.map(fn, *zip(*calls)))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from None


# --- Run configuration -------------------------------------------------------

NUMBER = (int, float)
NULL = type(None)

# field -> (default, the JSON types a config or manifest file may give it).
# Values are checked, never converted; true and false are neither counts nor numbers.
CONFIG_FIELDS = {
    "scenario": (None, (str, NULL)),
    "receiver": ("RX1", (str,)),
    "orientation": ("VV", (str,)),
    "x_m": (None, (*NUMBER, NULL)),
    "h_m": (None, (*NUMBER, NULL)),
    "n_realizations": (1, (int,)),
    "seed": (None, (int, NULL)),
    "decay_mode": (DecayMode.RATE.value, (str,)),
    "amplitude_fading": (AmplitudeFading.DETERMINISTIC.value, (str,)),
    "xpd_db": (DEFAULT_XPD_DB, NUMBER),
    "snr_db": (None, (*NUMBER, NULL)),
    "window_ns": (SCAN_WINDOW_NS, NUMBER),
    "dynamic_range_db": (48.0, (*NUMBER, NULL)),  # null is "no cut"
    "out_dir": ("realizations", (str,)),
    "params": (None, (str, dict, NULL)),
    "pattern": (None, (str, dict, NULL)),  # a pattern-file path, or {"angles_deg", "gains"}
    "waveforms": (False, (bool,)),
}

# Fields that files of earlier versions carry and that no longer configure anything: checked
# as they were, then dropped. "jobs" sized generate's pool, which now takes every usable CPU.
RETIRED_FIELDS = {"jobs": (int,)}
_FIELD_KINDS = {field: kinds for field, (_, kinds) in CONFIG_FIELDS.items()} | RETIRED_FIELDS


def _read_json(path):
    """The document in a JSON file: unreadable exits 2, unparsable exits 4."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedFile(str(path), exc.lineno, exc.msg) from None
    except ValueError as exc:  # text encoding, or an integer of more digits than Python parses
        raise MalformedFile(str(path), 0, str(exc)) from None


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer defaults < config file < manifest < explicit flags (typed by the parser)."""
    merged = {field: default for field, (default, _) in CONFIG_FIELDS.items()}
    for source_path, key in ((getattr(args, "config", None), None),
                             (getattr(args, "from_manifest", None), "config")):
        if source_path is None:
            continue
        doc = _read_json(source_path)
        if key is not None and isinstance(doc, dict):
            doc = doc.get(key, {})
        if not isinstance(doc, dict):
            raise MalformedFile(str(source_path), 0, "expected a JSON object")
        unknown = set(doc) - set(_FIELD_KINDS)
        if unknown:
            raise ConfigError(f"unknown config fields in {source_path}: {sorted(unknown)}")
        params = doc.get("params")
        if params is not None and not isinstance(params, (str, dict)):
            # only a path names a params file: an integer would open a descriptor
            raise MalformedFile(str(source_path), 0, "params must be a path or a mapping")
        for field, value in doc.items():
            kinds = _FIELD_KINDS[field]
            # an integer past the float range would overflow in the first float operation
            too_big = float in kinds and type(value) is int and abs(value) > sys.float_info.max
            if type(value) not in kinds or too_big:
                names = ", ".join("null" if kind is NULL else kind.__name__ for kind in kinds)
                got = "an integer past the float range" if too_big else json.dumps(value)[:40]
                raise ConfigError(f"{field} in {source_path} must be JSON {names}, got {got}")
        if isinstance(params, dict):
            doc["params"] = _params_from_doc(params, source_path)
        if isinstance(doc.get("pattern"), dict):
            doc["pattern"] = _pattern_from_doc(doc["pattern"], source_path)
        merged.update((field, value) for field, value in doc.items() if field in CONFIG_FIELDS)
    for field in CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            merged[field] = value
    return merged


def _json_text(doc) -> str:
    """Strict JSON, as the CLI writes every file: NaN and Infinity raise."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _resolve_seed(seed) -> int:
    """The run's seed: the flag or config value, else the environment variable, else fresh."""
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed is None:
        import secrets

        seed = secrets.randbits(63)
        print(f"seed = {seed} (auto-generated; pass --seed to reproduce)", file=sys.stderr)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


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


def _pattern_from_doc(doc, source) -> ElevationPattern:
    """A pattern from a mapping of ``angles_deg`` and ``gains`` to number lists of one length."""
    columns = [doc.get("angles_deg"), doc.get("gains")]
    if set(doc) != {"angles_deg", "gains"} or not all(
            type(col) is list and len(col) == len(columns[0])
            and all(type(v) in NUMBER for v in col) for col in columns):
        raise MalformedFile(str(source), 0, "pattern must map angles_deg and gains to lists of "
                                            "numbers of one length")
    try:  # the table is then checked as a pattern file's rows are
        return ElevationPattern(*(np.array(col, dtype=float) for col in columns))
    except (OverflowError, ValueError) as exc:  # an integer past the float range, or a bad table
        raise MalformedFile(str(source), 0, f"bad pattern: {exc}") from None


def _pattern_from_file(path) -> ElevationPattern:
    """The pattern in a CSV file: unreadable exits 2, as a params file does."""
    try:
        return ElevationPattern.from_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read pattern file {path}: {exc}") from None


def _scenario_from_config(cfg: dict) -> tuple[LinkScenario, GeneratorConfig]:
    if cfg["scenario"] is None:
        raise ConfigError("--scenario is required")
    if cfg["x_m"] is None or cfg["h_m"] is None:
        raise ConfigError("--x and --h are required")
    scenario = _parse_enum(Scenario, cfg["scenario"], "scenario")
    receiver = _parse_enum(Receiver, cfg["receiver"], "receiver")
    orientation = _parse_enum(Orientation, cfg["orientation"], "orientation")
    link = LinkConfig(receiver, orientation, cfg["x_m"], cfg["h_m"])

    pattern = cfg["pattern"]
    if isinstance(pattern, str):  # a pattern-file path; a mapping is read with its config
        pattern = _pattern_from_file(pattern)

    params = cfg["params"]
    if isinstance(params, str):  # a params-file path; a mapping is read with its config
        params = _params_from_doc(_read_json(params), params)
    if params is not None:
        link_scenario = LinkScenario(scenario, link, params, xpd_db=cfg["xpd_db"], pattern=pattern)
    else:
        try:
            link_scenario = LinkScenario.from_tables(
                scenario, link, xpd_db=cfg["xpd_db"], pattern=pattern
            )
        except UnknownCell as exc:
            raise ConfigError(f"{exc} (pass --params-file for free geometry)") from None

    # null is "no cut", as the manifest writes it
    dynamic_range_db = math.inf if cfg["dynamic_range_db"] is None else cfg["dynamic_range_db"]
    gen_config = GeneratorConfig(
        window_ns=cfg["window_ns"],
        decay_mode=_parse_enum(DecayMode, cfg["decay_mode"], "decay mode"),
        amplitude_fading=_parse_enum(AmplitudeFading, cfg["amplitude_fading"], "amplitude fading"),
        dynamic_range_db=dynamic_range_db,
        seed=cfg["seed"],
    )
    # the scatter power is anchored here, so an underflow exits before anything is written
    return link_scenario, link_scenario.anchored(gen_config)


# --- generate ----------------------------------------------------------------


def _worker_generate(link_scenario, gen_config, indices, out_dir, snr_db, waveforms) -> list[str]:
    """Write one batch in order: its realization tables, formatted in one ``%`` call, and its
    scans, rendered in one call. No byte depends on the worker. Returns the tables' names."""
    files = [(Path(out_dir) / f"realization_{index:05d}.csv",
              Path(out_dir) / f"waveform_{index:05d}.csv") for index in indices]
    ensemble = realize_batch(link_scenario, gen_config, indices)
    texts = _realization_csv_texts(ensemble)
    if waveforms:
        records = render(ensemble, snr_db=snr_db, noise_seed=gen_config.seed + indices.start)
    for k, (table, scan) in enumerate(files):
        _atomic_write_text(table, texts[k])
        if waveforms:
            write_waveform_csv(records[k], scan)
    return [table.name for table, _ in files]


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    cfg["seed"] = _resolve_seed(cfg["seed"])
    n = cfg["n_realizations"]
    if n < 1:
        raise ConfigError(f"n_realizations must be >= 1, got {n}")
    link_scenario, gen_config = _scenario_from_config(cfg)
    # resolve params and pattern files into values so the manifest alone
    # reproduces the run
    if cfg["params"] is not None:
        cfg["params"] = link_scenario.params.as_dict()
    if cfg["pattern"] is not None:
        angles, gains = link_scenario.pattern.angles_deg, link_scenario.pattern.gains
        cfg["pattern"] = {"angles_deg": angles.tolist(), "gains": gains.tolist()}
    if gen_config.dynamic_range_db == math.inf:
        cfg["dynamic_range_db"] = None
    snr_db = cfg["snr_db"]
    if snr_db is not None and not abs(snr_db) <= SNR_DB_LIMIT:
        raise ConfigError(f"snr_db must lie within {SNR_DB_LIMIT:g} dB of 0, got {snr_db}")

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    # a batch is ENSEMBLE_CHUNK members, fewer when its draws would pass the batch's tap
    # budget or its scans SCAN_BATCH_SAMPLES
    size = ENSEMBLE_CHUNK
    scan = window_samples(gen_config.window_ns) if cfg["waveforms"] else 0
    if scan:
        size = max(1, min(size, int(SCAN_BATCH_SAMPLES // scan)))
    batches = [
        (link_scenario, gen_config, indices, str(out_dir), snr_db, cfg["waveforms"])
        for indices in _batch_ranges(link_scenario, gen_config, n, size)
    ]
    # the batches are independent, so they run on every usable CPU, but no more at once than
    # fit together in one batch's tap and scan budgets: memory does not grow with the CPU count
    most = len(batches[0][2])
    fit = min(_BATCH_TAPS / (most * _member_taps(link_scenario, gen_config)),
              SCAN_BATCH_SAMPLES / (most * scan) if scan else math.inf)
    names = _pool_map(_worker_generate, batches, int(min(_usable_cpus(), fit)) if fit >= 1 else 1)
    files = [name for batch_names in names for name in batch_names]

    manifest = {
        "tool": "uwbagsim",
        "version": __version__,
        "command": "generate",
        "config": {k: cfg[k] for k in CONFIG_FIELDS},
        "files": sorted(files),
    }
    _atomic_write_text(out_dir / "manifest.json", _json_text(manifest))
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
    decay_mode = _parse_enum(DecayMode, args.decay_mode, "decay mode")
    # the reader checks the window before it opens a file, so a bad window is
    # a configuration error and not a malformed file
    realizations = [read_realization_csv(p, window_ns=args.window_ns) for p in paths]
    options = {
        "smoothing_window_samples": args.smoothing_window,
        "rise_fall_db": args.rise_fall_db,
        "min_peak_to_fall_ns": args.min_peak_to_fall_ns,
        "threshold_frac": args.threshold_frac,
    }
    report = analysis_report(
        realizations, decay_mode=decay_mode, **options,
        config_echo={"inputs": paths, "window_ns": args.window_ns,
                     "decay_mode": decay_mode.value, **options},
    )
    _atomic_write_text(args.out, _json_text(report))

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


def cmd_pathloss(args: argparse.Namespace) -> int:
    if not all(0 < x < math.inf for x in args.x):
        raise ConfigError("horizontal distances must be finite and > 0")
    if not all(0 < h < math.inf for h in args.h):
        raise ConfigError("heights must be finite and > 0")
    orientations = [
        _parse_enum(Orientation, o.strip(), "orientation") for o in args.orient.split(",")
    ]
    pattern = _pattern_from_file(args.pattern_file) if args.pattern_file else None

    p_ref = reference_power()
    lines = ["x_m,h_m,theta_deg,d_m,orientation,path_loss_db,margin_db"]
    for orientation in orientations:
        for h in args.h:
            for x in args.x:
                geom = LinkGeometry(x_m=x, h_m=h)
                amp = los_amplitude(geom, orientation, args.xpd_db, pattern)
                power = amp * amp
                if not 0 < power < math.inf:
                    raise ConfigError(f"the {orientation.value} link at x={x:g} m, h={h:g} m has "
                                      f"a direct-path power of {power:g}, past the float range")
                loss = path_loss_db(power, p_ref)
                margin = link_margin_db(loss)
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
    """Table cell ``cell_index``'s seed: the first word of stream ``(base_seed, cell_index)``."""
    words = np.random.SeedSequence(base_seed, spawn_key=(cell_index,)).generate_state(1, np.uint64)
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
    bias rather than exercising the arrival/decay laws. An ensemble the
    estimators cannot read fails the cell with an ``error`` in place of
    the comparisons.
    """
    config = GeneratorConfig(
        decay_mode=decay_mode,
        amplitude_fading=AmplitudeFading.DETERMINISTIC,
        dynamic_range_db=math.inf,
        seed=seed,
    )
    cell = {"scenario": scenario.value, "receiver": receiver.value,
            "orientation": orientation.value, "x_m": distance, "n_realizations": n, "seed": seed}
    try:
        est = estimate_params(
            (generate_ensemble(expected, config, indices) for indices in chunk_ranges(n)),
            decay_mode,
        )
    except InsufficientData as exc:
        return {**cell, "error": str(exc), "pass": False}

    checks = {
        "cluster_rate_per_ns": (expected.cluster_rate, est.cluster_rate_hat, RATE_TOLERANCE),
        "ray_rate_per_ns": (expected.ray_rate, est.ray_rate_hat, RATE_TOLERANCE),
        "cluster_decay": (expected.cluster_decay, est.cluster_decay_hat, DECAY_TOLERANCE),
        "ray_decay": (expected.ray_decay, est.ray_decay_hat, DECAY_TOLERANCE),
    }
    comparisons = {}
    for name, (truth, got, tol) in checks.items():
        rel = abs(got - truth) / truth
        comparisons[name] = {"expected": truth, "estimated": got, "rel_error": rel,
                             "tolerance": tol, "pass": rel <= tol}
    ok = all(c["pass"] for c in comparisons.values())
    return {**cell, "n_clusters_hat": est.n_clusters_hat, "comparisons": comparisons, "pass": ok}


def cmd_roundtrip(args: argparse.Namespace) -> int:
    n = args.n
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
        distance = args.x
        params = lookup_params(scenario, receiver, orientation, distance)
        cells = [(scenario, receiver, orientation, distance, params)]

    # the cells are independent, so they run on every CPU this process may use
    calls = [(*cell, n, _cell_seed(seed, index), decay_mode) for index, cell in enumerate(cells)]
    results = _pool_map(_roundtrip_cell, calls, _usable_cpus())
    for (scenario, receiver, orientation, distance, _), result in zip(cells, results):
        status = "PASS" if result["pass"] else "FAIL"
        if "error" in result:
            detail = f"cannot estimate: {result['error']}"
        else:
            worst = max(c["rel_error"] for c in result["comparisons"].values())
            detail = f"worst rel err {worst:6.2%}"
        print(
            f"{status}  {scenario.value:17s} {receiver.value} {orientation.value} "
            f"x={distance:g}m  {detail}"
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
        _atomic_write_text(args.out, _json_text(verdict))
    print(f"{sum(r['pass'] for r in results)}/{len(results)} cells pass")
    return 0 if all_pass else 1


# --- tables ------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    text = _json_text(tables_as_dict())
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


def _numbers(text: str) -> list[float]:
    """Type of a comma-list option: one or more numbers, each read as ``_number`` reads it."""
    values = [_number(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
    return values


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
    p.add_argument("--pattern-file", dest="pattern", help="elevation pattern CSV")
    p.add_argument("--waveforms", action="store_const", const=True, default=None,
                   help="also render sampled waveforms")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--from-manifest", dest="from_manifest", help="reproduce a previous run")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="analyze realization CSV files")
    p.add_argument("inputs", nargs="+", help="realization files or globs")
    p.add_argument("--out", default="analysis_report.json", help="report JSON path")
    p.add_argument("--window-ns", dest="window_ns", type=_number, default=SCAN_WINDOW_NS)
    p.add_argument("--decay-mode", dest="decay_mode", default=DecayMode.RATE.value)
    p.add_argument("--smoothing-window", type=int, default=25, help="PDP smoothing, samples")
    p.add_argument("--rise-fall-db", type=_number, default=10.0)
    p.add_argument("--min-peak-to-fall-ns", type=_number, default=2.0)
    p.add_argument("--threshold-frac", type=_number, default=0.2)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pathloss", help="deterministic path-loss sweep")
    p.add_argument("--x", type=_numbers, default="15,30",
                   help="comma list of horizontal distances, m")
    p.add_argument("--h", type=_numbers, default="10,20,30", help="comma list of heights, m")
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
    except MalformedFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UwbAgSimError as exc:  # ConfigError and InvalidValue among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a setting, such as a window, whose arrays cannot be allocated
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
