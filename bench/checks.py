"""Correctness checks on the outputs of one benchmark repetition.

Each check returns ``(attempted, failed)`` operation counts; the benchmark's
``failed_frac`` is their ratio summed over repetitions. Any exception while
checking an operation counts that operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from uwbagsim.core import Orientation, Receiver, Scenario, iter_table_cells, lookup_params
from uwbagsim.errors import UwbAgSimError
from uwbagsim.generator import read_realization_csv

import spec

# One period of the 4.3 GHz carrier (0.233 ns), rounded up: the strongest
# CLEAN tap of a scan must sit this close to the generated direct path.
DIRECT_PATH_TOLERANCE_NS = 0.25

# analyze report key -> table field, for the (ungated) estimate comparison
ESTIMATE_FIELDS = {
    "n_clusters_hat": "n_clusters_mean",
    "cluster_rate_per_ns_hat": "cluster_rate",
    "cluster_decay_hat": "cluster_decay",
    "ray_rate_per_ns_hat": "ray_rate",
    "ray_decay_hat": "ray_decay",
}

_PARSE_ERRORS = (OSError, ValueError, UwbAgSimError)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def output_digest(out_dir: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_roundtrip(out_dir: Path, rc) -> tuple[int, int]:
    """One operation per table cell: exit code 0 and the cell's verdict is pass."""
    n_cells = sum(1 for _ in iter_table_cells())
    verdict = _load_json(out_dir / "verdict.json") or {}
    passed = sum(1 for cell in verdict.get("results", []) if cell.get("pass") is True)
    failed = n_cells - passed
    if rc != 0 and failed == 0:
        # a failing exit code that no cell accounts for fails the whole run
        failed = n_cells
    return n_cells, failed


def check_generate(out_dir: Path, n: int, rc, reference: str | None = None) -> tuple[int, int, str]:
    """One operation per realization: its CSV parses and its waveform file is non-empty.

    A run whose output digest differs from ``reference`` (an earlier run with
    the same seed) fails every operation. Returns the digest as well.
    """
    failed = 0
    for i in range(n):
        try:
            read_realization_csv(out_dir / f"realization_{i:05d}.csv")
            ok = (out_dir / f"waveform_{i:05d}.csv").stat().st_size > 0
        except _PARSE_ERRORS:
            ok = False
        failed += not ok
    digest = output_digest(out_dir)
    if rc != 0 or (reference is not None and digest != reference):
        failed = n
    return n, failed, digest


def direct_path_delays(inputs_dir: Path, n: int) -> dict[str, float | None]:
    """Waveform file name -> delay of its realization's direct-path (first) tap.

    A realization that is missing or does not parse maps to None.
    """
    truth: dict[str, float | None] = {}
    for i in range(n):
        try:
            delay = float(read_realization_csv(inputs_dir / f"realization_{i:05d}.csv").delays_ns[0])
        except (*_PARSE_ERRORS, IndexError):
            delay = None
        truth[f"waveform_{i:05d}.csv"] = delay
    return truth


def direct_path_hits(scans, truth: dict[str, float | None]) -> int:
    """Scans whose strongest CLEAN tap lies within tolerance of the direct path.

    ``scans`` rows start with (waveform file name, strongest tap delay).
    """
    strongest = {row[0]: row[1] for row in scans or []}
    hits = 0
    for name, delay in truth.items():
        got = strongest.get(name)
        hits += (
            got is not None and delay is not None and abs(got - delay) <= DIRECT_PATH_TOLERANCE_NS
        )
    return hits


def check_inverse(out_dir: Path, rc, scans, truth: dict[str, float | None]) -> tuple[int, int]:
    """One operation for ``analyze`` plus one per scan.

    ``analyze`` must exit 0 with finite estimates; a scan fails unless
    ``direct_path_hits`` counts it.
    """
    report = _load_json(out_dir / "report.json") or {}
    estimates = report.get("estimates", {})
    analyze_ok = rc == 0 and all(
        isinstance(estimates.get(key), (int, float)) and math.isfinite(estimates[key])
        for key in ESTIMATE_FIELDS
    )
    failed = (0 if analyze_ok else 1) + len(truth) - direct_path_hits(scans, truth)
    return 1 + len(truth), failed


def estimate_errors(out_dir: Path) -> dict:
    """``analyze`` estimates against the table cell; recorded, never gated."""
    estimates = (_load_json(out_dir / "report.json") or {}).get("estimates", {})
    cell = lookup_params(
        Scenario(spec.CELL["scenario"]),
        Receiver(spec.CELL["rx"]),
        Orientation(spec.CELL["orient"]),
        spec.CELL["x"],
    )
    errors = {}
    for key, field in ESTIMATE_FIELDS.items():
        if isinstance(estimates.get(key), (int, float)):
            expected = getattr(cell, field)
            errors[key] = {
                "estimated": estimates[key],
                "table": expected,
                "rel_error": (estimates[key] - expected) / expected,
            }
    return errors
