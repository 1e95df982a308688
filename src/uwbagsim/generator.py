"""Clustered-multipath channel synthesis.

Channel impulse responses are built as a doubly stochastic process: cluster
start times form a Poisson process over the scan window, rays inside each
cluster form another Poisson process, and the mean-square tap gain decays
exponentially in both the cluster start time and the ray offset:

    mean_power(T, tau) = first_path_power * decay_c(T) * decay_r(tau)

The tabulated decay constants are printed without units, so both readings of
``decay_c``/``decay_r`` are supported: ``exp(-T * c)`` with the constant as a
rate (the literal form) and ``exp(-T / c)`` with it as a time constant (the
classical clustered-multipath convention). The first cluster and the first
ray of every cluster are pinned at offset zero, which fixes the excess-delay
origin and makes the expected cluster count 1 + rate * window.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import ChannelRealization, Ensemble, ScenarioParams
from .errors import InvalidRate, MalformedFile, WindowTooSmall

__all__ = [
    "DecayMode",
    "AmplitudeFading",
    "GeneratorConfig",
    "realization_rng",
    "draw_cluster_arrivals",
    "draw_ray_arrivals",
    "tap_mean_power",
    "mean_amplitude",
    "draw_amplitudes",
    "generate",
    "generate_ensemble",
    "write_realization_csv",
    "read_realization_csv",
    "realization_to_json",
    "realization_from_json",
    "REALIZATION_CSV_HEADER",
]


class DecayMode(Enum):
    """How the printed decay constants enter the mean-power law."""

    RATE = "rate"                  # exp(-T * c): constant is a 1/ns rate
    TIME_CONSTANT = "time-constant"  # exp(-T / c): constant is a ns time constant


class AmplitudeFading(Enum):
    """Distribution of tap amplitudes around the mean-square gain."""

    DETERMINISTIC = "deterministic"  # amplitude = sqrt(mean power)
    RAYLEIGH = "rayleigh"            # Rayleigh with matching mean square


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthesis run.

    ``first_path_power`` anchors the absolute mean-square gain of the first
    ray of the first cluster. When left unset it is derived from the
    direct-path amplitude (``los_backoff_db`` below it) or defaults to 1 for
    scatter-only channels. ``dynamic_range_db`` mimics the sounder: taps
    more than that far below the strongest tap are dropped (``math.inf``
    disables the cut, as parameter-recovery studies require).
    """

    window_ns: float = 100.0
    decay_mode: DecayMode = DecayMode.RATE
    amplitude_fading: AmplitudeFading = AmplitudeFading.DETERMINISTIC
    dynamic_range_db: float = 48.0
    seed: int = 0
    first_path_power: Optional[float] = None
    los_backoff_db: float = 20.0

    def __post_init__(self) -> None:
        # Written so that NaN fails each check; inf dynamic range means no cut.
        if not 0 < self.window_ns < math.inf:
            raise ValueError(f"window_ns must be finite and > 0, got {self.window_ns}")
        if not self.dynamic_range_db > 0:
            raise ValueError(f"dynamic_range_db must be > 0, got {self.dynamic_range_db}")
        if self.first_path_power is not None and not 0 < self.first_path_power < math.inf:
            raise ValueError("first_path_power must be finite and > 0 when given")

    def as_dict(self) -> dict:
        return {
            "window_ns": self.window_ns,
            "decay_mode": self.decay_mode.value,
            "amplitude_fading": self.amplitude_fading.value,
            "dynamic_range_db": self.dynamic_range_db,
            "seed": self.seed,
            "first_path_power": self.first_path_power,
            "los_backoff_db": self.los_backoff_db,
        }


def realization_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent, order-insensitive RNG stream for realization ``index``.

    Streams are derived from (seed, index) through a seed sequence, so batch
    members can be generated in any order, or in parallel, with identical
    results.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _check_rate(what: str, rate_per_ns: float) -> None:
    if not 0 < rate_per_ns < math.inf:
        raise InvalidRate(f"{what} rate must be finite and > 0, got {rate_per_ns}")


def _block_size(rate_per_ns: float, span_ns: float) -> int:
    """Gaps drawn per call; oversized so one or two calls usually cover the span."""
    return max(8, int(span_ns * rate_per_ns * 1.5) + 8)


def _draw_arrivals(rate_per_ns: float, span_ns: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival times on [0, span): pinned 0 plus exponential gaps."""
    times = [np.zeros(1)]
    t = 0.0
    mean_gap = 1.0 / rate_per_ns
    block = _block_size(rate_per_ns, span_ns)
    while t < span_ns:
        gaps = rng.exponential(mean_gap, size=block)
        chunk = t + np.cumsum(gaps)
        times.append(chunk)
        t = float(chunk[-1])
    arrivals = np.concatenate(times)
    return arrivals[arrivals < span_ns]


def draw_cluster_arrivals(
    rate_per_ns: float, window_ns: float, rng: np.random.Generator
) -> np.ndarray:
    """Cluster start times in ns: T0 = 0, exponential inter-arrivals, cut at the window."""
    _check_rate("cluster", rate_per_ns)
    return _draw_arrivals(rate_per_ns, window_ns, rng)


def draw_ray_arrivals(
    rate_per_ns: float,
    cluster_start_ns: float,
    window_ns: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ray offsets (ns, relative to the cluster start) for one cluster.

    The first ray rides the cluster start (offset 0); offsets that would
    land past the scan window are dropped.
    """
    _check_rate("ray", rate_per_ns)
    if cluster_start_ns >= window_ns:
        raise ValueError(
            f"cluster start {cluster_start_ns} ns is outside the {window_ns} ns window"
        )
    return _draw_arrivals(rate_per_ns, window_ns - cluster_start_ns, rng)


def _log_mean_power(
    cluster_start_ns, ray_offset_ns, cluster_decay: float, ray_decay: float, mode: DecayMode
):
    if cluster_decay <= 0 or ray_decay <= 0:
        raise ValueError("decay constants must be > 0")
    t = np.asarray(cluster_start_ns, dtype=float)
    tau = np.asarray(ray_offset_ns, dtype=float)
    if np.any(t < 0) or np.any(tau < 0):
        raise ValueError("delays must be >= 0")
    if mode is DecayMode.RATE:
        return -(t * cluster_decay) - (tau * ray_decay)
    return -(t / cluster_decay) - (tau / ray_decay)


def tap_mean_power(
    cluster_start_ns,
    ray_offset_ns,
    cluster_decay: float,
    ray_decay: float,
    first_path_power: float = 1.0,
    mode: DecayMode = DecayMode.RATE,
):
    """Mean-square tap gain at (cluster start T, ray offset tau).

    Equals ``first_path_power`` at (0, 0) in both decay modes. Accepts
    scalars or arrays.
    """
    log_p = _log_mean_power(cluster_start_ns, ray_offset_ns, cluster_decay, ray_decay, mode)
    out = first_path_power * np.exp(log_p)
    return float(out) if np.isscalar(cluster_start_ns) and np.isscalar(ray_offset_ns) else out


def mean_amplitude(
    cluster_start_ns,
    ray_offset_ns,
    cluster_decay: float,
    ray_decay: float,
    first_path_power: float = 1.0,
    mode: DecayMode = DecayMode.RATE,
):
    """sqrt of the mean-square gain, evaluated in the log domain.

    Steep decays push mean powers below the double-precision floor while the
    corresponding amplitudes are still representable; going through
    ``exp(log_power / 2)`` keeps those taps alive.
    """
    log_p = _log_mean_power(cluster_start_ns, ray_offset_ns, cluster_decay, ray_decay, mode)
    return math.sqrt(first_path_power) * np.exp(0.5 * log_p)


def _fade(amp_mean, fading: AmplitudeFading, rng: Optional[np.random.Generator]):
    """Tap amplitudes around the mean amplitude: as is, or Rayleigh-faded."""
    if fading is AmplitudeFading.DETERMINISTIC:
        return amp_mean
    if rng is None:
        raise ValueError("rayleigh fading requires an rng")
    # Rayleigh scale sigma with E[x^2] = 2 sigma^2 = amp_mean^2.
    return rng.rayleigh(scale=amp_mean / math.sqrt(2.0))


def draw_amplitudes(
    mean_power, fading: AmplitudeFading, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Tap amplitudes with the requested distribution around the mean square."""
    return _fade(np.sqrt(np.asarray(mean_power, dtype=float)), fading, rng)


def generate(
    params: ScenarioParams,
    config: GeneratorConfig,
    los_amplitude: float = 0.0,
    realization_index: int = 0,
    geometry=None,
) -> ChannelRealization:
    """Synthesize one channel realization.

    ``los_amplitude`` is the deterministic direct-path amplitude from the
    link budget; pass 0 for obstructed links, in which case the delay-0 tap
    is an ordinary scattered component. The result is bit-reproducible given
    (params, config, los_amplitude, realization_index).
    """
    indices = range(realization_index, realization_index + 1)
    return generate_ensemble(params, config, indices, los_amplitude, geometry)[0]


def _first_block_arrivals(gaps: np.ndarray, sizes: np.ndarray, spans: np.ndarray):
    """``_draw_arrivals`` on each row's first block: the next ``sizes[r]`` gaps.

    Row sums over zero padding equal each block's own running sums. Returns
    the arrivals of all rows back to back, the count per row, and whether
    each block reached its span (if not, the row needs more draws).
    """
    width = int(sizes.max())
    sums = np.zeros((sizes.size, width + 1))
    sums[:, 1:][np.arange(width) < sizes[:, None]] = gaps
    sums = np.cumsum(sums, axis=1)
    inside = sums < spans[:, None]
    return sums[inside], inside.sum(axis=1), sums[:, -1] >= spans


def generate_ensemble(
    params: ScenarioParams,
    config: GeneratorConfig,
    indices: range,
    los_amplitude: float = 0.0,
    geometry=None,
) -> Ensemble:
    """Synthesize realizations ``indices`` as one ensemble.

    ``generate`` is the one-member case, and member k does not depend on
    the other members. Only the draws are made per realization, from its
    own stream ``realization_rng(seed, i)`` and in the order of the
    per-realization law: the cluster gaps, the ray gaps of all its clusters
    in one call, the Rayleigh amplitudes, the phases. Everything else is
    computed for the whole ensemble. A realization whose first block of
    gaps falls short of its span redraws its arrivals through
    ``draw_cluster_arrivals`` and ``draw_ray_arrivals``.
    """
    if not 0 <= los_amplitude < math.inf:
        raise ValueError("los_amplitude must be finite and >= 0")
    window = config.window_ns
    if window < 1.0:
        raise WindowTooSmall(f"window of {window} ns cannot hold a pulse")
    _check_rate("cluster", params.cluster_rate)
    _check_rate("ray", params.ray_rate)
    m = len(indices)
    if m == 0:
        raise ValueError("an ensemble needs at least one realization index")

    rngs = [realization_rng(config.seed, i) for i in indices]
    block = _block_size(params.cluster_rate, window)
    gaps = np.concatenate([rng.exponential(1.0 / params.cluster_rate, block) for rng in rngs])
    starts, n_clusters, covered = _first_block_arrivals(
        gaps, np.full(m, block), np.full(m, window)
    )
    spans = window - starts
    # _block_size(ray_rate, span) of every cluster, row by row
    sizes = np.maximum(8, (spans * params.ray_rate * 1.5).astype(int) + 8)
    first_cluster = np.cumsum(n_clusters) - n_clusters
    totals = np.add.reduceat(sizes, first_cluster).tolist()
    gaps = np.concatenate(
        [rng.exponential(1.0 / params.ray_rate, n) for rng, n in zip(rngs, totals)]
    )
    tau, n_rays, reached = _first_block_arrivals(gaps, sizes, spans)
    covered &= np.logical_and.reduceat(reached, first_cluster)

    # back to front, so the positions of earlier realizations stay valid
    tap_bounds = np.concatenate([[0], np.cumsum(n_rays)])
    for k in np.flatnonzero(~covered)[::-1].tolist():
        rng = rngs[k] = realization_rng(config.seed, indices[k])
        own_starts = draw_cluster_arrivals(params.cluster_rate, window, rng)
        offsets = [
            draw_ray_arrivals(params.ray_rate, float(t_l), window, rng) for t_l in own_starts
        ]
        a, b = first_cluster[k], first_cluster[k] + n_clusters[k]
        starts = np.concatenate([starts[:a], own_starts, starts[b:]])
        n_rays = np.concatenate([n_rays[:a], [o.size for o in offsets], n_rays[b:]])
        tau = np.concatenate([tau[: tap_bounds[a]], *offsets, tau[tap_bounds[b] :]])
        n_clusters[k] = own_starts.size

    # cluster l of a realization owns the next n_rays[l] taps; rays count up from 0
    tap_cluster = np.repeat(np.arange(starts.size), n_rays)
    t = starts[tap_cluster]
    first_cluster = np.cumsum(n_clusters) - n_clusters
    clusters = (np.arange(starts.size) - np.repeat(first_cluster, n_clusters))[tap_cluster]
    rays = np.arange(tau.size) - np.repeat(np.cumsum(n_rays) - n_rays, n_rays)
    realization = np.repeat(np.arange(m), n_clusters)[tap_cluster]
    n_taps = np.bincount(realization, minlength=m)
    firsts = np.cumsum(n_taps) - n_taps
    bounds = list(zip(firsts.tolist(), (firsts + n_taps).tolist()))

    first_path_power = config.first_path_power
    if first_path_power is None:
        if los_amplitude > 0:
            first_path_power = los_amplitude**2 * 10.0 ** (-config.los_backoff_db / 10.0)
        else:
            first_path_power = 1.0

    amplitudes = mean_amplitude(
        t, tau, params.cluster_decay, params.ray_decay, first_path_power, config.decay_mode
    )
    if config.amplitude_fading is not AmplitudeFading.DETERMINISTIC:
        amplitudes = np.concatenate([
            _fade(amplitudes[a:b], config.amplitude_fading, rng) for rng, (a, b) in zip(rngs, bounds)
        ])
    phases = np.concatenate(
        [rng.uniform(0.0, 2.0 * math.pi, size=b - a) for rng, (a, b) in zip(rngs, bounds)]
    )

    delays = t + tau
    # each realization's taps sorted by delay, stably; realizations keep their order
    order = np.lexsort((delays, realization))
    amplitudes = amplitudes[order]
    if los_amplitude > 0:
        amplitudes[firsts] = los_amplitude

    # Sounder-style dynamic-range cut; the delay-0 tap anchors the
    # excess-delay origin and is always retained.
    if math.isfinite(config.dynamic_range_db):
        floor = np.maximum.reduceat(amplitudes, firsts) * 10.0 ** (-config.dynamic_range_db / 20.0)
        keep = amplitudes >= np.repeat(floor, n_taps)
        keep[firsts] = True
        order = order[keep]
        amplitudes = amplitudes[keep]
        n_taps = np.bincount(realization[order], minlength=m)

    config_doc = config.as_dict()
    return Ensemble(
        delays[order], amplitudes, phases[order], clusters[order], rays[order],
        np.concatenate([[0], np.cumsum(n_taps)]),
        window_ns=window, params=params, geometry=geometry, seed=config.seed,
        los_amplitude=los_amplitude,
        metadata=[{"realization_index": i, "config": dict(config_doc)} for i in indices],
    )


# --- Serialization ----------------------------------------------------------

REALIZATION_CSV_HEADER = "delay_ns,amplitude,phase_rad,cluster_index,ray_index"


def _atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial files."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_realization_csv(realization: ChannelRealization, path: Union[str, Path]) -> None:
    """Tap table as CSV; floats carry 17 significant digits for exact round-trips.

    The bytes are a compatibility contract: header first, then one
    ``%.17g,%.17g,%.17g,%d,%d`` row per tap with ``\\n`` line ends. Files
    written by earlier versions compare equal byte for byte.
    """
    columns = (
        realization.delays_ns,
        realization.amplitudes,
        realization.phases_rad,
        realization.cluster_indices,
        realization.ray_indices,
    )
    # .tolist() yields Python floats and ints, so %d never sees a numpy scalar
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = "%.17g,%.17g,%.17g,%d,%d\n" * len(realization) % values
    _atomic_write_text(path, f"{REALIZATION_CSV_HEADER}\n{rows}")


def read_realization_csv(
    path: Union[str, Path], window_ns: float = 100.0
) -> ChannelRealization:
    """Parse a tap-table CSV back into a realization.

    The CSV carries taps only; window and provenance must be supplied or
    defaulted. Raises MalformedFile with the offending line on any parse
    problem.
    """
    path = Path(path)
    delays, amps, phases, clusters, rays = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedFile(str(path), 1, "empty file") from None
        if [h.strip() for h in header] != REALIZATION_CSV_HEADER.split(","):
            raise MalformedFile(str(path), 1, f"expected header '{REALIZATION_CSV_HEADER}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise MalformedFile(str(path), lineno, f"expected 5 fields, got {len(row)}")
            try:
                delays.append(float(row[0]))
                amps.append(float(row[1]))
                phases.append(float(row[2]))
                clusters.append(int(row[3]))
                rays.append(int(row[4]))
            except ValueError as exc:
                raise MalformedFile(str(path), lineno, str(exc)) from None
    try:
        return ChannelRealization(
            np.array(delays),
            np.array(amps),
            np.array(phases),
            np.array(clusters, dtype=int),
            np.array(rays, dtype=int),
            window_ns=window_ns,
            metadata={"source": str(path)},
        )
    except ValueError as exc:
        raise MalformedFile(str(path), 0, str(exc)) from None


def realization_to_json(realization: ChannelRealization) -> dict:
    """JSON document embedding taps plus enough provenance to reproduce the run."""
    doc = {
        "window_ns": realization.window_ns,
        "seed": realization.seed,
        "los_amplitude": realization.los_amplitude,
        "taps": {
            "delay_ns": [float(x) for x in realization.delays_ns],
            "amplitude": [float(x) for x in realization.amplitudes],
            "phase_rad": [float(x) for x in realization.phases_rad],
            "cluster_index": [int(x) for x in realization.cluster_indices],
            "ray_index": [int(x) for x in realization.ray_indices],
        },
        "params": realization.params.as_dict() if realization.params else None,
        "metadata": realization.metadata,
    }
    return doc


def realization_from_json(doc: dict) -> ChannelRealization:
    taps = doc["taps"]
    params = ScenarioParams.from_dict(doc["params"]) if doc.get("params") else None
    return ChannelRealization(
        np.array(taps["delay_ns"], dtype=float),
        np.array(taps["amplitude"], dtype=float),
        np.array(taps["phase_rad"], dtype=float),
        np.array(taps["cluster_index"], dtype=int),
        np.array(taps["ray_index"], dtype=int),
        window_ns=float(doc["window_ns"]),
        params=params,
        seed=doc.get("seed"),
        los_amplitude=float(doc.get("los_amplitude", 0.0)),
        metadata=doc.get("metadata") or {},
    )
