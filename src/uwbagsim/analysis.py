"""Inverse pipeline: waveform deconvolution, power delay profiles, significant
component counting, cluster identification, and parameter re-estimation.

The estimation stage closes the loop with the generator: feeding it an
ensemble of synthetic realizations should recover the arrival rates and decay
constants they were generated with, which is the package's primary
self-consistency check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .core import ChannelRealization, Ensemble, Tap, _cluster_starts
from .errors import EmptyInput, InsufficientData, InvalidValue, ZeroTemplate
from .generator import DecayMode
from .waveform import DEFAULT_GRID, SamplingGrid, _scan_samples

__all__ = [
    "Pdp",
    "ClusterEstimate",
    "ParamEstimate",
    "clean_deconvolve",
    "compute_pdp",
    "count_significant_mpcs",
    "average_significant_mpcs",
    "identify_clusters",
    "estimate_params",
    "analysis_report",
]

PDP_FLOOR_DB = -100.0
# Bins of the member grid that compute_pdp holds at once (2 MB of float64), one member at least.
PDP_BLOCK_SAMPLES = 2**18


@dataclass(frozen=True)
class Pdp:
    """Ensemble power delay profile, normalized so the peak sits at 0 dB."""

    time_ns: np.ndarray
    power_db: np.ndarray
    smoothed_db: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.time_ns) == len(self.power_db) == len(self.smoothed_db)):
            raise InvalidValue("pdp arrays must share one length")


@dataclass(frozen=True)
class ClusterEstimate:
    """One identified power cluster on a smoothed profile."""

    start_ns: float
    peak_ns: float
    end_ns: float
    peak_db: float

    def __post_init__(self) -> None:
        if not (self.start_ns <= self.peak_ns <= self.end_ns):
            raise InvalidValue("cluster must satisfy start <= peak <= end")


@dataclass(frozen=True)
class ParamEstimate:
    """Recovered multipath statistics from an ensemble of realizations."""

    n_clusters_hat: float
    cluster_rate_hat: float
    cluster_decay_hat: float
    ray_rate_hat: float
    ray_decay_hat: float
    n_realizations: int
    decay_mode: DecayMode

    def as_dict(self) -> dict:
        return {
            "n_clusters_hat": self.n_clusters_hat,
            "cluster_rate_per_ns_hat": self.cluster_rate_hat,
            "cluster_decay_hat": self.cluster_decay_hat,
            "ray_rate_per_ns_hat": self.ray_rate_hat,
            "ray_decay_hat": self.ray_decay_hat,
            "n_realizations": self.n_realizations,
            "decay_mode": self.decay_mode.value,
        }


def clean_deconvolve(
    rx: np.ndarray,
    template: np.ndarray,
    stop_frac: float = 0.2,
    max_iterations: int = 1000,
) -> list[Tap]:
    """Iterative peak-pick-and-subtract deconvolution of a received scan.

    Repeatedly locates the strongest correlation peak between the residual
    and the template, records a tap there (sign encoded as phase 0 or pi),
    and subtracts the scaled, shifted template. Iteration stops once the
    residual correlation peak falls below ``stop_frac`` of the initial peak,
    which realizes the sounder's relative amplitude threshold.
    """
    t = np.asarray(template, dtype=float)
    energy = float(np.sum(t**2))
    if energy == 0.0:
        raise ZeroTemplate("template has no energy")
    m = t.shape[0]
    center_off = (m - 1) // 2

    residual = np.array(rx, dtype=float)
    n = residual.shape[0]
    if n == 0:
        raise InvalidValue("rx holds no sample")
    step_ns = DEFAULT_GRID.sample_step_ns

    picked: dict[int, float] = {}
    initial_peak = None
    corr = np.correlate(residual, t, mode="full")
    for _ in range(max_iterations):
        k = int(np.argmax(np.abs(corr)))
        peak = abs(float(corr[k]))
        if initial_peak is None:
            initial_peak = peak
            if initial_peak == 0.0:
                return []
        if peak < stop_frac * initial_peak:
            break
        amp = float(corr[k]) / energy
        start = k - (m - 1)  # template sample 0 aligned at this rx index
        center = start + center_off
        lo = max(0, start)
        hi = min(n, start + m)
        residual[lo:hi] -= amp * t[lo - start : hi - start]
        picked[center] = picked.get(center, 0.0) + amp
        # only lags lo .. hi + m - 2 read the changed samples: each is recomputed as the same
        # dot product over the same samples as in a full correlation, so bit for bit
        r0, r1 = max(0, lo - (m - 1)), min(n, hi + m - 1)
        corr[lo : hi + m - 1] = np.correlate(residual[r0:r1], t, "full")[lo - r0 : hi + m - 1 - r0]

    return [
        Tap(delay_ns=center * step_ns, amplitude=abs(amp), phase_rad=0.0 if amp >= 0 else np.pi,
            cluster_index=0, ray_index=i)
        for i, (center, amp) in enumerate(sorted(picked.items()))
    ]


def _binned_powers(taps: Union[ChannelRealization, Ensemble]) -> Iterator[np.ndarray]:
    """Each member's tap powers in nearest-sample bins over the window, one row a member,
    in blocks of members whose grid stays within PDP_BLOCK_SAMPLES."""
    n = SamplingGrid(taps.window_ns).n_samples
    # a delay within half a step of the window end rounds to the bin past it
    idx = np.clip(np.rint(taps.delays_ns / DEFAULT_GRID.sample_step_ns).astype(int), 0, n - 1)
    powers = taps.amplitudes**2
    block = max(1, PDP_BLOCK_SAMPLES // n)
    for first in range(0, len(taps.offsets) - 1, block):
        offsets = taps.offsets[first:first + block + 1]
        sizes, part = np.diff(offsets), slice(offsets[0], offsets[-1])
        out = np.zeros((sizes.size, n))
        bins = np.repeat(np.arange(sizes.size) * n, sizes) + idx[part]
        np.add.at(out.reshape(-1), bins, powers[part])  # unbuffered, in tap order
        yield from out


def compute_pdp(
    inputs: Iterable[Union[ChannelRealization, Ensemble, np.ndarray]],
    smoothing_window_samples: int = 25,
) -> Pdp:
    """Average per-bin power across scans, normalize, and smooth.

    Accepts any mix of realizations, Ensembles (read as their members) and
    scans: a container's tap powers are binned on the sample grid over its
    own window, a scan's samples squared. Each profile is added to the sum
    in input order, and all must share one length; their mean power must be
    finite. A scan is a 1-D real array of at least one sample; a realization
    with no taps gives a zero profile. Smoothing is a centered moving average
    applied to the linear profile before conversion to dB, so an isolated
    impulse spreads into a plateau one window wide and 10*log10(window)
    down from its unsmoothed peak. The window must lie between one sample
    and the profile length.
    """
    acc, n_profiles = None, 0
    # a power past the float range turns to inf here and is rejected below
    with np.errstate(over="ignore"):
        for item in inputs:
            if isinstance(item, (ChannelRealization, Ensemble)):
                profiles = _binned_powers(item)
            elif _scan_samples(item).size:
                profiles = [np.asarray(item, dtype=float) ** 2]
            else:
                raise InvalidValue("scan holds no sample")
            for profile in profiles:
                if acc is not None and profile.size != acc.size:
                    raise InvalidValue(f"pdp inputs differ in length: {acc.size} and "
                                       f"{profile.size} samples")
                acc = profile if acc is None else acc + profile
                n_profiles += 1
    if acc is None:
        raise EmptyInput("need at least one realization or waveform")
    mean_power = acc / n_profiles
    if not 1 <= smoothing_window_samples <= mean_power.size:
        raise InvalidValue(
            f"smoothing window must be between 1 and {mean_power.size} samples, "
            f"got {smoothing_window_samples}"
        )
    if not np.isfinite(mean_power).all():
        raise InvalidValue("mean power is not finite: an input is NaN or past the float range")

    peak = float(mean_power.max())
    if peak <= 0:
        raise EmptyInput("all input power is zero")
    normalized = mean_power / peak

    kernel = np.ones(smoothing_window_samples) / smoothing_window_samples
    smoothed = np.convolve(normalized, kernel, mode="same")

    with np.errstate(divide="ignore"):
        power_db = np.maximum(10.0 * np.log10(normalized), PDP_FLOOR_DB)
        smoothed_db = np.maximum(10.0 * np.log10(smoothed), PDP_FLOOR_DB)
    time_ns = np.arange(len(normalized)) * DEFAULT_GRID.sample_step_ns
    return Pdp(time_ns=time_ns, power_db=power_db, smoothed_db=smoothed_db)


def count_significant_mpcs(taps, threshold_frac: float = 0.2) -> Union[int, np.ndarray]:
    """Components at or above ``threshold_frac`` of the strongest amplitude: an int for a
    realization or a list of Taps or amplitudes, and for an ``Ensemble`` an int array whose
    element k is the count of ``ens[k]``. A realization or member without taps raises EmptyInput."""
    if isinstance(taps, (ChannelRealization, Ensemble)):
        amps, offsets = taps.amplitudes, taps.offsets
    else:
        amps = np.asarray([t.amplitude if isinstance(t, Tap) else float(t) for t in taps], float)
        offsets = np.array([0, amps.size])
    sizes = np.diff(offsets)
    if not sizes.all():
        raise EmptyInput("no taps to count")
    peaks = np.repeat(np.maximum.reduceat(amps, offsets[:-1]), sizes)
    # the dtype, as a sum of bools may stay bool
    counts = np.add.reduceat(amps >= threshold_frac * peaks, offsets[:-1], dtype=int)
    return counts if isinstance(taps, Ensemble) else int(counts[0])


def average_significant_mpcs(
    realizations: Iterable[Union[ChannelRealization, Ensemble]], threshold_frac: float = 0.2
) -> float:
    """Mean significant-component count across scans; an Ensemble counts as its members."""
    counts = [np.atleast_1d(count_significant_mpcs(r, threshold_frac)) for r in realizations]
    if not any(map(len, counts)):
        raise EmptyInput("no realizations")
    return float(np.mean(np.concatenate(counts)))


def _extrema(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima, plateau-tolerant.

    An extremum sits where a rising run gives way to a falling one (or vice
    versa); a flat stretch between them counts as part of the turn and the
    extremum lands at the start of the plateau. The first sample acts as a
    valley when the curve initially rises (a peak when it falls), and the
    end of the last sloped run closes the sequence symmetrically.
    """
    d = np.diff(values)
    nz = np.flatnonzero(d)
    if nz.size == 0:
        return nz, nz
    rising = d[nz] > 0
    # a run of one slope sign turns one sample after its last nonzero step;
    # sample 0 opens the first run as the opposite kind of turn
    ends = np.flatnonzero(np.append(rising[1:] != rising[:-1], True))
    turns = np.append(0, nz[ends] + 1)
    is_peak = np.append(~rising[0], rising[ends])
    return turns[is_peak], turns[~is_peak]


def identify_clusters(
    pdp: Pdp,
    rise_fall_db: float = 10.0,
    min_peak_to_fall_ns: float = 2.0,
) -> list[ClusterEstimate]:
    """Mechanical cluster segmentation of a smoothed profile.

    A candidate opens at a peak that rises at least ``rise_fall_db`` above
    the preceding local minimum (the profile start counts as an opening
    rise). It closes at the next slope change lying at least
    ``rise_fall_db`` below the peak, and is admitted only when that
    peak-to-fall span lasts ``min_peak_to_fall_ns`` or more. Admitted
    clusters are disjoint and ordered.
    """
    s = np.asarray(pdp.smoothed_db, dtype=float)
    t = np.asarray(pdp.time_ns, dtype=float)
    peaks, valleys = _extrema(s)
    valley_db = s[valleys]
    # position of the last valley before each peak (-1: none); peaks and
    # valleys never share an index, so the valleys after it all follow the peak
    prior = np.searchsorted(valleys, peaks) - 1
    # a peak past a closed cluster has its prior valley at or after that cluster's end, so its
    # rise never depends on earlier clusters; with no valley before it, it rises from -inf dB
    rise = s[peaks] - np.append(valley_db, -np.inf)[prior]
    opens = ~(rise < rise_fall_db)

    clusters: list[ClusterEstimate] = []
    prev_end_idx = -1
    for p, j in zip(peaks[opens].tolist(), prior[opens].tolist()):
        if p <= prev_end_idx:
            continue
        start_idx = valleys[j] if j >= 0 else 0  # the opening edge of the profile
        falls = np.flatnonzero(s[p] - valley_db[j + 1 :] >= rise_fall_db)
        if falls.size:
            end_idx = valleys[j + 1 + falls[0]]
        elif s[p] - s[-1] >= rise_fall_db:
            end_idx = s.size - 1
        else:
            continue  # never decays enough to close
        if t[end_idx] - t[p] < min_peak_to_fall_ns:
            continue
        clusters.append(
            ClusterEstimate(
                start_ns=float(t[start_idx]),
                peak_ns=float(t[p]),
                end_ns=float(t[end_idx]),
                peak_db=float(s[p]),
            )
        )
        prev_end_idx = end_idx
    return clusters


def estimate_params(
    realizations: Iterable[Union[Ensemble, ChannelRealization]],
    decay_mode: DecayMode = DecayMode.RATE,
) -> ParamEstimate:
    """Re-extract multipath statistics from an ensemble of realizations.

    Arrival rates come from the censored-exponential maximum-likelihood
    estimator (arrival events over observed exposure; with the pinned first
    cluster this reduces to ``(mean cluster count - 1) / window``). Decay
    constants come from a least-squares fit of per-tap log power against
    cluster start time and ray offset, read out in the requested decay
    convention. A deterministic direct-path tap, when present, is excluded
    from the power fit. All realizations must share one scan window.

    Takes ensembles, realizations or a mix, and reduces each container in
    one pass, so a stream of chunks never has to be held at once: one sum of
    its ray exposure and one product of its design matrix with itself and
    with the log powers, added to the running totals in input order.
    """
    n_real = 0
    window = None
    cluster_count_sum = 0
    ray_events = 0
    ray_exposure = 0.0
    xtx = np.zeros((3, 3))
    xty = np.zeros(3)

    for ens in realizations:
        n_real += ens.offsets.shape[0] - 1
        if window is not None and ens.window_ns != window:
            raise InvalidValue(f"scan windows differ: {window:g} ns and {ens.window_ns:g} ns")
        window = ens.window_ns
        starts, _, t_per_tap = _cluster_starts(ens)
        cluster_count_sum += starts.size
        ray_events += len(ens.delays_ns) - starts.size
        ray_exposure += np.sum(ens.window_ns - starts)

        mask = ens.amplitudes > 0
        if ens.los_amplitude > 0:
            mask[ens.offsets[:-1][np.diff(ens.offsets) > 0]] = False
        rows = np.flatnonzero(mask)
        t = t_per_tap[rows]
        design = np.column_stack([np.ones(rows.size), t, ens.delays_ns[rows] - t])
        logp = 2.0 * np.log(ens.amplitudes[rows])
        xtx += design.T @ design
        xty += design.T @ logp

    if n_real == 0:
        raise EmptyInput("no realizations")
    cluster_events = cluster_count_sum - n_real
    if cluster_events < 1 or ray_events < 1:
        raise InsufficientData(
            "ensemble carries no inter-arrival information "
            f"(cluster events={cluster_events}, ray events={ray_events})"
        )

    n_clusters_hat = cluster_count_sum / n_real
    cluster_rate_hat = (n_clusters_hat - 1.0) / window
    ray_rate_hat = ray_events / ray_exposure

    if np.linalg.matrix_rank(xtx) < 3:
        raise InsufficientData(
            "decay fit is underdetermined: the scatter taps do not vary in "
            "both cluster start time and ray offset"
        )
    coeffs = np.linalg.solve(xtx, xty)
    slope_t, slope_tau = -coeffs[1], -coeffs[2]
    if decay_mode is DecayMode.RATE:
        cluster_decay_hat, ray_decay_hat = slope_t, slope_tau
    else:
        if slope_t <= 0 or slope_tau <= 0:
            raise InsufficientData("nonpositive decay slope; cannot invert to time constants")
        cluster_decay_hat, ray_decay_hat = 1.0 / slope_t, 1.0 / slope_tau

    return ParamEstimate(
        n_clusters_hat=float(n_clusters_hat),
        cluster_rate_hat=float(cluster_rate_hat),
        cluster_decay_hat=float(cluster_decay_hat),
        ray_rate_hat=float(ray_rate_hat),
        ray_decay_hat=float(ray_decay_hat),
        n_realizations=n_real,
        decay_mode=decay_mode,
    )


def analysis_report(
    realizations: Iterable[Union[ChannelRealization, Ensemble]],
    decay_mode: DecayMode = DecayMode.RATE,
    smoothing_window_samples: int = 25,
    rise_fall_db: float = 10.0,
    min_peak_to_fall_ns: float = 2.0,
    threshold_frac: float = 0.2,
    config_echo: Optional[dict] = None,
) -> dict:
    """Full JSON-ready analysis of realizations and Ensembles, read as their members: PDP,
    clusters, counts, and estimates, which reduce each container in one pass."""
    realizations = list(realizations)
    pdp = compute_pdp(realizations, smoothing_window_samples)
    clusters = identify_clusters(pdp, rise_fall_db, min_peak_to_fall_ns)
    significant = average_significant_mpcs(realizations, threshold_frac)
    try:
        estimates = estimate_params(realizations, decay_mode).as_dict()
    except InsufficientData as exc:
        estimates = {"error": str(exc)}
    return {
        "pdp": {
            "time_ns": [float(x) for x in pdp.time_ns],
            "power_db": [float(x) for x in pdp.power_db],
            "smoothed_db": [float(x) for x in pdp.smoothed_db],
        },
        "clusters": [asdict(c) for c in clusters],
        "significant_mpc_avg": significant,
        "estimates": estimates,
        "config": dict(config_echo or {}),
    }
