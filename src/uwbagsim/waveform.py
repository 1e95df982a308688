"""Pulse-level forward model on the sounder's sampling grid.

A scan is synthesized by dropping a Gaussian-envelope carrier pulse on every
tap: the envelope width is set by the nominal 1 ns pulse duration (measured
between the -20 dB envelope points), the carrier rides at the radio's center
frequency, and each tap's phase enters as a carrier phase offset. Tap delays
snap to the nearest retained sample; the raw delay-bin resolution times the
decimation factor gives the ~61 ps sample step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import SCAN_WINDOW_NS, ChannelRealization
from .errors import DelayOutOfWindow, InvalidValue
from .generator import _atomic_write_text, _read_csv_columns, realization_rng
from .linkbudget import CENTER_FREQ_HZ

__all__ = [
    "SamplingGrid",
    "WaveformRecord",
    "template_pulse",
    "render",
    "write_waveform_csv",
    "read_waveform_csv",
]

# The sounder's time base: raw delay bins of 1.9073 ps, kept one in 32, and
# its nominal pulse duration.
BIN_PS = 1.9073
DECIMATION = 32
PULSE_DURATION_NS = 1.0

# Gaussian envelope: exp(-t^2 / (2 sigma^2)) hits 0.1 (-20 dB) at
# t = sigma * sqrt(2 ln 10), so the duration between those points fixes sigma.
_SIGMA_PER_DURATION = 1.0 / (2.0 * math.sqrt(2.0 * math.log(10.0)))

# Envelope support kept out to a 1e-8 relative floor, far below the sounder's
# dynamic range.
_SUPPORT_SIGMAS = math.sqrt(2.0 * math.log(1e8))

# Accepted per-sample SNR, dB: past any sounder, with 10**(snr/10) well inside the float range.
SNR_DB_LIMIT = 300.0


@dataclass(frozen=True)
class SamplingGrid:
    """Receiver time base: the sounder's sample step over a scan window."""

    window_ns: float = SCAN_WINDOW_NS

    def __post_init__(self) -> None:
        if not 0 < self.window_ns < math.inf:
            raise InvalidValue("invalid sampling grid: window_ns must be finite and > 0")
        if self.n_samples < 1:
            raise InvalidValue(f"invalid sampling grid: window_ns {self.window_ns} has no sample")

    @property
    def sample_step_ps(self) -> float:
        return BIN_PS * DECIMATION

    @property
    def sample_step_ns(self) -> float:
        return self.sample_step_ps / 1000.0

    @property
    def n_samples(self) -> int:
        """Samples that fit inside the window (floor, never overrunning it)."""
        return int(math.floor(self.window_ns * 1000.0 / self.sample_step_ps))

    def time_ns(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.sample_step_ns


DEFAULT_GRID = SamplingGrid()


@dataclass(frozen=True)
class WaveformRecord:
    """Sampled real-valued waveform on a grid.

    A full channel scan has exactly ``grid.n_samples`` samples; the template
    pulse reuses the type with a short, odd-length, center-symmetric array.
    """

    samples: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def is_full_scan(self) -> bool:
        return len(self) == self.grid.n_samples

    @property
    def energy(self) -> float:
        return float(np.sum(self.samples**2))


@functools.cache
def _envelope_and_carrier() -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sampled envelope and quadrature carriers on a centered support.

    Returns (envelope, cos carrier, sin carrier, half_width_samples). Every
    grid shares the sounder's sample step, so the pulse is computed once and
    shared by every caller; the arrays are read-only.
    """
    step_ns = DEFAULT_GRID.sample_step_ns
    sigma_ns = PULSE_DURATION_NS * _SIGMA_PER_DURATION
    half = int(math.ceil(_SUPPORT_SIGMAS * sigma_ns / step_ns))
    t_rel = np.arange(-half, half + 1) * step_ns
    env = np.exp(-(t_rel**2) / (2.0 * sigma_ns**2))
    omega_t = 2.0 * math.pi * CENTER_FREQ_HZ * 1e-9 * t_rel
    arrays = env, np.cos(omega_t), np.sin(omega_t)
    for arr in arrays:
        arr.setflags(write=False)
    return (*arrays, half)


def template_pulse(grid: SamplingGrid = DEFAULT_GRID) -> WaveformRecord:
    """Unit-peak sounding pulse: Gaussian-windowed carrier, center-symmetric."""
    env, cos_c, _, _ = _envelope_and_carrier()
    return WaveformRecord(env * cos_c, grid)


def render(
    realization: ChannelRealization,
    grid: SamplingGrid = DEFAULT_GRID,
    snr_db: Optional[float] = None,
    noise_seed: int = 0,
) -> WaveformRecord:
    """Convolve the tap set with the sounding pulse on the sampling grid.

    Each tap contributes amplitude * envelope(t - delay) *
    cos(carrier * (t - delay) + phase), with the delay snapped to the nearest
    sample. With ``snr_db`` set, white Gaussian noise is added at that
    per-sample SNR relative to the noiseless waveform's mean-square level;
    the noise stream is fixed by ``noise_seed``. |snr_db| <= SNR_DB_LIMIT.
    """
    if snr_db is not None and not abs(snr_db) <= SNR_DB_LIMIT:
        raise InvalidValue(f"snr_db must lie within {SNR_DB_LIMIT:g} dB of 0, got {snr_db}")
    # ChannelRealization keeps delays sorted and >= 0, so only the last can overrun
    if len(realization) and realization.delays_ns[-1] >= grid.window_ns:
        worst = float(realization.delays_ns[-1])
        raise DelayOutOfWindow(f"tap at {worst} ns exceeds the {grid.window_ns} ns window")

    env, cos_c, sin_c, half = _envelope_and_carrier()
    base_i = env * cos_c
    base_q = env * sin_c

    n = grid.n_samples
    out = np.zeros(n)
    step_ns = grid.sample_step_ns
    for delay, amp, phase in zip(
        realization.delays_ns, realization.amplitudes, realization.phases_rad
    ):
        center = int(round(delay / step_ns))
        lo = max(0, center - half)
        hi = min(n, center + half + 1)
        if lo >= hi:
            continue
        src = slice(lo - (center - half), hi - (center - half))
        out[lo:hi] += amp * (
            math.cos(phase) * base_i[src] - math.sin(phase) * base_q[src]
        )

    if snr_db is not None:
        signal_power = float(np.mean(out**2))
        sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0)) if signal_power > 0 else 0.0
        if not sigma < math.inf:
            raise InvalidValue(f"noise level past the float range at snr_db {snr_db}")
        out = out + realization_rng(noise_seed, 1).normal(0.0, sigma, size=n)

    return WaveformRecord(out, grid)


# --- Serialization ----------------------------------------------------------


WAVEFORM_CSV_HEADER = "sample_index,time_ns,value"


@functools.lru_cache(maxsize=8)
def _waveform_csv_template(n_samples: int) -> str:
    """Header plus one ``i,time,%.17g`` row per sample, for one ``%`` call.

    The index and time columns depend only on the sample count (every grid
    shares the sample step), so they are formatted once here; only the value
    column is left as a placeholder.
    """
    step_ns = DEFAULT_GRID.sample_step_ns
    rows = "".join(f"{i:d},{i * step_ns:.17g},%.17g\n" for i in range(n_samples))
    return f"{WAVEFORM_CSV_HEADER}\n{rows}"


def write_waveform_csv(record: WaveformRecord, path: Union[str, Path]) -> None:
    """(sample_index, time_ns, value) rows; 17 significant digits round-trip.

    The bytes are a compatibility contract: ``i`` as a decimal integer,
    ``i * sample_step_ns`` and the sample each as ``%.17g`` (``-0``, ``nan``
    and ``inf`` spelled as Python spells them), comma-separated, ``\\n``
    line ends, header first. Files written by earlier versions compare equal
    byte for byte.
    """
    template = _waveform_csv_template(len(record))
    _atomic_write_text(path, template % tuple(record.samples.tolist()))


def read_waveform_csv(path: Union[str, Path], grid: SamplingGrid = DEFAULT_GRID) -> WaveformRecord:
    """The value column of a waveform CSV; index and time are not read back."""
    (values,) = _read_csv_columns(path, WAVEFORM_CSV_HEADER, (None, None, float))
    return WaveformRecord(values, grid)
