"""Pulse-level forward model on the sounder's sampling grid.

A scan is synthesized by dropping a Gaussian-envelope carrier pulse on every
tap: the envelope width is set by the nominal 1 ns pulse duration (measured
between the -20 dB envelope points), the carrier rides at the radio's center
frequency, and each tap's phase enters as a carrier phase offset. Tap delays
snap to the nearest retained sample; the raw delay-bin resolution times the
decimation factor gives the ~61 ps sample step.

A scan is a 1-D float64 array: sample i sits at ``i * sample_step_ns``.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import BIN_PS, DECIMATION, SCAN_WINDOW_NS, ChannelRealization, Ensemble, window_samples
from .errors import InvalidValue, MalformedFile
from .generator import _atomic_write_text, _parse_csv_columns, _read_csv_text, realization_rng
from .linkbudget import CENTER_FREQ_HZ

__all__ = [
    "SamplingGrid",
    "template_pulse",
    "render",
    "write_waveform_csv",
    "read_waveform_csv",
]

# The sounder's nominal pulse duration; its time base is core.BIN_PS and
# core.DECIMATION.
PULSE_DURATION_NS = 1.0

# Gaussian envelope: exp(-t^2 / (2 sigma^2)) hits 0.1 (-20 dB) at
# t = sigma * sqrt(2 ln 10), so the duration between those points fixes sigma.
_SIGMA_PER_DURATION = 1.0 / (2.0 * math.sqrt(2.0 * math.log(10.0)))

# Envelope support kept out to a 1e-8 relative floor, far below the sounder's
# dynamic range.
_SUPPORT_SIGMAS = math.sqrt(2.0 * math.log(1e8))

# Accepted per-sample SNR, dB: past any sounder, with 10**(snr/10) well inside the float range.
SNR_DB_LIMIT = 300.0

# Taps whose pulses render lays out at once: about 0.8 MB for each array of a block.
_RENDER_BLOCK_TAPS = 2048


@dataclass(frozen=True)
class SamplingGrid:
    """Receiver time base: the sounder's sample step over a scan window.

    A grid takes the windows a tap container takes, except one whose
    float64 scan would pass numpy's array size limit of ``sys.maxsize``
    bytes (past about 7.04e16 ns, an infinite count included): that raises
    InvalidValue, as no scan on it can be allocated.
    """

    window_ns: float = SCAN_WINDOW_NS

    def __post_init__(self) -> None:
        if window_samples(self.window_ns) * 8 > sys.maxsize:
            raise InvalidValue(f"scan window of {self.window_ns} ns holds more samples "
                               "than an array can hold")

    @property
    def sample_step_ps(self) -> float:
        return BIN_PS * DECIMATION

    @property
    def sample_step_ns(self) -> float:
        return self.sample_step_ps / 1000.0

    @property
    def n_samples(self) -> int:
        """Samples that fit inside the window (floor, never overrunning it)."""
        return int(math.floor(window_samples(self.window_ns)))


DEFAULT_GRID = SamplingGrid()


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


def template_pulse() -> np.ndarray:
    """Unit-peak sounding pulse: Gaussian-windowed carrier, center-symmetric, odd length."""
    env, cos_c, _, _ = _envelope_and_carrier()
    return env * cos_c


def render(
    realization: Union[ChannelRealization, Ensemble],
    snr_db: Optional[float] = None,
    noise_seed: int = 0,
) -> np.ndarray:
    """Convolve the tap set with the sounding pulse on the realization's grid.

    Each tap contributes amplitude * envelope(t - delay) *
    cos(carrier * (t - delay) + phase), with the delay snapped to the nearest
    sample; a sample adds its taps' pulses in tap order. With ``snr_db`` set,
    white Gaussian noise is added at that per-sample SNR relative to the
    noiseless scan's mean-square level; the noise stream is fixed by
    ``noise_seed``. |snr_db| <= SNR_DB_LIMIT. Returns the scan of a
    realization: ``SamplingGrid(realization.window_ns).n_samples`` float64 samples.
    Given an ``Ensemble``, returns an ``(m, n_samples)`` array whose row k is
    ``render(ens[k], snr_db, noise_seed + k)``, bit for bit.
    """
    if snr_db is not None and not abs(snr_db) <= SNR_DB_LIMIT:
        raise InvalidValue(f"snr_db must lie within {SNR_DB_LIMIT:g} dB of 0, got {snr_db}")

    env, cos_c, sin_c, half = _envelope_and_carrier()
    n = SamplingGrid(realization.window_ns).n_samples
    counts = np.diff(realization.offsets)
    centers = np.rint(realization.delays_ns / DEFAULT_GRID.sample_step_ns).astype(np.intp)
    # Each row pads ``half`` samples before the scan and enough after it for
    # every whole pulse, so no pulse is clipped; the padding is cut off.
    width = 2 * half + max(n, int(centers.max(initial=0)) + 1)
    out = np.zeros((counts.size, width))
    starts = np.repeat(np.arange(counts.size) * width, counts) + centers
    phases = realization.phases_rad.tolist()  # math's cos and sin, as every earlier version took
    cos_p, sin_p = np.array([math.cos(p) for p in phases]), np.array([math.sin(p) for p in phases])
    amps, base_i, base_q = realization.amplitudes, env * cos_c, env * sin_c
    support = np.arange(2 * half + 1)
    for a in range(0, centers.size, _RENDER_BLOCK_TAPS):
        t = slice(a, a + _RENDER_BLOCK_TAPS)
        pulses = amps[t, None] * (cos_p[t, None] * base_i - sin_p[t, None] * base_q)
        # one unbuffered add in tap order, from 0.0 on
        np.add.at(out.reshape(-1), (starts[t, None] + support).ravel(), pulses.ravel())
    scans = out[:, half : half + n]

    if snr_db is not None:
        for k, scan in enumerate(scans):
            signal_power = float(np.mean(scan**2))
            sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0)) if signal_power > 0 else 0.0
            if not sigma < math.inf:
                raise InvalidValue(f"noise level past the float range at snr_db {snr_db}")
            scan += realization_rng(noise_seed + k, 1).normal(0.0, sigma, size=n)

    return scans if isinstance(realization, Ensemble) else scans[0]


# --- Serialization ----------------------------------------------------------


WAVEFORM_CSV_HEADER = "sample_index,time_ns,value"

# A value field at its widest: sign, d0, point, d1..d16, "e", exponent, line end.
_FIELD = b"-0.0000000000000000e+000\n"
# Bound of k = floor(log10 |v|): the kernel takes 1e-280 <= |v| <= 1e280, Dekker's split's range.
_K_MAX = 281
# Rows per block: each array of a block stays under 64 KB, so glibc's free never trims the heap.
_BLOCK_ROWS = 1024


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """By k, 10**(16 - k) as double-doubles, exponents, 18 * layouts; "0000".."9999"; keep masks."""
    p10 = [(10**q, 1) if q >= 0 else (1, 10**-q) for q in range(16 + _K_MAX, 15 - _K_MAX, -1)]
    hi = [n / d for n, d in p10]
    lo = [(n * b - a * d) / (d * b) for (n, d), (a, b) in zip(p10, map(float.as_integer_ratio, hi))]
    ks = np.arange(-_K_MAX, _K_MAX + 1)
    exps = np.frombuffer(b"".join((b"%+03d0" % k)[:4] for k in ks), np.uint32)  # "+050", "+123"
    layout = np.where((ks >= -4) & (ks < 17), ks + 4, 21 + (np.abs(ks) >= 100)) * 18
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # "0000".."9999"
    quads = np.ascontiguousarray(quads).view(np.uint32)[:, 0]
    j, t = np.arange(17), np.arange(18)[:, None]
    keep = np.tile(np.arange(len(_FIELD)) == len(_FIELD) - 1, (24, 18, 1))  # by layout and t
    for k in range(-4, 17):  # d0..dk "." d(k+1)..d16, or "0." and -k-1 zeros, then d0..d16
        keep[k + 4][:, j + 1 + (j > k) if k >= 0 else j + 2 - k] = (j <= k) | (j < t)
        if k >= 0:
            keep[k + 4, :, k + 2] = t[:, 0] > k + 1
        else:
            keep[k + 4, :, 1 : 2 - k] = True
    keep[21:23] = keep[4]  # scientific: d0 "." d1..d16 as at k = 0, then "e" and the exponent
    keep[21:23, :, 19:23] = keep[22, :, 23] = keep[23, :, 1] = True  # zero: the template's "0"
    return np.array(hi), np.array(lo), exps, layout, quads, keep.reshape(24 * 18, -1)


@functools.lru_cache(maxsize=2)
def _csv_rows(n_samples: int) -> np.ndarray:
    """uint8 rows ``i,time,`` (set by the sample count), zero padding and a value field."""
    step_ns = DEFAULT_GRID.sample_step_ns
    heads = np.array([f"{i:d},{i * step_ns:.17g}," for i in range(n_samples)], "S")
    rows = np.empty(n_samples, [("head", heads.dtype), ("field", f"S{len(_FIELD)}")])
    rows["head"], rows["field"] = heads, _FIELD
    return rows.view(np.uint8).reshape(-1, heads.itemsize + len(_FIELD))


def _g17_fields(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` value fields, for what the kernel leaves."""
    fields = (("%.17g\n" * values.size) % tuple(values.tolist())).splitlines(keepends=True)
    return np.array(fields, dtype=f"S{len(_FIELD)}").view(np.uint8).reshape(-1, len(_FIELD))


def _g17_block(samples: np.ndarray, rows: np.ndarray) -> bytes:
    """``rows`` (a copy of ``_csv_rows``' rows) as bytes, each value spelled ``'%.17g' % v``.

    That is D = round(|v| * 10**(16 - k)), k = floor(log10 |v|), fixed for -4 <= k < 17, else
    scientific, trailing zeros dropped. p = fl(|v| * hi) is an integer (p >= 2**53), l = its exact
    error plus |v| * lo is off by < 1e-14, so D = p + round(l). Left to ``%``: near-ties of
    l, a D off 17 digits (k misread at a power of ten), non-finite and out-of-range values."""
    hi_t, lo_t, exps, layout_t, quads, keep_t = _g17_tables()
    keep = rows != 0
    field, kept = rows[:, -len(_FIELD) :], keep[:, -len(_FIELD) :]
    kept[:] = keep_t[23 * 18]  # zeros keep the template's "-0"; the kernel takes the rest
    live = slice(None) if np.count_nonzero(samples) == samples.size else np.flatnonzero(samples)
    ax = np.abs(samples[live])
    fast = (ax >= 1e-280) & (ax <= 1e280)
    ax[~fast] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = hi_t[k + _K_MAX], lo_t[k + _K_MAX]
    p = ax * hi
    c, d = ax * 134217729.0, hi * 134217729.0  # Dekker's split by 2**27 + 1: 26-bit halves
    ah, bh = c - (c - ax), d - (d - hi)
    l = (((ah * bh - p) + ah * (hi - bh) + (ax - ah) * bh) + (ax - ah) * (hi - bh)) + ax * lo
    frac = l - np.floor(l)
    D = p.astype(np.int64) + np.floor(l).astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (D > 10**16) & (D < 10**17 - 1)
    groups = np.empty((ax.size, 5), np.int64)  # D's digits: d0, then 4 groups of 4
    for g in range(4, 0, -1):
        q = D // 10000
        groups[:, g], D = D - 10000 * q, q
    groups[:, 0] = D
    digits = quads[groups].view(np.uint8)[:, 3:]
    t = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    layout = layout_t[k + _K_MAX]
    field[live, 1], field[live, 3:19] = digits[:, 0], digits[:, 1:]
    field[live, 20:24] = exps[k + _K_MAX].view(np.uint8).reshape(-1, 4)
    kept[live] = keep_t[layout + t]
    kept[:, 0] = np.signbit(samples)
    idx = np.arange(samples.size)[live]
    fixed = np.flatnonzero(fast & (layout < 21 * 18) & (k != 0))
    for e in set(k[fixed].tolist()):  # fixed point: move the digits
        at = fixed[k[fixed] == e]
        if e > 0:
            field[idx[at], 2 : e + 2], field[idx[at], e + 2] = digits[at, 1 : e + 1], ord(".")
        else:
            field[idx[at], 1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
            field[idx[at], 2 - e : 19 - e] = digits[at]
    slow = idx[~fast]
    if slow.size:
        field[slow] = _g17_fields(samples[slow])
        kept[slow] = field[slow] != 0
    return rows[keep].tobytes()


def write_waveform_csv(samples: np.ndarray, path: Union[str, Path]) -> None:
    """(sample_index, time_ns, value) rows; 17 significant digits round-trip.

    The bytes are a compatibility contract: ``i`` as a decimal integer,
    ``i * sample_step_ns`` and the sample each as ``%.17g`` (``-0``, ``nan``
    and ``inf`` spelled as Python spells them), comma-separated, ``\\n``
    line ends, header first. Files written by earlier versions compare equal
    byte for byte: a numpy kernel lays out blocks of rows as byte matrices, each compacted once
    and streamed, ``%`` spelling what it leaves. A 0-d, 2-D or non-real input raises InvalidValue.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.dtype.kind not in "biuf":
        raise InvalidValue(f"a scan is a 1-D real array, got {samples.dtype} {samples.shape}")
    samples, table = samples.astype(float, copy=False), _csv_rows(samples.size)
    blocks = (_g17_block(samples[a : a + _BLOCK_ROWS], table[a : a + _BLOCK_ROWS].copy())
              for a in range(0, samples.size, _BLOCK_ROWS))
    _atomic_write_text(path, itertools.chain([f"{WAVEFORM_CSV_HEADER}\n".encode()], blocks))


# Characters a written scan never holds, on which numpy's loadtxt can part
# ways with the line reader: str.splitlines breaks a line at each but the
# last, and loadtxt strips \x1f from a field where float() rejects it.
_NOT_CANONICAL = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_canonical_scan(text: str) -> Optional[np.ndarray]:
    """The value column of a scan laid out as write_waveform_csv writes it,
    parsed by numpy's C reader; None for any other text.

    The text must open with the exact header line, be ASCII and hold none
    of ``_NOT_CANONICAL``, with a body that is not blank. loadtxt fails a row
    of fewer than 3 fields, and the comma count then pins every row to
    exactly 3. A text that fails any of this, or that loadtxt rejects, is
    left to the line reader, which names the line at fault.
    """
    head = WAVEFORM_CSV_HEADER + "\n"
    if not (text.startswith(head) and text.isascii()) or any(c in text for c in _NOT_CANONICAL):
        return None
    body = text[len(head):]
    if not body.strip():
        return None
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", usecols=2, comments=None,
                            ndmin=1, dtype=float)
    except ValueError:
        return None
    return values if body.count(",") == 2 * values.size else None


def read_waveform_csv(path: Union[str, Path]) -> np.ndarray:
    """The value column of a waveform CSV; index and time are not read back.

    A file laid out as ``write_waveform_csv`` writes it is parsed by numpy's
    C reader, any other by the line reader; both give the same array, or the
    same MalformedFile. A scan holds at least one sample, and every sample
    is finite: a file of the header alone, or a NaN or infinite sample,
    raises MalformedFile at line 0, naming the first such sample.
    """
    text = _read_csv_text(path)
    values = _parse_canonical_scan(text)
    if values is None:
        (values,) = _parse_csv_columns(path, text, WAVEFORM_CSV_HEADER, (None, None, float))
    if not values.size:
        raise MalformedFile(str(path), 0, "the scan holds no sample")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise MalformedFile(str(path), 0, f"sample {bad[0]} is not finite")
    return values
