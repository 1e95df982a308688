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
def _pow10_pairs() -> tuple[np.ndarray, np.ndarray]:
    """By k, 10**(16 - k) as a double-double (hi, lo): the writer's and the reader's power table."""
    p10 = [(10**q, 1) if q >= 0 else (1, 10**-q) for q in range(16 + _K_MAX, 15 - _K_MAX, -1)]
    hi = [n / d for n, d in p10]
    lo = [(n * b - a * d) / (d * b) for (n, d), (a, b) in zip(p10, map(float.as_integer_ratio, hi))]
    return np.array(hi), np.array(lo)


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """By k, 10**(16 - k) as double-doubles, exponents, 18 * layouts; "0000".."9999"; keep masks."""
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
    return *_pow10_pairs(), exps, layout, quads, keep.reshape(24 * 18, -1)


def _exact_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * b) and its error a * b - p, exact while 1e-280 <= |a * b| <= 1e280 (Dekker)."""
    p = a * b
    c, d = a * 134217729.0, b * 134217729.0  # Dekker's split by 2**27 + 1: 26-bit halves
    ah, bh = c - (c - a), d - (d - b)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


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
    p, err = _exact_product(ax, hi_t[k + _K_MAX])
    l = err + ax * lo_t[k + _K_MAX]
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


def _scan_samples(samples) -> np.ndarray:
    """``samples`` as an array, which must be a scan: 1-D and real; InvalidValue otherwise."""
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.dtype.kind not in "biuf":
        raise InvalidValue(f"a scan is a 1-D real array, got {samples.dtype} {samples.shape}")
    return samples


def write_waveform_csv(samples: np.ndarray, path: Union[str, Path], *,
                       temp_dir: Optional[str] = None) -> None:
    """(sample_index, time_ns, value) rows; 17 significant digits round-trip.

    The bytes are a compatibility contract: ``i`` as a decimal integer,
    ``i * sample_step_ns`` and the sample each as ``%.17g`` (``-0``, ``nan``
    and ``inf`` spelled as Python spells them), comma-separated, ``\\n``
    line ends, header first. Files written by earlier versions compare equal
    byte for byte: a numpy kernel lays out blocks of rows as byte matrices, each compacted once
    and streamed, ``%`` spelling what it leaves. A 0-d, 2-D or non-real input raises InvalidValue.
    The temp file the bytes go to before the rename is made beside ``path``, or in ``temp_dir``.
    """
    samples = _scan_samples(samples)
    samples, table = samples.astype(float, copy=False), _csv_rows(samples.size)
    blocks = (_g17_block(samples[a : a + _BLOCK_ROWS], table[a : a + _BLOCK_ROWS].copy())
              for a in range(0, samples.size, _BLOCK_ROWS))
    _atomic_write_text(path, itertools.chain([f"{WAVEFORM_CSV_HEADER}\n".encode()], blocks),
                       temp_dir)


# Bytes at which str.splitlines, and so the line reader, breaks a line; a written scan holds none.
_NOT_CANONICAL = b"\r\x0b\x0c\x1c\x1d\x1e"


@functools.cache
def _scan_tables() -> tuple[np.ndarray, ...]:
    """10**0..10**19; by 6 * w + t, for a mantissa of w bytes and an exponent of t (0, or 4 or 5
    for "e±dd[d]"), the digit bytes of a row's 4 words; by the dot's distance k from the
    mantissa's end, '0' * 32 with the dot in place (k = 0: no dot), to XOR the words with."""
    spans = [(24 - w, w, 8 - d, d) for w in range(25) for d in (max(t - 2, 0) for t in range(6))]
    keep = b"".join(b"\0" * a + b"\xff" * b + b"\0" * c + b"\xff" * d for a, b, c, d in spans)
    zeros = b"".join((b"0" * (24 - k) + b"." * (k > 0)).ljust(32, b"0") for k in range(25))
    return (np.array([10**g for g in range(20)], np.uint64),
            *(np.frombuffer(t, "<u8").reshape(-1, 4).T.copy() for t in (keep, zeros)))


def _parse_canonical_scan(data: bytes) -> Optional[np.ndarray]:
    """The value column of a scan spelled as write_waveform_csv spells it; None for other bytes.

    That is the exact header line, ASCII without ``_NOT_CANONICAL``, a final ``\\n``, three fields
    on every line, and value fields of at most 24 bytes ``[-]digits[.digits][e±dd[d]]``. The 24
    bytes that end a mantissa and the 8 that end a line load as uint64 words; masked to their
    digits, with the dot a 0, SWAR digit sums give D and e. Then fl(D * 10**e) is
    p = fl(fl(D) * hi) plus the ulps of p that p's exact error, fl(D) * lo and (D - fl(D)) * hi
    add up to, rounded. ``float`` reads a row of D >= 10**17, of e off the table, within 1e-6
    ulp of a tie, or whose result would leave the binade of p.
    """
    if not (data.startswith(f"{WAVEFORM_CSV_HEADER}\n".encode()) and data.endswith(b"\n")
            and data.isascii()) or any(c in data for c in _NOT_CANONICAL):
        return None
    buf = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero((buf == ord("\n")) | (buf == ord(",")) | (buf == ord(".")))
    kind = buf[sep]
    marks = np.flatnonzero(kind != ord("."))  # ",", "," and "\n" on each line of a written scan
    if (marks.size % 3 or marks.size == 3 or np.any(kind[marks[2::3]] != ord("\n"))
            or np.count_nonzero(kind == ord("\n")) != marks.size // 3):
        return None
    marks = marks.reshape(-1, 3)[1:].T
    first, ends = sep[marks[1]] + 1, sep[marks[2]]
    dot = sep[marks[2] - 1]  # the value's last dot, or the comma before it
    neg = buf[first] == ord("-")
    start, e2 = first + neg, buf[ends - 4] == ord("e")
    tail = 4 * e2 + 5 * ((buf[ends - 5] == ord("e")) & ~e2)
    stop = ends - tail  # the mantissa is [start, stop)
    has_dot = (dot >= start) & (dot < stop)
    sign = buf[stop + (tail > 0)]
    if (np.any(stop - start <= has_dot) or np.any(ends - first > 24)
            or np.any((tail > 0) & (sign != ord("+")) & (sign != ord("-")))):
        return None
    p10, keep, zeros = _scan_tables()
    at = np.array([[-24], [-16], [-8], [-8]]) + stop
    at[3] += tail
    x = np.ndarray((buf.size - 7,), "<u8", data, 0, (1,))[at]
    x ^= np.take(zeros, np.where(has_dot, stop - dot, 0), axis=1)
    x &= np.take(keep, 6 * (stop - start) + tail, axis=1)
    if np.any((x | x + np.uint64(0x0606060606060606)) & np.uint64(0xF0F0F0F0F0F0F0F0)):
        return None  # a byte that is no digit
    for b, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        x = (x * np.uint64(10 ** (b // 8)) + (x >> np.uint64(b))) & np.uint64(mask)
    # the dot reads as a 0 digit: D is the digits left of it, one place down, plus the rest
    places = np.where(has_dot, stop - dot - 1, 0)
    fd = np.where(has_dot, np.minimum(places, 18), 18)
    digits = np.minimum(x[0], np.uint64(99)) * p10[16] + x[1] * p10[8] + x[2]
    high, low = np.divmod(digits, p10[fd + 1])
    D = (high * p10[fd] + low).astype(np.int64)
    e = np.where(sign == ord("-"), -1, 1) * x[3].astype(np.int64) - places
    fast = (x[0] < 100) & (D < 10**17) & (e >= 16 - _K_MAX) & (e <= _K_MAX - 18)
    D[~fast], e[~fast] = 1, 0
    hi, lo = (t[16 + _K_MAX - e] for t in _pow10_pairs())
    Dh = D.astype(float)
    p, err = _exact_product(Dh, hi)
    ulp = np.spacing(p)
    q = (err + (Dh * lo + (D - Dh.astype(np.int64)) * hi)) / ulp  # |q| < 2
    n = np.rint(q)
    m = (p.view(np.int64) & 2**52 - 1) + n.astype(np.int64)  # the result's mantissa bits
    fast &= (np.abs(np.abs(q - n) - 0.5) > 1e-6) & ((m > 0) & (m < 2**52) | (D == 0))
    values = (p + n * ulp) * np.where(neg, -1.0, 1.0)
    for i in np.flatnonzero(~fast).tolist():
        values[i] = float(data[first[i] : ends[i]])
    return values


def read_waveform_csv(path: Union[str, Path]) -> np.ndarray:
    """The value column of a waveform CSV; index and time are not read back.

    Bytes in ``write_waveform_csv``'s grammar (the exact header line, ASCII
    rows of three fields, ``[-]digits[.digits][e±dd[d]]`` values, ``\\n``
    line ends) are parsed by a numpy kernel that rounds each value exactly
    and leaves ``float`` the rows it cannot prove (near-ties, for one); any
    other file goes to the line reader. Both give the same array, bit for
    bit, or the same MalformedFile. A scan holds at least one sample, and
    every sample is finite: a file of the header alone, or a NaN or infinite
    sample, raises MalformedFile at line 0, naming the first such sample.
    """
    with open(path, "rb") as fh:
        values = _parse_canonical_scan(fh.read())
    if values is None:
        (values,) = _parse_csv_columns(path, _read_csv_text(path), WAVEFORM_CSV_HEADER,
                                       (None, None, float))
    if not values.size:
        raise MalformedFile(str(path), 0, "the scan holds no sample")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise MalformedFile(str(path), 0, f"sample {bad[0]} is not finite")
    return values
