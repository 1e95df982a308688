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

import contextvars
import errno
import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .core import SCAN_WINDOW_NS, ChannelRealization, Ensemble, ScenarioParams, window_samples
from .errors import InvalidRate, InvalidValue, MalformedFile, WindowTooSmall

__all__ = [
    "DecayMode",
    "AmplitudeFading",
    "GeneratorConfig",
    "LOS_BACKOFF_DB",
    "realization_rng",
    "stream_words",
    "draw_cluster_arrivals",
    "draw_ray_arrivals",
    "mean_amplitude",
    "draw_amplitudes",
    "generate",
    "generate_ensemble",
    "write_realization_csv",
    "read_realization_csv",
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


# The first scattered component sits this far below the direct path, dB.
LOS_BACKOFF_DB = 20.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthesis run.

    ``first_path_power`` anchors the absolute mean-square gain of the first
    ray of the first cluster. When left unset it is derived from the
    direct-path amplitude (``LOS_BACKOFF_DB`` below it) or defaults to 1 for
    scatter-only channels. ``dynamic_range_db`` mimics the sounder: taps
    more than that far below the strongest tap are dropped (``math.inf``
    disables the cut, as parameter-recovery studies require).
    """

    window_ns: float = SCAN_WINDOW_NS
    decay_mode: DecayMode = DecayMode.RATE
    amplitude_fading: AmplitudeFading = AmplitudeFading.DETERMINISTIC
    dynamic_range_db: float = 48.0
    seed: int = 0
    first_path_power: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so that NaN fails each check; inf dynamic range means no cut.
        if not 0 < self.window_ns < math.inf:
            raise InvalidValue(f"window_ns must be finite and > 0, got {self.window_ns}")
        if self.window_ns < 1.0:
            raise WindowTooSmall(f"window of {self.window_ns} ns cannot hold a pulse (>= 1 ns)")
        if not self.dynamic_range_db > 0:
            raise InvalidValue(f"dynamic_range_db must be > 0, got {self.dynamic_range_db}")
        if self.first_path_power is not None and not 0 < self.first_path_power < math.inf:
            raise InvalidValue("first_path_power must be finite and > 0 when given")


# numpy's SeedSequence hash constants (NEP 19), as numpy/random/bit_generator.pyx sets them
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(const: int, mult: int, start: int, n: int) -> np.ndarray:
    """Hash constants ``start`` to ``start + n`` in SeedSequence's order, ``const * mult**k``."""
    return np.array([const * pow(mult, k, 1 << 32) & _MASK32 for k in range(start, start + n)],
                    dtype=np.uint32)[:, None]


# the hash constants of the 8 output words, the same for every seed
_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)


def _hash(value, const, mult: int):
    """SeedSequence's ``hashmix`` with hash constant ``const``.

    Takes uint32 arrays, which wrap: numpy warns on uint32 scalar overflow
    but not on array overflow. The masks keep 32 bits under any casting rules.
    """
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def stream_words(seed: int, indices: range) -> np.ndarray:
    """The PCG64 seed words of realization stream ``(seed, i)``, one row per i in ``indices``.

    Row k equals ``np.random.SeedSequence(entropy=seed, spawn_key=(indices[k],))
    .generate_state(4, np.uint64)``. SeedSequence mixes the seed's words into
    its pool before the index's, so that pool is numpy's own
    ``SeedSequence(seed).pool``, built once; only the index word and the
    output words are hashed per row, in uint32 arrays. An index of 2**32 or
    more (two index words) is left to numpy's SeedSequence.
    """
    seed = operator.index(seed)
    if seed < 0 or (len(indices) and min(indices[0], indices[-1]) < 0):
        raise InvalidValue(f"seed and realization indices must be >= 0, got seed {seed}")
    if len(indices) and max(indices[0], indices[-1]) >= 2**32:
        rows = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
                for i in indices]
        return np.array(rows, dtype=np.uint64).reshape(len(indices), 4)

    # the pool took 16 hash constants, and 4 more for each seed word past four
    const = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4), 4)
    index = np.arange(indices.start, indices.stop, indices.step).astype(np.uint32)
    # row d of the pool is pool word d, mixed with each index's one word
    pool = _mix(np.random.SeedSequence(seed).pool[:, None], _hash(index, const, _MULT_A))
    state = _hash(np.concatenate((pool, pool)), _OUTPUT_CONSTS, _MULT_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.copy()


@functools.lru_cache(maxsize=None)
def _seed_words_type():
    # numpy.random is imported on first use: ``import uwbagsim`` does not need it
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence that hands PCG64 the four words of one ``stream_words`` row."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise InvalidValue("these seed words are for PCG64: 4 uint64 words")
            return self.words

    return SeedWords


def _streams(seed: int, indices: range) -> list:
    """``realization_rng(seed, i)`` for each i in ``indices``.

    A batch is seeded from ``stream_words``; one stream costs less through
    ``realization_rng`` than the set-up of those arrays.
    """
    if len(indices) == 1:
        return [realization_rng(seed, indices[0])]
    seed_words = _seed_words_type()
    return [
        np.random.Generator(np.random.PCG64(seed_words(row)))
        for row in stream_words(seed, indices)
    ]


def realization_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent, order-insensitive RNG stream for realization ``index``.

    Streams are derived from (seed, index) through a seed sequence, so batch
    members can be generated in any order, or in parallel, with identical
    results. ``stream_words`` computes the same seed words for a batch.
    """
    if seed < 0 or index < 0:
        raise InvalidValue(f"seed and realization index must be >= 0, got {seed}, {index}")
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
        raise InvalidValue(
            f"cluster start {cluster_start_ns} ns is outside the {window_ns} ns window"
        )
    return _draw_arrivals(rate_per_ns, window_ns - cluster_start_ns, rng)


def _log_mean_power(
    cluster_start_ns, ray_offset_ns, cluster_decay: float, ray_decay: float, mode: DecayMode
):
    if cluster_decay <= 0 or ray_decay <= 0:
        raise InvalidValue("decay constants must be > 0")
    t = np.asarray(cluster_start_ns, dtype=float)
    tau = np.asarray(ray_offset_ns, dtype=float)
    if np.any(t < 0) or np.any(tau < 0):
        raise InvalidValue("delays must be >= 0")
    if mode is DecayMode.RATE:
        return -(t * cluster_decay) - (tau * ray_decay)
    return -(t / cluster_decay) - (tau / ray_decay)


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
        raise InvalidValue("rayleigh fading requires an rng")
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
) -> ChannelRealization:
    """Synthesize one channel realization.

    ``los_amplitude`` is the deterministic direct-path amplitude from the
    link budget; pass 0 for obstructed links, in which case the delay-0 tap
    is an ordinary scattered component. The result is bit-reproducible given
    (params, config, los_amplitude, realization_index).
    """
    indices = range(realization_index, realization_index + 1)
    return generate_ensemble(params, config, indices, los_amplitude)[0]


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


def _tap_order(delays: np.ndarray, realization: np.ndarray, m: int) -> np.ndarray:
    """``np.lexsort((delays, realization))`` for realization labels in [0, m):
    each realization's taps by delay, stably, and the realizations in order.

    Sorted by delay first, then stably by realization, as uint16 when
    m <= 2**16, so numpy takes its radix sort. When no two taps of a
    realization share a delay, that order is the only one and equals the
    lexsort; when two do, the lexsort breaks the tie by tap order.
    """
    by_delay = np.argsort(delays)
    members = realization[by_delay]
    if m <= 2**16:
        members = members.astype(np.uint16)
    by_member = np.argsort(members, kind="stable")
    order = by_delay[by_member]
    d, r = delays[order], members[by_member]
    if ((d[1:] == d[:-1]) & (r[1:] == r[:-1])).any():
        return np.lexsort((delays, realization))
    return order


def generate_ensemble(
    params: ScenarioParams,
    config: GeneratorConfig,
    indices: range,
    los_amplitude: float = 0.0,
) -> Ensemble:
    """Synthesize realizations ``indices`` as one ensemble.

    ``generate`` is the one-member case, and member k does not depend on
    the other members. Only the draws are made per realization, from its
    own stream ``realization_rng(seed, i)`` and in the order of the
    per-realization law: the cluster gaps, the ray gaps of all its clusters
    in one call, the Rayleigh amplitudes, the phases. Everything else is
    computed for the whole ensemble, the streams' seed words too (one
    ``stream_words`` call). A realization whose first block of
    gaps falls short of its span redraws its arrivals through
    ``draw_cluster_arrivals`` and ``draw_ray_arrivals``.

    Two forms give the bytes of the plain ones they stand for. The phases
    are ``random() * 2π``, which is the double ``uniform(0, 2π)`` returns,
    ``0.0 + 2π·u``, from the same draw. The taps are put in order by
    ``_tap_order``, which equals ``np.lexsort((delays, realization))``.
    """
    if not 0 <= los_amplitude < math.inf:
        raise InvalidValue("los_amplitude must be finite and >= 0")
    window = config.window_ns
    _check_rate("cluster", params.cluster_rate)
    _check_rate("ray", params.ray_rate)
    m = len(indices)
    if m == 0:
        raise InvalidValue("an ensemble needs at least one realization index")

    rngs = _streams(config.seed, indices)
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
            first_path_power = los_amplitude**2 * 10.0 ** (-LOS_BACKOFF_DB / 10.0)
        else:
            first_path_power = 1.0

    amplitudes = mean_amplitude(
        t, tau, params.cluster_decay, params.ray_decay, first_path_power, config.decay_mode
    )
    if config.amplitude_fading is not AmplitudeFading.DETERMINISTIC:
        amplitudes = np.concatenate([
            _fade(amplitudes[a:b], config.amplitude_fading, rng) for rng, (a, b) in zip(rngs, bounds)
        ])
    phases = np.concatenate([rng.random(b - a) for rng, (a, b) in zip(rngs, bounds)])
    phases *= 2.0 * math.pi

    delays = t + tau
    order = _tap_order(delays, realization, m)
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

    return Ensemble(
        delays[order], amplitudes, phases[order], clusters[order], rays[order],
        np.concatenate([[0], np.cumsum(n_taps)]),
        window_ns=window, los_amplitude=los_amplitude,
    )


# --- Serialization ----------------------------------------------------------

REALIZATION_CSV_HEADER = "delay_ns,amplitude,phase_rad,cluster_index,ray_index"


# A temp file is created here or not at all, binary where the OS has a text mode, and gets the
# mode that open(path, "w") gives a new file: 0o666 less the umask. Names tried before giving
# up, as tempfile tries.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
_TEMP_MODE = 0o666
_TEMP_ATTEMPTS = 10_000

# Files a _WriteBehind holds before its caller waits: the bound keeps the bytes held small.
_WRITE_BEHIND_DEPTH = 4

# The _WriteBehind that _atomic_write_text hands its files to in this thread, if any.
_WRITE_BEHIND: contextvars.ContextVar = contextvars.ContextVar("write_behind", default=None)


def _create_temp(path: str) -> tuple[int, str]:
    """A new sibling temp file of ``path``, open for writing: ``<name>.<pid>.tmp``, then
    ``<name>.<pid>.<attempt>.tmp``; no existing file is touched."""
    for attempt in range(_TEMP_ATTEMPTS):
        tmp = f"{path}.{os.getpid()}.tmp" if attempt == 0 else f"{path}.{os.getpid()}.{attempt}.tmp"
        try:
            return os.open(tmp, _TEMP_FLAGS, _TEMP_MODE), tmp
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no free temp file name", str(path))


class _WriteBehind:
    """Writes the entering thread's files on one helper thread, in order.

    Inside the ``with`` block, ``_atomic_write_text`` in the entering thread
    hands each file's bytes over, and the helper writes them with
    ``_atomic_write_text``, so their system time overlaps the formatting of
    the next. The first write that fails ends the writing: no later file is
    written, and its error is raised at the caller's next write or on exit.
    On exit the files handed over are written and the helper is joined.
    """

    def __init__(self) -> None:
        import queue  # off the ``import uwbagsim`` path

        self._files = queue.Queue(_WRITE_BEHIND_DEPTH)
        self._error: Optional[BaseException] = None
        self._helper = threading.Thread(target=self._write, name="write-behind")

    def _write(self) -> None:
        for path, data in iter(self._files.get, None):
            if self._error is None:
                try:
                    _atomic_write_text(path, [data])
                except BaseException as exc:  # raised in the caller
                    self._error = exc

    def put(self, path: str, data: bytes) -> None:
        if self._error is not None:
            raise self._error
        self._files.put((path, data))

    def __enter__(self) -> "_WriteBehind":
        self._helper.start()  # before the set, so the helper's own writes are synchronous
        self._token = _WRITE_BEHIND.set(self)
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        _WRITE_BEHIND.reset(self._token)
        self._files.put(None)
        self._helper.join()
        if self._error is not None and exc_type is None:
            raise self._error


def _atomic_write_text(path: Union[str, Path], text: Union[str, Iterable[bytes]]) -> None:
    """Write via a sibling temp file and rename, so readers never see partial files.

    ``text``, UTF-8 encoded, or its byte blocks go to the raw fd, with no
    buffered wrapper; inside a ``_WriteBehind`` block they are joined and
    handed to its helper instead.
    """
    path = os.fspath(path)
    behind = _WRITE_BEHIND.get()
    if behind is not None:
        return behind.put(path, text.encode() if isinstance(text, str) else b"".join(text))
    fd, tmp = _create_temp(path)
    try:
        try:
            for block in [text.encode()] if isinstance(text, str) else text:
                view = memoryview(block)
                while view:
                    view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_csv_text(path: Union[str, Path]) -> str:
    """The text of a CSV file, line ends as written; undecodable text is
    MalformedFile at line 0."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedFile(str(path), 0, str(exc)) from None


def _parse_csv_columns(path: Union[str, Path], text: str, header: str, types: tuple) -> list:
    """Columns of the text of a header-first CSV of ``len(types)`` fields a
    line, each parsed in one call.

    ``types[k]`` is column k's dtype, or None for a column the caller does not
    use. Whitespace-only lines are skipped. Only when the parse fails does a
    pass over the lines run, to raise MalformedFile at the first line at fault.
    """
    lines = text.splitlines()
    width, names = len(types), header.split(",")
    # the header leads the rows, so a file of a header alone gives empty columns
    rows = lines[:1] + [line for line in lines[1:] if line.strip()]
    fields = ",".join(rows).split(",")
    try:
        if [f.strip() for f in fields[:width]] != names or any(
            row.count(",") != width - 1 for row in rows
        ):
            raise InvalidValue("not the expected layout")
        return [np.array(fields[width + k :: width], dtype=kind)
                for k, kind in enumerate(types) if kind is not None]
    except (ValueError, OverflowError):
        if not lines:
            raise MalformedFile(str(path), 1, "empty file") from None
        if [f.strip() for f in lines[0].split(",")] != names:
            raise MalformedFile(str(path), 1, f"expected header '{header}'") from None
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != width:
                reason = f"expected {width} fields, got {len(parts)}"
                raise MalformedFile(str(path), lineno, reason) from None
            try:
                for part, kind in zip(parts, types):
                    np.array(part, dtype=kind)
            except (ValueError, OverflowError) as exc:
                raise MalformedFile(str(path), lineno, str(exc)) from None
        raise


def _realization_csv_texts(taps: Union[ChannelRealization, Ensemble]) -> list[str]:
    """Each member's realization CSV text: one ``%`` over all the taps, cut at the offsets."""
    columns = (taps.delays_ns, taps.amplitudes, taps.phases_rad, taps.cluster_indices,
               taps.ray_indices)
    # .tolist() yields Python floats and ints, so %d never sees a numpy scalar
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = ("%.17g,%.17g,%.17g,%d,%d\n" * taps.delays_ns.size % values).splitlines(keepends=True)
    offsets = taps.offsets.tolist()
    head = f"{REALIZATION_CSV_HEADER}\n"
    return [head + "".join(rows[a:b]) for a, b in zip(offsets, offsets[1:])]


def write_realization_csv(realization: ChannelRealization, path: Union[str, Path]) -> None:
    """Tap table as CSV; floats carry 17 significant digits for exact round-trips.

    The bytes are a compatibility contract: header first, then one
    ``%.17g,%.17g,%.17g,%d,%d`` row per tap with ``\\n`` line ends. Files
    written by earlier versions compare equal byte for byte. An ``Ensemble``
    of other than one member raises InvalidValue, and no file is written.
    """
    texts = _realization_csv_texts(realization)
    if len(texts) != 1:
        raise InvalidValue("write_realization_csv takes one realization: pass one member, ens[k]")
    _atomic_write_text(path, texts[0])


def read_realization_csv(
    path: Union[str, Path], window_ns: float = SCAN_WINDOW_NS
) -> ChannelRealization:
    """Parse a tap-table CSV back into a realization.

    The CSV carries taps only; the window must be supplied or defaulted.
    A window that ``core.window_samples`` rejects raises InvalidValue before
    the file is opened; any parse problem raises MalformedFile with the
    offending line.
    """
    window_samples(window_ns)
    columns = _parse_csv_columns(path, _read_csv_text(path), REALIZATION_CSV_HEADER,
                                 (float, float, float, int, int))
    try:
        return ChannelRealization(*columns, window_ns=window_ns)
    except ValueError as exc:
        raise MalformedFile(str(path), 0, str(exc)) from None
