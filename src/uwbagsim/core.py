"""Domain types and the embedded multipath parameter tables.

The simulator is parameterized by measurement-derived clustered-multipath
statistics: a mean cluster count, Poisson arrival rates for clusters and for
rays within clusters, and two exponential power-decay constants. One full
parameter set exists per (scenario, receiver, antenna orientation, horizontal
distance) cell; the embedded tables cover three scenarios x two receivers x
two orientations x two distances = 24 cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import InvalidValue, UnknownCell
from .geometry import LinkGeometry, Orientation

__all__ = [
    "Scenario",
    "Receiver",
    "Orientation",
    "ScenarioParams",
    "LinkConfig",
    "Tap",
    "ChannelRealization",
    "Ensemble",
    "ENSEMBLE_CHUNK",
    "chunk_ranges",
    "RX_HEIGHT_M",
    "TABLE_DISTANCES_M",
    "SCAN_WINDOW_NS",
    "BIN_PS",
    "DECIMATION",
    "window_samples",
    "lookup_params",
    "validate_tables",
    "cell_violations",
    "tables_as_dict",
    "iter_table_cells",
]

# Sounder scan window; the arrival rates in the tables are per-ns rates
# observed over this excess-delay span.
SCAN_WINDOW_NS = 100.0

# The sounder's time base: raw delay bins of 1.9073 ps, kept one in 32.
BIN_PS = 1.9073
DECIMATION = 32


def window_samples(window_ns: float) -> float:
    """Sample steps of the sounder's time base in a scan window, uncut; a
    sampling grid keeps the floor, so it never overruns the window.

    A window is finite, > 0 and holds at least one sample; any other raises
    InvalidValue. The count is a float: past about 1e305 ns it is inf. A tap
    container takes any count; ``waveform.SamplingGrid`` rejects one whose
    scan no array can hold.
    """
    # Written so that NaN fails the check.
    if not 0 < window_ns < math.inf:
        raise InvalidValue(f"scan window must be finite and > 0, got {window_ns}")
    steps = window_ns * 1000.0 / (BIN_PS * DECIMATION)
    if steps < 1:
        raise InvalidValue(f"scan window of {window_ns} ns holds no sample")
    return steps

# Horizontal TX-RX distances at which parameters were tabulated.
TABLE_DISTANCES_M = (15.0, 30.0)


class Scenario(Enum):
    """Propagation scenario: platform state and link obstruction."""

    HOVERING_OPEN = "hovering-open"
    HOVERING_FOLIAGE = "hovering-foliage"
    MOVING_CIRCLE = "moving-circle"

    @property
    def los_blocked(self) -> bool:
        """True when the direct path is obstructed (foliage in the link)."""
        return self is Scenario.HOVERING_FOLIAGE


class Receiver(Enum):
    RX1 = "RX1"
    RX2 = "RX2"

    @property
    def height_m(self) -> float:
        return RX_HEIGHT_M[self]


RX_HEIGHT_M = {Receiver.RX1: 0.10, Receiver.RX2: 1.5}


@dataclass(frozen=True)
class ScenarioParams:
    """One cell of the multipath parameter tables.

    Attributes
    ----------
    n_clusters_mean : float
        Mean number of multipath clusters observed per scan.
    cluster_rate : float
        Poisson arrival rate of clusters, 1/ns.
    cluster_decay : float
        Inter-cluster power decay constant (unitless as tabulated; its
        reading as a rate or a time constant is selected at generation).
    ray_rate : float
        Poisson arrival rate of rays within a cluster, 1/ns.
    ray_decay : float
        Intra-cluster ray power decay constant (same caveat as above).
    """

    n_clusters_mean: float
    cluster_rate: float
    cluster_decay: float
    ray_rate: float
    ray_decay: float

    def as_dict(self) -> dict:
        """JSON-ready mapping with units spelled out in the rate names."""
        return {
            "n_clusters_mean": self.n_clusters_mean,
            "cluster_rate_per_ns": self.cluster_rate,
            "cluster_decay": self.cluster_decay,
            "ray_rate_per_ns": self.ray_rate,
            "ray_decay": self.ray_decay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioParams":
        return cls(
            n_clusters_mean=float(data["n_clusters_mean"]),
            cluster_rate=float(data["cluster_rate_per_ns"]),
            cluster_decay=float(data["cluster_decay"]),
            ray_rate=float(data["ray_rate_per_ns"]),
            ray_decay=float(data["ray_decay"]),
        )


# Rate/count consistency: the tabulated cluster rate equals the mean cluster
# count spread over the 100 ns scan, up to printed rounding.
RATE_COUNT_TOLERANCE = 5e-4


@dataclass(frozen=True)
class LinkConfig:
    """Placement of one measured link: receiver, orientation, TX position."""

    receiver: Receiver
    orientation: Orientation
    horizontal_distance_m: float
    uav_height_m: float

    def __post_init__(self) -> None:
        if not 0 < self.horizontal_distance_m < math.inf:
            raise InvalidValue("horizontal_distance_m must be finite and > 0")
        rx = self.receiver  # the platform flies at or above the receiver antenna
        if not rx.height_m <= self.uav_height_m < math.inf:
            raise InvalidValue(f"uav_height_m must be finite and >= the {rx.value} height "
                               f"{rx.height_m} m, got {self.uav_height_m}")

    @property
    def geometry(self) -> LinkGeometry:
        """Elevation-plane geometry from antenna phase center to phase center."""
        return LinkGeometry(
            x_m=self.horizontal_distance_m,
            h_m=self.uav_height_m - self.receiver.height_m,
        )


@dataclass(frozen=True)
class Tap:
    """One resolvable multipath component of a channel impulse response."""

    delay_ns: float
    amplitude: float
    phase_rad: float
    cluster_index: int
    ray_index: int


class ChannelRealization:
    """One synthesized channel impulse response.

    Tap data is held in parallel numpy arrays (delays, amplitudes, phases,
    cluster and ray indices) so ensemble post-processing stays vectorized.
    It is typed and checked as a one-member ``Ensemble``, with offsets ``[0, n]``.

    Invariants checked here: ``window_ns`` finite and > 0, taps sorted by
    nondecreasing delay, delays nonnegative and inside ``window_ns``,
    amplitudes and phases finite.
    Generated realizations additionally start at delay 0 (the excess-delay
    origin) and keep every amplitude within the configured dynamic range of
    the strongest tap.
    """

    def __init__(
        self,
        delays_ns: np.ndarray,
        amplitudes: np.ndarray,
        phases_rad: np.ndarray,
        cluster_indices: np.ndarray,
        ray_indices: np.ndarray,
        *,
        window_ns: float = SCAN_WINDOW_NS,
        los_amplitude: float = 0.0,
    ) -> None:
        _set_taps(self, (delays_ns, amplitudes, phases_rad, cluster_indices, ray_indices),
                  [0, len(delays_ns)], window_ns, los_amplitude)

    def __len__(self) -> int:
        return int(self.delays_ns.shape[0])

    @property
    def has_los(self) -> bool:
        """True when the delay-0 tap carries the direct path."""
        return self.los_amplitude > 0.0

    def cluster_starts(self) -> np.ndarray:
        """Earliest surviving delay of each present cluster, in cluster order.

        The constructor rejects unsorted delays, so a cluster's first tap is
        its earliest. Uses the first surviving tap rather than ray index 0,
        so the result stays well defined when fading plus the dynamic-range
        cut removes a cluster head.
        """
        return _cluster_starts(self)[0]


_TAP_FIELDS = ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices")


def _set_taps(taps, fields: tuple, offsets, window_ns: float, los_amplitude: float) -> None:
    """Type the tap arrays and offsets onto ``taps``, set its window and direct
    path, and check the taps of each realization that the offsets cut out."""
    for name, arr, dtype in zip(_TAP_FIELDS, fields, (float, float, float, int, int)):
        setattr(taps, name, np.asarray(arr, dtype=dtype))
    taps.window_ns = float(window_ns)
    window_samples(taps.window_ns)
    taps.los_amplitude = float(los_amplitude)
    offsets = taps.offsets = np.asarray(offsets, dtype=int)
    d = taps.delays_ns
    n = d.shape[0]
    for arr in (taps.amplitudes, taps.phases_rad, taps.cluster_indices, taps.ray_indices):
        if arr.shape[0] != n:
            raise InvalidValue("tap field arrays must have equal length")
    if offsets[0] != 0 or offsets[-1] != n or (offsets[1:] < offsets[:-1]).any():
        raise InvalidValue("realization offsets must rise from 0 to the tap count")
    # Written so that NaN fails each check: a NaN delay is unsorted.
    steps = d[1:] >= d[:-1]
    steps[offsets[(offsets > 0) & (offsets < n)] - 1] = True  # from one member to the next
    if not steps.all():
        raise InvalidValue("taps must be sorted by nondecreasing delay")
    if not (d >= 0).all():
        raise InvalidValue("tap delays must be >= 0")
    if not (d < taps.window_ns).all():
        raise InvalidValue("tap delays must stay below the scan window")
    if not (np.isfinite(taps.amplitudes).all() and np.isfinite(taps.phases_rad).all()):
        raise InvalidValue("tap amplitudes and phases must be finite")
    if not (taps.amplitudes >= 0).all():
        raise InvalidValue("tap amplitudes must be >= 0: a sign belongs in the phase")


def _cluster_starts(taps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ChannelRealization.cluster_starts`` of every member that the offsets cut out.

    Returns the starts of all members back to back, the cluster count of
    each member, and each tap's cluster start. A stable sort by member
    and cluster keeps each cluster's taps in delay order, so the tap
    that opens a group is the cluster's earliest.
    """
    n_members = taps.offsets.shape[0] - 1
    member = np.repeat(np.arange(n_members), np.diff(taps.offsets))
    clusters = taps.cluster_indices
    order = _member_cluster_order(member, clusters, n_members)
    c, m = clusters[order], member[order]
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = (c[1:] != c[:-1]) | (m[1:] != m[:-1])
    starts = taps.delays_ns[order[opens]]
    per_tap = np.empty_like(taps.delays_ns)
    per_tap[order] = starts[np.cumsum(opens) - 1]
    return starts, np.bincount(m[opens], minlength=n_members), per_tap


def _member_cluster_order(member: np.ndarray, clusters: np.ndarray, n_members: int) -> np.ndarray:
    """``np.lexsort((clusters, member))`` for members in [0, n_members).

    When every key fits in uint16, it is one stable sort of the key ``member
    * span + (cluster - lowest)``, which numpy runs as a radix sort: the
    shift, since cluster indices may be negative, keeps each member's keys
    in [0, span), so the key orders the pairs as the lexsort does, and ties
    keep tap order in both. One member (the lexsort costs less than the key
    on a realization), no taps, or wider keys keep the lexsort.
    """
    if n_members < 2 or not clusters.size:
        return np.lexsort((clusters, member))
    lowest = clusters.min()
    span = int(clusters.max()) - int(lowest) + 1
    if n_members * span > 2**16:
        return np.lexsort((clusters, member))
    key = (member * span + (clusters - lowest)).astype(np.uint16)
    return np.argsort(key, kind="stable")


# Realizations per Ensemble wherever realizations are streamed: enough to
# amortize per-call overhead, few enough to keep peak memory flat.
ENSEMBLE_CHUNK = 64


def chunk_ranges(n: int) -> Iterator[range]:
    """range(n) cut into consecutive ranges of at most ENSEMBLE_CHUNK."""
    return (range(a, min(n, a + ENSEMBLE_CHUNK)) for a in range(0, n, ENSEMBLE_CHUNK))


class Ensemble:
    """Realizations packed into flat tap arrays with CSR offsets.

    Member k owns taps ``offsets[k]:offsets[k + 1]``; ``ens[k]`` is that
    slice as a ``ChannelRealization``. Members share the window and the
    direct-path amplitude, and carry nothing but their taps: run provenance
    belongs to the run's manifest. The invariants are checked once, for all.
    """

    def __init__(
        self,
        delays_ns: np.ndarray,
        amplitudes: np.ndarray,
        phases_rad: np.ndarray,
        cluster_indices: np.ndarray,
        ray_indices: np.ndarray,
        offsets: np.ndarray,
        *,
        window_ns: float = SCAN_WINDOW_NS,
        los_amplitude: float = 0.0,
    ) -> None:
        _set_taps(self, (delays_ns, amplitudes, phases_rad, cluster_indices, ray_indices),
                  offsets, window_ns, los_amplitude)

    def __len__(self) -> int:
        return int(self.offsets.shape[0] - 1)

    def __getitem__(self, k: int) -> ChannelRealization:
        k = range(len(self))[k]  # negative k counts from the end; IndexError past it
        part = slice(self.offsets[k], self.offsets[k + 1])
        return ChannelRealization(
            *(getattr(self, field)[part] for field in _TAP_FIELDS),
            window_ns=self.window_ns,
            los_amplitude=self.los_amplitude,
        )

    cluster_starts = _cluster_starts


# --- Embedded parameter tables --------------------------------------------
#
# Cell order within each table: (receiver, orientation, distance) with values
# (n_clusters_mean, cluster_rate, cluster_decay, ray_rate, ray_decay).

_P = ScenarioParams

_HOVERING_OPEN = {
    (Receiver.RX1, Orientation.VV, 15.0): _P(3.33, 0.033, 0.23, 0.1, 8.7),
    (Receiver.RX1, Orientation.VV, 30.0): _P(4.0, 0.04, 0.186, 0.06, 8.66),
    (Receiver.RX2, Orientation.VV, 15.0): _P(2.66, 0.027, 0.24, 0.11, 5.5),
    (Receiver.RX2, Orientation.VV, 30.0): _P(2.0, 0.02, 0.16, 0.06, 4.3),
    (Receiver.RX1, Orientation.VH, 15.0): _P(1.66, 0.017, 0.215, 0.25, 2.7),
    (Receiver.RX1, Orientation.VH, 30.0): _P(2.66, 0.027, 0.16, 0.15, 5.92),
    (Receiver.RX2, Orientation.VH, 15.0): _P(1.66, 0.017, 0.177, 0.26, 2.8),
    (Receiver.RX2, Orientation.VH, 30.0): _P(1.33, 0.013, 0.171, 0.2, 1.88),
}

_HOVERING_FOLIAGE = {
    (Receiver.RX1, Orientation.VV, 15.0): _P(2.0, 0.02, 0.212, 0.14, 1.3),
    (Receiver.RX1, Orientation.VV, 30.0): _P(2.0, 0.02, 0.21, 0.175, 1.11),
    (Receiver.RX2, Orientation.VV, 15.0): _P(2.0, 0.02, 0.24, 0.27, 0.985),
    (Receiver.RX2, Orientation.VV, 30.0): _P(1.66, 0.017, 0.23, 0.21, 1.34),
    (Receiver.RX1, Orientation.VH, 15.0): _P(2.0, 0.02, 0.214, 0.34, 0.77),
    (Receiver.RX1, Orientation.VH, 30.0): _P(1.33, 0.013, 0.16, 0.34, 0.811),
    (Receiver.RX2, Orientation.VH, 15.0): _P(1.66, 0.017, 0.198, 0.3, 1.4),
    (Receiver.RX2, Orientation.VH, 30.0): _P(1.33, 0.013, 0.2, 0.34, 0.74),
}

_MOVING_CIRCLE = {
    (Receiver.RX1, Orientation.VV, 15.0): _P(2.0, 0.02, 0.14, 0.1, 1.87),
    (Receiver.RX1, Orientation.VV, 30.0): _P(1.66, 0.017, 0.143, 0.082, 1.87),
    (Receiver.RX2, Orientation.VV, 15.0): _P(1.66, 0.017, 0.2, 0.084, 3.6),
    (Receiver.RX2, Orientation.VV, 30.0): _P(1.33, 0.013, 0.18, 0.084, 5.2),
    (Receiver.RX1, Orientation.VH, 15.0): _P(2.0, 0.02, 0.15, 0.14, 1.76),
    (Receiver.RX1, Orientation.VH, 30.0): _P(1.0, 0.01, 0.12, 0.11, 2.0),
    (Receiver.RX2, Orientation.VH, 15.0): _P(1.66, 0.017, 0.205, 0.16, 2.04),
    (Receiver.RX2, Orientation.VH, 30.0): _P(1.0, 0.01, 0.171, 0.16, 1.31),
}

PARAM_TABLES = {
    Scenario.HOVERING_OPEN: _HOVERING_OPEN,
    Scenario.HOVERING_FOLIAGE: _HOVERING_FOLIAGE,
    Scenario.MOVING_CIRCLE: _MOVING_CIRCLE,
}


def lookup_params(
    scenario: Scenario,
    receiver: Receiver,
    orientation: Orientation,
    horizontal_distance_m: float,
) -> ScenarioParams:
    """Return the parameter set for one measured cell.

    Raises
    ------
    UnknownCell
        If the distance is not one of the tabulated horizontal distances.
    """
    distance = float(horizontal_distance_m)
    if distance not in TABLE_DISTANCES_M:
        valid = ", ".join(f"{d:g} m" for d in TABLE_DISTANCES_M)
        raise UnknownCell(
            f"no table cell at x={horizontal_distance_m} m; tabulated distances: {valid}"
        )
    return PARAM_TABLES[scenario][(receiver, orientation, distance)]


def iter_table_cells() -> Iterator[tuple[Scenario, Receiver, Orientation, float, ScenarioParams]]:
    """Yield every embedded cell as (scenario, receiver, orientation, x, params)."""
    for scenario, table in PARAM_TABLES.items():
        for (receiver, orientation, distance), params in table.items():
            yield scenario, receiver, orientation, distance, params


def cell_violations(params: ScenarioParams, label: str = "cell") -> list[str]:
    """Check one parameter set against its structural invariants.

    Every field must be strictly positive and the cluster rate must equal
    the mean cluster count divided by the scan window, within rounding.
    """
    problems = []
    for name in ("n_clusters_mean", "cluster_rate", "cluster_decay", "ray_rate", "ray_decay"):
        value = getattr(params, name)
        if not value > 0:
            problems.append(f"{label}: {name}={value!r} is not strictly positive")
    expected_rate = params.n_clusters_mean / SCAN_WINDOW_NS
    if abs(params.cluster_rate - expected_rate) > RATE_COUNT_TOLERANCE:
        problems.append(
            f"{label}: cluster_rate={params.cluster_rate} deviates from "
            f"n_clusters_mean/{SCAN_WINDOW_NS:g}={expected_rate:.5f} by more than "
            f"{RATE_COUNT_TOLERANCE}"
        )
    return problems


def validate_tables() -> list[str]:
    """Audit every embedded cell; returns a list of violations (empty when clean)."""
    problems = []
    for scenario, receiver, orientation, distance, params in iter_table_cells():
        label = f"{scenario.value}/{receiver.value}/{orientation.value}/x={distance:g}"
        problems.extend(cell_violations(params, label))
    return problems


def tables_as_dict() -> dict:
    """All embedded tables as one nested JSON-ready mapping.

    Layout: scenario -> receiver -> orientation -> distance -> params.
    """
    doc: dict = {}
    for scenario, receiver, orientation, distance, params in iter_table_cells():
        doc.setdefault(scenario.value, {}).setdefault(receiver.value, {}).setdefault(
            orientation.value, {}
        )[f"{distance:g}"] = params.as_dict()
    return doc
