"""Deterministic power accounting: direct-path amplitude, received power,
empirical path loss against a 1 m free-space reference, and link margin."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import ChannelRealization, Ensemble
from .errors import EmptyRealization, NonPositivePower
from .geometry import (
    DEFAULT_XPD_DB,
    ElevationPattern,
    LinkGeometry,
    Orientation,
    los_gain,
)

__all__ = [
    "CENTER_FREQ_HZ",
    "TX_POWER_DBM",
    "RX_SENSITIVITY_DBM",
    "REF_DISTANCE_M",
    "WAVELENGTH_M",
    "PowerSplit",
    "los_amplitude",
    "received_power",
    "reference_power",
    "free_space_reference_db",
    "path_loss_db",
    "link_margin_db",
]

# Speed of light in vacuum, m/s: exact by the SI definition of the metre.
speed_of_light = 299_792_458.0


# The sounder: P440-class UWB radios centred at 4.3 GHz, and the link budget
# of the measurement setup.
CENTER_FREQ_HZ = 4.3e9
TX_POWER_DBM = -14.5
RX_SENSITIVITY_DBM = -104.0
REF_DISTANCE_M = 1.0
WAVELENGTH_M = speed_of_light / CENTER_FREQ_HZ


class PowerSplit(NamedTuple):
    """Linear received power and its direct/scattered split: floats, or arrays for an Ensemble."""

    p_total: Union[float, np.ndarray]
    p_los: Union[float, np.ndarray]
    p_nlos: Union[float, np.ndarray]


def los_amplitude(
    geometry: LinkGeometry,
    orientation: Orientation,
    xpd_db: float = DEFAULT_XPD_DB,
    pattern: Optional[ElevationPattern] = None,
) -> float:
    """Direct-path amplitude: free-space spreading times the elevation gain.

    amplitude = (wavelength / (4 pi d)) * gain(theta), with the
    cross-polarization factor folded into the gain for mismatched antennas.
    """
    spreading = WAVELENGTH_M / (4.0 * math.pi * geometry.d_m)
    return spreading * los_gain(geometry.theta_deg, orientation, xpd_db, pattern)


def received_power(realization: Union[ChannelRealization, Ensemble]) -> PowerSplit:
    """Sum of squared tap amplitudes, split into direct and scattered parts.

    The delay-0 tap counts as the direct path only when the realization was
    generated with one; obstructed channels put all power in the scattered
    term. The split is exact: p_total == p_los + p_nlos. For an ``Ensemble``,
    element k of each field is that of ``received_power(ens[k])``, bit for
    bit. A realization or member without taps raises EmptyRealization.
    """
    bounds = realization.offsets.tolist()
    if any(a == b for a, b in zip(bounds, bounds[1:])):
        raise EmptyRealization("realization has no taps")
    powers = realization.amplitudes**2
    los = int(realization.los_amplitude > 0)
    p_los = powers[bounds[:-1]] if los else np.zeros(len(bounds) - 1)
    # np.sum of each member's slice keeps its pairwise order; np.add.reduceat adds in turn
    p_nlos = np.array([np.sum(powers[a + los : b]) for a, b in zip(bounds, bounds[1:])])
    split = PowerSplit(p_los + p_nlos, p_los, p_nlos)
    return split if isinstance(realization, Ensemble) else PowerSplit(*(float(v[0]) for v in split))


def reference_power() -> float:
    """Simulated received power at the reference distance (boresight, free space)."""
    amp = WAVELENGTH_M / (4.0 * math.pi * REF_DISTANCE_M)
    return amp * amp


def free_space_reference_db() -> float:
    """Free-space loss at the reference distance: 20*log10(4 pi d_ref / wavelength)."""
    return 20.0 * math.log10(4.0 * math.pi * REF_DISTANCE_M / WAVELENGTH_M)


def path_loss_db(p_at_d: float, p_at_ref: float) -> float:
    """Empirical path loss referenced to free space at 1 m.

    L = 20*log10(4 pi d_ref / wavelength) + 10*log10(p_at_ref / p_at_d);
    only the power ratio matters, so any common scaling of the two powers
    cancels. Both powers must be finite and > 0; a ratio past the float
    range is taken as a difference of logarithms.
    """
    if not (0 < p_at_d < math.inf and 0 < p_at_ref < math.inf):
        raise NonPositivePower(
            f"powers must be finite and > 0, got p_at_d={p_at_d}, p_at_ref={p_at_ref}"
        )
    ratio = p_at_ref / p_at_d
    if 0 < ratio < math.inf:
        ratio_db = 10.0 * math.log10(ratio)
    else:
        ratio_db = 10.0 * (math.log10(p_at_ref) - math.log10(p_at_d))
    return free_space_reference_db() + ratio_db


def link_margin_db(loss_db: float) -> float:
    """Margin above receiver sensitivity for a given path loss."""
    return TX_POWER_DBM - loss_db - RX_SENSITIVITY_DBM
