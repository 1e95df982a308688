"""Deterministic power accounting: direct-path amplitude, received power,
empirical path loss against a 1 m free-space reference, and link margin."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import ChannelRealization
from .errors import EmptyRealization, InvalidValue, NonPositivePower
from .geometry import (
    DEFAULT_XPD_DB,
    ElevationPattern,
    LinkGeometry,
    Orientation,
    los_gain,
)

__all__ = [
    "RadioConstants",
    "DEFAULT_RADIO",
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


@dataclass(frozen=True)
class RadioConstants:
    """Radio and link-budget constants of the sounding setup."""

    center_freq_hz: float = 4.3e9
    tx_power_dbm: float = -14.5
    rx_sensitivity_dbm: float = -104.0
    ref_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.center_freq_hz <= 0:
            raise InvalidValue("center_freq_hz must be > 0")
        if self.ref_distance_m <= 0:
            raise InvalidValue("ref_distance_m must be > 0")

    @property
    def wavelength_m(self) -> float:
        return speed_of_light / self.center_freq_hz


DEFAULT_RADIO = RadioConstants()


class PowerSplit(NamedTuple):
    """Linear received power and its direct/scattered decomposition."""

    p_total: float
    p_los: float
    p_nlos: float


def los_amplitude(
    geometry: LinkGeometry,
    orientation: Orientation,
    constants: RadioConstants = DEFAULT_RADIO,
    xpd_db: float = DEFAULT_XPD_DB,
    pattern: Optional[ElevationPattern] = None,
) -> float:
    """Direct-path amplitude: free-space spreading times the elevation gain.

    amplitude = (wavelength / (4 pi d)) * gain(theta), with the
    cross-polarization factor folded into the gain for mismatched antennas.
    """
    spreading = constants.wavelength_m / (4.0 * math.pi * geometry.d_m)
    return spreading * los_gain(geometry.theta_deg, orientation, xpd_db, pattern)


def received_power(realization: ChannelRealization) -> PowerSplit:
    """Sum of squared tap amplitudes, split into direct and scattered parts.

    The delay-0 tap counts as the direct path only when the realization was
    generated with one; obstructed channels put all power in the scattered
    term. The split is exact: p_total == p_los + p_nlos.
    """
    if len(realization) == 0:
        raise EmptyRealization("realization has no taps")
    powers = realization.amplitudes**2
    if realization.has_los:
        p_los = float(powers[0])
        p_nlos = float(np.sum(powers[1:]))
    else:
        p_los = 0.0
        p_nlos = float(np.sum(powers))
    return PowerSplit(p_los + p_nlos, p_los, p_nlos)


def reference_power(constants: RadioConstants = DEFAULT_RADIO) -> float:
    """Simulated received power at the reference distance (boresight, free space)."""
    amp = constants.wavelength_m / (4.0 * math.pi * constants.ref_distance_m)
    return amp * amp


def free_space_reference_db(constants: RadioConstants = DEFAULT_RADIO) -> float:
    """Free-space loss at the reference distance: 20*log10(4 pi d_ref / wavelength)."""
    return 20.0 * math.log10(4.0 * math.pi * constants.ref_distance_m / constants.wavelength_m)


def path_loss_db(
    p_at_d: float,
    p_at_ref: float,
    constants: RadioConstants = DEFAULT_RADIO,
) -> float:
    """Empirical path loss referenced to free space at 1 m.

    L = 20*log10(4 pi d_ref / wavelength) + 10*log10(p_at_ref / p_at_d);
    only the power ratio matters, so any common scaling of the two powers
    cancels.
    """
    if p_at_d <= 0 or p_at_ref <= 0:
        raise NonPositivePower(f"powers must be > 0, got p_at_d={p_at_d}, p_at_ref={p_at_ref}")
    return free_space_reference_db(constants) + 10.0 * math.log10(p_at_ref / p_at_d)


def link_margin_db(loss_db: float, constants: RadioConstants = DEFAULT_RADIO) -> float:
    """Margin above receiver sensitivity for a given path loss."""
    return constants.tx_power_dbm - loss_db - constants.rx_sensitivity_dbm
