"""Link geometry and the elevation-plane antenna gain approximation.

The dipoles are omni-directional in azimuth with a donut-shaped elevation
pattern, so the direct-path gain reduces to a function of the single
elevation-plane angle measured from the vertical axis. That pattern is
approximated by |sin(theta)| at each end of the link; the combined two-antenna
amplitude gain sqrt(|sin||sin|) collapses to the same |sin(theta)|.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InvalidGeometry, InvalidValue, MalformedFile

__all__ = [
    "Orientation",
    "LinkGeometry",
    "ElevationPattern",
    "elevation_angle",
    "los_gain",
    "polarization_power_loss",
    "xpd_amplitude_factor",
    "DEFAULT_XPD_DB",
]

# Cross-polarization discrimination applied to the direct path under a
# mismatched (VH) orientation. Configurable everywhere it is used.
DEFAULT_XPD_DB = 10.0


class Orientation(Enum):
    """Transmit/receive dipole orientation pair.

    VV: both vertical (co-polarized). VH: transmitter rotated 90 degrees,
    so the direct path suffers cross-polarization loss while reflected
    cross-polarized energy still reaches the receiver.
    """

    VV = "VV"
    VH = "VH"


def elevation_angle(x_m: float, h_m: float) -> float:
    """Angle of the TX-RX line from the vertical axis, in degrees.

    90 degrees is a horizontal link; the angle shrinks toward 0 as the
    platform climbs directly overhead.
    """
    if not 0 < x_m < math.inf:
        raise InvalidGeometry(f"horizontal distance must be finite and > 0, got {x_m}")
    if not 0 <= h_m < math.inf:
        raise InvalidGeometry(f"height difference must be finite and >= 0, got {h_m}")
    return 90.0 - math.degrees(math.atan(h_m / x_m))


@dataclass(frozen=True)
class LinkGeometry:
    """Elevation-plane geometry of one link.

    ``h_m`` is the vertical offset between the antenna phase centers
    (platform height minus receiver height).
    """

    x_m: float
    h_m: float

    def __post_init__(self) -> None:
        if not 0 < self.x_m < math.inf:
            raise InvalidGeometry(f"x_m must be finite and > 0, got {self.x_m}")
        if not 0 <= self.h_m < math.inf:
            raise InvalidGeometry(f"h_m must be finite and >= 0, got {self.h_m}")

    @property
    def d_m(self) -> float:
        """Direct-path (slant) distance."""
        return math.hypot(self.x_m, self.h_m)

    @property
    def theta_deg(self) -> float:
        return elevation_angle(self.x_m, self.h_m)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class ElevationPattern:
    """Tabulated elevation-plane amplitude gain, linearly interpolated.

    Stands in for the |sin| approximation when a measured pattern is
    available. Gains are normalized so the maximum is 1; angles outside the
    tabulated span wrap modulo 360 degrees.
    """

    def __init__(self, angles_deg: np.ndarray, gains_linear: np.ndarray) -> None:
        angles = np.asarray(angles_deg, dtype=float)
        gains = np.asarray(gains_linear, dtype=float)
        if angles.size < 2:
            raise InvalidValue("pattern needs at least two points")
        if not (np.isfinite(angles).all() and np.isfinite(gains).all()):
            raise InvalidValue("pattern angles and gains must be finite")
        if np.any(gains < 0):
            raise InvalidValue("pattern gains must be nonnegative")
        if not gains.max() > 0:
            raise InvalidValue("pattern needs a gain > 0")
        angles = np.mod(angles, 360.0)
        order = np.argsort(angles)
        self.angles_deg = angles[order]
        self.gains = gains[order] / gains.max()

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "ElevationPattern":
        """Load (angle_deg, gain_linear) rows; blank lines are skipped.

        The first line may be a header, whose first field is no number; every
        other line must be exactly two numbers. Raises MalformedFile naming the
        file for text that does not decode, a line that is not two numbers (and
        its line number), or a table the constructor rejects.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
            except UnicodeDecodeError as exc:  # decoded by the buffer, so no line is known
                raise MalformedFile(str(path), 0, str(exc)) from None
        if rows and not _is_number(rows[0][1][0]):
            rows = rows[1:]  # the header
        angles, gains = [], []
        for line, row in rows:
            try:
                angle, gain = map(float, row)
            except ValueError:  # a field that is no number, or other than two fields
                raise MalformedFile(str(path), line, "expected angle,gain") from None
            angles.append(angle)
            gains.append(gain)
        try:
            return cls(np.array(angles), np.array(gains))
        except ValueError as exc:
            raise MalformedFile(str(path), 0, str(exc)) from None

    def __call__(self, theta_deg: float) -> float:
        theta = math.fmod(theta_deg, 360.0)
        if theta < 0:
            theta += 360.0
        # Wrap-around interpolation across the 360/0 seam.
        angles = np.concatenate([self.angles_deg, [self.angles_deg[0] + 360.0]])
        gains = np.concatenate([self.gains, [self.gains[0]]])
        if theta < angles[0]:
            theta += 360.0
        return float(np.interp(theta, angles, gains))


def polarization_power_loss(orientation: Orientation, xpd_db: float = DEFAULT_XPD_DB) -> float:
    """Extra direct-path loss (dB, >= 0) from antenna orientation mismatch.

    A negative, NaN or infinite ``xpd_db`` is rejected for either
    orientation: it would turn the mismatch into a gain, or zero the path.
    """
    if not 0 <= xpd_db < math.inf:
        raise InvalidValue(f"xpd_db must be finite and >= 0, got {xpd_db}")
    if orientation is Orientation.VV:
        return 0.0
    return float(xpd_db)


def xpd_amplitude_factor(orientation: Orientation, xpd_db: float = DEFAULT_XPD_DB) -> float:
    """Amplitude scaling of the direct path due to polarization mismatch."""
    return 10.0 ** (-polarization_power_loss(orientation, xpd_db) / 20.0)


def los_gain(
    theta_deg: float,
    orientation: Orientation,
    xpd_db: float = DEFAULT_XPD_DB,
    pattern: Optional[ElevationPattern] = None,
) -> float:
    """Combined TX*RX normalized amplitude gain of the direct path.

    With matched vertical dipoles the two-antenna gain is |sin(theta)|;
    a mismatched pair keeps the same elevation shape but is scaled down by
    the cross-polarization amplitude factor.
    """
    if pattern is not None:
        base = pattern(theta_deg)
    else:
        base = abs(math.sin(math.radians(theta_deg)))
    return base * xpd_amplitude_factor(orientation, xpd_db)
