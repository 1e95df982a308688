import math

import numpy as np
import pytest

from uwbagsim.errors import InvalidGeometry, InvalidValue
from uwbagsim.geometry import (
    ElevationPattern,
    LinkGeometry,
    Orientation,
    elevation_angle,
    los_gain,
    polarization_power_loss,
    xpd_amplitude_factor,
)


def test_elevation_angle_reference_triangles():
    assert elevation_angle(30, 10) == pytest.approx(71.56505117707799, abs=1e-9)
    assert elevation_angle(15, 20) == pytest.approx(36.86989764584402, abs=1e-9)


def test_elevation_angle_horizontal_link():
    assert elevation_angle(12.5, 0.0) == 90.0


def test_elevation_angle_monotone_in_height():
    angles = [elevation_angle(15.0, h) for h in np.linspace(0, 60, 40)]
    assert all(a > b for a, b in zip(angles, angles[1:]))


def test_elevation_angle_invalid_inputs():
    with pytest.raises(InvalidGeometry):
        elevation_angle(0.0, 5.0)
    with pytest.raises(InvalidGeometry):
        elevation_angle(-3.0, 5.0)
    with pytest.raises(InvalidGeometry):
        elevation_angle(3.0, -0.1)


def test_link_geometry_derived_fields():
    geom = LinkGeometry(x_m=30.0, h_m=10.0)
    assert geom.d_m == pytest.approx(math.sqrt(1000.0))
    assert geom.theta_deg == pytest.approx(71.56505117707799)


def test_link_geometry_validation():
    with pytest.raises(InvalidGeometry):
        LinkGeometry(x_m=-1.0, h_m=5.0)
    with pytest.raises(InvalidGeometry):
        LinkGeometry(x_m=1.0, h_m=-5.0)


def test_los_gain_boresight_and_null():
    assert los_gain(90.0, Orientation.VV) == pytest.approx(1.0)
    assert los_gain(0.0, Orientation.VV) == pytest.approx(0.0, abs=1e-15)
    assert los_gain(180.0, Orientation.VV) == pytest.approx(0.0, abs=1e-12)


def test_los_gain_reference_angle():
    assert los_gain(71.56505117707799, Orientation.VV) == pytest.approx(0.9486832980505138)


@pytest.mark.parametrize("theta", [10.0, 33.3, 60.0, 88.8, 120.0, 250.0])
def test_los_gain_mirror_symmetry(theta):
    assert los_gain(theta, Orientation.VV) == pytest.approx(
        los_gain(180.0 - theta, Orientation.VV)
    )


def test_los_gain_maximal_at_horizon():
    thetas = np.linspace(0.0, 360.0, 721)
    gains = [los_gain(t, Orientation.VV) for t in thetas]
    assert max(gains) == pytest.approx(1.0)
    assert gains[np.argmax(gains)] >= los_gain(45.0, Orientation.VV)
    assert los_gain(90.0, Orientation.VV) == max(gains)


def test_gain_decreases_as_platform_climbs():
    x = 15.0
    gains = [los_gain(elevation_angle(x, h), Orientation.VV) for h in np.linspace(1, 80, 30)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_cross_polarized_gain_scaling():
    theta = 71.56505117707799
    vv = los_gain(theta, Orientation.VV)
    vh = los_gain(theta, Orientation.VH, xpd_db=10.0)
    assert vh == pytest.approx(vv * 10 ** (-0.5))
    assert xpd_amplitude_factor(Orientation.VV) == 1.0
    assert xpd_amplitude_factor(Orientation.VH, 20.0) == pytest.approx(0.1)


def test_polarization_power_loss():
    assert polarization_power_loss(Orientation.VV, 10.0) == 0.0
    assert polarization_power_loss(Orientation.VH, 10.0) == 10.0
    assert polarization_power_loss(Orientation.VH, 0.0) == 0.0
    with pytest.raises(ValueError):
        polarization_power_loss(Orientation.VH, -1.0)


def test_pattern_from_csv_interpolates_and_normalizes(tmp_path):
    path = tmp_path / "pattern.csv"
    path.write_text(
        "angle_deg,gain_linear\n0,0.0\n45,1.0\n90,2.0\n135,1.0\n180,0.0\n"
        "225,1.0\n270,2.0\n315,1.0\n"
    )
    pattern = ElevationPattern.from_csv(path)
    assert pattern(90.0) == pytest.approx(1.0)  # normalized peak
    assert pattern(45.0) == pytest.approx(0.5)
    assert pattern(67.5) == pytest.approx(0.75)  # linear midpoint
    assert pattern(450.0) == pytest.approx(pattern(90.0))  # wraps


def test_los_gain_with_tabulated_pattern(tmp_path):
    path = tmp_path / "pattern.csv"
    path.write_text("0,0.1\n90,1.0\n180,0.1\n270,1.0\n")
    pattern = ElevationPattern.from_csv(path)
    assert los_gain(90.0, Orientation.VV, pattern=pattern) == pytest.approx(1.0)
    assert los_gain(0.0, Orientation.VV, pattern=pattern) == pytest.approx(0.1)
    assert los_gain(90.0, Orientation.VH, xpd_db=10.0, pattern=pattern) == pytest.approx(
        10 ** (-0.5)
    )


@pytest.mark.parametrize(
    "angles",
    [
        [-1e-20, 90.0, 180.0],  # wraps to 360.0 before the sort
        np.random.default_rng(3).permutation(np.repeat(np.arange(0.0, 360.0, 10.0), 4)),
    ],
    ids=["tiny-negative-angle", "repeated-angles"],
)
def test_pattern_rebuilt_from_its_own_table_is_the_same(angles):
    # a manifest stores the normalized table, and a rerun builds the pattern from it
    gains = np.random.default_rng(4).uniform(0.1, 1.0, len(angles))
    pattern = ElevationPattern(np.array(angles), gains)
    again = ElevationPattern(pattern.angles_deg, pattern.gains)
    assert pattern.angles_deg.tolist() == again.angles_deg.tolist()
    assert pattern.gains.tolist() == again.gains.tolist()
    assert pattern.angles_deg.min() >= 0 and pattern.angles_deg.max() < 360


def test_pattern_rejects_degenerate_tables():
    with pytest.raises(ValueError):
        ElevationPattern(np.array([10.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ElevationPattern(np.array([0.0, 90.0]), np.array([1.0, -0.5]))


@pytest.mark.parametrize(
    "x, h", [(math.nan, 5.0), (math.inf, 5.0), (3.0, math.nan), (3.0, math.inf)]
)
def test_non_finite_geometry_is_rejected(x, h):
    with pytest.raises(InvalidGeometry):
        LinkGeometry(x_m=x, h_m=h)
    with pytest.raises(InvalidGeometry):
        elevation_angle(x, h)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("xpd_db", [-30.0, -1e-9, math.nan])
def test_negative_or_nan_xpd_is_rejected_for_either_orientation(orientation, xpd_db):
    # a negative XPD would make the mismatched direct path stronger
    with pytest.raises(ValueError):
        xpd_amplitude_factor(orientation, xpd_db)
    with pytest.raises(ValueError):
        polarization_power_loss(orientation, xpd_db)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_infinite_xpd_is_rejected_for_either_orientation(orientation):
    # an infinite XPD would silently zero the mismatched direct path
    with pytest.raises(InvalidValue):
        los_gain(45.0, orientation, xpd_db=math.inf)
    with pytest.raises(InvalidValue):
        polarization_power_loss(orientation, math.inf)
