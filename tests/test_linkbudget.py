import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uwbagsim.core import ChannelRealization, LinkConfig, Orientation, Receiver, Scenario
from uwbagsim.errors import EmptyRealization, InvalidValue, NonPositivePower
from uwbagsim.generator import GeneratorConfig, generate
from uwbagsim.geometry import LinkGeometry
from uwbagsim.linkbudget import (
    CENTER_FREQ_HZ,
    REF_DISTANCE_M,
    RX_SENSITIVITY_DBM,
    TX_POWER_DBM,
    WAVELENGTH_M,
    free_space_reference_db,
    link_margin_db,
    los_amplitude,
    path_loss_db,
    received_power,
    reference_power,
    speed_of_light,
)
from uwbagsim.simulate import LinkScenario, realize, realize_ensemble


def test_sounder_constants():
    assert CENTER_FREQ_HZ == 4.3e9
    assert TX_POWER_DBM == -14.5
    assert RX_SENSITIVITY_DBM == -104.0
    assert REF_DISTANCE_M == 1.0
    assert WAVELENGTH_M == pytest.approx(0.06971917627906976)


def test_speed_of_light_is_exact_si_value():
    assert speed_of_light == 299_792_458.0


def test_import_does_not_load_scipy():
    import uwbagsim

    # import the same uwbagsim this test process sees
    env = {**os.environ, "PYTHONPATH": str(Path(uwbagsim.__file__).resolve().parents[1])}
    probe = "import sys, uwbagsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_los_amplitude_reference_link():
    geom = LinkGeometry(x_m=30.0, h_m=10.0)
    amp = los_amplitude(geom, Orientation.VV)
    assert amp == pytest.approx(1.6644227299663752e-4, rel=1e-12)


def test_los_amplitude_vanishes_toward_vertical():
    amp = los_amplitude(LinkGeometry(x_m=1e-6, h_m=10.0), Orientation.VV)
    assert amp < 1e-10


def test_los_amplitude_inverse_distance_law():
    # doubling both legs keeps the elevation angle and halves the amplitude
    a1 = los_amplitude(LinkGeometry(15.0, 10.0), Orientation.VV)
    a2 = los_amplitude(LinkGeometry(30.0, 20.0), Orientation.VV)
    assert a2 == pytest.approx(a1 / 2.0)


def test_los_amplitude_cross_polarized():
    geom = LinkGeometry(30.0, 10.0)
    vv = los_amplitude(geom, Orientation.VV)
    vh = los_amplitude(geom, Orientation.VH, xpd_db=10.0)
    assert vh == pytest.approx(vv * 10 ** (-0.5))


def _manual_realization(amps, los_amplitude=0.0):
    n = len(amps)
    return ChannelRealization(
        np.arange(n, dtype=float),
        np.asarray(amps, dtype=float),
        np.zeros(n),
        np.zeros(n, dtype=int),
        np.arange(n, dtype=int),
        window_ns=100.0,
        los_amplitude=los_amplitude,
    )


def test_received_power_single_los_tap():
    r = _manual_realization([0.3], los_amplitude=0.3)
    split = received_power(r)
    assert split == (pytest.approx(0.09), pytest.approx(0.09), 0.0)


def test_received_power_two_tap_additivity():
    r = _manual_realization([0.3, 0.1], los_amplitude=0.3)
    total, los, nlos = received_power(r)
    assert los == pytest.approx(0.09)
    assert nlos == pytest.approx(0.01)
    assert total == los + nlos  # exact by construction


def test_received_power_obstructed_counts_all_as_scatter():
    r = _manual_realization([0.3, 0.1], los_amplitude=0.0)
    total, los, nlos = received_power(r)
    assert los == 0.0
    assert nlos == pytest.approx(0.1)
    assert total == nlos


def test_received_power_matches_direct_sum():
    from uwbagsim.core import lookup_params

    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
    r = generate(params, GeneratorConfig(seed=3), los_amplitude=2e-4)
    total, _, _ = received_power(r)
    assert total == pytest.approx(float(np.sum(r.amplitudes**2)), rel=1e-12)


def test_received_power_empty():
    r = ChannelRealization(
        np.array([]), np.array([]), np.array([]), np.array([], int), np.array([], int)
    )
    with pytest.raises(EmptyRealization):
        received_power(r)


def test_free_space_reference_value():
    assert free_space_reference_db() == pytest.approx(45.117152333475104)
    assert free_space_reference_db() == pytest.approx(45.12, abs=0.01)


def test_path_loss_at_reference():
    assert path_loss_db(1.0, 1.0) == pytest.approx(45.117152333475104)


def test_path_loss_ratio_term():
    base = path_loss_db(1.0, 1.0)
    assert path_loss_db(0.01, 1.0) == pytest.approx(base + 20.0)


def test_path_loss_scale_invariance():
    assert path_loss_db(2e-7, 2e-3) == pytest.approx(path_loss_db(1e-7, 1e-3))
    assert path_loss_db(3.3, 3.3) == pytest.approx(path_loss_db(1e-12, 1e-12))


def test_path_loss_rejects_nonpositive_power():
    # zero and negative powers, and powers past the float range
    cases = [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
             (1.0, math.nan)]
    for p_at_d, p_at_ref in cases:
        with pytest.raises(NonPositivePower):
            path_loss_db(p_at_d, p_at_ref)


def test_path_loss_of_a_ratio_past_the_float_range():
    # each power is finite and > 0, but their ratio overflows or underflows
    assert path_loss_db(1e-320, 1e-5) == pytest.approx(free_space_reference_db() + 3150.0)
    assert path_loss_db(1e300, 1e-300) == pytest.approx(free_space_reference_db() - 6000.0)


def test_link_margin_values():
    assert link_margin_db(80.0) == pytest.approx(9.5)
    assert link_margin_db(89.5) == pytest.approx(0.0)
    assert link_margin_db(100.0) == pytest.approx(-10.5)


def _los_only_path_loss(x, h, orientation=Orientation.VV):
    amp = los_amplitude(LinkGeometry(x, h), orientation)
    return path_loss_db(amp * amp, reference_power())


def test_path_loss_crossover_closed_form():
    # near the ground the longer link loses more; high overhead the steeper
    # (smaller) elevation angle at x=15 dominates and the ordering flips
    assert _los_only_path_loss(15.0, 10.0) < _los_only_path_loss(30.0, 10.0)
    assert _los_only_path_loss(15.0, 30.0) > _los_only_path_loss(30.0, 30.0)


def test_path_loss_eventually_increases_with_height():
    losses = [_los_only_path_loss(15.0, h) for h in np.linspace(5.0, 60.0, 12)]
    assert losses[-1] > losses[0]
    tail = losses[4:]
    assert all(a < b for a, b in zip(tail, tail[1:]))


# --- scenario orchestration ---------------------------------------------------


def test_link_scenario_from_tables_resolves_params():
    from uwbagsim.core import lookup_params

    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    sc = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link)
    assert sc.params == lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)


def test_link_scenario_los_suppressed_under_foliage():
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    sc = LinkScenario.from_tables(Scenario.HOVERING_FOLIAGE, link)
    assert sc.los_amplitude() == 0.0
    assert sc.copolarized_los_amplitude() > 0.0
    r = realize(sc, GeneratorConfig(seed=2))
    assert not r.has_los


def test_link_scenario_vh_attenuates_direct_path_only():
    link_vv = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    link_vh = LinkConfig(Receiver.RX1, Orientation.VH, 15.0, 10.0)
    params = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link_vv).params
    sc_vv = LinkScenario(Scenario.HOVERING_OPEN, link_vv, params, xpd_db=10.0)
    sc_vh = LinkScenario(Scenario.HOVERING_OPEN, link_vh, params, xpd_db=10.0)
    cfg = GeneratorConfig(seed=6, dynamic_range_db=math.inf)
    r_vv = realize(sc_vv, cfg)
    r_vh = realize(sc_vh, cfg)
    # same seed and params: identical arrival structure and scatter amplitudes
    np.testing.assert_array_equal(r_vv.delays_ns, r_vh.delays_ns)
    np.testing.assert_array_equal(r_vv.amplitudes[1:], r_vh.amplitudes[1:])
    assert r_vh.amplitudes[0] == pytest.approx(r_vv.amplitudes[0] * 10 ** (-0.5))


@pytest.mark.parametrize("xpd_db", [-1.0, math.nan, math.inf])
def test_link_scenario_rejects_xpd_outside_the_finite_nonnegative_range(xpd_db):
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    with pytest.raises(InvalidValue):
        LinkScenario.from_tables(Scenario.HOVERING_FOLIAGE, link, xpd_db=xpd_db)


def test_realize_ensemble_matches_indexed_realize():
    link = LinkConfig(Receiver.RX2, Orientation.VV, 30.0, 20.0)
    sc = LinkScenario.from_tables(Scenario.MOVING_CIRCLE, link)
    cfg = GeneratorConfig(seed=14)
    ensemble = list(realize_ensemble(sc, cfg, 4))
    direct = realize(sc, cfg, realization_index=2)
    np.testing.assert_array_equal(ensemble[2].delays_ns, direct.delays_ns)
    np.testing.assert_array_equal(ensemble[2].amplitudes, direct.amplitudes)
