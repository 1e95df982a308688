import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given

from uwbagsim.core import (
    RX_HEIGHT_M,
    SCAN_WINDOW_NS,
    ChannelRealization,
    Ensemble,
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    ScenarioParams,
    cell_violations,
    iter_table_cells,
    lookup_params,
    tables_as_dict,
    validate_tables,
    window_samples,
)
from uwbagsim.analysis import compute_pdp
from uwbagsim.errors import InvalidValue, UnknownCell
from uwbagsim.waveform import SamplingGrid, render

from published_tables import FIELD_ORDER, PUBLISHED, n_published_values
from strategies import EQUIVALENCE, ensembles, pack, tap_sets


def test_shipped_tables_have_no_violations():
    assert validate_tables() == []


def test_table_shape():
    cells = list(iter_table_cells())
    assert len(cells) == 24
    assert n_published_values() == 120


def test_every_published_value_matches():
    seen = 0
    for scenario_key, cells in PUBLISHED.items():
        scenario = Scenario(scenario_key)
        for (rx, orient, x), values in cells.items():
            params = lookup_params(scenario, Receiver(rx), Orientation(orient), x)
            for field, expected in zip(FIELD_ORDER, values):
                assert getattr(params, field) == expected, (scenario_key, rx, orient, x, field)
                seen += 1
    assert seen == 120


@pytest.mark.parametrize(
    "scenario,rx,orient,x,expected",
    [
        (Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15, (3.33, 0.033, 0.23, 0.1, 8.7)),
        (Scenario.HOVERING_FOLIAGE, Receiver.RX2, Orientation.VH, 30, (1.33, 0.013, 0.2, 0.34, 0.74)),
        (Scenario.MOVING_CIRCLE, Receiver.RX1, Orientation.VV, 30, (1.66, 0.017, 0.143, 0.082, 1.87)),
    ],
)
def test_lookup_spot_values(scenario, rx, orient, x, expected):
    params = lookup_params(scenario, rx, orient, x)
    assert (
        params.n_clusters_mean,
        params.cluster_rate,
        params.cluster_decay,
        params.ray_rate,
        params.ray_decay,
    ) == expected


def test_cluster_rate_tracks_mean_count():
    for _, _, _, _, params in iter_table_cells():
        assert abs(params.cluster_rate - params.n_clusters_mean / SCAN_WINDOW_NS) <= 5e-4


def test_lookup_total_and_pure():
    combos = itertools.product(Scenario, Receiver, Orientation, (15.0, 30.0))
    for scenario, rx, orient, x in combos:
        first = lookup_params(scenario, rx, orient, x)
        second = lookup_params(scenario, rx, orient, x)
        assert first == second


def test_lookup_unknown_distance_names_valid_ones():
    with pytest.raises(UnknownCell) as err:
        lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 20)
    message = str(err.value)
    assert "15" in message and "30" in message


def test_mutated_rate_cell_is_flagged():
    bad = ScenarioParams(3.33, 0.05, 0.23, 0.1, 8.7)
    problems = cell_violations(bad)
    assert len(problems) == 1
    assert "cluster_rate" in problems[0]


def test_nonpositive_decay_cell_is_flagged():
    bad = ScenarioParams(2.0, 0.02, 0.2, 0.1, 0.0)
    problems = cell_violations(bad)
    assert len(problems) == 1
    assert "ray_decay" in problems[0]


def test_params_json_field_names():
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
    doc = params.as_dict()
    assert set(doc) == {
        "n_clusters_mean",
        "cluster_rate_per_ns",
        "cluster_decay",
        "ray_rate_per_ns",
        "ray_decay",
    }
    assert ScenarioParams.from_dict(doc) == params


def test_tables_as_dict_layout():
    doc = tables_as_dict()
    assert set(doc) == {s.value for s in Scenario}
    cell = doc["hovering-open"]["RX1"]["VV"]["15"]
    assert cell["n_clusters_mean"] == 3.33
    assert cell["ray_decay"] == 8.7
    for scenario_doc in doc.values():
        assert set(scenario_doc) == {"RX1", "RX2"}
        for rx_doc in scenario_doc.values():
            assert set(rx_doc) == {"VV", "VH"}
            for orient_doc in rx_doc.values():
                assert set(orient_doc) == {"15", "30"}


def test_receiver_heights():
    assert RX_HEIGHT_M[Receiver.RX1] == 0.10
    assert RX_HEIGHT_M[Receiver.RX2] == 1.5


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(Receiver.RX1, Orientation.VV, 0.0, 10.0)
    with pytest.raises(ValueError):
        LinkConfig(Receiver.RX1, Orientation.VV, 15.0, -1.0)
    # the platform below the receiver antenna; the error names both heights
    with pytest.raises(InvalidValue, match="RX2 height 1.5 m, got 1.0"):
        LinkConfig(Receiver.RX2, Orientation.VV, 15.0, 1.0)


def test_link_config_geometry_subtracts_receiver_height():
    link = LinkConfig(Receiver.RX2, Orientation.VV, 30.0, 10.0)
    assert link.geometry.h_m == pytest.approx(8.5)
    assert link.geometry.x_m == 30.0


def test_params_are_immutable():
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.ray_decay = 1.0


def _realization(delays, amps=None, window=100.0):
    delays = np.asarray(delays, dtype=float)
    n = delays.size
    if amps is None:
        amps = np.ones(n)
    return ChannelRealization(
        delays, np.asarray(amps, float), np.zeros(n), np.zeros(n, int), np.arange(n), window_ns=window
    )


def test_realization_rejects_unsorted_delays():
    with pytest.raises(ValueError):
        _realization([0.0, 5.0, 3.0])


def test_realization_rejects_delays_at_window():
    with pytest.raises(ValueError):
        _realization([0.0, 100.0])


def test_realization_rejects_negative_delay():
    with pytest.raises(ValueError):
        _realization([-1.0, 5.0])


def test_realization_tap_accessors():
    r = _realization([0.0, 4.0, 9.0], amps=[1.0, 0.5, 0.25])
    assert not r.has_los


def _reference_cluster_starts(realization):
    """The per-cluster boolean-mask loop that cluster_starts replaced."""
    ids = np.unique(realization.cluster_indices)
    return np.array(
        [realization.delays_ns[realization.cluster_indices == cid].min() for cid in ids]
    )


@EQUIVALENCE
@given(tap_sets())
def test_cluster_starts_match_reference_loop(realization):
    got = realization.cluster_starts()
    want = _reference_cluster_starts(realization)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@EQUIVALENCE
@given(ensembles())
@example(pack([]))
@example(pack([_realization([]), _realization([0.0, 4.0]), _realization([])]))
def test_ensemble_cluster_starts_are_each_members(ens):
    got = ens.cluster_starts()
    assert type(got) is list and len(got) == len(ens)
    for starts, member in zip(got, ens):
        want = member.cluster_starts()
        assert starts.dtype == want.dtype
        assert starts.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "x, h", [(math.nan, 10.0), (math.inf, 10.0), (15.0, math.nan), (15.0, math.inf)]
)
def test_link_config_rejects_non_finite_placement(x, h):
    with pytest.raises(ValueError):
        LinkConfig(Receiver.RX1, Orientation.VV, x, h)


@pytest.mark.parametrize(
    "delays, amps, phases",
    [
        ([math.nan], [1.0], [0.0]),
        ([0.0, math.nan, 20.0], [1.0, 0.5, 0.2], [0.0, 0.0, 0.0]),
        ([0.0, math.inf], [1.0, 0.5], [0.0, 0.0]),
        ([0.0, 5.0], [1.0, math.nan], [0.0, 0.0]),
        ([0.0, 5.0], [1.0, math.inf], [0.0, 0.0]),
        ([0.0, 5.0], [1.0, 0.5], [0.0, math.nan]),
        ([0.0, 5.0], [1.0, 0.5], [-math.inf, 0.0]),
    ],
    ids=["lone-nan-delay", "nan-delay", "inf-delay", "nan-amplitude", "inf-amplitude",
         "nan-phase", "inf-phase"],
)
def test_realization_rejects_non_finite_taps(delays, amps, phases):
    n = len(delays)
    with pytest.raises(ValueError):
        ChannelRealization(
            np.array(delays), np.array(amps), np.array(phases), np.zeros(n, int), np.arange(n)
        )


@pytest.mark.parametrize("amps", [[1.0, -0.5], [-1e-300, 0.2], [1.0, -math.inf]],
                         ids=["negative", "tiny-negative", "minus-inf"])
def test_taps_reject_negative_amplitudes(amps):
    # a sign belongs in the phase; a negative amplitude would count as a weak
    # component by amplitude and a strong one by power
    with pytest.raises(InvalidValue, match="amplitude"):
        ChannelRealization(np.array([0.0, 5.0]), np.array(amps), np.zeros(2), np.zeros(2, int),
                           np.arange(2))
    with pytest.raises(InvalidValue, match="amplitude"):
        Ensemble(np.array([0.0, 5.0]), np.array(amps), np.zeros(2), np.zeros(2, int),
                 np.arange(2), np.array([0, 1, 2]))


def test_taps_accept_zero_and_negative_zero_amplitudes():
    r = ChannelRealization(np.array([0.0, 5.0]), np.array([-0.0, 0.0]), np.zeros(2),
                           np.zeros(2, int), np.arange(2))
    assert len(r) == 2


@pytest.mark.parametrize("window", [math.nan, -5.0, 0.0, math.inf],
                         ids=["nan", "negative", "zero", "inf"])
def test_taps_reject_a_window_that_is_not_finite_and_positive(window):
    # the window is the realization's sampling grid, so it must be one
    with pytest.raises(InvalidValue, match="scan window"):
        ChannelRealization([], [], [], [], [], window_ns=window)
    with pytest.raises(InvalidValue, match="scan window"):
        Ensemble([], [], [], [], [], [0], window_ns=window)


@pytest.mark.parametrize("window", [0.01, 0.03, 0.061])
def test_taps_reject_a_window_that_holds_no_sample(window):
    # finite and > 0, but shorter than the 0.0610336 ns sample step
    with pytest.raises(InvalidValue, match="holds no sample"):
        ChannelRealization([0.0], [1.0], [0.0], [0], [0], window_ns=window)
    with pytest.raises(InvalidValue, match="holds no sample"):
        Ensemble([0.0], [1.0], [0.0], [0], [0], [0, 1], window_ns=window)


@pytest.mark.parametrize("window", [1e17, 1e300, 1e306, sys.float_info.max],
                         ids=["1e17", "1e300", "1e306", "float-max"])
def test_a_grid_rejects_a_sample_count_no_array_can_hold(window):
    # finite and > 0, but a float64 scan of that many samples passes numpy's
    # sys.maxsize-byte limit (from 1e306 on the count itself overflows to
    # inf): a container still holds taps in it, and a grid cannot
    r = ChannelRealization([0.0], [1.0], [0.0], [0], [0], window_ns=window)
    assert window_samples(window) * 8 > sys.maxsize
    with pytest.raises(InvalidValue, match="more samples than an array can hold"):
        SamplingGrid(window)
    with pytest.raises(InvalidValue, match="more samples than an array can hold"):
        compute_pdp([r], smoothing_window_samples=1)
    with pytest.raises(InvalidValue, match="more samples than an array can hold"):
        render(r)


def test_a_grid_takes_the_largest_count_an_array_can_hold():
    # the bound is numpy's own: sys.maxsize bytes of float64 samples
    largest = sys.maxsize // 8 * SamplingGrid().sample_step_ns
    assert SamplingGrid(7e16).n_samples * 8 <= sys.maxsize
    assert SamplingGrid(largest * (1 - 1e-12)).n_samples * 8 <= sys.maxsize
    with pytest.raises(InvalidValue):
        SamplingGrid(largest * (1 + 1e-12))


@pytest.mark.parametrize("window", [0.0611, 0.5, 1.0, 37.0, SCAN_WINDOW_NS])
def test_window_samples_is_the_grid_of_every_container(window):
    # one sample-count rule: the containers accept the windows whose grid has a sample
    r = ChannelRealization([0.0], [1.0], [0.0], [0], [0], window_ns=window)
    n = SamplingGrid(window).n_samples
    assert n == math.floor(window_samples(window)) >= 1
    assert render(r).shape == (n,)
