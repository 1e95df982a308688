import itertools
import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbagsim.analysis import (
    ClusterEstimate,
    ParamEstimate,
    Pdp,
    analysis_report,
    average_significant_mpcs,
    clean_deconvolve,
    compute_pdp,
    count_significant_mpcs,
    estimate_params,
    identify_clusters,
    _extrema,
)
from uwbagsim.core import (
    ENSEMBLE_CHUNK,
    ChannelRealization,
    Ensemble,
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    ScenarioParams,
    chunk_ranges,
    iter_table_cells,
    lookup_params,
)
from uwbagsim.errors import (
    EmptyInput,
    InsufficientData,
    InvalidValue,
    UwbAgSimError,
    ZeroTemplate,
)
from uwbagsim.generator import (
    AmplitudeFading,
    DecayMode,
    GeneratorConfig,
    generate,
    generate_ensemble,
)
from uwbagsim.simulate import LinkScenario, realize
from uwbagsim.waveform import (
    DEFAULT_GRID,
    SamplingGrid,
    render,
    template_pulse,
)

from strategies import EQUIVALENCE, ensembles, tap_sets

STEP_NS = DEFAULT_GRID.sample_step_ns


def _taps(entries, window=100.0, los=0.0):
    entries = sorted(entries)
    delays = np.array([e[0] for e in entries], dtype=float)
    amps = np.array([e[1] for e in entries], dtype=float)
    phases = np.array([e[2] if len(e) > 2 else 0.0 for e in entries], dtype=float)
    n = delays.size
    return ChannelRealization(
        delays, amps, phases, np.zeros(n, int), np.arange(n), window_ns=window, los_amplitude=los
    )


# --- CLEAN deconvolution -----------------------------------------------------


def test_clean_recovers_single_tap():
    tpl = template_pulse()
    rec = render(_taps([(20.0, 1.0, 0.0)]))
    taps = clean_deconvolve(rec, tpl)
    assert len(taps) == 1
    assert taps[0].amplitude == pytest.approx(1.0, rel=0.02)
    expected_idx = round(20.0 / STEP_NS)
    assert round(taps[0].delay_ns / STEP_NS) == expected_idx
    assert taps[0].phase_rad == 0.0


def test_clean_threshold_straddle():
    tpl = template_pulse()
    rec = render(_taps([(10.0, 1.0, 0.0), (20.0, 0.5, 0.0), (45.0, 0.1, 0.0)]))
    taps = clean_deconvolve(rec, tpl, stop_frac=0.2)
    # the 0.5 tap clears the 20% relative threshold, the 0.1 tap does not
    assert len(taps) == 2
    amps = sorted(t.amplitude for t in taps)
    assert amps[0] == pytest.approx(0.5, rel=0.02)
    assert amps[1] == pytest.approx(1.0, rel=0.02)


def test_clean_silence_gives_no_taps():
    tpl = template_pulse()
    rec = np.zeros(DEFAULT_GRID.n_samples)
    assert clean_deconvolve(rec, tpl) == []


def test_clean_zero_template():
    rec = np.zeros(DEFAULT_GRID.n_samples)
    with pytest.raises(ZeroTemplate):
        clean_deconvolve(rec, np.zeros(9))


def test_clean_rejects_an_empty_scan():
    with pytest.raises(InvalidValue, match="rx holds no sample"):
        clean_deconvolve(np.array([]), template_pulse())


def test_clean_recovers_negative_tap_as_phase_pi():
    tpl = template_pulse()
    rec = render(_taps([(15.0, 1.0, 0.0), (40.0, 0.5, math.pi)]))
    taps = clean_deconvolve(rec, tpl)
    assert len(taps) == 2
    assert taps[0].phase_rad == 0.0
    assert taps[1].phase_rad == pytest.approx(math.pi)
    assert taps[1].amplitude == pytest.approx(0.5, rel=0.02)


def test_clean_render_identity_on_random_sets():
    tpl = template_pulse()
    rng = np.random.default_rng(100)
    for _ in range(10):
        n = rng.integers(2, 7)
        while True:
            idx = np.sort(rng.choice(np.arange(30, 1550), size=n, replace=False))
            if np.all(np.diff(idx) * STEP_NS > 1.0):
                break
        amps = rng.uniform(0.21, 1.0, size=n)
        amps[rng.integers(0, n)] = 1.0
        phases = rng.choice([0.0, math.pi], size=n)
        truth = sorted(zip(idx * STEP_NS, amps, phases))
        rec = render(_taps(truth))
        taps = clean_deconvolve(rec, tpl)
        assert len(taps) == n
        for got, (delay, amp, phase) in zip(taps, truth):
            assert abs(round(got.delay_ns / STEP_NS) - round(delay / STEP_NS)) <= 1
            assert got.amplitude == pytest.approx(amp, rel=0.02)
            assert got.phase_rad == pytest.approx(phase)


def test_clean_taps_sorted_by_delay():
    tpl = template_pulse()
    rec = render(_taps([(70.0, 0.9, 0.0), (10.0, 1.0, 0.0), (40.0, 0.5, 0.0)]))
    taps = clean_deconvolve(rec, tpl)
    delays = [t.delay_ns for t in taps]
    assert delays == sorted(delays)


@pytest.mark.xfail(strict=True, reason="in-phase CLEAN splits a direct path at nonzero phase "
                   "into carrier-lobe picks; the strongest lands at 0.305 ns")
@pytest.mark.parametrize(
    "seed, index, phase",
    # scans of the README cell run with --fading rayleigh --snr-db 20 --seed <seed>: the
    # direct path sits at 0 ns, a scatter tap at 0.551 ns (scan 272) or 0.184 ns (scan 256)
    [(1000064, 272, 0.599), (1003404, 256, 0.534)],
)
def test_clean_strongest_pick_is_the_direct_path_at_nonzero_phase(seed, index, phase):
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    scenario = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link)
    config = GeneratorConfig(amplitude_fading=AmplitudeFading.RAYLEIGH, seed=seed)
    realization = realize(scenario, config, index)
    assert realization.delays_ns[0] == 0.0
    assert realization.phases_rad[0] == pytest.approx(phase, abs=1e-3)
    taps = clean_deconvolve(render(realization, snr_db=20, noise_seed=seed + index),
                            template_pulse())
    strongest = max(taps, key=lambda tap: tap.amplitude)
    # the direct-path tolerance of the benchmark's inverse-scans check
    assert abs(strongest.delay_ns - realization.delays_ns[0]) <= 0.25


# --- PDP ---------------------------------------------------------------------


def test_pdp_single_tap_profile():
    pdp = compute_pdp([_taps([(10.0, 1.0)])], smoothing_window_samples=1)
    idx = round(10.0 / STEP_NS)
    assert pdp.power_db[idx] == 0.0
    others = np.delete(pdp.power_db, idx)
    assert np.all(others == -100.0)


def test_pdp_average_of_powers():
    # same tap at amplitude 1 and 0 across two scans, against a fixed anchor
    anchor = (50.0, 2.0)
    varying = [compute_pdp([_taps([anchor, (10.0, a)]) for a in pair], smoothing_window_samples=1)
               for pair in ((1.0, 0.0), (1.0, 1.0))]
    idx = round(10.0 / STEP_NS)
    delta = varying[0].power_db[idx] - varying[1].power_db[idx]
    assert delta == pytest.approx(10 * math.log10(0.5), abs=1e-9)


def test_pdp_smoothing_spreads_impulse():
    window = 25
    pdp = compute_pdp([_taps([(50.0, 1.0)])], smoothing_window_samples=window)
    assert pdp.power_db.max() == 0.0
    # impulse becomes a plateau one window wide, 10*log10(window) down
    assert pdp.smoothed_db.max() == pytest.approx(-10 * math.log10(window), abs=1e-9)
    plateau = np.nonzero(pdp.smoothed_db > -10 * math.log10(window) - 1e-6)[0]
    assert plateau.size == window


def test_pdp_from_waveforms():
    rec = render(_taps([(20.0, 1.0, 0.0)]))
    pdp = compute_pdp([rec], smoothing_window_samples=1)
    assert np.argmax(pdp.power_db) == round(20.0 / STEP_NS)
    assert pdp.power_db.max() == 0.0


@pytest.mark.parametrize("window", [0, 17])
def test_pdp_smoothing_window_must_fit_the_profile(window):
    short = _taps([(0.5, 1.0)], window=1.0)  # 16 samples
    with pytest.raises(ValueError, match="smoothing window"):
        compute_pdp([short], smoothing_window_samples=window)
    compute_pdp([short], smoothing_window_samples=16)


def test_pdp_empty_inputs():
    with pytest.raises(EmptyInput):
        compute_pdp([])


def test_pdp_shapes_consistent():
    pdp = compute_pdp([_taps([(10.0, 1.0), (30.0, 0.5)])])
    assert len(pdp.time_ns) == len(pdp.power_db) == len(pdp.smoothed_db) == DEFAULT_GRID.n_samples


def _scan_with(value):
    scan = render(_taps([(10.0, 1.0, 0.0)]))
    scan[20] = value
    return scan


@pytest.mark.parametrize(
    "make_inputs",
    [lambda: [_taps([(0.0, 1e200), (5.0, 0.5)])],
     # each power fits the float range, their sum does not
     lambda: [_taps([(0.0, 1e154)]), _taps([(0.0, 1e154)])],
     lambda: [_scan_with(1e200)],
     lambda: [_scan_with(math.nan)]],
    ids=["tap-overflow", "sum-overflow", "scan-overflow", "scan-nan"],
)
def test_pdp_rejects_power_that_is_not_finite(make_inputs):
    with pytest.raises(InvalidValue, match="not finite"):
        compute_pdp(make_inputs())


@pytest.mark.parametrize("reverse", [False, True])
def test_pdp_inputs_of_different_lengths_are_rejected_in_either_order(reverse):
    scan = render(_taps([(10.0, 1.0, 0.0)], window=37.0))
    inputs = [scan, _taps([(80.0, 1.0)])]
    with pytest.raises(InvalidValue, match=r"\b(606 and 1638|1638 and 606)\b"):
        compute_pdp(inputs[::-1] if reverse else inputs)
    # a scan on the default grid and a realization share the profile length
    pdp = compute_pdp([render(_taps([(10.0, 1.0, 0.0)])), _taps([(80.0, 1.0)])])
    assert pdp.power_db.size == DEFAULT_GRID.n_samples


def test_pdp_bins_each_realization_on_its_own_window():
    # a tap past the shorter window is never clipped into its last bin
    inputs = [_taps([(80.0, 1.0)]), _taps([(10.0, 1.0)], window=50.0)]
    with pytest.raises(InvalidValue, match=r"\b1638 and 819\b"):
        compute_pdp(inputs)
    pdp = compute_pdp([_taps([(10.0, 1.0)], window=50.0)], smoothing_window_samples=1)
    assert pdp.power_db.size == SamplingGrid(window_ns=50.0).n_samples


def test_pdp_rejects_an_empty_scan_before_the_smoothing_check():
    with pytest.raises(InvalidValue, match="scan holds no sample"):
        compute_pdp([np.array([])])


@pytest.mark.parametrize(
    "scan",
    [np.float64(1.0), 1.0, render(generate_ensemble(
        lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15),
        GeneratorConfig(seed=3), range(2))),
     np.ones(DEFAULT_GRID.n_samples, dtype=complex), np.full(DEFAULT_GRID.n_samples, "1.0"),
     "1.0", np.full(DEFAULT_GRID.n_samples, 1.0, dtype=object)],
    ids=["0-d", "float", "2-D", "complex", "string-array", "string", "object"],
)
def test_pdp_takes_a_scan_only_as_a_1d_real_array(scan):
    # as write_waveform_csv takes it; a 2-D scan is not read as its rows
    with pytest.raises(InvalidValue, match="a scan is a 1-D real array, got "):
        compute_pdp([render(_taps([(10.0, 1.0, 0.0)])), scan])


def test_pdp_of_a_realization_without_taps_is_a_zero_profile():
    with pytest.raises(EmptyInput, match="all input power is zero"):
        compute_pdp([_taps([])])
    pdp = compute_pdp([_taps([]), _taps([(10.0, 1.0)])], smoothing_window_samples=1)
    assert pdp.power_db.max() == 0.0


def _result(call, *args):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except UwbAgSimError as exc:
        return type(exc), str(exc)


def _flat(inputs):
    return [m for item in inputs for m in (list(item) if isinstance(item, Ensemble) else [item])]


def _pdp_bytes(inputs, smoothing):
    pdp = _result(compute_pdp, inputs, smoothing)
    return pdp if isinstance(pdp, tuple) else [a.tobytes() for a in astuple(pdp)]


@EQUIVALENCE
@given(
    parts=st.lists(st.one_of(ensembles(), tap_sets(max_taps=8), st.integers(0, 2**32)),
                   min_size=1, max_size=4),
    smoothing=st.sampled_from([1, 25]),
)
def test_pdp_over_ensembles_is_the_pdp_over_their_members(parts, smoothing):
    # an integer stands for a noise scan on the default grid
    inputs = [np.random.default_rng(p).normal(size=DEFAULT_GRID.n_samples)
              if isinstance(p, int) else p for p in parts]
    assert _pdp_bytes(inputs, smoothing) == _pdp_bytes(_flat(inputs), smoothing)


@EQUIVALENCE
@given(ens=ensembles(), threshold=st.sampled_from([0.2, 0.5, 1.0]))
def test_significant_counts_of_an_ensemble_are_each_members(ens, threshold):
    members = [_result(count_significant_mpcs, m, threshold) for m in ens]
    counts = _result(count_significant_mpcs, ens, threshold)
    if isinstance(counts, tuple):  # a member without taps raises for all, as it does alone
        assert counts in members and 0 in map(len, ens)
        return
    assert counts.dtype.kind == "i" and counts.tolist() == members
    # each member's count is the one the direct comparison gives
    assert members == [
        int(np.count_nonzero(m.amplitudes >= threshold * m.amplitudes.max())) for m in ens
    ]


@EQUIVALENCE
@given(parts=st.lists(st.one_of(ensembles(), tap_sets(max_taps=8)), max_size=4))
def test_significant_mean_and_report_over_ensembles_are_those_over_their_members(parts):
    flat = _flat(parts)
    assert _result(average_significant_mpcs, parts) == _result(average_significant_mpcs, flat)
    report, by_member = _result(analysis_report, parts), _result(analysis_report, flat)
    if isinstance(report, tuple):
        assert report == by_member
        return
    # the estimates reduce each container in one pass, as estimate_params does
    estimates = _result(estimate_params, parts)
    assert report.pop("estimates") == (
        {"error": estimates[1]} if isinstance(estimates, tuple) else estimates.as_dict()
    )
    by_member.pop("estimates")
    assert json.dumps(report) == json.dumps(by_member)


# --- significant components ---------------------------------------------------


def test_count_threshold_straddle():
    assert count_significant_mpcs([1.0, 0.3, 0.19]) == 2


def test_count_all_equal():
    assert count_significant_mpcs([0.4] * 7) == 7


@pytest.mark.parametrize("scale", [1e-6, 0.5, 3.0, 1e4])
def test_count_scale_invariance(scale):
    base = [1.0, 0.55, 0.21, 0.19, 0.05]
    assert count_significant_mpcs([scale * a for a in base]) == count_significant_mpcs(base)


def test_count_accepts_realization():
    r = _taps([(0.0, 1.0), (5.0, 0.25), (9.0, 0.1)])
    assert count_significant_mpcs(r) == 2


def test_count_empty():
    with pytest.raises(EmptyInput):
        count_significant_mpcs([])
    with pytest.raises(EmptyInput):
        average_significant_mpcs([])


def test_average_counts():
    ensembles = [_taps([(0.0, 1.0)]), _taps([(0.0, 1.0), (5.0, 0.5)])]
    assert average_significant_mpcs(ensembles) == pytest.approx(1.5)


# --- cluster identification ----------------------------------------------------


def _pdp_from_db(values_db, step_ns=0.5):
    values = np.asarray(values_db, dtype=float)
    t = np.arange(values.size) * step_ns
    return Pdp(time_ns=t, power_db=values, smoothed_db=values)


def _hump(n_rise, n_fall, height, floor):
    up = np.linspace(floor, floor + height, n_rise, endpoint=False)
    down = np.linspace(floor + height, floor, n_fall + 1)
    return np.concatenate([up, down])


def test_two_prominent_humps_are_two_clusters():
    floor = -40.0
    # 1 ns rise, 3 ns fall at 0.5 ns/sample, humps 20 ns apart
    hump = _hump(2, 6, 15.0, floor)
    profile = np.concatenate([hump, np.full(40 - hump.size, floor), hump,
                              np.full(40, floor)])
    clusters = identify_clusters(_pdp_from_db(profile))
    assert len(clusters) == 2
    assert clusters[0].end_ns <= clusters[1].start_ns
    assert clusters[1].peak_ns - clusters[0].peak_ns == pytest.approx(20.0, abs=1.0)


def test_monotone_decay_is_one_cluster():
    profile = np.linspace(0.0, -40.0, 201)  # smooth single decay
    clusters = identify_clusters(_pdp_from_db(profile))
    assert len(clusters) == 1
    assert clusters[0].peak_ns == 0.0
    assert clusters[0].end_ns - clusters[0].peak_ns >= 2.0


def test_narrow_hump_rejected_by_duration_rule():
    floor = -40.0
    narrow = _hump(2, 2, 15.0, floor)  # 1 ns peak-to-fall at 0.5 ns/sample
    profile = np.concatenate([np.full(30, floor), narrow, np.full(30, floor)])
    clusters = identify_clusters(_pdp_from_db(profile))
    assert clusters == []


def test_small_rise_not_opened():
    floor = -40.0
    bump = _hump(4, 8, 6.0, floor)  # only 6 dB of rise
    profile = np.concatenate([np.full(30, floor), bump, np.full(30, floor)])
    assert identify_clusters(_pdp_from_db(profile)) == []


def test_duration_boundary_admitted_at_exactly_two_ns():
    floor = -40.0
    hump = _hump(2, 4, 15.0, floor)  # 2.0 ns peak-to-fall at 0.5 ns/sample
    profile = np.concatenate([np.full(10, floor), hump, np.full(30, floor)])
    clusters = identify_clusters(_pdp_from_db(profile))
    assert len(clusters) == 1
    assert clusters[0].end_ns - clusters[0].peak_ns == pytest.approx(2.0)


@pytest.mark.parametrize("offset", [-17.0, 0.0, 12.5])
def test_cluster_identification_invariant_to_db_offset(offset):
    floor = -40.0
    hump = _hump(2, 6, 15.0, floor)
    profile = np.concatenate([hump, np.full(40 - hump.size, floor), hump, np.full(40, floor)])
    base = identify_clusters(_pdp_from_db(profile))
    shifted = identify_clusters(_pdp_from_db(profile + offset))
    assert [(c.start_ns, c.peak_ns, c.end_ns) for c in base] == [
        (c.start_ns, c.peak_ns, c.end_ns) for c in shifted
    ]


def test_cluster_estimate_validates_ordering():
    with pytest.raises(ValueError):
        ClusterEstimate(start_ns=5.0, peak_ns=4.0, end_ns=10.0, peak_db=-3.0)


# The sign-flip state machine and the O(peaks x valleys) scans that
# _extrema and identify_clusters replaced, kept as references.


def _reference_extrema(values):
    d = np.diff(values)
    nz = np.nonzero(d)[0]
    if nz.size == 0:
        return [], []

    peaks, valleys = [], []
    first_sign = 1 if d[nz[0]] > 0 else -1
    (valleys if first_sign > 0 else peaks).append(0)

    prev_sign = first_sign
    prev_pos = int(nz[0])
    for i in nz[1:]:
        sign = 1 if d[i] > 0 else -1
        if sign != prev_sign:
            (peaks if prev_sign > 0 else valleys).append(prev_pos + 1)
            prev_sign = sign
        prev_pos = int(i)
    (peaks if prev_sign > 0 else valleys).append(prev_pos + 1)
    return peaks, valleys


def _reference_identify_clusters(pdp, rise_fall_db=10.0, min_peak_to_fall_ns=2.0):
    s = np.asarray(pdp.smoothed_db, dtype=float)
    t = np.asarray(pdp.time_ns, dtype=float)
    peaks, valleys = _reference_extrema(s)
    if not peaks:
        return []

    clusters = []
    prev_end_idx = -1
    for p in peaks:
        if p <= prev_end_idx:
            continue
        prior = [v for v in valleys if v < p and v >= prev_end_idx]
        if prior:
            rise = s[p] - s[prior[-1]]
            start_idx = prior[-1]
        else:
            rise = np.inf
            start_idx = prev_end_idx + 1 if prev_end_idx >= 0 else 0
        if rise < rise_fall_db:
            continue
        falls = [v for v in valleys if v > p and s[p] - s[v] >= rise_fall_db]
        if falls:
            end_idx = falls[0]
        elif s[p] - s[-1] >= rise_fall_db:
            end_idx = s.size - 1
        else:
            continue
        if t[end_idx] - t[p] < min_peak_to_fall_ns:
            continue
        clusters.append(
            ClusterEstimate(
                start_ns=float(t[start_idx]),
                peak_ns=float(t[p]),
                end_ns=float(t[end_idx]),
                peak_db=float(s[p]),
            )
        )
        prev_end_idx = end_idx
    return clusters


SEGMENTATION_THRESHOLDS = [(10.0, 2.0), (3.0, 0.5), (0.0, 0.0), (20.0, 5.0)]


def _assert_segmentation_matches_reference(values, step_ns, rise_fall_db, min_peak_to_fall_ns):
    values = np.asarray(values, dtype=float)
    peaks, valleys = _extrema(values)
    assert (peaks.tolist(), valleys.tolist()) == _reference_extrema(values)
    pdp = _pdp_from_db(values, step_ns)
    got = identify_clusters(pdp, rise_fall_db, min_peak_to_fall_ns)
    want = _reference_identify_clusters(pdp, rise_fall_db, min_peak_to_fall_ns)
    assert repr(got) == repr(want)


@EQUIVALENCE
@given(
    steps=st.integers(0, 400).flatmap(
        lambda n: st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)
    ),
    step_ns=st.sampled_from([STEP_NS, 0.5]),
    thresholds=st.sampled_from(SEGMENTATION_THRESHOLDS),
)
def test_segmentation_matches_reference_on_rounded_random_walks(steps, step_ns, thresholds):
    # rounding the walk to whole dB leaves plateaus wherever small steps
    # cancel
    _assert_segmentation_matches_reference(np.round(np.cumsum(steps)), step_ns, *thresholds)


@pytest.mark.parametrize("thresholds", SEGMENTATION_THRESHOLDS)
@pytest.mark.parametrize(
    "values",
    [[], [-3.0], [0.0, 0.0], [0.0, -12.0], [-12.0, 0.0], [-7.5] * 50,
     [0.0] * 5 + [-20.0] * 5 + [0.0] * 5],
    ids=["empty", "one", "two-flat", "two-falling", "two-rising", "constant", "steps"],
)
def test_segmentation_matches_reference_on_short_and_flat_curves(values, thresholds):
    _assert_segmentation_matches_reference(values, 0.5, *thresholds)


def _per_peak_identify_clusters(pdp, rise_fall_db=10.0, min_peak_to_fall_ns=2.0):
    """identify_clusters as it was before it skipped the peaks that cannot open a
    cluster: every peak visits the loop, and its rise depends on the last cluster."""
    s = np.asarray(pdp.smoothed_db, dtype=float)
    t = np.asarray(pdp.time_ns, dtype=float)
    peaks, valleys = _extrema(s)
    valley_db = s[valleys]
    prior = np.searchsorted(valleys, peaks) - 1

    clusters = []
    prev_end_idx = -1
    for p, j in zip(peaks.tolist(), prior.tolist()):
        if p <= prev_end_idx:
            continue
        if j >= 0 and valleys[j] >= prev_end_idx:
            rise = s[p] - valley_db[j]
            start_idx = valleys[j]
        else:
            rise = np.inf  # opening edge of the profile
            start_idx = prev_end_idx + 1 if prev_end_idx >= 0 else 0
        if rise < rise_fall_db:
            continue
        falls = np.flatnonzero(s[p] - valley_db[j + 1 :] >= rise_fall_db)
        if falls.size:
            end_idx = valleys[j + 1 + falls[0]]
        elif s[p] - s[-1] >= rise_fall_db:
            end_idx = s.size - 1
        else:
            continue
        if t[end_idx] - t[p] < min_peak_to_fall_ns:
            continue
        clusters.append(
            ClusterEstimate(
                start_ns=float(t[start_idx]),
                peak_ns=float(t[p]),
                end_ns=float(t[end_idx]),
                peak_db=float(s[p]),
            )
        )
        prev_end_idx = end_idx
    return clusters


@EQUIVALENCE
@given(
    # whole-dB steps, with 0 and equal steps often, give plateaus and tied peaks and valleys;
    # steps of 10 dB and more open and close clusters at the 10 dB threshold
    steps=st.lists(st.sampled_from([-15.0, -10.0, -4.0, -1.0, 0.0, 0.0, 1.0, 4.0, 10.0, 15.0]),
                   max_size=300),
    rising_start=st.booleans(),
    nan_at=st.one_of(st.none(), st.integers(0, 300)),
    thresholds=st.sampled_from(SEGMENTATION_THRESHOLDS),
)
def test_segmentation_matches_the_per_peak_loop(steps, rising_start, nan_at, thresholds):
    values = np.cumsum([0.0] + steps)
    if rising_start:
        values = np.concatenate([values.min() - np.array([30.0, 20.0, 10.0]), values])
    if nan_at is not None:  # a NaN rise neither opens nor skips a peak by a comparison
        values[nan_at % values.size] = np.nan
    pdp = _pdp_from_db(values, 0.5)
    got = identify_clusters(pdp, *thresholds)
    assert repr(got) == repr(_per_peak_identify_clusters(pdp, *thresholds))


@settings(EQUIVALENCE, max_examples=25)
@given(
    index=st.integers(0, 10_000),
    snr_db=st.sampled_from([0.0, 20.0, 40.0]),
    thresholds=st.sampled_from(SEGMENTATION_THRESHOLDS),
)
@pytest.mark.parametrize("smoothing", [1, 25])
def test_segmentation_matches_reference_on_noisy_scans(index, snr_db, thresholds, smoothing):
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
    config = GeneratorConfig(amplitude_fading=AmplitudeFading.RAYLEIGH, seed=9)
    scan = render(generate(params, config, 1e-3, index), snr_db=snr_db, noise_seed=index)
    pdp = compute_pdp([scan], smoothing_window_samples=smoothing)
    _assert_segmentation_matches_reference(pdp.smoothed_db, STEP_NS, *thresholds)


# --- parameter estimation -------------------------------------------------------


def _clean_config(seed, mode=DecayMode.RATE, fading=AmplitudeFading.DETERMINISTIC):
    return GeneratorConfig(
        decay_mode=mode,
        amplitude_fading=fading,
        dynamic_range_db=math.inf,
        seed=seed,
    )


def test_estimate_recovers_cluster_rate():
    params = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX1, Orientation.VV, 15)
    assert params.cluster_rate == 0.02
    ens = (generate(params, _clean_config(50), 0.0, i) for i in range(1000))
    est = estimate_params(ens)
    assert 0.017 <= est.cluster_rate_hat <= 0.023


def test_estimate_exact_decay_recovery_deterministic():
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
    ens = (generate(params, _clean_config(51), 0.0, i) for i in range(400))
    est = estimate_params(ens)
    # noise-free amplitudes make the log-power regression exact
    assert est.cluster_decay_hat == pytest.approx(params.cluster_decay, rel=1e-9)
    assert est.ray_decay_hat == pytest.approx(params.ray_decay, rel=1e-9)
    assert abs(est.ray_decay_hat - 8.7) / 8.7 < 0.10


def test_estimate_time_constant_mode_round_trip():
    params = ScenarioParams(2.0, 0.02, 30.0, 0.2, 8.7)  # decays as time constants
    mode = DecayMode.TIME_CONSTANT
    ens = (generate(params, _clean_config(52, mode=mode), 0.0, i) for i in range(500))
    est = estimate_params(ens, decay_mode=mode)
    assert est.cluster_decay_hat == pytest.approx(30.0, rel=1e-9)
    assert est.ray_decay_hat == pytest.approx(8.7, rel=1e-9)
    assert abs(est.ray_rate_hat - 0.2) / 0.2 < 0.15


def test_estimate_rayleigh_decay_within_ten_percent():
    params = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX1, Orientation.VV, 15)
    ens = (
        generate(params, _clean_config(53, fading=AmplitudeFading.RAYLEIGH), 0.0, i)
        for i in range(2000)
    )
    est = estimate_params(ens)
    assert est.ray_decay_hat == pytest.approx(params.ray_decay, rel=0.10)
    assert est.cluster_decay_hat == pytest.approx(params.cluster_decay, rel=0.10)


def test_estimate_invariant_links_count_and_rate():
    params = lookup_params(Scenario.MOVING_CIRCLE, Receiver.RX2, Orientation.VV, 30)
    ens = list(generate(params, _clean_config(54), 0.0, i) for i in range(300))
    est = estimate_params(ens)
    assert est.cluster_rate_hat == pytest.approx((est.n_clusters_hat - 1.0) / 100.0, rel=1e-12)
    assert est.n_realizations == 300


def test_estimate_excludes_los_override_from_decay_fit():
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX2, Orientation.VV, 30)
    cfg = _clean_config(55)
    with_los = [generate(params, cfg, 5.0, i) for i in range(400)]
    est = estimate_params(with_los)
    assert est.cluster_decay_hat == pytest.approx(params.cluster_decay, rel=1e-9)
    assert est.ray_decay_hat == pytest.approx(params.ray_decay, rel=1e-9)


def test_estimate_insufficient_data():
    sparse = ScenarioParams(1.0, 1e-9, 0.2, 1e-9, 1.0)
    ens = [generate(sparse, _clean_config(56), 0.0, i) for i in range(5)]
    with pytest.raises(InsufficientData):
        estimate_params(ens)


def test_estimate_rank_deficient_decay_fit_is_insufficient_data():
    # Both scatter taps sit in cluster 0 (start time 0), so the cluster-time
    # column of the decay design is all zero; the zero-amplitude tap that
    # opens cluster 1 carries no log power.
    r = ChannelRealization(
        np.array([0.0, 5.0, 20.0]),
        np.array([1.0, 0.5, 0.0]),
        np.zeros(3),
        np.array([0, 0, 1]),
        np.array([0, 1, 0]),
    )
    with pytest.raises(InsufficientData, match="underdetermined"):
        estimate_params([r])
    assert "error" in analysis_report([r])["estimates"]


def test_estimate_empty_ensemble():
    with pytest.raises(EmptyInput):
        estimate_params([])


@pytest.mark.parametrize("windows", [(100.0, 50.0), (50.0, 100.0)])
def test_estimate_rejects_mixed_windows(windows):
    # the cluster rate has one window to divide by: 0.02 or 0.01 here,
    # depending on which realization came last
    taps = [(0.0, 1.0), (5.0, 0.5), (20.0, 0.3), (25.0, 0.1)]
    ensemble = [
        ChannelRealization(*map(np.array, zip(*taps)), np.zeros(4), np.array([0, 0, 1, 1]),
                           np.array([0, 1, 0, 1]), window_ns=w)
        for w in windows
    ]
    with pytest.raises(ValueError, match=r"100 ns.*50 ns|50 ns.*100 ns"):
        estimate_params(ensemble)


def test_estimate_is_order_independent():
    params = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX2, Orientation.VV, 15)
    ens = [generate(params, _clean_config(58), 0.0, i) for i in range(200)]
    forward = estimate_params(ens)
    shuffled = list(ens)
    np.random.default_rng(0).shuffle(shuffled)
    backward = estimate_params(shuffled)
    for field in ("n_clusters_hat", "cluster_rate_hat", "cluster_decay_hat", "ray_rate_hat", "ray_decay_hat"):
        a, b = getattr(forward, field), getattr(backward, field)
        assert abs(a - b) / abs(a) < 1e-9


@settings(EQUIVALENCE, max_examples=60)
@given(
    cell=st.sampled_from([params for *_, params in iter_table_cells()]),
    seed=st.integers(0, 2**64),
    n=st.integers(2, 2 * ENSEMBLE_CHUNK + 3),
    mode=st.sampled_from(list(DecayMode)),
    fading=st.sampled_from(list(AmplitudeFading)),
    los=st.sampled_from([0.0, 1e-3]),
    data=st.data(),
)
def test_estimate_is_invariant_to_realization_order(cell, seed, n, mode, fading, los, data):
    config = GeneratorConfig(decay_mode=mode, amplitude_fading=fading, seed=seed)
    members = [generate(cell, config, los, i) for i in range(n)]
    shuffled = [members[k] for k in data.draw(st.permutations(range(n)))]

    def estimate(realizations):
        try:
            return estimate_params(realizations, mode)
        except InsufficientData as exc:
            return str(exc)

    forward, backward = estimate(members), estimate(shuffled)
    if isinstance(forward, str):
        assert backward == forward
        return
    # counts are sums of integers; the float sums run in another order
    exact = ("n_realizations", "n_clusters_hat", "cluster_rate_hat")
    assert [getattr(backward, f) for f in exact] == [getattr(forward, f) for f in exact]
    for field in ("ray_rate_hat", "cluster_decay_hat", "ray_decay_hat"):
        np.testing.assert_allclose(getattr(backward, field), getattr(forward, field), rtol=1e-12)


def test_first_cluster_log_mean_power_slope_recovers_ray_decay():
    # binned log ensemble-mean power of first-cluster rays falls with the
    # configured ray decay even under fading
    params = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX1, Orientation.VV, 15)
    cfg = _clean_config(59, fading=AmplitudeFading.RAYLEIGH)
    offsets, powers = [], []
    for i in range(3000):
        r = generate(params, cfg, 0.0, i)
        mask = r.cluster_indices == 0
        offsets.append(r.delays_ns[mask])
        powers.append(r.amplitudes[mask] ** 2)
    tau = np.concatenate(offsets)
    p = np.concatenate(powers)
    bins = np.arange(0.0, 20.0, 1.0)
    centers, log_means = [], []
    for lo in bins:
        sel = (tau >= lo) & (tau < lo + 1.0)
        if np.count_nonzero(sel) >= 50:
            centers.append(tau[sel].mean())
            log_means.append(np.log(p[sel].mean()))
    slope = np.polyfit(centers, log_means, 1)[0]
    assert -slope == pytest.approx(params.ray_decay, rel=0.10)


# --- report ------------------------------------------------------------------


def test_analysis_report_structure():
    params = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX1, Orientation.VV, 15)
    ens = [generate(params, _clean_config(57), 0.0, i) for i in range(50)]
    report = analysis_report(ens, config_echo={"window_ns": 100.0})
    assert set(report) == {"pdp", "clusters", "significant_mpc_avg", "estimates", "config"}
    assert len(report["pdp"]["power_db"]) == DEFAULT_GRID.n_samples
    assert report["config"]["window_ns"] == 100.0
    assert report["significant_mpc_avg"] >= 1.0
    assert "cluster_rate_per_ns_hat" in report["estimates"]


# --- reference re-estimation --------------------------------------------------


def _reference_estimate_params(containers, decay_mode=DecayMode.RATE):
    """estimate_params with the per-cluster mask loop and the dict-based
    per-tap cluster start that it replaced: each container's members are
    read one by one, then summed in one pass as estimate_params sums them."""
    n_real = 0
    window = None
    cluster_count_sum = 0
    ray_events = 0
    ray_exposure = 0.0
    xtx = np.zeros((3, 3))
    xty = np.zeros(3)

    for container in containers:
        members = [container] if isinstance(container, ChannelRealization) else list(container)
        n_real += len(members)
        window = container.window_ns
        exposures, designs, logps = [np.empty(0)], [np.empty((0, 3))], [np.empty(0)]
        for realization in members:
            ids = np.unique(realization.cluster_indices)
            starts = np.array(
                [realization.delays_ns[realization.cluster_indices == cid].min() for cid in ids]
            )
            n_c = starts.size
            cluster_count_sum += n_c
            ray_events += len(realization) - n_c
            exposures.append(realization.window_ns - starts)

            start_of = dict(zip(ids.tolist(), starts.tolist()))
            t_per_tap = np.array([start_of[c] for c in realization.cluster_indices.tolist()])
            tau = realization.delays_ns - t_per_tap
            amps = realization.amplitudes
            mask = amps > 0
            if realization.has_los:
                mask[:1] = False
            designs.append(
                np.column_stack([np.ones(np.count_nonzero(mask)), t_per_tap[mask], tau[mask]])
            )
            logps.append(2.0 * np.log(amps[mask]))
        ray_exposure += np.sum(np.concatenate(exposures))
        design, logp = np.concatenate(designs), np.concatenate(logps)
        xtx += design.T @ design
        xty += design.T @ logp

    if n_real == 0:
        raise EmptyInput("no realizations")
    cluster_events = cluster_count_sum - n_real
    if cluster_events < 1 or ray_events < 1:
        raise InsufficientData(
            "ensemble carries no inter-arrival information "
            f"(cluster events={cluster_events}, ray events={ray_events})"
        )

    n_clusters_hat = cluster_count_sum / n_real
    cluster_rate_hat = (n_clusters_hat - 1.0) / window
    ray_rate_hat = ray_events / ray_exposure

    if np.linalg.matrix_rank(xtx) < 3:
        raise InsufficientData(
            "decay fit is underdetermined: the scatter taps do not vary in "
            "both cluster start time and ray offset"
        )
    coeffs = np.linalg.solve(xtx, xty)
    slope_t, slope_tau = -coeffs[1], -coeffs[2]
    if decay_mode is DecayMode.RATE:
        cluster_decay_hat, ray_decay_hat = slope_t, slope_tau
    else:
        if slope_t <= 0 or slope_tau <= 0:
            raise InsufficientData("nonpositive decay slope; cannot invert to time constants")
        cluster_decay_hat, ray_decay_hat = 1.0 / slope_t, 1.0 / slope_tau

    return ParamEstimate(
        n_clusters_hat=float(n_clusters_hat),
        cluster_rate_hat=float(cluster_rate_hat),
        cluster_decay_hat=float(cluster_decay_hat),
        ray_rate_hat=float(ray_rate_hat),
        ray_decay_hat=float(ray_decay_hat),
        n_realizations=n_real,
        decay_mode=decay_mode,
    )


def _outcome(estimator, ensemble, mode):
    """The estimate's exact repr, or the error it raised."""
    try:
        return repr(estimator(ensemble, mode))
    except (EmptyInput, InsufficientData, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


@EQUIVALENCE
@given(
    ensemble=st.lists(tap_sets(min_taps=1), max_size=4),
    mode=st.sampled_from(list(DecayMode)),
)
def test_estimate_matches_reference_on_arbitrary_cluster_labels(ensemble, mode):
    assert _outcome(estimate_params, ensemble, mode) == _outcome(
        _reference_estimate_params, ensemble, mode
    )


@pytest.mark.parametrize("fading", list(AmplitudeFading))
@pytest.mark.parametrize("mode", list(DecayMode))
def test_estimate_matches_reference_on_generated_ensembles(fading, mode):
    # the default 48 dB cut drops cluster heads, so later rays carry the start
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 30)
    config = GeneratorConfig(decay_mode=mode, amplitude_fading=fading, seed=60)
    ensemble = [generate(params, config, 1e-3 * (i % 2), i) for i in range(200)]
    assert _outcome(estimate_params, ensemble, mode) == _outcome(
        _reference_estimate_params, ensemble, mode
    )


@EQUIVALENCE
@given(
    distinct=st.lists(tap_sets(min_taps=1), min_size=1, max_size=4),
    copies=st.integers(1, ENSEMBLE_CHUNK),
    packed=st.integers(0, 3),
    mode=st.sampled_from(list(DecayMode)),
)
def test_estimate_over_chunked_ensembles_matches_reference(distinct, copies, packed, mode):
    # runs of equal realizations outgrow a chunk; the first ``packed``
    # realizations arrive already packed into ensembles, one per run of equal
    # direct paths, and the rest one by one
    realizations = [r for r in distinct for _ in range(copies)]
    mixed = []
    for los, run in itertools.groupby(realizations[:packed], key=lambda r: r.los_amplitude):
        run = list(run)
        fields = ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices")
        taps = (np.concatenate([getattr(r, field) for r in run]) for field in fields)
        mixed.append(Ensemble(*taps, np.cumsum([0, *map(len, run)]), los_amplitude=los))
    mixed += realizations[packed:]
    assert _outcome(estimate_params, mixed, mode) == _outcome(
        _reference_estimate_params, mixed, mode
    )
    assert _outcome(estimate_params, iter(realizations), mode) == _outcome(
        _reference_estimate_params, realizations, mode
    )


@pytest.mark.parametrize("fading", list(AmplitudeFading))
@pytest.mark.parametrize("mode", list(DecayMode))
@pytest.mark.parametrize("los", [0.0, 1e-3])
def test_estimate_over_generated_chunks_matches_reference(fading, mode, los):
    # the default 48 dB cut drops cluster heads, so later rays carry the start
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 30)
    config = GeneratorConfig(decay_mode=mode, amplitude_fading=fading, seed=61)
    n = 2 * ENSEMBLE_CHUNK + 7
    chunks = [generate_ensemble(params, config, indices, los) for indices in chunk_ranges(n)]
    reference = [generate(params, config, los, i) for i in range(n)]
    assert _outcome(estimate_params, iter(chunks), mode) == _outcome(
        _reference_estimate_params, chunks, mode
    )
    assert _outcome(estimate_params, reference, mode) == _outcome(
        _reference_estimate_params, reference, mode
    )
    # summed per chunk or per realization, the estimates differ only in rounding
    by_chunk = estimate_params(chunks, mode).as_dict()
    by_realization = estimate_params(reference, mode).as_dict()
    assert by_chunk == pytest.approx(by_realization, rel=1e-12, abs=0)


def test_estimate_counts_empty_members():
    # an empty tap table is a realization with no clusters
    empty = ChannelRealization(np.array([]), np.array([]), np.array([]), np.array([]),
                               np.array([]))
    three_clusters = ChannelRealization(
        np.array([0.0, 5.0, 20.0, 30.0, 60.0, 65.0]), np.array([1.0, 0.6, 0.3, 0.1, 0.05, 0.01]),
        np.zeros(6), np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 0, 1]),
    )
    ensemble = [_taps([(0.0, 1.0), (3.0, 0.5)]), empty, three_clusters] * 2
    outcome = _outcome(estimate_params, ensemble, DecayMode.RATE)
    assert outcome.startswith("ParamEstimate(n_clusters_hat=1.33")
    assert outcome == _outcome(_reference_estimate_params, ensemble, DecayMode.RATE)
