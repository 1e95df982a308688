import csv
import errno
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.stats import kstest

from uwbagsim import generator
from uwbagsim.cli import _cell_seed
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
from uwbagsim.errors import InvalidRate, InvalidValue, MalformedFile, WindowTooSmall
from uwbagsim.generator import (
    AmplitudeFading,
    DecayMode,
    LOS_BACKOFF_DB,
    GeneratorConfig,
    draw_amplitudes,
    draw_cluster_arrivals,
    draw_ray_arrivals,
    generate,
    generate_ensemble,
    mean_amplitude,
    REALIZATION_CSV_HEADER,
    read_realization_csv,
    realization_rng,
    write_realization_csv,
)

from uwbagsim.simulate import LinkScenario, realize, realize_ensemble

from strategies import EQUIVALENCE, FLOATS, INT64S, csv_texts, tap_sets

OPEN_RX1_VV_15 = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VV, 15)
FOLIAGE_RX1_VV_15 = lookup_params(Scenario.HOVERING_FOLIAGE, Receiver.RX1, Orientation.VV, 15)


# --- arrival processes -------------------------------------------------------


def test_cluster_arrivals_basic_shape():
    rng = realization_rng(1)
    t = draw_cluster_arrivals(0.033, 100.0, rng)
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert np.all(t < 100.0)


def test_cluster_arrivals_invalid_rate():
    with pytest.raises(InvalidRate):
        draw_cluster_arrivals(0.0, 100.0, realization_rng(0))
    with pytest.raises(InvalidRate):
        draw_cluster_arrivals(-0.1, 100.0, realization_rng(0))


def test_vanishing_rate_gives_single_pinned_cluster():
    for seed in range(10):
        t = draw_cluster_arrivals(1e-9, 100.0, realization_rng(seed))
        assert t.tolist() == [0.0]


def test_cluster_count_matches_poisson_mean():
    # pinned first arrival plus Poisson(rate * window) extras
    rate, window, n = 0.033, 100.0, 30_000
    counts = [
        draw_cluster_arrivals(rate, window, realization_rng(40, i)).size for i in range(n)
    ]
    expected = 1.0 + rate * window
    # 5 sigma band on the sample mean of a Poisson count
    band = 5.0 * math.sqrt(rate * window / n)
    assert abs(np.mean(counts) - expected) < band


def test_interarrival_sample_mean_large_n():
    # one long scan: the mean gap estimates 1/rate to a fraction of a percent
    rate = 0.02
    t = draw_cluster_arrivals(rate, 1.02e6 / rate, realization_rng(7))
    gaps = np.diff(t)[:1_000_000]
    assert gaps.size == 1_000_000
    assert abs(gaps.mean() - 1 / rate) / (1 / rate) < 0.005


def test_ray_interarrival_sample_mean_large_n():
    rate = 0.25
    tau = draw_ray_arrivals(rate, 0.0, 1.02e6 / rate, realization_rng(8))
    gaps = np.diff(tau)[:1_000_000]
    assert gaps.size == 1_000_000
    assert abs(gaps.mean() - 1 / rate) / (1 / rate) < 0.005


@pytest.mark.parametrize("rate", [0.02, 0.1])
def test_interarrivals_pass_ks_against_exponential(rate):
    t = draw_cluster_arrivals(rate, 10_500 / rate, realization_rng(15))
    gaps = np.diff(t)[:10_000]
    assert kstest(gaps, "expon", args=(0, 1 / rate)).pvalue > 0.01


def test_ray_arrivals_respect_window():
    rng = realization_rng(3)
    tau = draw_ray_arrivals(0.34, 90.0, 100.0, rng)
    assert tau[0] == 0.0
    assert np.all(90.0 + tau < 100.0)


def test_ray_arrivals_no_room_left():
    # 0.1 ns of room at rate 0.34/ns: the pinned ray is almost surely alone
    sizes = [
        draw_ray_arrivals(0.34, 99.9, 100.0, realization_rng(s)).size for s in range(30)
    ]
    assert max(sizes) <= 2
    assert sizes.count(1) >= 27


def test_ray_count_mean_matches_poisson():
    rate, window, n = 0.1, 100.0, 20_000
    counts = [
        draw_ray_arrivals(rate, 0.0, window, realization_rng(41, i)).size for i in range(n)
    ]
    band = 5.0 * math.sqrt(rate * window / n)
    assert abs(np.mean(counts) - (1.0 + rate * window)) < band


def test_ray_arrivals_invalid():
    with pytest.raises(InvalidRate):
        draw_ray_arrivals(0.0, 0.0, 100.0, realization_rng(0))
    with pytest.raises(ValueError):
        draw_ray_arrivals(0.1, 100.0, 100.0, realization_rng(0))


# --- mean power law ----------------------------------------------------------


def tap_mean_power(t, tau, cluster_decay, ray_decay, first_path_power, mode):
    """The mean-square tap gain at (cluster start t, ray offset tau), written
    out from the double-exponential law: the oracle for the generator."""
    t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    if mode is DecayMode.RATE:
        return first_path_power * np.exp(-t * cluster_decay - tau * ray_decay)
    return first_path_power * np.exp(-t / cluster_decay - tau / ray_decay)


def test_first_path_power_in_both_modes():
    for mode in DecayMode:
        assert mean_amplitude(0.0, 0.0, 0.23, 8.7, 1.0, mode) == 1.0
        assert mean_amplitude(0.0, 0.0, 0.23, 8.7, 2.5, mode) == math.sqrt(2.5)


def test_mean_power_rate_reading():
    assert mean_amplitude(10.0, 0.0, 0.23, 8.7, 1.0, DecayMode.RATE) ** 2 == pytest.approx(
        math.exp(-2.3)
    )


def test_mean_power_time_constant_reading():
    amp = mean_amplitude(0.0, 2.0, 0.23, 8.7, 1.0, DecayMode.TIME_CONSTANT)
    assert amp**2 == pytest.approx(math.exp(-2.0 / 8.7))


def test_mean_power_vectorized():
    t = np.array([0.0, 10.0, 20.0])
    out = mean_amplitude(t, np.zeros(3), 0.1, 1.0, 1.0, DecayMode.RATE) ** 2
    assert np.allclose(out, np.exp(-0.1 * t))
    for mode in DecayMode:
        out = mean_amplitude(t, t / 4, 0.1, 1.0, 3.0, mode) ** 2
        assert np.allclose(out, tap_mean_power(t, t / 4, 0.1, 1.0, 3.0, mode))


def test_mean_power_validation():
    with pytest.raises(ValueError):
        mean_amplitude(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mean_amplitude(-1.0, 0.0, 0.1, 1.0)


def test_mean_amplitude_survives_power_underflow():
    # mean power underflows double precision; the amplitude must not
    amp = mean_amplitude(0.0, 90.0, 0.23, 8.7, 1.0, DecayMode.RATE)
    assert amp > 0.0
    assert tap_mean_power(0.0, 90.0, 0.23, 8.7, 1.0, DecayMode.RATE) == 0.0
    assert math.isclose(2.0 * math.log(amp), -8.7 * 90.0, rel_tol=1e-12)


def test_draw_amplitudes_deterministic_is_sqrt():
    p = np.array([1.0, 0.25, 1e-8])
    assert np.allclose(draw_amplitudes(p, AmplitudeFading.DETERMINISTIC), np.sqrt(p))


def test_draw_amplitudes_rayleigh_mean_square():
    rng = realization_rng(9)
    p = 0.5
    draws = draw_amplitudes(np.full(200_000, p), AmplitudeFading.RAYLEIGH, rng)
    assert np.mean(draws**2) == pytest.approx(p, rel=0.01)


def test_rayleigh_ensemble_power_tracks_law_pointwise():
    # fixed arrival lattice, many fading draws: mean square within 5% everywhere
    rng = realization_rng(33)
    t = np.repeat(np.array([0.0, 10.0, 25.0]), 4)
    tau = np.tile(np.array([0.0, 1.0, 2.0, 5.0]), 3)
    predicted = tap_mean_power(t, tau, 0.05, 0.4, 1.0, DecayMode.RATE)
    draws = rng.rayleigh(scale=np.sqrt(predicted / 2.0), size=(30_000, predicted.size))
    observed = np.mean(draws**2, axis=0)
    assert np.all(np.abs(observed - predicted) / predicted < 0.05)


# --- generate ----------------------------------------------------------------


def _config(**kw):
    defaults = dict(seed=7)
    defaults.update(kw)
    return GeneratorConfig(**defaults)


def test_generate_is_deterministic():
    a = generate(OPEN_RX1_VV_15, _config(), 1e-4)
    b = generate(OPEN_RX1_VV_15, _config(), 1e-4)
    for field in ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices"):
        assert_array_equal(getattr(a, field), getattr(b, field))


def test_generate_streams_differ_by_index():
    a = generate(FOLIAGE_RX1_VV_15, _config(), 0.0, realization_index=0)
    b = generate(FOLIAGE_RX1_VV_15, _config(), 0.0, realization_index=1)
    assert a.delays_ns.shape != b.delays_ns.shape or not np.allclose(a.delays_ns, b.delays_ns)


def test_generate_first_tap_is_origin():
    for seed in range(20):
        r = generate(FOLIAGE_RX1_VV_15, _config(seed=seed), 0.0)
        assert r.delays_ns[0] == 0.0
        assert r.cluster_indices[0] == 0
        assert r.ray_indices[0] == 0


def test_generate_delays_strictly_increasing():
    for seed in range(20):
        r = generate(FOLIAGE_RX1_VV_15, _config(seed=seed, dynamic_range_db=math.inf), 0.0)
        assert np.all(np.diff(r.delays_ns) > 0)


def test_generate_cluster_starts_ordered():
    for seed in range(10):
        r = generate(FOLIAGE_RX1_VV_15, _config(seed=seed, dynamic_range_db=math.inf), 0.0)
        starts = r.cluster_starts()
        assert np.all(np.diff(starts) > 0)


def test_generate_los_override():
    r = generate(OPEN_RX1_VV_15, _config(), los_amplitude=0.5)
    assert r.has_los
    assert r.amplitudes[0] == 0.5
    nolos = generate(OPEN_RX1_VV_15, _config(), los_amplitude=0.0)
    assert not nolos.has_los


def test_generate_scatter_level_follows_backoff():
    r = generate(OPEN_RX1_VV_15, _config(), los_amplitude=1.0)
    # delay-0 tap is the direct path; the strongest scatter tap is the first
    # ray of the first cluster at 10^(-20/20) of it in amplitude
    assert LOS_BACKOFF_DB == 20.0
    if len(r) > 1:
        assert r.amplitudes[1] <= 0.1 + 1e-12


def test_generate_respects_dynamic_range():
    for seed in range(10):
        r = generate(OPEN_RX1_VV_15, _config(seed=seed), 2.0e-4)
        floor = r.amplitudes.max() * 10 ** (-48.0 / 20.0)
        assert np.all(r.amplitudes >= floor)


def test_dynamic_range_off_keeps_more_taps():
    kept = generate(OPEN_RX1_VV_15, _config(seed=5), 0.0)
    full = generate(OPEN_RX1_VV_15, _config(seed=5, dynamic_range_db=math.inf), 0.0)
    assert len(full) > len(kept)
    floor = full.amplitudes.max() * 10 ** (-48.0 / 20.0)
    assert np.any(full.amplitudes < floor)


def test_generate_phases_in_range():
    r = generate(FOLIAGE_RX1_VV_15, _config(seed=2, dynamic_range_db=math.inf), 0.0)
    assert np.all((r.phases_rad >= 0.0) & (r.phases_rad < 2 * np.pi))


def test_generate_rejects_tiny_window():
    with pytest.raises(WindowTooSmall):
        generate(OPEN_RX1_VV_15, _config(window_ns=0.5), 0.0)


def test_generate_rejects_bad_rate():
    from uwbagsim.core import ScenarioParams

    bad = ScenarioParams(1.0, -0.01, 0.2, 0.1, 1.0)
    with pytest.raises(InvalidRate):
        generate(bad, _config(), 0.0)


def test_generate_mean_cluster_count_oracle():
    # expected structural count is 1 + rate * window (pinned first cluster)
    n = 10_000
    counts = [
        np.unique(
            generate(OPEN_RX1_VV_15, _config(seed=77, dynamic_range_db=math.inf), 0.0, i)
            .cluster_indices
        ).size
        for i in range(n)
    ]
    expected = 1.0 + OPEN_RX1_VV_15.cluster_rate * 100.0
    assert abs(np.mean(counts) - expected) / expected < 0.15
    assert abs(np.mean(counts) - expected) < 5.0 * math.sqrt(expected / n)


def test_obstructed_channel_has_no_dominant_tap():
    # median dominance of the strongest tap over the runner-up stays under 20 dB
    dominance = []
    for i in range(1000):
        r = generate(FOLIAGE_RX1_VV_15, _config(seed=13), 0.0, i)
        p = np.sort(r.amplitudes**2)[::-1]
        dominance.append(10 * np.log10(p[0] / p[1]) if p.size > 1 else np.inf)
    assert np.median(dominance) < 20.0


def test_rayleigh_generation_runs_and_varies():
    cfg = _config(seed=4, amplitude_fading=AmplitudeFading.RAYLEIGH, dynamic_range_db=math.inf)
    a = generate(FOLIAGE_RX1_VV_15, cfg, 0.0, 0)
    b = generate(FOLIAGE_RX1_VV_15, cfg, 0.0, 1)
    det = generate(
        FOLIAGE_RX1_VV_15,
        _config(seed=4, dynamic_range_db=math.inf),
        0.0,
        0,
    )
    assert not np.allclose(a.amplitudes[: min(len(a), len(det))], det.amplitudes[: min(len(a), len(det))])
    assert len(a) and len(b)


def test_binned_random_structure_power_matches_law():
    # deterministic amplitudes over a random ensemble: per-bin mean observed
    # power equals the law evaluated at the taps' own coordinates
    params = FOLIAGE_RX1_VV_15
    cfg = _config(seed=21, dynamic_range_db=math.inf)
    observed = {}
    predicted = {}
    for i in range(2000):
        r = generate(params, cfg, 0.0, i)
        ids = np.unique(r.cluster_indices)
        starts = r.cluster_starts()
        start_of = dict(zip(ids.tolist(), starts.tolist()))
        t = np.array([start_of[c] for c in r.cluster_indices.tolist()])
        tau = r.delays_ns - t
        pred = tap_mean_power(t, tau, params.cluster_decay, params.ray_decay, 1.0, DecayMode.RATE)
        keys = (np.floor(t / 10.0).astype(int) * 100 + np.floor(tau / 2.0).astype(int)).tolist()
        for key, obs_p, pred_p in zip(keys, (r.amplitudes**2).tolist(), pred.tolist()):
            observed.setdefault(key, []).append(obs_p)
            predicted.setdefault(key, []).append(pred_p)
    checked = 0
    for key, values in observed.items():
        if len(values) < 50:
            continue
        checked += 1
        assert np.mean(values) == pytest.approx(np.mean(predicted[key]), rel=0.05)
    assert checked >= 10


# --- serialization -----------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    r = generate(FOLIAGE_RX1_VV_15, _config(seed=11, dynamic_range_db=math.inf), 0.0)
    path = tmp_path / "taps.csv"
    write_realization_csv(r, path)
    back = read_realization_csv(path, window_ns=r.window_ns)
    assert_array_equal(back.delays_ns, r.delays_ns)
    assert_array_equal(back.amplitudes, r.amplitudes)
    assert_array_equal(back.phases_rad, r.phases_rad)
    assert_array_equal(back.cluster_indices, r.cluster_indices)
    assert_array_equal(back.ray_indices, r.ray_indices)


_EXTREMES = [-0.0, 5e-324, sys.float_info.max]


@EQUIVALENCE
@given(
    taps=tap_sets(min_taps=0),
    window_ns=st.one_of(st.floats(100.0, 1e6), st.just(sys.float_info.max)),
    data=st.data(),
)
def test_csv_round_trip_bit_exact_on_tap_sets(taps, window_ns, data, tmp_path_factory):
    # extremes spliced into the float columns; a delay stays below the
    # window, so its largest is the last double before it
    delay_extremes = [*_EXTREMES[:2], math.nextafter(window_ns, 0.0)]
    columns = []
    for column, extremes in [(taps.delays_ns, delay_extremes), (taps.amplitudes, _EXTREMES),
                             (taps.phases_rad, _EXTREMES)]:
        picks = data.draw(st.lists(st.sampled_from([None, *extremes]),
                                   min_size=len(taps), max_size=len(taps)))
        columns.append(np.array([v if p is None else p for v, p in zip(column, picks)], float))
    columns[0].sort()
    r = ChannelRealization(*columns, taps.cluster_indices, taps.ray_indices, window_ns=window_ns)
    path = tmp_path_factory.getbasetemp() / "tap_set.csv"
    write_realization_csv(r, path)
    back = read_realization_csv(path, window_ns=window_ns)
    assert back.window_ns == window_ns
    for field in ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices"):
        want, got = getattr(r, field), getattr(back, field)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _reference_realization_csv(realization):
    """The original one-f-string-per-row writer: the byte format contract."""
    lines = ["delay_ns,amplitude,phase_rad,cluster_index,ray_index"]
    for d, a, p, c, r in zip(
        realization.delays_ns,
        realization.amplitudes,
        realization.phases_rad,
        realization.cluster_indices,
        realization.ray_indices,
    ):
        lines.append(f"{d:.17g},{a:.17g},{p:.17g},{c:d},{r:d}")
    return ("\n".join(lines) + "\n").encode()


def test_csv_bytes_match_reference_writer(tmp_path):
    with_los = generate(OPEN_RX1_VV_15, _config(seed=23), 1.6e-4)
    many = generate(FOLIAGE_RX1_VV_15, _config(seed=29, dynamic_range_db=math.inf), 0.0)
    assert with_los.has_los
    assert len(many) > 20
    for k, r in enumerate([with_los, many]):
        path = tmp_path / f"taps_{k}.csv"
        write_realization_csv(r, path)
        assert path.read_bytes() == _reference_realization_csv(r)


@EQUIVALENCE
@given(members=st.lists(tap_sets(min_taps=0), min_size=1, max_size=5))
def test_realization_csv_texts_of_an_ensemble_are_its_members_files(members, tmp_path_factory):
    # generate formats a batch's tables in one % call over all its taps
    fields = ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices")
    ens = Ensemble(*(np.concatenate([getattr(r, f) for r in members]) for f in fields),
                   np.cumsum([0, *map(len, members)]))
    texts = generator._realization_csv_texts(ens)
    assert len(texts) == len(members)
    path = tmp_path_factory.getbasetemp() / "member.csv"
    for k, text in enumerate(texts):
        write_realization_csv(ens[k], path)
        assert text.encode() == path.read_bytes() == _reference_realization_csv(members[k])


def test_csv_writer_rejects_an_ensemble(tmp_path):
    # two one-tap members once passed as one two-tap table
    ens = generate_ensemble(OPEN_RX1_VV_15, _config(seed=1), range(2), 1e-3)
    assert len(ens) == ens.delays_ns.size == 2
    with pytest.raises(InvalidValue, match=r"one member, ens\[k\]"):
        write_realization_csv(ens, tmp_path / "ens.csv")
    assert not list(tmp_path.iterdir())


def test_realization_csv_texts_of_a_generated_batch(tmp_path):
    config = _config(seed=31, amplitude_fading=AmplitudeFading.RAYLEIGH)
    ens = generate_ensemble(OPEN_RX1_VV_15, config, range(5, 5 + ENSEMBLE_CHUNK), 1.6e-4)
    for k, text in enumerate(generator._realization_csv_texts(ens)):
        assert text.encode() == _reference_realization_csv(ens[k])


# --- atomic writes -------------------------------------------------------------


def test_write_behind_finishes_what_it_took_and_leaves_a_stale_file(tmp_path):
    paths = [tmp_path / f"f{i}.csv" for i in range(6)]
    stale = tmp_path / f"f1.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"stale")
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="stop"):
        with generator._WriteBehind():
            for path in paths[:3]:
                generator._atomic_write_text(path, path.name)
            raise RuntimeError("stop")
    assert threading.active_count() == baseline
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([p.name for p in paths[:3]] + [stale.name])
    assert stale.read_bytes() == b"stale"
    assert [p.read_text() for p in paths[:3]] == [p.name for p in paths[:3]]


def test_write_behind_takes_only_its_own_threads_writes_in_its_block(tmp_path):
    # any path in any order, byte blocks joined; another thread's write, or one after the block,
    # is synchronous: its file is there when the call returns
    paths = [tmp_path / f"f{i}.csv" for i in range(5)]
    with generator._WriteBehind():
        generator._atomic_write_text(paths[2], "two")
        generator._atomic_write_text(tmp_path / "other.csv", [b"x", b"", b"xx"])
        generator._atomic_write_text(paths[0], "zero")
        other = threading.Thread(target=generator._atomic_write_text, args=(paths[4], "four"))
        other.start()
        other.join()
        assert paths[4].read_bytes() == b"four"
    generator._atomic_write_text(paths[3], [b"x", b"", b"xx"])
    assert paths[3].read_bytes() == b"xxx"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["f0.csv", "f2.csv", "f3.csv", "f4.csv", "other.csv"]
    assert (tmp_path / "other.csv").read_bytes() == b"xxx"
    assert (paths[0].read_bytes(), paths[2].read_bytes()) == (b"zero", b"two")


def test_write_behind_threads_write_their_own_files(tmp_path):
    # three writers, each with its own helper, in one directory under fast thread switches
    def write(t):
        paths = [tmp_path / f"t{t}_{i:03d}.txt" for i in range(150)]
        with generator._WriteBehind():
            for i, path in enumerate(paths):
                generator._atomic_write_text(path, f"{t}:{i}\n")

    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=write, args=(t,)) for t in range(3)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(writer.is_alive() for writer in writers)
    assert threading.active_count() == baseline
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"t{t}_{i:03d}.txt" for t in range(3) for i in range(150))
    for t in range(3):
        for i in range(150):
            assert (tmp_path / f"t{t}_{i:03d}.txt").read_text() == f"{t}:{i}\n"


@pytest.mark.parametrize("n_files", [3, 50])
def test_write_behind_raises_its_first_failed_write_and_writes_nothing_after(
        tmp_path, monkeypatch, n_files):
    # the 3rd rename fails: with 3 files the error is raised on exit, with 50 at a later write
    paths = [tmp_path / f"f{i:02d}.csv" for i in range(n_files)]
    replace, replaced, handed = os.replace, [], []

    def third_replace_fails(src, dst):
        replaced.append(dst)
        if len(replaced) == 3:
            raise OSError(errno.EIO, "injected failure", str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", third_replace_fails)
    baseline = threading.active_count()
    with pytest.raises(OSError, match="injected failure") as err:
        with generator._WriteBehind():
            for path in paths:
                generator._atomic_write_text(path, path.name)
                handed.append(path)
    assert err.value.filename == str(paths[2])
    assert threading.active_count() == baseline
    assert replaced == [str(p) for p in paths[:3]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f00.csv", "f01.csv"]
    if n_files == 3:
        assert len(handed) == 3
    else:  # past the failure, the caller gets no further than the queue's depth and one write
        assert 3 <= len(handed) <= 3 + generator._WRITE_BEHIND_DEPTH + 1


def test_csv_header_contract(tmp_path):
    r = generate(FOLIAGE_RX1_VV_15, _config(seed=11), 0.0)
    path = tmp_path / "taps.csv"
    write_realization_csv(r, path)
    first = path.read_text().splitlines()[0]
    assert first == "delay_ns,amplitude,phase_rad,cluster_index,ray_index"


def test_csv_truncated_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay_ns,amplitude,phase_rad,cluster_index,ray_index\n0.0,1.0,0.0,0,0\n5.0,0.5\n")
    with pytest.raises(MalformedFile) as err:
        read_realization_csv(path)
    assert err.value.line == 3
    assert "bad.csv" in str(err.value)


def test_csv_bad_number_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay_ns,amplitude,phase_rad,cluster_index,ray_index\nzero,1.0,0.0,0,0\n")
    with pytest.raises(MalformedFile) as err:
        read_realization_csv(path)
    assert err.value.line == 2


def test_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MalformedFile) as err:
        read_realization_csv(path)
    assert err.value.line == 1


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MalformedFile):
        read_realization_csv(path)


@pytest.mark.parametrize("window", [math.nan, 0.0, -1.0, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_csv_reader_blames_the_window_argument_not_the_file(window, tmp_path):
    # the window is an argument: it is checked before the file is opened, so a
    # bad window is an InvalidValue even for a file that does not exist
    with pytest.raises(InvalidValue, match="scan window"):
        read_realization_csv(tmp_path / "absent.csv", window)
    path = tmp_path / "one.csv"
    write_realization_csv(ChannelRealization([0.0], [1.0], [0.0], [0], [0]), path)
    with pytest.raises(InvalidValue, match="scan window"):
        read_realization_csv(path, window)


def _reference_read_realization_csv(path, window_ns=100.0):
    """The original csv.reader loop: the reference the shared column parser must match."""
    path = Path(path)
    delays, amps, phases, clusters, rays = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedFile(str(path), 1, "empty file") from None
        if [h.strip() for h in header] != REALIZATION_CSV_HEADER.split(","):
            raise MalformedFile(str(path), 1, f"expected header '{REALIZATION_CSV_HEADER}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise MalformedFile(str(path), lineno, f"expected 5 fields, got {len(row)}")
            try:
                delays.append(float(row[0]))
                amps.append(float(row[1]))
                phases.append(float(row[2]))
                clusters.append(int(row[3]))
                rays.append(int(row[4]))
            except ValueError as exc:
                raise MalformedFile(str(path), lineno, str(exc)) from None
    try:
        return ChannelRealization(
            np.array(delays),
            np.array(amps),
            np.array(phases),
            np.array(clusters, dtype=int),
            np.array(rays, dtype=int),
            window_ns=window_ns,
        )
    except ValueError as exc:
        raise MalformedFile(str(path), 0, str(exc)) from None


def _read_or_error(read, path):
    try:
        return read(path)
    except MalformedFile as exc:
        return exc


TAP_ROWS = st.one_of(
    st.lists(st.tuples(FLOATS, FLOATS, FLOATS, INT64S, INT64S), max_size=8),
    # delays sorted inside the window and finite values, so most such files load
    st.lists(
        st.tuples(st.floats(0, 99), st.floats(-2, 2), st.floats(-7, 7), INT64S, INT64S),
        max_size=8,
    ).map(sorted),
)


@EQUIVALENCE
@given(text=csv_texts(REALIZATION_CSV_HEADER, TAP_ROWS))
def test_csv_reader_matches_reference_reader(text, tmp_path_factory):
    # whitespace-only lines, quoted fields, undecodable text and indices past
    # int64 are left out: there the two readers differ by design
    path = tmp_path_factory.getbasetemp() / "taps.csv"
    path.write_bytes(text.encode())
    got = _read_or_error(read_realization_csv, path)
    want = _read_or_error(_reference_read_realization_csv, path)
    if isinstance(want, MalformedFile):
        assert isinstance(got, MalformedFile)
        assert (got.line, got.reason) == (want.line, want.reason)
        return
    for field in ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_rng_streams_are_order_independent():
    a = [realization_rng(5, i).uniform() for i in (0, 1, 2)]
    b = [realization_rng(5, i).uniform() for i in (2, 0, 1)]
    assert a[0] == b[1] and a[1] == b[2] and a[2] == b[0]


# --- input validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(window_ns=math.nan),
        dict(window_ns=math.inf),
        dict(dynamic_range_db=math.nan),
        dict(first_path_power=math.nan),
        dict(first_path_power=math.inf),
    ],
)
def test_config_rejects_nan_and_infinite_fields(kwargs):
    with pytest.raises(ValueError):
        _config(**kwargs)


@pytest.mark.parametrize("los", [math.nan, math.inf])
def test_generate_rejects_non_finite_los_amplitude(los):
    with pytest.raises(ValueError):
        generate(OPEN_RX1_VV_15, _config(), los_amplitude=los)


# --- reference generation --------------------------------------------------------
# generate and draw_amplitudes before they shared one fading law and built
# the tap bookkeeping from cluster sizes; kept as references.


def _reference_generate(params, config, los_amplitude=0.0, realization_index=0):
    rng = realization_rng(config.seed, realization_index)

    cluster_starts = draw_cluster_arrivals(params.cluster_rate, config.window_ns, rng)
    starts_per_tap = []
    offsets = []
    cluster_idx = []
    ray_idx = []
    for l, t_l in enumerate(cluster_starts):
        offs = draw_ray_arrivals(params.ray_rate, float(t_l), config.window_ns, rng)
        starts_per_tap.append(np.full(offs.size, t_l))
        offsets.append(offs)
        cluster_idx.append(np.full(offs.size, l, dtype=int))
        ray_idx.append(np.arange(offs.size, dtype=int))

    t = np.concatenate(starts_per_tap)
    tau = np.concatenate(offsets)
    clusters = np.concatenate(cluster_idx)
    rays = np.concatenate(ray_idx)

    first_path_power = config.first_path_power
    if first_path_power is None:
        if los_amplitude > 0:
            first_path_power = los_amplitude**2 * 10.0 ** (-LOS_BACKOFF_DB / 10.0)
        else:
            first_path_power = 1.0

    amp_mean = mean_amplitude(
        t, tau, params.cluster_decay, params.ray_decay, first_path_power, config.decay_mode
    )
    if config.amplitude_fading is AmplitudeFading.DETERMINISTIC:
        amplitudes = amp_mean
    else:
        amplitudes = rng.rayleigh(scale=amp_mean / math.sqrt(2.0))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=t.size)

    delays = t + tau
    order = np.argsort(delays, kind="stable")
    delays = delays[order]
    amplitudes = np.asarray(amplitudes)[order]
    phases = phases[order]
    clusters = clusters[order]
    rays = rays[order]

    if los_amplitude > 0:
        amplitudes = amplitudes.copy()
        amplitudes[0] = los_amplitude

    if math.isfinite(config.dynamic_range_db):
        floor = amplitudes.max() * 10.0 ** (-config.dynamic_range_db / 20.0)
        keep = amplitudes >= floor
        keep[0] = True
        delays = delays[keep]
        amplitudes = amplitudes[keep]
        phases = phases[keep]
        clusters = clusters[keep]
        rays = rays[keep]

    return delays, amplitudes, phases, clusters, rays


def _reference_draw_amplitudes(mean_power, fading, rng=None):
    p = np.asarray(mean_power, dtype=float)
    if fading is AmplitudeFading.DETERMINISTIC:
        return np.sqrt(p)
    return rng.rayleigh(scale=np.sqrt(p / 2.0))


TAP_FIELDS = ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices")


@EQUIVALENCE
@given(
    cell=st.sampled_from([params for *_, params in iter_table_cells()]),
    mode=st.sampled_from(DecayMode),
    fading=st.sampled_from(AmplitudeFading),
    dynamic_range_db=st.one_of(
        st.sampled_from([48.0, 10.0, 1.0, math.inf]), st.floats(0.5, 80.0)
    ),
    window_ns=st.one_of(st.just(100.0), st.floats(1.0, 300.0)),
    los_amplitude=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
    first_path_power=st.one_of(st.none(), st.floats(1e-12, 1.0)),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 10**6),
)
def test_generate_matches_reference_bytes(
    cell, mode, fading, dynamic_range_db, window_ns, los_amplitude, first_path_power, seed,
    index,
):
    config = GeneratorConfig(
        window_ns=window_ns,
        decay_mode=mode,
        amplitude_fading=fading,
        dynamic_range_db=dynamic_range_db,
        seed=seed,
        first_path_power=first_path_power,
    )
    got = generate(cell, config, los_amplitude, index)
    want = _reference_generate(cell, config, los_amplitude, index)
    for field, expected in zip(TAP_FIELDS, want):
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert actual.tobytes() == expected.tobytes(), field


@EQUIVALENCE
@given(
    # normal floats only, so the reference's p / 2 is exact
    powers=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=50),
    seed=st.integers(0, 2**64 - 1),
)
def test_draw_amplitudes_matches_reference(powers, seed):
    p = np.array(powers)
    deterministic = draw_amplitudes(p, AmplitudeFading.DETERMINISTIC)
    assert deterministic.tobytes() == _reference_draw_amplitudes(
        p, AmplitudeFading.DETERMINISTIC
    ).tobytes()
    # The Rayleigh scale is now sqrt(p) / sqrt(2) where the reference has
    # sqrt(p / 2): the two scales are each within a few roundings of the
    # exact value, so the draws agree to a relative 3 eps.
    rayleigh = draw_amplitudes(p, AmplitudeFading.RAYLEIGH, realization_rng(seed))
    reference = _reference_draw_amplitudes(p, AmplitudeFading.RAYLEIGH, realization_rng(seed))
    np.testing.assert_allclose(rayleigh, reference, rtol=3 * np.finfo(float).eps, atol=0)


# --- the batched ensemble engine --------------------------------------------------


def _assert_taps_equal(got, want):
    """``got`` has the five tap arrays of ``want`` (a realization or a
    reference tuple), byte for byte and dtype for dtype."""
    if isinstance(want, ChannelRealization):
        want = tuple(getattr(want, field) for field in TAP_FIELDS)
    for field, expected in zip(TAP_FIELDS, want):
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert actual.tobytes() == expected.tobytes(), field


@EQUIVALENCE
@given(
    cell=st.sampled_from([params for *_, params in iter_table_cells()]),
    mode=st.sampled_from(DecayMode),
    fading=st.sampled_from(AmplitudeFading),
    dynamic_range_db=st.one_of(
        st.sampled_from([48.0, 10.0, 1.0, math.inf]), st.floats(0.5, 80.0)
    ),
    window_ns=st.one_of(st.just(100.0), st.floats(1.0, 300.0)),
    los_amplitude=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
    first_path_power=st.one_of(st.none(), st.floats(1e-12, 1.0)),
    seed=st.integers(0, 2**64 - 1),
    # ranges up to two chunks long, starting anywhere relative to a chunk edge
    start=st.integers(0, 10**6),
    length=st.integers(1, 2 * ENSEMBLE_CHUNK + 3),
)
def test_generate_ensemble_matches_reference_bytes(
    cell, mode, fading, dynamic_range_db, window_ns, los_amplitude, first_path_power, seed,
    start, length,
):
    config = GeneratorConfig(
        window_ns=window_ns,
        decay_mode=mode,
        amplitude_fading=fading,
        dynamic_range_db=dynamic_range_db,
        seed=seed,
        first_path_power=first_path_power,
    )
    ens = generate_ensemble(cell, config, range(start, start + length), los_amplitude)
    assert len(ens) == length
    for k, realization in enumerate(ens):
        _assert_taps_equal(realization, _reference_generate(cell, config, los_amplitude, start + k))
        assert realization.los_amplitude == los_amplitude


def _spy(monkeypatch, name):
    """Record the calls of a generator function by the engine."""
    calls = []
    original = getattr(generator, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(generator, name, spy)
    return calls


@pytest.mark.parametrize("mode", list(DecayMode))
def test_ensemble_fallback_when_a_ray_block_falls_short(monkeypatch, mode):
    # roundtrip --all --seed 42, cell 5: realization 52's first block of ray
    # gaps for its cluster at 41.6 ns ends before the window
    params = lookup_params(Scenario.HOVERING_OPEN, Receiver.RX1, Orientation.VH, 30)
    config = GeneratorConfig(decay_mode=mode, dynamic_range_db=math.inf, seed=_cell_seed(42, 5))
    calls = _spy(monkeypatch, "draw_cluster_arrivals")
    ens = generate_ensemble(params, config, range(0, ENSEMBLE_CHUNK))
    assert len(calls) == 1
    for k in range(len(ens)):
        _assert_taps_equal(ens[k], _reference_generate(params, config, 0.0, k))


@pytest.mark.parametrize("fading", list(AmplitudeFading))
def test_ensemble_fallback_when_the_cluster_block_falls_short(monkeypatch, fading):
    # 15 clusters per 100 ns on average: at seed 3, realization 6077's first
    # block of cluster gaps sums to 90.3 ns
    params = ScenarioParams(15.0, 0.15, 0.2, 0.1, 2.0)
    config = GeneratorConfig(amplitude_fading=fading, seed=3)
    calls = _spy(monkeypatch, "draw_cluster_arrivals")
    ens = generate_ensemble(params, config, range(6070, 6080), los_amplitude=1e-3)
    assert len(calls) == 1
    for k in range(len(ens)):
        _assert_taps_equal(ens[k], _reference_generate(params, config, 1e-3, 6070 + k))


def test_generate_is_the_one_realization_ensemble():
    config = _config(seed=12, amplitude_fading=AmplitudeFading.RAYLEIGH)
    ens = generate_ensemble(OPEN_RX1_VV_15, config, range(5, 8), 2e-3)
    for k in range(3):
        _assert_taps_equal(ens[k], generate(OPEN_RX1_VV_15, config, 2e-3, 5 + k))


def test_ensemble_rejects_what_generate_rejects():
    with pytest.raises(WindowTooSmall):
        generate_ensemble(OPEN_RX1_VV_15, _config(window_ns=0.5), range(3))
    with pytest.raises(InvalidRate):
        generate_ensemble(ScenarioParams(1.0, 0.01, 0.2, -0.1, 1.0), _config(), range(3))
    with pytest.raises(ValueError):
        generate_ensemble(OPEN_RX1_VV_15, _config(), range(3), los_amplitude=-1.0)
    with pytest.raises(ValueError, match="at least one"):
        generate_ensemble(OPEN_RX1_VV_15, _config(), range(4, 4))


def test_chunk_ranges_cover_in_order():
    assert list(chunk_ranges(0)) == []
    assert list(chunk_ranges(ENSEMBLE_CHUNK)) == [range(ENSEMBLE_CHUNK)]
    cut = list(chunk_ranges(2 * ENSEMBLE_CHUNK + 1))
    assert [r.start for r in cut] == [0, ENSEMBLE_CHUNK, 2 * ENSEMBLE_CHUNK]
    assert [i for r in cut for i in r] == list(range(2 * ENSEMBLE_CHUNK + 1))


@pytest.mark.parametrize("scenario", [Scenario.HOVERING_OPEN, Scenario.HOVERING_FOLIAGE])
def test_realize_ensemble_members_equal_realize(scenario):
    link = LinkScenario.from_tables(scenario, LinkConfig(Receiver.RX2, Orientation.VH, 15.0, 10.0))
    config = GeneratorConfig(seed=21, amplitude_fading=AmplitudeFading.RAYLEIGH)
    members = list(realize_ensemble(link, config, ENSEMBLE_CHUNK + 6))
    assert len(members) == ENSEMBLE_CHUNK + 6
    for i, member in enumerate(members):
        single = realize(link, config, i)
        _assert_taps_equal(member, single)
        assert member.los_amplitude == single.los_amplitude


# --- Ensemble ---------------------------------------------------------------------


def _two_member_ensemble(**kwargs):
    # member 0 ends at 50 ns and member 1 starts over at 0 ns
    return Ensemble(
        np.array([0.0, 50.0, 0.0, 10.0, 30.0]),
        np.array([1.0, 0.5, 2.0, 0.3, 0.1]),
        np.zeros(5),
        np.array([0, 1, 0, 0, 1]),
        np.array([0, 0, 0, 1, 0]),
        np.array([0, 2, 5]),
        **kwargs,
    )


def test_ensemble_members_are_slices():
    ens = _two_member_ensemble(los_amplitude=2.0)
    assert len(ens) == 2
    assert ens[1].delays_ns.tolist() == [0.0, 10.0, 30.0]
    assert ens[-1].delays_ns.tolist() == [0.0, 10.0, 30.0]
    assert ens[-2].amplitudes.tolist() == [1.0, 0.5]
    assert ens[0].has_los and ens[0].window_ns == 100.0
    assert [len(r) for r in ens] == [2, 3]
    assert [r.offsets.tolist() for r in ens] == [[0, 2], [0, 3]]
    for k in (2, -3):
        with pytest.raises(IndexError):
            ens[k]


def test_ensemble_cluster_starts_follow_the_realization_rule():
    ens = _two_member_ensemble()
    starts, counts, per_tap = ens.cluster_starts()
    assert counts.tolist() == [2, 2]
    assert starts.tolist() == [*ens[0].cluster_starts(), *ens[1].cluster_starts()]
    assert per_tap.tolist() == [0.0, 50.0, 0.0, 0.0, 30.0]


@pytest.mark.parametrize(
    "change",
    [
        dict(offsets=np.array([0, 2, 4])),     # does not end at the tap count
        dict(offsets=np.array([0, 3, 2, 5])),  # falls
        dict(delays=np.array([0.0, 50.0, 10.0, 0.0, 30.0])),  # unsorted inside member 1
        dict(delays=np.array([0.0, 50.0, 0.0, 10.0, 100.0])),  # outside the window
        dict(delays=np.array([0.0, 50.0, -1.0, 10.0, 30.0])),
        dict(delays=np.array([0.0, 50.0, math.nan, 10.0, 30.0])),
        dict(amplitudes=np.array([1.0, 0.5, math.inf, 0.3, 0.1])),
    ],
)
def test_ensemble_rejects_broken_members(change):
    delays = change.get("delays", np.array([0.0, 50.0, 0.0, 10.0, 30.0]))
    amplitudes = change.get("amplitudes", np.ones(5))
    offsets = change.get("offsets", np.array([0, 2, 5]))
    with pytest.raises(ValueError):
        Ensemble(delays, amplitudes, np.zeros(5), np.zeros(5, int), np.zeros(5, int), offsets)
