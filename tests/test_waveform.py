import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import hilbert

from uwbagsim import waveform
from uwbagsim.core import (
    ChannelRealization, Ensemble, LinkConfig, Orientation, Receiver, Scenario,
)
from uwbagsim.errors import InvalidValue
from uwbagsim.generator import AmplitudeFading, GeneratorConfig, realization_rng
from uwbagsim.simulate import LinkScenario, realize_batch
from uwbagsim.waveform import (
    DEFAULT_GRID,
    SamplingGrid,
    _envelope_and_carrier,
    read_waveform_csv,
    render,
    template_pulse,
    write_waveform_csv,
)

from strategies import EQUIVALENCE, FLOATS

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


def test_grid_constants():
    assert DEFAULT_GRID.sample_step_ps == pytest.approx(61.0336)
    assert DEFAULT_GRID.n_samples == 1638
    n, step = DEFAULT_GRID.n_samples, DEFAULT_GRID.sample_step_ps
    assert n * step <= DEFAULT_GRID.window_ns * 1000.0 < (n + 1) * step


def test_template_unit_peak_and_symmetry():
    s = template_pulse()
    assert len(s) % 2 == 1
    center = len(s) // 2
    assert s[center] == 1.0
    assert np.max(np.abs(s)) == 1.0
    assert np.allclose(s, s[::-1], atol=1e-12)


def test_template_envelope_width_is_pulse_duration():
    tpl = template_pulse()
    env = np.abs(hilbert(tpl))
    level = 0.1 * env.max()
    above = np.nonzero(env >= level)[0]

    def crossing(i0, i1):
        return i0 + (level - env[i0]) / (env[i1] - env[i0]) * (i1 - i0)

    lo = crossing(above[0] - 1, above[0])
    hi = crossing(above[-1], above[-1] + 1)
    width_ns = (hi - lo) * STEP_NS
    assert abs(width_ns - 1.0) <= STEP_NS


def test_template_spectrum_band():
    # frozen from the DFT of the shipped pulse: peak on the carrier, -10 dB
    # band [3.264, 5.336] GHz, mostly overlapping the radio's 3.1-4.8 GHz
    tpl = template_pulse()
    nfft = 65536
    spec = np.abs(np.fft.rfft(tpl, nfft))
    freqs = np.fft.rfftfreq(nfft, d=STEP_NS * 1e-9)
    assert freqs[np.argmax(spec)] == pytest.approx(4.3e9, rel=1e-3)
    band = freqs[spec >= spec.max() * 10 ** (-0.5)]
    assert band[0] == pytest.approx(3.2636e9, rel=1e-3)
    assert band[-1] == pytest.approx(5.3364e9, rel=1e-3)
    overlap = min(band[-1], 4.8e9) - max(band[0], 3.1e9)
    assert overlap / (band[-1] - band[0]) > 0.7


def _render_per_tap(realization, snr_db=None, noise_seed=0):
    """render as earlier versions wrote it: one realization, tap by tap, clipped to the scan."""
    env, cos_c, sin_c, half = _envelope_and_carrier()
    base_i, base_q = env * cos_c, env * sin_c
    n = SamplingGrid(realization.window_ns).n_samples
    out = np.zeros(n)
    for delay, amp, phase in zip(realization.delays_ns, realization.amplitudes,
                                 realization.phases_rad):
        center = int(round(delay / STEP_NS))
        lo, hi = max(0, center - half), min(n, center + half + 1)
        if lo >= hi:
            continue
        src = slice(lo - (center - half), hi - (center - half))
        out[lo:hi] += amp * (math.cos(phase) * base_i[src] - math.sin(phase) * base_q[src])
    if snr_db is not None:
        signal_power = float(np.mean(out**2))
        sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0)) if signal_power > 0 else 0.0
        out = out + realization_rng(noise_seed, 1).normal(0.0, sigma, size=n)
    return out


@st.composite
def _edge_ensembles(draw):
    """Ensembles of up to 5 members whose taps often sit within half a pulse of a window edge."""
    window = draw(st.sampled_from([1.0, 3.7, 100.0]))
    edge = min(window, _envelope_and_carrier()[3] * STEP_NS)
    delays = st.one_of(st.floats(0.0, edge, exclude_max=True),
                       st.floats(window - edge, window, exclude_max=True),
                       st.floats(0.0, window, exclude_max=True))
    tap = st.tuples(delays, st.floats(0.0, 2.0), st.floats(-7.0, 7.0))
    members = [sorted(m) for m in draw(st.lists(st.lists(tap, max_size=6), min_size=1, max_size=5))]
    taps = [t for m in members for t in m]
    n = len(taps)
    return Ensemble(*(np.array([t[i] for t in taps], dtype=float) for i in range(3)),
                    np.zeros(n, int), np.arange(n), np.cumsum([0, *map(len, members)]),
                    window_ns=window)


@st.composite
def _generated_ensembles(draw):
    """Batches of a LOS table cell, with either fading and without the dynamic-range cut."""
    link = LinkConfig(Receiver.RX2, Orientation.VH, 30.0, 20.0)
    scenario = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link)
    config = GeneratorConfig(seed=draw(st.integers(0, 2**32)), dynamic_range_db=math.inf,
                             amplitude_fading=draw(st.sampled_from(list(AmplitudeFading))))
    start = draw(st.integers(0, 1000))
    return realize_batch(scenario, config, range(start, start + draw(st.integers(1, 8))))


@EQUIVALENCE
@given(ens=st.one_of(_edge_ensembles(), _generated_ensembles()),
       snr_db=st.sampled_from([None, 20.0, -300.0]), noise_seed=st.integers(0, 2**40))
def test_render_of_an_ensemble_is_its_members_renders(ens, snr_db, noise_seed):
    # row k is member k's scan with noise stream noise_seed + k, bit for bit
    scans = render(ens, snr_db=snr_db, noise_seed=noise_seed)
    assert scans.shape == (len(ens), SamplingGrid(ens.window_ns).n_samples)
    for k in range(len(ens)):
        want = _render_per_tap(ens[k], snr_db, noise_seed + k).tobytes()
        assert scans[k].tobytes() == want
        assert render(ens[k], snr_db=snr_db, noise_seed=noise_seed + k).tobytes() == want


def test_render_adds_its_pulse_blocks_in_tap_order(monkeypatch):
    # blocks of 7 taps cut members apart, and a sample's taps still add up in tap order
    monkeypatch.setattr(waveform, "_RENDER_BLOCK_TAPS", 7)
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    config = GeneratorConfig(seed=5, dynamic_range_db=math.inf,
                             amplitude_fading=AmplitudeFading.RAYLEIGH)
    ens = realize_batch(LinkScenario.from_tables(Scenario.HOVERING_FOLIAGE, link), config,
                        range(16))
    scans = render(ens, snr_db=20.0, noise_seed=3)
    for k in range(len(ens)):
        assert scans[k].tobytes() == _render_per_tap(ens[k], 20.0, 3 + k).tobytes()


def test_render_identity_channel():
    tpl = template_pulse()
    half = len(tpl) // 2
    rec = render(_taps([(0.0, 1.0, 0.0)]))
    # tap at delay 0: the right half of the center-symmetric pulse is in view
    assert np.allclose(rec[: half + 1], tpl[half:], atol=1e-12)
    assert np.allclose(rec[half + 1 :], 0.0)


def test_render_full_template_at_interior_delay():
    tpl = template_pulse()
    center = 200
    rec = render(_taps([(center * STEP_NS, 1.0, 0.0)]))
    half = len(tpl) // 2
    segment = rec[center - half : center + half + 1]
    assert np.allclose(segment, tpl, atol=1e-12)


def test_render_two_equal_taps_resolved():
    rec = render(_taps([(20.0, 1.0, 0.0), (30.0, 1.0, 0.0)]))
    i0 = int(round(20.0 / STEP_NS))
    i1 = int(round(30.0 / STEP_NS))
    assert rec[i0] == pytest.approx(rec[i1], rel=1e-9)
    assert rec[i0] == pytest.approx(1.0, rel=1e-6)


def test_render_phase_pi_flips_sign():
    up = render(_taps([(20.0, 1.0, 0.0)]))
    down = render(_taps([(20.0, 1.0, math.pi)]))
    assert np.allclose(up, -down, atol=1e-12)


def test_render_energy_superposition():
    tpl = template_pulse()
    amps = [1.0, 0.6, 0.3]
    rng = np.random.default_rng(5)
    phases = rng.uniform(0, 2 * math.pi, size=3)
    entries = [(20.0, amps[0], phases[0]), (50.0, amps[1], phases[1]), (80.0, amps[2], phases[2])]
    rec = render(_taps(entries))
    expected = sum(a * a for a in amps) * np.sum(tpl**2)
    assert np.sum(rec**2) == pytest.approx(expected, rel=0.01)


def test_render_linearity():
    base = _taps([(10.0, 0.5, 1.0), (40.0, 0.2, 4.0)])
    scaled = _taps([(10.0, 1.5, 1.0), (40.0, 0.6, 4.0)])
    a = render(base)
    b = render(scaled)
    assert np.allclose(b, 3.0 * a, rtol=1e-12, atol=1e-15)


def test_render_shift_covariance():
    k = 40
    a = render(_taps([(200 * STEP_NS, 1.0, 0.5)]))
    b = render(_taps([((200 + k) * STEP_NS, 1.0, 0.5)]))
    assert np.allclose(b[k:], a[:-k], atol=1e-12)


def test_render_peak_amplitudes_recoverable():
    entries = [(10.0, 1.0, 0.0), (30.0, 0.5, 0.0), (60.0, 0.25, 0.0)]
    rec = render(_taps(entries))
    for delay, amp, _ in entries:
        idx = int(round(delay / STEP_NS))
        assert rec[idx] == pytest.approx(amp, rel=0.02)


@pytest.mark.parametrize("window", [1.0, 37.0, 100.0])
def test_render_samples_the_realization_window(window):
    samples = render(_taps([(0.5, 1.0, 0.0)], window=window))
    assert samples.shape == (SamplingGrid(window).n_samples,)


def test_render_noise_is_seeded_and_leveled():
    taps = _taps([(20.0, 1.0, 0.0)])
    a = render(taps, snr_db=20.0, noise_seed=42)
    b = render(taps, snr_db=20.0, noise_seed=42)
    c = render(taps, snr_db=20.0, noise_seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    clean = render(taps)
    noise = a - clean
    snr = np.mean(clean**2) / np.mean(noise**2)
    assert 10 * np.log10(snr) == pytest.approx(20.0, abs=1.0)


def test_waveform_csv_round_trip(tmp_path):
    rec = render(_taps([(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)]))
    path = tmp_path / "waveform.csv"
    write_waveform_csv(rec, path)
    back = read_waveform_csv(path)
    assert np.array_equal(back, rec)
    assert path.read_text().splitlines()[0] == "sample_index,time_ns,value"


def test_full_scan_flag():
    rec = render(_taps([(10.0, 1.0, 0.0)]))
    assert len(rec) == DEFAULT_GRID.n_samples
    tpl = template_pulse()
    assert len(tpl) < DEFAULT_GRID.n_samples and len(tpl) % 2 == 1


# --- byte format of the CSV writer -------------------------------------------


def _reference_waveform_csv(samples):
    """The original one-f-string-per-row writer: the byte format contract."""
    lines = ["sample_index,time_ns,value"]
    for i, v in enumerate(samples):
        lines.append(f"{i:d},{i * STEP_NS:.17g},{v:.17g}")
    return ("\n".join(lines) + "\n").encode()


def _assert_csv_bytes_match_reference(samples, path):
    write_waveform_csv(samples, path)
    assert path.read_bytes() == _reference_waveform_csv(samples)


def test_waveform_csv_bytes_noisy_full_scan(tmp_path):
    taps = _taps([(0.0, 1.0, 0.0), (12.5, 0.3, 1.1), (71.0, 0.05, -2.0)])
    rec = render(taps, snr_db=20.0, noise_seed=5)
    assert len(rec) == DEFAULT_GRID.n_samples
    _assert_csv_bytes_match_reference(rec, tmp_path / "scan.csv")


def test_waveform_csv_bytes_template_record(tmp_path):
    tpl = template_pulse()
    assert len(tpl) % 2 == 1 and len(tpl) < DEFAULT_GRID.n_samples
    _assert_csv_bytes_match_reference(tpl, tmp_path / "template.csv")


def test_waveform_csv_bytes_alternating_grids(tmp_path):
    entries = [(3.0, 1.0, 0.4), (9.0, 0.2, 2.5)]
    for k, window in enumerate([100.0, 20.0, 100.0, 20.0]):
        rec = render(_taps(entries, window=window), snr_db=10.0, noise_seed=k)
        _assert_csv_bytes_match_reference(rec, tmp_path / f"scan_{k}.csv")


def test_waveform_csv_bytes_special_values(tmp_path):
    values = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, -1 / 3]
    rec = np.array(values)
    path = tmp_path / "special.csv"
    _assert_csv_bytes_match_reference(rec, path)
    values_out = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert values_out[:7] == ["-0", "0", "4.9406564584124654e-324", "1.7976931348623157e+308",
                              "nan", "inf", "-inf"]
    _assert_csv_bytes_match_reference(np.array([]), tmp_path / "e.csv")


def _kernel_edge_values():
    """Values at each of the kernel's switches, both signs: powers of ten and
    their neighbours, the fixed/scientific switches at 1e-5/1e-4 and
    1e16/1e17, the 2/3-digit exponent switch, the ends of the kernel's range,
    subnormals, signed zeros, non-finite values and exact ties of the 17th
    digit (an 18-digit dyadic ending in 5, which rounds half to even)."""
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e-99, 1e99, 1e100, 1e-280, 1e280])
    scaled = np.concatenate([tens, switches * 9.999999999999999, switches * 9.9999999999999982,
                             switches * 5, switches * 1.2345678901234567])
    around = np.concatenate([scaled, np.nextafter(scaled, 0), np.nextafter(scaled, np.inf)])
    ties = [10.0 ** (17 - s) * 1.2345678901234567 // 1 + j / 2**s
            for s in range(2, 12) for j in (1, 3, 2**s - 1)]
    subnormal = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values = np.concatenate([around, ties, subnormal, [0.0, math.inf, math.nan, 1.7976931348623157e308]])
    return np.concatenate([values, -values])


def test_waveform_csv_bytes_kernel_edges(tmp_path):
    values = _kernel_edge_values()
    _assert_csv_bytes_match_reference(values, tmp_path / "edges.csv")
    # the 17th digit's ties round half to even, both ways
    written = [float(line.split(b",")[2]) for line in (tmp_path / "edges.csv").read_bytes().splitlines()[1:]]
    assert 1234567890123456.2 in written and 1234567890123456.8 in written


@pytest.mark.parametrize(
    "samples",
    [np.resize(template_pulse(), 1000), np.tile([-0.0, 0.0, 1e-5, 1e-4, 1e16, 1e17, 0.1], 40)],
    ids=["template-pulse", "layout-switches"],
)
def test_waveform_csv_bytes_fixed_point_scans(samples, tmp_path):
    _assert_csv_bytes_match_reference(samples, tmp_path / "scan.csv")


def test_waveform_csv_bytes_scan_at_lowest_snr(tmp_path):
    # at -300 dB the noise is about 1e10 times the pulse: every value is fixed-point
    rec = render(_taps([(0.0, 1.0, 0.0), (12.5, 0.3, 1.1)]), snr_db=-300.0, noise_seed=3)
    assert np.all((np.abs(rec) >= 1e5) & (np.abs(rec) < 1e17))
    _assert_csv_bytes_match_reference(rec, tmp_path / "scan.csv")


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@EQUIVALENCE
@given(values=st.lists(st.one_of(FLOATS, st.integers(0, 2**64 - 1).map(_float_of_bits)),
                       min_size=1, max_size=40),
       size=st.sampled_from([None, 1025, 1638]))
def test_waveform_csv_bytes_of_any_float64(values, size, tmp_path_factory):
    # every float64, bit patterns included, as a short scan, as one a row past
    # the writer's first block of rows and as a benchmark-sized scan
    samples = np.resize(np.array(values), size or len(values))
    _assert_csv_bytes_match_reference(samples, tmp_path_factory.mktemp("scan") / "scan.csv")


def test_long_scan_write_memory_is_bounded(tmp_path):
    # a --window-ns 1e4 scan (163,844 samples, 7.6 MB of text) is formatted a
    # block of rows at a time and streamed, so no copy of the whole text is held
    rec = np.random.default_rng(1).normal(scale=0.01, size=SamplingGrid(1e4).n_samples)
    write_waveform_csv(rec, tmp_path / "warm.csv")  # fills the cache of index/time rows
    tracemalloc.start()
    try:
        write_waveform_csv(rec, tmp_path / "scan.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "scan.csv").stat().st_size / 2
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def _per_value_fallback_must_not_run(values):
    raise AssertionError(f"{values.size} value(s) of a README-cell scan reached '%'")


@pytest.mark.parametrize("snr_db", [20.0, None], ids=["noisy", "noiseless"])
def test_written_scan_takes_the_kernel(snr_db, tmp_path, monkeypatch):
    # README-cell scans: no value, and no zero of a noiseless scan, may slide back to '%'
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    scenario = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link)
    ens = realize_batch(scenario, GeneratorConfig(seed=42, amplitude_fading=AmplitudeFading.RAYLEIGH),
                        range(4))
    monkeypatch.setattr(waveform, "_g17_fields", _per_value_fallback_must_not_run)
    for k in range(4):
        scan = render(ens[k], snr_db=snr_db, noise_seed=42 + k)
        _assert_csv_bytes_match_reference(scan, tmp_path / f"scan_{k}.csv")


@pytest.mark.parametrize(
    "samples",
    [np.float64(0.5), np.array(0.5), np.zeros((2, 3)), np.zeros((1, 4)), [[0.5, 1.0]],
     np.array([1 + 2j, 0.5]), np.array(["0.5"]), np.array([0.5, None])],
    ids=["scalar", "0-d", "2-D", "one-row", "nested-list", "complex", "str", "object"],
)
def test_writer_rejects_what_is_not_a_scan(samples, tmp_path):
    # raised before any cast, so no ComplexWarning, and no file is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValue, match="a scan is a 1-D real array"):
            write_waveform_csv(samples, tmp_path / "scan.csv")
    assert not list(tmp_path.iterdir())


# --- pulse cache ---------------------------------------------------------------


def test_pulse_cache_is_read_only_and_matches_uncached():
    cached = _envelope_and_carrier()
    fresh = _envelope_and_carrier.__wrapped__()
    assert _envelope_and_carrier()[0] is cached[0]
    for arr, ref in zip(cached[:3], fresh[:3]):
        assert np.array_equal(arr, ref)
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert cached[3] == fresh[3]

    tpl = template_pulse()
    assert np.array_equal(tpl, fresh[0] * fresh[1])
    assert tpl.flags.writeable

    taps = _taps([(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)])
    warm = render(taps)
    _envelope_and_carrier.cache_clear()
    cold = render(taps)
    assert np.array_equal(warm, cold)


def test_pulse_is_the_same_on_every_grid():
    # the sample step is the sounder's, so grids differ only in their window
    entries = [(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)]
    samples = render(_taps(entries, window=37.0))
    assert np.array_equal(samples, render(_taps(entries))[: samples.size])


@pytest.mark.parametrize(
    "kwargs",
    [dict(window_ns=math.inf), dict(window_ns=math.nan),
     # shorter than the 0.0610336 ns sample step: a grid without a sample
     dict(window_ns=0.01), dict(window_ns=0.061)],
)
def test_grid_rejects_invalid_fields(kwargs):
    with pytest.raises(InvalidValue):
        SamplingGrid(**kwargs)


# 3100 overflows 10**(snr/10), -4000 underflows it to 0, and -3200 leaves a
# noise level past the float range
@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 3100.0, -4000.0, -3200.0,
                                    300.5, -300.5])
def test_render_rejects_snr_outside_its_range(snr_db):
    with pytest.raises(InvalidValue):
        render(_taps([(20.0, 1.0, 0.0)]), snr_db=snr_db)


@pytest.mark.parametrize("noise_seed", [0, 9, 1000045, 2**63 - 1])
def test_render_noise_matches_inline_seed_sequence(noise_seed):
    # the noise stream is the seed sequence (noise_seed, spawn key 1), as
    # render built it inline before it used realization_rng
    taps = _taps([(0.0, 1.0, 0.0), (20.0, 0.3, 1.0), (41.5, 0.05, 4.0)])
    clean = render(taps)
    signal_power = float(np.mean(clean**2))
    sigma = math.sqrt(signal_power / 10.0 ** (17.0 / 10.0))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=noise_seed, spawn_key=(1,)))
    expected = clean + rng.normal(0.0, sigma, size=clean.size)
    noisy = render(taps, snr_db=17.0, noise_seed=noise_seed)
    assert noisy.tobytes() == expected.tobytes()
