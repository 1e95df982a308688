import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import hilbert

from uwbagsim.core import ChannelRealization
from uwbagsim.errors import DelayOutOfWindow, InvalidValue, MalformedFile
from uwbagsim.waveform import (
    DEFAULT_GRID,
    WAVEFORM_CSV_HEADER,
    SamplingGrid,
    WaveformRecord,
    _envelope_and_carrier,
    read_waveform_csv,
    render,
    template_pulse,
    write_waveform_csv,
)

from strategies import EQUIVALENCE, FLOATS, csv_texts

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
    tpl = template_pulse()
    s = tpl.samples
    assert len(s) % 2 == 1
    center = len(s) // 2
    assert s[center] == 1.0
    assert np.max(np.abs(s)) == 1.0
    assert np.allclose(s, s[::-1], atol=1e-12)


def test_template_envelope_width_is_pulse_duration():
    tpl = template_pulse()
    env = np.abs(hilbert(tpl.samples))
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
    spec = np.abs(np.fft.rfft(tpl.samples, nfft))
    freqs = np.fft.rfftfreq(nfft, d=STEP_NS * 1e-9)
    assert freqs[np.argmax(spec)] == pytest.approx(4.3e9, rel=1e-3)
    band = freqs[spec >= spec.max() * 10 ** (-0.5)]
    assert band[0] == pytest.approx(3.2636e9, rel=1e-3)
    assert band[-1] == pytest.approx(5.3364e9, rel=1e-3)
    overlap = min(band[-1], 4.8e9) - max(band[0], 3.1e9)
    assert overlap / (band[-1] - band[0]) > 0.7


def test_render_identity_channel():
    tpl = template_pulse()
    half = len(tpl) // 2
    rec = render(_taps([(0.0, 1.0, 0.0)]))
    # tap at delay 0: the right half of the center-symmetric pulse is in view
    assert np.allclose(rec.samples[: half + 1], tpl.samples[half:], atol=1e-12)
    assert np.allclose(rec.samples[half + 1 :], 0.0)


def test_render_full_template_at_interior_delay():
    tpl = template_pulse()
    center = 200
    rec = render(_taps([(center * STEP_NS, 1.0, 0.0)]))
    half = len(tpl) // 2
    segment = rec.samples[center - half : center + half + 1]
    assert np.allclose(segment, tpl.samples, atol=1e-12)


def test_render_two_equal_taps_resolved():
    rec = render(_taps([(20.0, 1.0, 0.0), (30.0, 1.0, 0.0)]))
    i0 = int(round(20.0 / STEP_NS))
    i1 = int(round(30.0 / STEP_NS))
    assert rec.samples[i0] == pytest.approx(rec.samples[i1], rel=1e-9)
    assert rec.samples[i0] == pytest.approx(1.0, rel=1e-6)


def test_render_phase_pi_flips_sign():
    up = render(_taps([(20.0, 1.0, 0.0)]))
    down = render(_taps([(20.0, 1.0, math.pi)]))
    assert np.allclose(up.samples, -down.samples, atol=1e-12)


def test_render_energy_superposition():
    tpl = template_pulse()
    amps = [1.0, 0.6, 0.3]
    rng = np.random.default_rng(5)
    phases = rng.uniform(0, 2 * math.pi, size=3)
    entries = [(20.0, amps[0], phases[0]), (50.0, amps[1], phases[1]), (80.0, amps[2], phases[2])]
    rec = render(_taps(entries))
    expected = sum(a * a for a in amps) * tpl.energy
    assert rec.energy == pytest.approx(expected, rel=0.01)


def test_render_linearity():
    base = _taps([(10.0, 0.5, 1.0), (40.0, 0.2, 4.0)])
    scaled = _taps([(10.0, 1.5, 1.0), (40.0, 0.6, 4.0)])
    a = render(base)
    b = render(scaled)
    assert np.allclose(b.samples, 3.0 * a.samples, rtol=1e-12, atol=1e-15)


def test_render_shift_covariance():
    k = 40
    a = render(_taps([(200 * STEP_NS, 1.0, 0.5)]))
    b = render(_taps([((200 + k) * STEP_NS, 1.0, 0.5)]))
    assert np.allclose(b.samples[k:], a.samples[:-k], atol=1e-12)


def test_render_peak_amplitudes_recoverable():
    entries = [(10.0, 1.0, 0.0), (30.0, 0.5, 0.0), (60.0, 0.25, 0.0)]
    rec = render(_taps(entries))
    for delay, amp, _ in entries:
        idx = int(round(delay / STEP_NS))
        assert rec.samples[idx] == pytest.approx(amp, rel=0.02)


def test_render_delay_outside_grid_window():
    taps = _taps([(60.0, 1.0, 0.0)], window=200.0)
    with pytest.raises(DelayOutOfWindow):
        render(taps, SamplingGrid(window_ns=50.0))


def test_render_noise_is_seeded_and_leveled():
    taps = _taps([(20.0, 1.0, 0.0)])
    a = render(taps, snr_db=20.0, noise_seed=42)
    b = render(taps, snr_db=20.0, noise_seed=42)
    c = render(taps, snr_db=20.0, noise_seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    clean = render(taps)
    noise = a.samples - clean.samples
    snr = np.mean(clean.samples**2) / np.mean(noise**2)
    assert 10 * np.log10(snr) == pytest.approx(20.0, abs=1.0)


def test_waveform_csv_round_trip(tmp_path):
    rec = render(_taps([(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)]))
    path = tmp_path / "waveform.csv"
    write_waveform_csv(rec, path)
    back = read_waveform_csv(path)
    assert np.array_equal(back.samples, rec.samples)
    assert path.read_text().splitlines()[0] == "sample_index,time_ns,value"


@pytest.mark.parametrize(
    "blob, line",
    [
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061\n", 3),
        # undecodable text is no line of the file
        (b"sample_index,time_ns,value\n0,0.0,1.0\n1,0.061,\xff\n", 0),
    ],
    ids=["short-row", "not-utf8"],
)
def test_waveform_csv_malformed(blob, line, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        read_waveform_csv(path)
    assert err.value.line == line
    assert str(path) in str(err.value)


def _reference_read_waveform_csv(path, grid=DEFAULT_GRID):
    """The original split loop: the reference the shared column parser must match."""
    values = []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedFile(str(path), 1, "empty file")
    if lines[0].strip() != "sample_index,time_ns,value":
        raise MalformedFile(str(path), 1, "expected header 'sample_index,time_ns,value'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedFile(str(path), lineno, f"expected 3 fields, got {len(parts)}")
        try:
            values.append(float(parts[2]))
        except ValueError as exc:
            raise MalformedFile(str(path), lineno, str(exc)) from None
    return WaveformRecord(np.array(values), grid)


def _read_or_error(read, path):
    try:
        return read(path)
    except MalformedFile as exc:
        return exc


@EQUIVALENCE
@given(text=csv_texts(WAVEFORM_CSV_HEADER,
                      st.lists(st.tuples(st.integers(0, 2000), FLOATS, FLOATS), max_size=8)))
def test_waveform_csv_reader_matches_reference_reader(text, tmp_path_factory):
    # a header padded with spaces and undecodable text are left out: there
    # the two readers differ by design
    path = tmp_path_factory.getbasetemp() / "scan.csv"
    path.write_bytes(text.encode())
    got = _read_or_error(read_waveform_csv, path)
    want = _read_or_error(_reference_read_waveform_csv, path)
    if isinstance(want, MalformedFile):
        assert isinstance(got, MalformedFile)
        assert (got.line, got.reason) == (want.line, want.reason)
        return
    assert got.grid == want.grid
    assert got.samples.dtype == want.samples.dtype
    assert got.samples.tobytes() == want.samples.tobytes()


def test_full_scan_flag():
    rec = render(_taps([(10.0, 1.0, 0.0)]))
    assert rec.is_full_scan
    assert not template_pulse().is_full_scan


# --- byte format of the CSV writer -------------------------------------------


def _reference_waveform_csv(record):
    """The original one-f-string-per-row writer: the byte format contract."""
    step = record.grid.sample_step_ns
    lines = ["sample_index,time_ns,value"]
    for i, v in enumerate(record.samples):
        lines.append(f"{i:d},{i * step:.17g},{v:.17g}")
    return ("\n".join(lines) + "\n").encode()


def _assert_csv_bytes_match_reference(record, path):
    write_waveform_csv(record, path)
    assert path.read_bytes() == _reference_waveform_csv(record)


def test_waveform_csv_bytes_noisy_full_scan(tmp_path):
    taps = _taps([(0.0, 1.0, 0.0), (12.5, 0.3, 1.1), (71.0, 0.05, -2.0)])
    rec = render(taps, snr_db=20.0, noise_seed=5)
    assert rec.is_full_scan
    _assert_csv_bytes_match_reference(rec, tmp_path / "scan.csv")


def test_waveform_csv_bytes_template_record(tmp_path):
    tpl = template_pulse()
    assert len(tpl) % 2 == 1 and not tpl.is_full_scan
    _assert_csv_bytes_match_reference(tpl, tmp_path / "template.csv")


def test_waveform_csv_bytes_alternating_grids(tmp_path):
    other = SamplingGrid(window_ns=20.0)
    taps = _taps([(3.0, 1.0, 0.4), (9.0, 0.2, 2.5)], window=20.0)
    for k, grid in enumerate([DEFAULT_GRID, other, DEFAULT_GRID, other]):
        rec = render(taps, grid, snr_db=10.0, noise_seed=k)
        _assert_csv_bytes_match_reference(rec, tmp_path / f"scan_{k}.csv")


def test_waveform_csv_bytes_special_values(tmp_path):
    values = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, -1 / 3]
    rec = WaveformRecord(np.array(values), DEFAULT_GRID)
    path = tmp_path / "special.csv"
    _assert_csv_bytes_match_reference(rec, path)
    values_out = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert values_out[:7] == ["-0", "0", "4.9406564584124654e-324", "1.7976931348623157e+308",
                              "nan", "inf", "-inf"]
    _assert_csv_bytes_match_reference(WaveformRecord(np.array([]), DEFAULT_GRID), tmp_path / "e.csv")


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
    assert np.array_equal(tpl.samples, fresh[0] * fresh[1])
    assert tpl.samples.flags.writeable

    taps = _taps([(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)])
    warm = render(taps).samples
    _envelope_and_carrier.cache_clear()
    cold = render(taps).samples
    assert np.array_equal(warm, cold)


def test_pulse_is_the_same_on_every_grid():
    # the sample step is the sounder's, so grids differ only in their window
    short = SamplingGrid(window_ns=37.0)
    assert np.array_equal(template_pulse(short).samples, template_pulse().samples)
    taps = _taps([(10.0, 1.0, 0.3), (33.0, 0.4, 2.0)])
    samples = render(taps, short).samples
    assert np.array_equal(samples, render(taps).samples[: samples.size])


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
    clean = render(taps).samples
    signal_power = float(np.mean(clean**2))
    sigma = math.sqrt(signal_power / 10.0 ** (17.0 / 10.0))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=noise_seed, spawn_key=(1,)))
    expected = clean + rng.normal(0.0, sigma, size=clean.size)
    noisy = render(taps, snr_db=17.0, noise_seed=noise_seed).samples
    assert noisy.tobytes() == expected.tobytes()
