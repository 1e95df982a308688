"""Tests of the benchmark itself: span arithmetic, wrapping, output checks, speed probe.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import itertools
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import spec  # noqa: E402
import speedprobe  # noqa: E402
import uwbagsim  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from uwbagsim import cli, core, generator  # noqa: E402


# --- self-time arithmetic ----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["a"] == (1, pytest.approx(3.0))  # 10 - (3 + 4)
    assert totals["b"] == (2, pytest.approx(6.0))  # (3 - 1) + 4
    assert totals["c"] == (1, pytest.approx(1.0))


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ("p", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),   # overlaps x: union is [1, 7]
        ("q", 20.0, 25.0, -1),
        ("z", 24.0, 28.0, 3),  # runs past its parent: only [24, 25] is covered
    ]
    totals = self_times(spans)
    assert totals["p"][1] == pytest.approx(4.0)
    assert totals["q"][1] == pytest.approx(4.0)


def test_self_times_partition_the_root_span():
    spans = [
        ("root", 0.0, 100.0, -1),
        ("a", 10.0, 40.0, 0),
        ("b", 15.0, 20.0, 1),
        ("b", 22.0, 30.0, 1),
        ("a", 50.0, 90.0, 0),
        ("c", 60.0, 61.0, 4),
    ]
    total = sum(self_s for _, self_s in self_times(spans).values())
    assert total == pytest.approx(100.0)


def test_tracer_records_nesting_from_wrapped_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    # clock reads: outer 0, inner 1-2, inner 3-4, outer ends at 5
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.self_times() == {"outer": (1, 3.0), "inner": (2, 2.0)}


# --- wrapping ------------------------------------------------------------------


def test_wrapper_returns_result_unchanged_and_closes_span_on_error():
    tracer = Tracer()
    sentinel = object()
    assert tracer.wrap("f", lambda: sentinel)() is sentinel

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("g", boom)()
    assert all(span[2] is not None for span in tracer.spans)
    assert tracer._open == []


def _originals():
    return {
        "cli.generate": cli.generate,
        "generator.generate": generator.generate,
        "uwbagsim.generate": uwbagsim.generate,
        "generator.draw_ray_arrivals": generator.draw_ray_arrivals,
        "init": core.ChannelRealization.__init__,
        "cli.main": cli.main,
    }


def test_install_wraps_every_alias_and_restore_puts_originals_back():
    before = _originals()
    params = core.lookup_params(
        core.Scenario.HOVERING_OPEN, core.Receiver.RX1, core.Orientation.VV, 15.0
    )
    config = generator.GeneratorConfig(seed=5)
    expected = generator.generate(params, config, realization_index=3)

    tracer = Tracer()
    tracer.install()
    try:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
        assert cli.generate is generator.generate is uwbagsim.generate
        got = cli.generate(params, config, realization_index=3)
    finally:
        tracer.restore()

    assert all(_originals()[key] is before[key] for key in before)
    for field in ("delays_ns", "amplitudes", "phases_rad", "cluster_indices", "ray_indices"):
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))
    names = {span[0] for span in tracer.spans}
    assert {"generator.generate", "generator.realization_rng",
            "core.ChannelRealization.init"} <= names
    assert names <= set(LAYERS)


# --- output checks ----------------------------------------------------------------


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "out"
    assert cli.main(spec.generate_argv(seed=9, n=3, out=str(out))) == 0
    return out


def test_generate_check_passes_on_clean_output_and_repeats_digest(generated):
    attempted, failed, digest = checks.check_generate(generated, 3, rc=0)
    assert (attempted, failed) == (3, 0)
    assert checks.check_generate(generated, 3, rc=0, reference=digest)[1] == 0


def test_corrupted_realization_raises_failed_frac(generated):
    path = generated / "realization_00001.csv"
    path.write_text(path.read_text().replace(",", ";", 3))
    attempted, failed, _ = checks.check_generate(generated, 3, rc=0)
    assert failed / attempted > 0


def test_corrupted_waveform_breaks_the_repeat_digest(generated):
    _, _, digest = checks.check_generate(generated, 3, rc=0)
    with open(generated / "waveform_00002.csv", "a") as fh:
        fh.write("1638,99.9,0.0\n")
    attempted, failed, _ = checks.check_generate(generated, 3, rc=0, reference=digest)
    assert failed == attempted == 3


def test_roundtrip_check_counts_failing_cells(tmp_path):
    cells = [{"pass": True}] * 23 + [{"pass": False}]
    (tmp_path / "verdict.json").write_text(json.dumps({"results": cells}))
    assert checks.check_roundtrip(tmp_path, rc=1) == (24, 1)
    (tmp_path / "verdict.json").write_text("{ truncated")
    assert checks.check_roundtrip(tmp_path, rc=0) == (24, 24)


def test_inverse_check_fails_far_direct_path_and_corrupt_report(tmp_path):
    estimates = {key: 1.0 for key in checks.ESTIMATE_FIELDS}
    (tmp_path / "report.json").write_text(json.dumps({"estimates": estimates}))
    truth = {"waveform_00000.csv": 0.0, "waveform_00001.csv": 0.0}
    near = [["waveform_00000.csv", 0.2441], ["waveform_00001.csv", 0.0]]
    far = [["waveform_00000.csv", 0.3052], ["waveform_00001.csv", 0.0]]
    assert checks.check_inverse(tmp_path, 0, near, truth) == (3, 0)
    assert checks.check_inverse(tmp_path, 0, far, truth) == (3, 1)
    (tmp_path / "report.json").write_text("not json")
    assert checks.check_inverse(tmp_path, 0, near, truth) == (3, 1)


# --- speed probe ------------------------------------------------------------------


def test_speed_factor_is_the_mean_speed_relative_to_nominal():
    nominal = speedprobe.NOMINAL_US
    assert speedprobe.speed_factor([nominal] * 3) == pytest.approx(1.0)
    # half the time at twice the nominal duration, half at half of it
    assert speedprobe.speed_factor([2 * nominal, nominal / 2]) == pytest.approx(1.25)


def test_probe_samples_while_running_and_restores_the_alarm_handler():
    def previous(*_):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        probe = speedprobe.SpeedProbe().start()
        deadline = time.monotonic() + 10 * speedprobe.INTERVAL_S
        while time.monotonic() < deadline:
            sum(range(1000))
        probe.stop()
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(probe.samples_us) >= 4  # one at start, one at stop, timer ticks between
    assert all(us > 0 for us in probe.samples_us)
