import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from uwbagsim import cli, simulate
from uwbagsim.core import (
    Ensemble,
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    iter_table_cells,
)
from uwbagsim.cli import main
from uwbagsim.generator import GeneratorConfig, read_realization_csv
from uwbagsim.linkbudget import path_loss_db, reference_power
from uwbagsim.simulate import LinkScenario
from uwbagsim.waveform import read_waveform_csv, render

from published_tables import PUBLISHED


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


GEN_ARGS = [
    "generate",
    "--scenario", "hovering-open",
    "--rx", "RX1",
    "--orient", "VV",
    "--x", "15",
    "--h", "10",
    "--seed", "7",
]


def test_tables_json_contract(tmp_path, capsys):
    out = tmp_path / "tables.json"
    code, stdout, _ = run(["tables", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    for scenario_key, cells in PUBLISHED.items():
        for (rx, orient, x), values in cells.items():
            cell = doc[scenario_key][rx][orient][f"{x:g}"]
            assert cell["n_clusters_mean"] == values[0]
            assert cell["cluster_rate_per_ns"] == values[1]
            assert cell["cluster_decay"] == values[2]
            assert cell["ray_rate_per_ns"] == values[3]
            assert cell["ray_decay"] == values[4]


def test_tables_to_stdout(capsys):
    code, stdout, _ = run(["tables"], capsys)
    assert code == 0
    assert json.loads(stdout)["hovering-open"]["RX1"]["VV"]["15"]["ray_decay"] == 8.7


def test_generate_writes_files_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(GEN_ARGS + ["--n", "3", "--out", str(out)], capsys)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.json",
        "realization_00000.csv",
        "realization_00001.csv",
        "realization_00002.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["scenario"] == "hovering-open"
    assert manifest["files"] == names[1:]


def test_generate_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(GEN_ARGS + ["--n", "4", "--out", str(out)], capsys)
        assert code == 0
    bytes_a = _dir_bytes(a)
    bytes_b = _dir_bytes(b)
    # manifests differ only in out_dir; realization files must match exactly
    for name in bytes_a:
        if name.endswith(".csv"):
            assert bytes_a[name] == bytes_b[name]


def test_generate_output_path_collision_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code, _, err = run(GEN_ARGS + ["--n", "1", "--out", str(blocker)], capsys)
    assert code == 3
    assert "error:" in err


def test_generate_untabulated_distance_is_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run(
        ["generate", "--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV",
         "--x", "20", "--h", "10", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "15" in err and "30" in err


def test_generate_free_geometry_with_params_file(tmp_path, capsys):
    params = {
        "n_clusters_mean": 2.0,
        "cluster_rate_per_ns": 0.02,
        "cluster_decay": 0.2,
        "ray_rate_per_ns": 0.1,
        "ray_decay": 1.5,
    }
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    out = tmp_path / "run"
    code, _, _ = run(
        ["generate", "--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV",
         "--x", "20", "--h", "10", "--seed", "1", "--n", "2",
         "--params-file", str(pfile), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "realization_00001.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["params"] == params  # resolved, not a path
    pfile.unlink()
    again = tmp_path / "again"
    code, _, _ = run(
        ["generate", "--from-manifest", str(out / "manifest.json"), "--out", str(again)],
        capsys,
    )
    assert code == 0
    assert (again / "realization_00001.csv").read_bytes() == (
        out / "realization_00001.csv"
    ).read_bytes()


def test_generate_from_manifest_reproduces(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run(GEN_ARGS + ["--n", "3", "--out", str(first)], capsys)
    assert code == 0
    second = tmp_path / "second"
    code, _, _ = run(
        ["generate", "--from-manifest", str(first / "manifest.json"), "--out", str(second)],
        capsys,
    )
    assert code == 0
    for name, blob in _dir_bytes(first).items():
        if name.endswith(".csv"):
            assert _dir_bytes(second)[name] == blob


def test_generate_from_manifest_keeps_the_pattern(tmp_path, capsys):
    pattern = tmp_path / "pattern.csv"
    pattern.write_text("angle_deg,gain_linear\n0,0.2\n30,0.9\n90,1.0\n180,0.3\n")
    first, plain = tmp_path / "first", tmp_path / "plain"
    code, _, _ = run(GEN_ARGS + ["--n", "2", "--waveforms", "--snr-db", "20",
                                 "--pattern-file", str(pattern), "--out", str(first)], capsys)
    assert code == 0
    code, _, _ = run(GEN_ARGS + ["--n", "2", "--out", str(plain)], capsys)
    assert code == 0
    # the pattern sets the direct path, so the realizations differ from the |sin| ones
    assert (first / "realization_00000.csv").read_bytes() != (
        plain / "realization_00000.csv"
    ).read_bytes()
    pattern.unlink()  # the manifest alone reproduces the run
    second = tmp_path / "second"
    code, _, _ = run(
        ["generate", "--from-manifest", str(first / "manifest.json"), "--out", str(second)],
        capsys,
    )
    assert code == 0
    # every file repeats byte for byte; the manifests differ only in out_dir
    bytes_first, bytes_second = _dir_bytes(first), _dir_bytes(second)
    manifests = [json.loads(b.pop("manifest.json")) for b in (bytes_first, bytes_second)]
    assert bytes_first == bytes_second
    assert len(bytes_first) == 4
    for manifest in manifests:
        manifest["config"]["out_dir"] = None
    assert manifests[0] == manifests[1]
    assert manifests[0]["config"]["pattern"]["gains"] == [0.2, 0.9, 1.0, 0.3]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_no_cut_manifest_is_strict_json_and_reproduces(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run(GEN_ARGS + ["--n", "3", "--dynamic-range-db", "inf", "--out", str(first)],
                     capsys)
    assert code == 0
    text = (first / "manifest.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant)["config"]["dynamic_range_db"] is None
    # manifests written before "no cut" became null hold the Infinity token
    old = tmp_path / "old.json"
    old.write_text(text.replace('"dynamic_range_db": null', '"dynamic_range_db": Infinity'))
    assert "Infinity" in old.read_text()
    for k, manifest in enumerate([first / "manifest.json", old]):
        again = tmp_path / f"again_{k}"
        code, _, _ = run(["generate", "--from-manifest", str(manifest), "--out", str(again)],
                         capsys)
        assert code == 0
        for name, blob in _dir_bytes(first).items():
            if name.endswith(".csv"):
                assert _dir_bytes(again)[name] == blob


def test_generate_config_file_precedence(tmp_path, capsys):
    config = {
        "scenario": "hovering-foliage",
        "receiver": "RX1",
        "orientation": "VV",
        "x_m": 15,
        "h_m": 10,
        "seed": 3,
        "n_realizations": 2,
    }
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps(config))
    out = tmp_path / "run"
    code, _, _ = run(
        ["generate", "--config", str(cfile), "--n", "3", "--out", str(out)], capsys
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_realizations"] == 3  # flag beats config file
    assert manifest["config"]["scenario"] == "hovering-foliage"
    assert len(manifest["files"]) == 3


def test_config_with_every_field_is_echoed_and_reproduced_byte_for_byte(tmp_path, capsys):
    # integers where numbers are expected are echoed as given, not converted
    config = {
        "scenario": "hovering-foliage", "receiver": "RX2", "orientation": "VH",
        "x_m": 30, "h_m": 20, "n_realizations": 3, "seed": 11,
        "decay_mode": "time-constant", "amplitude_fading": "rayleigh", "xpd_db": 12,
        "snr_db": 25, "window_ns": 80, "dynamic_range_db": 40, "out_dir": str(tmp_path / "run"),
        "params": PARAMS, "pattern": {"angles_deg": [0.0, 45.0, 90.0], "gains": [0.5, 1.0, 0.25]},
        "waveforms": True, "jobs": 2,
    }
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps(config))
    code, _, _ = run(["generate", "--config", str(cfile)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["config"] == config
    first = tmp_path / "first"
    (tmp_path / "run").rename(first)
    # the manifest names the same out_dir, so even the manifest bytes must repeat
    code, _, _ = run(["generate", "--from-manifest", str(first / "manifest.json")], capsys)
    assert code == 0
    assert _dir_bytes(tmp_path / "run") == _dir_bytes(first)
    assert len(_dir_bytes(first)) == 7


def test_generate_unknown_config_field_rejected(tmp_path, capsys):
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps({"scenariooo": "hovering-open"}))
    code, _, err = run(["generate", "--config", str(cfile)], capsys)
    assert code == 2
    assert "scenariooo" in err


def test_generate_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHANSIM_DEFAULT_SEED", "99")
    out = tmp_path / "run"
    args = [a for a in GEN_ARGS if a not in ("--seed", "7")]
    code, _, _ = run(args + ["--n", "1", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 99


def test_generate_auto_seed_announced(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CHANSIM_DEFAULT_SEED", raising=False)
    out = tmp_path / "run"
    args = [a for a in GEN_ARGS if a not in ("--seed", "7")]
    code, _, err = run(args + ["--n", "1", "--out", str(out)], capsys)
    assert code == 0
    assert "seed = " in err
    announced = int(err.split("seed = ")[1].split()[0])
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == announced


def test_generate_jobs_parallel_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    code, _, _ = run(GEN_ARGS + ["--n", "6", "--out", str(serial)], capsys)
    assert code == 0
    code, _, _ = run(GEN_ARGS + ["--n", "6", "--jobs", "3", "--out", str(parallel)], capsys)
    assert code == 0
    for name, blob in _dir_bytes(serial).items():
        if name.endswith(".csv"):
            assert _dir_bytes(parallel)[name] == blob


def test_generate_jobs_parallel_batches_match_serial(tmp_path, capsys):
    # 150 realizations are three batches (starting at 0, 64 and 128), shared by two workers
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    code, _, _ = run(GEN_ARGS + ["--n", "150", "--jobs", "1", "--out", str(serial)], capsys)
    assert code == 0
    code, _, _ = run(GEN_ARGS + ["--n", "150", "--jobs", "2", "--out", str(parallel)], capsys)
    assert code == 0
    want, got = _dir_bytes(serial), _dir_bytes(parallel)
    csvs = sorted(name for name in want if name.endswith(".csv"))
    assert len(csvs) == 150
    assert csvs == sorted(name for name in got if name.endswith(".csv"))
    assert all(got[name] == want[name] for name in csvs)


def test_generate_jobs_parallel_scans_match_serial(tmp_path, capsys):
    # three batches of scans shared by two workers, each worker with its own helper thread
    args = GEN_ARGS + ["--n", "150", "--waveforms", "--snr-db", "20"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    code, _, _ = run(args + ["--jobs", "1", "--out", str(serial)], capsys)
    assert code == 0
    code, _, _ = run(args + ["--jobs", "2", "--out", str(parallel)], capsys)
    assert code == 0
    want, got = _dir_bytes(serial), _dir_bytes(parallel)
    scans = sorted(name for name in want if name.startswith("waveform_"))
    assert len(scans) == 150
    assert scans == sorted(name for name in got if name.startswith("waveform_"))
    assert all(got[name] == want[name] for name in scans)
    assert not [*serial.glob("*.tmp"), *parallel.glob("*.tmp")]


def test_generate_starts_no_more_workers_than_batches(tmp_path, capsys, monkeypatch):
    # the pool forks all of its workers at once; this one records its size and runs in-process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = tmp_path / "serial"
    assert run(GEN_ARGS + ["--n", "150", "--out", str(serial)], capsys)[0] == 0
    want = _dir_bytes(serial)
    del want["manifest.json"]
    for n, pools in ((150, [3]), (1, [])):  # three batches, then one, run in-process
        sizes.clear()
        out = tmp_path / f"n{n}"
        assert run(GEN_ARGS + ["--n", str(n), "--jobs", "100000", "--out", str(out)],
                   capsys)[0] == 0
        assert sizes == pools
        got = _dir_bytes(out)
        assert json.loads(got.pop("manifest.json"))["config"]["jobs"] == 100000
        assert sorted(got) == sorted(want)[:n] and all(got[name] == want[name] for name in got)


def test_generate_scan_is_its_realizations_render(tmp_path, capsys):
    # scan i is render(realization i, noise_seed=seed + i), across a batch boundary
    out = tmp_path / "run"
    code, _, _ = run(GEN_ARGS + ["--n", "70", "--waveforms", "--snr-db", "20", "--out", str(out)],
                     capsys)
    assert code == 0
    for index in (0, 1, 63, 64, 69):
        realization = read_realization_csv(out / f"realization_{index:05d}.csv")
        want = render(realization, snr_db=20.0, noise_seed=7 + index)
        assert read_waveform_csv(out / f"waveform_{index:05d}.csv").tobytes() == want.tobytes()


def test_generate_shrinks_a_batch_whose_scans_pass_the_budget(tmp_path, capsys, monkeypatch):
    # the budget holds 3 windows of 1638.4 samples, so 10 realizations render as 3 + 3 + 3 + 1
    args = GEN_ARGS + ["--n", "10", "--waveforms", "--snr-db", "20"]
    full, small = tmp_path / "full", tmp_path / "small"
    assert run(args + ["--out", str(full)], capsys)[0] == 0
    rendered, render = [], cli.render
    monkeypatch.setattr(cli, "render",
                        lambda ens, **kw: rendered.append(len(ens)) or render(ens, **kw))
    monkeypatch.setattr(cli, "SCAN_BATCH_SAMPLES", 3 * 1639)
    assert run(args + ["--out", str(small)], capsys)[0] == 0
    assert rendered == [3, 3, 3, 1]
    want, got = _dir_bytes(full), _dir_bytes(small)
    assert sorted(want) == sorted(got)
    assert all(got[name] == want[name] for name in want if name.endswith(".csv"))


def _recorded_batches(monkeypatch, module):
    """Patches ``module.realize_batch`` to record the index ranges it is given and to return
    one tap a member, so that no batch draws its taps; returns the record."""
    batches = []

    def record(scenario, config, indices):
        batches.append(indices)
        m = len(indices)
        return Ensemble(np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m, int), np.zeros(m, int),
                        np.arange(m + 1), window_ns=config.window_ns)

    monkeypatch.setattr(module, "realize_batch", record)
    return batches


# A member of this cell expects 1 + (0.033 + 0.1)·W + 0.033·0.1·W²/2 = 166,331 taps before
# the cut at a 10 us window: 20 MB of working arrays, so a batch takes no more than 6.
LONG_WINDOW_ARGS = ["generate", "--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV",
                    "--x", "15", "--h", "10", "--window-ns", "10000", "--n", "64", "--seed", "1"]
LONG_WINDOW_TAPS = 166_331
LONG_WINDOW_BATCHES = [range(a, min(64, a + 6)) for a in range(0, 64, 6)]


def test_generate_bounds_each_batch_by_its_expected_pre_cut_taps(tmp_path, capsys, monkeypatch):
    batches = _recorded_batches(monkeypatch, cli)
    out = tmp_path / "run"
    assert run(LONG_WINDOW_ARGS + ["--out", str(out)], capsys)[0] == 0
    assert batches == LONG_WINDOW_BATCHES
    assert all(len(b) * LONG_WINDOW_TAPS <= simulate._BATCH_TAPS for b in batches)
    assert len(list(out.iterdir())) == 65


def test_realize_ensemble_bounds_each_batch_by_its_expected_pre_cut_taps(monkeypatch):
    batches = _recorded_batches(monkeypatch, simulate)
    link = LinkConfig(Receiver.RX1, Orientation.VV, 15.0, 10.0)
    scenario = LinkScenario.from_tables(Scenario.HOVERING_OPEN, link)
    assert len(list(simulate.realize_ensemble(scenario, GeneratorConfig(window_ns=1e4), 64))) == 64
    assert batches == LONG_WINDOW_BATCHES


def test_generate_keeps_full_batches_at_every_table_cell(tmp_path, capsys, monkeypatch):
    # a table cell at the 100 ns window expects 15 to 71 taps a member
    batches = _recorded_batches(monkeypatch, cli)
    for k, (scenario, receiver, orientation, x, _) in enumerate(iter_table_cells()):
        args = ["generate", "--scenario", scenario.value, "--rx", receiver.value,
                "--orient", orientation.value, "--x", f"{x:g}", "--h", "10", "--seed", "1",
                "--n", "130", "--out", str(tmp_path / str(k))]
        assert run(args, capsys)[0] == 0
        assert batches == [range(0, 64), range(64, 128), range(128, 130)]
        batches.clear()


def test_a_failed_generate_leaves_no_temp_file_or_thread(tmp_path, capsys, monkeypatch):
    args = GEN_ARGS + ["--n", "70", "--waveforms", "--snr-db", "20"]
    clean, out = tmp_path / "clean", tmp_path / "run"
    assert run(args + ["--out", str(clean)], capsys)[0] == 0
    # a temp file of another run under this pid: the helper cannot create that name
    out.mkdir()
    stale = out / f"waveform_00001.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"stale")
    replace, replaced = os.replace, []

    def fifth_replace_fails(src, dst):
        replaced.append(dst)
        if len(replaced) == 5:
            raise OSError(errno.EIO, "injected failure", str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fifth_replace_fails)
    baseline = threading.active_count()
    code, _, err = run(args + ["--out", str(out)], capsys)
    assert code == 3
    assert err.startswith("error: [Errno 5] injected failure") and "realization_00002.csv" in err
    assert threading.active_count() == baseline
    assert [p.name for p in out.glob("*.tmp")] == [stale.name]
    assert stale.read_bytes() == b"stale"
    written = ["realization_00000.csv", "waveform_00000.csv", "realization_00001.csv",
               "waveform_00001.csv"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(written)
    assert all((out / name).read_bytes() == (clean / name).read_bytes() for name in written)


def test_every_written_file_takes_the_umask(tmp_path, capsys):
    # files are created as open(path, "w") creates them: 0o666 less the umask
    old = os.umask(0o022)
    try:
        out, report, verdict = tmp_path / "run", tmp_path / "report.json", tmp_path / "verdict.json"
        assert run(GEN_ARGS + ["--n", "20", "--waveforms", "--out", str(out)], capsys)[0] == 0
        assert run(["analyze", str(out / "realization_*.csv"), "--out", str(report)],
                   capsys)[0] == 0
        code, _, _ = run(["roundtrip", "--scenario", "hovering-open", "--rx", "RX1", "--orient",
                          "VV", "--x", "15", "--n", "20", "--seed", "1", "--out", str(verdict)],
                         capsys)
        assert code in (0, 1)
    finally:
        os.umask(old)
    for path in [out / "realization_00000.csv", out / "waveform_00000.csv",
                 out / "manifest.json", report, verdict]:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_negative_env_seed_exits_cleanly_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHANSIM_DEFAULT_SEED", "-5")
    out = tmp_path / "run"
    args = [a for a in GEN_ARGS if a not in ("--seed", "7")]
    code, _, err = run(args + ["--n", "2", "--out", str(out)], capsys)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_waveforms_flag(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(GEN_ARGS + ["--n", "1", "--waveforms", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "waveform_00000.csv").exists()


def test_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(
        ["generate", "--scenario", "hovering-foliage", "--rx", "RX1", "--orient", "VV",
         "--x", "15", "--h", "10", "--seed", "5", "--n", "40",
         "--dynamic-range-db", "inf", "--out", str(out)],
        capsys,
    )
    assert code == 0
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(
        ["analyze", str(out / "realization_*.csv"), "--out", str(report_path)], capsys
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"pdp", "clusters", "significant_mpc_avg", "estimates", "config"}
    assert report["estimates"]["n_clusters_hat"] > 1.0
    assert "cluster rate" in stdout


def test_analyze_empty_glob(tmp_path, capsys):
    code, _, err = run(["analyze", str(tmp_path / "nothing_*.csv")], capsys)
    assert code == 2
    assert "no input files" in err


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.csv"
    bad.write_text("delay_ns,amplitude,phase_rad,cluster_index,ray_index\n0.0,1.0,0.0,0,0\n1.0,oops,0.0,0,1\n")
    code, _, err = run(["analyze", str(bad), "--out", str(tmp_path / "r.json")], capsys)
    assert code == 4
    assert "broken.csv" in err and ":3:" in err


def test_analyze_rank_deficient_file_reports_unavailable_estimates(tmp_path, capsys):
    taps = tmp_path / "taps.csv"
    taps.write_text(
        "delay_ns,amplitude,phase_rad,cluster_index,ray_index\n"
        "0,1,0,0,0\n5,0.5,0,0,1\n20,0,0,1,0\n"
    )
    report = tmp_path / "r.json"
    code, out, err = run(["analyze", str(taps), "--out", str(report)], capsys)
    assert code == 0
    assert "Traceback" not in err
    assert "unavailable" in out
    assert "error" in json.loads(report.read_text())["estimates"]


def test_analyze_is_deterministic(tmp_path, capsys):
    out = tmp_path / "run"
    run(GEN_ARGS + ["--n", "10", "--out", str(out)], capsys)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rp in (r1, r2):
        code, _, _ = run(["analyze", str(out / "realization_*.csv"), "--out", str(rp)], capsys)
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_pathloss_default_sweep(capsys):
    code, stdout, _ = run(["pathloss"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "x_m,h_m,theta_deg,d_m,orientation,path_loss_db,margin_db"
    assert len(lines) == 1 + 6  # 3 heights x 2 distances, one orientation


def test_pathloss_single_point_geometry(capsys):
    code, stdout, _ = run(["pathloss", "--x", "30", "--h", "10"], capsys)
    assert code == 0
    row = stdout.strip().splitlines()[1].split(",")
    assert row[2] == "71.565"
    assert float(row[3]) == pytest.approx(31.6228, abs=1e-3)
    loss = float(row[5])
    assert float(row[6]) == pytest.approx(-14.5 - loss + 104.0, abs=1e-3)


def test_pathloss_both_orientations(capsys):
    code, stdout, _ = run(["pathloss", "--orient", "VV,VH"], capsys)
    assert code == 0
    assert len(stdout.strip().splitlines()) == 1 + 12


@pytest.mark.parametrize("receiver, separation, loss", [("RX1", "9.9", "71.780"),
                                                     ("RX2", "8.5", "71.058")])
def test_pathloss_h_is_the_antenna_separation(receiver, separation, loss, tmp_path, capsys):
    # generate --h is the platform height; the receiver antenna sits 0.1 m (RX1)
    # or 1.5 m (RX2) above ground, so pathloss --h is the height difference
    code, stdout, _ = run(["pathloss", "--x", "15", "--h", separation], capsys)
    assert code == 0
    assert stdout.splitlines()[1].split(",")[5] == loss
    out = tmp_path / "run"
    argv = GEN_ARGS + ["--rx", receiver, "--n", "1", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    direct = read_realization_csv(out / "realization_00000.csv").amplitudes[0]
    assert f"{path_loss_db(direct**2, reference_power()):.3f}" == loss


def test_generate_underflowing_scatter_power_names_the_link(tmp_path, capsys):
    # at 1e300 m the direct path, and the scatter power 20 dB below it, underflow to 0
    out = tmp_path / "D"
    argv = ["generate", "--scenario", "hovering-open", "--x", "15", "--h", "1e300",
            "--n", "1", "--seed", "1", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "first_path_power" not in err
    assert "hovering-open" in err and "1e+300" in err
    assert not out.exists()


def test_pathloss_rejects_zero_height(capsys):
    code, _, err = run(["pathloss", "--h", "0,10"], capsys)
    assert code == 2
    assert "height" in err


def test_pathloss_crossover_visible_in_sweep(capsys):
    code, stdout, _ = run(["pathloss", "--x", "15,30", "--h", "10,30"], capsys)
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    loss = {(r[0], r[1]): float(r[5]) for r in rows}
    assert loss[("15", "10")] < loss[("30", "10")]
    assert loss[("15", "30")] > loss[("30", "30")]


def test_roundtrip_single_cell_passes(tmp_path, capsys):
    verdict_path = tmp_path / "verdict.json"
    code, stdout, _ = run(
        ["roundtrip", "--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV",
         "--x", "15", "--n", "300", "--seed", "21", "--out", str(verdict_path)],
        capsys,
    )
    assert code == 0
    assert "PASS" in stdout
    verdict = json.loads(verdict_path.read_text())
    assert verdict["all_pass"] is True
    comparisons = verdict["results"][0]["comparisons"]
    assert set(comparisons) == {
        "cluster_rate_per_ns", "ray_rate_per_ns", "cluster_decay", "ray_decay"
    }


def test_roundtrip_small_sample_warns(tmp_path, capsys):
    code, _, err = run(
        ["roundtrip", "--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV",
         "--x", "15", "--n", "3", "--seed", "2", "--out", str(tmp_path / "v.json")],
        capsys,
    )
    assert "sample size below recommendation" in err
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["warnings"]
    assert code in (0, 1)


def test_roundtrip_requires_coordinates(capsys):
    code, _, err = run(["roundtrip", "--n", "10", "--seed", "1"], capsys)
    assert code == 2
    assert "--all" in err


def test_roundtrip_all_cells_batch(tmp_path, capsys):
    verdict_path = tmp_path / "verdict.json"
    code, stdout, _ = run(
        ["roundtrip", "--all", "--n", "60", "--seed", "4", "--out", str(verdict_path)],
        capsys,
    )
    assert code in (0, 1)
    verdict = json.loads(verdict_path.read_text())
    assert len(verdict["results"]) == 24
    assert stdout.strip().splitlines()[-1].endswith("/24 cells pass")


def test_roundtrip_inestimable_cell_fails_without_aborting_the_run(tmp_path, capsys):
    # at --n 1 some cells draw a single cluster, so no cluster inter-arrival exists
    verdict_path = tmp_path / "v.json"
    code, stdout, err = run(
        ["roundtrip", "--all", "--n", "1", "--seed", "1", "--out", str(verdict_path)], capsys
    )
    assert code == 1
    assert "Traceback" not in err and "error:" not in err
    verdict = json.loads(verdict_path.read_text(), parse_constant=pytest.fail)
    results = verdict["results"]
    assert len(results) == 24
    failed = [r for r in results if "error" in r]
    assert failed
    for r in failed:
        assert r["pass"] is False
        assert "comparisons" not in r
        assert isinstance(r["error"], str) and r["error"]
    assert verdict["all_pass"] is False
    assert len(stdout.strip().splitlines()) == 25
    assert stdout.strip().splitlines()[-1].endswith("/24 cells pass")


def test_roundtrip_verdict_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["roundtrip", "--scenario", "moving-circle", "--rx", "RX2", "--orient", "VH",
             "--x", "30", "--n", "150", "--seed", "8", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


ONE_TAP_CSV = "delay_ns,amplitude,phase_rad,cluster_index,ray_index\n0,1,0,0,0\n"


@pytest.mark.parametrize(
    "argv",
    [
        GEN_ARGS + ["--window-ns", "0"],
        GEN_ARGS + ["--window-ns", "-5"],
        GEN_ARGS + ["--dynamic-range-db", "0"],
        ["analyze", "{taps}", "--smoothing-window", "0"],
        # the default 25-sample smoothing window outgrows the 16-sample grid
        ["analyze", "{taps}", "--window-ns", "1"],
        # a file without taps passes the reader's window check
        ["analyze", "{no_taps}", "--window-ns", "0"],
    ],
    ids=["window-0", "window-negative", "dynamic-range-0", "smoothing-0", "smoothing-over-grid",
         "analyze-window-0"],
)
def test_bad_numeric_option_is_config_error(argv, tmp_path, capsys):
    taps, no_taps = tmp_path / "taps.csv", tmp_path / "no_taps.csv"
    taps.write_text(ONE_TAP_CSV)
    no_taps.write_text(ONE_TAP_CSV.splitlines()[0] + "\n")
    argv = [a.format(taps=taps, no_taps=no_taps) for a in argv]
    argv += ["--out", str(tmp_path / ("report.json" if argv[0] == "analyze" else "run"))]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


PARAMS = {
    "n_clusters_mean": 2.0,
    "cluster_rate_per_ns": 0.02,
    "cluster_decay": 0.2,
    "ray_rate_per_ns": 0.1,
    "ray_decay": 1.5,
}
FREE_GEN_ARGS = ["generate", "--scenario", "hovering-open", "--x", "20", "--h", "10",
                 "--seed", "1"]


CONFIG = {"scenario": "hovering-open", "x_m": 15, "h_m": 10, "seed": 1}
# a JSON value of a numeric config field that is no number
NOT_SCALAR = [
    ("window_ns", "null", None), ("window_ns", "list", [1]), ("window_ns", "map", {}),
    *((field, "list", [1]) for field in
      ("n_realizations", "x_m", "xpd_db", "snr_db", "dynamic_range_db", "seed", "jobs")),
]
# a config value of another JSON type than its field takes, which would be
# converted silently: a float count, a string or 1 for a flag, true for a number,
# an integer past the float range
WRONG_TYPE = [
    ("out_dir", "list", [1]), ("waveforms", "string", "false"), ("waveforms", "int", 1),
    ("n_realizations", "float", 2.7), ("jobs", "float", 2.9), ("seed", "float", 3.7),
    ("x_m", "bool", True), ("x_m", "huge", 10**400), ("pattern", "number", 5),
]
# a manifest's embedded pattern that is no gain table
BAD_PATTERN_MAPPINGS = {
    "one_point": {"angles_deg": [0], "gains": [1]},
    "unequal_lengths": {"angles_deg": [0, 90], "gains": [1]},
    "unknown_key": {"angles": [0, 90], "gains": [1, 1]},
    "string_gain": {"angles_deg": [0, 90], "gains": ["1", 1]},
    "bool_angle": {"angles_deg": [False, 90], "gains": [1, 1]},
    "angle_past_float_range": {"angles_deg": [10**400, 90], "gains": [1, 1]},
    "negative_gain": {"angles_deg": [0, 90], "gains": [1, -1]},
}
# elevation-pattern files without a usable gain table
BAD_PATTERNS = {
    "one_point": b"0,1\n",
    "one_field": b"angle_deg,gain_linear\n0,1\n90\n",
    "nan_gain": b"0,1\n90,nan\n",
    "zero_gains": b"0,0\n90,0\n180,0\n",
    "not_utf8": b"0,1\n\xff,2\n",
    # every row after the first is a data row: a typo is not skipped as a header
    "typo_gain": b"0,0.1\n45,0.5x\n90,1.0\n180,0.1\n",
    "three_fields": b"0,0.1\n90,1.0,7\n180,0.1\n",
    "second_header": b"angle_deg,gain_linear\nangle,gain\n0,0.1\n90,1.0\n",
}


def _inputs(tmp_path):
    """Input files the cases below refer to by name."""
    taps = "delay_ns,amplitude,phase_rad,cluster_index,ray_index\n0,1,0,0,0\n{}\n20,0.2,0,1,0\n"
    files = {
        "taps": ONE_TAP_CSV,
        "nan_delay": taps.format("nan,0.5,0,0,1"),
        "nan_amplitude": taps.format("5,nan,0,0,1"),
        "inf_phase": taps.format("5,0.5,inf,0,1"),
        "cluster_past_int64": taps.format("5,0.5,0,99999999999999999999,1"),
        "negative_amplitude": taps.format("5,-0.5,0,0,1"),
        # the first tap's power, 1e400, is past the float range
        "huge_power": "delay_ns,amplitude,phase_rad,cluster_index,ray_index\n"
                      "0,1e200,0,0,0\n5,0.5,0,0,1\n20,0.2,0,1,0\n30,0.1,0,1,1\n",
        "negative_decay": json.dumps(dict(PARAMS, cluster_decay=-0.2)),
        "nan_rate": json.dumps(dict(PARAMS, ray_rate_per_ns=float("nan"))),
        "nan_window": json.dumps({"window_ns": float("nan")}),
        "nan_range": json.dumps({"dynamic_range_db": float("nan")}),
        "inf_snr": json.dumps({"snr_db": float("inf"), "waveforms": True}),
        "params_lack_key": json.dumps(
            {"config": {"scenario": "hovering-open", "x_m": 20, "h_m": 10, "seed": 1,
                        "params": {"n_clusters_mean": 2.0}}}
        ),
        "params_negative": json.dumps(
            {"config": {"scenario": "hovering-open", "x_m": 20, "h_m": 10, "seed": 1,
                        "params": dict(PARAMS, ray_decay=-1.5)}}
        ),
        **{
            f"{field}_{kind}": json.dumps(dict(CONFIG, **{field: value}))
            for field, kind, value in NOT_SCALAR + WRONG_TYPE
        },
        "manifest_list": "[1]",
        "manifest_config_number": json.dumps({"config": 5}),
        "manifest_long_integer": '{"config": {"x_m": %s}}' % ("9" * 5000),
        "seed_negative": json.dumps(dict(CONFIG, seed=-1)),
        "pattern_unreadable": json.dumps(dict(CONFIG, pattern=str(tmp_path / "no_pattern.csv"))),
        **{f"manifest_pattern_{name}": json.dumps({"config": dict(CONFIG, pattern=mapping)})
           for name, mapping in BAD_PATTERN_MAPPINGS.items()},
        "manifest_seed_negative": json.dumps({"config": dict(CONFIG, seed=-1)}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name, blob in BAD_PATTERNS.items():
        (tmp_path / f"{name}_pattern").write_bytes(blob)
    (tmp_path / "not_utf8_taps").write_bytes(ONE_TAP_CSV.encode() + b"5,0.5,0,0,\xff\n")


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (GEN_ARGS + ["--window-ns", "inf"], 2),
        (GEN_ARGS + ["--window-ns", "nan"], 2),
        (GEN_ARGS + ["--config", "{nan_window}"], 2),
        (GEN_ARGS + ["--dynamic-range-db", "nan"], 2),
        (GEN_ARGS + ["--config", "{nan_range}"], 2),
        (GEN_ARGS + ["--waveforms", "--snr-db", "nan"], 2),
        (GEN_ARGS + ["--waveforms", "--snr-db=-inf"], 2),
        (GEN_ARGS + ["--config", "{inf_snr}"], 2),
        # past the float range of 10**(snr/10), or a noise level past it
        (GEN_ARGS + ["--waveforms", "--snr-db", "3100"], 2),
        (GEN_ARGS + ["--waveforms", "--snr-db=-4000"], 2),
        (GEN_ARGS + ["--waveforms", "--snr-db=-3200"], 2),
        (GEN_ARGS + ["--h", "nan"], 2),
        (GEN_ARGS + ["--h", "inf"], 2),
        (GEN_ARGS + ["--xpd-db=-30"], 2),
        (GEN_ARGS + ["--orient", "VH", "--xpd-db", "nan"], 2),
        (["generate", "--scenario", "hovering-foliage", "--x", "15", "--h", "10", "--seed", "1",
          "--xpd-db=-30"], 2),
        (FREE_GEN_ARGS + ["--params-file", "{negative_decay}"], 4),
        (FREE_GEN_ARGS + ["--params-file", "{nan_rate}"], 4),
        (["generate", "--from-manifest", "{params_lack_key}"], 4),
        (["generate", "--from-manifest", "{params_negative}"], 4),
        (["analyze", "{taps}", "--window-ns", "inf"], 2),
        # a window shorter than one sample step leaves the grid without a sample
        (["analyze", "{taps}", "--window-ns", "0.01"], 2),
        # finite, but its scan passes numpy's array size limit; from 1e306
        # on the sample count itself overflows the float range
        (["analyze", "{taps}", "--window-ns", "1e17"], 2),
        (["analyze", "{taps}", "--window-ns", "1e300"], 2),
        (["analyze", "{taps}", "--window-ns", "1e306"], 2),
        # within numpy's limit, but no machine has the 7.96 EiB its scan takes;
        # the allocation fails at once, without touching memory
        (["analyze", "{taps}", "--window-ns", "7e16"], 2),
        # the window is checked before the malformed file is read
        (["analyze", "{nan_delay}", "--window-ns", "inf"], 2),
        (["analyze", "{nan_delay}"], 4),
        (["analyze", "{nan_amplitude}"], 4),
        (["analyze", "{inf_phase}"], 4),
        (["analyze", "{not_utf8_taps}"], 4),
        (["analyze", "{cluster_past_int64}"], 4),
        (["analyze", "{negative_amplitude}"], 4),
        (["analyze", "{huge_power}"], 2),
        # the platform below the receiver antenna, rejected before the output exists
        (GEN_ARGS + ["--rx", "RX2", "--h", "1"], 2),
        (["analyze", "{taps}", "--rise-fall-db", "nan"], 2),
        (["pathloss", "--x", "nan"], 2),
        (["pathloss", "--h", "15,nan"], 2),
        (["pathloss", "--orient", "VV,VH", "--x", "15", "--h", "10", "--xpd-db=-30"], 2),
        (["pathloss", "--xpd-db", "nan"], 2),
        (GEN_ARGS + ["--orient", "VH", "--xpd-db", "inf"], 2),
        (["pathloss", "--xpd-db", "inf"], 2),
        # the direct-path power overflows at a 1e-300 m link: no path loss to print
        (["pathloss", "--x", "1e-300", "--h", "1e-300"], 2),
        *((["generate", "--config", f"{{{field}_{kind}}}"], 2)
          for field, kind, _ in NOT_SCALAR + WRONG_TYPE),
        *((GEN_ARGS + ["--pattern-file", f"{{{name}_pattern}}"], 4) for name in BAD_PATTERNS),
        *((["pathloss", "--pattern-file", f"{{{name}_pattern}}"], 4) for name in BAD_PATTERNS),
        (["generate", "--from-manifest", "{manifest_list}"], 4),
        (["generate", "--from-manifest", "{manifest_config_number}"], 4),
        (["generate", "--from-manifest", "{manifest_long_integer}"], 4),
        (GEN_ARGS + ["--n", "2", "--seed", "-1"], 2),
        (["roundtrip", "--all", "--n", "5", "--seed", "-1"], 2),
        (["generate", "--config", "{seed_negative}"], 2),
        (["generate", "--from-manifest", "{manifest_seed_negative}"], 2),
        (["generate", "--config", "{pattern_unreadable}"], 2),
        *((["generate", "--from-manifest", f"{{manifest_pattern_{name}}}"], 4)
          for name in BAD_PATTERN_MAPPINGS),
    ],
    ids=[
        "window-inf", "window-nan", "window-nan-config", "dynamic-range-nan",
        "dynamic-range-nan-config", "snr-nan", "snr-minus-inf", "snr-inf-config", "snr-huge",
        "snr-huge-negative", "snr-noise-past-float-range", "h-nan",
        "h-inf", "xpd-negative", "xpd-nan", "xpd-negative-obstructed",
        "params-file-negative-decay", "params-file-nan-rate", "manifest-params-lack-key",
        "manifest-params-negative", "analyze-window-inf", "analyze-window-below-one-sample",
        "analyze-window-samples-past-array-size", "analyze-window-samples-far-past-array-size",
        "analyze-window-samples-past-float-range", "analyze-window-scan-past-memory",
        "analyze-window-before-input",
        "analyze-nan-delay", "analyze-nan-amplitude", "analyze-inf-phase",
        "analyze-not-utf8", "analyze-cluster-past-int64", "analyze-negative-amplitude",
        "analyze-power-past-float-range", "uav-below-receiver",
        "analyze-rise-fall-nan", "pathloss-x-nan", "pathloss-h-nan", "pathloss-xpd-negative",
        "pathloss-xpd-nan", "xpd-inf", "pathloss-xpd-inf", "pathloss-power-past-float-range",
        *(f"config-{field}-{kind}" for field, kind, _ in NOT_SCALAR + WRONG_TYPE),
        *(f"generate-pattern-{name}" for name in BAD_PATTERNS),
        *(f"pathloss-pattern-{name}" for name in BAD_PATTERNS),
        "manifest-not-object", "manifest-config-not-object", "manifest-long-integer",
        "seed-negative", "roundtrip-seed-negative", "config-seed-negative",
        "manifest-seed-negative", "config-pattern-unreadable",
        *(f"manifest-pattern-{name}" for name in BAD_PATTERN_MAPPINGS),
    ],
)
def test_out_of_range_input_exits_cleanly_before_writing(argv, expected_code, tmp_path, capsys):
    _inputs(tmp_path)
    argv = [a.format(**{p.name: p for p in tmp_path.iterdir()}) for a in argv]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a non-number
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected_code
    assert "error:" in err
    assert "Traceback" not in err
    assert not out.exists()
    if argv[:2] == ["generate", "--config"]:  # the error names the field
        assert Path(argv[2]).name.rsplit("_", 1)[0] in err.split()
    if expected_code == 4 and argv[0] == "analyze":
        assert argv[1] in err
    if "--pattern-file" in argv:  # the error names the pattern file
        assert argv[argv.index("--pattern-file") + 1] in err


def test_params_file_syntax_error_names_its_line(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text('{\n  "n_clusters_mean": 2.0,\n  "cluster_rate_per_ns": ,\n}\n')
    out = tmp_path / "out"
    code, _, err = run(FREE_GEN_ARGS + ["--params-file", str(pfile), "--out", str(out)], capsys)
    assert code == 4
    assert f"{pfile}:3:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("params", [5, 0, True, 1.5, ["params.json"]])
def test_non_mapping_params_in_config_is_malformed(params, tmp_path, capsys):
    # an integer must not be taken for a file descriptor, nor a list for a path
    cfile = tmp_path / "p5.json"
    cfile.write_text(json.dumps(
        {"scenario": "hovering-open", "x_m": 20, "h_m": 10, "seed": 1, "params": params}
    ))
    out = tmp_path / "out"
    code, _, err = run(["generate", "--config", str(cfile), "--out", str(out)], capsys)
    assert code == 4
    assert str(cfile) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_params_path_string_in_config_still_loads(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(PARAMS))
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps(
        {"scenario": "hovering-open", "x_m": 20, "h_m": 10, "seed": 1, "params": str(pfile)}
    ))
    out = tmp_path / "out"
    code, _, _ = run(["generate", "--config", str(cfile), "--out", str(out)], capsys)
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["params"] == PARAMS


@pytest.mark.parametrize(
    "option, value",
    [
        ("--threshold-frac", "inf"),
        ("--threshold-frac", "0"),
        ("--threshold-frac", "-0.2"),
        ("--threshold-frac", "1.5"),
        ("--rise-fall-db", "inf"),
        ("--rise-fall-db", "-1"),
        ("--min-peak-to-fall-ns", "inf"),
        ("--min-peak-to-fall-ns", "-2"),
    ],
)
def test_analyze_option_out_of_range_exits_2_before_reading(option, value, tmp_path, capsys):
    # the input is malformed too: the option must be rejected before it is read
    bad = tmp_path / "bad.csv"
    bad.write_text("not a tap table\n")
    out = tmp_path / "report.json"
    code, _, err = run(["analyze", str(bad), f"{option}={value}", "--out", str(out)], capsys)
    assert code == 2
    assert option.lstrip("-").replace("-", "_") in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value",
    [("--threshold-frac", "1"), ("--rise-fall-db", "0"), ("--min-peak-to-fall-ns", "0")],
)
def test_analyze_option_range_bounds_accepted(option, value, tmp_path, capsys):
    taps = tmp_path / "taps.csv"
    taps.write_text(ONE_TAP_CSV)
    out = tmp_path / "report.json"
    code, _, _ = run(["analyze", str(taps), f"{option}={value}", "--out", str(out)], capsys)
    assert code == 0
    assert out.exists()


def test_cli_import_loads_no_process_pool():
    # the process pool and the seed source load only when a run needs them
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys, uwbagsim.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'secrets')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
