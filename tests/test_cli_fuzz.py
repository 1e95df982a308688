"""Bounded fuzz of the command-line options, of ``--config`` and
``--from-manifest`` files and of ``analyze``'s input files: no value gives a
traceback.

Every run ends in one of the documented exit codes, and a configuration
error (exit 2) or a malformed input (exit 4) leaves nothing on disk.
Windows stay within 1e4 ns, since a larger window allocates window-sized
arrays, and realization counts stay small; ``--jobs`` never exceeds 1,
since more starts worker processes.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from uwbagsim.cli import CONFIG_FIELDS, SEED_ENV_VAR, main
from uwbagsim.core import TABLE_DISTANCES_M, Orientation, Receiver, Scenario
from uwbagsim.generator import REALIZATION_CSV_HEADER

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# the README's cell: hovering-open, RX1, VV, x = 15 m, h = 10 m
README_CELL = ["--scenario", "hovering-open", "--rx", "RX1", "--orient", "VV"]


def _numbers(*typical):
    """Option values: typical ones, any float (inf included), and integers."""
    return st.one_of(
        st.sampled_from(typical),
        st.floats(allow_nan=False),
        st.integers(-(10**6), 10**6),
    ).map(repr)


WINDOWS = st.one_of(st.sampled_from([100.0, 1.0, 0.061, 0.062]),
                    st.floats(-1e4, 1e4)).map(repr)

GENERATE_OPTIONS = st.fixed_dictionaries(
    {},
    optional={
        "--x": _numbers(15, 30),
        "--h": _numbers(10, 20, 30, 0.1),
        "--seed": st.integers(-5, 2**130).map(repr),
        "--xpd-db": _numbers(0, 25),
        "--snr-db": _numbers(20, 300, -300),
        "--window-ns": WINDOWS,
        "--dynamic-range-db": _numbers(48, 1e-300),
    },
)

ANALYZE_OPTIONS = st.fixed_dictionaries(
    {},
    optional={
        "--window-ns": WINDOWS,
        "--smoothing-window": st.integers(-3, 2000).map(repr),
        "--rise-fall-db": _numbers(10, 0),
        "--min-peak-to-fall-ns": _numbers(2, 0),
        "--threshold-frac": _numbers(0.2, 1),
    },
)


def _distances(*typical):
    """Comma lists of one to three distances, the typical ones drawn most often."""
    value = st.one_of(st.sampled_from(typical).map(repr), _numbers(*typical))
    return st.lists(value, min_size=1, max_size=3).map(",".join)


# a 1e-300 m link overflows the direct-path power
PATHLOSS_OPTIONS = st.fixed_dictionaries(
    {"--x": _distances(15, 1e-300), "--h": _distances(10, 1e-300)},
    optional={
        "--xpd-db": _numbers(0, 25),
        "--orient": st.one_of(st.sampled_from(["VV", "VH", "VV,VH"]),
                              st.text("VH, x", max_size=6)),
    },
)


def _values(enum):
    return [e.value for e in enum]


# a single table cell, its distance drawn from the tables or junk
ROUNDTRIP_OPTIONS = st.fixed_dictionaries(
    {
        "--scenario": st.sampled_from(_values(Scenario)),
        "--rx": st.sampled_from(_values(Receiver)),
        "--orient": st.sampled_from(_values(Orientation)),
        "--x": st.one_of(st.sampled_from(TABLE_DISTANCES_M).map(repr),
                         st.sampled_from(["15", "30", "3e1"]), _numbers(15, 30),
                         st.text(max_size=6)),
        "--n": st.integers(1, 4).map(repr),
        "--seed": st.integers(-5, 2**130).map(repr),
    },
    optional={"--decay-mode": st.one_of(st.sampled_from(["rate", "time-constant"]),
                                        st.text(max_size=8))},
)

# Any JSON value, as Python's json module reads it (NaN and Infinity included).
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(),
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


# Typical values for each config field. A realization count above 3, a
# window above 1e4 ns or more than one job is never drawn.
CONFIG_VALUES = {
    "scenario": st.sampled_from(_values(Scenario)),
    "receiver": st.sampled_from(_values(Receiver)),
    "orientation": st.sampled_from(_values(Orientation)),
    "x_m": st.sampled_from(TABLE_DISTANCES_M),
    "h_m": st.sampled_from([10, 20.0, 0.1]),
    "n_realizations": st.integers(-1, 3),
    "seed": st.integers(-5, 2**130),
    "decay_mode": st.sampled_from(["rate", "time-constant"]),
    "amplitude_fading": st.sampled_from(["deterministic", "rayleigh"]),
    "xpd_db": st.sampled_from([0, 25.0]),
    "snr_db": st.sampled_from([None, 20, -300.0]),
    "window_ns": st.one_of(st.sampled_from([100.0, 37, 0.061]), st.floats(max_value=1e4)),
    "dynamic_range_db": st.sampled_from([None, 48, 1e-300]),
    "out_dir": st.just("ignored"),  # the --out flag overrides it
    "params": st.none(),
    "pattern": st.sampled_from([None, {"angles_deg": [0, 90.0, 180], "gains": [0.2, 1, 0.5]}]),
    "waveforms": st.booleans(),
    "jobs": st.integers(-1, 1),
}
assert set(CONFIG_VALUES) == set(CONFIG_FIELDS)
REQUIRED = ("scenario", "x_m", "h_m")
LIMITS = {"n_realizations": 3, "window_ns": 1e4, "jobs": 1}


def _within_limit(field, value):
    """False for a count or a window past its limit; a non-number passes."""
    return not (field in LIMITS and type(value) in (int, float) and value > LIMITS[field])


@st.composite
def config_docs(draw):
    """A config file of typical values, with up to two fields set to any JSON value."""
    doc = draw(st.fixed_dictionaries(
        {field: CONFIG_VALUES[field] for field in REQUIRED},
        optional={f: v for f, v in CONFIG_VALUES.items() if f not in REQUIRED},
    ))
    for field in draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=2)):
        doc[field] = draw(JSON_VALUES.filter(lambda v: _within_limit(field, v)))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(argv, out, codes=(0, 1, 2, 4)):
    code, stdout, err = _run(argv + ["--out", str(out)])
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err
    if code in (2, 4):
        assert not out.exists(), argv
    return code, stdout


@FUZZ
@given(options=GENERATE_OPTIONS)
def test_generate_numeric_options_fail_cleanly(options):
    argv = ["generate", *README_CELL, "--x", "15", "--h", "10", "--seed", "7",
            "--fading", "rayleigh", "--snr-db", "20", "--n", "1", "--waveforms"]
    argv += [f"{flag}={value}" for flag, value in options.items()]
    with tempfile.TemporaryDirectory() as tmp:
        _check(argv, Path(tmp) / "run")


@FUZZ
@given(options=ANALYZE_OPTIONS)
def test_analyze_numeric_options_fail_cleanly(options):
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        code, _, _ = _run(["generate", *README_CELL, "--x", "15", "--h", "10", "--seed", "7",
                        "--n", "3", "--dynamic-range-db", "inf", "--out", str(run)])
        assert code == 0
        argv = ["analyze", str(run / "realization_*.csv")]
        argv += [f"{flag}={value}" for flag, value in options.items()]
        _check(argv, Path(tmp) / "report.json")


@FUZZ
@given(options=PATHLOSS_OPTIONS)
def test_pathloss_options_fail_cleanly(options):
    argv = ["pathloss"] + [f"{flag}={value}" for flag, value in options.items()]
    with tempfile.TemporaryDirectory() as tmp:
        _check(argv, Path(tmp) / "sweep.csv", codes=(0, 2, 4))


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


@FUZZ
@given(options=ROUNDTRIP_OPTIONS)
def test_roundtrip_single_cell_options_fail_cleanly(options):
    argv = ["roundtrip"] + [f"{flag}={value}" for flag, value in options.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verdict.json"
        code, stdout = _check(argv, out, codes=(0, 1, 2))
        if code == 2:
            assert stdout == "", argv
        # a table cell, a seed and a decay mode the CLI accepts always give a verdict,
        # even for an ensemble too small to estimate from
        valid = (_float_or_none(options["--x"]) in TABLE_DISTANCES_M
                 and int(options["--seed"]) >= 0
                 and options.get("--decay-mode", "rate") in ("rate", "time-constant"))
        if valid:
            assert code in (0, 1), (argv, code)
            verdict = json.loads(out.read_text())
            assert len(verdict["results"]) == 1
            assert verdict["all_pass"] is (code == 0)


@FUZZ
@given(doc=config_docs())
def test_generate_config_values_fail_cleanly(doc):
    # a config without a seed takes it from the environment, so every run is the same
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {SEED_ENV_VAR: "7"}):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        _check(["generate", "--config", str(config)], Path(tmp) / "run")


@FUZZ
@given(doc=config_docs())
def test_generate_from_manifest_values_fail_cleanly(doc):
    # the same documents, as the config of a manifest
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {SEED_ENV_VAR: "7"}):
        manifest = Path(tmp) / "manifest.json"
        manifest.write_text(json.dumps({"config": doc}))
        _check(["generate", "--from-manifest", str(manifest)], Path(tmp) / "run",
               codes=(0, 2, 4))

# typical amplitudes, negative ones, 0, a subnormal whose power underflows to 0,
# and one whose power overflows
AMPLITUDES = st.one_of(st.sampled_from([1.0, 0.5, 0.2, 1e-3]), st.floats(-2.0, -0.0),
                       st.sampled_from([0.0, -0.0, 1e-320, 1e200]))

TAP_ROWS = st.tuples(st.floats(0.0, 99.0), AMPLITUDES,
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(0, 3), st.integers(0, 3))


@FUZZ
@given(files=st.lists(st.lists(TAP_ROWS, max_size=6), min_size=1, max_size=3))
def test_analyze_realization_contents_fail_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, rows in enumerate(files):
            path = Path(tmp) / f"realization_{k}.csv"
            lines = [f"{d!r},{a!r},{p!r},{c},{r}" for d, a, p, c, r in sorted(rows)]
            path.write_text("\n".join([REALIZATION_CSV_HEADER, *lines]) + "\n")
            paths.append(str(path))
        _check(["analyze", *paths], Path(tmp) / "report.json", codes=(0, 2, 4))
