"""Bounded fuzz of the command-line options: no value gives a traceback.

Every run ends in one of the documented exit codes, and a configuration
error (exit 2) leaves nothing on disk. ``--window-ns`` stays within 1e4 ns,
since a larger window allocates window-sized arrays; ``--jobs`` is left out,
since it starts worker processes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from uwbagsim.cli import main

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


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    return code, err.getvalue()


def _check(argv, out, codes=(0, 1, 2, 4)):
    code, err = _run(argv + ["--out", str(out)])
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists(), argv


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
        code, _ = _run(["generate", *README_CELL, "--x", "15", "--h", "10", "--seed", "7",
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
