"""Hypothesis strategies shared by the reference-equivalence tests."""

import math
import sys

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from uwbagsim.core import ChannelRealization

# Deterministic example sets, so a run of the suite is reproducible; no
# example database is written next to the sources.
EQUIVALENCE = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Delays on a coarse lattice collide, so ties (within a cluster and across
# clusters) come up as often as distinct values.
_delays = st.one_of(st.floats(0.0, 99.0), st.integers(0, 39).map(lambda k: 2.5 * k))


@st.composite
def tap_sets(draw, min_taps=0, max_taps=24):
    """Realizations whose cluster labels are unordered in delay,
    non-contiguous and possibly negative."""
    n = draw(st.integers(min_taps, max_taps))
    delays = sorted(draw(st.lists(_delays, min_size=n, max_size=n)))
    labels = draw(st.lists(st.integers(-4, 6), min_size=n, max_size=n))
    amps = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    los = draw(st.sampled_from([0.0, 1.5]))
    return ChannelRealization(
        np.array(delays, dtype=float),
        np.array(amps, dtype=float),
        np.zeros(n),
        np.array(labels, dtype=int),
        np.arange(n),
        los_amplitude=los,
    )


# Every kind of double the CSV writers print with %.17g, and every int64.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, sys.float_info.max, math.nan, math.inf, -math.inf]),
)
INT64S = st.integers(-(2**63), 2**63 - 1)
NOT_NUMBERS = ["", "abc", "1.2.3", "0x10", "nan(1)", "1e", "1.5", "--1"]


# Line ends and in-row characters that a written scan never holds, each of
# which leaves a file to the line reader: str.splitlines breaks a line at each
# of them but \x1f, which float() rejects around a number.
LINE_READER_ENDS = ["\r\n", "\r"]
LINE_READER_CHARS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x1f"]


@st.composite
def csv_texts(draw, header, rows, line_reader_faults=False):
    """Text of a header-first CSV whose value rows ``rows`` draws, with empty
    lines, rows of the wrong field count and non-numbers put in between;
    now and then the header is wrong or the file is empty.

    With ``line_reader_faults``, the faults also take whitespace-only lines,
    underscored numbers and rows with one of LINE_READER_CHARS inside or at
    the end, and a line now and then ends in one of LINE_READER_ENDS.
    """
    width = header.count(",") + 1
    lines = [",".join(f"{v:.17g}" if isinstance(v, float) else f"{v:d}" for v in row)
             for row in draw(rows)]
    faults = ["empty", "count", "not a number"]
    if line_reader_faults:
        faults += ["blank", "underscore", "control"]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(faults))
        fields = ["1"] * width
        if fault == "empty":
            line = ""
        elif fault == "blank":
            line = draw(st.sampled_from([" ", "\t", " \t "]))
        elif fault == "count":
            n = draw(st.integers(1, width + 2).filter(lambda n: n != width))
            line = ",".join(["1"] * n)
        elif fault == "control":
            line = ",".join(fields)
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_READER_CHARS)) + line[at:]
        else:
            spellings = NOT_NUMBERS if fault == "not a number" else ["1_5", "1_000.5", "1e1_0"]
            fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(spellings))
            line = ",".join(fields)
        lines.insert(draw(st.integers(0, len(lines))), line)
    first = draw(st.sampled_from([header] * 8 + [header.upper(), ""]))
    ends = st.sampled_from(["\n"] * 6 + LINE_READER_ENDS if line_reader_faults else ["\n"])
    text = first + "".join(draw(ends) + line for line in lines) + draw(st.sampled_from(["", "\n"]))
    return "" if draw(st.sampled_from([False] * 19 + [True])) else text
