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


@st.composite
def csv_texts(draw, header, rows):
    """Text of a header-first CSV whose value rows ``rows`` draws, with empty
    lines, rows of the wrong field count and non-numbers put in between;
    now and then the header is wrong or the file is empty."""
    width = header.count(",") + 1
    lines = [",".join(f"{v:.17g}" if isinstance(v, float) else f"{v:d}" for v in row)
             for row in draw(rows)]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["empty", "count", "not a number"]))
        if fault == "empty":
            line = ""
        elif fault == "count":
            n = draw(st.integers(1, width + 2).filter(lambda n: n != width))
            line = ",".join(["1"] * n)
        else:
            fields = ["1"] * width
            fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(NOT_NUMBERS))
            line = ",".join(fields)
        lines.insert(draw(st.integers(0, len(lines))), line)
    first = draw(st.sampled_from([header] * 8 + [header.upper(), ""]))
    text = "\n".join([first, *lines]) + draw(st.sampled_from(["", "\n"]))
    return "" if draw(st.sampled_from([False] * 19 + [True])) else text
