"""Hypothesis strategies shared by the reference-equivalence tests."""

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
