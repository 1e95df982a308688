"""The ensemble engine's sorts and sums against the literal forms they replace.

``generator._tap_order`` stands for ``np.lexsort((delays, realization))``,
``core._cluster_starts`` for a lexsort by member and cluster, and
``random() * 2π`` for ``uniform(0, 2π)``. Each must give the same bits.
When numpy's argsort takes the radix path is a numpy implementation detail,
so this module needs numpy and hypothesis only and runs at the oldest numpy
the package allows.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbagsim.core import Ensemble, _cluster_starts
from uwbagsim.generator import _tap_order

from strategies import EQUIVALENCE

# delays on a coarse lattice, so two taps of one member often share a delay
_DELAYS = st.one_of(st.floats(0.0, 99.0), st.integers(0, 7).map(lambda k: 12.5 * k))


@st.composite
def _labelled_delays(draw):
    """Delays with member labels in [0, m), in no order, ties likely."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    delays = draw(st.lists(_DELAYS, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return np.array(delays, dtype=float), np.array(labels, dtype=np.int64), m


@EQUIVALENCE
@given(case=_labelled_delays())
def test_tap_order_is_the_lexsort(case):
    delays, labels, m = case
    want = np.lexsort((delays, labels))
    np.testing.assert_array_equal(_tap_order(delays, labels, m), want)


def test_tap_order_keeps_tap_order_between_equal_delays():
    # member 1 holds two taps at 5.0, and the argsort by delay alone may swap them
    delays = np.array([5.0, 1.0, 5.0, 5.0, 0.0, 5.0, 5.0, 2.0])
    labels = np.array([1, 0, 0, 1, 1, 0, 1, 0])
    want = np.lexsort((delays, labels))
    np.testing.assert_array_equal(_tap_order(delays, labels, 2), want)


@pytest.mark.parametrize("m", [2**16, 2**16 + 7], ids=["uint16-largest", "past-uint16"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_tap_order_is_the_lexsort_at_many_members(m, ties):
    rng = np.random.default_rng(m)
    labels = rng.permutation(np.repeat(np.arange(m), 3))
    delays = rng.random(labels.size) * 100.0
    if ties:
        delays[rng.integers(0, labels.size, 50)] = 50.0  # some members tie at 50.0
    want = np.lexsort((delays, labels))
    np.testing.assert_array_equal(_tap_order(delays, labels, m), want)


def _reference_cluster_starts(taps):
    """The lexsort by member and cluster that ``_cluster_starts`` replaces."""
    n_members = taps.offsets.shape[0] - 1
    member = np.repeat(np.arange(n_members), np.diff(taps.offsets))
    order = np.lexsort((taps.cluster_indices, member))
    c, m = taps.cluster_indices[order], member[order]
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = (c[1:] != c[:-1]) | (m[1:] != m[:-1])
    starts = taps.delays_ns[order[opens]]
    per_tap = np.empty_like(taps.delays_ns)
    per_tap[order] = starts[np.cumsum(opens) - 1]
    return starts, np.bincount(m[opens], minlength=n_members), per_tap


def _ensemble(sizes, labels, rng):
    """Members of ``sizes`` taps, delays sorted within each, the given labels."""
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    delays = np.concatenate([np.sort(rng.random(k) * 99.0) for k in sizes] or [np.zeros(0)])
    n = int(offsets[-1])
    return Ensemble(delays, np.ones(n), np.zeros(n), np.asarray(labels, dtype=np.int64),
                    np.zeros(n, dtype=int), offsets)


def _assert_same_cluster_starts(ens):
    for got, want in zip(_cluster_starts(ens), _reference_cluster_starts(ens)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# negative, sparse and far-apart labels, spans past uint16's keys included
_LABELS = st.one_of(st.integers(-4, 6), st.sampled_from([-(2**40), 17, 10**6, 2**50]))


@EQUIVALENCE
@given(data=st.data())
def test_cluster_starts_match_the_lexsort(data):
    sizes = data.draw(st.lists(st.integers(0, 6), min_size=0, max_size=8))
    labels = data.draw(st.lists(_LABELS, min_size=sum(sizes), max_size=sum(sizes)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    _assert_same_cluster_starts(_ensemble(sizes, labels, np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "sizes, labels",
    [
        ([0, 0], []),  # members, no taps
        ([], []),  # no members
        ([2, 0, 3], [5, -5, 0, 3, 0]),  # an empty member between two
        # span 2**61 + 1 over 3 members: far past uint16, so the lexsort
        ([2, 1, 2], [0, 2**61, 2**61, 0, 2**61]),
        # span 2**63 + 1: the span itself passes int64
        ([2, 1], [-(2**62), 2**62, 0]),
        # the int64 extremes, as a file may carry them
        ([3], [np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0]),
        # 2**16 keys exactly (uint16) and one past them (lexsort)
        ([2, 2], [0, 2**15 - 1, 2**15 - 1, 0]),
        ([2, 2], [0, 2**15, 2**15, 0]),
        # many taps to a cluster: only a stable sort keeps each group's first tap first
        ([40, 40], [k % 3 for k in range(80)]),
    ],
    ids=["no-taps", "no-members", "empty-member", "span-near-int64", "span-past-int64",
         "int64-extremes", "uint16-largest", "past-uint16", "many-ties"],
)
def test_cluster_starts_match_the_lexsort_at_the_edges(sizes, labels):
    _assert_same_cluster_starts(_ensemble(sizes, labels, np.random.default_rng(0)))


@EQUIVALENCE
@given(sizes=st.lists(st.integers(0, 300), min_size=1, max_size=5),
       seed=st.integers(0, 2**63))
def test_phase_draw_is_uniform_over_two_pi(sizes, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.concatenate([a.uniform(0.0, 2.0 * math.pi, size=k) for k in sizes])
    got = np.concatenate([b.random(k) for k in sizes])
    got *= 2.0 * math.pi
    assert got.tobytes() == want.tobytes()
