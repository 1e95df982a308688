"""The source paper's abstract, read as checks on the model.

Each claim compares ensembles of 500 realizations per link, with criterion
7's path-loss recipe (mean received power against the free-space reference
at 1 m), over RX1/RX2, x = 15/30 m, h = 10/20/30 m and both antenna
orientations.
"""

import functools
import itertools

import numpy as np
import pytest

from uwbagsim.analysis import average_significant_mpcs
from uwbagsim.core import LinkConfig, Orientation, Receiver, Scenario, chunk_ranges
from uwbagsim.generator import GeneratorConfig
from uwbagsim.linkbudget import path_loss_db, received_power, reference_power
from uwbagsim.simulate import LinkScenario, realize_batch

N = 500
SEED = 11
LINKS = list(itertools.product(Receiver, (15.0, 30.0), (10.0, 20.0, 30.0)))


@functools.cache
def _link_stats(scenario, receiver, orientation, x, h):
    """Ensemble path loss, dB, and mean significant-MPC count at one link."""
    link_scenario = LinkScenario.from_tables(scenario, LinkConfig(receiver, orientation, x, h))
    config = GeneratorConfig(seed=SEED)
    chunks = [realize_batch(link_scenario, config, indices) for indices in chunk_ranges(N)]
    mean_power = np.mean(np.concatenate([received_power(c).p_total for c in chunks]))
    loss = path_loss_db(float(mean_power), reference_power())
    return loss, average_significant_mpcs(chunks)


def test_foliage_adds_path_loss_and_significant_mpcs():
    # "additional path loss and a larger number of MPCs were observed for the OLOS scenario"
    failed = []
    for (receiver, x, h), orientation in itertools.product(LINKS, Orientation):
        link = (receiver, orientation, x, h)
        open_loss, open_mpcs = _link_stats(Scenario.HOVERING_OPEN, *link)
        foliage_loss, foliage_mpcs = _link_stats(Scenario.HOVERING_FOLIAGE, *link)
        if not (foliage_loss > open_loss and foliage_mpcs > open_mpcs):
            failed.append((link, open_loss, foliage_loss, open_mpcs, foliage_mpcs))
    assert not failed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the cross-polarization discrimination applies to the direct path alone, the "
    "same way in every unblocked scenario, so the VH-VV gap is the 10 dB XPD whether "
    "the platform hovers or moves",
)
def test_motion_shrinks_the_path_loss_gap_of_orientation_mismatch():
    # "the antenna orientation mismatch has smaller effects on the path loss than when
    # the UAV is hovering"
    for receiver, x, h in LINKS:
        gap = {
            scenario: _link_stats(scenario, receiver, Orientation.VH, x, h)[0]
            - _link_stats(scenario, receiver, Orientation.VV, x, h)[0]
            for scenario in (Scenario.HOVERING_OPEN, Scenario.MOVING_CIRCLE)
        }
        assert gap[Scenario.MOVING_CIRCLE] <= gap[Scenario.HOVERING_OPEN] - 1.0, (receiver, x, h)
