"""The realization streams equal numpy's SeedSequence -> PCG64 streams, word for word.

Needs only numpy, pytest and hypothesis, so it also runs against the oldest
numpy the package allows.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbagsim.cli import _cell_seed
from uwbagsim.errors import InvalidValue
from uwbagsim.generator import _streams, realization_rng, stream_words

from strategies import EQUIVALENCE


def _near(*powers):
    """Integers within 40 of 0 and of each 2**p: where the 32-bit word count of a value changes."""
    return st.one_of(
        st.integers(0, 40),
        *(st.integers(2**p - 40, 2**p + 40) for p in powers),
        st.integers(0, 2**(max(powers) + 8)),
    )


SEEDS = _near(32, 64, 96, 128, 160, 256)
FIRST_INDICES = _near(32, 64)


def _reference_words(seed, indices):
    return np.array(
        [np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
         for i in indices],
        dtype=np.uint64,
    ).reshape(len(indices), 4)


@EQUIVALENCE
@given(seed=SEEDS, start=FIRST_INDICES, length=st.integers(0, 70),
       step=st.sampled_from([1, 3, -1]))
def test_stream_words_equal_seed_sequence_words(seed, start, length, step):
    indices = range(start, max(start + step * length, -1), step)
    words = stream_words(seed, indices)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.tobytes() == _reference_words(seed, indices).tobytes()


@EQUIVALENCE
@given(seed=SEEDS, start=FIRST_INDICES, length=st.integers(1, 4))
def test_streams_draw_what_seed_sequence_streams_draw(seed, start, length):
    indices = range(start, start + length)
    for got, index in zip(_streams(seed, indices), indices):
        want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.exponential(2.0, 5).tobytes() == want.exponential(2.0, 5).tobytes()
        assert got.uniform(0.0, 1.0, 3).tobytes() == want.uniform(0.0, 1.0, 3).tobytes()


@EQUIVALENCE
@given(base_seed=SEEDS)
def test_cell_seeds_are_unchanged(base_seed):
    for cell in range(24):
        words = np.random.SeedSequence(entropy=base_seed, spawn_key=(cell,)).generate_state(
            1, dtype=np.uint64
        )
        assert _cell_seed(base_seed, cell) == int(words[0])


@pytest.mark.parametrize("seed", [0, 2**128, 2**200])
def test_stream_words_builds_one_seed_sequence_per_batch(seed, monkeypatch):
    built = []

    def counting_seed_sequence(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    stream_words(seed, range(2**32 - 70, 2**32))
    assert len(built) <= 1


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-(2**70), 5)])
def test_negative_seed_or_index_is_invalid_value(seed, index):
    with pytest.raises(InvalidValue):
        realization_rng(seed, index)
    with pytest.raises(InvalidValue):
        stream_words(seed, range(index, index + 2))


def test_batch_seed_words_serve_pcg64_only():
    seed_seq = _streams(3, range(4, 6))[0].bit_generator.seed_seq
    with pytest.raises(InvalidValue):
        seed_seq.generate_state(8, np.uint32)


def test_realization_rng_keeps_numpys_seed_sequence():
    seed_seq = realization_rng(3, 4).bit_generator.seed_seq
    assert isinstance(seed_seq, np.random.SeedSequence)
    assert (seed_seq.entropy, seed_seq.spawn_key) == (3, (4,))


def test_import_loads_no_numpy_random():
    import uwbagsim

    # import the same uwbagsim this test process sees; a numpy that loads
    # numpy.random itself (numpy 1.x does) is not counted against the package
    env = {**os.environ, "PYTHONPATH": str(Path(uwbagsim.__file__).resolve().parents[1])}
    probe = (
        "import sys, numpy; before = set(sys.modules); import uwbagsim; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
