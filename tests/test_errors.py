"""Every library range check raises ``InvalidValue``, which is a ``ValueError``."""

import pickle

import pytest

from uwbagsim import errors
from uwbagsim.errors import (
    InvalidGeometry,
    InvalidRate,
    InvalidValue,
    MalformedFile,
    NonPositivePower,
    UwbAgSimError,
    WindowTooSmall,
)
from uwbagsim.generator import GeneratorConfig, draw_cluster_arrivals, realization_rng
from uwbagsim.geometry import LinkGeometry
from uwbagsim.linkbudget import path_loss_db


@pytest.mark.parametrize(
    "kind, call",
    [
        (InvalidGeometry, lambda: LinkGeometry(x_m=0.0, h_m=10.0)),
        (InvalidRate, lambda: draw_cluster_arrivals(0.0, 100.0, realization_rng(1))),
        (WindowTooSmall, lambda: GeneratorConfig(window_ns=0.5)),
        (NonPositivePower, lambda: path_loss_db(0.0, 1.0)),
    ],
    ids=["geometry", "rate", "window", "power"],
)
def test_range_errors_are_invalid_values(kind, call):
    with pytest.raises(InvalidValue) as err:
        call()
    assert type(err.value) is kind
    assert isinstance(err.value, ValueError)
    assert isinstance(err.value, UwbAgSimError)


PUBLIC_ERRORS = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, Exception)]


@pytest.mark.parametrize("kind", PUBLIC_ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(kind):
    # a pool worker's error reaches the parent pickled
    err = kind("a.csv", 3, "bad") if issubclass(kind, MalformedFile) else kind("went wrong")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is kind
    assert str(back) == str(err) and back.args == err.args
    if isinstance(err, MalformedFile):
        assert (back.path, back.line, back.reason) == ("a.csv", 3, "bad")
        assert str(back) == "a.csv:3: bad"
