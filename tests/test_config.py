"""Every leaf of every config dataclass against hostile values.

The leaves are read from `dataclasses.fields`, so a field added to one of the
classes is covered here without a new test.
"""

import dataclasses
import json
import math
import numbers
import re
import typing

import numpy as np
import pytest

from clclsa import data as dt
from clclsa import evaluation as ev
from clclsa import model as md
from clclsa import train as tr

# each class with the required arguments it needs to build
CONFIGS = [
    (md.ModelConfig, {"num_views": 3, "input_dims": (6, 6, 6), "embed_dims": (4, 4, 4),
                      "num_classes": 2}),
    (md.LossWeights, {}),
    (tr.TrainConfig, {}),
    (tr.GridSpec, {}),
    (dt.SyntheticSpec, {}),
    (dt.MissingnessSpec, {"eta": 0.2, "seed": 1}),
    (dt.SplitSpec, {}),
    (ev.AblationSpec, {}),
]

LEAVES = [(cls, required, f.name) for cls, required in CONFIGS for f in dataclasses.fields(cls)]

# JSON's true, null, [] and {} are True, None, [] and {}; 1e309 parses as inf
PROBES = ["x", "nan", "1.5", 1e309, -1e309, float("nan"), True, None, [], {}, -1, 2.5]


def is_of(value, hint) -> bool:
    """Whether a stored value has the annotated type; a bool is neither int nor real."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int:
        return type(value) is int
    if hint is float:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    if hint is str:
        return isinstance(value, str)
    if origin is typing.Literal:
        return isinstance(value, str) and value in args
    if origin is tuple:
        return isinstance(value, tuple) and all(is_of(v, args[0]) for v in value)
    if origin is typing.Union:
        return value is None or is_of(value, args[0])
    return isinstance(value, hint)


def test_every_class_builds_from_its_defaults():
    for cls, required in CONFIGS:
        config = cls(**required)
        hints = typing.get_type_hints(cls)
        assert all(is_of(getattr(config, f.name), hints[f.name])
                   for f in dataclasses.fields(cls)), config


@pytest.mark.parametrize("cls, required, leaf", LEAVES,
                         ids=[f"{cls.__name__}.{leaf}" for cls, _, leaf in LEAVES])
@pytest.mark.parametrize("value", PROBES, ids=[repr(p) for p in PROBES])
def test_leaf_builds_typed_or_raises_value_error_naming_it(cls, required, leaf, value):
    try:
        config = cls(**{**required, leaf: value})
    except ValueError as exc:
        assert re.search(rf"\b{leaf}\b", str(exc)), exc
    else:
        assert is_of(getattr(config, leaf), typing.get_type_hints(cls)[leaf])


def test_real_leaf_keeps_the_value_as_given():
    """A real is stored as given, not converted, so a serialized config keeps its bytes."""
    weights = md.LossWeights(lambda_co=np.float64(0.1), alpha=9)
    assert type(weights.lambda_co) is np.float64 and type(weights.alpha) is int
    assert json.dumps(dataclasses.asdict(weights)) == (
        '{"lambda_al": 0.0, "lambda_co": 0.1, "lambda_cl": 0.0, "alpha": 9}')
