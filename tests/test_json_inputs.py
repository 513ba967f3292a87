"""Every JSON input that loads writes back the JSON value it was read from;
anything else is refused with a ValidationError, which ``rakelgen`` reports
with exit status 2. No input may fail in another way (exit status 1).

The inputs are small artifacts of all six strategies, a registry and a
synthesis config, each with one field mutated: a boolean made an integer or
an integer a boolean, an integer made a float or a string, a value replaced
by null, NaN, infinity or 2**64, an array entry dropped or duplicated, or an
object given an extra key. Written back, ints and floats of equal value count
as equal, NaN equals NaN and a boolean is not a number.

A dataset line, mutated at its week values (the largest floats, subnormals,
integers past a float, a number that reads as infinity), its factor keys (one
in upper case, or repeated in another case) or its week entries (one dropped
or repeated), must load with finite features or exit 2 naming its line or its
record, and both of ``load_dataset``'s readers must agree on it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import synth_config_dict, train
from rakelgen.cli import main
from rakelgen.domain import (
    _bulk_block, _checked_block, _parse_registry, default_registry, load_dataset,
    record_to_dict, registry_to_dict,
)
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.features import feature_matrix
from rakelgen.mlc import RakelConfig
from rakelgen.model_io import model_from_dict, model_to_dict
from rakelgen.synth import SCALAR_FIELDS, config_from_dict, default_synth_config, generate_dataset
from rakelgen.tree import TreeConfig

INPUTS = ("br", "chain-predicted", "chain-real", "majority", "lp", "rakel", "registry", "config")


@lru_cache(maxsize=None)
def _documents() -> dict:
    """Each input as ``json.loads`` gives it: artifacts of 20 students over
    4 weeks (a RAkEL of 4 members), the packaged registry and a config."""
    registry = default_registry()
    ds = generate_dataset(default_synth_config(n_students=20, weeks=4, seed=1), registry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelCoverageWarning)
        models = {
            "br": train("br", ds, tree_config=TreeConfig(max_depth=3)),
            "chain-predicted": train("chain-predicted", ds, tree_config=TreeConfig(max_depth=3)),
            "chain-real": train("chain-real", ds, tree_config=TreeConfig(max_depth=3)),
            "majority": train("majority", ds),
            "lp": train("lp", ds),
            "rakel": train("rakel", ds, rakel_config=RakelConfig(k=3, m=4, seed=0)),
        }
    documents = {name: model_to_dict(model, registry) for name, model in models.items()}
    documents["registry"] = registry_to_dict(registry)
    documents["config"] = synth_config_dict(n_students=5)
    return documents


def _config_written(config) -> dict:
    """A synthesis config as the JSON object of its file."""
    return {name: getattr(config, name) for name in SCALAR_FIELDS} | {
        "correlation_pairs": [[a.key, b.key, r] for a, b, r in config.correlation_pairs],
        "factors": {f.key: dataclasses.asdict(p) for f, p in config.factors.items()},
        "policy": {f.key: dataclasses.asdict(t) for f, t in config.policy.items()},
    }


def _written_back(name: str, document):
    """``document`` loaded as input ``name`` and written out again."""
    if name == "registry":
        return registry_to_dict(_parse_registry(document, "registry.json"))
    if name == "config":
        return _config_written(config_from_dict(document))
    registry = default_registry()
    return model_to_dict(model_from_dict(document, registry), registry)


def _replacements(value) -> list:
    """The mutations of one JSON value: values that replace it, and for an
    array or an object, functions of it that drop, repeat or add an entry."""
    if type(value) is bool:
        return [int(value), None]
    if type(value) is int:
        return [value % 2 == 1, float(value), str(value), None, math.nan, math.inf, 2**64]
    if type(value) is float:
        return [str(value), True, None, math.nan, -math.inf, 2**64]
    if type(value) is list:
        return [None, 0] + [_drop(i) for i in range(min(len(value), 2))] + [_twice(0)] * bool(value)
    if type(value) is dict:
        return [None, [], lambda container: container | {"extra": 0}]
    return [None, 1]


def _drop(i):
    return lambda entries: entries[:i] + entries[i + 1 :]


def _twice(i):
    return lambda entries: entries[: i + 1] + entries[i:]


@st.composite
def _mutated(draw, name: str):
    """Input ``name`` with one value replaced: the walk from the root goes
    into one of the first three entries of each array or any value of an
    object, and stops at a value to mutate."""
    def walk(value):
        children = (
            list(value) if type(value) is dict
            else list(range(min(len(value), 3))) if type(value) is list
            else []
        )
        if not children or draw(st.integers(0, 5)) == 0:
            replacement = draw(st.sampled_from(_replacements(value)))
            return replacement(value) if callable(replacement) else replacement
        key = draw(st.sampled_from(children))
        copy = dict(value) if type(value) is dict else list(value)
        copy[key] = walk(value[key])
        return copy

    return walk(_documents()[name])


def _same(a, b) -> bool:
    """JSON equality where numbers compare by value, NaN equals NaN and a
    boolean equals only the same boolean."""
    if type(a) is bool or type(b) is bool:
        return type(a) is type(b) and a == b
    if type(a) in (int, float) and type(b) in (int, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


@pytest.mark.parametrize("name", INPUTS)
def test_unmutated_input_writes_back_as_read(name):
    document = _documents()[name]
    assert _same(_written_back(name, document), document)


@pytest.mark.parametrize("name", INPUTS)
@settings(max_examples=200)
@given(data=st.data())
def test_mutated_input_loads_back_or_is_refused(name, data):
    document = data.draw(_mutated(name))
    try:
        written = _written_back(name, document)
    except ValidationError:
        return
    assert _same(written, document)


#: Week values that replace an entry of a dataset line: the largest floats
#: (one alone keeps the features finite, a series of them does not), the
#: smallest subnormals and normals, and integers a float holds or does not.
_EXTREMES = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 2**64, -(2**64),
             2**1024 - 2**970 - 1, 2**1024 - 2**970, -(2**1024), 10**400]


@lru_cache(maxsize=None)
def _lines() -> tuple[str, dict]:
    """A good dataset line and the object of another record's line."""
    ds = generate_dataset(default_synth_config(n_students=2, weeks=4, seed=1), default_registry())
    good, other = (record_to_dict(*record) for record in ds.records)
    return json.dumps(good), other


@st.composite
def _mutated_line(draw) -> dict:
    """A dataset line's object with one to three of its week values, factor
    keys or week entries mutated."""
    data = json.loads(json.dumps(_lines()[1]))
    series = data["series"]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(series)))
        values = series[key]
        at = draw(st.integers(0, max(len(values) - 1, 0)))
        kinds = ["value", "infinity", "all", "upper", "case", "drop", "repeat"]
        kind = draw(st.sampled_from(kinds))
        if kind == "value" and values:
            values[at] = draw(st.sampled_from(_EXTREMES))
        elif kind == "infinity" and values:  # the line holds it as the number 1e999
            values[at] = "1e999"
        elif kind == "all":
            series[key] = [draw(st.sampled_from([1e308, -1e308]))] * len(values)
        elif kind == "upper":  # only the line reader takes it
            series[key.upper()] = series.pop(key)
        elif kind == "case":
            series[draw(st.sampled_from([key.upper(), key.title()]))] = list(values)
        elif kind == "drop":
            del values[at : at + 1]
        elif kind == "repeat":
            values[at:at] = values[at : at + 1]
    return data


@settings(max_examples=80)
@given(_mutated_line())
def test_mutated_dataset_line_loads_finite_or_is_refused(data):
    line = json.dumps(data).replace('"1e999"', "1e999")
    # the line reader takes finite values only, and the bulk reader takes
    # the line only as the line reader reads it
    bulk = _bulk_block([line])
    try:
        checked = _checked_block([line], Path("data.jsonl"), 1)
    except ValidationError:
        assert bulk is None
    else:
        assert np.isfinite(checked[3]).all()
        if bulk is not None:
            assert bulk[:3] == checked[:3]
            assert bulk[3].tobytes() == checked[3].tobytes()
    # the file of a good line and this one: exit 2 naming the line or the
    # record, or finite features
    good, _ = _lines()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inspect-features", "--data", str(path)])
        if code == 2:
            assert out.getvalue() == ""
            message = err.getvalue()
            assert f"{path}:2: " in message or f"record {data['student_id']}: " in message
        else:
            assert code == 0
            ds = load_dataset(path, default_registry())
            assert np.isfinite(feature_matrix(ds.series)).all()
