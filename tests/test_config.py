"""The config's bounds table: every row bounds a value a config holds, at the edges it names."""

import copy
import json
import math

import pytest

from labelforge.config import BOUNDS, TABLE_KINDS, PipelineConfig
from labelforge.errors import ConfigError

DEFAULT = PipelineConfig().to_json()
ROWS = [(interval, key) for interval, (_, keys) in BOUNDS.items() for key in keys]

# each interval: values inside it (its closed edges among them) and values just outside it
EDGES = {
    "1": ([1], [0, 2]),
    "in [0, 1]": ([0, 1], [-1e-9, 1 + 1e-9]),
    "in (0, 1]": ([1e-9, 1], [0, 1 + 1e-9]),
    "in (0, 0.1]": ([1e-9, 0.1], [0, 0.1 + 1e-9]),
    "> 0": ([1e-9], [0, -1e-9]),
    ">= 0": ([0], [-1, -1e-9]),
    ">= 1": ([1], [0]),
}


def held_values(key):
    """The values ``key`` names in the default config and in every kind's example."""
    first, *steps = key.split(".")
    values = [DEFAULT[first]] if first in DEFAULT else []
    values += TABLE_KINDS.get(first, {}).values()
    for step in steps:
        if step == "*":
            values = [v for value in values if isinstance(value, (dict, list))
                      for v in (value.values() if isinstance(value, dict) else value)]
        else:
            values = [value[step] for value in values if isinstance(value, dict) and step in value]
    return values


def config_with(key, value):
    """The default config holding ``value`` at ``key`` (a ``*`` names the first value of a
    table, or a new first item of a list, before the items it held), under the key's kind
    when it is a kind table's, and the key as messages name it."""
    obj = copy.deepcopy(DEFAULT)
    first, *steps = key.split(".")
    if first in TABLE_KINDS:
        kind, example = next((kind, example) for kind, example in TABLE_KINDS[first].items()
                             if steps[0] in example)
        example = copy.deepcopy(example)
        obj[first] = {"kind": kind, **{k: v if v != "" else "x" for k, v in example.items()}}
    parent, name, names = obj, first, [first]
    for step in steps:
        parent = parent[name]
        name = (0 if isinstance(parent, list) else next(iter(parent))) if step == "*" else step
        names.append(str(name))
    if isinstance(parent, list):
        parent.insert(name, value)  # weights keep their positive item
    else:
        parent[name] = value
    return obj, ".".join(names)


def test_each_key_has_one_bound_and_each_interval_its_edges():
    assert len({key for _, key in ROWS}) == len(ROWS)
    assert EDGES.keys() == BOUNDS.keys()


@pytest.mark.parametrize("interval, key", ROWS)
def test_every_bound_names_numbers_a_config_holds(interval, key):
    values = held_values(key)
    assert values and all(type(v) in (int, float) for v in values)


@pytest.mark.parametrize("interval, key", ROWS)
def test_each_bound_takes_its_edges_and_rejects_values_just_outside(interval, key):
    takes_floats = float in {type(v) for v in held_values(key)}
    inside, outside = ([v for v in values if takes_floats or type(v) is int]
                       for values in EDGES[interval])
    for value in inside:
        obj, _ = config_with(key, value)
        PipelineConfig.from_json(obj)
    for value, message in [(v, interval) for v in outside] + [
            (v, "a finite number") for v in (math.inf, -math.inf, math.nan) if takes_floats]:
        obj, name = config_with(key, value)
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_json(obj)
        assert str(err.value) == f"{name} must be {message}"


def test_a_config_file_with_a_byte_order_mark_loads(tmp_path):
    """Read as data and labels files are: a leading UTF-8 byte-order mark is not JSON."""
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(DEFAULT, indent=2).encode("utf-8"))
    assert PipelineConfig.load(str(path)) == PipelineConfig()
