"""Random single-field mutations of the shipped scenarios.

Each example takes `scenarios/star10.json` or `scenarios/minimal.json`
and applies one mutation: replace a value, delete a key (or array
element), or add an unknown key. The parser must either return a
Scenario that holds only finite numbers and round-trips through
scenario_to_dict, or raise a ValidationError whose message starts with
its dotted path; the `validate` command must exit 0 or 1.
"""

import json
import math
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from starqkd.cli import main
from starqkd.errors import ValidationError
from starqkd.scenario import scenario_from_dict, scenario_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASES = {name: (SCENARIOS / name).read_text() for name in ("star10.json", "minimal.json")}

VALUES = [
    None, True, False, 0, -1, 2**64, 10**400, math.nan, math.inf, -math.inf,
    1e-300, "", [], {},
]  # fmt: skip


def _paths(node, prefix=()):
    """Every node's key path; array elements past the first repeat a schema
    location already covered, so only element 0 is walked."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = list(enumerate(node))[:1]
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, float):
        yield node


PATHS = [(name, path) for name, text in BASES.items() for path in _paths(json.loads(text))]


@st.composite
def mutated(draw):
    name, path = draw(st.sampled_from(PATHS))
    data = json.loads(BASES[name])
    op = draw(st.sampled_from(("replace", "delete", "add")))
    value = draw(st.sampled_from(VALUES))
    if not path:
        if op == "replace":
            return value
        if op == "add":
            data["unknown_key"] = value
        return data
    *parents, last = path
    parent = data
    for key in parents:
        parent = parent[key]
    if op == "replace":
        parent[last] = value
    elif op == "delete":
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last]["unknown_key"] = value
    else:
        parent["unknown_key" if isinstance(parent, dict) else last] = value
    return data


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=mutated(), strict=st.booleans())
def test_single_mutation_parses_or_names_its_path(tmp_path_factory, data, strict):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            scenario = scenario_from_dict(data, strict=strict)
        except ValidationError as exc:
            assert exc.path and str(exc).startswith(f"{exc.path}: ")
        else:
            dumped = scenario_to_dict(scenario)
            assert all(math.isfinite(x) for x in _numbers(dumped))
            assert scenario_from_dict(dumped) == scenario
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(data))
        argv = ["validate", str(path)] + ([] if strict else ["--lax"])
        assert main(argv) in (0, 1)
