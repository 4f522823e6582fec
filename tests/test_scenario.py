"""Scenario file parsing, validation, and round-tripping."""

import dataclasses
import json
import math
import re
from dataclasses import asdict, replace
from enum import Enum
from pathlib import Path

import pytest

from starqkd import scenario as scenario_module
from starqkd.cli import main

from starqkd.engine import EventKind, _Sim, run
from starqkd.errors import BadField, ParseError, RangeError, ValidationError
from starqkd.hybrid import AttackerModel, MigrationTimeline
from starqkd.policy import (
    DataState,
    InfoAsset,
    PolicyMatrix,
    Technique,
    TechniqueKind,
    default_matrix,
)
from starqkd.qkdlink import raw_rate
from starqkd.report import emit_report
from starqkd.rng import MAX_RANDOM_BITS
from starqkd.scenario import (
    DEFAULT_ATTACKER,
    DEFAULT_LINK,
    MAX_CPU_DEMAND,
    MAX_TICKS,
    SCENARIO_FORMAT_VERSION,
    BranchScenario,
    HubScenario,
    Scenario,
    SharingScenario,
    TrafficDemand,
    ingest_matrix,
    ingest_plan_inputs,
    ingest_scenario,
    periodic_sources,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)


def minimal() -> dict:
    return {"duration_seconds": 10.0, "branches": [{"id": "alpha"}]}


def test_minimal_defaults():
    s = scenario_from_dict(minimal())
    assert s.seed == 0
    assert s.tick_seconds == 1.0
    assert s.tick_count == 10
    assert s.hub.id == "hub"
    assert s.channel_count == 1  # defaults to one receiver per branch
    b = s.branches[0]
    assert b.link.distance_km == 10.0
    assert b.link.attenuation_db_per_km == 0.2
    assert b.rotation_frequency_hz == 0.0
    assert b.master_bits == 256
    assert s.traffic == ()
    assert s.sharing == ()
    assert s.attacker.has_quantum


def test_format_version_mismatch():
    data = minimal()
    data["format_version"] = 99
    with pytest.raises(ValidationError, match="format_version"):
        scenario_from_dict(data)


def test_explicit_format_version_accepted():
    data = minimal()
    data["format_version"] = SCENARIO_FORMAT_VERSION
    scenario_from_dict(data)


def test_missing_duration():
    with pytest.raises(ValidationError, match="duration_seconds"):
        scenario_from_dict({"branches": [{"id": "a"}]})


def test_duration_must_be_whole_ticks():
    data = minimal()
    data["duration_seconds"] = 10.5
    with pytest.raises(ValidationError, match="whole number of ticks"):
        scenario_from_dict(data)
    # within float noise of a whole count is fine
    data["duration_seconds"] = 10.0 * (1 + 1e-13)
    assert scenario_from_dict(data).tick_count == 10


def test_seed_range():
    data = minimal()
    data["seed"] = 2**64
    with pytest.raises(ValidationError, match="must be <= 18446744073709551615"):
        scenario_from_dict(data)
    data["seed"] = -1
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_bool_is_not_a_number():
    data = minimal()
    data["seed"] = True
    with pytest.raises(ValidationError, match="expected an integer"):
        scenario_from_dict(data)


def test_unknown_key_strict_vs_lax():
    data = minimal()
    data["typo_key"] = 1
    with pytest.raises(ValidationError, match="typo_key"):
        scenario_from_dict(data)
    with pytest.warns(UserWarning, match="typo_key"):
        s = scenario_from_dict(data, strict=False)
    assert s.duration_seconds == 10.0


def test_session_bits_is_not_a_branch_field():
    data = minimal()
    data["branches"][0]["session_bits"] = 128
    with pytest.raises(ValidationError, match=r"branches\[0\]: unknown field\(s\): session_bits"):
        scenario_from_dict(data)
    with pytest.warns(UserWarning, match="session_bits"):
        s = scenario_from_dict(data, strict=False)
    assert s == scenario_from_dict(minimal())


def test_cpu_demand_of_the_whole_run_must_fit_a_float():
    data = minimal()
    data["hub"] = {"cpu_capacity_per_sec": 1.0}
    data["tick_seconds"] = 0.6e308 / raw_rate(DEFAULT_LINK)
    data["duration_seconds"] = data["tick_seconds"]
    s = scenario_from_dict(data)  # one tick costs 0.6e308
    assert run(s).hub["backlog_cost_final"] > 0
    match = "duration_seconds: the run's hub CPU demand"
    with pytest.raises(ValidationError, match=match):
        with_overrides(s, duration_seconds=2 * data["tick_seconds"])
    data["duration_seconds"] = 2 * data["tick_seconds"]
    with pytest.raises(ValidationError, match=match):
        scenario_from_dict(data)


def test_duplicate_branch_ids():
    data = {"duration_seconds": 5.0, "branches": [{"id": "a"}, {"id": "a"}]}
    with pytest.raises(ValidationError, match="duplicate id"):
        scenario_from_dict(data)


def test_branch_id_clashing_with_hub():
    data = {
        "duration_seconds": 5.0,
        "hub": {"id": "hq"},
        "branches": [{"id": "hq"}],
    }
    with pytest.raises(ValidationError, match="duplicate"):
        scenario_from_dict(data)


def test_negative_distance_names_the_field():
    data = {"duration_seconds": 5.0, "branches": [{"id": "a", "distance_km": -5.0}]}
    with pytest.raises(ValidationError, match="distance_km"):
        scenario_from_dict(data)


def test_no_branches():
    with pytest.raises(ValidationError, match="at least one branch"):
        scenario_from_dict({"duration_seconds": 5.0, "branches": []})


def test_traffic_endpoints_must_exist():
    data = minimal()
    data["traffic"] = [{"src": "alpha", "dst": "ghost", "otp_bits_per_sec": 10}]
    with pytest.raises(ValidationError, match="ghost"):
        scenario_from_dict(data)


def test_traffic_src_dst_differ():
    data = minimal()
    data["traffic"] = [{"src": "alpha", "dst": "alpha", "otp_bits_per_sec": 10}]
    with pytest.raises(ValidationError, match="must differ"):
        scenario_from_dict(data)


def duplicate_relay_pair() -> dict:
    # Two relay demands on one pair: 64 and 4096 bits every 5 s over 20 s.
    return {
        "duration_seconds": 20.0,
        "branches": [{"id": "a"}, {"id": "b"}],
        "traffic": [
            {"src": "a", "dst": "b", "relay_bits": 64, "relay_interval_seconds": 5.0},
            {"src": "a", "dst": "b", "relay_bits": 4096, "relay_interval_seconds": 5.0},
        ],
    }


def test_traffic_pairs_must_be_unique():
    with pytest.raises(ValidationError, match=r"traffic\[0\]") as info:
        scenario_from_dict(duplicate_relay_pair())
    assert info.value.path == "traffic[1]"
    # The reverse direction is a different flow.
    data = duplicate_relay_pair()
    data["traffic"][1].update(src="b", dst="a")
    assert len(scenario_from_dict(data).traffic) == 2


def test_relay_fields_come_together():
    data = {"duration_seconds": 5.0, "branches": [{"id": "a"}, {"id": "b"}]}
    data["traffic"] = [{"src": "a", "dst": "b", "relay_bits": 128}]
    with pytest.raises(ValidationError, match="together"):
        scenario_from_dict(data)
    data["traffic"] = [
        {"src": "a", "dst": "b", "relay_bits": 128, "relay_interval_seconds": 2.0}
    ]
    s = scenario_from_dict(data)
    assert s.traffic[0].relay_bits == 128


def test_sharing_custodians_must_exist():
    data = minimal()
    data["sharing"] = [
        {
            "id": "v",
            "n_locations": 3,
            "threshold_k": 2,
            "refresh_period_seconds": 5.0,
            "custodians": ["alpha", "ghost"],
        }
    ]
    with pytest.raises(ValidationError, match="ghost"):
        scenario_from_dict(data)
    data["sharing"][0]["custodians"] = ["alpha", "alpha"]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert str(err.value) == "sharing[0].custodians: custodians must be two distinct branches"


def test_sharing_custodian_count():
    data = minimal()
    data["sharing"] = [
        {
            "id": "v",
            "n_locations": 3,
            "threshold_k": 2,
            "refresh_period_seconds": 5.0,
            "custodians": ["alpha"],
        }
    ]
    with pytest.raises(ValidationError, match="exactly two"):
        scenario_from_dict(data)


def test_asset_indices_bounded_by_classes():
    data = minimal()
    data["classes"] = {"m_c": 3, "k_t": 3}
    data["assets"] = [
        {
            "id": "x",
            "sensitivity_index": 4,
            "time_index": 1,
            "size_bytes": 1,
            "lifetime_seconds": 0,
            "data_state": "at_rest",
        }
    ]
    with pytest.raises(ValidationError, match="exceeds m_c=3"):
        scenario_from_dict(data)


def test_duplicate_asset_ids():
    data = minimal()
    data["assets"] = [
        {
            "id": "x",
            "sensitivity_index": 1,
            "time_index": 1,
            "size_bytes": 1,
            "lifetime_seconds": 0,
            "data_state": "at_rest",
        }
    ] * 2
    with pytest.raises(ValidationError, match="duplicate id"):
        scenario_from_dict(data)


def full_matrix_2x2(broken_corner: bool = False) -> dict:
    cells = [
        {"sensitivity": 1, "time": 1, "technique": "classical_public_key"},
        {"sensitivity": 1, "time": 2, "technique": "post_quantum"},
        {"sensitivity": 2, "time": 1, "technique": "post_quantum"},
        {"sensitivity": 2, "time": 2, "technique": "hybrid" if broken_corner else "qkd_otp"},
    ]
    return {"m_c": 2, "k_t": 2, "cells": cells}


def test_matrix_parse_and_corner_check():
    data = minimal()
    data["policy_matrix"] = full_matrix_2x2()
    s = scenario_from_dict(data)
    assert s.policy_matrix.cell(2, 2).kind is TechniqueKind.QKD_OTP
    data["policy_matrix"] = full_matrix_2x2(broken_corner=True)
    with pytest.raises(ValidationError, match="must be qkd_otp"):
        scenario_from_dict(data)


def test_matrix_missing_cell():
    data = minimal()
    grid = full_matrix_2x2()
    grid["cells"] = grid["cells"][:3]
    data["policy_matrix"] = grid
    with pytest.raises(ValidationError, match="cell"):
        scenario_from_dict(data)


def test_matrix_duplicate_cell():
    data = minimal()
    grid = full_matrix_2x2()
    grid["cells"].append(grid["cells"][0])
    data["policy_matrix"] = grid
    with pytest.raises(ValidationError, match="defined twice"):
        scenario_from_dict(data)
    grid = full_matrix_2x2()
    grid["cells"][1] = {"sensitivity": 3, "time": 1, "technique": "post_quantum"}
    data["policy_matrix"] = grid
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert str(err.value) == "policy_matrix.cells[1]: cell (3, 1) outside 2x2"


def test_matrix_dims_must_match_classes():
    data = minimal()
    data["classes"] = {"m_c": 3, "k_t": 2}
    data["policy_matrix"] = full_matrix_2x2()
    with pytest.raises(ValidationError, match="classes say"):
        scenario_from_dict(data)


def test_technique_sizing_only_for_hybrid():
    data = minimal()
    grid = full_matrix_2x2()
    grid["cells"][0] = {
        "sensitivity": 1,
        "time": 1,
        "technique": {"kind": "classical_public_key", "master_bits": 512},
    }
    data["policy_matrix"] = grid
    with pytest.raises(ValidationError, match="no sizing"):
        scenario_from_dict(data)


def test_hybrid_technique_object():
    data = minimal()
    data["assets"] = []
    grid = full_matrix_2x2()
    grid["cells"][1] = {
        "sensitivity": 1,
        "time": 2,
        "technique": {"kind": "hybrid", "rotation_frequency_hz": 0.5},
    }
    # 1,2 must still be above classical, and hybrid qualifies
    s = scenario_from_dict(data | {"policy_matrix": grid})
    cell = s.policy_matrix.cell(1, 2)
    assert cell.kind is TechniqueKind.HYBRID
    assert cell.hybrid.rotation_frequency_hz == 0.5
    # A plain technique may also be written as an object; a matrix holding
    # strings, a plain object and a hybrid object round-trips exactly.
    grid["cells"][2] = {"sensitivity": 2, "time": 1, "technique": {"kind": "post_quantum"}}
    s = scenario_from_dict(data | {"policy_matrix": grid})
    assert s.policy_matrix.cell(2, 1).kind is TechniqueKind.POST_QUANTUM
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_with_overrides():
    s = scenario_from_dict(minimal())
    s2 = with_overrides(s, seed=99, duration_seconds=20.0)
    assert s2.seed == 99
    assert s2.tick_count == 20
    assert s.seed == 0  # original untouched
    with pytest.raises(ValidationError):
        with_overrides(s, duration_seconds=10.3)
    with pytest.raises(ValidationError):
        with_overrides(s, seed=2**64)


def _cpu_demand_overflow(data: dict) -> dict:
    """One tick costs 0.6 MAX_CPU_DEMAND; the override asks for two.

    The base has no rotation, relay or sharing source: their firings over
    so long a tick would break the firing limit in the base itself. Nor
    has it a pad rate, whose pad over such a tick would break the pad limit.
    """
    for branch in data["branches"]:
        branch.pop("rotation_frequency_hz", None)
    for demand in data.get("traffic", ()):
        demand.pop("relay_bits", None)
        demand.pop("relay_interval_seconds", None)
        demand.pop("otp_bits_per_sec", None)
    data.pop("sharing", None)
    per_sec = sum(b.link.cpu_cost_per_sec for b in scenario_from_dict(data).branches)
    data["tick_seconds"] = data["duration_seconds"] = 0.6 * MAX_CPU_DEMAND / per_sec
    return {"duration_seconds": 2 * data["tick_seconds"]}


def _firings_past_limit(data: dict) -> dict:
    """The first branch rotates at half the firing limit; the override runs four times as long."""
    data["branches"][0]["rotation_frequency_hz"] = MAX_TICKS / (2 * data["duration_seconds"])
    return {"duration_seconds": 4 * data["duration_seconds"]}


# name: (overrides made from the base dict, whether they are rejected)
OVERRIDES = {
    "seed": (lambda data: {"seed": 5}, False),
    "largest-seed": (lambda data: {"seed": 2**64 - 1}, False),
    "seed-2**64": (lambda data: {"seed": 2**64}, True),
    "seed--1": (lambda data: {"seed": -1}, True),
    "longer": (lambda data: {"duration_seconds": 2 * data["duration_seconds"]}, False),
    "duration-nan": (lambda data: {"duration_seconds": math.nan}, True),
    "duration-10**400": (lambda data: {"duration_seconds": 10**400}, True),
    "duration-0": (lambda data: {"duration_seconds": 0.0}, True),
    "duration-1e12": (lambda data: {"duration_seconds": 1e12}, True),
    "non-whole-ticks": (
        lambda data: {"duration_seconds": 10.5 * data.get("tick_seconds", 1)},
        True,
    ),
    "cpu-demand-overflow": (_cpu_demand_overflow, True),
    "firings-past-limit": (_firings_past_limit, True),
}


def _outcome(build):
    """The built Scenario, or the path and message of its ValidationError."""
    try:
        return build()
    except ValidationError as exc:
        return exc.path, str(exc)


@pytest.mark.parametrize("case", OVERRIDES)
@pytest.mark.parametrize("name", ["minimal.json", "star10.json"])
def test_with_overrides_decides_as_the_parser_does(name, case):
    data = json.loads((Path("scenarios") / name).read_text())
    make, rejected = OVERRIDES[case]
    overrides = make(data)
    expected = _outcome(lambda: scenario_from_dict(data | overrides))
    assert isinstance(expected, tuple) == rejected
    assert _outcome(lambda: with_overrides(scenario_from_dict(data), **overrides)) == expected


def test_round_trip_shipped_scenario():
    s = ingest_scenario("scenarios/star10.json")
    assert len(s.branches) == 10
    assert s.channel_count == 2
    d = scenario_to_dict(s)
    s2 = scenario_from_dict(d)
    assert s2 == s
    # defaults get materialized on the way out
    assert d["branches"][0]["attenuation_db_per_km"] == 0.2


def test_ingest_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"duration_seconds": 5.0,}')
    with pytest.raises(ParseError, match="line 1"):
        ingest_scenario(p)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        ingest_scenario(tmp_path / "nope.json")


def test_ingest_plan_inputs(tmp_path):
    assets, classes, migration = ingest_plan_inputs("scenarios/assets.json")
    assert classes == (4, 4)
    assert migration is not None
    assert {a.id for a in assets} >= {"press-kit", "trade-algorithms"}
    p = tmp_path / "tiny.json"
    p.write_text(
        json.dumps(
            {
                "assets": [
                    {
                        "id": "one",
                        "sensitivity_index": 1,
                        "time_index": 1,
                        "size_bytes": 10,
                        "lifetime_seconds": 0,
                        "data_state": "in_motion",
                    }
                ]
            }
        )
    )
    assets, classes, migration = ingest_plan_inputs(p)
    assert len(assets) == 1 and classes is None and migration is None


def test_ingest_matrix(tmp_path):
    p = tmp_path / "matrix.json"
    p.write_text(json.dumps(full_matrix_2x2()))
    m = ingest_matrix(p)
    assert m.cell(1, 1).kind is TechniqueKind.CLASSICAL_PUBLIC_KEY


def test_attacker_and_migration_blocks():
    data = minimal()
    data["attacker"] = {
        "classical_ops_per_sec": 1e12,
        "has_quantum": False,
        "records_traffic": False,
    }
    data["migration"] = {"x_years": 1.0, "y_years": 2.0, "z_years": 5.0}
    s = scenario_from_dict(data)
    assert s.attacker.classical_ops_per_sec == 1e12
    assert not s.attacker.has_quantum
    assert s.migration.z_years == 5.0
    data["migration"] = {"x_years": -1.0, "y_years": 2.0, "z_years": 5.0}
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


# Where each field table's keys sit in a scenario (or plan) file.
TABLE_PREFIXES = {
    "_SCENARIO": "",
    "_PLAN": "",
    "_HUB": "hub.",
    "_BRANCH": "branches[].",
    "_LINK": "branches[].",
    "_BRANCH_OBJECT": "branches[].",
    "_TRAFFIC": "traffic[].",
    "_SHARING": "sharing[].",
    "_ASSET": "assets[].",
    "_CLASSES": "classes.",
    "_MATRIX": "policy_matrix.",
    "_CELL": "policy_matrix.cells[].",
    "_TECHNIQUE": "policy_matrix.cells[].technique.",
    "_HYBRID": "policy_matrix.cells[].technique.",
    "_ATTACKER": "attacker.",
    "_MIGRATION": "migration.",
}


def readme_scenario_keys() -> set[str]:
    """Dotted keys in the first column of the README "Scenario files" table.

    A later name in a cell without a dot shares the first name's prefix:
    `traffic[].src`, `dst` stands for traffic[].src and traffic[].dst.
    """
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        first, *rest = re.findall(r"`([^`]+)`", row.split("|")[1])
        prefix = first.rpartition(".")[0]
        keys.add(first)
        keys.update(f"{prefix}.{name}" if prefix and "." not in name else name for name in rest)
    return keys


def test_readme_lists_every_field_table_key():
    # Every module-level dict is a field table (key -> default) but the
    # label maps, which turn a JSON label into its enum member.
    dicts = {
        name: value
        for name, value in vars(scenario_module).items()
        if isinstance(value, dict) and not name.startswith("__")
    }
    labels = {
        name
        for name, value in dicts.items()
        if value and all(isinstance(member, Enum) for member in value.values())
    }
    assert labels == {"_STATE_BY_NAME", "_KIND_BY_LABEL"}
    tables = {name: value for name, value in dicts.items() if name not in labels}
    assert set(tables) == set(TABLE_PREFIXES)
    documented = readme_scenario_keys()
    missing = []
    for name, table in tables.items():
        for key in table:
            full = TABLE_PREFIXES[name] + key
            if not any(
                doc in (full, f"{full}[]") or doc.startswith((f"{full}.", f"{full}[]."))
                for doc in documented
            ):
                missing.append(full)
    assert missing == []


ASSET = InfoAsset("x", 1, 1, 0, 0.0, DataState.AT_REST)

# A 3x2 matrix whose (3, 1) is weaker than (2, 1), its left neighbour.
NON_MONOTONE_CELLS = {
    (1, 1): "classical_public_key",
    (2, 1): "hybrid",
    (3, 1): "post_quantum",
    (1, 2): "hybrid",
    (2, 2): "hybrid",
    (3, 2): "qkd_otp",
}
NON_MONOTONE = PolicyMatrix(
    3,
    2,
    {cell: Technique(TechniqueKind[label.upper()]) for cell, label in NON_MONOTONE_CELLS.items()},
)


def hand_built(**fields) -> Scenario:
    """A two-branch Scenario built without the parser, with fields replaced."""
    return Scenario(
        **{"duration_seconds": 10.0, "branches": (BranchScenario("a"), BranchScenario("b"))}
        | fields
    )


# (fields of a hand-built Scenario, the ValidationError it gives). Unchecked,
# each would hang run(), fail it part way or run the wrong schedule, so the
# tests only construct them.
HAND_BUILT = {
    "zero-tick": ({"tick_seconds": 0.0}, "tick_seconds: must be positive, got 0.0"),
    "fractional-ticks": (
        {"duration_seconds": 10.5},
        "duration_seconds: must be a whole number of ticks, got 10.5 ticks",
    ),
    "unknown-endpoint": (
        {"traffic": (TrafficDemand("a", "ghost", otp_bits_per_sec=8.0),)},
        "traffic[0].dst: unknown branch 'ghost'",
    ),
    # Unchecked, run would walk 10**12 cells in default_matrix, and (1, 1) raise BadDimensions.
    "million-square-classes": (
        {"classes": (10**6, 10**6), "assets": (ASSET,)},
        "classes: a 1000000x1000000 policy grid exceeds the limit of 10000 cells",
    ),
    "one-by-one-classes": ({"classes": (1, 1)}, "classes.m_c: must be >= 2, got 1"),
    "one-row-classes": ({"classes": (3, 1)}, "classes.k_t: must be >= 2, got 1"),
    "duplicate-assets": ({"assets": (ASSET, ASSET)}, "assets[1].id: duplicate id 'x'"),
    # Unchecked, these would run on a fractional grid or an incoherent matrix.
    "fractional-classes": ({"classes": (2.5, 3)}, "classes.m_c: expected an integer, got 2.5"),
    "text-classes": ({"classes": (2, "3")}, "classes.k_t: expected an integer, got '3'"),
    "non-monotone-matrix": (
        {"policy_matrix": NON_MONOTONE},
        "policy_matrix: cell (3, 1) weaker than (2, 1): post_quantum < hybrid",
    ),
    "bool-seed": ({"seed": True}, "seed: expected an integer, got True"),
    "text-duration": ({"duration_seconds": "10"}, "duration_seconds: expected a number, got '10'"),
    # Unchecked, these raise a bare error in run(), or, with no attacker, run.
    "int-migration": ({"migration": 5}, "migration: expected MigrationTimeline or None, got 5"),
    "int-hub": ({"hub": 5}, "hub: expected HubScenario, got 5"),
    "int-traffic": ({"traffic": (5,)}, "traffic[0]: expected TrafficDemand, got 5"),
    "int-classes": ({"classes": 5}, "classes: expected a tuple, got 5"),
    "no-attacker": ({"attacker": None}, "attacker: expected AttackerModel, got None"),
    "text-branch": ({"branches": ("a",)}, "branches[0]: expected BranchScenario, got 'a'"),
    "text-branches": ({"branches": "ab"}, "branches: expected a tuple, got 'ab'"),
    "three-classes": ({"classes": (2, 2, 2)}, "classes: expected a pair (m_c, k_t), got (2, 2, 2)"),
    "text-cell": (
        {"policy_matrix": replace(NON_MONOTONE, cells={**NON_MONOTONE.cells, (2, 1): "hybrid"})},
        "policy_matrix.cells[2][1]: expected Technique, got 'hybrid'",
    ),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_a_hand_built_scenario_checks_itself(case):
    fields, message = HAND_BUILT[case]
    with pytest.raises(ValidationError) as caught:
        hand_built(**fields)
    assert str(caught.value) == message
    # replace, as with_overrides does, builds through the same checks.
    with pytest.raises(ValidationError) as again:
        replace(hand_built(), **fields)
    assert str(again.value) == message


def test_each_scenario_field_rejects_a_value_of_another_type():
    # Whatever the field, a value of a type it does not take is rejected at
    # its own path: 5 where the field takes no number, and in every field
    # an object, a text and a bool.
    for field in dataclasses.fields(Scenario):
        numeric = field.type in ("int", "float", int, float)
        for value in (object(), "x", True, *(() if numeric else (5,))):
            with pytest.raises(ValidationError) as caught:
                hand_built(**{field.name: value})
            assert caught.value.path == field.name, (field.name, value)


def test_lists_for_tuples_are_stored_as_tuples():
    # Equal scenarios stay == and hashable however their sections are given.
    sections = {
        "branches": (BranchScenario("a"), BranchScenario("b")),
        "traffic": (TrafficDemand("a", "b", otp_bits_per_sec=64.0),),
        "assets": (ASSET,),
        "classes": (2, 3),
    }
    as_tuples = hand_built(**sections)
    as_lists = hand_built(**{key: list(value) for key, value in sections.items()})
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    for key in sections:
        assert type(getattr(as_lists, key)) is tuple
    assert run(as_lists).to_json() == run(as_tuples).to_json()


def test_custodians_given_as_a_list_are_stored_as_the_tuple():
    # As a Scenario's sections are; custodians used to reject the list.
    as_list = SharingScenario("s", 3, 2, 5.0, ["a", "b"])
    as_tuple = SharingScenario("s", 3, 2, 5.0, ("a", "b"))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert type(as_list.custodians) is tuple


# A valid instance's fields per scenario type, and (type, bad fields, the
# error they give): each type's own rules, which hold however it is built.
VALID = {
    HubScenario: {},
    BranchScenario: {"id": "a"},
    TrafficDemand: {"src": "a", "dst": "b"},
    SharingScenario: {
        "id": "s",
        "n_locations": 3,
        "threshold_k": 2,
        "refresh_period_seconds": 5.0,
        "custodians": ("a", "b"),
    },
    Technique: {"kind": TechniqueKind.POST_QUANTUM},
    InfoAsset: asdict(ASSET),
    AttackerModel: {"classical_ops_per_sec": 1e9},
}
TYPE_RULES = {
    "zero-relay-interval": (
        TrafficDemand,
        {"relay_bits": 8, "relay_interval_seconds": 0.0},
        "relay_bits and relay_interval_seconds must be given together",
    ),
    "zero-refresh-period": (
        SharingScenario,
        {"refresh_period_seconds": 0.0},
        "refresh_period_seconds: must be positive, got 0.0",
    ),
    "nan-rotation": (
        BranchScenario,
        {"rotation_frequency_hz": math.nan},
        "rotation_frequency_hz: must be a finite number, got nan",
    ),
    "infinite-rotation": (
        BranchScenario,
        {"rotation_frequency_hz": math.inf},
        "rotation_frequency_hz: must be a finite number, got inf",
    ),
    # Unchecked, each of these would construct and then break or mislead run().
    "same-endpoints": (
        TrafficDemand,
        {"dst": "a", "otp_bits_per_sec": 800.0},
        "src and dst must differ, both are 'a'",
    ),
    "no-channels": (HubScenario, {"channel_count": 0}, "channel_count: must be >= 1, got 0"),
    "negative-relay-bits": (
        TrafficDemand,
        {"relay_bits": -8, "relay_interval_seconds": 5.0},
        "relay_bits: must be >= 0, got -8",
    ),
    "negative-otp-rate": (
        TrafficDemand,
        {"otp_bits_per_sec": -800.0},
        "otp_bits_per_sec: must be >= 0.0, got -800.0",
    ),
    "relay-interval-alone": (
        TrafficDemand,
        {"relay_interval_seconds": 5.0},
        "relay_bits and relay_interval_seconds must be given together",
    ),
    "one-custodian": (
        SharingScenario,
        {"custodians": ("a",)},
        "custodians: expected exactly two branch ids, got 1",
    ),
    "same-custodians": (
        SharingScenario,
        {"custodians": ("a", "a")},
        "custodians: custodians must be two distinct branches",
    ),
    "share-config": (
        SharingScenario,
        {"n_locations": 1, "threshold_k": 1},
        "n_locations: must be >= 2, got 1",
    ),
    "share-field": (SharingScenario, {"field_prime": 4}, "field_prime 4 is not prime"),
    # Each relayed key is one random_bits draw; past 2**31 - 1 bits, run() raised a
    # bare OverflowError at the first relay or refresh.
    "relay-past-one-draw": (
        TrafficDemand,
        {"relay_bits": 2**31, "relay_interval_seconds": 5.0},
        "relay_bits: must be <= 2147483647, got 2147483648",
    ),
    "refresh-past-one-draw": (
        SharingScenario,
        {"n_locations": 6000},  # 6000 * 5999 pads of 61 bits
        "n_locations: a refresh of 2195634000 bits exceeds the limit of 2147483647",
    ),
    # Kinds: unchecked, each would construct and then raise a bare error in
    # run(), or run on a value the parser rejects.
    "empty-branch-id": (BranchScenario, {"id": ""}, "id: expected a non-empty string, got ''"),
    "int-branch-id": (BranchScenario, {"id": 5}, "id: expected a non-empty string, got 5"),
    "bool-master-bits": (
        BranchScenario,
        {"master_bits": True},
        "master_bits: expected an integer, got True",
    ),
    "float-pool-target": (
        BranchScenario,
        {"pool_target_bits": 4096.0},
        "pool_target_bits: expected an integer, got 4096.0",
    ),
    "text-rotation": (
        BranchScenario,
        {"rotation_frequency_hz": "1"},
        "rotation_frequency_hz: expected a number, got '1'",
    ),
    "fractional-channels": (
        HubScenario,
        {"channel_count": 1.5},
        "channel_count: expected an integer, got 1.5",
    ),
    "bool-hub-cpu": (
        HubScenario,
        {"cpu_capacity_per_sec": True},
        "cpu_capacity_per_sec: expected a number, got True",
    ),
    "none-hub-id": (HubScenario, {"id": None}, "id: expected a non-empty string, got None"),
    "int-src": (TrafficDemand, {"src": 1}, "src: expected a non-empty string, got 1"),
    "float-relay-bits": (
        TrafficDemand,
        {"relay_bits": 8.0, "relay_interval_seconds": 5.0},
        "relay_bits: expected an integer, got 8.0",
    ),
    "string-custodians": (
        SharingScenario,
        {"custodians": "ab"},
        "custodians: expected a tuple, got 'ab'",
    ),
    "int-custodian": (
        SharingScenario,
        {"custodians": ("a", 5)},
        "custodians[1]: expected a non-empty string, got 5",
    ),
    "float-n-locations": (
        SharingScenario,
        {"n_locations": 3.0},
        "n_locations: expected an integer, got 3.0",
    ),
    "bool-field-prime": (
        SharingScenario,
        {"field_prime": True},
        "field_prime: expected an integer, got True",
    ),
    "label-technique": (
        Technique,
        {"kind": "hybrid"},
        "kind: expected a TechniqueKind, got 'hybrid'",
    ),
    "label-data-state": (
        InfoAsset,
        {"data_state": "in_use"},
        "data_state: expected a DataState, got 'in_use'",
    ),
    "empty-asset-id": (InfoAsset, {"id": ""}, "id: expected a non-empty string, got ''"),
    "float-asset-index": (
        InfoAsset,
        {"time_index": 2.0},
        "time_index: expected an integer, got 2.0",
    ),
    "int-has-quantum": (
        AttackerModel,
        {"has_quantum": 1},
        "has_quantum: expected true/false, got 1",
    ),
    "none-records-traffic": (
        AttackerModel,
        {"records_traffic": None},
        "records_traffic: expected true/false, got None",
    ),
}


@pytest.mark.parametrize("case", TYPE_RULES)
def test_each_scenario_type_checks_its_own_rules(case):
    kind, bad, message = TYPE_RULES[case]
    valid = kind(**VALID[kind])
    for make in (lambda: kind(**VALID[kind] | bad), lambda: replace(valid, **bad)):
        with pytest.raises((ValueError, BadField)) as caught:
            make()
        exc = caught.value
        assert str(exc) == message
        # One-field rules name the field, which the parser puts on the dotted path.
        if isinstance(exc, RangeError):
            assert message.startswith(f"{exc.field}: ")


def test_type_rules_give_the_parser_its_paths():
    data = {"duration_seconds": 10.0, "branches": [{"id": "a"}, {"id": "b"}]}
    expected = {
        "traffic[0]: src and dst must differ, both are 'a'": {
            "traffic": [{"src": "a", "dst": "a", "otp_bits_per_sec": 800}]
        },
        "traffic[0].otp_bits_per_sec: must be >= 0.0, got -1.0": {
            "traffic": [{"src": "a", "dst": "b", "otp_bits_per_sec": -1}]
        },
        "hub.channel_count: must be >= 1, got 0": {"hub": {"channel_count": 0}},
        "branches[1].master_bits: must be >= 1, got 0": {
            "branches": [{"id": "a"}, {"id": "b", "master_bits": 0}]
        },
        "sharing[0].custodians: expected exactly two branch ids, got 3": {
            "sharing": [VALID[SharingScenario] | {"custodians": ["a", "b", "a"]}]
        },
        "sharing[0].threshold_k: must be <= 3, got 4": {
            "sharing": [VALID[SharingScenario] | {"custodians": ["a", "b"], "threshold_k": 4}]
        },
        "traffic[0].relay_bits: must be <= 2147483647, got 2147483648": {
            "traffic": [{"src": "a", "dst": "b", "relay_bits": 2**31, "relay_interval_seconds": 1}]
        },
        "sharing[0].n_locations: a refresh of 2195634000 bits exceeds the limit of 2147483647": {
            "sharing": [VALID[SharingScenario] | {"custodians": ["a", "b"], "n_locations": 6000}]
        },
    }
    for message, fields in expected.items():
        with pytest.raises(ValidationError) as caught:
            scenario_from_dict(data | fields)
        assert str(caught.value) == message


def test_a_tick_pad_past_one_draw_is_rejected_at_its_flow(tmp_path, capsys):
    # A tick's pad is the whole bytes of its rate plus the under 8 bits the
    # last pad left, so MAX_RANDOM_BITS - 7 bits per tick is the largest rate
    # whose every pad is one random_bits draw: a rate of 2**31 - 1 asks
    # 2**31 - 8 bits on its first tick and 2**31 on its second. Only the
    # check runs here; no such pad is drawn.
    limit = MAX_RANDOM_BITS - 7
    path = "traffic[1].otp_bits_per_sec"
    for tick in (0.5, 1.0, 0.25):  # the rates at the limit are exact
        data = {
            "duration_seconds": 10 * tick,
            "tick_seconds": tick,
            "branches": [{"id": "a"}, {"id": "b"}],
            "traffic": [{"src": "b", "dst": "a"}, {"src": "a", "dst": "b"}],
        }
        for rate, ok in ((limit / tick, True), ((limit + 1) / tick, False)):
            data["traffic"][1]["otp_bits_per_sec"] = rate
            if ok:
                assert scenario_from_dict(data).traffic[1].otp_bits_per_sec == rate
                continue
            with pytest.raises(ValidationError) as caught:
                scenario_from_dict(data)
            assert str(caught.value) == (
                f"{path}: {rate!r} bits per second over {tick!r} s ticks exceed the limit "
                f"of {limit} pad bits per tick"
            )
            file = tmp_path / "pad.json"
            file.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["simulate", str(file), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: ")
    data["traffic"][1]["otp_bits_per_sec"] = float(limit)
    ok = scenario_from_dict(data | {"tick_seconds": 1.0, "duration_seconds": 10.0})
    with pytest.raises(ValidationError, match=re.escape(path)):
        replace(ok, tick_seconds=2.0, duration_seconds=20.0)  # the same rate over longer ticks


TWO_BRANCHES = {"duration_seconds": 10.0, "branches": [{"id": "a"}, {"id": "b"}]}
HYBRID_CELLS = [
    {"sensitivity": 1, "time": 1, "technique": "classical_public_key"},
    {"sensitivity": 1, "time": 2, "technique": {"kind": "hybrid"}},
    {"sensitivity": 2, "time": 1, "technique": {"kind": "hybrid"}},
    {"sensitivity": 2, "time": 2, "technique": "qkd_otp"},
]


@pytest.mark.parametrize(
    ("fields", "by_hand"),
    [
        ({}, {}),
        # Each object gives only its required keys: the rest are the types' own defaults.
        (
            {
                "traffic": [{"src": "a", "dst": "b"}],
                "sharing": [VALID[SharingScenario] | {"custodians": ["a", "b"]}],
                "migration": {"x_years": 1, "y_years": 2, "z_years": 3},
                "attacker": {},
                "policy_matrix": {"m_c": 2, "k_t": 2, "cells": HYBRID_CELLS},
            },
            {
                "traffic": (TrafficDemand("a", "b"),),
                "sharing": (SharingScenario(**VALID[SharingScenario]),),
                "migration": MigrationTimeline(1, 2, 3),
                "policy_matrix": default_matrix(2, 2),
            },
        ),
    ],
    ids=["defaults", "required-keys-only"],
)
def test_a_hand_built_scenario_equals_the_parsed_one(fields, by_hand):
    parsed = scenario_from_dict(TWO_BRANCHES | fields)
    assert hand_built(**by_hand) == parsed
    assert scenario_to_dict(hand_built(**by_hand)) == scenario_to_dict(parsed)


CELL = {"sensitivity": 1, "time": 1}


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"branches": [{}]}, "branches[0]: missing required field 'id'"),
        ({"traffic": [{}]}, "traffic[0]: missing required field 'src'"),
        ({"sharing": [{}]}, "sharing[0]: missing required field 'id'"),
        ({"assets": [{}]}, "assets[0]: missing required field 'id'"),
        ({"migration": {}}, "migration: missing required field 'x_years'"),
        ({"classes": {}}, "classes: missing required field 'm_c'"),
        ({"policy_matrix": {}}, "policy_matrix: missing required field 'm_c'"),
        (
            {"policy_matrix": {"m_c": 2, "k_t": 2, "cells": [{}]}},
            "policy_matrix.cells[0]: missing required field 'sensitivity'",
        ),
        (
            {"policy_matrix": {"m_c": 2, "k_t": 2, "cells": [CELL | {"technique": {}}]}},
            "policy_matrix.cells[0].technique: missing required field 'kind'",
        ),
    ],
)
def test_an_object_without_its_required_keys_names_its_first(fields, message):
    with pytest.raises(ValidationError) as caught:
        scenario_from_dict(TWO_BRANCHES | fields)
    assert str(caught.value) == message


def test_ints_in_float_fields_give_the_same_report_bytes_parsed_or_built_by_hand(tmp_path):
    # A float field of every section is given as a JSON integer.
    parsed = scenario_from_dict(
        {
            "duration_seconds": 20,
            "tick_seconds": 2,
            "hub": {"cpu_capacity_per_sec": 10**18},
            "branches": [
                {"id": "a", "distance_km": 5, "qber": 0, "rotation_frequency_hz": 1},
                {"id": "b", "sifting_factor": 1, "cpu_cost_per_raw_bit": 2},
            ],
            "traffic": [
                {
                    "src": "a",
                    "dst": "b",
                    "otp_bits_per_sec": 800,
                    "relay_bits": 64,
                    "relay_interval_seconds": 4,
                }
            ],
            "sharing": [
                VALID[SharingScenario] | {"custodians": ["a", "b"], "refresh_period_seconds": 4}
            ],
            "assets": [
                {"id": "x", "sensitivity_index": 2, "time_index": 2, "lifetime_seconds": 1000}
            ],
            "attacker": {"classical_ops_per_sec": 10**9},
            "migration": {"x_years": 1, "y_years": 2, "z_years": 3},
        }
    )
    by_hand = Scenario(
        duration_seconds=20,
        tick_seconds=2,
        hub=HubScenario(cpu_capacity_per_sec=10**18),
        branches=(
            BranchScenario(
                "a", replace(DEFAULT_LINK, distance_km=5, qber=0), rotation_frequency_hz=1
            ),
            BranchScenario("b", replace(DEFAULT_LINK, sifting_factor=1, cpu_cost_per_raw_bit=2)),
        ),
        traffic=(TrafficDemand("a", "b", 800, 64, 4),),
        sharing=(SharingScenario(**VALID[SharingScenario] | {"refresh_period_seconds": 4}),),
        assets=(InfoAsset("x", 2, 2, 0, 1000, DataState.AT_REST),),
        attacker=replace(DEFAULT_ATTACKER, classical_ops_per_sec=10**9),
        migration=MigrationTimeline(1, 2, 3),
    )
    assert by_hand == parsed and scenario_to_dict(by_hand) == scenario_to_dict(parsed)
    files = [
        emit_report(run(s), "json", tmp_path / name)[0].read_bytes()
        for name, s in (("parsed", parsed), ("by_hand", by_hand))
    ]
    assert files[0] == files[1]


def test_the_engine_schedules_the_sources_the_scenario_bounds():
    s = ingest_scenario("scenarios/star10.json")
    kinds = {
        "branches": EventKind.ROTATION,
        "traffic": EventKind.RELAY_REQUEST,
        "sharing": EventKind.REFRESH,
    }
    expected = [(kinds[section], period) for section, *_, period in periodic_sources(s)]
    assert {kind for kind, _ in expected} == set(kinds.values())
    scheduled = [(kind, period) for kind, period, _, _ in _Sim(s, collect_trace=False).sources]
    assert scheduled == expected
