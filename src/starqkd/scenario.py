"""Scenario files: schema, defaults, validation, round-trip serialization.

A scenario is one JSON object describing the star (hub limits and
branch links), the demands placed on it (pairwise traffic, relay
requests, sharing instances), the assets to plan for, and the attacker.
Parsing applies documented defaults, then validates every field with a
dotted path in the error message. Strict mode rejects unknown fields;
lax mode warns and drops them.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .errors import BadField, ParseError, ValidationError
from .hybrid import AttackerModel, MigrationTimeline
from .keycore import DEFAULT_POOL_TARGET_BITS, DEFAULT_TAG_COST_BITS
from .policy import (
    DataState,
    HybridParams,
    InfoAsset,
    PolicyMatrix,
    Technique,
    TechniqueKind,
    validate_matrix,
)
from .qkdlink import LinkParams
from .sharing import DEFAULT_FIELD_PRIME, ShareConfig

SCENARIO_FORMAT_VERSION = 1

DEFAULT_SEED = 0
DEFAULT_TICK_SECONDS = 1.0
DEFAULT_HUB_ID = "hub"
# Effectively unthrottled; a hub row can lower it.
DEFAULT_HUB_CPU_PER_SEC = 1e18
DEFAULT_AUTH_RESERVED_BITS = 65536
DEFAULT_MASTER_BITS = 256
DEFAULT_SESSION_BITS = 128

DEFAULT_LINK = LinkParams(
    distance_km=10.0,
    source_rate_hz=1e6,
    detector_efficiency=0.2,
    qber=0.02,
)

DEFAULT_ATTACKER = AttackerModel(
    classical_ops_per_sec=1e9, has_quantum=True, records_traffic=True
)


@dataclass(frozen=True)
class HubScenario:
    id: str = DEFAULT_HUB_ID
    channel_count: int | None = None  # None: one receiver per branch
    cpu_capacity_per_sec: float = DEFAULT_HUB_CPU_PER_SEC


@dataclass(frozen=True)
class BranchScenario:
    id: str
    link: LinkParams = DEFAULT_LINK
    auth_reserved_bits: int = DEFAULT_AUTH_RESERVED_BITS
    auth_tag_cost_bits: int = DEFAULT_TAG_COST_BITS
    pool_target_bits: int = DEFAULT_POOL_TARGET_BITS
    rotation_frequency_hz: float = 0.0
    master_bits: int = DEFAULT_MASTER_BITS
    session_bits: int = DEFAULT_SESSION_BITS


@dataclass(frozen=True)
class TrafficDemand:
    src: str
    dst: str
    otp_bits_per_sec: float = 0.0
    relay_bits: int = 0
    relay_interval_seconds: float = 0.0


@dataclass(frozen=True)
class SharingScenario:
    id: str
    n_locations: int
    threshold_k: int
    refresh_period_seconds: float
    custodians: tuple[str, str]
    field_prime: int = DEFAULT_FIELD_PRIME

    def config(self) -> ShareConfig:
        return ShareConfig(
            n_locations=self.n_locations,
            threshold_k=self.threshold_k,
            field_prime=self.field_prime,
        )


@dataclass(frozen=True)
class Scenario:
    duration_seconds: float
    branches: tuple[BranchScenario, ...]
    seed: int = DEFAULT_SEED
    tick_seconds: float = DEFAULT_TICK_SECONDS
    hub: HubScenario = HubScenario()
    traffic: tuple[TrafficDemand, ...] = ()
    sharing: tuple[SharingScenario, ...] = ()
    assets: tuple[InfoAsset, ...] = ()
    classes: tuple[int, int] | None = None
    policy_matrix: PolicyMatrix | None = None
    attacker: AttackerModel = DEFAULT_ATTACKER
    migration: MigrationTimeline | None = None

    @property
    def channel_count(self) -> int:
        if self.hub.channel_count is not None:
            return self.hub.channel_count
        return len(self.branches)

    @property
    def tick_count(self) -> int:
        return int(round(self.duration_seconds / self.tick_seconds))


# ---------------------------------------------------------------------------
# field readers


def _unknown_keys(obj: dict, allowed: set[str], path: str, strict: bool) -> None:
    extras = sorted(set(obj) - allowed)
    if not extras:
        return
    msg = f"unknown field(s): {', '.join(extras)}"
    if strict:
        raise ValidationError(path, msg)
    warnings.warn(f"{path}: {msg} (ignored)", stacklevel=2)


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(path, f"expected a non-empty string, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected true/false, got {value!r}")
    return value


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_float(value: Any, path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer too large for a float
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(path, f"must be a finite number, got {value!r}")
    if minimum is not None and out < minimum:
        raise ValidationError(path, f"must be >= {minimum}, got {value}")
    return out


def _check_duration(duration: float, tick: float) -> None:
    if not math.isfinite(duration):
        raise ValidationError("duration_seconds", f"must be a finite number, got {duration!r}")
    if duration <= 0:
        raise ValidationError("duration_seconds", f"must be positive, got {duration}")
    ratio = duration / tick
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)) or round(ratio) < 1:
        raise ValidationError(
            "duration_seconds", f"must be a whole number of ticks, got {ratio} ticks"
        )


def _get(obj: dict, key: str, default: Any = None) -> Any:
    return obj[key] if key in obj else default


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(path, f"missing required field '{key}'")
    return obj[key]


# ---------------------------------------------------------------------------
# section parsers

_BRANCH_KEYS = {
    "id",
    "distance_km",
    "attenuation_db_per_km",
    "source_rate_hz",
    "detector_efficiency",
    "sifting_factor",
    "qber",
    "cpu_cost_per_raw_bit",
    "post_processing_messages_per_round",
    "auth_reserved_bits",
    "auth_tag_cost_bits",
    "pool_target_bits",
    "rotation_frequency_hz",
    "master_bits",
    "session_bits",
}


def _parse_branch(obj: Any, path: str, strict: bool) -> BranchScenario:
    data = _as_dict(obj, path)
    _unknown_keys(data, _BRANCH_KEYS, path, strict)
    d = DEFAULT_LINK
    try:
        link = LinkParams(
            distance_km=_as_float(_get(data, "distance_km", d.distance_km), f"{path}.distance_km"),
            source_rate_hz=_as_float(
                _get(data, "source_rate_hz", d.source_rate_hz), f"{path}.source_rate_hz"
            ),
            detector_efficiency=_as_float(
                _get(data, "detector_efficiency", d.detector_efficiency),
                f"{path}.detector_efficiency",
            ),
            qber=_as_float(_get(data, "qber", d.qber), f"{path}.qber"),
            attenuation_db_per_km=_as_float(
                _get(data, "attenuation_db_per_km", d.attenuation_db_per_km),
                f"{path}.attenuation_db_per_km",
            ),
            sifting_factor=_as_float(
                _get(data, "sifting_factor", d.sifting_factor), f"{path}.sifting_factor"
            ),
            cpu_cost_per_raw_bit=_as_float(
                _get(data, "cpu_cost_per_raw_bit", d.cpu_cost_per_raw_bit),
                f"{path}.cpu_cost_per_raw_bit",
            ),
            post_processing_messages_per_round=_as_int(
                _get(
                    data,
                    "post_processing_messages_per_round",
                    d.post_processing_messages_per_round,
                ),
                f"{path}.post_processing_messages_per_round",
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(path, str(exc)) from exc
    return BranchScenario(
        id=_as_str(_require(data, "id", path), f"{path}.id"),
        link=link,
        auth_reserved_bits=_as_int(
            _get(data, "auth_reserved_bits", DEFAULT_AUTH_RESERVED_BITS),
            f"{path}.auth_reserved_bits",
            minimum=0,
        ),
        auth_tag_cost_bits=_as_int(
            _get(data, "auth_tag_cost_bits", DEFAULT_TAG_COST_BITS),
            f"{path}.auth_tag_cost_bits",
            minimum=1,
        ),
        pool_target_bits=_as_int(
            _get(data, "pool_target_bits", DEFAULT_POOL_TARGET_BITS),
            f"{path}.pool_target_bits",
            minimum=1,
        ),
        rotation_frequency_hz=_as_float(
            _get(data, "rotation_frequency_hz", 0.0),
            f"{path}.rotation_frequency_hz",
            minimum=0.0,
        ),
        master_bits=_as_int(
            _get(data, "master_bits", DEFAULT_MASTER_BITS), f"{path}.master_bits", minimum=1
        ),
        session_bits=_as_int(
            _get(data, "session_bits", DEFAULT_SESSION_BITS), f"{path}.session_bits", minimum=1
        ),
    )


def _parse_hub(obj: Any, path: str, strict: bool) -> HubScenario:
    data = _as_dict(obj, path)
    _unknown_keys(data, {"id", "channel_count", "cpu_capacity_per_sec"}, path, strict)
    channels = _get(data, "channel_count")
    if channels is not None:
        channels = _as_int(channels, f"{path}.channel_count", minimum=1)
    capacity = _as_float(
        _get(data, "cpu_capacity_per_sec", DEFAULT_HUB_CPU_PER_SEC),
        f"{path}.cpu_capacity_per_sec",
    )
    if capacity <= 0:
        raise ValidationError(f"{path}.cpu_capacity_per_sec", f"must be positive, got {capacity}")
    return HubScenario(
        id=_as_str(_get(data, "id", DEFAULT_HUB_ID), f"{path}.id"),
        channel_count=channels,
        cpu_capacity_per_sec=capacity,
    )


def _parse_traffic(obj: Any, path: str, strict: bool) -> TrafficDemand:
    data = _as_dict(obj, path)
    _unknown_keys(
        data,
        {"src", "dst", "otp_bits_per_sec", "relay_bits", "relay_interval_seconds"},
        path,
        strict,
    )
    demand = TrafficDemand(
        src=_as_str(_require(data, "src", path), f"{path}.src"),
        dst=_as_str(_require(data, "dst", path), f"{path}.dst"),
        otp_bits_per_sec=_as_float(
            _get(data, "otp_bits_per_sec", 0.0), f"{path}.otp_bits_per_sec", minimum=0.0
        ),
        relay_bits=_as_int(_get(data, "relay_bits", 0), f"{path}.relay_bits", minimum=0),
        relay_interval_seconds=_as_float(
            _get(data, "relay_interval_seconds", 0.0),
            f"{path}.relay_interval_seconds",
            minimum=0.0,
        ),
    )
    if demand.src == demand.dst:
        raise ValidationError(path, f"src and dst must differ, both are {demand.src!r}")
    if (demand.relay_bits > 0) != (demand.relay_interval_seconds > 0):
        raise ValidationError(
            path, "relay_bits and relay_interval_seconds must be given together"
        )
    return demand


def _parse_sharing(obj: Any, path: str, strict: bool) -> SharingScenario:
    data = _as_dict(obj, path)
    _unknown_keys(
        data,
        {
            "id",
            "n_locations",
            "threshold_k",
            "field_prime",
            "refresh_period_seconds",
            "custodians",
        },
        path,
        strict,
    )
    custodians = _as_list(_require(data, "custodians", path), f"{path}.custodians")
    if len(custodians) != 2:
        raise ValidationError(
            f"{path}.custodians", f"expected exactly two branch ids, got {len(custodians)}"
        )
    instance = SharingScenario(
        id=_as_str(_require(data, "id", path), f"{path}.id"),
        n_locations=_as_int(_require(data, "n_locations", path), f"{path}.n_locations"),
        threshold_k=_as_int(_require(data, "threshold_k", path), f"{path}.threshold_k"),
        field_prime=_as_int(_get(data, "field_prime", DEFAULT_FIELD_PRIME), f"{path}.field_prime"),
        refresh_period_seconds=_as_float(
            _require(data, "refresh_period_seconds", path), f"{path}.refresh_period_seconds"
        ),
        custodians=(
            _as_str(custodians[0], f"{path}.custodians[0]"),
            _as_str(custodians[1], f"{path}.custodians[1]"),
        ),
    )
    if instance.refresh_period_seconds <= 0:
        raise ValidationError(
            f"{path}.refresh_period_seconds",
            f"must be positive, got {instance.refresh_period_seconds}",
        )
    if instance.custodians[0] == instance.custodians[1]:
        raise ValidationError(f"{path}.custodians", "custodians must be two distinct branches")
    try:
        instance.config()
    except (BadField, ValueError) as exc:
        raise ValidationError(path, str(exc)) from exc
    return instance


_STATE_BY_NAME = {state.value: state for state in DataState}


def _parse_asset(obj: Any, path: str, strict: bool) -> InfoAsset:
    data = _as_dict(obj, path)
    _unknown_keys(
        data,
        {"id", "sensitivity_index", "time_index", "size_bytes", "lifetime_seconds", "data_state"},
        path,
        strict,
    )
    state_name = _as_str(_get(data, "data_state", "at_rest"), f"{path}.data_state")
    if state_name not in _STATE_BY_NAME:
        raise ValidationError(
            f"{path}.data_state",
            f"expected one of {sorted(_STATE_BY_NAME)}, got {state_name!r}",
        )
    try:
        return InfoAsset(
            id=_as_str(_require(data, "id", path), f"{path}.id"),
            sensitivity_index=_as_int(
                _require(data, "sensitivity_index", path), f"{path}.sensitivity_index", minimum=1
            ),
            time_index=_as_int(_require(data, "time_index", path), f"{path}.time_index", minimum=1),
            size_bytes=_as_int(_get(data, "size_bytes", 0), f"{path}.size_bytes", minimum=0),
            lifetime_seconds=_as_float(
                _get(data, "lifetime_seconds", 0.0), f"{path}.lifetime_seconds", minimum=0.0
            ),
            data_state=_STATE_BY_NAME[state_name],
        )
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(path, str(exc)) from exc


_KIND_BY_LABEL = {kind.label: kind for kind in TechniqueKind}


def _parse_technique(obj: Any, path: str, strict: bool) -> Technique:
    if isinstance(obj, str):
        if obj not in _KIND_BY_LABEL:
            raise ValidationError(path, f"unknown technique {obj!r}")
        return Technique(_KIND_BY_LABEL[obj])
    data = _as_dict(obj, path)
    _unknown_keys(
        data,
        {"kind", "master_bits", "session_bits", "quantum_bits", "rotation_frequency_hz"},
        path,
        strict,
    )
    label = _as_str(_require(data, "kind", path), f"{path}.kind")
    if label not in _KIND_BY_LABEL:
        raise ValidationError(f"{path}.kind", f"unknown technique {label!r}")
    kind = _KIND_BY_LABEL[label]
    sizing_keys = set(data) - {"kind"}
    if kind is not TechniqueKind.HYBRID:
        if sizing_keys:
            raise ValidationError(path, f"{label} takes no sizing fields")
        return Technique(kind)
    base = HybridParams()
    try:
        return Technique(
            TechniqueKind.HYBRID,
            HybridParams(
                master_bits=_as_int(
                    _get(data, "master_bits", base.master_bits), f"{path}.master_bits", minimum=1
                ),
                session_bits=_as_int(
                    _get(data, "session_bits", base.session_bits), f"{path}.session_bits", minimum=1
                ),
                quantum_bits=_as_int(
                    _get(data, "quantum_bits", base.quantum_bits), f"{path}.quantum_bits", minimum=1
                ),
                rotation_frequency_hz=_as_float(
                    _get(data, "rotation_frequency_hz", base.rotation_frequency_hz),
                    f"{path}.rotation_frequency_hz",
                    minimum=0.0,
                ),
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(path, str(exc)) from exc


def _parse_matrix(obj: Any, path: str, strict: bool) -> PolicyMatrix:
    data = _as_dict(obj, path)
    _unknown_keys(data, {"m_c", "k_t", "cells"}, path, strict)
    m_c = _as_int(_require(data, "m_c", path), f"{path}.m_c", minimum=2)
    k_t = _as_int(_require(data, "k_t", path), f"{path}.k_t", minimum=2)
    cells: dict[tuple[int, int], Technique] = {}
    for i, cell_obj in enumerate(_as_list(_require(data, "cells", path), f"{path}.cells")):
        cell_path = f"{path}.cells[{i}]"
        cell = _as_dict(cell_obj, cell_path)
        _unknown_keys(cell, {"sensitivity", "time", "technique"}, cell_path, strict)
        c = _as_int(_require(cell, "sensitivity", cell_path), f"{cell_path}.sensitivity")
        t = _as_int(_require(cell, "time", cell_path), f"{cell_path}.time")
        if not (1 <= c <= m_c and 1 <= t <= k_t):
            raise ValidationError(cell_path, f"cell ({c}, {t}) outside {m_c}x{k_t}")
        if (c, t) in cells:
            raise ValidationError(cell_path, f"cell ({c}, {t}) defined twice")
        cells[(c, t)] = _parse_technique(
            _require(cell, "technique", cell_path), f"{cell_path}.technique", strict
        )
    matrix = PolicyMatrix(m_c=m_c, k_t=k_t, cells=cells)
    problems = validate_matrix(matrix)
    if problems:
        raise ValidationError(path, "; ".join(problems))
    return matrix


def _parse_attacker(obj: Any, path: str, strict: bool) -> AttackerModel:
    data = _as_dict(obj, path)
    _unknown_keys(data, {"classical_ops_per_sec", "has_quantum", "records_traffic"}, path, strict)
    ops = _as_float(
        _get(data, "classical_ops_per_sec", DEFAULT_ATTACKER.classical_ops_per_sec),
        f"{path}.classical_ops_per_sec",
    )
    if ops <= 0:
        raise ValidationError(f"{path}.classical_ops_per_sec", f"must be positive, got {ops}")
    return AttackerModel(
        classical_ops_per_sec=ops,
        has_quantum=_as_bool(
            _get(data, "has_quantum", DEFAULT_ATTACKER.has_quantum), f"{path}.has_quantum"
        ),
        records_traffic=_as_bool(
            _get(data, "records_traffic", DEFAULT_ATTACKER.records_traffic),
            f"{path}.records_traffic",
        ),
    )


def _parse_migration(obj: Any, path: str, strict: bool) -> MigrationTimeline:
    data = _as_dict(obj, path)
    _unknown_keys(data, {"x_years", "y_years", "z_years"}, path, strict)
    return MigrationTimeline(
        x_years=_as_float(_require(data, "x_years", path), f"{path}.x_years", minimum=0.0),
        y_years=_as_float(_require(data, "y_years", path), f"{path}.y_years", minimum=0.0),
        z_years=_as_float(_require(data, "z_years", path), f"{path}.z_years", minimum=0.0),
    )


_TOP_KEYS = {
    "format_version",
    "seed",
    "duration_seconds",
    "tick_seconds",
    "hub",
    "branches",
    "traffic",
    "sharing",
    "assets",
    "classes",
    "policy_matrix",
    "attacker",
    "migration",
}


def scenario_from_dict(data: Any, strict: bool = True) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    top = _as_dict(data, "scenario")
    _unknown_keys(top, _TOP_KEYS, "scenario", strict)
    version = _get(top, "format_version", SCENARIO_FORMAT_VERSION)
    if version != SCENARIO_FORMAT_VERSION:
        raise ValidationError(
            "format_version", f"expected {SCENARIO_FORMAT_VERSION}, got {version!r}"
        )

    seed = _as_int(_get(top, "seed", DEFAULT_SEED), "seed", minimum=0)
    if seed >= 2**64:
        raise ValidationError("seed", f"must fit in 64 bits, got {seed}")
    duration = _as_float(_require(top, "duration_seconds", "scenario"), "duration_seconds")
    tick = _as_float(_get(top, "tick_seconds", DEFAULT_TICK_SECONDS), "tick_seconds")
    if tick <= 0:
        raise ValidationError("tick_seconds", f"must be positive, got {tick}")
    _check_duration(duration, tick)

    branches = tuple(
        _parse_branch(obj, f"branches[{i}]", strict)
        for i, obj in enumerate(_as_list(_require(top, "branches", "scenario"), "branches"))
    )
    if not branches:
        raise ValidationError("branches", "at least one branch is required")
    hub = _parse_hub(_get(top, "hub", {}), "hub", strict)
    ids = [b.id for b in branches]
    seen: set[str] = {hub.id}
    for i, bid in enumerate(ids):
        if bid in seen:
            raise ValidationError(f"branches[{i}].id", f"duplicate id {bid!r}")
        seen.add(bid)

    known = set(ids)
    traffic = tuple(
        _parse_traffic(obj, f"traffic[{i}]", strict)
        for i, obj in enumerate(_as_list(_get(top, "traffic", []), "traffic"))
    )
    first_index: dict[tuple[str, str], int] = {}
    for i, demand in enumerate(traffic):
        for end, value in (("src", demand.src), ("dst", demand.dst)):
            if value not in known:
                raise ValidationError(f"traffic[{i}].{end}", f"unknown branch {value!r}")
        earlier = first_index.setdefault((demand.src, demand.dst), i)
        if earlier != i:
            raise ValidationError(
                f"traffic[{i}]",
                f"duplicate pair {demand.src}->{demand.dst}, already given at traffic[{earlier}]",
            )

    sharing = tuple(
        _parse_sharing(obj, f"sharing[{i}]", strict)
        for i, obj in enumerate(_as_list(_get(top, "sharing", []), "sharing"))
    )
    seen_sharing: set[str] = set()
    for i, inst in enumerate(sharing):
        if inst.id in seen_sharing:
            raise ValidationError(f"sharing[{i}].id", f"duplicate id {inst.id!r}")
        seen_sharing.add(inst.id)
        for j, custodian in enumerate(inst.custodians):
            if custodian not in known:
                raise ValidationError(
                    f"sharing[{i}].custodians[{j}]", f"unknown branch {custodian!r}"
                )

    assets = tuple(
        _parse_asset(obj, f"assets[{i}]", strict)
        for i, obj in enumerate(_as_list(_get(top, "assets", []), "assets"))
    )
    seen_assets: set[str] = set()
    for i, item in enumerate(assets):
        if item.id in seen_assets:
            raise ValidationError(f"assets[{i}].id", f"duplicate id {item.id!r}")
        seen_assets.add(item.id)

    classes = None
    if _get(top, "classes") is not None:
        cls = _as_dict(top["classes"], "classes")
        _unknown_keys(cls, {"m_c", "k_t"}, "classes", strict)
        classes = (
            _as_int(_require(cls, "m_c", "classes"), "classes.m_c", minimum=2),
            _as_int(_require(cls, "k_t", "classes"), "classes.k_t", minimum=2),
        )

    matrix = None
    if _get(top, "policy_matrix") is not None:
        matrix = _parse_matrix(top["policy_matrix"], "policy_matrix", strict)
        if classes is not None and (matrix.m_c, matrix.k_t) != classes:
            raise ValidationError(
                "policy_matrix",
                f"matrix is {matrix.m_c}x{matrix.k_t} but classes say "
                f"{classes[0]}x{classes[1]}",
            )

    bound = None
    if matrix is not None:
        bound = (matrix.m_c, matrix.k_t)
    elif classes is not None:
        bound = classes
    if bound is not None:
        for i, item in enumerate(assets):
            if item.sensitivity_index > bound[0]:
                raise ValidationError(
                    f"assets[{i}].sensitivity_index",
                    f"{item.sensitivity_index} exceeds m_c={bound[0]}",
                )
            if item.time_index > bound[1]:
                raise ValidationError(
                    f"assets[{i}].time_index", f"{item.time_index} exceeds k_t={bound[1]}"
                )

    attacker = _parse_attacker(_get(top, "attacker", {}), "attacker", strict)
    migration = None
    if _get(top, "migration") is not None:
        try:
            migration = _parse_migration(top["migration"], "migration", strict)
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError("migration", str(exc)) from exc

    return Scenario(
        duration_seconds=duration,
        branches=branches,
        seed=seed,
        tick_seconds=tick,
        hub=hub,
        traffic=traffic,
        sharing=sharing,
        assets=assets,
        classes=classes,
        policy_matrix=matrix,
        attacker=attacker,
        migration=migration,
    )


def ingest_plan_inputs(
    path: str | Path, strict: bool = True
) -> tuple[tuple[InfoAsset, ...], tuple[int, int] | None, MigrationTimeline | None]:
    """Load an assets file for planning: assets, optional classes, migration."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(p), f"cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(p), f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    top = _as_dict(data, "assets file")
    _unknown_keys(top, {"assets", "classes", "migration"}, "assets file", strict)
    assets = tuple(
        _parse_asset(obj, f"assets[{i}]", strict)
        for i, obj in enumerate(_as_list(_require(top, "assets", "assets file"), "assets"))
    )
    classes = None
    if _get(top, "classes") is not None:
        cls = _as_dict(top["classes"], "classes")
        _unknown_keys(cls, {"m_c", "k_t"}, "classes", strict)
        classes = (
            _as_int(_require(cls, "m_c", "classes"), "classes.m_c", minimum=2),
            _as_int(_require(cls, "k_t", "classes"), "classes.k_t", minimum=2),
        )
    migration = None
    if _get(top, "migration") is not None:
        try:
            migration = _parse_migration(top["migration"], "migration", strict)
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError("migration", str(exc)) from exc
    return assets, classes, migration


def ingest_matrix(path: str | Path, strict: bool = True) -> PolicyMatrix:
    """Load a policy matrix file (same schema as the scenario's block)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(p), f"cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(p), f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _parse_matrix(data, "policy_matrix", strict)


def ingest_scenario(path: str | Path, strict: bool = True) -> Scenario:
    """Load, parse, and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(p), f"cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(p), f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data, strict=strict)


# ---------------------------------------------------------------------------
# serialization


def technique_to_jsonable(technique: Technique) -> Any:
    if technique.kind is not TechniqueKind.HYBRID:
        return technique.kind.label
    sizing = technique.hybrid
    assert sizing is not None
    return {
        "kind": "hybrid",
        "master_bits": sizing.master_bits,
        "session_bits": sizing.session_bits,
        "quantum_bits": sizing.quantum_bits,
        "rotation_frequency_hz": sizing.rotation_frequency_hz,
    }


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Serialize with every default materialized; round-trips exactly."""
    out: dict[str, Any] = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "seed": s.seed,
        "duration_seconds": s.duration_seconds,
        "tick_seconds": s.tick_seconds,
        "hub": {
            "id": s.hub.id,
            "channel_count": s.hub.channel_count,
            "cpu_capacity_per_sec": s.hub.cpu_capacity_per_sec,
        },
        "branches": [
            {
                "id": b.id,
                "distance_km": b.link.distance_km,
                "attenuation_db_per_km": b.link.attenuation_db_per_km,
                "source_rate_hz": b.link.source_rate_hz,
                "detector_efficiency": b.link.detector_efficiency,
                "sifting_factor": b.link.sifting_factor,
                "qber": b.link.qber,
                "cpu_cost_per_raw_bit": b.link.cpu_cost_per_raw_bit,
                "post_processing_messages_per_round": b.link.post_processing_messages_per_round,
                "auth_reserved_bits": b.auth_reserved_bits,
                "auth_tag_cost_bits": b.auth_tag_cost_bits,
                "pool_target_bits": b.pool_target_bits,
                "rotation_frequency_hz": b.rotation_frequency_hz,
                "master_bits": b.master_bits,
                "session_bits": b.session_bits,
            }
            for b in s.branches
        ],
        "traffic": [
            {
                "src": t.src,
                "dst": t.dst,
                "otp_bits_per_sec": t.otp_bits_per_sec,
                "relay_bits": t.relay_bits,
                "relay_interval_seconds": t.relay_interval_seconds,
            }
            for t in s.traffic
        ],
        "sharing": [
            {
                "id": inst.id,
                "n_locations": inst.n_locations,
                "threshold_k": inst.threshold_k,
                "field_prime": inst.field_prime,
                "refresh_period_seconds": inst.refresh_period_seconds,
                "custodians": list(inst.custodians),
            }
            for inst in s.sharing
        ],
        "assets": [
            {
                "id": a.id,
                "sensitivity_index": a.sensitivity_index,
                "time_index": a.time_index,
                "size_bytes": a.size_bytes,
                "lifetime_seconds": a.lifetime_seconds,
                "data_state": a.data_state.value,
            }
            for a in s.assets
        ],
        "classes": None if s.classes is None else {"m_c": s.classes[0], "k_t": s.classes[1]},
        "policy_matrix": None,
        "attacker": {
            "classical_ops_per_sec": s.attacker.classical_ops_per_sec,
            "has_quantum": s.attacker.has_quantum,
            "records_traffic": s.attacker.records_traffic,
        },
        "migration": None
        if s.migration is None
        else {
            "x_years": s.migration.x_years,
            "y_years": s.migration.y_years,
            "z_years": s.migration.z_years,
        },
    }
    if s.policy_matrix is not None:
        out["policy_matrix"] = {
            "m_c": s.policy_matrix.m_c,
            "k_t": s.policy_matrix.k_t,
            "cells": [
                {
                    "sensitivity": c,
                    "time": t,
                    "technique": technique_to_jsonable(s.policy_matrix.cells[(c, t)]),
                }
                for c in range(1, s.policy_matrix.m_c + 1)
                for t in range(1, s.policy_matrix.k_t + 1)
            ],
        }
    return out


def with_overrides(
    s: Scenario, seed: int | None = None, duration_seconds: float | None = None
) -> Scenario:
    """Apply CLI-style overrides, re-checking what they can break."""
    out = s
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ValidationError("seed", f"must fit in 64 bits, got {seed}")
        out = replace(out, seed=seed)
    if duration_seconds is not None:
        _check_duration(duration_seconds, out.tick_seconds)
        out = replace(out, duration_seconds=duration_seconds)
    return out
