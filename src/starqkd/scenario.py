"""Scenario files: field tables, validation, round-trip serialization.

A scenario is one JSON object describing the star (hub limits and
branch links), the demands placed on it (pairwise traffic, relay
requests, sharing instances), the assets to plan for, and the attacker.

Each JSON object has one field table mapping its keys to a `_Field`:
the reader for the kind (int, float, str, bool, array, or unchecked)
and the default or `_REQUIRED`, and nothing else. `_read` checks an
object against its table (unknown and required keys, kinds,
finiteness; each error names its dotted path) and returns the values
with defaults applied. The types check the values, whether parsed or
built by hand: each scenario and library type checks its own fields and
entry rules, `_build` makes one and reports its `errors.RangeError` at
`path.field` and any other precondition error at `path`, and a
`Scenario` checks its own rules across sections, its policy grid and
its run. `scenario_to_dict` dumps through the same tables. Strict mode
rejects unknown fields; lax mode warns and drops them. `null` means the
default only where the default is null. A run may have at most
MAX_TICKS ticks, at most MAX_TICKS periodic firings (rotations, relay
requests and share refreshes together) and a hub CPU demand of at most
MAX_CPU_DEMAND, and a policy grid at most MAX_GRID_CELLS cells.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .errors import BadField, ParseError, RangeError, ValidationError, check_range
from .hybrid import AttackerModel, MigrationTimeline, whole_ticks
from .keycore import DEFAULT_AUTH_RESERVED_BITS, DEFAULT_POOL_TARGET_BITS, DEFAULT_TAG_COST_BITS
from .policy import (
    DataState,
    HybridParams,
    InfoAsset,
    PolicyMatrix,
    Technique,
    TechniqueKind,
    asset_grid,
    validate_matrix,
)
from .qkdlink import LinkParams
from .rng import MAX_SEED
from .sharing import DEFAULT_FIELD_PRIME, ShareConfig

SCENARIO_FORMAT_VERSION = 1

# duration_seconds / tick_seconds may not exceed this: the engine runs
# every tick of every link and keeps one series entry per tick. Nor may
# the run's periodic firings together, each of which logs an entry.
MAX_TICKS = 10_000_000
# The whole run's hub CPU demand may not exceed this, half the largest
# float: every backlog, processed and cumulative cost is at most the
# demand, so none of them, float sums' rounding included, leaves range.
MAX_CPU_DEMAND = sys.float_info.max / 2
# m_c * k_t may not exceed this: validate_matrix and default_matrix
# visit every cell of the grid.
MAX_GRID_CELLS = 10_000

DEFAULT_SEED = 0
DEFAULT_TICK_SECONDS = 1.0
DEFAULT_HUB_ID = "hub"
# Effectively unthrottled; a hub row can lower it.
DEFAULT_HUB_CPU_PER_SEC = 1e18
DEFAULT_MASTER_BITS = 256

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

    def __post_init__(self) -> None:
        if self.channel_count is not None:
            check_range("channel_count", self.channel_count, 1)
        check_range("cpu_capacity_per_sec", self.cpu_capacity_per_sec, positive=True)


@dataclass(frozen=True)
class BranchScenario:
    id: str
    link: LinkParams = DEFAULT_LINK
    auth_reserved_bits: int = DEFAULT_AUTH_RESERVED_BITS
    auth_tag_cost_bits: int = DEFAULT_TAG_COST_BITS
    pool_target_bits: int = DEFAULT_POOL_TARGET_BITS
    rotation_frequency_hz: float = 0.0
    master_bits: int = DEFAULT_MASTER_BITS

    def __post_init__(self) -> None:
        check_range("auth_reserved_bits", self.auth_reserved_bits, 0)
        check_range("auth_tag_cost_bits", self.auth_tag_cost_bits, 1)
        check_range("pool_target_bits", self.pool_target_bits, 1)
        check_range("rotation_frequency_hz", self.rotation_frequency_hz, 0.0)
        check_range("master_bits", self.master_bits, 1)


@dataclass(frozen=True)
class TrafficDemand:
    src: str
    dst: str
    otp_bits_per_sec: float = 0.0
    relay_bits: int = 0
    relay_interval_seconds: float = 0.0

    def __post_init__(self) -> None:
        check_range("otp_bits_per_sec", self.otp_bits_per_sec, 0.0)
        check_range("relay_bits", self.relay_bits, 0)
        check_range("relay_interval_seconds", self.relay_interval_seconds, 0.0)
        if self.src == self.dst:
            raise ValueError(f"src and dst must differ, both are {self.src!r}")
        if (self.relay_bits > 0) != (self.relay_interval_seconds > 0):
            raise ValueError("relay_bits and relay_interval_seconds must be given together")


@dataclass(frozen=True)
class SharingScenario:
    id: str
    n_locations: int
    threshold_k: int
    refresh_period_seconds: float
    custodians: tuple[str, str]
    field_prime: int = DEFAULT_FIELD_PRIME

    def __post_init__(self) -> None:
        check_range("refresh_period_seconds", self.refresh_period_seconds, positive=True)
        if len(self.custodians) != 2:
            count = len(self.custodians)
            raise RangeError("custodians", f"expected exactly two branch ids, got {count}")
        if self.custodians[0] == self.custodians[1]:
            raise RangeError("custodians", "custodians must be two distinct branches")
        self.config()

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

    def __post_init__(self) -> None:
        """Check the rules across sections, in this order, and then the run."""
        if not self.branches:
            raise ValidationError("branches", "at least one branch is required")
        _check_unique(self.branches, "branches", taken=(self.hub.id,))
        known = {b.id for b in self.branches}
        first_index: dict[tuple[str, str], int] = {}
        for i, demand in enumerate(self.traffic):
            for end, value in (("src", demand.src), ("dst", demand.dst)):
                if value not in known:
                    raise ValidationError(f"traffic[{i}].{end}", f"unknown branch {value!r}")
            earlier = first_index.setdefault((demand.src, demand.dst), i)
            if earlier != i:
                pair = f"{demand.src}->{demand.dst}"
                raise ValidationError(
                    f"traffic[{i}]", f"duplicate pair {pair}, already given at traffic[{earlier}]"
                )
        _check_unique(self.sharing, "sharing")
        for i, inst in enumerate(self.sharing):
            for j, custodian in enumerate(inst.custodians):
                if custodian not in known:
                    raise ValidationError(
                        f"sharing[{i}].custodians[{j}]", f"unknown branch {custodian!r}"
                    )
        policy_grid(self.assets, self.classes, self.policy_matrix)
        _check_run(self)

    @property
    def channel_count(self) -> int:
        if self.hub.channel_count is not None:
            return self.hub.channel_count
        return len(self.branches)

    @property
    def tick_count(self) -> int:
        return int(round(self.duration_seconds / self.tick_seconds))


# ---------------------------------------------------------------------------
# value readers: each takes (value, path) and returns the value of its kind


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


def _as_choice(value: Any, path: str, choices: dict[str, Any]) -> Any:
    name = _as_str(value, path)
    if name not in choices:
        raise ValidationError(path, f"expected one of {sorted(choices)}, got {name!r}")
    return choices[name]


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected true/false, got {value!r}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer too large for a float
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(path, f"must be a finite number, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# field tables

_REQUIRED = object()


# A field is (reader, default): the reader checks a present value's kind.
# Plain tuples, as they unpack fastest.
_Field = tuple[Callable[[Any, str], Any], Any]


def _kind(read: Callable[[Any, str], Any]) -> Callable[..., _Field]:
    """The field maker of one kind: `_int(default)` is `(_as_int, default)`."""
    return lambda default=_REQUIRED: (read, default)


_int, _float, _bool, _array = map(_kind, (_as_int, _as_float, _as_bool, _as_list))
# A field whose value the caller checks itself (a nested object).
_any = _kind(lambda value, path: value)


def _str(default: Any = _REQUIRED, choices: dict[str, Any] | None = None) -> _Field:
    return (_as_str if choices is None else partial(_as_choice, choices=choices), default)


_LINK = dict(
    distance_km=_float(DEFAULT_LINK.distance_km),
    attenuation_db_per_km=_float(DEFAULT_LINK.attenuation_db_per_km),
    source_rate_hz=_float(DEFAULT_LINK.source_rate_hz),
    detector_efficiency=_float(DEFAULT_LINK.detector_efficiency),
    sifting_factor=_float(DEFAULT_LINK.sifting_factor),
    qber=_float(DEFAULT_LINK.qber),
    cpu_cost_per_raw_bit=_float(DEFAULT_LINK.cpu_cost_per_raw_bit),
    post_processing_messages_per_round=_int(DEFAULT_LINK.post_processing_messages_per_round),
)

_BRANCH = dict(
    id=_str(),
    auth_reserved_bits=_int(DEFAULT_AUTH_RESERVED_BITS),
    auth_tag_cost_bits=_int(DEFAULT_TAG_COST_BITS),
    pool_target_bits=_int(DEFAULT_POOL_TARGET_BITS),
    rotation_frequency_hz=_float(0.0),
    master_bits=_int(DEFAULT_MASTER_BITS),
)

# A branch object carries its link's fields inline.
_BRANCH_OBJECT = {**_BRANCH, **_LINK}

_HUB = dict(
    id=_str(DEFAULT_HUB_ID),
    channel_count=_int(None),
    cpu_capacity_per_sec=_float(DEFAULT_HUB_CPU_PER_SEC),
)

_TRAFFIC = dict(
    src=_str(),
    dst=_str(),
    otp_bits_per_sec=_float(0.0),
    relay_bits=_int(0),
    relay_interval_seconds=_float(0.0),
)

_SHARING = dict(
    id=_str(),
    n_locations=_int(),
    threshold_k=_int(),
    field_prime=_int(DEFAULT_FIELD_PRIME),
    refresh_period_seconds=_float(),
    custodians=_array(),
)

_STATE_BY_NAME = {state.value: state for state in DataState}

_ASSET = dict(
    id=_str(),
    sensitivity_index=_int(),
    time_index=_int(),
    size_bytes=_int(0),
    lifetime_seconds=_float(0.0),
    data_state=_str(DataState.AT_REST, choices=_STATE_BY_NAME),
)

_KIND_BY_LABEL = {kind.label: kind for kind in TechniqueKind}
_HYBRID_BASE = HybridParams()

_HYBRID = dict(
    master_bits=_int(_HYBRID_BASE.master_bits),
    session_bits=_int(_HYBRID_BASE.session_bits),
    quantum_bits=_int(_HYBRID_BASE.quantum_bits),
    rotation_frequency_hz=_float(_HYBRID_BASE.rotation_frequency_hz),
)

# The object form of a technique; only hybrid takes the sizing fields.
_TECHNIQUE = dict(kind=_str(choices=_KIND_BY_LABEL), **_HYBRID)

_CLASSES = dict(m_c=_int(), k_t=_int())

_MATRIX = dict(**_CLASSES, cells=_array())

_CELL = dict(sensitivity=_int(), time=_int(), technique=_any())

_ATTACKER = dict(
    classical_ops_per_sec=_float(DEFAULT_ATTACKER.classical_ops_per_sec),
    has_quantum=_bool(DEFAULT_ATTACKER.has_quantum),
    records_traffic=_bool(DEFAULT_ATTACKER.records_traffic),
)

_MIGRATION = dict(x_years=_float(), y_years=_float(), z_years=_float())

_SCENARIO = dict(
    format_version=_any(SCENARIO_FORMAT_VERSION),
    seed=_int(DEFAULT_SEED),
    duration_seconds=_float(),
    tick_seconds=_float(DEFAULT_TICK_SECONDS),
    hub=_any({}),
    branches=_array(),
    traffic=_array(()),
    sharing=_array(()),
    assets=_array(()),
    classes=_any(None),
    policy_matrix=_any(None),
    attacker=_any({}),
    migration=_any(None),
)

# The assets file read by `starqkd plan`.
_PLAN = dict(assets=_array(), classes=_any(None), migration=_any(None))

# Objects whose fields are named without a prefix ("seed", not "scenario.seed").
_ROOTS = ("scenario", "assets file")


def _read(obj: Any, path: str, table: dict[str, _Field], strict: bool) -> dict[str, Any]:
    """Check the JSON object at path against table; return every field's value."""
    data = _as_dict(obj, path)
    if not data.keys() <= table.keys():
        msg = f"unknown field(s): {', '.join(sorted(data.keys() - table.keys()))}"
        if strict:
            raise ValidationError(path, msg)
        warnings.warn(f"{path}: {msg} (ignored)", stacklevel=3)
    prefix = "" if path in _ROOTS else f"{path}."
    values = {}
    for key, (read, default) in table.items():
        value = data.get(key, default)
        if value is _REQUIRED:
            raise ValidationError(path, f"missing required field '{key}'")
        # An absent key, or null where the default is null, takes the
        # default as it stands; defaults are valid by construction.
        values[key] = value if value is default else read(value, prefix + key)
    return values


def _build(make: Callable[..., Any], path: str, values: dict[str, Any]) -> Any:
    """make(**values); a RangeError is reported at path.field, other precondition errors at path."""
    try:
        return make(**values)
    except RangeError as exc:
        raise ValidationError(f"{path}.{exc.field}", exc.message) from exc
    except (BadField, ValueError) as exc:
        raise ValidationError(path, str(exc)) from exc


def _dump(obj: Any, table: dict[str, _Field]) -> dict[str, Any]:
    out = {}
    for key in table:
        value = getattr(obj, key)
        if isinstance(value, Enum):
            value = value.value
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# rules across sections, each decided in one place


def periodic_sources(s: Scenario) -> list[tuple[str, int, str, float]]:
    """The run's periodic sources in the engine's order: (section, index, key, period).

    Field key of s.<section>[index] sets period: rotations every 1.0 / f for a branch whose
    rotation_frequency_hz f is not 0, relay requests every relay_interval_seconds for traffic
    with relay_bits > 0, then every sharing instance's refreshes. The types make each period
    positive; `_check_run` bounds these and the engine schedules them.
    """
    rotations = [(i, b.rotation_frequency_hz) for i, b in enumerate(s.branches)]
    relays = [(i, t.relay_interval_seconds) for i, t in enumerate(s.traffic) if t.relay_bits > 0]
    refreshes = [(i, inst.refresh_period_seconds) for i, inst in enumerate(s.sharing)]
    return [
        *(("branches", i, "rotation_frequency_hz", 1.0 / f) for i, f in rotations if f != 0),
        *(("traffic", i, "relay_interval_seconds", t) for i, t in relays),
        *(("sharing", i, "refresh_period_seconds", t) for i, t in refreshes),
    ]


def _check_run(s: Scenario) -> None:
    """Check a run's seed, tick, tick count, hub CPU demand and periodic sources."""
    seed = _as_int(s.seed, "seed")
    if not 0 <= seed <= MAX_SEED:
        must = "be >= 0" if seed < 0 else "fit in 64 bits"
        raise ValidationError("seed", f"must {must}, got {seed}")
    duration = _as_float(s.duration_seconds, "duration_seconds")
    tick = _as_float(s.tick_seconds, "tick_seconds")
    for key, value in (("tick_seconds", tick), ("duration_seconds", duration)):
        if value <= 0:
            raise ValidationError(key, f"must be positive, got {value}")
    ratio = duration / tick
    if not ratio < MAX_TICKS + 0.5:
        raise ValidationError(
            "duration_seconds", f"{ratio:g} ticks exceeds the limit of {MAX_TICKS}"
        )
    ticks = whole_ticks(ratio)
    if ticks is None or ticks < 1:
        raise ValidationError(
            "duration_seconds", f"must be a whole number of ticks, got {ratio} ticks"
        )
    demand = ticks * sum(b.link.cpu_cost_per_sec * tick for b in s.branches)
    if not demand <= MAX_CPU_DEMAND:
        raise ValidationError(
            "duration_seconds",
            f"the run's hub CPU demand of {demand:g} cost units exceeds {MAX_CPU_DEMAND:g}",
        )
    # Each periodic firing logs a ledger or unmet entry, so a run may have
    # at most MAX_TICKS of them. (firings over the run, path) per source:
    firings = [
        (duration / period, f"{section}[{i}].{key}")
        for section, i, key, period in periodic_sources(s)
    ]
    total = sum(count for count, _ in firings)
    if total > MAX_TICKS:
        _, path = max(firings, key=lambda firing: firing[0])  # the first of the largest
        raise ValidationError(path, f"{total:g} periodic firings exceed the limit of {MAX_TICKS}")


def _check_grid(m_c: int, k_t: int, path: str) -> None:
    """The one grid-size rule: each dimension at least 2, at most MAX_GRID_CELLS cells."""
    for name, size in zip(_CLASSES, (m_c, k_t)):
        if size < 2:
            raise ValidationError(f"{path}.{name}", f"must be >= 2, got {size}")
    if m_c * k_t > MAX_GRID_CELLS:
        raise ValidationError(
            path, f"a {m_c}x{k_t} policy grid exceeds the limit of {MAX_GRID_CELLS} cells"
        )


def policy_grid(
    assets: tuple[InfoAsset, ...],
    classes: tuple[int, int] | None = None,
    matrix: PolicyMatrix | None = None,
) -> tuple[int, int]:
    """The (m_c, k_t) grid that run and plan apply to assets.

    The matrix's dimensions if there is a matrix, which must agree with
    classes if both are given; else classes; else the smallest grid that
    holds every asset. Each grid passes `_check_grid`; asset ids are
    unique and every asset must fit.
    """
    _check_unique(assets, "assets")
    if classes is not None:
        _check_grid(*classes, "classes")
    if matrix is not None:
        grid = (matrix.m_c, matrix.k_t)
        _check_grid(*grid, "policy_matrix")
        if classes is not None and grid != classes:
            raise ValidationError(
                "policy_matrix",
                f"matrix is {grid[0]}x{grid[1]} but classes say {classes[0]}x{classes[1]}",
            )
    elif classes is not None:
        grid = classes
    else:
        grid = asset_grid(assets)
        _check_grid(*grid, "assets")
    for i, item in enumerate(assets):
        for key, name, limit in zip(("sensitivity_index", "time_index"), _CLASSES, grid):
            if getattr(item, key) > limit:
                raise ValidationError(
                    f"assets[{i}].{key}", f"{getattr(item, key)} exceeds {name}={limit}"
                )
    return grid


def _check_unique(items: tuple, section: str, taken: tuple[str, ...] = ()) -> None:
    seen = set(taken)
    for i, item in enumerate(items):
        if item.id in seen:
            raise ValidationError(f"{section}[{i}].id", f"duplicate id {item.id!r}")
        seen.add(item.id)


# ---------------------------------------------------------------------------
# section parsers


def _parse_branch(obj: Any, path: str, strict: bool) -> BranchScenario:
    values = _read(obj, path, _BRANCH_OBJECT, strict)
    values["link"] = _build(LinkParams, path, {key: values.pop(key) for key in _LINK})
    return _build(BranchScenario, path, values)


def _parse_traffic(obj: Any, path: str, strict: bool) -> TrafficDemand:
    return _build(TrafficDemand, path, _read(obj, path, _TRAFFIC, strict))


def _parse_sharing(obj: Any, path: str, strict: bool) -> SharingScenario:
    values = _read(obj, path, _SHARING, strict)
    values["custodians"] = tuple(
        _as_str(custodian, f"{path}.custodians[{j}]")
        for j, custodian in enumerate(values["custodians"])
    )
    return _build(SharingScenario, path, values)


def _parse_technique(obj: Any, path: str, strict: bool) -> Technique:
    if isinstance(obj, str):
        return Technique(_as_choice(obj, path, _KIND_BY_LABEL))
    values = _read(obj, path, _TECHNIQUE, strict)
    kind = values.pop("kind")
    if kind is TechniqueKind.HYBRID:
        return Technique(kind, _build(HybridParams, path, values))
    if obj.keys() - {"kind"}:
        raise ValidationError(path, f"{kind.label} takes no sizing fields")
    return Technique(kind)


def _parse_matrix(obj: Any, path: str, strict: bool) -> PolicyMatrix:
    values = _read(obj, path, _MATRIX, strict)
    m_c, k_t = values["m_c"], values["k_t"]
    _check_grid(m_c, k_t, path)
    cells: dict[tuple[int, int], Technique] = {}
    for i, cell_obj in enumerate(values["cells"]):
        cell_path = f"{path}.cells[{i}]"
        c, t, technique = _read(cell_obj, cell_path, _CELL, strict).values()
        if not (1 <= c <= m_c and 1 <= t <= k_t):
            raise ValidationError(cell_path, f"cell ({c}, {t}) outside {m_c}x{k_t}")
        if (c, t) in cells:
            raise ValidationError(cell_path, f"cell ({c}, {t}) defined twice")
        cells[(c, t)] = _parse_technique(technique, f"{cell_path}.technique", strict)
    matrix = PolicyMatrix(m_c=m_c, k_t=k_t, cells=cells)
    problems = validate_matrix(matrix)
    if problems:
        raise ValidationError(path, "; ".join(problems))
    return matrix


def _parse_assets(objs: list, strict: bool) -> tuple[InfoAsset, ...]:
    return tuple(
        _build(InfoAsset, f"assets[{i}]", _read(obj, f"assets[{i}]", _ASSET, strict))
        for i, obj in enumerate(objs)
    )


def _parse_classes(obj: Any, strict: bool) -> tuple[int, int] | None:
    return None if obj is None else tuple(_read(obj, "classes", _CLASSES, strict).values())


def _parse_migration(obj: Any, strict: bool) -> MigrationTimeline | None:
    if obj is None:
        return None
    return _build(MigrationTimeline, "migration", _read(obj, "migration", _MIGRATION, strict))


def scenario_from_dict(data: Any, strict: bool = True) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    values = _read(data, "scenario", _SCENARIO, strict)
    version = values.pop("format_version")
    if version != SCENARIO_FORMAT_VERSION:
        raise ValidationError(
            "format_version", f"expected {SCENARIO_FORMAT_VERSION}, got {version!r}"
        )

    def each(name: str, parse: Callable[[Any, str, bool], Any]) -> tuple:
        return tuple(parse(obj, f"{name}[{i}]", strict) for i, obj in enumerate(values[name]))

    matrix = values["policy_matrix"]
    values.update(
        branches=each("branches", _parse_branch),
        hub=_build(HubScenario, "hub", _read(values["hub"], "hub", _HUB, strict)),
        traffic=each("traffic", _parse_traffic),
        sharing=each("sharing", _parse_sharing),
        assets=_parse_assets(values["assets"], strict),
        classes=_parse_classes(values["classes"], strict),
        policy_matrix=None if matrix is None else _parse_matrix(matrix, "policy_matrix", strict),
        attacker=_build(
            AttackerModel, "attacker", _read(values["attacker"], "attacker", _ATTACKER, strict)
        ),
        migration=_parse_migration(values["migration"], strict),
    )
    return Scenario(**values)  # which checks the rules across sections and the run


def _load_json(path: str | Path) -> Any:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(p), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(p), f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def ingest_plan_inputs(
    path: str | Path, strict: bool = True
) -> tuple[tuple[InfoAsset, ...], tuple[int, int] | None, MigrationTimeline | None]:
    """Load an assets file for planning: assets, optional classes, migration."""
    values = _read(_load_json(path), "assets file", _PLAN, strict)
    assets = _parse_assets(values["assets"], strict)
    classes = _parse_classes(values["classes"], strict)
    policy_grid(assets, classes)
    return assets, classes, _parse_migration(values["migration"], strict)


def ingest_matrix(path: str | Path, strict: bool = True) -> PolicyMatrix:
    """Load a policy matrix file (same schema as the scenario's block)."""
    return _parse_matrix(_load_json(path), "policy_matrix", strict)


def ingest_scenario(path: str | Path, strict: bool = True) -> Scenario:
    """Load, parse, and validate a scenario file."""
    return scenario_from_dict(_load_json(path), strict=strict)


# ---------------------------------------------------------------------------
# serialization


def technique_to_jsonable(technique: Technique) -> Any:
    if technique.kind is not TechniqueKind.HYBRID:
        return technique.kind.label
    return {"kind": technique.kind.label, **_dump(technique.hybrid, _HYBRID)}


def _matrix_to_dict(matrix: PolicyMatrix) -> dict[str, Any]:
    cells = [
        dict(zip(_CELL, (c, t, technique_to_jsonable(technique))))
        for (c, t), technique in sorted(matrix.cells.items())
    ]
    return {**_dump(matrix, _CLASSES), "cells": cells}


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Serialize with every default materialized; round-trips exactly."""
    sections = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "hub": _dump(s.hub, _HUB),
        "branches": [{**_dump(b, _BRANCH), **_dump(b.link, _LINK)} for b in s.branches],
        "traffic": [_dump(t, _TRAFFIC) for t in s.traffic],
        "sharing": [_dump(inst, _SHARING) for inst in s.sharing],
        "assets": [_dump(a, _ASSET) for a in s.assets],
        "classes": None if s.classes is None else dict(zip(_CLASSES, s.classes)),
        "policy_matrix": None if s.policy_matrix is None else _matrix_to_dict(s.policy_matrix),
        "attacker": _dump(s.attacker, _ATTACKER),
        "migration": None if s.migration is None else _dump(s.migration, _MIGRATION),
    }
    return {key: sections[key] if key in sections else getattr(s, key) for key in _SCENARIO}


def with_overrides(
    s: Scenario, seed: int | None = None, duration_seconds: float | None = None
) -> Scenario:
    """Apply CLI-style overrides; the new Scenario checks the run they give."""
    return replace(
        s,
        seed=s.seed if seed is None else seed,
        duration_seconds=s.duration_seconds if duration_seconds is None else duration_seconds,
    )
