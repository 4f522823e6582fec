"""Scenario files: field tables, validation, round-trip serialization.

A scenario is one JSON object describing the star (hub limits and
branch links), the demands placed on it (pairwise traffic, relay
requests, sharing instances), the assets to plan for, and the attacker.

Each JSON object has one field table mapping its keys to their defaults
(`_REQUIRED` where a key must be given), and nothing else. The link,
branch, hub, traffic, sharing, hybrid, attacker and migration tables are
their type's fields and defaults (a link's and an attacker's from
DEFAULT_LINK and DEFAULT_ATTACKER), so parsed and hand-built scenarios
share every default. A branch object, technique, asset, classes, matrix,
cell, scenario and plan file have keys or defaults of no one type, so
theirs are written out. `_read` checks an object against its table (an
object; unknown and required keys; each error names its dotted path) and
returns the values with defaults applied. The parser reads only the
JSON's shape, its objects and arrays, and turns labels into their enums.
The types check the values, whether parsed or built by hand: each
scenario and library type checks its own fields' kinds, ranges and entry
rules with the `errors` rule of each kind, which stores a float field as
a float. `_build` makes one and reports its `errors.RangeError` at
`path.field` and any other precondition error at `path`. A `Scenario`
checks that each section holds its type (a list given for a tuple is
stored as the tuple), its own run fields, its rules across sections and
its policy grid, the matrix's coherence included. `scenario_to_dict`
dumps through the same tables. Strict mode rejects unknown fields; lax
mode warns and drops them. `null` means the default only where the
default is null. A run may have at most MAX_TICKS ticks, at most
MAX_TICKS periodic firings (rotations, relay requests and share
refreshes together) and a hub CPU demand of at most MAX_CPU_DEMAND, and
a policy grid at most MAX_GRID_CELLS cells. Every key a run relays, a
relay request, a share refresh or a tick's one-time pad, is one
`rng.random_bits` draw of at most MAX_RANDOM_BITS bits.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .errors import BadField, ParseError, RangeError, ValidationError, check_int, check_text
from .errors import store_float, store_tuple
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
from .qkdlink import SCALE, LinkParams, scaled_product
from .rng import MAX_RANDOM_BITS, MAX_SEED
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
        check_text("id", self.id)
        if self.channel_count is not None:
            check_int("channel_count", self.channel_count, 1)
        store_float(self, "cpu_capacity_per_sec", positive=True)


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
        check_text("id", self.id)
        check_int("auth_reserved_bits", self.auth_reserved_bits, 0)
        check_int("auth_tag_cost_bits", self.auth_tag_cost_bits, 1)
        check_int("pool_target_bits", self.pool_target_bits, 1)
        store_float(self, "rotation_frequency_hz", 0.0)
        check_int("master_bits", self.master_bits, 1)


@dataclass(frozen=True)
class TrafficDemand:
    src: str
    dst: str
    otp_bits_per_sec: float = 0.0
    relay_bits: int = 0
    relay_interval_seconds: float = 0.0

    def __post_init__(self) -> None:
        check_text("src", self.src)
        check_text("dst", self.dst)
        store_float(self, "otp_bits_per_sec", 0.0)
        check_int("relay_bits", self.relay_bits, 0, MAX_RANDOM_BITS)
        store_float(self, "relay_interval_seconds", 0.0)
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
        check_text("id", self.id)
        store_float(self, "refresh_period_seconds", positive=True)
        for j, custodian in enumerate(store_tuple(self, "custodians")):
            check_text(f"custodians[{j}]", custodian)
        if len(self.custodians) != 2:
            count = len(self.custodians)
            raise RangeError("custodians", f"expected exactly two branch ids, got {count}")
        if self.custodians[0] == self.custodians[1]:
            raise RangeError("custodians", "custodians must be two distinct branches")
        cost = self.config().refresh_cost_bits
        if cost > MAX_RANDOM_BITS:
            raise RangeError(
                "n_locations", f"a refresh of {cost} bits exceeds the limit of {MAX_RANDOM_BITS}"
            )

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
        """Check the sections' types, the run fields, the rules across sections, then the run."""
        _check_sections(self)
        _checked(check_int, "seed", self.seed, 0, MAX_SEED)
        for key in ("duration_seconds", "tick_seconds"):
            _checked(store_float, self, key, positive=True)
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
# JSON shape and labels: each reader takes (value, path)


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected an array, got {type(value).__name__}")
    return value


def _checked(rule: Callable[..., Any], *args: Any, **bounds: Any) -> Any:
    """rule(*args, **bounds), an `errors` kind rule whose RangeError is reported at its field."""
    try:
        return rule(*args, **bounds)
    except RangeError as exc:
        raise ValidationError(exc.field, exc.message) from exc


def _as_choice(value: Any, path: str, choices: dict[str, Any]) -> Any:
    name = _checked(check_text, path, value)
    if name not in choices:
        raise ValidationError(path, f"expected one of {sorted(choices)}, got {name!r}")
    return choices[name]


# ---------------------------------------------------------------------------
# field tables: each key and its default

_REQUIRED = object()


def _fields(kind: type, defaults: Any = None, without: str = "") -> dict[str, Any]:
    """kind's fields less without, each to its value in defaults if given, else its default."""
    own = {f.name: _REQUIRED if f.default is MISSING else f.default for f in fields(kind)}
    own.pop(without, None)
    return own if defaults is None else {key: getattr(defaults, key) for key in own}


# Objects that are exactly a type's fields: their keys and defaults are the type's.
_LINK = _fields(LinkParams, DEFAULT_LINK)
_BRANCH = _fields(BranchScenario, without="link")
_HUB = _fields(HubScenario)
_TRAFFIC = _fields(TrafficDemand)
_SHARING = _fields(SharingScenario)
_HYBRID = _fields(HybridParams)
_ATTACKER = _fields(AttackerModel, DEFAULT_ATTACKER)
_MIGRATION = _fields(MigrationTimeline)

# Written out: each object below has keys, a shape or defaults of no one type.
# A branch object carries its link's fields inline.
_BRANCH_OBJECT = {**_BRANCH, **_LINK}

_STATE_BY_NAME = {state.value: state for state in DataState}

_ASSET = dict(
    id=_REQUIRED,
    sensitivity_index=_REQUIRED,
    time_index=_REQUIRED,
    size_bytes=0,
    lifetime_seconds=0.0,
    data_state=DataState.AT_REST.value,
)

_KIND_BY_LABEL = {kind.label: kind for kind in TechniqueKind}

# The object form of a technique; only hybrid takes the sizing fields.
_TECHNIQUE = dict(kind=_REQUIRED, **_HYBRID)

_CLASSES = dict(m_c=_REQUIRED, k_t=_REQUIRED)

_MATRIX = dict(**_CLASSES, cells=_REQUIRED)

_CELL = dict(sensitivity=_REQUIRED, time=_REQUIRED, technique=_REQUIRED)

_SCENARIO = dict(
    format_version=SCENARIO_FORMAT_VERSION,
    seed=DEFAULT_SEED,
    duration_seconds=_REQUIRED,
    tick_seconds=DEFAULT_TICK_SECONDS,
    hub={},
    branches=_REQUIRED,
    traffic=[],
    sharing=[],
    assets=[],
    classes=None,
    policy_matrix=None,
    attacker={},
    migration=None,
)

# The assets file read by `starqkd plan`.
_PLAN = dict(assets=_REQUIRED, classes=None, migration=None)


def _read(obj: Any, path: str, table: dict[str, Any], strict: bool) -> dict[str, Any]:
    """Check the JSON object at path against table; return every field's value."""
    data = _as_dict(obj, path)
    if not data.keys() <= table.keys():
        msg = f"unknown field(s): {', '.join(sorted(data.keys() - table.keys()))}"
        if strict:
            raise ValidationError(path, msg)
        warnings.warn(f"{path}: {msg} (ignored)", stacklevel=3)
    values = {}
    for key, default in table.items():
        # An absent key, or null where the default is null, takes the default.
        values[key] = data.get(key, default)
        if values[key] is _REQUIRED:
            raise ValidationError(path, f"missing required field '{key}'")
    return values


def _build(make: Callable[..., Any], path: str, values: dict[str, Any]) -> Any:
    """make(**values); a RangeError is reported at path.field, other precondition errors at path."""
    try:
        return make(**values)
    except RangeError as exc:
        raise ValidationError(f"{path}.{exc.field}", exc.message) from exc
    except (BadField, ValueError) as exc:
        raise ValidationError(path, str(exc)) from exc


def _dump(obj: Any, table: dict[str, Any]) -> dict[str, Any]:
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


def _check_sections(s: Scenario) -> None:
    """Check that each section holds its type, before any of its fields is read."""
    for key, kind in (
        ("branches", BranchScenario),
        ("traffic", TrafficDemand),
        ("sharing", SharingScenario),
        ("assets", InfoAsset),
    ):
        for i, item in enumerate(_checked(store_tuple, s, key)):
            if not isinstance(item, kind):
                raise ValidationError(f"{key}[{i}]", f"expected {kind.__name__}, got {item!r}")
    if s.classes is not None and len(_checked(store_tuple, s, "classes")) != 2:
        raise ValidationError("classes", f"expected a pair (m_c, k_t), got {s.classes!r}")
    for key, kind, optional in (
        ("hub", HubScenario, False),
        ("attacker", AttackerModel, False),
        ("migration", MigrationTimeline, True),
        ("policy_matrix", PolicyMatrix, True),
    ):
        value = getattr(s, key)
        if not (isinstance(value, kind) or optional and value is None):
            expected = f"{kind.__name__} or None" if optional else kind.__name__
            raise ValidationError(key, f"expected {expected}, got {value!r}")
    cells = getattr(s.policy_matrix, "cells", {})
    if not isinstance(cells, dict):
        raise ValidationError("policy_matrix.cells", f"expected a dict, got {cells!r}")
    for at, technique in cells.items():
        if not isinstance(technique, Technique):
            index = "".join(f"[{i}]" for i in at) if isinstance(at, tuple) else f"[{at!r}]"
            raise ValidationError(
                f"policy_matrix.cells{index}", f"expected Technique, got {technique!r}"
            )


def _check_run(s: Scenario) -> None:
    """Check a run's tick count, hub CPU demand, pad sizes and periodic sources."""
    duration, tick = s.duration_seconds, s.tick_seconds
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
    # A tick's pad is the whole bytes of its rate plus what the last pad left,
    # under 8 bits, so a rate of at most MAX_RANDOM_BITS - 7 bits per tick
    # keeps every pad to one draw.
    for i, t in enumerate(s.traffic):
        if scaled_product(t.otp_bits_per_sec, tick) > (MAX_RANDOM_BITS - 7) << SCALE:
            raise ValidationError(
                f"traffic[{i}].otp_bits_per_sec",
                f"{t.otp_bits_per_sec!r} bits per second over {tick!r} s ticks exceed the "
                f"limit of {MAX_RANDOM_BITS - 7} pad bits per tick",
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
    """The one grid-size rule: each dimension an int of at least 2, at most MAX_GRID_CELLS cells."""
    for name, size in zip(_CLASSES, (m_c, k_t)):
        _checked(check_int, f"{path}.{name}", size, 2)
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

    The matrix's dimensions if there is a matrix, which must pass
    `validate_matrix` and agree with classes if both are given; else
    classes; else the smallest grid that holds every asset. Each grid
    passes `_check_grid`; asset ids are unique and every asset must fit.
    """
    _check_unique(assets, "assets")
    if classes is not None:
        _check_grid(*classes, "classes")
    if matrix is not None:
        grid = (matrix.m_c, matrix.k_t)
        _check_grid(*grid, "policy_matrix")
        problems = validate_matrix(matrix)
        if problems:
            raise ValidationError("policy_matrix", "; ".join(problems))
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
    _as_list(values["custodians"], f"{path}.custodians")
    return _build(SharingScenario, path, values)


def _parse_technique(obj: Any, path: str, strict: bool) -> Technique:
    if isinstance(obj, str):
        return Technique(_as_choice(obj, path, _KIND_BY_LABEL))
    values = _read(obj, path, _TECHNIQUE, strict)
    kind = _as_choice(values.pop("kind"), f"{path}.kind", _KIND_BY_LABEL)
    if kind is TechniqueKind.HYBRID:
        return Technique(kind, _build(HybridParams, path, values))
    if obj.keys() - {"kind"}:
        raise ValidationError(path, f"{kind.label} takes no sizing fields")
    return Technique(kind)


def _parse_matrix(obj: Any, path: str, strict: bool) -> PolicyMatrix:
    m_c, k_t, cell_objs = _read(obj, path, _MATRIX, strict).values()
    _check_grid(m_c, k_t, path)
    cells: dict[tuple[int, int], Technique] = {}
    for i, cell_obj in enumerate(_as_list(cell_objs, f"{path}.cells")):
        cell_path = f"{path}.cells[{i}]"
        c, t, technique = _read(cell_obj, cell_path, _CELL, strict).values()
        for key, index in zip(_CELL, (c, t)):
            _checked(check_int, f"{cell_path}.{key}", index)
        if not (1 <= c <= m_c and 1 <= t <= k_t):
            raise ValidationError(cell_path, f"cell ({c}, {t}) outside {m_c}x{k_t}")
        if (c, t) in cells:
            raise ValidationError(cell_path, f"cell ({c}, {t}) defined twice")
        cells[(c, t)] = _parse_technique(technique, f"{cell_path}.technique", strict)
    return PolicyMatrix(m_c=m_c, k_t=k_t, cells=cells)  # which policy_grid validates


def _parse_asset(obj: Any, path: str, strict: bool) -> InfoAsset:
    values = _read(obj, path, _ASSET, strict)
    values["data_state"] = _as_choice(values["data_state"], f"{path}.data_state", _STATE_BY_NAME)
    return _build(InfoAsset, path, values)


def _parse_each(values: dict, name: str, parse: Callable[..., Any], strict: bool) -> tuple:
    """Each object of the array values[name], parsed at name[i]."""
    objs = _as_list(values[name], name)
    return tuple(parse(obj, f"{name}[{i}]", strict) for i, obj in enumerate(objs))


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

    matrix = values["policy_matrix"]
    values.update(
        branches=_parse_each(values, "branches", _parse_branch, strict),
        hub=_build(HubScenario, "hub", _read(values["hub"], "hub", _HUB, strict)),
        traffic=_parse_each(values, "traffic", _parse_traffic, strict),
        sharing=_parse_each(values, "sharing", _parse_sharing, strict),
        assets=_parse_each(values, "assets", _parse_asset, strict),
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
    assets = _parse_each(values, "assets", _parse_asset, strict)
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
