"""Every numeric field's range under its kind rule, in the library's and scenario's types.

Each row is (type, field, bound kind, bound, make), where make(value)
builds the type with only that field set to value. NaN, +-infinity and
the first value past the bound must raise the rules' RangeError, a
ValueError naming the field; the bound itself must construct. The
library functions' arguments go through the same rules, before
anything moves.
"""

import math
import random

import pytest

from starqkd.errors import RangeError, StarQkdError
from starqkd.hybrid import (
    AttackerModel,
    HybridCipherState,
    MigrationTimeline,
    SecurityHorizon,
    due_rotations,
    estimate_t_s,
    horizon_for,
)
from starqkd.keycore import AuthBudget, KeyMaterial, KeyPool, Provenance, mix_keys
from starqkd.policy import (
    DataState,
    HybridParams,
    InfoAsset,
    PolicyMatrix,
    Technique,
    TechniqueKind,
    default_matrix,
    validate_matrix,
)
from starqkd.qkdlink import LinkParams, binary_entropy, tick
from starqkd.rng import StreamRegistry, derive_seed, random_bits
from starqkd.scenario import BranchScenario, HubScenario, SharingScenario, TrafficDemand
from starqkd.sharing import ShareConfig, split
from starqkd.starnet import BranchSpec, Node, NodeKind, build_star, hub_cpu_step

ATTACKER = AttackerModel(classical_ops_per_sec=1e9, has_quantum=True)
LINK = dict(distance_km=10.0, source_rate_hz=1e6, detector_efficiency=0.2, qber=0.02)
ASSET = dict(
    id="a",
    sensitivity_index=1,
    time_index=1,
    size_bytes=0,
    lifetime_seconds=0.0,
    data_state=DataState.AT_REST,
)


def hub(**fields):
    return Node(
        **{"id": "hub", "kind": NodeKind.HUB, "channel_count": 1, "cpu_capacity_per_sec": 1.0}
        | fields
    )


def key(bit_length):
    # One byte holds the bound's one bit; a value past the bound fails before the length check.
    return KeyMaterial(id="k", bits=b"\x00", bit_length=bit_length, provenance=Provenance.QUANTUM)


# (type, field, ">=" / "<=" / ">0", bound, make)
ROWS = [
    *(
        ("LinkParams", name, ">=", 0.0, lambda v, name=name: LinkParams(**LINK | {name: v}))
        for name in (
            "distance_km",
            "source_rate_hz",
            "detector_efficiency",
            "sifting_factor",
            "qber",
            "attenuation_db_per_km",
            "cpu_cost_per_raw_bit",
        )
    ),
    *(
        ("LinkParams", name, "<=", high, lambda v, name=name: LinkParams(**LINK | {name: v}))
        for name, high in (("detector_efficiency", 1.0), ("sifting_factor", 1.0), ("qber", 0.5))
    ),
    (
        "LinkParams",
        "post_processing_messages_per_round",
        ">=",
        0,
        lambda v: LinkParams(**LINK, post_processing_messages_per_round=v),
    ),
    ("Node", "channel_count", ">=", 1, lambda v: hub(channel_count=v)),
    ("Node", "cpu_capacity_per_sec", ">0", 0.0, lambda v: hub(cpu_capacity_per_sec=v)),
    ("KeyPool", "target_bits", ">=", 1, lambda v: KeyPool("p", target_bits=v)),
    ("AuthBudget", "reserved_bits", ">=", 0, lambda v: AuthBudget(reserved_bits=v)),
    ("AuthBudget", "tag_cost_bits", ">=", 1, lambda v: AuthBudget(0, tag_cost_bits=v)),
    ("KeyMaterial", "bit_length", ">=", 1, key),
    ("AttackerModel", "classical_ops_per_sec", ">0", 0.0, lambda v: AttackerModel(v)),
    ("MigrationTimeline", "x_years", ">=", 0.0, lambda v: MigrationTimeline(v, 1.0, 1.0)),
    ("MigrationTimeline", "y_years", ">=", 0.0, lambda v: MigrationTimeline(1.0, v, 1.0)),
    ("MigrationTimeline", "z_years", ">=", 0.0, lambda v: MigrationTimeline(1.0, 1.0, v)),
    ("SecurityHorizon", "t_s_seconds", ">=", 0.0, lambda v: SecurityHorizon(v, 10.0)),
    ("SecurityHorizon", "t_sq_seconds", ">=", 5.0, lambda v: SecurityHorizon(5.0, v)),
    (
        "HybridCipherState",
        "rotation_frequency_hz",
        ">=",
        0.0,
        lambda v: HybridCipherState(None, None, rotation_frequency_hz=v),
    ),
    *(
        ("HybridParams", name, ">=", 1, lambda v, name=name: HybridParams(**{name: v}))
        for name in ("master_bits", "session_bits", "quantum_bits")
    ),
    (
        "HybridParams",
        "rotation_frequency_hz",
        ">=",
        0.0,
        lambda v: HybridParams(rotation_frequency_hz=v),
    ),
    *(
        ("InfoAsset", name, ">=", low, lambda v, name=name: InfoAsset(**ASSET | {name: v}))
        for name, low in (
            ("sensitivity_index", 1),
            ("time_index", 1),
            ("size_bytes", 0),
            ("lifetime_seconds", 0.0),
        )
    ),
    ("ShareConfig", "n_locations", ">=", 2, lambda v: ShareConfig(v, 1)),
    ("ShareConfig", "threshold_k", ">=", 1, lambda v: ShareConfig(3, v)),
    ("ShareConfig", "threshold_k", "<=", 3, lambda v: ShareConfig(3, v)),
    ("HubScenario", "channel_count", ">=", 1, lambda v: HubScenario(channel_count=v)),
    (
        "HubScenario",
        "cpu_capacity_per_sec",
        ">0",
        0.0,
        lambda v: HubScenario(cpu_capacity_per_sec=v),
    ),
    *(
        ("BranchScenario", name, ">=", low, lambda v, name=name: BranchScenario("a", **{name: v}))
        for name, low in (
            ("auth_reserved_bits", 0),
            ("auth_tag_cost_bits", 1),
            ("pool_target_bits", 1),
            ("rotation_frequency_hz", 0.0),
            ("master_bits", 1),
        )
    ),
    *(
        (
            "TrafficDemand",
            name,
            ">=",
            low,
            lambda v, name=name: TrafficDemand("a", "b", **{name: v}),
        )
        for name, low in (
            ("otp_bits_per_sec", 0.0),
            ("relay_bits", 0),
            ("relay_interval_seconds", 0.0),
        )
    ),
    (
        "SharingScenario",
        "refresh_period_seconds",
        ">0",
        0.0,
        lambda v: SharingScenario("s", 3, 2, v, ("a", "b")),
    ),
    (
        "horizon_for",
        "rotation_frequency_hz",
        ">=",
        0.0,
        lambda v: horizon_for(40, v, ATTACKER, 3.15e7),
    ),
    (
        "horizon_for",
        "asset_lifetime_seconds",
        ">=",
        0.0,
        lambda v: horizon_for(40, 1.0, ATTACKER, v),
    ),
    ("estimate_t_s", "session_key_bits", ">=", 1, lambda v: estimate_t_s(v, ATTACKER)),
]


def past(kind, bound):
    """The first value outside the bound: the next float, or the next int."""
    if kind == ">0":
        return 0.0
    step = -1 if kind == ">=" else 1
    return bound + step if isinstance(bound, int) else math.nextafter(bound, step * math.inf)


@pytest.mark.parametrize(
    ("owner", "field", "kind", "bound", "make"),
    ROWS,
    ids=[f"{owner}.{field}{kind}" for owner, field, kind, *_ in ROWS],
)
def test_each_numeric_field_takes_its_bound_and_rejects_nan_infinity_and_past_it(
    owner, field, kind, bound, make
):
    for value in (math.nan, math.inf, -math.inf, past(kind, bound)):
        with pytest.raises(ValueError) as caught:
            make(value)
        exc = caught.value
        assert isinstance(exc, RangeError) and isinstance(exc, StarQkdError), (value, exc)
        assert exc.field == field and str(exc) == f"{field}: {exc.message}", value
    make(math.nextafter(0.0, 1.0) if kind == ">0" else bound)


def test_range_rule_messages():
    expected = {
        "qber: must be <= 0.5, got 0.7": lambda: LinkParams(**LINK | {"qber": 0.7}),
        "distance_km: must be >= 0.0, got -1.0": lambda: LinkParams(**LINK | {"distance_km": -1.0}),
        "classical_ops_per_sec: must be positive, got 0.0": lambda: AttackerModel(0.0),
        "x_years: must be a finite number, got nan": lambda: MigrationTimeline(math.nan, 1, 1),
        "channel_count: expected an integer, got None": lambda: hub(channel_count=None),
        "channel_count: expected an integer, got 1.5": lambda: hub(channel_count=1.5),
        "x_years: expected a number, got True": lambda: MigrationTimeline(True, 1, 1),
        "has_quantum: expected true/false, got 1": lambda: AttackerModel(1e9, has_quantum=1),
        "threshold_k: must be <= 3, got 4": lambda: ShareConfig(3, 4),
    }
    for message, make in expected.items():
        with pytest.raises(RangeError) as caught:
            make()
        assert str(caught.value) == message


def test_nan_no_longer_passes_the_horizon_or_the_migration_rule():
    # A NaN frequency used to credit the whole lifetime, a NaN lifetime to
    # give a NaN t_sq, and a NaN shelf life to read "on schedule".
    for args in ((40, math.nan, ATTACKER, 3.15e7), (40, 1.0, ATTACKER, math.nan)):
        with pytest.raises(RangeError):
            horizon_for(*args)
    with pytest.raises(RangeError, match="x_years"):
        MigrationTimeline(math.nan, 1, 1)


def test_due_rotations_bounds_now_at_2_to_the_53_periods():
    state = HybridCipherState(None, None, rotation_frequency_hz=1.0)
    assert due_rotations(state, math.nextafter(2.0**53, 0.0)) >= 2**53 - 1
    for now, f in ((2.0**53, 1.0), (1e10, 1e300)):
        state = HybridCipherState(None, None, rotation_frequency_hz=f)
        with pytest.raises(RangeError) as caught:
            due_rotations(state, now)
        assert caught.value.field == "now"
        assert (state.rotation_count, state.last_rotation_time, state.epoch_log) == (0, 0.0, [])


def backlogged_star():
    """Two branches whose 63k cost units a second each overrun a 500-unit hub: a backlog."""
    specs = [BranchSpec(Node(b, NodeKind.BRANCH), LinkParams(**LINK)) for b in ("b1", "b2")]
    topo = build_star(hub(channel_count=2, cpu_capacity_per_sec=500.0), specs)
    hub_cpu_step(topo, 1.0)
    assert topo.backlog
    return topo


def snapshot(topo, rng):
    """Everything a rejected argument must leave as it was."""
    links = [
        (link.pool.available_bits, link.pool.total_generated_bits, link.pool.total_consumed_bits,
         link.auth.reserved_bits, link.auth.total_consumed_bits, link.halted_ticks,
         link.cumulative_cpu_cost, link.pending_bits)
        for link in topo.link_at
    ]
    return links, list(topo.backlog), topo.backlog_cost, topo.relay_count, rng.getstate()


TEXT_PROVENANCE = dict(id="q", bits=bytes(32), bit_length=256, provenance="quantum")
MASTER = KeyMaterial("m", bytes(32), 256, Provenance.MASTER)

# (id, field, call(topo, rng)): a library argument that used to raise a bare
# error, or to be accepted, each now a RangeError naming the field.
ARGUMENTS = [
    *(
        (f"{name}({dt!r})", "dt", lambda topo, rng, call=call, dt=dt: call(topo, dt))
        for name, call in (
            ("tick", lambda topo, dt: tick(topo.link("b1"), dt)),
            ("LinkState.round", lambda topo, dt: topo.link("b1").round(dt)),
            ("StarTopology.capacity", lambda topo, dt: topo.capacity(dt)),
            ("hub_cpu_step", lambda topo, dt: hub_cpu_step(topo, dt)),
        )
        for dt in (math.inf, math.nan, "1")
    ),
    *(
        (f"{name}({seed!r})", "root_seed", lambda topo, rng, make=make, seed=seed: make(seed))
        for name, make in (("derive_seed", lambda seed: derive_seed(seed, "x")),
                           ("StreamRegistry", StreamRegistry))
        for seed in (1.5, True)
    ),
    *(
        (f"random_bits({n!r})", "n_bits", lambda topo, rng, n=n: random_bits(rng, n))
        for n in (8.0, True)
    ),
    ("Node(id=5)", "id", lambda topo, rng: Node(5, NodeKind.BRANCH)),
    (
        "Node(kind='hub')",
        "kind",
        lambda topo, rng: Node("h", "hub", channel_count=1, cpu_capacity_per_sec=1.0),
    ),
    ("KeyMaterial", "provenance", lambda topo, rng: KeyMaterial(**TEXT_PROVENANCE)),
    ("mix_keys", "provenance", lambda topo, rng: mix_keys(MASTER, KeyMaterial(**TEXT_PROVENANCE))),
    *(
        (f"split({s!r})", "secret", lambda topo, rng, s=s: split(s, ShareConfig(3, 2, 13), rng))
        for s in (1.5, True)
    ),
    ("binary_entropy('x')", "q", lambda topo, rng: binary_entropy("x")),
    # A text hybrid reached recommend() as a bare AttributeError.
    ("Technique(hybrid='x')", "hybrid", lambda topo, rng: Technique(TechniqueKind.HYBRID, "x")),
    *(
        (f"{name}{dims!r}", field, lambda topo, rng, call=call, dims=dims: call(*dims))
        for name, call in (
            ("PolicyMatrix", lambda *dims: validate_matrix(PolicyMatrix(*dims, {}))),
            ("default_matrix", default_matrix),
        )
        for dims, field in (((2.5, 2), "m_c"), (("2", 2), "m_c"), ((3, 2.5), "k_t"))
    ),
]


@pytest.mark.parametrize(
    ("field", "call"), [row[1:] for row in ARGUMENTS], ids=[row[0] for row in ARGUMENTS]
)
def test_each_library_argument_raises_a_range_error_naming_it_before_anything_moves(field, call):
    topo, rng = backlogged_star(), random.Random(7)
    before = snapshot(topo, rng)
    with pytest.raises(ValueError) as caught:
        call(topo, rng)
    assert isinstance(caught.value, RangeError), caught.value
    assert caught.value.field == field
    assert snapshot(topo, rng) == before
