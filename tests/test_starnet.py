"""Star topology: construction, scheduling, relay, hub throttling."""

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starqkd.errors import DuplicateId, InsufficientKey, NoBranches, RangeError
from starqkd.keycore import Provenance
from starqkd.qkdlink import ONE, LinkParams, raw_rate, tick
from starqkd.report import KEY_ID
from starqkd.rng import random_bits
from starqkd.starnet import (
    BranchSpec,
    HubStepReport,
    Node,
    NodeKind,
    RelayRecord,
    StarTopology,
    build_star,
    hub_cpu_step,
    hub_step,
    pick_channels,
    relay_bits,
    relay_key,
    schedule_channels,
)


def hub(channels=2, capacity=1e9) -> Node:
    return Node(id="hub", kind=NodeKind.HUB, channel_count=channels, cpu_capacity_per_sec=capacity)


def branch(bid: str) -> Node:
    return Node(id=bid, kind=NodeKind.BRANCH)


def flat_link(rate=1000.0, qber=0.0, **kw) -> LinkParams:
    # distance 0, perfect detectors: secret rate == source rate
    return LinkParams(
        distance_km=0.0,
        source_rate_hz=rate,
        detector_efficiency=1.0,
        qber=qber,
        sifting_factor=1.0,
        **kw,
    )


def star(n=3, channels=2, capacity=1e9, rate=1000.0, target=1000, reserves=None) -> StarTopology:
    """n branches b1.., each with an auth reserve of 10**9 bits unless reserves gives them."""
    specs = [
        BranchSpec(
            node=branch(f"b{i}"),
            link=flat_link(rate=rate),
            pool_target_bits=target,
            pool_rng=random.Random(1000 + i),
            auth_reserved_bits=reserve,
        )
        for i, reserve in enumerate(reserves or [10**9] * n, 1)
    ]
    return build_star(hub(channels, capacity), specs)


def test_build_star_shapes():
    topo = star(n=10)
    assert topo.branch_ids() == [f"b{i}" for i in range(1, 11)]
    assert len(topo.links) == 10
    single = star(n=1)
    assert single.branch_ids() == ["b1"]


def test_build_star_rejects_bad_input():
    with pytest.raises(NoBranches):
        build_star(hub(), [])
    spec = BranchSpec(node=branch("x"), link=flat_link())
    with pytest.raises(DuplicateId):
        build_star(hub(), [spec, BranchSpec(node=branch("x"), link=flat_link())])
    with pytest.raises(DuplicateId):
        build_star(hub(), [BranchSpec(node=branch("hub"), link=flat_link())])
    with pytest.raises(ValueError):
        build_star(branch("nothub"), [spec])
    with pytest.raises(ValueError):
        Node(id="h", kind=NodeKind.HUB, channel_count=0, cpu_capacity_per_sec=1.0)
    with pytest.raises(ValueError):
        Node(id="h", kind=NodeKind.HUB, channel_count=1, cpu_capacity_per_sec=0)
    with pytest.raises(ValueError):
        Node(id="", kind=NodeKind.BRANCH)
    with pytest.raises(ValueError, match="is not a branch"):
        build_star(hub(), [BranchSpec(node=hub(), link=flat_link())])


def test_relay_delivers_identical_keys_and_charges_both_pools():
    topo = star()
    topo.link("b1").pool.deposit(200)
    topo.link("b2").pool.deposit(300)
    k1, k2, record = relay_key(topo, "b1", "b2", 64, random.Random(7), now=3.0)
    assert k1.bits == k2.bits
    assert k1.bit_length == k2.bit_length == 64
    assert k1.provenance is Provenance.RELAYED
    assert k1.id != k2.id and record.key_id in k1.id
    assert topo.link("b1").pool.available_bits == 136
    assert topo.link("b2").pool.available_bits == 236
    assert record.bits == 64 and record.time == 3.0


def pool_counters(topo: StarTopology, bid: str) -> tuple[int, int, int]:
    pool = topo.link(bid).pool
    return pool.available_bits, pool.total_generated_bits, pool.total_consumed_bits


def pools(topo: StarTopology, *bids: str) -> list:
    return [topo.link(bid).pool for bid in bids]


# Pool levels with b1, b2 or both short of a 128-bit relay.
SHORT = {"b1": (100, 12852), "b2": (12852, 100), "both": (100, 127)}


def test_relay_bits_fails_atomically():
    # The core on the pools the caller holds: either side short gives None,
    # and both pools keep every counter, with no relay counted or drawn.
    for short, levels in SHORT.items():
        topo = star()
        for pool, level in zip(pools(topo, "b1", "b2"), levels):
            pool.deposit(level)
        rng = random.Random(7)
        state = rng.getstate()
        for src, dst in (("b1", "b2"), ("b2", "b1")):
            assert relay_bits(topo, *pools(topo, src, dst), 128, rng) is None, short
            assert [pool_counters(topo, bid) for bid in ("b1", "b2")] == [
                (level, level, 0) for level in levels
            ]
            assert topo.relay_count == 0
            assert rng.getstate() == state


def test_relay_bits_accounting():
    # A relay debits exactly n from each side, makes no pad bits, steps
    # relay_count and returns one random_bits draw of n bits.
    topo = star()
    b1, b2 = pools(topo, "b1", "b2")
    b1.deposit(100)
    b2.deposit(12852)
    streams = [pool.rng.getstate() for pool in (b1, b2)]
    rng, twin = random.Random(7), random.Random(7)
    assert relay_bits(topo, b1, b2, 100, rng) == random_bits(twin, 100)
    assert rng.getstate() == twin.getstate()
    assert pool_counters(topo, "b1") == (0, 100, 100)
    assert pool_counters(topo, "b2") == (12752, 12852, 100)
    assert [pool.rng.getstate() for pool in (b1, b2)] == streams
    assert topo.relay_count == 1


def test_relay_fails_atomically():
    # relay_key names the first short branch in (branch_i, branch_j) order.
    for short, levels in SHORT.items():
        topo = star()
        for pool, level in zip(pools(topo, "b1", "b2"), levels):
            pool.deposit(level)
        rng = random.Random(7)
        state = rng.getstate()
        for src, dst in (("b1", "b2"), ("b2", "b1")):
            first = src if short == "both" else short
            have = levels[("b1", "b2").index(first)]
            message = f"pool {first}: relay needs 128 bits, only {have} available"
            with pytest.raises(InsufficientKey, match=f"^{message}$"):
                relay_key(topo, src, dst, 128, rng)
            assert [pool_counters(topo, bid) for bid in ("b1", "b2")] == [
                (level, level, 0) for level in levels
            ]
            assert topo.relay_count == 0
            assert rng.getstate() == state


def test_relay_rejects_bad_endpoints():
    # Each raises before anything changes, a count that is not an int >= 1
    # included: a bool used to be spent from both pools before it raised.
    topo = star()
    for pool in pools(topo, "b1", "b2"):
        pool.deposit(100)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="relay endpoints must differ"):
        relay_key(topo, "b1", "b1", 8, rng)
    for n, message in (
        (0, "n_bits: must be >= 1, got 0"),
        (True, "n_bits: expected an integer, got True"),
        (8.0, "n_bits: expected an integer, got 8.0"),
    ):
        with pytest.raises(RangeError, match=f"^{message}$"):
            relay_key(topo, "b1", "b2", n, rng)
    with pytest.raises(KeyError):
        relay_key(topo, "b1", "nope", 8, rng)
    with pytest.raises(KeyError):
        relay_key(topo, "nope", "b1", 8, rng)
    assert pool_counters(topo, "b1") == pool_counters(topo, "b2") == (100, 100, 0)
    assert topo.relay_count == 0
    assert rng.getstate() == state


def test_relay_key_wraps_relay_bits():
    # From equal RNG states, relay_key's keys hold exactly the core's draw
    # on the two branches' pools, under the id KEY_ID % relay_count.
    core, wrapped = star(), star()
    for topo in (core, wrapped):
        for bid in topo.branch_ids():
            topo.link(bid).pool.deposit(5000)
    core_rng, wrapped_rng = random.Random(11), random.Random(11)
    for n, i, j in ((1, "b1", "b2"), (64, "b3", "b1"), (100, "b2", "b3"), (4096, "b1", "b3")):
        fresh = relay_bits(core, *pools(core, i, j), n, core_rng)
        k_i, k_j, record = relay_key(wrapped, i, j, n, wrapped_rng, now=2.5)
        key_id = KEY_ID % core.relay_count
        assert isinstance(fresh, bytes)
        assert k_i.bits == k_j.bits == fresh
        assert k_i.bit_length == k_j.bit_length == n
        assert (k_i.id, k_j.id) == (f"{key_id}/{i}", f"{key_id}/{j}")
        assert k_i.created_at == k_j.created_at == 2.5
        assert record == RelayRecord(branch_i=i, branch_j=j, bits=n, time=2.5, key_id=key_id)
        assert wrapped.relay_count == core.relay_count
        assert wrapped_rng.getstate() == core_rng.getstate()
        for bid in core.branch_ids():
            assert pool_counters(wrapped, bid) == pool_counters(core, bid)
    assert core.relay_count == 4


def test_relay_over_thousand_random_sizes():
    topo = star(n=4, target=10**9)
    rng = random.Random(42)
    for bid in topo.branch_ids():
        topo.link(bid).pool.deposit(5_000_000)
    for _ in range(1000):
        i, j = rng.sample(topo.branch_ids(), 2)
        n = rng.randint(1, 4096)
        before_i = topo.link(i).pool.available_bits
        before_j = topo.link(j).pool.available_bits
        ki, kj, _ = relay_key(topo, i, j, n, rng)
        assert ki.bits == kj.bits
        assert topo.link(i).pool.available_bits == before_i - n
        assert topo.link(j).pool.available_bits == before_j - n
    for bid in topo.branch_ids():
        topo.link(bid).pool.assert_conservation()


def test_relayed_bits_look_uniform():
    topo = star(target=10**6)
    topo.link("b1").pool.deposit(20000)
    topo.link("b2").pool.deposit(20000)
    k1, _, _ = relay_key(topo, "b1", "b2", 10**4, random.Random(99))
    ones = sum(b.bit_count() for b in k1.bits)
    # 3 sigma around n/2 for n = 10^4 fair coin flips
    assert abs(ones - 5000) <= 3 * 50


def test_schedule_prefers_empty_pools():
    topo = star(n=3, channels=2, target=1000)
    topo.link("b1").pool.deposit(900)
    topo.link("b2").pool.deposit(100)
    topo.link("b3").pool.deposit(500)
    assert set(schedule_channels(topo)) == {"b2", "b3"}


def test_schedule_ranks_by_fill_ratio_not_by_bits():
    # b1 is 60% full with more bits; b2 is 300% full with fewer.
    specs = [
        BranchSpec(node=branch(bid), link=flat_link(), pool_target_bits=target,
                   pool_rng=random.Random(i))
        for i, (bid, target) in enumerate((("b1", 1000), ("b2", 100)))
    ]
    topo = build_star(hub(channels=1), specs)
    topo.link("b1").pool.deposit(600)
    topo.link("b2").pool.deposit(300)
    assert [schedule_channels(topo) for _ in range(2)] == [["b1"], ["b1"]]


def test_schedule_round_robin_on_ties():
    topo = star(n=3, channels=1)
    seen = [schedule_channels(topo)[0] for _ in range(6)]
    assert seen == ["b1", "b2", "b3", "b1", "b2", "b3"]


def test_schedule_respects_channel_count():
    topo = star(n=10, channels=2)
    rng = random.Random(5)
    for _ in range(50):
        active = schedule_channels(topo)
        assert len(active) == 2
        assert len(set(active)) == 2
        bid = rng.choice(topo.branch_ids())
        topo.link(bid).pool.deposit(rng.randint(1, 500))
    wide = star(n=3, channels=8)
    assert set(schedule_channels(wide)) == {"b1", "b2", "b3"}


def expected_pick(topo: StarTopology, tick: int) -> list[int]:
    """pick_channels by its definition: fill_ratio order, ties in round-robin rank order."""
    n = len(topo.pool_at)
    offset = tick % n
    rank_order = [*range(offset, n), *range(offset)]
    return sorted(rank_order, key=lambda i: topo.pool_at[i].fill_ratio)[: topo.hub.channel_count]


def test_pool_at_holds_each_link_pool():
    topo = star(n=4)
    assert len(topo.pool_at) == len(topo.link_at) == 4
    for pool, link in zip(topo.pool_at, topo.link_at):
        assert pool is link.pool


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pick_ranks_a_pool_past_float_range_last(n):
    topo = star(n=n, channels=n)
    topo.link("b2").pool.deposit(10**400)  # available / target leaves float range
    for tick in range(2 * n):
        picked = pick_channels(topo)
        assert picked[-1] == 1
        ties = [*range(tick % n, n), *range(tick % n)]
        assert picked[:-1] == [i for i in ties if i != 1]
        assert picked == expected_pick(topo, tick)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    # (available, target) of each pool; 10**400 bits leaves float range.
    pools=st.lists(
        st.tuples(st.one_of(st.integers(0, 3000), st.just(10**400)), st.integers(1, 2000)),
        min_size=1,
        max_size=8,
    ),
    channels=st.integers(1, 8),
    ticks=st.integers(1, 10),
)
def test_pick_is_fill_ratio_order_with_round_robin_ties(pools, channels, ticks):
    specs = [
        BranchSpec(node=branch(f"b{i}"), link=flat_link(), pool_target_bits=target,
                   pool_rng=random.Random(i))
        for i, (_, target) in enumerate(pools)
    ]
    topo = build_star(hub(channels), specs)
    for pool, (available, _) in zip(topo.pool_at, pools):
        if available:
            pool.deposit(available)
    for tick in range(ticks):
        assert pick_channels(topo) == expected_pick(topo, tick)


def link_counters(topo: StarTopology, bid: str) -> tuple:
    link = topo.link(bid)
    return (*pool_counters(topo, bid), link.auth.reserved_bits, link.halted_ticks,
            link.cumulative_cpu_cost)


def test_hub_step_unconstrained_matches_standalone_ticks():
    # A 512-bit round: b1 halts on every tick, b2 pays from its pool once
    # its reserve is spent, b3 splits one round between reserve and pool.
    reserves = [0, 512, 700, 10**9]
    topo = star(capacity=1e9, rate=999.7, reserves=reserves)
    reference = star(capacity=1e9, rate=999.7, reserves=reserves)
    for end in range(1, 11):
        rep = hub_cpu_step(topo, 1.0, now=float(end))
        outs = {bid: tick(reference.link(bid), 1.0, now=float(end)) for bid in reference.links}
        ran = {bid: out for bid, out in outs.items() if not out.halted}
        assert rep.halted == tuple(bid for bid in outs if bid not in ran) == ("b1",)
        assert rep.deposited == {bid: out.deposited_bits for bid, out in ran.items()}
        assert rep.auth_bits_from_pool == {bid: out.auth_bits_from_pool for bid, out in ran.items()}
        assert rep.auth_bits_from_budget == {
            bid: out.auth_bits_from_budget for bid, out in ran.items()
        }
        assert rep.cpu_demanded == sum(out.cpu_cost for out in ran.values())
        if end == 2:
            assert rep.auth_bits_from_pool == {"b2": 512, "b3": 324, "b4": 0}
            assert rep.auth_bits_from_budget == {"b2": 0, "b3": 188, "b4": 512}
    for bid in topo.branch_ids():
        assert link_counters(topo, bid) == link_counters(reference, bid)
    assert topo.backlog == []


def test_hub_step_rejects_unknown_or_repeated_ids():
    topo = star(n=2)
    with pytest.raises(KeyError):
        hub_cpu_step(topo, 1.0, ["b9"])
    with pytest.raises(ValueError, match="repeats"):
        hub_cpu_step(topo, 1.0, ["b1", "b1"])
    # a rejected step changes nothing
    assert topo.link("b1").pool.total_generated_bits == 0
    assert topo.link("b1").auth.total_consumed_bits == 0


def test_hub_step_rejects_a_non_positive_dt_before_anything_changes():
    topo = star(n=2, capacity=500.0)
    hub_cpu_step(topo, 1.0)  # 2000 cost units of work against 500 leaves a backlog
    assert topo.backlog

    def snapshot():
        return ([link_counters(topo, bid) for bid in topo.branch_ids()],
                list(topo.backlog), topo.backlog_cost)

    before = snapshot()
    with pytest.raises(ValueError, match="dt: must be positive"):
        hub_cpu_step(topo, 0.0)
    with pytest.raises(ValueError, match="dt: must be positive"):
        hub_cpu_step(topo, -1.0, active_ids=[])  # only the drain would use dt
    assert snapshot() == before
    with pytest.raises(ValueError, match="dt: must be positive"):
        star(capacity=5.0).capacity(-1.0)


def test_hub_step_proportional_deferral():
    # three flat links producing 30/30/60 cost units against capacity 60
    specs = [
        BranchSpec(
            node=branch(bid),
            link=flat_link(rate=r),
            pool_rng=random.Random(i),
            auth_reserved_bits=10**9,
        )
        for i, (bid, r) in enumerate([("a", 30.0), ("b", 30.0), ("c", 60.0)])
    ]
    topo = build_star(hub(channels=3, capacity=60.0), specs)
    rep = hub_cpu_step(topo, 1.0)
    assert rep.deposited == {"a": 15, "b": 15, "c": 30}
    assert [
        (topo.branches[i].id, owed * Fraction(rnd.cpu_scaled, ONE)) for i, rnd, owed in topo.backlog
    ] == [
        ("a", Fraction(15)),
        ("b", Fraction(15)),
        ("c", Fraction(30)),
    ]
    assert rep.cpu_processed == 60.0 and rep.deferred_cost == 60.0


def test_hub_step_half_capacity_defers_half():
    topo = star(n=1, capacity=500.0, rate=1000.0)
    rep = hub_cpu_step(topo, 1.0)
    assert rep.deposited == {"b1": 500}
    assert rep.deferred_cost == 500.0
    assert topo.backlog_cost == Fraction(500)


def test_overloaded_hub_processes_each_dt_capacity_exactly():
    capacity = 700.3
    topo = star(n=3, channels=3, capacity=capacity, rate=1000.0)
    for dt in (1.0, 0.3, 0.3, 1.0, 0.3):
        cost = sum(
            Fraction(topo.link(bid).params.cpu_cost_per_sec) * Fraction(dt)
            for bid in topo.branch_ids()
        )
        before = topo.backlog_cost
        rep = hub_cpu_step(topo, dt)
        assert rep.halted == ()
        # Each step's fresh work alone overruns the budget, so all of it is used.
        assert before + cost - topo.backlog_cost == Fraction(capacity) * Fraction(dt)
        assert topo.capacity(dt) == Fraction(capacity) * Fraction(dt)


def test_hub_step_floats_are_the_exact_amounts_rounded():
    # Odd rates and capacity at 0.1 s ticks, so no amount is a float exactly.
    specs = [
        BranchSpec(node=branch(bid), link=flat_link(rate=r), pool_rng=random.Random(i),
                   auth_reserved_bits=10**9)
        for i, (bid, r) in enumerate([("a", 100.3), ("b", 200.7), ("c", 300.1)])
    ]
    topo = build_star(hub(channels=3, capacity=350.9), specs)
    dt = 0.1
    cost = {bid: Fraction(topo.link(bid).round(dt).cpu_scaled, ONE) for bid in topo.branch_ids()}
    capacity = Fraction(350.9) * Fraction(dt)
    # (active, then whether the step found a backlog, deferred work, left a backlog)
    steps = (
        (["a"], (False, False, False)),  # unthrottled
        (["a", "b", "c"], (False, True, True)),  # overrun
        (["a", "b", "c"], (True, True, True)),  # drains all, then overruns
        ([], (True, False, True)),  # drains part of the backlog
        (["a"], (True, False, False)),  # drains the rest, then runs unthrottled
    )
    for active, kind in steps:
        before = topo.backlog_cost
        fresh = sum((cost[bid] for bid in active), Fraction(0))
        processed = min(capacity, before + fresh)
        deferred = max(Fraction(0), fresh - (capacity - min(before, capacity)))
        rep = hub_cpu_step(topo, dt, active)
        assert (before > 0, deferred > 0, topo.backlog != []) == kind
        assert topo.backlog_cost == before + fresh - processed
        assert rep.cpu_processed == float(processed) != processed
        assert rep.deferred_cost == float(deferred)
        assert rep.backlog_cost_after == float(topo.backlog_cost)


def test_hub_step_partly_drained_head_stays_at_the_head():
    specs = [
        BranchSpec(node=branch(bid), link=flat_link(rate=r), pool_rng=random.Random(i),
                   auth_reserved_bits=10**9)
        for i, (bid, r) in enumerate([("a", 100.0), ("b", 200.0), ("c", 300.0)])
    ]
    topo = build_star(hub(channels=3, capacity=120.0), specs)
    assert hub_cpu_step(topo, 1.0).deposited == {"a": 20, "b": 40, "c": 60}
    # The drain finishes a and takes 40 of b's 160, leaving b at the head.
    assert hub_cpu_step(topo, 1.0, active_ids=[]).deposited == {"a": 80, "b": 40}
    # The third step drains b's whole remainder, and its whole cost is an int.
    deposited = defaultdict(int)
    _, _, processed, deferred = hub_step(topo, 1.0, [], deposited)
    assert deposited == {1: 120}
    assert type(processed) is int and processed == 120 * ONE
    assert deferred == 0


def test_hub_step_backlog_drains_fifo_and_conserves_bits():
    topo = star(n=2, capacity=800.0, rate=1000.0)
    total = 0
    for k in range(5):
        rep = hub_cpu_step(topo, 1.0, now=float(k))
        total += sum(rep.deposited.values())
    # stop producing, let the backlog drain
    while topo.backlog:
        rep = hub_cpu_step(topo, 1.0, active_ids=[])
        total += sum(rep.deposited.values())
    assert total == 2 * 5000  # every produced bit eventually lands
    a = topo.link("b1").pool.available_bits
    b = topo.link("b2").pool.available_bits
    assert a + b == total


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    # qber 0.2 is past the cliff: such a link's rounds yield no bits but cost CPU.
    # At 7.3e-35 bits/s a round is not whole at 2**-128 and takes the Fraction form.
    links=st.lists(
        st.tuples(st.one_of(st.floats(1.0, 5000.0), st.just(7.3e-35)), st.sampled_from([0.0, 0.2])),
        min_size=1,
        max_size=6,
    ),
    cost_per_bit=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    capacity=st.floats(100.0, 10000.0),
    channels=st.integers(1, 6),
    dt=st.sampled_from([0.1, 0.25, 1.0]),
    steps=st.lists(st.sets(st.integers(0, 5)), min_size=1, max_size=12),
)
def test_hub_step_backlog_cost_is_the_exact_backlog_sum(
    links, cost_per_bit, capacity, channels, dt, steps
):
    specs = [
        BranchSpec(
            node=branch(f"b{i}"),
            link=flat_link(rate=rate, qber=qber, cpu_cost_per_raw_bit=cost_per_bit),
            pool_rng=random.Random(i),
            auth_reserved_bits=10**9,
        )
        for i, (rate, qber) in enumerate(links)
    ]
    topo = build_star(hub(channels, capacity), specs)
    ids = topo.branch_ids()
    rounds_run = dict.fromkeys(ids, 0)

    def step(active):
        rep = hub_cpu_step(topo, dt, active)
        owed = sum((owed * Fraction(rnd.cpu_scaled, ONE) for _, rnd, owed in topo.backlog),
                   Fraction(0))
        assert topo.backlog_cost == owed
        assert rep.backlog_cost_after == float(topo.backlog_cost)
        for bid in set(rep.active_ids) - set(rep.halted):
            rounds_run[bid] += 1

    for picks in steps:  # an empty pick is a drain-only step
        step(sorted({ids[k % len(ids)] for k in picks})[:channels])
    while topo.backlog:
        step([])
    assert topo.backlog_cost == Fraction(0)
    for bid in ids:  # every bit of every round run has landed or is pending
        link = topo.link(bid)
        landed = link.pool.total_generated_bits + link.pending_bits
        assert landed == rounds_run[bid] * Fraction(link.round(dt).bits_scaled, ONE)


def in_number_form(amount) -> bool:
    """True if amount is an int, or a Fraction that is not whole: the number form."""
    return type(amount) is int or (type(amount) is Fraction and amount.denominator != 1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    # At 7.3e-35 bits/s a round is not whole at 2**-128 and takes the Fraction form.
    rates=st.lists(st.one_of(st.floats(1.0, 5000.0), st.just(7.3e-35)), min_size=1, max_size=6),
    cost_per_bit=st.sampled_from([0.5, 1.0, 2.5]),
    capacity=st.floats(100.0, 10000.0),
    dt=st.sampled_from([0.1, 0.25, 1.0]),
    steps=st.lists(st.sets(st.integers(0, 5)), min_size=1, max_size=8),
)
def test_hub_step_holds_whole_amounts_as_ints(rates, cost_per_bit, capacity, dt, steps):
    specs = [
        BranchSpec(
            node=branch(f"b{i}"),
            link=flat_link(rate=rate, cpu_cost_per_raw_bit=cost_per_bit),
            pool_rng=random.Random(i),
            auth_reserved_bits=10**9,
        )
        for i, rate in enumerate(rates)
    ]
    topo = build_star(hub(len(rates), capacity), specs)
    for picks in [*steps, set(), set()]:  # the last two are drain-only steps
        active = sorted({k % len(rates) for k in picks})
        _, _, processed, deferred = hub_step(topo, dt, active, defaultdict(int))
        assert in_number_form(processed), processed
        assert in_number_form(deferred), deferred
        assert all(in_number_form(owed) for _, _, owed in topo.backlog)
        assert all(in_number_form(link._carry) for link in topo.link_at)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    # rate, qber, pool fill and auth reserve of each link: 7.3e-35 bits/s
    # takes the Fraction form, qber 0.2 is past the cliff, and a link with
    # no reserve and too little in its pool halts.
    links=st.lists(
        st.tuples(
            st.one_of(st.floats(1.0, 5000.0), st.just(7.3e-35)),
            st.sampled_from([0.0, 0.2]),
            st.integers(1, 3000),
            st.sampled_from([10**9, 512, 0]),
        ),
        min_size=1,
        max_size=6,
    ),
    capacity=st.floats(10.0, 10000.0),
    channels=st.integers(1, 6),
    dt=st.sampled_from([0.1, 0.25, 1.0]),
    # None steps the scheduled links and a set steps those links; an empty
    # set, and each of the two steps after these, is a drain-only step.
    steps=st.lists(
        st.one_of(st.none(), st.just(set()), st.sets(st.integers(0, 5))), min_size=1, max_size=10
    ),
)
def test_wrappers_translate_the_index_core(links, capacity, channels, dt, steps):
    def twin():
        specs = [
            BranchSpec(
                node=branch(f"b{i}"),
                link=flat_link(rate=rate, qber=qber),
                pool_target_bits=1000,
                pool_rng=random.Random(i),
                auth_reserved_bits=reserve,
            )
            for i, (rate, qber, _, reserve) in enumerate(links)
        ]
        topo = build_star(hub(channels, capacity), specs)
        for link, (_, _, fill, _) in zip(topo.link_at, links):
            link.pool.deposit(fill)
        return topo

    wrapped, core = twin(), twin()
    ids = wrapped.branch_ids()
    for k, pick in enumerate([*steps, set(), set()]):
        picked = pick_channels(core)
        assert schedule_channels(wrapped) == [ids[i] for i in picked]
        assert wrapped._rr_offset == core._rr_offset
        active = picked if pick is None else sorted({i % len(ids) for i in pick})

        rep = hub_cpu_step(wrapped, dt, [ids[i] for i in active], now=float(k))
        deposited = defaultdict(int)
        fresh, halted, processed, deferred = hub_step(core, dt, active, deposited)
        demanded = 0.0
        for _, rnd, _ in fresh:
            demanded += rnd.cpu
        assert rep == HubStepReport(
            time=float(k),
            active_ids=tuple(ids[i] for i in active),
            deposited={ids[i]: bits for i, bits in deposited.items()},
            halted=tuple(ids[i] for i in halted),
            auth_bits_from_pool={ids[i]: from_pool for i, _, from_pool in fresh},
            auth_bits_from_budget={ids[i]: rnd.auth_bits - from_pool for i, rnd, from_pool in fresh},
            cpu_demanded=demanded,
            cpu_processed=float(Fraction(processed, ONE)),
            deferred_cost=float(Fraction(deferred, ONE)),
            backlog_cost_after=float(core.backlog_cost),
        )
        # dict equality ignores order: drained links come first, then fresh
        assert list(rep.deposited) == [ids[i] for i in deposited]
        assert [(ids[i], rnd, owed) for i, rnd, owed in wrapped.backlog] == [
            (ids[i], rnd, owed) for i, rnd, owed in core.backlog
        ]
        assert wrapped.backlog_cost == core.backlog_cost
    for a, b in zip(wrapped.link_at, core.link_at):
        assert (a.pool.available_bits, a.pending_bits, a.halted_ticks) == (
            b.pool.available_bits, b.pending_bits, b.halted_ticks
        )


def test_hub_step_skips_halted_links():
    specs = [
        BranchSpec(node=branch("ok"), link=flat_link(), auth_reserved_bits=10**9,
                   pool_rng=random.Random(0)),
        BranchSpec(node=branch("dry"), link=flat_link(), auth_reserved_bits=0,
                   pool_rng=random.Random(1)),
    ]
    topo = build_star(hub(channels=2, capacity=1e9), specs)
    rep = hub_cpu_step(topo, 1.0)
    assert rep.halted == ("dry",)
    assert rep.deposited.get("dry", 0) == 0
    assert rep.deposited["ok"] == 1000
    assert topo.link("dry").halted_ticks == 1


def test_hub_step_cost_scales_with_raw_rate():
    p = LinkParams(distance_km=25.0, source_rate_hz=1e6, detector_efficiency=0.1,
                   qber=0.03, cpu_cost_per_raw_bit=2.0)
    specs = [BranchSpec(node=branch("far"), link=p, auth_reserved_bits=10**9,
                        pool_rng=random.Random(0))]
    topo = build_star(hub(channels=1, capacity=1e12), specs)
    rep = hub_cpu_step(topo, 1.0)
    assert rep.cpu_demanded == pytest.approx(2.0 * raw_rate(p), rel=1e-12)
