"""Hub-and-spoke key distribution: scheduling, trusted relay, CPU throttle.

Every branch shares one QKD link with the hub. Branch pairs get keys by
trusted relay: the hub invents a fresh key and one-time-pads it down
both spokes, so each relayed bit costs one pool bit at each endpoint.
The hub's receiver bank and post-processing CPU are shared, finite
resources; scheduling and throttling live here.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import DuplicateId, InsufficientKey, NoBranches, check_enum, check_float, check_int
from .errors import check_text, store_float
from .keycore import DEFAULT_AUTH_RESERVED_BITS, DEFAULT_POOL_TARGET_BITS, DEFAULT_TAG_COST_BITS
from .keycore import AuthBudget, KeyMaterial, KeyPool, Provenance
from .qkdlink import ONE, LinkParams, LinkState, Round, exact, produce, scaled, unscaled
from .report import KEY_ID
from .rng import random_bits


class NodeKind(Enum):
    HUB = "hub"
    BRANCH = "branch"


@dataclass(frozen=True)
class Node:
    """A site in the star; hubs carry the shared resource limits."""

    id: str
    kind: NodeKind
    channel_count: int | None = None
    cpu_capacity_per_sec: float | None = None

    def __post_init__(self) -> None:
        check_text("id", self.id)
        check_enum("kind", self.kind, NodeKind)
        if self.kind is NodeKind.HUB:
            check_int("channel_count", self.channel_count, 1)
            store_float(self, "cpu_capacity_per_sec", positive=True)


@dataclass
class BranchSpec:
    """Everything needed to stand up one hub-to-branch link."""

    node: Node
    link: LinkParams
    auth_reserved_bits: int = DEFAULT_AUTH_RESERVED_BITS
    auth_tag_cost_bits: int = DEFAULT_TAG_COST_BITS
    pool_target_bits: int = DEFAULT_POOL_TARGET_BITS
    pool_rng: random.Random | None = None


@dataclass(frozen=True)
class RelayRecord:
    """Audit entry for one hub-mediated key delivery."""

    branch_i: str
    branch_j: str
    bits: int
    time: float
    key_id: str


@dataclass
class StarTopology:
    """One hub, its branches, and the per-branch link states.

    link_at lists the links in branch order, pool_at their pools, and
    index maps a branch id to its position there, so the tick core works
    by link index.

    backlog is the hub's FIFO of deferred post-processing work: an entry
    (index, Round, owed) owes that share of the round of link_at[index],
    so it costs owed * round.cpu_scaled and yields owed *
    round.bits_scaled, each over 2**SCALE. backlog_cost is the exact
    running total of those costs. Only the core hub_step mutates either,
    and it keeps the two in step, so a step never re-sums it.

    relay_count counts the relays made in this star, and the n-th
    relay's key id is ``report.KEY_ID % n``.
    """

    hub: Node
    branches: list[Node]
    links: dict[str, LinkState]
    backlog: list[tuple[int, Round, int | Fraction]] = field(default_factory=list)
    backlog_cost: Fraction = Fraction(0)
    relay_count: int = 0
    _rr_offset: int = field(default=0, repr=False)
    _budget: tuple[float, int | Fraction] | None = field(default=None, init=False, repr=False)
    link_at: list[LinkState] = field(init=False, repr=False, compare=False)
    pool_at: list[KeyPool] = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.link_at = [self.links[b.id] for b in self.branches]
        self.pool_at = [link.pool for link in self.link_at]
        self.index = {b.id: i for i, b in enumerate(self.branches)}

    def branch_ids(self) -> list[str]:
        return [b.id for b in self.branches]

    def _scaled_capacity(self, dt: float) -> int | Fraction:
        """capacity(dt) * 2**SCALE, redone only for a new dt; dt is checked by check_float."""
        if self._budget is None or self._budget[0] != dt:
            check_float("dt", dt, positive=True)
            self._budget = (dt, scaled(Fraction(self.hub.cpu_capacity_per_sec) * Fraction(dt)))
        return self._budget[1]

    def capacity(self, dt: float) -> Fraction:
        """The hub's exact CPU budget for dt > 0 seconds."""
        return Fraction(self._scaled_capacity(dt), ONE)

    def link_index(self, branch_id: str) -> int:
        got = self.index.get(branch_id)
        if got is None:
            raise KeyError(f"no branch {branch_id!r} in this star")
        return got

    def link(self, branch_id: str) -> LinkState:
        return self.link_at[self.link_index(branch_id)]


def build_star(hub: Node, branch_specs: list[BranchSpec]) -> StarTopology:
    """Wire up a star; ids must be unique and at least one branch given."""
    if hub.kind is not NodeKind.HUB:
        raise ValueError(f"node {hub.id!r} is not a hub")
    if not branch_specs:
        raise NoBranches("a star topology needs at least one branch")
    links: dict[str, LinkState] = {}
    branches: list[Node] = []
    seen = {hub.id}
    for spec in branch_specs:
        node = spec.node
        if node.kind is not NodeKind.BRANCH:
            raise ValueError(f"node {node.id!r} is not a branch")
        if node.id in seen:
            raise DuplicateId(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        branches.append(node)
        links[node.id] = LinkState(
            params=spec.link,
            pool=KeyPool(
                link_id=node.id,
                target_bits=spec.pool_target_bits,
                rng=spec.pool_rng,
            ),
            auth=AuthBudget(
                reserved_bits=spec.auth_reserved_bits,
                tag_cost_bits=spec.auth_tag_cost_bits,
            ),
        )
    return StarTopology(hub=hub, branches=branches, links=links)


def pick_channels(topology: StarTopology) -> list[int]:
    """The tick core's channel pick: which links get the hub's receiver channels.

    Lowest fill ratio (available_bits / target_bits) first; ties rotate
    round-robin so equally needy branches take strict turns. Each pool's
    counters are read once, from topology.pool_at; a ratio past float
    range ranks as inf, as KeyPool.fill_ratio has it. Returns indices
    into topology.link_at and advances the rotation pointer once.
    """
    pools = topology.pool_at
    n = len(pools)
    offset = topology._rr_offset % n
    topology._rr_offset += 1
    try:
        fill = [pool.available_bits / pool.target_bits for pool in pools]
    except OverflowError:
        fill = [pool.fill_ratio for pool in pools]
    # Indices in round-robin rank order, (i - offset) % n; the stable
    # sort on fill keeps that order among ties.
    order = sorted([*range(offset, n), *range(offset)], key=fill.__getitem__)
    return order[: topology.hub.channel_count]


def schedule_channels(topology: StarTopology, now: float = 0.0) -> list[str]:
    """Pick which links get the hub's receiver channels this interval.

    This is the core pick_channels with its picks named by branch id. now
    is accepted for symmetry with the other stepping calls; the decision
    depends only on pool state.
    """
    del now
    branches = topology.branches
    return [branches[i].id for i in pick_channels(topology)]


def relay_bits(
    topology: StarTopology,
    pool_i: KeyPool,
    pool_j: KeyPool,
    n_bits: int,
    rng: random.Random,
) -> bytes | None:
    """The relay core: one fresh n-bit key between the branches of two distinct pools.

    The hub one-time-pads a fresh n-bit key down each spoke, spending
    the pads from the endpoint pools as ledger debits; each branch strips
    its pad and holds the fresh key. Total pool cost is exactly
    2 * n_bits. The key is one random_bits(rng, n_bits) draw and steps
    relay_count by one. n_bits is an int >= 1. Fails atomically: if either
    pool is short, returns None and leaves both pools, relay_count and rng untouched.
    """
    if pool_i.available_bits < n_bits or pool_j.available_bits < n_bits:
        return None
    fresh = random_bits(rng, n_bits)
    topology.relay_count += 1
    pool_i.spend(n_bits)  # the pad for each spoke
    pool_j.spend(n_bits)
    return fresh


def relay_key(
    topology: StarTopology,
    branch_i: str,
    branch_j: str,
    n_bits: int,
    rng: random.Random,
    now: float = 0.0,
) -> tuple[KeyMaterial, KeyMaterial, RelayRecord]:
    """Deliver one fresh shared key to two branches via the trusted hub.

    This is relay_bits on the two branches' pools, plus each branch's
    copy of the key as KeyMaterial and a RelayRecord, all stamped now.
    Equal or unknown ends, an n_bits < 1 and a short pool raise before anything changes.
    """
    if branch_i == branch_j:
        raise ValueError(f"relay endpoints must differ, got {branch_i!r} twice")
    check_int("n_bits", n_bits, 1)
    ends = [(bid, topology.link(bid).pool) for bid in (branch_i, branch_j)]
    fresh = relay_bits(topology, ends[0][1], ends[1][1], n_bits, rng)
    if fresh is None:
        bid, have = next((b, p.available_bits) for b, p in ends if p.available_bits < n_bits)
        raise InsufficientKey(f"pool {bid}: relay needs {n_bits} bits, only {have} available")
    key_id = KEY_ID % topology.relay_count
    k_i, k_j = (
        KeyMaterial(f"{key_id}/{bid}", fresh, n_bits, Provenance.RELAYED, created_at=now)
        for bid in (branch_i, branch_j)
    )
    return k_i, k_j, RelayRecord(branch_i, branch_j, n_bits, now, key_id)


@dataclass(frozen=True)
class HubStepReport:
    """What one hub CPU interval processed, deferred, and deposited."""

    time: float
    active_ids: tuple[str, ...]
    deposited: dict[str, int]
    halted: tuple[str, ...]
    auth_bits_from_pool: dict[str, int]
    auth_bits_from_budget: dict[str, int]
    cpu_demanded: float
    cpu_processed: float
    deferred_cost: float
    backlog_cost_after: float


def hub_step(
    topology: StarTopology,
    dt: float,
    active: list[int],
    deposited: list[int] | dict[int, int],
) -> tuple[list[tuple[int, Round, int]], list[int], int | Fraction, int | Fraction]:
    """The tick core's hub step: production on distinct indices into topology.link_at.

    Backlogged work drains first, FIFO, under the hub's CPU budget for
    dt. If fresh work then overruns what is left, every active link is
    served the same share of its round and the rest joins the backlog.
    Every amount is exact and held times 2**SCALE, as an int whenever it
    is whole: each drain's cost, the budget, the drain total and the
    processed and deferred totals. A share of 0 deposits nothing and skips
    the carry. Each deposit is added into
    deposited[i], the drain's first. Returns (i, round, auth bits from
    the pool) of each link that ran, the halted indices, and the CPU
    cost processed and deferred. A dt that is not a positive finite number
    raises RangeError before anything changes. Only this code mutates
    topology.backlog, and it keeps backlog_cost exact as it goes, so a
    step costs time in the work it touches and not in the backlog's length.
    """
    # Every amount below is times 2**SCALE.
    budget = capacity = topology._scaled_capacity(dt)
    links = topology.link_at
    fresh: list[tuple[int, Round, int]] = []
    halted: list[int] = []
    for i in active:
        link = links[i]
        rnd = link.round(dt)
        from_pool = produce(link, rnd)
        if from_pool is None:
            halted.append(i)
        else:
            fresh.append((i, rnd, from_pool))

    # Old work first, in arrival order; a partly processed head stays put.
    backlog = topology.backlog
    drained = 0
    for i, rnd, owed in backlog:
        if budget <= 0:
            break
        cost = exact(owed * rnd.cpu_scaled)
        if cost <= budget:
            budget = exact(budget - cost)
            part = owed
            drained += 1
        else:
            part = Fraction(budget, rnd.cpu_scaled)
            backlog[drained] = (i, rnd, owed - part)
            budget = 0
        deposited[i] += links[i].carry(part * rnd.bits_scaled)
    del backlog[:drained]
    drain_cost = exact(capacity - budget)

    # Then this interval's production, proportionally if it overruns.
    total_new = sum(rnd.cpu_scaled for _, rnd, _ in fresh)
    if total_new <= budget:
        share = 1
    else:
        share = Fraction(budget, total_new) if budget > 0 else 0
    keep = 1 - share
    for i, rnd, _ in fresh:
        if share:
            deposited[i] += links[i].carry(share * rnd.bits_scaled)
        if keep:
            backlog.append((i, rnd, keep))
    deferred = exact(total_new - budget) if keep else 0  # = keep * total_new
    processed = exact(drain_cost + total_new - deferred)
    if deferred != drain_cost:
        topology.backlog_cost += Fraction(deferred - drain_cost, ONE)
    return fresh, halted, processed, deferred


def hub_cpu_step(
    topology: StarTopology,
    dt: float,
    active_ids: list[str] | None = None,
    now: float = 0.0,
) -> HubStepReport:
    """Run production on the active links under the hub's CPU budget.

    This is the core hub_step, which the engine calls, in branch ids.
    active_ids (default: every branch) must name distinct branches of
    this star; an unknown id raises KeyError, a repeated one ValueError,
    and then a dt that is not a positive finite number RangeError, before
    anything changes. Each float in the report is the exact amount
    correctly rounded, as float() of its Fraction is.
    """
    ids = topology.branch_ids()
    actives = ids if active_ids is None else list(active_ids)
    active = [topology.link_index(bid) for bid in actives]
    if len(set(active)) != len(active):
        raise ValueError(f"active_ids repeats a branch: {actives}")

    deposited: defaultdict[int, int] = defaultdict(int)
    fresh, halted, processed, deferred = hub_step(topology, dt, active, deposited)
    demanded = 0.0
    for _, rnd, _ in fresh:  # one float add at a time: sum() compensates from Python 3.12
        demanded += rnd.cpu
    return HubStepReport(
        time=now,
        active_ids=tuple(actives),
        deposited={ids[i]: bits for i, bits in deposited.items()},
        halted=tuple(ids[i] for i in halted),
        auth_bits_from_pool={ids[i]: from_pool for i, _, from_pool in fresh},
        auth_bits_from_budget={ids[i]: rnd.auth_bits - from_pool for i, rnd, from_pool in fresh},
        cpu_demanded=demanded,
        cpu_processed=unscaled(processed),
        deferred_cost=unscaled(deferred),
        backlog_cost_after=float(topology.backlog_cost),
    )
