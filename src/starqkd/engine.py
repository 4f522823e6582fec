"""Deterministic discrete-event simulation of one star network.

The run is one loop over the tick index k = 1..n. Tick k, at time
k * dt, runs link production and then one-time-pad traffic for each
flow, in declaration order. Master-key rotations, relay requests and
share refreshes are periodic sources. Each keeps its next firing in a
small heap keyed by (slot, kind, order, m), where the slot is the
firing's time in ticks as an exact number: the integer k when
m * period / dt is a whole number of ticks by `hybrid.whole_ticks`,
otherwise the exact ratio of the two floats. A rotation needs fresh key,
which arrives on ticks, so it runs on the first tick at or after its
time, between that tick's production and its traffic, and is stamped
with the tick's time; one the pool cannot pay stays owed and is retried
on the next tick, and the rotations due by the time it is paid follow
on the same tick, so the schedule never drifts. A relay or refresh on
tick k runs after that tick's traffic, and one between ticks runs
before the next tick. Every periodic firing runs while its slot is at
most the tick count, and that one slot rule decides whether and when it
runs. Same-time events are therefore ordered by kind (production,
rotation, traffic, relay requests, refresh, report) and then by
declaration order, with no float rounding between kinds, and the same
seed reproduces the report byte for byte. The schedule holds one entry
per source, not one per event.

Key-bit conservation is exact and closes over five consumption
categories: authentication top-ups, one-time-pad traffic, relay
requests, master-key rotation, and share refresh. Every debit from a
link pool lands in exactly one of them.

Every per-tick number is held in a typed array, not as a Python object.
A pool starts empty and gains bits only through `LinkState.carry`, at
most one round per link per tick, so no pool level, tick's deposit or
relay exceeds the run's production bound, the largest n_ticks *
bits_scaled // 2**SCALE of any link. The per-link bit columns and the
relay ledger's bits take the narrowest of array('i') and array('q') that
holds it, chosen once at setup, and stay lists if neither does; the
active flags, times and hub series are 'b', 'd' and 'i' arrays.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from heapq import heappop, heappush
from typing import Any, Callable

from .hybrid import EPOCH_ID, mosca_at_risk, whole_ticks
from .keycore import KeyPool
from .policy import default_matrix, recommend
from .qkdlink import ONE, SCALE, LinkState, raw_rate, scaled_product, secret_rate, unscaled
from .report import MetricsReport, SeriesView
from .rng import StreamRegistry
from .scenario import Scenario, periodic_sources, policy_grid, technique_to_jsonable
from .sharing import ShareConfig, reconstruct, refresh as refresh_shares, split
from .starnet import (
    BranchSpec,
    Node,
    NodeKind,
    StarTopology,
    build_star,
    hub_step,
    relay_bits,
    relay_key,  # unused here; bench/tracing.py looks the name up in this module
    schedule_channels,
)


class EventKind(IntEnum):
    """Event kinds; the integer value is the same-time execution priority."""

    LINK_TICK = 0
    ROTATION = 1
    TRAFFIC_SEND = 2
    RELAY_REQUEST = 3
    REFRESH = 4
    REPORT = 5


@dataclass
class _Branch:
    """One branch: its link, rotation size, epochs and flows out."""

    name: str
    link: LinkState
    master_bits: int
    epochs: list[list] = field(default_factory=list)
    flows_out: list[_Pair] = field(default_factory=list)


@dataclass
class _Pair:
    """One traffic entry: its one-time-pad flow and its relay requests.

    bits_per_tick is the exact OTP rate times the tick length, and
    pending the pad demand not yet asked for, each times 2**SCALE.
    otp_route and relay_route are its relay ledger route codes.
    """

    name: str  # "src->dst"
    pools: tuple[KeyPool, KeyPool]  # src, dst
    bits_per_tick: int | Fraction
    relay_bits: int
    otp_route: int
    relay_route: int
    pending: int | Fraction = 0
    served_bits: int = 0
    unmet_bits: int = 0


@dataclass
class _Sharing:
    """One sharing instance: its two custodians, shares and refresh record."""

    name: str
    pools: tuple[KeyPool, KeyPool]  # the two custodians'
    route: int  # of its refresh relays in the relay ledger
    config: ShareConfig
    rng: random.Random
    secret: int
    shares: list
    budget: KeyPool
    rounds_completed: int = 0
    deferrals: int = 0
    last_refresh_time: float = 0.0
    max_exposure_seconds: float = 0.0


def build_topology(scenario: Scenario) -> StarTopology:
    """The scenario's star; no stream for its branch pools, which no engine path draws from."""
    hub = Node(
        id=scenario.hub.id,
        kind=NodeKind.HUB,
        channel_count=scenario.channel_count,
        cpu_capacity_per_sec=scenario.hub.cpu_capacity_per_sec,
    )
    specs = [
        BranchSpec(
            node=Node(id=b.id, kind=NodeKind.BRANCH),
            link=b.link,
            auth_reserved_bits=b.auth_reserved_bits,
            auth_tag_cost_bits=b.auth_tag_cost_bits,
            pool_target_bits=b.pool_target_bits,
        )
        for b in scenario.branches
    ]
    return build_star(hub, specs)


class _Sim:
    def __init__(self, scenario: Scenario, collect_trace: bool) -> None:
        self.scenario = scenario
        streams = StreamRegistry(scenario.seed)
        self.dt = scenario.tick_seconds
        self.n_ticks = scenario.tick_count

        self.topology = build_topology(scenario)
        self.report = MetricsReport(
            seed=scenario.seed,
            duration_seconds=scenario.duration_seconds,
            tick_seconds=scenario.tick_seconds,
        )
        ledger = self.report.relay_ledger

        # One runtime object per branch, traffic pair and sharing
        # instance; handlers get the object, never a name to look up. An
        # object's name is the entity its ledger rows and trace entries carry.
        # Relays log each row under the code the relay ledger hands out here
        # for its (branch_i, branch_j, purpose) route.
        self.branches = [
            _Branch(b.id, link, b.master_bits)
            for b, link in zip(scenario.branches, self.topology.link_at)
        ]
        by_name = {branch.name: branch for branch in self.branches}
        pairs = []
        self.flows: list[_Pair] = []
        for t in scenario.traffic:
            pair = _Pair(
                name=f"{t.src}->{t.dst}",
                pools=(by_name[t.src].link.pool, by_name[t.dst].link.pool),
                bits_per_tick=scaled_product(t.otp_bits_per_sec, self.dt),
                relay_bits=t.relay_bits,
                otp_route=ledger.route(t.src, t.dst, "otp_traffic"),
                relay_route=ledger.route(t.src, t.dst, "relay_request"),
            )
            pairs.append(pair)
            if t.otp_bits_per_sec > 0:
                self.flows.append(pair)
                by_name[t.src].flows_out.append(pair)
        self.sharings: list[_Sharing] = []
        for inst in scenario.sharing:
            rng = streams.stream(f"sharing/{inst.id}")
            config = inst.config()
            secret = rng.randrange(config.field_prime)
            sharing = _Sharing(
                name=inst.id,
                pools=tuple(by_name[c].link.pool for c in inst.custodians),
                route=ledger.route(*inst.custodians, "refresh"),
                config=config,
                rng=rng,
                secret=secret,
                shares=split(secret, config, rng),
                budget=KeyPool(link_id=f"sharing/{inst.id}", target_bits=config.refresh_cost_bits),
            )
            self.sharings.append(sharing)
        # Periodic sources are (kind, period, handler, target), in the order of
        # `scenario.periodic_sources`. A source's index is its order, so same-slot
        # firings of one kind run in declaration order. A handler that returns
        # True is still owed and is retried on the next tick.
        by_section = {
            "branches": (EventKind.ROTATION, self.on_rotation, self.branches),
            "traffic": (EventKind.RELAY_REQUEST, self.on_relay_request, pairs),
            "sharing": (EventKind.REFRESH, self.on_refresh, self.sharings),
        }
        self.sources: list[tuple[EventKind, float, Callable[[float, Any], bool | None], Any]] = []
        for section, i, _, period in periodic_sources(scenario):
            kind, handler, targets = by_section[section]
            self.sources.append((kind, period, handler, targets[i]))
        # The next firing of each source: (slot, kind, order, m).
        self.due: list[tuple[int | Fraction, EventKind, int, int]] = []
        for order, (kind, period, _, _) in enumerate(self.sources):
            self.schedule(self.slot(kind, 1, period), kind, order, 1)
        self.last_slot: int | Fraction = 0

        self.relay_rng = streams.stream("relay/hub")

        # accounting
        self.consumed = {
            "auth": 0,
            "otp_traffic": 0,
            "relay": 0,
            "rotation": 0,
            "refresh": 0,
        }

        self.hub_series = {
            "backlog_cost": array("d"),
            "processed_cost": array("d"),
            "active_link_count": array("i"),
        }
        # Per-link series, tick-major: one column per kind for the whole
        # star, allocated at its final size. Tick k writes its row, every
        # link's value in link index order, to [(k - 1) * n, k * n);
        # `finish` gives each link a strided view of it.
        n = len(self.branches)
        size = self.n_ticks * n
        _, self.rounds = self.topology.round_table(self.dt)
        bound = max(self.n_ticks * rnd.bits_scaled // ONE for rnd in self.rounds)
        code = next((c for c in "iq" if bound < 1 << 8 * array(c).itemsize - 1), None)
        # pack_row(column, at, *row) writes a row at offset at: in bytes,
        # width per item, in an array, and in items in a list.
        if code is None:
            bits_column, width = [0] * size, 1

            def pack_row(column: list, at: int, *row: int) -> None:
                column[at : at + n] = row

        else:
            bits_column = array(code, [0]) * size
            pack_row, width = struct.Struct(f"{n}{code}").pack_into, bits_column.itemsize
        self.series = {
            "pool_available": bits_column,
            "deposited_bits": bits_column[:],
            "active": array("b", [0]) * size,
        }
        self.columns = tuple(self.series.values())
        self.pack_row, self.width = pack_row, width
        ledger.bits = bits_column[:0]  # an empty column of the same type: relays keep the bound too
        self.row = 0  # where the next tick's row starts
        self.hub_columns = tuple(column.append for column in self.hub_series.values())
        if collect_trace:
            self.report.event_trace = []

    # ------------------------------------------------------------------
    # handlers

    def unmet(self, time: float, kind: str, entity: str, bits: int) -> None:
        self.report.unmet_demand.append(
            {"time": time, "kind": kind, "entity": entity, "bits": bits}
        )

    def relay(
        self, time: float, ends: tuple[KeyPool, KeyPool], n: int, route: int, category: str
    ) -> bool:
        """Relay n bits between the pools' branches if both hold n; both pads
        count to category, and the ledger row to route.
        """
        fresh = relay_bits(self.topology, *ends, n, self.relay_rng)
        if fresh is None:
            return False
        self.consumed[category] += 2 * n
        self.report.relay_ledger.append(time, route, n, hashlib.sha256(fresh).digest())
        return True

    def on_link_tick(self, time: float) -> None:
        topology = self.topology
        index = topology.index
        # not pick_channels: bench/tracing.py wraps this name to count and time ticks
        active = [index[bid] for bid in schedule_channels(topology, now=time)]
        deposited = [0] * len(self.branches)
        fresh, halted, processed, _ = hub_step(topology, self.dt, active, deposited)
        self.consumed["auth"] += sum(from_pool for _, _, from_pool in fresh)
        for i in halted:
            branch = self.branches[i]
            self.unmet(time, "auth", branch.name, self.rounds[i].auth_bits)
        start = self.row
        self.row += len(deposited)
        pools, deposits, is_active = self.columns
        pack_row, at = self.pack_row, start * self.width
        pack_row(pools, at, *[pool.available_bits for pool in topology.pool_at])
        pack_row(deposits, at, *deposited)
        for i in active:
            is_active[start + i] = 1
        backlog_cost, processed_cost, active_link_count = self.hub_columns
        backlog_cost(unscaled(topology.backlog_scaled))
        processed_cost(unscaled(processed))
        active_link_count(len(active))

    def on_rotation(self, time: float, branch: _Branch) -> bool:
        """Pay one master-key rotation from the branch pool; True if starved."""
        pool = branch.link.pool
        need = branch.master_bits
        if pool.available_bits < need:
            self.unmet(time, "rotation", branch.name, need)
            return True
        pool.spend(need)
        self.consumed["rotation"] += need
        epochs = branch.epochs
        epochs.append([time, EPOCH_ID % (branch.name + "/master", len(epochs) + 1)])
        return False

    def on_traffic(self, time: float, pair: _Pair) -> None:
        pair.pending += pair.bits_per_tick
        want = pair.pending // ONE
        ask = want - want % 8  # pads are spent on whole-byte messages
        if ask <= 0:
            return
        pair.pending -= ask << SCALE
        pool_src, pool_dst = pair.pools
        usable = min(ask, pool_src.available_bits, pool_dst.available_bits)
        usable -= usable % 8
        if usable > 0:
            self.relay(time, pair.pools, usable, pair.otp_route, "otp_traffic")
            pair.served_bits += usable
        if usable < ask:
            pair.unmet_bits += ask - usable
            self.unmet(time, "otp_traffic", pair.name, ask - usable)

    def on_relay_request(self, time: float, pair: _Pair) -> None:
        if not self.relay(time, pair.pools, pair.relay_bits, pair.relay_route, "relay"):
            self.unmet(time, "relay", pair.name, pair.relay_bits)

    def on_refresh(self, time: float, inst: _Sharing) -> None:
        cost = inst.config.refresh_cost_bits
        exposure = time - inst.last_refresh_time
        inst.max_exposure_seconds = max(inst.max_exposure_seconds, exposure)
        # The delivered key is the refresh pad material.
        if self.relay(time, inst.pools, cost, inst.route, "refresh"):
            inst.budget.deposit(cost)
            inst.shares = refresh_shares(inst.shares, inst.config, inst.rng, inst.budget)
            inst.rounds_completed += 1
            inst.last_refresh_time = time
            status, pool_bits = "ok", 2 * cost
        else:
            inst.deferrals += 1
            self.unmet(time, "refresh", inst.name, 2 * cost)
            status, pool_bits = "deferred", 0
        self.report.refresh_ledger.append(
            {
                "time": time,
                "instance": inst.name,
                "round": inst.rounds_completed,
                "status": status,
                "pool_bits": pool_bits,
                "exposure_seconds": exposure,
            }
        )

    # ------------------------------------------------------------------
    # final assembly

    def finish(self) -> MetricsReport:
        report = self.report
        s = self.scenario
        times = array("d", (k * self.dt for k in range(1, self.n_ticks + 1)))  # run's tick times
        report.times = SeriesView(times, 0, 1)
        n = len(self.branches)
        for i, b in enumerate(self.branches):
            link = b.link
            entry = {
                "distance_km": link.params.distance_km,
                "raw_rate_bps": raw_rate(link.params),
                "secret_rate_bps": secret_rate(link.params),
                "series": {kind: SeriesView(col, i, n) for kind, col in self.series.items()},
                "pool": {
                    "target_bits": link.pool.target_bits,
                    "available_bits": link.pool.available_bits,
                    "generated_bits": link.pool.total_generated_bits,
                    "consumed_bits": link.pool.total_consumed_bits,
                },
                "auth": {
                    "reserved_bits_remaining": link.auth.reserved_bits,
                    "consumed_bits": link.auth.total_consumed_bits,
                },
                "cpu_cost_total": link.cumulative_cpu_cost,
                "halted_ticks": link.halted_ticks,
            }
            if b.flows_out:
                entry["flows_out"] = [
                    {"flow": p.name, "served_bits": p.served_bits, "unmet_bits": p.unmet_bits}
                    for p in b.flows_out
                ]
            report.links[b.name] = entry
            report.rotations[b.name] = {"count": len(b.epochs), "epochs": b.epochs}
        report.hub = {
            "id": s.hub.id,
            "channel_count": s.channel_count,
            "cpu_capacity_per_sec": s.hub.cpu_capacity_per_sec,
            "series": {name: SeriesView(column, 0, 1) for name, column in self.hub_series.items()},
            "backlog_cost_final": unscaled(self.topology.backlog_scaled),
        }

        for inst in self.sharings:
            config = inst.config
            tail = s.duration_seconds - inst.last_refresh_time
            inst.max_exposure_seconds = max(inst.max_exposure_seconds, tail)
            check = reconstruct(inst.shares[: config.threshold_k], config)
            report.sharing[inst.name] = {
                "n_locations": config.n_locations,
                "threshold_k": config.threshold_k,
                "rounds_completed": inst.rounds_completed,
                "deferrals": inst.deferrals,
                "max_exposure_seconds": inst.max_exposure_seconds,
                "refresh_cost_bits": config.refresh_cost_bits,
                "reconstruct_ok": check == inst.secret,
            }

        if s.assets:
            matrix = s.policy_matrix or default_matrix(*policy_grid(s.assets, s.classes))
            for asset in s.assets:
                rec = recommend(asset, matrix, s.attacker)
                report.assets.append(
                    {
                        "id": asset.id,
                        "sensitivity_index": asset.sensitivity_index,
                        "time_index": asset.time_index,
                        "data_state": asset.data_state.value,
                        "technique": technique_to_jsonable(rec.technique),
                        "t_s_seconds": rec.horizon.t_s_seconds,
                        "t_sq_seconds": rec.horizon.t_sq_seconds,
                        "horizon_model": rec.horizon.model_id,
                        "feasible": rec.feasible,
                        "notes": list(rec.notes),
                    }
                )

        report.mosca_at_risk = None if s.migration is None else mosca_at_risk(s.migration)

        pools = self.topology.pool_at
        generated = sum(pool.total_generated_bits for pool in pools)
        available = sum(pool.available_bits for pool in pools)
        consumed = sum(pool.total_consumed_bits for pool in pools)
        by_category = dict(self.consumed)
        report.totals = {
            "generated_bits": generated,
            "pool_available_bits": available,
            "consumed_bits_total": consumed,
            "consumed_bits": by_category,
            "otp_message_bits": sum(p.served_bits for p in self.flows),
            "relay_delivered_bits": by_category["relay"] // 2,  # a pad bit at each end
        }
        if generated != available + consumed:
            raise AssertionError(
                f"conservation broken: generated {generated} != "
                f"{available} available + {consumed} consumed"
            )
        if consumed != sum(by_category.values()):
            raise AssertionError(
                f"consumption categories do not close: {consumed} != {by_category}"
            )
        rows, relays = len(report.relay_ledger), self.topology.relay_count
        if rows != relays:
            raise AssertionError(f"relay ledger has {rows} rows for {relays} relays")
        return report

    def slot(self, kind: EventKind, m: int, period: float) -> int | Fraction:
        """The tick slot of a source's m-th firing, at float time m * period.

        Whole ticks by `whole_ticks` give the integer; anything else gives
        the exact ratio of the two floats, which is never within 1e-9 of a
        tick and so orders against the ticks as the float times do. A
        rotation takes the first tick at or after its time, since fresh
        key arrives on ticks. A time past the tick after the last one,
        infinity included, is that tick.
        """
        time = m * period
        ratio = time / self.dt
        if ratio > self.n_ticks + 1:
            return self.n_ticks + 1
        k = whole_ticks(ratio)
        slot = Fraction(time) / Fraction(self.dt) if k is None else k
        return math.ceil(slot) if kind is EventKind.ROTATION else slot

    def schedule(self, slot: int | Fraction, kind: EventKind, order: int, m: int) -> None:
        """Queue a firing; one past the last tick never runs."""
        if slot <= self.n_ticks:
            heappush(self.due, (slot, kind, order, m))

    def fire(self, limit: tuple) -> None:
        """Run, in heap order, every periodic firing that sorts before limit."""
        heap = self.due
        trace = self.report.event_trace
        while heap and heap[0] < limit:
            slot, kind, order, m = heappop(heap)
            if slot < self.last_slot:
                raise AssertionError(f"slot {slot} follows slot {self.last_slot}")
            self.last_slot = slot
            _, period, handler, target = self.sources[order]
            time = slot * self.dt if kind is EventKind.ROTATION else m * period
            if trace is not None:
                trace.append((time, len(trace), kind.name, target.name))
            if handler(time, target):
                self.schedule(slot + 1, kind, order, m)
            else:
                # a firing owed since an earlier tick may find the next one due
                self.schedule(max(slot, self.slot(kind, m + 1, period)), kind, order, m + 1)

    def run(self) -> MetricsReport:
        dt = self.dt
        trace = self.report.event_trace
        fire = self.fire
        for k in range(1, self.n_ticks + 1):
            time = k * dt
            fire((k, EventKind.LINK_TICK))  # everything due before tick k
            if trace is not None:
                trace.append((time, len(trace), EventKind.LINK_TICK.name, ""))
            self.on_link_tick(time)
            fire((k, EventKind.TRAFFIC_SEND))  # the rotations due on tick k
            for pair in self.flows:
                if trace is not None:
                    trace.append((time, len(trace), EventKind.TRAFFIC_SEND.name, pair.name))
                self.on_traffic(time, pair)
        fire((self.n_ticks + 1, EventKind.LINK_TICK))  # what follows the last tick
        if trace is not None:
            trace.append((self.scenario.duration_seconds, len(trace), EventKind.REPORT.name, ""))
        return self.finish()


def run(scenario: Scenario, collect_trace: bool = False) -> MetricsReport:
    """Simulate a scenario to completion and return its metrics report."""
    return _Sim(scenario, collect_trace).run()
