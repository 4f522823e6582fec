"""Deterministic discrete-event simulation of one star network.

The whole run is pre-scheduled: every event gets a (time, sequence)
pair up front, with same-time events ordered by kind (production first,
then rotation, traffic, relay requests, refresh, report) and, within a
kind, by scenario declaration order. Replaying the queue with the same
seed therefore reproduces the report byte for byte.

Key-bit conservation is exact and closes over five consumption
categories: authentication top-ups, one-time-pad traffic, relay
requests, master-key rotation, and share refresh. Every debit from a
link pool lands in exactly one of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from .errors import InsufficientKey
from .hybrid import HybridCipherState, due_rotations, mosca_at_risk, rotate_master
from .keycore import KeyMaterial, KeyPool, Provenance, otp_decrypt, otp_encrypt
from .policy import asset_grid, default_matrix, recommend
from .qkdlink import raw_rate, secret_rate
from .report import MetricsReport
from .rng import StreamRegistry, random_bits
from .scenario import Scenario, SharingScenario, technique_to_jsonable
from .sharing import reconstruct, refresh as refresh_shares, split
from .starnet import (
    BranchSpec,
    Node,
    NodeKind,
    StarTopology,
    build_star,
    hub_cpu_step,
    relay_key,
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


@dataclass(frozen=True)
class Event:
    time: float
    sequence: int
    kind: EventKind
    entity: str


@dataclass
class _PairFlow:
    src: str
    dst: str
    bits_per_tick: Fraction  # exact rate times tick length
    pending: Fraction = field(default_factory=lambda: Fraction(0))
    served_bits: int = 0
    unmet_bits: int = 0


@dataclass
class _SharingRuntime:
    spec: SharingScenario
    secret: int
    shares: list
    budget: KeyPool
    rounds_completed: int = 0
    deferrals: int = 0
    last_refresh_time: float = 0.0
    max_exposure_seconds: float = 0.0


def _fingerprint(bits: bytes) -> str:
    return hashlib.sha256(bits).hexdigest()[:16]


class _Sim:
    def __init__(self, scenario: Scenario, collect_trace: bool) -> None:
        self.scenario = scenario
        self.collect_trace = collect_trace
        self.streams = StreamRegistry(scenario.seed)
        self.dt = scenario.tick_seconds
        self.n_ticks = scenario.tick_count

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
                pool_rng=self.streams.stream(f"pool/{b.id}"),
            )
            for b in scenario.branches
        ]
        self.topology: StarTopology = build_star(hub, specs)

        self.ciphers: dict[str, HybridCipherState] = {}
        for b in scenario.branches:
            key_rng = self.streams.stream(f"keys/{b.id}")
            master = KeyMaterial(
                id=f"{b.id}/master",
                bits=random_bits(key_rng, b.master_bits),
                bit_length=b.master_bits,
                provenance=Provenance.MASTER,
            )
            session = KeyMaterial(
                id=f"{b.id}/session",
                bits=random_bits(key_rng, b.session_bits),
                bit_length=b.session_bits,
                provenance=Provenance.SESSION,
            )
            self.ciphers[b.id] = HybridCipherState(
                master=master, session=session, rotation_frequency_hz=b.rotation_frequency_hz
            )

        self.flows: dict[str, _PairFlow] = {}
        for t in scenario.traffic:
            if t.otp_bits_per_sec > 0:
                name = f"{t.src}->{t.dst}"
                self.flows[name] = _PairFlow(
                    src=t.src,
                    dst=t.dst,
                    bits_per_tick=Fraction(t.otp_bits_per_sec) * Fraction(self.dt),
                )

        self.sharings: dict[str, _SharingRuntime] = {}
        for inst in scenario.sharing:
            rng = self.streams.stream(f"sharing/{inst.id}")
            config = inst.config()
            secret = rng.randrange(config.field_prime)
            self.sharings[inst.id] = _SharingRuntime(
                spec=inst,
                secret=secret,
                shares=split(secret, config, rng),
                budget=KeyPool(
                    link_id=f"sharing/{inst.id}",
                    target_bits=config.refresh_cost_bits,
                    rng=self.streams.stream(f"sharing-budget/{inst.id}"),
                ),
            )

        self.relay_rng = self.streams.stream("relay/hub")
        self.master_bits_by_id = {b.id: b.master_bits for b in scenario.branches}

        # accounting
        self.consumed = {
            "auth": 0,
            "otp_traffic": 0,
            "relay": 0,
            "rotation": 0,
            "refresh": 0,
        }
        self.relay_delivered_bits = 0
        self.rotation_counts: dict[str, int] = {b.id: 0 for b in scenario.branches}

        # report skeleton
        self.report = MetricsReport(
            seed=scenario.seed,
            duration_seconds=scenario.duration_seconds,
            tick_seconds=scenario.tick_seconds,
        )
        for b in scenario.branches:
            self.report.links[b.id] = {
                "distance_km": b.link.distance_km,
                "raw_rate_bps": raw_rate(b.link),
                "secret_rate_bps": secret_rate(b.link),
                "series": {"pool_available": [], "deposited_bits": [], "active": []},
            }
        self.report.hub = {
            "id": scenario.hub.id,
            "channel_count": scenario.channel_count,
            "cpu_capacity_per_sec": scenario.hub.cpu_capacity_per_sec,
            "series": {"backlog_cost": [], "processed_cost": [], "active_link_count": []},
        }
        # Per-tick columns, bound once: (branch id, pool, and the append
        # of its pool_available, deposited_bits and active series).
        self.columns = []
        for b in scenario.branches:
            series = self.report.links[b.id]["series"]
            self.columns.append(
                (
                    b.id,
                    self.topology.link(b.id).pool,
                    series["pool_available"].append,
                    series["deposited_bits"].append,
                    series["active"].append,
                )
            )
        hub_series = self.report.hub["series"]
        self.hub_columns = (
            hub_series["backlog_cost"].append,
            hub_series["processed_cost"].append,
            hub_series["active_link_count"].append,
        )
        if collect_trace:
            self.report.event_trace = []

    # ------------------------------------------------------------------
    # schedule

    def build_schedule(self) -> list[Event]:
        s = self.scenario
        horizon = s.duration_seconds * (1.0 + 1e-12)
        raw: list[tuple[float, int, int, str]] = []
        for k in range(1, self.n_ticks + 1):
            t = k * self.dt
            raw.append((t, EventKind.LINK_TICK, 0, ""))
            for order, b in enumerate(s.branches):
                if b.rotation_frequency_hz > 0:
                    raw.append((t, EventKind.ROTATION, order, b.id))
            for order, name in enumerate(self.flows):
                raw.append((t, EventKind.TRAFFIC_SEND, order, name))
        for order, t_spec in enumerate(s.traffic):
            if t_spec.relay_bits > 0:
                m = 1
                while m * t_spec.relay_interval_seconds <= horizon:
                    raw.append(
                        (
                            m * t_spec.relay_interval_seconds,
                            EventKind.RELAY_REQUEST,
                            order,
                            f"{t_spec.src}->{t_spec.dst}",
                        )
                    )
                    m += 1
        for order, inst in enumerate(s.sharing):
            m = 1
            while m * inst.refresh_period_seconds <= horizon:
                raw.append((m * inst.refresh_period_seconds, EventKind.REFRESH, order, inst.id))
                m += 1
        raw.append((s.duration_seconds, EventKind.REPORT, 0, ""))
        raw.sort(key=lambda item: (item[0], int(item[1]), item[2]))
        return [
            Event(time=t, sequence=seq, kind=EventKind(kind), entity=entity)
            for seq, (t, kind, order, entity) in enumerate(raw)
        ]

    # ------------------------------------------------------------------
    # handlers

    def unmet(self, time: float, kind: str, entity: str, bits: int) -> None:
        self.report.unmet_demand.append(
            {"time": time, "kind": kind, "entity": entity, "bits": bits}
        )

    def relay(
        self, time: float, src: str, dst: str, n: int, purpose: str
    ) -> tuple[KeyMaterial, KeyMaterial]:
        """Relay n bits between src and dst and log it in the relay ledger."""
        k_src, k_dst, record = relay_key(self.topology, src, dst, n, self.relay_rng, now=time)
        self.report.relay_ledger.append(
            {
                "time": time,
                "branch_i": record.branch_i,
                "branch_j": record.branch_j,
                "bits": record.bits,
                "key_id": record.key_id,
                "key_fingerprint": _fingerprint(k_src.bits),
                "purpose": purpose,
            }
        )
        return k_src, k_dst

    def on_link_tick(self, event: Event) -> None:
        active = schedule_channels(self.topology, now=event.time)
        step = hub_cpu_step(self.topology, self.dt, active, now=event.time)
        self.consumed["auth"] += sum(step.auth_bits_from_pool.values())
        for bid in step.halted:
            link = self.topology.link(bid)
            need = link.params.post_processing_messages_per_round * link.auth.tag_cost_bits
            self.unmet(event.time, "auth", bid, need)
        self.report.times.append(event.time)
        active_set = set(active)
        deposited = step.deposited
        for bid, pool, pool_available, deposited_bits, is_active in self.columns:
            pool_available(pool.available_bits)
            deposited_bits(deposited.get(bid, 0))
            is_active(1 if bid in active_set else 0)
        backlog_cost, processed_cost, active_link_count = self.hub_columns
        backlog_cost(step.backlog_cost_after)
        processed_cost(step.cpu_processed)
        active_link_count(len(active))

    def on_rotation(self, event: Event) -> None:
        bid = event.entity
        state = self.ciphers[bid]
        due = due_rotations(state, event.time)
        if due <= 0:
            return
        pool = self.topology.link(bid).pool
        need = self.master_bits_by_id[bid]
        for _ in range(due):
            try:
                k_q = pool.draw(need, Provenance.QUANTUM, created_at=event.time)
            except InsufficientKey:
                self.unmet(event.time, "rotation", bid, need)
                break
            rotate_master(state, k_q, now=event.time)
            self.consumed["rotation"] += need
            self.rotation_counts[bid] += 1

    def on_traffic(self, event: Event) -> None:
        flow = self.flows[event.entity]
        flow.pending += flow.bits_per_tick
        want = int(flow.pending)
        ask = want - want % 8  # pads are spent on whole-byte messages
        if ask <= 0:
            return
        flow.pending -= ask
        pool_src = self.topology.link(flow.src).pool
        pool_dst = self.topology.link(flow.dst).pool
        usable = min(ask, pool_src.available_bits, pool_dst.available_bits)
        usable -= usable % 8
        if usable > 0:
            k_src, k_dst = self.relay(event.time, flow.src, flow.dst, usable, "otp_traffic")
            self.consumed["otp_traffic"] += 2 * usable
            payload = bytes(usable // 8)
            ciphertext = otp_encrypt(k_src, payload)
            if otp_decrypt(k_dst, ciphertext) != payload:
                raise AssertionError("one-time-pad round trip failed")
            flow.served_bits += usable
        if usable < ask:
            flow.unmet_bits += ask - usable
            self.unmet(event.time, "otp_traffic", event.entity, ask - usable)

    def on_relay_request(self, event: Event) -> None:
        src, dst = event.entity.split("->")
        spec = next(
            t for t in self.scenario.traffic if t.src == src and t.dst == dst and t.relay_bits > 0
        )
        n = spec.relay_bits
        pool_src = self.topology.link(src).pool
        pool_dst = self.topology.link(dst).pool
        if pool_src.available_bits < n or pool_dst.available_bits < n:
            self.unmet(event.time, "relay", event.entity, n)
            return
        self.relay(event.time, src, dst, n, "relay_request")
        self.consumed["relay"] += 2 * n
        self.relay_delivered_bits += n

    def on_refresh(self, event: Event) -> None:
        runtime = self.sharings[event.entity]
        config = runtime.spec.config()
        cost = config.refresh_cost_bits
        a, b = runtime.spec.custodians
        pool_a = self.topology.link(a).pool
        pool_b = self.topology.link(b).pool
        if pool_a.available_bits < cost or pool_b.available_bits < cost:
            runtime.deferrals += 1
            exposure = event.time - runtime.last_refresh_time
            runtime.max_exposure_seconds = max(runtime.max_exposure_seconds, exposure)
            self.unmet(event.time, "refresh", event.entity, 2 * cost)
            self.report.refresh_ledger.append(
                {
                    "time": event.time,
                    "instance": event.entity,
                    "round": runtime.rounds_completed,
                    "status": "deferred",
                    "pool_bits": 0,
                    "exposure_seconds": exposure,
                }
            )
            return
        # The delivered key is the refresh pad material.
        self.relay(event.time, a, b, cost, "refresh")
        self.consumed["refresh"] += 2 * cost
        runtime.budget.deposit(cost)
        rng = self.streams.stream(f"sharing/{runtime.spec.id}")
        runtime.shares = refresh_shares(runtime.shares, config, rng, runtime.budget)
        runtime.rounds_completed += 1
        exposure = event.time - runtime.last_refresh_time
        runtime.max_exposure_seconds = max(runtime.max_exposure_seconds, exposure)
        runtime.last_refresh_time = event.time
        self.report.refresh_ledger.append(
            {
                "time": event.time,
                "instance": event.entity,
                "round": runtime.rounds_completed,
                "status": "ok",
                "pool_bits": 2 * cost,
                "exposure_seconds": exposure,
            }
        )

    # ------------------------------------------------------------------
    # final assembly

    def finish(self) -> MetricsReport:
        report = self.report
        s = self.scenario
        for b in s.branches:
            link = self.topology.link(b.id)
            entry = report.links[b.id]
            entry["pool"] = {
                "target_bits": link.pool.target_bits,
                "available_bits": link.pool.available_bits,
                "generated_bits": link.pool.total_generated_bits,
                "consumed_bits": link.pool.total_consumed_bits,
            }
            entry["auth"] = {
                "reserved_bits_remaining": link.auth.reserved_bits,
                "consumed_bits": link.auth.total_consumed_bits,
            }
            entry["cpu_cost_total"] = link.cumulative_cpu_cost
            entry["halted_ticks"] = link.halted_ticks
        report.hub["backlog_cost_final"] = float(self.topology.backlog_cost)

        for bid, count in self.rotation_counts.items():
            state = self.ciphers[bid]
            report.rotations[bid] = {
                "count": count,
                "epochs": [[t, key_id] for t, key_id in state.epoch_log],
            }

        for name, flow in self.flows.items():
            report.links[flow.src].setdefault("flows_out", []).append(
                {"flow": name, "served_bits": flow.served_bits, "unmet_bits": flow.unmet_bits}
            )

        for inst_id, runtime in self.sharings.items():
            config = runtime.spec.config()
            tail = s.duration_seconds - runtime.last_refresh_time
            runtime.max_exposure_seconds = max(runtime.max_exposure_seconds, tail)
            check = reconstruct(runtime.shares[: config.threshold_k], config)
            report.sharing[inst_id] = {
                "n_locations": config.n_locations,
                "threshold_k": config.threshold_k,
                "rounds_completed": runtime.rounds_completed,
                "deferrals": runtime.deferrals,
                "max_exposure_seconds": runtime.max_exposure_seconds,
                "refresh_cost_bits": config.refresh_cost_bits,
                "reconstruct_ok": check == runtime.secret,
            }

        if s.assets:
            if s.policy_matrix is not None:
                matrix = s.policy_matrix
            elif s.classes is not None:
                matrix = default_matrix(*s.classes)
            else:
                matrix = default_matrix(*asset_grid(s.assets))
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

        generated = sum(self.topology.link(b.id).pool.total_generated_bits for b in s.branches)
        available = sum(self.topology.link(b.id).pool.available_bits for b in s.branches)
        consumed = sum(self.topology.link(b.id).pool.total_consumed_bits for b in s.branches)
        by_category = dict(self.consumed)
        report.totals = {
            "generated_bits": generated,
            "pool_available_bits": available,
            "consumed_bits_total": consumed,
            "consumed_bits": by_category,
            "otp_message_bits": sum(f.served_bits for f in self.flows.values()),
            "relay_delivered_bits": self.relay_delivered_bits,
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
        return report

    def run(self) -> MetricsReport:
        events = self.build_schedule()
        handlers = {
            EventKind.LINK_TICK: self.on_link_tick,
            EventKind.ROTATION: self.on_rotation,
            EventKind.TRAFFIC_SEND: self.on_traffic,
            EventKind.RELAY_REQUEST: self.on_relay_request,
            EventKind.REFRESH: self.on_refresh,
        }
        last = (-1.0, -1)
        for event in events:
            if not (event.time > last[0] or (event.time == last[0] and event.sequence > last[1])):
                raise AssertionError(f"event order violated at {event}")
            last = (event.time, event.sequence)
            if self.report.event_trace is not None:
                self.report.event_trace.append(
                    (event.time, event.sequence, event.kind.name, event.entity)
                )
            if event.kind is EventKind.REPORT:
                continue
            handlers[event.kind](event)
        return self.finish()


def run(scenario: Scenario, collect_trace: bool = False) -> MetricsReport:
    """Simulate a scenario to completion and return its metrics report."""
    return _Sim(scenario, collect_trace).run()
