"""End-to-end simulation runs: determinism, conservation, scheduling."""

import gc
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from heapq import heappush

import pytest

from starqkd import engine
from starqkd.engine import EventKind, run
from starqkd.report import RelayLedger, emit_report
from starqkd.rng import StreamRegistry, random_bits
from starqkd.scenario import DEFAULT_LINK, ingest_scenario, scenario_from_dict, with_overrides


def small_scenario(**over) -> dict:
    data = {
        "seed": 5,
        "duration_seconds": 50.0,
        "tick_seconds": 1.0,
        "branches": [
            {"id": "b1", "distance_km": 10.0, "qber": 0.02},
            {"id": "b2", "distance_km": 15.0, "qber": 0.015},
            {"id": "b3", "distance_km": 20.0, "qber": 0.025},
        ],
    }
    data.update(over)
    return data


def categories_total(report) -> int:
    return sum(report.totals["consumed_bits"].values())


def test_same_seed_same_report():
    s = scenario_from_dict(small_scenario())
    a = run(s, collect_trace=True)
    b = run(s, collect_trace=True)
    assert a.to_json() == b.to_json()
    assert a.event_trace == b.event_trace


def test_different_seed_different_report():
    s = scenario_from_dict(
        small_scenario(
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 64.0}],
        )
    )
    a = run(s)
    b = run(with_overrides(s, seed=6))
    assert a.to_json() != b.to_json()
    # the relay ledger fingerprints are what differ, not just counters
    fp_a = {e["key_fingerprint"] for e in a.relay_ledger}
    fp_b = {e["key_fingerprint"] for e in b.relay_ledger}
    assert fp_a.isdisjoint(fp_b)


def test_conservation_closes_with_everything_on():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=60.0,
            branches=[
                {"id": "b1", "rotation_frequency_hz": 0.1, "auth_reserved_bits": 512},
                {"id": "b2", "rotation_frequency_hz": 0.05},
                {"id": "b3"},
            ],
            traffic=[
                {"src": "b1", "dst": "b2", "otp_bits_per_sec": 96.0},
                {"src": "b2", "dst": "b3", "relay_bits": 512, "relay_interval_seconds": 15.0},
            ],
            sharing=[
                {
                    "id": "vault",
                    "n_locations": 4,
                    "threshold_k": 2,
                    "refresh_period_seconds": 20.0,
                    "custodians": ["b1", "b3"],
                }
            ],
        )
    )
    r = run(s)
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]
    assert t["consumed_bits_total"] == categories_total(r)
    for category in ("auth", "otp_traffic", "relay", "rotation", "refresh"):
        assert t["consumed_bits"][category] > 0


def test_idle_network_pool_growth_closed_form():
    # no consumers: ten ticks bank exactly floor(10 x secret rate)
    s = scenario_from_dict({"duration_seconds": 10.0, "branches": [{"id": "solo"}]})
    r = run(s)
    rate = Fraction(r.links["solo"]["secret_rate_bps"])
    expected = int(rate * 10)
    assert r.links["solo"]["pool"]["available_bits"] == expected
    assert r.links["solo"]["pool"]["generated_bits"] == expected
    assert r.totals["consumed_bits_total"] == 0
    # A run that cannot relay still holds a ledger, an empty one.
    assert isinstance(r.relay_ledger, RelayLedger) and len(r.relay_ledger) == 0
    assert '\n  "relay_ledger": [],\n' in r.to_json()
    assert r.to_dict()["relay_ledger"] == []


def test_channel_cap_and_round_robin_fairness():
    s = scenario_from_dict(small_scenario(hub={"channel_count": 1}))
    r = run(s)
    counts = r.hub["series"]["active_link_count"]
    assert all(c <= 1 for c in counts)
    # with equal empty pools the rotating tie-break visits everyone early
    for bid in ("b1", "b2", "b3"):
        assert sum(r.links[bid]["series"]["active"][:3]) >= 1


def test_rotation_schedule_and_accounting():
    s = scenario_from_dict(
        small_scenario(
            branches=[{"id": "b1", "rotation_frequency_hz": 0.1, "master_bits": 256}],
        )
    )
    r = run(s)
    assert r.rotations["b1"]["count"] == 5  # 50 s at one per 10 s
    assert len(r.rotations["b1"]["epochs"]) == 5
    assert r.totals["consumed_bits"]["rotation"] == 5 * 256


def rotation_times(report, bid="b1") -> list[float]:
    return [t for t, _ in report.rotations[bid]["epochs"]]


@pytest.mark.parametrize(
    "hz, tick, duration, count, first_ticks",
    [(0.3, 1.0, 100.0, 30, [4, 7, 10, 14]), (0.5, 0.7, 42.0, 21, [3, 6, 9, 12])],
)
def test_rotation_between_ticks_keeps_its_rate(hz, tick, duration, count, first_ticks):
    # rotation m is due at m / f and runs on the first tick at or after it,
    # so a period that is not a whole number of ticks never drifts
    s = scenario_from_dict(
        small_scenario(
            tick_seconds=tick,
            duration_seconds=duration,
            branches=[{"id": "b1", "rotation_frequency_hz": hz}],
        )
    )
    r = run(s)
    assert r.rotations["b1"]["count"] == count
    assert [u for u in r.unmet_demand if u["kind"] == "rotation"] == []
    assert rotation_times(r)[:4] == [k * tick for k in first_ticks]


def test_rotation_too_slow_to_come_due_never_runs():
    # 1 / 5e-324 overflows to an infinite period
    s = scenario_from_dict(
        small_scenario(branches=[{"id": "b1", "rotation_frequency_hz": 5e-324}])
    )
    assert run(s).rotations["b1"] == {"count": 0, "epochs": []}


def test_starved_rotations_catch_up_on_the_schedule():
    # one hub channel serves the four empty pools first, so b1 gets no key
    # before tick 5; the rotations due at 1.25, 2.5, 3.75 and 5 s are paid
    # there, and the later ones keep to the 1.25 s grid
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=12.0,
            hub={"channel_count": 1, "cpu_capacity_per_sec": 1e9},
            branches=[{"id": f"o{j}", "pool_target_bits": 4096} for j in range(4)]
            + [{"id": "b1", "rotation_frequency_hz": 0.8, "master_bits": 3000}],
        )
    )
    r = run(s)
    assert r.links["b1"]["series"]["deposited_bits"][:4] == [0, 0, 0, 0]
    assert [u["time"] for u in r.unmet_demand if u["kind"] == "rotation"] == [2.0, 3.0, 4.0]
    assert rotation_times(r) == [5.0] * 4 + [7.0, 8.0, 9.0, 10.0, 12.0]
    assert r.rotations["b1"]["epochs"][-1] == [12.0, "b1/master@e9"]
    assert r.totals["consumed_bits"]["rotation"] == 9 * 3000


def test_rotation_between_ticks_runs_on_the_next_tick_before_traffic():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=6.0,
            branches=[{"id": "b1", "rotation_frequency_hz": 0.4}, {"id": "b2"}],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 16.0}],
        )
    )
    r = run(s, collect_trace=True)
    events = [(t, kind) for t, _, kind, _ in r.event_trace]
    # due at 2.5 and 5.0 s: a rotation shows only on ticks 3 and 5
    assert [t for t, kind in events if kind == "ROTATION"] == [3.0, 5.0]
    rotation = events.index((3.0, "ROTATION"))
    assert events[rotation - 1] == (3.0, "LINK_TICK")
    assert events[rotation + 1] == (3.0, "TRAFFIC_SEND")
    assert rotation_times(r) == [3.0, 5.0]


def test_otp_traffic_byte_quantized_service():
    # 4 bits per second turns into one whole byte every other tick
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=10.0,
            branches=[{"id": "b1"}, {"id": "b2"}],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 4.0}],
        )
    )
    r = run(s)
    flows = r.links["b1"]["flows_out"]
    assert flows == [{"flow": "b1->b2", "served_bits": 40, "unmet_bits": 0}]
    assert r.totals["otp_message_bits"] == 40
    assert r.totals["consumed_bits"]["otp_traffic"] == 80  # both endpoint pools pay


def test_relay_requests_delivered_on_interval():
    s = scenario_from_dict(
        small_scenario(
            traffic=[
                {"src": "b1", "dst": "b3", "relay_bits": 256, "relay_interval_seconds": 10.0}
            ],
        )
    )
    r = run(s)
    deliveries = [e for e in r.relay_ledger if e["purpose"] == "relay_request"]
    assert len(deliveries) == 5
    assert all(e["bits"] == 256 for e in deliveries)
    assert [e["time"] for e in deliveries] == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert r.totals["relay_delivered_bits"] == 5 * 256
    assert r.totals["consumed_bits"]["relay"] == 2 * 5 * 256


def test_relay_interval_between_ticks():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=10.0,
            traffic=[
                {"src": "b1", "dst": "b2", "relay_bits": 64, "relay_interval_seconds": 2.5}
            ],
        )
    )
    r = run(s, collect_trace=True)
    deliveries = [e for e in r.relay_ledger if e["purpose"] == "relay_request"]
    assert [e["time"] for e in deliveries] == [2.5, 5.0, 7.5, 10.0]
    times = [t for t, _, _, _ in r.event_trace]
    assert times == sorted(times)


@pytest.mark.parametrize("src, dst", [("full", "dry"), ("dry", "full")])
def test_relay_with_one_short_pool_logs_unmet_and_debits_neither(src, dst):
    # "dry" makes no key, while "full" holds tens of thousands of bits by
    # the first request: each relay is unmet and neither pool pays a pad.
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=5.0,
            branches=[{"id": "full"}, {"id": "dry", "source_rate_hz": 1.0}],
            traffic=[{"src": src, "dst": dst, "relay_bits": 256, "relay_interval_seconds": 1.0}],
        )
    )
    r = run(s)
    assert r.links["full"]["series"]["pool_available"][0] >= 256
    assert r.unmet_demand == [
        {"time": float(t), "kind": "relay", "entity": f"{src}->{dst}", "bits": 256}
        for t in range(1, 6)
    ]
    assert len(r.relay_ledger) == 0
    for bid in ("full", "dry"):
        pool = r.links[bid]["pool"]
        assert pool["consumed_bits"] == 0
        assert pool["available_bits"] == pool["generated_bits"]
    assert r.totals["consumed_bits"]["relay"] == r.totals["relay_delivered_bits"] == 0


def test_relay_on_a_tick_runs_after_it_whatever_the_float_rounding():
    # 3 * 0.1 rounds above 0.3, and 3 * 0.3 rounds below 9 * 0.1 == 0.9:
    # each relay is due on tick 3 or 9 and must follow that tick's production
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=1.2,
            tick_seconds=0.1,
            traffic=[
                {"src": "b1", "dst": "b2", "relay_bits": 64, "relay_interval_seconds": 0.3}
            ],
        )
    )
    r = run(s, collect_trace=True)
    events = [(t, kind) for t, _, kind, _ in r.event_trace]
    assert 3 * 0.1 == 0.30000000000000004 and 3 * 0.3 == 0.8999999999999999
    for relay_time, tick in ((0.3, 3), (3 * 0.3, 9)):
        relay = events.index((relay_time, "RELAY_REQUEST"))
        assert events.index((tick * 0.1, "LINK_TICK")) < relay
        assert relay < events.index(((tick + 1) * 0.1, "LINK_TICK"))


def test_refresh_rounds_and_budget():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=60.0,
            sharing=[
                {
                    "id": "vault",
                    "n_locations": 5,
                    "threshold_k": 3,
                    "field_prime": 2305843009213693951,
                    "refresh_period_seconds": 20.0,
                    "custodians": ["b1", "b2"],
                }
            ],
        )
    )
    r = run(s)
    info = r.sharing["vault"]
    cost = 5 * 4 * 61
    assert info["rounds_completed"] == 3
    assert info["deferrals"] == 0
    assert info["reconstruct_ok"]
    assert info["refresh_cost_bits"] == cost
    assert r.totals["consumed_bits"]["refresh"] == 3 * 2 * cost
    ok = [e for e in r.refresh_ledger if e["status"] == "ok"]
    assert [e["round"] for e in ok] == [1, 2, 3]
    assert all(e["exposure_seconds"] == 20.0 for e in ok)


def test_refresh_deferred_when_pools_starved():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=10.0,
            branches=[
                {"id": "b1", "distance_km": 200.0},
                {"id": "b2", "distance_km": 200.0},
            ],
            sharing=[
                {
                    "id": "vault",
                    "n_locations": 5,
                    "threshold_k": 3,
                    "field_prime": 2305843009213693951,
                    "refresh_period_seconds": 1.0,
                    "custodians": ["b1", "b2"],
                }
            ],
        )
    )
    r = run(s)
    info = r.sharing["vault"]
    assert info["rounds_completed"] == 0
    assert info["deferrals"] == 10
    assert info["max_exposure_seconds"] == 10.0  # never refreshed over the whole run
    assert info["reconstruct_ok"]
    assert any(u["kind"] == "refresh" for u in r.unmet_demand)
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]


def test_starved_traffic_logs_unmet_and_still_conserves():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=20.0,
            branches=[
                {"id": "b1", "distance_km": 120.0},
                {"id": "b2", "distance_km": 120.0},
            ],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 100000.0}],
        )
    )
    r = run(s)
    flow = r.links["b1"]["flows_out"][0]
    assert flow["unmet_bits"] > 0
    assert any(u["kind"] == "otp_traffic" for u in r.unmet_demand)
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]
    assert t["consumed_bits_total"] == categories_total(r)


def test_auth_runs_budget_down_then_pool_then_halts():
    # 512 reserved bits cover exactly one tick of 4 tagged messages
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=5.0,
            branches=[
                {
                    "id": "far",
                    "distance_km": 250.0,
                    "auth_reserved_bits": 512,
                }
            ],
        )
    )
    r = run(s)
    link = r.links["far"]
    assert link["halted_ticks"] > 0
    assert any(u["kind"] == "auth" and u["entity"] == "far" for u in r.unmet_demand)
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]


def test_hub_throttle_builds_backlog():
    s = scenario_from_dict(
        small_scenario(hub={"channel_count": 3, "cpu_capacity_per_sec": 100.0})
    )
    r = run(s)
    assert r.hub["backlog_cost_final"] > 0
    assert max(r.hub["series"]["backlog_cost"]) > 0
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]


@pytest.mark.parametrize(("tick", "duration"), [(0.1, 10.0), (0.3, 30.0), (0.7, 70.0)])
def test_hub_cost_per_tick_is_exact(tick, duration):
    """A hub sized exactly for its link never backlogs; one a float below it
    defers exactly k * (cost rate - capacity) * dt by tick k."""
    rate = DEFAULT_LINK.cpu_cost_per_sec
    assert rate == 63095.73444801933
    for capacity in (rate, math.nextafter(rate, 0.0)):
        data = {
            "duration_seconds": duration,
            "tick_seconds": tick,
            "hub": {"cpu_capacity_per_sec": capacity},
            "branches": [{"id": "a"}],
        }
        r = run(scenario_from_dict(data))
        gap = (Fraction(rate) - Fraction(capacity)) * Fraction(tick)
        assert r.hub["series"]["backlog_cost"] == [float(k * gap) for k in range(1, 101)]


def test_event_trace_is_ordered_and_prioritized():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=5.0,
            branches=[{"id": "b1", "rotation_frequency_hz": 1.0}, {"id": "b2"}],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 16.0}],
        )
    )
    r = run(s, collect_trace=True)
    trace = r.event_trace
    seqs = [seq for _, seq, _, _ in trace]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    by_time: dict[float, list[str]] = {}
    for t, _, kind, _ in trace:
        by_time.setdefault(t, []).append(kind)
    for kinds in by_time.values():
        ranks = [EventKind[k] for k in kinds]
        assert ranks == sorted(ranks)
    # every whole tick leads with link production
    assert all(kinds[0] == "LINK_TICK" for kinds in by_time.values())


def test_report_series_lengths_match_ticks():
    s = scenario_from_dict(small_scenario(duration_seconds=25.0))
    r = run(s)
    assert len(r.times) == 25
    for bid in ("b1", "b2", "b3"):
        series = r.links[bid]["series"]
        assert len(series["pool_available"]) == 25
        assert len(series["deposited_bits"]) == 25
        assert len(series["active"]) == 25
    assert len(r.hub["series"]["backlog_cost"]) == 25


def test_columns_take_the_narrowest_int_array_that_holds_the_bound():
    # Two unthrottled links of ~4.5e9 bits per second: ten ticks bound every
    # pool level, deposit and relay between 2**31 and 2**63 bits, so the bit
    # columns and the ledger's bits are 'q' arrays, holding the exact levels.
    link = {"source_rate_hz": 1e11, "cpu_cost_per_raw_bit": 0}
    doc = {
        "duration_seconds": 10.0,
        "hub": {"channel_count": 2},
        "branches": [{"id": "a", **link}, {"id": "b", **link}],
        "traffic": [{"src": "a", "dst": "b", "relay_bits": 4096, "relay_interval_seconds": 3.0}],
    }
    r = run(scenario_from_dict(doc))
    rate = Fraction(r.links["a"]["secret_rate_bps"])  # bits per one-second tick
    assert 2**31 < 10 * rate < 2**63
    # Production, then the relays of earlier ticks: one at 3, 6 and 9 s.
    levels = [math.floor(k * rate) - 4096 * ((k - 1) // 3) for k in range(1, 11)]
    assert max(levels) > 2**31
    for bid in ("a", "b"):
        series = r.links[bid]["series"]
        assert series["pool_available"].column.typecode == "q"
        assert series["pool_available"] == levels
        assert series["deposited_bits"].column.typecode == "q"
        made = [math.floor(k * rate) for k in range(11)]
        assert series["deposited_bits"] == [b - a for a, b in zip(made, made[1:])]
        assert series["active"].column.typecode == "b" and series["active"] == [1] * 10
    assert r.relay_ledger.bits.typecode == "q" and list(r.relay_ledger.bits) == [4096] * 3
    assert r.unmet_demand == []
    # The default star's bound fits 32 bits.
    small = run(scenario_from_dict(small_scenario()))
    assert small.links["b1"]["series"]["pool_available"].column.typecode == "i"
    assert small.relay_ledger.bits.typecode == "i"


def test_a_tick_retains_under_400_bytes():
    # star10 keeps its per-tick columns as typed arrays: what a run leaves
    # allocated grows by under 400 bytes per tick (Python ints in lists
    # took about 800).
    base = ingest_scenario("scenarios/star10.json")

    def retained(ticks):
        scenario = with_overrides(base, duration_seconds=float(ticks))
        gc.collect()
        tracemalloc.start()
        try:
            report = run(scenario)
            assert len(report.times) == ticks
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    per_tick = (retained(4000) - retained(2000)) / 2000
    assert per_tick <= 400, per_tick


def test_an_unthrottled_run_builds_no_fraction(monkeypatch):
    # Every exact amount of an unthrottled run is whole at the 2**128
    # scale: its rounds, the hub's budget and the backlog total are ints.
    scenario = ingest_scenario("scenarios/minimal.json")
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic's results from Python 3.12
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(
            Fraction,
            "_from_coprime_ints",
            classmethod(lambda cls, n, d: built.append((n, d)) or coprime(n, d)),
        )
    assert Fraction(1, 3) + 1 == Fraction(4, 3) and built  # the count sees both ways
    built.clear()
    report = run(scenario)
    assert built == []
    assert report.totals["generated_bits"] > 0 and report.hub["backlog_cost_final"] == 0.0


def test_shipped_scenario_runs_clean():
    s = ingest_scenario("scenarios/star10.json")
    r = run(s)
    assert r.seed == 42
    assert max(r.hub["series"]["active_link_count"]) <= 2
    assert r.mosca_at_risk is True
    assert {a["id"] for a in r.assets} == {
        "press-kit",
        "ops-telemetry",
        "payroll-records",
        "trade-algorithms",
    }
    by_id = {a["id"]: a for a in r.assets}
    assert by_id["trade-algorithms"]["technique"] == "qkd_otp"
    assert by_id["press-kit"]["technique"] == "classical_public_key"
    t = r.totals
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]
    assert t["consumed_bits_total"] == categories_total(r)


@pytest.fixture(scope="module")
def relay_reports():
    """Shipped star10, and OTP, 2.5 s relays and 7 s refreshes on 1 s ticks."""
    star10 = run(ingest_scenario("scenarios/star10.json"))
    between_ticks = run(
        scenario_from_dict(
            small_scenario(
                duration_seconds=30.0,
                traffic=[
                    {"src": "b1", "dst": "b2", "otp_bits_per_sec": 64.0},
                    {"src": "b2", "dst": "b3", "relay_bits": 24, "relay_interval_seconds": 2.5},
                ],
                sharing=[
                    {
                        "id": "vault",
                        "n_locations": 3,
                        "threshold_k": 2,
                        "refresh_period_seconds": 7.0,
                        "custodians": ["b3", "b1"],
                    }
                ],
            )
        )
    )
    return star10, between_ticks


def test_relay_ledger_is_the_relay_stream_in_row_order(relay_reports):
    # Row i is relay number i + 1, and its key is the next draw from relay/hub.
    star10, between_ticks = relay_reports
    rows = between_ticks.relay_ledger
    times = [row["time"] for row in rows if row["purpose"] == "relay_request"]
    assert 2.5 in times and 27.5 in times
    for report in (star10, between_ticks):
        purposes = {row["purpose"] for row in report.relay_ledger}
        assert purposes == {"otp_traffic", "relay_request", "refresh"}
        stream = StreamRegistry(report.seed).stream("relay/hub")
        for i, row in enumerate(report.relay_ledger):
            assert row["key_id"] == f"relay-{i + 1:06d}"
            fresh = random_bits(stream, row["bits"])
            assert row["key_fingerprint"] == hashlib.sha256(fresh).hexdigest()[:16]


def test_a_run_asks_only_for_the_streams_it_reads(monkeypatch):
    # Link pools and refresh budgets are ledgers no engine path draws from,
    # so the run makes no stream for them.
    asked = []
    stream = StreamRegistry.stream

    def recording(self, label):
        asked.append(label)
        return stream(self, label)

    monkeypatch.setattr(StreamRegistry, "stream", recording)
    run(with_overrides(ingest_scenario("scenarios/star10.json"), duration_seconds=50.0))
    assert asked == ["sharing/vault-alpha", "relay/hub"]


def test_report_json_is_json_dumps_of_to_dict(relay_reports, tmp_path):
    # README "Reports": the bytes are json.dumps(report.to_dict(),
    # sort_keys=True, indent=2) followed by a newline.
    for name, report in zip(("star10", "between_ticks"), relay_reports):
        data = report.to_dict()
        assert isinstance(data["relay_ledger"], list) and data["relay_ledger"]
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert report.to_json() == text
        (path,) = emit_report(report, "json", tmp_path / name)
        assert path.read_text(encoding="utf-8") == text


def _extra_generated_bit(sim):
    sim.branches[0].link.pool.total_generated_bits += 1


def _uncategorized_debit(sim):
    sim.consumed["relay"] -= 2


def _unlogged_relay(sim):
    sim.topology.relay_count += 1


@pytest.mark.parametrize(
    ("fault", "message"),
    [
        (_extra_generated_bit, r"conservation broken: generated \d+ != \d+ available \+ \d+"),
        (_uncategorized_debit, r"consumption categories do not close: \d+ != \{'auth': "),
        (_unlogged_relay, r"relay ledger has (\d+) rows for (\d+) relays"),
    ],
)
def test_finish_names_a_broken_invariant(monkeypatch, fault, message):
    scenario = scenario_from_dict(
        small_scenario(traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 64.0}])
    )
    rows = len(run(scenario).relay_ledger)
    finish = engine._Sim.finish

    def faulty_finish(sim):
        fault(sim)
        return finish(sim)

    monkeypatch.setattr(engine._Sim, "finish", faulty_finish)
    with pytest.raises(AssertionError, match=message) as caught:
        run(scenario)
    if fault is _unlogged_relay:
        assert str(caught.value) == f"relay ledger has {rows} rows for {rows + 1} relays"


def test_fire_rejects_a_slot_before_the_last_one():
    # The schedule only moves forward: an entry sorting before the slot
    # just fired is a scheduling fault, and fire names both slots.
    sim = engine._Sim(
        scenario_from_dict(small_scenario(branches=[{"id": "b1", "rotation_frequency_hz": 0.5}])),
        False,
    )
    sim.fire((3, EventKind.LINK_TICK))  # the rotation on tick 2
    assert sim.last_slot == 2
    heappush(sim.due, (1, EventKind.ROTATION, 0, 1))
    with pytest.raises(AssertionError, match=r"^slot 1 follows slot 2$"):
        sim.fire((3, EventKind.LINK_TICK))


def test_fractional_rate_carries_exactly():
    # 12.5 bits per second: bytes should appear without drift
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=40.0,
            branches=[{"id": "b1"}, {"id": "b2"}],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 12.5}],
        )
    )
    r = run(s)
    flow = r.links["b1"]["flows_out"][0]
    offered = Fraction(25, 2) * 40
    assert flow["served_bits"] == (offered // 8) * 8 == 496
    assert flow["unmet_bits"] == 0


def test_otp_demand_at_a_tick_of_no_whole_number_of_bits():
    s = scenario_from_dict(
        small_scenario(
            duration_seconds=20.0,
            tick_seconds=0.1,
            branches=[{"id": "b1"}, {"id": "b2"}],
            traffic=[{"src": "b1", "dst": "b2", "otp_bits_per_sec": 1000.0}],
        )
    )
    per_tick = Fraction(1000.0) * Fraction(0.1)
    assert per_tick.denominator > 1
    pending, asked = Fraction(0), 0
    for _ in range(s.tick_count):
        pending += per_tick
        ask = math.floor(pending) // 8 * 8  # whole bytes
        pending -= ask
        asked += ask
    flow = run(s).links["b1"]["flows_out"][0]
    assert flow["served_bits"] > 0
    assert flow["served_bits"] + flow["unmet_bits"] == asked
