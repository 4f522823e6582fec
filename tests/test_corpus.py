"""Frozen corpus of random valid scenarios, and two metamorphic oracles.

`corpus_scenario(i)` builds scenario i from a `random.Random` seeded by
its index alone, so the corpus does not move when a test library is
upgraded. Each of the 200 scenarios has 1-8 branches and at most 60
ticks, and they mix throttled and unthrottled hubs, one-time-pad flows,
relays, secret sharing, rotation, assets and tick lengths that are not
whole seconds. Most runs stop by tick 20 so the corpus runs in a
few seconds; about a third run up to 60 ticks, long enough for hub
backlogs, slow rotation and the longer periods to show.
`tests/golden_corpus.json` pins each scenario's `report.json` sha256;
a change that moves one on purpose updates the file and says which
digests moved and why. Each run is also checked for closure, a round
trip, CSV series equal to the report's, and each rotating branch's
count against the rotations due by the last tick. `starqkd simulate`
runs each scenario file again in process: it must exit 0 and write the
same `report.json` bytes, which is also the repeat check. The library's
`due_rotations` and `rotate_master`, stepped through each rotating
branch's ticks, must give the engine's epochs.

Regenerate the digests with `PYTHONPATH=src python tests/test_corpus.py`,
which prints the indices whose digest moved. With `--check` it writes
nothing, and exits 1 if a digest moved.
"""

import csv
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from starqkd.cli import main
from starqkd.engine import run
from starqkd.hybrid import HybridCipherState, due_rotations, rotate_master
from starqkd.keycore import KeyMaterial, Provenance
from starqkd.report import emit_report
from starqkd.scenario import (
    ingest_scenario,
    scenario_from_dict,
    scenario_to_dict,
    whole_ticks,
    with_overrides,
)

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_corpus.json"
SCENARIOS = HERE.parent / "scenarios"
CORPUS_SIZE = 200

TICK_SECONDS = (1.0, 1.0, 0.5, 0.25, 0.1, 0.7, 2.0, 0.3)
# Periods in seconds for relays and refresh; some fall between ticks.
PERIODS = (0.3, 0.5, 0.7, 1.0, 2.5, 3.0, 4.0, 7.0, 10.0)


def corpus_scenario(index: int) -> dict:
    """Scenario `index` of the corpus, as the JSON object a file would hold."""
    rng = random.Random(f"starqkd-corpus/{index}")
    tick = rng.choice(TICK_SECONDS)
    n_branches = rng.randint(1, 8)
    branches = []
    for j in range(n_branches):
        branch = {
            "id": f"b{j}",
            "distance_km": round(rng.uniform(1.0, 160.0), 1),
            "qber": round(rng.uniform(0.005, 0.05), 4),
        }
        if rng.random() < 0.3:
            branch["auth_reserved_bits"] = rng.choice((0, 512, 2048))
        if rng.random() < 0.3:
            branch["pool_target_bits"] = rng.choice((4096, 50000))
        if rng.random() < 0.4:
            branch["rotation_frequency_hz"] = rng.choice((0.05, 0.2, 0.5, 1.0))
            branch["master_bits"] = rng.choice((128, 256, 1024))
        branches.append(branch)
    data = {
        "seed": rng.randrange(2**32),
        "tick_seconds": tick,
        "duration_seconds": rng.randint(1, 60 if rng.random() < 0.3 else 20) * tick,
        "branches": branches,
    }
    if rng.random() < 0.5:
        data["hub"] = {
            "channel_count": rng.randint(1, n_branches),
            "cpu_capacity_per_sec": rng.choice((5e3, 3e4, 1.2e5, 1e6)),
        }
    ids = [b["id"] for b in branches]
    if n_branches >= 2:
        pairs = [(a, b) for a in ids for b in ids if a != b]
        traffic = []
        for src, dst in rng.sample(pairs, min(len(pairs), rng.randint(0, 4))):
            demand = {"src": src, "dst": dst}
            if rng.random() < 0.7:
                demand["otp_bits_per_sec"] = rng.choice((4.0, 12.5, 96.0, 800.0, 20000.0))
            if rng.random() < 0.5:
                demand["relay_bits"] = rng.choice((64, 512, 4096))
                demand["relay_interval_seconds"] = rng.choice(PERIODS)
            traffic.append(demand)
        data["traffic"] = traffic
        if rng.random() < 0.4:
            n = rng.randint(2, 5)
            data["sharing"] = [
                {
                    "id": "vault",
                    "n_locations": n,
                    "threshold_k": rng.randint(1, n),
                    "field_prime": rng.choice((257, 2305843009213693951)),
                    "refresh_period_seconds": rng.choice(PERIODS),
                    "custodians": rng.sample(ids, 2),
                }
            ]
    if rng.random() < 0.4:
        data["assets"] = [
            {
                "id": f"a{j}",
                "sensitivity_index": rng.randint(1, 4),
                "time_index": rng.randint(1, 4),
                "lifetime_seconds": rng.choice((0.0, 3.15e7, 6.3e8)),
                "data_state": rng.choice(("at_rest", "in_motion", "in_use")),
            }
            for j in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            data["classes"] = {"m_c": 4, "k_t": 4}
    if rng.random() < 0.3:
        data["migration"] = {"x_years": 5.0, "y_years": 7.0, "z_years": rng.choice((10.0, 15.0))}
    return data


def report_bytes(report, out_dir: Path) -> bytes:
    (path,) = emit_report(report, "json", out_dir)
    return path.read_bytes()


def simulate_bytes(data: dict, out_dir: Path) -> bytes:
    """report.json of `starqkd simulate` on the scenario file holding data."""
    out_dir.mkdir(parents=True)
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path), "--out", str(out_dir)]) == 0
    return (out_dir / "report.json").read_bytes()


def golden() -> dict[int, str]:
    """Scenario index -> sha256 of its report.json."""
    pinned = json.loads(GOLDEN_PATH.read_text())["report_sha256"]
    return {int(index): digest for index, digest in pinned.items()}


def rotations_due(hz: float, tick: float, ticks: int) -> int:
    """How many rotations m have their time m / hz at or before the last tick.

    A time is on tick k when it is within one part in 1e9 of k ticks, the
    rule that makes a duration a whole number of ticks.
    """
    period = 1.0 / hz
    m = 0
    while True:
        ratio = (m + 1) * period / tick
        k = whole_ticks(ratio)
        if (ratio if k is None else k) > ticks:
            return m
        m += 1


def check_rotation_counts(scenario, report) -> None:
    """Every rotation due runs, unless the branch was short of key for one."""
    starved = {u["entity"] for u in report.unmet_demand if u["kind"] == "rotation"}
    dt, ticks = scenario.tick_seconds, scenario.tick_count
    for b in scenario.branches:
        if b.rotation_frequency_hz > 0:
            due = rotations_due(b.rotation_frequency_hz, dt, ticks)
            count = report.rotations[b.id]["count"]
            assert count <= due and (count == due or b.id in starved), (b.id, count, due)


def check_csv_matches_report(report, out_dir: Path) -> None:
    """The series CSV files hold the report's times and series, as text."""
    emit_report(report, "csv", out_dir)
    files = {
        name: {bid: link["series"][name] for bid, link in report.links.items()}
        for name in ("pool_available", "deposited_bits")
    }
    hub = report.hub["series"]
    files["hub"] = {key: hub[key] for key in sorted(hub)}
    for name, series in files.items():
        with (out_dir / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        expected = {"time": report.times, **series}
        assert header == list(expected), name
        got = dict(zip(header, map(list, zip(*rows))))
        assert got == {key: list(map(str, values)) for key, values in expected.items()}, name


def test_corpus_scenarios_close_repeat_round_trip_and_keep_their_digests(tmp_path):
    pinned = golden()
    assert sorted(pinned) == list(range(CORPUS_SIZE))
    moved = []
    for index in range(CORPUS_SIZE):
        data = corpus_scenario(index)
        scenario = scenario_from_dict(data)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario, index

        report = run(scenario)
        t = report.totals
        assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"], index
        assert t["consumed_bits_total"] == sum(t["consumed_bits"].values()), index
        for link in report.links.values():
            pool = link["pool"]
            assert pool["generated_bits"] == pool["available_bits"] + pool["consumed_bits"], index
        check_rotation_counts(scenario, report)

        # A new directory each time: overwriting files is slow on some file systems.
        check_csv_matches_report(report, tmp_path / "csv" / str(index))

        # The CLI's run of the scenario file is the second run: the same
        # bytes as this run's report.json mean the run repeats.
        emitted = simulate_bytes(data, tmp_path / "cli" / str(index))
        assert emitted == report_bytes(report, tmp_path), index
        if hashlib.sha256(emitted).hexdigest() != pinned[index]:
            moved.append(index)
    assert moved == []


def test_library_rotation_rule_gives_the_engine_epochs():
    """At each tick the engine runs the rotations `due_rotations` owes.

    A tick where the branch was short of key for one runs fewer. The
    library state rotates as often as the engine did, so its epoch log,
    times and ids, is the engine's.
    """
    for index in range(CORPUS_SIZE):
        scenario = scenario_from_dict(corpus_scenario(index))
        report = run(scenario)
        starved = {(u["entity"], u["time"]) for u in report.unmet_demand if u["kind"] == "rotation"}
        for b in scenario.branches:
            if b.rotation_frequency_hz == 0:
                continue
            master = KeyMaterial(f"{b.id}/master", bytes(1), 8, Provenance.MASTER)
            state = HybridCipherState(master, None, b.rotation_frequency_hz)
            epochs = report.rotations[b.id]["epochs"]
            ran = Counter(time for time, _ in epochs)
            for k in range(1, scenario.tick_count + 1):
                now = k * scenario.tick_seconds
                due = due_rotations(state, now)
                where = (index, b.id, k, ran[now], due)
                assert ran[now] < due if (b.id, now) in starved else ran[now] == due, where
                for _ in range(ran[now]):
                    rotate_master(state, KeyMaterial("k_q", bytes(1), 8, Provenance.QUANTUM), now)
            assert list(map(list, state.epoch_log)) == epochs, index


def amounts(report) -> dict:
    """The whole report but what a seed may move: the seed and the key fingerprints."""
    doc = report.to_dict()
    del doc["seed"]
    for row in doc["relay_ledger"]:
        del row["key_fingerprint"]
    return doc


def fingerprints(report) -> list[str]:
    return [row["key_fingerprint"] for row in report.relay_ledger]


def test_seed_moves_key_bits_never_amounts():
    base = ingest_scenario(SCENARIOS / "star10.json")
    reports = [run(with_overrides(base, seed=seed)) for seed in (0, 7, 12345)]
    assert amounts(reports[0]) == amounts(reports[1]) == amounts(reports[2])
    assert len({tuple(fingerprints(report)) for report in reports}) == 3
    # Every relayed key comes from the root seed's relay stream, so a new
    # seed moves the fingerprints of every ledger that has rows.
    moved = 0
    for index in range(CORPUS_SIZE):
        scenario = scenario_from_dict(corpus_scenario(index))
        seeds = (scenario.seed, scenario.seed + 1)
        a, b = (run(with_overrides(scenario, seed=seed)) for seed in seeds)
        assert amounts(a) == amounts(b), index
        assert (fingerprints(a) != fingerprints(b)) == (len(a.relay_ledger) > 0), index
        moved += len(a.relay_ledger) > 0
    assert moved > 0


def test_unthrottled_generation_matches_secret_rate_closed_form():
    dt = 0.7
    ticks = 400
    s = scenario_from_dict(
        {
            "tick_seconds": dt,
            "duration_seconds": ticks * dt,
            "branches": [{"id": "near", "distance_km": 12.0}, {"id": "far", "distance_km": 85.0}],
        }
    )
    assert s.tick_count == ticks
    r = run(s)
    for link in r.links.values():
        expected = math.floor(ticks * Fraction(link["secret_rate_bps"]) * Fraction(dt))
        assert link["pool"]["generated_bits"] == expected


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate or check the corpus digests.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any moved")
    check = parser.parse_args().check
    before = golden() if GOLDEN_PATH.exists() else {}
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(CORPUS_SIZE):
            scenario = scenario_from_dict(corpus_scenario(i))
            pinned[str(i)] = hashlib.sha256(report_bytes(run(scenario), Path(tmp))).hexdigest()
    moved = [i for i in range(CORPUS_SIZE) if before.get(i) != pinned[str(i)]]
    if not check:
        GOLDEN_PATH.write_text(json.dumps({"report_sha256": pinned}, indent=1) + "\n")
        print(f"wrote {len(pinned)} digests to {GOLDEN_PATH}", file=sys.stderr)
    print(f"{len(moved)} moved: {', '.join(map(str, moved)) or 'none'}", file=sys.stderr)
    sys.exit(1 if check and moved else 0)
