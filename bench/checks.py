"""Independent correctness checks on what one benchmark pass emitted.

Every expected value here is computed from the workload's scenario and
the model's own formulas and invariants, never from stored output. The
checks read the emitted files back from disk; the in-memory report is
used only for totals that the CSV format does not carry.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

from workloads import Workload

CATEGORIES = ("auth", "otp_traffic", "relay", "rotation", "refresh")
CSV_FILES = ("meta.csv", "pool_available.csv", "deposited_bits.csv", "hub.csv")

# Defaults the scenario format documents for fields a workload omits.
LINK_DEFAULTS = {
    "distance_km": 10.0,
    "attenuation_db_per_km": 0.2,
    "source_rate_hz": 1e6,
    "detector_efficiency": 0.2,
    "sifting_factor": 0.5,
    "qber": 0.02,
    "cpu_cost_per_raw_bit": 1.0,
}


class CheckError(Exception):
    """An emitted report contradicts what the model must produce."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def link_field(branch: dict[str, Any], key: str) -> float:
    return float(branch.get(key, LINK_DEFAULTS[key]))


def bb84_raw_rate(branch: dict[str, Any]) -> float:
    """Sifted detections per second through a fiber of the branch's length."""
    transmittance = 10.0 ** (
        -link_field(branch, "attenuation_db_per_km") * link_field(branch, "distance_km") / 10.0
    )
    return (
        link_field(branch, "source_rate_hz")
        * link_field(branch, "sifting_factor")
        * link_field(branch, "detector_efficiency")
        * transmittance
    )


def bb84_secret_rate(branch: dict[str, Any]) -> float:
    """Asymptotic BB84 key rate: raw rate x max(0, 1 - 2 h(qber))."""
    q = link_field(branch, "qber")
    h = 0.0 if q in (0.0, 1.0) else -q * math.log2(q) - (1 - q) * math.log2(1 - q)
    return bb84_raw_rate(branch) * max(0.0, 1.0 - 2.0 * h)


def periods(duration: float, interval: float) -> int:
    return int(Fraction(duration) // Fraction(interval))


def check_totals(totals: dict[str, Any]) -> None:
    generated = totals["generated_bits"]
    available = totals["pool_available_bits"]
    consumed = totals["consumed_bits_total"]
    by_category = totals["consumed_bits"]
    expect(
        generated == available + consumed,
        f"ledger: generated {generated} != available {available} + consumed {consumed}",
    )
    expect(
        sorted(by_category) == sorted(CATEGORIES),
        f"consumption categories are {sorted(by_category)}",
    )
    expect(
        consumed == sum(by_category.values()),
        f"consumed {consumed} != sum of categories {by_category}",
    )


def check_json_report(workload: Workload, doc: dict[str, Any]) -> None:
    """Checks for a report.json re-read from disk."""
    spec = workload.spec
    duration = spec["duration_seconds"]
    ticks = workload.ticks
    check_totals(doc["totals"])
    expect(len(doc["times"]) == ticks, f"{len(doc['times'])} series rows for {ticks} ticks")

    links = doc["links"]
    expect(
        sorted(links) == sorted(b["id"] for b in spec["branches"]),
        "report links differ from scenario branches",
    )
    for total_key, pool_key in (
        ("generated_bits", "generated_bits"),
        ("pool_available_bits", "available_bits"),
        ("consumed_bits_total", "consumed_bits"),
    ):
        per_link = sum(link["pool"][pool_key] for link in links.values())
        expect(per_link == doc["totals"][total_key], f"per-link {pool_key} sum != {total_key}")

    served_by_flow = {
        entry["flow"]: entry for link in links.values() for entry in link.get("flows_out", [])
    }
    otp_served = 0
    relay_delivered = 0
    for demand in spec.get("traffic", []):
        pair = f"{demand['src']}->{demand['dst']}"
        rate = demand.get("otp_bits_per_sec", 0.0)
        if rate > 0:
            asked = 8 * int(Fraction(rate) * Fraction(duration) / 8)
            flow = served_by_flow.get(pair)
            expect(flow is not None, f"flow {pair} missing from report")
            total = flow["served_bits"] + flow["unmet_bits"]
            expect(total == asked, f"flow {pair}: served + unmet = {total}, demand {asked}")
            if workload.always_active:
                expect(flow["served_bits"] == asked, f"flow {pair}: unmet {flow['unmet_bits']}")
            otp_served += flow["served_bits"]
        if demand.get("relay_bits", 0) > 0:
            due = demand["relay_bits"] * periods(duration, demand["relay_interval_seconds"])
            got = sum(
                r["bits"]
                for r in doc["relay_ledger"]
                if r["purpose"] == "relay_request"
                and (r["branch_i"], r["branch_j"]) == (demand["src"], demand["dst"])
            )
            expect(got == due, f"relay {pair}: delivered {got} bits, due {due}")
            relay_delivered += got
    expect(doc["totals"]["otp_message_bits"] == otp_served, "otp_message_bits != flow sum")
    expect(
        doc["totals"]["relay_delivered_bits"] == relay_delivered,
        "relay_delivered_bits != relay spec sum",
    )

    if workload.always_active:
        check_unthrottled_generation(workload, doc)
    if workload.name == "star10":
        check_rotation_and_sharing(workload, doc)


def check_unthrottled_generation(workload: Workload, doc: dict[str, Any]) -> None:
    """Links that are always scheduled and never throttled bank ticks x rate bits."""
    spec = workload.spec
    hub_series = doc["hub"]["series"]
    expect(not any(hub_series["backlog_cost"]), "hub backlog on an unthrottled workload")
    for branch in spec["branches"]:
        link = doc["links"][branch["id"]]
        expect(all(link["series"]["active"]), f"link {branch['id']} was not always active")
        expect(link["halted_ticks"] == 0, f"link {branch['id']} halted")
        expected = bb84_secret_rate(branch) * spec["duration_seconds"]
        generated = link["pool"]["generated_bits"]
        expect(
            abs(generated - expected) <= 1.0,
            f"link {branch['id']}: generated {generated} bits, BB84 gives {expected:.3f}",
        )


def check_rotation_and_sharing(workload: Workload, doc: dict[str, Any]) -> None:
    spec = workload.spec
    duration = spec["duration_seconds"]
    for branch in spec["branches"]:
        due = int(Fraction(duration) * Fraction(branch.get("rotation_frequency_hz", 0.0)))
        got = doc["rotations"][branch["id"]]
        expect(got["count"] == due, f"rotations {branch['id']}: {got['count']}, due {due}")
        expect(len(got["epochs"]) == due, f"rotation epochs {branch['id']} != {due}")
    for inst in spec.get("sharing", []):
        got = doc["sharing"][inst["id"]]
        due = periods(duration, inst["refresh_period_seconds"])
        rounds = got["rounds_completed"] + got["deferrals"]
        expect(rounds == due, f"sharing {inst['id']}: {rounds} refresh slots, due {due}")
        expect(got["reconstruct_ok"] is True, f"sharing {inst['id']}: reconstruction failed")


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_csv_report(workload: Workload, out_dir: Path, totals: dict[str, Any]) -> None:
    """Checks for the CSV file set re-read from disk (wide-hub)."""
    spec = workload.spec
    ticks = workload.ticks
    ids = [b["id"] for b in spec["branches"]]
    dt = spec.get("tick_seconds", 1.0)

    meta = read_csv(out_dir / "meta.csv")
    expect(len(meta) == 2, f"meta.csv has {len(meta)} rows")
    row = dict(zip(meta[0], meta[1]))
    expect(float(row["duration_seconds"]) == spec["duration_seconds"], "meta duration")
    expect(int(row["seed"]) == spec["seed"], "meta seed")

    columns: dict[str, dict[str, list[int]]] = {}
    for name in ("pool_available", "deposited_bits"):
        rows = read_csv(out_dir / f"{name}.csv")
        expect(len(rows) == ticks + 1, f"{name}.csv has {len(rows)} rows, want {ticks + 1}")
        expect(rows[0] == ["time"] + ids, f"{name}.csv header differs from branch ids")
        for k, r in enumerate(rows[1:], start=1):
            expect(len(r) == len(ids) + 1, f"{name}.csv row {k} has {len(r)} columns")
            expect(float(r[0]) == k * dt, f"{name}.csv row {k} time {r[0]}")
        columns[name] = {bid: [int(r[j + 1]) for r in rows[1:]] for j, bid in enumerate(ids)}

    for bid in ids:
        deposited = sum(columns["deposited_bits"][bid])
        last = columns["pool_available"][bid][-1]
        expect(last == deposited, f"link {bid}: last pool {last} != deposited sum {deposited}")

    hub_rows = read_csv(out_dir / "hub.csv")
    expect(len(hub_rows) == ticks + 1, f"hub.csv has {len(hub_rows)} rows, want {ticks + 1}")
    hub = [dict(zip(hub_rows[0], r)) for r in hub_rows[1:]]
    channels = spec["hub"]["channel_count"]
    for k, r in enumerate(hub, start=1):
        active = int(r["active_link_count"])
        expect(active == channels, f"tick {k}: {active} active links, {channels} channels")

    # Any channel_count links demand more CPU than the hub has, so every
    # tick processes exactly its capacity and leaves a backlog.
    capacity = spec["hub"]["cpu_capacity_per_sec"] * dt
    cpu = sorted(
        bb84_raw_rate(b) * link_field(b, "cpu_cost_per_raw_bit") * dt for b in spec["branches"]
    )
    expect(sum(cpu[:channels]) > capacity, "workload does not overload the hub CPU")
    for k, r in enumerate(hub, start=1):
        processed = float(r["processed_cost"])
        expect(processed == capacity, f"tick {k}: processed {processed}, capacity {capacity}")
        expect(float(r["backlog_cost"]) > 0, f"tick {k}: hub backlog drained")

    check_totals(totals)
    expect(totals["consumed_bits_total"] == 0, "a pool was drawn on a workload with no demand")
    banked = sum(columns["pool_available"][bid][-1] for bid in ids)
    expect(totals["generated_bits"] == banked, f"generated {totals['generated_bits']} != {banked}")


def check_pass(
    workload: Workload, out_dir: Path, files: list[Path], totals: dict[str, Any]
) -> None:
    """Run every check that applies to the workload's emitted files."""
    names = sorted(p.name for p in files)
    if workload.fmt == "json":
        expect(names == ["report.json"], f"emitted {names}")
        doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        check_json_report(workload, doc)
    else:
        expect(names == sorted(CSV_FILES), f"emitted {names}")
        check_csv_report(workload, out_dir, totals)
