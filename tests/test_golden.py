"""Golden bytes: shipped scenarios, and one generated 100-branch star
whose hub CPU is overloaded, must emit exactly these reports.

Each case runs ingest_scenario -> run -> emit_report and pins the
sha256 of every file written. A refactor must keep these digests; a
change that alters them on purpose updates them here and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from starqkd.engine import run
from starqkd.report import emit_report
from starqkd.scenario import ingest_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

THROTTLED_100_REPORT_SHA256 = "630f29e459cf4b6a0383fcbbf6d6f8e774a1eebd71f46eb287775104f2276287"

FAR_LINK_REPORT_SHA256 = {
    1.0: "8b950447b18cf969b46a1b2d40bab9a4faaad6a303fd2074cace049c5e044d79",
    0.1: "139283ed72b4ab9bd7db704e1b124d14655514b3e5bde9561c957cd88c29d5bf",
}

GOLDEN = {
    ("star10.json", "json"): {
        "report.json": "a7225bf716fb7935dcb5203afcb44ec3be81abe2ed42b0505b128f69dd23e0ef",
    },
    ("minimal.json", "json"): {
        "report.json": "65a2bd7fe4d68fe8bea70d6d7f3c1df78712690b06c23f52e215750ded04aca3",
    },
    ("star10.json", "csv"): {
        "deposited_bits.csv": "fb086f3ad52e1f44b7f5ce1b438db4f744b5e58bdd5317ab9a82336936793a37",
        "hub.csv": "70026a9eafc87d968ee34770c8d9b146bfae412783a58ec30ff450695ac8f0ad",
        "meta.csv": "64de61d07d465214f40e0b11d2f7ca0d35cb6a69119dbb4f120e125a52edd58a",
        "pool_available.csv": "370489f8132f0ff35e91492493faa8385dabddc40aec5419ffff6b07d4b4ec78",
    },
}


@pytest.mark.parametrize(("scenario", "fmt"), sorted(GOLDEN))
def test_report_bytes_match_golden_digests(tmp_path, scenario, fmt):
    report = run(ingest_scenario(SCENARIOS / scenario))
    written = emit_report(report, fmt, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == GOLDEN[(scenario, fmt)]


def throttled_star() -> dict:
    """A 100-branch star whose hub CPU cannot keep up with 10 channels."""
    return {
        "seed": 11,
        "duration_seconds": 60.0,
        "hub": {"channel_count": 10, "cpu_capacity_per_sec": 200000.0},
        "branches": [{"id": f"b{i:03d}", "distance_km": 2.0 + (i * 7) % 45} for i in range(100)],
    }


def test_throttled_100_branch_report_digest(tmp_path):
    path = tmp_path / "throttled.json"
    path.write_text(json.dumps(throttled_star()))
    report = run(ingest_scenario(path))
    assert report.hub["backlog_cost_final"] > 0
    (written,) = emit_report(report, "json", tmp_path / "out")
    assert hashlib.sha256(written.read_bytes()).hexdigest() == THROTTLED_100_REPORT_SHA256


def far_link_star(tick: float) -> dict:
    """A throttled 4-branch star with a 2000 km link, run for 300 ticks of tick seconds.

    The far link's rounds are finer than 2**-128 bits and cost units
    (2**-168 at 1 s ticks, 2**-223 at 0.1 s), so the hub's sums take
    the exact Fraction form.
    """
    return {
        "seed": 5,
        "tick_seconds": tick,
        "duration_seconds": 300 * tick,
        "hub": {"channel_count": 3, "cpu_capacity_per_sec": 2.0e4},
        "branches": [
            {"id": "a", "distance_km": 12.5},
            {"id": "b", "distance_km": 31.0},
            {"id": "c", "distance_km": 7.25},
            {"id": "far", "distance_km": 2000.0},
        ],
        "traffic": [
            {"src": "a", "dst": "b", "otp_bits_per_sec": 120.0},
            {"src": "c", "dst": "far", "otp_bits_per_sec": 8.0},
        ],
    }


@pytest.mark.parametrize("tick", sorted(FAR_LINK_REPORT_SHA256))
def test_far_link_report_digest(tmp_path, tick):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far_link_star(tick)))
    report = run(ingest_scenario(path))
    assert report.hub["backlog_cost_final"] > 0
    (written,) = emit_report(report, "json", tmp_path / "out")
    assert hashlib.sha256(written.read_bytes()).hexdigest() == FAR_LINK_REPORT_SHA256[tick]
