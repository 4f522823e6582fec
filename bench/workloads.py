"""Seeded workload generators for the starqkd benchmark.

Each workload is a scenario JSON file (plus, for star10, the same
seed/duration overrides that `starqkd simulate --seed --duration`
applies) and the output format it is emitted in. The benchmark seed
only perturbs values that do not change how much work a run does
(scenario seed, sub-kilometre distance jitter), so runs with different
seeds cost the same and their figures can be compared.

Two rules keep every pass free of known engine faults:

- no two traffic entries share a `src->dst` pair, because the engine
  keys flows and relay lookups by that pair and would merge them;
- every period (tick, relay interval, refresh period) is a whole number
  of seconds, because the engine schedules events at float times and a
  non-integer ratio can run a relay before the link tick it should
  follow.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# star10 is the shipped scenario run five times longer than shipped.
STAR10_DURATION_SECONDS = 5000.0

RELAY_HEAVY_BRANCHES = 6
RELAY_HEAVY_DURATION_SECONDS = 1000.0
RELAY_HEAVY_OTP_BPS = 1600.0  # a multiple of 8: every tick asks whole bytes
RELAY_HEAVY_OTP_PAIRS = ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (5, 0))
# (src, dst, relay_bits, interval_seconds); pairs are disjoint from the OTP ones.
RELAY_HEAVY_RELAYS = ((0, 3, 16384, 4.0), (1, 4, 16384, 5.0), (2, 5, 16384, 8.0))

WIDE_HUB_BRANCHES = 500
WIDE_HUB_CHANNELS = 40
WIDE_HUB_DURATION_SECONDS = 400.0
WIDE_HUB_CPU_PER_SEC = 2.4e6
AUTH_BITS_PER_ROUND = 4 * 128  # default messages per round x default tag cost

WORKLOAD_NAMES = ("star10", "relay-heavy", "wide-hub")


@dataclass(frozen=True)
class Workload:
    """One generated benchmark input and what the checks need to know."""

    name: str
    scenario_path: Path
    fmt: str
    # Scenario as the program sees it after overrides; checks read it.
    spec: dict[str, Any]
    overrides: dict[str, Any] | None = None
    # Every link is active every tick, the hub never throttles and all
    # demand is met.
    always_active: bool = False

    @property
    def ticks(self) -> int:
        return round(self.spec["duration_seconds"] / self.spec.get("tick_seconds", 1.0))

    @property
    def branch_count(self) -> int:
        return len(self.spec["branches"])


def _write(path: Path, spec: dict[str, Any]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def star10(
    root: Path, seed: int, work_dir: Path, duration_seconds: float = STAR10_DURATION_SECONDS
) -> Workload:
    """The shipped star10 scenario, lengthened, under a seed-derived root seed."""
    del work_dir  # the program reads the shipped file itself
    path = root / "scenarios" / "star10.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    overrides = {
        "seed": random.Random(seed).getrandbits(63),
        "duration_seconds": duration_seconds,
    }
    spec.update(overrides)
    return Workload("star10", path, "json", spec, overrides=overrides)


def relay_heavy_spec(seed: int, duration_seconds: float = RELAY_HEAVY_DURATION_SECONDS) -> dict:
    rng = random.Random(seed)
    branches = [
        {
            "id": f"r{i}",
            "distance_km": round(5.0 + 4.0 * i + rng.uniform(0.0, 0.5), 3),
            "attenuation_db_per_km": 0.2,
            "source_rate_hz": 1.0e8,
            "detector_efficiency": 0.2,
            "sifting_factor": 0.5,
            "qber": 0.01 + 0.002 * i,
        }
        for i in range(RELAY_HEAVY_BRANCHES)
    ]
    traffic = [
        {"src": f"r{a}", "dst": f"r{b}", "otp_bits_per_sec": RELAY_HEAVY_OTP_BPS}
        for a, b in RELAY_HEAVY_OTP_PAIRS
    ] + [
        {"src": f"r{a}", "dst": f"r{b}", "relay_bits": bits, "relay_interval_seconds": every}
        for a, b, bits, every in RELAY_HEAVY_RELAYS
    ]
    return {
        "seed": rng.getrandbits(63),
        "duration_seconds": duration_seconds,
        "tick_seconds": 1.0,
        "branches": branches,
        "traffic": traffic,
    }


def relay_heavy(root: Path, seed: int, work_dir: Path, **size: Any) -> Workload:
    """Few high-rate links carrying heavy OTP traffic and periodic relays."""
    del root
    spec = relay_heavy_spec(seed, **size)
    path = _write(work_dir / "relay-heavy.json", spec)
    return Workload("relay-heavy", path, "json", spec, always_active=True)


def wide_hub_spec(
    seed: int,
    branches: int = WIDE_HUB_BRANCHES,
    channels: int = WIDE_HUB_CHANNELS,
    duration_seconds: float = WIDE_HUB_DURATION_SECONDS,
    cpu_per_sec: float = WIDE_HUB_CPU_PER_SEC,
) -> dict:
    rng = random.Random(seed)
    ticks = round(duration_seconds)
    return {
        "seed": rng.getrandbits(63),
        "duration_seconds": duration_seconds,
        "tick_seconds": 1.0,
        "hub": {"channel_count": channels, "cpu_capacity_per_sec": cpu_per_sec},
        "branches": [
            {
                "id": f"w{i:03d}",
                "distance_km": round(5.0 + 0.1 * (i % 50) + rng.uniform(0.0, 0.05), 3),
                # Enough pre-shared key for an active round every tick, so
                # authentication never draws on a pool.
                "auth_reserved_bits": AUTH_BITS_PER_ROUND * ticks,
            }
            for i in range(branches)
        ],
    }


def wide_hub(root: Path, seed: int, work_dir: Path, **size: Any) -> Workload:
    """Hundreds of links behind few channels and an overloaded hub CPU; no traffic."""
    del root
    spec = wide_hub_spec(seed, **size)
    path = _write(work_dir / "wide-hub.json", spec)
    return Workload("wide-hub", path, "csv", spec)


GENERATORS = {"star10": star10, "relay-heavy": relay_heavy, "wide-hub": wide_hub}


def make(name: str, root: Path, seed: int, work_dir: Path, **size: Any) -> Workload:
    """Generate the named workload's input under work_dir; size overrides shrink it."""
    return GENERATORS[name](root, seed, work_dir, **size)
