"""Simulation reports and their JSON/CSV emission.

Reports are plain data and serialize deterministically: same scenario,
same seed, byte-identical output. JSON is one document, streamed to the
file; CSV emission writes one file per time-series group plus a meta
file carrying the seed and format version.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any

from .errors import IoError

FORMAT_VERSION = 1

# The report.json encoding: sorted keys, two-space indent.
_JSON = json.JSONEncoder(sort_keys=True, indent=2)
# Encoder chunks joined per file write; most chunks are a few bytes.
_CHUNKS_PER_WRITE = 8192


@dataclass
class MetricsReport:
    """Everything a simulation run measured."""

    seed: int
    duration_seconds: float
    tick_seconds: float
    times: list[float] = field(default_factory=list)
    links: dict[str, dict[str, Any]] = field(default_factory=dict)
    hub: dict[str, Any] = field(default_factory=dict)
    relay_ledger: list[dict[str, Any]] = field(default_factory=list)
    refresh_ledger: list[dict[str, Any]] = field(default_factory=list)
    rotations: dict[str, dict[str, Any]] = field(default_factory=dict)
    unmet_demand: list[dict[str, Any]] = field(default_factory=list)
    assets: list[dict[str, Any]] = field(default_factory=list)
    sharing: dict[str, dict[str, Any]] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    mosca_at_risk: bool | None = None
    # Execution trace for tests; not part of the serialized report.
    event_trace: list[tuple[float, int, str, str]] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "seed": self.seed,
            "duration_seconds": self.duration_seconds,
            "tick_seconds": self.tick_seconds,
            "times": self.times,
            "links": self.links,
            "hub": self.hub,
            "relay_ledger": self.relay_ledger,
            "refresh_ledger": self.refresh_ledger,
            "rotations": self.rotations,
            "unmet_demand": self.unmet_demand,
            "assets": self.assets,
            "sharing": self.sharing,
            "totals": self.totals,
            "mosca_at_risk": self.mosca_at_risk,
        }

    def to_json(self) -> str:
        return _JSON.encode(self.to_dict()) + "\n"


def _series_columns(report: MetricsReport, series_name: str) -> list[tuple[str, list]]:
    return [
        (link_id, data["series"][series_name])
        for link_id, data in report.links.items()
    ]


def emit_report(report: MetricsReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report to out_dir; returns the files written.

    fmt "json" writes report.json. fmt "csv" writes meta.csv plus one
    file per series group (per-link pool levels, per-link deposits, hub
    load), each with a header row and one row per tick.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc

    written: list[Path] = []
    try:
        if fmt == "json":
            # Streamed to the file: the same bytes as to_json, without
            # holding the whole document in memory.
            path = out / "report.json"
            chunks = _JSON.iterencode(report.to_dict())
            with path.open("w", encoding="utf-8") as fh:
                while block := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
                    fh.write(block)
                fh.write("\n")
            written.append(path)
            return written

        meta = out / "meta.csv"
        with meta.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["format_version", "seed", "duration_seconds", "tick_seconds"])
            writer.writerow(
                [FORMAT_VERSION, report.seed, report.duration_seconds, report.tick_seconds]
            )
        written.append(meta)

        for series_name, filename in (
            ("pool_available", "pool_available.csv"),
            ("deposited_bits", "deposited_bits.csv"),
        ):
            cols = _series_columns(report, series_name)
            path = out / filename
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["time"] + [link_id for link_id, _ in cols])
                for i, t in enumerate(report.times):
                    writer.writerow([t] + [series[i] for _, series in cols])
            written.append(path)

        hub_series = report.hub.get("series", {})
        hub_names = sorted(hub_series)
        path = out / "hub.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time"] + hub_names)
            for i, t in enumerate(report.times):
                writer.writerow([t] + [hub_series[name][i] for name in hub_names])
        written.append(path)
        return written
    except OSError as exc:
        raise IoError(f"cannot write report files under {out}: {exc}") from exc
