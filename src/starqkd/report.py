"""Simulation reports and their JSON/CSV emission.

Reports are plain data and serialize deterministically: same scenario,
same seed, byte-identical output. JSON is one document, streamed to the
file; CSV emission writes one file per time-series group plus a meta
file carrying the seed and format version.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
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
        """Every field but event_trace, by reference, after the format version."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "event_trace"}
        return {"format_version": FORMAT_VERSION, **out}

    def to_json(self) -> str:
        return _JSON.encode(self.to_dict()) + "\n"


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

        # Each file as (name, header, rows): meta.csv has one row, and the
        # series files one row per tick and one column per series.
        links = report.links
        pools, deposits = (
            [link["series"][name] for link in links.values()]
            for name in ("pool_available", "deposited_bits")
        )
        hub = report.hub.get("series", {})
        hub_names = sorted(hub)
        meta = (FORMAT_VERSION, report.seed, report.duration_seconds, report.tick_seconds)
        tables = (
            ("meta.csv", ["format_version", "seed", "duration_seconds", "tick_seconds"], [meta]),
            ("pool_available.csv", ["time", *links], zip(report.times, *pools)),
            ("deposited_bits.csv", ["time", *links], zip(report.times, *deposits)),
            ("hub.csv", ["time", *hub_names], zip(report.times, *map(hub.get, hub_names))),
        )
        for filename, header, rows in tables:
            path = out / filename
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                # One writerow per row, not writerows: a wrapped writer
                # that counts rows then sees each one.
                for row in rows:
                    writer.writerow(row)
            written.append(path)
        return written
    except OSError as exc:
        raise IoError(f"cannot write report files under {out}: {exc}") from exc
