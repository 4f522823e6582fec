"""Simulation reports and their JSON/CSV emission.

Reports are plain data and serialize deterministically: same scenario,
same seed, byte-identical output. JSON is one document, streamed to the
file; CSV emission writes one file per time-series group plus a meta
file carrying the seed and format version.

This module owns the report.json bytes, which are exactly those of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a final newline: one
item per line at a two-space indent, a comma ending every item line but
the last, keys sorted and followed by ``": "``, ``[]`` and ``{}`` for
empty lists and objects, strings and keys ASCII-escaped, and ``NaN``,
``Infinity`` and ``-Infinity`` for the non-finite floats. ``iterencode``
writes them in few, large strings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterator

from .errors import IoError

FORMAT_VERSION = 1

# float.__repr__ of the non-finite floats, and their JSON names.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Exact types whose JSON text is one call; other scalars go through _scalar.
_EXACT = {str: _quote, int: int.__repr__}


def iterencode(obj: Any) -> Iterator[str]:
    """Yield obj as a report.json document, the final newline included.

    The chunks join to ``json.dumps(obj, sort_keys=True, indent=2) +
    "\\n"``, and an object json cannot encode raises the same
    ``TypeError``. A dict of scalars is one chunk, and so is a list of
    only ints or only finite floats, where json yields a few per item.
    """
    text = _flat(obj, "\n")
    if text is None:
        yield from _chunks(obj, "\n")
    else:
        yield text
    yield "\n"


def _chunks(obj: Any, indent: str) -> Iterator[str]:
    """Yield the JSON text of a list, tuple or dict that _flat does not
    take, an item at a time; indent is a newline and obj's indentation.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [(_key(key), value) for key, value in sorted(obj.items())]
    else:
        brackets = "[]"
        items = zip(repeat(""), obj)
    lead = brackets[0] + inner
    for prefix, value in items:
        text = _flat(value, inner)
        if text is None:
            yield lead + prefix
            yield from _chunks(value, inner)
        else:
            yield lead + prefix + text
        lead = "," + inner
    yield indent + brackets[1]


def _flat(obj: Any, indent: str) -> str | None:
    """The JSON text of a scalar, an empty list or dict, a dict of scalars,
    or a list of only ints or only finite floats; None for anything else.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        try:
            pairs = [
                _quote(key) + ": " + _EXACT.get(value.__class__, _scalar)(value)
                for key, value in sorted(obj.items())
            ]
        except TypeError:
            # A list or dict value, a key that is not a string, or an
            # object json cannot encode: _chunks takes the items one by
            # one and encodes or rejects each as json does.
            return None
        return "{" + inner + ("," + inner).join(pairs) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, obj))
        if len(kinds) == 1 and (kind := kinds.pop()) in (int, float):
            text = ("," + inner).join(map(kind.__repr__, obj))
            # A finite float's repr has no "n"; nan and inf do.
            if "n" not in text:
                return "[" + inner + text + indent + "]"
        return None
    return _scalar(obj)


def _scalar(obj: Any) -> str:
    """The JSON text of a string, number, bool or None, as json writes it.

    int and float subclasses such as IntEnum print as their base type, as
    json prints them. Anything else, a list or dict included, raises
    TypeError.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _key(key: Any) -> str:
    """A key and its ": " separator; json's rules for non-string keys."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _scalar(key)
    return _quote(key) + ": "


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
        """The report.json text: the chunks ``emit_report`` writes, joined.

        Byte for byte ``json.dumps(self.to_dict(), sort_keys=True,
        indent=2) + "\\n"``; see the module docstring for the format.
        """
        return "".join(iterencode(self.to_dict()))


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
            with path.open("w", encoding="utf-8") as fh:
                fh.writelines(iterencode(report.to_dict()))
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
