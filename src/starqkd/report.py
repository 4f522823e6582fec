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
writes them in one recursive pass, in few, large strings.

The relay ledger, one row per relayed key and the largest part of a
report, is always a ``RelayLedger``, held as columns: each row's time,
the code the ledger handed out for its (branch_i, branch_j, purpose)
route, its bits and the first 8 bytes of its key's sha256. Row i's
key_id is ``KEY_ID % (i + 1)``, not stored. The ledger reads as the
list of 7-key dicts the JSON report holds, and ``iterencode`` prints it
from one template per row without building them.

The engine holds each per-link series kind tick-major: one typed array
for the whole star, each tick's row every link's value in link order.
Bit counts take the narrowest int array that holds the run's production
bound (see ``engine``), and stay lists past 64 bits. A link's series is a
read-only ``SeriesView`` of its column that reads as the link's own
list; the times and the hub series are views of their own float and int
arrays. ``iterencode`` prints a view in one slice, the CSV writer reads
each tick's row as one slice of the column, and ``MetricsReport.to_dict``
returns plain lists.

Both formats share one number rule, decided as the values are read: a
JSON list, or a CSV data row, whose values are all exactly ints or
floats prints as the reprs of its values joined. A list or row read from
an int or float array, as an engine-built report's series and rows are,
holds only those and is not checked; any other is checked value by
value. A JSON list joins them at its indent, unless one is a NaN or an
infinity; a CSV row joins them by commas, ended by ``\r\n``, the bytes
``csv.writer`` writes for it, since it prints these types as repr and
never quotes them. Every other list goes item by item, and headers and
every other row go through ``csv.writer``.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

from .errors import IoError

FORMAT_VERSION = 1

# float.__repr__ of the non-finite floats, and their JSON names.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The n-th relay's key id, KEY_ID % n, so row i's is KEY_ID % (i + 1),
# and how many bytes of its key's sha256 a ledger row keeps.
KEY_ID = "relay-%06d"
FINGERPRINT_BYTES = 8
# The keys of a ledger row, sorted, and how many rows one emitted chunk holds.
_LEDGER_KEYS = ("bits", "branch_i", "branch_j", "key_fingerprint", "key_id", "purpose", "time")
_LEDGER_ROWS_PER_CHUNK = 256
# How many items of an int or float array one emitted chunk holds.
_ARRAY_ITEMS_PER_CHUNK = 4096


class RelayLedger(Sequence):
    """The relay ledger as columns, one row per relayed key, in relay order.

    Row i is relay number i + 1. Its route, coded by ``route``, is the
    (branch_i, branch_j, purpose) triple ``routes[codes[i]]``; its time is
    ``time[i]``, its key length ``bits[i]``, and the 8 bytes at ``8 * i``
    in ``fingerprints`` start the key's sha256, which print as the 16 hex
    characters of ``hexdigest()[:16]``. key_id is ``KEY_ID % (i + 1)``.
    Indexing, slicing, iteration, ``len`` and ``==`` read rows as the
    7-key dicts of the JSON report.
    """

    def __init__(self) -> None:
        self.routes: list[tuple[str, str, str]] = []
        self.time = array("d")
        self.codes = array("I")
        self.bits: list[int] | array = []  # an engine run's holds its pools' type
        self.fingerprints = bytearray()

    def route(self, branch_i: str, branch_j: str, purpose: str) -> int:
        """A new route's code, for the rows appended under it."""
        self.routes.append((branch_i, branch_j, purpose))
        return len(self.routes) - 1

    def append(self, time: float, route: int, bits: int, digest: bytes) -> None:
        """Add a row: its time, route code, key length and the key's sha256 digest."""
        self.time.append(time)
        self.codes.append(route)
        self.bits.append(bits)
        self.fingerprints += digest[:FINGERPRINT_BYTES]

    def _columns(self, start: int, stop: int, names: Sequence[tuple[str, str, str]]) -> list:
        """Rows start to stop - 1 as columns in key order: bits, branch_i,
        branch_j, fingerprint, row number, purpose and time, with each
        route's names taken from names.
        """
        stop = min(stop, len(self))
        codes = self.codes[start:stop]
        branch_i, branch_j, purpose = ([route[k] for route in names] for k in range(3))
        hexes = self.fingerprints[FINGERPRINT_BYTES * start : FINGERPRINT_BYTES * stop].hex()
        width = 2 * FINGERPRINT_BYTES
        return [
            self.bits[start:stop],
            map(branch_i.__getitem__, codes),
            map(branch_j.__getitem__, codes),
            [hexes[at : at + width] for at in range(0, len(hexes), width)],
            range(start + 1, stop + 1),
            map(purpose.__getitem__, codes),
            self.time[start:stop],
        ]

    def _rows(self, start: int, stop: int) -> Iterator[dict[str, Any]]:
        columns = self._columns(start, stop, self.routes)
        columns[4] = map(KEY_ID.__mod__, columns[4])
        return (dict(zip(_LEDGER_KEYS, row)) for row in zip(*columns))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int | slice) -> Any:
        rows = range(len(self))[index]  # list index rules, IndexError included
        if isinstance(rows, range):
            return [next(self._rows(i, i + 1)) for i in rows]
        return next(self._rows(rows, rows + 1))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self._rows(0, len(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RelayLedger, list)):
            return list(self) == list(other)
        return NotImplemented


class SeriesView(Sequence):
    """One link's per-tick series, read from a tick-major column of every link's.

    Item k is ``column[start + k * step]``: tick k + 1's value of the
    link at index start among step links. The view is read-only, and
    indexing, slicing, iteration, ``len`` and ``==`` read it as the list
    ``column[start::step]``.
    """

    def __init__(self, column: list | array, start: int, step: int) -> None:
        self.column = column
        self.start = start
        self.step = step

    def _range(self) -> range:
        return range(self.start, len(self.column), self.step)

    def __len__(self) -> int:
        return len(self._range())

    def __getitem__(self, index: int | slice) -> Any:
        at = self._range()[index]  # list index rules, IndexError included
        if isinstance(at, range):
            return [self.column[i] for i in at]
        return self.column[at]

    def __iter__(self) -> Iterator[Any]:
        """Iterate the column in place: a whole column itself, a strided view by islice."""
        if self.start == 0 and self.step == 1:
            return iter(self.column)
        return islice(self.column, self.start, None, self.step)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SeriesView, list)):
            return list(self) == list(other)
        return NotImplemented


def iterencode(obj: Any) -> Iterator[str]:
    """Yield obj as a report.json document, the final newline included.

    The chunks join to ``json.dumps(obj, sort_keys=True, indent=2) +
    "\\n"``, and an object json cannot encode raises the same
    ``TypeError``. A list of only exact ints and finite floats is one
    chunk, where json yields a few per item, and a relay ledger is one
    chunk per few hundred rows. A series view prints as its list, one
    chunk per few thousand items when its column is an int or float array.
    """
    yield from _chunks(obj, "\n")
    yield "\n"


def _chunks(obj: Any, indent: str) -> Iterator[str]:
    """Yield the JSON text of obj; indent is a newline and obj's indentation.
    A list or tuple of only exact ints and finite floats is one join of
    their reprs, a relay ledger a join of rows at a time, and any other list
    or dict item by item. A series view is read as a list, in one slice of
    its column; a slice of an int or float array is joined a few thousand
    items at a time, with no type check.
    """
    if isinstance(obj, SeriesView):
        obj = obj.column[obj.start :: obj.step]
        if isinstance(obj, array):
            yield from _array_chunks(obj, indent)
            return
    if isinstance(obj, dict):
        brackets = "{}"
    elif isinstance(obj, (list, tuple, RelayLedger)):
        brackets = "[]"
    else:
        yield _scalar(obj)
        return
    if not obj:
        yield brackets
        return
    if isinstance(obj, RelayLedger):
        yield from _ledger_chunks(obj, indent)
        return
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [(_key(key), value) for key, value in sorted(obj.items())]
    else:
        if _only_numbers(obj):
            text = ("," + inner).join(map(repr, obj))
            # A finite float's repr has no "n"; nan and inf do.
            if "n" not in text:
                yield "[" + inner + text + indent + "]"
                return
        items = zip(repeat(""), obj)
    lead = brackets[0] + inner
    for prefix, value in items:
        yield lead + prefix
        yield from _chunks(value, inner)
        lead = "," + inner
    yield indent + brackets[1]


def _array_chunks(values: array, indent: str) -> Iterator[str]:
    """Yield the JSON text of an int or float array, a join of
    _ARRAY_ITEMS_PER_CHUNK items at a time, so that a long series never
    becomes one string; indent is as for _chunks.
    """
    if not values:
        yield "[]"
        return
    lead, sep = "[" + indent + "  ", "," + indent + "  "
    for start in range(0, len(values), _ARRAY_ITEMS_PER_CHUNK):
        part = values[start : start + _ARRAY_ITEMS_PER_CHUNK]
        text = sep.join(map(repr, part))
        if "n" in text:  # a NaN or an infinity, which JSON names differently
            text = sep.join(map(_scalar, part))
        yield lead + text
        lead = sep
    yield indent + "]"


def _ledger_chunks(ledger: RelayLedger, indent: str) -> Iterator[str]:
    """Yield the JSON text of a non-empty relay ledger, a join of rows at a
    time, each row from one template; indent is as for _chunks.
    """
    inner = indent + "  "
    key = inner + "  "
    # Each key's value, in _LEDGER_KEYS order; names come quoted.
    values = ("%d", "%s", "%s", '"%s"', '"' + KEY_ID + '"', "%s", "%s")
    pairs = (f'"{name}": {value}' for name, value in zip(_LEDGER_KEYS, values))
    template = "{" + key + ("," + key).join(pairs) + inner + "}"
    quoted = [tuple(map(_quote, names)) for names in ledger.routes]
    lead, sep = "[" + inner, "," + inner
    for start in range(0, len(ledger), _LEDGER_ROWS_PER_CHUNK):
        columns = ledger._columns(start, start + _LEDGER_ROWS_PER_CHUNK, quoted)
        times = list(map(float.__repr__, columns[6]))
        columns[6] = map(_NON_FINITE.get, times, times)
        yield lead + sep.join(map(template.__mod__, zip(*columns)))
        lead = sep
    yield indent + "]"


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


# The types whose repr is what json and csv.writer print for them.
_NUMBERS = frozenset((int, float))


def _only_numbers(values: Any) -> bool:
    """Whether every value is exactly an int or a float, not a subclass."""
    return _NUMBERS.issuperset(map(type, values))


def _typed(*series: Any) -> bool:
    """Whether each is a view of an int or float array, as the engine's series are."""
    return all(isinstance(view, SeriesView) and isinstance(view.column, array) for view in series)


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
    times: Sequence[float] = field(default_factory=list)
    links: dict[str, dict[str, Any]] = field(default_factory=dict)
    hub: dict[str, Any] = field(default_factory=dict)
    relay_ledger: RelayLedger = field(default_factory=RelayLedger)
    refresh_ledger: list[dict[str, Any]] = field(default_factory=list)
    rotations: dict[str, dict[str, Any]] = field(default_factory=dict)
    unmet_demand: list[dict[str, Any]] = field(default_factory=list)
    assets: list[dict[str, Any]] = field(default_factory=list)
    sharing: dict[str, dict[str, Any]] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    mosca_at_risk: bool | None = None
    # Execution trace for tests; not part of the serialized report.
    event_trace: list[tuple[float, int, str, str]] | None = None

    def _document(self) -> dict[str, Any]:
        """Every field but event_trace, by reference, after the format version."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "event_trace"}
        return {"format_version": FORMAT_VERSION, **out}

    def to_dict(self) -> dict[str, Any]:
        """The report as plain JSON data: every field but event_trace, by
        reference, after the format version, except the relay ledger, the
        times and each link's and the hub's series, which are built here as
        new lists.
        """
        doc = self._document()
        doc["relay_ledger"] = list(self.relay_ledger)
        doc["times"] = list(self.times)
        links = doc["links"] = {name: dict(link) for name, link in self.links.items()}
        hub = doc["hub"] = dict(self.hub)
        for entry in (*links.values(), hub):
            if "series" in entry:
                entry["series"] = {kind: list(values) for kind, values in entry["series"].items()}
        return doc

    def to_json(self) -> str:
        """The report.json text: the chunks ``emit_report`` writes, joined.

        Byte for byte ``json.dumps(self.to_dict(), sort_keys=True,
        indent=2) + "\\n"``; see the module docstring for the format.
        """
        return "".join(iterencode(self._document()))


def _series_rows(times: list[float], columns: list) -> Iterator[Sequence]:
    """Each tick's CSV row, made as it is written: its time, then each
    column's value.

    Rows are those of ``zip(times, *columns)``. When the columns are the
    views of one tick-major column in link order, as in every report the
    engine builds, each row's values are one contiguous slice of it.
    """
    n = len(columns)
    if not n or not all(
        isinstance(view, SeriesView)
        and view.column is columns[0].column
        and (view.start, view.step) == (i, n)
        for i, view in enumerate(columns)
    ):
        return zip(times, *columns)
    column = columns[0].column
    return (
        [time, *column[at : at + n]]
        for time, at in zip(times, range(0, len(column) - n + 1, n))
    )


def emit_report(report: MetricsReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report to out_dir; returns the files written.

    fmt "json" writes report.json. fmt "csv" writes meta.csv plus one
    file per series group (per-link pool levels, per-link deposits, hub
    load), each with a header row and one row per tick. csv.writer writes
    each header. A data row whose values are all exactly ints or floats
    is written as their reprs joined by commas, csv.writer's bytes for
    it; any other row goes through csv.writer. A file whose times and
    series are all views of int or float arrays holds only such rows,
    and its rows are not checked.
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
                fh.writelines(iterencode(report._document()))
            written.append(path)
            return written

        # Each file as (name, header, rows, series): meta.csv has one row,
        # and the series files one row per tick, its time and then one value
        # per series.
        links = report.links
        pools, deposits = (
            [link["series"][name] for link in links.values()]
            for name in ("pool_available", "deposited_bits")
        )
        hub = report.hub.get("series", {})
        hub_names = sorted(hub)
        hubs = [hub[name] for name in hub_names]
        meta_header = ["format_version", "seed", "duration_seconds", "tick_seconds"]
        meta = (FORMAT_VERSION, report.seed, report.duration_seconds, report.tick_seconds)
        times = report.times
        tables = (
            ("meta.csv", meta_header, [meta], None),
            ("pool_available.csv", ["time", *links], _series_rows(times, pools), pools),
            ("deposited_bits.csv", ["time", *links], _series_rows(times, deposits), deposits),
            ("hub.csv", ["time", *hub_names], zip(times, *hubs), hubs),
        )
        for filename, header, rows, series in tables:
            path = out / filename
            typed = series is not None and _typed(times, *series)
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    if typed or _only_numbers(row):
                        fh.write(",".join(map(repr, row)) + "\r\n")
                    else:
                        writer.writerow(row)
            written.append(path)
        return written
    except OSError as exc:
        raise IoError(f"cannot write report files under {out}: {exc}") from exc
