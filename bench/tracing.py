"""Per-layer spans recorded from outside the program.

A traced pass swaps each public name for a timing wrapper at the place
the calling module looks it up (for example `starqkd.engine.relay_key`
or `KeyPool.draw`) and puts the original back afterwards. Each call
records a span: layer name, start, end, parent span and, where the
layer has one, how many bits or bytes it handled. Spans stay in memory
and are written out when the pass ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def _arg(index: int, name: str) -> Callable[[tuple, dict], int]:
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[name]


def _length(args: tuple, kwargs: dict) -> int:
    return len(args[0])


# (owner, attribute, layer, amount): owner is "module" or "module:Class".
# Several sites can feed one layer, since each caller has its own lookup.
SITES: tuple[tuple[str, str, str, Callable[[tuple, dict], int] | None], ...] = (
    ("starqkd.engine", "schedule_channels", "starnet.schedule_channels", None),
    ("starqkd.engine", "hub_cpu_step", "starnet.hub_cpu_step", None),
    ("starqkd.engine", "relay_key", "starnet.relay_key", _arg(3, "n_bits")),
    ("starqkd.starnet", "produce", "qkdlink.produce", None),
    ("starqkd.starnet", "release", "qkdlink.release", None),
    ("starqkd.keycore:KeyPool", "draw", "keycore.draw", _arg(1, "n_bits")),
    ("starqkd.keycore", "xor_bytes", "keycore.xor_bytes", _length),
    ("starqkd.starnet", "xor_bytes", "keycore.xor_bytes", _length),
    ("starqkd.hybrid", "xor_bytes", "keycore.xor_bytes", _length),
    ("starqkd.engine", "otp_encrypt", "keycore.otp", None),
    ("starqkd.engine", "otp_decrypt", "keycore.otp", None),
    ("starqkd.keycore", "random_bits", "rng.random_bits", _arg(1, "n_bits")),
    ("starqkd.starnet", "random_bits", "rng.random_bits", _arg(1, "n_bits")),
    ("starqkd.engine", "random_bits", "rng.random_bits", _arg(1, "n_bits")),
    ("starqkd.engine", "rotate_master", "hybrid.rotation", None),
    ("starqkd.engine", "refresh_shares", "sharing.refresh", None),
    ("starqkd.engine", "recommend", "policy.recommend", None),
    ("starqkd.report:MetricsReport", "to_json", "report.to_json", None),
)

BACKLOG_PEAK = "starnet.backlog_items_peak"
CSV_ROWS = "report.csv_rows"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    amount: int = 0


class _CountingWriter:
    """csv.writer stand-in that counts rows for the tracer."""

    def __init__(self, tracer: "Tracer", writer: Any) -> None:
        self._tracer = tracer
        self._writer = writer

    def writerow(self, row: Any) -> Any:
        self._tracer.counters[CSV_ROWS] += 1
        return self._writer.writerow(row)


class _CsvShim:
    """Stands in for the csv module where starqkd.report looks it up."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def writer(self, *args: Any, **kwargs: Any) -> _CountingWriter:
        return _CountingWriter(self._tracer, csv.writer(*args, **kwargs))

    def __getattr__(self, name: str) -> Any:
        return getattr(csv, name)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {BACKLOG_PEAK: 0, CSV_ROWS: 0}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        amount: Callable[[tuple, dict], int] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            if amount is not None:
                span.amount = amount(args, kwargs)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _note_backlog(self, args: tuple, result: Any) -> None:
        del result
        size = len(args[0].backlog)
        if size > self.counters[BACKLOG_PEAK]:
            self.counters[BACKLOG_PEAK] = size

    def install(self) -> None:
        """Wrap every site that exists in the loaded program."""
        missing = []
        for owner_path, attr, layer, amount in SITES:
            module_name, _, class_name = owner_path.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            if owner is None or not hasattr(owner, attr):
                missing.append(f"{owner_path}.{attr}")
                continue
            after = self._note_backlog if layer == "starnet.hub_cpu_step" else None
            self._set(owner, attr, self.wrap(layer, getattr(owner, attr), amount, after))
        report_module = importlib.import_module("starqkd.report")
        if hasattr(report_module, "csv"):
            self._set(report_module, "csv", _CsvShim(self))
        else:
            missing.append("starqkd.report.csv")
        if missing:
            print(f"trace: sites not found: {', '.join(missing)}", file=sys.stderr)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "amount"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, s.start - origin, s.end - origin, s.parent, s.amount])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(kids):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    amount: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    first_start: float | None = None


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Fold spans into per-layer call counts, amounts and self time."""
    layers: dict[str, LayerTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = layers.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.amount += s.amount
        t.self_s += own
        t.total_s += s.end - s.start
        if t.first_start is None:
            t.first_start = s.start
    return layers
