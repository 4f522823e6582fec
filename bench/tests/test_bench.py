"""Tests of the benchmark itself: tiny passes, check sensitivity, span arithmetic.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import workloads
from tracing import Span, Tracer, self_times, summarize

starqkd = run.load_program()

TINY = {
    "star10": {"duration_seconds": 250.0},
    "relay-heavy": {"duration_seconds": 20.0},
    "wide-hub": {
        "branches": 30,
        "channels": 4,
        "duration_seconds": 20.0,
        "cpu_per_sec": 2.4e5,
    },
}


def tiny_runner(name: str, tmp_path: Path) -> run.Runner:
    workload = workloads.make(name, run.ROOT, 7, tmp_path / "input", **TINY[name])
    return run.Runner(starqkd, workload, tmp_path)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_passes_pass_their_checks(name: str, tmp_path: Path) -> None:
    runner = tiny_runner(name, tmp_path)
    runner.attempt(traced=False)
    runner.attempt(traced=True)
    runner.attempt(traced=False)
    assert (runner.attempted, runner.failed, runner.check_failed) == (3, 0, False)
    e2e = runner.end_to_end()
    assert {n for n, _ in run.END_TO_END} == set(e2e)
    assert all(v > 0 for v in e2e.values())
    layers = runner.per_layer()
    assert {n for n, _ in run.PER_LAYER} == set(layers)
    assert layers["starnet.schedule_channels.calls"] == runner.workload.ticks
    assert (tmp_path / "spans.csv").is_file()


def test_tracing_restores_every_name(tmp_path: Path) -> None:
    before = (starqkd.engine.relay_key, starqkd.KeyPool.draw, starqkd.report.csv)
    runner = tiny_runner("relay-heavy", tmp_path)
    runner.attempt(traced=True)
    assert runner.failed == 0
    assert (starqkd.engine.relay_key, starqkd.KeyPool.draw, starqkd.report.csv) == before


def emitted(name: str, tmp_path: Path) -> tuple[workloads.Workload, Path, list[Path], dict]:
    workload = workloads.make(name, run.ROOT, 7, tmp_path / "input", **TINY[name])
    out = tmp_path / "out"
    _, report, files = run.one_pass(starqkd, workload, out, None)
    checks.check_pass(workload, out, files, report.totals)
    return workload, out, files, report.totals


def test_altered_total_fails_check(tmp_path: Path) -> None:
    workload, out, files, totals = emitted("relay-heavy", tmp_path)
    path = out / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["totals"]["generated_bits"] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="ledger"):
        checks.check_pass(workload, out, files, totals)


def test_dropped_csv_row_fails_check(tmp_path: Path) -> None:
    workload, out, files, totals = emitted("wide-hub", tmp_path)
    path = out / "pool_available.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_pass(workload, out, files, totals)


def test_self_time_subtracts_union_of_children() -> None:
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0, amount=8),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 9.0, 12.0, 0, amount=16),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    layers = summarize(spans)
    assert (layers["a"].calls, layers["a"].amount) == (2, 24)
    assert layers["a"].self_s == pytest.approx(5.0)
    assert layers["a"].first_start == 1.0
    assert layers["root"].total_s == pytest.approx(10.0)


def test_wrapped_call_records_nesting_and_amount() -> None:
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda data: data[::-1], amount=lambda a, k: len(a[0]))
    outer = tracer.wrap("outer", lambda: inner(b"abc"))
    assert outer() == b"cba"
    assert [(s.name, s.parent, s.amount) for s in tracer.spans] == [
        ("outer", -1, 0),
        ("inner", 0, 3),
    ]


def test_scaling_uses_the_reference_loops_around_each_phase() -> None:
    ref = hostspeed.REFERENCE_S
    # The host ran at half the reference speed around the ingests, at
    # the reference speed around run and at twice it around emit.
    times = run.PassTimes([0.2, 0.4], 3.0, 1.0, (2 * ref, 2 * ref, ref, ref / 2))
    scaled = times.scaled()
    assert scaled.setup_s == pytest.approx([0.1, 0.2])
    assert scaled.run_s == pytest.approx(3.0 / 1.5)
    assert scaled.emit_s == pytest.approx(1.0 / 0.75)
    assert times.wall_s == pytest.approx(4.6)
