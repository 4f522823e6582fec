"""starqkd benchmark: ingest -> run -> emit, checked, timed and traced.

Usage (from the repository root):

    python3 bench/run.py                       # every workload, both modes
    python3 bench/run.py --workload star10 --seed 1 --seconds 20 --trace 0

One pass is the sequence `starqkd simulate` runs: `ingest_scenario`
(plus `with_overrides` where the workload uses it), `starqkd.run` and
`emit_report` to disk, followed by independent checks of the emitted
files. A run repeats passes of one workload for --seconds and reports
medians. End-to-end times are host seconds scaled to a reference host
speed by a fixed loop timed around each phase (see hostspeed.py); the
unscaled figures are printed beside them. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics of the traced ones. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import hostspeed
import workloads
from tracing import BACKLOG_PEAK, CSV_ROWS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
DEFAULT_SECONDS = 40
MIN_PASSES = 3
SETUP_REPEATS = 3  # ingests per pass; setup_s is the median of all of them
# Stop starting passes after this long, whatever --seconds says.
HARD_LIMIT_SECONDS = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("emit_s", "s"),
    ("wall_s", "s"),
    ("link_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("report_bytes", "B"),
)

PER_LAYER = (
    ("scenario.ingest.s", "s"),
    ("engine.schedule_s", "s"),
    ("engine.self_s", "s"),
    ("starnet.schedule_channels.calls", "count"),
    ("starnet.schedule_channels.self_s", "s"),
    ("starnet.hub_cpu_step.self_s", "s"),
    (BACKLOG_PEAK, "count"),
    ("starnet.relay_key.calls", "count"),
    ("starnet.relay_key.bits", "bit"),
    ("starnet.relay_key.self_s", "s"),
    ("qkdlink.produce.calls", "count"),
    ("qkdlink.produce.self_s", "s"),
    ("qkdlink.release.self_s", "s"),
    ("keycore.draw.calls", "count"),
    ("keycore.draw.bits", "bit"),
    ("keycore.draw.self_s", "s"),
    ("keycore.xor_bytes.calls", "count"),
    ("keycore.xor_bytes.bytes", "B"),
    ("keycore.xor_bytes.self_s", "s"),
    ("keycore.otp.self_s", "s"),
    ("rng.random_bits.calls", "count"),
    ("rng.random_bits.bits", "bit"),
    ("rng.random_bits.self_s", "s"),
    ("hybrid.rotation.calls", "count"),
    ("hybrid.rotation.self_s", "s"),
    ("sharing.refresh.calls", "count"),
    ("sharing.refresh.self_s", "s"),
    ("policy.recommend.calls", "count"),
    ("policy.recommend.self_s", "s"),
    ("report.to_json.self_s", "s"),
    ("report.emit_report.self_s", "s"),
    (CSV_ROWS, "count"),
    ("trace.overhead_s", "s"),
)


def load_program() -> Any:
    """Import starqkd from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "starqkd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no starqkd sources under {src}")
    sys.path.insert(0, str(src))
    import starqkd

    if Path(starqkd.__file__).resolve().parent != (src / "starqkd").resolve():
        raise SystemExit(f"bench: imported starqkd from {starqkd.__file__}, not {src}")
    return starqkd


@dataclass
class PassTimes:
    """Host seconds of one pass's phases, and the reference loop around them."""

    setup_s: list[float]
    run_s: float
    emit_s: float
    # Reference-loop seconds before the ingests, before run, before emit
    # and after emit.
    reference_s: tuple[float, float, float, float]

    @property
    def wall_s(self) -> float:
        return sum(self.setup_s) + self.run_s + self.emit_s

    def scaled(self) -> PassTimes:
        """The same phases at the reference host speed (see hostspeed.py)."""
        r0, r1, r2, r3 = self.reference_s
        return PassTimes(
            [hostspeed.scaled(s, r0, r1) for s in self.setup_s],
            hostspeed.scaled(self.run_s, r1, r2),
            hostspeed.scaled(self.emit_s, r2, r3),
            (hostspeed.REFERENCE_S,) * 4,
        )


def one_pass(
    starqkd: Any, workload: workloads.Workload, out_dir: Path, tracer: Tracer | None
) -> tuple[PassTimes, Any, list[Path]]:
    """ingest -> run -> emit once; returns the timings, report and files."""

    def ingest() -> Any:
        scenario = starqkd.ingest_scenario(workload.scenario_path)
        if workload.overrides:
            scenario = starqkd.with_overrides(scenario, **workload.overrides)
        return scenario

    simulate = starqkd.run
    emit = starqkd.emit_report
    if tracer is not None:
        ingest = tracer.wrap("scenario.ingest", ingest)
        simulate = tracer.wrap("engine", simulate)
        emit = tracer.wrap("report.emit_report", emit)

    clock = time.perf_counter
    reference = hostspeed.reference_seconds
    r0 = reference()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        scenario = ingest()
        setups.append(clock() - t0)
    r1 = reference()
    t1 = clock()
    report = simulate(scenario)
    t2 = clock()
    r2 = reference()
    t3 = clock()
    files = emit(report, workload.fmt, out_dir)
    t4 = clock()
    r3 = reference()
    return PassTimes(setups, t2 - t1, t4 - t3, (r0, r1, r2, r3)), report, files


def digest(files: list[Path]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(files, key=lambda p: p.name):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


@dataclass
class Runner:
    """Attempts passes of one workload and keeps what they measured."""

    starqkd: Any
    workload: workloads.Workload
    work_dir: Path
    attempted: int = 0
    failed: int = 0
    check_failed: bool = False
    first_digest: str | None = None
    report_bytes: int = 0
    peak_rss_mb: float | None = None
    untraced: list[PassTimes] = field(default_factory=list)
    traced: list[tuple[PassTimes, dict[str, float]]] = field(default_factory=list)
    # Host seconds each attempt took, checks included, keyed by traced.
    spent: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})

    def attempt(self, traced: bool) -> None:
        began = time.perf_counter()
        try:
            self._attempt(traced)
        finally:
            self.spent[traced].append(time.perf_counter() - began)

    def _attempt(self, traced: bool) -> None:
        self.attempted += 1
        out_dir = self.work_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        tracer = Tracer() if traced else None
        try:
            if tracer is not None:
                tracer.install()
            try:
                times, report, files = one_pass(self.starqkd, self.workload, out_dir, tracer)
            finally:
                if tracer is not None:
                    tracer.restore()
        except Exception:  # a pass that raises is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        if self.peak_rss_mb is None and not traced:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        totals = report.totals
        del report
        try:
            checks.check_pass(self.workload, out_dir, files, totals)
            got, size = digest(files)
            if self.first_digest is None:
                self.first_digest, self.report_bytes = got, size
            checks.expect(got == self.first_digest, "report bytes differ between passes")
        except checks.CheckError as exc:
            self.failed += 1
            self.check_failed = True
            print(f"check failed ({self.workload.name}): {exc}", file=sys.stderr)
            return
        if tracer is None:
            self.untraced.append(times)
        else:
            tracer.write(self.work_dir / "spans.csv")
            self.traced.append((times, layer_metrics(tracer)))

    def end_to_end(self, scale: bool = True) -> dict[str, float]:
        """Medians over the untraced passes, at the reference speed unless scale is off."""
        passes = [t.scaled() for t in self.untraced] if scale else self.untraced
        setup = statistics.median(s for t in passes for s in t.setup_s)
        run = statistics.median(t.run_s for t in passes)
        emit = statistics.median(t.emit_s for t in passes)
        return {
            "setup_s": setup,
            "run_s": run,
            "emit_s": emit,
            "wall_s": setup + run + emit,
            "link_ticks_per_s": self.workload.branch_count * self.workload.ticks / run,
            "peak_rss_mb": self.peak_rss_mb,
            "report_bytes": self.report_bytes,
        }

    def per_layer(self) -> dict[str, float]:
        samples = [layers for _, layers in self.traced]
        out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
        out["trace.overhead_s"] = statistics.median(
            t.wall_s for t, _ in self.traced
        ) - statistics.median(t.wall_s for t in self.untraced)
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, all but the tracing overhead."""
    layers = summarize(tracer.spans)
    out: dict[str, float] = {BACKLOG_PEAK: tracer.counters[BACKLOG_PEAK]}
    out[CSV_ROWS] = tracer.counters[CSV_ROWS]
    ingest = layers["scenario.ingest"]
    out["scenario.ingest.s"] = ingest.total_s / ingest.calls
    engine = layers["engine"]
    first = layers.get("starnet.schedule_channels")
    out["engine.schedule_s"] = (
        first.first_start - engine.first_start if first is not None else engine.total_s
    )
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what not in ("calls", "bits", "bytes", "self_s"):
            continue
        got = layers.get(layer)
        if got is None:
            out[name] = 0
        elif what == "calls":
            out[name] = got.calls
        elif what == "self_s":
            out[name] = got.self_s
        else:
            out[name] = got.amount
    return out


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    starqkd = load_program()
    work_dir = OUT_ROOT / workload_name
    workload = workloads.make(workload_name, ROOT, seed, work_dir / "input")
    runner = Runner(starqkd, workload, work_dir)
    start = time.perf_counter()

    def more(traced: bool) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_SECONDS:
            return False
        if trace and not (runner.untraced and runner.traced):
            return True
        if not trace and runner.attempted < MIN_PASSES:
            return True
        # Start a pass only if one like it still fits in the run.
        spent = runner.spent[traced]
        return elapsed + (statistics.median(spent) if spent else 0.0) <= seconds

    traced = False
    while more(traced):
        runner.attempt(traced)
        traced = trace and not traced

    if not runner.untraced or (trace and not runner.traced):
        print(f"bench: no pass of {workload_name} succeeded", file=sys.stderr)
        return 1
    table = PER_LAYER if trace else END_TO_END
    values = runner.per_layer() if trace else runner.end_to_end()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    # Unscaled host figures of the same passes, for reading beside the scaled ones.
    host = {} if trace else runner.end_to_end(scale=False)
    record(workload_name, seed, seconds, trace, runner, metrics, host)
    print(
        f"{workload_name} seed={seed} trace={int(trace)}: "
        f"{runner.attempted} passes attempted, {runner.failed} failed"
    )
    if not trace:
        print(f"  {'':34s} {'scaled':>16s} {'':4s} {'host':>12s}")
    for name, unit in table:
        unscaled = f"{host[name]:>12.6g}" if name in host else ""
        print(f"  {name:34s} {values[name]:>16.6g} {unit:4s} {unscaled}")
    result = {
        "correct": not runner.check_failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    runner: Runner,
    metrics: dict,
    host: dict[str, float],
) -> None:
    """Keep end-to-end and per-layer numbers side by side in one results file."""
    path = OUT_ROOT / "results" / f"{workload_name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["workload"] = workload_name
    doc["per_layer" if trace else "end_to_end"] = {
        "seed": seed,
        "seconds": seconds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    if host:
        doc["end_to_end"]["host_unscaled"] = host
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def measure_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and then traced, each in its own process."""
    status = 0
    for name in workloads.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, flush=True)
            if proc.returncode != 0:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return measure_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
