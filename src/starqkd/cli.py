"""Command-line front end.

Subcommands:
  simulate    run a scenario file and write a metrics report
  plan        recommend encryption techniques for an asset inventory
  relay-demo  show one hub-mediated key relay, with pool accounting
  validate    check a scenario file and report problems

Exit codes: 0 on success, 1 for invalid or unparsable input files,
2 for runtime failures (I/O, exhausted pools) and bad arguments, on
the command line or to the library.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ScenarioInvalid, StarQkdError, check_float, check_int
from .hybrid import PRACTICALLY_INFINITE_SECONDS, YEAR_SECONDS, mosca_at_risk
from .keycore import DEFAULT_POOL_TARGET_BITS, Provenance
from .policy import default_matrix, recommend
from .report import emit_report
from .rng import MAX_SEED, StreamRegistry
from .scenario import (
    DEFAULT_ATTACKER,
    ingest_matrix,
    ingest_plan_inputs,
    ingest_scenario,
    policy_grid,
    scenario_from_dict,
    with_overrides,
)
from .starnet import relay_key
from . import engine

# relay-demo builds at most this many branches, the largest star the
# simulator is measured at.
MAX_DEMO_BRANCHES = 1000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starqkd",
        description="Simulate star-topology quantum key distribution networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write a report")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument(
        "--duration", type=float, default=None, help="override the duration in seconds"
    )
    p_sim.add_argument("--out", default="out", help="output directory (default: out)")
    p_sim.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    p_plan = sub.add_parser("plan", help="recommend techniques for an asset inventory")
    p_plan.add_argument("assets", help="asset inventory JSON file")
    p_plan.add_argument("--matrix", default=None, help="policy matrix JSON file")
    p_plan.add_argument(
        "--attacker",
        choices=("quantum", "classical"),
        default="quantum",
        help="attacker capability (default: quantum)",
    )
    p_plan.add_argument(
        "--ops-per-sec",
        type=float,
        default=DEFAULT_ATTACKER.classical_ops_per_sec,
        help="attacker guesses per second",
    )

    p_demo = sub.add_parser("relay-demo", help="walk through one hub key relay")
    p_demo.add_argument("--branches", type=int, default=3, help="number of branch offices")
    p_demo.add_argument("--bits", type=int, default=256, help="relayed key length in bits")
    p_demo.add_argument("--seed", type=int, default=0, help="root seed")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.add_argument(
        "--lax", action="store_true", help="warn about unknown keys instead of failing"
    )
    return parser


def _fmt_seconds(seconds: float) -> str:
    if seconds >= PRACTICALLY_INFINITE_SECONDS:
        return "practically infinite"
    if seconds >= YEAR_SECONDS:
        years = seconds / YEAR_SECONDS
        return f"{years:.3g} year" + ("" if years == 1 else "s")
    return f"{seconds:.3g} s"


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = ingest_scenario(args.scenario)
    scenario = with_overrides(scenario, seed=args.seed, duration_seconds=args.duration)
    report = engine.run(scenario)
    totals = report.totals
    print(f"simulated {scenario.duration_seconds:g} s at seed {scenario.seed}")
    print(
        f"  branches: {len(scenario.branches)}, "
        f"channels: {scenario.channel_count}, ticks: {scenario.tick_count}"
    )
    print(f"  key bits generated: {totals['generated_bits']}")
    print(f"  key bits in pools:  {totals['pool_available_bits']}")
    for category, bits in sorted(totals["consumed_bits"].items()):
        print(f"  consumed ({category}): {bits}")
    print(f"  one-time-pad message bits delivered: {totals['otp_message_bits']}")
    print(f"  relayed key bits delivered: {totals['relay_delivered_bits']}")
    if report.unmet_demand:
        print(f"  unmet demand events: {len(report.unmet_demand)}")
    if report.mosca_at_risk is not None:
        state = "AT RISK" if report.mosca_at_risk else "on schedule"
        print(f"  migration timeline: {state}")
    for path in emit_report(report, args.format, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    check_float("--ops-per-sec", args.ops_per_sec, positive=True)
    assets, classes, migration = ingest_plan_inputs(args.assets)
    matrix = None if args.matrix is None else ingest_matrix(args.matrix)
    grid = policy_grid(assets, classes, matrix)
    matrix = matrix or default_matrix(*grid)
    attacker = replace(
        DEFAULT_ATTACKER,
        classical_ops_per_sec=args.ops_per_sec,
        has_quantum=args.attacker == "quantum",
    )
    print(
        f"policy grid: {matrix.m_c} sensitivity x {matrix.k_t} retention classes, "
        f"{args.attacker} attacker at {args.ops_per_sec:.3g} ops/s"
    )
    for asset in assets:
        rec = recommend(asset, matrix, attacker)
        kind = rec.technique.kind
        sizing = ""
        if rec.technique.hybrid is not None:
            sizing = (
                f" (rotate master at {rec.technique.hybrid.rotation_frequency_hz:.3g} Hz)"
            )
        verdict = "ok" if rec.feasible else "NOT FEASIBLE"
        print(f"{asset.id}: {kind.label}{sizing} [{verdict}]")
        print(
            f"    horizon: {_fmt_seconds(rec.horizon.t_s_seconds)} classical, "
            f"{_fmt_seconds(rec.horizon.t_sq_seconds)} with quantum extension; "
            f"lifetime {_fmt_seconds(asset.lifetime_seconds)}"
        )
        for note in rec.notes:
            print(f"    note: {note}")
    if migration is not None:
        state = "AT RISK" if mosca_at_risk(migration) else "on schedule"
        print(
            f"migration: shelf life {migration.x_years:g} y + transition "
            f"{migration.y_years:g} y vs collapse in {migration.z_years:g} y -> {state}"
        )
    return 0


def _cmd_relay_demo(args: argparse.Namespace) -> int:
    check_int("--branches", args.branches, 2, MAX_DEMO_BRANCHES)
    check_int("--bits", args.bits, 1, DEFAULT_POOL_TARGET_BITS)
    check_int("--seed", args.seed, 0, MAX_SEED)
    # The demo steps no clock; the duration only makes the scenario whole.
    scenario = scenario_from_dict(
        {
            "seed": args.seed,
            "duration_seconds": 1.0,
            "hub": {"channel_count": args.branches, "cpu_capacity_per_sec": 1e9},
            "branches": [{"id": f"b{i:02d}"} for i in range(1, args.branches + 1)],
        }
    )
    topo = engine.build_topology(scenario)
    src, dst = topo.branch_ids()[:2]
    for bid in (src, dst):  # the only two pools the demo reads
        topo.link(bid).pool.deposit(2 * args.bits)
    before_src = topo.link(src).pool.available_bits
    before_dst = topo.link(dst).pool.available_bits
    rng = StreamRegistry(scenario.seed).stream("relay/hub")
    k_src, k_dst, record = relay_key(topo, src, dst, args.bits, rng)
    print(f"star of {args.branches} branches; relaying {args.bits} bits {src} -> {dst}")
    print(f"  relay id: {record.key_id}")
    print(f"  keys match at both ends: {k_src.bits == k_dst.bits}")
    print(f"  provenance: {k_src.provenance.name}")
    print(f"  {src} pool: {before_src} -> {topo.link(src).pool.available_bits} bits")
    print(f"  {dst} pool: {before_dst} -> {topo.link(dst).pool.available_bits} bits")
    print(f"  cost per side equals the relayed length: {args.bits} bits of pad")
    expected = Provenance.RELAYED
    if k_src.provenance is not expected or k_src.bits != k_dst.bits:
        print("error: relay produced mismatched keys", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = ingest_scenario(args.scenario, strict=not args.lax)
    print(
        f"OK: {args.scenario}: {len(scenario.branches)} branches, "
        f"{scenario.duration_seconds:g} s in {scenario.tick_count} ticks, "
        f"seed {scenario.seed}"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "plan": _cmd_plan,
    "relay-demo": _cmd_relay_demo,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StarQkdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
