"""Command line interface: single runs, campaigns and group inspection."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .campaign import (PER_RUN_COLUMNS, RunSpec, load_campaign, report_row,
                       run_campaign, write_csv, write_txop_trace)
from .config import SimulationConfig, load_simulation_config
from .engine import build_environment, run_simulation
from .scheduling import SCHEDULER_NAMES


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--gamma", type=float, metavar="DB",
                        help="SINR threshold for group formation")
    parser.add_argument("--k", type=int, help="maximum group size")
    parser.add_argument("--out", metavar="DIR", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcsim",
        description="Multi-AP coordinated spatial reuse (c-TDMA/SR) simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single simulation")
    _add_common_flags(run)
    run.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                     help="scheduling policy")
    run.add_argument("--load-mbps", type=float, metavar="MBPS",
                     help="offered load per station")
    run.add_argument("--trace", action="store_true",
                     help="also write a per-TXOP trace CSV (needs --out)")

    camp = sub.add_parser("campaign", help="run a sweep campaign from a file")
    _add_common_flags(camp)
    camp.add_argument("--runs", type=int, metavar="N",
                      help="override the number of random deployments")
    camp.add_argument("--workers", type=int, default=1,
                      help="size of the worker pool (default 1)")

    groups = sub.add_parser("groups",
                            help="print the SR-compatible groups of a deployment")
    _add_common_flags(groups)
    return parser


def _load_base_config(args: argparse.Namespace) -> SimulationConfig:
    config = (load_simulation_config(args.config) if args.config
              else SimulationConfig())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.gamma is not None:
        config = replace(config, gamma_db=args.gamma)
    if args.k is not None:
        config = replace(config, max_group_size=args.k)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_base_config(args)
    if args.scheduler:
        config = replace(config, scheduler=args.scheduler)
    if args.load_mbps is not None:
        config = replace(config, traffic=replace(
            config.traffic, load_bps_per_sta=args.load_mbps * 1e6))
    trace = [] if args.trace and args.out else None
    if args.trace and not args.out:
        print("note: --trace has no effect without --out", file=sys.stderr)
    report = run_simulation(config, txop_trace=trace)
    print(f"scheduler={config.scheduler} gamma={config.gamma_db:g} dB "
          f"k={config.max_group_size} "
          f"load={config.traffic.load_bps_per_sta / 1e6:g} Mbps/STA "
          f"seed={config.seed}")
    print(f"throughput: {report.throughput_bps / 1e6:.3f} Mbps")
    print(f"mean delay: {report.mean_delay_s * 1e3:.3f} ms "
          f"(p50 {report.delay_percentile(0.5) * 1e3:.3f}, "
          f"p95 {report.delay_percentile(0.95) * 1e3:.3f}, "
          f"p99 {report.delay_percentile(0.99) * 1e3:.3f})")
    print(f"mean occupancy: {report.mean_occupancy:.4f}")
    print(f"packets: arrived={report.packets_arrived} "
          f"delivered={report.packets_delivered} "
          f"remaining={report.packets_remaining}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        spec = RunSpec(0, 0, config.traffic.load_bps_per_sta / 1e6, config)
        write_csv(out / "run.csv", PER_RUN_COLUMNS, [report_row(spec, report)])
        print(f"wrote {out / 'run.csv'}")
        if trace is not None:
            write_txop_trace(trace, config.timing.txop_max_us,
                             out / "txop_trace.csv")
            print(f"wrote {out / 'txop_trace.csv'}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if not args.config:
        raise ValueError("campaign requires --config pointing to a campaign file")
    campaign = load_campaign(args.config)
    if args.runs is not None:
        campaign = replace(campaign, num_deployments=args.runs)
    if args.seed is not None:
        campaign = replace(campaign, base_seed=args.seed)
    if args.gamma is not None:
        campaign = replace(campaign, gammas_db=(args.gamma,))
    if args.k is not None:
        campaign = replace(campaign, k_values=(args.k,))
    paths = run_campaign(campaign, out_dir=args.out, workers=args.workers)
    print(f"{campaign.num_runs} runs complete")
    for name, path in sorted(paths.items()):
        print(f"wrote {path}")
    return 0


def _cmd_groups(args: argparse.Namespace) -> int:
    config = _load_base_config(args)
    env, _ = build_environment(config.scenario, config.gamma_db,
                               config.max_group_size, config.seed)
    payload = {
        "seed": config.seed,
        "gamma_db": config.gamma_db,
        "max_group_size": config.max_group_size,
        "sharing_ap_id": env.deployment.sharing_ap_id,
        "groups": env.groups.to_jsonable(),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "groups.json").write_text(text + "\n")
        print(f"wrote {out / 'groups.json'}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "campaign": _cmd_campaign,
                "groups": _cmd_groups}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # diagnostics to stderr, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
