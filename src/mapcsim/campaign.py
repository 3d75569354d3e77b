"""Batch experiment campaigns: sweeps over load, gamma, K and scheduler
across many random deployments, with CSV outputs ready for plotting.

A campaign is the cartesian product of its sweep axes times
`num_deployments` random deployments. The seed of each run is a stable hash
of (base_seed, deployment index) only, so every scheduler / load / gamma / K
combination sees the *same* deployment and the same arrival pattern for a
given deployment index: comparisons across schedulers are paired. Results
are written in run-index order regardless of worker completion order, so a
campaign file always reproduces byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from .channel import McsTable, default_mcs_table
from .config import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, _read_json_object, check_finite,
                     check_integer, simulation_config_from_dict,
                     simulation_config_to_dict)
from .engine import MetricsReport, TxopRecord, clear_memos, run_simulation
from .scheduling import SCHEDULER_NAMES
from .stats import empirical_cdf

PER_RUN_COLUMNS = (
    "run_id", "deployment_index", "seed", "scheduler", "gamma_db", "k",
    "load_mbps", "throughput_bps", "mean_delay_s", "p50_delay_s",
    "p95_delay_s", "p99_delay_s", "mean_occupancy", "packets_arrived",
    "packets_delivered", "packets_remaining",
)


@dataclass(frozen=True)
class Campaign:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    mcs_table: McsTable = field(default_factory=default_mcs_table)
    loads_mbps: tuple[float, ...] = (1.0, 6.0, 8.0)
    gammas_db: tuple[float, ...] = (20.0,)
    k_values: tuple[int, ...] = (3,)
    schedulers: tuple[str, ...] = SCHEDULER_NAMES
    num_deployments: int = 1000
    base_seed: int = 1
    out_dir: str = "results"

    def __post_init__(self) -> None:
        for axis in ("loads_mbps", "gammas_db", "k_values", "schedulers"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis} must be non-empty")
        check_integer("num_deployments", self.num_deployments)
        check_integer("base_seed", self.base_seed)  # run_seed hashes its text
        for i, load in enumerate(self.loads_mbps):
            check_finite(f"loads_mbps[{i}]", load)
        for i, k in enumerate(self.k_values):
            check_integer(f"k_values[{i}]", k)
        if self.num_deployments < 1:
            raise ValueError("num_deployments must be >= 1")
        if min(self.k_values) < 1:
            raise ValueError("k_values must be >= 1")

    @property
    def num_runs(self) -> int:
        return (self.num_deployments * len(self.loads_mbps) * len(self.gammas_db)
                * len(self.k_values) * len(self.schedulers))


def campaign_from_dict(data: dict[str, Any]) -> Campaign:
    base = simulation_config_from_dict(data)
    camp = dict(data.get("campaign", {}))

    def axis(key: str, default: Any) -> tuple:
        """A sweep axis: a list, else the base config's one point."""
        values = camp.pop(key, [default])
        if not isinstance(values, list):
            raise ValueError(f"campaign {key} must be a list, got {values!r}")
        return tuple(values)

    kwargs = dict(
        scenario=base.scenario, timing=base.timing, traffic=base.traffic,
        mcs_table=base.mcs_table,
        loads_mbps=axis("loads_mbps", base.traffic.load_bps_per_sta / 1e6),
        gammas_db=axis("gammas_db", base.gamma_db),
        k_values=axis("k_values", base.max_group_size),
        schedulers=axis("schedulers", base.scheduler),
        base_seed=camp.pop("base_seed", base.seed),
    )
    for key in ("num_deployments", "out_dir"):  # else Campaign's defaults
        if key in camp:
            kwargs[key] = camp.pop(key)
    if camp:
        raise ValueError(f"unknown campaign keys: {sorted(camp)}")
    return Campaign(**kwargs)


def load_campaign(path: str | Path) -> Campaign:
    return campaign_from_dict(_read_json_object(path, "campaign file"))


def run_seed(base_seed: int, deployment_index: int) -> int:
    """Stable per-deployment seed, independent of the sweep axes so all
    sweep points share deployments (paired comparisons)."""
    digest = hashlib.blake2b(f"{base_seed}:{deployment_index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class RunSpec:
    """One campaign run. `config` is all the run needs (save it to replay the
    run with `mapcsim run`); the rest labels its per-run CSV row. `load_mbps`
    is the swept value, which `load_bps_per_sta / 1e6` may not give back."""

    run_id: int
    deployment_index: int
    load_mbps: float
    config: SimulationConfig


class CampaignRunError(RuntimeError):
    pass


def enumerate_runs(campaign: Campaign) -> list[RunSpec]:
    """Every run of `campaign` in run-index order; building each run's
    SimulationConfig checks its inputs before any run starts."""
    specs = []
    for dep in range(campaign.num_deployments):
        seed = run_seed(campaign.base_seed, dep)
        for load in campaign.loads_mbps:
            traffic = replace(campaign.traffic, load_bps_per_sta=load * 1e6)
            for gamma in campaign.gammas_db:
                for k in campaign.k_values:
                    for sched in campaign.schedulers:
                        config = SimulationConfig(
                            campaign.scenario, campaign.timing, traffic,
                            gamma_db=gamma, max_group_size=k, scheduler=sched,
                            seed=seed, mcs_table=campaign.mcs_table)
                        specs.append(RunSpec(len(specs), dep, load, config))
    return specs


def execute_run(spec: RunSpec) -> dict[str, Any]:
    """One simulation -> one per-run CSV row."""
    try:
        report = run_simulation(spec.config)
    except Exception as exc:
        config = spec.config
        raise CampaignRunError(
            f"run {spec.run_id} failed (seed={config.seed} "
            f"scheduler={config.scheduler} gamma={config.gamma_db} "
            f"k={config.max_group_size} load={spec.load_mbps} Mbps): {exc}") from exc
    return report_row(spec, report)


def report_row(spec: RunSpec, report: MetricsReport) -> dict[str, Any]:
    """The per-run CSV row (PER_RUN_COLUMNS) of `report`, labelled by `spec`."""
    return {
        "run_id": spec.run_id,
        "deployment_index": spec.deployment_index,
        "seed": spec.config.seed,
        "scheduler": spec.config.scheduler,
        "gamma_db": spec.config.gamma_db,
        "k": spec.config.max_group_size,
        "load_mbps": spec.load_mbps,
        "throughput_bps": report.throughput_bps,
        "mean_delay_s": report.mean_delay_s,
        "p50_delay_s": report.delay_percentile(0.50),
        "p95_delay_s": report.delay_percentile(0.95),
        "p99_delay_s": report.delay_percentile(0.99),
        "mean_occupancy": report.mean_occupancy,
        "packets_arrived": report.packets_arrived,
        "packets_delivered": report.packets_delivered,
        "packets_remaining": report.packets_remaining,
    }


def run_campaign(campaign: Campaign, out_dir: str | Path | None = None,
                 workers: int = 1) -> dict[str, Path]:
    """Execute every run and write per-run plus aggregate CSVs.

    Returns the written file paths. Output rows follow run-index order even
    when a worker pool is used, so reruns are byte-identical.
    """
    check_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = enumerate_runs(campaign)
    out = Path(out_dir if out_dir is not None else campaign.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clear_memos()  # before any fork: each campaign builds its deployments anew
    if workers > 1:
        import multiprocessing  # here, as a serial campaign needs no pool

        # one deployment's runs per chunk, when that keeps every worker busy:
        # enumerate_runs lists them together, so a worker builds each
        # deployment it meets once
        per_deployment = len(specs) // campaign.num_deployments
        chunk = per_deployment if campaign.num_deployments >= workers else 1
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = pool.map(execute_run, specs, chunksize=chunk)
    else:
        rows = [execute_run(spec) for spec in specs]

    paths = {"per_run": out / "per_run.csv"}
    write_csv(paths["per_run"], PER_RUN_COLUMNS, rows)
    for name, (columns, table) in aggregate_rows(rows).items():
        paths[name] = out / f"{name}.csv"
        write_csv(paths[name], columns, table)
    _write_config_echo(campaign, out / "campaign_config.json")
    paths["campaign_config"] = out / "campaign_config.json"
    return paths


def write_csv(path: Path, columns: Iterable[str], rows: Iterable[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def _write_config_echo(campaign: Campaign, path: Path) -> None:
    import json

    data = simulation_config_to_dict(SimulationConfig(
        scenario=campaign.scenario, timing=campaign.timing,
        traffic=campaign.traffic, mcs_table=campaign.mcs_table))
    del data["scheduler"], data["seed"], data["gamma_db"], data["max_group_size"]
    data["campaign"] = {
        "loads_mbps": list(campaign.loads_mbps),
        "gammas_db": list(campaign.gammas_db),
        "k_values": list(campaign.k_values),
        "schedulers": list(campaign.schedulers),
        "num_deployments": campaign.num_deployments,
        "base_seed": campaign.base_seed,
        "out_dir": campaign.out_dir,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def aggregate_rows(rows: list[dict]) -> dict[str, tuple[tuple[str, ...], list[dict]]]:
    """Aggregate per-run rows into the four plot-ready tables.

    Grouping key is (scheduler, gamma, K, load); averages are fsum-means over
    deployments, CDFs take one sample per deployment. Everything here is
    recomputable from per_run.csv alone.
    """
    by_key: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["scheduler"], row["gamma_db"], row["k"], row["load_mbps"])
        by_key.setdefault(key, []).append(row)

    key_cols = ("scheduler", "gamma_db", "k", "load_mbps")
    throughput, p95, cdf_p95, cdf_occ = [], [], [], []
    for key, group in by_key.items():
        label = dict(zip(key_cols, key))
        throughput.append(label | {
            "throughput_bps": _fmean([r["throughput_bps"] for r in group]),
            "mean_delay_s": _fmean([r["mean_delay_s"] for r in group]),
        })
        p95.append(label | {
            "p95_delay_s": _fmean([r["p95_delay_s"] for r in group]),
        })
        for value, frac in empirical_cdf([r["p95_delay_s"] for r in group]):
            cdf_p95.append(label | {"p95_delay_s": value, "cum_fraction": frac})
        for value, frac in empirical_cdf([r["mean_occupancy"] for r in group]):
            cdf_occ.append(label | {"mean_occupancy": value, "cum_fraction": frac})

    return {
        "throughput_vs_load": (key_cols + ("throughput_bps", "mean_delay_s"),
                               throughput),
        "p95_delay_vs_load": (key_cols + ("p95_delay_s",), p95),
        "cdf_p95_delay": (key_cols + ("p95_delay_s", "cum_fraction"), cdf_p95),
        "cdf_occupancy": (key_cols + ("mean_occupancy", "cum_fraction"), cdf_occ),
    }


def write_txop_trace(records: list[TxopRecord], txop_max_us: float,
                     path: str | Path) -> None:
    """Per-TXOP trace CSV: one row per period."""
    rows = [{
        "txop_index": i,
        "start_time_s": rec.start_time_s,
        "total_duration_us": rec.total_duration_us,
        "occupancy": rec.total_duration_us / txop_max_us,
        "num_slots": len(rec.slots),
        "packets_delivered": rec.packets_delivered,
    } for i, rec in enumerate(records)]
    write_csv(Path(path), ("txop_index", "start_time_s", "total_duration_us",
                           "occupancy", "num_slots", "packets_delivered"), rows)
