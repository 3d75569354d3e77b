import csv
import json
import math
import multiprocessing
import re

import pytest

from mapcsim import Campaign, engine, load_campaign, run_campaign, run_seed
from mapcsim import campaign as campaign_module
from mapcsim.campaign import (PER_RUN_COLUMNS, CampaignRunError,
                              campaign_from_dict, enumerate_runs, execute_run,
                              write_csv)
from mapcsim.cli import main
from mapcsim.config import TimingConfig
from oracles import nearest_rank_reference

SMALL = dict(
    timing=TimingConfig(num_txops=60),
    loads_mbps=(6.0,),
    schedulers=("numpk-single", "ctdma-numpk"),
    num_deployments=2,
    base_seed=7,
)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_cardinality(tmp_path):
    campaign = Campaign(**SMALL)
    assert campaign.num_runs == 4
    paths = run_campaign(campaign, out_dir=tmp_path)
    rows = _read_csv(paths["per_run"])
    assert len(rows) == 4
    assert [int(r["run_id"]) for r in rows] == [0, 1, 2, 3]


def test_campaign_rerun_is_byte_identical(tmp_path):
    campaign = Campaign(**SMALL)
    first = run_campaign(campaign, out_dir=tmp_path / "a")
    second = run_campaign(campaign, out_dir=tmp_path / "b")
    for name in first:
        assert (tmp_path / "a" / first[name].name).read_bytes() == \
            (tmp_path / "b" / second[name].name).read_bytes()


def test_workers_do_not_change_output(tmp_path):
    campaign = Campaign(**SMALL)
    serial = run_campaign(campaign, out_dir=tmp_path / "serial", workers=1)
    pooled = run_campaign(campaign, out_dir=tmp_path / "pool", workers=2)
    assert serial["per_run"].read_bytes() == pooled["per_run"].read_bytes()


def test_deployments_pair_across_schedulers():
    specs = enumerate_runs(Campaign(**SMALL))
    by_dep = {}
    for spec in specs:
        by_dep.setdefault(spec.deployment_index, set()).add(spec.config.seed)
    # one seed per deployment no matter the scheduler
    assert all(len(seeds) == 1 for seeds in by_dep.values())
    assert len({s for seeds in by_dep.values() for s in seeds}) == 2


def test_run_seed_stable_values():
    # frozen: the seed derivation must never change silently
    assert run_seed(7, 0) == run_seed(7, 0)
    assert run_seed(7, 0) != run_seed(7, 1)
    assert run_seed(7, 0) != run_seed(8, 0)
    assert 0 <= run_seed(1, 0) < 2 ** 63


def test_aggregates_recomputable_from_per_run_csv(tmp_path):
    campaign = Campaign(**SMALL)
    paths = run_campaign(campaign, out_dir=tmp_path)
    rows = _read_csv(paths["per_run"])

    # independent re-aggregation from the CSV text alone
    by_key = {}
    for r in rows:
        key = (r["scheduler"], r["gamma_db"], r["k"], r["load_mbps"])
        by_key.setdefault(key, []).append(r)
    recomputed = []
    for key, group in by_key.items():
        recomputed.append({
            "scheduler": key[0], "gamma_db": key[1], "k": key[2],
            "load_mbps": key[3],
            "throughput_bps": repr(math.fsum(float(r["throughput_bps"]) for r in group) / len(group)),
            "mean_delay_s": repr(math.fsum(float(r["mean_delay_s"]) for r in group) / len(group)),
        })
    written = _read_csv(paths["throughput_vs_load"])
    assert len(written) == len(recomputed)
    for got, want in zip(written, recomputed):
        assert got == want

    # CDF tables: one sample per deployment, sorted, fractions i/n
    cdf = _read_csv(paths["cdf_p95_delay"])
    per_sched = {}
    for r in cdf:
        per_sched.setdefault(r["scheduler"], []).append(
            (float(r["p95_delay_s"]), float(r["cum_fraction"])))
    for sched, pairs in per_sched.items():
        values = [v for v, _ in pairs]
        assert values == sorted(values)
        assert [f for _, f in pairs] == [0.5, 1.0]
        samples = [float(r["p95_delay_s"]) for r in rows if r["scheduler"] == sched]
        assert nearest_rank_reference(samples, 0.5) == pytest.approx(values[0])


def test_campaign_file_roundtrip(tmp_path):
    config = {
        "timing": {"num_txops": 50},
        "traffic": {"burst_packets": 10},
        "gamma_db": 18.0,
        "campaign": {
            "loads_mbps": [1.0, 6.0],
            "schedulers": ["numpk-single"],
            "num_deployments": 3,
            "base_seed": 11,
            "out_dir": "unused",
        },
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    campaign = load_campaign(path)
    assert campaign.loads_mbps == (1.0, 6.0)
    assert campaign.gammas_db == (18.0,)  # falls back to the base gamma
    assert campaign.k_values == (3,)
    assert campaign.num_deployments == 3
    assert campaign.timing.num_txops == 50


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(loads_mbps=())
    with pytest.raises(ValueError):
        Campaign(num_deployments=0)
    # every run's SimulationConfig is built, and the scheduler name checked,
    # before any run starts
    with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
        enumerate_runs(Campaign(schedulers=("numpk-single", "bogus")))
    with pytest.raises(ValueError):
        campaign_from_dict({"campaign": {"nope": 1}})
    with pytest.raises(ValueError):
        Campaign(k_values=(3, 0))
    with pytest.raises(ValueError):
        campaign_from_dict({"campaign": {"k_values": [0]}})


@pytest.mark.parametrize("key, value", [
    ("schedulers", "numpk-single"), ("loads_mbps", 8.0), ("gammas_db", "20"),
    ("k_values", 3)])
def test_sweep_axes_must_be_lists(key, value, tmp_path, capsys):
    # a bare string was split into characters ("unknown scheduler 'n'") and
    # a bare number was not iterable
    out = tmp_path / "out"
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"campaign": {key: value, "out_dir": str(out)}}))
    message = f"campaign {key} must be a list, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_campaign(path)
    assert main(["campaign", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("load", [True, "1", None])
def test_non_finite_loads_rejected(load):
    # a bool would run at 1 Mbps/STA; a string or None would fail in the sweep
    with pytest.raises(ValueError, match=r"loads_mbps\[1\] must be finite"):
        Campaign(loads_mbps=(6.0, load))
    with pytest.raises(ValueError, match=r"loads_mbps\[1\] must be finite"):
        campaign_from_dict({"campaign": {"loads_mbps": [6.0, load]}})


@pytest.mark.parametrize("workers", [0, -3, 1.5, 2.0, True])
def test_workers_below_one_rejected(workers, tmp_path, monkeypatch):
    # and values that are not integers, floats and bools included
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    message = ">= 1" if type(workers) is int else "an integer"
    with pytest.raises(ValueError,
                       match=rf"workers must be {message}, got {re.escape(repr(workers))}$"):
        run_campaign(Campaign(**SMALL), out_dir=tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


def test_failed_run_reports_offending_spec(monkeypatch):
    # a run that fails must abort with replayable context
    def failing(config):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(campaign_module, "run_simulation", failing)
    campaign = Campaign(timing=TimingConfig(num_txops=10),
                        loads_mbps=(2.5,), schedulers=("numpk-single",),
                        num_deployments=1, base_seed=1)
    spec = enumerate_runs(campaign)[0]
    with pytest.raises(CampaignRunError) as err:
        execute_run(spec)
    msg = str(err.value)
    assert "seed=" in msg and "numpk-single" in msg and "2.5" in msg
    assert "simulated failure" in msg


def test_unofferable_load_fails_before_any_run(tmp_path, monkeypatch):
    # a load of p > 1 (30 Mbps/STA in 10 x 1500 B bursts per 5 ms) is
    # refused while the runs are listed, so no run starts and nothing is
    # written
    started = []
    monkeypatch.setattr(campaign_module, "run_simulation", started.append)
    campaign = Campaign(timing=TimingConfig(num_txops=10), loads_mbps=(1.0, 30.0),
                        schedulers=("numpk-single",), num_deployments=1)
    with pytest.raises(ValueError, match="p=1.2500 > 1"):
        enumerate_runs(campaign)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="p=1.2500 > 1"):
        run_campaign(campaign, out_dir=out)
    assert not out.exists() and not started


@pytest.mark.parametrize("axes", [
    dict(loads_mbps=(1.0, 8.0), gammas_db=(5.0, 20.0), k_values=(2, 3)),
    # neighbouring runs that differ only in gamma, or only in the seed
    dict(loads_mbps=(8.0,), gammas_db=(5.0, 20.0), k_values=(3,)),
    dict(loads_mbps=(8.0,), gammas_db=(20.0,), k_values=(3,)),
], ids=["load-gamma-k", "gamma", "seed"])
def test_campaign_rows_equal_cold_runs(tmp_path, axes):
    # neighbouring runs of one (deployment, gamma, K) share a memoized environment
    campaign = Campaign(timing=TimingConfig(num_txops=60), num_deployments=2,
                        base_seed=3, **axes)
    paths = run_campaign(campaign, out_dir=tmp_path / "campaign")
    rows = []
    for spec in enumerate_runs(campaign):
        engine.clear_memos()
        rows.append(execute_run(spec))
    write_csv(tmp_path / "cold.csv", PER_RUN_COLUMNS, rows)
    assert paths["per_run"].read_bytes() == (tmp_path / "cold.csv").read_bytes()


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_deployment_builds_and_draws_once_per_sweep_point(monkeypatch, tmp_path):
    # load sits outside gamma in run order, yet each (gamma, K) environment of
    # the deployment is built once and each load's arrivals are drawn once
    deployments, draws = multiprocessing.Value("i", 0), multiprocessing.Value("i", 0)
    _count_calls(monkeypatch, engine, "generate_grid_deployment", deployments)
    _count_calls(monkeypatch, engine, "draw_arrivals", draws)
    campaign = Campaign(timing=TimingConfig(num_txops=20), loads_mbps=(1.0, 8.0),
                        gammas_db=(5.0, 20.0), num_deployments=1)
    run_campaign(campaign, out_dir=tmp_path)
    assert (deployments.value, draws.value) == (2, 2)


def test_pool_workers_build_each_deployment_at_most_once(monkeypatch, tmp_path):
    campaign = Campaign(timing=TimingConfig(num_txops=30), loads_mbps=(8.0,),
                        num_deployments=4, base_seed=5)
    serial = run_campaign(campaign, out_dir=tmp_path / "serial", workers=1)
    # counted across the forked workers, which meet runs in run-id order
    builds = multiprocessing.get_context("fork").Value("i", 0)
    _count_calls(monkeypatch, engine, "generate_grid_deployment", builds)
    pooled = run_campaign(campaign, out_dir=tmp_path / "pool", workers=2)
    # each worker gets whole deployments, so none is built twice
    assert builds.value == campaign.num_deployments
    for name, path in serial.items():
        assert path.read_bytes() == pooled[name].read_bytes(), name


@pytest.mark.parametrize("num_deployments, axes, builds_wanted", [
    # a chunk holds every load, gamma and K of its deployment: one build
    # per (deployment, gamma, K), as with one worker
    (3, dict(loads_mbps=(1.0, 8.0), gammas_db=(5.0, 20.0)), (6, 6)),
    # fewer deployments than workers: runs are handed out one by one, and
    # both workers may build the deployment
    (1, dict(loads_mbps=(8.0,)), (1, 2)),
], ids=["whole-deployments", "one-deployment"])
def test_pool_chunks_follow_deployments(monkeypatch, tmp_path, num_deployments,
                                        axes, builds_wanted):
    campaign = Campaign(timing=TimingConfig(num_txops=20),
                        num_deployments=num_deployments, base_seed=6, **axes)
    context = multiprocessing.get_context("fork")
    serial_builds, pooled_builds = context.Value("i", 0), context.Value("i", 0)
    _count_calls(monkeypatch, engine, "generate_grid_deployment", serial_builds)
    serial = run_campaign(campaign, out_dir=tmp_path / "serial", workers=1)
    monkeypatch.undo()
    _count_calls(monkeypatch, engine, "generate_grid_deployment", pooled_builds)
    pooled = run_campaign(campaign, out_dir=tmp_path / "pool", workers=2)
    low, high = builds_wanted
    assert serial_builds.value == low
    assert low <= pooled_builds.value <= high
    for name, path in serial.items():
        assert path.read_bytes() == pooled[name].read_bytes(), name
