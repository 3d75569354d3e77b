"""The benchmark in bench/ times the simulator by patching its public names
from outside src/ (bench/layers.py) and marks a TXOP at every
engine.step_arrivals call (bench/run.py). These checks fail when a refactor
moves a name the benchmark patches or changes how often it is called."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from mapcsim import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, engine)
from mapcsim.campaign import Campaign, run_campaign
from mapcsim.scheduling import SCHEDULER_NAMES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_targets_resolve():
    layers = _load_layers()
    assert layers.TARGETS
    for name, owner_path, attr in layers.TARGETS:
        head, *rest = owner_path.split(".")
        owner = importlib.import_module(f"mapcsim.{head}")
        for part in rest:
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr, None)), (name, owner_path, attr)


def test_every_traced_layer_is_called(tmp_path):
    layers = _load_layers()
    camp = Campaign(scenario=ScenarioConfig(), timing=TimingConfig(num_txops=30),
                    loads_mbps=(8.0,), num_deployments=1)
    trace = layers.LayerTrace()
    with trace.installed():
        run_campaign(camp, out_dir=tmp_path)
    for name in layers.LAYERS:
        assert trace.acc[name][layers.CALLS] > 0, name


def test_one_step_arrivals_call_per_txop(monkeypatch):
    calls = []
    original = engine.step_arrivals

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "step_arrivals", counting)
    for load_bps in (0.0, 8e6):
        calls.clear()
        engine.run_simulation(SimulationConfig(
            ScenarioConfig(), TimingConfig(num_txops=37),
            TrafficConfig(load_bps_per_sta=load_bps), 20.0, 3, "numpk-group",
            seed=1))
        assert len(calls) == 37


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_one_build_environment_call_per_run(monkeypatch):
    calls = _count_calls(monkeypatch, engine, "build_environment")
    for kind in ("numpk-group", "ctdma-oldpk", "numpk-group"):  # memo warm after the first
        engine.run_simulation(SimulationConfig(
            ScenarioConfig(), TimingConfig(num_txops=10), TrafficConfig(),
            20.0, 3, kind, seed=1))
    assert len(calls) == 3


def test_campaign_builds_each_environment_once(monkeypatch, tmp_path):
    deployments = _count_calls(monkeypatch, engine, "generate_grid_deployment")
    group_sets = _count_calls(monkeypatch, engine, "build_all_groups")
    environments = _count_calls(monkeypatch, engine, "build_environment")
    camp = Campaign(timing=TimingConfig(num_txops=10), loads_mbps=(4.0,),
                    gammas_db=(10.0, 20.0), k_values=(2, 3), num_deployments=2)
    run_campaign(camp, out_dir=tmp_path)
    assert len(deployments) == len(group_sets) == 2 * 2 * 2
    assert len(environments) == camp.num_runs


def test_every_campaign_builds_its_environments(monkeypatch, tmp_path):
    # as in dense-12x12: one (deployment, gamma, K), campaign after campaign
    deployments = _count_calls(monkeypatch, engine, "generate_grid_deployment")
    group_sets = _count_calls(monkeypatch, engine, "build_all_groups")
    camp = Campaign(timing=TimingConfig(num_txops=10), loads_mbps=(4.0,),
                    num_deployments=1)
    for n in (1, 2):
        run_campaign(camp, out_dir=tmp_path / str(n))
        assert len(deployments) == len(group_sets) == n


def _recording(monkeypatch, events, owner, name):
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        events.append((name, result))
        return result

    monkeypatch.setattr(owner, name, recording)


@pytest.mark.parametrize("scenario, load_bps, refuses, vector_view", [
    (ScenarioConfig(), 8e6, False, False),
    # TXOPs that end because every buffer empties
    (ScenarioConfig(), 1e6, False, False),
    # weak links: plans refused for unservable backlogs
    (ScenarioConfig(subarea_side_m=60.0, wall_count=5), 4e6, True, False),
    # the controller view in numpy vectors
    (ScenarioConfig(subarea_rows=7, subarea_cols=8), 4e6, False, True),
], ids=["3x3", "3x3-1mbps", "weak-links", "7x8"])
def test_slot_layers_are_called_once_per_slot(monkeypatch, scenario, load_bps,
                                              refuses, vector_view):
    # engine.host_us_per_slot and plan_slot.useful_ratio divide by these counts
    events = []
    for name in ("run_txop", "select_group", "plan_slot"):
        _recording(monkeypatch, events, engine, name)
    _recording(monkeypatch, events, engine.SimState, "deliver")
    assert (scenario.num_aps > engine.LIST_VIEW_MAX_APS) == vector_view
    refused = 0
    for kind in SCHEDULER_NAMES:
        events.clear()
        engine.run_simulation(SimulationConfig(
            scenario, TimingConfig(num_txops=60),
            TrafficConfig(load_bps_per_sta=load_bps), 20.0, 3, kind, seed=2))
        txop_events = []
        for name, result in events:
            if name != "run_txop":
                txop_events.append((name, result))
                continue
            names = [n for n, _ in txop_events]
            picks = [r for n, r in txop_events if n == "select_group"]
            plans = [r for n, r in txop_events if n == "plan_slot"]
            assert names.count("deliver") == len(result.slots), kind
            assert sum(pick is not None for pick in picks) == len(plans), kind
            assert sum(plan is None for plan in plans) <= 1, kind
            refused += sum(plan is None for plan in plans)
            txop_events = []
        assert sum(n == "run_txop" for n, _ in events) == 60
    if refuses:
        assert refused > 0


def test_bench_selftest_passes():
    # the benchmark's own smoke check: its metrics, output checks and exits
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("selftest passed")
