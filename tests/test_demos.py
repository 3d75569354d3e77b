"""The demos run end to end against the current public API, each in an
empty working directory (demos/04 writes demo_results/ there)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_pathloss_and_link_adaptation.py",
                                    "02_group_formation.py",
                                    "03_single_run.py",
                                    "04_load_sweep_campaign.py"])
def test_demo_runs(script, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
