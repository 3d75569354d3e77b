"""The demos run end to end against the current public API, each in an
empty working directory (demos/04 writes demo_results/ there)."""

import hashlib
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


def test_group_formation_demo_output_is_pinned(capsys, monkeypatch, tmp_path):
    # candidate walk, groups and worst SINRs, byte for byte as recorded when
    # each group still carried its reference AP as a separate field
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "02_group_formation.py"), run_name="__main__")
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2e482fb92d2c5cecf43ce072b95a3fe95a65824cff6d4df49d91d055529aabe8"
