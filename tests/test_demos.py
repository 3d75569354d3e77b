"""The quick demos run end to end against the current public API.

demos/04 is left out: it writes demo_results/ and starts a worker pool.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_pathloss_and_link_adaptation.py",
                                    "02_group_formation.py",
                                    "03_single_run.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
