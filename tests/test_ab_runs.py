"""tools/ab_runs.py: an A/A reads identical rows, and a row that differs fails it."""

import importlib.util
import sys
from pathlib import Path

from mapcsim import campaign

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_runs.py"
spec = importlib.util.spec_from_file_location("ab_runs", TOOL)
ab_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_runs)

# the cheapest bench workload: one 12x12 deployment, six 1000-TXOP runs
ARGS = ["--parent", "WORKTREE", "--workload", "dense-12x12", "--seeds", "5", "--rounds", "1"]


def test_an_a_a_exits_0_with_identical_rows(capsys):
    assert ab_runs.main(ARGS) == 0
    out = capsys.readouterr().out
    assert "seed 5: 6 runs, best of 1: parent " in out
    assert "median parent/change over 1 seeds: " in out and "rows identical" in out
    assert not [name for name in sys.modules if name.startswith("mapcsim_parent")]


def test_a_change_side_that_alters_a_row_exits_1(monkeypatch, capsys):
    report_row = campaign.report_row

    def altered(spec, report):  # one packet more in run 3's row only
        row = report_row(spec, report)
        return row | {"packets_delivered": row["packets_delivered"] + (spec.run_id == 3)}

    # patches the change side alone: the parent side is its own package
    monkeypatch.setattr(campaign, "report_row", altered)
    assert ab_runs.main(ARGS) == 1
    captured = capsys.readouterr()
    assert "rows DIFFER" in captured.out
    assert "seed 5 round 0: report rows differ" in captured.err
