"""The summary of tools/bench_pairs.py, checked against synthetic invocations."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"txops_per_s": "higher", "setup_s": "lower"}


def _inv(side, seed, txops, setup, correct=True, sha="h", trace=0, workload="w"):
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "command": "python3 bench/run.py",
            "report": {"report": {"per_run_sha256": sha}},
            "result": {"correct": correct, "attempted": 6, "failed": 0 if correct else 1,
                       "metrics": {"txops_per_s": {"value": txops, "unit": "TXOP/s"},
                                   "setup_s": {"value": setup, "unit": "s"}}}}


def _pairs(parent, change, **kw):
    """Invocations of one pair per seed 1, 2, ...: (txops, setup) per side."""
    return [inv for seed, (p, c) in enumerate(zip(parent, change), 1)
            for inv in (_inv("parent", seed, *p, **kw), _inv("change", seed, *c, **kw))]


def test_ties_count_for_neither_side():
    invs = _pairs([(10.0, 1.0)] * 4, [(10.0, 1.0), (11.0, 1.0), (9.0, 1.0), (12.0, 1.0)])
    summary = bench_pairs.summarize(invs, BETTER)["w"]
    assert summary["txops_per_s"]["change_wins"] == "2/4"
    assert summary["setup_s"]["change_wins"] == "0/4"  # every pair a tie
    assert summary["seeds"] == [1, 2, 3, 4]
    assert summary["all_correct"]


def test_direction_comes_from_the_better_field():
    # the change is higher in both metrics: a win for txops_per_s, a loss
    # for setup_s, and the other way round once the fields are swapped
    invs = _pairs([(10.0, 1.0)] * 3, [(12.0, 2.0)] * 3)
    summary = bench_pairs.summarize(invs, BETTER)["w"]
    assert (summary["txops_per_s"]["change_wins"], summary["setup_s"]["change_wins"]) == (
        "3/3", "0/3")
    assert summary["setup_s"]["better"] == "lower"
    swapped = bench_pairs.summarize(invs, {"txops_per_s": "lower", "setup_s": "higher"})["w"]
    assert (swapped["txops_per_s"]["change_wins"], swapped["setup_s"]["change_wins"]) == (
        "0/3", "3/3")


def test_statistics_of_each_side():
    invs = _pairs([(10.0, 1.0), (20.0, 1.0), (30.0, 1.0), (40.0, 1.0), (50.0, 1.0)],
                  [(11.0, 1.0), (22.0, 1.0), (33.0, 1.0), (44.0, 1.0), (55.0, 1.0)])
    entry = bench_pairs.summarize(invs, BETTER)["w"]["txops_per_s"]
    assert entry["parent"] == {"median": 30.0, "q1": 20.0, "q3": 40.0,
                               "min": 10.0, "max": 50.0}
    assert entry["change"]["median"] == pytest.approx(33.0)
    assert entry["median_change"] == pytest.approx(0.1)
    assert entry["parent_iqr_over_median"] == pytest.approx(20.0 / 30.0)
    assert entry["per_pair_ratio"] == pytest.approx([1.1] * 5)


def test_an_incorrect_invocation_marks_the_summary_not_correct():
    invs = _pairs([(10.0, 1.0)] * 3, [(12.0, 1.0)] * 3)
    assert bench_pairs.summarize(invs, BETTER)["w"]["all_correct"]
    invs[3]["result"]["correct"] = False
    summary = bench_pairs.summarize(invs, BETTER)["w"]
    assert not summary["all_correct"]
    # the pair with the incorrect run is left out of the statistics
    assert summary["txops_per_s"]["change_wins"] == "2/2"
    invs[3]["result"] = None  # no result line at all
    assert not bench_pairs.summarize(invs, BETTER)["w"]["all_correct"]


def test_differing_csv_hashes_mark_the_summary_not_correct():
    invs = _pairs([(10.0, 1.0)] * 2, [(12.0, 1.0)] * 2)
    invs[2]["report"]["report"]["per_run_sha256"] = "other"
    summary = bench_pairs.summarize(invs, BETTER)["w"]
    assert not summary["all_correct"]
    assert summary["txops_per_s"]["change_wins"] == "2/2"


def test_traced_runs_are_summarized_apart():
    invs = _pairs([(10.0, 1.0)] * 2, [(12.0, 1.0)] * 2)
    invs += [_inv("parent", 9, 5.0, 1.0, trace=1), _inv("change", 9, 6.0, 1.0, trace=1)]
    summary = bench_pairs.summarize(invs, BETTER)["w"]
    assert summary["seeds"] == [1, 2]
    assert summary["traced"] == {"pairs": 1, "median": {
        "txops_per_s": {"parent": 5.0, "change": 6.0},
        "setup_s": {"parent": 1.0, "change": 1.0}}}
    assert summary["traced_correct"]
    invs[-1]["report"]["report"]["per_run_sha256"] = "other"
    assert not bench_pairs.summarize(invs, BETTER)["w"]["traced_correct"]


def test_every_traced_pair_enters_the_medians():
    invs = [inv for seed, (p, c) in enumerate([(5.0, 6.0), (7.0, 9.0), (3.0, 8.0)], 11)
            for inv in (_inv("parent", seed, p, 1.0, trace=1),
                        _inv("change", seed, c, 2.0, trace=1))]
    traced = bench_pairs.summarize(invs, BETTER)["w"]["traced"]
    assert traced["pairs"] == 3
    assert traced["median"]["txops_per_s"] == {"parent": 5.0, "change": 8.0}
    assert traced["median"]["setup_s"] == {"parent": 1.0, "change": 2.0}
    invs[1]["result"]["correct"] = False  # the change side of seed 11
    traced = bench_pairs.summarize(invs, BETTER)["w"]["traced"]
    assert traced["pairs"] == 2
    assert traced["median"]["txops_per_s"] == {"parent": 5.0, "change": 8.5}


def test_there_is_no_run_length_option():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--out", "x.json", "--what", "w",
                          "--seconds", "5"])


def test_parent_runs_first_on_odd_seeds():
    assert bench_pairs.pair_order(25103) == ("parent", "change")
    assert bench_pairs.pair_order(25102) == ("change", "parent")


@pytest.mark.parametrize("text, seeds", [("28101-28103", [28101, 28102, 28103]),
                                         ("5,7", [5, 7]), ("9", [9])])
def test_seed_arguments(text, seeds):
    assert bench_pairs.parse_workload_seeds(f"dense-12x12:{text}") == ("dense-12x12", seeds)


@pytest.mark.parametrize("text", ["5-3", "9-8"])
def test_a_backwards_seed_range_is_refused(text, tmp_path, capsys):
    # "5-3" once parsed to no seeds, and the tool ran nothing and exited 0
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError, match="is empty"):
        bench_pairs.parse_workload_seeds(f"dense-12x12:{text}")
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--out", str(out), "--what", "w",
                          "--pairs", f"dense-12x12:{text}"])
    assert exc.value.code == 2
    assert "is empty" in capsys.readouterr().err
    assert not out.exists()


def test_a_call_that_runs_nothing_is_refused(tmp_path, capsys):
    # with neither option the tool once built both sides, ran nothing,
    # wrote no file and exited 0
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--out", str(out), "--what", "w"])
    assert exc.value.code == 2
    assert "at least one --pairs or --traced" in capsys.readouterr().err
    assert not out.exists()
