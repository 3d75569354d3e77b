from functools import lru_cache
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (SCHEDULER_NAMES, ScenarioConfig, SchedulerKind, SimulationConfig,
                     TimingConfig, TrafficConfig, build_environment, head_waits,
                     select_group)
from mapcsim import engine, scheduling
from mapcsim.grouping import GroupSet
from mapcsim.scheduling import (_best_mean_group_loop, _best_mean_group_numpy,
                                _best_summed_group)
from oracles import select_reference

ALL_KINDS = list(SchedulerKind)


PERIOD = 0.005


def _run_view(ints, n_aps, counts=(0, 3), lags=(0, 4), consumed_us=(0, 3000)):
    """A controller view as a run hands it to select_group, drawn with
    `ints(lo, hi, n)`, n integers in [lo, hi] (each range below is one):
    the decision instant `consumed_us` into a TXOP; an AP with `counts`
    packets, at least one backlogged; a backlogged AP's head `lags` whole
    periods at or before the TXOP start; an empty AP's head +inf or a burst
    still to come, 1 to 3 periods after the start. Returns (counts, heads,
    now) and the oracle's head-of-line times, None for an empty AP."""
    txop = ints(4, 20, 1)[0]
    now = txop * PERIOD + ints(*consumed_us, 1)[0] * 1e-6
    drawn = ints(*counts, n_aps)
    busy = ints(0, n_aps - 1, 1)[0]
    drawn[busy] = max(drawn[busy], 1)
    oldest = [(txop - lag) * PERIOD if c else None
              for c, lag in zip(drawn, ints(*lags, n_aps))]
    heads = [t if t is not None else inf if k == 0 else (txop + k) * PERIOD
             for t, k in zip(oldest, ints(0, 3, n_aps))]
    return (drawn, heads, now), oldest


def _numpy_ints(rng):
    return lambda lo, hi, n: rng.integers(lo, hi + 1, size=n).tolist()


def _drawn_ints(data):
    return lambda lo, hi, n: data.draw(st.lists(st.integers(lo, hi), min_size=n,
                                                max_size=n))


SPEC_GROUPS = GroupSet([(0,), (1,), (2,), (0, 2)])


def test_numpk_single_spec_example():
    # counts [5,0,9]: AP2 leads; among its groups {2} (9) vs {0,2} (14)
    buf = [5, 0, 9], [0.5, inf, 0.5], 1.0
    assert select_group(SchedulerKind.NUMPK_SINGLE, SPEC_GROUPS, *buf) == (0, 2)


def test_numpk_group_spec_example():
    # {0,2} scores 14/2 = 7 < 9 of {2}
    buf = [5, 0, 9], [0.5, inf, 0.5], 1.0
    assert select_group(SchedulerKind.NUMPK_GROUP, SPEC_GROUPS, *buf) == (2,)


# 7x8 saturates at 1 Mbps/STA; at 0.2 its 168 stations offer 34 Mbps, near
# the 27 Mbps of 3x3 at 1 Mbps/STA
@pytest.mark.parametrize("rows, cols, load_bps", [(3, 3, 1e6), (7, 8, 0.2e6)],
                         ids=["lists-3x3", "vectors-7x8"])
def test_select_group_never_sees_an_empty_view(monkeypatch, rows, cols, load_bps):
    # run_txop ends a TXOP once no packet is queued. At these loads about
    # half the TXOPs empty every buffer before the cap; none of them may
    # then ask for one more pick. Every run keeps its queued total, whichever
    # half of the view its kind reads, so that is what each pick checks.
    state = None

    def checked(kind, groups, counts, heads, now):
        assert state.queued > 0, (kind, now)
        return select_group(kind, groups, counts, heads, now)

    emptied, run_txop = 0, engine.run_txop

    def counted(txop_state, *args):
        nonlocal emptied, state
        state = txop_state
        record = run_txop(txop_state, *args)
        emptied += bool(record.slots) and not txop_state.queued
        return record

    monkeypatch.setattr(engine, "select_group", checked)
    monkeypatch.setattr(engine, "run_txop", counted)
    scenario = ScenarioConfig(subarea_rows=rows, subarea_cols=cols)
    assert (scenario.num_aps > engine.LIST_VIEW_MAX_APS) == (rows > 3)
    for kind in SCHEDULER_NAMES:
        emptied = 0
        engine.run_simulation(SimulationConfig(
            scenario, TimingConfig(num_txops=100), TrafficConfig(load_bps_per_sta=load_bps),
            20.0, 3, kind, seed=1))
        assert emptied > 10, kind


@pytest.mark.parametrize("kind, view", [
    (SchedulerKind.OLDPK_GROUP, (None, np.array([0.5, inf, 0.2]))),
    (SchedulerKind.NUMPK_GROUP, (np.array([5, 0, 9]), None)),
], ids=["oldpk", "numpk"])
def test_vector_view_half_picks_the_numpy_scorer(monkeypatch, kind, view):
    # A run keeps only the half of the view its kind reads; that half alone
    # decides between the loop and the numpy scorer.
    def refuse(*args):
        raise AssertionError("loop scorer given a vector view")

    monkeypatch.setattr(scheduling, "_best_mean_group_loop", refuse)
    # waits 0.5 / 0 / 0.8 and counts 5 / 0 / 9: {2} leads either way
    assert select_group(kind, SPEC_GROUPS, *view, 1.0) == (2,)


def test_oldpk_single_spec_example():
    # waits 12 ms / none / 3 ms: AP0 leads; {0,2} aggregates 15 ms > {0} 12 ms
    now = 1.0
    buf = [4, 0, 7], [now - 0.012, inf, now - 0.003], now
    assert select_group(SchedulerKind.OLDPK_SINGLE, SPEC_GROUPS, *buf) == (0, 2)


def test_ctdma_tie_breaks_to_lowest_ap():
    groups = GroupSet([(0,), (1,)])
    buf = [4, 4], [0.2, 0.1], 1.0
    assert select_group(SchedulerKind.CTDMA_NUMPK, groups, *buf) == (0,)
    # equal waits likewise; distinct waits pick the older head-of-line
    tie = [4, 4], [0.3, 0.3], 1.0
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *tie) == (0,)
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *buf) == (1,)


def test_ctdma_always_singleton():
    groups = GroupSet([(0, 1, 2), (1,), (2,)])
    buf = [9, 5, 7], [0.1, 0.2, 0.3], 1.0
    assert select_group(SchedulerKind.CTDMA_NUMPK, groups, *buf) == (0,)
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *buf) == (0,)


def test_single_kind_selection_contains_top_ap():
    ints = _numpy_ints(np.random.default_rng(12))
    groups = GroupSet([(0,), (1,), (2,), (3,), (0, 2), (1, 3), (0, 1, 2)])
    for _ in range(500):
        buf, oldest = _run_view(ints, 4)
        counts, _, now = buf
        top_numpk = max(range(4), key=lambda a: (counts[a], -a))
        assert top_numpk in select_group(SchedulerKind.NUMPK_SINGLE, groups, *buf)
        top_oldpk = max((a for a in range(4) if counts[a]),
                        key=lambda a: (now - oldest[a], -a))
        assert top_oldpk in select_group(SchedulerKind.OLDPK_SINGLE, groups, *buf)


def test_selection_is_a_stored_group_or_singleton():
    ints = _numpy_ints(np.random.default_rng(13))
    groups = GroupSet([(0, 4), (1, 3), (2,), (3,), (4,), (0,), (1,)])
    stored = {frozenset(g) for g in groups.groups}
    for _ in range(300):
        buf, _ = _run_view(ints, 5)
        for kind in ALL_KINDS:
            sel = select_group(kind, groups, *buf)
            if kind.is_ctdma:
                assert len(sel) == 1
            else:
                assert frozenset(sel) in stored


def test_argmax_invariance():
    # heads drawn from a continuum, so no two waits tie and shifting every
    # time by 5 s cannot round a tie either way
    groups = GroupSet([(0,), (1,), (2,), (0, 2), (1, 2)])
    rng = np.random.default_rng(14)
    for _ in range(200):
        counts = [int(c) for c in rng.integers(0, 6, size=3)]
        if not any(counts):
            continue
        heads = [inf if c == 0 else float(rng.uniform(0, 0.9)) for c in counts]
        buf = counts, heads, 1.0
        scaled = [7 * c for c in counts], heads, 1.0
        for kind in (SchedulerKind.NUMPK_SINGLE, SchedulerKind.NUMPK_GROUP,
                     SchedulerKind.CTDMA_NUMPK):
            assert select_group(kind, groups, *buf) == select_group(kind, groups, *scaled)
        shifted = counts, [t + 5.0 for t in heads], 6.0
        for kind in (SchedulerKind.OLDPK_SINGLE, SchedulerKind.OLDPK_GROUP,
                     SchedulerKind.CTDMA_OLDPK):
            assert select_group(kind, groups, *buf) == select_group(kind, groups, *shifted)


def test_matches_exhaustive_scorer_on_random_states():
    # smaller replica of the acceptance-scale oracle run, with tie-rich draws
    rng = np.random.default_rng(15)
    ints = _numpy_ints(rng)
    for _ in range(300):
        n_aps = int(rng.integers(2, 10))
        singles = [(a,) for a in range(n_aps)]
        extra = []
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(2, min(n_aps, 3) + 1))
            members = tuple(int(a) for a in rng.choice(n_aps, size=size,
                                                       replace=False))
            extra.append(members)
        groups = GroupSet(singles + extra)
        member_lists = list(groups.groups)
        buf, oldest = _run_view(ints, n_aps)
        for kind in ALL_KINDS:
            assert select_group(kind, groups, *buf) == select_reference(
                kind.value, member_lists, buf[0], oldest, buf[2])


def test_matches_exhaustive_scorer_at_dense_scale():
    # 144 APs, one group per reference AP of 1-3 members (so the member
    # matrix is padded), counts and waits from small sets (so scores tie)
    rng = np.random.default_rng(16)
    ints = _numpy_ints(rng)
    n_aps = 144
    for _ in range(4):
        member_lists = []
        for ref in range(n_aps):
            others = [a for a in range(n_aps) if a != ref]
            size = int(rng.integers(1, 4))
            member_lists.append((ref, *(int(a) for a in rng.choice(
                others, size=size - 1, replace=False))))
        groups = GroupSet(member_lists)
        assert (groups.member_columns == -1).any()
        views = [_run_view(ints, n_aps) for _ in range(25)]
        # no positive wait: every backlogged head at `now`, a TXOP's first pick
        views.append(_run_view(ints, n_aps, lags=(0, 0), consumed_us=(0, 0)))
        # every AP backlogged with the same count: ties go to the lowest id
        views.append(_run_view(ints, n_aps, counts=(3, 3)))
        views.append(_run_view(ints, n_aps, counts=(3, 3), lags=(2, 2)))
        for buf, oldest in views:
            for kind in ALL_KINDS:
                assert select_group(kind, groups, *buf) == select_reference(
                    kind.value, member_lists, buf[0], oldest, buf[2])


def test_summary_waits():
    # a head after `now`, +inf or a burst still to come, waits 0.0; so does a
    # head at `now`
    assert head_waits([0.4, inf, 1.005, 1.0], 1.0) == [pytest.approx(0.6), 0.0, 0.0, 0.0]


@pytest.mark.parametrize("rows, num_groups", [(3, 8), (6, 36), (12, 144)])
def test_both_mean_scorers_match_exhaustive_scorer(rows, num_groups):
    # Each per-Group scorer on the stored groups of a real deployment, at
    # the scale that selects it and at the scales that select the other.
    env = build_environment(SimulationConfig(
        ScenarioConfig(subarea_rows=rows, subarea_cols=rows), seed=1))
    stored = env.groups
    assert len(stored) == num_groups
    n_aps = rows * rows
    # plus every singleton not stored, so group sizes mix at every scale
    mixed = GroupSet(stored.groups + tuple((a,) for a in range(n_aps)
                                           if (a,) not in stored.groups))
    assert len({len(m) for m in mixed.groups}) > 1
    ints = _numpy_ints(np.random.default_rng(rows))
    for groups in (stored, mixed):
        member_lists = list(groups.groups)
        for state in range(150):
            # counts and waits from small sets, so scores tie; every other
            # view at a TXOP start, where waits are whole periods
            buf, oldest = _run_view(ints, n_aps, consumed_us=(0, 3000 * (state % 2)))
            counts, heads, now = buf
            for kind, scores in ((SchedulerKind.NUMPK_GROUP, counts),
                                 (SchedulerKind.OLDPK_GROUP, head_waits(heads, now))):
                want = select_reference(kind.value, member_lists, counts, oldest, now)
                assert _best_mean_group_loop(groups, scores) == want, (kind, state)
                assert _best_mean_group_numpy(groups, scores) == want, (kind, state)
                assert select_group(kind, groups, *buf) == want, (kind, state)


def test_mean_scorer_follows_the_view(monkeypatch):
    # a run keeps lists on small grids and numpy vectors on large ones
    def refuse(groups, scores):
        raise AssertionError(f"wrong scorer for {type(scores).__name__} scores")

    for num_groups in (8, 144):
        groups = GroupSet([(a,) for a in range(num_groups)])
        counts, heads, now = [1] * num_groups, [0.5] * num_groups, 1.0
        for view, unused in (((counts, heads), "_best_mean_group_numpy"),
                             ((np.array(counts), np.array(heads)), "_best_mean_group_loop")):
            with monkeypatch.context() as patch:
                patch.setattr(scheduling, unused, refuse)
                for kind in (SchedulerKind.NUMPK_GROUP, SchedulerKind.OLDPK_GROUP):
                    assert select_group(kind, groups, *view, now) == (0,)


def test_summed_group_adds_left_to_right():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right but 0.6 by the
    # compensated built-in sum of Python 3.12+, which would tie (2, 3)'s
    # 0.3 + 0.3 and pick the lower index
    groups = GroupSet([(2, 3), (0, 1, 2)])
    scores = [0.1, 0.2, 0.3, 0.3]
    assert _best_summed_group(groups, groups.contains_index[2], scores) == (0, 1, 2)


@lru_cache(maxsize=3)
def _stored_groups(rows):
    """The stored groups of the seed-1 deployment on a rows x rows grid."""
    env = build_environment(SimulationConfig(
        ScenarioConfig(subarea_rows=rows, subarea_cols=rows), seed=1))
    return env.groups


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_oldest_head_pick_matches_exhaustive_scorer(data):
    # Views as a run keeps them, heads whole periods apart (so many tie);
    # the lags bounded by a drawn oldest lag, so the oldest heads tie often.
    rows = data.draw(st.sampled_from([3, 6, 12]), label="rows")
    groups = _stored_groups(rows)
    oldest_lag = data.draw(st.integers(0, 4), label="oldest_lag")
    (counts, heads, now), oldest = _run_view(_drawn_ints(data), rows * rows,
                                             lags=(0, oldest_lag))
    for kind in (SchedulerKind.OLDPK_SINGLE, SchedulerKind.CTDMA_OLDPK):
        assert select_group(kind, groups, counts, heads, now) == select_reference(
            kind.value, list(groups.groups), counts, oldest, now), kind


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_list_and_vector_views_pick_alike(data):
    # Views as a run keeps them, in both containers.
    rows = data.draw(st.sampled_from([3, 6, 12]), label="rows")
    groups = _stored_groups(rows)
    (counts, heads, now), oldest = _run_view(_drawn_ints(data), rows * rows)
    for kind in ALL_KINDS:
        want = select_reference(kind.value, list(groups.groups), counts, oldest, now)
        assert select_group(kind, groups, counts, heads, now) == want, kind
        assert select_group(kind, groups, np.array(counts, np.int64), np.array(heads),
                            now) == want, kind
