from functools import lru_cache
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (ScenarioConfig, SchedulerKind, build_environment,
                     head_waits, select_group)
from mapcsim import scheduling
from mapcsim.grouping import Group, GroupSet
from mapcsim.scheduling import (_best_mean_group_loop, _best_mean_group_numpy,
                                _best_summed_group)
from oracles import select_reference

ALL_KINDS = list(SchedulerKind)


def _group_set(member_lists):
    return GroupSet([Group(members[0], tuple(members)) for members in member_lists])


def _view(counts, oldest, now=1.0):
    """select_group's (counts, heads, now) view of `counts` and `oldest`,
    where None marks an empty buffer (as the oracle takes it) and the heads
    hold +inf."""
    return counts, [inf if t is None else t for t in oldest], now


SPEC_GROUPS = _group_set([(0,), (1,), (2,), (0, 2)])


def test_numpk_single_spec_example():
    # counts [5,0,9]: AP2 leads; among its groups {2} (9) vs {0,2} (14)
    buf = _view([5, 0, 9], [0.5, None, 0.5])
    assert select_group(SchedulerKind.NUMPK_SINGLE, SPEC_GROUPS, *buf) == (0, 2)


def test_numpk_group_spec_example():
    # {0,2} scores 14/2 = 7 < 9 of {2}
    buf = _view([5, 0, 9], [0.5, None, 0.5])
    assert select_group(SchedulerKind.NUMPK_GROUP, SPEC_GROUPS, *buf) == (2,)


def test_all_empty_returns_none():
    buf = _view([0, 0, 0], [None, None, None])
    for kind in ALL_KINDS:
        assert select_group(kind, SPEC_GROUPS, *buf) is None


def test_oldpk_single_spec_example():
    # waits 12 ms / none / 3 ms: AP0 leads; {0,2} aggregates 15 ms > {0} 12 ms
    now = 1.0
    buf = _view([4, 0, 7], [now - 0.012, None, now - 0.003], now)
    assert select_group(SchedulerKind.OLDPK_SINGLE, SPEC_GROUPS, *buf) == (0, 2)


def test_ctdma_tie_breaks_to_lowest_ap():
    groups = _group_set([(0,), (1,)])
    buf = _view([4, 4], [0.2, 0.1])
    assert select_group(SchedulerKind.CTDMA_NUMPK, groups, *buf) == (0,)
    # equal waits likewise; distinct waits pick the older head-of-line
    tie = _view([4, 4], [0.3, 0.3])
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *tie) == (0,)
    buf2 = _view([4, 4], [0.2, 0.1])
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *buf2) == (1,)


def test_ctdma_always_singleton():
    groups = _group_set([(0, 1, 2), (1,), (2,)])
    buf = _view([9, 5, 7], [0.1, 0.2, 0.3])
    assert select_group(SchedulerKind.CTDMA_NUMPK, groups, *buf) == (0,)
    assert select_group(SchedulerKind.CTDMA_OLDPK, groups, *buf) == (0,)


def test_single_kind_selection_contains_top_ap():
    rng = np.random.default_rng(12)
    groups = _group_set([(0,), (1,), (2,), (3,), (0, 2), (1, 3), (0, 1, 2)])
    for _ in range(500):
        counts = [int(c) for c in rng.integers(0, 5, size=4)]
        oldest = [None if c == 0 else 1.0 - float(rng.integers(1, 6)) / 100
                  for c in counts]
        buf = _view(counts, oldest)
        if not any(counts):
            continue
        top_numpk = max(range(4), key=lambda a: (counts[a], -a))
        sel = select_group(SchedulerKind.NUMPK_SINGLE, groups, *buf)
        assert top_numpk in sel
        waits = [0.0 if t is None else 1.0 - t for t in oldest]
        top_oldpk = max((a for a in range(4) if counts[a]),
                        key=lambda a: (waits[a], -a))
        sel = select_group(SchedulerKind.OLDPK_SINGLE, groups, *buf)
        assert top_oldpk in sel


def test_selection_is_a_stored_group_or_singleton():
    rng = np.random.default_rng(13)
    groups = _group_set([(0, 4), (1, 3), (2,), (3,), (4,), (0,), (1,)])
    stored = {frozenset(g.members) for g in groups.groups}
    for _ in range(300):
        counts = [int(c) for c in rng.integers(0, 4, size=5)]
        oldest = [None if c == 0 else float(rng.uniform(0, 1)) for c in counts]
        buf = _view(counts, oldest, now=2.0)
        for kind in ALL_KINDS:
            sel = select_group(kind, groups, *buf)
            if sel is None:
                assert not any(counts)
            elif kind.is_ctdma:
                assert len(sel) == 1
            else:
                assert frozenset(sel) in stored


def test_argmax_invariance():
    groups = _group_set([(0,), (1,), (2,), (0, 2), (1, 2)])
    rng = np.random.default_rng(14)
    for _ in range(200):
        counts = [int(c) for c in rng.integers(0, 6, size=3)]
        if not any(counts):
            continue
        oldest = [None if c == 0 else float(rng.uniform(0, 0.9)) for c in counts]
        buf = _view(counts, oldest)
        scaled = _view([7 * c for c in counts], oldest)
        for kind in (SchedulerKind.NUMPK_SINGLE, SchedulerKind.NUMPK_GROUP,
                     SchedulerKind.CTDMA_NUMPK):
            assert select_group(kind, groups, *buf) == select_group(kind, groups, *scaled)
        shifted = _view(counts,
                           [None if t is None else t + 5.0 for t in oldest],
                           now=buf[2] + 5.0)
        for kind in (SchedulerKind.OLDPK_SINGLE, SchedulerKind.OLDPK_GROUP,
                     SchedulerKind.CTDMA_OLDPK):
            assert select_group(kind, groups, *buf) == select_group(kind, groups, *shifted)


def test_matches_exhaustive_scorer_on_random_states():
    # smaller replica of the acceptance-scale oracle run, with tie-rich draws
    rng = np.random.default_rng(15)
    for _ in range(300):
        n_aps = int(rng.integers(2, 10))
        singles = [(a,) for a in range(n_aps)]
        extra = []
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(2, min(n_aps, 3) + 1))
            members = tuple(int(a) for a in rng.choice(n_aps, size=size,
                                                       replace=False))
            extra.append(members)
        groups = _group_set(singles + extra)
        member_lists = [g.members for g in groups.groups]
        counts = [int(c) for c in rng.integers(0, 4, size=n_aps)]
        oldest = [None if c == 0 else 1.0 - float(rng.integers(0, 4)) / 8
                  for c in counts]
        buf = _view(counts, oldest)
        for kind in ALL_KINDS:
            assert select_group(kind, groups, *buf) == select_reference(
                kind.value, member_lists, counts, oldest, buf[2])


def test_matches_exhaustive_scorer_at_dense_scale():
    # 144 APs, one group per reference AP of 1-3 members (so the member
    # matrix is padded), counts and waits from small sets (so scores tie)
    rng = np.random.default_rng(16)
    n_aps = 144
    for _ in range(4):
        member_lists = []
        for ref in range(n_aps):
            others = [a for a in range(n_aps) if a != ref]
            size = int(rng.integers(1, 4))
            member_lists.append((ref, *(int(a) for a in rng.choice(
                others, size=size - 1, replace=False))))
        groups = _group_set(member_lists)
        assert (groups.member_columns == -1).any()
        states = []
        for _ in range(25):
            counts = [int(c) for c in rng.integers(0, 4, size=n_aps)]
            oldest = [None if c == 0 else 1.0 - float(rng.integers(0, 4)) / 8
                      for c in counts]
            states.append((counts, oldest))
        # no positive wait: every backlogged head at `now` (waits 0.0) or
        # after it (waits <= 0), so the per-AP pick falls back to the loop
        counts = [int(c) for c in rng.integers(0, 4, size=n_aps)]
        states.append((counts, [None if c == 0 else 1.0 for c in counts]))
        states.append((counts, [None if c == 0 else 1.0 + float(rng.integers(0, 4)) / 8
                                for c in counts]))
        # every AP backlogged with the same count: ties go to the lowest id
        tied = [3] * n_aps
        states.append((tied, [1.0 - float(rng.integers(0, 4)) / 8 for _ in tied]))
        states.append((tied, [0.5] * n_aps))
        for counts, oldest in states:
            buf = _view(counts, oldest)
            for kind in ALL_KINDS:
                assert select_group(kind, groups, *buf) == select_reference(
                    kind.value, member_lists, counts, oldest, buf[2])


def test_summary_waits():
    # an AP with no packets waits 0.0, whether its head is +inf or a burst
    # still to come
    assert head_waits([3, 0, 0], [0.4, inf, 1.005], 1.0) == [pytest.approx(0.6), 0.0, 0.0]


@pytest.mark.parametrize("rows, num_groups", [(3, 8), (6, 36), (12, 144)])
def test_both_mean_scorers_match_exhaustive_scorer(rows, num_groups):
    # Each per-Group scorer on the stored groups of a real deployment, at
    # the scale that selects it and at the scales that select the other.
    env, _ = build_environment(
        ScenarioConfig(subarea_rows=rows, subarea_cols=rows), 20.0, 3, 1)
    stored = env.groups
    assert len(stored) == num_groups
    n_aps = rows * rows
    # plus every singleton not stored, so group sizes mix at every scale
    mixed = GroupSet(stored.groups + [Group(a, (a,)) for a in range(n_aps)
                                      if (a,) not in stored.member_tuples])
    assert len({len(m) for m in mixed.member_tuples}) > 1
    rng = np.random.default_rng(rows)
    for groups in (stored, mixed):
        member_lists = list(groups.member_tuples)
        for state in range(150):
            # counts and waits from small sets, so scores tie; empty APs
            # wait 0.0, and heads after `now` wait less than 0
            counts = [int(c) for c in rng.integers(0, 4, size=n_aps)]
            if not any(counts):
                continue
            if state % 2:
                oldest = [None if c == 0 else 1.0 - float(rng.integers(-2, 4)) / 8
                          for c in counts]
            else:
                oldest = [None if c == 0 else 1.0 - float(rng.uniform(-0.25, 0.75))
                          for c in counts]
            buf = _view(counts, oldest)
            for kind, scores in ((SchedulerKind.NUMPK_GROUP, counts),
                                 (SchedulerKind.OLDPK_GROUP, head_waits(*buf))):
                want = select_reference(kind.value, member_lists, counts,
                                        oldest, buf[2])
                assert _best_mean_group_loop(groups, scores) == want, (kind, state)
                assert _best_mean_group_numpy(groups, scores) == want, (kind, state)
                assert select_group(kind, groups, *buf) == want, (kind, state)


def test_mean_scorer_follows_the_view(monkeypatch):
    # a run keeps lists on small grids and numpy vectors on large ones
    def refuse(groups, scores):
        raise AssertionError(f"wrong scorer for {type(scores).__name__} scores")

    for num_groups in (8, 144):
        groups = _group_set([(a,) for a in range(num_groups)])
        counts, heads, now = _view([1] * num_groups, [0.5] * num_groups)
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
    groups = _group_set([(2, 3), (0, 1, 2)])
    scores = [0.1, 0.2, 0.3, 0.3]
    assert _best_summed_group(groups, groups.contains_index[2], scores) == (0, 1, 2)


@lru_cache(maxsize=3)
def _stored_groups(rows):
    """The stored groups of the seed-1 deployment on a rows x rows grid."""
    env, _ = build_environment(ScenarioConfig(subarea_rows=rows, subarea_cols=rows),
                               20.0, 3, 1)
    return env.groups


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_oldest_head_pick_matches_exhaustive_scorer(data):
    # Views as a run keeps them: a head exactly when the count is positive,
    # heads whole periods apart (n * period, so many tie), the decision
    # instant inside a TXOP, and some heads after it; in some views no head
    # lies before it.
    rows = data.draw(st.sampled_from([3, 6, 12]), label="rows")
    groups = _stored_groups(rows)
    n_aps, period = rows * rows, 0.005
    txop = data.draw(st.integers(4, 20), label="txop")
    consumed_us = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
                            label="consumed_us")
    now = txop * period + consumed_us * 1e-6
    counts = data.draw(st.lists(st.integers(0, 3), min_size=n_aps, max_size=n_aps),
                       label="counts")
    oldest_lag = data.draw(st.integers(-1, 4), label="oldest_lag")
    lags = data.draw(st.lists(st.integers(-2, oldest_lag), min_size=n_aps,
                              max_size=n_aps), label="lags")
    oldest = [(txop - lag) * period if c else None for c, lag in zip(counts, lags)]
    buf = _view(counts, oldest, now)
    for kind in (SchedulerKind.OLDPK_SINGLE, SchedulerKind.CTDMA_OLDPK):
        assert select_group(kind, groups, *buf) == select_reference(
            kind.value, list(groups.member_tuples), counts, oldest, now), kind


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_list_and_vector_views_pick_alike(data):
    # Views as a run keeps them, in both containers: a backlogged AP's head
    # at or before the TXOP start, an empty AP's head +inf or a burst still
    # to come, a whole number of periods after it.
    rows = data.draw(st.sampled_from([3, 6, 12]), label="rows")
    groups = _stored_groups(rows)
    n_aps, period = rows * rows, 0.005
    txop = data.draw(st.integers(4, 20), label="txop")
    now = txop * period + data.draw(st.floats(0.0, 3000.0), label="consumed_us") * 1e-6
    counts = data.draw(st.lists(st.integers(0, 3), min_size=n_aps, max_size=n_aps),
                       label="counts")
    lags = data.draw(st.lists(st.integers(0, 4), min_size=n_aps, max_size=n_aps),
                     label="lags")
    to_come = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=n_aps,
                                 max_size=n_aps), label="to_come")
    oldest = [(txop - lag) * period if c else None for c, lag in zip(counts, lags)]
    heads = [t if t is not None else inf if k is None else (txop + k) * period
             for t, k in zip(oldest, to_come)]
    for kind in ALL_KINDS:
        want = select_reference(kind.value, list(groups.member_tuples), counts, oldest, now)
        assert select_group(kind, groups, counts, heads, now) == want, kind
        assert select_group(kind, groups, np.array(counts, np.int64), np.array(heads),
                            now) == want, kind
