"""Views of slot plans and queues that only tests read, derived from a
plan's runs, the run's arrival schedule and its airtime table.

A plan's transmission, the tuple (ap, runs, window, requeued, packets) of
`SlotPlan.transmissions`, holds only what `SimState.deliver` commits: the
AP's runs (lo, hi, head, tail) over the schedule, its queue after the slot
and the packets it sends. The views below take such a tuple, expand its
runs per burst, group them into A-MPDU segments and sum the AP's airtime.
They read the schedule through a `source`: anything with a `SimState`'s
`stations`, `txops`, `period_s` and `burst_packets`. A hand-built test
passes its own state; a finished run passes `fresh_state(config)`, a new
state over the same schedule, since a plan keeps no reference to its run.
A set's per-packet airtimes are its dict in the run's
`build_environment(config).airtimes`.
"""

import numpy as np

from mapcsim import arrival_probability, build_environment, draw_arrivals
from mapcsim.engine import SimState


def taken(tx, source):
    """(count, arrival_s, station) per burst `tx` sends from, in queue
    order; a burst's arrival is txops[i] * period, as in the engine."""
    stations, txops, period = source.stations, source.txops, source.period_s
    burst = source.burst_packets
    _, runs, _, _, _ = tx
    return [(tail if i == hi - 1 else head if i == lo else burst,
             txops[i] * period, stations[i])
            for lo, hi, head, tail in runs for i in range(lo, hi)]


def mcs_labels(airtime_us, config):
    """The station -> MCS map of a set's airtime dict: the MCS of a station
    is the one whose per-packet airtime it is in `config`, distinct per MCS."""
    per_packet_us = config.packet_airtimes_us
    assert len(set(per_packet_us)) == len(per_packet_us)
    return {sta: per_packet_us.index(us) for sta, us in airtime_us.items()}


def segments(tx, source, mcs):
    """(station, mcs, packet count) per station `tx` sends to, by first
    appearance, with the MCS from the station -> MCS map `mcs`: the
    `mcs_labels` of a run's set, or a hand-built test's own labels."""
    counts = {}
    for k, _, sta in taken(tx, source):
        counts[sta] = counts.get(sta, 0) + k
    return [(sta, mcs[sta], k) for sta, k in counts.items()]


def airtime_us(tx, source, per_packet_us, timing):
    """The AP's airtime in the slot: the PHY preamble plus k packets of
    `per_packet_us[station]` per burst, summed in queue order as
    `plan_slot` sums it, so the float is the one it compared."""
    acc = timing.phy_preamble_us
    for k, _, sta in taken(tx, source):
        acc += k * per_packet_us[sta]
    return acc


def bursts(state, ap):
    """AP `ap`'s whole queue, oldest first, as [arrival_s, station, count]."""
    period, stations, txops = state.period_s, state.stations, state.txops
    queue = [[txops[i] * period, stations[i], n] for i, n in state.requeued[ap]]
    start = len(queue)
    i = state.cursor[ap]
    while i < state.ends[ap] and txops[i] <= state.txop:
        queue.append([txops[i] * period, stations[i], state.burst_packets])
        i += 1
    if len(queue) > start:
        queue[start][2] -= state.sent[ap]
    return queue


def traffic_rng(seed):
    """A fresh traffic stream of `seed`: its `SeedSequence`'s second child,
    the one a run draws its arrivals from."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])


def run_schedule(config):
    """The arrival schedule of run `config`, drawn again: the environment is
    rebuilt (or shared) for the seed, the traffic stream is fresh, and the
    draw is deterministic, so the schedule equals the run's."""
    timing, traffic = config.timing, config.traffic
    p = arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, timing.period_s)
    return draw_arrivals(build_environment(config).deployment, p,
                         traffic_rng(config.seed), timing.num_txops)


def fresh_state(config):
    """A new state over run `config`'s schedule: a source for the views of
    its trace."""
    return SimState(run_schedule(config), config.traffic, config.timing.period_s)
