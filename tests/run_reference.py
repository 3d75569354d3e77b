"""An independent whole-run simulator to check `run_simulation` against.

Written from scratch in the style of `oracles.py`: each AP's FIFO is a
plain deque of [arrival_s, station, count] bursts, one TXOP follows the
timeline of the engine docstring step by step, and every slot's AP set is
picked by `oracles.select_reference`. Only the static stages (deployment,
RSSI, groups and the per-link MCS and airtime), which have their own
oracles, come from the package; nothing here imports `mapcsim.engine`.

The float sums follow the timeline in the order it is spent, so the
results can be compared exactly: a TXOP's airtime starts at the
handshake, each slot adds its MAP-TF, Te and overhead and then its own
length, and a slot delivers at the TXOP start plus the airtime so far.
"""

from collections import deque

import numpy as np

from mapcsim.channel import (build_rssi_matrix, data_rate_bps, select_mcs,
                             station_sinr_db)
from mapcsim.grouping import build_all_groups
from mapcsim.scenario import generate_grid_deployment
from oracles import select_reference


def _link_airtimes(members, rssi, stations_by_ap, config):
    """ap -> {station: (mcs, per-packet airtime in us) or None} while all
    of `members` transmit; None below the lowest MCS threshold."""
    scenario, table = config.scenario, config.mcs_table
    out = {}
    for ap in members:
        out[ap] = {}
        for sta in stations_by_ap[ap]:
            sinr = station_sinr_db(ap, sta, members, rssi, scenario.noise_dbm)
            mcs = select_mcs(sinr, table)
            out[ap][sta] = None if mcs is None else (
                mcs, config.traffic.packet_bits / data_rate_bps(mcs, table, config.timing) * 1e6)
    return out


def _drain(queue, rates, cap_us, preamble_us):
    """One AP's strict-FIFO drain within `cap_us` of airtime: bursts to a
    station without an MCS are skipped and stay where they are, and the
    first packet that does not fit (to within 1e-9 of its airtime) ends
    the drain, cutting its burst. Takes what it sends off `queue` and
    returns the AP's airtime and the (arrival_s, station, count) taken,
    oldest first."""
    airtime = preamble_us
    taken, emptied = [], []
    for pos, burst in enumerate(queue):
        arrival, sta, count = burst
        link = rates[sta]
        if link is None:
            continue
        per_packet = link[1]
        k = min(count, int((cap_us - airtime) / per_packet + 1e-9))
        if k <= 0:
            break
        airtime += k * per_packet
        taken.append((arrival, sta, k))
        if k < count:
            burst[2] -= k
            break
        emptied.append(pos)
    for pos in reversed(emptied):
        del queue[pos]
    return airtime, taken


def reference_run(config):
    """Simulate `config` from scratch.

    Returns (txops, report): per TXOP a tuple (handshake_us, slots,
    total_us), each slot being (members, [(ap, station, packets) per A-MPDU
    segment, APs in member order and stations by first appearance],
    duration_us); and a dict of every `MetricsReport` field.
    """
    scenario, timing, traffic = config.scenario, config.timing, config.traffic
    deploy_ss, traffic_ss = np.random.SeedSequence(config.seed).spawn(2)
    deployment = generate_grid_deployment(scenario, np.random.default_rng(deploy_ss))
    rssi = build_rssi_matrix(deployment, scenario)
    group_set = build_all_groups(rssi, deployment, scenario.noise_dbm,
                                 config.gamma_db, config.max_group_size)
    groups = [group.members for group in group_set.groups]
    rng = np.random.default_rng(traffic_ss)

    period_s = timing.period_ms * 1e-3
    txop_max_us = timing.txop_max_ms * 1e3
    handshake_us = timing.map_rts_us + timing.te_us + timing.map_cts_us + timing.te_us
    per_slot_us = timing.map_tf_us + timing.te_us + timing.slot_overhead_us
    burst = traffic.burst_packets
    p = (traffic.load_bps_per_sta * period_s
         / (burst * traffic.packet_bytes * 8))

    queues = [deque() for _ in range(deployment.num_aps)]
    counts = [0] * deployment.num_aps
    airtimes = {}
    delays = []  # one per packet, in the order sent
    arrived = 0
    txops = []
    for n in range(timing.num_txops):
        start_s = n * period_s
        for sta in np.flatnonzero(rng.random(deployment.num_stations) < p):
            ap = deployment.association[sta]
            queues[ap].append([start_s, int(sta), burst])
            counts[ap] += burst
            arrived += burst
        if not any(queues) and not timing.always_handshake:
            txops.append((0.0, [], 0.0))
            continue
        consumed = handshake_us
        slots = []
        while True:
            cap_us = txop_max_us - consumed - timing.map_tf_us - timing.te_us \
                - timing.slot_overhead_us
            if cap_us <= timing.phy_preamble_us:
                break
            oldest = [q[0][0] if q else None for q in queues]
            members = select_reference(config.scheduler, groups, counts, oldest,
                                       start_s + consumed * 1e-6)
            if members is None:
                break
            if members not in airtimes:
                airtimes[members] = _link_airtimes(
                    members, rssi, deployment.stations_by_ap, config)
            duration = 0.0
            sent = []
            for ap in members:
                airtime, taken = _drain(queues[ap], airtimes[members][ap], cap_us,
                                        timing.phy_preamble_us)
                if taken:
                    counts[ap] -= sum(k for _, _, k in taken)
                    duration = max(duration, airtime)
                    sent.append((ap, taken))
            if not sent:
                break
            consumed += per_slot_us + duration
            delivery_s = start_s + consumed * 1e-6
            segments = []
            for ap, taken in sent:
                per_station = {}
                for arrival, sta, k in taken:
                    delays += [delivery_s - arrival] * k
                    per_station[sta] = per_station.get(sta, 0) + k
                segments += [(ap, sta, k) for sta, k in per_station.items()]
            slots.append((members, segments, duration))
        txops.append((handshake_us, slots, consumed))

    delays = np.array(delays, dtype=float)
    delivered = len(delays)
    report = {
        "throughput_bps": delivered * traffic.packet_bits / (timing.num_txops * period_s),
        "mean_delay_s": float(delays.mean()) if delivered else float("nan"),
        "delays_sorted_s": np.sort(delays),
        "per_txop_occupancy": np.array([total / txop_max_us for _, _, total in txops]),
        "packets_arrived": arrived,
        "packets_delivered": delivered,
        "packets_remaining": sum(b[2] for q in queues for b in q),
    }
    return txops, report
