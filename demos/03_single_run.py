"""One full simulation run, with a look inside the first few TXOPs.

Runs the coordinated-TXOP engine for 2000 periods at 6 Mbps per station and
compares a spatial-reuse scheduler against its c-TDMA baseline on the same
deployment and the same arrivals.
"""

from mapcsim import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, run_simulation)

cfg = ScenarioConfig()
timing = TimingConfig(num_txops=2000)
traffic = TrafficConfig(load_bps_per_sta=6e6)

for kind in ("numpk-single", "ctdma-numpk"):
    trace = []
    config = SimulationConfig(cfg, timing, traffic, gamma_db=20.0,
                              max_group_size=3, scheduler=kind, seed=1)
    rep = run_simulation(config, txop_trace=trace)
    print(f"--- {kind} ---")
    print(f"throughput      {rep.throughput_bps / 1e6:8.2f} Mbps "
          f"(offered {traffic.load_bps_per_sta * cfg.num_stations / 1e6:g})")
    print(f"mean delay      {rep.mean_delay_s * 1e3:8.2f} ms")
    print(f"p95 delay       {rep.delay_percentile(0.95) * 1e3:8.2f} ms")
    print(f"mean occupancy  {rep.mean_occupancy:8.3f}")
    print(f"packets         arrived {rep.packets_arrived}, delivered "
          f"{rep.packets_delivered}, still buffered {rep.packets_remaining}")
    print("first three busy TXOPs:")
    shown = 0
    for i, rec in enumerate(trace):
        if not rec.slots:
            continue
        slots = ", ".join(
            f"{s.members}x{s.duration_us:.0f}us/{s.packets}pkt"
            for s in rec.slots)
        print(f"  txop {i} @ {rec.start_time_s * 1e3:.0f} ms: "
              f"{rec.total_duration_us:.0f} us total -> {slots}")
        shown += 1
        if shown == 3:
            break
    print()
