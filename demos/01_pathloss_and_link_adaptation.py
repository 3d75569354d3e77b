"""Path loss and SINR-based link adaptation, step by step.

Walks the enterprise indoor path-loss curve, shows the breakpoint at 10 m,
and maps the resulting SNR of a single AP-station link onto MCS indices and
PHY rates.
"""

from mapcsim import (ScenarioConfig, TimingConfig, data_rate_bps,
                     default_mcs_table, path_loss_db, select_mcs)

cfg = ScenarioConfig()
timing = TimingConfig()
table = default_mcs_table()

print(f"carrier {cfg.carrier_freq_ghz} GHz, {cfg.wall_count} walls, "
      f"breakpoint {cfg.breakpoint_m} m, tx power {cfg.tx_power_dbm} dBm, "
      f"noise {cfg.noise_dbm} dBm\n")

print(f"{'d [m]':>7} {'PL [dB]':>9} {'RSSI [dBm]':>11} {'SNR [dB]':>9} "
      f"{'MCS':>4} {'rate [Mbps]':>12}")
for d in (0.5, 1, 2, 3, 5, 7.07, 10, 14.14, 20, 28.3, 40):
    pl = path_loss_db(d, cfg.carrier_freq_ghz, cfg.wall_count, cfg.breakpoint_m)
    rssi = cfg.tx_power_dbm - pl
    snr = rssi - cfg.noise_dbm
    mcs = select_mcs(snr, table)
    rate = data_rate_bps(mcs, table, timing) / 1e6 if mcs is not None else 0.0
    print(f"{d:7.2f} {pl:9.2f} {rssi:11.2f} {snr:9.2f} "
          f"{mcs if mcs is not None else '-':>4} {rate:12.2f}")

# breakpoint continuity: the 35*log10(d/Bp) term starts at exactly zero
eps = 1e-6
below = path_loss_db(cfg.breakpoint_m - eps, cfg.carrier_freq_ghz, cfg.wall_count)
above = path_loss_db(cfg.breakpoint_m + eps, cfg.carrier_freq_ghz, cfg.wall_count)
print(f"\nPL just below/above the breakpoint: {below:.4f} / {above:.4f} dB "
      f"(jump {abs(above - below):.2e})")

print("\nMCS table (20 MHz, 1 spatial stream):")
for mcs, (min_sinr, bits) in enumerate(zip(table.min_sinrs, table.bits_per_symbol)):
    rate = data_rate_bps(mcs, table, timing) / 1e6
    print(f"  MCS {mcs:2d}: needs SINR >= {min_sinr:4.1f} dB, "
          f"{bits:6.1f} bits/symbol -> {rate:6.2f} Mbps")
