"""SR-compatible group formation on the 3x3 enterprise grid.

Generates a deployment, prints the candidate walk of one reference AP, and
shows how the SINR threshold gamma and the size cap K shape the groups the
central controller ends up with.
"""

import numpy as np

from mapcsim import (ScenarioConfig, build_all_groups, build_rssi_matrix,
                     candidate_order, generate_grid_deployment,
                     station_sinr_db)

cfg = ScenarioConfig()
dep = generate_grid_deployment(cfg, np.random.default_rng(1))
rssi = build_rssi_matrix(dep, cfg)

print(f"{dep.num_aps} APs, {dep.num_stations} stations, "
      f"sharing AP = {dep.sharing_ap_id}\n")

ref = 0
order = candidate_order(ref, rssi, dep)
print(f"candidate order for reference AP {ref} (weakest worst-case RSSI first):")
for ap in order:
    key = max(rssi[ap, s] for s in dep.stations_by_ap[ref])
    print(f"  AP {ap}: strongest RSSI at AP {ref}'s stations = {key:7.2f} dBm")

for gamma in (14.0, 20.0, 26.0):
    for k in (2, 3):
        groups = build_all_groups(rssi, dep, cfg.noise_dbm, gamma, k)
        sizes = sorted((len(g) for g in groups.groups), reverse=True)
        print(f"\ngamma={gamma:g} dB, K={k}: {len(groups.groups)} groups, "
              f"sizes {sizes}")
        for g in groups.groups:
            worst = min(
                station_sinr_db(ap, sta, g, rssi, cfg.noise_dbm)
                for ap in g for sta in dep.stations_by_ap[ap])
            print(f"  ref {g[0]}: members {g} "
                  f"(worst station SINR {worst:6.2f} dB)")
