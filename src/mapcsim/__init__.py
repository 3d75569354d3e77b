"""mapcsim: a discrete-time simulator of multi-AP coordinated spatial reuse.

Builds SR-compatible AP groups from pairwise RSSI data, schedules them into
periodic shared TXOPs under six policies, and reports throughput, delay and
slot-occupancy metrics.
"""

from .campaign import Campaign, load_campaign, run_campaign, run_seed
from .channel import (McsTable, build_rssi_matrix, data_rate_bps,
                      default_mcs_table, group_feasible, group_sinr_db,
                      path_loss_db, select_mcs, station_sinr_db)
from .config import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, arrival_probability,
                     load_simulation_config, save_simulation_config)
from .engine import (ArrivalSchedule, Environment, MetricsReport, SlotPlan,
                     TxopRecord, build_environment, draw_arrivals, plan_slot,
                     run_simulation, run_txop, step_arrivals)
from .grouping import GroupSet, build_all_groups, build_group, candidate_order
from .scenario import (Deployment, generate_grid_deployment,
                       nearest_ap_association)
from .scheduling import (SCHEDULER_NAMES, SchedulerKind, head_waits,
                         select_group)
from .stats import empirical_cdf

__version__ = "0.1.0"
