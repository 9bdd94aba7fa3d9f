"""Two-tier cellular resource allocation: drop simulator, three distributed
solvers (stable matching, damped max-sum message passing, distributed
auction), an exact oracle, and a benchmark harness."""

from .allocation import (Allocation, EvalReport, OracleBudgetError,
                         SolverResult, exhaustive_search, is_feasible,
                         oracle_cost, search_space_size, sum_rate,
                         weighted_benefit)
from .auction import (AuctionState, bid_increment, local_auction_round,
                      run_auction)
from .harness import (SOLVERS, RunMetrics, ScenarioFormatError, load_scenario,
                      run_experiment, serialize_scenario, write_metrics_csv)
from .matching import (Matching, PreferenceProfile, build_rb_profile,
                       build_transmitter_profile, find_blocking_pair,
                       match_alignments, preference_orders, run_stable_matching)
from .msgpass import MessageState, extract_allocation, run_message_passing
from .netmodel import (ConfigError, ContractError, Network, ScenarioConfig,
                       aggregated_interference, benefit_table, build_topology,
                       cost_table, interference_vector, shannon_rate,
                       sinr_macro, sinr_underlay, utility_table)

__version__ = "0.1.0"
