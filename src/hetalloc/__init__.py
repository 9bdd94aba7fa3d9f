"""Two-tier cellular resource allocation: drop simulator, three distributed
solvers (stable matching, damped max-sum message passing, distributed
auction), an exact oracle, and a benchmark harness.  The root exports the
README example's names; every other name is imported from its module."""

from .allocation import exhaustive_search, is_feasible
from .auction import run_auction
from .harness import SOLVERS, load_scenario
from .netmodel import build_topology
