"""Offline solvers: exact branch and bound, LP relaxation, greedy, local search."""

from repro.offline.exact import ExactSolution, solve_exact
from repro.offline.greedy_offline import (
    GreedySolution,
    greedy_density_packing,
    greedy_offline_packing,
)
from repro.offline.local_search import LocalSearchSolution, local_search_packing
from repro.offline.lp import LpBound, dual_feasible_bound, lp_backend, lp_relaxation_bound

__all__ = [
    "ExactSolution",
    "solve_exact",
    "GreedySolution",
    "greedy_density_packing",
    "greedy_offline_packing",
    "LocalSearchSolution",
    "local_search_packing",
    "LpBound",
    "dual_feasible_bound",
    "lp_backend",
    "lp_relaxation_bound",
]
