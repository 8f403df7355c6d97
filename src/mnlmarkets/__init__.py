"""Bertrand-MNL markets: equilibria, online assortment policies, segmentation.

Each public name is listed once, in _EXPORTS, with the submodule that
defines it. A submodule is imported the first time one of its names is
read from the package (PEP 562), so ``import mnlmarkets`` loads none of them.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys([
        "DomainError", "EquilibriumOutcome", "ItemCatalog", "SolverError", "best_response_price",
        "equilibrium_outcome", "mnl_demand", "perishable_outcome", "price_game_potential",
        "quality_for_target_revenue", "solo_revenue_for_quality", "solve_no_purchase", "solve_share",
    ], "equilibrium"),
    **dict.fromkeys([
        "ColumnSet", "LpSolution", "enumerate_columns", "simplex_solve", "solve_opt", "solve_opt_fixed_rev",
    ], "lp"),
    **dict.fromkeys([
        "BipartiteMarket", "ConsistencyReport", "EquilibriumReport", "VerificationReport",
        "check_consistency", "network_demand", "seller_best_response", "seller_utility",
        "solve_network_equilibrium", "verify_equilibrium",
    ], "network"),
    **dict.fromkeys([
        "OnlineInstance", "classify_heavy", "exponential_weight", "greedy_all_next", "hybrid_next",
        "modified_hybrid_next", "solo_demands",
    ], "policies"),
    **dict.fromkeys([
        "FlowNetwork", "Pool", "Segmentation", "build_flow_network", "compare_segmented_vs_whole",
        "equilibrate_pool", "max_weight_flow", "pools_from_flow", "segment_market",
    ], "segmentation"),
    **dict.fromkeys([
        "POLICIES", "EpisodeResult", "HeterogeneousInstance", "RatioEstimate", "adversarial_instance",
        "always_offer_ratios", "episode_rng", "estimate_ratio", "estimate_ratios", "hybrid_ratio_bound",
        "run_episode", "sample_choice", "threshold_headroom",
    ], "simulate"),
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule behind a public or submodule name on first use and keep the result."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
