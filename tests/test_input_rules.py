"""Every scalar argument of an exported function is read by one of three rules.

``real_number`` reads a real, ``whole_number`` a count and
``distinct_indices`` an index, and each raises DomainError for anything
else. The table lists each door by the rule that reads it. Every door
rejects a boolean, a numeral string and None; a count or an index also
rejects 2.5, and an index a whole float; a seed rejects -1. No door lets
a bare TypeError, IndexError or numpy ValueError through. A valid value
gives bit-identical results in each of its forms: an int, a whole float
and a numpy scalar for a count, a numpy integer for an index, and a
numpy float (and an int, if whole) for a real.
"""

import dataclasses
import numbers

import numpy as np
import pytest

from mnlmarkets import (
    BipartiteMarket,
    DomainError,
    ItemCatalog,
    OnlineInstance,
    adversarial_instance,
    always_offer_ratios,
    best_response_price,
    classify_heavy,
    enumerate_columns,
    episode_rng,
    estimate_ratios,
    exponential_weight,
    hybrid_ratio_bound,
    mnl_demand,
    price_game_potential,
    quality_for_target_revenue,
    solo_revenue_for_quality,
    solve_opt,
    solve_opt_fixed_rev,
    solve_share,
    threshold_headroom,
    verify_equilibrium,
)

CAT = ItemCatalog([1.0, 0.5], [2, 2])
MARKET = BipartiteMarket([[2.0, 0.5], [1.0, 1.5]])
FAMILY = adversarial_instance(4.0, 3)
COLUMNS = enumerate_columns(CAT)


def sweep(**row):
    """estimate_ratios on one hybrid row of CAT, with some arguments replaced."""
    args = {"thresholds": [0.6], "buyer_counts": [4], "replications": 3, "seed": 0, **row}
    return estimate_ratios(CAT, ["hybrid"], **args)


# (door, rule, call, valid value). A "seed" is a count that must also be >= 0.
DOORS = [
    ("solve_share", "real", solve_share, 2),
    ("quality_for_target_revenue", "real", quality_for_target_revenue, 3),
    ("solo_revenue_for_quality", "real", solo_revenue_for_quality, 2),
    ("exponential_weight", "real", exponential_weight, 1),
    ("threshold_headroom", "real", threshold_headroom, 0.6),
    ("hybrid_ratio_bound", "real", hybrid_ratio_bound, 0.6),
    ("OnlineInstance threshold", "real", lambda v: OnlineInstance(CAT, 4, v), 0.6),
    ("classify_heavy threshold", "real", lambda v: classify_heavy(CAT, v), 0.6),
    ("estimate_ratios threshold", "real", lambda v: sweep(thresholds=[v]), 0.6),
    ("adversarial_instance growth", "real", lambda v: adversarial_instance(v, 3), 4),
    ("verify_equilibrium epsilon", "real", lambda v: verify_equilibrium(MARKET, [1.0, 1.0], v), 0),
    ("mnl_demand quality", "real", lambda v: mnl_demand([v, 0.5], [1.0, 1.0]), 2),
    ("mnl_demand price", "real", lambda v: mnl_demand([2.0, 0.5], [v, 1.0]), 1),
    ("price_game_potential quality", "real", lambda v: price_game_potential([2.0, v], [1.0, 1.0]), 1),
    ("price_game_potential price", "real", lambda v: price_game_potential([2.0, 0.5], [1.0, v]), 2),
    ("best_response_price own quality", "real", lambda v: best_response_price([v, 0.5], [1.0, 1.0], 0), 2),
    ("best_response_price rival quality", "real", lambda v: best_response_price([2.0, v], [1.0, 1.0], 0), 1),
    ("best_response_price rival price", "real", lambda v: best_response_price([2.0, 0.5], [1.0, v], 0), 1),
    ("solve_opt buyers", "count", lambda v: solve_opt(CAT, v), 3),
    ("solve_opt_fixed_rev buyers", "count", lambda v: solve_opt_fixed_rev(CAT, v, [1.0, 2.0]), 3),
    ("adversarial_instance horizon", "count", lambda v: adversarial_instance(4.0, v), 3),
    ("always_offer_ratios upto", "count", lambda v: always_offer_ratios(FAMILY, v), 2),
    ("estimate_ratios buyers", "count", lambda v: sweep(buyer_counts=[v]), 5),
    ("estimate_ratios replications", "count", lambda v: sweep(replications=v), 3),
    ("estimate_ratios seed", "seed", lambda v: sweep(seed=v), 1),
    ("episode_rng seed", "seed", lambda v: episode_rng(v, 0).random(3), 1),
    ("episode_rng replication", "seed", lambda v: episode_rng(0, v).random(3), 1),
    ("best_response_price seller", "index", lambda v: best_response_price([2.0, 0.5], [1.0, 1.0], v), 1),
    ("HeterogeneousInstance.target_revenue", "index", FAMILY.target_revenue, 2),
    ("HeterogeneousInstance.solo_revenue", "index", FAMILY.solo_revenue, 2),
    ("HeterogeneousInstance.solo_demand", "index", FAMILY.solo_demand, 2),
    ("ColumnSet.members", "index", COLUMNS.members, 2),
]
IDS = [door for door, *_ in DOORS]

MALFORMED = {
    "real": [True, np.bool_(False), "0.6", None],
    "count": [True, "0.6", None, 2.5],
    "seed": [True, "0.6", None, 2.5, -1],
    "index": [True, "0.6", None, 2.5, 1.0],
}


def forms(rule, value):
    """The valid value in each form its rule must read alike."""
    if rule == "index":
        return [value, np.int64(value)]
    if rule in ("count", "seed"):
        return [value, float(value), np.int64(value)]
    if float(value).is_integer():
        return [value, float(value), np.float64(value), np.int64(value)]
    return [value, np.float64(value)]


def canonical(result):
    """The result with every float as its bits and every integer as an int,
    so that == compares values and their types' kind bit for bit."""
    if dataclasses.is_dataclass(result):
        return type(result).__name__, canonical(dataclasses.astuple(result))
    if isinstance(result, np.ndarray):
        return canonical(result.tolist())
    if isinstance(result, (list, tuple)):
        return tuple(canonical(v) for v in result)
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    if isinstance(result, numbers.Integral):
        return int(result)
    if isinstance(result, numbers.Real):
        return "float", np.float64(result).view(np.int64).item()
    return result


@pytest.mark.parametrize("door, rule, call, value", DOORS, ids=IDS)
def test_malformed_values_raise_domain_error(door, rule, call, value):
    for bad in MALFORMED[rule]:
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("door, rule, call, value", DOORS, ids=IDS)
def test_every_form_of_a_valid_value_gives_the_same_bits(door, rule, call, value):
    results = [canonical(call(v)) for v in forms(rule, value)]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("bad", [-1, 2])
def test_best_response_seller_is_in_range(bad):
    # distinct_indices took over the range test from a private 0 <= i < len.
    with pytest.raises(DomainError, match="seller index"):
        best_response_price([2.0, 0.5], [1.0, 1.0], bad)


def test_named_cases():
    cat = ItemCatalog([1.0, 0.5], [2, 2])
    with pytest.raises(DomainError):
        solve_opt(cat, 2.5)  # once planned for 2.5 buyers
    with pytest.raises(DomainError):
        episode_rng(1.7, 0)  # once ran seed 1's stream
    with pytest.raises(DomainError):
        hybrid_ratio_bound("0.6")  # once returned the bound at 0.6
    whole_float = estimate_ratios(cat, ["hybrid"], [0.6], [5.0], 3, 0)
    assert whole_float == estimate_ratios(cat, ["hybrid"], [0.6], [5], 3, 0)
