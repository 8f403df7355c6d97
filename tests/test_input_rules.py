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

Every real-array argument is read by ``real_array``; ARRAY_DOORS lists
them. Each rejects an entry that is a boolean, a numeral string, None or
complex, a numpy boolean or complex array and a ragged nesting (once
``network_demand(m, [True])`` ran, and a ragged LP raised numpy's
ValueError). A valid value gives the same bits as a list of floats, a list
of ints, a float64 array and an int64 array.
"""

import dataclasses
import numbers

import numpy as np
import pytest

from mnlmarkets import (
    BipartiteMarket,
    ColumnSet,
    DomainError,
    HeterogeneousInstance,
    ItemCatalog,
    OnlineInstance,
    Pool,
    adversarial_instance,
    always_offer_ratios,
    best_response_price,
    classify_heavy,
    enumerate_columns,
    episode_rng,
    equilibrate_pool,
    equilibrium_outcome,
    estimate_ratios,
    exponential_weight,
    hybrid_ratio_bound,
    mnl_demand,
    network_demand,
    price_game_potential,
    quality_for_target_revenue,
    seller_best_response,
    seller_utility,
    simplex_solve,
    solo_revenue_for_quality,
    solve_opt,
    solve_opt_fixed_rev,
    solve_share,
    threshold_headroom,
    verify_equilibrium,
)
from mnlmarkets.equilibrium import real_array

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


LP_ROWS, LP_RHS, LP_OBJECTIVE = [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], [1.0, 3.0]

# (door, call, valid value), each value whole so that its ints read alike.
ARRAY_DOORS = [
    ("BipartiteMarket theta", BipartiteMarket, [[2.0, 0.0], [1.0, 1.0]]),
    ("network_demand prices", lambda v: network_demand(MARKET, v), [1.0, 2.0]),
    ("seller_utility prices", lambda v: seller_utility(MARKET, v, 0), [1.0, 2.0]),
    ("seller_best_response prices", lambda v: seller_best_response(MARKET, v, 0), [1.0, 2.0]),
    ("verify_equilibrium prices", lambda v: verify_equilibrium(MARKET, v), [1.0, 2.0]),
    ("simplex_solve rows", lambda v: simplex_solve(v, LP_RHS, LP_OBJECTIVE), LP_ROWS),
    ("simplex_solve rhs", lambda v: simplex_solve(LP_ROWS, v, LP_OBJECTIVE), LP_RHS),
    ("simplex_solve objective", lambda v: simplex_solve(LP_ROWS, LP_RHS, v), LP_OBJECTIVE),
    ("ColumnSet demands", lambda v: ColumnSet(CAT, v, np.array([1.0, 2.0, 3.0])), [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
    ("ColumnSet revenues", lambda v: ColumnSet(CAT, np.eye(2, 3), v), [1.0, 2.0, 3.0]),
]
ARRAY_IDS = [door for door, *_ in ARRAY_DOORS]


def with_first_entry(value, entry):
    """The nested list value with its first number replaced by entry."""
    if isinstance(value[0], list):
        return [with_first_entry(value[0], entry), *value[1:]]
    return [entry, *value[1:]]


def ragged(value):
    """value nested unevenly: the last row one entry short, or a 1-d value's last entry in a list."""
    if isinstance(value[0], list):
        return [*value[:-1], value[-1][:-1]]
    return [*value[:-1], [value[-1]]]


def array_forms(value):
    """The valid value as a list of floats, a list of ints and float64 and int64 arrays."""
    ints = np.array(value, dtype=np.int64)
    return [value, ints.tolist(), np.array(value), ints]


@pytest.mark.parametrize("door, call, value", ARRAY_DOORS, ids=ARRAY_IDS)
def test_malformed_arrays_raise_domain_error(door, call, value):
    bad = [with_first_entry(value, entry) for entry in (True, "1.0", None, 1 + 0j)]
    arrays = np.ones(np.shape(value), dtype=bool), np.array(value, dtype=complex)  # complex once warned and ran
    for array in (*bad, *arrays, ragged(value)):
        with pytest.raises(DomainError):
            call(array)


@pytest.mark.parametrize("door, call, value", ARRAY_DOORS, ids=ARRAY_IDS)
def test_every_form_of_a_valid_array_gives_the_same_bits(door, call, value):
    results = [canonical(call(v)) for v in array_forms(value)]
    assert all(r == results[0] for r in results[1:])


def test_real_array_returns_a_float64_array_as_itself():
    prices = np.array([1.0, 2.0])
    assert real_array(prices, "prices") is prices
    assert real_array(np.array([1, 2]), "prices").dtype == np.float64
    with pytest.raises(DomainError, match="too large for a double"):
        real_array([1.0, 10**400], "prices")
    with pytest.raises(DomainError, match="ragged"):
        real_array([np.ones((2, 2)), np.ones((2, 3))], "theta")  # numpy's own ValueError once


def test_bipartite_market_leaves_the_callers_theta_writable():
    theta = np.array([[2.0, 0.5], [1.0, 1.5]])
    market = BipartiteMarket(theta)
    assert theta.flags.writeable and not market.theta.flags.writeable
    theta[0, 0] = 9.0
    assert market.theta[0, 0] == 2.0


def test_a_scalar_where_a_sequence_is_due():
    # Each once raised a bare TypeError.
    for call in (
        lambda: equilibrate_pool(MARKET, Pool(0, 5)),
        lambda: equilibrium_outcome(CAT, 0),
        lambda: CAT.positions(0),
        lambda: mnl_demand(1.0, 1.0),
        lambda: best_response_price(2.0, 1.0, 0),
        lambda: price_game_potential(2.0, [1.0]),
    ):
        with pytest.raises(DomainError, match="sequence"):
            call()


def test_heterogeneous_instance_checks_its_fields():
    with pytest.raises(DomainError, match="one quality per buyer"):
        HeterogeneousInstance(qualities=(2.0,), growth=2.0, horizon=3)  # once an IndexError on solo_revenue(3)
    with pytest.raises(DomainError, match="one quality per buyer"):
        HeterogeneousInstance(qualities=2.0, growth=2.0, horizon=1)
    with pytest.raises(DomainError, match="growth"):
        HeterogeneousInstance(qualities=(2.0,), growth="2", horizon=1)  # once a TypeError on target_revenue(1)
    for bad in (True, "2.0", None):
        with pytest.raises(DomainError, match="qualities"):
            HeterogeneousInstance(qualities=(bad,), growth=2.0, horizon=1)
    for bad in (True, 1.5, "1"):
        with pytest.raises(DomainError, match="horizon"):
            HeterogeneousInstance(qualities=(2.0,), growth=2.0, horizon=bad)
    family = HeterogeneousInstance(qualities=FAMILY.qualities, growth=4, horizon=3.0)
    assert canonical(family) == canonical(FAMILY)
