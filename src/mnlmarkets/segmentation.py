"""Flow-based market segmentation for the bipartite price game.

Splitting a market into single-seller pools and letting each pool set its
own equilibrium price can beat the whole-market equilibrium. The pools come
from a max-weight flow at a reference unit price: source -> buyer arcs of
capacity 1, buyer -> seller arcs of capacity 1 weighted by the unit-price
revenue e^{theta_ik - 1} / (1 + e^{theta_ik - 1}), and seller -> sink arcs
of capacity c_i. The heaviest flow of min(m, sum c_i) units is integral, so
it assigns each buyer to at most one seller while respecting capacities;
each seller's assigned buyers form a pool, which is then re-equilibrated
with the capacity-aware single-seller best response (never worse than the
unit price it was scored at).

That layered graph is the model; the code keeps only its buyer -> seller
weights (``FlowNetwork.weights``), as unit supply and capacities fix the rest.
``max_weight_flow`` solves the flow as an assignment: it fills as many
units as visibility allows and, among those assignments, returns the
heaviest. It grows the assignment one buyer at a time along the heaviest
augmenting path, searched over the n sellers rather than the m + n + 2
flow nodes. Arc weights are fixed-point integers at scale 1e9 and the
solver adds them exactly in int64, so the optimal weight is deterministic.
When several assignments share that weight, a fixed lowest-index rule
(documented on ``max_weight_flow``) picks one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import DomainError, _libm, _sequential_sum
from .network import (
    BipartiteMarket,
    EquilibriumReport,
    _seller_index,
    network_demand,
    seller_best_response,
    solve_network_equilibrium,
)

WEIGHT_SCALE = 10 ** 9
UNIT_PRICE_FLOOR = 1.0 / (1.0 + math.e)  # worst arc weight when theta >= 0
# Weight of an invisible pair. Real path gains stay within n * WEIGHT_SCALE
# of zero, so every gain or path label built from _NO_ARC stays below
# _UNREACHED and counts as no arc.
_NO_ARC = -(1 << 60)
_UNREACHED = _NO_ARC // 2


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """The buyer -> seller layer of the segmentation network.

    ``weights`` is the read-only int64 (n, m) matrix of buyer k -> seller i
    arc weights in fixed point (WEIGHT_SCALE per revenue unit), _NO_ARC
    where the pair is invisible. The source and sink layers are implicit:
    every buyer supplies one unit and seller i absorbs up to
    ``market.capacities[i]``.
    """

    market: BipartiteMarket
    weights: np.ndarray


@dataclass(frozen=True)
class FlowAssignment:
    """Integral max-weight flow: buyer -> seller pairs actually used."""

    pairs: tuple[tuple[int, int], ...]
    value: int
    total_weight: int  # fixed-point
    shortfall: bool  # true when visibility blocks the min(m, sum c) target


@dataclass(frozen=True)
class Pool:
    seller: int
    buyers: tuple[int, ...]


@dataclass(frozen=True)
class Segmentation:
    """Pools with their equilibrium prices/revenues and certificates.

    ``lower_bound`` is the min(m, sum c)/(1+e) revenue floor, present only
    when every pair is visible and no quality is negative; ``upper_bound``
    is the price-cap times assignable-units bound.
    """

    pools: tuple[Pool, ...]
    pool_prices: tuple[float, ...]
    pool_revenues: tuple[float, ...]
    total_revenue: float
    flow_weight: float
    lower_bound: float | None
    upper_bound: float


@dataclass(frozen=True)
class SegmentationComparison:
    segmentation: Segmentation
    whole: EquilibriumReport
    segmented_revenue: float
    whole_revenue: float


def unit_price_weight(theta: float) -> float:
    """Revenue of one visible pair at the reference price 1."""
    return math.exp(theta - 1.0) / (1.0 + math.exp(theta - 1.0)) if theta - 1.0 < 500 else 1.0


def build_flow_network(market: BipartiteMarket) -> FlowNetwork:
    """Assemble the segmentation network with fixed-point arc weights.

    Each visible pair weighs round(WEIGHT_SCALE * unit_price_weight(theta))
    to the bit: the exponentials are libm's (equilibrium._libm), the rest
    is IEEE-exact, and np.rint rounds half to even as round() does.
    """
    offset = market._visible_theta - 1.0
    weights = np.full(offset.shape, _NO_ARC, dtype=np.int64)
    weights[market.visibility] = WEIGHT_SCALE  # the weight once theta - 1 >= 500
    near = market.visibility & (offset < 500)
    e = _libm(math.exp, offset[near])
    weights[near] = np.rint(WEIGHT_SCALE * (e / (1.0 + e)))
    weights.setflags(write=False)
    return FlowNetwork(market=market, weights=weights)


def max_weight_flow(network: FlowNetwork) -> FlowAssignment:
    """Max-weight integral flow of min(m, sum c) units, or the densest
    feasible flow when visibility cannot carry that much.

    Successive longest augmenting paths on a graph of the n sellers. A path
    takes an unassigned buyer into a seller, may hand buyers on from seller
    to seller, and ends at a seller with spare capacity. Entering seller j
    gains the heaviest free buyer visible to j; moving a buyer from seller i
    to seller j gains the best W[j, k] - W[i, k] over the buyers k that i
    holds. Each augmentation takes the heaviest such path, found by
    Bellman-Ford over the sellers; because every intermediate assignment is
    the heaviest of its size, the seller graph has no positive cycle. Only
    the transfer rows of the sellers on the path change after it. Weights
    are the network's int64 seller x buyer matrix, so every sum is exact.

    Ties go to the lowest index: the lowest buyer for each entry and each
    transfer, the lowest predecessor seller in each Bellman-Ford round (a
    seller's label changes only on strict gain), and the lowest seller with
    spare capacity as the end of the path.
    """
    m, n = network.market.buyers, network.market.sellers
    capacity = np.array(network.market.capacities, dtype=np.int64)
    weight = network.weights

    free = weight.copy()  # columns of assigned buyers are blanked to _NO_ARC
    owner = np.full(m, -1, dtype=np.intp)
    load = np.zeros(n, dtype=np.int64)
    gain = np.full((n, n), _NO_ARC, dtype=np.int64)  # transfer gain seller i -> j
    via = np.zeros((n, n), dtype=np.intp)  # the buyer that transfer moves
    sellers = np.arange(n)
    target = min(m, sum(network.market.capacities))  # an int64 sum can wrap
    sent = 0
    while sent < target:
        entry = free.argmax(axis=1)
        label = free[sellers, entry]
        parent = np.full(n, -1, dtype=np.intp)
        for _ in range(n - 1):
            reach = label[:, None] + gain
            best = reach.argmax(axis=0)
            value = reach[best, sellers]
            better = (value > label) & (value > _UNREACHED)
            if not better.any():
                break
            label = np.where(better, value, label)
            parent = np.where(better, best, parent)
        label = np.where((load < capacity) & (label > _UNREACHED), label, _NO_ARC)
        end = int(label.argmax())
        if label[end] == _NO_ARC:
            break
        path = [end]
        while parent[path[-1]] >= 0:
            path.append(int(parent[path[-1]]))
        for j, i in zip(path, path[1:]):
            owner[via[i, j]] = j
        start = entry[path[-1]]
        owner[start] = path[-1]
        free[:, start] = _NO_ARC
        load[end] += 1
        sent += 1
        for i in path:
            held = np.flatnonzero(owner == i)
            delta = weight[:, held] - weight[i, held]
            pick = delta.argmax(axis=1)
            gain[i] = delta[sellers, pick]
            via[i] = held[pick]
            gain[i, i] = _NO_ARC

    assigned = np.flatnonzero(owner >= 0)
    return FlowAssignment(
        pairs=tuple((int(k), int(owner[k])) for k in assigned),
        value=sent,
        total_weight=int(weight[owner[assigned], assigned].sum()),
        shortfall=sent < target,
    )


def pools_from_flow(assignment: FlowAssignment) -> tuple[Pool, ...]:
    """Group assigned buyers by seller; sellers without inflow get no pool,
    unassigned buyers drop out of the segmented market."""
    by_seller: dict[int, list[int]] = {}
    for buyer, seller in assignment.pairs:
        by_seller.setdefault(seller, []).append(buyer)
    return tuple(
        Pool(seller=s, buyers=tuple(sorted(bs))) for s, bs in sorted(by_seller.items())
    )


def equilibrate_pool(market: BipartiteMarket, pool: Pool) -> tuple[float, float]:
    """Equilibrium price and revenue of one single-seller pool.

    The pool's seller faces only its assigned buyers and no rivals, so its
    equilibrium is the capacity-aware best response; revenue can only
    improve on the unit price the pool was scored at. The pool's buyers
    are distinct buyer indices, each visible to its seller, else DomainError.
    """
    seller = _seller_index(market, pool.seller)
    if not pool.buyers:
        raise DomainError("pool must contain at least one buyer")
    buyers = np.asarray(pool.buyers)
    if buyers.ndim != 1 or buyers.dtype.kind not in "iu":
        raise DomainError(f"pool buyers {pool.buyers!r} are not buyer indices")
    if buyers.min() < 0 or buyers.max() >= market.buyers:
        raise DomainError(f"pool buyers {pool.buyers!r} out of range")
    if len(set(pool.buyers)) < buyers.size:
        raise DomainError(f"pool buyers {pool.buyers!r} repeat a buyer")
    if not market.visibility[seller, buyers].all():
        raise DomainError(f"pool buyers {pool.buyers!r} include one invisible to seller {seller}")
    sub = BipartiteMarket(
        market.theta[seller, buyers].reshape(1, -1),
        capacities=[market.capacities[seller]],
    )
    price = seller_best_response(sub, np.array([1.0]), 0)
    demand = float(network_demand(sub, [price]).sum())
    revenue = price * min(demand, market.capacities[seller])
    return price, revenue


def segment_market(market: BipartiteMarket) -> Segmentation:
    """Full pipeline: flow network, integral assignment, pool equilibria.

    The revenue floor min(m, sum c)/(1+e) only certifies markets where
    every pair is visible and no quality is negative; otherwise it is
    reported as absent. The upper bound multiplies the assignable units by
    the equilibrium price cap.
    """
    assignment = max_weight_flow(build_flow_network(market))
    pools = pools_from_flow(assignment)
    prices = []
    revenues = []
    for pool in pools:
        price, revenue = equilibrate_pool(market, pool)
        prices.append(price)
        revenues.append(revenue)
    units = min(market.buyers, sum(market.capacities))
    certifiable = bool((market._visible_theta >= 0.0).all())
    return Segmentation(
        pools=pools,
        pool_prices=tuple(prices),
        pool_revenues=tuple(revenues),
        total_revenue=_sequential_sum(revenues),
        flow_weight=assignment.total_weight / WEIGHT_SCALE,
        lower_bound=units * UNIT_PRICE_FLOOR if certifiable else None,
        upper_bound=(market.price_box() - 1.0) * units,
    )


def compare_segmented_vs_whole(market: BipartiteMarket) -> SegmentationComparison:
    """Segmented total revenue next to the unsegmented equilibrium revenue.

    No ordering between the two is implied; segmentation can help or hurt
    depending on how polarized the quality matrix is. Non-convergence of the
    whole-market solve is carried through on the report.
    """
    seg = segment_market(market)
    whole = solve_network_equilibrium(market)
    totals = whole.demands.sum(axis=1)
    whole_revenue = float(_sequential_sum(
        p * min(t, c) for p, t, c in zip(whole.prices, totals, market.capacities)
    ))
    return SegmentationComparison(
        segmentation=seg,
        whole=whole,
        segmented_revenue=seg.total_revenue,
        whole_revenue=whole_revenue,
    )
