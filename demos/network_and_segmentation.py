"""
Bipartite price competition and flow-based segmentation
=======================================================

Many buyers, many sellers, individual quality evaluations, limited stock.
Sellers still post one price each; utilities are capacity-capped, so a
flooded seller raises its price until demand matches supply. Round-robin
best responses find the pure equilibrium, and a consistency check (no pair
can be pushed above a 91% purchase share) guards the theory.

Segmentation then splits buyers into single-seller pools via a max-weight
flow scored at unit price. Each pool re-equilibrates as a small monopoly;
with enough rival sellers per buyer, the pooled market out-earns the
head-on competition it replaced.
"""

import numpy as np

from mnlmarkets import (
    BipartiteMarket,
    check_consistency,
    compare_segmented_vs_whole,
    segment_market,
    solve_network_equilibrium,
    verify_equilibrium,
)

rng = np.random.default_rng(7)
theta = rng.uniform(-1.0, 2.3, size=(3, 5))  # 3 sellers x 5 buyers
market = BipartiteMarket(theta, capacities=[2, 1, 2])

consistency = check_consistency(market)
print(f"consistent market: {consistency.consistent} (max share bound {consistency.max_share:.3f})")

report = solve_network_equilibrium(market)
print(f"converged in {report.iterations} sweeps, residual {report.residual:.2e}")
print("equilibrium prices:", [round(p, 4) for p in report.prices])
print("per-seller demand: ", [round(float(d), 4) for d in report.demands.sum(axis=1)])
print("capacity respected:", report.capacity_ok)

check = verify_equilibrium(market, report.prices)
print(
    "verification: no profitable deviation",
    check.equilibrium_ok,
    "| capacity",
    check.capacity_ok,
    "| curvature at optima",
    check.second_order_ok,
)

# Capacity lifting in isolation: four identical buyers chasing one unit.
hot = BipartiteMarket(np.full((1, 4), 2.3), capacities=[1])
lifted = solve_network_equilibrium(hot)
print(f"\none unit, four eager buyers: price {lifted.prices[0]:.4f} "
      f"(= 2.3 + ln 3 = {2.3 + np.log(3):.4f}), demand {lifted.demands.sum():.4f}")

# Segmentation of the random market.
seg = segment_market(market)
print("\nsegmentation pools (seller <- buyers):")
for pool, price, revenue in zip(seg.pools, seg.pool_prices, seg.pool_revenues):
    print(f"  seller {pool.seller} <- buyers {list(pool.buyers)}: price {price:.4f}, revenue {revenue:.4f}")
print(f"flow weight (unit-price score) {seg.flow_weight:.4f}")
print(f"total segmented revenue {seg.total_revenue:.4f}")
print(f"certificates: lower {seg.lower_bound}, upper {seg.upper_bound:.2f}")

# When six sellers contest six identical buyers, competition burns margin;
# one-on-one pools restore monopoly pricing and beat the whole market.
crowded = BipartiteMarket(np.full((6, 6), 2.3), capacities=[1] * 6)
cmp = compare_segmented_vs_whole(crowded)
print(f"\ncrowded market: whole {cmp.whole_revenue:.4f} vs segmented {cmp.segmentation.total_revenue:.4f}")

# A duopoly goes the other way: displaying both sellers attracts more
# purchases than any exclusive split.
duopoly = BipartiteMarket(np.full((2, 4), 2.3), capacities=[2, 2])
cmp = compare_segmented_vs_whole(duopoly)
print(f"duopoly:        whole {cmp.whole_revenue:.4f} vs segmented {cmp.segmentation.total_revenue:.4f}")
