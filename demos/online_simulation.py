"""
Online assortment policies against the clairvoyant LP
=====================================================

Ten items, ample horizon, limited stock. The hybrid policy first sells
"heavy" items (solo market share above the threshold) one at a time at
their maximum prices, then bundles the light leftovers. Its expected
revenue is benchmarked against the clairvoyant planning LP that knows the
number of buyers and all inventories in advance.

Also shown: the inventory-balancing variant, which discounts an item's
heaviness by its remaining stock fraction. It spreads sales across items
and wins for mid-sized buyer streams, but gives up the last bit of price
discipline when buyers are plentiful.
"""

from mnlmarkets import ItemCatalog, classify_heavy, estimate_ratios, solo_demands

catalog = ItemCatalog(
    qualities=[3.0, 2.5, 2.0, 1.5, 1.0, 0.5, -0.5, -1.0, -1.5, -2.0],
    inventories=[15] * 10,
)
threshold = 0.5

solo = solo_demands(catalog)
heavy = classify_heavy(catalog, threshold)
print("solo demands:", [round(q, 3) for q in solo])
print(f"heavy items at threshold {threshold}: positions {heavy}\n")

replications = 500
print(f"hybrid policy, {replications} replications per point:")
print("buyers   OPT        revenue    ratio")
buyers = (100, 200, 300, 400, 500)
for m, est in zip(buyers, estimate_ratios(catalog, ["hybrid"], [threshold], buyers, replications, seed=1)):
    print(f"{m:6d}   {est.opt:8.2f}   {est.mean_revenue:8.2f}   {est.ratio:.4f}")

print("\ngreedy policy (offer everything in stock) on the same instance:")
buyers = (100, 300, 500)
for m, est in zip(buyers, estimate_ratios(catalog, ["greedy"], [threshold], buyers, replications, seed=2)):
    print(f"{m:6d}   {est.opt:8.2f}   {est.mean_revenue:8.2f}   {est.ratio:.4f}")

# Inventory balancing: five strong items with deep stock, five weak items
# with shallow stock. The balanced variant holds back nearly depleted items
# and out-earns the base hybrid in the mid range, then loses at the top.
catalog2 = ItemCatalog(
    qualities=[2.1, 2.0, 2.0, 2.0, 2.0, 0.5, -0.5, -1.0, -1.5, -2.0],
    inventories=[20, 20, 20, 20, 20, 5, 5, 5, 5, 5],
)
print("\nbase hybrid vs inventory-balanced hybrid (expected revenue):")
print("buyers   hybrid     balanced   difference")
buyers = (25, 50, 75, 100, 125, 150)
rows = estimate_ratios(catalog2, ["hybrid", "modified"], [0.5], buyers, replications, seed=3)
for m, base, mod in zip(buyers, rows[:len(buyers)], rows[len(buyers):]):
    diff = mod.mean_revenue - base.mean_revenue
    print(f"{m:6d}   {base.mean_revenue:8.2f}   {mod.mean_revenue:8.2f}   {diff:+8.2f}")
