"""
Why heterogeneous buyers defeat every online rule
=================================================

One item, one unit in stock, buyers arriving with geometrically exploding
willingness to pay: buyer t's solo-sale value is growth**t. Hindsight
saves the unit for the last buyer. An online rule cannot tell how many
buyers are coming, and every buyer it gambles on snatches the item with
probability above one half, so its revenue share of hindsight collapses
geometrically with the horizon. No constant fraction is achievable.
"""

from mnlmarkets import adversarial_instance, always_offer_ratios

family = adversarial_instance(growth=4.0, horizon=10)

print("buyer   quality      target value   solved value   buy prob")
for t in range(1, family.horizon + 1):
    print(
        f"{t:5d}   {family.qualities[t - 1]:10.3f}   {family.target_revenue(t):12.1f}"
        f"   {family.solo_revenue(t):12.1f}   {family.solo_demand(t):.4f}"
    )

print("\noffer-while-in-stock rule versus hindsight:")
print("horizon   expected/hindsight")
for upto, ratio in enumerate(always_offer_ratios(family, family.horizon), start=1):
    print(f"{upto:7d}   {ratio:.6f}")

print("\n(the same table comes from: mnlmarkets adversary-demo --growth 4 --horizon 10)")
