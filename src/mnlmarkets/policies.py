"""Online assortment policies under inventory constraints.

Every policy is a function ``(instance, remaining) -> tuple[int, ...]``: it
reads the catalog and the threshold from the ``OnlineInstance`` and the units
left per catalog position from ``remaining``, never the number of buyers, and
returns the sorted positions to offer; only the modified hybrid reads the
initial inventories. An item is "heavy" for threshold lam when offering it
alone captures at least a lam fraction of the market, i.e. its solo
equilibrium demand q_i({i}) >= lam. Because items are sorted by quality, the
heavy set is always a prefix.

Three policies are provided:

* hybrid: sell heavy items one at a time in quality order, then bundle all
  remaining light items;
* greedy: always offer everything still in stock;
* modified hybrid: like hybrid, but an item's heaviness is discounted by an
  exponential weight of its remaining inventory fraction, so nearly depleted
  items get demoted into the bundle and saved for later sales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .equilibrium import DomainError, ItemCatalog, real_number, solo_revenue_for_quality, whole_number


def check_threshold(lam: float) -> float:
    """The heaviness threshold lam read with real_number; DomainError unless it lies in [0.5, 1)."""
    lam = real_number(lam, "threshold")
    if not 0.5 <= lam < 1.0:
        raise DomainError(f"threshold must lie in [0.5, 1), got {lam}")
    return lam


@dataclass(frozen=True)
class OnlineInstance:
    """One online assortment problem: catalog, buyer count, heaviness threshold.

    The threshold nominally lives in (1/2, 1); the boundary value 1/2 is
    accepted because it is the standard experimental setting.
    """

    catalog: ItemCatalog
    m: int
    threshold: float

    def __post_init__(self):
        m = whole_number(self.m, "buyer count")
        if m < 0:
            raise DomainError(f"buyer count must be nonnegative, got {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "threshold", check_threshold(self.threshold))


@lru_cache(maxsize=1024)
def solo_demands(catalog: ItemCatalog) -> tuple[float, ...]:
    """Solo equilibrium demand q_i({i}) per item, nonincreasing in position."""
    out = []
    for theta in catalog.qualities:
        r = solo_revenue_for_quality(theta)
        out.append(r / (1.0 + r))
    return tuple(out)


def classify_heavy(catalog: ItemCatalog, threshold: float) -> tuple[int, ...]:
    """Positions of heavy items: q_i({i}) >= threshold. Always a prefix."""
    threshold = check_threshold(threshold)
    demands = solo_demands(catalog)
    h = 0
    while h < len(demands) and demands[h] >= threshold:
        h += 1
    return tuple(range(h))


def hybrid_next(instance: OnlineInstance, remaining: Sequence[int]) -> tuple[int, ...]:
    """Two-phase rule: heaviest available heavy item alone, else light bundle."""
    heavy = classify_heavy(instance.catalog, instance.threshold)
    for i in heavy:
        if remaining[i] > 0:
            return (i,)
    return tuple(i for i in range(len(heavy), len(instance.catalog)) if remaining[i] > 0)


def greedy_all_next(instance: OnlineInstance, remaining: Sequence[int]) -> tuple[int, ...]:
    """Offer every item that still has stock."""
    return tuple(i for i, left in enumerate(remaining) if left > 0)


def exponential_weight(x: float) -> float:
    """Inventory-balancing weight e/(e-1) * (1 - e^-x) on [0, 1]."""
    x = real_number(x, "weight argument")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"weight argument must lie in [0, 1], got {x}")
    return math.e / (math.e - 1.0) * -math.expm1(-x)


def modified_hybrid_next(instance: OnlineInstance, remaining: Sequence[int]) -> tuple[int, ...]:
    """Hybrid rule re-thresholded on inventory-discounted heaviness.

    Item i's relative heaviness at time t is
    exponential_weight(remaining_i / c_i) * q_i({i}); items at or above the
    threshold are treated as heavy and the heaviest of them is offered alone,
    everything else in stock gets bundled. With full inventories the weight
    is 1 and the decision coincides with the base hybrid rule.
    """
    demands = solo_demands(instance.catalog)
    capacities = instance.catalog.inventories
    available = tuple(i for i, left in enumerate(remaining) if left > 0)
    best = None
    best_rel = -1.0
    for i in available:
        rel = exponential_weight(remaining[i] / capacities[i]) * demands[i]
        if rel >= instance.threshold and rel > best_rel:
            best, best_rel = i, rel
    return available if best is None else (best,)
