"""Tests for heaviness classification and the online policies."""

import itertools

import numpy as np
import pytest

from mnlmarkets.equilibrium import DomainError, ItemCatalog, solve_no_purchase
from mnlmarkets.policies import (
    OnlineInstance,
    classify_heavy,
    exponential_weight,
    greedy_all_next,
    hybrid_next,
    modified_hybrid_next,
    solo_demands,
)
from mnlmarkets.simulate import estimate_ratio

TEN_ITEM_QUALITIES = (3.0, 2.5, 2.0, 1.5, 1.0, 0.5, -0.5, -1.0, -1.5, -2.0)


def two_item_instance(remaining, threshold=0.5, m=10):
    cat = ItemCatalog([2.0, 1.0], [2, 5])
    inst = OnlineInstance(catalog=cat, m=m, threshold=threshold)
    return inst, list(remaining)


class TestClassifyHeavy:
    def test_boundary_counts_as_heavy(self):
        cat = ItemCatalog([2.0, 1.0], [1, 1])
        heavy = classify_heavy(cat, 0.5)
        # theta=2 sits exactly at q=0.5; theta=1 has q=0.362.
        assert heavy == (0,)

    def test_threshold_near_one_empties(self):
        cat = ItemCatalog([50.0, 2.0], [1, 1])
        assert classify_heavy(cat, 0.999999) == ()

    def test_ten_item_catalog_prefix_cross_checked(self):
        cat = ItemCatalog(TEN_ITEM_QUALITIES, [15] * 10)
        heavy = classify_heavy(cat, 0.5)
        # Independent route: per-item no-purchase solve.
        solo = [1.0 - solve_no_purchase(cat, (i,)) for i in range(10)]
        expected = tuple(i for i, q in enumerate(solo) if q >= 0.5)
        assert heavy == expected == (0, 1, 2)
        assert solo == pytest.approx(list(solo_demands(cat)), abs=1e-9)
        assert list(solo) == sorted(solo, reverse=True)

    def test_prefix_property_random(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            cat = ItemCatalog(rng.uniform(-3, 4, n), np.ones(n, dtype=int))
            lam = float(rng.uniform(0.5, 0.95))
            heavy = classify_heavy(cat, lam)
            assert heavy == tuple(range(len(heavy)))

    def test_threshold_domain(self):
        cat = ItemCatalog([2.0], [1])
        for bad in (0.49, 1.0, 1.5):
            with pytest.raises(DomainError):
                classify_heavy(cat, bad)


class TestHybrid:
    def test_offers_heavy_singleton_first(self):
        inst, remaining = two_item_instance([2, 5])
        assert hybrid_next(inst, remaining) == (0,)

    def test_bundles_lights_once_heavy_gone(self):
        inst, remaining = two_item_instance([0, 5])
        assert hybrid_next(inst, remaining) == (1,)

    def test_empty_when_sold_out(self):
        inst, remaining = two_item_instance([0, 0])
        assert hybrid_next(inst, remaining) == ()

    def test_heavy_offered_in_quality_order(self):
        cat = ItemCatalog([3.0, 2.5, 2.0, 0.0], [1, 1, 1, 1])
        inst = OnlineInstance(catalog=cat, m=5, threshold=0.5)
        remaining = [1, 1, 1, 1]
        assert hybrid_next(inst, remaining) == (0,)
        remaining[0] = 0
        assert hybrid_next(inst, remaining) == (1,)
        remaining[1] = 0
        assert hybrid_next(inst, remaining) == (2,)
        remaining[2] = 0
        assert hybrid_next(inst, remaining) == hybrid_next(inst, remaining)
        assert hybrid_next(inst, remaining) == (3,)


class TestGreedy:
    def test_offers_everything_in_stock(self):
        inst, remaining = two_item_instance([1, 1])
        assert greedy_all_next(inst, remaining) == (0, 1)
        inst, remaining = two_item_instance([0, 3])
        assert greedy_all_next(inst, remaining) == (1,)

    def test_full_set_maximizes_sale_probability(self):
        # With unit fixed revenues the step objective is 1 - q0(S), which
        # the full available set maximizes; verify by enumeration.
        rng = np.random.default_rng(67)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            cat = ItemCatalog(rng.uniform(-2, 2.5, n), np.ones(n, dtype=int))
            full = 1.0 - solve_no_purchase(cat, tuple(range(n)))
            for k in range(1, n + 1):
                for s in itertools.combinations(range(n), k):
                    assert full >= 1.0 - solve_no_purchase(cat, s) - 1e-12


class TestExponentialWeight:
    def test_endpoints(self):
        assert exponential_weight(0.0) == 0.0
        assert exponential_weight(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        assert exponential_weight(0.5) == pytest.approx(0.62245933120185456, abs=1e-12)

    def test_nondecreasing(self):
        xs = np.linspace(0, 1, 101)
        vals = [exponential_weight(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                exponential_weight(bad)


class TestModifiedHybrid:
    def test_matches_hybrid_at_full_inventory(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            cat = ItemCatalog(rng.uniform(-2, 3.5, n), rng.integers(1, 6, n))
            inst = OnlineInstance(catalog=cat, m=5, threshold=0.5)
            full = cat.inventories
            assert modified_hybrid_next(inst, full) == hybrid_next(inst, full)

    def test_depleted_heavy_item_demoted(self):
        # theta=2 has solo demand 0.5; at 10% stock its relative heaviness
        # is about 0.075, far below threshold, so it joins the bundle.
        cat = ItemCatalog([2.0, 0.0], [10, 5])
        inst = OnlineInstance(catalog=cat, m=5, threshold=0.5)
        assert modified_hybrid_next(inst, [1, 5]) == (0, 1)

    def test_sold_out_gives_empty(self):
        cat = ItemCatalog([2.0, 0.0], [10, 5])
        inst = OnlineInstance(catalog=cat, m=5, threshold=0.5)
        assert modified_hybrid_next(inst, [0, 0]) == ()

    def test_picks_highest_relative_heaviness(self):
        # Both heavy at full stock, first one depleted below the second's
        # discounted heaviness.
        cat = ItemCatalog([3.0, 2.9], [10, 10])
        inst = OnlineInstance(catalog=cat, m=5, threshold=0.5)
        assert modified_hybrid_next(inst, [2, 10]) == (1,)


class TestInstanceValidation:
    def test_threshold_range(self):
        cat = ItemCatalog([1.0], [1])
        OnlineInstance(catalog=cat, m=1, threshold=0.5)
        with pytest.raises(DomainError):
            OnlineInstance(catalog=cat, m=1, threshold=0.4)
        with pytest.raises(DomainError):
            OnlineInstance(catalog=cat, m=-1, threshold=0.6)

    def test_buyer_count_must_be_whole(self):
        # m = 2.5 passed the m < 0 check, and estimate_ratio then raised a
        # bare TypeError from range().
        cat = ItemCatalog([1.0], [1])
        for bad in (2.5, True, "5", None):
            with pytest.raises(DomainError, match="not a whole number"):
                OnlineInstance(catalog=cat, m=bad, threshold=0.6)
        inst = OnlineInstance(catalog=cat, m=5.0, threshold=0.6)
        assert inst.m == 5 and type(inst.m) is int
        assert estimate_ratio("hybrid", inst, 3, 0) == estimate_ratio("hybrid", OnlineInstance(cat, 5, 0.6), 3, 0)

    def test_threshold_must_be_a_number(self):
        # "0.6" raised a TypeError from the comparison in check_threshold.
        cat = ItemCatalog([1.0], [1])
        for bad in ("0.6", True, np.True_, None):
            with pytest.raises(DomainError, match="threshold: .* is not a number"):
                OnlineInstance(catalog=cat, m=5, threshold=bad)
        inst = OnlineInstance(catalog=cat, m=5, threshold=np.float32(0.75))
        assert type(inst.threshold) is float and inst.threshold == float(np.float32(0.75))
