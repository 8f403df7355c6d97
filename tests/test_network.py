"""Tests for the multi-buyer bipartite price game."""

import math
import warnings

import numpy as np
import pytest

from mnlmarkets.equilibrium import (
    DomainError,
    ItemCatalog,
    equilibrium_outcome,
    mnl_demand,
)
from mnlmarkets.network import (
    BipartiteMarket,
    _sigmoid,
    check_consistency,
    network_demand,
    seller_best_response,
    seller_utility,
    solve_network_equilibrium,
    verify_equilibrium,
)


def single_buyer_market(thetas, capacities=None):
    theta = np.array(thetas, dtype=float).reshape(-1, 1)
    return BipartiteMarket(theta, capacities=capacities or [1] * len(thetas))


class TestMarketConstruction:
    def test_shapes_and_cap(self):
        mkt = BipartiteMarket([[1.0, -2.0], [0.5, 2.2]], capacities=[1, 3])
        assert mkt.sellers == 2 and mkt.buyers == 2
        assert mkt.quality_cap == 2.2
        assert mkt.capacities == (1, 3)

    def test_invisible_entries_ignored_for_cap(self):
        mkt = BipartiteMarket(
            [[1.0, 9.0]], visibility=[[True, False]], capacities=[1]
        )
        assert mkt.quality_cap == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            BipartiteMarket([[1.0]], capacities=[0])
        with pytest.raises(DomainError):
            BipartiteMarket([[1.0, 2.0]], visibility=[[True]])
        with pytest.raises(DomainError):
            BipartiteMarket([[math.inf]])

    def test_theta_entries_must_be_numbers(self):
        for bad in (True, "1.0", None):
            with pytest.raises(DomainError, match="not a number"):
                BipartiteMarket([[1.0, bad]])
        with pytest.raises(DomainError, match="not a number"):
            BipartiteMarket(np.ones((1, 2), dtype=bool))
        mkt = BipartiteMarket([[1, np.float32(0.5)]])
        assert mkt.theta.dtype == float and mkt.theta.tolist() == [[1.0, 0.5]]

    def test_visibility_entries_are_flags(self):
        for bad in (0.5, 2, -1, "1", None, math.nan):
            with pytest.raises(DomainError, match="true, false, 0 or 1"):
                BipartiteMarket([[1.0, 2.0]], visibility=[[True, bad]])
        with pytest.raises(DomainError, match="true, false, 0 or 1"):
            BipartiteMarket([[1.0, 2.0]], visibility=np.array([[1.0, 0.5]]))
        for flags in ([[True, False]], [[1, 0]], [[1.0, np.False_]], np.array([[1, 0]])):
            mkt = BipartiteMarket([[1.0, 2.0]], visibility=flags)
            assert mkt.visibility.dtype == bool and mkt.visibility.tolist() == [[True, False]]

    def test_capacities_must_be_whole(self):
        for bad in (1.9, True):
            with pytest.raises(DomainError, match="not a whole number"):
                BipartiteMarket([[1.0], [2.0]], capacities=[1, bad])
        assert BipartiteMarket([[1.0]], capacities=[2.0]).capacities == (2,)

    def test_capacities_fit_int64(self):
        assert BipartiteMarket([[1.0]], capacities=[2**63 - 1]).capacities == (2**63 - 1,)
        for bad in (2**63, 10**400):
            with pytest.raises(DomainError, match="below 2\\*\\*63"):
                BipartiteMarket([[1.0]], capacities=[bad])

    def test_price_box(self):
        one_buyer = single_buyer_market([2.0])
        assert one_buyer.price_box() == 13.0
        crowded = BipartiteMarket(np.full((1, 9), 2.0), capacities=[1])
        assert crowded.price_box() == pytest.approx(13.0, abs=1e-12)
        hot = BipartiteMarket(np.full((1, 9), 14.0), capacities=[1])
        assert hot.price_box() == pytest.approx(14.0 + math.log(8) + 1.0, abs=1e-12)


class TestNetworkDemand:
    def test_single_buyer_reduces_to_mnl(self):
        mkt = single_buyer_market([2.0, 1.0, -0.5])
        prices = [1.2, 0.7, 2.0]
        q = network_demand(mkt, prices)
        assert q[:, 0].tolist() == pytest.approx(
            mnl_demand([2.0, 1.0, -0.5], prices), abs=1e-12
        )

    def test_high_prices_kill_demand(self):
        mkt = BipartiteMarket([[1.0, 2.0], [0.0, 1.0]], capacities=[1, 1])
        q = network_demand(mkt, [50.0, 50.0])
        assert np.all(q < 1e-15)

    def test_uniform_two_by_two(self):
        mkt = BipartiteMarket([[1.0, 1.0], [1.0, 1.0]], capacities=[1, 1])
        q = network_demand(mkt, [1.0, 1.0])
        assert np.allclose(q, 1.0 / 3.0, atol=1e-12)

    def test_rows_normalize_with_no_purchase(self):
        rng = np.random.default_rng(91)
        theta = rng.uniform(-2, 2.3, (3, 4))
        vis = rng.random((3, 4)) < 0.8
        mkt = BipartiteMarket(theta, visibility=vis, capacities=[1, 2, 1])
        q = network_demand(mkt, rng.uniform(0, 3, 3))
        assert np.all(q[~vis] == 0.0)
        col = q.sum(axis=0)
        assert np.all(col < 1.0 + 1e-12)

    def test_overflow_guard(self):
        mkt = BipartiteMarket([[900.0], [1.0]], capacities=[1, 1])
        q = network_demand(mkt, [0.0, 0.0])
        assert math.isfinite(q[0, 0]) and q[0, 0] > 0.999


class TestSellerUtility:
    def test_zero_price(self):
        mkt = single_buyer_market([2.0])
        assert seller_utility(mkt, [0.0], 0) == 0.0

    def test_uncapped_arm(self):
        mkt = BipartiteMarket([[1.0, 1.0]], capacities=[5])
        q = network_demand(mkt, [1.5])
        assert seller_utility(mkt, [1.5], 0) == pytest.approx(1.5 * q.sum(), abs=1e-12)

    def test_capacity_binds(self):
        mkt = BipartiteMarket([[2.3, 2.3]], capacities=[1])
        total = network_demand(mkt, [0.5]).sum()
        assert total > 1.0
        assert seller_utility(mkt, [0.5], 0) == pytest.approx(0.5, abs=1e-12)


class TestBestResponse:
    def test_monopolist_single_buyer(self):
        mkt = single_buyer_market([2.0])
        assert seller_best_response(mkt, [1.0], 0) == pytest.approx(2.0, abs=1e-9)

    def test_identical_buyers_scale_invariance(self):
        # Two identical buyers and ample capacity keep the m=1 stationary
        # price.
        mkt = BipartiteMarket([[2.0, 2.0]], capacities=[2])
        assert seller_best_response(mkt, [1.0], 0) == pytest.approx(2.0, abs=1e-9)

    def test_capacity_arm_closed_form(self):
        # k identical buyers against capacity c: demand k*x/(1+x) = c with
        # x = e^{theta - p}, so p = theta + ln((k - c)/c).
        for k in (2, 4):
            mkt = BipartiteMarket(np.full((1, k), 2.3), capacities=[1])
            p = seller_best_response(mkt, [1.0], 0)
            want = 2.3 + math.log((k - 1) / 1)
            assert p == pytest.approx(want, abs=1e-9)
            total = network_demand(mkt, [p])[0].sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_capacity_lift_raises_price(self):
        theta = np.full((1, 4), 2.3)
        uncapped = seller_best_response(BipartiteMarket(theta, capacities=[4]), [1.0], 0)
        capped = seller_best_response(BipartiteMarket(theta, capacities=[1]), [1.0], 0)
        assert capped > uncapped

    def test_stationarity_when_uncapped(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            mkt = BipartiteMarket(
                rng.uniform(-1, 2.3, (n, m)), capacities=[10] * n
            )
            prices = rng.uniform(0.5, 3, n)
            i = int(rng.integers(0, n))
            p = seller_best_response(mkt, prices, i)
            eps = 1e-6

            def util(price):
                trial = np.array(prices, dtype=float)
                trial[i] = price
                return seller_utility(mkt, trial, i)

            deriv = (util(p + eps) - util(p - eps)) / (2 * eps)
            assert abs(deriv) <= 1e-7

    def test_invisible_seller_prices_at_zero(self):
        mkt = BipartiteMarket(
            [[2.0], [1.0]], visibility=[[True], [False]], capacities=[1, 1]
        )
        assert seller_best_response(mkt, [1.0, 1.0], 1) == 0.0

    def test_sigmoid_matches_split_form_bit_for_bit(self):
        # Reference: the two-branch form that gathers each sign separately.
        def split_sigmoid(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(151)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 800.0, -800.0, 1e-300]
        for z in (rng.normal(0.0, 8.0, 200_001), rng.uniform(-750.0, 750.0, 4097),
                  np.array(special)):
            got, want = _sigmoid(z), split_sigmoid(z)
            # Bytes equal, sign of zero included; a NaN may differ only in its sign bit.
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_demand_monotone_in_own_price(self):
        mkt = BipartiteMarket([[2.0, 1.0], [1.5, 0.5]], capacities=[1, 1])
        totals = [
            network_demand(mkt, [p, 1.0])[0].sum() for p in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b < a for a, b in zip(totals, totals[1:]))


class TestConsistency:
    def test_bounded_qualities_pass(self):
        mkt = BipartiteMarket(np.full((2, 3), 2.3), capacities=[1, 1])
        rep = check_consistency(mkt)
        assert rep.consistent
        assert rep.max_share == pytest.approx(
            math.exp(2.3) / (1 + math.exp(2.3)), abs=1e-12
        )

    def test_high_quality_fails(self):
        mkt = BipartiteMarket([[3.0, 1.0]], capacities=[1])
        rep = check_consistency(mkt)
        assert not rep.consistent
        assert rep.max_share == pytest.approx(math.exp(3) / (1 + math.exp(3)), abs=1e-12)

    def test_empty_visibility_is_consistent(self):
        mkt = BipartiteMarket(
            [[3.0]], visibility=[[False]], capacities=[1]
        )
        assert check_consistency(mkt).consistent


class TestSolveEquilibrium:
    def test_single_buyer_matches_closed_form(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            thetas = rng.uniform(-2, 2.3, n)
            mkt = single_buyer_market(thetas, capacities=[1] * n)
            rep = solve_network_equilibrium(mkt)
            assert rep.converged
            cat = ItemCatalog(thetas, [1] * n)
            out = equilibrium_outcome(cat, tuple(range(n)))
            # Map catalog order back to seller order.
            want = [0.0] * n
            for pos, price in enumerate(out.prices):
                want[cat.order[pos]] = price
            assert list(rep.prices) == pytest.approx(want, abs=1e-6)

    def test_symmetric_market_symmetric_prices(self):
        mkt = BipartiteMarket(np.full((2, 2), 1.5), capacities=[2, 2])
        rep = solve_network_equilibrium(mkt)
        assert rep.converged
        assert rep.prices[0] == pytest.approx(rep.prices[1], abs=1e-8)

    def test_random_consistent_markets_converge(self):
        rng = np.random.default_rng(103)
        ok = 0
        total = 30
        for _ in range(total):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            mkt = BipartiteMarket(
                rng.uniform(-1.5, 2.3, (n, m)),
                capacities=rng.integers(1, 4, n),
            )
            rep = solve_network_equilibrium(mkt, max_iters=500)
            if rep.converged and rep.residual <= 1e-6:
                ok += 1
                assert rep.capacity_ok
                assert all(p <= mkt.price_box() for p in rep.prices)
        assert ok >= 0.95 * total

    def test_inconsistent_market_warns(self):
        mkt = BipartiteMarket([[4.0, 4.0]], capacities=[1])
        with pytest.warns(UserWarning, match="not consistent"):
            solve_network_equilibrium(mkt, max_iters=50)


class TestVerify:
    def test_converged_solution_passes(self):
        rng = np.random.default_rng(107)
        mkt = BipartiteMarket(
            rng.uniform(-1, 2.3, (3, 4)), capacities=[1, 2, 1]
        )
        rep = solve_network_equilibrium(mkt)
        assert rep.converged
        ver = verify_equilibrium(mkt, rep.prices, epsilon=1e-6)
        assert ver.equilibrium_ok and ver.capacity_ok and ver.second_order_ok

    def test_zero_prices_fail(self):
        mkt = BipartiteMarket([[2.0, 1.0]], capacities=[1])
        ver = verify_equilibrium(mkt, [0.0], epsilon=1e-6)
        assert not ver.equilibrium_ok
        assert ver.best_response_gains[0] > 0.1

    def test_second_order_flagged_near_share_cap(self):
        # A single dominant pair can push the second-order term positive
        # when shares exceed the consistency cap.
        mkt = BipartiteMarket([[6.0, -3.0, -3.0, -3.0]], capacities=[4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = solve_network_equilibrium(mkt, max_iters=200)
        ver = verify_equilibrium(mkt, rep.prices)
        assert isinstance(ver.second_order_ok, bool)

    def test_capacity_violation_detected(self):
        mkt = BipartiteMarket(np.full((1, 6), 2.3), capacities=[1])
        # Low price floods the seller far beyond capacity.
        ver = verify_equilibrium(mkt, [0.2], epsilon=1e-6)
        assert not ver.capacity_ok


class TestCapacityLiftOnEquilibrium:
    def test_binding_capacity_never_lowers_price(self):
        rng = np.random.default_rng(109)
        for _ in range(8):
            n, m = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            theta = rng.uniform(0.5, 2.3, (n, m))
            loose = BipartiteMarket(theta, capacities=[50] * n)
            tight = BipartiteMarket(theta, capacities=[1] * n)
            rep_loose = solve_network_equilibrium(loose)
            rep_tight = solve_network_equilibrium(tight)
            if rep_loose.converged and rep_tight.converged:
                for a, b in zip(rep_tight.prices, rep_loose.prices):
                    assert a >= b - 1e-7
