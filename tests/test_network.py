"""Tests for the multi-buyer bipartite price game."""

import math
import warnings

import numpy as np
import pytest

from mnlmarkets.equilibrium import (
    DomainError,
    ItemCatalog,
    SolverError,
    _newton,
    equilibrium_outcome,
    mnl_demand,
)
from mnlmarkets.network import (
    BipartiteMarket,
    _best_response_gains,
    _rival_logits,
    _shares_into,
    _sigmoid,
    check_consistency,
    network_demand,
    seller_best_response,
    seller_utility,
    solve_network_equilibrium,
    verify_equilibrium,
)


def reference_rival_logits(market, prices, i):
    """The full-width rival logits, kept as an oracle: every seller's
    log-denominator over every buyer, then i's visible columns."""
    rivals = market.visibility.copy()
    rivals[i] = False
    p = np.asarray(prices, dtype=float)
    util = np.where(rivals, market.theta - p[:, None], -np.inf)
    shift = np.maximum(0.0, util.max(axis=0, initial=-np.inf))
    weights = np.exp(util - shift)
    log_base = shift + np.log(np.exp(-shift) + weights.sum(axis=0))
    vis_i = market.visibility[i]
    return market.theta[i, vis_i] - log_base[vis_i]


def reference_best_response(market, prices, i):
    """The best response with whole-array numpy per share vector, kept as an
    oracle; returns (price, arm) with arm "stationary", "capacity" or "none".

    seller_best_response must give the same price bit for bit, or raise the
    same SolverError.
    """
    z = reference_rival_logits(market, prices, i)
    if z.size == 0:
        return 0.0, "none"
    box = market.price_box()
    cap = float(market.capacities[i])

    def shares(p):
        return _sigmoid(z - p)

    def marginal(p, q):
        return float((q * (1.0 - p * (1.0 - q))).sum())

    def minus_marginal(p):
        q = shares(p)
        slope = float(((q * q - q) * (2.0 + 2.0 * p * q - p)).sum())
        return -marginal(p, q), -slope

    if marginal(box, shares(box)) > 0.0:
        raise SolverError(f"stationary price of seller {i} exceeds the search box")
    p = _newton(minus_marginal, min(2.0, box), 0.0, box, 1e-12, None)
    demand = float(shares(p).sum())
    if demand <= cap:
        return p, "stationary"
    lo, hi = p, box
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = shares(mid)
        d = float(q.sum()) - cap
        if abs(d) < 1e-12:
            return mid, "capacity"
        if d > 0.0:
            lo = mid
        else:
            hi = mid
        slope = float(-(q * (1.0 - q)).sum())
        nxt = mid - d / slope
        if lo < nxt < hi:
            q = shares(nxt)
            d = float(q.sum()) - cap
            if abs(d) < 1e-12:
                return nxt, "capacity"
            if d > 0.0:
                lo = nxt
            else:
                hi = nxt
    return 0.5 * (lo + hi), "capacity"


def reference_gains(market, p):
    """Best-response gains with one full demand solve per utility."""
    gains = []
    for i in range(market.sellers):
        trial = p.copy()
        trial[i] = seller_best_response(market, p, i)
        gains.append(seller_utility(market, trial, i) - seller_utility(market, p, i))
    return gains


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_bits(got, want):
    """Bytes equal, sign of zero included; a NaN may differ only in its sign bit."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_responds_like_reference(market, prices, i):
    """seller_best_response and _rival_logits equal their oracles bit for
    bit, or both raise the same SolverError; returns the oracle's arm."""
    assert bits(_rival_logits(market, prices, i)) == bits(reference_rival_logits(market, prices, i))
    try:
        want, arm = reference_best_response(market, prices, i)
    except SolverError as exc:
        with pytest.raises(SolverError) as info:
            seller_best_response(market, prices, i)
        assert str(info.value) == str(exc)
        return "box"
    assert bits(seller_best_response(market, prices, i)) == bits(want)
    return arm


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
        for bad in (1.9, True, np.True_, np.False_):
            with pytest.raises(DomainError, match="not a whole number"):
                BipartiteMarket([[1.0], [2.0]], capacities=[1, bad])
        assert BipartiteMarket([[1.0]], capacities=[2.0]).capacities == (2,)
        assert BipartiteMarket([[1.0]], capacities=[np.int64(3)]).capacities == (3,)

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

    def test_masked_theta_matches_where_forms(self):
        # network_demand and check_consistency read the one masked theta;
        # they give the bits of masking theta per call, with no warning
        # when the invisible pairs hold nan and infinities.
        rng = np.random.default_rng(281)
        theta = rng.uniform(-1.0, 3.0, (7, 11))
        vis = rng.random((7, 11)) < 0.6
        vis[2], vis[:, 4] = False, False  # a seller and a buyer with no pair
        hidden = np.flatnonzero(~vis)
        theta.flat[hidden] = np.resize([math.nan, math.inf, -math.inf], hidden.size)
        market = BipartiteMarket(theta, visibility=vis, capacities=[2] * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (rng.uniform(0.0, 4.0, 7), np.zeros(7), np.array([-700.0, 0, 1e300, 3, -1e300, 1, 2])):
                util = np.where(vis, theta - p[:, None], -np.inf)
                shift = np.maximum(0.0, util.max(axis=0, initial=-np.inf))
                weights = np.exp(util - shift)
                want = weights / (np.exp(-shift) + weights.sum(axis=0))
                assert bits(network_demand(market, p)) == bits(want)
            want = float(np.where(vis, _sigmoid(theta), 0.0).max())
            assert bits([check_consistency(market).max_share]) == bits([want])

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

    def test_one_price_per_seller(self):
        mkt = BipartiteMarket([[1.0, 2.0], [0.5, 1.0], [0.2, 0.3]])
        for bad in ([1.0, 1.0], [1.0] * 4, 1.0, np.ones((1, 3)), np.ones((3, 1))):
            with pytest.raises(DomainError, match="need one price per seller"):
                seller_best_response(mkt, bad, 0)
        assert seller_best_response(mkt, (1, 1, 1), 0) == seller_best_response(mkt, np.ones(3), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("function", [
        network_demand,
        lambda market, prices: seller_utility(market, prices, 1),
        lambda market, prices: seller_best_response(market, prices, 1),
        verify_equilibrium,
    ], ids=["network_demand", "seller_utility", "seller_best_response", "verify_equilibrium"])
    def test_prices_must_be_finite(self, function, bad):
        # seller_utility once returned nan for seller 1 at [nan, 1], and
        # network_demand warned and returned nan at [-inf, 1].
        mkt = BipartiteMarket([[1.0, 2.0], [0.5, 1.0]])
        for prices in ([bad, 1.0], [1.0, bad], np.array([bad, bad])):
            with pytest.raises(DomainError, match="prices must be finite"):
                function(mkt, prices)
        with pytest.raises(DomainError, match="need one price per seller"):
            function(mkt, [bad, 1.0, 1.0])

    @pytest.mark.parametrize("function", [seller_utility, seller_best_response])
    def test_seller_index_must_be_an_integer(self, function):
        # seller_utility once read q[True], every seller's demand summed:
        # 1.0 here, where seller 1 earns 0.3902.
        mkt = BipartiteMarket([[1.0, 2.0], [0.5, 1.0], [0.2, 0.3]])
        for bad in (True, np.True_, 1.5, 1.0, "1", None):
            with pytest.raises(DomainError, match="not an integer"):
                function(mkt, [1, 1, 1], bad)
        for bad in (-1, 3):
            with pytest.raises(DomainError, match="out of range"):
                function(mkt, [1, 1, 1], bad)
        want = function(mkt, [1, 1, 1], 1)
        for good in (np.int64(1), np.int32(1), np.uint8(1)):
            assert bits(function(mkt, [1, 1, 1], good)) == bits(want)
        assert seller_utility(mkt, [1, 1, 1], 1) == pytest.approx(0.3902406314864739, abs=1e-12)

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
            assert_same_bits(_sigmoid(z), split_sigmoid(z))

    def test_shares_kernel_matches_sigmoid_bit_for_bit(self):
        # _shares_into writes _sigmoid's numerator where(x >= 0, 1, e) as
        # max(e, sign(x)), with x = z - p and e = e^{-|x|}: this pins the
        # identity on signed zeros, subnormals, infinities, nan and
        # underflow, for one price (the 1-row form) and a column of two
        # prices (the 2-row probe form).
        rng = np.random.default_rng(257)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 800.0, -800.0,
                   1e-300, -1e-300, 5e-324, -5e-324]
        prices = [0.0, -0.0, 5e-324, -5e-324, 1.7, 13.0]
        for z in (rng.normal(0.0, 8.0, 4001), np.array(special), np.array(special) + 13.0):
            x, e, q = (np.empty_like(z) for _ in range(3))
            xs, es, qs = (np.empty((2, z.size)) for _ in range(3))
            for p in prices:
                assert_same_bits(_shares_into(z, np.array(p), x, e, q), _sigmoid(z - p))
                assert_same_bits(_shares_into(z, p, x, e, q), _sigmoid(z - p))
            for a, b in zip(prices, prices[1:] + prices[:1]):
                got = _shares_into(z, np.array([[a], [b]]), xs, es, qs)
                assert_same_bits(got[0], _sigmoid(z - a))
                assert_same_bits(got[1], _sigmoid(z - b))

    def test_demand_monotone_in_own_price(self):
        mkt = BipartiteMarket([[2.0, 1.0], [1.5, 0.5]], capacities=[1, 1])
        totals = [
            network_demand(mkt, [p, 1.0])[0].sum() for p in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b < a for a, b in zip(totals, totals[1:]))


class TestBestResponseMatchesReference:
    """The buffered share kernel over i's visible columns moves no bit."""

    def arms(self, market, prices):
        return [assert_responds_like_reference(market, prices, i) for i in range(market.sellers)]

    def test_random_markets_take_both_arms(self):
        # 12 sellers make numpy sum an F-ordered column block pairwise, which
        # differs from the full-width row-order sum.
        rng = np.random.default_rng(211)
        seen = set()
        for n, m, density, top in [(12, 40, 0.6, 1), (12, 40, 0.6, 40), (16, 25, 0.9, 3),
                                   (9, 60, 0.3, 5), (20, 8, 0.5, 2)]:
            vis = rng.random((n, m)) < density
            market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, m)), visibility=vis,
                                     capacities=rng.integers(1, top + 1, n))
            seen.update(self.arms(market, rng.uniform(0.0, 4.0, n)))
        assert {"stationary", "capacity"} <= seen

    def test_solver_sweeps_match_reference(self):
        # Every response of a whole-market solve, at the prices it met.
        rng = np.random.default_rng(223)
        n, m = 10, 30
        market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, m)), visibility=rng.random((n, m)) < 0.7,
                                 capacities=rng.integers(1, 5, n))
        p = np.ones(n)
        for _ in range(3):
            for i in range(n):
                assert_responds_like_reference(market, p, i)
                p[i] = seller_best_response(market, p, i)

    def test_sparse_and_dense_markets(self):
        # Sparse blocks are mostly invisible pairs, whose rival terms are
        # exactly 0.0; a dense market has none. Both must reach both arms,
        # where the capacity arm sums the probe, the midpoint and its slope
        # terms as the rows of one block.
        rng = np.random.default_rng(263)
        for n, m, density in [(14, 120, 0.1), (10, 200, 0.2), (20, 90, 0.3), (12, 60, 1.0)]:
            seen = set()
            for top in (1, 2 * m // n, m):
                vis = rng.random((n, m)) < density
                market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, m)), visibility=vis,
                                         capacities=rng.integers(1, top + 1, n))
                seen.update(self.arms(market, rng.uniform(0.0, 4.0, n)))
            assert {"stationary", "capacity"} <= seen, (n, m, density)

    def test_seller_whose_buyers_see_no_rivals(self):
        # Seller 0's buyers (0-9) are visible to no other seller, so each of
        # its rival logits is its own quality, on both arms.
        rng = np.random.default_rng(269)
        vis = rng.random((8, 40)) < 0.25
        vis[0, :10], vis[1:, :10], vis[0, 10:] = True, False, False
        theta = rng.uniform(-1.0, 2.3, (8, 40))
        for cap, arm in ((10, "stationary"), (1, "capacity")):
            market = BipartiteMarket(theta, visibility=vis, capacities=[cap] + [2] * 7)
            prices = rng.uniform(0.0, 4.0, 8)
            assert bits(_rival_logits(market, prices, 0)) == bits(theta[0, :10])
            assert self.arms(market, prices)[0] == arm

    def test_seller_without_buyers(self):
        market = BipartiteMarket([[2.0, 1.0], [1.0, 0.5]], visibility=[[True, True], [False, False]])
        assert self.arms(market, [1.0, 1.0]) == ["stationary", "none"]
        assert seller_best_response(market, [1.0, 1.0], 1) == 0.0

    def test_one_buyer(self):
        # A single-buyer market sums its one column pairwise, full width and
        # restricted alike; a seller that sees one buyer of several must add
        # its column's rows in order, as the full-width sum does.
        rng = np.random.default_rng(227)
        for n in (1, 2, 9, 12, 30):
            market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, 1)), capacities=[1] * n)
            self.arms(market, rng.uniform(0.0, 4.0, n))
            vis = rng.random((n, 6)) < 0.8
            vis[0] = [False, False, True, False, False, False]
            market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, 6)), visibility=vis)
            for _ in range(5):
                assert_responds_like_reference(market, rng.uniform(0.0, 4.0, n), 0)

    def test_rival_columns_all_invisible(self):
        rng = np.random.default_rng(229)
        vis = rng.random((10, 12)) < 0.7
        vis[0, :5] = True
        vis[1:, :5] = False  # only seller 0 sees buyers 0-4
        market = BipartiteMarket(rng.uniform(-1.0, 2.3, (10, 12)), visibility=vis,
                                 capacities=[1] * 10)
        assert set(self.arms(market, rng.uniform(0.0, 4.0, 10))) <= {"stationary", "capacity"}
        logits = _rival_logits(market, rng.uniform(0.0, 4.0, 10), 0)
        assert bits(logits[:5]) == bits(market.theta[0, :5])

    def test_single_seller_pool_markets(self):
        # equilibrate_pool's markets: one seller, its pool's buyers, price 1.
        rng = np.random.default_rng(233)
        seen = set()
        for k in (1, 2, 7, 40, 300):
            for cap in (1, max(1, k // 3), k):
                market = BipartiteMarket(rng.uniform(-1.0, 2.3, k).reshape(1, -1), capacities=[cap])
                seen.add(assert_responds_like_reference(market, np.array([1.0]), 0))
        assert {"stationary", "capacity"} <= seen

    def test_underflowing_qualities(self):
        # theta = -800: e^{theta - p} underflows to 0.0 in weights and shares.
        rng = np.random.default_rng(239)
        theta = rng.uniform(-1.0, 2.3, (10, 20))
        theta[rng.random((10, 20)) < 0.3] = -800.0
        theta[3] = -800.0
        market = BipartiteMarket(theta, capacities=[2] * 10)
        self.arms(market, rng.uniform(0.0, 4.0, 10))
        self.arms(BipartiteMarket([[-800.0, 1.0]]), [1.0])

    def test_blind_rival_at_extreme_prices(self):
        # A rival that sees none of seller 0's buyers does not move its
        # response, whatever its finite price.
        rng = np.random.default_rng(251)
        vis = rng.random((9, 10)) < 0.7
        vis[8], vis[:, 9] = False, False
        vis[[3, 8], 9] = True  # seller 8 sees only buyer 9, which seller 3 sees and seller 0 does not
        market = BipartiteMarket(rng.uniform(-1.0, 2.3, (9, 10)), visibility=vis)
        prices = rng.uniform(0.0, 4.0, 9)
        base = seller_best_response(market, prices, 0)
        for extreme in (0.0, -1e300, 1e300):
            prices[8] = extreme
            assert bits(seller_best_response(market, prices, 0)) == bits(base)
            assert_responds_like_reference(market, prices, 0)
            assert_responds_like_reference(market, prices, 3)

    def test_box_error(self):
        # One buyer of quality 20 prices past the one-buyer box of 13.
        market = BipartiteMarket([[20.0], [1.0]], capacities=[1, 1])
        assert self.arms(market, [1.0, 1.0]) == ["box", "stationary"]
        with pytest.raises(SolverError, match="exceeds the search box"):
            seller_best_response(market, [1.0, 1.0], 0)

    def test_hypothesis_markets(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        quality = st.one_of(st.floats(-1.5, 2.3), st.sampled_from([-800.0, 0.0, 2.3]))

        @st.composite
        def cases(draw):
            n, m = draw(st.integers(1, 12)), draw(st.integers(1, 9))
            theta = draw(st.lists(st.lists(quality, min_size=m, max_size=m), min_size=n, max_size=n))
            vis = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=n, max_size=n))
            caps = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
            prices = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
            return BipartiteMarket(theta, visibility=vis, capacities=caps), prices

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(case=cases())
        def check(case):
            self.arms(*case)

        check()

    def test_gains_match_per_seller_utilities(self):
        # One demand solve for the base utilities gives the loop's bits.
        rng = np.random.default_rng(241)
        for _ in range(12):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            market = BipartiteMarket(rng.uniform(-1.0, 2.3, (n, m)), visibility=rng.random((n, m)) < 0.8,
                                     capacities=rng.integers(1, m + 1, n))
            p = rng.uniform(0.0, 4.0, n)
            want = reference_gains(market, p)
            assert bits(_best_response_gains(market, p, network_demand(market, p))) == bits(want)
            assert bits(verify_equilibrium(market, p).best_response_gains) == bits(want)
            rep = solve_network_equilibrium(market, max_iters=50)
            assert bits([rep.residual]) == bits([max([0.0, *reference_gains(market, np.array(rep.prices))])])


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
