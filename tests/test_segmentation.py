"""Tests for flow-based segmentation against brute-force assignment oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from mnlmarkets.equilibrium import DomainError, _sequential_sum
from mnlmarkets.network import BipartiteMarket
from mnlmarkets.segmentation import (
    _NO_ARC,
    WEIGHT_SCALE,
    FlowAssignment,
    Pool,
    build_flow_network,
    compare_segmented_vs_whole,
    equilibrate_pool,
    max_weight_flow,
    pools_from_flow,
    segment_market,
    unit_price_weight,
)

E = math.e


def brute_force_assignment(market):
    """Max total fixed-point weight among maximum-cardinality assignments.

    Enumerates every buyer -> (seller | none) map that respects visibility
    and capacities; mirrors the flow semantics, which fills as many of the
    min(m, sum c) units as visibility allows before maximizing weight.
    """
    m, n = market.buyers, market.sellers
    scaled = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for k in range(m):
            if market.visibility[i, k]:
                scaled[i, k] = round(WEIGHT_SCALE * unit_price_weight(float(market.theta[i, k])))
    options = [
        [None] + [i for i in range(n) if market.visibility[i, k]] for k in range(m)
    ]
    best_by_count: dict[int, int] = {}
    for combo in itertools.product(*options):
        used = [0] * n
        weight = 0
        count = 0
        feasible = True
        for k, i in enumerate(combo):
            if i is None:
                continue
            used[i] += 1
            if used[i] > market.capacities[i]:
                feasible = False
                break
            weight += int(scaled[i, k])
            count += 1
        if feasible:
            best_by_count[count] = max(best_by_count.get(count, -1), weight)
    max_count = max(best_by_count)
    return max_count, best_by_count[max_count]


class TestBuildNetwork:
    def test_weight_matrix_values(self):
        mkt = BipartiteMarket(
            [[1.0, 0.0], [2.0, 1.0]],
            visibility=[[True, True], [True, False]],
            capacities=[1, 2],
        )
        w = build_flow_network(mkt).weights  # seller x buyer
        assert w[0, 0] == round(WEIGHT_SCALE * 0.5)
        assert w[0, 1] == round(WEIGHT_SCALE / (1.0 + E))
        assert w[1, 0] == round(WEIGHT_SCALE * E / (1.0 + E))
        assert w[1, 1] < 0  # the invisible pair

    def test_weight_matrix_layout(self):
        rng = np.random.default_rng(83)
        mkt = BipartiteMarket(rng.uniform(-1.0, 2.3, (4, 9)),
                              visibility=rng.random((4, 9)) < 0.6, capacities=[1, 3, 2, 5])
        net = build_flow_network(mkt)
        assert net.weights.dtype == np.int64 and net.weights.shape == (4, 9)
        with pytest.raises(ValueError):
            net.weights[0, 0] = 1
        for i, k in zip(*np.nonzero(mkt.visibility)):
            theta = float(mkt.theta[i, k])
            assert net.weights[i, k] == round(WEIGHT_SCALE * unit_price_weight(theta))
        assert (net.weights[~mkt.visibility] < 0).all()

    def test_weight_matrix_equals_the_scalar_expression(self):
        # theta - 1 at 499, 500 and 800 straddles unit_price_weight's cut;
        # invisible pairs may hold any theta, nan and infinities included.
        rng = np.random.default_rng(29)
        theta = rng.uniform(-40.0, 40.0, (6, 50))
        theta[0, :3] = [500.0, 501.0, 801.0]
        visible = rng.random((6, 50)) < 0.7
        visible[0, :3] = True
        theta[1, :3], visible[1, :3] = [math.nan, math.inf, -math.inf], False
        mkt = BipartiteMarket(theta, visibility=visible, capacities=[2] * 6)
        want = np.array([
            [round(WEIGHT_SCALE * unit_price_weight(t)) if v else _NO_ARC
             for t, v in zip(row, seen)]
            for row, seen in zip(theta.tolist(), visible.tolist())
        ], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build_flow_network(mkt).weights
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got[0, :3].tolist() == [WEIGHT_SCALE] * 3

    def test_unit_price_weight_values(self):
        assert unit_price_weight(1.0) == pytest.approx(0.5, abs=1e-15)
        assert unit_price_weight(0.0) == pytest.approx(1.0 / (1.0 + E), abs=1e-15)


class TestMaxWeightFlow:
    def test_single_pair(self):
        mkt = BipartiteMarket([[2.0]], capacities=[1])
        flow = max_weight_flow(build_flow_network(mkt))
        assert flow.pairs == ((0, 0),)
        assert flow.value == 1 and not flow.shortfall
        assert flow.total_weight == round(WEIGHT_SCALE * E / (1.0 + E))

    def test_diagonal_preference(self):
        mkt = BipartiteMarket([[2.0, 0.0], [0.0, 2.0]], capacities=[1, 1])
        flow = max_weight_flow(build_flow_network(mkt))
        assert flow.pairs == ((0, 0), (1, 1))
        count, weight = brute_force_assignment(mkt)
        assert flow.value == count and flow.total_weight == weight

    def test_capacity_two_takes_best_buyers(self):
        mkt = BipartiteMarket([[2.0, -1.0, 1.0]], capacities=[2])
        flow = max_weight_flow(build_flow_network(mkt))
        assert flow.pairs == ((0, 0), (2, 0))
        count, weight = brute_force_assignment(mkt)
        assert flow.value == count == 2 and flow.total_weight == weight

    def test_matches_brute_force_on_random_markets(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 7))
            vis = rng.random((n, m)) < 0.8
            mkt = BipartiteMarket(
                rng.uniform(-3, 3, (n, m)),
                visibility=vis,
                capacities=rng.integers(1, 4, n),
            )
            flow = max_weight_flow(build_flow_network(mkt))
            count, weight = brute_force_assignment(mkt)
            assert flow.value == count
            assert flow.total_weight == weight  # exact fixed-point equality
            assert flow.shortfall == (count < min(m, sum(mkt.capacities)))

    def test_deterministic(self):
        rng = np.random.default_rng(127)
        mkt = BipartiteMarket(rng.uniform(-1, 2, (3, 5)), capacities=[2, 1, 2])
        net = build_flow_network(mkt)
        assert max_weight_flow(net) == max_weight_flow(net)

    def test_integral_and_capacity_respecting(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            mkt = BipartiteMarket(
                rng.uniform(-2, 2.5, (n, m)), capacities=rng.integers(1, 3, n)
            )
            flow = max_weight_flow(build_flow_network(mkt))
            buyers = [b for b, _ in flow.pairs]
            assert len(buyers) == len(set(buyers))
            per_seller = {}
            for _, s in flow.pairs:
                per_seller[s] = per_seller.get(s, 0) + 1
            for s, cnt in per_seller.items():
                assert cnt <= mkt.capacities[s]


class TestPools:
    def test_diagonal_gives_singleton_pools(self):
        assignment = FlowAssignment(
            pairs=((0, 0), (1, 1)), value=2, total_weight=0, shortfall=False
        )
        pools = pools_from_flow(assignment)
        assert pools == (Pool(0, (0,)), Pool(1, (1,)))

    def test_idle_seller_gets_no_pool(self):
        assignment = FlowAssignment(
            pairs=((0, 1), (2, 1)), value=2, total_weight=0, shortfall=False
        )
        pools = pools_from_flow(assignment)
        assert pools == (Pool(1, (0, 2)),)

    def test_three_buyers_one_seller(self):
        mkt = BipartiteMarket([[2.0, -1.0, 1.0]], capacities=[2])
        pools = pools_from_flow(max_weight_flow(build_flow_network(mkt)))
        assert pools == (Pool(0, (0, 2)),)


class TestEquilibratePool:
    def test_single_buyer_reduction(self):
        mkt = BipartiteMarket([[2.0]], capacities=[1])
        price, revenue = equilibrate_pool(mkt, Pool(0, (0,)))
        assert price == pytest.approx(2.0, abs=1e-9)
        assert revenue == pytest.approx(1.0, abs=1e-9)

    def test_unit_price_floor(self):
        mkt = BipartiteMarket([[0.0]], capacities=[1])
        _, revenue = equilibrate_pool(mkt, Pool(0, (0,)))
        assert revenue >= 1.0 / (1.0 + E) - 1e-9

    def test_two_identical_buyers_double_revenue(self):
        mkt = BipartiteMarket([[2.0, 2.0]], capacities=[2])
        _, revenue = equilibrate_pool(mkt, Pool(0, (0, 1)))
        assert revenue == pytest.approx(2.0, abs=1e-8)

    def test_empty_pool_rejected(self):
        mkt = BipartiteMarket([[2.0]], capacities=[1])
        with pytest.raises(DomainError):
            equilibrate_pool(mkt, Pool(0, ()))

    # Buyer 2 is invisible to seller 0; seller 1 sees every buyer.
    POOL_MARKET = dict(theta=[[1.0, 2.0, 0.7], [0.5, 1.0, 1.5]],
                       visibility=[[True, True, False], [True, True, True]])

    def test_pool_seller_must_be_a_seller_index(self):
        # seller -1 was priced as seller 1, and seller 5 raised IndexError.
        mkt = BipartiteMarket(**self.POOL_MARKET)
        for seller, message in ((-1, "out of range"), (5, "out of range"), (True, "not an integer")):
            with pytest.raises(DomainError, match=message):
                equilibrate_pool(mkt, Pool(seller, (0, 1)))
        assert equilibrate_pool(mkt, Pool(np.int64(1), (0, 1))) == equilibrate_pool(mkt, Pool(1, (0, 1)))

    def test_pool_buyers_must_be_in_range(self):
        # buyer -1 wrapped to the last buyer.
        mkt = BipartiteMarket(**self.POOL_MARKET)
        for buyers in ((-1,), (0, 3)):
            with pytest.raises(DomainError, match="out of range"):
                equilibrate_pool(mkt, Pool(1, buyers))
        for buyers in ((True,), (0.5,), ("0",), ((0, 1),)):
            with pytest.raises(DomainError, match="not buyer indices"):
                equilibrate_pool(mkt, Pool(1, buyers))

    def test_pool_buyers_must_be_distinct(self):
        # (0, 0) counted buyer 0 twice.
        mkt = BipartiteMarket(**self.POOL_MARKET)
        with pytest.raises(DomainError, match="repeat a buyer"):
            equilibrate_pool(mkt, Pool(1, (0, 1, 0)))

    def test_pool_buyers_must_be_visible_to_the_seller(self):
        # (0, (2,)) priced the invisible pair at a revenue of 0.465, and
        # a nan quality there raised "visible qualities must be finite".
        for hidden in (0.7, math.nan):
            theta = [[1.0, 2.0, hidden], [0.5, 1.0, 1.5]]
            mkt = BipartiteMarket(theta, visibility=self.POOL_MARKET["visibility"])
            for buyers in ((2,), (0, 2)):
                with pytest.raises(DomainError, match="invisible to seller 0"):
                    equilibrate_pool(mkt, Pool(0, buyers))
            price, _ = equilibrate_pool(mkt, Pool(1, (0, 1, 2)))
            assert math.isfinite(price)

    def test_pool_revenue_dominates_its_arc_weights(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            mkt = BipartiteMarket(
                rng.uniform(-2, 2.3, (n, m)), capacities=rng.integers(1, 3, n)
            )
            for pool in pools_from_flow(max_weight_flow(build_flow_network(mkt))):
                _, revenue = equilibrate_pool(mkt, pool)
                unit = sum(
                    unit_price_weight(float(mkt.theta[pool.seller, k]))
                    for k in pool.buyers
                )
                assert revenue >= unit - 1e-9


class TestSegmentMarket:
    def test_one_by_one(self):
        seg = segment_market(BipartiteMarket([[2.0]], capacities=[1]))
        assert seg.total_revenue == pytest.approx(1.0, abs=1e-9)
        assert seg.lower_bound == pytest.approx(1.0 / (1.0 + E), abs=1e-12)
        assert seg.upper_bound == pytest.approx(12.0, abs=1e-12)
        assert seg.lower_bound <= seg.total_revenue <= seg.upper_bound

    def test_symmetric_four_by_two(self):
        mkt = BipartiteMarket(np.ones((2, 4)), capacities=[2, 2])
        seg = segment_market(mkt)
        assert seg.flow_weight == pytest.approx(2.0, abs=1e-8)
        assert seg.total_revenue >= 2.0 - 1e-9
        assert sum(len(p.buyers) for p in seg.pools) == 4

    def test_negative_quality_disables_floor(self):
        mkt = BipartiteMarket([[2.0, -0.5]], capacities=[2])
        seg = segment_market(mkt)
        assert seg.lower_bound is None
        assert seg.total_revenue <= seg.upper_bound

    def test_partial_visibility_disables_floor(self):
        mkt = BipartiteMarket(
            [[2.0, 1.0]], visibility=[[True, False]], capacities=[2]
        )
        seg = segment_market(mkt)
        assert seg.lower_bound is None

    def test_floor_holds_on_random_certified_markets(self):
        rng = np.random.default_rng(139)
        for _ in range(15):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            mkt = BipartiteMarket(
                rng.uniform(0.0, 2.3, (n, m)), capacities=rng.integers(1, 3, n)
            )
            seg = segment_market(mkt)
            units = min(m, sum(mkt.capacities))
            assert seg.flow_weight >= units / (1.0 + E) - 1e-9
            assert seg.lower_bound == pytest.approx(units / (1.0 + E), abs=1e-12)
            assert seg.total_revenue >= seg.flow_weight - 1e-6
            assert seg.total_revenue <= seg.upper_bound
            buyers = [b for p in seg.pools for b in p.buyers]
            assert len(buyers) == len(set(buyers))


class TestCompare:
    def test_single_buyer_equals_best_pool(self):
        mkt = BipartiteMarket([[2.0], [1.0]], capacities=[1, 1])
        cmp = compare_segmented_vs_whole(mkt)
        # The lone buyer lands with the high-quality seller; that pool's
        # monopoly revenue is the whole segmented value.
        assert cmp.segmentation.pools == (Pool(0, (0,)),)
        assert cmp.segmented_revenue == pytest.approx(1.0, abs=1e-8)
        assert cmp.whole.converged

    def test_crowded_market_gains_from_segmentation(self):
        # Six sellers contesting six identical buyers: many-way competition
        # drives whole-market prices toward 1, while one-on-one pools keep
        # monopoly pricing. Frozen regression values from this pipeline.
        mkt = BipartiteMarket(np.full((6, 6), 2.3), capacities=[1] * 6)
        cmp = compare_segmented_vs_whole(mkt)
        assert cmp.whole.converged
        assert cmp.segmented_revenue > cmp.whole_revenue
        assert cmp.segmented_revenue == pytest.approx(6.932893, abs=1e-4)
        assert cmp.whole_revenue == pytest.approx(6.755757, abs=1e-4)

    def test_duopoly_keeps_whole_market_ahead(self):
        # With only two sellers the assortment externality dominates: the
        # whole market out-earns any single-seller pooling.
        mkt = BipartiteMarket(np.full((2, 4), 2.3), capacities=[2, 2])
        cmp = compare_segmented_vs_whole(mkt)
        assert cmp.whole.converged
        assert cmp.whole_revenue > cmp.segmented_revenue

    def test_both_values_reported_uniform_market(self):
        mkt = BipartiteMarket(np.ones((2, 3)), capacities=[2, 2])
        cmp = compare_segmented_vs_whole(mkt)
        assert cmp.segmented_revenue > 0 and cmp.whole_revenue > 0


def fixed_point_weights(market):
    """Fixed-point weight of every visible pair, computed from theta alone."""
    weights = np.zeros(market.theta.shape, dtype=np.int64)
    for i, k in zip(*np.nonzero(market.visibility)):
        weights[i, k] = round(WEIGHT_SCALE * unit_price_weight(float(market.theta[i, k])))
    return weights


def seller_slots(market):
    """One slot per unit of capacity a seller could ever fill."""
    visible = market.visibility.sum(axis=1)
    return np.repeat(
        np.arange(market.sellers), np.minimum(market.capacities, visible)
    )


def scipy_assignment(market):
    """(count, weight) from linear_sum_assignment on buyers x seller slots.

    A visible pair scores BIG plus its weight, an invisible one 0. BIG
    exceeds any total weight, so one more visible pair always wins: the
    optimum has maximum cardinality first and maximum weight second. All
    scores are integers far below 2**53, so float64 sums are exact.
    """
    optimize = pytest.importorskip("scipy.optimize")
    weights = fixed_point_weights(market)
    slots = seller_slots(market)
    big = WEIGHT_SCALE * (market.buyers + 1)
    visible = market.visibility[slots].T
    score = np.where(visible, big + weights[slots].T, 0).astype(float)
    buyers, cols = optimize.linear_sum_assignment(score, maximize=True)
    used = visible[buyers, cols]
    sellers = slots[cols[used]]
    return int(used.sum()), int(weights[sellers, buyers[used]].sum())


def networkx_matching(market):
    """(count, weight) from max_weight_matching(maxcardinality=True) on the
    buyer / seller-slot graph; integer weights keep networkx exact."""
    nx = pytest.importorskip("networkx")
    weights = fixed_point_weights(market)
    graph = nx.Graph()
    for slot, i in enumerate(seller_slots(market)):
        for k in np.flatnonzero(market.visibility[i]):
            graph.add_edge(("buyer", int(k)), ("slot", slot), weight=int(weights[i, k]))
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    return len(matching), sum(graph[u][v]["weight"] for u, v in matching)


def networkx_min_cost_flow(market):
    """(count, weight) from networkx's max_flow_min_cost on the capacitated
    source -> buyer -> seller -> sink graph with negated integer weights."""
    nx = pytest.importorskip("networkx")
    weights = fixed_point_weights(market)
    graph = nx.DiGraph()
    for k in range(market.buyers):
        graph.add_edge("source", ("buyer", k), capacity=1, weight=0)
    for i in range(market.sellers):
        graph.add_edge(("seller", i), "sink", capacity=market.capacities[i], weight=0)
        for k in np.flatnonzero(market.visibility[i]):
            graph.add_edge(
                ("buyer", int(k)), ("seller", i), capacity=1, weight=-int(weights[i, k])
            )
    flow = nx.max_flow_min_cost(graph, "source", "sink")
    return sum(flow["source"].values()), -nx.cost_of_flow(graph, flow)


def oracle_markets():
    """30 markets up to 12 x 60; every third has integer qualities, so many
    pairs share one exact fixed-point weight."""
    rng = np.random.default_rng(149)
    markets = []
    for trial in range(30):
        n, m = (12, 60) if trial == 29 else (int(rng.integers(1, 13)), int(rng.integers(1, 61)))
        if trial % 3 == 0:
            theta = rng.integers(-1, 3, (n, m)).astype(float)
        else:
            theta = rng.uniform(-3.0, 3.0, (n, m))
        markets.append(BipartiteMarket(
            theta,
            visibility=rng.random((n, m)) < rng.uniform(0.2, 1.0),
            capacities=rng.integers(1, 8, n),
        ))
    return markets


class TestIndependentOracles:
    def test_scipy_linear_sum_assignment(self):
        for mkt in oracle_markets():
            flow = max_weight_flow(build_flow_network(mkt))
            assert (flow.value, flow.total_weight) == scipy_assignment(mkt)

    def test_networkx_max_weight_matching(self):
        for mkt in oracle_markets():
            flow = max_weight_flow(build_flow_network(mkt))
            assert (flow.value, flow.total_weight) == networkx_matching(mkt)

    def test_thirty_by_four_hundred(self):
        # max_weight_matching needs about a minute on the slot graph at this
        # size, so networkx's network simplex checks this market instead.
        rng = np.random.default_rng(151)
        mkt = BipartiteMarket(
            rng.uniform(-1.0, 2.3, (30, 400)),
            visibility=rng.random((30, 400)) < 0.5,
            capacities=rng.integers(1, 14, 30),
        )
        flow = max_weight_flow(build_flow_network(mkt))
        expected = (flow.value, flow.total_weight)
        assert expected == scipy_assignment(mkt)
        assert expected == networkx_min_cost_flow(mkt)


class TestFlowEdgeCases:
    def check(self, mkt):
        flow = max_weight_flow(build_flow_network(mkt))
        count, weight = brute_force_assignment(mkt)
        assert (flow.value, flow.total_weight) == (count, weight)
        assert flow.shortfall == (count < min(mkt.buyers, sum(mkt.capacities)))
        # The reported pairs are a valid assignment that carries the weight.
        weights = fixed_point_weights(mkt)
        buyers = [k for k, _ in flow.pairs]
        assert len(set(buyers)) == len(buyers) == flow.value
        assert all(mkt.visibility[i, k] for k, i in flow.pairs)
        load = np.bincount([i for _, i in flow.pairs], minlength=mkt.sellers)
        assert np.all(load <= mkt.capacities)
        assert sum(int(weights[i, k]) for k, i in flow.pairs) == flow.total_weight
        return flow

    def test_one_seller(self):
        flow = self.check(BipartiteMarket([[0.5, 2.0, -1.0, 1.5]], capacities=[2]))
        assert flow.pairs == ((1, 0), (3, 0)) and not flow.shortfall

    def test_one_buyer(self):
        flow = self.check(BipartiteMarket([[0.5], [2.0], [1.0]], capacities=[1, 1, 1]))
        assert flow.pairs == ((0, 1),) and not flow.shortfall

    def test_all_pairs_invisible(self):
        mkt = BipartiteMarket(np.ones((2, 3)), visibility=np.zeros((2, 3)), capacities=[1, 2])
        flow = self.check(mkt)
        assert flow == FlowAssignment(pairs=(), value=0, total_weight=0, shortfall=True)

    def test_seller_without_visible_buyer(self):
        mkt = BipartiteMarket(
            [[2.0, 1.0, 0.0], [3.0, 3.0, 3.0]],
            visibility=[[True, True, True], [False, False, False]],
            capacities=[2, 3],
        )
        flow = self.check(mkt)
        assert flow.pairs == ((0, 0), (1, 0)) and flow.shortfall

    def test_capacity_beyond_buyers(self):
        # sum c = 9 > m = 4 and seller 1's capacity exceeds its two visible
        # buyers; buyer 3 is visible to seller 0 only and must go there.
        mkt = BipartiteMarket(
            [[0.0, 0.5, 1.0, -2.0], [2.0, 2.0, 0.0, 0.0]],
            visibility=[[True, True, True, True], [True, True, False, False]],
            capacities=[4, 5],
        )
        flow = self.check(mkt)
        assert flow.pairs == ((0, 1), (1, 1), (2, 0), (3, 0)) and not flow.shortfall

    def test_cardinality_before_weight(self):
        # Buyer 0 alone on seller 0 is the heaviest single pair, but two
        # lighter pairs cover both buyers.
        mkt = BipartiteMarket(
            [[3.0, 0.0], [0.0, -3.0]],
            visibility=[[True, True], [True, False]],
            capacities=[1, 1],
        )
        flow = self.check(mkt)
        assert flow.pairs == ((0, 1), (1, 0))

    def test_uniform_market_fills_lowest_indices(self):
        # Every pair weighs the same, so each augmentation takes the lowest
        # free buyer into the lowest seller with spare capacity.
        flow = self.check(BipartiteMarket(np.ones((3, 5)), capacities=[2, 1, 3]))
        assert flow.pairs == ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2))

    def test_tie_goes_to_lowest_open_seller(self):
        # Buyer 1 weighs the same at both sellers and moving buyer 0 gains
        # nothing, so the path ends at seller 0, the lowest with spare room.
        flow = self.check(BipartiteMarket([[2.0, 0.0], [1.0, 0.0]], capacities=[2, 1]))
        assert flow.pairs == ((0, 0), (1, 0))

    def test_tie_moves_lowest_buyer(self):
        # Seller 0 is full with buyers 0 and 1, which it values alike, and
        # buyer 2 sees only seller 0: the transfer to seller 1 moves buyer 0.
        mkt = BipartiteMarket(
            [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
            visibility=[[True, True, True], [True, True, False]],
            capacities=[2, 1],
        )
        assert self.check(mkt).pairs == ((0, 1), (1, 0), (2, 0))

    def test_tie_takes_lowest_predecessor_seller(self):
        # Buyer 2 can enter seller 0 or 1 at equal weight, each of which then
        # hands its buyer on to seller 2 at equal loss; seller 0 is the
        # lowest predecessor of seller 2.
        mkt = BipartiteMarket(
            [[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]],
            visibility=[[True, False, True], [False, True, True], [True, True, False]],
            capacities=[1, 1, 1],
        )
        assert self.check(mkt).pairs == ((0, 2), (1, 1), (2, 0))

    def test_tie_heavy_integer_markets(self):
        rng = np.random.default_rng(157)
        for _ in range(40):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            mkt = BipartiteMarket(
                rng.integers(0, 2, (n, m)).astype(float),
                visibility=rng.random((n, m)) < 0.8,
                capacities=rng.integers(1, 3, n),
            )
            self.check(mkt)


class TestSequentialTotals:
    # sum() of floats is compensated from Python 3.12 on; the totals add
    # left to right from 0.0 on every version, as the equilibrium totals do.
    def test_totals_add_left_to_right(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n, m = int(rng.integers(2, 5)), int(rng.integers(3, 8))
            mkt = BipartiteMarket(rng.uniform(-0.5, 2.3, (n, m)),
                                  capacities=rng.integers(1, 3, n))
            cmp = compare_segmented_vs_whole(mkt)
            seg = cmp.segmentation
            assert seg.total_revenue == _sequential_sum(seg.pool_revenues)
            totals = cmp.whole.demands.sum(axis=1)
            whole = 0.0
            for p, t, c in zip(cmp.whole.prices, totals, mkt.capacities):
                whole += p * min(t, c)
            assert cmp.whole_revenue == whole
