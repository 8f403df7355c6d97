"""Tests for the Monte-Carlo harness, the ratio bound curve, and the
adversarial instance generator."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mnlmarkets.equilibrium import DomainError, ItemCatalog, equilibrium_outcome
from mnlmarkets.policies import OnlineInstance, solo_demands
from mnlmarkets.simulate import (
    POLICIES,
    adversarial_instance,
    always_offer_ratios,
    episode_rng,
    episode_uniforms,
    estimate_ratio,
    estimate_ratios,
    hybrid_ratio_bound,
    run_episode,
    sample_choice,
    threshold_headroom,
    _bound_closed_branch,
    _bound_numeric_branch,
    _MASK_RULES,
    _choice_tables,
    _lockstep,
    _stream_words,
)
from mnlmarkets import simulate
from mnlmarkets.lp import solve_opt
from oracles import bits, reference_numeric_branch, reference_row, scalar_revenues

E = math.e


class TestSampleChoice:
    def test_empty_assortment_never_sells(self):
        cat = ItemCatalog([2.0], [1])
        out = equilibrium_outcome(cat, ())
        rng = episode_rng(0, 0)
        assert all(sample_choice(out, rng) is None for _ in range(100))

    def test_solo_frequency(self):
        cat = ItemCatalog([2.0], [1])
        out = equilibrium_outcome(cat, (0,))
        rng = episode_rng(1, 0)
        n = 100_000
        hits = sum(sample_choice(out, rng) == 0 for _ in range(n))
        assert abs(hits / n - 0.5) < 0.005

    def test_pair_frequencies_unbiased(self):
        cat = ItemCatalog([1.0, 2.0], [1, 1])
        out = equilibrium_outcome(cat, (0, 1))
        rng = episode_rng(2, 0)
        n = 100_000
        counts = {0: 0, 1: 0, None: 0}
        for _ in range(n):
            counts[sample_choice(out, rng)] += 1
        for member, q in zip(out.members, out.demands):
            tol = 4.0 * math.sqrt(q * (1.0 - q) / n)
            assert abs(counts[member] / n - q) < tol
        tol0 = 4.0 * math.sqrt(out.q0 * (1.0 - out.q0) / n)
        assert abs(counts[None] / n - out.q0) < tol0

    def test_exactly_one_uniform_per_draw(self):
        cat = ItemCatalog([2.0], [1])
        out = equilibrium_outcome(cat, (0,))
        a = episode_rng(3, 0)
        b = episode_rng(3, 0)
        sample_choice(out, a)
        b.random()
        assert a.random() == b.random()


class TestRunEpisode:
    def test_zero_buyers(self):
        inst = OnlineInstance(ItemCatalog([2.0], [1]), m=0, threshold=0.5)
        res = run_episode(POLICIES["hybrid"], inst, episode_rng(0, 0))
        assert res.revenue == 0.0 and res.path == ()

    def test_geometric_first_sale_oracle(self):
        # One heavy unit, ten buyers: sells within the horizon with
        # probability 1 - 0.5^10 at price 2.
        inst = OnlineInstance(ItemCatalog([2.0], [1]), m=10, threshold=0.5)
        expected = 2.0 * (1.0 - 0.5 ** 10)
        reps = 2000
        revs = [
            run_episode(POLICIES["hybrid"], inst, episode_rng(5, r)).revenue
            for r in range(reps)
        ]
        mean = float(np.mean(revs))
        se = float(np.std(revs, ddof=1) / math.sqrt(reps))
        assert abs(mean - expected) <= 3.0 * se

    def test_bitwise_reproducible(self):
        cat = ItemCatalog([2.5, 1.0, -0.5], [2, 3, 1])
        inst = OnlineInstance(cat, m=20, threshold=0.5)
        a = run_episode(POLICIES["hybrid"], inst, episode_rng(9, 4))
        b = run_episode(POLICIES["hybrid"], inst, episode_rng(9, 4))
        assert a == b

    def test_inventory_never_oversold_and_phases_monotone(self):
        rng_master = np.random.default_rng(83)
        for rep in range(20):
            n = int(rng_master.integers(1, 6))
            cat = ItemCatalog(
                rng_master.uniform(-2, 3.5, n), rng_master.integers(1, 4, n)
            )
            inst = OnlineInstance(cat, m=30, threshold=0.5)
            res = run_episode(POLICIES["hybrid"], inst, episode_rng(10, rep))
            assert all(s <= c for s, c in zip(res.sold_units, cat.inventories))
            seen_light = False
            remaining = list(cat.inventories)
            last_phase1_quality = math.inf
            for assortment, purchased in res.path:
                for i in assortment:
                    assert remaining[i] > 0
                if len(assortment) == 1 and not seen_light:
                    pass
                if purchased is not None:
                    remaining[purchased] -= 1
            # Re-derive phases from the decisions: phase1 decisions are
            # heavy singletons in nonincreasing quality order.
            from mnlmarkets.policies import classify_heavy

            heavy = set(classify_heavy(cat, 0.5))
            for assortment, _ in res.path:
                is_phase1 = len(assortment) == 1 and assortment[0] in heavy
                if is_phase1:
                    assert not seen_light
                    q = cat.qualities[assortment[0]]
                    assert q <= last_phase1_quality
                    last_phase1_quality = q
                else:
                    seen_light = True

    def test_pathwise_revenue_dominates_unit_sales(self):
        # Equilibrium prices are at least 1, so revenue >= units sold.
        cat = ItemCatalog([1.5, 0.0, -1.0], [2, 2, 2])
        inst = OnlineInstance(cat, m=25, threshold=0.5)
        for rep in range(10):
            res = run_episode(POLICIES["greedy"], inst, episode_rng(11, rep))
            assert res.revenue >= sum(res.sold_units) - 1e-12


class TestEstimateRatio:
    def test_ratio_below_one_with_margin(self):
        cat = ItemCatalog([2.0, 0.5], [2, 2])
        inst = OnlineInstance(cat, m=8, threshold=0.5)
        est = estimate_ratio("hybrid", inst, replications=400, seed=21)
        assert est.ratio <= 1.0 + 3.0 * est.std_error / est.opt
        assert est.opt > 0 and est.replications == 400

    def test_rejects_unknown_policy(self):
        cat = ItemCatalog([2.0], [1])
        inst = OnlineInstance(cat, m=1, threshold=0.5)
        for policy in ("clairvoyant", POLICIES["greedy"], ["hybrid"]):
            with pytest.raises(DomainError, match="unknown policy"):
                estimate_ratio(policy, inst, replications=1, seed=0)

    def test_a_policy_the_engine_cannot_play_is_unknown(self, monkeypatch):
        # A POLICIES key without a lockstep rule once passed the name check
        # and raised a bare KeyError in the engine; run_episode still plays it.
        monkeypatch.setitem(POLICIES, "mine", POLICIES["hybrid"])
        inst = OnlineInstance(ItemCatalog([2.0, 0.5], [2, 2]), m=3, threshold=0.6)
        with pytest.raises(DomainError, match="unknown policy 'mine'"):
            estimate_ratio("mine", inst, replications=3, seed=0)
        mine = run_episode(POLICIES["mine"], inst, episode_rng(0, 0))
        assert mine == run_episode(POLICIES["hybrid"], inst, episode_rng(0, 0))

    def test_replications_beyond_stream_indices_rejected(self):
        # 2**32 + 1 rows are addressable at m = 1, but index 2**32 is not one seed word.
        inst = OnlineInstance(ItemCatalog([2.0], [1]), 1, 0.5)
        with pytest.raises(DomainError, match="2\\*\\*32"):
            estimate_ratio("greedy", inst, 2**32 + 1, seed=0)

    def test_objective_is_solve_opt(self):
        # Two items on the scalar column path, seven on the batched one.
        cases = (([2.0, 0.5], [2, 2], 8),
                 ([3.1, 1.0, -0.4, 0.2, 1.7, 2.2, 0.9], [1, 2, 3, 1, 2, 1, 4], 13))
        for qualities, stock, m in cases:
            cat = ItemCatalog(qualities, stock)
            expected = solve_opt(cat, m).objective
            assert estimate_ratio("hybrid", OnlineInstance(cat, m, 0.5), 5, seed=1).opt == expected
            # Every row reports the optimum at its buyer count; an equal catalog gives the same.
            rows = estimate_ratios(ItemCatalog(qualities, stock), ["hybrid", "greedy"], [0.5, 0.6],
                                   [m, 1, m], 5, seed=1)
            assert [row.opt for row in rows] == [expected, solve_opt(cat, 1).objective, expected] * 4

    def test_unaddressable_counts_rejected(self):
        # Shapes numpy rejects before allocating anything.
        cat = ItemCatalog([2.0], [1])
        for m, replications in ((2**62, 1), (int(1e300), 1000), (0, 2**62), (3, int(1e300))):
            with pytest.raises(DomainError, match="numpy can address"):
                estimate_ratio("greedy", OnlineInstance(cat, m, 0.5), replications, seed=0)


def lockstep_revenues(inst, replications, seed, names=tuple(POLICIES)):
    """The engine's revenues of each named policy, all played in one pass."""
    rows = [(name, inst.threshold) for name in names]
    snapshots = _lockstep(rows, inst.catalog, [inst.m], replications, seed, np.ndarray.tolist)
    return {name: revenues for name, (revenues,) in zip(names, snapshots)}


def assert_lockstep_matches(inst, replications, seed):
    for name, got in lockstep_revenues(inst, replications, seed).items():
        assert got == scalar_revenues(name, inst, replications, seed), name


SWEEP_CATALOG = ItemCatalog([3.0, 2.5, 2.0, 1.5, 1.0, 0.5, -0.5, -1.0, -1.5, -2.0], [15] * 10)
BALANCING_CATALOG = ItemCatalog(
    [2.1, 2.0, 2.0, 2.0, 2.0, 0.5, -0.5, -1.0, -1.5, -2.0], [20] * 5 + [5] * 5
)


class TestLockstepBitIdentity:
    """Lockstep revenues equal run_episode's exactly, replication by replication."""

    def test_policy_corpus(self):
        # Built as the statistical criteria build their corpus.
        rng = np.random.default_rng(42)
        for i in range(50):
            n = int(rng.integers(1, 7))
            cat = ItemCatalog(rng.uniform(-2.0, 3.5, n), rng.integers(1, 9, n))
            m = int(rng.integers(5, 51))
            for threshold in (0.5, 0.63):
                assert_lockstep_matches(OnlineInstance(cat, m, threshold), 30, 900 + i)

    @pytest.mark.parametrize("catalog", [SWEEP_CATALOG, BALANCING_CATALOG], ids=["sweep", "balancing"])
    def test_criterion_seven_catalogs_at_500_buyers(self, catalog):
        assert_lockstep_matches(OnlineInstance(catalog, 500, 0.5), 25, 7)

    def test_zero_buyers(self):
        inst = OnlineInstance(ItemCatalog([2.0, 0.5], [1, 1]), m=0, threshold=0.5)
        for got in lockstep_revenues(inst, 5, 0).values():
            assert got == [0.0] * 5

    def test_single_unit_item(self):
        assert_lockstep_matches(OnlineInstance(ItemCatalog([2.0], [1]), 10, 0.5), 60, 1)

    def test_every_item_heavy(self):
        cat = ItemCatalog([3.5, 3.0, 2.8], [2, 3, 1])
        assert all(q >= 0.5 for q in solo_demands(cat))
        assert_lockstep_matches(OnlineInstance(cat, 20, 0.5), 60, 2)

    def test_no_item_heavy(self):
        cat = ItemCatalog([1.0, 0.0, -1.0, -2.0], [2, 2, 3, 1])
        assert all(q < 0.5 for q in solo_demands(cat))
        assert_lockstep_matches(OnlineInstance(cat, 20, 0.5), 60, 3)

    def test_decisions_match_scalar_rules(self):
        # Every stock state of a catalog with tied items: equal items tie in
        # relative heaviness at equal stock, and the rules take the lowest
        # position. Each state comes with its in-stock mask and a sink column
        # at or below 0, as the engine holds them.
        cat = ItemCatalog([3.0, 3.0, 2.0, 2.0, 0.5], [3, 3, 2, 2, 1])
        states = np.array(list(itertools.product(*(range(c + 1) for c in cat.inventories))))
        in_stock = (states > 0) @ np.left_shift(1, np.arange(len(cat), dtype=np.int64))
        sink = -(np.arange(len(states)) % 21)  # 20 buyers leave at most 20 no-purchases
        held = np.column_stack([states, sink])
        for threshold in (0.5, 0.55, 0.63):
            inst = OnlineInstance(cat, 20, threshold)
            for name, policy in POLICIES.items():
                masks = _MASK_RULES[name](inst)(held, in_stock)
                for stock, mask in zip(states.tolist(), masks.tolist()):
                    offered = policy(inst, stock)
                    assert mask == sum(1 << i for i in offered), (name, threshold, stock)

    def test_threshold_near_one(self):
        cat = ItemCatalog([6.0, 2.5, 1.0], [3, 2, 2])
        assert_lockstep_matches(OnlineInstance(cat, 20, 0.99), 60, 4)

    def test_inventory_beyond_buyers(self):
        cat = ItemCatalog([2.5, 2.0, 0.0], [40, 1000, 7])
        assert_lockstep_matches(OnlineInstance(cat, 25, 0.5), 60, 5)

    def test_estimate_equals_per_episode_path(self):
        # Mean and standard error as the estimator computes them, from the
        # per-episode reference revenues.
        inst = OnlineInstance(ItemCatalog([2.0, 1.0, 0.5], [2, 2, 3]), 15, 0.5)
        est = estimate_ratio("hybrid", inst, replications=80, seed=12)
        revenues = np.array(scalar_revenues("hybrid", inst, 80, 12))
        assert est.mean_revenue == float(revenues.mean())
        assert est.std_error == float(revenues.std(ddof=1) / math.sqrt(80))
        assert est.ratio == est.mean_revenue / est.opt

    def test_oversized_catalog_rejected_before_episodes(self):
        cat = ItemCatalog(np.linspace(2.0, -2.0, 21), [1] * 21)
        with pytest.raises(DomainError, match="capped at 20 items"):
            estimate_ratio("greedy", OnlineInstance(cat, 5, 0.5), replications=3, seed=0)

    def test_hypothesis_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(
            qualities=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=6),
            stock=st.lists(st.integers(1, 12), min_size=6, max_size=6),
            m=st.integers(0, 60),
            replications=st.integers(1, 40),
            threshold=st.floats(0.5, 0.99),
            seed=st.integers(0, 2**31),
        )
        def check(qualities, stock, m, replications, threshold, seed):
            cat = ItemCatalog(qualities, stock[: len(qualities)])
            assert_lockstep_matches(OnlineInstance(cat, m, threshold), replications, seed)

        check()


def checking_rules(checked_steps):
    """_MASK_RULES, each asserting before every decision that the engine's
    in-stock mask is its stock's and that the sink column is at most 0."""

    def wrap(make):
        def build(instance):
            decide = make(instance)
            n = len(instance.catalog)
            bits = np.left_shift(1, np.arange(n, dtype=np.int64))

            def checked(stock, in_stock):
                assert in_stock.tolist() == ((stock[:, :n] > 0) @ bits).tolist()
                assert (stock[:, n] <= 0).all()
                checked_steps.append(len(in_stock))
                return decide(stock, in_stock)

            return checked

        return build

    return {name: wrap(make) for name, make in _MASK_RULES.items()}


def corpus_instances():
    rng = np.random.default_rng(42)
    for i in range(50):
        n = int(rng.integers(1, 7))
        cat = ItemCatalog(rng.uniform(-2.0, 3.5, n), rng.integers(1, 9, n))
        m = int(rng.integers(5, 51))
        for threshold in (0.5, 0.63):
            yield OnlineInstance(cat, m, threshold), 30, 900 + i


IN_STOCK_CASES = {
    "corpus": corpus_instances,
    "criterion-seven": lambda: [(OnlineInstance(cat, 500, 0.5), 25, 7)
                                for cat in (SWEEP_CATALOG, BALANCING_CATALOG)],
    "every-item-heavy": lambda: [(OnlineInstance(ItemCatalog([3.5, 3.0, 2.8], [2, 3, 1]), 20, 0.5), 60, 2)],
    "no-item-heavy": lambda: [(OnlineInstance(ItemCatalog([1.0, 0.0, -1.0, -2.0], [2, 2, 3, 1]), 20, 0.5),
                               60, 3)],
    "inventory-beyond-buyers": lambda: [(OnlineInstance(ItemCatalog([2.5, 2.0, 0.0], [40, 1000, 7]), 25, 0.5),
                                         60, 5)],
}


class TestInStockMask:
    @pytest.mark.parametrize("case", sorted(IN_STOCK_CASES))
    def test_kept_mask_is_the_stocks(self, case, monkeypatch):
        # Every rule of every step sees the mask (stock > 0) @ bits would give.
        checked_steps = []
        monkeypatch.setattr(simulate, "_MASK_RULES", checking_rules(checked_steps))
        expected = 0
        for inst, replications, seed in IN_STOCK_CASES[case]():
            lockstep_revenues(inst, replications, seed)
            expected += len(POLICIES) * inst.m * replications
        assert sum(checked_steps) == expected


def estimate_rows(estimates):
    return [(e.mean_revenue, e.std_error, e.opt, e.ratio) for e in estimates]


# The 9-unit item outlasts a 6-buyer episode, so the 6-buyer modified rows
# would build a weight table of depth 7, not the 10 of the 20-buyer pass.
SWEEP_CASES = {
    "threshold-and-buyer-sweep": (ItemCatalog([3.0, 2.4, 0.3, -0.8], [9, 2, 4, 1]),
                                  tuple(POLICIES), (0.5, 0.58), (20, 6, 20, 0), 25, 23),
    "batched-columns-one-replication": (
        ItemCatalog([0.7, 1.9, -0.3, 1.1, 2.6, 0.1, 1.4], [1, 3, 2, 1, 2, 1, 2]),
        ("modified", "hybrid"), (0.63,), (3, 15), 1, 5),
    "repeated-rows": (ItemCatalog([2.2, 0.4], [4, 2]), ("greedy", "modified", "greedy"),
                      (0.5, 0.5), (9, 1), 33, 8),
}


class TestEstimateRatios:
    """Every row of a fused, horizon-snapshot pass equals its own per-episode reference."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_rows_equal_per_row_episodes(self, case):
        catalog, policies, thresholds, buyers, replications, seed = SWEEP_CASES[case]
        estimates = estimate_ratios(catalog, policies, thresholds, buyers, replications, seed)
        expected = [reference_row(name, catalog, lam, m, replications, seed)
                    for name, lam, m in itertools.product(policies, thresholds, buyers)]
        assert bits(estimate_rows(estimates)) == bits(expected)
        assert all(e.replications == replications for e in estimates)

    def test_estimate_ratio_is_the_one_row_case(self):
        catalog, policies, thresholds, buyers, replications, seed = SWEEP_CASES["threshold-and-buyer-sweep"]
        estimates = estimate_ratios(catalog, policies, thresholds, buyers, replications, seed)
        alone = [estimate_ratio(name, OnlineInstance(catalog, m, lam), replications, seed)
                 for name, lam, m in itertools.product(policies, thresholds, buyers)]
        assert bits(estimate_rows(estimates)) == bits(estimate_rows(alone))

    def test_fused_rows_equal_rows_played_alone(self, monkeypatch):
        catalog, policies, thresholds, buyers, replications, seed = SWEEP_CASES["threshold-and-buyer-sweep"]
        fused = estimate_ratios(catalog, policies, thresholds, buyers, replications, seed)
        monkeypatch.setattr(simulate, "_FUSE_ELEMENTS", 1)  # one row per pass
        alone = estimate_ratios(catalog, policies, thresholds, buyers, replications, seed)
        assert bits(estimate_rows(fused)) == bits(estimate_rows(alone))

    def test_first_failing_row_raises(self):
        # Rows run policy, threshold, buyers: (hybrid, 0.5, 2**62) fails the
        # address check before (hybrid, 0.3, 4) fails the threshold check.
        cat = ItemCatalog([2.0, 0.5], [2, 2])
        with pytest.raises(DomainError, match="numpy can address"):
            estimate_ratios(cat, ["hybrid"], [0.5, 0.3], [4, 2**62], 5, 0)
        with pytest.raises(DomainError, match="threshold must lie"):
            estimate_ratios(cat, ["hybrid"], [0.5, 0.3], [4, 8], 5, 0)
        with pytest.raises(DomainError, match="unknown policy"):
            estimate_ratios(cat, ["hybrid", "oracle"], [0.5], [4, 8], 5, 0)
        with pytest.raises(DomainError, match="nonnegative"):
            estimate_ratios(cat, ["hybrid", "oracle"], [0.5], [4, -1], 5, 0)

    def test_sweep_solves_each_buyer_count_once(self, monkeypatch):
        cat = ItemCatalog([2.0, 0.5, -0.3], [2, 2, 1])
        calls = []

        def counted(catalog, m):
            calls.append(m)
            return solve_opt(catalog, m)

        monkeypatch.setattr(simulate, "solve_opt", counted)
        buyers = [20, 6, 20, 0]
        estimates = estimate_ratios(cat, ["hybrid", "greedy"], [0.5, 0.6], buyers, 5, seed=0)
        assert calls == [20, 6]
        assert [e.opt for e in estimates] == [solve_opt(cat, 20).objective, solve_opt(cat, 6).objective,
                                              solve_opt(cat, 20).objective, 0.0] * 4

    def test_wide_replications_pass_one_row_at_a_time(self):
        # R (n + 1) = 300,000 elements exceeds 2**18, so each of the six rows
        # runs alone: the per-step arrays of one row, not of six. The columns
        # are cached by an untraced first call; the draws are made afresh.
        cat = ItemCatalog([2.5, 1.0, 0.2, -0.6], [3, 2, 2, 1])
        replications = 60_000
        args = (cat, tuple(POLICIES), (0.5, 0.6), (3, 1), replications, 4)
        estimate_ratios(*args)
        gc.collect()
        tracemalloc.start()
        try:
            estimate_ratios(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_row_array = replications * (len(cat) + 1) * 8
        # One row at a time peaks near 4.9 arrays, 0.6 of them the draws; two
        # rows fused near 6.9, six near 18.2.
        assert peak < 5.5 * one_row_array, f"peaked at {peak / one_row_array:.2f} row arrays"


class TestChoiceTables:
    def test_rows_equal_equilibrium_outcomes(self):
        # Every mask of a 6-item catalog; mask 0 is the empty assortment.
        cat = ItemCatalog([3.1, 2.2, 1.0, 0.4, -0.7, -1.9], [1, 2, 3, 4, 5, 6])
        n = len(cat)
        cum, price = _choice_tables(cat)
        assert cum.shape == price.shape == (n + 1, 1 << n)
        for mask in range(1 << n):
            out = equilibrium_outcome(cat, [i for i in range(n) if mask >> i & 1])
            demand = dict(zip(out.members, out.demands))
            # sample_choice's running sum, repeated at each non-member, so
            # no draw stops at a non-member.
            running, acc = [], 0.0
            for i in range(n):
                if i in demand:
                    acc += demand[i]
                running.append(acc)
            assert cum[:, mask].tolist() == running + [math.inf]
            assert [price[i, mask] for i in out.members] == list(out.prices)
            assert price[n, mask] == 0.0

    def test_lockstep_peak_is_two_dense_tables(self):
        # The columns are cached and numpy's lazy imports done by an untraced
        # first call, so only what the call itself allocates counts.
        inst = OnlineInstance(ItemCatalog(np.linspace(3.3, -1.7, 12), [2] * 12), 1, 0.5)
        lockstep_revenues(inst, 1, 0, names=("greedy",))
        gc.collect()
        tracemalloc.start()
        try:
            lockstep_revenues(inst, 1, 0, names=("greedy",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**12 * 13 * 8 + 256 * 1024, f"lockstep peaked at {peak} bytes"


class TestEpisodeUniforms:
    def test_one_call_equals_scalar_draws(self):
        for seed, rep, m in ((0, 0, 1), (5, 17, 64), (2**31, 3, 500)):
            scalar = episode_rng(seed, rep)
            assert episode_rng(seed, rep).random(m).tolist() == [scalar.random() for _ in range(m)]

    def test_rows_are_the_replication_streams(self):
        draws = episode_uniforms(31, 7, 40)
        assert draws.shape == (7, 40)
        for rep in range(7):
            assert draws[rep].tolist() == episode_rng(31, rep).random(40).tolist()

    def test_calls_share_no_memory(self):
        wide = episode_uniforms(44, 9, 500)
        narrow = episode_uniforms(44, 9, 100)
        assert not np.shares_memory(wide, narrow)
        assert np.array_equal(narrow, wide[:, :100])

    def test_stream_words_are_seed_sequence_state(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # Seeds below 2**96 are one to three 32-bit words, so with r the
        # entropy fills at most the four-word pool.
        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                                         st.integers(2**64, 2**96 - 1)),
                          replications=st.integers(1, 600))
        def check(seed, replications):
            words = _stream_words(seed, replications)
            assert words.dtype == np.uint64 and words.shape == (replications, 4)
            for rep in range(replications):
                expected = np.random.SeedSequence([seed, rep]).generate_state(4, np.uint64)
                assert words[rep].tolist() == expected.tolist()

        check()

    def test_stream_words_beyond_the_pool(self):
        # Seeds of four or more words push r past the pool into the last loop.
        for seed in (2**96, 2**130 + 12345, 2**200 - 1):
            words = _stream_words(seed, 40)
            for rep in (0, 17, 39):
                expected = np.random.SeedSequence([seed, rep]).generate_state(4, np.uint64)
                assert words[rep].tolist() == expected.tolist()

    def test_stream_words_reject_what_seed_sequence_rejects(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            _stream_words(-1, 3)
        with pytest.raises(TypeError):
            _stream_words(1.5, 3)

    def test_rows_are_the_streams_at_a_wide_count(self):
        for seed in (0, 2**33 + 7):
            draws = episode_uniforms(seed, 5000, 12)
            for rep in (0, 1, 2047, 4999):
                assert draws[rep].tolist() == episode_rng(seed, rep).random(12).tolist()


class TestRatioBound:
    def test_headroom_at_half(self):
        assert threshold_headroom(0.5) == pytest.approx(2.0, abs=1e-15)

    def test_closed_branch_value(self):
        assert _bound_closed_branch(0.63) == pytest.approx(0.078024, abs=5e-6)

    def test_closed_branch_matches_grid_oracle(self):
        # Brute maximum of (lam - x) x / ((f + x)(1 - x)) on a fine grid.
        for lam in (0.5, 0.63, 0.8):
            f = threshold_headroom(lam)
            xs = np.linspace(0.0, lam, 200_001)
            vals = (lam - xs) * xs / ((f + xs) * (1.0 - xs))
            assert _bound_closed_branch(lam) == pytest.approx(float(vals.max()), abs=1e-8)

    def test_numeric_branch_is_the_loop_bit_for_bit(self):
        # One padded block of refinements against one inner maximum per y.
        lams = [round(0.5 + 0.01 * k, 2) for k in range(50)]
        assert bits([_bound_numeric_branch(lam) for lam in lams]) == bits(
            [reference_numeric_branch(lam) for lam in lams]
        )

    def test_bound_is_the_lower_envelope(self):
        for lam in (0.55, 0.63, 0.7):
            g = hybrid_ratio_bound(lam)
            assert 0.0 < g <= _bound_closed_branch(lam) + 1e-12

    def test_domain(self):
        for bad in (0.49, 1.0):
            with pytest.raises(DomainError):
                hybrid_ratio_bound(bad)


class TestAdversarialInstance:
    def test_natural_growth_first_quality(self):
        inst = adversarial_instance(E, 1)
        assert inst.qualities[0] == pytest.approx(2.0 + E, abs=1e-12)

    def test_roundtrip_revenues(self):
        inst = adversarial_instance(2.0, 3)
        for t, want in zip((1, 2, 3), (2.0, 4.0, 8.0)):
            assert inst.solo_revenue(t) == pytest.approx(want, rel=1e-6)
            assert inst.solo_demand(t) >= 0.5

    def test_buyer_is_an_integer_from_one_to_the_horizon(self):
        # Buyers are numbered 1..horizon. Index 0 once read buyer 3's 64.0,
        # -1 buyer 2's 16.0, and target_revenue(0) gave 1.0 for no buyer.
        inst = adversarial_instance(4.0, 3)
        for t in (1, 2, 3):
            assert inst.solo_revenue(np.int64(t)) == inst.solo_revenue(t)
            assert inst.target_revenue(np.int64(t)) == inst.target_revenue(t) == 4.0 ** t
        for bad in (0, -1, 4, 1.0, 2.5, True, np.bool_(True), "1", None):
            for method in (inst.target_revenue, inst.solo_revenue, inst.solo_demand):
                with pytest.raises(DomainError, match="buyer"):
                    method(bad)

    def test_huge_horizon_stays_finite(self):
        inst = adversarial_instance(10.0, 250)
        assert inst.solo_revenue(250) == pytest.approx(1e250, rel=1e-6)
        assert inst.solo_demand(250) >= 0.5

    def test_overflow_rejected(self):
        with pytest.raises(DomainError):
            adversarial_instance(10.0, 350)
        with pytest.raises(DomainError, match="overflows"):  # float(10**400) would overflow
            adversarial_instance(10.0, 10**400)
        with pytest.raises(DomainError):
            adversarial_instance(1.0, 5)

    def test_prefix_ratios_equal_each_prefix_call(self):
        # adversary-demo reads every prefix ratio from one running sum.
        for growth in (1.0000001, 3.0):
            inst = adversarial_instance(growth, 50)
            want = [always_offer_ratios(inst, upto)[-1] for upto in range(1, 51)]
            assert bits(always_offer_ratios(inst, 50)) == bits(want)

    def test_fixed_rule_ratio_decays(self):
        inst = adversarial_instance(4.0, 10)
        ratios = [always_offer_ratios(inst, t)[-1] for t in (1, 4, 7, 10)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.01

    def test_adversary_demo_solves_each_buyer_once(self, monkeypatch, capsys):
        # The table and always_offer_ratios each solved every buyer twice:
        # 32 solves for 8 buyers.
        from mnlmarkets import cli
        solves = []
        solve = simulate.solo_revenue_for_quality
        monkeypatch.setattr(simulate, "solo_revenue_for_quality", lambda q: solves.append(q) or solve(q))
        assert cli.main(["adversary-demo", "--horizon", "8"]) == 0
        assert len(solves) == 8 and capsys.readouterr().out
