"""Tests for the Monte-Carlo harness, the ratio bound curve, and the
adversarial instance generator."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mnlmarkets.equilibrium import DomainError, ItemCatalog, equilibrium_outcome
from mnlmarkets.policies import InventoryState, OnlineInstance, hybrid_next, solo_demands
from mnlmarkets.simulate import (
    POLICIES,
    adversarial_instance,
    always_offer_ratio,
    episode_rng,
    episode_uniforms,
    estimate_ratio,
    hybrid_ratio_bound,
    run_episode,
    sample_choice,
    threshold_headroom,
    _bound_closed_branch,
    _MASK_RULES,
    _choice_tables,
    _lockstep_revenues,
)

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
            run_episode(POLICIES["hybrid"], inst, episode_rng(5, r), record_path=False).revenue
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

    def test_accepts_callable_policy(self):
        cat = ItemCatalog([2.0], [1])
        inst = OnlineInstance(cat, m=3, threshold=0.5)
        est = estimate_ratio(POLICIES["greedy"], inst, replications=50, seed=2)
        assert est.mean_revenue > 0

    def test_rejects_unknown_policy(self):
        cat = ItemCatalog([2.0], [1])
        inst = OnlineInstance(cat, m=1, threshold=0.5)
        with pytest.raises(DomainError):
            estimate_ratio("clairvoyant", inst, replications=1, seed=0)


def scalar_revenues(name, inst, replications, seed):
    """The reference: one run_episode per replication."""
    return [
        run_episode(POLICIES[name], inst, episode_rng(seed, rep), record_path=False).revenue
        for rep in range(replications)
    ]


def assert_lockstep_matches(inst, replications, seed):
    for name in POLICIES:
        got = _lockstep_revenues(name, inst, replications, seed)
        assert got.tolist() == scalar_revenues(name, inst, replications, seed), name


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
        for name in POLICIES:
            assert _lockstep_revenues(name, inst, 5, 0).tolist() == [0.0] * 5

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
        # position.
        cat = ItemCatalog([3.0, 3.0, 2.0, 2.0, 0.5], [3, 3, 2, 2, 1])
        states = np.array(list(itertools.product(*(range(c + 1) for c in cat.inventories))))
        for threshold in (0.5, 0.55, 0.63):
            inst = OnlineInstance(cat, 20, threshold)
            for name, policy in POLICIES.items():
                masks = _MASK_RULES[name](inst)(states)
                for stock, mask in zip(states.tolist(), masks.tolist()):
                    offered = policy(inst, InventoryState(remaining=stock)).assortment
                    assert mask == sum(1 << i for i in offered), (name, threshold, stock)

    def test_threshold_near_one(self):
        cat = ItemCatalog([6.0, 2.5, 1.0], [3, 2, 2])
        assert_lockstep_matches(OnlineInstance(cat, 20, 0.99), 60, 4)

    def test_inventory_beyond_buyers(self):
        cat = ItemCatalog([2.5, 2.0, 0.0], [40, 1000, 7])
        assert_lockstep_matches(OnlineInstance(cat, 25, 0.5), 60, 5)

    def test_estimate_equals_per_episode_path(self):
        # A callable outside POLICIES takes the run_episode path.
        inst = OnlineInstance(ItemCatalog([2.0, 1.0, 0.5], [2, 2, 3]), 15, 0.5)
        by_name = estimate_ratio("hybrid", inst, replications=80, seed=12)
        by_episode = estimate_ratio(lambda i, s: hybrid_next(i, s), inst, replications=80, seed=12)
        assert by_name == by_episode

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


class TestChoiceTables:
    def test_rows_equal_equilibrium_outcomes(self):
        # Every mask of a 6-item catalog; mask 0 is the empty assortment.
        cat = ItemCatalog([3.1, 2.2, 1.0, 0.4, -0.7, -1.9], [1, 2, 3, 4, 5, 6])
        n = len(cat)
        cum, price = _choice_tables(cat)
        assert cum.shape == price.shape == (1 << n, n + 1)
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
            assert cum[mask].tolist() == running + [math.inf]
            assert [price[mask, i] for i in out.members] == list(out.prices)
            assert price[mask, n] == 0.0

    def test_lockstep_peak_is_two_dense_tables(self):
        # The columns are cached and numpy's lazy imports done by an untraced
        # first call, so only what the call itself allocates counts.
        inst = OnlineInstance(ItemCatalog(np.linspace(3.3, -1.7, 12), [2] * 12), 1, 0.5)
        _lockstep_revenues("greedy", inst, 1, 0)
        gc.collect()
        tracemalloc.start()
        try:
            _lockstep_revenues("greedy", inst, 1, 0)
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

    def test_shorter_horizon_is_a_slice_of_the_memo(self):
        wide = episode_uniforms(44, 9, 500)
        narrow = episode_uniforms(44, 9, 100)
        assert np.shares_memory(wide, narrow)
        fresh = np.stack([episode_rng(44, rep).random(100) for rep in range(9)])
        assert np.array_equal(narrow, fresh)

    def test_memo_is_read_only(self):
        draws = episode_uniforms(45, 4, 30)
        assert not draws.flags.writeable
        with pytest.raises(ValueError):
            draws[0, 0] = 0.5
        with pytest.raises(ValueError):
            draws.setflags(write=True)


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

    def test_huge_horizon_stays_finite(self):
        inst = adversarial_instance(10.0, 250)
        assert inst.solo_revenue(250) == pytest.approx(1e250, rel=1e-6)
        assert inst.solo_demand(250) >= 0.5

    def test_overflow_rejected(self):
        with pytest.raises(DomainError):
            adversarial_instance(10.0, 350)
        with pytest.raises(DomainError):
            adversarial_instance(1.0, 5)

    def test_fixed_rule_ratio_decays(self):
        inst = adversarial_instance(4.0, 10)
        ratios = [always_offer_ratio(inst, t) for t in (1, 4, 7, 10)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.01
