"""Tests for the single-buyer equilibrium machinery.

Reference values marked "high-precision" were frozen from an independent
30-digit root-finding pass (mpmath) over the defining equations; the
two-item equilibrium is additionally cross-checked here against a direct
fixed-point iteration on the posted-price game that never touches the
V-function route.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mnlmarkets
from mnlmarkets import equilibrium
from mnlmarkets.equilibrium import (
    _MAX_ITER,
    DomainError,
    ItemCatalog,
    SolverError,
    _newton,
    _share_from_log,
    best_response_price,
    equilibrium_outcome,
    mnl_demand,
    perishable_outcome,
    price_game_potential,
    quality_for_target_revenue,
    solo_revenue_for_quality,
    solve_no_purchase,
    solve_share,
)

E = math.e

# High-precision equilibrium of the two-item market theta = (1, 2).
Q0_PAIR = 0.33148687441428329
Q_THETA1_PAIR = 0.24121554203456705
Q_THETA2_PAIR = 0.42729758355114966
P_THETA1_PAIR = 1.3178973152419996
P_THETA2_PAIR = 1.7461075268386139
R_PAIR = 1.0640048420806135
# Solo assortment of theta = 1: q0 = 1/(1 + W(1)).
Q0_SOLO1 = 0.63810374336511078


def pair_catalog():
    return ItemCatalog([1.0, 2.0], [1, 1])


class TestCatalog:
    def test_sorts_descending_and_records_permutation(self):
        cat = ItemCatalog([0.5, 2.0, 1.0], [3, 1, 2])
        assert cat.qualities == (2.0, 1.0, 0.5)
        assert cat.inventories == (1, 2, 3)
        assert cat.order == (1, 2, 0)
        assert cat.positions([1, 0]) == (0, 2)

    def test_equal_qualities_keep_input_order(self):
        cat = ItemCatalog([1.0, 1.0, 2.0], [1, 2, 3])
        assert cat.order == (2, 0, 1)
        assert cat.inventories == (3, 1, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            ItemCatalog([], [])
        with pytest.raises(DomainError):
            ItemCatalog([1.0], [0])
        with pytest.raises(DomainError):
            ItemCatalog([1.0, 2.0], [1])
        with pytest.raises(DomainError):
            ItemCatalog([math.inf], [1])
        with pytest.raises(DomainError):
            ItemCatalog([1.0], [1], costs=[-0.1])

    def test_inventories_must_be_whole(self):
        for bad in (2.7, True, np.True_, np.False_, "2"):
            with pytest.raises(DomainError, match="not a whole number"):
                ItemCatalog([1.0, 2.0], [1, bad])
        cat = ItemCatalog([1.0, 2.0], [np.int64(3), 2.0])
        assert cat.inventories == (2, 3) and all(type(c) is int for c in cat.inventories)

    def test_qualities_and_costs_must_be_numbers(self):
        for bad in (True, np.bool_(False), "2.0", None, [1.0]):
            with pytest.raises(DomainError, match="not a number"):
                ItemCatalog([1.0, bad], [1, 1])
            with pytest.raises(DomainError, match="not a number"):
                ItemCatalog([1.0, 2.0], [1, 1], costs=[0.1, bad])
        cat = ItemCatalog([np.int64(1), np.float32(2.5), 3], [1, 1, 1], costs=[0, np.float64(0.5), 1])
        assert cat.qualities == (3.0, 2.5, 1.0) and all(type(t) is float for t in cat.qualities)
        assert cat.costs == (1.0, 0.5, 0.0)


class TestSolveShare:
    def test_zero_maps_to_zero(self):
        assert solve_share(0.0) == 0.0

    def test_known_points(self):
        # V(0.64) backs the solo-assortment demand of a theta=1 item.
        assert solve_share(0.64) == pytest.approx(0.36246479373483762, abs=1e-12)
        assert round(solve_share(0.64), 2) == 0.36
        # Exact: 0.5 * e^{0.5/0.5} = 0.5e.
        assert solve_share(0.5 * E) == pytest.approx(0.5, abs=1e-13)

    def test_residual_and_monotonicity(self):
        rng = np.random.default_rng(7)
        xs = np.sort(np.concatenate([
            rng.uniform(1e-9, 1.0, 40),
            rng.uniform(1.0, 50.0, 40),
            [1e-14, 1e6, 1e12],
        ]))
        prev = -1.0
        for x in xs:
            y = solve_share(float(x))
            assert 0.0 <= y < 1.0
            assert abs(y * math.exp(y / (1.0 - y)) - x) <= 1e-12 * max(1.0, x)
            assert y > prev
            prev = y

    def test_approaches_one(self):
        assert solve_share(1e15) > 0.97

    def test_rejects_bad_arguments(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                solve_share(bad)


class TestSolveNoPurchase:
    def test_empty_assortment_is_exactly_one(self):
        assert solve_no_purchase(pair_catalog(), ()) == 1.0

    def test_solo_theta_one(self):
        q0 = solve_no_purchase(pair_catalog(), (1,))
        assert q0 == pytest.approx(Q0_SOLO1, abs=1e-10)
        assert round(q0, 2) == 0.64

    def test_pair(self):
        q0 = solve_no_purchase(pair_catalog(), (0, 1))
        assert q0 == pytest.approx(Q0_PAIR, abs=1e-10)

    def test_residual_on_random_catalogs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            cat = ItemCatalog(rng.uniform(-3, 3, n), np.ones(n, dtype=int))
            members = tuple(range(n))
            q0 = solve_no_purchase(cat, members)
            resid = sum(
                solve_share(q0 * math.exp(cat.qualities[i] - 1.0)) for i in members
            ) + q0 - 1.0
            assert abs(resid) <= 1e-10
            assert 0.0 < q0 <= 1.0


def bertrand_fixed_point(qualities, tol=1e-13):
    """Independent oracle: damped iteration of p_i = 1/(1 - q_i(p))."""
    n = len(qualities)
    p = [1.0] * n
    for _ in range(100_000):
        q = mnl_demand(qualities, p)
        nxt = [1.0 / (1.0 - qi) for qi in q]
        err = max(abs(a - b) for a, b in zip(nxt, p))
        p = [0.5 * (a + b) for a, b in zip(nxt, p)]
        if err < tol:
            return p
    raise AssertionError("oracle iteration did not converge")


class TestEquilibriumOutcome:
    def test_solo_theta_two(self):
        out = equilibrium_outcome(pair_catalog(), (0,))
        assert out.demands[0] == pytest.approx(0.5, abs=1e-12)
        assert out.prices[0] == pytest.approx(2.0, abs=1e-12)
        assert out.total_revenue == pytest.approx(1.0, abs=1e-12)

    def test_pair_against_fixed_point_oracle(self):
        out = equilibrium_outcome(pair_catalog(), (0, 1))
        assert out.q0 == pytest.approx(Q0_PAIR, abs=1e-9)
        assert out.demands == pytest.approx(
            (Q_THETA2_PAIR, Q_THETA1_PAIR), abs=1e-9
        )
        assert out.prices == pytest.approx(
            (P_THETA2_PAIR, P_THETA1_PAIR), abs=1e-9
        )
        assert out.total_revenue == pytest.approx(R_PAIR, abs=1e-9)
        # Cross-check through the posted-price game directly.
        p_star = bertrand_fixed_point([2.0, 1.0])
        assert p_star == pytest.approx(list(out.prices), abs=1e-9)

    def test_empty(self):
        out = equilibrium_outcome(pair_catalog(), ())
        assert out.q0 == 1.0
        assert out.total_revenue == 0.0
        assert out.members == ()

    def test_invariants_on_random_catalogs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            cat = ItemCatalog(rng.uniform(-3, 3, n), np.ones(n, dtype=int))
            k = int(rng.integers(1, n + 1))
            members = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            out = equilibrium_outcome(cat, members)
            assert abs(out.q0 + sum(out.demands) - 1.0) <= 1e-9
            for q, p, r in zip(out.demands, out.prices, out.revenues):
                assert abs(p - 1.0 / (1.0 - q)) <= 1e-9
                assert abs(r - q * p) <= 1e-9
                assert 0.0 <= q < 1.0 and p >= 1.0 and r >= 0.0
            # Order preservation: higher quality, higher demand.
            assert list(out.demands) == sorted(out.demands, reverse=True)

    def test_rejects_bad_members(self):
        with pytest.raises(DomainError):
            equilibrium_outcome(pair_catalog(), (0, 2))
        with pytest.raises(DomainError):
            equilibrium_outcome(pair_catalog(), (0, 0))


class TestSubstitutability:
    def test_adding_an_item_never_helps_incumbents(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            cat = ItemCatalog(rng.uniform(-3, 3, n), np.ones(n, dtype=int))
            k = int(rng.integers(1, n))
            s = sorted(rng.choice(n, size=k, replace=False).tolist())
            outside = [j for j in range(n) if j not in s]
            base = equilibrium_outcome(cat, s)
            for j in outside:
                bigger = equilibrium_outcome(cat, sorted(s + [j]))
                assert bigger.q0 <= base.q0 + 1e-10
                pos = {i: t for t, i in enumerate(bigger.members)}
                for t, i in enumerate(base.members):
                    assert base.demands[t] >= bigger.demands[pos[i]] - 1e-10
                    assert base.revenues[t] >= bigger.revenues[pos[i]] - 1e-10


class TestMnlDemand:
    def test_single_point(self):
        assert mnl_demand([0.0], [0.0]) == pytest.approx([0.5], abs=1e-15)

    def test_reproduces_solo_equilibrium(self):
        assert mnl_demand([2.0], [2.0]) == pytest.approx([0.5], abs=1e-15)

    def test_matches_equilibrium_at_equilibrium_prices(self):
        out = equilibrium_outcome(pair_catalog(), (0, 1))
        q = mnl_demand([2.0, 1.0], list(out.prices))
        assert q == pytest.approx(list(out.demands), abs=1e-9)

    def test_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            theta = rng.uniform(-5, 5, n)
            prices = rng.uniform(0, 4, n)
            q = mnl_demand(theta, prices)
            assert all(0.0 < qi < 1.0 for qi in q)
            q0 = 1.0 - sum(q)
            assert abs(sum(q) + q0 - 1.0) <= 1e-12
            assert q0 > 0.0

    def test_overflow_guard(self):
        q = mnl_demand([800.0, 0.0], [1.0, 1.0])
        assert math.isfinite(q[0]) and q[0] > 0.999

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            mnl_demand([1.0], [1.0, 2.0])


class TestPotential:
    def test_unilateral_identity_single_item(self):
        # ln Phi(p) - ln Phi(p') = ln r(p) - ln r(p') for a unilateral move.
        lhs = math.log(price_game_potential([2.0], [2.0])) - math.log(
            price_game_potential([2.0], [1.0])
        )
        r2 = 2.0 * mnl_demand([2.0], [2.0])[0]
        r1 = 1.0 * mnl_demand([2.0], [1.0])[0]
        assert lhs == pytest.approx(math.log(r2) - math.log(r1), abs=1e-9)
        assert (price_game_potential([2.0], [2.0]) > price_game_potential([2.0], [1.0])) == (r2 > r1)

    def test_unilateral_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            theta = rng.uniform(-2, 3, n).tolist()
            p = rng.uniform(0.2, 4, n).tolist()
            i = int(rng.integers(0, n))
            p2 = list(p)
            p2[i] = float(rng.uniform(0.2, 4))
            lhs = math.log(price_game_potential(theta, p)) - math.log(
                price_game_potential(theta, p2)
            )
            ri = p[i] * mnl_demand(theta, p)[i]
            ri2 = p2[i] * mnl_demand(theta, p2)[i]
            assert lhs == pytest.approx(math.log(ri) - math.log(ri2), abs=1e-9)

    def test_best_response_step_increases_potential(self):
        theta = [2.0, 1.0, 0.0]
        p = [1.0, 1.0, 1.0]
        for i in range(3):
            br = best_response_price(theta, p, i)
            p2 = list(p)
            p2[i] = br
            assert price_game_potential(theta, p2) >= price_game_potential(theta, p)
            p = p2

    def test_local_max_at_equilibrium(self):
        out = equilibrium_outcome(pair_catalog(), (0, 1))
        p = list(out.prices)
        base = price_game_potential([2.0, 1.0], p)
        for i in range(2):
            for eps in (-1e-4, 1e-4):
                bumped = list(p)
                bumped[i] += eps
                assert price_game_potential([2.0, 1.0], bumped) <= base

    def test_zero_price_rejected(self):
        with pytest.raises(DomainError):
            price_game_potential([1.0], [0.0])


class TestBestResponse:
    def test_monopolist_theta_two(self):
        assert best_response_price([2.0], [1.0], 0) == pytest.approx(2.0, abs=1e-9)

    def test_against_rival_at_equilibrium(self):
        # Rival (theta=2) fixed at its pair equilibrium price; the best
        # response of the theta=1 seller is its own equilibrium price.
        p = best_response_price([2.0, 1.0], [P_THETA2_PAIR, 1.0], 1)
        assert p == pytest.approx(P_THETA1_PAIR, abs=1e-8)

    def test_iterated_best_responses_converge(self):
        p = [1.0, 1.0]
        for _ in range(200):
            p = [best_response_price([2.0, 1.0], p, 0), p[1]]
            p = [p[0], best_response_price([2.0, 1.0], p, 1)]
        out = equilibrium_outcome(pair_catalog(), (0, 1))
        assert p == pytest.approx(list(out.prices), abs=1e-6)

    def test_stationarity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            theta = rng.uniform(-2, 3, n).tolist()
            p = rng.uniform(0.5, 3, n).tolist()
            i = int(rng.integers(0, n))
            br = best_response_price(theta, p, i)
            eps = 1e-6

            def rev(price):
                trial = list(p)
                trial[i] = price
                return price * mnl_demand(theta, trial)[i]

            deriv = (rev(br + eps) - rev(br - eps)) / (2 * eps)
            assert abs(deriv) <= 1e-7


class TestPerishable:
    def test_zero_costs_match_base(self):
        cat = ItemCatalog([1.0, 2.0], [1, 1], costs=[0.0, 0.0])
        base = equilibrium_outcome(cat, (0, 1))
        shifted = perishable_outcome(cat, (0, 1))
        assert shifted == base

    def test_cost_shifts_price_and_revenue(self):
        cat = ItemCatalog([2.0], [1], costs=[0.5])
        out = perishable_outcome(cat, (0,))
        assert out.demands[0] == pytest.approx(0.5, abs=1e-12)
        assert out.prices[0] == pytest.approx(1.5, abs=1e-12)
        assert out.total_revenue == pytest.approx(0.5, abs=1e-12)

    def test_revenue_can_go_negative(self):
        cat = ItemCatalog([2.0], [1], costs=[2.0])
        out = perishable_outcome(cat, (0,))
        assert out.total_revenue == pytest.approx(-1.0, abs=1e-12)

    def test_requires_costs(self):
        with pytest.raises(DomainError):
            perishable_outcome(pair_catalog(), (0,))


class TestQualityForTargetRevenue:
    def test_unit_revenue_gives_theta_two(self):
        assert quality_for_target_revenue(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_natural_revenue(self):
        theta = quality_for_target_revenue(E)
        assert theta == pytest.approx(2.0 + E, abs=1e-12)
        cat = ItemCatalog([theta], [1])
        out = equilibrium_outcome(cat, (0,))
        assert out.total_revenue == pytest.approx(E, abs=1e-8)

    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        for r in rng.uniform(0.05, 30.0, 25):
            theta = quality_for_target_revenue(float(r))
            out = equilibrium_outcome(ItemCatalog([theta], [1]), (0,))
            assert out.total_revenue == pytest.approx(float(r), abs=1e-8)
            # Stable large-theta route agrees too.
            assert solo_revenue_for_quality(theta) == pytest.approx(float(r), rel=1e-10)

    def test_rejects_tiny_revenue(self):
        with pytest.raises(DomainError):
            quality_for_target_revenue(1e-13)


class TestEquilibriumStationarity:
    def test_unilateral_deviation_is_unprofitable(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            cat = ItemCatalog(rng.uniform(-2, 3, n), np.ones(n, dtype=int))
            out = equilibrium_outcome(cat, tuple(range(n)))
            theta = list(cat.qualities)
            p = list(out.prices)
            for i in range(n):
                eps = 1e-4

                def rev(price, i=i):
                    trial = list(p)
                    trial[i] = price
                    return price * mnl_demand(theta, trial)[i]

                deriv = (rev(p[i] + eps) - rev(p[i] - eps)) / (2 * eps)
                assert abs(deriv) <= 1e-7
                assert best_response_price(theta, p, i) == pytest.approx(p[i], abs=1e-6)


class TestExtremeQualities:
    def test_underflowing_share_is_positive_zero(self):
        y = _share_from_log(-800.0)
        assert y == 0.0 and math.copysign(1.0, y) == 1.0
        # A subnormal first guess still runs the Newton iteration.
        assert 0.0 < _share_from_log(-740.0) < 1e-300

    def test_share_root_below_the_least_subnormal_stops_there(self):
        # Between ln 2**-1075 and ln 2**-1074 the root rounds to 5e-324, and
        # the bisection from it reaches 0.0, where ln does not exist.
        tiny = math.log(5e-324)
        for lx in np.linspace(tiny - math.log(2.0), tiny, 52)[1:-1].tolist():
            assert _share_from_log(lx) == 5e-324
        assert equilibrium_outcome(ItemCatalog([-744.0], [1]), (0,)).demands == (5e-324,)

    def test_solo_revenue_below_the_least_subnormal_is_the_rounded_root(self):
        # Where e^{theta - 1} is 0.0 or 5e-324 it is the root r of
        # r + ln r = theta - 1 correctly rounded, since r e^r = e^{theta - 1}.
        thetas = np.linspace(-746.5, -743.0, 701).tolist()
        revenues = [solo_revenue_for_quality(t) for t in thetas]
        assert revenues == sorted(revenues)
        for theta, r in zip(thetas, revenues):
            if theta - 1.0 < math.log(5e-324):
                assert r == math.exp(theta - 1.0) and r in (0.0, 5e-324)
        assert solo_revenue_for_quality(-800.0) == 0.0
        assert solo_revenue_for_quality(-744.0) == 5e-324

    def test_lone_negligible_item_sells_nothing(self):
        out = equilibrium_outcome(ItemCatalog([-800.0], [1]), (0,))
        assert out.demands == (0.0,) and out.prices == (1.0,)
        assert out.revenues == (0.0,) and out.total_revenue == 0.0
        assert abs(out.q0 - 1.0) < 1e-13

    def test_negligible_item_leaves_the_others_unchanged(self):
        cat = ItemCatalog([1.0, -800.0, 2.0], [1, 1, 1])
        alone = equilibrium_outcome(cat, (0, 1))
        out = equilibrium_outcome(cat, (0, 1, 2))
        assert out.q0 == alone.q0
        assert out.demands == alone.demands + (0.0,)
        assert out.total_revenue == alone.total_revenue

    def test_share_rounding_to_one_is_a_domain_error(self):
        for qualities in ([1e300], [1e17, 0.0], [40.0, 1e16]):
            cat = ItemCatalog(qualities, [1] * len(qualities))
            with pytest.raises(DomainError, match="rounds to 1"):
                equilibrium_outcome(cat, range(len(qualities)))
        assert equilibrium_outcome(ItemCatalog([1e15], [1]), (0,)).demands[0] < 1.0


class TestSequentialTotals:
    def test_totals_add_left_to_right_from_zero(self):
        # math.fsum of both revenue lists differs from the left-to-right sum
        # in the last bit, as sum() of floats would from Python 3.12 on.
        cat = ItemCatalog([0.28, 2.04, 1.91, 3.13, -1.37, 2.01], [1] * 6,
                          costs=[1.85, 1.94, 0.03, 1.73, 1.96, 1.91])
        for out in (equilibrium_outcome(cat, range(6)), perishable_outcome(cat, range(6))):
            total = 0.0
            for r in out.revenues:
                total += r
            assert out.total_revenue == total
            assert math.fsum(out.revenues) != total

    @staticmethod
    def left_to_right(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def test_mnl_demand_denominator_adds_left_to_right(self):
        theta, prices = [0.02, 1.33, -0.34, -1.01], [2.83, 1.11, 0.87, 1.2]
        utils = [t - p for t, p in zip(theta, prices)]
        shift = max(0.0, *utils)
        weights = [math.exp(u - shift) for u in utils]
        denom = math.exp(-shift) + self.left_to_right(weights)
        assert mnl_demand(theta, prices) == [w / denom for w in weights]
        fsum_denom = math.exp(-shift) + math.fsum(weights)
        assert [w / fsum_denom for w in weights] != [w / denom for w in weights]

    def test_potential_numerator_adds_left_to_right(self):
        theta, prices = [1.3, 2.66, -0.96, 1.15], [1.25, 2.35, 2.31, 1.05]
        utils = [t - p for t, p in zip(theta, prices)]
        shift = max(0.0, *utils)
        log_den = shift + math.log(
            math.exp(-shift) + self.left_to_right(math.exp(u - shift) for u in utils))
        terms = [math.log(p) + u for p, u in zip(prices, utils)]
        expected = math.exp(self.left_to_right(terms) - log_den)
        assert price_game_potential(theta, prices) == expected
        assert math.exp(math.fsum(terms) - log_den) != expected


class TestNewton:
    def run(self, fn, x, lo, hi, tol=1e-12, stalled="stalled"):
        seen = []

        def traced(x):
            seen.append(x)
            return fn(x)

        return _newton(traced, x, lo, hi, tol, stalled), seen

    def test_newton_step_inside_the_bracket(self):
        root, seen = self.run(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert seen[:2] == [1.0, 1.5]

    @pytest.mark.parametrize("slope", [0.0, -1.0])
    def test_nonpositive_slope_bisects(self, slope):
        root, seen = self.run(lambda x: (x - 0.3, slope), 0.9, 0.0, 1.0)
        assert seen[:4] == [0.9, 0.45, 0.225, 0.3375]
        assert abs(root - 0.3) < 1e-12

    def test_step_leaving_the_bracket_bisects(self):
        # The Newton step from 0.9 would land at -0.6, below lo.
        _, seen = self.run(lambda x: (x - 0.3, 0.4), 0.9, 0.0, 1.0)
        assert seen[1] == 0.45

    def test_doubles_while_hi_is_infinite(self):
        root, seen = self.run(lambda x: (x - 100.0, 0.0), 1.0, 0.0, math.inf)
        assert seen[:8] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        assert seen[8] == 96.0  # the bracket (64, 128) is finite now
        assert abs(root - 100.0) < 1e-12

    def test_returns_last_iterate_at_the_cap_without_a_message(self):
        root, seen = self.run(lambda x: (-1.0, 0.0), 1.0, 0.0, math.inf, stalled=None)
        assert len(seen) == _MAX_ITER
        assert seen[-1] == 2.0 ** (_MAX_ITER - 1) and root == 2.0 ** _MAX_ITER

    def test_raises_the_stalled_message_at_the_cap(self):
        with pytest.raises(SolverError, match="^widget root stalled$"):
            self.run(lambda x: (-1.0, 0.0), 1.0, 0.0, math.inf, stalled="widget root stalled")


class TestBestResponseShareRoundsToOne:
    # The seller's share at the starting price rounds to 1.0 here, where
    # 1 / (1 - q) has no value; the solve starts at the top of the box.
    @pytest.mark.parametrize("theta", [40.0, 60.0, 75.0])
    def test_solo_seller_prices_at_its_monopoly_price(self, theta):
        expected = 1.0 + solo_revenue_for_quality(theta)
        assert best_response_price([theta], [1.0], 0) == pytest.approx(expected, rel=1e-12)

    def test_duopoly_best_response_is_finite(self):
        p = best_response_price([40.0, 1.0], [1.0, 1.0], 0)
        assert math.isfinite(p) and 1.0 < p < 60.0
        q = mnl_demand([40.0, 1.0], [p, 1.0])[0]
        assert abs(1.0 - p * (1.0 - q)) < 1e-9


def assert_same_bits(got, want):
    """Equal as int64 views, so the sign of zero counts."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture
def fresh_probe():
    """Forget which ufuncs passed the probe, before and after the test."""
    equilibrium._exact_ufunc.cache_clear()
    yield
    equilibrium._exact_ufunc.cache_clear()


LIBM = (math.exp, math.log, math.log1p)
SPECIAL = {
    math.exp: [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 0.5, -1.0,
               -708.4, -744.4400719213812, -744.5, -745.1332191019411, -745.2, -800.0,
               709.782712893384],
    math.log: [5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 0.5, 1.0,
               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 2.0, 1e300,
               1.7976931348623157e308],
    math.log1p: [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e-16, 0.5, 1.0,
                 -0.5, math.nextafter(-1.0, 0.0), 1e300, 1.7976931348623157e308],
}


def domain_sample(fn, rng, size):
    """Arguments over the whole range each solver passes ``fn``."""
    if fn is math.exp:
        return rng.uniform(-746.0, 1.0, size)
    return np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size))


class TestExactLibm:
    """``_libm`` returns math's bits on either of its paths."""

    @pytest.mark.parametrize("fn", LIBM, ids=lambda fn: fn.__name__)
    def test_every_size_from_0_to_17(self, fn):
        # The probe's first 2048 arguments are where numpy's SIMD loops
        # round differently from libm, so a size that took them would fail.
        args = equilibrium._probe_arguments(fn)[:2048]
        for k in range(18):
            for start in range(0, args.size - k, k + 1):
                values = args[start:start + k]
                assert_same_bits(equilibrium._libm(fn, values), [fn(v) for v in values.tolist()])

    @pytest.mark.parametrize("fn", LIBM, ids=lambda fn: fn.__name__)
    def test_a_hundred_thousand_arguments(self, fn):
        values = domain_sample(fn, np.random.default_rng(17), 10**5)
        assert_same_bits(equilibrium._libm(fn, values), [fn(v) for v in values.tolist()])

    @pytest.mark.parametrize("fn", LIBM, ids=lambda fn: fn.__name__)
    def test_special_values(self, fn):
        values = np.array(SPECIAL[fn])
        assert_same_bits(equilibrium._libm(fn, values), [fn(v) for v in values.tolist()])
        for v in values:
            assert_same_bits(equilibrium._libm(fn, np.array([v])), [fn(v)])

    def test_input_layout_does_not_matter(self):
        values = equilibrium._probe_arguments(math.exp)[:2048]
        want = [math.exp(v) for v in values.tolist()]
        assert_same_bits(equilibrium._libm(math.exp, values[::-1])[::-1], want)
        assert_same_bits(equilibrium._libm(math.exp, values.reshape(2, -1)[0]), want[:1024])
        assert_same_bits(equilibrium._libm(math.exp, values[::2]), want[::2])

    @pytest.mark.parametrize("fn", LIBM, ids=lambda fn: fn.__name__)
    def test_a_one_ulp_disagreement_keeps_the_map(self, monkeypatch, fresh_probe, fn):
        # Off by one ulp on one probe argument only, the last one checked.
        args = equilibrium._probe_arguments(fn)
        odd = args[-1]
        exact = equilibrium._UFUNCS[fn]

        def one_ulp_off(x, out):
            exact(x, out=out)
            np.copyto(out, np.nextafter(out, np.inf), where=x == odd)
            return out

        monkeypatch.setitem(equilibrium._UFUNCS, fn, one_ulp_off)
        assert equilibrium._exact_ufunc(fn) is None
        values = np.append(args[:64], odd)
        assert_same_bits(equilibrium._libm(fn, values), [fn(v) for v in values.tolist()])

    def test_probe_runs_on_first_use_not_at_import(self):
        script = (
            "import math, numpy as np, mnlmarkets, mnlmarkets.cli\n"
            "from mnlmarkets import equilibrium as e\n"
            "probed = e._exact_ufunc.cache_info\n"
            "assert probed().currsize == 0\n"
            "e._libm(math.exp, np.zeros(1))\n"
            "assert probed().currsize == 0\n"
            "e._libm(math.exp, np.zeros(2))\n"
            "e._libm(math.exp, np.zeros(3))\n"
            "assert (probed().currsize, probed().misses) == (1, 1)\n"
        )
        src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
