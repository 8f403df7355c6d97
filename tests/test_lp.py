"""Tests for the clairvoyant LP benchmark and the internal simplex."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from mnlmarkets import equilibrium
from mnlmarkets.equilibrium import (
    DomainError,
    ItemCatalog,
    SolverError,
    _outcome_cached,
    _solve_masks,
    _solve_outcome,
    equilibrium_outcome,
)
from mnlmarkets.lp import (
    enumerate_columns,
    simplex_solve,
    solve_opt,
    solve_opt_fixed_rev,
)

OMEGA = 0.56714329040978387  # solo revenue of a theta=1 item
R_PAIR = 1.0640048420806135  # total revenue of the theta=(1,2) assortment


def brute_force_lp(a, b, c):
    """Vertex-enumeration oracle for max c'x s.t. ax <= b, x >= 0.

    Appends slacks and enumerates every basis of the standard-form system;
    exponential, so only for tiny instances.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])
    best = None
    for basis in itertools.combinations(range(n + m), m):
        sub = full[:, basis]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        xb = np.linalg.solve(sub, b)
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n + m)
        x[list(basis)] = xb
        val = float(c @ x[:n])
        if best is None or val > best:
            best = val
    return best


class TestSimplex:
    def test_single_bound(self):
        res = simplex_solve(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_constraints(self):
        res = simplex_solve(
            np.array([[1.0, 1.0], [1.0, 0.0]]),
            np.array([1.0, 0.3]),
            np.array([1.0, 1.0]),
        )
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m, n = 5, 12
            a = rng.uniform(0.0, 1.0, (m, n))
            b = rng.uniform(0.5, 3.0, m)
            c = rng.uniform(-0.2, 1.0, n)
            res = simplex_solve(a, b, c)
            assert res.objective == pytest.approx(brute_force_lp(a, b, c), abs=1e-8)
            # Primal feasibility and complementary slackness.
            slack = b - a @ res.x
            assert np.all(slack >= -1e-9)
            assert np.all(res.x >= -1e-9)
            redcost = res.duals @ a - c
            assert abs(res.duals @ slack) <= 1e-8
            assert abs(redcost @ res.x) <= 1e-8

    def test_unbounded_reported(self):
        with pytest.raises(SolverError):
            simplex_solve(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))

    def test_negative_rhs_rejected(self):
        with pytest.raises(DomainError):
            simplex_solve(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))


class TestColumns:
    def test_single_item(self):
        cols = enumerate_columns(ItemCatalog([2.0], [5])).columns
        assert len(cols) == 1
        assert cols[0].members == (0,)
        assert cols[0].demands[0] == pytest.approx(0.5, abs=1e-10)
        assert cols[0].revenue == pytest.approx(1.0, abs=1e-10)

    def test_pair_revenues(self):
        cat = ItemCatalog([1.0, 2.0], [1, 1])
        cols = enumerate_columns(cat).columns
        assert len(cols) == 3
        revs = sorted(c.revenue for c in cols)
        assert revs == pytest.approx([OMEGA, 1.0, R_PAIR], abs=1e-9)

    def test_columns_match_equilibrium(self):
        rng = np.random.default_rng(29)
        cat = ItemCatalog(rng.uniform(-2, 2, 4), [1, 2, 3, 4])
        for col in enumerate_columns(cat).columns:
            out = equilibrium_outcome(cat, col.members)
            assert col.demands == pytest.approx(out.demands, abs=1e-10)
            assert col.revenue == pytest.approx(out.total_revenue, abs=1e-10)

    def test_empty_catalog_impossible(self):
        with pytest.raises(DomainError):
            ItemCatalog([], [])

    def test_cap(self):
        with pytest.raises(DomainError):
            enumerate_columns(ItemCatalog([0.0] * 21, [1] * 21))


def assert_columns_equal_outcomes(cat):
    """Column j of the arrays is equilibrium_outcome of mask j + 1, bit for bit."""
    cols = enumerate_columns(cat)
    n = len(cat)
    assert cols.demands.shape == (n, (1 << n) - 1)
    assert cols.revenues.shape == ((1 << n) - 1,)
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        out = equilibrium_outcome(cat, members)
        want = [0.0] * n
        for i, q in zip(members, out.demands):
            want[i] = q
        assert cols.members(mask - 1) == members
        assert cols.demands[:, mask - 1].tolist() == want
        assert cols.revenues[mask - 1] == out.total_revenue
        col = cols.columns[mask - 1]
        assert (col.members, col.demands, col.revenue) == (members, out.demands, out.total_revenue)


class TestColumnArrays:
    def test_twelve_items_match_equilibrium(self):
        assert_columns_equal_outcomes(ItemCatalog(np.linspace(3.3, -1.9, 12), range(1, 13)))

    def test_hypothesis_catalogs_match_equilibrium(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(qualities=st.lists(st.floats(-4.0, 6.0), min_size=1, max_size=8))
        def check(qualities):
            assert_columns_equal_outcomes(ItemCatalog(qualities, [1] * len(qualities)))

        check()

    def test_fixed_revenue_values_equal_column_records(self):
        rng = np.random.default_rng(61)
        for n in (1, 3, 5, 7):
            cat = ItemCatalog(rng.uniform(-2.0, 3.0, n), rng.integers(1, 6, n))
            cols = enumerate_columns(cat)
            r = rng.uniform(-1.0, 3.0, n).tolist()
            r[0] = 0.0
            sol = solve_opt_fixed_rev(cat, 17, r)
            rows = np.vstack([cols.demands, np.ones((1, len(cols.columns)))])
            rhs = np.array(list(cat.inventories) + [17.0])
            ref = simplex_solve(rows, rhs, np.array([c.fixed_revenue(r) for c in cols.columns]))
            assert sol.objective == ref.objective
            assert sol.masses == tuple(ref.x.tolist())

    def test_arrays_reject_writes(self):
        cols = enumerate_columns(ItemCatalog([1.0, 0.5, -0.5], [1, 2, 3]))
        with pytest.raises(ValueError):
            cols.demands[0, 0] = 1.0
        with pytest.raises(ValueError):
            cols.revenues[0] = 1.0
        with pytest.raises(ValueError):
            cols.demands.setflags(write=True)

    def test_column_view(self):
        cols = enumerate_columns(ItemCatalog([1.5, 1.0, 0.5], [1, 1, 1]))
        view = cols.columns
        assert len(view) == 7
        assert view[-1] == view[6] and view[6].members == (0, 1, 2)
        assert [c.members for c in view][:3] == [(0,), (1,), (0, 1)]
        with pytest.raises(IndexError):
            view[7]

    def test_enumeration_leaves_outcome_cache_alone(self):
        before = _outcome_cached.cache_info().currsize
        enumerate_columns(ItemCatalog([2.71, 1.41, 0.57, -0.3, -1.2], [1, 1, 1, 1, 1]))
        assert _outcome_cached.cache_info().currsize == before

    def test_enumeration_keeps_under_256_bytes_per_column(self):
        # 256 bytes a column is 1 MB at 12 items. The arrays hold n + 1
        # doubles a column (90 bytes here); one Column record and one cached
        # outcome per mask kept about 1.2 kB. Ten items keep the traced run
        # short: tracing slows the scalar solves several times over.
        cat = ItemCatalog(np.linspace(2.9, -2.3, 10), [2] * 10)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cols = enumerate_columns(cat)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cols.columns) == 1023
        assert kept <= 256 * 1023, f"enumeration kept {kept} bytes"


# The 12-item catalog of the seed-0 lp-plan benchmark workload (catalog02).
LP_PLAN_TWELVE = [0.753921, -1.176189, 0.543987, -1.670006, 0.278739, 2.120124,
                  -0.963019, 2.451531, -0.232589, 2.800445, 1.520994, 3.297614]


def scalar_columns(cat, masks):
    """Demands and revenues of each mask from the scalar _solve_outcome."""
    demands = np.zeros((len(cat), len(masks)))
    revenues = np.empty(len(masks))
    for j, mask in enumerate(masks):
        members = tuple(i for i in range(len(cat)) if mask >> i & 1)
        out = _solve_outcome(cat, members)
        demands[members, j] = out.demands
        revenues[j] = out.total_revenue
    return demands, revenues


def assert_same_bits(a, b):
    """Equal as int64 views, so the sign of zero counts."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_kernel_matches_scalar(qualities, masks=None):
    cat = ItemCatalog(qualities, [1] * len(qualities))
    if masks is None:
        masks = np.arange(1, 1 << len(cat))
    demands, revenues = _solve_masks(cat.qualities, masks)
    want_demands, want_revenues = scalar_columns(cat, masks.tolist())
    assert_same_bits(demands, want_demands)
    assert_same_bits(revenues, want_revenues)
    return cat, demands, revenues


class TestBatchedKernel:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_bit_identity_across_the_crossover(self, n):
        rng = np.random.default_rng(100 + n)
        cat, demands, revenues = assert_kernel_matches_scalar(rng.uniform(-2.0, 3.5, n).tolist())
        cols = enumerate_columns(cat)  # scalar below 6 items, batched from 6 on
        assert_same_bits(cols.demands, demands)
        assert_same_bits(cols.revenues, revenues)

    def test_bit_identity_on_lp_plan_catalog(self):
        cat, demands, revenues = assert_kernel_matches_scalar(LP_PLAN_TWELVE)
        cols = enumerate_columns(cat)
        assert_same_bits(cols.demands, demands)
        assert_same_bits(cols.revenues, revenues)

    @pytest.mark.parametrize("qualities", [
        # Takes the share bisection, the share's nxt == w stop and the
        # no-purchase bisection, which the lp-plan catalogs never reach.
        [30.0, 200.0, 5.0],
        [2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
        [-700.0, 1.0, 2.0],
        [-800.0, 1.0, 2.0, -0.5, 0.5, 3.0],  # a share that underflows to 0.0
    ])
    def test_bit_identity_on_rare_branches(self, qualities):
        assert_kernel_matches_scalar(qualities)

    def test_mask_subsets_and_block_boundaries(self, monkeypatch):
        # 1023 and 2047 masks are not multiples of the 512-mask block.
        assert_kernel_matches_scalar(np.linspace(3.1, -1.7, 10).tolist())
        assert_kernel_matches_scalar(np.linspace(2.2, -2.9, 11).tolist(),
                                     np.arange(1, 1 << 11)[::-1])
        monkeypatch.setattr(equilibrium, "_MASK_BLOCK", 10)
        rng = np.random.default_rng(71)
        qualities = rng.uniform(-2.0, 3.5, 7).tolist()
        assert_kernel_matches_scalar(qualities)
        assert_kernel_matches_scalar(qualities, rng.permutation(np.arange(1, 128))[:45])

    def test_share_rounding_to_one_raises_domain_error(self):
        with pytest.raises(DomainError, match="rounds to 1"):
            _solve_masks([1e300, 1.0, 0.0], np.arange(1, 8))
        with pytest.raises(DomainError, match="rounds to 1"):
            enumerate_columns(ItemCatalog([1e17, 3.0, 2.0, 1.0, 0.0, -1.0], [1] * 6))

    def test_iteration_cap_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 3)
        cat = ItemCatalog([30.0, 200.0, 5.0], [1, 1, 1])
        with pytest.raises(SolverError):
            _solve_outcome(cat, (0, 1, 2))
        with pytest.raises(SolverError):
            _solve_masks(cat.qualities, np.arange(1, 8))

    def test_tiny_no_purchase_root_beyond_200_rounds(self):
        # From q0 = 0.5 the root 2.65e-65 takes about 216 no-purchase
        # rounds, past the share Newton's cap of 200.
        assert_kernel_matches_scalar([150.0] * 6)

    def test_no_purchase_cap_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_Q0_MAX_ITER", 3)
        cat = ItemCatalog([150.0, 150.0], [1, 1])
        with pytest.raises(SolverError, match="no-purchase"):
            _solve_outcome(cat, (0, 1))
        with pytest.raises(SolverError, match="no-purchase"):
            _solve_masks(cat.qualities, np.arange(1, 4))

    @pytest.mark.parametrize("qualities", [[760.0, 760.0], [740.0, 740.0, 0.0, 1.0, 2.0, 3.0]])
    def test_subnormal_no_purchase_root_raises_domain_error(self, qualities):
        cat = ItemCatalog(qualities, [1] * len(qualities))
        with pytest.raises(DomainError, match="subnormal"):
            _solve_outcome(cat, tuple(range(len(cat))))
        with pytest.raises(DomainError, match="subnormal"):
            _solve_masks(cat.qualities, np.arange(1, 1 << len(cat)))

    def test_twelve_item_enumeration_peaks_under_2_mb(self):
        # The result arrays are 0.43 MB; 512-mask blocks bound the rest.
        cat = ItemCatalog(np.linspace(3.4, -1.8, 12), [3] * 12)
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cols = enumerate_columns(cat)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(cols.columns) == 4095
        assert peak <= 2 * 2**20, f"enumeration peaked at {peak} bytes"


class TestSolveOpt:
    def test_inventory_slack(self):
        # Single column q=0.5, R=1; mass row binds at m=3.
        sol = solve_opt(ItemCatalog([2.0], [5]), 3)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_inventory_binds(self):
        # 0.5 z <= 1 caps the mass at z = 2.
        sol = solve_opt(ItemCatalog([2.0], [1]), 10)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_rejects_zero_buyers(self):
        with pytest.raises(DomainError):
            solve_opt(ItemCatalog([2.0], [1]), 0)

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            cat = ItemCatalog(rng.uniform(-2, 2.5, n), rng.integers(1, 6, n))
            m = int(rng.integers(1, 20))
            sol = solve_opt(cat, m)
            a = enumerate_columns(cat).demands
            z = np.array(sol.masses)
            assert np.all(a @ z <= np.array(cat.inventories) + 1e-8)
            assert z.sum() <= m + 1e-8
            assert np.all(z >= -1e-12)

    def test_monotone_in_buyers_and_inventory(self):
        rng = np.random.default_rng(43)
        cat = ItemCatalog(rng.uniform(-1, 2.5, 3), [2, 2, 2])
        vals = [solve_opt(cat, m).objective for m in (1, 3, 6, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        grown = ItemCatalog(cat.qualities, [4, 2, 2])
        assert solve_opt(grown, 6).objective >= solve_opt(cat, 6).objective - 1e-9

    def test_sanity_caps(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            cat = ItemCatalog(rng.uniform(-2, 2.5, n), rng.integers(1, 4, n))
            m = int(rng.integers(1, 15))
            sol = solve_opt(cat, m)
            cols = enumerate_columns(cat).columns
            assert sol.objective <= m * max(c.revenue for c in cols) + 1e-8
            # Each unit of item i earns at most its best per-unit price.
            best_price = np.zeros(n)
            for col in cols:
                for i, q in zip(col.members, col.demands):
                    best_price[i] = max(best_price[i], 1.0 / (1.0 - q))
            cap = float(np.dot(cat.inventories, best_price))
            assert sol.objective <= cap + 1e-8


class TestFixedRevenue:
    def test_unit_revenues_pick_full_assortment(self):
        # With r = 1 and ample inventory, one buyer is worth 1 - q0(full).
        cat = ItemCatalog([1.0, 2.0], [50, 50])
        sol = solve_opt_fixed_rev(cat, 1, [1.0, 1.0])
        out = equilibrium_outcome(cat, (0, 1))
        assert sol.objective == pytest.approx(1.0 - out.q0, abs=1e-9)
        # Full-assortment column carries all the mass.
        best = int(np.argmax(sol.masses))
        assert enumerate_columns(cat).columns[best].members == (0, 1)

    def test_zero_revenues(self):
        sol = solve_opt_fixed_rev(ItemCatalog([1.0, 2.0], [1, 1]), 3, [0.0, 0.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_price_weights_dominate_on_full_column(self):
        # r_i = 1/(1 - q_i(full)) reprices the full column at its
        # equilibrium revenue.
        cat = ItemCatalog([0.5, 1.5, 2.5], [1, 1, 1])
        out = equilibrium_outcome(cat, (0, 1, 2))
        r = [1.0 / (1.0 - q) for q in out.demands]
        cols = enumerate_columns(cat).columns
        full = next(c for c in cols if c.members == (0, 1, 2))
        assert full.fixed_revenue(r) == pytest.approx(out.total_revenue, abs=1e-10)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            solve_opt_fixed_rev(ItemCatalog([1.0], [1]), 1, [1.0, 1.0])


def expanded_opt(catalog, m):
    """Time-expanded LP with per-buyer simplex rows, solved explicitly.

    Oracle for the homogeneous collapse: variables y^t(S) for every buyer t
    and nonempty S; the empty assortment makes the per-t equality rows
    equivalent to <= 1 rows.
    """
    cols = enumerate_columns(catalog).columns
    n = len(catalog)
    k = len(cols)
    rows = np.zeros((n + m, m * k))
    values = np.zeros(m * k)
    for t in range(m):
        for j, col in enumerate(cols):
            jj = t * k + j
            values[jj] = col.revenue
            rows[n + t, jj] = 1.0
            for i, q in zip(col.members, col.demands):
                rows[i, jj] = q
    rhs = np.array(list(catalog.inventories) + [1.0] * m, dtype=float)
    return simplex_solve(rows, rhs, values).objective


class TestCollapse:
    def test_collapsed_equals_time_expanded(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            cat = ItemCatalog(rng.uniform(-2, 2.5, n), rng.integers(1, 4, n))
            m = int(rng.integers(1, 6))
            collapsed = solve_opt(cat, m).objective
            assert collapsed == pytest.approx(expanded_opt(cat, m), abs=1e-7)
