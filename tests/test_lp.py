"""Tests for the clairvoyant LP benchmark and the internal simplex."""

import gc
import math
import tracemalloc
import warnings

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
from mnlmarkets.simulate import always_offer_ratios
from oracles import (assert_certified, assert_same_bits, brute_force_lp, expanded_opt, highs_maximum,
                     impossibility_lp, member_order_fixed_revenues, reference_simplex, scalar_columns)

OMEGA = 0.56714329040978387  # solo revenue of a theta=1 item
R_PAIR = 1.0640048420806135  # total revenue of the theta=(1,2) assortment


def assert_solves_like_reference(rows, rhs, objective):
    """simplex_solve equals reference_simplex bit for bit, or raises the same error."""
    try:
        want = reference_simplex(rows, rhs, objective)
    except (DomainError, SolverError) as exc:
        with pytest.raises(type(exc)) as info:
            simplex_solve(rows, rhs, objective)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return None
    got = simplex_solve(rows, rhs, objective)
    assert got.iterations == want.iterations
    assert_same_bits(np.float64(got.objective), np.float64(want.objective))
    assert_same_bits(got.x, want.x)
    assert_same_bits(got.duals, want.duals)
    return got


def lp_of(catalog, m, values):
    """The (rows, rhs, objective) that _solve_columns hands to simplex_solve."""
    demands = enumerate_columns(catalog).demands
    rows = np.vstack([demands, np.ones((1, demands.shape[1]))])
    rhs = np.array(list(catalog.inventories) + [float(m)])
    return rows, rhs, np.asarray(values, dtype=float)


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
        with pytest.raises(SolverError, match="unbounded"):
            simplex_solve(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))
        # Unbounded after two pivots: x2 grows without limit once x0 and x1 are in.
        rows = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        assert assert_solves_like_reference(rows, np.array([1.0, 2.0]),
                                            np.array([1.0, 1.0, 1.0])) is None

    def test_overflowing_ratio_raises(self):
        # 1e308 / 1.5e-9 overflows; Python float division would return inf.
        with pytest.raises(SolverError, match="overflow the floating range"):
            simplex_solve([[1.5e-9], [1.0]], [1e308, 1.0], [1.0])
        assert_solves_like_reference([[1.5e-9], [1.0]], [1e308, 1.0], [1.0])

    @pytest.mark.parametrize("rows, rhs, objective", [
        # 3 / 1 and 0.3 / 0.1 differ in the last bit, so they tie only
        # through the cut, and the row of lower basic index leaves.
        ([[1.0], [0.1]], [3.0, 0.3], [1.0]),
        ([[1.0], [1.0]], [1.7976931348623e308, 1.7976931348623e308], [1.0]),  # the tie cut overflows
        ([[1.0]], [math.inf], [1.0]),  # non-finite data raises DomainError in both
        ([[math.inf], [1.0]], [math.inf, 1.0], [1.0]),
        ([[-math.inf], [1.0]], [1.0, 2.0], [1.0]),
        ([[1.0], [1.0]], [math.nan, 1.0], [1.0]),
        ([[1.0], [1.0]], [1.0, math.nan], [1.0]),
        ([[1.0, 1.0]], [1.0], [math.inf, 1.0]),
        ([[1.0, 1.0]], [1.0], [math.nan, 1.0]),
        ([[2e-9, 1e308]], [1.0], [1.0, 0.0]),  # the pivot row's division overflows
    ])
    def test_edge_lps_solve_like_reference(self, rows, rhs, objective):
        assert_solves_like_reference(rows, rhs, objective)
        if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in (rows, rhs, objective)):
            with pytest.raises(DomainError, match="LP data must be finite"):
                simplex_solve(rows, rhs, objective)

    def test_integer_beyond_the_double_range_raises_domain_error(self):
        with pytest.raises(DomainError, match="LP data must be finite"):
            simplex_solve([[1.0]], [10**400], [1.0])

    def test_degenerate_and_tied_lps_pivot_like_reference(self):
        # Few distinct entries and zero right-hand sides give tied ratios and
        # zero-length pivots, where Bland's leaving rule decides: 75 and 191
        # of the 375 ratio tests here.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entries = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 1.0, 2.0, -1.0])

        @st.composite
        def lps(draw):
            m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
            rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
            rhs = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0, 3.0]), min_size=m, max_size=m))
            objective = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 1.0, 2.0]),
                                      min_size=n, max_size=n))
            return np.array(rows), np.array(rhs), np.array(objective)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(lp=lps())
        def check(lp):
            res = assert_solves_like_reference(*lp)
            if res is not None:
                assert_certified(*lp, res)

        check()

    def test_negative_rhs_rejected(self):
        with pytest.raises(DomainError):
            simplex_solve(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))


class TestColumns:
    def test_single_item(self):
        cols = enumerate_columns(ItemCatalog([2.0], [5]))
        assert cols.revenues.size == 1
        assert cols.members(0) == (0,)
        assert cols.demands[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert cols.revenues[0] == pytest.approx(1.0, abs=1e-10)

    def test_pair_revenues(self):
        cat = ItemCatalog([1.0, 2.0], [1, 1])
        revenues = enumerate_columns(cat).revenues
        assert revenues.size == 3
        revs = sorted(revenues.tolist())
        assert revs == pytest.approx([OMEGA, 1.0, R_PAIR], abs=1e-9)

    def test_columns_match_equilibrium(self):
        rng = np.random.default_rng(29)
        cat = ItemCatalog(rng.uniform(-2, 2, 4), [1, 2, 3, 4])
        cols = enumerate_columns(cat)
        for j in range(cols.revenues.size):
            members = cols.members(j)
            out = equilibrium_outcome(cat, members)
            assert cols.demands[list(members), j].tolist() == pytest.approx(out.demands, abs=1e-10)
            assert cols.revenues[j] == pytest.approx(out.total_revenue, abs=1e-10)

    def test_members_reads_a_column_index(self):
        # A 2-item catalog has columns 0, 1 and 2; bitmask decoding once
        # returned () for 3 and (0, 1) for -2.
        cols = enumerate_columns(ItemCatalog([1.0, 0.5], [2, 2]))
        assert [cols.members(j) for j in range(3)] == [(0,), (1,), (0, 1)]
        assert cols.members(np.int64(2)) == (0, 1)
        for bad in (3, -1, -2, 1.5, 1.0, True, "1", None):
            with pytest.raises(DomainError, match="column"):
                cols.members(bad)

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
        inputs = []
        for n in (1, 3, 5, 7):
            cat = ItemCatalog(rng.uniform(-2.0, 3.0, n), rng.integers(1, 6, n))
            r = rng.uniform(-1.0, 3.0, n).tolist()
            r[0] = 0.0
            inputs.append((cat, r))
        # The quality -800 item's share is exactly 0.0, so with r < 0 each of
        # its columns adds -0.0 for a member as well as for a non-member.
        inputs.append((ItemCatalog([2.0, 1.5, 0.5, -800.0], [4, 2, 1, 3]), [0.7, 1.25, -0.3, -2.5]))
        for cat, r in inputs:
            cols = enumerate_columns(cat)
            sol = solve_opt_fixed_rev(cat, 17, r)
            rows = np.vstack([cols.demands, np.ones((1, cols.revenues.size))])
            rhs = np.array(list(cat.inventories) + [17.0])
            ref = simplex_solve(rows, rhs, member_order_fixed_revenues(cols, r))
            assert_same_bits(np.float64(sol.objective), np.float64(ref.objective))
            assert_same_bits(np.array(sol.masses), ref.x)
        assert cols.demands[3].tolist() == [0.0] * cols.revenues.size

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
        assert view.shape == (7, 3) and len(view) == 7
        assert_same_bits(view, cols.demands.T)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_enumeration_leaves_outcome_cache_alone(self):
        before = _outcome_cached.cache_info().currsize
        enumerate_columns(ItemCatalog([2.71, 1.41, 0.57, -0.3, -1.2], [1, 1, 1, 1, 1]))
        assert _outcome_cached.cache_info().currsize == before

    def test_enumeration_keeps_under_256_bytes_per_column(self):
        # 256 bytes a column is 1 MB at 12 items. The arrays hold n + 1
        # doubles a column (90 bytes here); a record object and a cached
        # outcome per mask would keep about 1.2 kB. Ten items keep the traced
        # run short: tracing slows the scalar solves several times over.
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


def assert_kernel_matches_scalar(qualities, masks=None):
    cat = ItemCatalog(qualities, [1] * len(qualities))
    if masks is None:
        masks = np.arange(1, 1 << len(cat))
    demands, revenues = _solve_masks(cat.qualities, masks)
    want_demands, want_revenues = scalar_columns(cat, masks.tolist())
    assert_same_bits(demands, want_demands)
    assert_same_bits(revenues, want_revenues)
    return cat, demands, revenues


# Scalar roots in 1, 2, 3 and 5 iterates: the active set shrinks to one
# element, which runs its last two iterates alone.
DOWN_TO_ONE_LX = np.array([-20.0, -10.0, -5.0, 0.0])

# Inputs of the share kernel, each compared with the scalar root bit for bit.
SHARE_KERNEL_LX = [
    # The first two iterates: no Newton step leaves its bracket and no
    # element converges.
    pytest.param(np.linspace(1.5, 20.0, 40), id="newton-only"),
    # Iterates where some elements converge and others fall back, with
    # both fallbacks taken.
    pytest.param(np.linspace(-30.0, 30.0, 61), id="mixed"),
    # On these powers of two a Newton step from below rounds back to w
    # while hi is still inf, so w doubles (2**27 on its first iterate,
    # where f is -ulp(w)/2).
    pytest.param(np.array([8192.0, 2.0**20, 2.0**27, 3.0]), id="overshoot"),
    pytest.param(DOWN_TO_ONE_LX, id="down-to-one"),
    # Every root takes 5 iterates, so nothing converges in the first 4 and
    # the Newton points become the iterates by buffer swaps alone.
    pytest.param(np.linspace(-1.2, 2.2, 35), id="no-convergence"),
    # Roots in 4, 5, 5 and 5 iterates, the last after one doubling: three
    # swaps, a compaction, then the rest stop together.
    pytest.param(np.array([-3.4, -1.0, 0.5, 43.55]), id="swap-then-compact"),
]


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
        # Shares near 1e-17: q0 bisects up to 1 - 2**-44, each round's h
        # starts at -2**-k, and the members' terms move only its last bits.
        # Every mask, single-member to all-member, sums one (n + 1)-row block.
        [-38.0, -39.5, -40.0, -41.0, -45.0, -50.0],
    ])
    def test_bit_identity_on_rare_branches(self, qualities):
        assert_kernel_matches_scalar(qualities)

    def test_mask_subsets_and_block_boundaries(self, monkeypatch):
        # 1023 and 2047 masks are not multiples of the 1,024-mask block.
        assert_kernel_matches_scalar(np.linspace(3.1, -1.7, 10).tolist())
        # A lone mask makes one-column sum blocks, which numpy would sum
        # pairwise rather than row by row.
        for mask in (23, 57, 4095):
            assert_kernel_matches_scalar(LP_PLAN_TWELVE, np.array([mask]))
        assert_kernel_matches_scalar(np.linspace(2.2, -2.9, 11).tolist(),
                                     np.arange(1, 1 << 11)[::-1])
        monkeypatch.setattr(equilibrium, "_MASK_BLOCK", 10)
        rng = np.random.default_rng(71)
        qualities = rng.uniform(-2.0, 3.5, 7).tolist()
        assert_kernel_matches_scalar(qualities)
        assert_kernel_matches_scalar(qualities, rng.permutation(np.arange(1, 128))[:45])

    @pytest.mark.parametrize("qualities, block", [
        (LP_PLAN_TWELVE, None),
        (LP_PLAN_TWELVE, 10),
        ([2.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.5, -1.0, -1.0], None),  # tied qualities
    ])
    def test_masks_at_one_q0_share_their_share_solves(self, monkeypatch, qualities, block):
        if block is not None:
            monkeypatch.setattr(equilibrium, "_MASK_BLOCK", block)
        cat = ItemCatalog(qualities, [1] * len(qualities))
        n = len(cat)
        # Unshared, the kernel solves n shares in each block's first round
        # (every mask starts at q0 = 0.5) and every member's share in each
        # later no-purchase round: the scalar root's count less its first
        # round. The final demands add more, so this undercounts.
        scalar = [0]
        solve_one = equilibrium._share_from_log

        def count_one(lx):
            scalar[0] += 1
            return solve_one(lx)

        monkeypatch.setattr(equilibrium, "_share_from_log", count_one)
        members = 0
        for mask in range(1, 1 << n):
            items = [cat.qualities[i] for i in range(n) if mask >> i & 1]
            members += len(items)
            equilibrium._no_purchase_root(items)
        monkeypatch.setattr(equilibrium, "_share_from_log", solve_one)
        blocks = -(-((1 << n) - 1) // equilibrium._MASK_BLOCK)
        unshared = scalar[0] - members + blocks * n

        solved = [0]
        solve_many = equilibrium._shares_from_log

        def count_many(lx):
            solved[0] += lx.size
            return solve_many(lx)

        monkeypatch.setattr(equilibrium, "_shares_from_log", count_many)
        assert_kernel_matches_scalar(qualities)
        assert solved[0] < unshared

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

    def test_map_path_gives_the_same_bits(self, monkeypatch):
        # As on a host whose numpy fails the libm probe.
        monkeypatch.setattr(equilibrium, "_exact_ufunc", lambda fn: None)
        assert_kernel_matches_scalar(LP_PLAN_TWELVE)

    @pytest.mark.parametrize("exact", [True, False], ids=["ufunc", "map"])
    def test_share_roots_at_the_underflow_edge(self, monkeypatch, exact):
        # Through (ln 2**-1075, ln 2**-1074) the bisection midpoint is 0.0,
        # whose log the map path raised on and the ufunc path makes -inf.
        if not exact:
            monkeypatch.setattr(equilibrium, "_exact_ufunc", lambda fn: None)
        lx = np.linspace(-745.2, -744.4, 4001)
        want = np.array([equilibrium._share_from_log(x) for x in lx.tolist()])
        with np.errstate(all="ignore"):  # as inside _solve_masks
            assert_same_bits(equilibrium._shares_from_log(lx), want)
        assert {0.0, 5e-324} == set(want[lx < math.log(5e-324)].tolist())
        assert_kernel_matches_scalar([-744.0, -745.5, -746.0, 0.0, 1.0, 2.0])
        assert_kernel_matches_scalar(np.linspace(-744.45, -745.1, 7).tolist())

    @pytest.mark.parametrize("lx", SHARE_KERNEL_LX)
    def test_share_kernel_matches_scalar(self, lx):
        want = np.array([equilibrium._share_from_log(x) for x in lx.tolist()])
        with np.errstate(all="ignore"):  # as inside _solve_masks
            assert_same_bits(equilibrium._shares_from_log(lx), want)

    @pytest.mark.parametrize("lx", SHARE_KERNEL_LX)
    def test_share_kernel_map_path_matches_scalar(self, monkeypatch, lx):
        # The buffered loop as on a host whose numpy fails the libm probe.
        monkeypatch.setattr(equilibrium, "_exact_ufunc", lambda fn: None)
        want = np.array([equilibrium._share_from_log(x) for x in lx.tolist()])
        with np.errstate(all="ignore"):
            assert_same_bits(equilibrium._shares_from_log(lx), want)

    def test_share_kernel_maps_a_lone_active_element(self, monkeypatch):
        # The last active element iterates alone, so its logarithms take
        # _libm's map path while the others took numpy's scalar loop.
        lx = DOWN_TO_ONE_LX
        sizes = []
        mapped = equilibrium._mapped

        def spy(fn, values):
            sizes.append(values.size)
            return mapped(fn, values)

        monkeypatch.setattr(equilibrium, "_mapped", spy)
        want = np.array([equilibrium._share_from_log(x) for x in lx.tolist()])
        with np.errstate(all="ignore"):
            assert_same_bits(equilibrium._shares_from_log(lx), want)
        assert sizes and set(sizes) == {1}

    @pytest.mark.parametrize("count", [
        pytest.param(lambda block: block - 1, id="one-partial-block"),
        pytest.param(lambda block: 2 * block - 1, id="full-and-partial"),
        pytest.param(lambda block: block + 1, id="full-and-lone-mask"),
    ])
    def test_blocks_at_the_mask_block_size(self, monkeypatch, count):
        # 1023, 2047 and 1025 masks at 1024-mask blocks: every mask of a
        # 10- and an 11-item catalog, and a subset of the 11-item masks,
        # each shuffled. The last block of the subset is one mask wide.
        block = equilibrium._MASK_BLOCK
        size = count(block)
        n = size.bit_length()
        rng = np.random.default_rng(size)
        masks = rng.permutation(np.arange(1, 1 << n))[:size]
        sizes = []
        solve_block = equilibrium._solve_mask_block

        def spy(theta, block_masks):
            sizes.append(block_masks.size)
            return solve_block(theta, block_masks)

        monkeypatch.setattr(equilibrium, "_solve_mask_block", spy)
        assert_kernel_matches_scalar(rng.uniform(-2.0, 3.5, n).tolist(), masks)
        assert sizes == [block] * (size // block) + [size % block]

    def test_twelve_item_enumeration_peaks_under_2_mb(self):
        # The result arrays are 0.43 MB; 1,024-mask blocks bound the rest.
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


def lp_plan_catalog(n, seed):
    """A catalog shaped like the lp-plan benchmark's: U(-2, 3.5) qualities, 1-19 units."""
    rng = np.random.default_rng(seed)
    return ItemCatalog(np.round(rng.uniform(-2.0, 3.5, n), 6), rng.integers(1, 20, n))


class TestLpPlanSolves:
    @pytest.mark.parametrize("catalog, buyers", [
        (lp_plan_catalog(10, 3), 41),
        (lp_plan_catalog(11, 4), 137),
        (ItemCatalog(LP_PLAN_TWELVE, [19, 1, 10, 4, 13, 7, 16, 3, 8, 17, 12, 5]), 188),
    ])
    def test_revenue_and_unit_lps_pivot_like_reference(self, catalog, buyers):
        cols = enumerate_columns(catalog)
        unit = solve_opt_fixed_rev(catalog, 100, [1.0] * len(catalog))
        for m, values, sol in ((buyers, cols.revenues, solve_opt(catalog, buyers)),
                               (100, cols.demands.sum(axis=0), unit)):
            lp = lp_of(catalog, m, values)
            res = assert_solves_like_reference(*lp)
            assert_certified(*lp, res)
            assert sol.iterations == res.iterations > 0
            assert sol.objective == res.objective
            assert sol.masses == tuple(res.x.tolist())

    def test_objectives_match_highs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            qualities=st.lists(st.floats(-2.0, 3.5), min_size=1, max_size=9),
            inventories=st.lists(st.integers(1, 19), min_size=9, max_size=9),
            buyers=st.integers(1, 200),
            prices=st.lists(st.floats(0.0, 3.0), min_size=9, max_size=9),
        )
        def check(qualities, inventories, buyers, prices):
            n = len(qualities)
            catalog = ItemCatalog(qualities, inventories[:n])
            cols = enumerate_columns(catalog)
            r = prices[:n]
            fixed = member_order_fixed_revenues(cols, r)
            for sol, values in ((solve_opt(catalog, buyers), cols.revenues),
                                (solve_opt_fixed_rev(catalog, buyers, r), fixed)):
                rows, rhs, c = lp_of(catalog, buyers, values)
                assert sol.objective == pytest.approx(highs_maximum(rows, rhs, c), rel=1e-9, abs=1e-12)
                res = simplex_solve(rows, rhs, c)
                assert res.objective == sol.objective
                assert_certified(rows, rhs, c, res)

        check()


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
            cols = enumerate_columns(cat)
            assert sol.objective <= m * cols.revenues.max() + 1e-8
            # Each unit of item i earns at most its best per-unit price.
            best_price = np.zeros(n)
            for j in range(cols.revenues.size):
                for i in cols.members(j):
                    best_price[i] = max(best_price[i], 1.0 / (1.0 - cols.demands[i, j]))
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
        assert enumerate_columns(cat).members(best) == (0, 1)

    def test_zero_revenues(self):
        sol = solve_opt_fixed_rev(ItemCatalog([1.0, 2.0], [1, 1]), 3, [0.0, 0.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_price_weights_dominate_on_full_column(self):
        # r_i = 1/(1 - q_i(full)) reprices the full column at its
        # equilibrium revenue.
        cat = ItemCatalog([0.5, 1.5, 2.5], [1, 1, 1])
        out = equilibrium_outcome(cat, (0, 1, 2))
        r = [1.0 / (1.0 - q) for q in out.demands]
        cols = enumerate_columns(cat)
        full = cols.revenues.size - 1  # bitmask 0b111
        assert cols.members(full) == (0, 1, 2)
        assert member_order_fixed_revenues(cols, r)[full] == pytest.approx(out.total_revenue, abs=1e-10)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            solve_opt_fixed_rev(ItemCatalog([1.0], [1]), 1, [1.0, 1.0])

    @pytest.mark.parametrize("r", [[math.inf, 1.0], [1.0, -math.inf], [math.nan, 1.0], [1.0, 10**400]])
    def test_rejects_non_finite_revenue_without_a_warning(self, r):
        # inf times a non-member's 0.0 demand used to warn before the LP raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="fixed revenues"):
                solve_opt_fixed_rev(ItemCatalog([1.0, 2.0], [1, 1]), 3, r)


class TestPivotTolerance:
    def test_values_below_the_pivot_tolerance(self):
        catalog = ItemCatalog([-0.7877911036727456, 1e-13, 2.323082446794098], [1, 1, 1])
        sol = solve_opt_fixed_rev(catalog, 1, [2e-11] * 3)
        values = 2e-11 * enumerate_columns(catalog).demands.sum(axis=0)
        highs = highs_maximum(*lp_of(catalog, 1, values))
        assert highs > 1e-11
        assert sol.objective == pytest.approx(highs, rel=1e-6)

    def test_small_fixed_revenues_match_highs(self):
        # 300 fixed-revenue LPs with n <= 7 items and m < 200 buyers: 40% pay
        # r_i = 10^U(-16, -6), 30% a U(0, 3) scaled by one 10^U(-12, 0), 30%
        # a U(0, 3), and 20% have one item of quality 1e-13. Against an
        # absolute entering tolerance of 1e-9, 119 of them stopped short of
        # the optimum, 68 at 0.0.
        rng = np.random.default_rng(1)
        for _ in range(300):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 200))
            qualities = rng.uniform(-2.0, 3.5, n)
            if rng.random() < 0.2:
                qualities[rng.integers(n)] = 1e-13
            catalog = ItemCatalog(qualities, rng.integers(1, 20, n))
            kind = rng.random()
            if kind < 0.4:
                r = 10.0 ** rng.uniform(-16.0, -6.0, n)
            elif kind < 0.7:
                r = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-12.0, 0.0)
            else:
                r = rng.uniform(0.0, 3.0, n)
            sol = solve_opt_fixed_rev(catalog, m, r.tolist())
            values = r @ enumerate_columns(catalog).demands
            assert sol.objective == pytest.approx(highs_maximum(*lp_of(catalog, m, values)),
                                                  rel=1e-9, abs=1e-12)


class TestCollapse:
    def test_collapsed_equals_time_expanded(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            cat = ItemCatalog(rng.uniform(-2, 2.5, n), rng.integers(1, 4, n))
            m = int(rng.integers(1, 6))
            collapsed = solve_opt(cat, m).objective
            assert collapsed == pytest.approx(expanded_opt(cat, m), abs=1e-7)


class TestImpossibilityCertificate:
    @pytest.mark.parametrize("growth", [2.0, 3.0, 5.0, 10.0])
    def test_best_online_ratio_decays_like_one_over_horizon(self, growth):
        # c*(H) is the best ratio an online rule can guarantee; it falls as
        # g / ((g - 1) H), so no rule has a constant ratio.
        for horizon in (4, 8, 16, 32):
            inst, *lp = impossibility_lp(growth, horizon)
            res = simplex_solve(*lp)
            assert_certified(*lp, res)
            assert res.objective == pytest.approx(highs_maximum(*lp), rel=1e-9)
            assert res.objective >= always_offer_ratios(inst, horizon)[-1]
            assert simplex_solve(*impossibility_lp(growth, 2 * horizon)[1:]).objective < res.objective
            scaled = horizon * res.objective
            print(f"g={growth:g} H={horizon}: H*c*(H)={scaled:.6f} g/(g-1)={growth / (growth - 1):.6f}")
            assert abs(scaled - growth / (growth - 1)) <= 0.025

    @pytest.mark.parametrize("growth", [2.0, 3.0, 5.0, 10.0])
    def test_optimum_has_a_closed_form(self, growth):
        # With every prefix row tight, y_t = c * w_t where a_t = 1 + r_t,
        # w_1 = g / a_1 and w_t = (g^t - g^(t-1)) / a_t, and each stock row
        # c * (w_t + q_t * sum_{s<t} w_s) <= q_t bounds c. The least bound
        # is c*(H).
        for horizon in (4, 8, 16, 32):
            inst, *lp = impossibility_lp(growth, horizon)
            a = [1.0 + inst.solo_revenue(t) for t in range(1, horizon + 1)]
            w = [growth / a[0]] + [(growth**t - growth ** (t - 1)) / a[t - 1]
                                   for t in range(2, horizon + 1)]
            bounds = []
            for t in range(horizon):
                q = inst.solo_demand(t + 1)
                bounds.append(q / (w[t] + q * sum(w[:t])))
            assert simplex_solve(*lp).objective == pytest.approx(min(bounds), rel=1e-12)
