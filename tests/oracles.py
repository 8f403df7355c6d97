"""Independent oracles and certificates that the tests check the library against.

Each helper is defined here once. Its docstring names the library code it
shares, if any: a fault in shared code is one that oracle cannot catch.

scipy and networkx are imported inside the helpers that need them, through
``pytest.importorskip``, so a missing test extra skips those tests instead
of failing collection. The test files import this module by name: pytest's
``pythonpath`` setting in ``pyproject.toml`` puts ``tests/`` on the path.
"""

import itertools
import math

import numpy as np
import pytest

from mnlmarkets.equilibrium import (DomainError, ItemCatalog, SolverError, _newton, _solve_outcome,
                                   equilibrium_outcome, mnl_demand)
from mnlmarkets.lp import SimplexResult, enumerate_columns, simplex_solve, solve_opt
from mnlmarkets.network import _sigmoid, seller_best_response, seller_utility
from mnlmarkets.policies import OnlineInstance
from mnlmarkets.segmentation import WEIGHT_SCALE, Pool, equilibrate_pool, unit_price_weight
from mnlmarkets.simulate import (POLICIES, _branch_value, adversarial_instance, episode_rng, run_episode,
                                 threshold_headroom)


def bits(values):
    """The float64 bits of each value, so that == also pins NaN and -0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_bits(got, want):
    """Equal as int64 views, so the sign of zero counts."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_bits_except_nan_sign(got, want):
    """Bytes equal, sign of zero included; a NaN may differ only in its sign bit.

    For the sigmoid kernels, whose NaN inputs pass through different
    operations in the two forms compared: IEEE 754 does not say which sign
    a NaN result carries, so only the NaN positions are compared there.
    """
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def highs_maximum(rows, rhs, objective):
    """max objective'x s.t. rows x <= rhs, x >= 0, from scipy's HiGHS.

    The objective is first scaled by a power of two so that max|c| lies in
    [0.5, 1), which keeps the optimal vertex and scales back exactly, and
    HiGHS runs at 1e-10 primal and dual feasibility tolerances. At its
    default 1e-7 it can stop at a vertex 1e-9 short of the optimum, as on
    qualities [0, 0, 0, 1e-7], and on an LP of scale 1e-12 it can return
    -0.0: the oracle must be finer than the checks.
    """
    optimize = pytest.importorskip("scipy.optimize")
    c = np.asarray(objective, dtype=float)
    exponent = math.frexp(float(np.abs(c).max(initial=0.0)))[1]
    highs = optimize.linprog(
        -np.ldexp(c, -exponent), A_ub=rows, b_ub=rhs, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert highs.status == 0, highs.message
    return math.ldexp(-highs.fun, exponent)


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


def reference_simplex(rows, rhs, objective):
    """The Bland loop with whole-array numpy per pivot, kept as an oracle.

    simplex_solve must give the same objective, x, duals and pivot count
    bit for bit, and raise the same errors. Shares only the result type
    and the error classes with lp.simplex_solve; its rule, tolerances
    included, is written out again here.
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    c = np.asarray(objective, dtype=float)
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise DomainError("inconsistent LP dimensions")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise DomainError("LP data must be finite")
    if np.any(b < 0):
        raise DomainError("rhs must be nonnegative for a slack start")
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[-1, :n] = -c
    basis = list(range(n, n + m))
    entering_tol = 1e-9 * min(1.0, float(np.abs(c).max(initial=0.0)))

    try:
        with np.errstate(over="raise", invalid="raise"):
            for iteration in range(100_000):
                red = t[-1, :-1]
                entering_candidates = np.nonzero(red < -entering_tol)[0]
                if entering_candidates.size == 0:
                    break
                j = int(entering_candidates[0])  # Bland: lowest index enters
                col = t[:m, j]
                positive = col > 1e-9
                if not positive.any():
                    raise SolverError("LP is unbounded")
                ratios = np.full(m, np.inf)
                ratios[positive] = t[:m, -1][positive] / col[positive]
                best = ratios.min()
                ties = np.nonzero(ratios <= best * (1 + 1e-12) + 1e-15)[0]
                r = int(min(ties, key=lambda k: basis[k]))  # Bland: lowest basic index leaves
                # Pivot on (r, j).
                t[r] /= t[r, j]
                for k in range(m + 1):
                    if k != r and t[k, j] != 0.0:
                        t[k] -= t[k, j] * t[r]
                basis[r] = j
            else:
                raise SolverError("simplex iteration cap exceeded")
    except FloatingPointError as exc:
        raise SolverError("LP values overflow the floating range") from exc

    x = np.zeros(n + m)
    x[basis] = t[:m, -1]
    return SimplexResult(
        objective=float(t[-1, -1]),
        x=x[:n].copy(),
        duals=t[-1, n : n + m].copy(),
        iterations=iteration,
    )


def lp_certificate(a, b, c, res):
    """Optimality certificate of res for max c'z s.t. a z <= b, z >= 0.

    The primal residual ||(a z - b)+||, the least mass and dual (both must be
    >= 0), the worst reduced cost min(y'a - c) (>= 0 at an optimum) and the
    duality gap |c'z - b'y|, with y the row duals.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    z, y = res.x, res.duals
    return {
        "primal_residual": float(np.linalg.norm(np.maximum(a @ z - b, 0.0))),
        "least_mass": float(z.min()),
        "least_dual": float(y.min()),
        "worst_reduced_cost": float((y @ a - c).min()),
        "duality_gap": abs(float(c @ z) - float(b @ y)),
    }


def assert_certified(a, b, c, res):
    """The certificate holds to 1e-9 relative to the LP's scale.

    1e-9 is the simplex's pivot tolerance: reduced costs above
    -1e-9 * min(1, max|c|) count as optimal, and entries at or below 1e-9
    are not pivoted on.
    """
    cert = lp_certificate(a, b, c, res)
    scale = max(1.0, abs(res.objective), float(np.abs(b).max()))
    assert cert["primal_residual"] <= 1e-9 * scale, cert
    assert cert["least_mass"] >= -1e-9 * scale, cert
    assert cert["least_dual"] >= -1e-9 * max(1.0, float(np.abs(c).max())), cert
    assert cert["worst_reduced_cost"] >= -1e-9 * max(1.0, float(np.abs(c).max())), cert
    assert cert["duality_gap"] <= 1e-9 * scale, cert


def scalar_columns(cat, masks):
    """Demands and revenues of each mask from the scalar _solve_outcome.

    The reference of the batched column kernel: shares the scalar
    equilibrium solver, equilibrium._solve_outcome.
    """
    demands = np.zeros((len(cat), len(masks)))
    revenues = np.empty(len(masks))
    for j, mask in enumerate(masks):
        members = tuple(i for i in range(len(cat)) if mask >> i & 1)
        out = _solve_outcome(cat, members)
        demands[members, j] = out.demands
        revenues[j] = out.total_revenue
    return demands, revenues


def expanded_opt(catalog, m):
    """Time-expanded LP with per-buyer simplex rows, solved explicitly.

    Oracle for the homogeneous collapse: variables y^t(S) for every buyer t
    and nonempty S; the empty assortment makes the per-t equality rows
    equivalent to <= 1 rows. Shares the columns of lp.enumerate_columns and
    solves with lp.simplex_solve itself, so it checks the collapse, not the
    solver.
    """
    cols = enumerate_columns(catalog)
    n, k = cols.demands.shape
    rows = np.zeros((n + m, m * k))
    for t in range(m):
        rows[:n, t * k : (t + 1) * k] = cols.demands
        rows[n + t, t * k : (t + 1) * k] = 1.0
    rhs = np.array(list(catalog.inventories) + [1.0] * m, dtype=float)
    return simplex_solve(rows, rhs, np.tile(cols.revenues, m)).objective


def member_order_fixed_revenues(cols, r):
    """Each column's value when item i pays a constant r_i per sale.

    Adds r_i * q_i(S) over the members of S alone, in member order from 0.0:
    the reference for lp.solve_opt_fixed_rev, which sums the same products
    over whole demand rows. Shares the column arrays of lp.ColumnSet.
    """
    values = np.zeros(cols.revenues.size)
    for j in range(values.size):
        total = 0.0
        for i in cols.members(j):
            total += r[i] * float(cols.demands[i, j])
        values[j] = total
    return values


def impossibility_lp(growth, horizon):
    """The LP of the best ratio any online rule guarantees on the first H buyers.

    Over (y_1..y_H, c), with y_t the chance the unit sells to buyer t and
    q_t, r_t buyer t's solo demand and revenue on adversarial_instance:
    maximise c subject to y_t + q_t * sum_{s<t} y_s <= q_t for each t (the
    unit is still there with chance 1 - sum_{s<t} y_s) and
    c - sum_{t<=T} (1 + r_t) / g^T * y_t <= 0 for each T (each prefix earns
    c times its hindsight value g^T; dividing by g^T keeps the rows scaled).
    Shares simulate.adversarial_instance, its solo demands and revenues.
    """
    inst = adversarial_instance(growth, horizon)
    q = [inst.solo_demand(t) for t in range(1, horizon + 1)]
    rows = np.zeros((2 * horizon, horizon + 1))
    for t in range(horizon):
        rows[t, :t] = q[t]
        rows[t, t] = 1.0
        rows[horizon + t, : t + 1] = [
            -(1.0 + inst.solo_revenue(s + 1)) / growth ** (t + 1) for s in range(t + 1)
        ]
        rows[horizon + t, horizon] = 1.0
    objective = np.zeros(horizon + 1)
    objective[horizon] = 1.0
    return inst, rows, np.array(q + [0.0] * horizon), objective


def _bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of a strictly increasing f with f(lo) < 0 < f(hi), to the last float."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def oracle_solo(theta: float) -> tuple[float, ...]:
    """(q0, q, p, R) of one item shown alone, without mnlmarkets.

    The first-order condition p = 1/(1 - q) gives r = p - 1 = e^{theta - p},
    i.e. r + ln r = theta - 1.
    """
    r = _bisect_increasing(lambda r: r + math.log(r) - (theta - 1.0), 0.0, abs(theta) + 2.0)
    return (1.0 / (1.0 + r), r / (1.0 + r), 1.0 + r, r)


def oracle_best_responses(thetas: list[float]) -> tuple[float, ...]:
    """(q0, *q, *p, R) of an assortment by round-robin best responses.

    Seller i's best response solves p = 1 + e^{theta_i - p} / rest, where
    rest = 1 + sum of the rivals' e^{theta_j - p_j}; the left minus the right
    side is increasing in p, so bisection finds it.
    """
    prices = [1.0] * len(thetas)
    for _ in range(200):
        previous = list(prices)
        for i, theta in enumerate(thetas):
            rest = 1.0 + sum(
                math.exp(t - p) for j, (t, p) in enumerate(zip(thetas, prices)) if j != i
            )
            prices[i] = _bisect_increasing(
                lambda p: p - 1.0 - math.exp(theta - p) / rest,
                1.0,
                1.0 + math.exp(theta - 1.0) / rest,
            )
        if prices == previous:
            break
    weights = [math.exp(t - p) for t, p in zip(thetas, prices)]
    denom = 1.0 + sum(weights)
    demands = [w / denom for w in weights]
    revenue = sum(p * q for p, q in zip(prices, demands))
    return (1.0 / denom, *demands, *prices, revenue)


def bertrand_fixed_point(qualities, tol=1e-13):
    """Damped iteration of p_i = 1/(1 - q_i(p)) on the posted-price game.

    Never takes the V-function route of equilibrium_outcome. Shares
    equilibrium.mnl_demand, the MNL shares at given prices.
    """
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


def single_buyer_prices(thetas):
    """Equilibrium prices of a one-buyer market of these sellers, in seller
    order, from the catalog game. Shares equilibrium.equilibrium_outcome."""
    cat = ItemCatalog(thetas, [1] * len(thetas))
    out = equilibrium_outcome(cat, tuple(range(len(cat))))
    prices = [0.0] * len(cat)
    for pos, price in enumerate(out.prices):  # catalog order back to seller order
        prices[cat.order[pos]] = price
    return prices


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
    same SolverError. Shares equilibrium._newton (the stationary root),
    network._sigmoid (the shares) and BipartiteMarket.price_box.
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


def grid_utility(market, prices, i):
    """(grid, utility): seller i's capped revenue p * min(demand, c_i) in one
    array over a grid on (0, price_box], with every rival's price fixed.

    The shares come from np.logaddexp, not the library's kernels; shares
    only BipartiteMarket.price_box.
    """
    p = np.asarray(prices, dtype=float)
    rivals = market.visibility.copy()
    rivals[i] = False
    rival_util = np.where(rivals, market.theta - p[:, None], -np.inf)
    log_rest = np.logaddexp.reduce(np.vstack([np.zeros(market.buyers), rival_util]), axis=0)
    own = market.visibility[i]
    box, points = market.price_box(), 2001
    grid = np.linspace(box / points, box, points)
    logits = market.theta[i, own][None, :] - grid[:, None] - log_rest[own][None, :]
    demand = (0.5 * (1.0 + np.tanh(0.5 * logits))).sum(axis=1)
    return grid, grid * np.minimum(demand, market.capacities[i])


def sign_changes(values):
    """How often the differences of ``values`` change sign, ignoring those
    within 1e-12 of the largest |value|; a unimodal sequence has at most one."""
    steps = np.diff(values)
    signs = np.sign(steps[np.abs(steps) > 1e-12 * np.abs(values).max(initial=0.0)])
    return int(np.count_nonzero(np.diff(signs)))


def global_best_response(market, prices, i):
    """(price, utility) of seller i's best response found by a global scan.

    The best point of ``grid_utility`` is refined by golden section between
    its neighbours. Shares network.seller_utility (the refinement and the
    returned utility) and BipartiteMarket.price_box, so it checks the search
    of seller_best_response, not the utility it maximizes.
    """
    p = np.asarray(prices, dtype=float).copy()
    grid, values = grid_utility(market, p, i)
    k = int(values.argmax())

    def utility(x):
        p[i] = x
        return seller_utility(market, p, i)

    lo, hi = grid[k - 1] if k else 0.0, grid[min(k + 1, grid.size - 1)]
    best = (utility(grid[k]), grid[k])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = utility(a), utility(b)
    while hi - lo > 1e-12 * max(1.0, hi):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = utility(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = utility(b)
        best = max(best, (fa, a), (fb, b))
    return float(best[1]), best[0]


def gauss_seidel_prices(market, start, tol=1e-12, max_sweeps=10_000):
    """Round-robin best responses in seller order from every price at
    ``start``, until no price in a sweep moves by more than ``tol``.

    Shares network.seller_best_response, so it checks only that the
    solver's fixed point, reached from p = 1, does not depend on the start.
    """
    p = np.full(market.sellers, float(start))
    for _ in range(max_sweeps):
        delta = 0.0
        for i in range(market.sellers):
            new = seller_best_response(market, p, i)
            delta = max(delta, abs(new - p[i]))
            p[i] = new
        if delta <= tol:
            return p
    raise AssertionError(f"no fixed point within {max_sweeps} sweeps from {start}")


def reference_gains(market, p):
    """Best-response gains with one full demand solve per utility; shares
    network.seller_best_response and network.seller_utility."""
    gains = []
    for i in range(market.sellers):
        trial = p.copy()
        trial[i] = seller_best_response(market, p, i)
        gains.append(seller_utility(market, trial, i) - seller_utility(market, p, i))
    return gains


def fixed_point_weights(market):
    """Fixed-point weight of every visible pair, computed from theta alone.

    Shares segmentation.unit_price_weight and WEIGHT_SCALE, so the flow
    oracles below check the assignment, not the weights.
    """
    weights = np.zeros(market.theta.shape, dtype=np.int64)
    for i, k in zip(*np.nonzero(market.visibility)):
        weights[i, k] = round(WEIGHT_SCALE * unit_price_weight(float(market.theta[i, k])))
    return weights


def brute_force_assignment(market):
    """Max total fixed-point weight among maximum-cardinality assignments.

    Enumerates every buyer -> (seller | none) map that respects visibility
    and capacities; mirrors the flow semantics, which fills as many of the
    min(m, sum c) units as visibility allows before maximizing weight.
    Shares fixed_point_weights' weights.
    """
    m, n = market.buyers, market.sellers
    weights = fixed_point_weights(market)
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
            weight += int(weights[i, k])
            count += 1
        if feasible:
            best_by_count[count] = max(best_by_count.get(count, -1), weight)
    max_count = max(best_by_count)
    return max_count, best_by_count[max_count]


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
    scores are integers far below 2**53, so float64 sums are exact. Shares
    fixed_point_weights' weights.
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
    buyer / seller-slot graph; integer weights keep networkx exact. Shares
    fixed_point_weights' weights."""
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
    source -> buyer -> seller -> sink graph with negated integer weights.
    Shares fixed_point_weights' weights."""
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


def best_segmentation(market):
    """The most revenue any segmentation earns: disjoint buyer pools, at most
    one per seller, each seen whole by its seller and priced alone.

    Prices every pool a seller sees with equilibrate_pool, then takes the
    best disjoint union by a DP over the sellers in order and the buyer
    subsets (O(n 3^m)), adding the pools' revenues in seller order as
    segment_market does. Shares equilibrate_pool, and through it
    seller_best_response: it checks the flow's choice of pools, not their
    prices.
    """
    m = market.buyers
    best = [0.0] * (1 << m)  # best[mask]: the most the sellers so far earn from the buyers in mask
    for i in range(market.sellers):
        revenue = {}
        for pool in range(1, 1 << m):
            buyers = tuple(k for k in range(m) if pool >> k & 1)
            if market.visibility[i, list(buyers)].all():
                revenue[pool] = equilibrate_pool(market, Pool(i, buyers))[1]
        after = best[:]
        for mask in range(1, 1 << m):
            sub = mask
            while sub:
                if sub in revenue:
                    after[mask] = max(after[mask], best[mask ^ sub] + revenue[sub])
                sub = (sub - 1) & mask
        best = after
    return best[-1]


def scalar_revenues(name, inst, replications, seed):
    """The reference of the lockstep engine: one run_episode per replication.

    Shares simulate.run_episode, the POLICIES rules and episode_rng.
    """
    return [
        run_episode(POLICIES[name], inst, episode_rng(seed, rep)).revenue
        for rep in range(replications)
    ]


def exact_policy_value(instance, name):
    """Expected revenue of the greedy or hybrid rule on instance, by dynamic programming.

    V_t(s) = sum_i q_i(S(s)) (p_i(S(s)) + V_{t-1}(s - e_i)) + q_0(S(s)) V_{t-1}(s)
    from V_0 = 0, over every stock vector s at once, s indexed in mixed radix
    (digit i in [0, c_i]); the value is V_m at full stock. Both rules read
    only which items have stock, so POLICIES[name] decides once per in-stock
    mask. Shares the POLICIES rules and equilibrium_outcome, not the lockstep
    engine or its choice tables.
    """
    if name not in ("greedy", "hybrid"):
        raise ValueError(f"policy {name!r} reads more of the stock than which items have it")
    catalog = instance.catalog
    caps = np.array(catalog.inventories)
    n = caps.size
    strides = np.cumprod([1, *(caps[:-1] + 1)])
    states = np.arange(int(np.prod(caps + 1)))
    in_stock = states[:, None] // strides % (caps + 1) > 0
    q, p, q0 = np.zeros((1 << n, n)), np.zeros((1 << n, n)), np.zeros(1 << n)
    for mask in range(1 << n):
        outcome = equilibrium_outcome(catalog, POLICIES[name](instance, [mask >> i & 1 for i in range(n)]))
        q[mask, list(outcome.members)] = outcome.demands
        p[mask, list(outcome.members)] = outcome.prices
        q0[mask] = outcome.q0
    masks = in_stock @ (1 << np.arange(n))
    q, q0 = q[masks], q0[masks]
    sale = (q * p[masks]).sum(axis=1)
    # A rule offers only items in stock, so where s_i = 0 the weight q_i is 0.
    after_sale = np.where(in_stock, states[:, None] - strides, states[:, None])
    value = np.zeros(states.size)
    for _ in range(instance.m):
        value = sale + (q * value[after_sale]).sum(axis=1) + q0 * value
    return float(value[-1])


def reference_row(name, catalog, threshold, m, replications, seed):
    """(mean, se, opt, ratio) of one row, computed from run_episode's revenues.

    Shares scalar_revenues' engine and lp.solve_opt.
    """
    revenues = np.array(scalar_revenues(name, OnlineInstance(catalog, m, threshold), replications, seed))
    mean = float(revenues.mean())
    se = float(revenues.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    opt = solve_opt(catalog, m).objective if m >= 1 else 0.0
    return (mean, se, opt, mean / opt if opt > 0 else math.nan)


def reference_numeric_branch(lam: float) -> float:
    """The hybrid bound's numeric branch, one inner maximum per refined y.

    The loop form of simulate._bound_numeric_branch, which evaluates every
    refinement in one padded block. Shares simulate._branch_value and
    simulate.threshold_headroom.
    """
    coarse, fine = 1e-3, 1e-5
    f = threshold_headroom(lam)

    def inner_max(y: float) -> float:
        xs = np.arange(0.0, y + coarse, coarse)
        xs = xs[xs <= y]
        vals = _branch_value(lam, f, np.full_like(xs, y), xs)
        x0 = float(xs[int(vals.argmax())])
        xs2 = np.arange(max(0.0, x0 - 1.5 * coarse), min(y, x0 + 1.5 * coarse) + fine, fine)
        xs2 = xs2[xs2 <= y]
        return float(_branch_value(lam, f, np.full_like(xs2, y), xs2).max())

    ys = np.arange(0.0, lam + coarse, coarse)
    ys = ys[ys <= lam]
    grid = np.full((ys.size, ys.size), -np.inf)
    yy, xx = np.meshgrid(ys, ys, indexing="ij")
    mask = xx <= yy
    grid[mask] = _branch_value(lam, f, yy[mask], xx[mask])
    y0 = float(ys[int(grid.max(axis=1).argmin())])
    best = math.inf
    for y in np.arange(max(0.0, y0 - 1.5 * coarse), min(lam, y0 + 1.5 * coarse) + fine, fine):
        best = min(best, inner_max(min(float(y), lam)))
    return best
