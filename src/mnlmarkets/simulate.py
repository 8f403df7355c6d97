"""Monte-Carlo harness for online assortment policies.

Runs buyer-by-buyer episodes against a catalog, estimates the competitive
ratio versus the clairvoyant LP benchmark, evaluates the theoretical
lower-bound curve for the hybrid policy's ratio as a function of the
heaviness threshold, and generates the worst-case heterogeneous-buyer family
that rules out constant-ratio online algorithms.

Randomness contract: replication r of a run seeded with s draws from
``numpy.random.default_rng([s, r])``, an independent, platform-stable PCG64
stream. Every episode step consumes exactly one uniform variate, so step t
of replication r always sees the t-th double of that stream.

``estimate_ratio`` plays the replications of a named policy in lockstep in
one process: step t decides an assortment bitmask for every replication at
once, reads its cumulative demands and prices from two dense tables over
every bitmask, built from the LP columns that ``solve_opt`` has already
solved (2 * 2^n * (n + 1) * 8 bytes: 852 kB at 12 items, about 350 MB at
the 20-item cap), and draws each buyer from column t of the replications'
uniforms. Revenues are bit-identical to ``run_episode``, which remains the
path for callable policies and recorded paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equilibrium import (
    DomainError,
    EquilibriumOutcome,
    ItemCatalog,
    equilibrium_outcome,
    quality_for_target_revenue,
    solo_revenue_for_quality,
)
from .lp import enumerate_columns, solve_opt
from .policies import (
    InventoryState,
    OnlineInstance,
    PolicyDecision,
    classify_heavy,
    exponential_weight,
    greedy_all_next,
    hybrid_next,
    modified_hybrid_next,
    solo_demands,
)

Policy = Callable[[OnlineInstance, InventoryState], PolicyDecision]


POLICIES: dict[str, Policy] = {
    "hybrid": hybrid_next,
    "greedy": greedy_all_next,
    "modified": modified_hybrid_next,
}


@dataclass(frozen=True)
class EpisodeResult:
    """One simulated buyer stream: revenue, per-item sales, optional path."""

    revenue: float
    sold_units: tuple[int, ...]
    path: tuple[tuple[tuple[int, ...], int | None], ...] | None


@dataclass(frozen=True)
class RatioEstimate:
    """Replicated revenue estimate against the LP optimum."""

    mean_revenue: float
    std_error: float
    opt: float
    ratio: float
    replications: int


@dataclass(frozen=True)
class HeterogeneousInstance:
    """Single unit-stock item whose per-buyer revenue grows geometrically.

    Buyer t values the item so that selling to t alone is worth growth**t;
    any online rule must hedge across buyers while hindsight takes the last
    one, which drives the achievable ratio to zero as the horizon grows.
    """

    qualities: tuple[float, ...]
    growth: float
    horizon: int

    def target_revenue(self, t: int) -> float:
        """Intended solo revenue of buyer t (1-based)."""
        return self.growth ** t

    def solo_revenue(self, t: int) -> float:
        """Actual solo equilibrium revenue of buyer t, solved from quality."""
        return solo_revenue_for_quality(self.qualities[t - 1])

    def solo_demand(self, t: int) -> float:
        r = self.solo_revenue(t)
        return r / (1.0 + r)


def episode_rng(seed: int, replication: int) -> np.random.Generator:
    """The documented per-replication stream: PCG64 keyed by (seed, rep)."""
    return np.random.default_rng([int(seed), int(replication)])


def sample_choice(outcome: EquilibriumOutcome, rng: np.random.Generator) -> int | None:
    """Draw the buyer's pick: member i with probability q_i, else None.

    Consumes exactly one uniform variate regardless of the assortment.
    """
    u = rng.random()
    acc = 0.0
    for member, q in zip(outcome.members, outcome.demands):
        acc += q
        if u < acc:
            return member
    return None


def run_episode(
    policy: Policy,
    instance: OnlineInstance,
    rng: np.random.Generator,
    record_path: bool = True,
) -> EpisodeResult:
    """Simulate one buyer stream under a policy.

    Each of the m steps asks the policy for an assortment, draws the buyer's
    choice at the assortment's equilibrium demands, collects the equilibrium
    price on a sale, and decrements inventory. Exactly one uniform variate is
    consumed per step, so path structure never desynchronizes the stream.
    """
    catalog = instance.catalog
    state = InventoryState.fresh(instance)
    revenue = 0.0
    sold = [0] * len(catalog)
    path: list[tuple[tuple[int, ...], int | None]] | None = [] if record_path else None
    for _ in range(instance.m):
        decision = policy(instance, state)
        outcome = equilibrium_outcome(catalog, decision.assortment)
        purchased = sample_choice(outcome, rng)
        if purchased is not None:
            revenue += outcome.prices[outcome.members.index(purchased)]
            state.remaining[purchased] -= 1
            sold[purchased] += 1
        if path is not None:
            path.append((decision.assortment, purchased))
    return EpisodeResult(
        revenue=revenue,
        sold_units=tuple(sold),
        path=tuple(path) if path is not None else None,
    )


# The last uniform matrix drawn, read-only so that no caller can change
# another's draws.
_uniforms: dict[tuple[int, int], np.ndarray] = {}


def episode_uniforms(seed: int, replications: int, m: int) -> np.ndarray:
    """Read-only (replications, m) matrix whose row r is episode_rng(seed, r).random(m).

    PCG64 gives the same doubles to one random(m) call as to m scalar draws,
    so column t is what step t of each replication consumes. The last matrix
    is kept, at the widest horizon asked for under its (seed, replications),
    so the policies of one CLI row and the horizons of a buyer sweep share
    its draws; a wider horizon draws it afresh.
    """
    key = (int(seed), int(replications))
    draws = _uniforms.get(key)
    if draws is None or draws.shape[1] < m:
        draws = np.empty((replications, m))
        for rep in range(replications):
            draws[rep] = episode_rng(seed, rep).random(m)
        draws.setflags(write=False)
        _uniforms.clear()
        _uniforms[key] = draws
    return draws[:, :m]


# Vectorised forms of the POLICIES rules. Each builds, for one instance, a
# function from the (R, n) stock matrix to the R offered assortments as
# bitmasks (bit i = catalog position i), deciding exactly as the scalar rule.

def _greedy_masks(instance: OnlineInstance) -> Callable[[np.ndarray], np.ndarray]:
    bits = np.left_shift(1, np.arange(len(instance.catalog), dtype=np.int64))

    def decide(stock: np.ndarray) -> np.ndarray:
        return (stock > 0) @ bits

    return decide


def _hybrid_masks(instance: OnlineInstance) -> Callable[[np.ndarray], np.ndarray]:
    n = len(instance.catalog)
    in_stock = _greedy_masks(instance)
    heavy = sum(1 << i for i in classify_heavy(instance.catalog, instance.threshold))
    light = ((1 << n) - 1) ^ heavy

    def decide(stock: np.ndarray) -> np.ndarray:
        offered = in_stock(stock)
        first = offered & heavy
        first &= -first  # lowest set bit: heavy items are a prefix in quality order
        return np.where(first != 0, first, offered & light)

    return decide


def _modified_masks(instance: OnlineInstance) -> Callable[[np.ndarray], np.ndarray]:
    """Relative heaviness is read from weight[i, c_i - remaining_i].

    The table holds exponential_weight(remaining / c_i) * q_i({i}) from the
    scalar functions where that reaches the threshold, else -inf (also for a
    sold-out item); argmax then takes the first maximum as the scalar rule's
    strict comparison does.
    """
    catalog = instance.catalog
    n, caps = len(catalog), catalog.inventories
    demands = solo_demands(catalog)
    depth = min(max(caps), instance.m) + 1  # units an episode can sell, plus one
    weight = np.full((n, depth), -np.inf)
    for i in range(n):
        for sold in range(min(caps[i], depth)):
            rel = exponential_weight((caps[i] - sold) / caps[i]) * demands[i]
            if rel >= instance.threshold:
                weight[i, sold] = rel
    base = np.arange(n, dtype=np.int64) * depth + np.asarray(caps, dtype=np.int64)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    in_stock = _greedy_masks(instance)

    def decide(stock: np.ndarray) -> np.ndarray:
        rel = np.take(weight, base - stock)
        best = rel.argmax(axis=1)
        return np.where(rel.max(axis=1) > -np.inf, bits[best], in_stock(stock))

    return decide


_MASK_RULES = {"hybrid": _hybrid_masks, "greedy": _greedy_masks, "modified": _modified_masks}


def _choice_tables(catalog: ItemCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Running demand sums and prices of every assortment, from the LP columns.

    Both are (2^n, n + 1), row = assortment bitmask and column = catalog
    position. The running sum adds an exact 0.0 at each non-member, so at
    every member it is ``sample_choice``'s sum and no uniform stops at a
    non-member; the price is 1/(1 - q) as
    ``equilibrium_outcome`` computes it. Column n is the no purchase, with
    sum +inf and price 0.0, and row 0 the empty assortment. Together they
    take 2 * 2^n * (n + 1) * 8 bytes: 180 kB at 10 items, 852 kB at 12 and
    about 350 MB at the LP's 20-item cap, where the columns take 168 MB.
    """
    n = len(catalog)
    price = np.zeros((1 << n, n + 1))
    price[1:, :n] = enumerate_columns(catalog).demands.T
    cum = np.cumsum(price, axis=1)
    cum[:, n] = math.inf
    np.divide(1.0, np.subtract(1.0, price, out=price), out=price)  # in place: no third table
    price[:, n] = 0.0
    return cum, price


def _lockstep_revenues(name: str, instance: OnlineInstance, replications: int,
                      seed: int) -> np.ndarray:
    """Revenue of replications 0..R-1 of a named policy, all played together.

    Element r equals run_episode(POLICIES[name], instance, episode_rng(seed, r)).revenue
    bit for bit: the decisions are the scalar rules, each buyer picks the
    first member whose cumulative demand exceeds its uniform, and revenue
    adds the sale price (0.0 for no purchase) in step order. The two dense
    ``_choice_tables`` (2 * 2^n * (n + 1) * 8 bytes, 852 kB at 12 items) are
    built once per call; a pick is the catalog position, or n for no purchase.
    """
    catalog = instance.catalog
    n = len(catalog)
    revenue = np.zeros(replications)
    if instance.m == 0:
        return revenue
    decide = _MASK_RULES[name](instance)
    cum, price = _choice_tables(catalog)
    draws = episode_uniforms(seed, replications, instance.m)
    # Column n is where no-purchase draws take their unit from; it is never read.
    stock_all = np.zeros((replications, n + 1), dtype=np.int64)
    stock_all[:, :n] = catalog.inventories
    stock, stock_flat = stock_all[:, :n], stock_all.reshape(-1)
    row_start = np.arange(replications, dtype=np.int64) * (n + 1)
    for t in range(instance.m):
        masks = decide(stock)
        pick = (draws[:, t, None] < cum[masks]).argmax(axis=1)
        revenue += np.take(price, masks * (n + 1) + pick)
        stock_flat[row_start + pick] -= 1
    return revenue


def estimate_ratio(
    policy: Policy | str,
    instance: OnlineInstance,
    replications: int,
    seed: int,
) -> RatioEstimate:
    """Mean episode revenue over independent replications, divided by OPT.

    Replication r always uses the (seed, r) stream. A policy named by a key
    of ``POLICIES`` runs all replications in lockstep in this process; a
    callable runs ``run_episode`` once per replication. Both give the same
    revenues, bit for bit, and every replication runs in this process. The
    LP optimum is solved first, so a catalog beyond its 20-item cap is
    rejected before any episode runs.
    """
    if replications < 1:
        raise DomainError("need at least one replication")
    if isinstance(policy, str) and policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    opt = solve_opt(instance.catalog, instance.m).objective if instance.m >= 1 else 0.0
    if isinstance(policy, str):
        arr = _lockstep_revenues(policy, instance, replications, seed)
    else:
        arr = np.array([
            run_episode(policy, instance, episode_rng(seed, rep), record_path=False).revenue
            for rep in range(replications)
        ])
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    ratio = mean / opt if opt > 0 else math.nan
    return RatioEstimate(mean_revenue=mean, std_error=se, opt=opt,
                         ratio=ratio, replications=replications)


def threshold_headroom(lam: float) -> float:
    """The revenue-concentration factor max{1 + ((1-lam)/lam)^2, 1/lam}.

    Bounds how much any assortment can out-earn the heaviest heavy item
    offered alone.
    """
    return max(1.0 + ((1.0 - lam) / lam) ** 2, 1.0 / lam)


def _bound_closed_branch(lam: float) -> float:
    """Analytic branch (inventory exceeds buyers): max over x of
    (lam - x) x / ((f + x)(1 - x))."""
    f = threshold_headroom(lam)
    num = math.sqrt((1.0 - lam) * (lam + f)) - math.sqrt(f)
    den = math.sqrt(f * (lam + f)) - math.sqrt(1.0 - lam)
    return (num / den) ** 2


def _branch_value(lam: float, f: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (1.0 - y / lam) * ((1.0 - lam) / 2.0 - x / (f + x)) + (
        (y - x) * x / ((f + x) * (1.0 - x))
    )


def _bound_numeric_branch(lam: float, coarse: float = 1e-3, fine: float = 1e-5) -> float:
    """Numeric branch (buyers exceed inventory): min over y of max over x.

    Coarse grid, then local refinement of both the inner argmax and the
    outer argmin; the objective is smooth on the domain so two stages are
    enough for the reported precision.
    """
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
    xs = ys
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    mask = xx <= yy
    grid[mask] = _branch_value(lam, f, yy[mask], xx[mask])
    coarse_vals = grid.max(axis=1)
    y0 = float(ys[int(coarse_vals.argmin())])
    best = math.inf
    for y in np.arange(max(0.0, y0 - 1.5 * coarse), min(lam, y0 + 1.5 * coarse) + fine, fine):
        best = min(best, inner_max(min(float(y), lam)))
    return best


def hybrid_ratio_bound(lam: float) -> float:
    """Worst-case competitive-ratio lower bound of the hybrid policy.

    Minimum of the analytic large-inventory branch and the numeric
    small-inventory branch at heaviness threshold lam in [0.5, 1).
    """
    lam = float(lam)
    if not 0.5 <= lam < 1.0:
        raise DomainError(f"threshold must lie in [0.5, 1), got {lam}")
    return min(_bound_closed_branch(lam), _bound_numeric_branch(lam))


def adversarial_instance(growth: float, horizon: int) -> HeterogeneousInstance:
    """Geometric-revenue buyer family with a single unit-stock item.

    Buyer t's quality is chosen so its solo equilibrium revenue is
    growth**t; every such buyer purchases with probability above 1/2 when
    offered. Rejected if growth**horizon leaves double range.
    """
    growth = float(growth)
    if growth <= 1.0:
        raise DomainError(f"growth must exceed 1, got {growth}")
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
    if horizon * math.log(growth) > math.log(1e300):
        raise DomainError("growth**horizon overflows the floating range")
    qualities = tuple(
        quality_for_target_revenue(growth ** t) for t in range(1, horizon + 1)
    )
    return HeterogeneousInstance(qualities=qualities, growth=growth, horizon=horizon)


def always_offer_ratio(instance: HeterogeneousInstance, upto: int) -> float:
    """Hindsight ratio of the offer-while-in-stock rule on the first `upto` buyers.

    Expected revenue sum_t r_t q_t prod_{s<t}(1 - q_s) in closed form,
    against the clairvoyant value r_upto (save the unit for the last,
    richest buyer). Decays geometrically in the horizon.
    """
    if not 1 <= upto <= instance.horizon:
        raise DomainError("prefix length out of range")
    expected = 0.0
    available = 1.0
    for t in range(1, upto + 1):
        q = instance.solo_demand(t)
        expected += available * q * (1.0 + instance.solo_revenue(t))
        available *= 1.0 - q
    return expected / instance.target_revenue(upto)
