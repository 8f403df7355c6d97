"""Monte-Carlo harness for online assortment policies.

Runs buyer-by-buyer episodes against a catalog, estimates the competitive
ratio versus the clairvoyant LP benchmark, evaluates the theoretical
lower-bound curve for the hybrid policy's ratio as a function of the
heaviness threshold, and generates the worst-case heterogeneous-buyer family
that rules out constant-ratio online algorithms.

Randomness contract: replication r of a run seeded with s draws from
``numpy.random.default_rng([s, r])``, an independent, platform-stable PCG64
stream. Every episode step consumes exactly one uniform variate, so step t
of replication r always sees the t-th double of that stream. The engine
seeds those streams in one batch: ``_stream_words`` runs numpy's
``SeedSequence`` pool mixing for all replications at once, and each row's
PCG64 starts from the words ``default_rng([s, r])`` would give it.

``estimate_ratios`` plays every (policy, threshold) row of a config and all
their replications in lockstep in one process, in one pass to the largest
buyer count: step t decides an assortment bitmask per row and replication,
reads its cumulative demands and prices from two dense (n + 1, 2^n) tables
over every bitmask, built from the LP columns that ``solve_opt`` has
already solved (2 * 2^n * (n + 1) * 8 bytes: 852 kB at 12 items, about
350 MB at the 20-item cap), and draws each buyer from column t of the
replications' uniforms. Beside the stock the pass keeps each replication's
in-stock bitmask, which a sale clears bit i of when it takes item i's last
unit. Greedy offers that mask, hybrid looks its offer up in a 2^n table
over in-stock masks, and the modified hybrid reads the stock through a
weight table; a buyer's pick is the count of its assortment's running
demand sums at or below its uniform. A policy reads only the stock vector,
never the buyer count, so the m-buyer episode of replication r is the
first m steps of the longest one; the running revenue is reduced to its
mean and standard error as the pass reaches each requested m. Every
per-step operation is row-wise, so rows played together give the bits each
gives alone, and revenues are bit-identical to ``run_episode``, which plays
one replication step by step through the scalar ``POLICIES`` rules and
records its path; the tests take it as the reference for the lockstep
engine. ``estimate_ratio`` is the one-row case.

The module keeps nothing between calls. Each config draws its uniforms
afresh and solves the LP once per buyer count it asks for; the columns it
reads twice, for the LP and for the choice tables, are the one catalog that
``lp.enumerate_columns`` keeps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .equilibrium import (DomainError, EquilibriumOutcome, ItemCatalog, distinct_indices, equilibrium_outcome,
                          quality_for_target_revenue, real_array, real_number, solo_revenue_for_quality,
                          whole_number)
from .lp import enumerate_columns, solve_opt
from .policies import (
    OnlineInstance,
    check_threshold,
    classify_heavy,
    exponential_weight,
    greedy_all_next,
    hybrid_next,
    modified_hybrid_next,
    solo_demands,
)

Policy = Callable[[OnlineInstance, Sequence[int]], tuple[int, ...]]


POLICIES: dict[str, Policy] = {
    "hybrid": hybrid_next,
    "greedy": greedy_all_next,
    "modified": modified_hybrid_next,
}


@dataclass(frozen=True)
class EpisodeResult:
    """One simulated buyer stream: revenue, per-item sales, (offer, pick) per step."""

    revenue: float
    sold_units: tuple[int, ...]
    path: tuple[tuple[tuple[int, ...], int | None], ...]


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
    solo_revenues: tuple[float, ...] = field(init=False)  # solved once per buyer from its quality

    def __post_init__(self):
        horizon = whole_number(self.horizon, "horizon")
        qualities = real_array(self.qualities, "qualities")
        if qualities.shape != (horizon,):
            raise DomainError(f"qualities must be a sequence of one quality per buyer, {horizon} in all")
        object.__setattr__(self, "qualities", tuple(qualities.tolist()))
        object.__setattr__(self, "growth", real_number(self.growth, "growth"))
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "solo_revenues", tuple(map(solo_revenue_for_quality, self.qualities)))

    def _buyer(self, t: int) -> int:
        """t as an int; DomainError unless it is an integer in [1, horizon], numpy's included."""
        what = f"buyer (numbered 1 to {self.horizon})"
        (t,) = distinct_indices((t,), self.horizon + 1, what)
        if t == 0:
            raise DomainError(f"{what}: 0 is out of range")
        return t

    def target_revenue(self, t: int) -> float:
        """Intended solo revenue of buyer t (1-based)."""
        return self.growth ** self._buyer(t)

    def solo_revenue(self, t: int) -> float:
        """Actual solo equilibrium revenue of buyer t, solved from its quality when the instance was built."""
        return self.solo_revenues[self._buyer(t) - 1]

    def solo_demand(self, t: int) -> float:
        r = self.solo_revenue(t)
        return r / (1.0 + r)


def episode_rng(seed: int, replication: int) -> np.random.Generator:
    """The documented per-replication stream: PCG64 keyed by (seed, rep), two whole numbers >= 0."""
    key = [whole_number(seed, "seed"), whole_number(replication, "replication")]
    if min(key) < 0:
        raise DomainError(f"seed and replication must be >= 0, got {key}")
    return np.random.default_rng(key)


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
) -> EpisodeResult:
    """Simulate one buyer stream under a policy.

    Each of the m steps asks the policy for an assortment, draws the buyer's
    choice at the assortment's equilibrium demands, collects the equilibrium
    price on a sale, and decrements inventory. Exactly one uniform variate is
    consumed per step, so path structure never desynchronizes the stream.
    """
    catalog = instance.catalog
    remaining = list(catalog.inventories)
    revenue = 0.0
    path = []
    for _ in range(instance.m):
        assortment = policy(instance, remaining)
        outcome = equilibrium_outcome(catalog, assortment)
        purchased = sample_choice(outcome, rng)
        if purchased is not None:
            revenue += outcome.prices[outcome.members.index(purchased)]
            remaining[purchased] -= 1
        path.append((assortment, purchased))
    sold = tuple(c - left for c, left in zip(catalog.inventories, remaining))
    return EpisodeResult(revenue=revenue, sold_units=sold, path=tuple(path))


# numpy's SeedSequence constants: a pool of four uint32 words, filled and
# stirred with hash constants that advance by multiplication whatever the
# data, so one pass can mix every replication's pool at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32 column: init, then each entry times mult mod 2^32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row j, with hash constants j and j + 1."""
    k = len(values)
    mixed = (values ^ consts[:k]) * consts[1:k + 1]
    return mixed ^ (mixed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return mixed ^ (mixed >> 16)


def _stream_words(seed: int, replications: int) -> np.ndarray:
    """(replications, 4) uint64; row r is SeedSequence([seed, r]).generate_state(4, np.uint64).

    These are the words PCG64 takes from ``default_rng([seed, r])``. The
    entropy is the seed's little-endian 32-bit words, then r (below 2^32),
    zero-padded to the pool size; each step below is one of SeedSequence's
    loops, with the rows that use distinct hash constants taken together.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    k = len(seed_words)
    entropy = np.zeros((max(k + 1, _POOL), replications), dtype=np.uint32)
    entropy[:k] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[k] = np.arange(replications, dtype=np.uint32)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy))  # one per hashmix
    pool = _hashmix(entropy[:_POOL], consts)
    used = _POOL
    for src in range(_POOL):  # every pool word into every other
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * (_POOL - 1)], consts[used:]))
        used += _POOL - 1
    for src in range(_POOL, len(entropy)):  # entropy beyond the pool into every word
        pool = _mix(pool, _hashmix(entropy[[src] * _POOL], consts[used:]))
        used += _POOL
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _StreamSeed(ISeedSequence):
    """One replication's precomputed words, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for exactly these: 4 words of uint64


def episode_uniforms(seed: int, replications: int, m: int) -> np.ndarray:
    """A fresh (replications, m) matrix whose row r is episode_rng(seed, r).random(m).

    PCG64 gives the same doubles to one random(m) call as to m scalar draws,
    so column t is what step t of each replication consumes. Each row's
    PCG64 is seeded from ``_stream_words``, so the streams are
    ``episode_rng``'s bit for bit without a SeedSequence per replication.
    ``estimate_ratios`` draws one matrix per config, to its largest buyer
    count, and every row and horizon of the config reads it.
    """
    draws = np.empty((replications, m))
    for rep, words in enumerate(_stream_words(seed, replications)):
        draws[rep] = np.random.Generator(np.random.PCG64(_StreamSeed(words))).random(m)
    return draws


# Vectorised forms of the POLICIES rules. Each builds, for one instance, a
# decision from the (R, n + 1) stock matrix and the R in-stock bitmasks (bit i
# set while catalog position i has stock) to the R offered assortments as
# bitmasks, deciding exactly as the scalar rule. Column n of the stock is the
# engine's no-purchase sink, which only decrements from 0, so it is never
# above 0. Greedy and hybrid read only the in-stock mask.

def _greedy_masks(instance: OnlineInstance) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def decide(stock: np.ndarray, in_stock: np.ndarray) -> np.ndarray:
        return in_stock

    return decide


def _hybrid_masks(instance: OnlineInstance) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The offer of every in-stock mask, from a 2^n int64 table.

    The table takes 2^n * 8 bytes, 1/(2(n + 1)) of the choice tables.
    """
    n = len(instance.catalog)
    heavy = sum(1 << i for i in classify_heavy(instance.catalog, instance.threshold))
    masks = np.arange(1 << n, dtype=np.int64)
    first = masks & heavy
    first &= -first  # lowest set bit: heavy items are a prefix in quality order
    offer = np.where(first != 0, first, masks & ~heavy)

    def decide(stock: np.ndarray, in_stock: np.ndarray) -> np.ndarray:
        return offer.take(in_stock)

    return decide


def _modified_masks(instance: OnlineInstance) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Relative heaviness is read from weight[i * depth + c_i - remaining_i].

    The flat (n, depth) table holds exponential_weight(remaining / c_i) *
    q_i({i}) from the scalar functions where that reaches the threshold,
    else -inf (also for a sold-out item); argmax then takes the first
    maximum as the scalar rule's strict comparison does. One sentinel
    entry of 0.0 follows the table, below every threshold and above -inf,
    so argmax lands on it, at position n, exactly when no item is heavy.
    """
    catalog = instance.catalog
    n, caps = len(catalog), catalog.inventories
    demands = solo_demands(catalog)
    depth = min(max(caps), instance.m) + 1  # units an episode can sell, plus one
    weight = np.full(n * depth + 1, -np.inf)
    weight[-1] = 0.0
    for i in range(n):
        for sold in range(min(caps[i], depth)):
            rel = exponential_weight((caps[i] - sold) / caps[i]) * demands[i]
            if rel >= instance.threshold:
                weight[i * depth + sold] = rel
    # The sink column, at most 0, reads the sentinel: its index is at least
    # the last one, and clip mode maps it there.
    base = np.append(np.arange(n, dtype=np.int64) * depth + caps, n * depth)
    # A heavy item is in stock, so its bit survives the & with the in-stock
    # mask; the sentinel's all-ones entry passes the whole mask.
    bits = np.append(np.left_shift(1, np.arange(n, dtype=np.int64)), -1)

    def decide(stock: np.ndarray, in_stock: np.ndarray) -> np.ndarray:
        best = np.take(weight, base - stock, mode="clip").argmax(axis=1)
        return bits.take(best) & in_stock

    return decide


_MASK_RULES = {"hybrid": _hybrid_masks, "greedy": _greedy_masks, "modified": _modified_masks}


def _choice_tables(catalog: ItemCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Running demand sums and prices of every assortment, from the LP columns.

    Both are (n + 1, 2^n), row = catalog position and column = assortment
    bitmask, so the LP's (n, 2^n - 1) demands fill them without a transpose
    and a pick reads one column per buyer. The running sum adds an exact 0.0
    at each non-member, so at every member it is ``sample_choice``'s sum and
    no uniform stops at a non-member; the price is 1/(1 - q) as
    ``equilibrium_outcome`` computes it. Row n is the no purchase, with sum
    +inf and price 0.0, and column 0 the empty assortment. Each column's sums
    are nondecreasing and end at +inf, so the number of them at or below a
    uniform u < 1 is the first position whose sum exceeds u: the pick.
    Together the tables take 2 * 2^n * (n + 1) * 8 bytes: 180 kB at 10
    items, 852 kB at 12 and about 350 MB at the LP's 20-item cap, where the
    columns take 168 MB.
    """
    n = len(catalog)
    price = np.zeros((n + 1, 1 << n))
    price[:n, 1:] = enumerate_columns(catalog).demands
    cum = np.cumsum(price, axis=0)
    cum[n] = math.inf
    np.divide(1.0, np.subtract(1.0, price, out=price), out=price)  # in place: no third table
    price[n] = 0.0
    return cum, price


# Rows played in one pass are capped so that the widest per-step array, the
# (n + 1, rows, R) comparison of running demand sums with draws, stays within
# max(R * (n + 1), _FUSE_ELEMENTS) elements: once one row alone is that wide,
# rows are played one at a time.
_FUSE_ELEMENTS = 2**18


def _lockstep(rows: Sequence[tuple[str, float]], catalog: ItemCatalog,
              horizons: Sequence[int], replications: int, seed: int,
              reduce: Callable[[np.ndarray], object]) -> list[list]:
    """reduce(revenues) of each (policy name, threshold) row at each horizon.

    Returns [[reduce(revenues after h buyers) for h in horizons] for each
    row], with ``horizons`` ascending. Element r of the (R,) revenues is
    run_episode(POLICIES[name], OnlineInstance(catalog, h, threshold),
    episode_rng(seed, r)).revenue bit for bit: the decisions are the scalar
    rules, each buyer picks the first member whose cumulative demand exceeds
    its uniform, and revenue adds the sale price (0.0 for no purchase) in
    step order. ``reduce`` must not keep the vector, which later steps
    overwrite. A pick is the catalog position, or n for no purchase.
    """
    top = horizons[-1]
    if top == 0:
        return [[reduce(np.zeros(replications)) for _ in horizons] for _ in rows]
    n = len(catalog)
    rules = [_MASK_RULES[name](OnlineInstance(catalog, top, threshold)) for name, threshold in rows]
    cum, price = _choice_tables(catalog)
    draws = episode_uniforms(seed, replications, top)
    width = max(1, _FUSE_ELEMENTS // (replications * (n + 1)))
    out = []
    for start in range(0, len(rules), width):
        block = rules[start:start + width]
        k = len(block)
        revenue = np.zeros((k, replications))
        masks = np.empty((k, replications), dtype=np.int64)
        # Every inventory is at least 1, so every item starts in stock; a
        # bit is cleared by the sale that takes its last unit.
        in_stock = np.full((k, replications), (1 << n) - 1, dtype=np.int64)
        # Column n is where no-purchase draws take their unit from: it only
        # decrements, so it never reads 0 and never clears a bit.
        stock = np.zeros((k, replications, n + 1), dtype=np.int64)
        stock[..., :n] = catalog.inventories
        stock_flat = stock.reshape(-1)
        row_start = np.arange(k * replications, dtype=np.int64).reshape(k, replications) * (n + 1)
        snapshots = [[] for _ in block]
        done = 0
        for h in horizons:
            for t in range(done, h):
                for j, decide in enumerate(block):
                    masks[j] = decide(stock[j], in_stock[j])
                pick = np.add.reduce(cum.take(masks, axis=1) <= draws[:, t], axis=0)
                revenue += price.take(pick << n | masks)
                sold = row_start + pick
                stock_flat[sold] -= 1
                in_stock ^= (stock_flat[sold] == 0) << pick
            done = h
            for kept, row in zip(snapshots, revenue):
                kept.append(reduce(row))
        out.extend(snapshots)
    return out


def _moments(revenue: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of one row's replication revenues."""
    se = float(revenue.std(ddof=1) / math.sqrt(revenue.size)) if revenue.size > 1 else 0.0
    return float(revenue.mean()), se


def estimate_ratios(
    catalog: ItemCatalog,
    policies: Sequence[str],
    thresholds: Sequence[float],
    buyer_counts: Sequence[int],
    replications: int,
    seed: int,
) -> list[RatioEstimate]:
    """Ratio estimates of every (policy, threshold, buyers) row, in that order.

    Rows run policy by policy, then threshold, then buyer count, as the CLI
    prints them; each policy is a key of ``POLICIES``, and replication r
    always uses the (seed, r) stream. Inventories of 2^63 or more, which
    the int64 stock cannot hold, raise first, then a replication count or
    seed that is not a whole number. Every row is checked before any episode
    runs, in row order, so the first bad row raises: its instance (whose
    buyer count the row then reads), its replication count and policy name,
    then counts whose (replications, buyers) matrix of doubles numpy cannot
    address, then more than 2^32 replications, whose index r would not be
    one 32-bit seed word; then, the first time a row reaches its buyer
    count, the LP optimum at that count is solved, and the later rows read
    it back, so a catalog beyond the LP's 20-item cap is rejected before
    any episode runs.

    One lockstep pass per block of (policy, threshold) rows then plays all
    their replications to the largest buyer count and snapshots the revenue
    at each buyer count on the way: policies read only the stock, so the
    m-buyer episode of replication r is the first m steps of the longest,
    and the snapshot is the m-buyer revenue bit for bit, equal to
    ``run_episode``'s. Only the mean and standard error of each snapshot
    are kept. A block fuses rows while its widest per-step array stays
    within max(R * (n + 1), 2^18) elements.
    """
    if max(catalog.inventories) >= 2**63:
        raise DomainError("inventories must be below 2**63 to simulate")
    replications, seed = whole_number(replications, "replications"), whole_number(seed, "seed")
    rows = list(itertools.product(policies, thresholds))
    opts = {}
    for name, threshold in rows:
        for m in buyer_counts:
            m = OnlineInstance(catalog, m, threshold).m  # checks the threshold, reads m as a count >= 0
            if replications < 1:
                raise DomainError("need at least one replication")
            if not isinstance(name, str) or name not in POLICIES:
                raise DomainError(f"unknown policy {name!r}")
            # The engine's widest arrays are (replications, m) draws and
            # (replications, n + 1) stock and demand rows, of 8-byte elements.
            if replications * max(m, len(catalog) + 1) * 8 > np.iinfo(np.intp).max:
                raise DomainError("replications x buyers exceed the doubles numpy can address")
            if replications > 2**32:
                raise DomainError("more than 2**32 replications: an index r must be one 32-bit seed word")
            if m not in opts:
                opts[m] = solve_opt(catalog, m).objective if m >= 1 else 0.0
    if not opts:  # no rows
        return []
    horizons = sorted(opts)
    estimates = []
    for snapshots in _lockstep(rows, catalog, horizons, replications, seed, _moments):
        at = dict(zip(horizons, snapshots))
        for m in buyer_counts:
            mean, se = at[m]
            opt = opts[m]
            estimates.append(RatioEstimate(mean_revenue=mean, std_error=se, opt=opt,
                                           ratio=mean / opt if opt > 0 else math.nan,
                                           replications=replications))
    return estimates


def estimate_ratio(
    name: str,
    instance: OnlineInstance,
    replications: int,
    seed: int,
) -> RatioEstimate:
    """Mean episode revenue over independent replications, divided by OPT.

    The one-row case of ``estimate_ratios``, with its checks: ``name`` is a
    key of ``POLICIES``, replication r always uses the (seed, r) stream, and
    all replications run in lockstep in this process with the revenues
    ``run_episode`` gives, bit for bit.
    """
    return estimate_ratios(instance.catalog, [name], [instance.threshold], [instance.m],
                           replications, seed)[0]


def threshold_headroom(lam: float) -> float:
    """The revenue-concentration factor max{1 + ((1-lam)/lam)^2, 1/lam}.

    Bounds how much any assortment can out-earn the heaviest heavy item
    offered alone. lam is read by check_threshold.
    """
    lam = check_threshold(lam)
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


def _bound_numeric_branch(lam: float) -> float:
    """Numeric branch (buyers exceed inventory): min over y of max over x.

    Coarse grid of step 1e-3, then local refinement at step 1e-5 of both the
    inner argmax and the outer argmin; the objective is smooth on the domain
    so two stages are enough for the reported precision. Every refined y is
    one row of a block padded with -inf where x > y or past the row's grid:
    _branch_value is elementwise and max, min and the arg-selections are
    exact, so the block gives the bits of one inner maximum per y.
    """
    coarse, fine = 1e-3, 1e-5
    f = threshold_headroom(lam)

    def masked(y: np.ndarray, xs: np.ndarray, in_grid=True) -> np.ndarray:
        """Row k holds the values at y[k] and xs (shared, or row k of a
        block), with -inf where x > y[k] or outside in_grid."""
        vals = _branch_value(lam, f, y[:, None], xs)
        vals[~((xs <= y[:, None]) & in_grid)] = -np.inf
        return vals

    ys = np.arange(0.0, lam + coarse, coarse)
    ys = ys[ys <= lam]
    # The coarse grid in bands of 256 rows, each only as wide as its last
    # row's x <= y, which keeps the temporaries in cache.
    coarse_max = np.concatenate(
        [masked(ys[r:r + 256], ys[:r + 256]).max(axis=1) for r in range(0, ys.size, 256)]
    )
    y0 = float(ys[int(coarse_max.argmin())])
    y_fine = np.arange(max(0.0, y0 - 1.5 * coarse), min(lam, y0 + 1.5 * coarse) + fine, fine)
    y_fine = np.minimum(y_fine, lam)
    # Inner coarse grids: np.arange from 0 gives i * coarse whatever the stop,
    # so every row's grid is one shared prefix cut at x <= y.
    xs = np.arange(0.0, float(y_fine.max()) + coarse, coarse)
    x0 = xs[masked(y_fine, xs).argmax(axis=1)]
    # Inner fine grids, each exactly as np.arange makes it from its own start.
    rows = [
        np.arange(a, b, fine)
        for a, b in zip(np.maximum(0.0, x0 - 1.5 * coarse).tolist(),
                        (np.minimum(y_fine, x0 + 1.5 * coarse) + fine).tolist())
    ]
    sizes = np.array([row.size for row in rows])
    in_grid = np.arange(sizes.max()) < sizes[:, None]
    xs2 = np.zeros(in_grid.shape)
    xs2[in_grid] = np.concatenate(rows)
    return float(masked(y_fine, xs2, in_grid).max(axis=1).min())


def hybrid_ratio_bound(lam: float) -> float:
    """Worst-case competitive-ratio lower bound of the hybrid policy.

    Minimum of the analytic large-inventory branch and the numeric
    small-inventory branch at heaviness threshold lam in [0.5, 1).
    """
    lam = check_threshold(lam)
    return min(_bound_closed_branch(lam), _bound_numeric_branch(lam))


def adversarial_instance(growth: float, horizon: int) -> HeterogeneousInstance:
    """Geometric-revenue buyer family with a single unit-stock item.

    Buyer t's quality is chosen so its solo equilibrium revenue is
    growth**t; every such buyer purchases with probability above 1/2 when
    offered. Rejected if growth**horizon leaves double range.
    """
    growth, horizon = real_number(growth, "growth"), whole_number(horizon, "horizon")
    if not growth > 1.0:  # also NaN
        raise DomainError(f"growth must exceed 1, got {growth}")
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
    # Past 1e300 every horizon overflows, and float(horizon) may not exist.
    if horizon > 1e300 or horizon * math.log(growth) > math.log(1e300):
        raise DomainError("growth**horizon overflows the floating range")
    qualities = tuple(
        quality_for_target_revenue(growth ** t) for t in range(1, horizon + 1)
    )
    return HeterogeneousInstance(qualities=qualities, growth=growth, horizon=horizon)


def always_offer_ratios(instance: HeterogeneousInstance, upto: int) -> list[float]:
    """Hindsight ratio of the offer-while-in-stock rule on each prefix 1..upto of the buyers.

    Prefix t's expected revenue sum_{s<=t} r_s q_s prod_{u<s}(1 - q_u), from one running
    sum, against the clairvoyant r_t (save the unit for the last, richest buyer).
    The ratio decays geometrically in t."""
    upto = whole_number(upto, "prefix length")
    if not 1 <= upto <= instance.horizon:
        raise DomainError("prefix length out of range")
    ratios = []
    expected = 0.0
    available = 1.0
    for t in range(1, upto + 1):
        q = instance.solo_demand(t)
        expected += available * q * (1.0 + instance.solo_revenue(t))
        available *= 1.0 - q
        ratios.append(expected / instance.target_revenue(t))
    return ratios
