"""Generalized Bertrand price game over a buyer-seller bipartite graph.

Sellers post one price each; buyer k's demand for seller i follows an MNL
over the sellers visible to k, q_ik = exp(theta_ik - p_i) / (1 + sum_j
exp(theta_jk - p_j)). Seller i's utility is capacity-capped expected
revenue, p_i * min(sum_k q_ik, c_i). With more than one buyer the game has
no potential function, but each utility is quasiconcave in the own price
whenever the market is consistent (no posted prices can push any single
purchase probability above 0.91), which guarantees a pure equilibrium.

The solver runs deterministic round-robin best responses. A best response is
the stationary point of the uncapped utility unless the demand there exceeds
capacity, in which case the price rises to the unique level where demand
equals capacity. Convergence of the dynamics is not guaranteed by theory, so
non-convergence is reported in the result rather than raised; the report's
residual (the largest unilateral gain) is computed on first access.

Prices are finite, one per seller, else DomainError. _price_vector reads
them with real_array and checks them, so an invisible pair's -inf in the one
masked theta stays -inf.

A best response reads only the columns of the seller's visible buyers,
which the market lists once per seller, and evaluates its share vectors in
preallocated buffers with 0-d array operands. Both keep the bits of the
whole-array expressions they replace, which the tests check against those
expressions.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .equilibrium import DomainError, SolverError, _newton, distinct_indices, real_array, real_number, whole_number

CONSISTENT_SHARE_CAP = 0.91
_BR_TOL = 1e-12


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array. As a ufunc operand it costs less than
    a Python float, which numpy converts on every call."""
    array = np.array(value, dtype=float)
    array.setflags(write=False)
    return array


_ONE, _TWO, _MINUS_ONE = _constant(1.0), _constant(2.0), _constant(-1.0)


@dataclass(frozen=True, init=False, eq=False)
class BipartiteMarket:
    """Quality matrix theta[i, k] (sellers x buyers), visibility, capacities.

    Compares and hashes by identity, as an array field has no truth value.
    """

    theta: np.ndarray
    visibility: np.ndarray
    capacities: tuple[int, ...]
    quality_cap: float

    def __init__(self, theta, visibility=None, capacities=None):
        theta = np.array(real_array(theta, "theta"))  # a copy, which is made read-only
        if theta.ndim != 2 or theta.size == 0:
            raise DomainError("theta must be a nonempty 2-d sellers x buyers matrix")
        n, m = theta.shape
        if visibility is None:
            visibility = np.ones((n, m), dtype=bool)
        else:
            visibility = _flag_matrix(visibility)
            if visibility.shape != (n, m):
                raise DomainError("visibility must match theta's shape")
        if capacities is None:
            capacities = [1] * n
        capacities = [whole_number(c, "capacities") for c in capacities]
        if len(capacities) != n or any(c < 1 for c in capacities):
            raise DomainError("capacities must give a positive integer per seller")
        if any(c >= 2**63 for c in capacities):  # the flow counts units in int64
            raise DomainError("capacities must be below 2**63")
        visible = theta[visibility]
        if not np.isfinite(visible).all():
            raise DomainError("visible qualities must be finite")
        cap = float(np.abs(visible).max(initial=0.0))
        theta.setflags(write=False)
        visibility.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "capacities", tuple(capacities))
        object.__setattr__(self, "quality_cap", cap)

    @cached_property
    def _visible_theta(self) -> np.ndarray:
        """theta with -inf on the invisible pairs: e^{theta - p} there is 0."""
        masked = np.where(self.visibility, self.theta, -np.inf)
        masked.setflags(write=False)
        return masked

    @cached_property
    def _seller_columns(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per seller, its visible buyer columns and its theta on them."""
        columns = []
        for theta, visible in zip(self.theta, self.visibility):
            cols = np.flatnonzero(visible)
            own = theta[cols]
            cols.setflags(write=False)
            own.setflags(write=False)
            columns.append((cols, own))
        return tuple(columns)

    @property
    def sellers(self) -> int:
        return self.theta.shape[0]

    @property
    def buyers(self) -> int:
        return self.theta.shape[1]

    def price_box(self) -> float:
        """Upper end of the price search interval.

        Stationary prices in a consistent market stay below 12; capacity
        lifting stays below quality_cap + ln(m - 1), which needs m >= 2
        because one buyer can never outstrip a unit capacity.
        """
        return self._price_box

    @cached_property
    def _price_box(self) -> float:
        box = 12.0
        if self.buyers >= 2:
            box = max(box, self.quality_cap + math.log(self.buyers - 1))
        return box + 1.0


def _flag_matrix(values) -> np.ndarray:
    """Boolean copy of a visibility matrix.

    Each entry must be true, false, 0 or 1, so that a JSON 0.5 or 2 is an
    error rather than a visible pair.
    """
    message = "visibility entries must be true, false, 0 or 1"
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        values = np.array(values, dtype=object)
        if not all(issubclass(kind, (numbers.Real, np.bool_)) for kind in {type(x) for x in values.flat}):
            raise DomainError(message)
    flags = values.astype(float)
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise DomainError(message)
    return flags == 1.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Whether any posted prices could push a purchase share above the cap."""

    consistent: bool
    max_share: float


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Round-robin best-response fixed point (or the last iterate); compares
    and hashes by identity."""

    prices: tuple[float, ...]
    demands: np.ndarray
    iterations: int
    capacity_ok: bool
    converged: bool
    market: BipartiteMarket = field(repr=False)

    @cached_property
    def residual(self) -> float:
        """Largest unilateral utility gain at the prices, at least 0.

        Costs n more best responses and n demand solves, so it is computed
        on first access only.
        """
        return max([0.0, *_best_response_gains(self.market, np.array(self.prices), self.demands)])


@dataclass(frozen=True)
class VerificationReport:
    """Diagnostics for a candidate equilibrium price vector."""

    best_response_gains: tuple[float, ...]
    demand_slacks: tuple[float, ...]
    second_order: tuple[float, ...]
    stationary: tuple[bool, ...]
    equilibrium_ok: bool
    capacity_ok: bool
    second_order_ok: bool


def network_demand(market: BipartiteMarket, prices) -> np.ndarray:
    """Demand matrix q[i, k] at the posted prices; invisible pairs get 0.

    Per-buyer columns are normalized against the no-purchase option, with a
    max-exponent shift so large qualities cannot overflow.
    """
    p = _price_vector(market, prices)
    util = market._visible_theta - p[:, None]
    shift = np.maximum(0.0, util.max(axis=0, initial=-np.inf))
    weights = np.exp(util - shift)
    return weights / (np.exp(-shift) + weights.sum(axis=0))


def _price_vector(market: BipartiteMarket, prices) -> np.ndarray:
    """prices as a finite float64 array of shape (sellers,), else DomainError."""
    p = real_array(prices, "prices")
    if p.shape != (market.sellers,):
        raise DomainError("need one price per seller")
    if not np.isfinite(p).all():
        raise DomainError("prices must be finite")
    return p


def seller_utility(market: BipartiteMarket, prices, i: int) -> float:
    """Capacity-capped expected revenue p_i * min(total demand, c_i) at finite prices."""
    (i,) = distinct_indices((i,), market.sellers, "seller index")
    p = _price_vector(market, prices)
    total = float(network_demand(market, p)[i].sum())
    return float(p[i]) * min(total, market.capacities[i])


def _rival_logits(market: BipartiteMarket, prices, i: int) -> np.ndarray:
    """z_k = theta_ik - ln(1 + sum_{j != i} e^{theta_jk - p_jk}), for buyers
    visible to i; q_ik(p) = sigmoid(z_k - p).

    Works on the columns of i's buyers only, with the bits of the full-width
    sum: numpy adds the rows of a C-ordered block in order, as it does over
    the whole matrix, but sums an F-ordered copy (what ``A[:, cols]`` gives)
    or a lone column pairwise.
    """
    cols, own = market._seller_columns[i]
    util = np.take(market._visible_theta, cols, axis=1)  # a C-ordered copy
    util -= np.asarray(prices, dtype=float)[:, None]
    util[i] = -np.inf
    shift = np.maximum(0.0, util.max(axis=0, initial=-np.inf))
    util -= shift
    np.exp(util, out=util)
    if cols.size == 1 and market.buyers > 1:  # in row order, as over the wider matrix
        total = np.add.accumulate(util[:, 0])[-1:]
    else:
        total = util.sum(axis=0)
    log_base = shift + np.log(np.exp(-shift) + total)
    return own - log_base


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^{-z}) from one exponential of -|z|, which never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _shares_into(z: np.ndarray, p, x: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q = _sigmoid(z - p), bit for bit, written through the buffers x and e.

    p is a price or a column of prices, one per row of the buffers. As
    e = e^{-|z - p|} <= 1, _sigmoid's numerator where(z - p >= 0, 1, e) is
    max(e, sign(z - p)): 1 where z - p > 0, e = 1 at z - p = +-0, e below 0,
    and nan at nan. The sign keeps the buffers float64, where the comparison
    would make numpy cast booleans.
    """
    np.subtract(z, p, out=x)
    np.copysign(x, _MINUS_ONE, out=e)
    np.exp(e, out=e)
    np.sign(x, out=x)
    np.maximum(e, x, out=x)
    np.add(e, _ONE, out=e)
    return np.divide(x, e, out=q)


def seller_best_response(market: BipartiteMarket, prices, i: int) -> float:
    """Utility-maximizing price for seller i against the rivals' prices.

    Solves sum_k q_ik (1 - p (1 - q_ik)) = 0 for the uncapped stationary
    price; if demand there exceeds c_i, lifts the price to the unique level
    where demand equals c_i (demand is strictly decreasing in the own
    price). Sellers with no visible buyers price at 0 by convention.
    """
    (i,) = distinct_indices((i,), market.sellers, "seller index")
    z = _rival_logits(market, _price_vector(market, prices), i)
    if z.size == 0:
        return 0.0
    box = market.price_box()
    cap = float(market.capacities[i])
    # A response evaluates dozens of share vectors of a few hundred entries,
    # where ufunc call overhead outweighs the element work. So every step
    # writes into these buffers, in the operand order and rounding of the
    # array expressions in the comments, and passes its scalars as 0-d
    # arrays, which numpy takes faster than Python floats.
    x, e, q, t, u = (np.empty_like(z) for _ in range(5))
    last = [math.nan]  # the price q holds the shares of

    def shares(p: float, p0: np.ndarray) -> np.ndarray:
        # p0 is p as a 0-d array
        last[0] = p
        return _shares_into(z, p0, x, e, q)

    def marginal(p0: np.ndarray, q: np.ndarray) -> float:
        # (q * (1 - p * (1 - q))).sum()
        np.subtract(_ONE, q, out=t)
        np.multiply(t, p0, out=t)
        np.subtract(_ONE, t, out=t)
        np.multiply(q, t, out=t)
        return float(np.add.reduce(t))

    def minus_marginal(p: float) -> tuple[float, float]:
        # The marginal utility falls through its root; _newton takes its negation.
        p0 = np.array(p)
        q = shares(p, p0)
        f = marginal(p0, q)
        # ((q * q - q) * (2 + 2 * p * q - p)).sum(), 2 * p * q being (2 * p) * q
        np.multiply(q, np.array(2.0 * p), out=u)
        np.add(u, _TWO, out=u)
        np.subtract(u, p0, out=u)
        np.multiply(q, q, out=t)
        np.subtract(t, q, out=t)
        np.multiply(t, u, out=t)
        return -f, -float(np.add.reduce(t))

    box0 = np.array(box)
    if marginal(box0, shares(box, box0)) > 0.0:
        raise SolverError(f"stationary price of seller {i} exceeds the search box")
    # A stalled stationary solve keeps its last iterate: the capacity check
    # below and the sweep's convergence test judge it.
    p = _newton(minus_marginal, min(2.0, box), 0.0, box, _BR_TOL, None)
    demand = float(np.add.reduce(q if last[0] == p else shares(p, np.array(p))))
    if demand <= cap:
        return p
    # Capacity arm: raise the price until demand matches supply. It bisects
    # first, then probes Newton: _newton would change its iterates' bits.
    # Where shares are below 1/2, demand is convex in the price, so a probe
    # is at most the root and the next midpoint is (probe + hi) / 2. Each
    # round fills a C-ordered (3, k) block with the probe's shares, that
    # midpoint's shares and the midpoint's slope terms q * (1 - q), and sums
    # its rows in one call, each as numpy sums a 1-d array. A midpoint
    # reached without a probe fills the last two rows alone.
    block = np.empty((3, z.size))
    pair, tail, qm, slopes = block[:2], block[1:], block[1], block[2]
    xs, es = np.empty((2, z.size)), np.empty((2, z.size))
    probes = np.empty((2, 1))

    def midpoint_slope() -> None:
        np.subtract(_ONE, qm, out=slopes)
        np.multiply(qm, slopes, out=slopes)

    def at_midpoint(mid: float) -> tuple[float, float]:
        _shares_into(z, np.array(mid), x, e, qm)
        midpoint_slope()
        sums = np.add.reduce(tail, axis=1)
        # -(q * (1 - q)).sum(): negating the sum instead is exact
        return float(sums[0]) - cap, -float(sums[1])

    lo, hi = p, box
    mid = 0.5 * (lo + hi)
    d, slope = at_midpoint(mid)
    for _ in range(200):
        if abs(d) < _BR_TOL:
            return mid
        if d > 0.0:
            lo = mid
        else:
            hi = mid
        nxt = mid - d / slope
        if lo < nxt < hi:
            probes[0, 0] = nxt
            probes[1, 0] = 0.5 * (nxt + hi)
            _shares_into(z, probes, xs, es, pair)
            midpoint_slope()
            sums = np.add.reduce(block, axis=1)
            d = float(sums[0]) - cap
            if abs(d) < _BR_TOL:
                return nxt
            if d > 0.0:
                lo = nxt
                mid, d, slope = 0.5 * (lo + hi), float(sums[1]) - cap, -float(sums[2])
                continue
            hi = nxt
        mid = 0.5 * (lo + hi)
        d, slope = at_midpoint(mid)
    return 0.5 * (lo + hi)


def check_consistency(market: BipartiteMarket) -> ConsistencyReport:
    """Sup of each pair's share over all price vectors: sigmoid(theta_ik).

    The market is consistent when no pair can exceed the 0.91 cap; a
    sufficient condition is every visible theta_ik <= 2.3.
    """
    max_share = float(_sigmoid(market._visible_theta).max())  # sigmoid(-inf) = 0
    return ConsistencyReport(
        consistent=bool(max_share <= CONSISTENT_SHARE_CAP),
        max_share=max_share,
    )


def solve_network_equilibrium(
    market: BipartiteMarket,
    max_iters: int = 10_000,
) -> EquilibriumReport:
    """Best-response iteration to a pure equilibrium of the price game.

    Deterministic Gauss-Seidel sweeps in seller order. Stops when the
    largest price move in a sweep is at most 1e-9. Never raises on
    non-convergence: the report carries a converged flag and the residual
    max unilateral improvement. ``max_iters``, the most sweeps to run, must
    be a whole number of at least 1.
    """
    max_iters = whole_number(max_iters, "max_iters")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters}")
    report = check_consistency(market)
    if not report.consistent:
        warnings.warn(
            f"market is not consistent (max share bound {report.max_share:.3f});"
            " equilibrium existence is not guaranteed",
            stacklevel=2,
        )
    n = market.sellers
    p = np.ones(n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        delta = 0.0
        for i in range(n):
            new = seller_best_response(market, p, i)
            delta = max(delta, abs(new - p[i]))
            p[i] = new
        if delta <= 1e-9:
            converged = True
            break
    demands = network_demand(market, p)
    totals = demands.sum(axis=1)
    capacity_ok = bool(np.all(totals <= np.array(market.capacities) + 1e-7))
    return EquilibriumReport(
        prices=tuple(float(x) for x in p),
        demands=demands,
        iterations=iterations,
        capacity_ok=capacity_ok,
        converged=converged,
        market=market,
    )


def _best_response_gains(market: BipartiteMarket, p: np.ndarray, demands: np.ndarray) -> list[float]:
    """Each seller's utility gain from moving alone to its best response;
    ``demands`` is network_demand(market, p)."""
    gains = []
    for i in range(market.sellers):
        trial = p.copy()
        trial[i] = seller_best_response(market, p, i)
        base = float(p[i]) * min(float(demands[i].sum()), market.capacities[i])
        gains.append(seller_utility(market, trial, i) - base)
    return gains


def verify_equilibrium(market: BipartiteMarket, prices, epsilon: float = 1e-6) -> VerificationReport:
    """Check a price vector: no profitable deviation, capacity caps, and a
    nonpositive second-order term at interior stationary prices."""
    epsilon = real_number(epsilon, "epsilon")
    p = _price_vector(market, prices)
    demands = network_demand(market, p)
    gains = _best_response_gains(market, p, demands)
    slacks = []
    second = []
    stationary = []
    for i in range(market.sellers):
        total = float(demands[i].sum())
        slacks.append(market.capacities[i] - total)
        q = demands[i][market.visibility[i]]
        marginal = float((q * (1.0 - p[i] * (1.0 - q))).sum())
        is_stationary = abs(marginal) <= 1e-6 and total < market.capacities[i] - 1e-9
        stationary.append(bool(is_stationary))
        second.append(float(((q * q - q) * (2.0 + 2.0 * p[i] * q - p[i])).sum()))
    second_order_ok = all(s <= 0.0 for s, flag in zip(second, stationary) if flag)
    return VerificationReport(
        best_response_gains=tuple(gains),
        demand_slacks=tuple(slacks),
        second_order=tuple(second),
        stationary=tuple(stationary),
        equilibrium_ok=bool(max(gains) <= epsilon),
        capacity_ok=bool(min(slacks) >= -epsilon),
        second_order_ok=second_order_ok,
    )
