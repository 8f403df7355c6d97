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
non-convergence is reported in the result rather than raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import DomainError, SolverError, _newton

CONSISTENT_SHARE_CAP = 0.91
_BR_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteMarket:
    """Quality matrix theta[i, k] (sellers x buyers), visibility, capacities."""

    theta: np.ndarray
    visibility: np.ndarray
    capacities: tuple[int, ...]
    quality_cap: float

    def __init__(self, theta, visibility=None, capacities=None):
        theta = np.array(theta, dtype=float)
        if theta.ndim != 2 or theta.size == 0:
            raise DomainError("theta must be a nonempty 2-d sellers x buyers matrix")
        n, m = theta.shape
        if visibility is None:
            visibility = np.ones((n, m), dtype=bool)
        else:
            visibility = np.array(visibility, dtype=bool)
            if visibility.shape != (n, m):
                raise DomainError("visibility must match theta's shape")
        if capacities is None:
            capacities = [1] * n
        capacities = [int(c) for c in capacities]
        if len(capacities) != n or any(c < 1 for c in capacities):
            raise DomainError("capacities must give a positive integer per seller")
        if visibility.any() and not np.all(np.isfinite(theta[visibility])):
            raise DomainError("visible qualities must be finite")
        cap = float(np.abs(theta[visibility]).max()) if visibility.any() else 0.0
        theta.setflags(write=False)
        visibility.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "capacities", tuple(capacities))
        object.__setattr__(self, "quality_cap", cap)

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
        box = 12.0
        if self.buyers >= 2:
            box = max(box, self.quality_cap + math.log(self.buyers - 1))
        return box + 1.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Whether any posted prices could push a purchase share above the cap."""

    consistent: bool
    max_share: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Round-robin best-response fixed point (or the last iterate)."""

    prices: tuple[float, ...]
    demands: np.ndarray
    residual: float
    iterations: int
    capacity_ok: bool
    converged: bool


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
    p = np.asarray(prices, dtype=float)
    if p.shape != (market.sellers,):
        raise DomainError("need one price per seller")
    weights, shift = _shifted_weights(market, p, market.visibility)
    return weights / (np.exp(-shift) + weights.sum(axis=0))


def _shifted_weights(market: BipartiteMarket, p: np.ndarray, visible: np.ndarray):
    """e^{theta_ik - p_i - s_k} on the visible pairs (0 elsewhere), and the
    per-buyer shift s_k = max(0, max_i theta_ik - p_i) that keeps it finite."""
    util = np.where(visible, market.theta - p[:, None], -np.inf)
    shift = np.maximum(0.0, util.max(axis=0, initial=-np.inf))
    return np.exp(util - shift), shift


def seller_utility(market: BipartiteMarket, prices, i: int) -> float:
    """Capacity-capped expected revenue p_i * min(total demand, c_i)."""
    if not 0 <= i < market.sellers:
        raise DomainError(f"seller index {i} out of range")
    q = network_demand(market, prices)
    total = float(q[i].sum())
    return float(prices[i]) * min(total, market.capacities[i])


def _rival_logits(market: BipartiteMarket, prices, i: int) -> np.ndarray:
    """z_k = theta_ik - ln(1 + sum_{j != i} e^{theta_jk - p_jk}), for buyers
    visible to i; q_ik(p) = sigmoid(z_k - p)."""
    rivals = market.visibility.copy()
    rivals[i] = False
    weights, shift = _shifted_weights(market, np.asarray(prices, dtype=float), rivals)
    log_base = shift + np.log(np.exp(-shift) + weights.sum(axis=0))
    vis_i = market.visibility[i]
    return market.theta[i, vis_i] - log_base[vis_i]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^{-z}) from one exponential of -|z|, which never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def seller_best_response(market: BipartiteMarket, prices, i: int) -> float:
    """Utility-maximizing price for seller i against the rivals' prices.

    Solves sum_k q_ik (1 - p (1 - q_ik)) = 0 for the uncapped stationary
    price; if demand there exceeds c_i, lifts the price to the unique level
    where demand equals c_i (demand is strictly decreasing in the own
    price). Sellers with no visible buyers price at 0 by convention.
    """
    if not 0 <= i < market.sellers:
        raise DomainError(f"seller index {i} out of range")
    z = _rival_logits(market, prices, i)
    if z.size == 0:
        return 0.0
    box = market.price_box()
    cap = float(market.capacities[i])

    def shares(p: float) -> np.ndarray:
        return _sigmoid(z - p)

    def marginal(p: float, q: np.ndarray) -> float:
        return float((q * (1.0 - p * (1.0 - q))).sum())

    def minus_marginal(p: float) -> tuple[float, float]:
        # The marginal utility falls through its root; _newton takes its negation.
        q = shares(p)
        slope = float(((q * q - q) * (2.0 + 2.0 * p * q - p)).sum())
        return -marginal(p, q), -slope

    if marginal(box, shares(box)) > 0.0:
        raise SolverError(f"stationary price of seller {i} exceeds the search box")
    # A stalled stationary solve keeps its last iterate: the capacity check
    # below and the sweep's convergence test judge it.
    p = _newton(minus_marginal, min(2.0, box), 0.0, box, _BR_TOL, None)
    demand = float(shares(p).sum())
    if demand <= cap:
        return p
    # Capacity arm: raise the price until demand matches supply. It bisects
    # first, then probes Newton: _newton would change its iterates' bits.
    lo, hi = p, box
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = shares(mid)
        d = float(q.sum()) - cap
        if abs(d) < _BR_TOL:
            return mid
        if d > 0.0:
            lo = mid
        else:
            hi = mid
        slope = float(-(q * (1.0 - q)).sum())
        nxt = mid - d / slope
        if lo < nxt < hi:
            q = shares(nxt)
            d = float(q.sum()) - cap
            if abs(d) < _BR_TOL:
                return nxt
            if d > 0.0:
                lo = nxt
            else:
                hi = nxt
    return 0.5 * (lo + hi)


def check_consistency(market: BipartiteMarket) -> ConsistencyReport:
    """Sup of each pair's share over all price vectors: sigmoid(theta_ik).

    The market is consistent when no pair can exceed the 0.91 cap; a
    sufficient condition is every visible theta_ik <= 2.3.
    """
    bounds = np.where(market.visibility, _sigmoid(market.theta), 0.0)
    max_share = float(bounds.max()) if bounds.size else 0.0
    return ConsistencyReport(
        consistent=bool(max_share <= CONSISTENT_SHARE_CAP),
        max_share=max_share,
    )


def solve_network_equilibrium(
    market: BipartiteMarket,
    tolerance: float = 1e-9,
    max_iters: int = 10_000,
) -> EquilibriumReport:
    """Best-response iteration to a pure equilibrium of the price game.

    Deterministic Gauss-Seidel sweeps in seller order. Stops when the
    largest price move in a sweep falls below ``tolerance``. Never raises on
    non-convergence: the report carries a converged flag and the residual
    max unilateral improvement.
    """
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
        if delta <= tolerance:
            converged = True
            break
    demands = network_demand(market, p)
    residual = max([0.0, *_best_response_gains(market, p)])
    totals = demands.sum(axis=1)
    capacity_ok = bool(np.all(totals <= np.array(market.capacities) + 1e-7))
    return EquilibriumReport(
        prices=tuple(float(x) for x in p),
        demands=demands,
        residual=residual,
        iterations=iterations,
        capacity_ok=capacity_ok,
        converged=converged,
    )


def _best_response_gains(market: BipartiteMarket, p: np.ndarray) -> list[float]:
    """Each seller's utility gain from moving alone to its best response."""
    gains = []
    for i in range(market.sellers):
        trial = p.copy()
        trial[i] = seller_best_response(market, p, i)
        gains.append(seller_utility(market, trial, i) - seller_utility(market, p, i))
    return gains


def verify_equilibrium(market: BipartiteMarket, prices, epsilon: float = 1e-6) -> VerificationReport:
    """Check a price vector: no profitable deviation, capacity caps, and a
    nonpositive second-order term at interior stationary prices."""
    p = np.asarray(prices, dtype=float)
    demands = network_demand(market, p)
    gains = _best_response_gains(market, p)
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
