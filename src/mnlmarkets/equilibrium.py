"""Single-buyer Bertrand price competition under multinomial-logit demand.

Each seller i carries one item with quality theta_i. Given a displayed
assortment S, sellers post prices simultaneously and the buyer picks item i
with probability

    q_i = exp(theta_i - p_i) / (1 + sum_j exp(theta_j - p_j)),

the extra 1 being the no-purchase option. The price game has a unique pure
Nash equilibrium with p_i = 1/(1 - q_i), and the equilibrium demands reduce
to a one-dimensional fixed point: q_i = V(q0 * exp(theta_i - 1)), where V
inverts y * exp(y/(1-y)) = x and the no-purchase share q0 solves

    sum_{i in S} V(q0 * exp(theta_i - 1)) = 1 - q0.

This module provides that machinery plus the raw (out-of-equilibrium) MNL
demand, the price-game potential, best responses, and two closed-form
variants: production costs that shift prices down, and the quality that makes
a solo item earn a prescribed revenue.

All functions are pure; qualities may be any finite reals (negative allowed),
and the exponential sums are evaluated with a max-exponent shift so large
qualities do not overflow. A quality so large that an equilibrium share
rounds to 1 has no finite price and raises DomainError, as do qualities
so large that the no-purchase solve meets a subnormal q0 above its root.

``_solve_outcome`` solves one assortment; ``_solve_masks`` solves many at
once in numpy and gives the same bits (see its docstring). Its exp, log and
log1p run numpy's scalar loop over the platform libm, the function ``math``
calls, once each has matched ``math`` on a fixed probe (see ``_libm``).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SolverError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


def whole_number(value, what: str) -> int:
    """``int(value)``; DomainError for a boolean, a non-number or a value int() would truncate.

    A boolean is Python's ``bool`` or anything of numpy's boolean dtype, 0-d
    arrays included, which ``int()`` would read as 0 or 1.
    """
    try:
        n = int(value)
        whole = n == value and not (isinstance(value, bool) or getattr(value, "dtype", None) == np.bool_)
    except (TypeError, ValueError, OverflowError):  # None, NaN, an infinity
        whole = False
    if not whole:
        raise DomainError(f"{what}: {value!r} is not a whole number")
    return n


def real_number(value, what: str) -> float:
    """``float(value)``; DomainError for a boolean or anything that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise DomainError(f"{what}: an integer too large for a double") from None


def real_array(values, what: str) -> np.ndarray:
    """values as float64, a float64 ndarray as itself; DomainError for a boolean or non-number entry."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            values = np.array(values, dtype=object)  # a JSON true stays a bool here
        except ValueError:  # nested arrays of unequal shapes
            raise DomainError(f"{what}: a ragged nesting is not an array") from None
        for example in {type(x): x for x in values.flat}.values():
            real_number(example, what)
    try:
        return values.astype(float, copy=False)
    except OverflowError:  # an integer beyond the double range
        raise DomainError(f"{what}: an integer too large for a double") from None


def sequence(values, what: str) -> tuple:
    """values' entries as a tuple, a tuple as itself; DomainError for what iter() rejects, a str or bytes."""
    if isinstance(values, tuple):
        return values
    try:
        entries = iter(None if isinstance(values, (str, bytes)) else values)  # a string raises as a scalar does
    except TypeError:  # a scalar
        raise DomainError(f"{what}: {values!r} is not a sequence") from None
    return tuple(entries)


def distinct_indices(values, size: int, what: str) -> tuple[int, ...]:
    """The values as ints in their given order; DomainError unless they are a sequence,
    each an integer in [0, size), numpy integers included and booleans not, and none repeats."""
    seen = {}
    for v in sequence(values, what):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise DomainError(f"{what}: {v!r} is not an integer")
        if not 0 <= v < size:
            raise DomainError(f"{what}: {v} is out of range for {size}")
        if v in seen:
            raise DomainError(f"{what}: {v} is repeated")
        seen[int(v)] = None
    return tuple(seen)


_MAX_ITER = 200
# Cap of the no-purchase Newton. Bisection from q0 = 0.5 takes 1021 halvings
# to reach the least normal double, so any normal root is reached within it.
_Q0_MAX_ITER = 1100
_Q0_SUBNORMAL = "qualities too large: the no-purchase share is subnormal"
_SHARE_ROUNDS_TO_ONE = "quality too large: an equilibrium share rounds to 1"
_LN_LEAST_SUBNORMAL = math.log(5e-324)
# Masks per block of _solve_masks, to bound its temporaries. Each round of a
# block pays a fixed cost in numpy calls, so wider blocks run faster while
# the peak grows with the width. Over all masks of the 24 seed-0 lp-plan
# catalogs (10-12 items), three sweeps of 5-9 interleaved runs on a shared
# 2-core x86-64 Xeon (numpy 2.4) put the kernel time, relative to 1024-mask
# blocks, at 1.6-2.1x for 256 masks, 1.13-1.33x for 512, 0.97-1.07x for
# 2048 and 0.89-0.96x for 4096; a 12-item enumeration peaks at 0.71, 0.95,
# 1.40, 2.26 and 3.90 MiB under tracemalloc. 1024 is the widest block under
# the 2 MiB bound that tests/test_lp.py holds the enumeration to.
_MASK_BLOCK = 1024


@dataclass(frozen=True, init=False)
class ItemCatalog:
    """The seller side of a market: qualities, inventories, optional unit costs.

    Items are stored sorted by descending quality (ties keep input order) and
    ``order[k]`` gives the original input index of the item at sorted
    position k. All other modules address items by sorted position.
    Catalogs compare and hash by value, which the outcome caches key on.
    """

    qualities: tuple[float, ...]
    inventories: tuple[int, ...]
    costs: tuple[float, ...] | None
    order: tuple[int, ...]

    def __init__(self, qualities, inventories, costs=None):
        qualities = [real_number(t, "qualities") for t in sequence(qualities, "qualities")]
        inventories = [whole_number(c, "inventories") for c in sequence(inventories, "inventories")]
        n = len(qualities)
        if n < 1:
            raise DomainError("catalog needs at least one item")
        if len(inventories) != n:
            raise DomainError("qualities and inventories must have equal length")
        if any(not math.isfinite(t) for t in qualities):
            raise DomainError("qualities must be finite")
        if any(c < 1 for c in inventories):
            raise DomainError("inventories must be >= 1")
        if costs is not None:
            costs = [real_number(b, "costs") for b in sequence(costs, "costs")]
            if len(costs) != n:
                raise DomainError("costs must match the number of items")
            if any(b < 0 or not math.isfinite(b) for b in costs):
                raise DomainError("costs must be finite and nonnegative")
        order = sorted(range(n), key=lambda k: (-qualities[k], k))
        object.__setattr__(self, "qualities", tuple(qualities[k] for k in order))
        object.__setattr__(self, "inventories", tuple(inventories[k] for k in order))
        object.__setattr__(
            self, "costs", None if costs is None else tuple(costs[k] for k in order)
        )
        object.__setattr__(self, "order", tuple(order))

    def __len__(self) -> int:
        return len(self.qualities)

    def positions(self, original_ids: Iterable[int]) -> tuple[int, ...]:
        """Map distinct original input indices to sorted positions."""
        inverse = {orig: pos for pos, orig in enumerate(self.order)}
        return tuple(inverse[i] for i in distinct_indices(original_ids, len(self), "item ids"))


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Equilibrium of the price game for one assortment.

    ``members`` are sorted catalog positions; ``demands``, ``prices`` and
    ``revenues`` align with it. ``q0`` is the no-purchase share and
    satisfies q0 + sum(demands) == 1.
    """

    members: tuple[int, ...]
    q0: float
    demands: tuple[float, ...]
    prices: tuple[float, ...]
    revenues: tuple[float, ...]
    total_revenue: float


def validate_assortment(catalog: ItemCatalog, members: Iterable[int]) -> tuple[int, ...]:
    """Normalize an assortment to a sorted tuple of distinct valid positions."""
    return tuple(sorted(distinct_indices(members, len(catalog), "assortment")))


def _newton(fn, x: float, lo: float, hi: float, tol: float, stalled: str | None,
            max_iter: int = _MAX_ITER) -> float:
    """Root of an increasing f by bracketed Newton; ``fn(x)`` gives (f, slope).

    Each iterate narrows (lo, hi) to the sign of f. A positive-slope Newton
    step that lands strictly inside the bracket is taken; otherwise the
    bracket is bisected, or x doubled while hi is infinite. Stops when
    |f| < tol or the next iterate equals x. After max_iter iterates raises
    SolverError(stalled), or returns the last iterate if stalled is None.

    A decreasing g passes (-g, -slope), which keeps the iterates of a loop on
    g: negation and (-a)/(-b) are exact, and at g == 0 the tolerance returns.
    """
    for _ in range(max_iter):
        f, slope = fn(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) < tol:
            return x
        # x is now an end of the bracket, so a nonpositive slope falls back.
        nxt = x - f / slope if slope > 0.0 else x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * x
        if nxt == x:
            return x
        x = nxt
    if stalled is None:
        return x
    raise SolverError(stalled)


def _share_from_log(lx: float) -> float:
    """Root y of  ln y + y/(1-y) = lx,  via w = y/(1-y).

    In w-space the equation reads  w + ln w - ln(1+w) = lx  with strictly
    increasing left side, so a bracketed Newton iteration cannot fail. Working
    with w keeps full precision when y approaches 1 (lx large).

    Returns 0.0, the correctly rounded root, when exp(lx) underflows to 0.0,
    and stops at the least subnormal when the root lies between it and half
    of it, where the bisection midpoint is 0.0 and ln 0.0 does not exist.
    Raises DomainError when the root rounds to 1.0, where the equilibrium
    price 1/(1 - y) does not exist in floating point.

    The loop is _newton's, written out: this is the innermost kernel of
    every equilibrium, and _shares_from_log and _solve_mask_block mirror it
    step for step. Routed through _newton and a closure it gave the same
    bits, but solving all 31 assortments of twenty 5-item catalogs with
    _solve_outcome took a median 79 ms instead of 47 ms (2-core Xeon).
    """
    # Initial guess: w ~ exp(lx) when lx << 0 (y ~ x), w ~ lx when lx >> 0.
    if lx > 1.0:
        w = lx
    else:
        w = math.exp(lx)
        if w == 0.0:
            return 0.0  # the root lies below half the least subnormal
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        f = w + math.log(w) - math.log1p(w) - lx
        if f > 0.0:
            hi = w
        else:
            lo = w
        if abs(f) < 1e-14:
            break
        step = f / (1.0 + 1.0 / (w * (1.0 + w)))
        nxt = w - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * w
        if nxt == w or nxt == 0.0:
            break
        w = nxt
    else:
        raise SolverError(f"share iteration stalled at lx={lx}")
    y = w / (1.0 + w)
    if y == 1.0:
        raise DomainError(_SHARE_ROUNDS_TO_ONE)
    return y


def solve_share(x: float) -> float:
    """Solve y * exp(y/(1-y)) = x for the unique y in [0, 1).

    Strictly increasing in x, with y(0) = 0 and y -> 1 as x -> infinity. The
    returned root satisfies |y*exp(y/(1-y)) - x| <= 1e-12 * max(1, x).
    """
    x = real_number(x, "share argument")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"argument must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    return _share_from_log(math.log(x))


def _no_purchase_root(qualities: Sequence[float]) -> float:
    """Root q0 of  sum_i V(q0 * e^{theta_i - 1}) + q0 - 1 = 0  on (0, 1].

    DomainError once a subnormal iterate lies above the root: q0 is then
    too coarse to fix the shares."""
    offsets = [t - 1.0 for t in qualities]

    def h_and_slope(q0: float) -> tuple[float, float]:
        lq = math.log(q0)
        total = q0 - 1.0
        slope = 1.0
        for off in offsets:
            y = _share_from_log(lq + off)
            w = y / (1.0 - y)
            total += y
            # dV/dq0 = y / (q0 * (1 + w(1+w)))
            slope += y / (q0 * (1.0 + w * (1.0 + w)))
        if total > 0.0 and q0 < sys.float_info.min:
            raise DomainError(_Q0_SUBNORMAL)
        return total, slope

    return _newton(h_and_slope, 0.5, 0.0, 1.0, 1e-13,
                   "no-purchase share iteration did not converge", _Q0_MAX_ITER)


def solve_no_purchase(catalog: ItemCatalog, members: Iterable[int]) -> float:
    """Equilibrium no-purchase share q0 for the given assortment.

    Returns exactly 1.0 for the empty assortment.
    """
    members = validate_assortment(catalog, members)
    if not members:
        return 1.0
    return _no_purchase_root([catalog.qualities[i] for i in members])


def _solve_outcome(catalog: ItemCatalog, members: tuple[int, ...]) -> EquilibriumOutcome:
    """Uncached equilibrium of a validated assortment (sorted distinct positions)."""
    if not members:
        return EquilibriumOutcome(members=(), q0=1.0, demands=(), prices=(),
                                  revenues=(), total_revenue=0.0)
    q0 = _no_purchase_root([catalog.qualities[i] for i in members])
    lq = math.log(q0)
    demands = tuple(_share_from_log(lq + catalog.qualities[i] - 1.0) for i in members)
    prices = tuple(1.0 / (1.0 - q) for q in demands)
    revenues = tuple(q / (1.0 - q) for q in demands)
    return EquilibriumOutcome(members=members, q0=q0, demands=demands,
                              prices=prices, revenues=revenues,
                              total_revenue=_sequential_sum(revenues))


def _sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from 0.0, the order _solve_masks adds in.

    ``sum()`` of floats is compensated from Python 3.12 on.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# The ufunc that computes each math function (see _libm).
_UFUNCS = {math.exp: np.exp, math.log: np.log, math.log1p: np.log1p}


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` called on each element from Python."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def _reversed_out(ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc`` of a contiguous array, written into a negative-stride view."""
    return ufunc(np.ascontiguousarray(values), out=np.empty(values.size)[::-1])


def _probe_arguments(fn) -> np.ndarray:
    """Fixed arguments on which _exact_ufunc compares ``fn`` with its ufunc.

    Arguments near 0 (exp) and near 1 (log, log1p) are where numpy's SIMD
    loops round differently from libm: on a 2-core AVX-512 x86-64 with numpy
    2.4, its contiguous loops disagree on 4.4% (exp), 0.4% (log) and 12%
    (log1p) of them. The wide draws span every binade the solvers reach,
    subnormals included, and the specials sit at the underflow and overflow
    edges. Every argument is one math accepts without raising.
    """
    rng = np.random.default_rng(20200610)
    if fn is math.exp:
        near = rng.uniform(-1.0, 1.0, 2048)
        wide = rng.uniform(-746.0, 709.0, 2048)
        special = [0.0, -0.0, 5e-324, -708.4, -744.4, -745.1, -745.2, 709.78]
    else:
        near = rng.uniform(0.0, 2.0, 2048)
        exponents = np.floor(rng.uniform(-1074.0, 1024.0, 2048)).astype(np.intc)
        wide = np.ldexp(rng.uniform(1.0, 2.0, 2048), exponents)
        special = [5e-324, 1e-310, sys.float_info.min, 1.0, sys.float_info.max]
    return np.concatenate([near, special, wide])


@lru_cache(maxsize=None)
def _exact_ufunc(fn):
    """``_UFUNCS[fn]`` if _reversed_out with it returns fn's bits, else None.

    Checked once per process, on first use and never at import, on every
    prefix of 2 to 17 probe arguments and on the whole set.
    """
    ufunc = _UFUNCS[fn]
    args = _probe_arguments(fn)
    with np.errstate(all="ignore"):
        for k in (*range(2, 18), args.size):
            got, want = _reversed_out(ufunc, args[:k]), _mapped(fn, args[:k])
            if not np.array_equal(got.view(np.int64), want.view(np.int64)):
                return None
    return ufunc


def _libm(fn, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``fn`` (a ``math`` function) of each element of a 1-D array, with math's bits.

    numpy's contiguous exp, log and log1p loops are SIMD code that differs
    from libm in the last bit on a few percent of arguments. Into a
    negative-stride output the same ufunc runs numpy's scalar loop, which
    calls the platform libm per element, as math does, at C speed. That
    rests on how numpy dispatches, not on its documentation, so each
    function is checked against math once (_exact_ufunc) and keeps the
    Python-level map if the check fails. A 1-element view counts as
    contiguous and takes the SIMD loop, so fewer than 2 elements map too.
    ``out``, if given, is a negative-stride view of values.size elements
    for the ufunc to write into and return; the map path leaves it alone.
    Where math raises (log of 0.0, exp overflow) the ufunc returns -inf or
    inf; the solvers never pass such arguments.
    """
    ufunc = _exact_ufunc(fn) if values.size >= 2 else None
    if ufunc is None:
        return _mapped(fn, values)
    if out is None:
        return _reversed_out(ufunc, values)
    return ufunc(values, out=out)


def _shares_from_log(lx: np.ndarray) -> np.ndarray:
    """_share_from_log of every element of a 1-D array, with the same iterates.

    Each element runs the scalar Newton step for step: numpy does the
    comparisons and the + - * / (IEEE-exact, so bit-equal to Python floats)
    and libm the logarithms. The bisection or doubling fallback is computed
    only for the elements whose Newton step leaves the bracket, and the
    active set is compacted only on iterates where some element converged;
    both are per-element choices, so neither moves a bit. The iterates live
    in buffers allocated once per call, the k active elements in each one's
    leading k entries: arithmetic writes through out=, both logarithms go
    to one kept negative-stride view (see _libm), the bracket moves by
    np.copyto with where=, and on an iterate where nothing converged the
    Newton points become the iterates by swapping two buffers.
    """
    w = lx.copy()
    small = lx <= 1.0
    w[small] = _libm(math.exp, lx[small])
    y = np.zeros_like(lx)  # where exp(lx) underflows to 0.0 the root is 0.0
    act = np.flatnonzero(w != 0.0)
    k = act.size
    w, lx, nxt = w[act], lx[act], np.empty(k)
    lo, hi = np.zeros(k), np.full(k, math.inf)
    f, t, logs = np.empty(k), np.empty(k), np.empty(k)[::-1]
    done, inside, spare = (np.empty(k, dtype=bool) for _ in range(3))
    for _ in range(_MAX_ITER):
        if not k:
            break
        w_k, nxt_k, lx_k, f_k, t_k, lo_k, hi_k = w[:k], nxt[:k], lx[:k], f[:k], t[:k], lo[:k], hi[:k]
        done_k, inside_k, spare_k = done[:k], inside[:k], spare[:k]
        # f = w + ln w - ln(1 + w) - lx, added left to right
        np.add(w_k, _libm(math.log, w_k, logs[:k]), out=f_k)
        np.subtract(f_k, _libm(math.log1p, w_k, logs[:k]), out=f_k)
        np.subtract(f_k, lx_k, out=f_k)
        np.greater(f_k, 0.0, out=spare_k)
        np.copyto(hi_k, w_k, where=spare_k)
        np.logical_not(spare_k, out=spare_k)
        np.copyto(lo_k, w_k, where=spare_k)
        np.abs(f_k, out=t_k)
        np.less(t_k, 1e-14, out=done_k)
        # nxt = w - f / (1 + 1 / (w (1 + w))); IEEE + and * commute exactly
        np.add(w_k, 1.0, out=t_k)
        np.multiply(w_k, t_k, out=t_k)
        np.divide(1.0, t_k, out=t_k)
        np.add(t_k, 1.0, out=t_k)
        np.divide(f_k, t_k, out=t_k)
        np.subtract(w_k, t_k, out=nxt_k)
        # The fallback, where the step leaves the bracket of an element not
        # done by |f|. A Newton point inside the bracket is neither w, now
        # an end of it, nor 0.0 <= lo, so only a fallback point can stop an
        # element by nxt == w or nxt == 0.0.
        np.less(lo_k, nxt_k, out=inside_k)
        np.less(nxt_k, hi_k, out=spare_k)
        np.logical_and(inside_k, spare_k, out=inside_k)
        np.logical_or(inside_k, done_k, out=inside_k)
        if not inside_k.all():
            out = np.flatnonzero(~inside_k)
            lo_o, hi_o, w_o = lo_k[out], hi_k[out], w_k[out]
            nxt_o = np.where(np.isfinite(hi_o), 0.5 * (lo_o + hi_o), 2.0 * w_o)
            nxt_k[out] = nxt_o
            done_k[out] = (nxt_o == w_o) | (nxt_o == 0.0)
        if not done_k.any():
            w, nxt = nxt, w
            continue
        if done_k.all():
            y[act] = w_k / (1.0 + w_k)
            break
        w_done = w_k[done_k]
        y[act[done_k]] = w_done / (1.0 + w_done)
        go = np.logical_not(done_k, out=spare_k)
        act = act[go]
        k = act.size
        # Boolean indexing copies before the write, so overlap is safe.
        w[:k], lx[:k], lo[:k], hi[:k] = nxt_k[go], lx_k[go], lo_k[go], hi_k[go]
    else:
        if k:
            raise SolverError(f"share iteration stalled at lx={lx[0]}")
    if (y == 1.0).any():
        raise DomainError(_SHARE_ROUNDS_TO_ONE)
    return y


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Sums over the second-to-last axis of a C-ordered block, adding its rows in order.

    numpy reduces an axis that is not the innermost one row by row, so each
    element is ((row 0 + row 1) + row 2) + ... . A block one column wide
    loses its innermost axis, and numpy would then sum the rows pairwise, so
    that block is accumulated instead.
    """
    if block.shape[-1] == 1:
        return np.add.accumulate(block, axis=-2)[..., -1, :]
    return np.add.reduce(block, axis=-2)


def _solve_mask_block(theta: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Demands (n, len(masks)) and total revenues of one block of masks."""
    n = theta.size
    off = theta - 1.0
    member = (masks >> np.arange(n)[:, None] & 1).astype(bool)
    k = masks.size
    q0, lo, hi = np.full(k, 0.5), np.zeros(k), np.ones(k)
    lq = np.empty(k)  # ln q0 of each mask's latest round
    shares = np.zeros((n, k))  # each mask's shares at its latest q0
    act = np.arange(k)
    share = True  # masks may meet at one q0 until a round finds none that do
    for _ in range(_Q0_MAX_ITER):
        m = np.take(member, act, axis=1)
        qa = q0[act]
        # Row 0 of each (n + 1, k) block is the start of a sum, and rows 1..n
        # are the members' terms in ascending position, as the scalar loop
        # adds them. A non-member's term is +0.0, which leaves the sum as is.
        # The block is allocated after the share solve, the peak of a round.
        if share:
            # One ln q0 per distinct q0, one share per (q0, member item).
            distinct, at = np.unique(qa, return_inverse=True)
            share = distinct.size < qa.size
            ln_q0 = _libm(math.log, distinct)
            needed = np.zeros((distinct.size, n), dtype=bool)
            items, cols = np.nonzero(m)
            needed[at[cols], items] = True
            del items, cols
            solved = _shares_from_log((ln_q0[:, None] + off)[needed])
            table = np.zeros(needed.shape)
            table[needed] = solved
            del solved, needed
            ln_q = ln_q0[at]
            terms = np.empty((2, n + 1, act.size))
            y = terms[0, 1:]
            # Shares are finite and >= +0.0, so y * False is +0.0. The
            # indices are valid; mode="raise" would copy through a buffer.
            np.take(table.T, at, axis=1, out=y, mode="clip")
            np.multiply(y, m, out=y)
            del table
        else:
            ln_q = _libm(math.log, qa)
            solved = _shares_from_log((ln_q + off[:, None])[m])
            terms = np.empty((2, n + 1, act.size))
            y = terms[0, 1:]
            y[...] = 0.0
            y[m] = solved
            del solved
        lq[act] = ln_q
        shares[:, act] = y
        terms[0, 0] = qa - 1.0
        terms[1, 0] = 1.0
        w = y / (1.0 - y)
        np.divide(y, (1.0 + w * (1.0 + w)) * qa, out=terms[1, 1:])
        h, slope = _row_sums(terms)
        up = h > 0.0
        if (up & (qa < sys.float_info.min)).any():
            raise DomainError(_Q0_SUBNORMAL)
        hi_a = np.where(up, qa, hi[act])
        lo_a = np.where(up, lo[act], qa)
        nxt = qa - h / slope
        nxt = np.where((lo_a < nxt) & (nxt < hi_a), nxt, 0.5 * (lo_a + hi_a))
        del terms, y, w  # not live through the next round's share solve
        go = ~((np.abs(h) < 1e-13) | (nxt == qa))
        act = act[go]
        q0[act], lo[act], hi[act] = nxt[go], lo_a[go], hi_a[go]
        if not act.size:
            break
    else:
        raise SolverError("no-purchase share iteration did not converge")
    # The final demands take ln q0 + theta - 1.0 in that order; wherever it
    # equals the last round's ln q0 + (theta - 1.0) bit for bit, that
    # round's share is the demand already.
    final = lq + theta[:, None] - 1.0
    redo = member & (final.view(np.int64) != (lq + off[:, None]).view(np.int64))
    shares[redo] = _shares_from_log(final[redo])
    revenue = np.empty((n + 1, k))
    revenue[0] = 0.0
    np.divide(shares, 1.0 - shares, out=revenue[1:])
    return shares, _row_sums(revenue)


def _solve_masks(qualities: Sequence[float], masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equilibria of many assortments at once, bit-identical to _solve_outcome.

    ``masks`` holds nonempty bitmasks over catalog positions (bit i = item
    i). Returns the (n, len(masks)) demand matrix, exactly 0.0 off each
    mask's members, and the total revenues. Every mask runs the scalar
    solver's iterate sequence: the no-purchase Newton with its bracket,
    bisection and stop rules over a shrinking set of active masks, and
    inside each round the share Newton of _shares_from_log over the member
    entries. Masks that reach a round at the same q0 take one ln q0 and
    solve each member item's share once: a share depends only on
    ln q0 + (theta_i - 1), so sharing it cannot move a bit, and in the
    first rounds, whose q0 are 0.5 and the bisection points, it skips most
    solves. Once a round finds every q0 distinct, later rounds skip the
    search and solve each mask's shares directly. numpy does the control
    flow and all + - * / and comparisons, which are IEEE-exact; every exp,
    log and log1p is libm's, through numpy's scalar loop or, if that fails
    its probe against math, one math call per element (see _libm). Sums
    add in member order from the same start: each round's h and slope, and
    the revenue totals, are one axis reduction over a C-ordered (n + 1, k)
    block whose row 0 is the start (q0 - 1, 1.0 and +0.0) and whose other
    rows are the items' terms, +0.0 off the members (see _row_sums). No
    start is -0.0, so adding a non-member's +0.0 leaves every sum as the
    scalar loop has it.
    Masks are solved in blocks of _MASK_BLOCK to bound the temporaries,
    and no round's sum block is live during a share solve, the peak of a
    round.
    Raises what the scalar path raises: SolverError at either iteration cap,
    and DomainError where a share rounds to 1 or q0 is subnormal.
    """
    theta = np.asarray(qualities, dtype=float)
    masks = np.asarray(masks, dtype=np.int64)
    demands = np.empty((theta.size, masks.size))
    revenues = np.empty(masks.size)
    with np.errstate(all="ignore"):
        for start in range(0, masks.size, _MASK_BLOCK):
            block = slice(start, start + _MASK_BLOCK)
            demands[:, block], revenues[block] = _solve_mask_block(theta, masks[block])
    return demands, revenues


_outcome_cached = lru_cache(maxsize=100_000)(_solve_outcome)


def equilibrium_outcome(catalog: ItemCatalog, members: Iterable[int]) -> EquilibriumOutcome:
    """Equilibrium demands q_i, prices 1/(1-q_i), and revenues q_i/(1-q_i).

    Results are memoized per (catalog, assortment); outcomes are immutable
    so sharing is safe.
    """
    return _outcome_cached(catalog, validate_assortment(catalog, members))


def perishable_outcome(catalog: ItemCatalog, members: Iterable[int]) -> EquilibriumOutcome:
    """Equilibrium when each seller bears a production cost for unsold units.

    The cost beta_i shifts seller i's equilibrium price and revenue down by
    beta_i while leaving demands unchanged; revenues may go negative.
    """
    if catalog.costs is None:
        raise DomainError("catalog has no production costs")
    base = equilibrium_outcome(catalog, members)
    betas = [catalog.costs[i] for i in base.members]
    prices = tuple(p - b for p, b in zip(base.prices, betas))
    revenues = tuple(r - b for r, b in zip(base.revenues, betas))
    return EquilibriumOutcome(members=base.members, q0=base.q0, demands=base.demands,
                              prices=prices, revenues=revenues,
                              total_revenue=_sequential_sum(revenues))


def mnl_demand(qualities: Sequence[float], prices: Sequence[float]) -> list[float]:
    """Raw MNL purchase probabilities at arbitrary posted prices.

    q_i = e^{theta_i - p_i} / (1 + sum_j e^{theta_j - p_j}); the implied
    no-purchase share is 1 - sum(q). Exponents are shifted by their maximum
    before summing so arbitrarily large qualities stay finite.
    """
    _, weights, denom = _shifted_exp(_utilities(qualities, prices))
    return [w / denom for w in weights]


def price_game_potential(qualities: Sequence[float], prices: Sequence[float]) -> float:
    """Potential of the price game: prod_j p_j e^{theta_j - p_j} / denom.

    A unilateral move p_i -> p_i' changes ln(potential) by exactly
    ln r_i(p) - ln r_i(p'), so best responses climb it and converge.
    """
    prices = sequence(prices, "prices")  # read again below, so a one-shot iterator must be read once
    utils = _utilities(qualities, prices)
    if any(p <= 0.0 for p in prices):
        raise DomainError("potential requires strictly positive prices")
    log_num = _sequential_sum(math.log(p) + u for p, u in zip(prices, utils))
    shift, _, denom = _shifted_exp(utils)
    return math.exp(log_num - (shift + math.log(denom)))


def _utilities(qualities: Sequence[float], prices: Sequence[float]) -> list[float]:
    """theta_j - p_j of each seller, read with real_number from two sequences of equal length."""
    qualities, prices = sequence(qualities, "qualities"), sequence(prices, "prices")
    if len(qualities) != len(prices):
        raise DomainError("qualities and prices must be sequences of equal length")
    return [real_number(t, "qualities") - real_number(p, "prices") for t, p in zip(qualities, prices)]


def _shifted_exp(utils: Sequence[float]) -> tuple[float, list[float], float]:
    """(shift, e^{u - shift}, e^{-shift} + their sum) for shift = max(0, max u), so no exp overflows."""
    shift = max(0.0, max(utils, default=0.0))
    weights = [math.exp(u - shift) for u in utils]
    return shift, weights, math.exp(-shift) + _sequential_sum(weights)


def best_response_price(qualities: Sequence[float], prices: Sequence[float], i: int) -> float:
    """Revenue-maximizing price for seller i against fixed rival prices.

    Maximizes p * q_i(p) over [0, P_max]; the first-order condition
    1 - p(1 - q_i(p)) = 0 has a single sign change because its left side is
    strictly decreasing, so a bracketed Newton iteration suffices.
    """
    qualities = sequence(qualities, "qualities")  # read again below, as in price_game_potential
    utils = _utilities(qualities, prices)
    (i,) = distinct_indices((i,), len(utils), "seller index")
    p_max = max(20.0, max(qualities) + 20.0)
    # log of the rival-plus-outside weight: ln(1 + sum_{j != i} e^{theta_j - p_j})
    shift, _, denom = _shifted_exp(utils[:i] + utils[i + 1:])
    log_rival = shift + math.log(denom)
    theta = real_number(qualities[i], "qualities")

    def share(p: float) -> float:
        z = theta - p - log_rival
        if z > 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def minus_g_and_slope(p: float) -> tuple[float, float]:
        # g = 1 - p(1 - q) decreases in p; _newton takes -g.
        q = share(p)
        return -(1.0 - p * (1.0 - q)), (1.0 - q) * (1.0 + p * q)

    # Start at the price the share at min(2, p_max) would support; when that
    # share rounds to 1 the price does not exist, so start at the top.
    q = share(min(2.0, p_max))
    p = p_max if q == 1.0 else min(p_max, 1.0 / (1.0 - q))
    return _newton(minus_g_and_slope, p, 0.0, p_max, 1e-13,
                   "best response iteration did not converge")


def quality_for_target_revenue(r: float) -> float:
    """Quality theta whose solo-assortment equilibrium revenue equals r.

    Closed form theta = 1 + r + ln r, from q/(1-q) = r and the equilibrium
    fixed point. Rejects r below 1e-12 where ln r underflows usefulness.
    """
    r = real_number(r, "target revenue")
    if not math.isfinite(r) or r < 1e-12:
        raise DomainError(f"target revenue must be >= 1e-12, got {r}")
    return 1.0 + r + math.log(r)


def solo_revenue_for_quality(theta: float) -> float:
    """Solo equilibrium revenue q/(1-q) for one item of quality theta.

    Inverse of :func:`quality_for_target_revenue`: solves r + ln r = theta - 1
    in r-space, which stays stable for arbitrarily large theta where the
    general q0 route would overflow. Below ln of the least subnormal the
    root rounds to e^{theta - 1}, which is then 0.0 or the least subnormal:
    Newton could only bisect it to 0.0, where ln r does not exist.
    """
    target = real_number(theta, "quality") - 1.0
    if not math.isfinite(target):
        raise DomainError("quality must be finite")
    # r + ln r is increasing; Newton from r ~ target or e^{target}.
    r = target if target > 1.0 else math.exp(min(target, 1.0))
    if target < _LN_LEAST_SUBNORMAL:
        return r
    return _newton(lambda r: (r + math.log(r) - target, 1.0 + 1.0 / r),
                   r, 0.0, math.inf, 1e-12 * max(1.0, abs(target)),
                   "solo revenue iteration did not converge")
