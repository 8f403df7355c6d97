"""Clairvoyant LP benchmark for the online assortment problem.

The benchmark is a packing LP over one column per nonempty assortment S:
column S consumes the equilibrium demand vector q(S) from each item's
inventory and earns the equilibrium revenue R(S). With identical buyers the
per-buyer probability simplexes collapse exactly into a single mass budget,
so the LP has variables z(S) >= 0 with

    max  sum_S R(S) z(S)
    s.t. sum_S q_i(S) z(S) <= c_i   for every item i
         sum_S z(S)        <= m,

whose optimum upper-bounds the expected revenue of any policy that knows the
buyer count and inventories but not the realized choices. A fixed-revenue
variant replaces R(S) by sum_i r_i q_i(S).

The columns of a catalog are stored as one (n, 2^n - 1) demand matrix and
one revenue vector, in bitmask order: the LP, the CLI and the lockstep
simulation engine all read these arrays. Catalogs of _BATCH_MIN_ITEMS items
or more are solved by the batched kernel ``equilibrium._solve_masks``, which
repeats the scalar solver's iterates for every mask (numpy for the control
flow and the exact + - * /, and libm's own exp, log and log1p through
numpy's scalar loop, checked against math on first use), so both paths
give the same bits; smaller catalogs run the scalar solver per mask, where
batching costs more than it saves.

The LP takes finite data and is solved by a dense-tableau simplex with
Bland's anti-cycling rule. The tableau has n + 2 rows but one column per
assortment, so a pivot costs its row updates over the full width plus a
fixed interpreter cost that the loop keeps to a few numpy calls. A rule
with fewer pivots would round differently, and the reported bits would change.
A reduced cost enters below -1e-9 * min(1, max|c|): the entering tolerance
scales with an objective whose entries all lie below 1, so an LP of small
values is not stopped at 0.0 before its first pivot, and from max|c| = 1 up
it is the absolute 1e-9. The ratio test's 1e-9 does not scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibrium import (DomainError, ItemCatalog, SolverError, _solve_masks, _solve_outcome, distinct_indices,
                          real_array, real_number, whole_number)

_MAX_COLUMNS_EXPONENT = 20
# Smallest catalog enumerated by the batched kernel, which costs about 0.6 ms
# of numpy calls per catalog. Median time per catalog over 5 random catalogs
# with qualities on U(-2, 3.5), scalar loop vs batch (2-core x86-64 Xeon,
# Python 3.11, numpy 2.4): n = 1 0.01 vs 0.65 ms, n = 5 1.05 vs 1.28 ms,
# n = 6 2.58 vs 1.51 ms, n = 12 324 vs 29 ms.
_BATCH_MIN_ITEMS = 6
_PIVOT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ColumnSet:
    """All 2^n - 1 nonempty assortment columns of a catalog, as two arrays.

    Column j is the assortment whose bitmask is j + 1 (bit i = catalog
    position i). ``demands`` is the (n, 2^n - 1) matrix of q_i(S), exactly
    0.0 off the members of S, and ``revenues`` holds R(S); both are made
    read-only, because enumerate_columns hands the same set to every caller.
    """

    catalog: ItemCatalog
    demands: np.ndarray
    revenues: np.ndarray

    def __post_init__(self):
        for name in ("demands", "revenues"):
            array = real_array(getattr(self, name), name)
            array.setflags(write=False)
            # A view of a read-only array cannot be made writable again.
            object.__setattr__(self, name, array[...])
        k = (1 << len(self.catalog)) - 1
        if self.demands.shape != (len(self.catalog), k) or self.revenues.shape != (k,):
            raise DomainError("column arrays must be (n, 2^n - 1) demands and 2^n - 1 revenues")

    def members(self, j: int) -> tuple[int, ...]:
        """Sorted catalog positions of column j, an index in [0, 2^n - 1), decoded from bitmask j + 1."""
        mask = distinct_indices((j,), self.revenues.size, "column")[0] + 1
        return tuple(i for i in range(len(self.catalog)) if mask >> i & 1)

    @property
    def columns(self) -> np.ndarray:
        """The read-only (2^n - 1, n) view ``demands.T``: row j holds column j's demands."""
        return self.demands.T


@dataclass(frozen=True)
class LpSolution:
    """Optimal collapsed-LP point: objective, column masses, row duals, pivots made."""

    objective: float
    masses: tuple[float, ...]
    inventory_duals: tuple[float, ...]
    mass_dual: float
    iterations: int


@dataclass(frozen=True)
class SimplexResult:
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int


def simplex_solve(rows: np.ndarray, rhs: np.ndarray, objective: np.ndarray) -> SimplexResult:
    """Maximize objective @ x subject to rows @ x <= rhs, x >= 0.

    Takes finite data only (DomainError otherwise) with rhs >= 0, so the
    slack basis is feasible. Dense tableau with Bland's rule (lowest-index
    entering and leaving variable), which cannot cycle. Raises SolverError
    on an unbounded direction, or when a pivot overflows the floating range.

    Each pivot costs a few numpy calls and one short Python loop: the
    entering column is the first True of one comparison, written into a
    kept boolean buffer, the ratio test (_leaving_row) runs on Python
    floats, and each row is updated in place through a view made once per
    solve, as t[k] - g_k * t[r] with the same two roundings the
    whole-array expression makes. The pivot column is copied once into a
    kept buffer, and the divisor t[r, j] and each multiplier g_k reach
    numpy as 0-d views of it: a Python float operand costs numpy a
    conversion on every call, and the values, hence the bits, are the same.
    """
    a, b, c = (real_array(v, "LP data must be finite") for v in (rows, rhs, objective))
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise DomainError("inconsistent LP dimensions")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise DomainError("LP data must be finite")
    if np.any(b < 0):
        raise DomainError("rhs must be nonnegative for a slack start")
    m, n = a.shape
    # Tableau: columns [structural | slack | rhs]; last row holds reduced
    # costs (c_B B^-1 A - c), so optimality is "all >= -tol".
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[-1, :n] = -c
    basis = list(range(n, n + m))
    red, values, tableau_rows = t[-1, :-1], t[:m, -1], list(t)
    product = np.empty(n + m + 1)
    entering = np.empty(n + m, dtype=bool)
    below = np.array(-_PIVOT_TOL * min(1.0, float(np.abs(c).max(initial=0.0))))
    pivot_col = np.empty(m + 1)
    factors = [pivot_col[k, ...] for k in range(m + 1)]  # 0-d views

    # Stop at the first overflow, so every entry the ratio test reads is finite.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for iteration in range(100_000):
                np.less(red, below, out=entering)
                j = int(entering.argmax())  # Bland: lowest index enters
                if not entering[j]:
                    break
                pivot_col[:] = t[:, j]
                col = pivot_col.tolist()
                r = _leaving_row(col, values.tolist(), basis)
                pivot_row = tableau_rows[r]
                np.divide(pivot_row, factors[r], out=pivot_row)
                for k, g in enumerate(col):
                    if k != r and g != 0.0:
                        np.multiply(pivot_row, factors[k], out=product)
                        np.subtract(tableau_rows[k], product, out=tableau_rows[k])
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


def _leaving_row(col: list[float], values: list[float], basis: list[int]) -> int:
    """Bland's ratio test: the row of least values[k] / col[k] over col[k] > tol.

    Ratios within a relative 1e-12 (plus 1e-15) of the least one tie, and
    the tied row with the lowest basic index leaves. The entries are finite,
    and Python floats do not raise where numpy does under the caller's
    errstate, so this raises FloatingPointError where numpy's division or
    tie cut would overflow.
    """
    ratios = [math.inf] * len(values)
    bounded = False
    for k, v in enumerate(values):
        g = col[k]
        if g > _PIVOT_TOL:
            bounded = True
            q = ratios[k] = v / g
            if not math.isfinite(q):
                raise FloatingPointError("overflow in the ratio test")
    if not bounded:
        raise SolverError("LP is unbounded")
    cut = min(ratios) * (1 + 1e-12) + 1e-15
    if math.isinf(cut):
        raise FloatingPointError("overflow in the ratio test")
    return min((k for k, q in enumerate(ratios) if q <= cut), key=basis.__getitem__)


@lru_cache(maxsize=1)
def enumerate_columns(catalog: ItemCatalog) -> ColumnSet:
    """Solve every nonempty assortment and store it as an LP column.

    Only the last catalog's columns are kept: a command reuses the columns
    of the one catalog it works on (``opt`` solves and then lists the
    support, ``simulate`` solves and then builds its choice tables), and
    at the 20-item cap one set takes 168 MB. Capped at 20 items (about a
    million columns) to bound memory. Columns
    are ordered by subset bitmask, which fixes the LP column order and hence
    the reported masses. From _BATCH_MIN_ITEMS items on, all masks are
    solved together by ``_solve_masks``, in blocks that bound its
    temporaries; below that, each mask goes through the scalar
    ``_solve_outcome``. Both give the same bits, and neither passes through
    the per-assortment outcome cache, so the arrays are the only copy of the
    2^n - 1 outcomes.
    """
    n = len(catalog)
    if n > _MAX_COLUMNS_EXPONENT:
        raise DomainError(f"column enumeration capped at {_MAX_COLUMNS_EXPONENT} items")
    if n >= _BATCH_MIN_ITEMS:
        demands, revenues = _solve_masks(catalog.qualities, np.arange(1, 1 << n))
        return ColumnSet(catalog=catalog, demands=demands, revenues=revenues)
    demands = np.zeros((n, (1 << n) - 1))
    revenues = np.empty((1 << n) - 1)
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        out = _solve_outcome(catalog, members)
        demands[members, mask - 1] = out.demands
        revenues[mask - 1] = out.total_revenue
    return ColumnSet(catalog=catalog, demands=demands, revenues=revenues)


def _solve_columns(cols: ColumnSet, m: int, values: np.ndarray) -> LpSolution:
    m = whole_number(m, "buyer count")
    if m < 1:
        raise DomainError(f"buyer count must be >= 1, got {m}")
    a = cols.demands
    rows = np.vstack([a, np.ones((1, a.shape[1]))])
    res = simplex_solve(rows, [*cols.catalog.inventories, m], values)
    return LpSolution(
        objective=res.objective,
        masses=tuple(res.x.tolist()),
        inventory_duals=tuple(res.duals[:-1].tolist()),
        mass_dual=float(res.duals[-1]),
        iterations=res.iterations,
    )


def solve_opt(catalog: ItemCatalog, m: int) -> LpSolution:
    """Optimal clairvoyant value for m identical buyers."""
    cols = enumerate_columns(catalog)
    return _solve_columns(cols, m, cols.revenues)


def solve_opt_fixed_rev(catalog: ItemCatalog, m: int, r: Sequence[float]) -> LpSolution:
    """Clairvoyant value when item i earns a constant r_i per sale.

    Adds r_i * q_i(S) over whole demand rows from 0.0: a non-member's 0.0
    demand adds a signed zero, so each value has the bits of the sum over
    the members of S alone, in member order.
    Each r_i must be finite, which also keeps inf * 0.0 out of those rows.
    """
    if len(r) != len(catalog):
        raise DomainError("fixed revenue vector must have one entry per item")
    r = [real_number(r_i, "fixed revenues") for r_i in r]
    if not all(map(math.isfinite, r)):
        raise DomainError("fixed revenues must be finite")
    cols = enumerate_columns(catalog)
    values = np.zeros(cols.revenues.size)
    for r_i, demands in zip(r, cols.demands):
        values += r_i * demands
    return _solve_columns(cols, m, values)
