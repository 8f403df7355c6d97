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
simulation engine all read these arrays, and ``ColumnSet.columns`` builds a
Column record only when one is indexed. Catalogs of _BATCH_MIN_ITEMS items
or more are solved by the batched kernel ``equilibrium._solve_masks``, which
repeats the scalar solver's iterates for every mask (numpy for the control
flow and the exact + - * /, libm per element for exp, log and log1p), so
both paths give the same bits; smaller catalogs run the scalar solver per
mask, where batching costs more than it saves.

The LP is solved by a dense-tableau simplex with Bland's anti-cycling rule;
scales here are tiny (n + 1 rows), so determinism beats speed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibrium import DomainError, ItemCatalog, SolverError, _solve_masks, _solve_outcome

_MAX_COLUMNS_EXPONENT = 20
# Smallest catalog enumerated by the batched kernel, which costs about 1 ms
# of numpy calls per catalog. Median time per catalog, scalar loop vs batch
# (2-core x86-64, Python 3.11, numpy 2.4): n = 1 0.03 vs 1.1 ms, n = 5 1.4
# vs 2.0 ms, n = 6 2.6 vs 2.3 ms, n = 12 546 vs 218 ms.
_BATCH_MIN_ITEMS = 6
_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class Column:
    """One assortment column: members, their demands, and the revenue."""

    members: tuple[int, ...]
    demands: tuple[float, ...]
    revenue: float

    def fixed_revenue(self, r: Sequence[float]) -> float:
        """Column value when item i pays a constant r_i per sale.

        Adds r_i * q_i in member order from 0.0, the order in which
        solve_opt_fixed_rev sums the same values over whole arrays.
        """
        total = 0.0
        for i, q in zip(self.members, self.demands):
            total += r[i] * q
        return total


class _ColumnView(Sequence):
    """Read-only sequence of the Column records of a ColumnSet, each built on access."""

    def __init__(self, columns: ColumnSet):
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.revenues.size

    def __getitem__(self, j: int) -> Column:
        j = range(len(self))[j]  # bounds-checked; negative indices count from the end
        cols = self._columns
        members = cols.members(j)
        return Column(members=members, demands=tuple(cols.demands[members, j].tolist()),
                      revenue=float(cols.revenues[j]))


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
            array = np.asarray(getattr(self, name), dtype=float)
            array.setflags(write=False)
            # A view of a read-only array cannot be made writable again.
            object.__setattr__(self, name, array[...])
        k = (1 << len(self.catalog)) - 1
        if self.demands.shape != (len(self.catalog), k) or self.revenues.shape != (k,):
            raise DomainError("column arrays must be (n, 2^n - 1) demands and 2^n - 1 revenues")

    def members(self, j: int) -> tuple[int, ...]:
        """Sorted catalog positions of column j, decoded from bitmask j + 1."""
        mask = j + 1
        return tuple(i for i in range(len(self.catalog)) if mask >> i & 1)

    @property
    def columns(self) -> Sequence[Column]:
        """The columns as Column records, built one at a time on access."""
        return _ColumnView(self)


@dataclass(frozen=True)
class LpSolution:
    """Optimal collapsed-LP point: objective, column masses, row duals."""

    objective: float
    masses: tuple[float, ...]
    inventory_duals: tuple[float, ...]
    mass_dual: float


@dataclass(frozen=True)
class SimplexResult:
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int


def simplex_solve(rows: np.ndarray, rhs: np.ndarray, objective: np.ndarray) -> SimplexResult:
    """Maximize objective @ x subject to rows @ x <= rhs, x >= 0.

    Requires rhs >= 0 so the slack basis is feasible. Dense tableau with
    Bland's rule (lowest-index entering and leaving variable), which cannot
    cycle. Raises SolverError on an unbounded direction.
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    c = np.asarray(objective, dtype=float)
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise DomainError("inconsistent LP dimensions")
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

    for iteration in range(100_000):
        red = t[-1, :-1]
        entering_candidates = np.nonzero(red < -_PIVOT_TOL)[0]
        if entering_candidates.size == 0:
            break
        j = int(entering_candidates[0])  # Bland: lowest index enters
        col = t[:m, j]
        positive = col > _PIVOT_TOL
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

    x = np.zeros(n + m)
    x[basis] = t[:m, -1]
    return SimplexResult(
        objective=float(t[-1, -1]),
        x=x[:n].copy(),
        duals=t[-1, n : n + m].copy(),
        iterations=iteration,
    )


@lru_cache(maxsize=32)
def enumerate_columns(catalog: ItemCatalog) -> ColumnSet:
    """Solve every nonempty assortment and store it as an LP column.

    Capped at 20 items (about a million columns) to bound memory. Columns
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
    if m < 1:
        raise DomainError(f"buyer count must be >= 1, got {m}")
    a = cols.demands
    rows = np.vstack([a, np.ones((1, a.shape[1]))])
    rhs = np.array(list(cols.catalog.inventories) + [float(m)], dtype=float)
    res = simplex_solve(rows, rhs, values)
    return LpSolution(
        objective=res.objective,
        masses=tuple(res.x.tolist()),
        inventory_duals=tuple(res.duals[:-1].tolist()),
        mass_dual=float(res.duals[-1]),
    )


def solve_opt(catalog: ItemCatalog, m: int) -> LpSolution:
    """Optimal clairvoyant value for m identical buyers."""
    cols = enumerate_columns(catalog)
    return _solve_columns(cols, m, cols.revenues)


def solve_opt_fixed_rev(catalog: ItemCatalog, m: int, r: Sequence[float]) -> LpSolution:
    """Clairvoyant value when item i earns a constant r_i per sale.

    Column values add r_i * q_i(S) over the members of S in position order
    from 0.0, exactly as Column.fixed_revenue does.
    """
    if len(r) != len(catalog):
        raise DomainError("fixed revenue vector must have one entry per item")
    cols = enumerate_columns(catalog)
    masks = np.arange(1, cols.revenues.size + 1)
    values = np.zeros(cols.revenues.size)
    for i, r_i in enumerate(r):
        holds = (masks >> i & 1).astype(bool)
        values[holds] += float(r_i) * cols.demands[i, holds]
    return _solve_columns(cols, m, values)
