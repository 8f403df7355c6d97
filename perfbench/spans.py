"""Spans around the calls into each mnlmarkets module, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every module namespace that holds it (the defining module, every module that
imported it by name, and the ``simulate.POLICIES`` table), so calls made
through any of those names are recorded; ``restore`` puts the originals
back. A span is (id, name, parent id, job, start, end), kept in two flat
arrays until the run ends. Exact counters come only from return values and
from the public ``cache_info()`` of the lru wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("cli", "simulate", "policies", "equilibrium", "lp", "network", "segmentation")


def _sale_observer(counts: Counter, out, args) -> None:
    counts["simulate.sold_units"] += sum(out.sold_units)
    counts["simulate.steps"] += args[1].m


def _simplex_observer(counts: Counter, out, args) -> None:
    counts["lp.simplex_solve.iterations"] += out.iterations


def _network_observer(counts: Counter, out, args) -> None:
    counts["network.solve_network_equilibrium.sweeps"] += out.iterations
    counts["network.solve_network_equilibrium.unconverged"] += not out.converged


def _best_response_observer(counts: Counter, out, args) -> None:
    _, prices, i = args
    counts["network.seller_best_response.moved"] += abs(out - float(prices[i])) > 1e-9


def _flow_observer(counts: Counter, out, args) -> None:
    counts["segmentation.flow_units"] += out.value


# (module, function, observer). Functions listed only so that their own work
# is not booked to their caller carry no metric of their own.
TARGETS = (
    ("cli", "main", None),
    ("simulate", "estimate_ratio", None),
    ("simulate", "run_episode", _sale_observer),
    ("simulate", "sample_choice", None),
    ("policies", "hybrid_next", None),
    ("policies", "greedy_all_next", None),
    ("policies", "modified_hybrid_next", None),
    ("policies", "exponential_weight", None),
    ("equilibrium", "equilibrium_outcome", None),
    ("equilibrium", "validate_assortment", None),
    ("lp", "enumerate_columns", None),
    ("lp", "simplex_solve", _simplex_observer),
    ("lp", "solve_opt", None),
    ("lp", "solve_opt_fixed_rev", None),
    ("network", "solve_network_equilibrium", _network_observer),
    ("network", "seller_best_response", _best_response_observer),
    ("network", "network_demand", None),
    ("network", "seller_utility", None),
    ("segmentation", "segment_market", None),
    ("segmentation", "compare_segmented_vs_whole", None),
    ("segmentation", "build_flow_network", None),
    ("segmentation", "max_weight_flow", _flow_observer),
    ("segmentation", "equilibrate_pool", None),
)

# lru wrappers whose cache_info() feeds the cache counters.
CACHES = {
    "equilibrium.outcome_cache": ("equilibrium", "_outcome_cached"),
    "lp.column_cache": ("lp", "enumerate_columns"),
}


def load_modules() -> dict:
    return {name: importlib.import_module(f"mnlmarkets.{name}") for name in MODULES}


class Tracer:
    """Installs span-recording wrappers and summarises the spans they record."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.ids = array("i")  # span id, name index, parent id, job: 4 per span
        self.times = array("d")  # start, end: 2 per span
        self.job = -1
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = itertools.count().__next__
        self.caches = {}
        for label, (module, attr) in CACHES.items():
            fn = getattr(modules[module], attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[label] = fn
            else:
                self.absent.append(label)

    def _wrap(self, name: str, fn, observer):
        nid = len(self.names)
        self.names.append(name)
        next_id = self._next_id
        stack = self._stack
        push_ids, push_times = self.ids.extend, self.times.extend
        clock = time.perf_counter
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                push_ids((sid, nid, parent, tracer.job))
                push_times((start, end))
            if observer is not None:
                observer(counts, out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_columns(self, fn):
        """enumerate_columns: count the columns built on cache misses."""
        counts = self.counts

        def observed(catalog):
            misses = fn.cache_info().misses
            out = fn(catalog)
            if fn.cache_info().misses > misses:
                counts["lp.columns"] += len(out.columns)
            return out

        observed.cache_info = fn.cache_info
        return observed

    def install(self) -> None:
        for module, func, observer in TARGETS:
            original = getattr(self.modules[module], func, None)
            if original is None:
                self.absent.append(f"{module}.{func}")
                continue
            inner = original
            if (module, func) == ("lp", "enumerate_columns") and hasattr(original, "cache_info"):
                inner = self._wrap_columns(original)
            self._replace(original, self._wrap(f"{module}.{func}", inner, observer))

    def _replace(self, original, wrapped) -> None:
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        table = getattr(self.modules["simulate"], "POLICIES", {})
        for key, value in list(table.items()):
            if value is original:
                self._patches.append((table, key, original))
                table[key] = wrapped

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def function_stats(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per traced function.

        Self time is a span's duration minus the durations of the spans whose
        parent it is; spans nest strictly, so children never overlap.
        """
        ids = np.frombuffer(self.ids, dtype=np.int32).reshape(-1, 4)
        times = np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2)
        duration = times[:, 1] - times[:, 0]
        row = np.zeros(int(ids[:, 0].max()) + 1 if len(ids) else 0, dtype=np.int64)
        row[ids[:, 0]] = np.arange(len(ids))
        nested = ids[:, 2] >= 0
        covered = np.bincount(row[ids[nested, 2]], weights=duration[nested], minlength=len(ids))
        own = duration - covered
        calls = np.bincount(ids[:, 1], minlength=len(self.names))
        busy = np.bincount(ids[:, 1], weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(busy[k])) for k, name in enumerate(self.names)}

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each lru wrapper, from its cache_info()."""
        return {label: tuple(fn.cache_info()[:2]) for label, fn in self.caches.items()}

    def save(self, path: str) -> None:
        """Write every span: names table, (id, name, parent, job) rows, (start, end) rows."""
        np.savez(
            path,
            names=np.array(self.names),
            ids=np.frombuffer(self.ids, dtype=np.int32).reshape(-1, 4),
            times=np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2),
        )


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


# Exact counters: calls, solver iterations and sweeps, columns, flow units,
# cache misses and the sale ratio. Two runs of one seed must agree on them.
EXACT_SUFFIXES = (".calls", ".iterations", ".sweeps", ".unconverged", ".moved_ratio",
                  ".misses", ".hit_ratio", "lp.columns", "segmentation.flow_units",
                  "simulate.sale_ratio")


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES)


def layer_metrics(stats: dict, caches: dict, counts: Counter, child_cpu_s: float,
                  pool_workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A metric whose source (a traced function or an lru wrapper) no longer
    exists is left out, never reported as zero.
    """
    out: dict[str, tuple[float, str]] = {}

    def calls(fn):
        if fn in stats:
            out[f"{fn}.calls"] = (stats[fn][0], "count")

    def self_s(fn):
        if fn in stats:
            out[f"{fn}.self_s"] = (stats[fn][1], "s")

    for fn in ("cli.main", "simulate.run_episode", "simulate.sample_choice",
               "policies.hybrid_next", "policies.greedy_all_next",
               "policies.modified_hybrid_next", "policies.exponential_weight",
               "equilibrium.equilibrium_outcome", "lp.enumerate_columns", "lp.simplex_solve",
               "network.solve_network_equilibrium", "network.seller_best_response",
               "network.network_demand", "segmentation.equilibrate_pool"):
        calls(fn)
        self_s(fn)
    for fn in ("simulate.estimate_ratio", "network.seller_utility"):
        calls(fn)
    for fn in ("equilibrium.validate_assortment", "lp.solve_opt", "lp.solve_opt_fixed_rev",
               "segmentation.build_flow_network", "segmentation.max_weight_flow"):
        self_s(fn)

    if "simulate.run_episode" in stats:
        out["simulate.sale_ratio"] = (
            _ratio(counts["simulate.sold_units"], counts["simulate.steps"]), "ratio")
    if "simulate.estimate_ratio" in stats:
        wait = stats["simulate.estimate_ratio"][1]
        out["simulate.pool_wait_s"] = (wait, "s")
        out["simulate.child_cpu_s"] = (child_cpu_s, "s")
        out["simulate.pool_efficiency"] = (_ratio(child_cpu_s, pool_workers * wait), "ratio")
    if "equilibrium.outcome_cache" in caches:
        hits, misses = caches["equilibrium.outcome_cache"]
        out["equilibrium.outcome_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        out["equilibrium.outcome_cache.misses"] = (misses, "count")
    if "lp.column_cache" in caches:
        hits, misses = caches["lp.column_cache"]
        out["lp.column_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        out["lp.columns"] = (counts["lp.columns"], "count")
    if "lp.simplex_solve" in stats:
        out["lp.simplex_solve.iterations"] = (counts["lp.simplex_solve.iterations"], "count")
    if "network.solve_network_equilibrium" in stats:
        out["network.solve_network_equilibrium.sweeps"] = (
            counts["network.solve_network_equilibrium.sweeps"], "count")
        out["network.solve_network_equilibrium.unconverged"] = (
            counts["network.solve_network_equilibrium.unconverged"], "count")
    if "network.seller_best_response" in stats:
        out["network.seller_best_response.moved_ratio"] = (
            _ratio(counts["network.seller_best_response.moved"],
                   stats["network.seller_best_response"][0]), "ratio")
    if "segmentation.max_weight_flow" in stats:
        out["segmentation.flow_units"] = (counts["segmentation.flow_units"], "count")
    return out
