"""Seeded inputs, job lists and output checks for the benchmark workloads.

A workload turns a seed into JSON input files and a fixed list of CLI jobs.
Every job names the work it represents, so throughput is work done per
second of job wall time, and carries a check that its output bytes must pass
for any seed. Generation uses only numpy's seeded PCG64 streams, so one seed
always gives the same files, byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

SIMULATE_HEADER = (
    "experiment,policy,threshold,buyers,replications,seed,"
    "opt,mean_revenue,std_error,ratio,ratio_std_error"
)
POLICIES = ("hybrid", "greedy", "modified")

# Criterion-7 catalogs of the acceptance suite: the README sweep catalog and
# the inventory-balancing catalog.
SWEEP_CATALOG = {"qualities": [3.0, 2.5, 2.0, 1.5, 1.0, 0.5, -0.5, -1.0, -1.5, -2.0],
                 "inventories": [15] * 10}
BALANCING_CATALOG = {"qualities": [2.1, 2.0, 2.0, 2.0, 2.0, 0.5, -0.5, -1.0, -1.5, -2.0],
                     "inventories": [20, 20, 20, 20, 20, 5, 5, 5, 5, 5]}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` lacks ``--out``, which the runner adds."""

    name: str
    argv: tuple[str, ...]
    work: float
    check: Callable[[bytes], str | None]
    processes: int = 1  # processes the job computes on, for calibration


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    work_metric: str
    generate: Callable[[np.random.Generator, str], list[Job]]


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _spread(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n values, one uniform draw from each of n equal slices of [lo, hi), shuffled.

    Stratified draws keep every seed's inputs alike in spread, so the seed
    moves throughput far less than independent draws would.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _catalog(rng: np.random.Generator, n: int, top_inventory: int) -> dict:
    """Qualities over U(-2, 3.5) and inventories over 1..top_inventory, stratified."""
    return {
        "schema": 1,
        "qualities": [round(float(x), 6) for x in _spread(rng, -2.0, 3.5, n)],
        "inventories": [int(x) for x in _spread(rng, 1, top_inventory + 1, n)],
    }


# ---------------------------------------------------------------- checks


def check_simulate(data: bytes, rows: int) -> str | None:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        return "simulate CSV header changed"
    if len(lines) != rows + 1:
        return f"expected {rows} simulate rows, got {len(lines) - 1}"
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != SIMULATE_HEADER.count(",") + 1:
            return f"malformed simulate row {line!r}"
        ratio = float(fields[9])
        if not (math.isfinite(ratio) and ratio > 0.0):
            return f"ratio {ratio} is not finite and positive"
    return None


def check_opt(data: bytes, buyers: int) -> str | None:
    doc = json.loads(data)
    if not (math.isfinite(doc["objective"]) and doc["objective"] > 0.0):
        return f"objective {doc['objective']} is not finite and positive"
    masses = [col["mass"] for col in doc["support"]]
    if any(z < 0.0 for z in masses):
        return "negative support mass"
    if sum(masses) > buyers * (1.0 + 1e-9):
        return f"support mass {sum(masses)} exceeds {buyers} buyers"
    return None


def check_segment(data: bytes) -> str | None:
    doc = json.loads(data)
    total = doc["total_revenue"]
    if not total <= doc["upper_bound"]:
        return f"total_revenue {total} above upper_bound {doc['upper_bound']}"
    if doc["lower_bound"] is not None and not total >= doc["lower_bound"]:
        return f"total_revenue {total} below lower_bound {doc['lower_bound']}"
    if not isinstance(doc.get("whole_converged"), bool):
        return "whole_converged not reported"
    return None


# ------------------------------------------------------------- generators


def _simulate_job(name: str, config: dict, workdir: str, workers: int) -> Job:
    path = _write_json(os.path.join(workdir, f"{name}.json"), config)
    buyers = config["buyers_sweep"] if "buyers_sweep" in config else [config["buyers"]]
    work = len(config["policy"]) * config["replications"] * sum(buyers)
    return Job(
        name=name,
        argv=("simulate", "--config", path, "--workers", str(workers)),
        work=float(work),
        check=partial(check_simulate, rows=len(config["policy"]) * len(buyers)),
        processes=workers,
    )


SIM_CORPUS_REPLICATIONS = 150


def _stratum(rng: np.random.Generator, lo: int, hi: int, index: int, strata: int) -> int:
    """An integer drawn uniformly from the index-th of `strata` equal slices of [lo, hi)."""
    width = (hi - lo) / strata
    return int(lo + width * (index + rng.random()))


def sim_corpus(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Criteria-5/6 style configs: 1-6 items, 5-50 buyers, threshold 0.63.

    The configs form a 6 x 6 grid of catalog size and buyer-count slice, so
    every seed carries the same mix of sizes and horizons; the seed draws the
    qualities, inventories, the buyer count within its slice and the
    simulation seed.
    """
    jobs = []
    for n in range(1, 7):
        for stratum in range(6):
            config = {
                "schema": 1,
                "catalog": _catalog(rng, n, 8),
                "policy": list(POLICIES),
                "threshold": 0.63,
                "buyers": _stratum(rng, 5, 51, stratum, 6),
                "replications": SIM_CORPUS_REPLICATIONS,
                "seed": int(rng.integers(0, 2**31)),
            }
            jobs.append(_simulate_job(f"corpus-n{n}-m{stratum}", config, workdir, workers=1))
    return jobs


SIM_SWEEP_BUYERS = [100, 300, 500]
SIM_SWEEP_REPLICATIONS = 100
POOL_WORKERS = 2  # one pool process per core of the 2-core host the workloads are sized for


def sim_sweep(rng: np.random.Generator, workdir: str) -> list[Job]:
    """The criterion-7 catalogs over a buyer sweep to 500, through a 2-process pool."""
    jobs = []
    for name, catalog in (("sweep", SWEEP_CATALOG), ("balancing", BALANCING_CATALOG)):
        config = {
            "schema": 1,
            "catalog": {"schema": 1, **catalog},
            "policy": list(POLICIES),
            "threshold": 0.5,
            "buyers_sweep": SIM_SWEEP_BUYERS,
            "replications": SIM_SWEEP_REPLICATIONS,
            "seed": int(rng.integers(0, 2**31)),
        }
        jobs.append(_simulate_job(name, config, workdir, workers=POOL_WORKERS))
    return jobs


LP_CATALOGS = 24


def lp_plan(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Fresh 10-12 item catalogs, each solved cold and then with fixed revenues.

    Catalog j has 10 + j mod 3 items and its cold solve takes its buyer count
    from slice j // 3 of eight equal slices of 20-200, so every seed
    enumerates the same number of columns over the same spread of horizons.
    """
    jobs = []
    for j in range(LP_CATALOGS):
        n = 10 + j % 3
        path = _write_json(os.path.join(workdir, f"catalog{j:02d}.json"), _catalog(rng, n, 19))
        buyers = _stratum(rng, 20, 201, j // 3, LP_CATALOGS // 3)
        jobs.append(Job(
            name=f"opt{j:02d}",
            argv=("opt", path, "--buyers", str(buyers)),
            work=1.0,
            check=partial(check_opt, buyers=buyers),
        ))
        jobs.append(Job(
            name=f"opt{j:02d}-fixed",
            argv=("opt", path, "--buyers", "100", "--fixed-rev", ",".join(["1"] * n)),
            work=1.0,
            check=partial(check_opt, buyers=100),
        ))
    return jobs


SEGMENT_MARKETS = 12


def market_segment(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Seeded bipartite markets for ``segment --compare``.

    Shapes follow a fixed Latin design over 12 equal slices each of 12-32
    sellers, 200-500 buyers and visibility density 0.3-1.0: market j takes
    seller slice j, buyer slice 7j mod 12 and density slice 5j+3 mod 12, so
    every seed covers the whole range with the same spread of sizes. The seed
    draws the point within each slice, the qualities U(-1, 2.3) (below the
    2.3 consistency limit), the visibility and stratified capacities 1..2m/n.
    """
    jobs = []
    k = SEGMENT_MARKETS
    for j in range(k):
        n = _stratum(rng, 12, 33, j, k)
        m = _stratum(rng, 200, 501, 7 * j % k, k)
        density = 0.3 + 0.7 * ((5 * j + 3) % k + rng.random()) / k
        theta = rng.uniform(-1.0, 2.3, (n, m))
        visible = rng.random((n, m)) < density
        capacities = _spread(rng, 1, 2 * m // n + 1, n)
        doc = {
            "schema": 1,
            "theta": [[round(float(x), 6) for x in row] for row in theta],
            "visibility": visible.tolist(),
            "capacities": [int(c) for c in capacities],
        }
        path = _write_json(os.path.join(workdir, f"market{j:02d}.json"), doc)
        jobs.append(Job(
            name=f"segment{j:02d}",
            argv=("segment", path, "--compare"),
            work=float(visible.sum()),
            check=check_segment,
        ))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-corpus", "buyer arrivals/s", "steps_per_s", sim_corpus),
        Workload("sim-sweep", "buyer arrivals/s", "steps_per_s", sim_sweep),
        Workload("lp-plan", "LP optima/s", "solves_per_s", lp_plan),
        Workload("market-segment", "visible pairs/s", "pairs_per_s", market_segment),
    )
}

_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


def generate(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` under ``workdir``; return its jobs."""
    rng = np.random.default_rng([int(seed), _TAGS[workload]])
    return WORKLOADS[workload].generate(rng, workdir)
