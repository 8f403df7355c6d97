"""End-to-end benchmark of the mnlmarkets CLI on seeded workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/mnlmarkets``. Every pass is
a fresh interpreter (perfbench/worker.py) that imports the package and writes
the inputs for the seed; a full pass then runs every job through
``mnlmarkets.cli.main``, so caches start cold in every pass exactly as they do
for a user's CLI process. A run makes SETUP_PASSES set-up-only passes, then
full passes until S seconds have gone by; they give the end-to-end metrics.
With ``--trace 1`` two traced passes follow; they must agree on every exact
counter and reproduce the untraced output bytes, and they give the per-layer
metrics.

Times are normalised to the host's speed: other tenants of a shared host can
slow a pure-Python loop by 1.7x for tens of seconds, so every job's wall time
is scaled by REFERENCE_CAL_S over the calibration loop time measured around
that job, and set-up time by the calibration right after it. The figures
read as seconds on the host at full speed; the raw ones are printed too.

The last line of standard output is the result as one JSON object; the lines
before it name every metric with its unit, and the run's metadata. The full
result, with per-job digests, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import is_exact
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0  # the seed whose output digests are committed in digests.json
PASS_TIMEOUT_S = 150
SETUP_PASSES = 5  # set-up-only passes per run, so that setup_s is a median of several
# worker.calibrate() on an uncontended core of a 2-core Intel Xeon host, CPython 3.11.
REFERENCE_CAL_S = 0.0065


def source_digest() -> str:
    """sha256 over the package sources, which names the code in a checkout without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "mnlmarkets")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_pass(workload: str, seed: int, mode: str, workdir: str) -> dict:
    """Run one pass (mode run, trace or setup) in a fresh interpreter; return its result."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, TMPDIR=workdir, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir],
        env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S, check=True,
    )
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def median_job_wall(passes: list[dict], normalise: bool) -> float:
    """Sum over jobs of each job's median wall time across the passes.

    Contention comes in bursts, so a per-job median drops a burst that hit
    one job of one pass, where a per-pass total would keep it.
    """
    def wall(run):
        return run["wall_s"] * REFERENCE_CAL_S / run["cal_s"] if normalise else run["wall_s"]

    return sum(statistics.median(wall(p["runs"][j]) for p in passes)
               for j in range(len(passes[0]["runs"])))


def check_runs(passes: list[dict], committed: dict | None) -> list[str]:
    """Failed job runs: a failed check, or bytes that differ from the first
    pass or, for the default seed, from the committed digest."""
    reference = {run["job"]: run["sha256"] for run in passes[0]["runs"]}
    failures = []
    for number, result in enumerate(passes):
        for run in result["runs"]:
            error = run["error"]
            if error is None and run["sha256"] != reference[run["job"]]:
                error = "output bytes differ from the first pass"
            if error is None and committed is not None and run["sha256"] != committed.get(run["job"]):
                error = "output bytes differ from the committed digest"
            if error is not None:
                failures.append(f"pass {number} job {run['job']}: {error}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mnlmarkets", "__init__.py")):
        print(f"error: no src/mnlmarkets under {ROOT}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        committed = json.load(fh)[args.workload] if args.seed == DEFAULT_SEED else None

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    plain, traced = [], []
    try:
        setups = [run_pass(args.workload, args.seed, "setup", workdir) for _ in range(SETUP_PASSES)]
        began = time.perf_counter()
        while not plain or time.perf_counter() - began < args.seconds:
            plain.append(run_pass(args.workload, args.seed, "run", workdir))
        if args.trace:
            for _ in range(2):
                traced.append(run_pass(args.workload, args.seed, "trace", workdir))
            shutil.copyfile(os.path.join(workdir, "spans.npz"),
                            os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_runs(plain + traced, committed)
    attempted = sum(len(result["runs"]) for result in plain + traced)
    work = sum(run["work"] for run in plain[0]["runs"])
    end_to_end = {
        "work_per_s": (work / median_job_wall(plain, True), "work/s"),
        "setup_s": (statistics.median(r["setup_s"] * REFERENCE_CAL_S / r["setup_cal_s"]
                                      for r in setups + plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    shown = {
        **end_to_end,
        spec.work_metric: (end_to_end["work_per_s"][0], spec.work_unit),
        "raw_work_per_s": (work / median_job_wall(plain, False), "work/s"),
        "raw_setup_s": (statistics.median(r["setup_s"] for r in setups + plain), "s"),
        "error_rate": (len(failures) / attempted, "ratio"),
    }

    layers = {}
    problems = []  # exact counters that do not repeat
    if args.trace:
        first, second = ({name: value for name, (value, _) in r["layers"].items()}
                         for r in traced)
        for name, (value, unit) in traced[0]["layers"].items():
            if not is_exact(name):
                value = (first[name] + second[name]) / 2.0
            elif first[name] != second[name]:
                problems.append(f"exact counter {name} differs between traced passes: "
                                f"{first[name]} vs {second[name]}")
            layers[name] = (value, unit)
        overhead = median_job_wall(traced, True) / median_job_wall(plain, True) - 1.0
        layers["trace.overhead_ratio"] = (overhead, "ratio")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(plain[0]["runs"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "absent": traced[0]["absent"] if traced else [],
    }
    for name, (value, unit) in {**shown, **layers}.items():
        print(f"{name:48s} {value!r} {unit}")
    for failure in failures + problems:
        print(f"FAILED {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))

    reported = layers if args.trace else end_to_end
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "meta": meta, "shown": shown, "passes": plain + traced}, fh, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
