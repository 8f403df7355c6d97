"""One pass of a workload in a fresh interpreter, so every pass starts cold.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``run``, ``trace`` (run with spans) or ``setup`` (stop after set-up).

Imports mnlmarkets from the checkout's ``src``, writes the workload's inputs
under WORKDIR, runs every job in-process through ``mnlmarkets.cli.main`` and
writes WORKDIR/result.json. Set-up time runs from the first line of this
file to the first job, so it covers importing the package and writing the
inputs. A short calibration loop runs after set-up and before and after
every job, so that the runner can factor out how fast the host was running
at the time. In trace mode the spans go to WORKDIR/spans.npz.
"""

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _calibration_loop() -> float:
    """Median wall time of three rounds of the fixed loop, so one preempted
    round does not count."""
    import numpy

    rows = numpy.linspace(0.0, 1.0, 13 * 4096).reshape(13, 4096)
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(70_000):
            acc += i * i % 7
        for _ in range(40):
            for k in range(1, 13):
                rows[k] -= 1e-9 * rows[0]
        rounds.append(time.perf_counter() - start)
    return sorted(rounds)[1]


def calibrate(processes: int = 1) -> float:
    """The host's current speed: mean wall time of a fixed mix of interpreter
    work and small numpy row operations (the two kinds of work the workloads
    do), run at once in as many processes as the job computes on."""
    read, write = os.pipe()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            os.write(write, struct.pack("d", _calibration_loop()))
            os._exit(0)
        children.append(pid)
    os.close(write)
    times = [_calibration_loop()]
    with os.fdopen(read, "rb") as fh:
        times += [struct.unpack("d", fh.read(8))[0] for _ in children]
    for pid in children:
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, SRC)
    import mnlmarkets.cli
    import numpy

    if not os.path.abspath(mnlmarkets.__file__).startswith(SRC + os.sep):
        print(f"mnlmarkets imported from {mnlmarkets.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.generate(workload, seed, workdir)
    setup_s = time.perf_counter() - _START
    setup_cal_s = calibrate()
    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    tracer = None
    if mode == "setup":
        jobs = []
    elif mode == "trace":
        import spans

        tracer = spans.Tracer(spans.load_modules())
        tracer.install()

    child_cpu_s = 0.0  # pool children of the jobs, not the calibration's
    runs = []
    cal, cal_processes = setup_cal_s, 1  # each calibration serves the jobs on both sides
    try:
        for index, job in enumerate(jobs):
            out = os.path.join(workdir, f"{job.name}.out")
            if tracer is not None:
                tracer.job = index
            cal_before = cal if cal_processes == job.processes else calibrate(job.processes)
            children_before = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
            start = time.perf_counter()
            try:
                code = mnlmarkets.cli.main([*job.argv, "--out", out])
                error = None if code == 0 else f"exit code {code}"
            except SystemExit as exc:
                error = f"exit code {exc.code}"
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            child_cpu_s += _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - children_before
            digest = None
            if error is None:
                try:
                    with open(out, "rb") as fh:
                        data = fh.read()
                    digest = hashlib.sha256(data).hexdigest()
                    error = job.check(data)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            cal, cal_processes = calibrate(job.processes), job.processes
            runs.append({"job": job.name, "work": job.work, "wall_s": wall,
                         "cal_s": (cal_before + cal) / 2.0, "sha256": digest, "error": error})
    finally:
        if tracer is not None:
            tracer.restore()

    result["runs"] = runs
    result["peak_rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    if tracer is not None:
        layers = spans.layer_metrics(tracer.function_stats(), tracer.cache_stats(),
                                     tracer.counts, child_cpu_s, workloads.POOL_WORKERS)
        result["layers"] = {name: list(value) for name, value in layers.items()}
        result["absent"] = tracer.absent
        tracer.save(os.path.join(workdir, "spans.npz"))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
