"""lzsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop: one client in this process runs jobs
back to back for about S seconds, each on the next of the inputs made from
the seed.  Every job's output is checked after the job, outside its timing.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
machine, the job-time distribution and any failures.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every layer wrapped (see tracer.py), reports the
per-layer metrics and the tracing overhead, and then runs the README example
of each CLI subcommand once.

The process runs on one CPU with one BLAS thread, set before numpy is
imported, and its job and set-up times are scaled to a reference host speed
sampled on that CPU while each runs (see hostspeed.py).  glibc's mmap
threshold is fixed so that peak memory does not depend on allocation
history.  No job uses the program's sweep workers:
no job passes --workers and LZSIM_WORKERS is removed from the environment.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PERCENTILES = (50, 90, 95, 99, 99.9)
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload, seed):
    """Set-up time of one fresh process (probe.py); it inherits the CPU pinning."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _fix_mmap_threshold():
    """Serve every allocation above 1 MiB by its own mmap, returned on free.

    glibc otherwise raises its mmap threshold after the first large free, so
    whether later dense arrays reuse the heap, and the peak RSS, vary from
    process to process (329 or 350 MiB on quantum-trace).  Returns whether
    the setting took.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(libc.mallopt(M_MMAP_THRESHOLD, 1 << 20))


def _blas(threads):
    import numpy

    info = {"threads_set": threads}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    info["threads_reported"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count the OpenBLAS that numpy links reports, or None if not found."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        return None
    # dlsym on numpy's extension module also searches the libraries it links
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def _highest_percentile(times):
    """The highest of PERCENTILES with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(times)
    best = None
    for p in PERCENTILES:
        rank = -(-p * len(ordered) // 100)  # ceil
        if rank >= 1 and len(ordered) - rank >= 10:
            best = {"p": p, "value": ordered[int(rank) - 1]}
    return best


class Loop:
    """Closed-loop job runner that keeps the tallies of one run."""

    def __init__(self, workload, inputs, out):
        self.workload, self.inputs, self.out = workload, inputs, out
        self.next = 0
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"job": what, "problems": problems[:3]})

    def run(self, budget, tracer=None, after=None, sampler=None):
        """Jobs until another would pass `budget` seconds of job time; at least one.

        `after`, if given, is called after each job's check with the share of
        the budget spent so far.  With a hostspeed.Sampler, `slowdowns` holds
        each job's host slowdown; otherwise it is empty.
        """
        times, snapshots, slowdowns = [], [], []
        while not times or sum(times) + statistics.median(times) <= budget:
            index, self.next = self.next, self.next + 1
            params = self.inputs[index % len(self.inputs)]
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            start = time.perf_counter()
            try:
                result = self.workload.job(params, self.out)
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"job raised {type(exc).__name__}: {exc}"
            else:
                error = None
            end = time.perf_counter()
            times.append(end - start)
            if sampler is not None:
                slowdowns.append(sampler.slowdown(start, end))
            if tracer is not None:
                tracer.active = False
                snapshots.append(dict(tracer.counts))
            if error is None:
                try:
                    problems = self.workload.check(params, result)
                except Exception as exc:  # an output the check cannot read is wrong
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            self.record(index, problems)
            if after is not None:
                after(sum(times) / budget)
        return times, snapshots, slowdowns


def _subcommand_pass(workloads, out_dir):
    """Each CLI subcommand once at its README size: wall seconds and problems."""
    import lzsim.cli

    walls, problems = {}, {}
    for name, args, fmt in workloads.SUBCOMMANDS:
        out = str(out_dir / f"readme-{name}.{fmt}")
        start = time.perf_counter()
        try:
            rc = lzsim.cli.main([name, *args, "--format", fmt, "--out", out])
        except Exception as exc:  # a crash is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
        walls[f"cli.{name}.wall_s"] = time.perf_counter() - start
        problems[name] = workloads.artifact_problems(out, fmt) if rc == 0 else [f"ended with {rc}"]
    return walls, problems


def unit_of(name):
    special = {"peak_rss_mb": "MiB", "ok_frac": "ratio", "output.bytes": "B"}
    if name in special:
        return special[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "lzsim" / "__init__.py").is_file():
        print(f"perfbench: no lzsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the job, the host-speed sampler and the set-up probes: the
    # sampler then measures the CPU the job ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("LZSIM_WORKERS", None)  # every job runs the program's serial path
    fixed_mmap = _fix_mmap_threshold()
    sys.path.insert(0, str(SRC))

    import lzsim
    import numpy

    if Path(lzsim.__file__).resolve().parent != SRC / "lzsim":
        print(f"perfbench: imported lzsim from {lzsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": _blas(BLAS_THREADS),
            "platform": platform.platform(),
            "malloc_mmap_threshold_fixed": fixed_mmap, "pinned_cpu": cpu,
        },
        "load": "closed loop, one client, jobs back to back in one process",
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        loop = Loop(workload, inputs, str(out_dir / "job.out"))
        if args.trace == 0:
            # Set-up probes are spread over the run, between jobs, so that
            # their median sees the same machine as the jobs do rather than
            # one burst of contention.  The first compiles bytecode: dropped.
            # Each is scaled by the host speed sampled while it runs.
            _setup_seconds(args.workload, args.seed)
            setup, setup_wall = [], []
            sampler = hostspeed.Sampler(cpu)

            def sample_setup(progress):
                while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * progress)):
                    start = time.perf_counter()
                    setup_wall.append(_setup_seconds(args.workload, args.seed))
                    setup.append(setup_wall[-1] / sampler.slowdown(start, time.perf_counter()))

            try:
                times, _, slowdowns = loop.run(args.seconds, after=sample_setup, sampler=sampler)
                sample_setup(1.0)
            finally:
                sampler.close()
            report["setup_s"] = {"scaled": setup, "wall": setup_wall}
            report["job_wall_s"] = {"median": statistics.median(times), "all": times}
            report["host_slowdown"] = {"median": statistics.median(slowdowns),
                                       "per_job": slowdowns}
            times = [t / s for t, s in zip(times, slowdowns)]
            metrics = {
                "job_s": statistics.median(times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - len(loop.failures) / loop.attempted,
            }
        else:
            plain, _, _ = loop.run(0.5 * args.seconds)
            layers = tracer.Tracer()
            layers.install()
            try:
                times, snapshots, _ = loop.run(0.5 * args.seconds, layers)
            finally:
                layers.uninstall()
            walls, problems = _subcommand_pass(workloads, out_dir)
            for name, found in problems.items():
                loop.record(f"cli {name}", found)
            metrics = {name: statistics.median(s[name] for s in snapshots)
                       for name in tracer.metric_names()}
            metrics["trace.overhead_s"] = statistics.median(times) - statistics.median(plain)
            metrics.update(walls)
            report["self_share_of_job"] = {
                name: metrics[f"{name}.self_s"] / statistics.median(times)
                for _, _, name in tracer.LAYERS if metrics[f"{name}.self_s"] > 0}
            report["absent"] = layers.absent
            report["untraced_job_s"] = plain

    report["job_s"] = {
        "samples": len(times), "median": statistics.median(times),
        "highest_percentile_with_10_beyond": _highest_percentile(times), "all": times,
    }
    report["failed_frac"] = len(loop.failures) / loop.attempted
    report["failures"] = loop.failures[:5]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not loop.failures, "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
