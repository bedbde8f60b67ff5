"""helmbound benchmark: one closed-loop client calling the CLI in-process.

Usage (from the repository root):

    python3 helmbench/run.py --workload solve-15 --seed 1 --seconds 10 --trace 0

A run is made of whole rounds of CLI jobs (see rounds.py); it starts rounds
until --seconds of job time have passed.  Each job starts after the previous
one has returned and its output has been checked (checks.py).  Set-up is
timed in a fresh interpreter before every depth of every round and once
after the last, so its samples see the same machine as the jobs.  With
--trace 1 the rounds run traced (tracing.py), the b = 1.5 depth of each also
untraced, and the run reports per-layer metrics instead of end-to-end ones.  The last line of stdout is the result as JSON.
See README.md in this directory for the metrics and workloads.
"""

import os

# One BLAS thread, fixed before numpy loads: the single-threaded baseline.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import rounds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 120
MIN_TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> dict:
    """Thread count read back from every OpenBLAS that numpy and scipy ship."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(handle, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    return found


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(work: Path) -> float:
    """Seconds of import + first solve in a fresh interpreter."""
    out = work / "setup"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(out)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["rc"] != 0 or abs(doc["k"] - 2.0611) > 1e-4:
        raise RuntimeError(f"set-up probe solved wrongly: {doc}")
    return doc["seconds"]


def run_job(job, work: Path, tracer):
    from helmbound import cli

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = work / "config.json"
    config.write_text(json.dumps({**job.config, "output_dir": str(out)}))
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.job() if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            with span:
                rc = cli.main(["--config", str(config), *job.argv])
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=stderr)
        wall = time.perf_counter() - start
    ks, failures = checks.read_output(job, out, rc, stdout.getvalue())
    return checks.Outcome(job, rc, wall, ks, failures, stdout.getvalue())


def run_round(rnd, work: Path, tracer=None, before_geometry=None) -> list:
    outcomes = []
    for geometry in rnd:
        if before_geometry is not None:
            before_geometry()
        done = [run_job(job, work, tracer) for job in geometry]
        checks.check_geometry(done)
        outcomes += done
    return outcomes


def tail(samples: list[float]):
    """Highest integer percentile with at least MIN_TAIL_BEYOND samples beyond it."""
    n = len(samples)
    p = int(100 * (1 - MIN_TAIL_BEYOND / n)) if n > MIN_TAIL_BEYOND else 0
    if p < 51:
        return None
    ordered = sorted(samples)
    return p, ordered[min(n - 1, int(p / 100 * n))]


def ok_frac(outcomes) -> float:
    return sum(o.ok for o in outcomes) / len(outcomes)


def end_to_end(outcomes, setup) -> dict:
    ok = [o for o in outcomes if o.ok]
    walls = [o.wall_s for o in ok]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "modes_per_s": (sum(o.checked_eigenvalues for o in ok) / sum(o.wall_s for o in outcomes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok_frac(outcomes), "1"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "helmbound" / "cli.py").is_file():
        print(f"helmbench: no helmbound sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing

    if args.workload not in rounds.WORKLOADS:
        print(f"helmbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(rounds.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = rounds.WORKLOADS[args.workload]
    work = ROOT / ".helmbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("env: " + json.dumps(environment(args), sort_keys=True))
        setup = []
        probe_s = 0.0  # time spent in set-up probes, not counted against --seconds

        def probe():
            nonlocal probe_s
            started = time.perf_counter()
            setup.append(probe_setup(work))
            probe_s += time.perf_counter() - started

        # first-call costs in this process belong to setup_s, not to the first job
        run_job(rounds.solve_jobs(rounds.REFERENCE_B)[0], work, None)
        tracer = tracing.Tracer() if args.trace else None
        outcomes, untraced = [], []
        begin = time.perf_counter()
        for rnd in workload.rounds(args.seed):
            started, probed = time.perf_counter(), probe_s
            if tracer is None:
                outcomes += run_round(rnd, work, before_geometry=probe)
            else:
                # the reference depth also runs untraced, for trace.overhead_frac
                untraced += run_round([g for g in rnd if g[0].b == rounds.REFERENCE_B], work)
                tracer.install()
                try:
                    outcomes += run_round(rnd, work, tracer)
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            print(f"round: depths {[geometry[0].b for geometry in rnd]} in {now - started - (probe_s - probed):.3f} s")
            if now - begin - probe_s >= args.seconds:
                break
        if tracer is None:
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    unexpected = [o for o in outcomes + untraced if not o.expected]
    for o in unexpected:
        print(f"unexpected failure: {o.job.kind} b={o.job.b} {o.job.label} {o.job.method}: {o.failures}")
    if not any(o.ok for o in outcomes):
        print("helmbench: no job succeeded, nothing to report", file=sys.stderr)
        return 1
    correct = not unexpected
    if tracer is not None:
        traced = sum(o.wall_s for o in outcomes if o.job.b == rounds.REFERENCE_B)
        metrics = tracer.layer_metrics(traced / sum(o.wall_s for o in untraced) - 1.0)
        consistency = tracer.consistency_error([o.wall_s for o in outcomes])
        print(f"trace: {len(outcomes)} traced jobs, self-time sum vs job wall max error {consistency:.3e} s")
        print("trace counts: " + json.dumps(tracer.computed_counts(), sort_keys=True))
        correct = correct and consistency <= tracing.CONSISTENCY_TOL_S
    else:
        metrics = end_to_end(outcomes, setup)
        ok_walls = [o.wall_s for o in outcomes if o.ok]
        print(f"setup samples: {[round(s, 4) for s in setup]}")
        summary = tail(ok_walls)
        if summary is not None:
            print(f"job_s.p{summary[0]}: {summary[1]:.6f} s over {len(ok_walls)} successful jobs")
        else:
            print(f"job_s tail: not reported, only {len(ok_walls)} successful jobs")
    failed = sum(not o.ok for o in outcomes)
    print(f"rounds: {len(outcomes)} jobs, {failed} failed "
          f"({sum(not o.ok and o.expected for o in outcomes)} at known defects)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
