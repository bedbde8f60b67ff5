"""Checks of the benchmark itself; no timing is compared.

Usage (from the repository root; about 6 minutes on 2 cores):

    python3 helmbench/selfcheck.py

1. Trace consistency.  Per traced job the self times sum to the job's wall
   time as run.run_job measured it, a wall time 10 ms off is caught, and two
   traced runs of the same round give identical counts.
2. Negative tests.  Every output check passes on a real output at b = 1.5 and
   fails on a corrupted copy, and the corrupted job lowers ok_frac.
3. Seed steadiness.  For every seed in SEEDS, build the first round of each
   workload and count the work of its successful jobs, the ones job_s.p50 is
   taken over, from traced runs: iterations, eigh sizes and kept dimensions,
   FD unknowns, bytes written.  Each count may move across seeds by at most
   WORK_BOUND of its mean.  b = 1.5 is in every round, and b = 1.0
   in every solve-15 round and in no other.

Exits nonzero if any check fails.
"""

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import rounds  # noqa: E402
import tracing  # noqa: E402

# Iteration counts are not smooth in b (README, N5): with two drawn depths per
# round, compare's moves by 8.4% over SEEDS (one seed draws b = 1.047, next to
# the square), sweep-30's by 5.2%; every other count by at most 3%.
WORK_BOUND = 0.10
WORK_COUNTS = (
    "assembly.assemble.calls",  # fixed-point iterations
    "solver.eigh.n",
    "solver.eigh.kept",
    "oracle.fdm.unknowns",
    "reconstruct.export.bytes",
)
SEEDS = (1, 2, 3, 4, 5)
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


@contextlib.contextmanager
def traced():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def trace_consistency(work: Path) -> None:
    rnd = next(rounds.WORKLOADS["solve-15"].rounds(1))
    counts = []
    for _ in range(2):
        with traced() as tracer:
            outcomes = run.run_round(rnd, work, tracer)
        walls = [o.wall_s for o in outcomes]
        error = tracer.consistency_error(walls)
        expect(error <= tracing.CONSISTENCY_TOL_S,
               f"trace: self times sum to job wall time within {error:.2e} s <= {tracing.CONSISTENCY_TOL_S} s")
        walls[-1] += 10 * tracing.CONSISTENCY_TOL_S
        expect(tracer.consistency_error(walls) > tracing.CONSISTENCY_TOL_S,
               "trace: a job wall time 10 ms off the summed self times is caught")
        counts.append(tracer.computed_counts())
    expect(counts[0] == counts[1], "trace: two traced runs of one round give identical counts")


def _corrupt_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _corrupt_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise ValueError(f"{path.name} has no {old!r} to corrupt")
    path.write_text(text.replace(old, new, 1))


def _scale_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    rows = [f"{x},{y},{float(v) * 1.01:.9g}" for x, y, v in (line.split(",") for line in lines[1:])]
    path.write_text("\n".join([lines[0], *rows]) + "\n")


def _set_mode(doc, label, **values):
    for entry in doc["modes"]:
        if entry["mode"] == label:
            entry.update(values)


# kind -> (what, index of the job whose output is corrupted, corruption)
CORRUPTIONS = {
    "solve": [
        ("NtD k off by 1e-3", 1, lambda out: _corrupt_json(
            out / "solve_ntd_even.json", lambda d: d.update(converged_k=d["converged_k"] + 1e-3))),
        ("not converged", 1, lambda out: _corrupt_json(
            out / "solve_ntd_even.json", lambda d: d.update(converged=False))),
    ],
    "sweep": [
        ("a cell is NA", 0, lambda out: _corrupt_text(
            out / "sweep.csv", ',ntd,"odd,1",3.450', ',ntd,"odd,1",NA,Bogus#')),
        ("NtD odd,1 off by 1e-3", 0, lambda out: _corrupt_text(
            out / "sweep.csv", ',ntd,"odd,1",3.450', ',ntd,"odd,1",3.451')),
    ],
    "field": [
        ("NaN density", 0, lambda out: _corrupt_text(
            out / "field_dtn_even_1.csv", "\n-1,-1.5,0\n", "\n-1,-1.5,nan\n")),
        ("negative density", 0, lambda out: _corrupt_text(
            out / "field_dtn_odd_1.csv", "\n-1,-1.5,0\n", "\n-1,-1.5,-1e-3\n")),
        ("density integrates to 1.01", 0, lambda out: _scale_csv(out / "field_dtn_even_1.csv")),
        ("PGM header", 0, lambda out: _corrupt_text(out / "field_dtn_odd_1.pgm", "P2\n", "P5\n")),
    ],
    "compare": [
        ("all_pass false", 0, lambda out: _corrupt_json(
            out / "compare.json", lambda d: d.update(all_pass=False))),
        ("FD k off by 5e-3", 0, lambda out: _corrupt_json(
            out / "compare.json", lambda d: _set_mode(d, "even,1", k_fdm=d["modes"][0]["k_fdm"] + 5e-3))),
        ("DtN/NtD off by 1e-3", 0, lambda out: _corrupt_json(
            out / "compare.json", lambda d: _set_mode(d, "even,2", k_ntd=d["modes"][1]["k_ntd"] + 1e-3))),
    ],
}


def negative_tests(work: Path) -> None:
    for name in rounds.WORKLOADS:
        jobs = [j for j in rounds.WORKLOADS[name].jobs_at(rounds.REFERENCE_B) if j.label in ("", "even,1")]
        kind = jobs[0].kind
        dirs = [work / f"neg-{kind}-{i}" for i in range(len(jobs))]
        for d in dirs:
            d.mkdir()
        outcomes = [run.run_job(job, d, None) for job, d in zip(jobs, dirs)]
        checks.check_geometry(outcomes)
        expect(all(o.ok for o in outcomes), f"{kind}: real output at b = 1.5 passes {[o.failures for o in outcomes]}")
        for d in dirs:
            shutil.copytree(d / "out", d / "pristine")
        for what, index, corrupt in CORRUPTIONS[kind]:
            for d in dirs:
                shutil.rmtree(d / "out")
                shutil.copytree(d / "pristine", d / "out")
            corrupt(dirs[index] / "out")
            redone = [checks.Outcome(o.job, o.rc, o.wall_s, *checks.read_output(o.job, d / "out", o.rc, o.stdout))
                      for o, d in zip(outcomes, dirs)]
            checks.check_geometry(redone)
            share = run.ok_frac(redone)
            expect(share < 1.0 and not all(o.expected for o in redone),
                   f"{kind}: corrupted ({what}) is caught, ok_frac {share:.2f}: "
                   f"{[o.failures for o in redone if o.failures]}")


def successful_work(geometry, work: Path) -> dict[str, float]:
    """Computed counts of the jobs of one depth that pass their checks, each job traced alone."""
    outcomes, counts = [], []
    for job in geometry:
        with traced() as tracer:
            outcomes.append(run.run_job(job, work, tracer))
        counts.append(tracer.computed_counts())
    checks.check_geometry(outcomes)
    return {count: sum(c.get(count, 0.0) for o, c in zip(outcomes, counts) if o.ok) for count in WORK_COUNTS}


def seed_steadiness(work: Path) -> None:
    cache = {}
    for name, workload in rounds.WORKLOADS.items():
        per_seed = {}
        for seed in SEEDS:
            rnd = next(workload.rounds(seed))
            depths = [geometry[0].b for geometry in rnd]
            expect(rounds.REFERENCE_B in depths, f"{name} seed {seed}: b = 1.5 in the round {depths}")
            expect((rounds.SQUARE_B in depths) == (name == "solve-15"),
                   f"{name} seed {seed}: b = 1.0 only in solve-15 rounds")
            total = dict.fromkeys(WORK_COUNTS, 0.0)
            for geometry in rnd:
                key = (name, geometry[0].b)
                if key not in cache:
                    cache[key] = successful_work(geometry, work)
                for count in WORK_COUNTS:
                    total[count] += cache[key][count]
            per_seed[seed] = total
        for count in WORK_COUNTS:
            values = [per_seed[s][count] for s in SEEDS]
            mean = sum(values) / len(values)
            spread = (max(values) - min(values)) / mean if mean else 0.0
            expect(spread <= WORK_BOUND,
                   f"{name} {count}: per-round {values} spread {spread:.3%} <= {WORK_BOUND:.0%}")


def main() -> int:
    work = run.ROOT / ".helmbench-work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        trace_consistency(work)
        negative_tests(work)
        seed_steadiness(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
