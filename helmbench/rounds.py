"""Workloads: which CLI jobs a run makes, in whole seed-independent rounds.

Depths b live on the lattice 1 + i/128, i = 1..160, which tiles (1.0, 2.25].
Every round of every workload holds the reference depth b = 1.5 (checked
against Table 2) plus one depth per stratum, drawn by the seed:

* The lattice splits at HOP_FIRST = 109 (b = 1.8515625).  From that depth on,
  NtD odd,2 converges to a different mode than DtN, at 15x15 and at 30x30
  alike (a tracking defect of the solver).  Workloads that cover this region
  have the upper stratum [HOP_FIRST, TOP] as their last stratum, so the
  defect fails a constant share of the jobs rather than a seed-dependent one.
  sweep-30 and compare do not cover it: their one job per depth would fail
  there as a whole, and a failed job adds no sample to job_s.p50.
* The part below the split is cut into ``lower_parts`` equal strata.
* The draw in the first stratum is mirrored into the last one (antithetic
  pair), so the sum of the two depths, and with it the depth-linear part of
  the cost, hardly moves with the seed.

solve-15 also runs the square b = 1.0 in every round: every rectangle seed
sits on a Steklov pole there, so 7 of its 8 jobs fail with exit code 3, at a
constant share.  No other workload runs it.

This module only builds inputs; from helmbound it takes only the closed-form
rectangle seeds that the solve jobs start from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

A = 1.0
LATTICE = 128
TOP = 160
HOP_FIRST = 109
REFERENCE_B = 1.5
SQUARE_B = 1.0
LABELS = ("even,1", "even,2", "odd,1", "odd,2")
METHODS = ("dtn", "ntd")


def depth(index: int) -> float:
    return 1.0 + index / LATTICE


def strata(lower_parts: int, upper: bool) -> list[tuple[int, int]]:
    """Inclusive lattice-index ranges, lowest first; with ``upper`` the last is [HOP_FIRST, TOP]."""
    below = HOP_FIRST - 1
    edges = [round(below * j / lower_parts) for j in range(lower_parts + 1)]
    lower = [(edges[j] + 1, edges[j + 1]) for j in range(lower_parts)]
    return lower + [(HOP_FIRST, TOP)] if upper else lower


def draw_depths(rng: random.Random, ranges: list[tuple[int, int]]) -> list[float]:
    """One depth per stratum; the last stratum mirrors the first one's quantile."""
    first = rng.random()
    out = []
    for j, (lo, hi) in enumerate(ranges):
        if j == 0:
            u = first
        elif j == len(ranges) - 1:
            u = 1.0 - first
        else:
            u = rng.random()
        width = hi - lo + 1
        out.append(depth(lo + min(int(u * width), width - 1)))
    return out


@dataclass
class Job:
    """One CLI call: ``helmbound --config <config> <argv...>``."""

    kind: str  # solve | sweep | field | compare
    b: float
    argv: tuple[str, ...]
    config: dict
    label: str = ""  # solve only
    method: str = ""  # solve only


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    lower_parts: int
    upper: bool  # whether the rounds cover the D2 region [HOP_FIRST, TOP]
    fixed: tuple[float, ...]

    def jobs_at(self, b: float) -> list[Job]:
        geometry = {"a": A, "b": b}
        if self.name == "solve-15":
            return solve_jobs(b)
        if self.name == "sweep-30":
            return [Job("sweep", b, ("sweep-basis", "--sizes", "30x30", "--methods", "both"),
                        {"geometry": geometry})]
        if self.name == "field-export":
            return [Job("field", b, ("field", "--mode", "even,1", "--mode", "odd,1"),
                        {"geometry": geometry})]
        return [Job("compare", b, ("compare",), {"geometry": geometry})]

    def rounds(self, seed: int):
        """Endless sequence of rounds; each round is a list of geometries, each a list of jobs."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            depths = sorted(self.fixed + tuple(draw_depths(rng, strata(self.lower_parts, self.upper))))
            yield [self.jobs_at(b) for b in depths]


def solve_jobs(b: float) -> list[Job]:
    """Four labels x DtN/NtD at the default 15x15 basis; DtN and NtD of a label run back to back."""
    from helmbound.config import mode_seeds
    from helmbound.geometry import make_domain

    seeds = mode_seeds(make_domain(A, b))
    jobs = []
    for label in LABELS:
        parity = label.split(",")[0]
        for method in METHODS:
            config = {
                "geometry": {"a": A, "b": b},
                "basis": {"parity": parity},
                "method": method,
                "kappa0": seeds[label],
            }
            jobs.append(Job("solve", b, ("solve",), config, label, method))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-15", lower_parts=4, upper=True, fixed=(SQUARE_B, REFERENCE_B)),
        Workload("sweep-30", lower_parts=2, upper=False, fixed=(REFERENCE_B,)),
        Workload("field-export", lower_parts=4, upper=True, fixed=(REFERENCE_B,)),
        Workload("compare", lower_parts=2, upper=False, fixed=(REFERENCE_B,)),
    )
}
