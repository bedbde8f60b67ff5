"""Output checks: what a job must have written for it to count as successful.

A job fails when the CLI exits nonzero, or raises, or its output fails a
check.  Checks come in two stages:

* ``read_output`` checks one job's own files right after it returns and
  collects the eigenvalues it reports.
* ``check_geometry`` runs after every job of one depth has returned: DtN and
  NtD of the same label must agree within MUTUAL_TOL, and at b = 1.5 every
  value must match Table 2.

Failures at the two known defects are *expected*: exit code 3 on the square
b = 1.0 (a Steklov pole under every rectangle seed) and a DtN/NtD
disagreement on odd,2 from the lattice index HOP_FIRST on.  They count in
``failed`` like any other failure; only an unexpected one makes a run
incorrect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rounds import HOP_FIRST, REFERENCE_B, SQUARE_B, Job, depth

# Table 2 (a = 1, b = 1.5), four decimals, keyed by basis size.
TABLE2 = {
    15: {"even,1": 2.0611, "even,2": 3.0731, "odd,1": 3.4507, "odd,2": 4.2190},
    30: {"even,1": 2.0611, "even,2": 3.0730, "odd,1": 3.4506, "odd,2": 4.2189},
}
# One unit in the fourth decimal: the table is rounded, and the 15x15 odd,2
# value 4.21906 sits 0.6 units from its entry 4.2190.
TABLE2_TOL = 1e-4
MUTUAL_TOL = 1e-4
# Finite-difference oracle against the converged (30x30) Table 2 values; the
# Richardson-extrapolated 5-point oracle is off by about 6e-4 today.
FD_TOL = 2e-3
GRID = (401, 701)  # the CLI's default field grid
DENSITY_TOL = 1e-6  # 9 significant digits per CSV cell
BASIS_SIZE = {"solve": 15, "sweep": 30, "field": 15, "compare": 15}
FIELD_LABELS = ("even,1", "odd,1")
HOP_FAILURE = "dtn/ntd disagree on odd,2"


@dataclass
class Outcome:
    job: Job
    rc: int | None
    wall_s: float
    ks: dict = field(default_factory=dict)  # (label, method) -> k
    failures: list[str] = field(default_factory=list)
    stdout: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def expected(self) -> bool:
        """True when every failure is one of the two known defects."""
        if self.ok:
            return True
        if self.job.b == SQUARE_B:
            return self.failures == ["exit 3"]
        if self.job.b >= depth(HOP_FIRST):
            return set(self.failures) == {HOP_FAILURE}
        return False

    @property
    def checked_eigenvalues(self) -> int:
        return len(self.ks) if self.ok else 0


def _finite_k(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def read_solve(job: Job, out: Path, stdout: str):
    parity = job.label.split(",")[0]
    doc = json.loads((out / f"solve_{job.method}_{parity}.json").read_text())
    if doc.get("converged") is not True or not _finite_k(doc.get("converged_k")):
        return {}, ["solve.json: not converged or bad converged_k"]
    return {(job.label, job.method): doc["converged_k"]}, []


def _parse_sweep_row(line: str):
    # n_max,m_max,method,"parity,rank",k,note -- the label itself holds a comma
    match = re.fullmatch(r'(\d+),(\d+),(dtn|ntd),"(even|odd),(\d)",([^,]*),(.*)', line)
    if match is None:
        return None
    n_max, m_max, method, parity, rank, k, note = match.groups()
    return int(n_max), int(m_max), method, f"{parity},{rank}", k, note


def read_sweep(job: Job, out: Path, stdout: str):
    lines = (out / "sweep.csv").read_text().splitlines()
    if not lines or lines[0] != "n_max,m_max,method,mode_label,converged_k,note" or len(lines) != 9:
        return {}, ["sweep.csv: bad header or row count"]
    ks, failures = {}, []
    for line in lines[1:]:
        row = _parse_sweep_row(line)
        if row is None or row[:2] != (30, 30):
            failures.append(f"sweep.csv: bad row {line!r}")
            continue
        _, _, method, label, k, note = row
        try:
            value = float(k)
        except ValueError:
            value = float("nan")
        if note or not _finite_k(value):
            failures.append(f"sweep.csv: {method} {label} has k={k!r} note={note!r}")
        else:
            ks[(label, method)] = value
    if not failures and len(ks) != 8:
        failures.append("sweep.csv: rows do not cover 4 labels x 2 methods")
    return ks, failures


def check_density_csv(path: Path) -> list[str]:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    nx, ny = GRID
    if data.shape != (nx * ny, 3):
        return [f"{path.name}: shape {data.shape}, expected {(nx * ny, 3)}"]
    x, y, values = data.T
    if not np.all(np.isfinite(values)) or values.min() < 0:
        return [f"{path.name}: density not finite and non-negative"]
    # the grid ends are printed exactly; neighbouring nodes only to 9 digits
    dx = (x[-1] - x[0]) / (nx - 1)
    dy = (y[ny - 1] - y[0]) / (ny - 1)
    integral = values.sum() * dx * dy
    if abs(integral - 1.0) > DENSITY_TOL:
        return [f"{path.name}: density integrates to {integral:.9f}"]
    return []


def check_pgm(path: Path) -> list[str]:
    tokens = path.read_text().split()
    nx, ny = GRID
    if tokens[:4] != ["P2", str(nx), str(ny), "65535"] or len(tokens) != 4 + nx * ny:
        return [f"{path.name}: bad P2 header or pixel count"]
    pixels = np.array(tokens[4:], dtype=np.int64)
    if pixels.min() < 0 or pixels.max() != 65535:
        return [f"{path.name}: pixels outside 0..65535 or not scaled to 65535"]
    return []


def read_field(job: Job, out: Path, stdout: str):
    ks, failures = {}, []
    for label in FIELD_LABELS:
        match = re.search(rf"^{label}: k = (\d+\.\d+) ", stdout, re.MULTILINE)
        if match is None:
            failures.append(f"field: no k reported for {label}")
            continue
        stem = f"field_dtn_{label.replace(',', '_')}"
        errors = check_density_csv(out / f"{stem}.csv") + check_pgm(out / f"{stem}.pgm")
        if errors:
            failures += errors
        else:
            ks[(label, "dtn")] = float(match.group(1))
    return ks, failures


def read_compare(job: Job, out: Path, stdout: str):
    doc = json.loads((out / "compare.json").read_text())
    ks, failures = {}, []
    for entry in doc.get("modes", []):
        label = entry["mode"]
        for method in ("dtn", "ntd", "fdm"):
            value = entry.get(f"k_{method}")
            if _finite_k(value):
                ks[(label, method)] = value
            else:
                failures.append(f"compare.json: {label} has no k_{method}")
        if not entry.get("pass_mutual"):
            failures.append(HOP_FAILURE if label == "odd,2" else f"dtn/ntd disagree on {label}")
        if not entry.get("pass_oracle"):
            failures.append(f"compare.json: {label} fails the oracle tolerance")
    if len(doc.get("modes", [])) != 4:
        failures.append("compare.json: expected 4 modes")
    if doc.get("all_pass") is not True and not failures:
        failures.append("compare.json: all_pass is not true")
    return ks, failures


READERS = {"solve": read_solve, "sweep": read_sweep, "field": read_field, "compare": read_compare}


def read_output(job: Job, out: Path, rc: int | None, stdout: str) -> tuple[dict, list[str]]:
    """Eigenvalues reported by one job and the failures of its own checks."""
    if rc is None:
        return {}, ["raised"]
    if rc != 0:
        return {}, [f"exit {rc}"]
    try:
        return READERS[job.kind](job, out, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_geometry(outcomes: list[Outcome]) -> None:
    """Cross-job checks of one depth; appends failures in place."""
    found = {}
    for outcome in outcomes:
        for key in outcome.ks:
            found[key] = outcome
    for (label, method), outcome in list(found.items()):
        if method != "dtn" or (label, "ntd") not in found:
            continue
        other = found[(label, "ntd")]
        gap = abs(outcome.ks[(label, "dtn")] - other.ks[(label, "ntd")])
        if gap > MUTUAL_TOL:
            reason = HOP_FAILURE if label == "odd,2" else f"dtn/ntd disagree on {label}"
            for failed in {id(outcome): outcome, id(other): other}.values():
                if reason not in failed.failures:
                    failed.failures.append(reason)
    if not outcomes or outcomes[0].job.b != REFERENCE_B:
        return
    for (label, method), outcome in found.items():
        k = outcome.ks[(label, method)]
        if method == "fdm":
            ref, tol = TABLE2[30][label], FD_TOL
        else:
            ref, tol = TABLE2[BASIS_SIZE[outcome.job.kind]][label], TABLE2_TOL
        if abs(k - ref) > tol:
            outcome.failures.append(f"{method} {label} = {k:.6f} is not Table 2's {ref} within {tol}")
