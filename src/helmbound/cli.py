"""Command line entry point.

Subcommands: solve | sweep-basis | field | oracle | compare, each driven by
a JSON config (--config; defaults reproduce the reference setup).

Exit codes: 0 success, 1 invalid configuration or arguments (a basis and
quadrature that leave the metric no positive direction included), or an
output file that cannot be written, 2 iteration did not converge (the
fixed-point iteration, or the finite-difference eigensolve of ``oracle`` or
``compare``), 3 operator resonance (the offending mode index is reported),
4 a cross-check failed (``compare`` wrote a report with all_pass false).

Only ``oracle`` and ``compare`` import the finite-difference oracle, and with
it scipy; the other subcommands start without loading either.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .assembly import AssemblyContext, Method, build_context
from .basis import Parity
from .config import MODE_LABELS, ConfigError, RunConfig, mode_seeds, parse_mode_label
from .errors import (GridTooCoarse, IoFailure, IterationStalled, MetricNotPositiveDefinite,
                     NearDirichletResonance, NearNeumannResonance, NotConverged)
from .reconstruct import export_grid, sample_field
from .solver import iterate_mode

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_RESONANCE = 3
EXIT_CHECK_FAILED = 4


def _load_config(path: str | None) -> RunConfig:
    return RunConfig() if path is None else RunConfig.from_json_file(path)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir!r}: {exc}") from exc
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _contexts(cfg: RunConfig, parities, **size) -> dict[Parity, AssemblyContext]:
    """One assembly context per distinct parity, for cfg's basis resized by n_max/m_max."""
    return {
        parity: build_context(dataclasses.replace(cfg.basis, parity=parity, **size),
                              cfg.geometry, cfg.quadrature, cfg.steklov_truncation)
        for parity in dict.fromkeys(parities)
    }


def cmd_solve(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    out = _outdir(cfg)
    method, parity = cfg.method.value, cfg.basis.parity.value
    ctx = _contexts(cfg, [cfg.basis.parity])[cfg.basis.parity]
    doc = {
        "method": method,
        "parity": parity,
        "kappa0": cfg.kappa0,
        "basis_size": cfg.basis.size,
        "trial_dim": ctx.trial_dim,
    }
    path = out / f"solve_{method}_{parity}.json"
    try:
        estimate, trace = iterate_mode(cfg.method, cfg.kappa0, ctx, tol=cfg.tol,
                                       max_iter=cfg.max_iter)
    except NotConverged as exc:
        doc.update(
            iterations=[round(k, 12) for k in exc.trace.estimates],
            converged=False,
            timings={"total_s": time.perf_counter() - t0},
        )
        _write_json(path, doc)
        print(f"not converged after {exc.trace.iterations} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    doc.update(
        iterations=[round(k, 12) for k in trace.estimates],
        converged=True,
        converged_k=round(estimate.k_estimate, 12),
        timings={"total_s": time.perf_counter() - t0},
    )
    _write_json(path, doc)
    print(f"{method} {parity}: k = {estimate.k_estimate:.4f} "
          f"({trace.iterations} iterations) -> {path}")
    return EXIT_OK


def _parse_sizes(text: str):
    sizes = []
    for part in text.split(","):
        n, _, m = part.strip().lower().partition("x")
        if not (n.isdecimal() and m.isdecimal() and int(n) >= 1 and int(m) >= 1):
            raise ConfigError(f"bad basis size {part!r}; expected e.g. 15x15")
        sizes.append((int(n), int(m)))
    return sizes


def cmd_sweep_basis(cfg: RunConfig, args) -> int:
    """Converged k per basis size, method and label, written to sweep.csv.

    Each solve starts from the last converged k of its label: the first
    from the closed-form rectangle seed, NtD from DtN's k at the same size,
    and each size from the previous size's last k.  A failed cell leaves the
    seed of its label as it was.  NtD's seed is DtN's k whichever methods
    are written, so with ``--methods ntd`` DtN still runs and writes no row.
    """
    sizes = _parse_sizes(args.sizes)
    out = _outdir(cfg)
    warm = mode_seeds(cfg.geometry)
    methods = [Method.DTN] if args.methods == "dtn" else [Method.DTN, Method.NTD]
    rows = ["n_max,m_max,method,mode_label,converged_k,note"]
    for n_max, m_max in sizes:
        contexts = _contexts(cfg, Parity, n_max=n_max, m_max=m_max)
        for method in methods:
            for label in MODE_LABELS:
                ctx = contexts[Parity(parse_mode_label(label)[0])]
                try:
                    estimate, _trace = iterate_mode(method, warm[label], ctx, tol=cfg.tol,
                                                    max_iter=cfg.max_iter)
                    warm[label] = estimate.k_estimate
                    cell = f"{estimate.k_estimate:.6f},"
                except (NotConverged, NearDirichletResonance, NearNeumannResonance) as exc:
                    cell = f"NA,{type(exc).__name__}"
                if args.methods in ("both", method.value):
                    rows.append(f"{n_max},{m_max},{method.value},\"{label}\",{cell}")
    path = out / "sweep.csv"
    _write_text(path, "\n".join(rows) + "\n")
    print(f"wrote {path} ({len(rows) - 1} cells)")
    return EXIT_OK


def cmd_field(cfg: RunConfig, args) -> int:
    labels = args.mode if args.mode else list(MODE_LABELS)
    unknown = [label for label in labels if label not in MODE_LABELS]
    if unknown:
        raise ConfigError(f"unknown mode label {unknown[0]!r}; expected one of {', '.join(MODE_LABELS)}")
    out = _outdir(cfg)
    seeds = mode_seeds(cfg.geometry)
    parities = [Parity(parse_mode_label(label)[0]) for label in labels]
    contexts = {}
    for i, (label, parity) in enumerate(zip(labels, parities)):
        if parity not in contexts:
            contexts.update(_contexts(cfg, [parity]))
        estimate, _trace = iterate_mode(cfg.method, seeds[label], contexts[parity], tol=cfg.tol,
                                        max_iter=cfg.max_iter)
        # After a parity's last label, neither the dict nor the estimate keeps
        # its context through the export and the next build.  With this
        # release and without it, a fresh `field --mode even,1 --mode odd,1`
        # (15x15, 401x701 grid, 1 BLAS thread) peaks at 48.0-48.1 and 48.7 MB,
        # and the benchmark's field-export round (seeds 1-3) at 61.2-62.2 and
        # 62.1-63.1 MB
        if parity not in parities[i + 1:]:
            del contexts[parity]
        grid, k = sample_field(estimate, cfg.grid), estimate.k_estimate
        del estimate
        stem = f"field_{cfg.method.value}_{label.replace(',', '_')}"
        export_grid(grid, "csv", out / f"{stem}.csv")
        export_grid(grid, "pgm", out / f"{stem}.pgm")
        print(f"{label}: k = {k:.4f} -> {stem}.csv/.pgm")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    from .oracle import Rectangle, richardson_eigen

    out = _outdir(cfg)
    dom, oracle = cfg.geometry, cfg.oracle
    shape = Rectangle(2.0 * dom.a, dom.a + dom.b) if oracle.shape == "bounding_rectangle" else dom
    # num_modes per parity hold the num_modes lowest overall
    results, raw = (x[: oracle.num_modes] for x in richardson_eigen(shape, oracle.h, oracle.num_modes))
    doc = {
        "shape": oracle.shape,
        "h": oracle.h,
        "modes": [
            {"k": round(k, 9), "parity": parity, "k_coarse": round(k1, 9), "k_fine": round(k2, 9)}
            for (k, parity), (k1, k2) in zip(results, raw)
        ],
        "timings": {"total_s": time.perf_counter() - t0},
    }
    path = out / "oracle.json"
    _write_json(path, doc)
    print(f"wrote {path}: k = " + ", ".join(f"{k:.5f}" for k, _ in results))
    return EXIT_OK


MUTUAL_TOL = 1e-4
# 15x15 DtN against the default oracle differs by at most 2.7e-4 over
# b = 1 + i/128, i = 1..108 (the embedding's own error, largest on odd,2).
ORACLE_TOL = 1e-3


def cmd_compare(cfg: RunConfig, args) -> int:
    """DtN and NtD per label against each other and the FD oracle, to compare.json.

    DtN starts from the closed-form rectangle seed and NtD from DtN's
    converged k, so both track the same root.
    """
    from .oracle import richardson_eigen

    out = _outdir(cfg)
    seeds = mode_seeds(cfg.geometry)
    max_rank = max(parse_mode_label(label)[1] for label in MODE_LABELS)
    results, _raw = richardson_eigen(cfg.geometry, cfg.oracle.h, max_rank)
    by_parity = {p: [k for k, parity in results if parity == p] for p in ("even", "odd")}
    contexts = _contexts(cfg, Parity)
    report = {"modes": [], "mutual_tol": MUTUAL_TOL, "oracle_tol": ORACLE_TOL}
    all_pass = True
    for label in MODE_LABELS:
        parity, rank = parse_mode_label(label)
        ctx = contexts[Parity(parity)]
        est_d, _ = iterate_mode(Method.DTN, seeds[label], ctx, tol=cfg.tol, max_iter=cfg.max_iter)
        est_n, _ = iterate_mode(Method.NTD, est_d.k_estimate, ctx, tol=cfg.tol,
                                max_iter=cfg.max_iter)
        k_fdm = by_parity[parity][rank - 1]
        mutual = abs(est_d.k_estimate - est_n.k_estimate)
        delta = abs(est_d.k_estimate - k_fdm)
        entry = {
            "mode": label,
            "k_dtn": round(est_d.k_estimate, 9),
            "k_ntd": round(est_n.k_estimate, 9),
            "k_fdm": round(k_fdm, 9),
            "dtn_vs_ntd": round(mutual, 12),
            "pass_mutual": bool(mutual < MUTUAL_TOL),
            "embed_vs_fdm": round(delta, 12),
            "pass_oracle": bool(delta < ORACLE_TOL),
        }
        all_pass &= entry["pass_mutual"] and entry["pass_oracle"]
        report["modes"].append(entry)
    report["all_pass"] = bool(all_pass)
    path = out / "compare.json"
    _write_json(path, report)
    for entry in report["modes"]:
        print(
            f"{entry['mode']}: dtn={entry['k_dtn']:.4f} ntd={entry['k_ntd']:.4f} "
            f"fdm={entry['k_fdm']} mutual={'ok' if entry['pass_mutual'] else 'FAIL'} "
            f"oracle={'ok' if entry['pass_oracle'] else 'FAIL'}"
        )
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmbound",
        description="Membrane bound states on a semicircle+rectangle domain "
        "via interface-operator embedding (DtN/NtD).",
    )
    parser.add_argument("--config", help="JSON config path (defaults reproduce the reference setup)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="iterate one mode to self-consistency")
    p_sweep = sub.add_parser("sweep-basis", help="converged k over a list of basis sizes")
    p_sweep.add_argument(
        "--sizes", default="3x3,5x5,15x15,25x25,30x30", help="comma list like 3x3,15x15"
    )
    p_sweep.add_argument("--methods", default="both", choices=["both", "dtn", "ntd"])
    p_field = sub.add_parser("field", help="sample and export |Psi|^2 grids")
    p_field.add_argument("--mode", action="append", help="mode label like 'even,1' (repeatable)")
    sub.add_parser("oracle", help="finite-difference reference eigenvalues")
    sub.add_parser("compare", help="DtN vs NtD vs finite-difference cross-check")
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "sweep-basis": cmd_sweep_basis,
    "field": cmd_field,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    # the solver's set-up factors the compressed Gram, positive definite
    # down to COMPRESS_FLOOR, so only a basis and quadrature that leave the
    # compression no direction make its Cholesky factorization fail
    except (ConfigError, GridTooCoarse, IoFailure, MetricNotPositiveDefinite) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotConverged, IterationStalled) as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (NearDirichletResonance, NearNeumannResonance) as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE


if __name__ == "__main__":
    sys.exit(main())
