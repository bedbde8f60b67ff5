import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmbound import BasisSpec, Parity
from helmbound.cli import main
from helmbound.config import MODE_LABELS, ConfigError, RunConfig, mode_seeds

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def _write_config(tmp_path, **overrides):
    cfg = {
        "geometry": {"a": 1.0, "b": 1.5},
        "basis": {"parity": "even", "n_max": 15, "m_max": 15},
        "method": "dtn",
        "kappa0": 2.0116,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_partial_section_keeps_defaults():
    cfg = RunConfig.from_dict({"kappa0": 3.3836, "basis": {"parity": "odd"}})
    assert cfg.basis == BasisSpec(Parity.ODD)
    assert cfg.kappa0 == 3.3836
    assert cfg.oracle == RunConfig().oracle


def test_readme_example_config_is_valid():
    text = README.read_text()
    block = re.search(r"Example config[^\n]*\n+```json\n(.*?)```", text, re.S)
    assert block is not None, "README has no JSON block under 'Example config'"
    RunConfig.from_dict(json.loads(block.group(1)))


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"kappa0": 0.0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"method": "fem"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"geometry": {"a": -1.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"unknown_key": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"steklov_truncation": 400})  # unresolved by n_s=128


@pytest.mark.parametrize("name", ["steklov_truncation", "quadrature.n_r", "quadrature.n_phi",
                                  "quadrature.n_s", "kappa0", "tol", "max_iter", "grid.nx",
                                  "grid.ny", "oracle.h", "oracle.num_modes", "geometry.a",
                                  "geometry.b", "basis.alpha", "basis.beta", "basis.n_max",
                                  "basis.m_max"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_numbers_must_be_positive(name, value):
    # every number, those whose own section checks them too; the error names the dotted field
    section, _, key = name.rpartition(".")
    data = {section: {key: value}} if section else {key: value}
    with pytest.raises(ConfigError, match=rf"config: {name} must be positive, got {value}$"):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("override", [
    {"basis": {"n_max": 2.5}},
    {"basis": {"m_max": True}},
    {"max_iter": 3.5},
    {"quadrature": {"n_r": 10.5}},
    {"grid": {"nx": 40.5}},
    {"oracle": {"num_modes": 2.5}},
    {"steklov_truncation": 100.0},
    {"kappa0": "2.0"},
    {"tol": "1e-5"},
    {"oracle": {"h": "0.01"}},
    {"geometry": {"a": 1.0, "b": True}},
    {"grid": 5},
    {"basis": {"nmax": 30}},
    {"grid": {"n_x": 5}},
    {"oracle": {"hh": 1}},
    {"output_dir": 5},
    # out-of-range values found only when they are used
    {"output_dir": "file/out"},  # below the regular file made in tmp_path
    {"oracle": {"h": 0.5}},  # fewer than 10 FD grid points across the domain
    # non-finite numbers, which JSON's Infinity and NaN spell
    {"kappa0": float("inf")},
    {"geometry": {"a": 1.0, "b": float("inf")}},
    {"basis": {"alpha": float("nan")}},
    {"basis": {"beta": float("nan")}},
])
def test_wrongly_typed_config_is_config_error(tmp_path, monkeypatch, capsys, override):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    cfg_path = _write_config(tmp_path, **override)
    # the oracle section is read only by the FD subcommands
    command = "oracle" if "oracle" in override else "solve"
    assert main(["--config", str(cfg_path), command]) == 1
    assert "config error:" in capsys.readouterr().err


def test_mode_seeds_match_bounding_rectangle(domain):
    seeds = mode_seeds(domain)
    assert seeds["even,1"] == pytest.approx(2.0116, abs=1e-4)
    assert seeds["even,2"] == pytest.approx(2.9638, abs=1e-4)
    assert seeds["odd,1"] == pytest.approx(3.3836, abs=1e-4)
    assert seeds["odd,2"] == pytest.approx(4.0232, abs=1e-4)


def test_solve_reproduces_table_value(tmp_path, capsys, context_for):
    cfg_path = _write_config(tmp_path)
    assert main(["--config", str(cfg_path), "solve"]) == 0
    doc = json.loads((tmp_path / "out" / "solve_dtn_even.json").read_text())
    assert doc["converged"] is True
    assert doc["converged_k"] == pytest.approx(2.0611, abs=5e-4)
    assert doc["basis_size"] == 226
    assert doc["trial_dim"] == context_for(Parity.EVEN, 15).trial_dim
    assert doc["iterations"][0] == pytest.approx(2.0633, abs=5e-4)


def test_solve_deterministic_output(tmp_path):
    cfg_path = _write_config(tmp_path, basis={"parity": "even", "n_max": 5, "m_max": 5})
    out = tmp_path / "out" / "solve_dtn_even.json"
    assert main(["--config", str(cfg_path), "solve"]) == 0
    doc1 = json.loads(out.read_text())
    assert main(["--config", str(cfg_path), "solve"]) == 0
    doc2 = json.loads(out.read_text())
    doc1.pop("timings")
    doc2.pop("timings")
    assert doc1 == doc2


def test_invalid_config_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, kappa0=0.0)
    assert main(["--config", str(cfg_path), "solve"]) == 1


def test_not_converged_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, max_iter=1)
    assert main(["--config", str(cfg_path), "solve"]) == 2
    doc = json.loads((tmp_path / "out" / "solve_dtn_even.json").read_text())
    assert doc["converged"] is False


def test_resonance_exit_code(tmp_path):
    # kappa0 = 5 pi / 6 sits exactly on the first Dirichlet pole
    cfg_path = _write_config(tmp_path, kappa0=5.0 * np.pi / 6.0,
                             basis={"parity": "even", "n_max": 3, "m_max": 3})
    assert main(["--config", str(cfg_path), "solve"]) == 3


def test_sweep_csv(tmp_path):
    cfg_path = _write_config(tmp_path)
    assert main(["--config", str(cfg_path), "sweep-basis", "--sizes", "3x3",
                 "--methods", "dtn"]) == 0
    import csv

    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n_max", "m_max", "method", "mode_label", "converged_k", "note"]
    assert len(rows) == 5
    cells = {row[3]: float(row[4]) for row in rows[1:]}
    assert cells["even,1"] == pytest.approx(2.0630, abs=1e-3)
    assert cells["odd,2"] == pytest.approx(4.2234, abs=1e-3)


def test_sweep_warm_starts_match_cold_solves(tmp_path, monkeypatch, context_for, domain):
    # every solve of a sweep starts from its label's last converged k; the
    # rows still read the cold-seeded k.  NtD, seeded with DtN's k at its
    # size, takes one assemble call per cell from 5x5 on; at 3x3 DtN and NtD
    # differ by 5e-5 to 6.4e-3, beyond tol, and three of its cells take two
    from helmbound import Method, iterate_mode, solver

    calls = []

    def counted(method, kappa, context, _assemble=solver.assemble):
        calls.append((method, context.spec.n_max))
        return _assemble(method, kappa, context=context)

    monkeypatch.setattr(solver, "assemble", counted)
    cfg_path = _write_config(tmp_path)
    assert main(["--config", str(cfg_path), "sweep-basis", "--sizes", "3x3,5x5,15x15"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [calls.count((Method.NTD, size)) for size in (3, 5, 15)] == [7, 4, 4]
    monkeypatch.undo()
    seeds = mode_seeds(domain)
    expected = []
    for size in (3, 5, 15):
        for method in (Method.DTN, Method.NTD):
            for label in seeds:
                ctx = context_for(MODE_LABELS[label][0], size)
                k = iterate_mode(method, seeds[label], ctx)[0].k_estimate
                expected.append(f'{size},{size},{method.value},"{label}",{k:.6f},')
    assert rows == expected


def test_sweep_ntd_rows_do_not_depend_on_methods(tmp_path):
    # NtD starts from DtN's k at the same size whichever methods are
    # written.  At b = 2.0 the closed-form seed would take NtD odd,2 to the
    # mode at 4.6486 (defect D2) instead of DtN's root at 3.9006
    rows = {}
    for methods in ("ntd", "both"):
        (tmp_path / methods).mkdir()
        cfg_path = _write_config(tmp_path / methods, geometry={"a": 1.0, "b": 2.0})
        assert main(["--config", str(cfg_path), "sweep-basis", "--sizes", "15x15",
                     "--methods", methods]) == 0
        lines = (tmp_path / methods / "out" / "sweep.csv").read_text().splitlines()[1:]
        rows[methods] = [line for line in lines if ",ntd," in line]
    assert len(rows["ntd"]) == 4
    assert rows["ntd"] == rows["both"]
    odd2 = next(line for line in rows["ntd"] if '"odd,2"' in line)
    assert float(odd2.split(",")[5]) == pytest.approx(3.9006, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["sweep-basis", "--sizes", "15"],
    ["sweep-basis", "--sizes", "3x"],
    ["sweep-basis", "--sizes", "abc"],
    ["sweep-basis", "--sizes", "3x3,0x3"],
    ["field", "--mode", "even,9"],
    ["field", "--mode", "even,1", "--mode", "odd"],
])
def test_malformed_arguments_are_config_errors(tmp_path, capsys, argv):
    cfg_path = _write_config(tmp_path)
    assert main(["--config", str(cfg_path), *argv]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work


def test_field_outputs(tmp_path, read_grid_csv):
    cfg_path = _write_config(
        tmp_path,
        basis={"parity": "even", "n_max": 5, "m_max": 5},
        grid={"nx": 41, "ny": 71},
    )
    assert main(["--config", str(cfg_path), "field", "--mode", "even,1"]) == 0
    csv_path = tmp_path / "out" / "field_dtn_even_1.csv"
    pgm_path = tmp_path / "out" / "field_dtn_even_1.pgm"
    assert csv_path.exists() and pgm_path.exists()
    assert pgm_path.read_text().splitlines()[0] == "P2"
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,y,value"
    # the nodeless fundamental peaks on the symmetry axis, inside the domain
    grid = read_grid_csv(csv_path)
    i_max, j_max = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.xs[i_max] == pytest.approx(0.0, abs=1e-12)
    assert -1.5 < grid.ys[j_max] < 1.0


@pytest.mark.parametrize("nx, ny", [(2, 7), (3, 1)])
def test_field_grid_without_inside_node_is_config_error(tmp_path, capsys, nx, ny):
    # every node on the boundary: no density to normalize, so no file either
    cfg_path = _write_config(tmp_path, basis={"parity": "even", "n_max": 5, "m_max": 5},
                             grid={"nx": nx, "ny": ny})
    assert main(["--config", str(cfg_path), "field", "--mode", "even,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: the {nx}x{ny} field grid has no node inside the domain")
    assert err.count("\n") == 1
    assert not list((tmp_path / "out").glob("field_*"))


@pytest.mark.parametrize("argv, name", [
    (["field", "--mode", "even,1"], "field_dtn_even_1.csv"),
    (["solve"], "solve_dtn_even.json"),
    (["sweep-basis", "--sizes", "3x3"], "sweep.csv"),
    (["oracle"], "oracle.json"),
    (["compare"], "compare.json"),
], ids=["field", "solve", "sweep-basis", "oracle", "compare"])
def test_unwritable_output_file_is_config_error(tmp_path, capsys, argv, name):
    # a directory where the output file should go: one line on stderr, exit 1
    # (h = 0.1 keeps the finite-difference solves of oracle and compare short)
    cfg_path = _write_config(tmp_path, basis={"parity": "even", "n_max": 5, "m_max": 5},
                             grid={"nx": 41, "ny": 71}, oracle={"h": 0.1})
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main(["--config", str(cfg_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and name in err
    assert err.count("\n") == 1


def test_empty_compressed_basis_is_config_error(tmp_path, capsys):
    # sin(m phi) vanishes at the one angular node: the odd family keeps no
    # direction, so the metric has none either
    cfg_path = _write_config(tmp_path, quadrature={"n_phi": 1}, basis={"parity": "odd"},
                             kappa0=3.38)
    assert main(["--config", str(cfg_path), "solve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the odd 15x15 family has no direction")
    assert err.count("\n") == 1


def test_oracle_modes_beyond_a_block_are_config_error(tmp_path, capsys):
    # at h = 0.1 the even block has 226 unknowns and the odd block 202
    cfg_path = _write_config(tmp_path, oracle={"h": 0.1, "num_modes": 400})
    assert main(["--config", str(cfg_path), "oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the even block has 226 unknowns")
    assert err.count("\n") == 1


def test_oracle_rectangle_seeds(tmp_path):
    cfg_path = _write_config(
        tmp_path, oracle={"h": 1.0 / 32.0, "num_modes": 4, "shape": "bounding_rectangle"}
    )
    assert main(["--config", str(cfg_path), "oracle"]) == 0
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    ks = [mode["k"] for mode in doc["modes"]]
    assert ks == pytest.approx([2.0116, 2.9638, 3.3836, 4.0232], abs=2e-3)


ORACLE_H32 = [(2.061071069, "even"), (3.073016073, "even"), (3.450613551, "odd"),
              (4.212011377, "even"), (4.218863438, "odd"), (4.942691245, "even"),
              (5.195166735, "odd"), (5.361694131, "even")]


@pytest.mark.parametrize("num_modes", [8, 3])
def test_oracle_lists_lowest_modes(tmp_path, num_modes):
    # num_modes per parity are solved; the num_modes lowest overall are written
    cfg_path = _write_config(tmp_path, oracle={"h": 1.0 / 32.0, "num_modes": num_modes})
    assert main(["--config", str(cfg_path), "oracle"]) == 0
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert [mode["parity"] for mode in doc["modes"]] == [p for _, p in ORACLE_H32[:num_modes]]
    ks = [mode["k"] for mode in doc["modes"]]
    assert ks == pytest.approx([k for k, _ in ORACLE_H32[:num_modes]], abs=1e-9)


# The default oracle (h = 1/64, b = 1.5), 8 lowest modes, to 9 decimals.
ORACLE_DEFAULT = [(2.061071395, "even"), (3.073017257, "even"), (3.450614741, "odd"),
                  (4.212014852, "even"), (4.218866332, "odd"), (4.942694665, "even"),
                  (5.195170838, "odd"), (5.361703101, "even")]


def test_oracle_default_values(tmp_path):
    cfg_path = _write_config(tmp_path)
    assert main(["--config", str(cfg_path), "oracle"]) == 0
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert [(mode["k"], mode["parity"]) for mode in doc["modes"]] == ORACLE_DEFAULT


def test_compare_all_pass(tmp_path):
    cfg_path = _write_config(tmp_path, oracle={"h": 1.0 / 64.0, "num_modes": 8})
    assert main(["--config", str(cfg_path), "compare"]) == 0
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["modes"]) == 4
    for entry in doc["modes"]:
        assert entry["pass_mutual"] and entry["pass_oracle"]
    k_fdm = {entry["mode"]: entry["k_fdm"] for entry in doc["modes"]}
    assert k_fdm == {"even,1": 2.061071395, "even,2": 3.073017257,
                     "odd,1": 3.450614741, "odd,2": 4.218866332}
    assert 0.0 < doc["timings"]["oracle_s"] <= doc["timings"]["total_s"]


def _count_contexts(monkeypatch):
    """Parities of the contexts the CLI builds from here on (``iterate_mode``
    takes a context and builds none)."""
    from helmbound import cli

    built = []

    def counted(spec, *args, _build=cli.build_context, **kwargs):
        built.append(spec.parity.value)
        return _build(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "build_context", counted)
    return built


def test_compare_shares_one_context_per_parity(tmp_path, monkeypatch):
    built = _count_contexts(monkeypatch)
    cfg_path = _write_config(tmp_path, oracle={"h": 1.0 / 32.0, "num_modes": 8})
    assert main(["--config", str(cfg_path), "compare"]) == 0
    assert sorted(built) == ["even", "odd"]  # not one per DtN/NtD solve


def test_field_shares_one_context_per_parity(tmp_path, monkeypatch):
    built = _count_contexts(monkeypatch)
    cfg_path = _write_config(tmp_path, basis={"parity": "even", "n_max": 5, "m_max": 5},
                             grid={"nx": 21, "ny": 36})
    assert main(["--config", str(cfg_path), "field", "--mode", "even,1", "--mode", "even,2"]) == 0
    assert built == ["even"]  # not one per label


def test_compare_failed_check_exit(tmp_path):
    # a 3x3 basis misses ORACLE_TOL on every label (1.45e-3 to 4.6e-3 at h = 1/32)
    cfg_path = _write_config(tmp_path, basis={"parity": "even", "n_max": 3, "m_max": 3},
                             oracle={"h": 1.0 / 32.0})
    assert main(["--config", str(cfg_path), "compare"]) == 4
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert doc["all_pass"] is False
    assert not any(entry["pass_oracle"] for entry in doc["modes"])


def test_compare_not_converged_exit(tmp_path):
    cfg_path = _write_config(tmp_path, max_iter=1, oracle={"h": 1.0 / 32.0, "num_modes": 6})
    assert main(["--config", str(cfg_path), "compare"]) == 2


def test_oracle_stalled_eigensolve_exit(tmp_path, monkeypatch, capsys):
    from helmbound import oracle

    unpatched = oracle.spla.eigs

    def tilted(*args, **kwargs):
        lam, vecs = unpatched(*args, **kwargs)
        return lam + 1e-6j * np.abs(lam).max(), vecs

    monkeypatch.setattr(oracle.spla, "eigs", tilted)
    cfg_path = _write_config(tmp_path, oracle={"h": 1.0 / 16.0, "num_modes": 2})
    assert main(["--config", str(cfg_path), "oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("not converged: eigensolve returned complex eigenvalues")
    assert err.count("\n") == 1


# Run in a fresh interpreter: this process has scipy.sparse loaded already,
# by the pytest warning filter on its SparseEfficiencyWarning.
COLD_START = """
import contextlib, io, json, sys
from helmbound.cli import main

config, rcs = sys.argv[1], {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["solve"], ["sweep-basis", "--sizes", "3x3"], ["field", "--mode", "even,1"]):
        rcs[argv[0]] = main(["--config", config, *argv])
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    rcs["oracle"] = main(["--config", config, "oracle"])
print(json.dumps({"rcs": rcs, "scipy": scipy}))
"""


def test_embedding_subcommands_start_without_scipy(tmp_path):
    cfg_path = _write_config(tmp_path, grid={"nx": 21, "ny": 36},
                             oracle={"h": 1.0 / 32.0, "num_modes": 2})
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(cfg_path)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rcs"] == {"solve": 0, "sweep-basis": 0, "field": 0, "oracle": 0}
    assert doc["scipy"] == []  # solve, sweep-basis and field never load the oracle
