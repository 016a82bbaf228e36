"""End-to-end subcommand runs: outputs, exit codes, reproducibility."""

import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisolab
from anisolab import cli
from anisolab import solver as solver_module
from anisolab import grid as grid_module
from anisolab import truncations
from anisolab.cli import main
from anisolab.errors import ValidationError
from anisolab.exponents import ExponentData, MixedPower, ProblemSpec
from anisolab.grid import (
    MAX_HEADER_CHARS,
    MAX_NODES,
    Grid,
    GridField,
    load_field,
    p_laplacian_apply,
    save_field,
)
from anisolab.solver import WeightSpec, run_ladder, solve_inner
from anisolab.stability import NonlinearityEval, nonexistence_certificate, stability_index
from anisolab.truncations import TruncationPair, default_samples


def test_thresholds_json_content(tmp_path, capsys):
    out = tmp_path / "thr"
    code = main(["thresholds", "--p", "2,3,4", "--delta", "10", "--outdir", str(out)])
    assert code == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["theoremApplicable"] == "Thm3_4"
    assert doc["l1"] == pytest.approx(0.5)
    assert doc["l2"] == pytest.approx(7 / 3)
    assert doc["regionA.lower"] == pytest.approx(4.5)
    assert doc["regionI.lower"] == pytest.approx(9.0)
    printed = capsys.readouterr().out
    assert '"theoremApplicable": "Thm3_4"' in printed


def test_thresholds_exp_kind(tmp_path):
    out = tmp_path / "thr"
    code = main(["thresholds", "--p", "2,3,4", "--cap", "0.2", "--outdir", str(out)])
    assert code == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["theoremApplicable"] == "Thm3_5"
    assert doc["l3"] == pytest.approx(2 / 3)
    assert doc["regionJ.upper"] == pytest.approx(2 / 9)


def test_thresholds_on_region_I_endpoint_is_not_applicable(tmp_path):
    # delta = 3 is the open lower endpoint of I for p = (2.5, 2.5, 3)
    out = tmp_path / "thr"
    assert main(["thresholds", "--p", "2.5,2.5,3", "--delta", "3",
                 "--outdir", str(out)]) == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["regionI.lower"] == 3.0
    assert doc["regionI.member"] is False
    assert doc["theoremApplicable"] == "None"
    assert doc["selectedBeta"] is None


def test_validation_exit_code(tmp_path):
    assert main(["thresholds", "--p", "2,3,4", "--delta", "-1",
                 "--outdir", str(tmp_path / "x")]) == 2
    assert main(["thresholds", "--p", "2,3,4",
                 "--outdir", str(tmp_path / "y")]) == 2  # neither delta nor cap
    assert main(["thresholds", "--p", "2,3,4", "--delta", "1", "--cap", "0.2",
                 "--outdir", str(tmp_path / "z")]) == 2  # both


def test_truncation_check(tmp_path, capsys):
    out = tmp_path / "tc"
    code = main(["truncation-check", "--k", "2", "--alpha", "3",
                 "--p", "2,3", "--outdir", str(out)])
    assert code == 0
    doc = json.loads((out / "truncation_report.json").read_text())
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["maxCDeviation"] <= 1e-12
    assert "pass" in capsys.readouterr().out


def test_solve_outputs_and_reproducibility(tmp_path):
    out = tmp_path / "solve1"
    args = ["solve", "--p", "2,2", "--box", "0,1,0,1", "--res", "16,16",
            "--weight", "constant:1.0", "--nmax", "3", "--outdir", str(out)]
    assert main(args) == 0
    report = json.loads((out / "ladder_report.json").read_text())
    assert len(report["levels"]) == 3
    assert all(r["monoDefect"] <= 1e-6 for r in report["levels"])
    assert all(r["certificate"] == "bound" for r in report["levels"])
    field = load_field(out / "u_final.txt")
    assert field.values.max() == pytest.approx(report["levels"][-1]["supNorm"])
    # both u_final files come from one formatting pass: the CSV's value
    # column is the snapshot body, line by line
    body = (out / "u_final.txt").read_text().splitlines()[1:]
    rows = (out / "u_final.csv").read_bytes().decode().split("\r\n")
    assert rows[0] == "x1,x2,value" and rows[-1] == ""
    assert [row.rsplit(",", 1)[1] for row in rows[1:-1]] == body
    assert len(body) == 17 * 17

    # re-run from the archived config: reports identical bit for bit
    out2 = tmp_path / "solve2"
    assert main(["solve", "--config", str(out / "resolved_config.txt"),
                 "--outdir", str(out2)]) == 0
    assert (out / "ladder_report.json").read_bytes() == (
        out2 / "ladder_report.json"
    ).read_bytes()
    assert (out / "u_final.txt").read_bytes() == (out2 / "u_final.txt").read_bytes()


def test_stability_subcommand(tmp_path):
    out = tmp_path / "stab"
    code = main(["stability", "--p", "2,2", "--delta", "1", "--gamma", "1",
                 "--box", "0,3.14159,0,3.14159", "--res", "24,24",
                 "--u", "constant:1.0", "--variant", "AsWritten",
                 "--outdir", str(out)])
    assert code == 0
    doc = json.loads((out / "stability_report.json").read_text())
    # f'(1) = 2 with the first 2D eigenvalue near 2: index = lam1 - 2 < 0
    assert doc["stable"] is False
    assert (out / "minimizer.txt").exists()
    # the sign carries its error bar: the residual
    assert 0 <= doc["residual"] <= 1e-7 * abs(doc["shift"])
    assert doc["residual"] < abs(doc["gap"])
    assert "secondRitzValue" not in doc


def test_stability_index_of_the_exponential_nonlinearity(tmp_path):
    """f = -e^{1/u} (Thm 3.5) at u = 1.3 on (0, pi)^2 with p = (2, 2): the
    flux weights are 1, so the index is the lowest Dirichlet eigenvalue of
    the 5-point Laplacian minus f'(1.3) = e^{1/1.3} / 1.3^2."""
    out = tmp_path / "stab-exp"
    box = f"0,{math.pi!r},0,{math.pi!r}"
    assert main(["stability", "--p", "2,2", "--cap", "2.0", "--box", box, "--res", "24,24",
                 "--u", "constant:1.3", "--variant", "AsWritten", "--outdir", str(out)]) == 0
    doc = json.loads((out / "stability_report.json").read_text())
    h = math.pi / 24
    gap = 2 * (2 / h ** 2) * (1 - math.cos(h)) - math.exp(1 / 1.3) / 1.3 ** 2
    assert abs(doc["gap"] - gap) <= 1e-8 * max(1.0, abs(gap))
    assert doc["stable"] is True


def test_stability_nonconvergence_leaves_diagnostics(tmp_path, monkeypatch):
    # a sine candidate: a constant one has the sine start as its exact
    # eigenvector, certified after two solves
    monkeypatch.setattr(cli, "stability_index", functools.partial(stability_index, max_iter=2))
    grid = Grid(box=((0.0, 3.0),) * 2, res=(24, 24))
    snapshot = tmp_path / "u.txt"
    save_field(GridField.from_function(
        grid, lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x / 3.0) * np.sin(np.pi * y / 3.0 + 0.1)),
        snapshot)
    out = tmp_path / "nc"
    code = main(["stability", "--p", "2,3", "--delta", "1", "--box", "0,3,0,3",
                 "--res", "24,24", "--u", f"file:{snapshot}", "--outdir", str(out)])
    assert code == 3
    doc = json.loads((out / "nonconvergence.json").read_text())
    assert doc["residual"] > doc["diagnostics"]["bound"]
    assert doc["diagnostics"]["iterations"] == 2
    assert np.isfinite(doc["diagnostics"]["rho"])


def test_stability_arpack_failure_exits_3_with_diagnostics(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg as spla

    def unconverged(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                       np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", unconverged)
    out = tmp_path / "nc"
    code = main(["stability", "--p", "2,4", "--delta", "1", "--box", "0,3,0,3",
                 "--res", "16,16", "--u", "constant:1.0", "--outdir", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((out / "nonconvergence.json").read_text())
    assert doc["message"].startswith("ARPACK failed")
    assert set(doc["diagnostics"]) == {"rho", "iterations", "bound"}
    assert np.isfinite(doc["diagnostics"]["rho"]) and np.isfinite(doc["residual"])
    assert not (out / "stability_report.json").exists()


def test_sweep_subcommand_and_gate(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--p", "2,3,4", "--delta", "10", "--gamma", "10",
                 "--box=-12,12,-12,12,-12,12", "--res", "32,32,32",
                 "--u", "constant:1.0", "--outdir", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "R,lhs,rhs,ratio"
    assert len(lines) > 4
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["theoremApplicable"] == "Thm3_4"
    assert doc["sweep"]["firstViolatingR"] is not None

    refused = main(["sweep", "--p", "2,3,4", "--cap", "0.5",
                    "--box=-8,8,-8,8,-8,8", "--res", "16,16,16",
                    "--u", "constant:0.5", "--outdir", str(tmp_path / "sw2")])
    assert refused == 4


def test_sweep_without_a_violation_says_so(tmp_path, capsys):
    out = tmp_path / "sweep-none"
    assert main(["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8,-8,8",
                 "--res", "8,8,8", "--u", "constant:1.0", "--radii", "1:3:3",
                 "--cconst", "1e30", "--outdir", str(out)]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["sweep"]["firstViolatingR"] is None
    assert doc["conclusion"].startswith("no violation within the swept radii; ")
    assert capsys.readouterr().out == doc["conclusion"] + "\n"


def test_sweep_field_from_file(tmp_path):
    grid = Grid(box=((-8.0, 8.0),) * 2, res=(32, 32))
    u = GridField.constant(grid, 0.15)
    upath = tmp_path / "u.txt"
    save_field(u, upath)
    out = tmp_path / "sweep-file"
    code = main(["sweep", "--p", "2.5,3.5", "--cap", "0.2",
                 "--box=-8,8,-8,8", "--res", "32,32",
                 "--u", f"file:{upath}", "--radii", "0.5:1.9:5",
                 "--outdir", str(out)])
    assert code == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["rangeOk"] is True


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "exponents.p = 2,3,4\n"
        "problem.delta = 10\n"
    )
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(cfg), "--outdir", str(out)]) == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["theoremApplicable"] == "Thm3_4"
    # flag overrides config
    out2 = tmp_path / "out2"
    assert main(["thresholds", "--config", str(cfg), "--delta", "5",
                 "--outdir", str(out2)]) == 0
    doc2 = json.loads((out2 / "thresholds.json").read_text())
    assert doc2["theoremApplicable"] == "None"


def test_non_finite_weight_exit_code(tmp_path):
    grid = Grid(box=((0.0, 1.0),) * 2, res=(8, 8))
    vals = np.ones(grid.shape)
    vals[4, 4] = np.nan
    wpath = tmp_path / "w.txt"
    save_field(GridField(grid, vals), wpath)
    base = ["solve", "--p", "2,2", "--box", "0,1,0,1", "--res", "8,8", "--nmax", "2"]
    assert main(base + ["--weight", f"file:{wpath}", "--outdir", str(tmp_path / "a")]) == 2
    assert main(base + ["--weight", "constant:inf", "--outdir", str(tmp_path / "b")]) == 2


def test_truncated_snapshot_exit_code(tmp_path):
    grid = Grid(box=((0.0, 1.0),) * 2, res=(8, 8))
    upath = tmp_path / "u.txt"
    save_field(GridField.constant(grid, 0.5), upath)
    lines = upath.read_text().splitlines()
    upath.write_text("\n".join(lines[:30]) + "\n")  # header + 29 of 81 values
    with pytest.raises(ValidationError, match="29 values"):
        load_field(upath)
    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("anisofield 2 8\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValidationError, match="malformed"):
        load_field(bad_header)
    assert main(["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1",
                 "--res", "8,8", "--u", f"file:{upath}",
                 "--outdir", str(tmp_path / "s")]) == 2



@pytest.mark.parametrize("radii", ["-1", "-2,-1", "nan"])
def test_sweep_nonpositive_radii_are_refused(tmp_path, capsys, radii):
    # the radii parser checks no sign: the sweep refuses them
    assert main(["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1", "--res", "8,8",
                 "--u", "constant:1", f"--radii={radii}",
                 "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert err[0].endswith("ball radius must be positive")

def test_forged_snapshot_header_is_refused_before_reading(tmp_path, capsys):
    # the header declares 4096^3 cells; the grid size guard refuses it
    # before any value is read
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 3 4096 4096 4096 -8 8 -8 8 -8 8\n1.0\n")
    assert main(_SWEEP[:-1] + [f"file:{path}", "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert "exceeds the limit" in err[0]


def test_forged_snapshot_body_is_refused_without_reading_it(tmp_path, capsys):
    # the header declares 81 nodes; the body holds 2,000,000 values, of
    # which only one row past the header's count is read
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 2 8 8 0 1 0 1\n" + "1.0\n" * 2_000_000)
    assert main(["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1",
                 "--res", "8,8", "--u", f"file:{path}",
                 "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert "holds more than 81 values, its header needs 81" in err[0]


def test_forged_snapshot_row_of_many_values_is_refused(tmp_path, capsys):
    # the header declares 81 nodes; the body is one row of 2,000,000 values,
    # refused as soon as that row is read
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 2 8 8 0 1 0 1\n" + "1.0 " * 2_000_000 + "\n")
    assert main(["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1",
                 "--res", "8,8", "--u", f"file:{path}",
                 "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert err[0].endswith("a body row is not one value")


def test_forged_snapshot_row_without_newline_is_refused_in_bounded_memory(tmp_path, capsys):
    # the body is one 8 MB row with no newline: refused once the reader
    # holds MAX_ROW_CHARS characters of it, so memory stays one read block
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 2 8 8 0 1 0 1\n" + "1.0 " * 2_000_000)
    argv = ["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1", "--res", "8,8",
            "--u", f"file:{path}", "--outdir", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("a body row is not one value")
    assert peak < 2 * 2 ** 20


def test_forged_snapshot_header_of_many_tokens_is_refused_in_bounded_memory(tmp_path, capsys):
    # the header line carries 2,000,000 tokens past its box and no newline:
    # refused once the reader holds MAX_HEADER_CHARS characters of it
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 2 8 8 0 1 0 1" + " 1.0" * 2_000_000)
    argv = ["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1", "--res", "8,8",
            "--u", f"file:{path}", "--outdir", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert err[0].endswith(f"its header is longer than {MAX_HEADER_CHARS} characters")
    assert peak < 2 * 2 ** 20


def test_snapshot_header_tokens_past_the_box_are_refused(tmp_path, capsys):
    path = tmp_path / "forged.txt"
    path.write_text("anisofield 2 8 8 0 1 0 1 7\n" + "0.0\n" * 81)
    assert main(["sweep", "--p", "2,2", "--cap", "0.2", "--box", "0,1,0,1", "--res", "8,8",
                 "--u", f"file:{path}", "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert err[0].endswith("header tokens past the box of a 2D grid")


def test_stability_degenerate_spectrum_minimizer_is_reproducible(tmp_path):
    # constant along the last axis, whose p = 3 flux weights then vanish:
    # the lowest eigenvalue is multiple, and minimizer.txt is still the same
    # bytes in every run and in either call order.  In 3D LOBPCG never
    # leaves the lines of the sine start, so the minimizer is that sine
    # along the last axis; in 2D ARPACK may restart from its own vectors
    runs = {}
    for p, res, profile in [("2,3", (24, 24), lambda x, y: np.sin(np.pi * x / 3.0)),
                            ("2,2,3", (12, 12, 12),
                             lambda x, y, z: np.sin(np.pi * x / 3.0) * np.sin(np.pi * y / 3.0))]:
        grid = Grid(box=((0.0, 3.0),) * len(res), res=res)
        snapshot = tmp_path / f"u{len(res)}.txt"
        save_field(GridField.from_function(grid, lambda *xs: 1.0 + 0.2 * profile(*xs)), snapshot)
        runs[len(res)] = ["stability", "--p", p, "--delta", "1",
                          "--box", ",".join(["0,3"] * len(res)),
                          "--res", ",".join(map(str, res)), "--u", f"file:{snapshot}"]
    minimizers, docs = {2: [], 3: []}, []
    for i, dim in enumerate([2, 3, 3, 2]):
        out = tmp_path / f"run{i}"
        assert main(runs[dim] + ["--outdir", str(out)]) == 0
        minimizers[dim].append((out / "minimizer.txt").read_bytes())
        docs.append(json.loads((out / "stability_report.json").read_text()))
    for first, second in minimizers.values():
        assert first == second
    for doc in docs:
        assert doc["residual"] <= 1e-7 * max(1.0, abs(doc["shift"]))
    lines = load_field(tmp_path / "run1" / "minimizer.txt").values[1:-1, 1:-1, 1:-1]
    sine = np.sin(np.pi * np.arange(1, 12) / 12)
    assert np.allclose(lines, lines[:, :, 5:6] * sine / sine[5], rtol=0, atol=1e-12)


def test_solve_nonconvergence_leaves_diagnostics(tmp_path):
    out = tmp_path / "nc"
    code = main(["solve", "--p", "2,3", "--box", "0,1,0,1", "--res", "16,16",
                 "--nmax", "2", "--max-outer", "2", "--outdir", str(out)])
    assert code == 3
    doc = json.loads((out / "nonconvergence.json").read_text())
    assert "Newton steps" in doc["message"]
    assert doc["residual"] == doc["diagnostics"]["residuals"][-1] > 1e-8
    assert len(doc["diagnostics"]["steps"]) == 2
    assert (out / "resolved_config.txt").exists()


def test_solve_certificate_refusal_leaves_diagnostics(tmp_path, capsys):
    out = tmp_path / "nc-fix"
    assert main(["solve", "--p", "3", "--box", "0,1", "--res", "16", "--nmax", "2",
                 "--tol-fix", "1e-12", "--inner-tol", "1e-5", "--outdir", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("non-convergence: certified level gap 1.214e-10 exceeds tol_fix=1e-12")
    doc = json.loads((out / "nonconvergence.json").read_text())
    assert doc["message"] == "certified level gap 1.214e-10 exceeds tol_fix=1e-12"


@pytest.mark.parametrize("m, expected", [("2", True), ("0.5", False)])
def test_uniform_bound_expectation_when_pbar_reaches_n(tmp_path, m, expected):
    """p = (3,) has pbar = 3 >= N = 1, so a bound is expected exactly when m > 1."""
    out = tmp_path / "solve-m"
    assert main(["solve", "--p", "3", "--box", "0,1", "--res", "16", "--nmax", "2",
                 "--weight-m", m, "--outdir", str(out)]) == 0
    doc = json.loads((out / "ladder_report.json").read_text())
    assert doc["uniformBoundExpected"] is expected


_SOLVE = ["solve", "--p", "2,2", "--box", "0,1,0,1", "--res", "8,8"]
_STAB = ["stability", "--p", "2,2", "--delta", "1", "--res", "8,8", "--u", "constant:1"]
_SWEEP = ["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8,-8,8", "--res", "8,8,8",
          "--u", "constant:1.0"]


# "{tmp}" in argv or in the expected line stands for the test's directory,
# which holds a field saved on another grid and a file that is no snapshot
@pytest.mark.parametrize("argv, config, expected", [
    (_SOLVE + ["--nmax", "abc"], None, "bad solve.nmax 'abc'"),
    (_SOLVE + ["--weight", "constant:abc"], None, "bad weight.descriptor 'constant:abc'"),
    (_SOLVE + ["--seed", "x"], None, "bad run.seed 'x'"),
    (["truncation-check", "--k", "2", "--alpha", "x"], None, "bad truncation.alpha 'x'"),
    (_SWEEP + ["--radii", "a:2:3"], None, "bad sweep.radii 'a:2:3'"),
    (["thresholds", "--delta", "10"], None, "thresholds needs exponents.p (--p)"),
    (_STAB, None, "stability needs grid.box (--box)"),
    (["solve", "--p", "2,2", "--res", "8,8"], None, "solve needs grid.box (--box)"),
    (_STAB + ["--box", "0,3,0,3"], "stability.variant = Bogus\n",
     "bad stability.variant 'Bogus'"),
    (_SWEEP + ["--weight", "constant:nan"], None, "field constant:nan has non-finite values"),
    (_SWEEP[:-1] + ["constant:nan"], None, "field constant:nan has non-finite values"),
    (_SOLVE[:-1] + ["100000,100000"], None,
     "a grid of 10000200001 nodes exceeds the limit of 16777216 nodes"),
    (_SOLVE + ["--weight", "file:{tmp}/missing.txt"], None,
     "cannot read field {tmp}/missing.txt: No such file or directory"),
    (_SOLVE + ["--weight", "file:{tmp}/other-grid.txt"], None,
     "field {tmp}/other-grid.txt lives on a different grid"),
    (_SOLVE + ["--weight", "file:{tmp}/not-a-field.txt"], None,
     "{tmp}/not-a-field.txt is not a field snapshot"),
    (_SOLVE + ["--config", "{tmp}/missing.cfg"], None,
     "cannot read config {tmp}/missing.cfg: No such file or directory"),
    (_SOLVE, "solve.nmax 3\n", "bad config line (expected key = value): 'solve.nmax 3'"),
], ids=["nmax", "weight", "seed", "alpha", "radii", "no-p", "stability-no-box",
        "solve-no-box", "variant", "nan-weight", "nan-candidate", "res-too-large",
        "weight-file-missing", "weight-file-other-grid", "weight-file-not-a-field",
        "config-missing", "config-line-without-equals"])
def test_malformed_input_exits_2(tmp_path, capsys, argv, config, expected):
    save_field(_ONES, tmp_path / "other-grid.txt")
    (tmp_path / "not-a-field.txt").write_text("1.0\n2.0\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    expected = "validation error: " + expected.replace("{tmp}", str(tmp_path))
    assert len(err) == 1 and err[0].startswith(expected)


_TRUNCATION = ["truncation-check", "--k", "2", "--alpha", "4"]


# each count is refused before anything is allocated; without the check the
# huge ones would fail at once in numpy, so no case can allocate gigabytes
@pytest.mark.parametrize("argv, config", [
    (_SWEEP + ["--radii", "1:2:1000000000000"], None),
    (_SWEEP + ["--radii", "1:2:0"], None),
    (_TRUNCATION + ["--samples", "1000000000000"], None),
    (_TRUNCATION + ["--samples=-5"], None),
    (_TRUNCATION + ["--samples", "0"], None),
    (_TRUNCATION, "truncation.samples = -5\n"),
], ids=["radii-huge", "radii-zero", "samples-huge", "samples-negative",
        "samples-zero", "samples-config"])
def test_out_of_range_counts_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert err[0].endswith(f"count must lie in 1..{MAX_NODES}")


# a NaN p_i ended in a traceback or exit 3; a NaN tolerance passed every
# `gap > tol` test and certified each level; a nonpositive one, or a
# Newton-step cap below 1, ended in exit 3; `--t-max inf` reported ok; an
# infinite alpha, a NaN `--p` entry, a NaN `weight.m` and `--cconst inf` ran
# and exited 0; a truncation pair whose coefficients overflow, an infinite
# box endpoint and an overflowing sweep bound ended in a traceback; a NaN
# box endpoint ended in exit 3; a cell width whose square overflows or
# underflows ended in a traceback, and one whose inverse square overflows in
# exit 3; a `--t-max` whose large-t proxy 100 * t_max overflows exited 0
# with FAIL and numpy warnings
_BAD_P = "validation error: every p_i must be finite"
_BAD_TOL_FIX = "validation error: tol_fix must be finite and > 0"
_BAD_INNER_TOL = "validation error: inner_tol must be finite and > 0"
_BAD_MAX_OUTER = "validation error: the level solve needs a Newton-step cap >= 1"
_BAD_T_MAX = "validation error: t_max = "
_BAD_M = "validation error: integrability exponent m must be finite and > 0"


@pytest.mark.parametrize("argv, config, expected", [
    (["thresholds", "--p", "nan,2", "--delta", "3"], None, _BAD_P),
    (["thresholds", "--p", "2,inf", "--delta", "3"], None, _BAD_P),
    (_SOLVE[:2] + ["nan,2"] + _SOLVE[3:], None, _BAD_P),
    (_SOLVE + ["--tol-fix", "nan"], None, _BAD_TOL_FIX),
    (_SOLVE + ["--tol-fix=-1"], None, _BAD_TOL_FIX),
    (_SOLVE + ["--tol-fix", "inf"], None, _BAD_TOL_FIX),
    (_SOLVE, "solve.tolFix = nan\n", _BAD_TOL_FIX),
    (_SOLVE + ["--inner-tol", "0"], None, _BAD_INNER_TOL),
    (_SOLVE + ["--inner-tol", "nan"], None, _BAD_INNER_TOL),
    (_SOLVE + ["--max-outer", "0"], None, _BAD_MAX_OUTER),
    (_SOLVE + ["--max-outer=-1"], None, _BAD_MAX_OUTER),
    (_TRUNCATION + ["--t-max=-1"], None, _BAD_T_MAX),
    (_TRUNCATION + ["--t-max", "inf"], None, _BAD_T_MAX),
    (_TRUNCATION + ["--t-max", "nan"], None, _BAD_T_MAX),
    (_TRUNCATION[:4] + ["inf"], None, "validation error: alpha must be finite"),
    (_TRUNCATION + ["--p", "2,nan"], None, _BAD_P),
    (_TRUNCATION[:4] + ["1e308"], None, "validation error: k = 2, alpha = 1e+308: the"),
    (["truncation-check", "--k", "1000", "--alpha", "150"], None, "validation error: k = 1000"),
    (["truncation-check", "--k", "3", "--alpha", "700"], None, "validation error: k = 3"),
    (_SOLVE + ["--nmax", "2", "--weight-m", "nan"], None, _BAD_M),
    (_SOLVE, "weight.m = inf\n", _BAD_M),
    (["solve", "--p", "2,2", "--box", "0,inf,0,1", "--res", "8,8"], None,
     "validation error: box endpoints must be finite"),
    (["stability", "--p", "2,3", "--delta", "1", "--box", "0,nan,0,3", "--res", "8,8",
      "--u", "constant:1.0"], None, "validation error: box endpoints must be finite"),
    (_SWEEP + ["--cconst", "inf"], None, "validation error: the estimate constant C must be finite and positive"),
    (_SWEEP + ["--radii", "1e-300,1"], None, "validation error: C * sum_i R^(decay_i) overflows"),
    (["solve", "--p", "2,2", "--box", "0,1e300,0,1", "--res", "8,8", "--nmax", "2"], None,
     "validation error: cell widths"),
    (["stability", "--p", "2,3", "--delta", "1", "--box", "0,1e-170,0,3", "--res", "8,8",
      "--u", "constant:1.0"], None, "validation error: cell widths"),
    (["solve", "--p", "2,2", "--box", "0,1e-160,0,1", "--res", "8,8", "--nmax", "2"], None,
     "validation error: cell widths"),
    (_TRUNCATION + ["--t-max", "1e307", "--p", "2,3"], None,
     "validation error: t_max = 1e+307: the large-t proxy"),
], ids=["p-nan", "p-inf", "solve-p-nan", "tol-fix-nan", "tol-fix-negative", "tol-fix-inf",
        "tol-fix-config", "inner-tol-zero", "inner-tol-nan", "max-outer-zero",
        "max-outer-negative", "t-max-negative", "t-max-inf", "t-max-nan", "alpha-inf",
        "truncation-p-nan", "alpha-huge", "k-1000-alpha-150", "k-3-alpha-700",
        "weight-m-nan", "weight-m-config", "box-inf", "stability-box-nan", "cconst-inf",
        "radii-tiny", "box-h2-overflows", "stability-box-h2-underflows",
        "box-inverse-h2-overflows", "t-max-proxy-overflows"])
def test_non_finite_or_out_of_domain_values_exit_2(tmp_path, capsys, argv, config, expected):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(expected)
    assert not (tmp_path / "out" / "nonconvergence.json").exists()


def test_count_limits_are_inclusive(monkeypatch):
    # a lowered limit, so that a count at it allocates little
    monkeypatch.setattr(grid_module, "MAX_NODES", 40)
    tp = TruncationPair(k=2, alpha=4.0)
    for n in (1, 40):
        assert default_samples(tp, n=n).size > 0
        assert len(cli._radii(f"1:2:{n}")) == n
    for n in (0, 41):
        with pytest.raises(ValidationError, match="count must lie in 1..40"):
            default_samples(tp, n=n)
        with pytest.raises(ValueError, match="count must lie in 1..40"):
            cli._radii(f"1:2:{n}")


# Each input domain is checked once, by the library call that takes the value;
# the CLI only parses the text.  Per domain: the message of its refusal, the
# library calls that take the value, the CLI runs that pass it on, and the
# values outside the domain.
# Before the checks moved into the library, `run_ladder` certified every level
# at tol_fix = nan or inf, ran 200 Newton steps and exited 3 at tol_fix = -1
# or inner_tol = nan, accepted `WeightSpec(m=-1)`, raised numpy's bare
# ValueError at seed = -1, and `default_samples(t_max=-1)` warned, returned a
# NaN sample and was refused as "samples must be >= 0".
_SMALL = Grid(box=((0.0, 1.0),) * 2, res=(4, 4))
_ONES = GridField.constant(_SMALL, 1.0)
_E23 = ExponentData.from_p((2.0, 3.0))
_TP = TruncationPair(k=2, alpha=4.0)
_SOLVE_SMALL = ["solve", "--p", "2,3", "--box", "0,1,0,1", "--res", "4,4", "--nmax", "2"]
_STAB_SMALL = ["stability", "--p", "2,3", "--delta", "1", "--box", "0,3,0,3", "--res", "4,4",
               "--u", "constant:1.0"]
_SWEEP_2D = ["sweep", "--delta", "10", "--box=-8,8,-8,8", "--res", "6,6", "--u", "constant:1.0",
             "--radii", "1:3:3"]


def _ladder(**kwargs):
    return run_ladder(2, WeightSpec(g=_ONES), _E23, **kwargs)


_NON_POSITIVE = (math.nan, math.inf, 0.0, -1.0)
_DOMAINS = {
    "tol_fix": ("tol_fix must be finite and > 0",
                [lambda v: _ladder(tol_fix=v)],
                [lambda t: _SOLVE_SMALL + [f"--tol-fix={t}"]], _NON_POSITIVE),
    "inner_tol": ("(inner_tol|the inner solve tolerance) must be finite and > 0",
                  [lambda v: _ladder(inner_tol=v), lambda v: solve_inner(_ONES, _E23, tol=v)],
                  [lambda t: _SOLVE_SMALL + [f"--inner-tol={t}"]], _NON_POSITIVE),
    "tolerance floor": ("(tol_fix|inner_tol|the inner solve tolerance) = [^ ]+ is below the "
                        "smallest normal float",
                        [lambda v: _ladder(tol_fix=v), lambda v: _ladder(inner_tol=v),
                         lambda v: solve_inner(_ONES, _E23, tol=v)],
                        [lambda t: _SOLVE_SMALL + [f"--tol-fix={t}"],
                         lambda t: _SOLVE_SMALL + [f"--inner-tol={t}"]],
                        (1e-320, 5e-324, sys.float_info.min / 2)),
    "max_outer": ("needs a Newton-step cap >= 1",
                  [lambda v: _ladder(max_outer=v), lambda v: solve_inner(_ONES, _E23, max_iter=v)],
                  [lambda t: _SOLVE_SMALL + [f"--max-outer={t}"]], (0, -1)),
    "seed": ("the seed must be an integer >= 0",
             [lambda v: _ladder(seed=v)],
             [lambda t: _SOLVE_SMALL + [f"--seed={t}"]],
             (-1,)),
    "weight.m": ("integrability exponent m must be finite and > 0",
                 [lambda v: WeightSpec(g=_ONES, m=v)],
                 [lambda t: _SOLVE_SMALL + [f"--weight-m={t}"]], _NON_POSITIVE),
    "samples": ("the sample count must lie in 1..",
                [lambda v: default_samples(_TP, n=v)],
                [lambda t: ["truncation-check", "--k", "2", "--alpha", "4", f"--samples={t}"]],
                (0, -1, MAX_NODES + 1)),
    "t_max": ("the large-t proxy [^ ]+ must be finite and > 0",
              [lambda v: default_samples(_TP, t_max=v)],
              [lambda t: ["truncation-check", "--k", "2", "--alpha", "4", f"--t-max={t}"]],
              _NON_POSITIVE + (1e307,)),
    "dimension": ("exponent dimension [13] != grid dimension 2",
                  [lambda v: solve_inner(_ONES, ExponentData.from_p(v)),
                   lambda v: p_laplacian_apply(_ONES, ExponentData.from_p(v)),
                   lambda v: stability_index(_ONES, NonlinearityEval.mixed_power(1.0, 1.0),
                                             _ONES, v),
                   lambda v: nonexistence_certificate(
                       ProblemSpec(kind=MixedPower(10.0, 10.0), exponents=ExponentData.from_p(v)),
                       _ONES, _ONES, radii=[0.1, 0.2])],
                  [lambda t: ["solve", "--p", t, "--box", "0,1,0,1", "--res", "4,4"],
                   lambda t: _STAB_SMALL[:1] + ["--p", t] + _STAB_SMALL[3:],
                   lambda t: _SWEEP_2D + ["--p", t]],
                  ((2.0,), (2.0, 3.0, 4.0))),
}


@pytest.mark.parametrize("domain, value", [
    (domain, value) for domain, (*_, values) in _DOMAINS.items() for value in values
], ids=str)
def test_each_domain_is_refused_by_the_library_and_the_cli(tmp_path, capsys, domain, value):
    message, library, runs, _ = _DOMAINS[domain]
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in library:
            with pytest.raises(ValidationError, match=message):
                call(value)
        for i, argv in enumerate(runs):
            assert main(argv(text) + ["--outdir", str(tmp_path / f"out-{i}")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("validation error:"), err
            assert re.search(message, err[0]), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# a subnormal tolerance, given or derived as 8 tol_fix / L^2, ran 200 Newton
# steps and exited 3 at a residual of about 4e-15
@pytest.mark.parametrize("argv, expected", [
    (_SOLVE_SMALL + ["--tol-fix", "1e-320"], "tol_fix = 1e-320 is below the smallest normal float"),
    (_SOLVE_SMALL + ["--inner-tol", "1e-320"], "inner_tol = 1e-320 is below the smallest normal float"),
    (["solve", "--p", "2,3", "--box", "0,1e5,0,1e5", "--res", "4,4", "--nmax", "2",
      "--tol-fix", "1e-300"], "8 tol_fix / L^2 (tol_fix = 1e-300, p = 2 box side L = 100000.0)"),
], ids=["tol-fix", "inner-tol", "derived"])
def test_subnormal_tolerance_exits_2_before_any_newton_step(tmp_path, capsys, monkeypatch,
                                                            argv, expected):
    def refuse(*args, **kwargs):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(solver_module, "_newton_direction", refuse)
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"validation error: {expected}"), err
    assert not (tmp_path / "out" / "nonconvergence.json").exists()


_TOLERANCES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-320, sys.float_info.min, 1e-300, 1e-12, 1e-8, 4.0, 1e300]),
)


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(
    p=st.sampled_from([(3,), (2, 3)]),
    res=st.lists(st.integers(2, 8), min_size=2, max_size=2),
    tol_fix=_TOLERANCES,
    inner_tol=st.none() | _TOLERANCES,
    max_outer=st.integers(-1, 20),
    nmax=st.integers(-1, 4),
)
def test_solve_tolerance_and_step_keys_end_in_a_documented_exit(p, res, tol_fix, inner_tol,
                                                                max_outer, nmax):
    dim = len(p)
    argv = ["solve", "--p", ",".join(map(str, p)), "--box", ",".join(["0,1"] * dim),
            "--res", ",".join(map(str, res[:dim])), "--weight", "constant:1.0",
            f"--tol-fix={tol_fix!r}", f"--max-outer={max_outer}", f"--nmax={nmax}"]
    if inner_tol is not None:
        argv.append(f"--inner-tol={inner_tol!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv + ["--outdir", outdir])
    text = err.getvalue()
    assert code in (0, 2, 3), (argv, code, text)
    assert "Traceback" not in text and "RuntimeWarning" not in text, (argv, text)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    if code == 2:
        lines = text.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:"), (argv, text)


_STABILITY_VALUES = st.sampled_from(
    [math.nan, -math.inf, -1.0, 0.0, 5e-324, sys.float_info.min, 1e-300, 1e-8, 0.5, 1.0,
     2.0, 1e8, 1e300, 1e308, math.inf])


# res 2 on an axis gives one interior node: one-node pencils in 1D, and in
# 2D and 3D axes without links
@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(
    p=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (2, 3, 4)]),
    res=st.lists(st.integers(2, 6), min_size=3, max_size=3),
    delta=_STABILITY_VALUES,
    gamma=st.none() | _STABILITY_VALUES,
    u=_STABILITY_VALUES,
    weight=_STABILITY_VALUES,
    variant=st.sampled_from(["AsWritten", "WeightedByG"]),
)
def test_stability_keys_end_in_a_documented_exit(p, res, delta, gamma, u, weight, variant):
    dim = len(p)
    argv = ["stability", "--p", ",".join(map(str, p)), "--box", ",".join(["0,3"] * dim),
            "--res", ",".join(map(str, res[:dim])), f"--delta={delta!r}",
            f"--u=constant:{u!r}", f"--weight=constant:{weight!r}", "--variant", variant]
    if gamma is not None:
        argv.append(f"--gamma={gamma!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv + ["--outdir", outdir])
        report = (json.loads((Path(outdir) / "stability_report.json").read_text())
                  if code == 0 else None)
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, text)
    assert "Traceback" not in text and "Warning" not in text, (argv, text)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        numbers = [report["gap"], report["shift"], report["residual"]]
        assert all(math.isfinite(x) for x in numbers), (argv, report)
        assert report["stable"] == (report["gap"] >= 0.0), (argv, report)


def test_overflowing_sweep_integral_exits_2(tmp_path, capsys):
    # the left side int g (1/u)^E was written as inf to sweep.csv and as
    # null to certificate.json, after a RuntimeWarning, with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_SWEEP + ["--radii", "1:3:3", "--weight", "constant:1e308",
                              "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["validation error: int g (psi/u)^E overflows a float"]
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_overflowing_ladder_limit_battery_exits_2(tmp_path, capsys):
    # g e^{1/u} overflowed in the limit battery: a RuntimeWarning, then
    # "weakResidualLimitMax": null in ladder_report.json and exit 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--p", "2,2", "--box", "0,1,0,1", "--res", "6,6", "--nmax", "2",
                     "--weight", "constant:1e308", "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    assert err.strip().splitlines() == [
        "validation error: the limit term g e^{1/u} or its weak-form gap overflows a float"]
    assert not caught
    assert not (tmp_path / "out" / "ladder_report.json").exists()


@pytest.mark.parametrize("res", [6, 8, 12, 24])
def test_stability_certifies_a_shift_near_the_float_limit(tmp_path, capsys, res):
    # the residual of entries about 1e292 left after cancelling a shift of
    # -1e308 overflowed when squared: a RuntimeWarning, residual inf, exit 3.
    # Scaled, it certifies the gap -1e308 (exit 0) rather than refusing (2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["stability", "--p", "2,2", "--delta", "1", "--gamma", "1e308",
                     "--box", "0,3,0,3", "--res", f"{res},{res}", "--u", "constant:1.0",
                     "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "Warning" not in err and "Traceback" not in err
    assert not caught
    doc = json.loads((tmp_path / "stability_report.json").read_text())
    assert doc["residual"] <= 1e-7 * abs(doc["shift"]) < abs(doc["gap"])
    assert doc["stable"] is False


@pytest.mark.parametrize("argv", [
    ["stability", "--p", "2,2", "--delta", "1", "--box", "0,3,0,3", "--res", "8,2",
     "--u", "constant:1.0"],
    ["stability", "--p", "2,2,3", "--delta", "1", "--box", "0,3,0,3,0,3", "--res", "6,6,2",
     "--u", "constant:1.0"],
    ["stability", "--p", "2,2,2", "--delta", "1", "--box", "0,3,0,3,0,3", "--res", "2,2,2",
     "--u", "constant:1.0"],
    ["solve", "--p", "2,3", "--box", "0,1,0,1", "--res", "8,2", "--nmax", "2"],
    ["solve", "--p", "2,2,3", "--box", "0,1,0,1,0,1", "--res", "6,6,2", "--nmax", "2"],
    ["solve", "--p", "2", "--box", "0,1", "--res", "2", "--nmax", "2"],
    ["solve", "--p", "3", "--box", "0,1", "--res", "2", "--nmax", "2"],
], ids=["stability-2d", "stability-3d", "stability-3d-one-node", "solve-2d", "solve-3d",
        "solve-1d-one-node-p2", "solve-1d-one-node-p3"])
def test_grids_with_one_interior_node_along_an_axis_run(tmp_path, argv):
    # two axes shared a DIA offset in `grid.stiffness`, and LAPACK's banded
    # solve refused the 1x1 1D Newton system: a traceback, exit 1
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    if argv[0] == "solve":
        doc = json.loads((tmp_path / "ladder_report.json").read_text())
        tol_fix = 1e-8  # the default
        assert len(doc["levels"]) == 2
        assert all(lv["residual"] <= tol_fix for lv in doc["levels"])


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("exponents.p = 2,2\nsolve.tolfix = 1e-3\n")
    code = main(["solve", "--config", str(cfg), "--box", "0,1,0,1", "--res", "8,8",
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "solve.tolfix" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_weight_floor_flag_is_rejected(tmp_path):
    assert main(["thresholds", "--p", "2,3,4", "--delta", "10", "--weight-floor", "1",
                 "--outdir", str(tmp_path / "out")]) == 2


def test_removed_stability_seed_is_rejected_and_its_configs_replay(tmp_path):
    # the stability start is the lowest sine mode, so `--seed` / `run.seed`
    # is gone from `stability`; a config written with it replays once the
    # line is deleted
    argv = ["stability", "--p", "2,3", "--delta", "1", "--box", "0,3,0,3", "--res", "8,8",
            "--u", "constant:1.0"]
    assert main(argv + ["--seed", "0", "--outdir", str(tmp_path / "flag")]) == 2
    fresh = tmp_path / "fresh"
    assert main(argv + ["--outdir", str(fresh)]) == 0
    written = (fresh / "resolved_config.txt").read_text()
    cfg = tmp_path / "old.cfg"
    cfg.write_text(written + "run.seed = 0\n")
    assert main(["stability", "--config", str(cfg), "--outdir", str(tmp_path / "old")]) == 2
    cfg.write_text(written)
    replay = tmp_path / "replay"
    assert main(["stability", "--config", str(cfg), "--outdir", str(replay)]) == 0
    for name in ("stability_report.json", "minimizer.txt"):
        assert (replay / name).read_bytes() == (fresh / name).read_bytes()


def test_argparse_exits_are_returned(capsys):
    assert main([]) == 2
    assert main(["stability", "--help"]) == 0
    assert "--variant" in capsys.readouterr().out


# resolved_config.txt as written for a solve run before the key table
_LEGACY_SOLVE_CONFIG = """\
exponents.p = 2,3
grid.box = 0,1,0,1
grid.res = 12,12
run.outdir = legacy
run.seed = 0
run.subcommand = solve
solve.innerTol = 
solve.maxOuter = 200
solve.nmax = 3
solve.tolFix = 1e-8
weight.descriptor = power:0.8
weight.m = 
"""


def test_legacy_solve_config_replays_identically(tmp_path):
    cfg = tmp_path / "legacy.cfg"
    cfg.write_text(_LEGACY_SOLVE_CONFIG)
    replay = tmp_path / "replay"
    assert main(["solve", "--config", str(cfg), "--outdir", str(replay)]) == 0
    fresh = tmp_path / "fresh"
    assert main(["solve", "--p", "2,3", "--box", "0,1,0,1", "--res", "12,12",
                 "--weight", "power:0.8", "--nmax", "3", "--outdir", str(fresh)]) == 0
    for name in ("ladder_report.json", "u_final.txt", "u_final.csv"):
        assert (replay / name).read_bytes() == (fresh / name).read_bytes()
    written = (replay / "resolved_config.txt").read_text()
    assert written == _LEGACY_SOLVE_CONFIG.replace("legacy", str(replay))


@pytest.mark.parametrize("p, certificate", [((2.0, 3.0), "bound"), ((3.0, 4.0), "solve")])
def test_solve_reproduces_a_manufactured_level_solution(tmp_path, p, certificate):
    """End-to-end oracle for `solve --weight file:`: u* = 0.5 sin(pi x) sin(pi y)
    on the unit square solves level n = 4 exactly for the weight
    g = Op(u*) exp(-1/(u* + 1/4)), where Op(u*) = sum_i (p_i - 1)
    |d_i u*|^{p_i-2} pi^2 u* >= 0 is the analytic operator; max g <= 3.31 < 4,
    so the cap min(g, n) is inactive.  The nodal sup error of `u_final.txt`
    must fall strictly at an observed order >= 1.5; measured orders per
    refinement 16 -> 32 -> 64: p=(2,3) 1.58, 1.67 (certificate "bound");
    p=(3,4) 1.77, 1.81 (the cold "solve" certificate)."""
    errors = []
    for r in (16, 32, 64):
        grid = Grid(box=((0.0, 1.0),) * 2, res=(r, r))
        xs = grid.meshgrid()
        sines = [np.sin(np.pi * x) for x in xs]
        exact = 0.5 * np.prod(sines, axis=0)
        op = np.zeros(grid.shape)
        for i, p_i in enumerate(p):
            grad_i = 0.5 * np.pi * np.cos(np.pi * xs[i]) * sines[1 - i]
            op += (p_i - 1.0) * np.abs(grad_i) ** (p_i - 2.0) * np.pi ** 2 * exact
        weight = tmp_path / f"g-{r}.txt"
        save_field(GridField(grid, op * np.exp(-1.0 / (exact + 0.25))), weight)
        out = tmp_path / f"solve-{r}"
        assert main(["solve", "--p", ",".join(map(str, p)), "--box", "0,1,0,1",
                     "--res", f"{r},{r}", "--weight", f"file:{weight}", "--nmax", "4",
                     "--outdir", str(out)]) == 0
        report = json.loads((out / "ladder_report.json").read_text())
        assert {lv["certificate"] for lv in report["levels"]} == {certificate}
        errors.append(float(np.max(np.abs(load_field(out / "u_final.txt").values - exact))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert np.all(orders >= 1.5), orders



# a negative seed ended in numpy's ValueError from `default_rng` (exit 1); a
# p of another dimension than the grid ended in numpy's AxisError (stability,
# exit 1) or in a nonexistence verdict (sweep, exit 0); a p_i whose region A
# endpoint overflows a float ended in an OverflowError (exit 1); a p that
# `thresholds` refuses passed `truncation-check` (exit 0)
@pytest.mark.parametrize("argv, expected", [
    (_SOLVE + ["--seed=-1"], "validation error: the seed must be an integer >= 0"),
    (["stability", "--p", "2,3,4", "--delta", "1", "--box", "0,3,0,3", "--res", "8,8",
      "--u", "constant:1.0"], "validation error: exponent dimension 3 != grid dimension 2"),
    (["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8", "--res", "6,6",
      "--u", "constant:1.0", "--radii", "1:3:3"],
     "validation error: exponent dimension 3 != grid dimension 2"),
    (["thresholds", "--p", "1e308", "--delta", "3"],
     "validation error: the threshold regionA.lower lies beyond the float range"),
    (["thresholds", "--p", "2,2", "--cap", "5e-324"],
     "validation error: the threshold betaWindow.upper lies beyond the float range"),
    (_TRUNCATION + ["--p", "1,1"], "validation error: every p_i must be >= 2"),
    (_TRUNCATION + ["--p", "0.5"], "validation error: every p_i must be >= 2"),
    (_TRUNCATION + ["--p", "3,2"], "validation error: p must be sorted ascending"),
    (_STAB[:-1] + ["constant:0", "--box", "0,3,0,3"],
     "validation error: potential W*f'(u) is not finite on the interior"),
    (_SWEEP[:-1] + ["constant:0", "--radii", "1:3:3"],
     "validation error: u must be positive where the cutoff lives"),
    (_SWEEP + ["--radii", "1:5:3"],
     "validation error: 2 * max radius = 10.0 around (0.0, 0.0, 0.0) does not fit the box"),
    (["solve", "--p", "2,2", "--box", "0,1,0", "--res", "8,8"],
     "validation error: bad grid.box '0,1,0': box needs an even number of entries"),
    (_SWEEP + ["--radii", "1:3"],
     "validation error: bad sweep.radii '1:3': radii range must be lo:hi:count"),
    (_SOLVE + ["--weight", "gauss:1"], "validation error: bad weight.descriptor 'gauss:1': "
     "expected constant:... | power:... | file:..."),
], ids=["solve-seed-negative", "stability-p-dim",
        "sweep-p-dim", "thresholds-p-huge", "thresholds-cap-tiny", "truncation-p-below-2",
        "truncation-p-half", "truncation-p-unsorted", "stability-u-zero", "sweep-u-zero",
        "sweep-balls-leave-the-box", "box-odd-count", "radii-two-parts", "weight-unknown-kind"])
def test_out_of_domain_inputs_exit_2_not_in_a_traceback(tmp_path, capsys, argv, expected):
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(expected)


def test_parser_is_built_once(tmp_path):
    parser = cli._build_parser()
    assert main(["thresholds", "--p", "2,3,4", "--delta", "10",
                 "--outdir", str(tmp_path / "out")]) == 0
    assert cli._build_parser() is parser


def _fresh_interpreter(script: str, cwd) -> subprocess.CompletedProcess:
    """Run `script` in a new Python process that imports this checkout's
    anisolab."""
    src = str(Path(anisolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_number_theoretic_subcommands_load_no_scipy(tmp_path):
    # scipy is imported inside the functions that call it, so the
    # nonexistence side (thresholds, truncation identities, sweeps) runs
    # without it
    script = """
import sys
import anisolab
from anisolab import cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not loaded(), ("import anisolab", loaded())
for argv in (
    ["thresholds", "--p", "2,3,4", "--delta", "10", "--outdir", "t"],
    ["truncation-check", "--k", "2", "--alpha", "4", "--outdir", "tc"],
    ["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8,-8,8", "--res", "8,8,8",
     "--u", "constant:1.0", "--radii", "1:3:3", "--outdir", "sw"],
):
    code = cli.main(argv)
    assert code == 0 and not loaded(), (argv[0], code, loaded())
"""
    proc = _fresh_interpreter(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sw" / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "3", "--box", "0,1", "--res", "8", "--nmax", "2"],
    ["solve", "--p", "2,2,3", "--box", "0,1,0,1,0,1", "--res", "6,6,6", "--nmax", "2"],
    ["stability", "--p", "2,3", "--delta", "1", "--box", "0,3.14159,0,3.14159",
     "--res", "8,8", "--u", "constant:1.0"],
], ids=["solve-1d", "solve-3d", "stability"])
def test_scipy_subcommands_import_what_they_call(tmp_path, argv):
    # each in a new process, so no other caller has loaded scipy before it
    script = f"import sys; from anisolab import cli; sys.exit(cli.main({argv!r} + ['--outdir', 'o']))"
    proc = _fresh_interpreter(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def _key_tree(doc):
    """The keys of a JSON document at every depth, leaves as None; a list
    gives the one tree all its items share."""
    if isinstance(doc, dict):
        return {k: _key_tree(v) for k, v in doc.items()}
    if isinstance(doc, list):
        trees = [_key_tree(v) for v in doc]
        assert all(t == trees[0] for t in trees), trees
        return trees[:1]
    return None


_LEVEL_KEYS = {k: None for k in ("n", "residual", "supNorm", "interiorMin", "monoDefect",
                                 "outerIterations", "certificate")}
_THRESHOLD_KEYS = {
    **{k: None for k in ("l1", "l2", "betaWindow.lower", "betaWindow.upper", "selectedBeta",
                         "theoremApplicable", "regionI.memberGamma")},
    **{f"region{r}.{end}": None for r in "ABCIJ" for end in ("lower", "upper", "member")},
    "regionI.axisBounds": [None],
    "decayExponents": [None],
}


@pytest.mark.parametrize("name, argv, tree", [
    ("ladder_report.json",
     ["solve", "--p", "2,3", "--box", "0,1,0,1", "--res", "8,8", "--weight", "power:1",
      "--nmax", "3"],
     {"levels": [_LEVEL_KEYS],
      "levelsetFit": {"levels": [None], "measures": [None], "r": None, "beta": None,
                      "logC": None, "maxViolation": None, "residualHalfwidth": None},
      **{k: None for k in ("uniformBoundExpected", "supIncrementRatio", "weakResidualLevelMax",
                           "weakResidualLimitMax", "epsilonUsed", "epsilonSupportMargin",
                           "epsilonEnergy")}}),
    ("stability_report.json",
     ["stability", "--p", "2,3", "--delta", "1", "--box", "0,3.14159,0,3.14159",
      "--res", "6,6", "--u", "constant:1.0"],
     {k: None for k in ("gap", "variant", "stable", "iterations", "shift", "residual",
                        "minimizer")}),
    ("certificate.json",
     ["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8,-8,8", "--res", "8,8,8",
      "--u", "constant:1.0", "--radii", "1:3:3"],
     {"thresholds": _THRESHOLD_KEYS, "theoremApplicable": None, "beta": None,
      "decayExponents": [None], "rangeOk": None, "Cconst": None, "conclusion": None,
      "sweep": {"rows": [{"R": None, "lhs": None, "rhs": None, "ratio": None}],
                "firstViolatingR": None, "slope": None, "decayExponents": [None],
                "E": None, "beta": None}}),
    ("truncation_report.json",
     ["truncation-check", "--k", "2", "--alpha", "4", "--p", "2,3"],
     {**{k: None for k in ("ok", "knotGapA", "knotGapB", "knotGapAPrime", "knotGapBPrime",
                           "maxCDeviation", "minAMargin", "maxPowerEqualityGap")},
      "growthConstants": {"2.0": None, "3.0": None},
      "violations": [{"property": None, "t": None, "lhs": None, "rhs": None}]}),
], ids=["ladder", "stability", "certificate", "truncation"])
def test_report_key_trees_are_pinned(tmp_path, monkeypatch, name, argv, tree):
    # every JSON key at every depth, so a renamed attribute cannot rename a
    # key unnoticed; a negative identity tolerance makes each truncation
    # property record a violation, so `violations[]` has items to pin
    monkeypatch.setattr(truncations, "IDENTITY_TOL", -1.0)
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert _key_tree(json.loads((tmp_path / name).read_text())) == tree
