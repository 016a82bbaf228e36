"""End-to-end subcommand runs: outputs, exit codes, reproducibility."""

import contextlib
import enum
import fnmatch
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
from typing import Callable, NamedTuple

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


def test_old_truncation_config_is_refused_then_replays(tmp_path, capsys):
    # a resolved_config.txt written before `--samples` and `--t-max` were
    # removed names their keys; without those two lines it replays
    out = tmp_path / "tc"
    old = (f"exponents.p = 2,3\nrun.outdir = {out}\nrun.subcommand = truncation-check\n"
           "truncation.alpha = 4\ntruncation.k = 2\ntruncation.samples = 1000\n"
           "truncation.tmax = 10.0\n")
    cfg = tmp_path / "old.cfg"
    cfg.write_text(old)
    assert main(["truncation-check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("validation error: unknown config key(s) for "
                                       "truncation-check: truncation.samples, truncation.tmax\n")
    assert not out.exists()
    kept = "".join(line for line in old.splitlines(keepends=True)
                   if not line.startswith(("truncation.samples", "truncation.tmax")))
    cfg.write_text(kept)
    assert main(["truncation-check", "--config", str(cfg)]) == 0
    assert (out / "resolved_config.txt").read_text() == kept
    assert json.loads((out / "truncation_report.json").read_text())["ok"] is True


def test_unwritable_resolved_config_exits_2(tmp_path, capsys):
    # the outdir exists, but resolved_config.txt in it is a directory
    (tmp_path / "resolved_config.txt").mkdir()
    assert main(["thresholds", "--p", "2,3,4", "--delta", "10", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"validation error: cannot write to outdir {tmp_path}: "
                                       "Is a directory\n")


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
    # eigenvector, certified before any solve
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


def test_stability_3d_iteration_cap_exits_3_with_diagnostics(tmp_path, monkeypatch):
    # the resolved 8^3 p = (2,3,4) sine candidate takes more LOBPCG iterations
    monkeypatch.setattr(cli, "stability_index", functools.partial(stability_index, max_iter=3))
    grid = Grid(box=((0.0, math.pi),) * 3, res=(8, 8, 8))
    snapshot = tmp_path / "u.txt"
    save_field(GridField.from_function(
        grid, lambda x, y, z: 1.0 + 0.2 * np.sin(x) * np.sin(y) * np.sin(z)), snapshot)
    out = tmp_path / "nc"
    code = main(["stability", "--p", "2,3,4", "--delta", "1", "--box", ",".join([f"0,{math.pi!r}"] * 3),
                 "--res", "8,8,8", "--u", f"file:{snapshot}", "--variant", "AsWritten",
                 "--outdir", str(out)])
    assert code == 3
    doc = json.loads((out / "nonconvergence.json").read_text())
    assert set(doc["diagnostics"]) == {"rho", "iterations", "bound"}
    assert doc["diagnostics"]["iterations"] == 3
    assert np.isfinite(doc["diagnostics"]["rho"])
    assert doc["residual"] > doc["diagnostics"]["bound"]
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


def _refused_in_bounded_memory(tmp_path, snapshot: str) -> str:
    """The stderr line of a sweep that refuses the snapshot text, asserting
    exit 2 and a traced peak below 2 MB."""
    path = tmp_path / "forged.txt"
    path.write_text(snapshot)
    tracemalloc.start()
    try:
        code, _, err, _ = _run(tmp_path, f"{_SWEEP_UNIT8} --u file:{path}".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 * 2 ** 20, (code, peak)
    return _one_line(code, err)


def test_forged_snapshot_row_without_newline_is_refused_in_bounded_memory(tmp_path):
    # the body is one 8 MB row with no newline: refused once the reader
    # holds MAX_ROW_CHARS characters of it, so memory stays one read block
    line = _refused_in_bounded_memory(tmp_path, _UNIT8_HEADER + "1.0 " * 2_000_000)
    assert line.endswith("a body row is not one value")


def test_forged_snapshot_header_of_many_tokens_is_refused_in_bounded_memory(tmp_path):
    # the header line carries 2,000,000 tokens past its box and no newline:
    # refused once the reader holds MAX_HEADER_CHARS characters of it
    line = _refused_in_bounded_memory(tmp_path, _UNIT8_HEADER[:-1] + " 1.0" * 2_000_000)
    assert line.endswith(f"its header is longer than {MAX_HEADER_CHARS} characters")


def test_stability_degenerate_spectrum_minimizer_is_reproducible(tmp_path):
    # constant along the last axis, whose p = 3 flux weights then vanish:
    # the lowest eigenvalue is multiple, and minimizer.txt is still the same
    # bytes in every run and in either call order.  LOBPCG never leaves the
    # lines of the sine start, so the minimizer is that sine along the last
    # axis
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


def _after_the_level_solve(monkeypatch, name, replacement):
    """Replace the solver module's `name` by `replacement` from the first
    level solve's return on, to reach the gap estimate of that level."""
    solved, original = [], getattr(solver_module, name)
    newton_krylov = solver_module._newton_krylov

    def level_solve(*args, **kwargs):
        solved.append(newton_krylov(*args, **kwargs))
        return solved[-1]

    def patched(*args, **kwargs):
        return (replacement if solved else original)(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_newton_krylov", level_solve)
    monkeypatch.setattr(solver_module, name, patched)


def test_solve_certificate_refusal_leaves_diagnostics(tmp_path, monkeypatch):
    # no known input leaves a level's Newton correction of A(u) above
    # tol_fix, so a correction shifted by 2 tol_fix stands in for one
    floored_direction = solver_module._floored_direction

    def missed(*args):
        d, its = floored_direction(*args)
        return d + 2e-8, its

    _after_the_level_solve(monkeypatch, "_floored_direction", missed)
    message = "certified level gap 2.000e-08 exceeds tol_fix=1e-08"
    code, _, err, out = _run(tmp_path, "solve --p 3 --box 0,1 --res 16 --nmax 2".split())
    assert code == 3 and _one_line(code, err).startswith(message)
    doc = _report(out, "nonconvergence.json")
    assert doc["message"] == message and doc["residual"] == pytest.approx(2e-8, rel=1e-3)
    assert len(doc["diagnostics"]["residuals"]) == len(doc["diagnostics"]["steps"]) + 1


def test_solve_failed_line_search_leaves_diagnostics(tmp_path, monkeypatch):
    # no known input fails a line search of the level solve; the negated
    # Newton step, an ascent direction, stands in for one
    floored_direction = solver_module._floored_direction

    def ascent(*args):
        d, its = floored_direction(*args)
        return -d, its

    monkeypatch.setattr(solver_module, "_floored_direction", ascent)
    code, _, err, out = _run(tmp_path, "solve --p 3 --box 0,1 --res 16 --nmax 2".split())
    message = "line search failed in the level solve"
    assert code == 3 and _one_line(code, err).startswith(message), err
    doc = _report(out, "nonconvergence.json")
    assert doc["message"] == message and doc["residual"] == doc["diagnostics"]["residuals"][-1]
    assert len(doc["diagnostics"]["residuals"]) == len(doc["diagnostics"]["steps"]) + 1


def _singular_band(*args, **kwargs):
    raise np.linalg.LinAlgError("zero pivot")


@pytest.mark.parametrize("name, replacement, message", [
    ("_flux_weights", lambda diffs, p: None,
     "a flux weight of the level gap estimate's Newton system overflows a float"),
    ("_newton_direction", _singular_band,
     "the level gap estimate's Newton system is singular in floats"),
], ids=["weight-overflow", "singular-band"])
def test_solve_gap_estimate_refusals_end_in_exit_3(tmp_path, monkeypatch, name, replacement,
                                                   message):
    # no known input makes the Newton correction of a level overflow or meet
    # a singular 1D band where the level solve did not; each refusal stands
    # in for one, and must end in exit 3, not a traceback
    _after_the_level_solve(monkeypatch, name, replacement)
    code, _, err, out = _run(tmp_path, "solve --p 3 --box 0,1 --res 16 --nmax 2".split())
    assert code == 3 and _one_line(code, err).startswith(message), err
    doc = _report(out, "nonconvergence.json")
    assert doc["message"] == message and doc["residual"] <= 1e-8
    assert doc["diagnostics"]["residuals"][-1] == doc["residual"]


def test_solve_max_outer_caps_only_the_level_solve(tmp_path):
    # the level solves of `--p 3` on 16 cells take 5 and 4 Newton steps, of
    # `(3,4)` on 16^2 5 and 5; the cold solve of A(u) that certified each
    # level, gone now, took 5 and 6 at `--p 3` and exceeded the cap
    for argv in ("--p 3 --box 0,1 --res 16", "--p 3,4 --box 0,1,0,1 --res 16,16"):
        code, _, err, out = _run(tmp_path / argv.split()[1],
                                 f"solve {argv} --nmax 2 --max-outer 5".split())
        assert code == 0, err
        levels = _report(out, "ladder_report.json")["levels"]
        assert [lv["certificate"] for lv in levels] == ["newton"] * 2
        assert all(lv["residual"] <= 1e-8 for lv in levels)


_PBAR_REACHES_N = "--p 3 --box 0,1 --res 16"
_PBAR_BELOW_N = "--p 2,2,2 --box 0,1,0,1,0,1 --res 4,4,4"


@pytest.mark.parametrize("problem, m, expected", [
    (_PBAR_REACHES_N, "2", True),
    (_PBAR_REACHES_N, "0.5", False),
    (_PBAR_BELOW_N, "2", True),
    (_PBAR_BELOW_N, "1.5", False),
    (_PBAR_BELOW_N, "1", False),
    (_PBAR_BELOW_N.replace("2,2,2", "2,2,2.6"), "1.3846153846153846", False),
    (_PBAR_BELOW_N.replace("2,2,2", "2,2,2.125"), "1.4705882352941178", True),
], ids=["p3-m2", "p3-m0.5", "p222-m2", "p222-m1.5", "p222-m1", "p2226-m-below-S",
        "p222125-m-above-S"])
def test_uniform_bound_expectation(tmp_path, problem, m, expected):
    """p = (3,) has pbar = 3 >= N = 1, so a bound is expected exactly when
    m > 1; p = (2,2,2) has pbar = 2 < N = 3 and m_bounded = p*/(p* - pbar)
    = 6/4, so exactly when m > 1.5 (a strict inequality).  In general
    m_bounded = S = sum_i 1/p_i: the last two m lie 2.1e-17 below and
    1.0e-16 above S, where a float m_bounded from the float pbar called
    each the other way."""
    out = tmp_path / "solve-m"
    assert main(["solve", *problem.split(), "--nmax", "2",
                 "--weight-m", m, "--outdir", str(out)]) == 0
    doc = json.loads((out / "ladder_report.json").read_text())
    assert doc["uniformBoundExpected"] is expected


_SOLVE = "solve --p 2,2 --box 0,1,0,1 --res 8,8"
_STAB = "stability --p 2,2 --delta 1 --res 8,8 --u constant:1"
_SWEEP = "sweep --p 2,3,4 --delta 10 --box=-8,8,-8,8,-8,8 --res 8,8,8 --u constant:1.0"
_TRUNCATION = "truncation-check --k 2 --alpha 4"
_SWEEP_UNIT8 = "sweep --p 2,2 --cap 0.2 --box 0,1,0,1 --res 8,8"
_PI = "0,3.141592653589793"


class Case(NamedTuple):
    """One CLI run: its command line without `--outdir`, the text of a
    `--config` file, the exit code, and for a non-zero exit the one stderr
    line past its code's prefix, as a literal prefix or a regex matched from
    its start (None leaves argparse's usage lines unchecked);
    `check(outdir, stdout)` must hold.  "{tmp}" in argv or in `err` stands
    for the run's directory, which holds each file of `_FIXTURES` argv names;
    the outdir is "{tmp}/out" unless argv gives its own."""

    id: str
    argv: str
    code: int
    err: str | re.Pattern | None = None
    config: str | None = None
    check: Callable[[Path, str], bool] | None = None


def _report(outdir, name):
    return json.loads((outdir / name).read_text())


def _line(text):
    """A regex of the whole line `text`."""
    return re.compile(re.escape(text) + "$")


def _levels_within_tol_fix(outdir, stdout):
    levels = _report(outdir, "ladder_report.json")["levels"]
    return all(lv["residual"] <= 1e-8 for lv in levels)  # the default tol_fix


def _two_levels_within_tol_fix(outdir, stdout):
    return len(_report(outdir, "ladder_report.json")["levels"]) == 2 and \
        _levels_within_tol_fix(outdir, stdout)


def _three_keys_and_solution(outdir, stdout):
    return sorted(_report(outdir, "ladder_report.json")) == \
        ["levels", "uniformBoundExpected", "weakResidualLevelMax"] and \
        (outdir / "u_final.txt").exists() and (outdir / "u_final.csv").exists()


_UNIT8_HEADER = "anisofield 2 8 8 0 1 0 1\n"
_FIXTURES = {
    "other-grid.txt": lambda path: save_field(_ONES, path),
    "not-a-field.txt": lambda path: path.write_text("1.0\n2.0\n"),
    # byte 0xff, which is not UTF-8, in the header or in the last of 4225
    # rows, past the first 8 KB
    "ff-header.txt": lambda path: path.write_bytes(b"anisofield\xff 2 8 8 0 3 0 3\n"),
    "ff-row.txt": lambda path: path.write_bytes(
        b"anisofield 2 64 64 0 3 0 3\n" + b"1\n" * 4224 + b"1\xff\n"),
    "ff.cfg": lambda path: path.write_bytes(b"run.seed = 1\xff\n"),
    "sine96.txt": lambda path: save_field(GridField.from_function(
        Grid(box=((0.0, math.pi),) * 2, res=(96, 96)),
        lambda x, y: 1.0 + 0.2 * np.sin(x) * np.sin(y + 0.1)), path),
    "sine24.txt": lambda path: save_field(GridField.from_function(
        Grid(box=((0.0, math.pi),) * 3, res=(24, 24, 24)),
        lambda x, y, z: 1.0 + 0.2 * np.sin(x) * np.sin(y) * np.sin(z)), path),
    # 8^2 snapshots on the unit square: one NaN node; 29 of 81 values; no box
    "nan-node.txt": lambda path: save_field(GridField(
        Grid(box=((0.0, 1.0),) * 2, res=(8, 8)), np.pad([[np.nan]], 4, constant_values=1.0)), path),
    "truncated.txt": lambda path: path.write_text(_UNIT8_HEADER + "0.5\n" * 29),
    "short-header.txt": lambda path: path.write_text("anisofield 2 8\n" + "0.5\n" * 81),
    # forged: 4096^3 cells; 2e6 rows or one row of 2e6 values; a token past the box
    "forged-size.txt": lambda path: path.write_text(
        "anisofield 3 4096 4096 4096 -8 8 -8 8 -8 8\n1.0\n"),
    "forged-rows.txt": lambda path: path.write_text(_UNIT8_HEADER + "1.0\n" * 2_000_000),
    "forged-row.txt": lambda path: path.write_text(_UNIT8_HEADER + "1.0 " * 2_000_000 + "\n"),
    "forged-token.txt": lambda path: path.write_text(
        _UNIT8_HEADER.replace("\n", " 7\n") + "0.0\n" * 81),
}

# a NaN p_i ended in a traceback or exit 3; a NaN tolerance passed every
# `gap > tol` test and certified each level; a nonpositive one, or a
# Newton-step cap below 1, ended in exit 3; an infinite alpha, a NaN `--p`
# entry, a NaN `weight.m` and `--cconst inf` ran and exited 0; a truncation
# pair whose coefficients overflow, an infinite box endpoint and an
# overflowing sweep bound ended in a traceback; a NaN box endpoint ended in
# exit 3; a cell width whose square overflows or underflows ended in a
# traceback, and one whose inverse square overflows in exit 3
_BAD_P = "every p_i must be finite"
_BAD_TOL_FIX = "tol_fix must be finite and > 0"
_BAD_MAX_OUTER = "the level solve needs a Newton-step cap >= 1"
_BAD_M = "integrability exponent m must be finite and > 0"
_COUNT = re.compile(f".*count must lie in 1\\.\\.{MAX_NODES}$")

# The CLI contract, one row per run, under the name of the test that runs
# it: the tests written before the table keep their names and ids
CLI_CASES: dict[str, list[Case]] = {
    "test_cli_case": [
        # the sample grid and its flags are gone: C is certified from above
        Case("samples-removed", f"{_TRUNCATION} --samples 10", 2),
        # an OverflowError traceback (exit 1), then a FAIL: knot gaps 1.0
        Case("alpha-1e200", "truncation-check --k 1 --alpha 1e200 --p 2,3", 2,
             "k = 1, alpha = 1e+200: 1 + alpha rounds to alpha"),
        Case("alpha-1e16", "truncation-check --k 1 --alpha 1e16 --p 2,3", 2,
             "k = 1, alpha = 1e+16: 1 + alpha rounds to alpha"),
        # C's rounding margin passed 1 and made C inf: a FAIL for a valid pair
        Case("alpha-1e13", "truncation-check --k 1 --alpha 1e13 --p 2,3", 0,
             check=lambda out, stdout: ": pass " in stdout),
        # a ValueError traceback from the 1D band solve, or RuntimeWarnings
        Case("p-1e6-1d", "solve --p 1e6 --box 0,1 --res 8", 3,
             "the start gradient of the level solve overflows a float"),
        # large p_i: the cold solve of A(u) that certified each level failed
        Case("p-20-1d", "solve --p 20 --box 0,1 --res 8", 0, check=_levels_within_tol_fix),
        Case("p-1e6-2d", "solve --p 3,1e6 --box 0,1,0,1 --res 4,4", 0,
             check=_levels_within_tol_fix),
        Case("p-50-50-2d", "solve --p 50,50 --box 0,1,0,1 --res 4,4", 0,
             check=_levels_within_tol_fix),
        Case("p-100-1d", "solve --p 100 --box 0,1 --res 8", 0, check=_levels_within_tol_fix),
        Case("p-1e6-3d", "solve --p 2,2,1e6 --box 0,1,0,1,0,1 --res 4,4,4", 0),
        # a p_k = 2 level stops where its bound certifies, at sup|F| <= 8 tol_fix / L^2:
        # the stricter min(tol_fix, .) stalled at 1.28e-8 after 200 steps, exit 3
        Case("p2-8192", "solve --p 2 --box 0,1 --res 8192 --weight constant:1 --nmax 4", 0,
             check=_levels_within_tol_fix),
        # e^n on the boundary ring, where the right side was evaluated too,
        # overflowed from n = 710: 12 RuntimeWarnings
        Case("nmax-720", "solve --p 3 --box 0,1 --res 8 --weight constant:1 --nmax 720", 0,
             check=lambda out, stdout: (out / "u_final.txt").exists()),
        # 8 tol_fix / L^2 overflows a float here: capped, not refused
        Case("p2-stop-overflows", "solve --p 2 --box 0,1e-153 --res 2 --tol-fix 100 --nmax 2",
             0),
        # a zero G'(0) starts at exact zeros: the pocketfft DST (127 interior
        # nodes) of a zero vector holds -0.0, which the snapshot wrote as -0
        Case("zero-weight-128", "solve --p 2 --box 0,1 --res 128 --nmax 2 --weight constant:0", 0,
             check=lambda out, stdout: set((out / "u_final.txt").read_text().splitlines()[1:])
             == {"0"}),
        # a ladder on a singular weight
        Case("power", "solve --p 2,3 --box 0,1,0,1 --res 12,12 --nmax 3 --weight power:1.5", 0),
        Case("na-window", "thresholds --p 2,3,4 --cap 0.2222222222222222", 4,
             re.compile(r".*window .* holds no float$")),
        Case("na-sweep", "sweep --p 2,2 --delta 0.5 --box=-8,8,-8,8 --res 8,8 --u constant:1.0 "
             "--radii 1:3:3", 4, "no certified hypothesis set holds"),
        # a certified point five floats above its A∩I end
        Case("t-edge", "thresholds --p 2.0196051142676956,2.5740734409084998,5.097216081281708 "
             "--delta 13.476124285726854", 0,
             check=lambda out, _: max(_report(out, "thresholds.json")["decayExponents"],
                                      default=0.0) < 0),
        # a 96^2 p = (2,4) sine candidate: LOBPCG on one sparse factor takes
        # 60 solves from the lowest sine mode (219 iterations on the DST
        # preconditioner)
        Case("sine96", f"stability --p 2,4 --delta 1 --box {_PI},{_PI} --res 96,96 "
             "--u file:{tmp}/sine96.txt --variant AsWritten", 0,
             check=lambda out, _: 0 < _report(out, "stability_report.json")["iterations"] <= 71),
        # a resolved 24^3 p = (2,3,4) sine candidate: LOBPCG from the lowest
        # sine mode takes 61 iterations (151-396 from random starts)
        Case("sine24", f"stability --p 2,3,4 --delta 1 --box {_PI},{_PI},{_PI} --res 24,24,24 "
             "--u file:{tmp}/sine24.txt --variant AsWritten", 0,
             check=lambda out, _: 0 < _report(out, "stability_report.json")["iterations"] <= 80),
        Case("bad-seed", "solve --p 2,3 --box 0,1,0,1 --res 4,4 --seed=-1", 2,
             "the seed must be an integer >= 0"),
        Case("bad-tol", "solve --p 2,3 --box 0,1,0,1 --res 4,4 --tol-fix nan", 2, _BAD_TOL_FIX),
        # a subnormal tolerance is refused before any Newton step (it ran 200 and exited 3)
        Case("sub--tol-fix", "solve --p 2,3 --box 0,1,0,1 --res 8,8 --nmax 2 --tol-fix 1e-320", 2,
             "tol_fix = 1e-320 is below the smallest normal float"),
        # every Newton stop of a level derives from tol_fix: the flag is gone
        Case("inner-tol-removed", f"{_SOLVE} --inner-tol 1e-8", 2),
        # a byte that is not UTF-8 in a snapshot or a config ended in a
        # UnicodeDecodeError traceback, exit 1
        Case("ff-header", "stability --p 2,2 --delta 1 --box 0,3,0,3 --res 8,8 "
             "--u file:{tmp}/ff-header.txt", 2, "{tmp}/ff-header.txt is not a field snapshot"),
        Case("ff-row", "stability --p 2,2 --delta 1 --box 0,3,0,3 --res 64,64 "
             "--u file:{tmp}/ff-row.txt", 2,
             "{tmp}/ff-row.txt is a malformed field snapshot: a body row is not one value"),
        Case("ff-config", "thresholds --p 2,3,4 --delta 10 --config {tmp}/ff.cfg", 2,
             "cannot read config {tmp}/ff.cfg: byte 0xff at offset 12 is not UTF-8"),
        # an outdir that is a file, or lies under one, ended in a
        # FileExistsError or NotADirectoryError traceback, exit 1; the file
        # is left as it was
        Case("outdir-file", f"{_TRUNCATION} --outdir {{tmp}}/not-a-field.txt", 2,
             "cannot write to outdir {tmp}/not-a-field.txt: File exists",
             check=lambda out, _: out.read_text() == "1.0\n2.0\n"),
        Case("outdir-under-file", f"{_TRUNCATION} --outdir {{tmp}}/not-a-field.txt/out", 2,
             "cannot write to outdir {tmp}/not-a-field.txt/out: Not a directory"),
    ],
    "test_validation_exit_code": [
        Case("delta-negative", "thresholds --p 2,3,4 --delta -1", 2,
             "mixed-power parameters need 0 < delta <= gamma < inf"),
        Case("neither", "thresholds --p 2,3,4", 2, "give exactly one of problem.delta"),
        Case("both", "thresholds --p 2,3,4 --delta 1 --cap 0.2", 2,
             "give exactly one of problem.delta"),
    ],
    # the radii parser checks no sign: the sweep refuses them
    "test_sweep_nonpositive_radii_are_refused": [
        Case(radii, f"sweep --p 2,2 --cap 0.2 --box 0,1,0,1 --res 8,8 --u constant:1 --radii={radii}",
             2, re.compile(".*ball radius must be positive$"))
        for radii in ["-1", "-2,-1", "nan"]
    ],
    "test_malformed_input_exits_2": [
        Case("nmax", f"{_SOLVE} --nmax abc", 2, "bad solve.nmax 'abc'"),
        Case("weight", f"{_SOLVE} --weight constant:abc", 2, "bad weight.descriptor 'constant:abc'"),
        Case("seed", f"{_SOLVE} --seed x", 2, "bad run.seed 'x'"),
        Case("alpha", "truncation-check --k 2 --alpha x", 2, "bad truncation.alpha 'x'"),
        Case("radii", f"{_SWEEP} --radii a:2:3", 2, "bad sweep.radii 'a:2:3'"),
        Case("no-p", "thresholds --delta 10", 2, "thresholds needs exponents.p (--p)"),
        Case("stability-no-box", _STAB, 2, "stability needs grid.box (--box)"),
        Case("solve-no-box", "solve --p 2,2 --res 8,8", 2, "solve needs grid.box (--box)"),
        Case("variant", f"{_STAB} --box 0,3,0,3", 2, "bad stability.variant 'Bogus'",
             "stability.variant = Bogus\n"),
        Case("nan-weight", f"{_SWEEP} --weight constant:nan", 2,
             "field constant:nan has non-finite values"),
        Case("nan-candidate", _SWEEP.replace("constant:1.0", "constant:nan"), 2,
             "field constant:nan has non-finite values"),
        Case("res-too-large", _SOLVE.replace("8,8", "100000,100000"), 2,
             "a grid of 10000200001 nodes exceeds the limit of 16777216 nodes"),
        Case("weight-file-missing", f"{_SOLVE} --weight file:{{tmp}}/missing.txt", 2,
             "cannot read field {tmp}/missing.txt: No such file or directory"),
        Case("weight-file-other-grid", f"{_SOLVE} --weight file:{{tmp}}/other-grid.txt", 2,
             "field {tmp}/other-grid.txt lives on a different grid"),
        Case("weight-file-not-a-field", f"{_SOLVE} --weight file:{{tmp}}/not-a-field.txt", 2,
             "{tmp}/not-a-field.txt is not a field snapshot"),
        Case("config-missing", f"{_SOLVE} --config {{tmp}}/missing.cfg", 2,
             "cannot read config {tmp}/missing.cfg: No such file or directory"),
        Case("config-line-without-equals", _SOLVE, 2,
             "bad config line (expected key = value): 'solve.nmax 3'", "solve.nmax 3\n"),
        Case("weight-file-nan", f"{_SOLVE} --nmax 2 --weight file:{{tmp}}/nan-node.txt", 2,
             "{tmp}/nan-node.txt holds non-finite values"),
        Case("weight-inf", f"{_SOLVE} --nmax 2 --weight constant:inf", 2,
             "field constant:inf has non-finite values"),
        # the size guard refuses a header before any value is read; of a
        # long body one row past the header's count is read
        *(Case(f"snapshot-{name}", f"{_SWEEP_UNIT8} --u file:{{tmp}}/{name}.txt", 2,
               f"{{tmp}}/{name}.txt {message}") for name, message in [
            ("truncated", "holds 29 values, its header needs 81"),
            ("short-header", "is a malformed field snapshot"),
            ("forged-size", "is a malformed field snapshot: a grid of 68769820673 nodes exceeds "
                            "the limit of 16777216 nodes"),
            ("forged-rows", "holds more than 81 values, its header needs 81"),
            ("forged-row", "is a malformed field snapshot: a body row is not one value"),
            ("forged-token", "is a malformed field snapshot: header tokens past the box of a 2D "
                             "grid")]),
    ],
    # each count is refused before anything is allocated; without the check
    # the huge ones would fail at once in numpy, so no row can allocate gigabytes
    "test_out_of_range_counts_exit_2": [
        Case("radii-huge", f"{_SWEEP} --radii 1:2:1000000000000", 2, _COUNT),
        Case("radii-zero", f"{_SWEEP} --radii 1:2:0", 2, _COUNT),
    ],
    "test_non_finite_or_out_of_domain_values_exit_2": [
        Case("p-nan", "thresholds --p nan,2 --delta 3", 2, _BAD_P),
        Case("p-inf", "thresholds --p 2,inf --delta 3", 2, _BAD_P),
        Case("solve-p-nan", _SOLVE.replace("2,2", "nan,2"), 2, _BAD_P),
        Case("tol-fix-nan", f"{_SOLVE} --tol-fix nan", 2, _BAD_TOL_FIX),
        Case("tol-fix-negative", f"{_SOLVE} --tol-fix=-1", 2, _BAD_TOL_FIX),
        Case("tol-fix-inf", f"{_SOLVE} --tol-fix inf", 2, _BAD_TOL_FIX),
        Case("tol-fix-config", _SOLVE, 2, _BAD_TOL_FIX, "solve.tolFix = nan\n"),
        Case("max-outer-zero", f"{_SOLVE} --max-outer 0", 2, _BAD_MAX_OUTER),
        Case("max-outer-negative", f"{_SOLVE} --max-outer=-1", 2, _BAD_MAX_OUTER),
        Case("alpha-inf", "truncation-check --k 2 --alpha inf", 2, "alpha must be finite"),
        Case("truncation-p-nan", f"{_TRUNCATION} --p 2,nan", 2, _BAD_P),
        Case("alpha-huge", "truncation-check --k 2 --alpha 1e308", 2, "k = 2, alpha = 1e+308: the"),
        Case("k-1000-alpha-150", "truncation-check --k 1000 --alpha 150", 2, "k = 1000"),
        Case("k-3-alpha-700", "truncation-check --k 3 --alpha 700", 2, "k = 3"),
        Case("weight-m-nan", f"{_SOLVE} --nmax 2 --weight-m nan", 2, _BAD_M),
        Case("weight-m-config", _SOLVE, 2, _BAD_M, "weight.m = inf\n"),
        Case("box-inf", "solve --p 2,2 --box 0,inf,0,1 --res 8,8", 2, "box endpoints must be finite"),
        Case("stability-box-nan", "stability --p 2,3 --delta 1 --box 0,nan,0,3 --res 8,8 "
             "--u constant:1.0", 2, "box endpoints must be finite"),
        Case("cconst-inf", f"{_SWEEP} --cconst inf", 2,
             "the estimate constant C must be finite and positive"),
        Case("radii-tiny", f"{_SWEEP} --radii 1e-300,1", 2, "C * sum_i R^(decay_i) overflows"),
        Case("box-h2-overflows", "solve --p 2,2 --box 0,1e300,0,1 --res 8,8 --nmax 2", 2,
             "cell widths"),
        Case("stability-box-h2-underflows", "stability --p 2,3 --delta 1 --box 0,1e-170,0,3 "
             "--res 8,8 --u constant:1.0", 2, "cell widths"),
        Case("box-inverse-h2-overflows", "solve --p 2,2 --box 0,1e-160,0,1 --res 8,8 --nmax 2", 2,
             "cell widths"),
    ],
    # the left side int g (1/u)^E was written as inf to sweep.csv and as null
    # to certificate.json, after a RuntimeWarning, with exit 0
    "test_overflowing_sweep_integral_exits_2": [
        Case("sweep", f"{_SWEEP} --radii 1:3:3 --weight constant:1e308", 2,
             _line("int g (psi/u)^E overflows a float")),
    ],
    # a huge or a small weight solved every level, then g e^{1/u}, sampled
    # where u is small, overflowed a float: exit 2, and no solution written
    "test_huge_and_small_weight_ladders_write_their_solution": [
        Case("huge", "solve --p 2,2 --box 0,1,0,1 --res 6,6 --nmax 2 --weight constant:1e308", 0,
             check=_three_keys_and_solution),
        Case("small", "solve --p 2,2 --box 0,1,0,1 --res 32,32 --nmax 3 --weight constant:1e-3",
             0, check=_three_keys_and_solution),
    ],
    # res 2 gives an axis one interior node: two axes shared a DIA offset in
    # `grid.stiffness`, and LAPACK's banded solve refused the 1x1 1D Newton
    # system: a traceback, exit 1
    "test_grids_with_one_interior_node_along_an_axis_run": [
        Case("stability-2d", "stability --p 2,2 --delta 1 --box 0,3,0,3 --res 8,2 "
             "--u constant:1.0", 0),
        Case("stability-3d", "stability --p 2,2,3 --delta 1 --box 0,3,0,3,0,3 --res 6,6,2 "
             "--u constant:1.0", 0),
        Case("stability-3d-one-node", "stability --p 2,2,2 --delta 1 --box 0,3,0,3,0,3 "
             "--res 2,2,2 --u constant:1.0", 0),
        Case("solve-2d", "solve --p 2,3 --box 0,1,0,1 --res 8,2 --nmax 2", 0,
             check=_two_levels_within_tol_fix),
        Case("solve-3d", "solve --p 2,2,3 --box 0,1,0,1,0,1 --res 6,6,2 --nmax 2", 0,
             check=_two_levels_within_tol_fix),
        Case("solve-1d-one-node-p2", "solve --p 2 --box 0,1 --res 2 --nmax 2", 0,
             check=_two_levels_within_tol_fix),
        Case("solve-1d-one-node-p3", "solve --p 3 --box 0,1 --res 2 --nmax 2", 0,
             check=_two_levels_within_tol_fix),
    ],
    "test_unknown_config_key_exits_2": [
        Case("tolfix", "solve --box 0,1,0,1 --res 8,8", 2,
             _line("unknown config key(s) for solve: solve.tolfix"),
             "exponents.p = 2,2\nsolve.tolfix = 1e-3\n", lambda out, _: not out.exists()),
        # a value of the dropped `solve.innerTol` is refused; its empty line
        # replays (test_legacy_solve_config_replays_identically)
        Case("innertol", "solve --p 2,2 --box 0,1,0,1 --res 8,8", 2,
             _line("unknown config key(s) for solve: solve.innerTol"),
             "solve.innerTol = 1e-9\n", lambda out, _: not out.exists()),
    ],
    "test_removed_weight_floor_flag_is_rejected": [
        Case("weight-floor", "thresholds --p 2,3,4 --delta 10 --weight-floor 1", 2),
    ],
    # a negative seed ended in numpy's ValueError from `default_rng` (exit 1);
    # a p of another dimension than the grid ended in numpy's AxisError
    # (stability, exit 1) or in a nonexistence verdict (sweep, exit 0); a p_i
    # whose region A endpoint overflows a float ended in an OverflowError
    # (exit 1); a p that `thresholds` refuses passed `truncation-check` (exit 0)
    "test_out_of_domain_inputs_exit_2_not_in_a_traceback": [
        Case("solve-seed-negative", f"{_SOLVE} --seed=-1", 2, "the seed must be an integer >= 0"),
        Case("stability-p-dim", "stability --p 2,3,4 --delta 1 --box 0,3,0,3 --res 8,8 "
             "--u constant:1.0", 2, "exponent dimension 3 != grid dimension 2"),
        Case("sweep-p-dim", "sweep --p 2,3,4 --delta 10 --box=-8,8,-8,8 --res 6,6 --u constant:1.0 "
             "--radii 1:3:3", 2, "exponent dimension 3 != grid dimension 2"),
        Case("thresholds-p-huge", "thresholds --p 1e308 --delta 3", 2,
             "the threshold regionA.lower lies beyond the float range"),
        Case("thresholds-cap-tiny", "thresholds --p 2,2 --cap 5e-324", 2,
             "the threshold betaWindow.upper lies beyond the float range"),
        Case("truncation-p-below-2", f"{_TRUNCATION} --p 1,1", 2, "every p_i must be >= 2"),
        Case("truncation-p-half", f"{_TRUNCATION} --p 0.5", 2, "every p_i must be >= 2"),
        Case("truncation-p-unsorted", f"{_TRUNCATION} --p 3,2", 2, "p must be sorted ascending"),
        Case("stability-u-zero", _STAB.replace("constant:1", "constant:0 --box 0,3,0,3"), 2,
             "potential W*f'(u) is not finite on the interior"),
        Case("sweep-u-zero", _SWEEP.replace("constant:1.0", "constant:0 --radii 1:3:3"), 2,
             "u must be positive where the cutoff lives"),
        Case("sweep-balls-leave-the-box", f"{_SWEEP} --radii 1:5:3", 2,
             "2 * max radius = 10.0 around (0.0, 0.0, 0.0) does not fit the box"),
        Case("box-odd-count", "solve --p 2,2 --box 0,1,0 --res 8,8", 2,
             "bad grid.box '0,1,0': box needs an even number of entries"),
        Case("radii-two-parts", f"{_SWEEP} --radii 1:3", 2,
             "bad sweep.radii '1:3': radii range must be lo:hi:count"),
        Case("weight-unknown-kind", f"{_SOLVE} --weight gauss:1", 2,
             "bad weight.descriptor 'gauss:1': expected constant:... | power:... | file:..."),
    ],
}

# the exit code's prefix of the one stderr line
_PREFIX = {2: "validation error: ", 3: "non-convergence: ", 4: "hypothesis not applicable: "}


def _run(tmp: Path, argv: list[str], config: str | None = None) -> tuple[int, str, str, Path]:
    """Run argv in-process, as `Case` describes, and assert what every run
    keeps: no warning and no traceback, nonconvergence.json iff exit 3, an
    empty stderr after exit 0, and after a non-zero exit no file in the
    outdir but resolved_config.txt and nonconvergence.json.  Returns the
    exit code, stdout, stderr and the outdir."""
    tmp.mkdir(exist_ok=True)
    for name, write in _FIXTURES.items():
        if any("{tmp}/" + name in arg for arg in argv):
            write(tmp / name)
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    if config is not None:
        (tmp / "run.cfg").write_text(config)
        argv += ["--config", str(tmp / "run.cfg")]
    if "--outdir" in argv:
        out = Path(argv[argv.index("--outdir") + 1])
    else:
        out = tmp / "out"
        argv += ["--outdir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert (out / "nonconvergence.json").exists() == (code == 3), (argv, code, err)
    if code == 0:
        assert err == "", argv
    else:
        assert {p.name for p in out.glob("*")} <= {"resolved_config.txt", "nonconvergence.json"}
    return code, stdout.getvalue(), err, out


def _one_line(code: int, err: str) -> str:
    """The one stderr line of a non-zero exit, past its code's prefix."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(_PREFIX[code]), err
    return lines[0][len(_PREFIX[code]):]


def _run_case(tmp, case):
    code, stdout, err, out = _run(tmp, case.argv.split(), case.config)
    assert code == case.code, err
    if case.err is not None:
        line = _one_line(code, err)
        if isinstance(case.err, str):
            assert line.startswith(case.err.replace("{tmp}", str(tmp))), line
        else:
            assert case.err.match(line), line
    if case.check is not None:
        assert case.check(out, stdout), stdout


def _table_test(rows, one_item):
    if one_item:
        def test(tmp_path):
            for case in rows:
                _run_case(tmp_path / case.id, case)
        return test

    @pytest.mark.parametrize("case", rows, ids=[case.id for case in rows])
    def test(tmp_path, case):
        _run_case(tmp_path, case)
    return test


# the tests that ran all their rows as one item still do
_ONE_ITEM = {"test_validation_exit_code", "test_overflowing_sweep_integral_exits_2",
             "test_huge_and_small_weight_ladders_write_their_solution",
             "test_unknown_config_key_exits_2",
             "test_removed_weight_floor_flag_is_rejected"}
for _name, _rows in CLI_CASES.items():
    globals()[_name] = _table_test(_rows, _name in _ONE_ITEM)


# Per value parser of `cli.KEYS`, typical and edge command-line texts
_TYPICAL = st.sampled_from([0.5, 1.0, 2.0, 4.0, 10.0])
_FLOAT = st.floats() | _TYPICAL | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-320, sys.float_info.min, 1e-300,
     1e-12, 1e-8, 3.0, 1e6, 1e8, 1e300, 1e308])
_P_I = st.sampled_from([2.0, 2.5, 3.0, 4.0])
_AXIS = st.sampled_from([(0.0, 1.0), (0.0, 3.0), (-8.0, 8.0), (0.0, math.pi)])
_FILES = st.sampled_from([*_FIXTURES, "missing.txt"])


def _csv(values) -> str:
    return ",".join(map(repr, values))


def _lists(strategy, dim: int, edge: bool):
    """Lists of `strategy`, `dim` long, or for an edge of any length 1..3."""
    sizes = st.just(dim) | st.integers(1, 3) if edge else st.just(dim)
    return sizes.flatmap(lambda n: st.lists(strategy, min_size=n, max_size=n))


def _p(dim, edge):
    lists = _lists(_P_I | _FLOAT | st.sampled_from([5.5, 20.0, 1e6]) if edge else _P_I, dim, edge)
    return (lists | lists.map(sorted) if edge else lists.map(sorted)).map(_csv)


_ALPHABET = {
    float: lambda dim, edge: (_FLOAT if edge else _TYPICAL).map(repr),
    int: lambda dim, edge: (st.integers(-1, 20) if edge else st.integers(2, 4)).map(str),
    str: lambda dim, edge: st.sampled_from(["{tmp}/out"] + ["{tmp}/not-a-field.txt"] * edge),
    cli._floats: _p,
    cli._ints: lambda dim, edge: _lists(st.integers(-1 if edge else 2, 8), dim, edge).map(_csv),
    cli._box: lambda dim, edge: _lists(_AXIS | st.tuples(_FLOAT, _FLOAT) if edge else _AXIS, dim,
                                       edge).map(lambda axes: _csv(x for a in axes for x in a)),
    cli._radii: lambda dim, edge: st.one_of(
        st.lists(_FLOAT, min_size=1, max_size=3).map(_csv),
        st.tuples(_FLOAT, _FLOAT, st.integers(-1, 8) | st.just(10 ** 12)).map(
            lambda r: f"{r[0]!r}:{r[1]!r}:{r[2]}")) if edge else st.just("0.1:0.2:3"),
}


def _takes(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def _texts(parse, dim: int, edge: bool) -> st.SearchStrategy[str]:
    """Typical or edge texts for the value parser `parse` of a key: by its
    `_ALPHABET` entry, else an enum's values (and an unknown name), else the
    `kind:arg` field descriptors it takes (edge: all, `file:` of `_FIXTURES`)."""
    if parse in _ALPHABET:
        return _ALPHABET[parse](dim, edge)
    if isinstance(parse, type) and issubclass(parse, enum.Enum):
        return st.sampled_from([v.value for v in parse] + ["Bogus"] * edge)
    kinds = [k for k in ("constant", "power", "file") if _takes(parse, f"{k}:1")] if edge else [
        "constant"]
    assert kinds and _takes(parse, "constant:1"), f"no alphabet for the parser {parse!r}"
    args = {"constant": _FLOAT if edge else _TYPICAL, "power": _FLOAT,
            "file": _FILES.map(lambda name: "{tmp}/" + name)}
    return st.sampled_from(kinds).flatmap(lambda kind: args[kind].map(f"{kind}:{{}}".format))


@st.composite
def _command_lines(draw, names=tuple(cli.SUBCOMMANDS), edge_keys=None) -> list[str]:
    """A subcommand of `names` and, per key it takes, a text by the key's
    parser: an edge text for each key of a drawn subset (of `edge_keys`, if
    given), else a typical one or, for a key with a default, no flag
    (`--flag=text` for a text "-...")."""
    name = draw(st.sampled_from(list(names)))
    keys = cli.SUBCOMMANDS[name].keys
    dim = draw(st.integers(1, 3))
    edges = draw(st.sets(st.sampled_from(list(edge_keys or keys))), label="edge keys")
    argv = [name]
    for key, default in keys.items():
        texts = _texts(cli.KEYS[key].parse, dim, key in edges)
        if default is not cli.REQUIRED and key not in edges:
            texts = st.none() | texts
        text = draw(texts, label=key)
        if text is not None:
            flag = cli.KEYS[key].flag
            argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return argv


def _null_keys(doc, path=""):
    """The dotted key path of each null in a JSON document (a list item has
    its list's path)."""
    if doc is None:
        yield path[1:]
    for key, value in doc.items() if isinstance(doc, dict) else ():
        yield from _null_keys(value, f"{path}.{key}")
    for value in doc if isinstance(doc, list) else ():
        yield from _null_keys(value, path)


@functools.cache
def _nullable_keys() -> dict[str, list[str]]:
    """README's table of the keys each JSON report may hold null at, as
    glob patterns per file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return {m[1]: re.findall(r"`([^`]+)`", m[2])
            for m in re.finditer(r"^\| `(\w+\.json)` \| ([^|]*) \|", readme.read_text(), re.M)}


def _ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err, out = _run(Path(tmp), argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code != 0:
            _one_line(code, err)
            return
        for report in out.glob("*.json"):
            patterns = _nullable_keys()[report.name]
            for key in _null_keys(json.loads(report.read_text())):
                assert any(fnmatch.fnmatchcase(key, p) for p in patterns), (argv, report.name, key)


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(argv=_command_lines())
def test_every_key_of_every_subcommand_ends_in_a_documented_exit(argv):
    _ends_in_a_documented_exit(argv)


def test_zero_weight_sweep_ends_in_a_documented_exit():
    # a draw of the test above: every lhs is 0, so no slope is fitted and
    # `sweep.slope` is null
    _ends_in_a_documented_exit(["sweep", "--p", "2.0,2.0", "--cap", "1.0", "--box",
                                "0.0,1.0,0.0,1.0", "--res", "2,2", "--weight", "constant:0.0",
                                "--u", "constant:0.5"])


# the same draws, narrowed to the keys where solve's Newton loop and its
# stopping tests live
@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(argv=_command_lines(["solve"], ["solve.tolFix", "solve.maxOuter", "solve.nmax"]))
def test_solve_tolerance_and_step_keys_end_in_a_documented_exit(argv):
    _ends_in_a_documented_exit(argv)


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(argv=_command_lines(["stability"]))
def test_stability_keys_end_in_a_documented_exit(argv):
    _ends_in_a_documented_exit(argv)


def test_count_limits_are_inclusive(monkeypatch):
    # a lowered limit, so that a count at it allocates little
    monkeypatch.setattr(grid_module, "MAX_NODES", 40)
    for n in (1, 40):
        assert len(cli._radii(f"1:2:{n}")) == n
    for n in (0, 41):
        with pytest.raises(ValueError, match="count must lie in 1..40"):
            cli._radii(f"1:2:{n}")


# Each input domain is checked once, by the library call that takes the value;
# the CLI only parses the text.  Per domain: the message of its refusal, the
# library calls that take the value, the CLI runs that pass it on, and the
# values outside the domain.
# Before the checks moved into the library, `run_ladder` certified every level
# at tol_fix = nan or inf, ran 200 Newton steps and exited 3 at tol_fix = -1,
# accepted `WeightSpec(m=-1)` and raised numpy's bare ValueError at seed = -1.
_SMALL = Grid(box=((0.0, 1.0),) * 2, res=(4, 4))
_ONES = GridField.constant(_SMALL, 1.0)
_E23 = ExponentData.from_p((2.0, 3.0))
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
    # `solve_inner`'s tol: no CLI key passes it, the level solves derive theirs
    # from tol_fix
    "inner_tol": ("the inner solve tolerance must be finite and > 0",
                  [lambda v: solve_inner(_ONES, _E23, tol=v)], [], _NON_POSITIVE),
    "tolerance floor": ("(tol_fix|the inner solve tolerance) = [^ ]+ is below the "
                        "smallest normal float",
                        [lambda v: _ladder(tol_fix=v), lambda v: solve_inner(_ONES, _E23, tol=v)],
                        [lambda t: _SOLVE_SMALL + [f"--tol-fix={t}"]],
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
def test_each_domain_is_refused_by_the_library_and_the_cli(tmp_path, domain, value):
    message, library, runs, _ = _DOMAINS[domain]
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in library:
            with pytest.raises(ValidationError, match=message):
                call(value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for i, argv in enumerate(runs):
        code, _, err, _ = _run(tmp_path / str(i), argv(text))
        assert code == 2 and re.search(message, _one_line(code, err)), err


# a subnormal tolerance, given or derived as 8 tol_fix / L^2, ran 200 Newton
# steps and exited 3 at a residual of about 4e-15
@pytest.mark.parametrize("argv, expected", [
    (_SOLVE_SMALL + ["--tol-fix", "1e-320"], "tol_fix = 1e-320 is below the smallest normal float"),
    (["solve", "--p", "2,3", "--box", "0,1e5,0,1e5", "--res", "4,4", "--nmax", "2",
      "--tol-fix", "1e-300"], "8 tol_fix / L^2 (tol_fix = 1e-300, p = 2 box side L = 100000.0)"),
], ids=["tol-fix", "derived"])
def test_subnormal_tolerance_exits_2_before_any_newton_step(tmp_path, monkeypatch, argv, expected):
    def refuse(*args, **kwargs):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(solver_module, "_newton_direction", refuse)
    code, _, err, _ = _run(tmp_path, argv)  # and no nonconvergence.json
    assert code == 2 and _one_line(code, err).startswith(expected), err


def test_stability_refuses_a_negative_weight_only_where_it_reads_it(tmp_path):
    # WeightedByG used to carry g = -1 into the potential, flip its sign and
    # report 4.08 "stable" with exit 0; AsWritten never reads g
    argv = ["stability", "--p", "2,2", "--box", "0,3,0,3", "--res", "4,4", "--delta", "1",
            "--u", "constant:1", "--weight=constant:-1.0", "--variant"]
    code, _, err, _ = _run(tmp_path / "g", argv + ["WeightedByG"])  # and no report
    assert code == 2 and _one_line(code, err) == "weight g must be finite and nonnegative"
    assert _run(tmp_path / "a", argv + ["AsWritten"])[0] == 0


@pytest.mark.parametrize("res", [6, 8, 12, 24])
def test_stability_certifies_a_shift_near_the_float_limit(tmp_path, res):
    # the residual of entries about 1e292 left after cancelling a shift of
    # -1e308 overflowed when squared: a RuntimeWarning, residual inf, exit 3.
    # Scaled, it certifies the gap -1e308 (exit 0) rather than refusing (2)
    code, _, _, out = _run(tmp_path, ["stability", "--p", "2,2", "--delta", "1", "--gamma", "1e308",
                                      "--box", "0,3,0,3", "--res", f"{res},{res}", "--u",
                                      "constant:1.0"])
    assert code == 0
    doc = _report(out, "stability_report.json")
    assert doc["residual"] <= 1e-7 * abs(doc["shift"]) < abs(doc["gap"])
    assert doc["stable"] is False


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
    # the empty line of the dropped `solve.innerTol` counts as absent
    written = (replay / "resolved_config.txt").read_text()
    assert written == _LEGACY_SOLVE_CONFIG.replace("legacy", str(replay)).replace(
        "solve.innerTol = \n", "")


@pytest.mark.parametrize("p, certificate", [((2.0, 3.0), "bound"), ((3.0, 4.0), "newton")])
def test_solve_reproduces_a_manufactured_level_solution(tmp_path, p, certificate):
    """End-to-end oracle for `solve --weight file:`: u* = 0.5 sin(pi x) sin(pi y)
    on the unit square solves level n = 4 exactly for the weight
    g = Op(u*) exp(-1/(u* + 1/4)), where Op(u*) = sum_i (p_i - 1)
    |d_i u*|^{p_i-2} pi^2 u* >= 0 is the analytic operator; max g <= 3.31 < 4,
    so the cap min(g, n) is inactive.  The nodal sup error of `u_final.txt`
    must fall strictly at an observed order >= 1.5; measured orders per
    refinement 16 -> 32 -> 64: p=(2,3) 1.58, 1.67 (certificate "bound");
    p=(3,4) 1.77, 1.81 (the "newton" gap estimate)."""
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


def test_parser_is_built_once(tmp_path):
    parser = cli._build_parser()
    assert main(["thresholds", "--p", "2,3,4", "--delta", "10",
                 "--outdir", str(tmp_path / "out")]) == 0
    assert cli._build_parser() is parser


def _fresh_interpreter(script: str, cwd, stdout=subprocess.PIPE,
                       unbuffered=None) -> subprocess.CompletedProcess:
    """Run `script` in a new Python process that imports this checkout's
    anisolab, with PYTHONUNBUFFERED set to `unbuffered` (None: unset)."""
    src = str(Path(anisolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_in_exit_0(tmp_path, unbuffered):
    # the summary is printed after every report is written; a reader gone
    # before it (`| head`, `| grep -q`) ended the run in exit 120 with
    # "Exception ignored ... BrokenPipeError", or unbuffered in a traceback
    read, write = os.pipe()
    os.close(read)  # no reader from the start, so the first write fails
    script = ("import sys; from anisolab import cli; "
              "sys.exit(cli.main(['thresholds', '--p', '2,3,4', '--delta', '10', '--outdir', 't']))")
    try:
        proc = _fresh_interpreter(script, tmp_path, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _report(tmp_path / "t", "thresholds.json")["theoremApplicable"] == "Thm3_4"


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


def test_3d_stability_loads_no_sparse_eigensolvers(tmp_path):
    # scipy.sparse.linalg holds SuperLU, which only the 1D/2D
    # preconditioner calls
    script = """
import sys
import numpy as np
from anisolab import Grid, GridField, NonlinearityEval, StabilityVariant, cli, stability_index

grid = Grid(box=((0.0, np.pi),) * 3, res=(10, 10, 10))
u = GridField.from_function(grid, lambda x, y, z: 1.0 + 0.2 * np.sin(x) * np.sin(y) * np.sin(z))
rep = stability_index(u, NonlinearityEval.mixed_power(1.0, 1.0), GridField.constant(grid, 1.0),
                      (2.0, 3.0, 4.0), variant=StabilityVariant.AS_WRITTEN)
assert rep.iterations > 0, rep
assert "scipy.sparse.linalg" not in sys.modules
code = cli.main(["stability", "--p", "2,2,3", "--delta", "1", "--box", "0,3,0,3,0,3",
                 "--res", "8,8,8", "--u", "constant:1.0", "--outdir", "o"])
assert code == 0 and "scipy.sparse.linalg" not in sys.modules, code
"""
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
      **{k: None for k in ("uniformBoundExpected", "weakResidualLevelMax")}}),
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
                           "maxADeviation", "maxCDeviation")},
      "growthConstants": {"2.0": None, "3.0": None},
      "violations": [{"property": None, "value": None, "bound": None}]}),
], ids=["ladder", "stability", "certificate", "truncation"])
def test_report_key_trees_are_pinned(tmp_path, monkeypatch, name, argv, tree):
    # every JSON key at every depth, so a renamed attribute cannot rename a
    # key unnoticed; a negative identity tolerance makes each truncation
    # property record a violation, so `violations[]` has items to pin
    monkeypatch.setattr(truncations, "IDENTITY_TOL", -1.0)
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert _key_tree(json.loads((tmp_path / name).read_text())) == tree
