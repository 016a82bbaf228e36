"""Seeded workloads of the anisolab benchmark and the oracles that check
their outputs.

A workload is a fixed list of cases, run once per study pass.  Each case is
one call of `anisolab.cli.main(argv)`; its argv is built from the seed, and
its `check` verifies the files the call wrote against a reference that does
not reuse the code path under test.  The seed changes values (weights,
amplitudes and phases, `delta`, radii, truncation parameters), drawn afresh
for every pass; grid sizes and exponent vectors are fixed per workload, so
every seed and pass costs about the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from anisolab.exponents import ExponentData
from anisolab.grid import Grid, GridField, integrate, p_laplacian_apply, save_field
from anisolab.stability import NonlinearityEval, StabilityVariant, stability_gap

PI = repr(math.pi)

# Reasons printed in the run record; BENCHMARK.json carries the same lines.
WHY = {
    "ladder-3d": "3D anisotropic ladder at 16^3: the ROADMAP target path, "
                 "time dominated by SuperLU factorizations inside Newton steps",
    "ladder-2d": "2D/1D ladders: the isotropic path reuses a cached LU, so a "
                 "change that speeds 3D at 2D's expense shows here",
    "stability": "stability index on 2D/3D candidates: the eigen layer "
                 "dominates; p=(2,3,4) keeps today's exit-3 non-convergence",
    "certify": "thresholds, truncation checks and radius sweeps reading 64^3-96^3 "
               "snapshots: exponents, quadrature and snapshot I/O do the work",
}


class OracleFailure(AssertionError):
    """An op's output disagrees with its reference."""


@dataclass
class Case:
    name: str
    argv: list[str]
    check: Callable[[Path], None]
    # exit 3 (documented numerical non-convergence) is today's known outcome
    known_nonconvergence: bool = False


@dataclass
class Workload:
    passes: list[list[Case]]
    warmup: list[list[str]]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unit_box(dim: int) -> str:
    return ",".join(["0,1"] * dim)


def _pi_box(dim: int) -> str:
    return ",".join(["0", PI] * dim)


def _read_snapshot(path: Path) -> tuple[Grid, np.ndarray]:
    """Parse a field snapshot (header line, then one value per line)."""
    with open(path) as fh:
        header = fh.readline().split()
        values = np.loadtxt(fh)
    dim = int(header[1])
    res = tuple(int(x) for x in header[2:2 + dim])
    flat = [float(x) for x in header[2 + dim:2 + 3 * dim]]
    grid = Grid(box=tuple((flat[2 * i], flat[2 * i + 1]) for i in range(dim)), res=res)
    return grid, values.reshape(grid.shape)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _weight_values(grid: Grid, descriptor: str) -> np.ndarray:
    kind, _, arg = descriptor.partition(":")
    if kind == "constant":
        return np.full(grid.shape, float(arg))
    # power:s is |x - center|^-s clamped at half a cell, as the CLI documents
    d = np.maximum(grid.node_distances(), 0.5 * min(grid.h))
    return d ** (-float(arg))


def _solve_case(name: str, p: tuple[float, ...], res: tuple[int, ...], weight: str,
                nmax: int, seed: int) -> Case:
    tol_fix = 1e-8
    argv = ["solve", "--p", _csv(p), "--box", _unit_box(len(p)),
            "--res", ",".join(str(r) for r in res), "--weight", weight, "--nmax", str(nmax),
            "--tol-fix", repr(tol_fix), "--seed", str(seed)]

    def check(outdir: Path) -> None:
        report = json.loads((outdir / "ladder_report.json").read_text())
        levels = report["levels"]
        _require(len(levels) == nmax, f"{len(levels)} levels, expected {nmax}")
        for lv in levels:
            _require(lv["residual"] <= tol_fix, f"level {lv['n']} residual {lv['residual']}")
            _require(lv["interiorMin"] > 0, f"level {lv['n']} interiorMin {lv['interiorMin']}")
            _require(lv["monoDefect"] <= 1e-6, f"level {lv['n']} monoDefect {lv['monoDefect']}")
        grid, u = _read_snapshot(outdir / "u_final.txt")
        _require(grid.res == tuple(res), f"u_final grid {grid.res}")
        # level-nmax equation Op(u) = min(g, n) exp(1/(|u| + 1/n)) on interior nodes
        g_n = np.minimum(_weight_values(grid, weight), float(nmax))
        rhs = g_n * np.exp(1.0 / (np.abs(u) + 1.0 / nmax))
        op = p_laplacian_apply(GridField(grid, u), ExponentData.from_p(p)).values
        inner = grid.interior_slices()
        resid = float(np.max(np.abs(op[inner] - rhs[inner])))
        # the inner solve meets its own right side to tol_fix and the fixed
        # point is met to tol_fix in u; d rhs / du <= rhs * nmax^2
        bound = tol_fix * (1.0 + float(np.max(rhs[inner])) * nmax ** 2)
        _require(resid <= bound, f"interior residual {resid:.3e} > {bound:.3e}")

    return Case(name, argv, check)


def _ladder_weight(rng: np.random.Generator, kind: str) -> str:
    if kind == "constant":
        return f"constant:{rng.uniform(0.5, 2.0)!r}"
    return f"power:{rng.uniform(0.5, 1.5)!r}"


def _ladder(specs, rng: np.random.Generator, passes: int, warm: list[list[str]]) -> Workload:
    return Workload([
        [_solve_case(case, p, res, _ladder_weight(rng, kind), 4, int(rng.integers(1 << 30)))
         for case, p, res, kind in specs]
        for _ in range(passes)
    ], warm)


def ladder_3d(rng: np.random.Generator, workdir: Path, passes: int) -> Workload:
    specs = [
        ("solve-3d-p223", (2, 2, 3), (16, 16, 16), "constant"),
        ("solve-3d-p234", (2, 3, 4), (16, 16, 16), "power"),
    ]
    warm = [["solve", "--p", "2,2,3", "--box", _unit_box(3), "--res", "4,4,4", "--nmax", "2"]]
    return _ladder(specs, rng, passes, warm)


def ladder_2d(rng: np.random.Generator, workdir: Path, passes: int) -> Workload:
    specs = [
        ("solve-2d-p22-64", (2, 2), (64, 64), "constant"),
        ("solve-2d-p22-96", (2, 2), (96, 96), "power"),
        ("solve-2d-p23-48", (2, 3), (48, 48), "power"),
        ("solve-2d-p23-64", (2, 3), (64, 64), "constant"),
        ("solve-1d-p3-256", (3,), (256,), "constant"),
    ]
    warm = [["solve", "--p", "2,3", "--box", _unit_box(2), "--res", "4,4", "--nmax", "2"]]
    return _ladder(specs, rng, passes, warm)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _mixed_fprime(u, delta: float, gamma: float):
    return delta * u ** (-delta - 1.0) + gamma * u ** (-gamma - 1.0)


def _stability_case(name: str, p: tuple[float, ...], res: tuple[int, ...], delta: float,
                    candidate: str, u_values: np.ndarray | None,
                    known_nonconvergence: bool = False) -> Case:
    dim = len(p)
    grid = Grid(box=((0.0, math.pi),) * dim, res=res)
    argv = ["stability", "--p", _csv(p), "--delta", repr(delta), "--box", _pi_box(dim),
            "--res", ",".join(str(r) for r in res), "--u", candidate,
            "--variant", "AsWritten"]

    def check(outdir: Path) -> None:
        report = json.loads((outdir / "stability_report.json").read_text())
        index = float(report["gap"])
        _require(report["variant"] == "AsWritten", f"variant {report['variant']}")
        _require(report["stable"] == (index >= 0), "stable flag disagrees with the index")
        if u_values is None:
            # constant candidate, all p_i = 2: the gap form is the Dirichlet
            # Laplacian minus f'(c), whose lowest discrete mode is known
            c = float(candidate.partition(":")[2])
            lam = sum(2.0 / h ** 2 * (1.0 - math.cos(math.pi * h / (hi - lo)))
                      for h, (lo, hi) in zip(grid.h, grid.box))
            expect = lam - float(_mixed_fprime(c, delta, delta))
            _require(abs(index - expect) <= 1e-8 * max(1.0, abs(expect)),
                     f"index {index!r} vs closed form {expect!r}")
            return
        mgrid, phi = _read_snapshot(outdir / "minimizer.txt")
        _require(mgrid == grid, "minimizer lives on another grid")
        u = GridField(grid, u_values)
        phi_f = GridField(grid, phi)
        nl = NonlinearityEval.mixed_power(delta, delta)
        num = stability_gap(u, phi_f, nl, GridField.constant(grid, 1.0), p,
                            variant=StabilityVariant.AS_WRITTEN)
        rq = num / integrate(GridField(grid, phi ** 2))
        _require(abs(rq - index) <= 1e-8 * max(1.0, abs(index)),
                 f"Rayleigh quotient {rq!r} vs reported index {index!r}")

    return Case(name, argv, check, known_nonconvergence)


# Inverse power stagnates today at this (amplitude, delta) point of
# p=(2,3,4), 12^3, as it does at (0.3, 2.0) and (0.4, 2.0); near such points
# it sometimes stops early instead, so seeded values would make the op's
# outcome and cost depend on the seed.  The point is fixed so that every run
# shows the defect.
_P234_AMPLITUDE, _P234_DELTA = 0.2, 1.0


def _sine_snapshot(path: Path, res: tuple[int, ...], amp: float, phases) -> np.ndarray:
    """Write u = 1 + amp * prod_i sin(x_i + phase_i) on [0, pi]^d."""
    grid = Grid(box=((0.0, math.pi),) * len(res), res=res)
    f = GridField.from_function(
        grid, lambda *xs: 1.0 + amp * np.prod([np.sin(x + ph) for x, ph in zip(xs, phases)],
                                            axis=0))
    save_field(f, path)
    return f.values


def stability(rng: np.random.Generator, workdir: Path, passes: int) -> Workload:
    p234_path = workdir / "u-p234.txt"
    p234_u = _sine_snapshot(p234_path, (12, 12, 12), _P234_AMPLITUDE, (0.0, 0.0, 0.0))
    all_passes = []
    for k in range(passes):
        cases = []
        for name, p, res in [("stab-2d-p23-96", (2, 3), (96, 96)),
                             ("stab-3d-p222-24", (2, 2, 2), (24, 24, 24)),
                             ("stab-3d-p223-16", (2, 2, 3), (16, 16, 16))]:
            path = workdir / f"u-{name}-{k}.txt"
            u = _sine_snapshot(path, res, rng.uniform(0.15, 0.25),
                               rng.uniform(0.0, 0.3, size=len(res)))
            cases.append(_stability_case(name, p, res, rng.uniform(0.8, 1.2), f"file:{path}", u))
        cases.append(_stability_case("stab-3d-p234-12", (2, 3, 4), (12, 12, 12), _P234_DELTA,
                                     f"file:{p234_path}", p234_u, known_nonconvergence=True))
        cases.append(_stability_case("stab-3d-p222-24-const", (2, 2, 2), (24, 24, 24),
                                     rng.uniform(0.8, 1.2),
                                     f"constant:{rng.uniform(0.9, 1.3)!r}", None))
        all_passes.append(cases)
    warm = [["stability", "--p", "2,3", "--delta", "1", "--box", _pi_box(2), "--res", "4,4",
             "--u", "constant:1.0", "--variant", "AsWritten"]]
    return Workload(all_passes, warm)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

_CERT_P = (2.0, 3.0, 4.0)
_CERT_HALF = 42.0


def _thresholds_case(delta: float) -> Case:
    argv = ["thresholds", "--p", _csv(_CERT_P), "--delta", repr(delta)]

    def check(outdir: Path) -> None:
        doc = json.loads((outdir / "thresholds.json").read_text())
        _require(doc["theoremApplicable"] == "Thm3_4", f"theorem {doc['theoremApplicable']}")
        # l1 is the lower end of the beta window; the selected beta lies inside
        lo, hi = doc["betaWindow.lower"], doc["betaWindow.upper"]
        _require(doc["l1"] == lo and lo < doc["selectedBeta"] < hi,
                 f"beta {doc['selectedBeta']} outside ({lo}, {hi})")
        _require(all(d < 0 for d in doc["decayExponents"]), "a decay exponent is >= 0")

    return Case("thresholds", argv, check)


def _truncation_case(k: int, alpha: float) -> Case:
    argv = ["truncation-check", "--k", str(k), "--alpha", repr(alpha), "--p", _csv(_CERT_P)]

    def check(outdir: Path) -> None:
        doc = json.loads((outdir / "truncation_report.json").read_text())
        _require(doc["ok"] is True and doc["violations"] == [],
                 f"truncation report not ok: {doc['violations'][:2]}")

    return Case("truncation-check", argv, check)


def _sweep_case(name: str, n: int, delta: float, c: float, g0: float, radii: str,
                path: Path) -> Case:
    box = ",".join([repr(-_CERT_HALF), repr(_CERT_HALF)] * 3)
    argv = ["sweep", "--p", _csv(_CERT_P), "--delta", repr(delta), f"--box={box}",
            "--res", f"{n},{n},{n}", "--weight", f"constant:{g0!r}", "--u", f"file:{path}",
            "--radii", radii]
    h = 2.0 * _CERT_HALF / n

    def check(outdir: Path) -> None:
        cert = json.loads((outdir / "certificate.json").read_text())
        _require(cert["theoremApplicable"] == "Thm3_4", f"theorem {cert['theoremApplicable']}")
        rows = cert["sweep"]["rows"]
        _require(len(rows) == int(radii.split(":")[2]), f"{len(rows)} sweep rows")
        big_e = cert["sweep"]["E"]
        first = None
        for row in rows:
            r = row["R"]
            # constant u and g: lhs = g c^-E |B_R|, up to the O(h^2) ball quadrature
            exact = g0 * c ** (-big_e) * 4.0 / 3.0 * math.pi * r ** 3
            err = abs(row["lhs"] / exact - 1.0)
            _require(err <= (h / r) ** 2, f"R={r}: lhs off by {err:.2e} > (h/R)^2")
            if first is None and row["lhs"] > row["rhs"]:
                first = r
        _require(cert["sweep"]["firstViolatingR"] == first, "firstViolatingR disagrees")
        csv_lines = (outdir / "sweep.csv").read_text().strip().splitlines()
        _require(len(csv_lines) == len(rows) + 1, "sweep.csv row count")

    return Case(name, argv, check)


def certify(rng: np.random.Generator, workdir: Path, passes: int) -> Workload:
    # the snapshots are large, so they are written once and read every pass
    snapshots = {}
    for n in (64, 96):
        c = rng.uniform(0.9, 1.1)
        path = workdir / f"u-{n}.txt"
        save_field(GridField.constant(Grid(box=((-_CERT_HALF, _CERT_HALF),) * 3,
                                           res=(n, n, n)), c), path)
        snapshots[n] = (c, path)
    # one 64^3 and two 96^3 sweeps per pass: the median op is then a 64^3
    # sweep, well apart in cost from its neighbours in the sorted op times
    sweeps = [("sweep-64", 64), ("sweep-96", 96), ("sweep-96-b", 96)]
    all_passes = []
    for _ in range(passes):
        delta = rng.uniform(11.0, 30.0)
        cases = [
            _thresholds_case(delta),
            _truncation_case(int(rng.integers(2, 7)), rng.uniform(3.5, 8.0)),
        ]
        for name, n in sweeps:
            c, path = snapshots[n]
            radii = f"{rng.uniform(6.0, 9.0)!r}:{rng.uniform(16.0, 20.0)!r}:8"
            cases.append(_sweep_case(name, n, delta, c, rng.uniform(0.5, 2.0), radii, path))
        all_passes.append(cases)
    warm = [["thresholds", "--p", "2,3,4", "--delta", "10"],
            ["truncation-check", "--k", "2", "--alpha", "4"],
            ["sweep", "--p", "2,3,4", "--delta", "10", "--box=-8,8,-8,8,-8,8", "--res", "8,8,8",
             "--u", "constant:1.0", "--radii", "1:3:3"]]
    return Workload(all_passes, warm)


BUILDERS = {
    "ladder-3d": ladder_3d,
    "ladder-2d": ladder_2d,
    "stability": stability,
    "certify": certify,
}
