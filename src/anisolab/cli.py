"""Experiment runner: subcommand dispatch, configuration, report persistence.

`KEYS` declares each flat dotted config key once (flag, parser, help) and
`SUBCOMMANDS` lists the keys of each subcommand with their defaults; the
argument parser and the merge of defaults < config file < flags are built
from these two tables.  Every run writes its fully resolved configuration
(`key = value` per line) next to its outputs; re-running with that file via
--config reproduces the reports bit for bit.  The parsers check syntax only;
the library call that takes a value checks its domain, except for the count
of a `--radii lo:hi:count` range, which is bounded before it is allocated.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 hypothesis not applicable (or violated).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    HypothesisNotApplicableError,
    HypothesisViolatedError,
    NonConvergenceError,
    ValidationError,
)
from .exponents import (
    ExponentData,
    ExpSingular,
    MixedPower,
    ProblemSpec,
    region_memberships,
)
from . import grid as grid_module
from .grid import (
    Grid,
    GridField,
    export_field_csv,
    load_field,
    save_field,
)
from .solver import WeightSpec, run_ladder
from .stability import (
    NonlinearityEval,
    StabilityVariant,
    SweepRow,
    nonexistence_certificate,
    stability_index,
)
from .truncations import TruncationPair, default_samples, verify_properties


# ---------------------------------------------------------------------------
# value parsers: text -> typed value; a ValueError means malformed input
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _box(text: str) -> tuple[tuple[float, float], ...]:
    vals = _floats(text)
    if len(vals) % 2 != 0:
        raise ValueError("box needs an even number of entries: lo,hi per axis")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2))


def _radii(text: str) -> tuple[float, ...]:
    if ":" not in text:
        return _floats(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("radii range must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi and 1 <= count <= grid_module.MAX_NODES):
        raise ValueError(f"needs 0 < lo < hi; count must lie in 1..{grid_module.MAX_NODES}")
    return tuple(np.geomspace(lo, hi, count))


def _descriptor(*kinds: str) -> Callable[[str], tuple[str, float | str]]:
    """Parser of `kind:arg` field descriptors, `kind` one of `kinds`:
    constant:c | power:s (radial |x - center|^-s, clamped at h/2) | file:path."""

    def parse(text: str) -> tuple[str, float | str]:
        kind, _, arg = text.partition(":")
        if kind not in kinds:
            raise ValueError(f"expected {' | '.join(k + ':...' for k in kinds)}")
        return (kind, arg) if kind == "file" else (kind, float(arg))

    return parse


def _build_field(descriptor: tuple[str, float | str], grid: Grid) -> GridField:
    kind, arg = descriptor
    if kind == "file":
        try:
            f = load_field(arg)
        except OSError as exc:
            raise ValidationError(f"cannot read field {arg}: {exc.strerror}") from exc
        if f.grid != grid:
            raise ValidationError(f"field {arg} lives on a different grid")
    elif kind == "constant":
        f = GridField.constant(grid, arg)
    else:
        d = np.maximum(grid.node_distances(), 0.5 * min(grid.h))
        with np.errstate(over="ignore"):  # an overflow is reported just below
            f = GridField(grid, d ** (-arg))
    if not np.all(np.isfinite(f.values)):
        raise ValidationError(f"field {kind}:{arg} has non-finite values")
    return f


# ---------------------------------------------------------------------------
# the key table: each dotted config key once, with its flag, parser and help
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    flag: str
    parse: Callable[[str], object]
    help: str = ""


KEYS: dict[str, Key] = {
    "exponents.p": Key("--p", _floats, "anisotropy vector, e.g. 2,3,4"),
    "problem.delta": Key("--delta", float, "mixed power u^-delta (exclusive with --cap)"),
    "problem.gamma": Key("--gamma", float, "mixed power u^-gamma (default: delta)"),
    "problem.cap": Key("--cap", float, "upper bound M (exponential problems)"),
    "grid.box": Key("--box", _box, "lo,hi per axis, e.g. 0,1,0,1"),
    "grid.res": Key("--res", _ints, "cells per axis, e.g. 64,64"),
    "weight.descriptor": Key("--weight", _descriptor("constant", "power", "file"),
                             "constant:c | power:s | file:path"),
    "weight.m": Key("--weight-m", float, "claimed integrability exponent of g"),
    "truncation.k": Key("--k", int),
    "truncation.alpha": Key("--alpha", float),
    "truncation.samples": Key("--samples", int),
    "truncation.tmax": Key("--t-max", float),
    "solve.nmax": Key("--nmax", int),
    "solve.tolFix": Key("--tol-fix", float),
    "solve.innerTol": Key("--inner-tol", float),
    "solve.maxOuter": Key("--max-outer", int),
    "stability.u": Key("--u", _descriptor("constant", "file"), "constant:c | file:path"),
    "stability.variant": Key("--variant", StabilityVariant, "AsWritten | WeightedByG"),
    "sweep.u": Key("--u", _descriptor("constant", "file"), "constant:c | file:path"),
    "sweep.radii": Key("--radii", _radii, "r1,r2,... or lo:hi:count (geometric)"),
    "sweep.cconst": Key("--cconst", float),
    "run.outdir": Key("--outdir", str),
    "run.seed": Key("--seed", int),
}


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc.strerror}") from exc
    cfg: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line (expected key = value): {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _configure(name: str, args: argparse.Namespace) -> tuple[dict, Path]:
    """Merge defaults < config file < flags for subcommand `name` (an empty
    value counts as absent), parse every value, and write the merged text to
    `resolved_config.txt` in the run's outdir; return the typed values and
    the outdir."""
    keys = SUBCOMMANDS[name].keys
    cfg = _read_config(args.config)
    unknown = sorted(set(cfg) - set(keys) - {"run.subcommand"})
    if unknown:
        raise ValidationError(f"unknown config key(s) for {name}: {', '.join(unknown)}")
    flags = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    resolved = {k: d for k, d in keys.items() if isinstance(d, str)}
    resolved.update({k: v for k, v in {**cfg, **flags}.items() if v != ""})
    resolved["run.subcommand"] = name
    values: dict[str, object] = {}
    for key, default in keys.items():
        text = resolved.get(key, "")
        if text == "" and default is REQUIRED:
            raise ValidationError(f"{name} needs {key} ({KEYS[key].flag})")
        try:
            values[key] = KEYS[key].parse(text) if text else None
        except ValueError as exc:
            raise ValidationError(f"bad {key} {text!r}: {exc}") from exc
    outdir = Path(resolved["run.outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    (outdir / "resolved_config.txt").write_text("\n".join(lines) + "\n")
    return values, outdir


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def _sanitize(doc):
    """Replace non-finite floats with None so reports stay valid JSON."""
    if isinstance(doc, dict):
        return {k: _sanitize(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_sanitize(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _write_json(doc, path: Path) -> None:
    path.write_text(
        json.dumps(_sanitize(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def _build_problem(v: dict) -> ProblemSpec:
    e = ExponentData.from_p(v["exponents.p"])
    delta, gamma, cap = v["problem.delta"], v["problem.gamma"], v["problem.cap"]
    if (cap is None) == (delta is None):
        raise ValidationError("give exactly one of problem.delta (mixed power, with "
                              "optional problem.gamma) and problem.cap (exponential)")
    if cap is not None:
        kind: MixedPower | ExpSingular = ExpSingular(cap=cap)
    else:
        kind = MixedPower(delta=delta, gamma=delta if gamma is None else gamma)
    return ProblemSpec(kind=kind, exponents=e)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_thresholds(v: dict, outdir: Path) -> int:
    spec = _build_problem(v)
    report = region_memberships(spec)
    doc = report.to_flat_dict()
    _write_json(doc, outdir / "thresholds.json")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _run_truncation_check(v: dict, outdir: Path) -> int:
    k, alpha = v["truncation.k"], v["truncation.alpha"]
    tp = TruncationPair(k=k, alpha=alpha, exponents=v["exponents.p"])
    samples = default_samples(tp, n=v["truncation.samples"], t_max=v["truncation.tmax"])
    report = verify_properties(tp, samples)
    _write_json(report.to_dict(), outdir / "truncation_report.json")
    status = "pass" if report.ok else "FAIL"
    print(f"truncation-check k={k} alpha={alpha}: {status} "
          f"(max property-c deviation {report.max_c_deviation:.3e})")
    return 0


def _run_solve(v: dict, outdir: Path) -> int:
    e = ExponentData.from_p(v["exponents.p"])
    grid = Grid(box=v["grid.box"], res=v["grid.res"])
    w = WeightSpec(g=_build_field(v["weight.descriptor"], grid), m=v["weight.m"])
    report = run_ladder(
        v["solve.nmax"],
        w,
        e,
        tol_fix=v["solve.tolFix"],
        inner_tol=v["solve.innerTol"],
        max_outer=v["solve.maxOuter"],
        seed=v["run.seed"],
    )
    _write_json(report.to_dict(), outdir / "ladder_report.json")
    save_field(report.final_field, outdir / "u_final.txt")
    export_field_csv(report.final_field, outdir / "u_final.csv")
    last = report.levels[-1]
    print(
        f"ladder done: {len(report.levels)} levels, sup={last.sup_norm:.6g}, "
        f"interior min={last.interior_min:.6g}, worst defect="
        f"{max(r.mono_defect for r in report.levels):.3e}"
    )
    return 0


def _run_stability(v: dict, outdir: Path) -> int:
    spec = _build_problem(v)
    grid = Grid(box=v["grid.box"], res=v["grid.res"])
    u = _build_field(v["stability.u"], grid)
    g = _build_field(v["weight.descriptor"], grid)
    nl = NonlinearityEval.from_problem(spec)
    report = stability_index(
        u, nl, g, spec.exponents.p, variant=v["stability.variant"], seed=v["run.seed"]
    )
    _write_json(report.to_dict(), outdir / "stability_report.json")
    save_field(report.minimizer, outdir / "minimizer.txt")
    print(f"stability index = {report.gap:.9g} ({'stable' if report.stable else 'unstable'})")
    return 0


def _run_sweep(v: dict, outdir: Path) -> int:
    spec = _build_problem(v)
    grid = Grid(box=v["grid.box"], res=v["grid.res"])
    u = _build_field(v["sweep.u"], grid)
    g = _build_field(v["weight.descriptor"], grid)
    certificate = nonexistence_certificate(
        spec, u, g, c_const=v["sweep.cconst"], radii=v["sweep.radii"]
    )
    _write_json(certificate.to_dict(), outdir / "certificate.json")
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SweepRow)])
        for row in certificate.sweep.rows:
            writer.writerow([f"{x:.17g}" for x in astuple(row)])
    print(certificate.conclusion)
    return 0


# ---------------------------------------------------------------------------
# the subcommand table and the parser built from it
# ---------------------------------------------------------------------------

REQUIRED = object()  # marks a key that has no default and must be given


class Subcommand(NamedTuple):
    run: Callable[[dict, Path], int]
    help: str
    # key -> default text, REQUIRED, or None (optional, left out when absent)
    keys: dict[str, object]


_PROBLEM = {"exponents.p": REQUIRED, "problem.delta": None, "problem.gamma": None,
            "problem.cap": None}
_GRID = {"grid.box": REQUIRED, "grid.res": REQUIRED, "weight.descriptor": "constant:1.0"}

SUBCOMMANDS: dict[str, Subcommand] = {
    "thresholds": Subcommand(
        _run_thresholds, "exponent thresholds and hypothesis certification",
        {**_PROBLEM, "run.outdir": "thresholds-out"},
    ),
    "truncation-check": Subcommand(
        _run_truncation_check, "verify the truncation identities",
        {"truncation.k": REQUIRED, "truncation.alpha": REQUIRED,
         "truncation.samples": "1000", "truncation.tmax": "10.0", "exponents.p": "",
         "run.outdir": "truncation-out"},
    ),
    "solve": Subcommand(
        _run_solve, "run the regularization ladder",
        {"exponents.p": REQUIRED, **_GRID, "weight.m": "", "solve.nmax": "4",
         "solve.tolFix": "1e-8", "solve.innerTol": "", "solve.maxOuter": "200",
         "run.outdir": "solve-out", "run.seed": "0"},
    ),
    "stability": Subcommand(
        _run_stability, "spectral stability index of a candidate",
        {**_PROBLEM, **_GRID, "stability.u": REQUIRED, "stability.variant": "WeightedByG",
         "run.outdir": "stability-out", "run.seed": "0"},
    ),
    "sweep": Subcommand(
        _run_sweep, "radius-sweep nonexistence certificate",
        {**_PROBLEM, **_GRID, "sweep.u": REQUIRED, "sweep.radii": "", "sweep.cconst": "1.0",
         "run.outdir": "sweep-out"},
    ),
}


# the tables are static, so one parser serves every `main` call; it is
# built on the first call, not at import
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="numerical laboratory for singular anisotropic p-Laplace problems",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, sub in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=sub.help)
        sp.add_argument("--config", default=None, help="flat key=value config file")
        for key in sub.keys:
            sp.add_argument(KEYS[key].flag, dest=key, default=None, help=KEYS[key].help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse rejected argv (2) or printed --help (0)
        return exc.code
    try:
        values, outdir = _configure(args.subcommand, args)
        return SUBCOMMANDS[args.subcommand].run(values, outdir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:  # only runners raise it: outdir is set
        doc = {"message": str(exc), "residual": exc.residual, "diagnostics": exc.diagnostics}
        _write_json(doc, outdir / "nonconvergence.json")
        print(f"non-convergence: {exc} (residual={exc.residual})", file=sys.stderr)
        return 3
    except HypothesisNotApplicableError as exc:
        print(f"hypothesis not applicable: {exc}", file=sys.stderr)
        return 4
    except HypothesisViolatedError as exc:
        print(f"hypothesis violated (a certified point failed a later step): {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
