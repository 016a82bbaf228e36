"""Experiment runner: subcommand dispatch, configuration, report persistence.

Subcommands: thresholds | truncation-check | solve | stability | sweep.
Every run writes its fully resolved configuration (flat dotted keys, one
`key = value` per line) next to its outputs; re-running with that file via
--config reproduces the reports bit for bit.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 hypothesis not applicable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    HypothesisNotApplicableError,
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
    nonexistence_certificate,
    stability_index,
)
from .truncations import TruncationPair, default_samples, verify_properties


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line (expected key = value): {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _merge(cfg: dict[str, str], flags: dict[str, str | None],
           defaults: dict[str, str]) -> dict[str, str]:
    out = dict(defaults)
    out.update(cfg)
    out.update({k: v for k, v in flags.items() if v is not None})
    return out


def _write_config(resolved: dict[str, str], outdir: Path) -> None:
    lines = [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    (outdir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


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


def _floats_csv(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad float list {text!r}") from exc


def _ints_csv(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    vals = _floats_csv(text)
    if len(vals) % 2 != 0:
        raise ValidationError("box needs an even number of entries: lo,hi per axis")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2))


def _parse_radii(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError("radii range must be lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if lo <= 0 or hi <= lo or count < 1:
            raise ValidationError(f"bad radii range {text!r}")
        return list(np.geomspace(lo, hi, count))
    return _floats_csv(text)


def _build_grid(resolved: dict[str, str]) -> Grid:
    box = _parse_box(resolved["grid.box"])
    res = tuple(_ints_csv(resolved["grid.res"]))
    return Grid(box=box, res=res)


def _parse_weight(descriptor: str, grid: Grid) -> GridField:
    """constant:c | power:s (radial |x - center|^-s, clamped at h/2) | file:path"""
    kind, _, arg = descriptor.partition(":")
    if kind == "constant":
        return GridField.constant(grid, float(arg))
    if kind == "power":
        s = float(arg)
        d = np.maximum(grid.node_distances(), 0.5 * min(grid.h))
        return GridField(grid, d ** (-s))
    if kind == "file":
        f = load_field(arg)
        if f.grid != grid:
            raise ValidationError(f"field {arg} lives on a different grid")
        return f
    raise ValidationError(f"unknown weight descriptor {descriptor!r}")


def _parse_field(descriptor: str, grid: Grid) -> GridField:
    kind, _, arg = descriptor.partition(":")
    if kind == "constant":
        return GridField.constant(grid, float(arg))
    if kind == "file":
        f = load_field(arg)
        if f.grid != grid:
            raise ValidationError(f"field {arg} lives on a different grid")
        return f
    raise ValidationError(f"unknown field descriptor {descriptor!r}")


def _build_problem(resolved: dict[str, str]) -> ProblemSpec:
    p = _floats_csv(resolved["exponents.p"])
    e = ExponentData.from_p(p)
    floor = float(resolved["problem.weightFloor"])
    cap = resolved.get("problem.cap")
    delta = resolved.get("problem.delta")
    if cap not in (None, "") and delta not in (None, ""):
        raise ValidationError("give either problem.delta(/gamma) or problem.cap, not both")
    if cap not in (None, ""):
        kind: MixedPower | ExpSingular = ExpSingular(cap=float(cap))
    elif delta not in (None, ""):
        gamma = resolved.get("problem.gamma")
        gamma_val = float(gamma) if gamma not in (None, "") else float(delta)
        kind = MixedPower(delta=float(delta), gamma=gamma_val)
    else:
        raise ValidationError("problem needs delta (mixed power) or cap (exponential)")
    return ProblemSpec(kind=kind, exponents=e, weight_floor=floor)


def _prepare_outdir(resolved: dict[str, str]) -> Path:
    outdir = Path(resolved["run.outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_config(resolved, outdir)
    return outdir


@contextlib.contextmanager
def _diagnostics_on_failure(outdir: Path):
    """Write `nonconvergence.json` (message, residual, diagnostics) into the
    run's outdir when the body raises NonConvergenceError, then re-raise."""
    try:
        yield
    except NonConvergenceError as exc:
        doc = {"message": str(exc), "residual": exc.residual, "diagnostics": exc.diagnostics}
        _write_json(doc, outdir / "nonconvergence.json")
        raise


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_thresholds(args) -> int:
    cfg = _read_config(args.config)
    resolved = _merge(
        cfg,
        {
            "exponents.p": args.p,
            "problem.delta": args.delta,
            "problem.gamma": args.gamma,
            "problem.cap": args.cap,
            "problem.weightFloor": args.weight_floor,
            "run.outdir": args.outdir,
        },
        {"problem.weightFloor": "1.0", "run.outdir": "thresholds-out"},
    )
    resolved["run.subcommand"] = "thresholds"
    spec = _build_problem(resolved)
    outdir = _prepare_outdir(resolved)
    report = region_memberships(spec)
    doc = report.to_flat_dict()
    _write_json(doc, outdir / "thresholds.json")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _run_truncation_check(args) -> int:
    cfg = _read_config(args.config)
    resolved = _merge(
        cfg,
        {
            "truncation.k": args.k,
            "truncation.alpha": args.alpha,
            "truncation.samples": args.samples,
            "truncation.tmax": args.t_max,
            "exponents.p": args.p,
            "run.outdir": args.outdir,
        },
        {
            "truncation.samples": "1000",
            "truncation.tmax": "10.0",
            "exponents.p": "",
            "run.outdir": "truncation-out",
        },
    )
    resolved["run.subcommand"] = "truncation-check"
    if resolved.get("truncation.k") in (None, "") or resolved.get("truncation.alpha") in (None, ""):
        raise ValidationError("truncation-check needs k and alpha")
    k = int(resolved["truncation.k"])
    alpha = float(resolved["truncation.alpha"])
    p_text = resolved.get("exponents.p", "")
    exps = tuple(_floats_csv(p_text)) if p_text else None
    tp = TruncationPair(k=k, alpha=alpha, exponents=exps)
    samples = default_samples(
        tp, n=int(resolved["truncation.samples"]), t_max=float(resolved["truncation.tmax"])
    )
    report = verify_properties(tp, samples, exponents=exps)
    outdir = _prepare_outdir(resolved)
    _write_json(report.to_dict(), outdir / "truncation_report.json")
    status = "pass" if report.ok else "FAIL"
    print(f"truncation-check k={k} alpha={alpha}: {status} "
          f"(max property-c deviation {report.max_c_deviation:.3e})")
    return 0


def _run_solve(args) -> int:
    cfg = _read_config(args.config)
    resolved = _merge(
        cfg,
        {
            "exponents.p": args.p,
            "grid.box": args.box,
            "grid.res": args.res,
            "weight.descriptor": args.weight,
            "weight.m": args.weight_m,
            "solve.nmax": args.nmax,
            "solve.tolFix": args.tol_fix,
            "solve.innerTol": args.inner_tol,
            "solve.maxOuter": args.max_outer,
            "run.outdir": args.outdir,
            "run.seed": args.seed,
        },
        {
            "weight.descriptor": "constant:1.0",
            "weight.m": "",
            "solve.nmax": "4",
            "solve.tolFix": "1e-8",
            "solve.innerTol": "",
            "solve.maxOuter": "200",
            "run.outdir": "solve-out",
            "run.seed": "0",
        },
    )
    resolved["run.subcommand"] = "solve"
    if resolved.get("exponents.p") in (None, ""):
        raise ValidationError("solve needs the exponent vector p")
    e = ExponentData.from_p(_floats_csv(resolved["exponents.p"]))
    grid = _build_grid(resolved)
    g = _parse_weight(resolved["weight.descriptor"], grid)
    m_text = resolved.get("weight.m", "")
    w = WeightSpec(g=g, m=float(m_text) if m_text else None)
    inner_text = resolved.get("solve.innerTol", "")
    outdir = _prepare_outdir(resolved)
    with _diagnostics_on_failure(outdir):
        report = run_ladder(
            int(resolved["solve.nmax"]),
            w,
            e,
            tol_fix=float(resolved["solve.tolFix"]),
            inner_tol=float(inner_text) if inner_text else None,
            max_outer=int(resolved["solve.maxOuter"]),
            seed=int(resolved["run.seed"]),
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


def _run_stability(args) -> int:
    cfg = _read_config(args.config)
    resolved = _merge(
        cfg,
        {
            "exponents.p": args.p,
            "problem.delta": args.delta,
            "problem.gamma": args.gamma,
            "problem.cap": args.cap,
            "problem.weightFloor": args.weight_floor,
            "grid.box": args.box,
            "grid.res": args.res,
            "weight.descriptor": args.weight,
            "stability.u": args.u,
            "stability.variant": args.variant,
            "run.outdir": args.outdir,
            "run.seed": args.seed,
        },
        {
            "problem.weightFloor": "1.0",
            "weight.descriptor": "constant:1.0",
            "stability.variant": "WeightedByG",
            "run.outdir": "stability-out",
            "run.seed": "0",
        },
    )
    resolved["run.subcommand"] = "stability"
    spec = _build_problem(resolved)
    grid = _build_grid(resolved)
    if resolved.get("stability.u") in (None, ""):
        raise ValidationError("stability needs a candidate field (stability.u)")
    u = _parse_field(resolved["stability.u"], grid)
    g = _parse_weight(resolved["weight.descriptor"], grid)
    nl = NonlinearityEval.from_problem(spec)
    variant = StabilityVariant(resolved["stability.variant"])
    outdir = _prepare_outdir(resolved)
    with _diagnostics_on_failure(outdir):
        report = stability_index(
            u, nl, g, spec.exponents.p, variant=variant, seed=int(resolved["run.seed"])
        )
    _write_json(report.to_dict(), outdir / "stability_report.json")
    save_field(report.minimizer, outdir / "minimizer.txt")
    print(f"stability index = {report.gap:.9g} ({'stable' if report.stable else 'unstable'})")
    return 0


def _run_sweep(args) -> int:
    cfg = _read_config(args.config)
    resolved = _merge(
        cfg,
        {
            "exponents.p": args.p,
            "problem.delta": args.delta,
            "problem.gamma": args.gamma,
            "problem.cap": args.cap,
            "problem.weightFloor": args.weight_floor,
            "grid.box": args.box,
            "grid.res": args.res,
            "weight.descriptor": args.weight,
            "sweep.u": args.u,
            "sweep.radii": args.radii,
            "sweep.cconst": args.cconst,
            "run.outdir": args.outdir,
            "run.seed": args.seed,
        },
        {
            "problem.weightFloor": "1.0",
            "weight.descriptor": "constant:1.0",
            "sweep.cconst": "1.0",
            "sweep.radii": "",
            "run.outdir": "sweep-out",
            "run.seed": "0",
        },
    )
    resolved["run.subcommand"] = "sweep"
    spec = _build_problem(resolved)
    grid = _build_grid(resolved)
    if resolved.get("sweep.u") in (None, ""):
        raise ValidationError("sweep needs a candidate field (sweep.u)")
    u = _parse_field(resolved["sweep.u"], grid)
    g = _parse_weight(resolved["weight.descriptor"], grid)
    radii_text = resolved.get("sweep.radii", "")
    radii = _parse_radii(radii_text) if radii_text else None
    outdir = _prepare_outdir(resolved)
    certificate = nonexistence_certificate(
        spec, u, g, c_const=float(resolved["sweep.cconst"]), radii=radii
    )
    _write_json(certificate.to_dict(), outdir / "certificate.json")
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "lhs", "rhs", "ratio"])
        for row in certificate.sweep.rows:
            writer.writerow([f"{row.R:.17g}", f"{row.lhs:.17g}",
                             f"{row.rhs:.17g}", f"{row.ratio:.17g}"])
    print(certificate.conclusion)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_argument("--outdir", default=None)
    sub.add_argument("--seed", default=None)


def _add_problem_flags(sub) -> None:
    sub.add_argument("--p", default=None, help="anisotropy vector, e.g. 2,3,4")
    sub.add_argument("--delta", default=None)
    sub.add_argument("--gamma", default=None)
    sub.add_argument("--cap", default=None, help="upper bound M (exponential problems)")
    sub.add_argument("--weight-floor", default=None)


def _add_grid_flags(sub) -> None:
    sub.add_argument("--box", default=None, help="lo,hi per axis, e.g. 0,1,0,1")
    sub.add_argument("--res", default=None, help="cells per axis, e.g. 64,64")
    sub.add_argument("--weight", default=None,
                     help="constant:c | power:s | file:path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="numerical laboratory for singular anisotropic p-Laplace problems",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    t = subs.add_parser("thresholds", help="exponent thresholds and hypothesis certification")
    _add_common(t)
    _add_problem_flags(t)
    t.set_defaults(func=_run_thresholds)

    tc = subs.add_parser("truncation-check", help="verify the truncation identities")
    _add_common(tc)
    tc.add_argument("--k", default=None)
    tc.add_argument("--alpha", default=None)
    tc.add_argument("--samples", default=None)
    tc.add_argument("--t-max", default=None)
    tc.add_argument("--p", default=None)
    tc.set_defaults(func=_run_truncation_check)

    s = subs.add_parser("solve", help="run the regularization ladder")
    _add_common(s)
    s.add_argument("--p", default=None)
    _add_grid_flags(s)
    s.add_argument("--weight-m", default=None, help="claimed integrability exponent of g")
    s.add_argument("--nmax", default=None)
    s.add_argument("--tol-fix", default=None)
    s.add_argument("--inner-tol", default=None)
    s.add_argument("--max-outer", default=None)
    s.set_defaults(func=_run_solve)

    st = subs.add_parser("stability", help="spectral stability index of a candidate")
    _add_common(st)
    _add_problem_flags(st)
    _add_grid_flags(st)
    st.add_argument("--u", default=None, help="constant:c | file:path")
    st.add_argument("--variant", default=None, choices=[v.value for v in StabilityVariant])
    st.set_defaults(func=_run_stability)

    sw = subs.add_parser("sweep", help="radius-sweep nonexistence certificate")
    _add_common(sw)
    _add_problem_flags(sw)
    _add_grid_flags(sw)
    sw.add_argument("--u", default=None, help="constant:c | file:path")
    sw.add_argument("--radii", default=None, help="r1,r2,... or lo:hi:count (geometric)")
    sw.add_argument("--cconst", default=None)
    sw.set_defaults(func=_run_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc} (residual={exc.residual})", file=sys.stderr)
        return 3
    except HypothesisNotApplicableError as exc:
        print(f"hypothesis not applicable: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
