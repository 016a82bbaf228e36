"""Layer tracing from outside the program.

`Tracer.install()` replaces public functions where they are bound (modules
import by name, so a function is patched in every module that calls it)
with wrappers that record spans and counters; `uninstall()` restores them.
Spans carry name, start, end, parent and op id, are kept in memory, and are
written out when the run ends.  Untraced runs never install anything.

Wrappers only observe: the `solve_inner` / `solve_level` wrappers pass an
`info` dict when the caller gave none (the function only writes to it), and
the `splu` wrapper returns a proxy whose `.solve` calls are counted.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from anisolab.errors import NonConvergenceError

# (module, attribute, span name): every binding site the CLI call paths use
PATCH_SITES = [
    ("anisolab.cli", "main", "cli.main"),
    ("anisolab.cli", "run_ladder", "solver.run_ladder"),
    ("anisolab.solver", "solve_level", "solver.solve_level"),
    ("anisolab.solver", "solve_inner", "solver.solve_inner"),
    ("anisolab.solver", "level_set_decay_fit", "solver.level_set_decay_fit"),
    ("anisolab.solver", "weak_form_gap", "grid.weak_form_gap"),
    ("anisolab.solver", "interior_difference_matrix", "grid.interior_difference_matrix"),
    ("anisolab.stability", "interior_difference_matrix", "grid.interior_difference_matrix"),
    ("anisolab.cli", "stability_index", "stability.stability_index"),
    ("anisolab.cli", "nonexistence_certificate", "stability.nonexistence_certificate"),
    ("anisolab.stability", "radius_sweep", "stability.radius_sweep"),
    ("anisolab.stability", "ball_fraction_weights", "grid.ball_fraction_weights"),
    ("anisolab.cli", "region_memberships", "exponents.region_memberships"),
    ("anisolab.stability", "region_memberships", "exponents.region_memberships"),
    ("anisolab.cli", "verify_properties", "truncations.verify_properties"),
    ("anisolab.cli", "load_field", "grid.load_field"),
    ("anisolab.cli", "save_field", "grid.save_field"),
    ("anisolab.cli", "export_field_csv", "grid.export_field_csv"),
    ("scipy.sparse.linalg", "splu", "scipy.splu"),
]

# position of the `info` parameter of the functions whose wrappers read it
_INFO_POSITION = {"solver.solve_inner": 5, "solver.solve_level": 6}

# bytes of one stored factor entry: float64 value plus int32 row index
_FACTOR_ENTRY_BYTES = 12


class _LUProxy:
    """Stands in for a SuperLU factorization and counts its solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("scipy.splu.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.failures: list[dict] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        after = _AFTER.get(name)
        info_pos = _INFO_POSITION.get(name)

        def wrapper(*args, **kwargs):
            if info_pos is not None and len(args) <= info_pos and kwargs.get("info") is None:
                kwargs["info"] = {}
            with tracer.span(name):
                try:
                    result = fn(*args, **kwargs)
                except NonConvergenceError as exc:
                    tracer.counters[f"{name}.failed"] += 1
                    tracer.failures.append({
                        "op": tracer.op_id, "span": name, "message": str(exc),
                        "residual": exc.residual, "diagnostics": exc.diagnostics,
                    })
                    if name == "stability.stability_index":
                        tracer.counters["stability.stability_index.iters"] += float(
                            exc.diagnostics.get("iterations", 0))
                    raise
            if after is not None:
                result = after(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in PATCH_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for failure in self.failures:
                fh.write(json.dumps({"failure": failure}, default=repr) + "\n")

    def layer_totals(self) -> dict[str, float]:
        """Per span name: calls, inclusive seconds and self seconds, plus the
        counters; also the splu calls made under a `solve_inner` span."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inner_splu = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            if name == "scipy.splu" and self._has_ancestor(i, "solver.solve_inner"):
                inner_splu += 1
        out["solver.solve_inner.splu_calls"] = inner_splu
        for key, value in self.counters.items():
            out[key] += value
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# -- per-function observations made after a successful call -----------------

def _after_splu(tracer: Tracer, lu, args, kwargs):
    tracer.counters["scipy.splu.factor_nnz"] += lu.nnz
    return _LUProxy(lu, tracer)


def _info(args, kwargs, name: str) -> dict:
    pos = _INFO_POSITION[name]
    return args[pos] if len(args) > pos else kwargs["info"]


def _after_solve_inner(tracer: Tracer, result, args, kwargs):
    info = _info(args, kwargs, "solver.solve_inner")
    tracer.counters["solver.solve_inner.newton_iters"] += info["iterations"]
    return result


def _after_solve_level(tracer: Tracer, result, args, kwargs):
    info = _info(args, kwargs, "solver.solve_level")
    tracer.counters["solver.solve_level.outer_iters"] += info["iterations"]
    return result


def _after_stability_index(tracer: Tracer, report, args, kwargs):
    tracer.counters["stability.stability_index.iters"] += report.iterations
    return report


def _after_load_field(tracer: Tracer, field, args, kwargs):
    tracer.counters["grid.load_field.bytes"] += os.path.getsize(args[0])
    return field


def _after_write(tracer: Tracer, result, args, kwargs):
    tracer.counters["grid.write.bytes"] += os.path.getsize(args[1])
    return result


def _after_cli_main(tracer: Tracer, code, args, kwargs):
    if code in (2, 3, 4):
        tracer.counters[f"cli.exit{code}.count"] += 1
    return code


_AFTER = {
    "scipy.splu": _after_splu,
    "solver.solve_inner": _after_solve_inner,
    "solver.solve_level": _after_solve_level,
    "stability.stability_index": _after_stability_index,
    "grid.load_field": _after_load_field,
    "grid.save_field": _after_write,
    "grid.export_field_csv": _after_write,
    "cli.main": _after_cli_main,
}


# per-layer metrics in print order, with units; each reads the per-pass total
# of the same name unless _DERIVED computes it
PER_LAYER = {
    "cli.main.calls": "count", "cli.main.s": "s", "cli.main.self_s": "s",
    "cli.exit2.count": "count", "cli.exit3.count": "count", "cli.exit4.count": "count",
    "solver.run_ladder.s": "s", "solver.run_ladder.self_s": "s",
    "solver.solve_level.calls": "count", "solver.solve_level.s": "s",
    "solver.solve_level.outer_iters": "count",
    "solver.solve_inner.calls": "count", "solver.solve_inner.s": "s",
    "solver.solve_inner.self_s": "s", "solver.solve_inner.newton_iters": "count",
    "solver.newton_iters_per_inner_solve": "ratio",
    "solver.factorizations_per_inner_solve": "ratio",
    "solver.level_set_decay_fit.s": "s",
    "scipy.splu.calls": "count", "scipy.splu.s": "s", "scipy.splu.op_share": "ratio",
    "scipy.splu.factor_nnz": "count", "scipy.splu.factor_mb": "MB",
    "scipy.splu.solve_calls": "count", "scipy.splu.solve_s": "s",
    "stability.stability_index.calls": "count", "stability.stability_index.s": "s",
    "stability.stability_index.self_s": "s", "stability.stability_index.iters": "count",
    "stability.stability_index.failed": "count",
    "stability.nonexistence_certificate.s": "s",
    "stability.radius_sweep.calls": "count", "stability.radius_sweep.s": "s",
    "grid.load_field.s": "s", "grid.load_field.bytes": "B", "grid.save_field.s": "s",
    "grid.export_field_csv.s": "s", "grid.write.bytes": "B",
    "grid.interior_difference_matrix.calls": "count", "grid.interior_difference_matrix.s": "s",
    "grid.weak_form_gap.calls": "count", "grid.weak_form_gap.s": "s",
    "grid.ball_fraction_weights.calls": "count", "grid.ball_fraction_weights.s": "s",
    "exponents.region_memberships.calls": "count", "exponents.region_memberships.s": "s",
    "truncations.verify_properties.calls": "count", "truncations.verify_properties.s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


_DERIVED = {
    "solver.newton_iters_per_inner_solve": lambda t: _ratio(
        t("solver.solve_inner.newton_iters"), t("solver.solve_inner.calls")),
    "solver.factorizations_per_inner_solve": lambda t: _ratio(
        t("solver.solve_inner.splu_calls"), t("solver.solve_inner.calls")),
    "scipy.splu.op_share": lambda t: _ratio(t("scipy.splu.s"), t("cli.main.s")),
    "scipy.splu.factor_mb": lambda t: t("scipy.splu.factor_nnz") * _FACTOR_ENTRY_BYTES / 1e6,
    "scipy.splu.solve_calls": lambda t: t("scipy.splu.solve.calls"),
    "scipy.splu.solve_s": lambda t: t("scipy.splu.solve.s"),
}


def per_layer_metrics(totals: dict[str, float], passes: int, overhead_s: float,
                      speed_factor: float) -> dict[str, tuple[float, str]]:
    """PER_LAYER per study pass, times scaled by `speed_factor`; a layer that
    never ran reads 0.  `overhead_s` comes in scaled already."""
    def per_pass(key: str) -> float:
        return totals.get(key, 0.0) / passes

    out = {}
    for name, unit in PER_LAYER.items():
        value = _DERIVED[name](per_pass) if name in _DERIVED else per_pass(name)
        out[name] = (value * speed_factor if unit == "s" else value, unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
