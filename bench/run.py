"""anisolab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout; the program is imported from `src/` of
that checkout and nowhere else.

Loop.  One process per workload, closed loop with one caller: an op is one
in-process call `anisolab.cli.main(argv)` on seed-generated inputs, with
stdout/stderr captured; ops run back to back, with no extra threads or
processes, and BLAS is capped at one thread.  A study pass runs every case
of the workload once, in a fixed order.  A run makes max(2, ceil(S / nominal
pass time)) passes, so that every case has two samples at least, with the
nominal pass time of each workload measured at the commit that introduced
this benchmark on a 2-core Xeon (KVM guest), Python 3.11, numpy 2.4, scipy
1.17, in its fast state (see below).  There a run measures about S seconds
(ladder-3d, at 10.7 s a pass, longer); on every commit it does the same
work, so sample counts and the op at each percentile stay comparable.
Outputs are checked after the timed span ends.

Warm-up and caches.  Before timing, one tiny op per subcommand the workload
uses runs untimed (on a 4- to 8-cell grid) so that imports and lazy library
set-up are done; it counts in `setup_s`.  No full-size warm-up op runs: the
grid-keyed module caches of the program (`_LINEAR_LU_CACHE` in
`anisolab.solver`, `_MATRIX_CACHE` in `anisolab.grid`) are filled by the
first timed op on each grid and persist across ops within the process.

Host speed.  A 2-core Xeon KVM guest on a shared host switches between a
fast and a slow state that lasts tens of seconds; in the slow state the
same ops on the same inputs take 1.3 to 1.8 times as long, which gave
run-to-run spreads (IQR / median) of 0.2 to 0.5 there.  So every time
the benchmark reports is scaled to the fast state: a reference kernel of
the benchmark's own (a SuperLU factorization of a 14^3 Laplacian and 20
solves, about 45 ms; it runs no program code) is timed about 24 times,
between ops spread over the timed span, and each time is multiplied by
REF_NOMINAL_S / median(reference time).  The raw times and the factor are
printed in the run record.

End-to-end metrics (`--trace 0`):
  setup_s      process start -> first timed op (imports, seeded inputs,
               snapshots written, warm-up); median of this process and
               two set-up-only processes run after the timed span
  wall_s       time to finish the study: the sum over the workload's cases
               of each case's median op time over the passes
  op_p50_s     median per-op wall time
  op_tail_s    per-op time at the highest percentile with at least ten ops
               beyond it; the largest op time when the run has fewer than
               eleven ops (the percentile and sample count are printed)
  ok_frac      ops that exit 0 and pass their output check / ops attempted,
               i.e. one minus the failed fraction
  peak_rss_mb  ru_maxrss of the workload process

An op that exits 3 on a case marked as today's known non-convergence is
not counted as failed in the result's `failed` field (exit 3 is the CLI's
documented answer to non-convergence), but it is not ok either, so it
lowers `ok_frac`.  Every other non-zero exit, traceback or failed output
check counts as failed and makes `correct` false.

`--trace 1` runs the workload untraced in a child process for S/2 seconds,
then traced in this process for S/2 seconds, and prints the per-layer
metrics of `bench/tracing.py` per study pass; `trace.overhead_s` is the
traced minus the untraced `wall_s`.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "out"
WORKLOADS = ("ladder-3d", "ladder-2d", "stability", "certify")
# seconds per study pass: the median scaled wall_s of ten calibration runs
NOMINAL_PASS_S = {"ladder-3d": 10.7, "ladder-2d": 2.4, "stability": 3.5, "certify": 1.05}
SETUP_PROBES = 2
# reference-kernel time in the fast state of the calibration host, and the
# number of reference samples spread over a timed span
REF_NOMINAL_S = 0.045
REF_SAMPLES = 24
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs or import the program."""


@dataclass
class Op:
    index: int
    case: object
    pass_no: int
    outdir: Path
    code: int
    seconds: float
    stderr: str
    verdict: str = "unchecked"  # ok | known-nonconvergence | failed
    reason: str = ""


def _import_program():
    """Import anisolab from this checkout's src/ only."""
    if not (SRC / "anisolab" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'anisolab'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import anisolab
    if Path(anisolab.__file__).resolve().parent != (SRC / "anisolab").resolve():
        raise SetupError(f"anisolab imported from {anisolab.__file__}, not {SRC}")


def _call_cli(argv: list[str], outdir: Path) -> tuple[int, float, str]:
    import anisolab.cli as cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--outdir", str(outdir)])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is the CLI's exit 1 with a traceback
            code = 1
            traceback.print_exc()
    return code, time.perf_counter() - t0, err.getvalue()


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _passes(name: str, seconds: float) -> int:
    return max(2, math.ceil(seconds / NOMINAL_PASS_S[name]))


def _set_up(name: str, seed: int, seconds: float, workdir: Path):
    import numpy as np
    from workloads import BUILDERS
    workdir.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[name](np.random.default_rng(seed), workdir, _passes(name, seconds))
    for i, argv in enumerate(workload.warmup):
        code, _, err = _call_cli(argv, workdir / f"warmup-{i}")
        if code != 0:
            raise SetupError(f"warm-up op {argv[0]} exited {code}: {_last_line(err)}")
    return workload


class HostSpeed:
    """Times the reference kernel; `factor` scales a time measured in this
    process to the fast state of the calibration host."""

    def __init__(self):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self._splu = spla.splu  # bound before any tracer patches it
        n = 14
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._matrix = (sp.kron(sp.kron(lap, eye), eye) + sp.kron(sp.kron(eye, lap), eye)
                        + sp.kron(sp.kron(eye, eye), lap)).tocsc()
        self.samples: list[float] = []

    def sample(self, reps: int) -> None:
        import numpy as np
        for _ in range(reps):
            t0 = time.perf_counter()
            lu = self._splu(self._matrix)
            b = np.ones(self._matrix.shape[0])
            for _ in range(20):
                b = lu.solve(b)
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)


def _timed_loop(workload, workdir: Path, speed: HostSpeed, tracer=None) -> list[Op]:
    ops: list[Op] = []
    # about REF_SAMPLES reference samples, in as many places as there are ops
    n_ops = sum(len(cases) for cases in workload.passes)
    every = math.ceil(n_ops / REF_SAMPLES)
    reps = max(1, round(REF_SAMPLES / (math.ceil(n_ops / every) + 1)))
    for pass_no, cases in enumerate(workload.passes):
        for case in cases:
            index = len(ops)
            if index % every == 0:
                speed.sample(reps)
            outdir = workdir / f"op-{index}"
            if tracer is not None:
                tracer.op_id = index
            code, dt, err = _call_cli(case.argv, outdir)
            ops.append(Op(index, case, pass_no, outdir, code, dt, err))
    speed.sample(reps)
    return ops


def _check(ops: list[Op]) -> None:
    from workloads import OracleFailure
    for op in ops:
        if op.code == 0:
            try:
                op.case.check(op.outdir)
                op.verdict = "ok"
            except OracleFailure as exc:
                op.verdict, op.reason = "failed", str(exc)
            except Exception as exc:  # unreadable or malformed outputs fail the check too
                op.verdict, op.reason = "failed", f"{type(exc).__name__}: {exc}"
        elif (op.code == 3 and op.case.known_nonconvergence
              and "non-convergence" in op.stderr):
            op.verdict, op.reason = "known-nonconvergence", _last_line(op.stderr)
        else:
            op.verdict, op.reason = "failed", f"exit {op.code}: {_last_line(op.stderr)}"


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def _case_medians(ops: list[Op]) -> dict[str, float]:
    by_case: dict[str, list[float]] = {}
    for op in ops:
        by_case.setdefault(op.case.name, []).append(op.seconds)
    return {name: statistics.median(ts) for name, ts in by_case.items()}


def _study_wall(ops: list[Op]) -> float:
    return sum(_case_medians(ops).values())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_record(args, extra: dict) -> dict:
    import numpy
    import scipy
    from workloads import WHY
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "loop": "closed, one caller, ops back to back in one process",
        "warmup": "one untimed tiny op per subcommand, counted in setup_s; "
                  "no full-size warm-up op",
        "caches": "grid-keyed _LINEAR_LU_CACHE and _MATRIX_CACHE persist across ops "
                  "in the process; the first timed op on each grid fills them",
    }
    record.update(extra)
    return record


def _spawn_self(workload: str, seed: int, extra: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed)] + extra
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


def _child_result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise SetupError(f"{what} exited {proc.returncode}: {_last_line(proc.stderr)}")
    return json.loads(_last_line(proc.stdout))


def _measure(args, workdir: Path, seconds: float, tracer=None):
    workload = _set_up(args.workload, args.seed, seconds, workdir)
    setup_s = time.perf_counter() - T_START
    speed = HostSpeed()
    if tracer is not None:
        tracer.install()
    try:
        ops = _timed_loop(workload, workdir, speed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    _check(ops)
    return ops, setup_s, speed


def _report_ops(ops: list[Op]) -> dict:
    for op in ops:
        if op.verdict != "ok":
            print(f"op {op.index} {op.case.name} pass {op.pass_no}: {op.verdict} "
                  f"(exit {op.code}, {op.seconds:.3f} s) {op.reason}")
    verdicts: dict[str, dict[str, int]] = {}
    for op in ops:
        per_case = verdicts.setdefault(op.case.name, {})
        per_case[op.verdict] = per_case.get(op.verdict, 0) + 1
    for case, counts in verdicts.items():
        print(f"oracle {case}: {json.dumps(counts, sort_keys=True)}")
    return verdicts


def _result(ops: list[Op], metrics: dict[str, tuple[float, str]]) -> dict:
    failed = sum(op.verdict == "failed" for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_untraced(args) -> dict:
    workdir = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops, own_setup, speed = _measure(args, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [own_setup]
    for _ in range(args.setup_probes):
        probe = _spawn_self(args.workload, args.seed,
                            ["--seconds", str(args.seconds), "--setup-only"])
        setups.append(_child_result(probe, "set-up probe")["setup_s"])
    times = [op.seconds for op in ops]
    passes = ops[-1].pass_no + 1
    tail, tail_pct = _tail(times)
    n_ok = sum(op.verdict == "ok" for op in ops)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": _study_wall(ops),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
    }
    metrics = {name: (value * speed.factor, "s") for name, value in raw.items()}
    metrics["ok_frac"] = (n_ok / len(ops), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    verdicts = _report_ops(ops)
    record = _run_record(args, {
        "samples": {"setup_s": len(setups), "wall_s": passes, "op_p50_s": len(times),
                    "op_tail_s": len(times), "ok_frac": len(times), "peak_rss_mb": 1,
                    "host_speed_factor": len(speed.samples)},
        "op_tail_percentile": round(tail_pct, 2),
        "host_speed_factor": speed.factor,
        "reference_samples_s": speed.samples,
        "raw_s": raw,
        "setup_samples_s": setups,
        "passes": passes,
        "ops_per_pass": len(ops) // passes,
        "case_p50_s": _case_medians(ops),
        "op_s": [[op.case.name, op.pass_no, op.seconds] for op in ops],
        "verdicts": verdicts,
    })
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return _result(ops, metrics)


def run_traced(args) -> dict:
    from tracing import Tracer, per_layer_metrics
    half = max(args.seconds / 2.0, 0.5)
    plain = _child_result(
        _spawn_self(args.workload, args.seed,
                    ["--seconds", str(half), "--trace", "0", "--setup-probes", "0"]),
        "untraced run")
    tracer = Tracer()
    workdir = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops, _, speed = _measure(args, workdir, half, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
    tracer.write(spans_path)
    passes = ops[-1].pass_no + 1
    traced_wall = _study_wall(ops) * speed.factor
    overhead = traced_wall - plain["metrics"]["wall_s"]["value"]
    metrics = per_layer_metrics(tracer.layer_totals(), passes, overhead, speed.factor)
    verdicts = _report_ops(ops)
    for failure in tracer.failures:
        print("nonconvergence " + json.dumps(failure, sort_keys=True, default=repr))
    record = _run_record(args, {
        "passes": passes, "ops": len(ops), "per": "study pass",
        "host_speed_factor": speed.factor,
        "untraced_wall_s": plain["metrics"]["wall_s"]["value"],
        "traced_wall_s": traced_wall,
        "unpatched": tracer.missing, "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans), "verdicts": verdicts,
    })
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = _result(ops, metrics)
    if plain["failed"]:
        result["correct"] = False
    return result


def run_all(args) -> dict:
    results = {}
    for name in WORKLOADS:
        proc = _spawn_self(name, args.seed,
                           ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} exited {proc.returncode}: "
                             f"{_last_line(proc.stderr)}")
        results[name] = json.loads(_last_line(proc.stdout))
    metric_names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<40}" + "".join(f"{n:>14}" for n in WORKLOADS))
    for m in metric_names:
        cells = "".join(f"{results[n]['metrics'][m]['value']:>14.6g}" for n in WORKLOADS)
        print(f"{m + ' [' + results[WORKLOADS[0]]['metrics'][m]['unit'] + ']':<40}{cells}")
    print(f"{'correct':<40}" + "".join(f"{str(results[n]['correct']):>14}" for n in WORKLOADS))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_program()
        if args.workload == "all":
            result = run_all(args)
        elif args.setup_only:
            workdir = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
            try:
                _set_up(args.workload, args.seed, args.seconds, workdir)
                result = {"setup_s": time.perf_counter() - T_START}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        elif args.trace:
            result = run_traced(args)
        else:
            result = run_untraced(args)
    except (SetupError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
