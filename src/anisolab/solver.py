"""Existence-side machinery: inner variational solves, the regularized
fixed-point map, the level ladder with its provable properties, and the
level-set extinction calculator.

The inner problem minimizes the strictly convex energy

    E(u) = sum_i (1/p_i) int |D_i u|^{p_i}  -  int rhs * u

over zero-boundary fields.  The level-n problem Op(u) = g_n exp(1/(u^+ + 1/n))
is the Euler-Lagrange equation of the same energy with a convex nonlinear
source.  Both are minimized by one damped Newton-Krylov routine
(`_newton_krylov`), which fills one record per solve, the caller's `info`:
its step solves the floored Newton system to the relative residual
eta = min(1e-2, max(sup|F|, tol/(2 ||F||_2))) of the gradient F
(superlinear, without oversolving the last step), and it backtracks on
||F||_2 (the inexact-Newton test of Eisenstat & Walker 1994).  The
gradient is `grid.p_flux`; each Newton system is assembled from its
stencil (`grid.stencil_rows`) and solved without factorizations: the type-I
discrete sine transform diagonalizes the zero-Dirichlet stiffness
sum_i c_i K_i^T K_i (plus a constant shift) exactly, so it preconditions
conjugate gradients on the assembled matrix in 2D and 3D (exactly, in one
iteration, when all p_i = 2), scaled on both sides by the square root of
its diagonal ratio to the Jacobian's.  The CG loop is the module's own
(`_newton_direction`), the recurrence of `scipy.sparse.linalg.cg`
operation for operation, which the tests hold it to bit for bit.  In 1D
the tridiagonal Jacobian is solved exactly as a band.  The transform is a
dense sine-matrix product on axes of at most 96 interior nodes and
pocketfft on longer ones (`grid.dst_solver`), an exact inverse either way.
A gradient tolerance below the smallest normal float is refused
(`_tolerance`).

Each level solution u is certified to lie within tol_fix of A(u), the
fixed-point map of the paper (`apply_A`: one inner solve with right-hand
side g_n exp(1/(|v| + 1/n))): by a discrete comparison bound that costs
one operator evaluation when some p_k = 2, else by solving A(u).  The
ladder runs levels n = 1..n_max and records monotonicity defects,
interior minima, and sup norms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .exponents import ExponentData, integrability_thresholds
from .grid import (
    GridField,
    Grid,
    cutoff_profile,
    dst_solver,
    extract_interior,
    embed_interior,
    face_integral,
    axis_diff,
    level_set_measure,
    p_flux,
    report_dict,
    residual_integral,
    stencil_rows,
    stiffness,
    weighted_integrate,
)

# largest relative residual (forcing) at which the preconditioned CG solve of
# a Newton system stops; the Newton loop, not the linear solve, decides
# convergence
_CG_RTOL = 1e-2
# random bumps the final ladder level is tested against in its weak form
_N_TEST_FUNCTIONS = 20


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass
class WeightSpec:
    """Nonnegative weight g with its claimed integrability exponent m.

    `m` is metadata: it selects which boundedness threshold the ladder
    report compares against.  A weight with zero mass is admitted: it makes
    every level solution vanish.
    """

    g: GridField
    m: float | None = None

    def __post_init__(self):
        if self.m is not None and not 0 < self.m < math.inf:
            raise ValidationError(f"integrability exponent m must be finite and > 0, got {self.m}")
        if not np.all((0 <= self.g.values) & (self.g.values < np.inf)):
            raise ValidationError("weight g must be finite and nonnegative")


@dataclass
class RegularizationLevel:
    """Level n of the regularization: weight min(g, n), singularity shift 1/n."""

    n: int
    g_n: GridField
    shift: float

    @classmethod
    def from_weight(cls, n: int, w: WeightSpec) -> "RegularizationLevel":
        if n < 1:
            raise ValidationError("level index n must be >= 1")
        capped = np.minimum(w.g.values, float(n))
        return cls(n=n, g_n=w.g.like(capped), shift=1.0 / n)

    def rhs(self, v: GridField) -> GridField:
        """The right-hand side g_n exp(1/(|v| + 1/n)) of the level map at v,
        bounded by g_n e^n."""
        return v.like(self.g_n.values * np.exp(1.0 / (np.abs(v.values) + self.shift)))


# ---------------------------------------------------------------------------
# inner variational problem
# ---------------------------------------------------------------------------

def inner_energy(u: GridField, rhs: GridField, e: ExponentData) -> float:
    """E(u) = sum_i (1/p_i) int |D_i u|^{p_i} - int rhs * u."""
    grid = u.grid
    total = 0.0
    for axis, p_i in enumerate(e.p):
        d = axis_diff(u, axis)
        total += face_integral(np.abs(d) ** p_i, grid, axis) / p_i
    return total - weighted_integrate(rhs, u)


def _flux_weights(faces, p) -> list[np.ndarray] | None:
    """Linearized flux weights (p_i - 1)|D_i u|^{p_i - 2} from the face
    differences D_i u, floored to keep the Newton system positive definite
    where a p_i > 2 flux degenerates; the floor only shapes the direction.
    None when a weight overflows a float: the largest one is the scalar
    (p_i - 1) max(sup|D_i u|, floor)^{p_i - 2}, as the power is nondecreasing."""
    weights = []
    for f, p_i in zip(faces, p):
        scale = float(np.max(np.abs(f))) if f.size else 0.0
        floor = 1e-8 * (1.0 + scale)
        try:
            largest = (p_i - 1.0) * max(scale, floor) ** (p_i - 2.0)
        except OverflowError:  # a float power raises where numpy's gives inf
            return None
        if not math.isfinite(largest):
            return None
        weights.append((p_i - 1.0) * np.maximum(np.abs(f), floor) ** (p_i - 2.0))
    return weights


def _newton_direction(
    grid: Grid, weights, b, diag=None, rtol: float = _CG_RTOL
) -> tuple[np.ndarray, int]:
    """Solve (sum_i K_i^T diag(w_i) K_i + diag(diag)) d = b for full face
    weight arrays w_i; returns d and the number of CG iterations (0 for the
    direct solve).  `diag` is a nonnegative diagonal, zero when omitted.

    In 1D the system is solved exactly as a band: the `stencil_rows` main
    and superdiagonal rows, a lone main row on a one-node grid.  In 2D and
    3D an in-house preconditioned CG loop runs on the `stiffness`
    matrix to relative residual `rtol`, preconditioned by its diagonally
    scaled DST inverse.  It performs the recurrence of
    `scipy.sparse.linalg.cg` (scipy 1.17) operation for operation, its
    reference in the tests, without a LinearOperator: from x = 0 and
    r = b, it stops once ||r||_2 < rtol ||b||_2, or after 10 n iterations,
    and returns (b, 0) for b = 0.  CG started from zero keeps g.d < 0 at
    every iterate (g = -b), so an inexact or unconverged step is still a
    descent direction and no convergence status is kept; the Newton loop's
    residual test decides convergence.
    """
    if grid.dim == 1:
        import scipy.linalg
        return scipy.linalg.solveh_banded(stencil_rows(grid, weights, diag)[0][1::-1], b), 0
    matrix, precond = stiffness(grid, weights, diag)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0:
        return b, 0
    atol = rtol * b_norm
    x, r = np.zeros(b.size), b.copy()
    p = rho_prev = None
    for iteration in range(10 * b.size):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = precond(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * b.size


def _nonconvergence(message: str, residual: float, record: dict) -> NonConvergenceError:
    """The error of a failed solve, carrying its whole history of gradient
    residuals and Newton step lengths."""
    return NonConvergenceError(
        message,
        residual=residual,
        diagnostics={"residuals": record["residuals"], "steps": record["steps"]},
    )


def _tolerance(name: str, tol: float | None, p) -> float:
    """The Newton tolerance `tol`, or when None its default for exponents p:
    1e-10 when all p_i = 2, else 1e-8.  A `tol` that is not finite and > 0
    (a NaN passes every `gap > tol` test), or that is subnormal, is refused."""
    if tol is None:
        return 1e-10 if all(p_i == 2.0 for p_i in p) else 1e-8
    if not 0 < tol < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {tol}")
    if tol < sys.float_info.min:
        raise ValidationError(f"{name} = {tol} is below the smallest normal float "
                              f"{sys.float_info.min}: a subnormal tolerance has lost precision")
    return tol


def _gradient(grid: Grid, p, x, g) -> tuple[np.ndarray, list]:
    """Op(x) - g on interior vectors, and the face differences D_i x."""
    op, diffs = p_flux(embed_interior(grid, x).values, grid, p)
    return op.ravel() - g, diffs


def _newton_krylov(grid: Grid, e: ExponentData, x, source, tol: float, max_steps: int,
                   what: str, record: dict, energy=None) -> np.ndarray:
    """Minimize sum_i (1/p_i) |K_i x|^{p_i} - G(x) over interior vectors x,
    for a convex G given by `source(x) = (G'(x), -G''(x))`: the gradient of
    G and its nonnegative curvature diagonal (None when G is linear).

    The start is `x`, else 0 when all p_i = 2 or G'(0) = 0, else the linear
    (p = 2) solve with right-hand side G'(0), since a p_i > 2 flux
    degenerates at zero gradient.  Each damped Newton step solves the
    floored Jacobian system (`_flux_weights`, `_newton_direction`) to the
    relative residual eta = min(1e-2, max(sup|F|, tol / (2 ||F||_2))) of the
    current gradient F.  The term sup|F| makes Newton converge
    superlinearly; the floor keeps the last step from oversolving, since a
    linear residual below tol/2 is all it needs (the safeguard of Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 1995, ch. 6).  A
    step t of the direction d is accepted once
    ||F(x + t d)||_2 <= (1 - 1e-4 t (1 - eta)) ||F(x)||_2, the inexact-Newton
    backtracking test of Eisenstat & Walker (1994).  The loop stops when
    sup|F| <= tol, a tolerance `_tolerance` has resolved.

    Returns x; `record` receives, as the solve goes, the gradient sup norm
    `residuals` at each check, their number `iterations`, the `steps`, the
    CG `linear_iterations` per step (0 in 1D) and, when `energy` is given,
    the `energies` energy(x) at each check.  A failed line search, or more
    than `max_steps` steps, raises a NonConvergenceError that names the
    solve by `what`, as do a start gradient that is not finite, a flux
    weight of a Newton system that overflows a float and a 1D Newton band
    that is singular in floats.  Points are evaluated with numpy's overflow
    warnings off: a trial point whose ||F||_2 is inf or NaN fails the
    backtracking test.
    A `max_steps` below 1 is a ValidationError.
    """
    grid.check_dim(e.p)
    p = e.p
    if not max_steps >= 1:
        raise ValidationError(f"the {what} needs a Newton-step cap >= 1, got {max_steps}")

    def evaluate(x):
        """F(x), ||F(x)||_2, the differences D_i x and the diagonal -G''(x);
        an overflow leaves the norm inf or NaN, which no test accepts."""
        with np.errstate(over="ignore", invalid="ignore"):
            g, diag = source(x)
            f, diffs = _gradient(grid, p, x, g)
            return f, float(np.linalg.norm(f)), diffs, diag

    record.update(residuals=[], steps=[], linear_iterations=[])
    if energy is not None:
        record["energies"] = []
    if x is None:
        with np.errstate(over="ignore", invalid="ignore"):
            b = source(np.zeros(math.prod(grid.interior_shape())))[0]
            linear = all(p_i == 2.0 for p_i in p) or not np.any(b)
            x = np.zeros(b.size) if linear else dst_solver(grid, [1.0] * grid.dim)(b)
    f, norm, diffs, diag = evaluate(x)
    if not math.isfinite(norm):
        raise _nonconvergence(f"the start gradient of the {what} overflows a float",
                              float(np.max(np.abs(f))), record)
    while True:
        res = float(np.max(np.abs(f)))
        record["residuals"].append(res)
        record["iterations"] = len(record["residuals"])
        if energy is not None:
            record["energies"].append(energy(x))
        if res <= tol:
            return x
        if len(record["steps"]) >= max_steps:
            raise _nonconvergence(
                f"{what} did not reach tol={tol} in {max_steps} Newton steps", res, record
            )
        eta = min(_CG_RTOL, max(res, 0.5 * tol / norm))
        weights = _flux_weights(diffs, p)
        if weights is None:
            raise _nonconvergence(f"a flux weight of the {what}'s Newton system overflows "
                                  "a float", res, record)
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                d, its = _newton_direction(grid, weights, -f, diag=diag, rtol=eta)
        except np.linalg.LinAlgError:  # the 1D band's Cholesky factor met a zero pivot
            raise _nonconvergence(f"the {what}'s Newton system is singular in floats",
                                  res, record) from None
        record["linear_iterations"].append(its)
        t = 1.0
        while t >= 1e-14:
            x_new = x + t * d
            f_new, norm_new, diffs_new, diag_new = evaluate(x_new)
            if norm_new <= (1.0 - 1e-4 * t * (1.0 - eta)) * norm:
                break
            t *= 0.5
        else:
            raise _nonconvergence(f"line search failed in the {what}", res, record)
        record["steps"].append(t)
        x, f, diag, diffs, norm = x_new, f_new, diag_new, diffs_new, norm_new


def solve_inner(
    rhs: GridField,
    e: ExponentData,
    tol: float | None = None,
    max_iter: int = 10_000,
    x0: GridField | None = None,
    info: dict | None = None,
) -> GridField:
    """Minimize the inner energy; returns the zero-boundary field whose
    energy-gradient sup norm is <= tol.

    One `_newton_krylov` minimization with the linear source G(x) = rhs.x,
    started from x0 (else 0 for all p_i = 2 or a zero rhs, else the linear
    solve), to tol (default 1e-10 for all p_i = 2, 1e-8 otherwise) in at
    most `max_iter` Newton steps.  For all p_i = 2 the DST preconditioner is
    the exact inverse, so CG takes one iteration per step in 2D and 3D.

    `info`, when given, receives the solve's record (`_newton_krylov`):
    `residuals`, `iterations`, `steps`, `linear_iterations`, and as
    `energies` the `inner_energy` of each checked iterate, evaluated only
    then.  A failed solve leaves its partial record there.
    """
    grid = rhs.grid
    tol = _tolerance("the inner solve tolerance", tol, e.p)
    rhs_int = extract_interior(rhs)
    x = _newton_krylov(
        grid, e, None if x0 is None else extract_interior(x0),
        lambda x: (rhs_int, None), tol, max_iter, "inner solve", {} if info is None else info,
        energy=None if info is None else lambda x: inner_energy(embed_interior(grid, x), rhs, e),
    )
    return embed_interior(grid, x)


# ---------------------------------------------------------------------------
# regularized fixed-point map and level solve
# ---------------------------------------------------------------------------

def apply_A(
    v: GridField,
    level: RegularizationLevel,
    e: ExponentData,
    tol: float | None = None,
) -> GridField:
    """One application of the level map: solve with right-hand side
    `level.rhs(v)`."""
    return solve_inner(level.rhs(v), e, tol=tol)


def solve_level(
    level: RegularizationLevel,
    e: ExponentData,
    tol_fix: float = 1e-8,
    max_outer: int = 200,
    inner_tol: float | None = None,
    u0: GridField | None = None,
    info: dict | None = None,
) -> GridField:
    """Solve the level equation Op(u) = g_n exp(1/(u^+ + 1/n)) and certify
    that u is within tol_fix of A(u) in sup norm; returns u.

    The equation is the Euler-Lagrange equation of the convex energy

        sum_i (1/p_i) int |D_i u|^{p_i}  -  int g_n G(u),   G' = exp(1/(u^+ + s)),

    with s = 1/n, minimized by one `_newton_krylov` solve: the same start
    rule as `solve_inner` (u0, else 0 for all p_i = 2 or a zero weight, else
    the linear solve), to inner_tol (default 1e-10 for all p_i = 2, 1e-8
    otherwise; tightened below for the bound) in at most `max_outer` Newton
    steps.  Its Newton system adds
    the nonnegative diagonal g_n e^{1/(u+s)}/(u+s)^2 on nodes with u > 0 to
    the inner one.

    The energy uses u^+ where the map A uses |u|, so that it stays convex.
    The level solution is nonnegative (its right-hand side is), and there
    u^+ = |u|: the fixed points of A are the same.

    The certificate bounds the gap sup|A(u) - u|, where A(u) is the exact
    discrete solution of Op(w) = b(u) = g_n exp(1/(|u| + s)).

    - When some axis k has p_k = 2, the gap is bounded without a second
      solve.  Let F = Op(u) - b(u), A's own inner gradient at u.  Then
      Op(u) - Op(A(u)) = J (u - A(u)) = F with J = sum_i K_i^T diag(m_i) K_i,
      where m_i >= 0 is the secant slope of t -> |t|^{p_i - 2} t between
      K_i u and K_i A(u), and m_k = 1.  So J is a symmetric positive
      definite Z-matrix, hence an M-matrix, and J^{-1} >= 0 entrywise.  The
      discrete torsion v = x_k (L_k - x_k)/2 of axis k (box length L_k)
      satisfies J v >= 1, so |u - A(u)| = |J^{-1} F| <= sup|F| J^{-1} 1
      <= sup|F| v <= sup|F| L_k^2 / 8, with the smallest L_k over the
      p_k = 2 axes.  The Newton loop stops at
      sup|F| <= min(inner_tol, 8 tol_fix / L_k^2) so that the bound
      certifies; on the unit box that changes nothing.
    - Otherwise A(u) is solved cold (from the linear start, not from u) and
      the gap is measured.

    The gap must be <= tol_fix.  `info`, when given, receives the level
    solve's record (`_newton_krylov`, without `energies`), then the gap as
    `residual` and the `certificate` used ("bound" or "solve").  A
    NonConvergenceError carries the residuals and step lengths in its
    diagnostics: those of the level solve, or of the certificate's inner
    solve when that one fails.  A tol_fix, inner_tol or 8 tol_fix / L_k^2
    that `_tolerance` refuses is a ValidationError.
    """
    grid = level.g_n.grid
    g_n = extract_interior(level.g_n)
    s = level.shift
    _tolerance("tol_fix", tol_fix, e.p)
    tol = _tolerance("inner_tol", inner_tol, e.p)
    # sup of the discrete torsion v of the shortest p_k = 2 axis, if any (a
    # product, which overflows to inf where a power raises)
    side = min((hi - lo for (lo, hi), p_k in zip(grid.box, e.p) if p_k == 2.0), default=None)
    v_sup = None if side is None else side * side / 8.0
    if v_sup is not None:
        tol = _tolerance(f"8 tol_fix / L^2 (tol_fix = {tol_fix}, p = 2 box side L = {side})",
                         min(tol, tol_fix / v_sup), e.p)

    def source(x):
        shifted = np.maximum(x, 0.0) + s
        g = g_n * np.exp(1.0 / shifted)
        return g, np.where(x > 0.0, g / shifted ** 2, 0.0)

    record = {} if info is None else info
    x = _newton_krylov(
        grid, e, None if u0 is None else extract_interior(u0),
        source, tol, max_outer, "level solve", record,
    )
    u = embed_interior(grid, x)
    if v_sup is not None:
        f = _gradient(grid, e.p, x, extract_interior(level.rhs(u)))[0]
        gap, certificate = float(np.max(np.abs(f))) * v_sup, "bound"
    else:
        au = apply_A(u, level, e, tol=inner_tol)
        gap, certificate = float(np.max(np.abs(au.values - u.values))), "solve"
    if gap > tol_fix:
        raise _nonconvergence(
            f"certified level gap {gap:.3e} exceeds tol_fix={tol_fix}", gap, record
        )
    record.update(residual=gap, certificate=certificate)
    return u


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    n: int
    residual: float
    sup_norm: float
    interior_min: float
    mono_defect: float
    outer_iterations: int
    certificate: str


@dataclass
class LevelSetFit:
    """Domination fit of the decay recursion measure(h) <= C*measure(k)^beta/(h-k)^r
    on the superlevel-set measures of a field, with r held fixed.

    The slope beta comes from least squares in log space; the constant C is
    then raised until the bound dominates every measured pair.
    `residual_halfwidth` is the half-range of the log-space residuals around
    the least-squares line (the fit-quality metric)."""

    levels: tuple[float, ...]
    measures: tuple[float, ...]
    r: float
    beta: float
    log_c: float
    residual_halfwidth: float


@dataclass
class LadderReport:
    levels: list[LevelRecord]
    uniform_bound_expected: bool | None
    sup_increment_ratio: float | None
    weak_residual_level_max: float
    weak_residual_limit_max: float
    levelset_fit: LevelSetFit | None
    epsilon_used: float
    epsilon_support_margin: float
    epsilon_energy: float
    final_field: GridField

    def to_dict(self) -> dict:
        return report_dict(self, final_field=None)


def _centered_half_box_mask(grid: Grid) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    for axis, ((lo, hi), ax) in enumerate(zip(grid.box, grid.axes())):
        span = hi - lo
        ok = (ax >= lo + 0.25 * span - 1e-12) & (ax <= hi - 0.25 * span + 1e-12)
        shape = [1] * grid.dim
        shape[axis] = ax.size
        mask &= ok.reshape(shape)
    return mask


def seeded_rng(seed: int) -> np.random.Generator:
    """`np.random.default_rng(seed)`, refusing a negative seed as a ValidationError."""
    if seed < 0:
        raise ValidationError(f"the seed must be an integer >= 0, got {seed}")
    return np.random.default_rng(seed)


def random_bump(grid: Grid, rng: np.random.Generator) -> GridField:
    """Random compactly supported smoothstep bump vanishing near the boundary:
    cutoff_profile(|x - c| / rho) for a seeded radius rho and centre c.

    Per axis c is drawn at least rho + 2 h from both ends (the box middle
    when the axis is too short for that), then snapped to its nearest node,
    at most h/2 away, so the bump is 1 there: on a box whose sides differ a
    lot, a ball of radius rho around an unsnapped centre may hold no node.
    The profile (which clips its argument to [0, 1]) is evaluated only on
    the node window around the support ball, with a margin of at least one
    node per side; every node outside it lies farther than rho from c,
    where the profile is exactly 0, so the bump equals its full-grid
    evaluation bit for bit."""
    extents = [hi - lo for lo, hi in grid.box]
    rho = (0.10 + 0.15 * rng.random()) * min(extents)
    center = []
    for (lo, hi), step, nodes in zip(grid.box, grid.h, grid.axes()):
        margin = rho + 2.0 * step
        if lo + margin >= hi - margin:
            c = 0.5 * (lo + hi)
        else:
            c = lo + margin + (hi - lo - 2 * margin) * rng.random()
        center.append(float(nodes[round((c - lo) / step)]))
    window = tuple(
        slice(max(math.floor((c - rho - lo) / step) - 1, 0),
              min(math.ceil((c + rho - lo) / step) + 1, r) + 1)
        for c, (lo, _), step, r in zip(center, grid.box, grid.h, grid.res)
    )
    values = np.zeros(grid.shape)
    values[window] = cutoff_profile(grid.node_distances(center, window=window) / rho)
    return GridField(grid, values)


def level_set_decay_fit(u: GridField, e: ExponentData) -> LevelSetFit | None:
    """Fit measure(h_{j+1}) = C * measure(h_j)^beta / (h_{j+1}-h_j)^r on 8
    levels h_j from 0.2 to 0.9 sup u, with r fixed to p* (p_N + 2 when p* is
    not defined); returns None when the field has too little level-set
    structure."""
    umax = float(np.max(u.values))
    if umax <= 0:
        return None
    levels = np.linspace(0.2, 0.9, 8) * umax
    measures = np.array([level_set_measure(u, h) for h in levels])
    keep = measures > 0
    levels, measures = levels[keep], measures[keep]
    if len(levels) < 4:
        return None
    r = e.pstar if e.pstar is not None else e.p_max + 2.0
    log_phi = np.log(measures)
    log_gap = np.log(np.diff(levels))
    # regress log phi_{j+1} + r log(dh_j) on [1, log phi_j], then push the
    # intercept up so the bound dominates every measured pair
    target = log_phi[1:] + r * log_gap
    design = np.column_stack([np.ones(len(target)), log_phi[:-1]])
    (log_c_ls, beta), *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - (log_c_ls + beta * log_phi[:-1])
    log_c = float(log_c_ls + np.max(residuals))
    halfwidth = float(0.5 * (np.max(residuals) - np.min(residuals)))
    return LevelSetFit(
        levels=tuple(levels),
        measures=tuple(measures),
        r=float(r),
        beta=float(beta),
        log_c=log_c,
        residual_halfwidth=halfwidth,
    )


def run_ladder(
    n_max: int,
    w: WeightSpec,
    e: ExponentData,
    tol_fix: float = 1e-8,
    inner_tol: float | None = None,
    max_outer: int = 200,
    seed: int = 0,
) -> LadderReport:
    """Solve levels n = 1..n_max and record the ladder properties.

    Per level: the certified bound on sup|A(u) - u| and the certificate
    that gave it (see `solve_level`), sup norm, interior minimum over
    the centered half box, and the monotonicity defect max(u_{n-1} - u_n)^+.
    The final level also gets a weak-form residual battery (against both the
    level equation and the unregularized one) and a level-set decay fit.

    The battery is the largest |`grid.weak_form_gap`| of the final level,
    summed by parts, over `_N_TEST_FUNCTIONS` seeded `random_bump`s, for the
    level's right-hand side and for g e^{1/u}.  A limit gap that overflows a
    float is a ValidationError.
    """
    if n_max < 2:
        raise ValidationError("the ladder needs n_max >= 2")
    rng = seeded_rng(seed)
    grid = w.g.grid
    grid.check_dim(e.p)
    omega_mask = _centered_half_box_mask(grid)
    records: list[LevelRecord] = []
    u_prev: GridField | None = None
    for n in range(1, n_max + 1):
        level = RegularizationLevel.from_weight(n, w)
        inf = {}
        u_n = solve_level(
            level, e, tol_fix=tol_fix, max_outer=max_outer,
            inner_tol=inner_tol, u0=u_prev, info=inf,
        )
        defect = 0.0
        if u_prev is not None:
            defect = float(max(0.0, np.max(u_prev.values - u_n.values)))
        records.append(
            LevelRecord(
                n=n,
                residual=inf["residual"],
                sup_norm=u_n.sup_norm(),
                interior_min=float(np.min(u_n.values[omega_mask])),
                mono_defect=defect,
                outer_iterations=inf["iterations"],
                certificate=inf["certificate"],
            )
        )
        u_prev = u_n

    final = u_prev
    thresholds = integrability_thresholds(e)
    if w.m is None:
        expected = None
    elif thresholds.m_bounded is not None:
        expected = w.m > thresholds.m_bounded
    else:
        expected = w.m > 1.0
    sups = [r.sup_norm for r in records]
    ratio = None
    if len(sups) >= 3:
        d1, d2 = sups[-2] - sups[-3], sups[-1] - sups[-2]
        ratio = d2 / d1 if d1 > 0 else 0.0

    # each equation's nodal residual Op(u) - rhs; g e^{1/u} is filled in on
    # each bump's support only (near the boundary a small u overflows exp), and
    # is g * inf or NaN where u vanishes there: reported or refused, not warned
    inner = grid.interior_slices()
    g, u = w.g.values[inner], final.values[inner]
    op = p_flux(final.values, grid, e.p)[0]
    residual_level = op - level.rhs(final).values[inner]
    residual_limit = np.zeros_like(op)
    gaps = []
    for _ in range(_N_TEST_FUNCTIONS):
        phi = random_bump(grid, rng)
        on = phi.values[inner] != 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            residual_limit[on] = op[on] - g[on] * np.exp(1.0 / u[on])
        gaps.append([abs(residual_integral(r, phi)) for r in (residual_level, residual_limit)])
    # np.max propagates a NaN gap; the builtin max would drop it
    res_level, res_limit = (float(gap) for gap in np.max(gaps, axis=0))
    if res_limit == math.inf:
        raise ValidationError("the limit term g e^{1/u} or its weak-form gap overflows a float")

    interior_min_final = records[-1].interior_min
    eps = 0.5 * max(interior_min_final, 0.0)
    shifted = GridField(grid, np.maximum(final.values - eps, 0.0))
    eps_energy = inner_energy(shifted, GridField.zeros(grid), e)
    support_cells = shifted.values > 0
    if np.any(support_cells):
        margin = math.inf
        for axis in range(grid.dim):
            idx = np.any(
                support_cells,
                axis=tuple(j for j in range(grid.dim) if j != axis),
            )
            first, last = int(np.argmax(idx)), int(len(idx) - 1 - np.argmax(idx[::-1]))
            margin = min(margin, first * grid.h[axis], (len(idx) - 1 - last) * grid.h[axis])
    else:
        margin = math.inf

    return LadderReport(
        levels=records,
        uniform_bound_expected=expected,
        sup_increment_ratio=ratio,
        weak_residual_level_max=res_level,
        weak_residual_limit_max=res_limit,
        levelset_fit=level_set_decay_fit(final, e=e),
        epsilon_used=eps,
        epsilon_support_margin=margin,
        epsilon_energy=eps_energy,
        final_field=final,
    )


# ---------------------------------------------------------------------------
# level-set extinction
# ---------------------------------------------------------------------------

def stampacchia_extinction(
    c: float, beta: float, r: float, k0: float, phi0: float
) -> float:
    """Extinction level for the decay recursion phi(h) <= c*phi(k)^beta/(h-k)^r.

    Returns k0 + d with d^r = c * phi0^(beta-1) * 2^(r*beta/(beta-1)); the
    measure is forced to vanish at that level whenever beta > 1.
    """
    if not beta > 1:
        raise ValidationError(f"extinction needs beta > 1, got {beta}")
    if r <= 0 or c < 0 or phi0 < 0:
        raise ValidationError("need r > 0, c >= 0, phi0 >= 0")
    if phi0 == 0.0:
        return k0
    d = (c * phi0 ** (beta - 1.0) * 2.0 ** (r * beta / (beta - 1.0))) ** (1.0 / r)
    return k0 + d


@dataclass
class StampacchiaVerification:
    d: float
    k_star: float
    iterations: int
    converged: bool
    max_ratio_deviation: float
    final_bound: float


def stampacchia_verify(
    c: float,
    beta: float,
    r: float,
    k0: float,
    phi0: float,
    target: float = 1e-12,
    max_iter: int = 400,
) -> StampacchiaVerification:
    """Iterate the recursion at the predicted increment and confirm the decay.

    With k_{j+1} = k_j + d*2^{-(j+1)} and equality in the recursion, the
    quantity phi_j * mu^j / phi0 (mu = 2^{r/(beta-1)}) stays exactly 1, so
    the implied bound phi_j <= phi0 * mu^{-j} is tight; `max_ratio_deviation`
    records how far floating point drifts from that identity before the
    bound drops below `target`.
    """
    k_star = stampacchia_extinction(c, beta, r, k0, phi0)
    d = k_star - k0
    if phi0 == 0.0:
        return StampacchiaVerification(0.0, k_star, 0, True, 0.0, 0.0)
    mu = 2.0 ** (r / (beta - 1.0))
    phi = phi0
    bound = phi0
    deviation = 0.0
    j = 0
    while bound > target and j < max_iter:
        step = d * 2.0 ** (-(j + 1))
        phi = c * phi ** beta / step ** r
        j += 1
        bound = phi0 * mu ** (-j)
        if bound > 0:
            deviation = max(deviation, abs(phi / bound - 1.0))
    return StampacchiaVerification(
        d=d,
        k_star=k_star,
        iterations=j,
        converged=bound <= target,
        max_ratio_deviation=deviation,
        final_bound=bound,
    )
