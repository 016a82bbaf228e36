"""Existence-side machinery: inner variational solves, the regularized
fixed-point map, the level ladder with its provable properties, and the
Stampacchia recursion's extinction level.

The inner problem minimizes the strictly convex energy

    E(u) = sum_i (1/p_i) int |D_i u|^{p_i}  -  int rhs * u

over zero-boundary fields.  The level-n problem Op(u) = g_n exp(1/(u^+ + 1/n))
is the Euler-Lagrange equation of the same energy with a convex nonlinear
source.  Both are minimized by one damped inexact Newton-Krylov routine
(`_newton_krylov`), which fills one record per solve, the caller's `info`.
The gradient is `grid.p_flux`; each Newton system is assembled from its
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
A level with mirror-symmetric data is solved on one orthant.  A gradient
tolerance below the smallest normal float is refused (`_tolerance`).

Each level solution u, from one Newton solve, is held within tol_fix of
A(u), the fixed-point map of the paper (`apply_A`: one inner solve with
right-hand side g_n exp(1/(v^+ + 1/n)) on interior nodes only): by a
discrete comparison bound when some p_k = 2, else by the estimate of one
Newton step of A's problem from u.  The ladder runs levels n = 1..n_max and
records monotonicity defects, interior minima, and sup norms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .exponents import ExponentData
from .grid import (
    DENSE_DST_MAX,
    GridField,
    Grid,
    Orthant,
    dst_solver,
    extract_interior,
    embed_interior,
    face_integral,
    axis_diff,
    p_flux,
    report_dict,
    stencil_rows,
    stiffness,
    weighted_integrate,
)

# largest relative residual (forcing) at which the preconditioned CG solve of
# a Newton system stops; the Newton loop, not the linear solve, decides
# convergence
_CG_RTOL = 1e-2


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

    def source(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The level equation's right side G'(x) = g_n exp(1/(x^+ + 1/n)) on
        interior vectors x, bounded by g_n e^n, and its curvature -G''(x) =
        G'(x) / (x + 1/n)^2 where x > 0, else 0."""
        shifted = np.maximum(x, 0.0) + self.shift
        g = extract_interior(self.g_n) * np.exp(1.0 / shifted)
        return g, np.where(x > 0.0, g / shifted ** 2, 0.0)

    def rhs(self, v: GridField) -> GridField:
        """The right-hand side of the level map at v: `source` on the
        interior nodes, 0 on the boundary ring, which is never exponentiated."""
        return embed_interior(v.grid, self.source(extract_interior(v))[0])


# ---------------------------------------------------------------------------
# inner variational problem
# ---------------------------------------------------------------------------

def inner_energy(u: GridField, rhs: GridField, e: ExponentData) -> float:
    """E(u) = sum_i (1/p_i) int |D_i u|^{p_i} - int rhs * u."""
    grid = u.grid
    grid.check_dim(e.p)
    total = 0.0
    for axis, p_i in enumerate(e.p):
        d = axis_diff(u, axis)
        total += face_integral(np.abs(d) ** p_i, grid, axis) / p_i
    return total - weighted_integrate(rhs, u)


def _flux_weights(faces, p) -> list[np.ndarray] | None:
    """Linearized flux weights (p_i - 1)|D_i u|^{p_i - 2} from the face
    differences D_i u, floored at 1e-8 (1 + sup|D_i u|) to keep the Newton
    system positive definite where a p_i > 2 flux degenerates; the floor
    only shapes the direction.  None when a weight overflows a float."""
    weights = []
    for f, p_i in zip(faces, p):
        a = np.abs(f)
        with np.errstate(over="ignore"):
            w = (p_i - 1.0) * np.maximum(a, 1e-8 * (1.0 + float(np.max(a)))) ** (p_i - 2.0)
        if not np.all(np.isfinite(w)):
            return None
        weights.append(w)
    return weights


def _newton_direction(
    grid: Grid, weights, b, diag, rtol: float = _CG_RTOL
) -> tuple[np.ndarray, int]:
    """Solve (sum_i K_i^T diag(w_i) K_i + diag(diag)) d = b for full face
    weight arrays w_i and a nonnegative diagonal array `diag`; returns d
    and the number of CG iterations (0 for the direct solve).

    In 1D the system is solved exactly as a band: the `stencil_rows` main
    and superdiagonal rows, a lone main row on a one-node grid.  In 2D and
    3D an in-house preconditioned CG loop runs on the `stiffness`
    matrix to relative residual `rtol`, preconditioned by its diagonally
    scaled DST inverse.  It performs the recurrence of
    `scipy.sparse.linalg.cg` (scipy 1.17) operation for operation, its
    reference in the tests, without a LinearOperator: from x = 0 and
    r = b, it stops once ||r||_2 < rtol ||b||_2 (sqrt of np.dot, which is
    np.linalg.norm bit for bit; on an `Orthant` the grid's norm), or after
    10 n iterations, and returns (b, 0) for b = 0.  CG started from zero
    keeps g.d < 0 at every iterate (g = -b), so an inexact or unconverged
    step is still a descent direction and no convergence status is kept;
    the Newton loop's residual test decides convergence.
    """
    if grid.dim == 1:
        import scipy.linalg
        band = stencil_rows(grid, weights, diag)[0][1::-1]
        if isinstance(grid, Orthant):  # W R J P = P^T J P is symmetric
            w = grid.orbits
            band, b = band * np.stack([np.roll(w, 1), w])[-len(band):], w * b
        return scipy.linalg.solveh_banded(band, b), 0
    matrix, precond = stiffness(grid, weights, diag)
    dot = grid.inner if isinstance(grid, Orthant) else np.dot
    b_norm = math.sqrt(dot(b, b))
    if b_norm == 0:
        return b, 0
    atol = rtol * b_norm
    x, r = np.zeros(b.size), b.copy()
    p = rho_prev = None
    for iteration in range(10 * b.size):
        if math.sqrt(dot(r, r)) < atol:
            return x, iteration
        z = precond(r)
        rho = dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matrix @ p
        alpha = rho / dot(p, q)
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


def _floored_direction(grid: Grid, p, diffs, b, diag, rtol: float, what: str, res: float,
                       record: dict) -> tuple[np.ndarray, int]:
    """`_newton_direction` on the `_flux_weights` of the face differences
    `diffs`.  A weight that overflows a float, or a 1D band singular in
    floats, raises the NonConvergenceError of the solve `what` instead."""
    weights = _flux_weights(diffs, p)
    reason = "a flux weight of the {}'s Newton system overflows a float"
    if weights is not None:
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return _newton_direction(grid, weights, b, diag=diag, rtol=rtol)
        except np.linalg.LinAlgError:  # the 1D band's Cholesky factor met a zero pivot
            reason = "the {}'s Newton system is singular in floats"
    raise _nonconvergence(reason.format(what), res, record)


def _tolerance(name: str, tol: float | None) -> float:
    """The Newton tolerance `tol`, or when None its default 1e-8.  A `tol`
    that is not finite and > 0 (a NaN passes every `gap > tol` test), or
    that is subnormal, is refused."""
    if tol is None:
        return 1e-8
    if not 0 < tol < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {tol}")
    if tol < sys.float_info.min:
        raise ValidationError(f"{name} = {tol} is below the smallest normal float "
                              f"{sys.float_info.min}: a subnormal tolerance has lost precision")
    return tol


def _newton_krylov(grid: Grid, e: ExponentData, x, source, tol: float, max_steps: int,
                   what: str, record: dict, energy=None) -> tuple[np.ndarray, np.ndarray, list]:
    """Minimize sum_i (1/p_i) |K_i x|^{p_i} - G(x) over interior vectors x,
    for a convex G given by `source(x) = (G'(x), -G''(x))`: the gradient of
    G and its nonnegative curvature diagonal array (zeros when G is linear).

    The start is `x`, else the linear (p = 2) solve with right-hand side
    G'(0) for every p (exact when all p_i = 2 and G is linear), as a p_i > 2
    flux degenerates at zero gradient; a zero G'(0) starts at exact zeros,
    as pocketfft's DST of zeros may hold -0.0.  Each damped Newton step
    solves the floored Jacobian system (`_flux_weights`, `_newton_direction`)
    to the relative residual eta = min(1e-2, max(sup|F|, tol / (2 ||F||_2)))
    of the current gradient F.  The term sup|F| makes Newton converge
    superlinearly; the floor keeps the last step from oversolving, since a
    linear residual below tol/2 is all it needs (the safeguard of Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 1995, ch. 6).  A
    step t of the direction d is accepted once
    ||F(x + t d)||_2 <= (1 - 1e-4 t (1 - eta)) ||F(x)||_2, the inexact-Newton
    backtracking test of Eisenstat & Walker (1994).  The loop stops when
    sup|F| <= tol, a tolerance `_tolerance` has resolved.

    Returns x, with the gradient F and the face differences D_i x of its
    last check; `record` receives, as the solve goes, the gradient sup norm
    `residuals` at each check, their number `iterations`, the `steps`, the
    CG `linear_iterations` per step (0 in 1D) and, when `energy` is given,
    the `energies` energy(x) at each check.  A failed line search, more
    than `max_steps` steps, a start gradient that is not finite and the
    refusals of `_floored_direction` raise a NonConvergenceError that names
    the solve by `what`.  Points are evaluated with numpy's overflow
    warnings off: a trial point whose ||F||_2 is inf or NaN fails the
    backtracking test.  A `max_steps` below 1 is a ValidationError.
    """
    grid.check_dim(e.p)
    p = e.p
    dot = grid.inner if isinstance(grid, Orthant) else np.dot
    if not max_steps >= 1:
        raise ValidationError(f"the {what} needs a Newton-step cap >= 1, got {max_steps}")

    def evaluate(x):
        """F(x), ||F(x)||_2, the differences D_i x and the diagonal -G''(x);
        an overflow leaves the norm inf or NaN, which no test accepts."""
        with np.errstate(over="ignore", invalid="ignore"):
            g, diag = source(x)
            op, diffs = p_flux(embed_interior(grid, x).values, grid, p)
            f = op.ravel() - g
            return f, math.sqrt(dot(f, f)), diffs, diag

    record.update(residuals=[], steps=[], linear_iterations=[])
    if energy is not None:
        record["energies"] = []
    if x is None:
        with np.errstate(over="ignore", invalid="ignore"):
            b = source(np.zeros(math.prod(grid.interior_shape())))[0]
            x = dst_solver(grid, [1.0] * grid.dim)(b) if np.any(b) else np.zeros(b.size)
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
            return x, f, diffs
        if len(record["steps"]) >= max_steps:
            raise _nonconvergence(
                f"{what} did not reach tol={tol} in {max_steps} Newton steps", res, record
            )
        eta = min(_CG_RTOL, max(res, 0.5 * tol / norm))
        d, its = _floored_direction(grid, p, diffs, -f, diag, eta, what, res, record)
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

    One `_newton_krylov` minimization with the linear source G(x) = rhs.x
    (zero curvature), started from x0, else the linear solve (exact at the
    first check when all p_i = 2); to tol (default 1e-8) in at most
    `max_iter` Newton steps.

    `info`, when given, receives the solve's record (`_newton_krylov`):
    `residuals`, `iterations`, `steps`, `linear_iterations`, and as
    `energies` the `inner_energy` of each checked iterate, evaluated only
    then.  A failed solve leaves its partial record there.
    """
    grid = rhs.grid
    tol = _tolerance("the inner solve tolerance", tol)
    rhs_int = extract_interior(rhs)
    zeros = np.zeros(rhs_int.size)
    x = _newton_krylov(
        grid, e, None if x0 is None else extract_interior(x0),
        lambda x: (rhs_int, zeros), tol, max_iter, "inner solve", {} if info is None else info,
        energy=None if info is None else lambda x: inner_energy(embed_interior(grid, x), rhs, e),
    )[0]
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
    """One application of the level map, order-reversing for every v: solve
    with right-hand side `level.rhs(v)`, started at v (a fixed point is its
    own start).  It returns v itself when v's inner gradient is within
    `tol`, so it measures the gap sup|A(v) - v| only down to `tol`."""
    return solve_inner(level.rhs(v), e, tol=tol, x0=v)


def solve_level(
    level: RegularizationLevel,
    e: ExponentData,
    tol_fix: float = 1e-8,
    max_outer: int = 200,
    u0: GridField | None = None,
    info: dict | None = None,
) -> GridField:
    """Solve the level equation Op(u) = g_n exp(1/(u^+ + 1/n)) and hold its
    gap sup|A(u) - u| to tol_fix; returns u.

    The equation is the Euler-Lagrange equation of the convex energy

        sum_i (1/p_i) int |D_i u|^{p_i}  -  int g_n G(u),   G' = exp(1/(u^+ + s)),

    with s = 1/n, minimized by one `_newton_krylov` solve from u0 (else its
    default start), to tol_fix (the bound's own stop below) in at most
    `max_outer` Newton steps, each point evaluating `level.source` once.
    Its Newton system adds the nonnegative diagonal g_n e^{1/(u+s)}/(u+s)^2
    on nodes with u > 0 to the inner one.

    A(u) is the exact discrete solution of Op(w) = b(u) = g_n exp(1/(u^+ + s)),
    and F = Op(u) - b(u) is A's own inner gradient at u, the gradient of the
    loop's last check, which the certificate reads with its differences.

    - When some axis k has p_k = 2, the gap is bounded.  Op(u) - Op(A(u))
      = J (u - A(u)) = F with J = sum_i K_i^T diag(m_i) K_i, where m_i >= 0
      is the secant slope of t -> |t|^{p_i - 2} t between K_i u and
      K_i A(u), and m_k = 1.  So J is a symmetric positive definite
      Z-matrix, hence an M-matrix, and J^{-1} >= 0 entrywise.  The discrete
      torsion v = x_k (L_k - x_k)/2 of axis k (box length L_k) satisfies
      J v >= 1, so |u - A(u)| = |J^{-1} F| <= sup|F| J^{-1} 1 <= sup|F| v
      <= sup|F| L_k^2 / 8, with the smallest L_k over the p_k = 2 axes.
      The Newton loop stops at sup|F| <= 8 tol_fix / L_k^2 (capped at the
      largest float), exactly where the bound certifies.
    - Otherwise the gap is estimated, not bounded, by sup|d| for the Newton
      step d of A's problem from u: J d = -F, with J the floored flux
      Jacobian at u and no diagonal, as b(u) is fixed in A's problem
      (`_floored_direction`, which names the "level gap estimate").

    On the axes where g_n and u0 equal their mirror images bit for bit (in
    2D and 3D those whose half has at most `DENSE_DST_MAX` nodes) the level
    is solved on their `Orthant` with orbit-weighted norms and inner
    products, in exact arithmetic the full-grid solve step for step, and
    mirrored back.

    The gap must be <= tol_fix.  `info`, when given, receives the level
    solve's record (`_newton_krylov`, without `energies`), then the gap as
    `residual` and the `certificate` used ("bound" or "newton").  A
    NonConvergenceError carries the level solve's residuals and step
    lengths in its diagnostics.  A tol_fix or 8 tol_fix / L_k^2 that
    `_tolerance` refuses is a ValidationError.
    """
    grid = level.g_n.grid
    tol = tol_fix = _tolerance("tol_fix", tol_fix)
    # sup of the discrete torsion v of the shortest p_k = 2 axis, if any (a
    # product, which overflows to inf where a power raises)
    side = min((hi - lo for (lo, hi), p_k in zip(grid.box, e.p) if p_k == 2.0), default=None)
    v_sup = None if side is None else side * side / 8.0
    if v_sup is not None:
        tol = _tolerance(f"8 tol_fix / L^2 (tol_fix = {tol_fix}, p = 2 box side L = {side})",
                         min(tol_fix / v_sup, sys.float_info.max))

    bits = [v.values.view(np.int64) for v in (level.g_n, u0) if v is not None]
    fold = tuple(axis for axis in range(grid.dim)
                 if (grid.dim == 1 or grid.res[axis] // 2 <= DENSE_DST_MAX)
                 and all(np.array_equal(b, np.flip(b, axis)) for b in bits))
    half = Orthant(grid, fold) if fold else grid
    if fold:
        g_n, u0 = (None if v is None else GridField(half, half.mirrored(v.values))
                   for v in (level.g_n, u0))
        level = RegularizationLevel(level.n, g_n, level.shift)
    record = {} if info is None else info
    x, f, diffs = _newton_krylov(
        half, e, None if u0 is None else extract_interior(u0),
        level.source, tol, max_outer, "level solve", record,
    )
    res = record["residuals"][-1]
    if v_sup is not None:
        gap, certificate = res * v_sup, "bound"
    else:
        d, _ = _floored_direction(half, e.p, diffs, -f, np.zeros(f.size), _CG_RTOL,
                                  "level gap estimate", res, record)
        gap, certificate = float(np.max(np.abs(d))), "newton"
    if not gap <= tol_fix:  # a NaN correction is refused too
        raise _nonconvergence(f"certified level gap {gap:.3e} exceeds tol_fix={tol_fix}", gap,
                              record)
    record.update(residual=gap, certificate=certificate)
    u = embed_interior(half, x)
    return GridField(grid, half.mirrored(u.values, full=True)) if fold else u


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
class LadderReport:
    levels: list[LevelRecord]
    uniform_bound_expected: bool | None
    final_field: GridField

    def to_dict(self) -> dict:
        return report_dict(self, final_field=None)


def run_ladder(
    n_max: int,
    w: WeightSpec,
    e: ExponentData,
    tol_fix: float = 1e-8,
    max_outer: int = 200,
) -> LadderReport:
    """Solve levels n = 1..n_max and record the ladder properties.

    Per level: the bound or estimate of sup|A(u) - u| and the certificate
    that gave it (see `solve_level`), sup norm, interior minimum over
    the centered half box (nodes ceil(r/4) to floor(3r/4) of each axis of
    r cells), and the monotonicity defect max(u_{n-1} - u_n)^+.
    `uniform_bound_expected` states the paper's hypothesis for bounded
    solutions, m > m_bounded when pbar < N and m > 1 otherwise, which is
    m > max(1, sum_i 1/p_i) decided in exact rationals; it is None when
    the weight carries no m.
    """
    if n_max < 2:
        raise ValidationError("the ladder needs n_max >= 2")
    grid = w.g.grid
    grid.check_dim(e.p)
    half_box = tuple(slice((r + 3) // 4, 3 * r // 4 + 1) for r in grid.res)
    records: list[LevelRecord] = []
    u_prev: GridField | None = None
    for n in range(1, n_max + 1):
        level = RegularizationLevel.from_weight(n, w)
        inf = {}
        u_n = solve_level(
            level, e, tol_fix=tol_fix, max_outer=max_outer, u0=u_prev, info=inf,
        )
        defect = 0.0
        if u_prev is not None:
            defect = float(max(0.0, np.max(u_prev.values - u_n.values)))
        records.append(
            LevelRecord(
                n=n,
                residual=inf["residual"],
                sup_norm=u_n.sup_norm(),
                interior_min=float(np.min(u_n.values[half_box])),
                mono_defect=defect,
                outer_iterations=inf["iterations"],
                certificate=inf["certificate"],
            )
        )
        u_prev = u_n

    expected = None if w.m is None else Fraction(w.m) > max(1, e.inverse_sum)
    return LadderReport(levels=records, uniform_bound_expected=expected, final_field=u_prev)


# ---------------------------------------------------------------------------
# Stampacchia recursion
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
