"""Stability-side evaluators: the weak form, the second-variation gap and
its spectral index, the two-sided a priori estimate with truncations, the
cutoff corollaries, and the radius-sweep contradiction experiments.

Sign conventions: for positive candidates the nonlinearities here are
negative with positive derivative,

    mixed power:  f(u) = -u^-delta - u^-gamma,   f'(u) = delta*u^(-delta-1) + gamma*u^(-gamma-1)
    exponential:  f(u) = -e^(1/u),               f'(u) = e^(1/u) / u^2

A candidate u is *numerically stable* when the quadratic-form gap

    sum_i (p_i - 1) int |D_i u|^{p_i-2} |D_i phi|^2  -  int W f'(u) phi^2

is nonnegative over all discrete test functions; `stability_index` returns
the smallest Rayleigh quotient of that gap (mass-normalized), so stability
is exactly index >= 0.  W is 1 for the literal inequality and g for the
weighted variant the cutoff estimates use.  The index is computed on the
gap pencil shifted to be positive definite, assembled by `grid.stiffness`
like the solver's Newton systems, by one LOBPCG loop preconditioned in 1D
and 2D by one sparse factor of that pencil, in 3D by its diagonally scaled
fast-diagonalization (DST) inverse.  Either way it is certified by its
eigen residual rather than by a stagnation test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import HypothesisNotApplicableError, NonConvergenceError, ValidationError
from .exponents import (
    HYPOTHESES,
    ApplicableTheorem,
    ExpSingular,
    MixedPower,
    ProblemSpec,
    ThresholdReport,
    axis_powers,
    beta_window,
    decay_exponents,
    lhs_power,
    region_memberships,
)
from .grid import (
    GridField,
    Grid,
    axis_diff,
    ball_fraction_weights,
    embed_interior,
    face_average,
    face_integral,
    integrate,
    report_dict,
    stiffness,
    weak_form_gap,
)
from .solver import WeightSpec
from .truncations import TruncationPair, b_eval


# relative eigen residual that certifies the stability index
EIGEN_TOL = 1e-7


class StabilityVariant(Enum):
    AS_WRITTEN = "AsWritten"
    WEIGHTED_BY_G = "WeightedByG"


@dataclass(frozen=True)
class NonlinearityEval:
    """Vectorized nonlinearity with its derivative."""

    f: Callable
    fprime: Callable

    @classmethod
    def mixed_power(cls, delta: float, gamma: float) -> "NonlinearityEval":
        MixedPower(delta, gamma)  # the one check of the parameters
        return cls(
            f=lambda u: -(u ** -delta) - (u ** -gamma),
            fprime=lambda u: delta * u ** (-delta - 1.0) + gamma * u ** (-gamma - 1.0),
        )

    @classmethod
    def exp_singular(cls) -> "NonlinearityEval":
        return cls(
            f=lambda u: -np.exp(1.0 / u),
            fprime=lambda u: np.exp(1.0 / u) / u ** 2,
        )

    @classmethod
    def from_problem(cls, spec: ProblemSpec) -> "NonlinearityEval":
        if isinstance(spec.kind, MixedPower):
            return cls.mixed_power(spec.kind.delta, spec.kind.gamma)
        return cls.exp_singular()

    @classmethod
    def constant_slope(cls, lam: float) -> "NonlinearityEval":
        """Frozen test nonlinearity: f = 0, f' = lam everywhere."""
        return cls(
            f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
            fprime=lambda u: np.full_like(np.asarray(u, dtype=float), lam),
        )


def _require_compact_support(phi: GridField) -> None:
    if not phi.is_zero_on_boundary():
        raise ValidationError("test function must vanish on the boundary ring")


def _require_positive_on_support(u: GridField, support: np.ndarray) -> None:
    if np.any(u.values[support] <= 0):
        raise ValidationError("u must be positive wherever the test function lives")


def _require_cutoff(psi: GridField) -> None:
    if np.any(psi.values < 0) or np.any(psi.values > 1):
        raise ValidationError("psi must take values in [0, 1]")


def _require_in_window(beta: float, spec: ProblemSpec) -> None:
    l1, upper = beta_window(spec)
    if not l1 < beta < upper:
        raise ValidationError(f"beta = {beta} outside the window ({float(l1)}, {float(upper)})")


# ---------------------------------------------------------------------------
# weak form and stability gap
# ---------------------------------------------------------------------------

def weak_residual(
    u: GridField,
    phi: GridField,
    nl: NonlinearityEval,
    g: GridField,
    p,
) -> float:
    """LHS - RHS of the weak form with the weighted right side g * f(u) * phi:

        sum_i int |D_i u|^{p_i-2} D_i u * D_i phi  -  int g f(u) phi

    `phi` must vanish on the boundary ring (`weak_form_gap` refuses it
    otherwise) and u must be positive on its support (the nonlinearity is
    singular at zero).
    """
    support = phi.values != 0
    _require_positive_on_support(u, support)
    rhs_vals = np.zeros(u.grid.shape)
    rhs_vals[support] = g.values[support] * nl.f(u.values[support])
    return weak_form_gap(u, phi, GridField(u.grid, rhs_vals), p)


def stability_gap(
    u: GridField,
    phi: GridField,
    nl: NonlinearityEval,
    g: GridField,
    p,
    variant: StabilityVariant = StabilityVariant.WEIGHTED_BY_G,
) -> float:
    """Second-variation gap of the candidate u tested against phi:

        sum_i (p_i - 1) int |D_i u|^{p_i-2} |D_i phi|^2 - int W f'(u) phi^2

    with W = 1 (AS_WRITTEN) or W = g (WEIGHTED_BY_G).  Quadratic in phi, so
    its sign is scale-invariant.
    """
    grid = u.grid
    grid.check_dim(p)
    _require_compact_support(phi)
    support = phi.values != 0
    _require_positive_on_support(u, support)
    quad = 0.0
    for axis, p_i in enumerate(p):
        du = axis_diff(u, axis)
        dphi = axis_diff(phi, axis)
        quad += (p_i - 1.0) * face_integral(
            np.abs(du) ** (p_i - 2.0) * dphi ** 2, grid, axis
        )
    pot_vals = np.zeros(grid.shape)
    pot_vals[support] = nl.fprime(u.values[support]) * phi.values[support] ** 2
    if variant is StabilityVariant.WEIGHTED_BY_G:
        pot_vals[support] *= g.values[support]
    return quad - integrate(GridField(grid, pot_vals))


@dataclass
class StabilityReport:
    """Outcome of the spectral stability test.

    `residual` is the eigen residual ||P x - gap x|| of the unit interior
    vector x behind `minimizer`, so some eigenvalue of the pencil P lies
    within `residual` of `gap`, and `gap`, a Rayleigh quotient, bounds the
    lowest eigenvalue from above.  Nothing here says whether that lowest
    eigenvalue is simple.  `residual` is at most the bound
    max(EIGEN_TOL * max(1, |shift|), sqrt(n) eps ||P - shift*I||_inf) over
    the n interior nodes, the larger of a relative tolerance and the
    roundoff floor of the residual.
    """

    gap: float
    variant: StabilityVariant
    minimizer: GridField
    iterations: int
    shift: float
    residual: float
    description: str

    @property
    def stable(self) -> bool:
        return self.gap >= 0.0

    def to_dict(self) -> dict:
        return report_dict(self, minimizer=None, description="minimizer") | {"stable": self.stable}


def _lobpcg_lowest(shifted, precond, x0: np.ndarray, max_iter: int, bound: float):
    """The lowest eigenvector of the positive definite `shifted` by LOBPCG on
    one column (Knyazev, SIAM J. Sci. Comput. 23, 2001) from `x0`: each step
    preconditions r = A x - rho x, orthogonalizes it against x and takes the
    lowest Ritz pair of span{x, w, p} (w, p of unit norm) by the explicit
    Gram pair (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006), without p
    where that is singular.  Stops at ||r|| <= bound or `max_iter` precond
    applications; returns the iterate of least ||r|| and the count."""
    import scipy.linalg
    m = np.empty((6, x0.size))  # rows x, Ax, w, Aw, p, Ap
    s, a = m[0::2], m[1::2]
    s[0] = x0 / np.linalg.norm(x0)
    a[0] = shifted @ s[0]
    rho, best, smallest, applied = s[0] @ a[0], x0, np.inf, 0
    while True:
        r = a[0] - rho * s[0]
        res = scipy.linalg.norm(r, check_finite=False)
        if res < smallest:
            best, smallest = s[0].copy(), res
        if not res > bound or applied == max_iter:
            return best, applied
        w = precond(r)
        applied += 1
        w -= (s[0] @ w) * s[0]
        s[1] = w / np.linalg.norm(w)
        a[1] = shifted @ s[1]
        for k in ((3, 2) if applied > 1 else (2,)):
            try:
                gram = m[:2 * k] @ s[:k].T  # rows of G and H^T alternate: one pass over m
                vals, c = scipy.linalg.eigh(gram[1::2].T, gram[::2], check_finite=False)
                break
            except scipy.linalg.LinAlgError:  # p lies in span{x, w}: drop it
                pass
        else:
            return best, applied
        rho, c = vals[0], c[:, 0]
        p, ap = c[1:k] @ s[1:k], c[1:k] @ a[1:k]
        s[0], a[0] = c[0] * s[0] + p, c[0] * a[0] + ap
        s[2], a[2] = p / (norm := np.linalg.norm(p)), ap / norm


def stability_index(
    u: GridField,
    nl: NonlinearityEval,
    g: GridField,
    p,
    variant: StabilityVariant = StabilityVariant.WEIGHTED_BY_G,
    max_iter: int = 1000,
) -> StabilityReport:
    """Smallest mass-normalized eigenvalue of the gap form over discrete test
    functions; the candidate is numerically stable iff the index is >= 0.

    On a uniform grid the interior mass matrix is a multiple of the
    identity, so the index is the smallest eigenvalue of the symmetric
    pencil P = sum_i K_i^T diag(w_i) K_i - diag(W f'(u)), w_i = (p_i - 1)
    |D_i u|^{p_i-2}.  The shift -max(0, max W f'(u)) - 1 puts the spectrum
    of P - shift*I at or above 1.  `grid.stiffness` assembles P - shift*I
    (diagonal -W f'(u) - shift, floored at 1 as it is in exact arithmetic),
    and `_lobpcg_lowest` computes its lowest eigenpair from the lowest
    discrete Dirichlet sine mode prod_i sin(pi k_i / res_i),
    k_i = 1..res_i - 1, the ground state of the DST preconditioner.
    P - shift*I has no positive off-diagonal entry (w_i >= 0), so by
    Perron-Frobenius its lowest eigenspace holds a nonnegative vector, and
    the strictly positive start is never deficient in that direction.  Only
    the preconditioner depends on the dimension:

    * in 1D and 2D, the solve of one sparse SuperLU factor of P - shift*I,
      an exact inverse, so the iteration count does not grow with the grid;
      a factor that SuperLU reports as singular raises NonConvergenceError;
    * in 3D, where that factor costs as much as the whole iterative solve
      at 16^3 and ten times more at 24^3, the diagonally scaled DST
      inverse of `stiffness`.

    `max_iter` caps the preconditioner applications (the factor solves in
    1D and 2D) and `iterations` counts them.  A `max_iter` below 1 is a
    ValidationError, as is a weight that `WeightSpec` refuses under
    WEIGHTED_BY_G.

    The index is the Rayleigh quotient rho of the returned unit vector x
    under the unshifted P.  It is certified by its eigen residual:
    NonConvergenceError (with `rho`, the residual, the iteration count and
    the bound as diagnostics) unless ||P x - rho x|| is at most the bound
    max(EIGEN_TOL * max(1, |shift|), sqrt(n) eps ||P - shift*I||_inf) over
    the n interior nodes; the second term is the roundoff floor of the
    residual, which rules on a tiny box (||P - shift*I||_inf near 1e10 at a
    shift near -1).  The residual norm is BLAS nrm2, which scales as it
    sums: at a shift of -1e308 the entries of P x - rho x left after
    cancellation are about 1e292, and their squares would overflow.  The
    minimizer is x on the grid, scaled to int phi^2 = 1 with its
    largest-magnitude entry positive.

    The lowest eigenvalue may be multiple (a candidate constant along an
    axis with p_i > 2 has zero flux weights there, so its lines decouple).
    The minimizer is then one vector of that eigenspace, the same in every
    run: the pencil and its preconditioner act alike on every line, so the
    iterates keep the sine start's profile across the lines.
    """
    import scipy.linalg
    grid = u.grid
    grid.check_dim(p)
    if not max_iter >= 1:
        raise ValidationError(f"the stability index needs an iteration cap >= 1, got {max_iter}")
    if variant is StabilityVariant.WEIGHTED_BY_G:
        WeightSpec(g)  # refuses a negative or non-finite weight
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pot_full = np.asarray(nl.fprime(u.values), dtype=float)
        if variant is StabilityVariant.WEIGHTED_BY_G:
            pot_full = pot_full * g.values
    pot = pot_full[grid.interior_slices()].ravel()
    if not np.all(np.isfinite(pot)):
        raise ValidationError("potential W*f'(u) is not finite on the interior")

    weights = [
        (p_i - 1.0) * np.abs(axis_diff(u, axis)) ** (p_i - 2.0) for axis, p_i in enumerate(p)
    ]
    shift = -max(0.0, float(np.max(pot))) - 1.0
    # the shifted pencil P - shift*I and its DST preconditioner; from
    # max W f'(u) = 2^53 up the 1 of the shift is lost to rounding, and the
    # floor keeps the diagonal at 1 where the flux weights vanish
    shifted, precond = stiffness(grid, weights, np.maximum(-pot - shift, 1.0))
    # sqrt(n) eps ||P - shift*I||_inf, the largest column sum of |data|
    # (`stencil_rows` zeroes the DIA entries outside the matrix), scaled by
    # eps before summing so that no finite sum overflows
    eps = np.finfo(float).eps
    floor = math.sqrt(pot.size) * float(np.max(np.sum(np.abs(shifted.data) * eps, axis=0)))
    bound = max(EIGEN_TOL * max(1.0, abs(shift)), floor)
    # the lowest Dirichlet sine mode, positive on the interior
    x0 = math.prod(np.ix_(*(np.sin(np.pi * np.arange(1, r) / r) for r in grid.res))).ravel()
    failure = None
    if grid.dim <= 2:  # precondition by the exact inverse
        import scipy.sparse.linalg as spla
        # unrelaxed supernodes keep the defaults' fill in less time
        try:
            precond = spla.splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                relax=1, panel_size=1, options={"SymmetricMode": True}).solve
        except RuntimeError as exc:  # SuperLU reports a singular factor
            # no iteration: the diagnostics are those of the start
            failure, max_iter = f"SuperLU could not factor the shifted pencil: {exc}", 0
    x, iterations = _lobpcg_lowest(shifted, precond, x0, max_iter, bound)
    x = x / np.linalg.norm(x)
    px = shifted @ x + shift * x
    rho = float(x @ px)
    residual = float(scipy.linalg.norm(px - rho * x, check_finite=False))
    if failure is not None or not residual <= bound:
        raise NonConvergenceError(
            failure or "LOBPCG did not reach the eigen residual bound",
            residual=residual,
            diagnostics={"rho": rho, "iterations": iterations, "bound": bound},
        )
    x *= math.copysign(1.0 / math.sqrt(grid.cell_volume), x[np.argmax(np.abs(x))])
    return StabilityReport(
        gap=rho,
        variant=variant,
        minimizer=embed_interior(grid, x),
        iterations=iterations,
        shift=shift,
        residual=residual,
        description=f"LOBPCG eigenvector, unit mass norm, {iterations} iterations",
    )


# ---------------------------------------------------------------------------
# a priori estimate (two-sided, with truncations)
# ---------------------------------------------------------------------------

def epsilon_coefficient(alpha: float, epsilon: float, n_dim: int, q: float) -> float:
    """(alpha-1)^2 (N(q-1) + eps) / (4 alpha (1 - eps)); increasing in eps on
    (0,1) with limit N(q-1)(alpha-1)^2/(4 alpha) at eps -> 0."""
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    return (alpha - 1.0) ** 2 * (n_dim * (q - 1.0) + epsilon) / (4.0 * alpha * (1.0 - epsilon))


@dataclass
class CaccioppoliReport:
    lhs: float
    rhs: float
    alpha: float | None
    epsilon: float | None
    beta: float | None
    k: int | None
    satisfied: bool
    range_ok: bool | None = None
    case: str | None = None


def apriori_sides(
    u: GridField,
    psi: GridField,
    alpha: float,
    epsilon: float,
    k: int,
    nl: NonlinearityEval,
    e,
    g: GridField | None = None,
    c_const: float = 1.0,
    truncated: bool = True,
) -> CaccioppoliReport:
    """Evaluate both sides of the truncated a priori estimate:

        LHS = int g u f'(u) b_k(u) psi^q
        RHS = C sum_i int u^{p_i-alpha-1} |D_i psi|^{p_i} psi^{q-p_i}
              - eps_coef * int g f(u) b_k(u) psi^q

    with g = 1 when no weight is given.  With `truncated=False` the pure
    power u^-alpha replaces b_k(u) (the inactive-truncation reference used
    for consistency checks).  The constant C is caller-supplied: it is
    existential, not computable.
    """
    grid = u.grid
    grid.check_dim(e.p)
    if not alpha > e.p_max - 1:
        raise ValidationError(f"alpha = {alpha} must exceed p_N - 1 = {e.p_max - 1}")
    coef = epsilon_coefficient(alpha, epsilon, e.N, e.q)
    _require_cutoff(psi)
    support = psi.values > 0
    _require_positive_on_support(u, support)

    u_safe = np.where(support, u.values, 1.0)
    if truncated:
        bk = b_eval(TruncationPair(k=k, alpha=alpha), u_safe)
    else:
        bk = u_safe ** (-alpha)
    psi_q = np.where(support, psi.values, 0.0) ** e.q
    weight = g.values if g is not None else 1.0

    lhs_vals = np.where(support, u_safe * nl.fprime(u_safe) * bk * psi_q * weight, 0.0)
    f_vals = np.where(support, nl.f(u_safe) * bk * psi_q * weight, 0.0)
    lhs = integrate(GridField(grid, lhs_vals))
    f_term = integrate(GridField(grid, f_vals))

    grad_term = 0.0
    for axis, p_i in enumerate(e.p):
        dpsi = axis_diff(psi, axis)
        psi_f = face_average(psi, axis)
        u_f = face_average(u, axis)
        on = psi_f > 0
        if np.any(u_f[on] <= 0):
            raise ValidationError("face-averaged u must stay positive on supp psi")
        u_f = np.where(on, u_f, 1.0)
        psi_f = np.where(on, psi_f, 1.0)
        integrand = np.where(
            on,
            u_f ** (p_i - alpha - 1.0) * np.abs(dpsi) ** p_i * psi_f ** (e.q - p_i),
            0.0,
        )
        grad_term += face_integral(integrand, grid, axis)

    rhs = c_const * grad_term - coef * f_term
    return CaccioppoliReport(
        lhs=lhs,
        rhs=rhs,
        alpha=alpha,
        epsilon=epsilon,
        beta=None,
        k=k if truncated else None,
        satisfied=lhs <= rhs,
    )


# ---------------------------------------------------------------------------
# cutoff corollaries
# ---------------------------------------------------------------------------

def _log_quotient_integral(w, g_vals, psi_vals, u_vals, big_e: float) -> float:
    """int g (psi/u)^E via log-space accumulation (E can be large), from the
    node weights `w` and the values at the nodes where the integral lives
    (w > 0 and psi > 0).

    The sum of the terms exp(log) repeats scipy's real `logsumexp` step by
    step, so bit for bit: exp(log1p(sum / count) + log(count) + max), the
    `count` terms tied at the max being zeroed in the shifted sum.

    A non-finite g or u there, or an integral that overflows a float, is a
    ValidationError."""
    if not (np.all(np.isfinite(g_vals)) and np.all(np.isfinite(u_vals))):
        raise ValidationError("weight and candidate must be finite where the cutoff lives")
    keep = g_vals > 0
    if not np.any(keep):
        return 0.0
    if np.any(u_vals[keep] <= 0):
        raise ValidationError("u must be positive where the cutoff lives")
    # an infinite log or sum is refused below; the terms tied at an infinite
    # max, where logs - top is NaN, are zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        logs = (
            np.log(w[keep])
            + np.log(g_vals[keep])
            + big_e * (np.log(psi_vals[keep]) - np.log(u_vals[keep]))
        )
        top = np.max(logs)
        ties = logs == top
        count = np.count_nonzero(ties)
        terms = np.exp(logs - top)
        terms[ties] = 0.0
        total = float(np.exp(np.log1p(np.sum(terms) / count) + np.log(count) + top))
    if total == math.inf:
        raise ValidationError("int g (psi/u)^E overflows a float")
    return total


def corollary_sides(
    u: GridField,
    psi: GridField,
    beta: float,
    spec: ProblemSpec,
    case: ApplicableTheorem,
    c_const: float = 1.0,
    g: GridField | None = None,
) -> CaccioppoliReport:
    """Evaluate the cutoff estimate int g (psi/u)^E <= C sum_i int |D_i psi|^{p_i theta_i'}
    of the corollary to theorem `case`, under the hypotheses `HYPOTHESES[case]`
    (THM3_4 also needs delta = gamma); E is `lhs_power` and the p_i theta_i'
    are `axis_powers`.

    The candidate range on supp psi is checked and reported, never fatal:
    out-of-range candidates are legitimate exploratory inputs.
    """
    grid = u.grid
    e = spec.exponents
    grid.check_dim(e.p)
    if case is ApplicableTheorem.NONE:
        raise ValidationError("case None has no cutoff corollary")
    _require_in_window(beta, spec)
    _require_cutoff(psi)
    hyp = HYPOTHESES[case]
    if not isinstance(spec.kind, hyp.kind):
        needs = "an exponential" if hyp.kind is ExpSingular else "a mixed-power"
        raise ValidationError(f"case {case.value} needs {needs} problem")
    if case is ApplicableTheorem.THM3_4 and spec.kind.delta != spec.kind.gamma:
        raise ValidationError("case Thm3_4 needs delta = gamma")
    big_e = lhs_power(beta, spec, use_gamma=hyp.use_gamma)
    g_vals = g.values if g is not None else np.ones(grid.shape)

    w = grid.node_weights()
    at_psi = psi.values > 0
    at = at_psi & (w > 0)
    lhs = _log_quotient_integral(w[at], g_vals[at], psi.values[at], u.values[at], big_e)
    rhs = 0.0
    for axis, power in enumerate(axis_powers(beta, spec, use_gamma=hyp.use_gamma)):
        rhs += face_integral(np.abs(axis_diff(psi, axis)) ** power, grid, axis)
    rhs *= c_const

    return CaccioppoliReport(
        lhs=lhs,
        rhs=rhs,
        alpha=2.0 * beta + e.q - 1.0,
        epsilon=None,
        beta=beta,
        k=None,
        satisfied=lhs <= rhs,
        range_ok=bool(np.all(hyp.in_range(u.values[at_psi], spec))) if np.any(at_psi) else None,
        case=case.value,
    )


# ---------------------------------------------------------------------------
# radius sweeps and certificates
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    R: float
    lhs: float
    rhs: float
    ratio: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    firstViolatingR: float | None
    slope: float | None
    decay_exponents: tuple[float, ...]
    big_e: float
    beta: float

    def to_dict(self) -> dict:
        return report_dict(self, big_e="E")


def _sweep_balls(grid: Grid, spec: ProblemSpec, radii, c_const: float, center=None):
    """The radii as floats and the ball center of a radius sweep, after the
    checks that need no beta."""
    grid.check_dim(spec.exponents.p)
    if not 0 < c_const < math.inf:
        raise ValidationError("the estimate constant C must be finite and positive")
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    if not radii:
        raise ValidationError("need at least one radius")
    if not all(r > 0 for r in radii):
        raise ValidationError("ball radius must be positive")
    c = grid.center if center is None else tuple(center)
    for (lo, hi), ci in zip(grid.box, c):
        if ci - 2.0 * radii[-1] < lo or ci + 2.0 * radii[-1] > hi:
            raise ValidationError(
                f"2 * max radius = {2 * radii[-1]} around {c} does not fit the box {grid.box}"
            )
    return radii, c


def radius_sweep(
    u: GridField,
    g: GridField,
    spec: ProblemSpec,
    beta: float,
    radii,
    c_const: float = 1.0,
    center=None,
    use_gamma: bool = False,
) -> SweepResult:
    """Evaluate int_{B_R} g (1/u)^E against C sum_i R^{N - p_i theta_i'}
    over increasing radii.

    Returns the table, the first violating radius (if any), and the fitted
    log-log slope of LHS/RHS.  When every decay exponent is negative the
    right side shrinks relative to the ball volume, so any fixed C is
    eventually violated; that is the contradiction the sweep exhibits.
    """
    grid = u.grid
    radii, c = _sweep_balls(grid, spec, radii, c_const, center)
    r_max = radii[-1]
    _require_in_window(beta, spec)
    big_e = lhs_power(beta, spec, use_gamma=use_gamma)
    decay = decay_exponents(beta, spec, use_gamma=use_gamma)

    # A node is in a ball of radius r <= r_max only if its distance is below
    # r_max + width/2, so every ball lies in the sub-box `window` of nodes
    # within r_max + width of c along each axis.  The quadrature runs there
    # on the same node values as over the whole grid, so each lhs is bitwise
    # the full-grid value.  On a 97^3 grid the windowed distances take
    # 0.5 ms, slicing the full-grid distance and weight tensors 14 ms.
    width = max(grid.h)
    near = [np.flatnonzero(np.abs(x - ci) <= r_max + width) for x, ci in zip(grid.axes(), c)]
    window = tuple(slice(n[0], n[-1] + 1) for n in near)
    distances = grid.node_distances(c, window)
    w = grid.node_weights(window)
    g_vals, u_vals = g.values[window], u.values[window]
    live = w > 0
    ones = np.ones(distances.shape)  # psi = 1: the ball scales g

    rows: list[SweepRow] = []
    first_violating = None
    for r in radii:
        try:
            rhs = c_const * sum(r ** d for d in decay)
        except OverflowError:
            rhs = math.inf
        if not math.isfinite(rhs):
            raise ValidationError(f"C * sum_i R^(decay_i) overflows a float at R = {r}")
        ball = ball_fraction_weights(grid, r, center=c, distances=distances)
        at = (ball > 0) & live
        lhs = _log_quotient_integral(w[at], g_vals[at] * ball[at], ones[at], u_vals[at], big_e)
        rows.append(SweepRow(R=r, lhs=lhs, rhs=rhs, ratio=lhs / rhs if rhs > 0 else math.inf))
        if first_violating is None and lhs > rhs:
            first_violating = r

    slope = None
    good = [(row.R, row.ratio) for row in rows if 0 < row.ratio < math.inf]
    if len(good) >= 2:
        log_r = np.log([x for x, _ in good])
        log_ratio = np.log([y for _, y in good])
        design = np.column_stack([np.ones(len(good)), log_r])
        (_, slope_val), *_ = np.linalg.lstsq(design, log_ratio, rcond=None)
        slope = float(slope_val)

    return SweepResult(
        rows=rows,
        firstViolatingR=first_violating,
        slope=slope,
        decay_exponents=decay,
        big_e=big_e,
        beta=beta,
    )



@dataclass
class NonexistenceCertificate:
    thresholds: ThresholdReport
    theorem: ApplicableTheorem
    beta: float
    decay_exponents: tuple[float, ...]
    sweep: SweepResult
    range_ok: bool
    c_const: float
    conclusion: str

    def to_dict(self) -> dict:
        return report_dict(self, thresholds=None, theorem="theoremApplicable",
                           c_const="Cconst") | {"thresholds": self.thresholds.to_flat_dict()}


def nonexistence_certificate(
    spec: ProblemSpec,
    u: GridField,
    g: GridField,
    c_const: float = 1.0,
    radii=None,
) -> NonexistenceCertificate:
    """Bundle hypothesis certification, beta selection, and the radius sweep
    into one verdict on a candidate stable solution.

    The balls of the sweep are centered at the box center.  Raises
    HypothesisNotApplicableError when no certified case covers the
    parameter point (the gate refuses rather than sweeping); the sweep's
    inputs are checked before the gate.
    """
    grid = u.grid
    if radii is None:
        half = min(min(ci - lo, hi - ci) for (lo, hi), ci in zip(grid.box, grid.center))
        r_top = 0.499 * half
        radii = np.geomspace(r_top / 10.0, r_top, 10)
    _sweep_balls(grid, spec, radii, c_const)
    report = region_memberships(spec)
    thm = report.theoremApplicable
    if thm is ApplicableTheorem.NONE:
        raise HypothesisNotApplicableError(
            "no certified hypothesis set holds at this parameter point; certificate refused"
        )
    beta = report.selectedBeta
    hyp = HYPOTHESES[thm]
    sweep = radius_sweep(u, g, spec, beta, radii, c_const=c_const, use_gamma=hyp.use_gamma)
    range_ok = bool(np.all(hyp.in_range(u.values, spec)))
    if sweep.firstViolatingR is not None:
        conclusion = (
            f"candidate cannot satisfy the cutoff consequence of stability beyond "
            f"R = {sweep.firstViolatingR} with constant C = {c_const}"
        )
    else:
        conclusion = (
            "no violation within the swept radii; enlarge the radii or lower C "
            "(all decay exponents are negative, so a violation exists for some R)"
        )
    return NonexistenceCertificate(
        thresholds=report,
        theorem=thm,
        beta=beta,
        decay_exponents=report.decayExponents,
        sweep=sweep,
        range_ok=range_ok,
        c_const=c_const,
        conclusion=conclusion,
    )
