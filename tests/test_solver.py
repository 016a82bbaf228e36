"""Inner solves against analytic and brute-force oracles, the fixed-point
ladder properties, and the level-set extinction calculator."""

import copy
import json
import math
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisolab import solver as solver_module
from anisolab.errors import NonConvergenceError, ValidationError
from anisolab.exponents import ExponentData
from anisolab.cli import main
from anisolab.grid import (
    Grid,
    GridField,
    axis_diff,
    cutoff_profile,
    dst_solver,
    face_integral,
    level_set_measure,
    p_laplacian_apply,
    stiffness,
    weak_form_gap,
    weighted_integrate,
)
from anisolab.solver import (
    RegularizationLevel,
    _flux_weights,
    _newton_direction,
    WeightSpec,
    apply_A,
    inner_energy,
    random_bump,
    run_ladder,
    seeded_rng,
    solve_inner,
    solve_level,
    stampacchia_extinction,
    stampacchia_verify,
)

from oracles import collocation_oracle, kron_difference_matrix, rand_zero_boundary

EPS = np.finfo(float).eps


def grid1d(res=128):
    return Grid(box=((0.0, 1.0),), res=(res,))


# --- inner energy -------------------------------------------------------------

def test_inner_energy_zero():
    g = grid1d(32)
    e = ExponentData.from_p([2])
    assert inner_energy(GridField.zeros(g), GridField.constant(g, 1.0), e) == 0.0


def test_inner_energy_poisson_value_refine_and_compare():
    # minimizer of the p=2 energy with rhs=1 is x(1-x)/2; the energy value
    # converges to -1/24 under refinement
    e = ExponentData.from_p([2])
    vals = []
    for res in (64, 256, 1024):
        g = grid1d(res)
        u = solve_inner(GridField.constant(g, 1.0), e)
        vals.append(inner_energy(u, GridField.constant(g, 1.0), e))
    assert vals[-1] == pytest.approx(-1 / 24, abs=1e-7)
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[2])


def test_inner_energy_minimality():
    rng = np.random.default_rng(0)
    g = grid1d(48)
    e = ExponentData.from_p([2])
    rhs = GridField.constant(g, 1.0)
    star = solve_inner(rhs, e)
    base = inner_energy(star, rhs, e)
    for _ in range(10):
        pert = rand_zero_boundary(g, rng, scale=0.01)
        assert inner_energy(GridField(g, star.values + pert.values), rhs, e) >= base - 1e-12


# --- solve_inner ----------------------------------------------------------------

def test_solve_inner_zero_rhs():
    g = grid1d(32)
    u = solve_inner(GridField.zeros(g), ExponentData.from_p([2]))
    assert np.all(u.values == 0.0)


def test_solve_inner_p4_against_brute_force():
    e = ExponentData.from_p([4])
    coarse = grid1d(64)
    u = solve_inner(GridField.constant(coarse, 1.0), e)

    # brute force: L-BFGS on the fine-grid energy, 4x resolution
    res_f = 256
    h = 1.0 / res_f

    def pack(x):
        full = np.zeros(res_f + 1)
        full[1:-1] = x
        return full

    def fun(x):
        full = pack(x)
        d = np.diff(full) / h
        energy = h * np.sum(np.abs(d) ** 4) / 4 - h * np.sum(x)
        grad_full = np.zeros(res_f + 1)
        flux = np.abs(d) ** 2 * d
        grad_full[:-1] -= flux
        grad_full[1:] += flux
        return energy, grad_full[1:-1] - h

    x0 = np.zeros(res_f - 1)
    opt = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": 50000, "ftol": 1e-18, "gtol": 1e-12},
    )
    fine = pack(opt.x)
    assert np.max(np.abs(u.values - fine[::4])) <= 1e-3

    # cross-check both against the closed-form profile
    x = coarse.axes()[0]
    exact = 0.75 * (0.5 ** (4 / 3) - np.abs(0.5 - x) ** (4 / 3))
    assert np.max(np.abs(u.values - exact)) <= 1e-3


def test_solve_inner_energy_strictly_decreasing():
    info = {}
    g = grid1d(64)
    solve_inner(GridField.constant(g, 1.0), ExponentData.from_p([4]), info=info)
    energies = info["energies"]
    assert len(energies) >= 2
    strict = sum(1 for a, b in zip(energies, energies[1:]) if b < a)
    assert strict >= len(energies) - 2  # ties only at float resolution
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 32 * EPS * (1 + abs(a))
    # one linear solve per Newton step; 1D steps are direct banded solves
    assert info["linear_iterations"] == [0] * (info["iterations"] - 1)


def sparse_newton_reference(grid, p, source, tol=1e-12, max_newton=200):
    """Minimize sum_i (1/p_i) |K_i x|^{p_i} - G(x) over interior vectors x,
    for a convex G given by `source(x) = (G'(x), -G''(x))`, by damped Newton
    with sparse direct solves of the floored Jacobian on the Kronecker
    difference matrices K_i (independent of the package solver).  A step is
    halved until it lowers ||gradient||_2, since G need have no closed-form
    primitive."""
    mats = [kron_difference_matrix(grid, axis) for axis in range(grid.dim)]

    def gradient(x):
        flux = sum(k.T @ (np.abs(k @ x) ** (q - 2) * (k @ x)) for k, q in zip(mats, p))
        return flux - source(x)[0]

    x = np.zeros(math.prod(grid.interior_shape()))
    for _ in range(max_newton):
        g = gradient(x)
        if np.max(np.abs(g)) <= tol:
            return x
        jac = sp.diags(source(x)[1]) + sum(
            k.T @ sp.diags((q - 1) * np.maximum(np.abs(k @ x), 1e-8) ** (q - 2)) @ k
            for k, q in zip(mats, p)
        )
        d = spla.spsolve(jac.tocsc(), -g)
        step, base = 1.0, np.linalg.norm(g)
        while step > 1e-12 and np.linalg.norm(gradient(x + step * d)) >= base:
            step *= 0.5
        x = x + step * d
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize(
    "p, res",
    [((2.0, 3.0), (24, 20)), ((2.0, 3.0, 4.0), (10, 9, 8)), ((2.0, 2.0), (24, 20))],
)
def test_solve_inner_matches_sparse_newton_reference(p, res):
    g = Grid(box=((0.0, 1.0),) * len(p), res=res)
    rhs = GridField.from_function(
        g, lambda *xs: 1.0 + 0.5 * np.prod([np.sin(3.0 * x) for x in xs], axis=0)
    )
    info = {}
    u = solve_inner(rhs, ExponentData.from_p(p), info=info)
    rhs_int = rhs.values[g.interior_slices()].ravel()
    ref = sparse_newton_reference(g, p, lambda x: (rhs_int, np.zeros(x.size)))
    assert np.max(np.abs(u.values[g.interior_slices()].ravel() - ref)) <= 1e-9
    assert u.is_zero_on_boundary()
    # 2D/3D Newton systems are solved by preconditioned CG
    assert len(info["linear_iterations"]) == info["iterations"] - 1
    assert all(its > 0 for its in info["linear_iterations"])
    if all(p_i == 2.0 for p_i in p):
        # the DST preconditioner is the exact inverse of the p = 2 Jacobian
        assert info["linear_iterations"] == [1] * (info["iterations"] - 1)


def test_solve_level_matches_sparse_newton_reference_in_3d():
    # the comparison bound of `solve_level`: with the p_1 = 2 axis, the
    # secant Jacobian J of Op plus the diagonal D >= 0 of b(u) = g_n
    # e^{1/(u + s)}, which decreases in u, is an M-matrix, so the level
    # solution u and the reference differ by at most (sup|F_u| + sup|F_ref|)
    # L_1^2 / 8 on the unit box, F_u = Op(u) - b(u) and sup|F_ref| <= 1e-12
    p = (2.0, 3.0, 4.0)
    g = Grid(box=((0.0, 1.0),) * 3, res=(10, 9, 8))
    w = WeightSpec(g=GridField.from_function(
        g, lambda *xs: 1.5 + np.prod([np.sin(3.0 * x) for x in xs], axis=0)
    ))
    level = RegularizationLevel.from_weight(2, w)
    e = ExponentData.from_p(p)
    u = solve_level(level, e)
    inner = g.interior_slices()
    f_u = np.max(np.abs(p_laplacian_apply(u, e).values[inner] - level.rhs(u).values[inner]))
    g_n = level.g_n.values[inner].ravel()

    def source(x):
        # G' = g_n e^{1/(x^+ + s)} and its curvature diagonal, nonzero where x > 0
        shifted = np.maximum(x, 0.0) + level.shift
        b = g_n * np.exp(1.0 / shifted)
        return b, np.where(x > 0.0, b / shifted ** 2, 0.0)

    ref = sparse_newton_reference(g, p, source)
    assert np.max(np.abs(u.values[inner].ravel() - ref)) <= (f_u + 1e-12) / 8.0


def _newton_system(seed, smooth=True, res=48, dim=2):
    """Flux weights, a diagonal and a right side of a seeded Newton system
    on the unit box, with p = (2, 3) in 2D and (2, 3, 4) in 3D.  The field
    is smooth, prod_i sin(pi x_i) (1 + 0.3 sin(a.x + c)) with seeded a and
    c, or random node by node; the diagonal is uniform in [0, 2) node by
    node."""
    rng = np.random.default_rng(seed)
    g = Grid(box=((0.0, 1.0),) * dim, res=(res,) * dim)
    xs = g.meshgrid()
    if smooth:
        *a, c = rng.uniform(0.5, 2.0, dim + 1)
        wave = np.sin(sum(a_i * x for a_i, x in zip(a, xs)) + c)
        u = math.prod(np.sin(np.pi * x) for x in xs) * (1.0 + 0.3 * wave)
    else:
        u = rng.uniform(0.0, 1.0, g.shape)
        u[g.boundary_mask()] = 0.0
    f = GridField(g, u)
    weights = _flux_weights([axis_diff(f, axis) for axis in range(dim)], (2.0, 3.0, 4.0)[:dim])
    n = math.prod(g.interior_shape())
    return g, weights, rng.uniform(0.0, 2.0, n), rng.standard_normal(n)


def _scipy_cg(g, weights, diag, b, rtol):
    """`scipy.sparse.linalg.cg` on the `stiffness` system from x = 0, with
    its preconditioner as a LinearOperator: the reference of
    `_newton_direction`'s CG loop.  Returns x and the callback count."""
    matrix, precond = stiffness(g, weights, diag)
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    x, _ = spla.cg(matrix, b, rtol=rtol, callback=tick,
                   M=spla.LinearOperator(matrix.shape, matvec=precond, dtype=float))
    return x, count


@pytest.mark.parametrize("rtol", [1e-2, 1e-8])
@pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "rough"])
@pytest.mark.parametrize("dim, res", [(2, 24), (3, 10)], ids=["2d", "3d"])
def test_cg_loop_matches_scipy_cg_bit_for_bit(dim, res, smooth, rtol):
    g, weights, diag, b = _newton_system(6, smooth=smooth, res=res, dim=dim)
    d, iterations = _newton_direction(g, weights, b, diag=diag, rtol=rtol)
    ref, count = _scipy_cg(g, weights, diag, b, rtol)
    assert iterations == count > 0
    assert np.array_equal(d.view(np.int64), ref.view(np.int64))


def test_cg_loop_edge_cases_match_scipy_cg(monkeypatch):
    g, weights, diag, b = _newton_system(9, smooth=False, res=4, dim=3)
    # preconditioner applies, one per iteration
    applies = 0

    def counted_stiffness(*args):
        matrix, precond = stiffness(*args)

        def apply(r):
            nonlocal applies
            applies += 1
            return precond(r)

        return matrix, apply

    monkeypatch.setattr(solver_module, "stiffness", counted_stiffness)
    assert b.size == 27
    # a zero right side is its own solution, after no iteration
    d, iterations = _newton_direction(g, weights, np.zeros(b.size), diag=diag)
    assert iterations == 0 and np.array_equal(d, np.zeros(b.size))
    # rtol = 0 is never met: the loop stops at its cap of 10 n iterations.
    # Past convergence the recursive residual still falls by about a decade
    # an iteration, so b is scaled up to keep all 270 iterations finite
    # (r.z stays within 1e-211 to 1e299) rather than ending both loops in 0/0
    b = 1e150 * b
    d, iterations = _newton_direction(g, weights, b, diag=diag, rtol=0.0)
    ref, count = _scipy_cg(g, weights, diag, b, 0.0)
    assert iterations == count == applies == 10 * b.size
    assert np.all(np.isfinite(d))
    assert np.array_equal(d.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "rough"])
def test_scaled_preconditioner_is_symmetric_positive_definite(smooth):
    g, weights, diag, b = _newton_system(3, smooth=smooth, res=24)
    _, precond = stiffness(g, weights, diag)
    c = np.random.default_rng(4).standard_normal(b.size)
    cmb, bmc = float(c @ precond(b)), float(b @ precond(c))
    assert abs(cmb - bmc) <= 1e-12 * abs(cmb)
    assert float(b @ precond(b)) > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scaled_preconditioner_saves_cg_iterations_on_smooth_coefficients(seed):
    # reference: CG preconditioned by the bare mean-coefficient DST inverse;
    # measured ratios 0.56-0.63 (rtol 1e-8 and 1e-2), while on a field that
    # is random node by node scaling costs about 2x
    g, weights, diag, b = _newton_system(seed)
    rtol = 1e-8
    _, scaled = _newton_direction(g, weights, b, diag=diag, rtol=rtol)
    means = [float(np.mean(w.swapaxes(axis, -1)[1:-1])) for axis, w in enumerate(weights)]
    matrix, _ = stiffness(g, weights, diag)
    bare = dst_solver(g, means, float(np.median(diag)))
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    spla.cg(matrix, b, rtol=rtol, callback=tick,
            M=spla.LinearOperator(matrix.shape, matvec=bare, dtype=float))
    assert scaled <= 0.8 * count, (scaled, count)


@pytest.mark.parametrize(
    "p, resolutions",
    [((4.0,), (32, 64, 128, 256)), ((2.0, 3.0), (16, 32, 64)), ((2.0, 2.0, 4.0), (8, 16, 32))],
    ids=["1d", "2d", "3d"],
)
def test_solve_inner_manufactured_solution_converges(p, resolutions):
    """Manufactured solution u* = prod_i sin(pi x_i) on the unit box, with
    the analytic right side f = sum_i (p_i - 1)|d_i u*|^{p_i-2} pi^2 u*: an
    oracle that shares no discretization with the solver.  The nodal sup
    error must fall strictly under refinement at an observed order >= 1.5;
    measured orders per refinement: 1D p=(4,) 1.86, 1.88, 1.89; 2D
    p=(2,3) 1.69, 1.75; 3D p=(2,2,4) 1.72, 1.76."""
    errors = []
    for r in resolutions:
        g = Grid(box=((0.0, 1.0),) * len(p), res=(r,) * len(p))
        xs = g.meshgrid()
        sines = [np.sin(np.pi * x) for x in xs]
        exact = np.prod(sines, axis=0)
        rhs = np.zeros(g.shape)
        for i, p_i in enumerate(p):
            grad_i = np.pi * np.cos(np.pi * xs[i]) * np.prod(
                [s for j, s in enumerate(sines) if j != i], axis=0
            )
            rhs += (p_i - 1.0) * np.abs(grad_i) ** (p_i - 2.0) * np.pi ** 2 * exact
        u = solve_inner(GridField(g, rhs), ExponentData.from_p(p))
        errors.append(float(np.max(np.abs(u.values - exact))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert np.all(orders >= 1.5), orders


def test_solve_inner_failure_carries_diagnostics():
    g = grid1d(64)
    with pytest.raises(NonConvergenceError, match="in 1 Newton steps") as exc:
        solve_inner(GridField.constant(g, 1.0), ExponentData.from_p([4]), max_iter=1)
    diagnostics = exc.value.diagnostics
    assert len(diagnostics["residuals"]) == 2 and len(diagnostics["steps"]) == 1
    assert exc.value.residual == diagnostics["residuals"][-1] > 1e-8


@pytest.mark.parametrize("p, res", [((4.0,), (64,)), ((2.0, 3.0), (12, 12))])
def test_solve_inner_records_the_inner_energy(p, res):
    # the record held E/cell_volume: 64x inner_energy on 64 cells, 144x on 12^2
    g = Grid(box=((0.0, 1.0),) * len(p), res=res)
    rhs = GridField.from_function(g, lambda *xs: 1.0 + 0.5 * np.prod([np.sin(3 * x) for x in xs], 0))
    e = ExponentData.from_p(p)
    info = {}
    u = solve_inner(rhs, e, info=info)
    assert info["energies"][-1] == inner_energy(u, rhs, e)
    assert len(info["energies"]) == len(info["residuals"]) == info["iterations"]
    assert len(info["steps"]) == info["iterations"] - 1


def test_solve_inner_without_info_evaluates_no_energy(monkeypatch):
    def refuse(*args):
        raise AssertionError("an energy was evaluated")

    monkeypatch.setattr(solver_module, "inner_energy", refuse)
    g = grid1d(64)
    u = solve_inner(GridField.constant(g, 1.0), ExponentData.from_p([4]))
    assert np.max(u.values) > 0


def test_solve_level_info_holds_exactly_the_documented_keys():
    g = Grid(box=((0.0, 1.0),) * 2, res=(12, 12))
    level = RegularizationLevel.from_weight(2, WeightSpec(g=GridField.constant(g, 1.0)))
    for p in ((2.0, 3.0), (3.0, 3.0)):
        info = {}
        solve_level(level, ExponentData.from_p(p), info=info)
        assert set(info) == {"residual", "certificate", "iterations", "residuals", "steps",
                             "linear_iterations"}
        assert info["iterations"] == len(info["residuals"]) == len(info["steps"]) + 1


def test_failed_solves_leave_their_partial_record_in_info():
    g = grid1d(64)
    e = ExponentData.from_p([4])
    level = RegularizationLevel.from_weight(2, WeightSpec(g=GridField.constant(g, 1.0)))
    for solve in (lambda info: solve_inner(GridField.constant(g, 1.0), e, max_iter=1, info=info),
                  lambda info: solve_level(level, e, max_outer=1, info=info)):
        info = {}
        with pytest.raises(NonConvergenceError, match="in 1 Newton steps") as exc:
            solve(info)
        assert info["residuals"] == exc.value.diagnostics["residuals"]
        assert len(info["residuals"]) == info["iterations"] == 2 and len(info["steps"]) == 1
        assert "residual" not in info


def test_failed_solve_carries_its_whole_newton_history():
    # p = 8 on 64 cells takes 13 Newton steps, so a cap of 12 fails after more than 10
    info = {}
    with pytest.raises(NonConvergenceError, match="in 12 Newton steps") as exc:
        solve_inner(GridField.constant(grid1d(64), 1.0), ExponentData.from_p([8]), max_iter=12,
                    info=info)
    assert len(info["steps"]) == 12
    assert exc.value.diagnostics == {"residuals": info["residuals"], "steps": info["steps"]}


def test_the_smallest_normal_tolerance_is_accepted():
    # the floor of `_tolerance` is itself a tolerance (below it, see test_cli.py _DOMAINS)
    g = grid1d(16)
    with pytest.raises(NonConvergenceError, match="did not reach tol=2.2250738585072014e-308"):
        solve_inner(GridField.constant(g, 1.0), ExponentData.from_p([3]), tol=sys.float_info.min,
                    max_iter=2)


def test_solve_level_refuses_a_derived_tolerance_that_underflows():
    # tol_fix 1e-300 over L = 1e5 asks the Newton loop for 8e-310; a side of
    # 1e155 overflowed L^2 (an OverflowError) and now underflows the tolerance to 0
    for side, tol_fix in ((1e5, 1e-300), (1e155, 1e-8)):
        g = Grid(box=((0.0, side),), res=(8,))
        level = RegularizationLevel.from_weight(1, WeightSpec(g=GridField.constant(g, 1.0)))
        with pytest.raises(ValidationError, match=rf"^8 tol_fix / L\^2 \(tol_fix = {tol_fix}"):
            solve_level(level, ExponentData.from_p([2]), tol_fix=tol_fix)


def test_solve_inner_uniqueness_proxy():
    rng = np.random.default_rng(42)
    g = grid1d(96)
    e = ExponentData.from_p([3])
    rhs = GridField.from_function(g, lambda x: 1.0 + np.sin(2 * np.pi * x))
    tol = 1e-8
    a = solve_inner(rhs, e, tol=tol, x0=rand_zero_boundary(g, rng, 0.3))
    b = solve_inner(rhs, e, tol=tol, x0=rand_zero_boundary(g, rng, 0.3))
    assert np.max(np.abs(a.values - b.values)) <= 10 * tol


# --- the regularized map ---------------------------------------------------------

def test_apply_A_zero_weight():
    g = grid1d(32)
    e = ExponentData.from_p([2])
    level = RegularizationLevel(n=1, g_n=GridField.zeros(g), shift=1.0)
    out = apply_A(GridField.constant(g, 5.0).zeroed_boundary(), level, e)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_apply_A_constant_rhs_case():
    # v = 0, n = 1, g = 1: rhs = e everywhere, so the solve is e * x(1-x)/2
    # (exact for the 3-point stencil on quadratics)
    g = grid1d(128)
    e = ExponentData.from_p([2])
    w = WeightSpec(g=GridField.constant(g, 1.0))
    level = RegularizationLevel.from_weight(1, w)
    out = apply_A(GridField.zeros(g), level, e)
    x = g.axes()[0]
    expect = np.e * 0.5 * x * (1 - x)
    assert np.max(np.abs(out.values - expect)) <= 1e-9


def test_apply_A_order_reversing():
    rng = np.random.default_rng(1)
    g = grid1d(48)
    e = ExponentData.from_p([2])
    w = WeightSpec(g=GridField.constant(g, 1.0))
    level = RegularizationLevel.from_weight(2, w)
    for _ in range(5):
        v1 = GridField(g, np.abs(rand_zero_boundary(g, rng).values))
        bumpvals = np.abs(rand_zero_boundary(g, rng).values)
        v2 = GridField(g, v1.values + bumpvals)
        a1 = apply_A(v1, level, e)
        a2 = apply_A(v2, level, e)
        assert np.min(a1.values - a2.values) >= -1e-9


# --- level solve -------------------------------------------------------------------

def test_solve_level_zero_weight():
    g = grid1d(32)
    e = ExponentData.from_p([2])
    level = RegularizationLevel(n=1, g_n=GridField.zeros(g), shift=1.0)
    info = {}
    u = solve_level(level, e, info=info)
    assert np.all(u.values == 0.0)
    assert info["iterations"] == 1


@pytest.mark.parametrize(
    "p, res",
    [((2.0, 3.0), (24, 20)), ((2.0, 2.0, 3.0), (10, 9, 8))],
)
def test_solve_level_certified_gap_and_level_equation(p, res):
    g = Grid(box=((0.0, 1.0),) * len(p), res=res)
    w = WeightSpec(g=GridField.from_function(
        g, lambda *xs: 1.5 + np.prod([np.sin(3.0 * x) for x in xs], axis=0)
    ))
    e = ExponentData.from_p(p)
    tol_fix = 1e-8
    inner = g.interior_slices()
    u = None
    for n in (1, 2, 3):
        level = RegularizationLevel.from_weight(n, w)
        info = {}
        u = solve_level(level, e, tol_fix=tol_fix, u0=u, info=info)
        # the reported gap is certified, not zero by construction
        assert 0.0 < info["residual"] <= tol_fix
        assert info["residuals"][-1] <= 1e-8
        assert len(info["residuals"]) == info["iterations"]
        assert len(info["linear_iterations"]) == info["iterations"] - 1
        assert all(its > 0 for its in info["linear_iterations"])
        # an independent cold application of the map at the returned field
        cold_gap = np.max(np.abs(apply_A(u, level, e).values - u.values))
        assert cold_gap <= tol_fix
        # the level equation on interior nodes, with the full-array operator
        rhs = level.g_n.values * np.exp(1.0 / (np.abs(u.values) + level.shift))
        resid = np.max(np.abs(p_laplacian_apply(u, e).values[inner] - rhs[inner]))
        assert resid <= tol_fix * (1.0 + np.max(rhs[inner]) * n ** 2)


@pytest.mark.parametrize(
    "p, box, res, tol_fix",
    [
        ((2.0, 3.0), ((0.0, 2.0), (0.0, 1.5)), (24, 18), 1e-8),
        ((2.0, 2.0, 4.0), ((0.0, 1.0),) * 3, (8, 8, 8), 1e-8),
        # L_k = 3: the Newton stop tightens from 1e-8 to 8 tol_fix / 9
        ((2.0, 3.0), ((0.0, 3.0), (0.0, 1.0)), (30, 10), 1e-9),
    ],
)
def test_solve_level_comparison_bound_dominates_cold_gap(p, box, res, tol_fix):
    g = Grid(box=box, res=res)
    w = WeightSpec(g=GridField.from_function(
        g, lambda *xs: 1.5 + np.prod([np.sin(3.0 * x) for x in xs], axis=0)
    ))
    e = ExponentData.from_p(p)
    length = box[0][1] - box[0][0]  # axis 0 is the shortest p_k = 2 axis
    u = None
    for n in (1, 2, 3):
        level = RegularizationLevel.from_weight(n, w)
        info = {}
        u = solve_level(level, e, tol_fix=tol_fix, u0=u, info=info)
        assert info["certificate"] == "bound"
        assert info["residuals"][-1] <= min(1e-8, 8.0 * tol_fix / length ** 2)
        cold_gap = np.max(np.abs(apply_A(u, level, e, tol=1e-12).values - u.values))
        assert cold_gap <= info["residual"] <= tol_fix


def test_solve_level_comparison_bound_is_attained_at_zero():
    # at u = 0 the gradient F = -g_n e^n is constant, and A(0) is the
    # discrete torsion g_n e^n x (L - x)/2 with its maximum at the centre
    # node: the bound sup|F| L^2/8 equals the gap
    g = Grid(box=((0.0, 3.0),), res=(30,))
    e = ExponentData.from_p([2])
    level = RegularizationLevel.from_weight(1, WeightSpec(g=GridField.constant(g, 1.0)))
    info = {}
    u = solve_level(level, e, tol_fix=4.0, inner_tol=3.0, u0=GridField.zeros(g), info=info)
    assert np.all(u.values == 0.0) and info["certificate"] == "bound"
    cold_gap = np.max(np.abs(apply_A(u, level, e).values))
    assert info["residual"] == pytest.approx(np.e * 9.0 / 8.0, rel=1e-12)
    assert info["residual"] == pytest.approx(cold_gap, rel=1e-9)


def test_solve_level_without_p2_axis_certifies_by_cold_solve():
    g = grid1d(64)
    e = ExponentData.from_p([4])
    w = WeightSpec(g=GridField.constant(g, 1.0))
    level = RegularizationLevel.from_weight(2, w)
    info = {}
    solve_level(level, e, info=info)
    assert info["certificate"] == "solve"
    assert 0.0 < info["residual"] <= 1e-8


def test_solve_level_interior_positivity():
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(24, 24))
    e = ExponentData.from_p([2, 2])
    w = WeightSpec(g=GridField.constant(g, 1.0))
    u = solve_level(RegularizationLevel.from_weight(2, w), e)
    assert np.min(u.values[g.interior_slices()]) > 0.0


# --- ladder ---------------------------------------------------------------------

def test_run_ladder_properties():
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(32, 32))
    e = ExponentData.from_p([2, 2])
    w = WeightSpec(g=GridField.constant(g, 1.0), m=10.0)
    rep = run_ladder(5, w, e, seed=3)
    assert len(rep.levels) == 5
    assert all(r.mono_defect <= 1e-7 for r in rep.levels)
    mins = [r.interior_min for r in rep.levels]
    assert all(m > 0 for m in mins)
    assert all(b >= a - 1e-10 for a, b in zip(mins, mins[1:]))
    sups = [r.sup_norm for r in rep.levels]
    assert all(b >= a - 1e-10 for a, b in zip(sups, sups[1:]))
    assert rep.weak_residual_level_max <= 1e-6
    assert rep.uniform_bound_expected is True
    assert rep.epsilon_used > 0 and rep.epsilon_support_margin > 0
    doc = rep.to_dict()
    assert len(doc["levels"]) == 5 and "finalField" not in doc


def test_run_ladder_1d_levels_match_ode_oracle():
    # every level's fixed point matches the dense collocation solve of the
    # corresponding shifted problem
    g = grid1d(128)
    e = ExponentData.from_p([2])
    w = WeightSpec(g=GridField.constant(g, 1.0), m=10.0)
    rep = run_ladder(6, w, e)
    sups = [r.sup_norm for r in rep.levels]
    assert all(b >= a for a, b in zip(sups, sups[1:]))
    assert max(r.mono_defect for r in rep.levels) < 1e-8
    u_prev = None
    for n in (1, 3, 6):
        level = RegularizationLevel.from_weight(n, w)
        u_n = solve_level(level, e, u0=u_prev)
        oracle = collocation_oracle(8 * 128, shift=1.0 / n)
        assert np.max(np.abs(u_n.values - oracle[::8])) <= 1e-3
        u_prev = u_n


def test_run_ladder_exploratory_singular_weight():
    # weight ~ |x - x0|^-1.8 in 2D is in L^m only for small m; the report
    # flags the trend instead of asserting boundedness
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(24, 24))
    e = ExponentData.from_p([2, 2])
    d = np.maximum(g.node_distances((0.5, 0.5)), 0.5 * min(g.h))
    w = WeightSpec(g=GridField(g, d ** -1.8), m=1.0)
    rep = run_ladder(4, w, e)
    assert rep.uniform_bound_expected is False
    sups = [r.sup_norm for r in rep.levels]
    assert all(b >= a for a, b in zip(sups, sups[1:]))
    assert rep.sup_increment_ratio is not None


def test_run_ladder_3d_anisotropic():
    g = Grid(box=((0.0, 1.0),) * 3, res=(12, 12, 12))
    p = (2.0, 2.0, 3.0)
    e = ExponentData.from_p(p)
    tol_fix = 1e-8
    n_max = 3
    rep = run_ladder(n_max, WeightSpec(g=GridField.constant(g, 1.0)), e, tol_fix=tol_fix)
    assert len(rep.levels) == n_max
    for r in rep.levels:
        assert r.residual <= tol_fix
        assert r.interior_min > 0
        assert r.mono_defect <= 1e-6
    # the final field solves the level-n_max equation (g_n = min(1, n) = 1)
    # on interior nodes, recomputed with the full-array operator
    u = rep.final_field
    rhs = np.exp(1.0 / (np.abs(u.values) + 1.0 / n_max))
    inner = g.interior_slices()
    resid = np.max(np.abs(p_laplacian_apply(u, e).values[inner] - rhs[inner]))
    assert resid <= tol_fix * (1.0 + np.max(rhs[inner]) * n_max ** 2)


def test_run_ladder_zero_weight_reports_nan_limit_residual(tmp_path):
    # u = 0 for a zero weight, so the limit integrand is 0 * exp(1/0) = nan
    g = grid1d(32)
    rep = run_ladder(3, WeightSpec(g=GridField.zeros(g)), ExponentData.from_p([3]))
    assert np.isnan(rep.weak_residual_limit_max)
    assert rep.weak_residual_level_max == 0.0

    out = tmp_path / "zero"
    assert main(["solve", "--p", "3", "--box", "0,1", "--res", "32",
                 "--weight", "constant:0", "--nmax", "3", "--outdir", str(out)]) == 0
    doc = json.loads((out / "ladder_report.json").read_text())
    assert doc["weakResidualLimitMax"] is None
    assert all(lv["certificate"] == "solve" for lv in doc["levels"])
    assert doc["weakResidualLevelMax"] == 0.0


def test_run_ladder_validation():
    g = grid1d(16)
    w = WeightSpec(g=GridField.constant(g, 1.0))
    with pytest.raises(ValidationError):
        run_ladder(1, w, ExponentData.from_p([2]))
    with pytest.raises(ValidationError):
        WeightSpec(g=GridField.constant(g, -1.0))
    with pytest.raises(ValidationError):
        WeightSpec(g=GridField.constant(g, float("nan")))


# --- level-set machinery -----------------------------------------------------------

def test_stampacchia_closed_form():
    assert stampacchia_extinction(1.0, 2.0, 2.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert stampacchia_extinction(1.0, 2.0, 2.0, 3.0, 0.0) == 3.0
    d1 = stampacchia_extinction(1.0, 1.7, 2.5, 0.0, 0.8)
    d2 = stampacchia_extinction(2.0, 1.7, 2.5, 0.0, 0.8)
    assert d2 / d1 == pytest.approx(2 ** (1 / 2.5), rel=1e-12)
    with pytest.raises(ValidationError):
        stampacchia_extinction(1.0, 1.0, 2.0, 0.0, 1.0)


def test_stampacchia_verify_tracks_tight_bound():
    v = stampacchia_verify(1.0, 2.0, 2.0, 0.0, 1.0, target=1e-12)
    assert v.d == pytest.approx(4.0, abs=1e-12)
    assert v.converged and v.final_bound <= 1e-12
    assert v.max_ratio_deviation <= 1e-9


def test_level_set_decay_fit_on_ladder_field():
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(48, 48))
    e = ExponentData.from_p([2, 2])
    w = WeightSpec(g=GridField.constant(g, 1.0), m=10.0)
    rep = run_ladder(4, w, e)
    fit = rep.levelset_fit
    assert fit is not None
    assert fit.beta > 1.0
    # the fitted bound C measure(h_j)^beta / (h_{j+1} - h_j)^r dominates every
    # measured pair by construction; quality is the half-range of the residuals
    levels, measures = np.array(fit.levels), np.array(fit.measures)
    log_bound = fit.log_c + fit.beta * np.log(measures[:-1]) - fit.r * np.log(np.diff(levels))
    assert np.all(np.log(measures[1:]) <= log_bound + 1e-9)
    assert fit.residual_halfwidth < 0.5
    # measures decrease along the level ladder
    assert all(b <= a for a, b in zip(fit.measures, fit.measures[1:]))
    # a direct recomputation of one measure agrees
    mid = len(fit.levels) // 2
    assert level_set_measure(rep.final_field, fit.levels[mid]) == fit.measures[mid]


@pytest.mark.parametrize("p, res, weight", [
    ((2.0, 3.0), (10, 10), "power"),
    ((2.0, 2.0, 3.0), (8, 8, 8), "constant"),
])
def test_run_ladder_battery_equals_weak_form_gap(p, res, weight):
    # the battery sums each equation's nodal residual by parts against every
    # bump, as `weak_form_gap` does; it must give the same floats as calling
    # it per bump and right-hand side
    g = Grid(box=((0.0, 1.0),) * len(p), res=res)
    if weight == "power":
        vals = np.maximum(g.node_distances(), 0.5 * min(g.h)) ** -1.2
    else:
        vals = np.full(g.shape, 1.5)
    w = WeightSpec(g=GridField(g, vals))
    e = ExponentData.from_p(p)
    n_max, seed = 3, 12345
    rep = run_ladder(n_max, w, e, seed=seed)
    u = rep.final_field
    rhs_level = RegularizationLevel.from_weight(n_max, w).rhs(u)
    rng = np.random.default_rng(seed)
    gaps_level, gaps_limit = [0.0], [0.0]
    for _ in range(20):
        phi = random_bump(g, rng)
        support = phi.values > 0
        limit = np.zeros(g.shape)
        limit[support] = w.g.values[support] * np.exp(1.0 / u.values[support])
        gaps_level.append(abs(weak_form_gap(u, phi, rhs_level, e.p)))
        gaps_limit.append(abs(weak_form_gap(u, phi, GridField(g, limit), e.p)))
    assert rep.weak_residual_level_max == float(np.max(gaps_level))
    assert rep.weak_residual_limit_max == float(np.max(gaps_limit))
    assert rep.weak_residual_limit_max > 0.0


@pytest.mark.parametrize("box, res, clamped", [
    (((-1.3, 2.7),), (37,), False),
    (((0.1, 1.0), (-1.0, np.pi)), (30, 2), True),
    (((-4.2, 4.25), (0.3, 7.0), (-1e-3, 2.0)), (17, 9, 12), False),
    (((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)), (2, 17, 12), True),
], ids=["1d", "2d-res2", "3d", "3d-res2"])
def test_random_bump_equals_its_full_grid_formula(box, res, clamped):
    # the bump is drawn on a window around its support; its reference is the
    # profile over every node, at the radius and centre drawn from a copy of
    # the same generator (on a res-2 axis the centre is the box middle),
    # the centre moved to the node nearest to it
    g = Grid(box=box, res=res)
    rng = np.random.default_rng(11)
    seen_clamped = False
    for _ in range(30):
        twin = copy.deepcopy(rng)
        phi = random_bump(g, rng)
        rho = (0.10 + 0.15 * twin.random()) * min(hi - lo for lo, hi in box)
        center = []
        for (lo, hi), step, nodes in zip(box, g.h, g.axes()):
            margin = rho + 2.0 * step
            if lo + margin >= hi - margin:
                c = 0.5 * (lo + hi)
                seen_clamped = True
            else:
                c = lo + margin + (hi - lo - 2 * margin) * twin.random()
            center.append(nodes[np.argmin(np.abs(nodes - c))])
        full = cutoff_profile(np.clip(g.node_distances(center) / rho, 0.0, 1.0))
        assert np.array_equal(phi.values.view(np.int64), full.view(np.int64))
        assert phi.is_zero_on_boundary()
        assert twin.bit_generator.state == rng.bit_generator.state
        # the centre is a node, where the bump is 1
        assert np.max(phi.values) == 1.0
    assert seen_clamped == clamped


@pytest.mark.parametrize("box, res", [
    (((0.0, 8.0), (0.0, 1.0)), (16, 16)),
    (((0.0, 4.0), (0.0, 1.0)), (8, 8)),
], ids=["8x1-16", "4x1-8"])
@pytest.mark.parametrize("seed", [0, 11])
def test_random_bumps_hold_a_node_on_elongated_boxes(box, res, seed):
    # the radius scales with the shortest side, so on the long axis a ball
    # fell between nodes: 6 and 10 of 20 bumps were zero on 8 x 1 at
    # seeds 0 and 11, 5 and 10 on 4 x 1, and the weak-form battery tested
    # fewer functions than it counts
    g = Grid(box=box, res=res)
    rng = seeded_rng(seed)
    bumps = [random_bump(g, rng) for _ in range(solver_module._N_TEST_FUNCTIONS)]
    assert len(bumps) == 20
    assert all(np.any(phi.values) and phi.is_zero_on_boundary() for phi in bumps)


def face_weak_form_gap(u, phi, rhs, p):
    """The discrete weak form by its per-axis face integrals (test-local
    reference, independent of the summation by parts):

        sum_i face_integral(|D_i u|^(p_i-2) D_i u * D_i phi) - int rhs * phi
    """
    lhs = 0.0
    for axis, p_i in enumerate(p):
        du = axis_diff(u, axis)
        lhs += face_integral(np.abs(du) ** (p_i - 2.0) * du * axis_diff(phi, axis), u.grid, axis)
    return lhs - weighted_integrate(rhs, phi)


def power_weight(g):
    return GridField(g, np.maximum(g.node_distances(), 0.5 * min(g.h)) ** -1.2)


_SBP_CASES = pytest.mark.parametrize("p, res", [
    ((3.0,), (40,)),
    ((2.0, 3.0), (16, 12)),
    ((2.0, 3.0, 4.0), (8, 9, 10)),
], ids=["1d", "2d", "3d"])


@_SBP_CASES
def test_weak_form_gap_equals_face_integral_reference(p, res):
    # for a phi vanishing on the boundary ring, summation by parts makes the
    # node sum of (Op(u) - rhs) phi the face-integral weak form
    g = Grid(box=tuple((0.0, 1.0 + 0.5 * axis) for axis in range(len(p))), res=res)
    rng = np.random.default_rng(5)
    u = GridField(g, 1.0 + rng.uniform(0.0, 0.5, g.shape))
    weight = power_weight(g)
    rhs = weight.like(weight.values * np.exp(1.0 / u.values))
    signed = rand_zero_boundary(g, rng)
    for phi in [random_bump(g, rng) for _ in range(4)] + [signed]:
        ref = face_weak_form_gap(u, phi, rhs, p)
        assert weak_form_gap(u, phi, rhs, p) == pytest.approx(ref, rel=1e-12)
    # the identity needs phi = 0 on the boundary ring: one node off it is refused
    bad = signed.values.copy()
    bad[(0,) * g.dim] = 1e-3
    with pytest.raises(ValidationError, match="vanish on the boundary ring"):
        weak_form_gap(u, signed.like(bad), rhs, p)


@_SBP_CASES
def test_run_ladder_battery_equals_face_integral_reference(p, res):
    g = Grid(box=((0.0, 1.0),) * len(p), res=res)
    w = WeightSpec(g=power_weight(g))
    e = ExponentData.from_p(p)
    n_max, seed = 2, 7
    rep = run_ladder(n_max, w, e, seed=seed)
    u = rep.final_field
    rhs_level = RegularizationLevel.from_weight(n_max, w).rhs(u)
    # u = 0 on the boundary ring, where every bump vanishes: any finite value
    # stands in for g e^{1/u} there
    rhs_limit = w.g.like(w.g.values * np.exp(1.0 / np.where(u.values > 0, u.values, 1.0)))
    rng = np.random.default_rng(seed)
    bumps = [random_bump(g, rng) for _ in range(20)]
    ref_level = max(abs(face_weak_form_gap(u, phi, rhs_level, p)) for phi in bumps)
    ref_limit = max(abs(face_weak_form_gap(u, phi, rhs_limit, p)) for phi in bumps)
    assert abs(rep.weak_residual_level_max - ref_level) <= 1e-12 * (1.0 + ref_level)
    assert abs(rep.weak_residual_limit_max - ref_limit) <= 1e-12 * (1.0 + ref_limit)
    assert ref_limit > 0.0
