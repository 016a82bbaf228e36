"""Stability evaluators against analytic eigenvalues, radial quadrature
oracles, and the sweep/certificate machinery."""

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from anisolab import stability
from anisolab.errors import HypothesisNotApplicableError, NonConvergenceError, ValidationError
from anisolab.exponents import (
    ApplicableTheorem,
    ExponentData,
    ExpSingular,
    MixedPower,
    ProblemSpec,
    axis_powers,
    beta_window,
    decay_exponents,
    lhs_power,
    select_beta,
)
from anisolab.grid import (
    CutoffSpec,
    Grid,
    GridField,
    axis_diff,
    ball_fraction_weights,
    embed_interior,
    face_integral,
    integrate,
    make_cutoff,
    weak_form_gap,
)
from anisolab.stability import (
    NonlinearityEval,
    StabilityVariant,
    apriori_sides,
    corollary_sides,
    epsilon_coefficient,
    _log_quotient_integral,
    nonexistence_certificate,
    radius_sweep,
    stability_gap,
    stability_index,
    weak_residual,
)
from anisolab.truncations import TruncationPair, b_eval

from oracles import kron_difference_matrix


def smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return 1 - 3 * s ** 2 + 2 * s ** 3


def compact_bump(grid, center, rho):
    d = grid.node_distances(center)
    return GridField(grid, smoothstep(d / rho))


# --- weak residual ------------------------------------------------------------

def test_weak_residual_zero_phi():
    g = Grid(box=((0.0, 1.0),), res=(32,))
    u = GridField.constant(g, 1.0)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    ones = GridField.constant(g, 1.0)
    assert weak_residual(u, GridField.zeros(g), nl, ones, (2.0,)) == 0.0


def test_weak_residual_constant_candidate():
    # gradient term vanishes; residual = (c^-d + c^-g) * int(phi) for g = 1
    g = Grid(box=((0.0, 1.0),), res=(200,))
    c, d_exp, g_exp = 0.7, 1.5, 2.5
    u = GridField.constant(g, c)
    nl = NonlinearityEval.mixed_power(d_exp, g_exp)
    phi = compact_bump(g, (0.5,), 0.3)
    got = weak_residual(u, phi, nl, GridField.constant(g, 1.0), (2.0,))
    expect = (c ** -d_exp + c ** -g_exp) * integrate(phi)
    assert got == pytest.approx(expect, rel=1e-12)


def test_weak_residual_of_bvp_oracle_solution():
    # independent Newton solve of -u'' = g*f(u), u = 1 on the boundary, then
    # the discrete weak form must balance for compactly supported phi
    res = 128
    g = Grid(box=((0.0, 1.0),), res=(res,))
    h = g.h[0]
    gscale = 0.05
    nl = NonlinearityEval.mixed_power(0.5, 0.5)
    n = res - 1
    u_int = np.ones(n)
    for _ in range(40):
        u_full = np.concatenate([[1.0], u_int, [1.0]])
        lap = (-u_full[:-2] + 2 * u_full[1:-1] - u_full[2:]) / h ** 2
        r = lap - gscale * nl.f(u_int)
        if np.max(np.abs(r)) < 1e-12:
            break
        jac = (
            np.diag(np.full(n, 2 / h ** 2) - gscale * nl.fprime(u_int))
            + np.diag(np.full(n - 1, -1 / h ** 2), 1)
            + np.diag(np.full(n - 1, -1 / h ** 2), -1)
        )
        u_int = u_int + np.linalg.solve(jac, -r)
    u = GridField(g, np.concatenate([[1.0], u_int, [1.0]]))
    assert np.min(u.values) > 0
    rng = np.random.default_rng(8)
    for _ in range(5):
        center = (0.3 + 0.4 * rng.random(),)
        phi = compact_bump(g, center, 0.15)
        resid = weak_residual(u, phi, nl, GridField.constant(g, gscale), (2.0,))
        assert abs(resid) <= 1e-9


def test_weak_residual_singularity_guard():
    g = Grid(box=((0.0, 1.0),), res=(32,))
    u = GridField.zeros(g)
    nl = NonlinearityEval.mixed_power(1.0, 1.0)
    phi = compact_bump(g, (0.5,), 0.2)
    with pytest.raises(ValidationError, match="u must be positive wherever the test function"):
        weak_residual(u, phi, nl, GridField.constant(g, 1.0), (2.0,))
    with pytest.raises(ValidationError):
        weak_residual(
            GridField.constant(g, 1.0),
            GridField.constant(g, 1.0),  # no compact support
            nl,
            GridField.constant(g, 1.0),
            (2.0,),
        )


# --- stability gap --------------------------------------------------------------

def sine_eigenfunction(grid):
    # sin(pi) rounds to ~1e-16; clamp the ring so the support is exact
    return GridField.from_function(grid, np.sin).zeroed_boundary()


def test_stability_gap_eigenfunction_crossing():
    n = 256
    g = Grid(box=((0.0, np.pi),), res=(n,))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    phi = sine_eigenfunction(g)
    for lam in (0.5, 1.5):
        nl = NonlinearityEval.constant_slope(lam)
        gap = stability_gap(u, phi, nl, ones, (2.0,), StabilityVariant.AS_WRITTEN)
        expect = (1 - lam) * np.pi / 2
        assert gap == pytest.approx(expect, abs=5e-4 + 2e-4 * abs(expect))


def test_stability_gap_mixed_power_unstable_constant():
    # delta = gamma = 1, u = 1: f'(1) = 2, so the gap at sin is (1-2)*pi/2 < 0
    n = 512
    g = Grid(box=((0.0, np.pi),), res=(n,))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    nl = NonlinearityEval.mixed_power(1.0, 1.0)
    gap = stability_gap(u, sine_eigenfunction(g), nl, ones, (2.0,))
    assert gap == pytest.approx(-np.pi / 2, abs=1e-3)
    assert gap < 0


def test_stability_gap_homogeneity():
    g = Grid(box=((0.0, np.pi),), res=(64,))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    phi = sine_eigenfunction(g)
    base = stability_gap(u, phi, nl, ones, (2.0,))
    for lam in (0.5, 2.0, -3.0):
        scaled = stability_gap(u, GridField(g, lam * phi.values), nl, ones, (2.0,))
        assert scaled == pytest.approx(lam ** 2 * base, rel=1e-12)


# --- stability index -------------------------------------------------------------

def dense_gap_pencil(u, nl, g, p, variant, sparse=False):
    """The interior matrix of the gap form, sum_i K_i^T diag(w_i) K_i -
    diag(W f'(u)) with w_i = (p_i - 1)|D_i u|^(p_i - 2), from the Kronecker
    difference matrices K_i (independent of the assembly under test); a
    dense array, or with `sparse` a scipy.sparse matrix."""
    grid = u.grid
    pot = nl.fprime(u.values)
    if variant is StabilityVariant.WEIGHTED_BY_G:
        pot = pot * g.values
    mat = -sp.diags(pot[grid.interior_slices()].ravel())
    for axis, p_i in enumerate(p):
        transverse = tuple(slice(None) if j == axis else slice(1, -1) for j in range(grid.dim))
        du = (np.diff(u.values, axis=axis) / grid.h[axis])[transverse].ravel()
        k = kron_difference_matrix(grid, axis)
        mat = mat + k.T @ sp.diags((p_i - 1.0) * np.abs(du) ** (p_i - 2.0)) @ k
    return mat if sparse else mat.toarray()


def _sine_candidate(grid, amp, phases):
    return GridField.from_function(
        grid, lambda *xs: 1.0 + amp * np.prod([np.sin(x + ph) for x, ph in zip(xs, phases)],
                                            axis=0))


def _random_pencil_case(seed):
    """A seeded small pencil: even seeds 2D (6..16 cells an axis), odd 3D
    (4..8), seeds "1d-k" 1D (6..64 cells), p_i drawn from {2, 2.5, 3, 4} in
    any order, delta <= gamma in [0.5, 2] and a sine candidate on [0, pi]^N."""
    if isinstance(seed, str):
        rng, dim = np.random.default_rng([1, int(seed[3:])]), 1
    else:
        rng, dim = np.random.default_rng(seed), 2 + seed % 2
    cells = {1: (6, 65, 1), 2: (6, 17, 2), 3: (4, 9, 3)}[dim]
    res = tuple(int(r) for r in rng.integers(*cells))
    p = tuple(float(x) for x in rng.choice([2.0, 2.5, 3.0, 4.0], dim))
    delta, gamma = sorted(rng.uniform(0.5, 2.0, 2))
    grid = Grid(box=((0.0, np.pi),) * dim, res=res)
    u = _sine_candidate(grid, rng.uniform(0.1, 0.4), rng.uniform(0.0, 0.3, dim))
    return u, NonlinearityEval.mixed_power(delta, gamma), p


def _close_pair_case():
    """The 8x9x9 p = (4, 2, 4) pencil whose two lowest eigenvalues are
    3.3e-3 apart, a tenth of the distance to the third: the slow case of a
    block of one."""
    grid = Grid(box=((0.0, np.pi),) * 3, res=(8, 9, 9))
    u = _sine_candidate(grid, 0.3447560662364597,
                        (0.0008215500510444284, 0.2572212829762708, 0.010075672591639306))
    delta = 1.5944831696449162
    return u, NonlinearityEval.mixed_power(delta, delta), (4.0, 2.0, 4.0)


def _sine_p24_case(n):
    """The 2D p = (2, 4) candidate 1 + 0.2 sin(x) sin(y + 0.1) on [0, pi]^2
    with delta = gamma = 1 and weight 1."""
    grid = Grid(box=((0.0, np.pi),) * 2, res=(n, n))
    return _sine_candidate(grid, 0.2, (0.0, 0.1)), NonlinearityEval.mixed_power(1.0, 1.0)


def _restart_case():
    """The 24^2 candidate 1 + 0.2 sin(pi x / 3) on [0, 3]^2, constant along
    the p = 3 axis y: its lines along x decouple, all with one pencil."""
    grid = Grid(box=((0.0, 3.0),) * 2, res=(24, 24))
    return GridField.from_function(grid, lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x / 3.0) + 0 * y)


def _restart_keeps_the_start_profile(rep, eigs):
    # the sine start spans only the lines' shared profile along y, where a
    # Krylov space turns invariant; the loop stays in that profile, so the
    # minimizer's lines along y are the start's sine
    lines = rep.minimizer.values[1:-1, 1:-1]
    sine = np.sin(np.pi * np.arange(1, 24) / 24)
    amplitude = lines @ sine / (sine @ sine)
    return (rep.iterations <= 10
            and np.max(np.abs(lines - amplitude[:, None] * sine)) <= 1e-10 * np.max(np.abs(lines)))


def _as_written(u, nl, p):
    return u, nl, GridField.constant(u.grid, 1.0), p, StabilityVariant.AS_WRITTEN


def _lowest_sine_eigenvalue(n):
    """The lowest eigenvalue (2/h^2)(1 - cos h) of the 3-point Dirichlet
    Laplacian on [0, pi] with n cells."""
    h = np.pi / n
    return (2 / h ** 2) * (1 - np.cos(h))


def _constant_slope_case(n, lam):
    # u = 1 and f' = lam on [0, pi], p = 2: the Laplacian's pencil minus lam
    grid = Grid(box=((0.0, np.pi),), res=(n,))
    return _as_written(GridField.constant(grid, 1.0), NonlinearityEval.constant_slope(lam), (2.0,))


def _shift_case(p, res, c):
    # f'(c) = 2/c^2 >= 2^53 lost the 1 of the shift -f'(c) - 1, and a
    # constant candidate with all p_i > 2 has zero flux weights, so the
    # shifted pencil was 0: a 0/0 in the preconditioner scaling, a singular
    # factor.  The index is -f'(c), with its eigenvalue multiple
    grid = Grid(box=((0.0, 3.0),) * len(p), res=res)
    return _as_written(GridField.constant(grid, c), NonlinearityEval.mixed_power(1.0, 1.0), p)


def _weighted_case(box, res, p, candidate, weight):
    # a nonconstant candidate and weight under WeightedByG, delta = 1, gamma = 2
    grid = Grid(box=box, res=res)
    return (GridField.from_function(grid, candidate), NonlinearityEval.mixed_power(1.0, 2.0),
            GridField.from_function(grid, weight), p, StabilityVariant.WEIGHTED_BY_G)


class IndexRow(NamedTuple):
    """One `stability_index` run: `case()` gives its (u, nl, g, p, variant).
    Its oracle is the closed-form `gap`, else the lowest eigenvalue of
    `dense_gap_pencil`, within `tol * max(1, |oracle|)`; `check(rep, eigs)`,
    with eigs the pencil's lowest three eigenvalues (None with a `gap`),
    holds what else the row checks."""

    id: str | None
    case: Callable
    gap: float | None = None
    tol: float = 1e-8
    check: Callable | None = None


_SHIFT_GRIDS = {"1d-one-node": ((3.0,), (2,)), "1d": ((3.0,), (8,)),
                "2d-one-node": ((3.0, 4.0), (2, 2)), "2d": ((3.0, 4.0), (6, 6)),
                "3d": ((3.0, 3.0, 4.0), (4, 4, 4))}


def _small_grid_case(res):
    # 1-4 unknowns, which scipy's lobpcg hands to a dense eigensolver
    grid = Grid(box=((0.0, 1.0),) * len(res), res=res)
    u = GridField.from_function(grid, lambda *xs: 1.0 + 0.3 * np.prod(xs, axis=0))
    return _as_written(u, NonlinearityEval.mixed_power(1.0, 2.0), (2.0,) * len(res))


def _box3_case(res, p):
    # a sine candidate on [0, 3]^N with delta = 1, gamma = 1.5
    grid = Grid(box=((0.0, 3.0),) * len(res), res=res)
    return _as_written(_sine_candidate(grid, 0.2, (0.1,) * len(res)),
                       NonlinearityEval.mixed_power(1.0, 1.5), p)


# Every stability index oracle, one row per run, under the name of the test
# that runs it: rows without an id run as one item
INDEX_CASES: dict[str, list[IndexRow]] = {
    "test_stability_index_nonnegative_for_frozen_zero": [
        IndexRow(None, lambda: _constant_slope_case(48, 0.0), gap=_lowest_sine_eigenvalue(48))],
    # f' = lambda_1 + d: the index changes sign at the discrete eigenvalue
    "test_stability_index_sign_crossing_at_discrete_eigenvalue": [
        IndexRow(None, lambda d=d: _constant_slope_case(64, _lowest_sine_eigenvalue(64) + d),
                 gap=-d, tol=1e-9) for d in (-1e-4, 1e-4, 0.0)],
    "test_stability_index_matches_dense_eigensolve": [IndexRow(None, lambda: _weighted_case(
        ((0.0, 1.0),) * 2, (16, 16), (2.0, 2.0),
        lambda x, y: 2.0 + np.sin(np.pi * x) * np.sin(2 * np.pi * y),
        lambda x, y: 1.0 + 0.5 * x * y))],
    "test_stability_shift_keeps_the_pencil_definite_past_2_53": [
        IndexRow(f"{c}-{name}", lambda p=p, res=res, c=c: _shift_case(p, res, c),
                 gap=-2.0 / c ** 2, tol=1e-12)
        for c in (1e-8, 1e-100) for name, (p, res) in _SHIFT_GRIDS.items()],
    "test_stability_index_minimizer_reproduces_gap": [IndexRow(
        None, lambda: _constant_slope_case(40, 0.7), gap=_lowest_sine_eigenvalue(40) - 0.7)],
    # p = (2,3,4) on an unequal box
    "test_stability_index_3d_anisotropic_matches_dense_eigensolve": [IndexRow(
        None, lambda: _weighted_case(
            ((0.0, 1.0), (0.0, 1.5), (0.0, 2.0)), (8, 8, 8), (2.0, 3.0, 4.0),
            lambda x, y, z: 1.5 + np.sin(np.pi * x) * y * (2.0 - z) + 0.3 * x,
            lambda x, y, z: 1.0 + 0.5 * x * y + 0.2 * z))],
    # the p = (2,3,4) point at 12^3 whose two lowest eigenvalues are 4e-4
    # apart, where a Rayleigh-quotient-change stop used to stagnate
    "test_stability_index_resolves_clustered_spectrum": [IndexRow(
        None, lambda: _as_written(
            _sine_candidate(Grid(box=((0.0, np.pi),) * 3, res=(12, 12, 12)), 0.2, (0.0,) * 3),
            NonlinearityEval.mixed_power(1.0, 1.0), (2.0, 3.0, 4.0)),
        check=lambda rep, eigs: eigs[1] - eigs[0] < 1e-3)],
    "test_stability_index_small_grid_takes_dense_path": [
        IndexRow(f"res{i}", lambda res=res: _small_grid_case(res), tol=1e-10)
        for i, res in enumerate([(3, 3), (2,), (5,), (2, 4), (2, 2, 3)])],
    "test_stability_index_matches_dense_oracle_on_seeded_pencils": [
        IndexRow(str(seed), lambda seed=seed: _as_written(*_random_pencil_case(seed)))
        for seed in [*range(12), *(f"1d-{k}" for k in range(6))]] + [
        IndexRow("close-pair", lambda: _as_written(*_close_pair_case()),
                 check=lambda rep, eigs: eigs[1] - eigs[0] < 0.1 * (eigs[2] - eigs[0]))],
    "test_stability_index_on_a_grid_with_one_interior_node_along_an_axis": [
        IndexRow(f"res{i}", lambda res=res: _box3_case(res, (2.0, 3.0, 2.5)[:len(res)]))
        for i, res in enumerate([(8, 2), (2, 8), (6, 6, 2)])],
    "test_stability_index_restart_case_matches_dense_oracle": [IndexRow(None, lambda: _as_written(
        _restart_case(), NonlinearityEval.mixed_power(1.0, 1.0), (2.0, 3.0)),
        check=_restart_keeps_the_start_profile)],
    "test_stability_index_on_five_interior_nodes_counts_factor_solves": [IndexRow(
        None, lambda: _box3_case((6,), (3.0,)), check=lambda rep, eigs: rep.iterations > 0)],
}


def _check_index(row):
    """`stability_index` against the row's oracle, its residual against the
    bound, and its minimizer: zero on the boundary, unit mass, the sign of
    its largest entry, and a Rayleigh quotient through `stability_gap` (the
    face-quadrature form) equal to the gap."""
    u, nl, g, p, variant = row.case()
    rep = stability_index(u, nl, g, p, variant=variant)
    eigs = None
    if row.gap is None:
        last = min(2, math.prod(u.grid.interior_shape()) - 1)
        eigs = scipy.linalg.eigvalsh(dense_gap_pencil(u, nl, g, p, variant),
                                     subset_by_index=[0, last])
    oracle = eigs[0] if row.gap is None else row.gap
    assert rep.gap == pytest.approx(oracle, abs=row.tol * max(1.0, abs(oracle)))
    assert rep.residual <= 1e-7 * max(1.0, abs(rep.shift))
    phi = rep.minimizer
    assert phi.is_zero_on_boundary()
    mass = integrate(GridField(u.grid, phi.values ** 2))
    assert mass == pytest.approx(1.0, rel=1e-12)
    assert phi.values.ravel()[np.argmax(np.abs(phi.values))] > 0
    quotient = stability_gap(u, phi, nl, g, p, variant) / mass
    assert quotient == pytest.approx(rep.gap, abs=1e-12 * abs(rep.shift))  # |shift| >= 1
    assert rep.to_dict()["stable"] == (rep.gap >= 0.0)
    assert row.check is None or row.check(rep, eigs)


def _index_test(rows):
    if rows[0].id is None:
        def test():
            for row in rows:
                _check_index(row)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row):
        _check_index(row)
    return test


for _name, _rows in INDEX_CASES.items():
    globals()[_name] = _index_test(_rows)


@pytest.mark.parametrize("res", [8, 12, 16])
def test_stability_index_3d_separable_candidate_is_a_1d_index_plus_laplacian_modes(res):
    # u varies along z only and p_x = p_y = 2, so the 3D pencil is the
    # Kronecker sum of the 1D p = (4,) pencil along z and the Dirichlet
    # Laplacians along x and y: its index is the 1D index (preconditioned
    # by a SuperLU factor) plus the lowest Laplacian eigenvalues
    # (4/h^2) sin^2(pi/(2 res)), an oracle for the DST-preconditioned loop
    # with anisotropic p and a non-constant candidate
    nl = NonlinearityEval.mixed_power(1.0, 1.0)

    def index(dim, p):
        grid = Grid(box=((0.0, np.pi),) * dim, res=(res,) * dim)
        u = GridField.from_function(grid, lambda *xs: 1.0 + 0.2 * np.sin(xs[-1] + 0.3))
        return stability_index(u, nl, GridField.constant(grid, 1.0), p,
                               variant=StabilityVariant.AS_WRITTEN).gap

    h = np.pi / res
    expected = index(1, (4.0,)) + 2.0 * 4.0 / h ** 2 * np.sin(np.pi / (2 * res)) ** 2
    assert index(3, (2.0, 2.0, 4.0)) == pytest.approx(expected, rel=1e-10)


def test_stability_index_minimizer_is_reproducible():
    g = Grid(box=((0.0, np.pi), (0.0, np.pi)), res=(24, 20))
    u = GridField.from_function(g, lambda x, y: 1.0 + 0.2 * np.sin(x + 0.1) * np.sin(y))
    ones = GridField.constant(g, 1.0)
    nl = NonlinearityEval.mixed_power(1.0, 1.0)

    def minimizer():
        return stability_index(
            u, nl, ones, (2.0, 3.0), variant=StabilityVariant.AS_WRITTEN
        ).minimizer.values

    first = minimizer()
    assert first.tobytes() == minimizer().tobytes()
    # unit mass norm, sign fixed by the largest-magnitude entry
    assert integrate(GridField(g, first ** 2)) == pytest.approx(1.0, rel=1e-12)
    assert first.ravel()[np.argmax(np.abs(first))] > 0
    # the lowest eigenvalue is simple: the dense eigenvector, scaled alike
    _, vecs = scipy.linalg.eigh(
        dense_gap_pencil(u, nl, ones, (2.0, 3.0), StabilityVariant.AS_WRITTEN),
        subset_by_index=[0, 0],
    )
    dense = embed_interior(g, vecs[:, 0]).values
    dense *= np.copysign(1.0 / np.sqrt(g.cell_volume), dense.ravel()[np.argmax(np.abs(dense))])
    assert np.max(np.abs(dense - first)) <= 1e-5


def test_stability_index_stops_when_the_lowest_pair_converges():
    # the 24^3 p = (2,2,2) candidate whose second Ritz pair, in a lambda_2 -
    # lambda_4 cluster 0.0045 wide, kept a block of two running all 500
    # iterations after the lowest pair converged in 12
    grid = Grid(box=((0.0, np.pi),) * 3, res=(24, 24, 24))
    u = _sine_candidate(grid, 0.23698965116962162,
                        (0.11732544196175819, 0.13136456193683962, 0.11182467092680591))
    delta = 0.8427814385891098
    rep = stability_index(u, NonlinearityEval.mixed_power(delta, delta),
                          GridField.constant(grid, 1.0), (2.0, 2.0, 2.0),
                          variant=StabilityVariant.AS_WRITTEN)
    assert rep.iterations <= 30
    assert rep.residual <= 1e-7 * max(1.0, abs(rep.shift))
    assert rep.stable


def _index_and_scipy_lobpcg(monkeypatch, u, nl, p, max_iter=1000):
    """`stability_index` (AsWritten, weight 1) and `scipy.sparse.linalg.lobpcg`
    on the shifted pencil, preconditioner, start and bound that the index
    handed to `_lobpcg_lowest` (the SuperLU solve in 1D/2D, the scaled DST
    inverse in 3D): the reference of that loop.  Returns the index's gap,
    iteration count, residual and bound (from the diagnostics where it
    raises NonConvergenceError), scipy's preconditioner count and the
    Rayleigh quotient of its vector under the unshifted pencil."""
    import scipy.sparse.linalg as spla
    seen, loop = [], stability._lobpcg_lowest

    def capture(*args):
        seen.append(args)
        return loop(*args)

    monkeypatch.setattr(stability, "_lobpcg_lowest", capture)
    try:
        rep = stability_index(u, nl, GridField.constant(u.grid, 1.0), p,
                              variant=StabilityVariant.AS_WRITTEN, max_iter=max_iter)
        out = (rep.gap, rep.iterations, rep.residual)
    except NonConvergenceError as exc:
        diag = exc.diagnostics
        out = (diag["rho"], diag["iterations"], exc.residual)
    (shifted, precond, x0, _, bound), count = seen[0], 0
    shift = -max(0.0, float(np.max(nl.fprime(u.values)[u.grid.interior_slices()]))) - 1.0

    def counted(block):
        nonlocal count
        count += 1
        return precond(block[:, 0])[:, None]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non-convergence is judged by the caller
        _, vecs = spla.lobpcg(shifted, x0[:, None], M=counted, largest=False, tol=bound,
                              maxiter=max_iter - 1)
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    return *out, bound, count, float(x @ (shifted @ x + shift * x))


def _lowest_axis_profile_case():
    """The 12^3 p = (2, 2, 3) candidate constant along z, whose flux
    weights vanish along the p = 3 axis: a multiple lowest eigenvalue."""
    grid = Grid(box=((0.0, 3.0),) * 3, res=(12, 12, 12))
    u = GridField.from_function(
        grid, lambda x, y, z: 1.0 + 0.2 * np.sin(np.pi * x / 3.0) * np.sin(np.pi * y / 3.0) + 0 * z)
    return u, (2.0, 2.0, 3.0)


@pytest.mark.parametrize("case", [
    ((2.0, 2.0, 3.0), 16, (0.0, 0.0, 0.0)),
    ((2.0, 3.0, 4.0), 12, (0.0, 0.0, 0.0)),
    ((2.0, 2.0, 2.0), 24, (0.0, 0.0, 0.0)),
    ((2.0, 3.0, 4.0), 24, (0.0, 0.1, 0.2)),
    "constant-along-z",
    ((3.0,), 64, (0.0,)),
    ((2.0, 3.0), 96, (0.1, 0.2)),
    ((2.0, 4.0), 32, (0.0, 0.1)),
    "restart",
], ids=["p223-16", "p234-12", "p222-24", "p234-24-sliver", "p223-12-constant-along-z",
        "1d-p3-64", "2d-p23-96", "2d-p24-32", "2d-p23-24-restart"])
def test_lobpcg_loop_matches_scipy_lobpcg(monkeypatch, case):
    # in 1D/2D the preconditioner is the SuperLU solve of the shifted pencil
    if case == "constant-along-z":
        u, p = _lowest_axis_profile_case()
    elif case == "restart":
        u, p = _restart_case(), (2.0, 3.0)
    else:
        p, n, phases = case
        u = _sine_candidate(Grid(box=((0.0, np.pi),) * len(p), res=(n,) * len(p)), 0.2, phases)
    gap, iterations, residual, bound, count, rho = _index_and_scipy_lobpcg(
        monkeypatch, u, NonlinearityEval.mixed_power(1.0, 1.0), p)
    assert iterations == count > 0
    assert gap == pytest.approx(rho, rel=1e-12)
    assert residual <= bound


def test_lobpcg_loop_matches_scipy_lobpcg_on_seeded_pencils(monkeypatch):
    # 13x11x13 p = (3,4,4) pencils, the shape whose four lowest eigenvalues
    # can lie within a few 1e-6 and exhaust the iteration cap
    for seed in range(50):
        rng = np.random.default_rng([3, 4, 4, seed])
        grid = Grid(box=((0.0, np.pi),) * 3, res=(13, 11, 13))
        u = _sine_candidate(grid, rng.uniform(0.1, 0.4), rng.uniform(0.0, 0.3, 3))
        nl = NonlinearityEval.mixed_power(*sorted(rng.uniform(0.5, 2.0, 2)))
        gap, iterations, residual, bound, count, rho = _index_and_scipy_lobpcg(
            monkeypatch, u, nl, (3.0, 4.0, 4.0))
        assert residual <= bound, seed
        assert 0 <= iterations - count <= 1, seed
        assert gap == pytest.approx(rho, rel=1e-12), seed


@pytest.mark.parametrize("p, n, phases", [
    ((3.0,), 64, (0.0,)), ((2.0, 4.0), 24, (0.0, 0.1)), ((2.0, 3.0, 4.0), 8, (0.0,) * 3),
], ids=["1d", "2d", "3d"])
def test_stability_index_iteration_cap_ends_in_nonconvergence(monkeypatch, p, n, phases):
    # sine candidates that take more than 3 preconditioner applications; the
    # 3D iterate at the cap has a larger residual than an earlier one, and
    # the cap returns the iterate of the smallest residual, as scipy's
    # lobpcg does
    u = _sine_candidate(Grid(box=((0.0, np.pi),) * len(p), res=(n,) * len(p)), 0.2, phases)
    nl = NonlinearityEval.mixed_power(1.0, 1.0)
    with pytest.raises(NonConvergenceError, match="LOBPCG") as exc:
        stability_index(u, nl, GridField.constant(u.grid, 1.0), p,
                        variant=StabilityVariant.AS_WRITTEN, max_iter=3)
    diag = exc.value.diagnostics
    assert set(diag) == {"rho", "iterations", "bound"}
    assert diag["iterations"] == 3
    assert np.isfinite(diag["rho"]) and exc.value.residual > diag["bound"] > 0
    gap, _, _, _, count, rho = _index_and_scipy_lobpcg(monkeypatch, u, nl, p, 3)
    assert count == 3
    assert gap == pytest.approx(rho, rel=1e-12)


def test_stability_index_solve_count_does_not_grow_with_the_2d_grid():
    # LOBPCG on the SuperLU factor takes 51, 56 and 60 solves at 32^2, 64^2
    # and 96^2 (on the DST preconditioner: 107, 232 and 219 iterations)
    p = (2.0, 4.0)
    for n in (32, 64, 96):
        u, nl = _sine_p24_case(n)
        ones = GridField.constant(u.grid, 1.0)
        rep = stability_index(u, nl, ones, p, variant=StabilityVariant.AS_WRITTEN)
        assert rep.iterations <= 71
        assert rep.residual <= 1e-7 * max(1.0, abs(rep.shift))
        assert rep.minimizer.values.shape == u.grid.shape
        if n == 32:
            (lowest,) = scipy.linalg.eigvalsh(
                dense_gap_pencil(u, nl, ones, p, StabilityVariant.AS_WRITTEN),
                subset_by_index=[0, 0],
            )
            assert rep.gap == pytest.approx(lowest, abs=1e-8 * max(1.0, abs(lowest)))
        assert not rep.stable


def test_stability_index_certifies_a_tiny_box_by_the_roundoff_floor():
    # on [0, 1e-3]^2 ||P - shift*I||_inf is about 1.6e10 at a shift near -1:
    # the loop stops at a residual of about 1.9e-4, inside the roundoff floor
    # sqrt(n) eps ||P - shift*I||_inf = 2.3e-4.  EIGEN_TOL * max(1, |shift|)
    # alone is 3.0e-7, below what rounding lets a residual reach here
    # (shift-invert Lanczos stopped at 3.8e-6 and exited 3).  The oracle is
    # LAPACK's banded eigensolver on the Kronecker pencil
    grid = Grid(box=((0.0, 1e-3),) * 2, res=(64, 64))
    u = _sine_candidate(grid, 0.2, (0.0, 0.1))
    ones = GridField.constant(grid, 1.0)
    nl, p = NonlinearityEval.mixed_power(1.0, 1.0), (2.0, 3.0)
    rep = stability_index(u, nl, ones, p)
    pencil = dense_gap_pencil(u, nl, ones, p, StabilityVariant.WEIGHTED_BY_G, sparse=True)
    (lowest,) = scipy.linalg.eig_banded(
        np.array([np.pad(pencil.diagonal(-k), (0, k)) for k in range(64)]), lower=True,
        eigvals_only=True, select="i", select_range=(0, 0))
    diag = pencil.diagonal()  # the column sums of |P - shift*I|
    col_sums = np.asarray(abs(pencil).sum(axis=0)).ravel() - abs(diag) + abs(diag - rep.shift)
    floor = 63 * np.finfo(float).eps * np.max(col_sums)
    assert 1e-7 * max(1.0, abs(rep.shift)) < rep.residual <= floor
    assert rep.gap == pytest.approx(lowest, abs=rep.residual)
    assert rep.stable


@pytest.mark.parametrize("res", [(16, 16), (6, 6, 6)], ids=["2d", "3d"])
@pytest.mark.parametrize("max_iter", [0, -5])
def test_stability_index_refuses_an_iteration_cap_below_one(res, max_iter):
    dim = len(res)
    g = Grid(box=((0.0, np.pi),) * dim, res=res)
    with pytest.raises(ValidationError, match="iteration cap >= 1"):
        stability_index(_sine_candidate(g, 0.2, (0.1,) * dim),
                        NonlinearityEval.mixed_power(1.0, 1.0), GridField.constant(g, 1.0),
                        (2.0,) * dim, max_iter=max_iter)


class _NanFactor:
    """A factor whose solves are not finite."""

    def solve(self, b):
        return np.full_like(b, np.nan)


def _singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("splu, message, solves", [
    (_singular_splu, "could not factor", 0),
    (lambda *args, **kwargs: _NanFactor(), "did not reach", 1),
], ids=["singular-factor", "non-finite-solve"])
def test_stability_index_factor_failures_end_in_nonconvergence(monkeypatch, splu, message,
                                                                solves):
    # a failed factor or factor solve of the 1D/2D preconditioner; the
    # diagnostics are those of the sine start
    import scipy.sparse.linalg as spla
    monkeypatch.setattr(spla, "splu", splu)
    u, nl = _sine_p24_case(12)
    with pytest.raises(NonConvergenceError, match=message) as exc:
        stability_index(u, nl, GridField.constant(u.grid, 1.0), (2.0, 4.0))
    diag = exc.value.diagnostics
    assert set(diag) == {"rho", "iterations", "bound"}
    assert np.isfinite(diag["rho"]) and np.isfinite(exc.value.residual)
    assert diag["iterations"] == solves


# --- a priori estimate -------------------------------------------------------------

def test_epsilon_coefficient_monotone_and_limit():
    alpha, n_dim, q = 3.5, 3, 3.0
    eps_grid = np.linspace(1e-4, 0.999, 40)
    vals = [epsilon_coefficient(alpha, e, n_dim, q) for e in eps_grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    limit = n_dim * (q - 1) * (alpha - 1) ** 2 / (4 * alpha)
    assert epsilon_coefficient(alpha, 1e-10, n_dim, q) == pytest.approx(limit, rel=1e-8)
    with pytest.raises(ValidationError):
        epsilon_coefficient(alpha, 1.5, n_dim, q)


def test_apriori_zero_cutoff():
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(16, 16))
    e = ExponentData.from_p([2, 3])
    rep = apriori_sides(
        GridField.constant(g, 1.0), GridField.zeros(g), 3.5, 0.3, 2,
        NonlinearityEval.mixed_power(1.0, 2.0), e,
    )
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied


def test_apriori_constant_candidate_vs_radial_oracle():
    R = 0.25
    res = 256
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(res, res))
    psi = make_cutoff(CutoffSpec(R=R, center=(0.0, 0.0)), g)
    e = ExponentData.from_p([2, 3])
    c, alpha, eps, k = 0.8, 3.5, 0.3, 2
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    rep = apriori_sides(GridField.constant(g, c), psi, alpha, eps, k, nl, e)

    q = e.q
    int_psi_q = np.pi * R ** 2 + 2 * np.pi * quad(
        lambda r: r * smoothstep((r - R) / R) ** q, R, 2 * R
    )[0]
    tp = TruncationPair(k=k, alpha=alpha)
    lhs_oracle = c * nl.fprime(c) * b_eval(tp, c) * int_psi_q
    assert rep.lhs == pytest.approx(lhs_oracle, rel=1e-4)

    grad_oracle = 0.0
    for p_i in e.p:
        ang = quad(lambda t: np.abs(np.cos(t)) ** p_i, 0, 2 * np.pi)[0]
        radial = quad(
            lambda r: r
            * np.abs(6 * ((r - R) / R) * (1 - (r - R) / R) / R) ** p_i
            * smoothstep((r - R) / R) ** (q - p_i),
            R,
            2 * R,
        )[0]
        grad_oracle += c ** (p_i - alpha - 1) * ang * radial
    coef = epsilon_coefficient(alpha, eps, e.N, q)
    rhs_oracle = grad_oracle - coef * nl.f(c) * b_eval(tp, c) * int_psi_q
    assert rep.rhs == pytest.approx(rhs_oracle, rel=5e-3)


def test_apriori_truncation_inactive_matches_pure_power():
    rng = np.random.default_rng(12)
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(48, 48))
    e = ExponentData.from_p([2, 3])
    psi = make_cutoff(CutoffSpec(R=0.25, center=(0.0, 0.0)), g)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    k = 3
    for _ in range(20):
        amp = 0.2 * rng.random()
        base = 1.0 / k + amp + 0.05 + rng.random()
        wiggle = amp * np.sin(
            np.pi * (g.meshgrid()[0] + rng.random())
        ) * np.cos(np.pi * g.meshgrid()[1])
        u = GridField(g, base + wiggle)
        assert np.min(u.values) >= 1.0 / k
        rt = apriori_sides(u, psi, 3.5, 0.3, k, nl, e, truncated=True)
        rp = apriori_sides(u, psi, 3.5, 0.3, k, nl, e, truncated=False)
        assert abs(rt.lhs - rp.lhs) <= 1e-12 * (1 + abs(rp.lhs))
        assert abs(rt.rhs - rp.rhs) <= 1e-12 * (1 + abs(rp.rhs))


def test_apriori_monotone_in_k():
    # for u bounded away from 0, the truncated LHS increases to the pure
    # power version as k grows
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(32, 32))
    e = ExponentData.from_p([2, 3])
    psi = make_cutoff(CutoffSpec(R=0.25, center=(0.0, 0.0)), g)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    u = GridField.constant(g, 0.2)
    lhs_vals = [
        apriori_sides(u, psi, 3.5, 0.3, k, nl, e).lhs for k in (1, 2, 4, 8, 16)
    ]
    assert all(b >= a - 1e-14 for a, b in zip(lhs_vals, lhs_vals[1:]))
    pure = apriori_sides(u, psi, 3.5, 0.3, 16, nl, e, truncated=False).lhs
    assert lhs_vals[-1] <= pure + 1e-12
    assert lhs_vals[-1] == pytest.approx(pure, rel=1e-12)  # knot below min u


def test_apriori_validation():
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(16, 16))
    e = ExponentData.from_p([2, 3])
    u = GridField.constant(g, 1.0)
    psi = make_cutoff(CutoffSpec(R=0.25, center=(0.0, 0.0)), g)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    with pytest.raises(ValidationError):
        apriori_sides(u, psi, 1.5, 0.3, 2, nl, e)  # alpha <= p_N - 1
    with pytest.raises(ValidationError):
        apriori_sides(u, psi, 3.5, 1.2, 2, nl, e)  # eps outside (0,1)


# --- corollaries ----------------------------------------------------------------

def test_corollary_zero_cutoff():
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(16, 16))
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=MixedPower(3.0, 4.0), exponents=e)
    rep = corollary_sides(
        GridField.constant(g, 0.9), GridField.zeros(g), 1.0, spec, ApplicableTheorem.THM3_2
    )
    assert rep.lhs == 0.0 and rep.satisfied


def test_corollary_constant_candidate_vs_radial_oracle():
    R = 0.25
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(256, 256))
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=MixedPower(3.0, 4.0), exponents=e)
    beta = 1.0
    c = 0.9
    psi = make_cutoff(CutoffSpec(R=R, center=(0.0, 0.0)), g)
    rep = corollary_sides(
        GridField.constant(g, c), psi, beta, spec, ApplicableTheorem.THM3_2
    )
    big_e = 2 * beta + 3.0 + e.q - 1  # = 6
    int_psi_e = np.pi * R ** 2 + 2 * np.pi * quad(
        lambda r: r * smoothstep((r - R) / R) ** big_e, R, 2 * R
    )[0]
    assert rep.lhs == pytest.approx(c ** -big_e * int_psi_e, rel=1e-3)
    theta_p = big_e / (3.0 + 2.0 - 1.0)  # E/(delta + p_i - 1) = 1.5
    rhs_oracle = 0.0
    for p_i in e.p:
        expo = p_i * theta_p
        ang = quad(lambda t: np.abs(np.cos(t)) ** expo, 0, 2 * np.pi)[0]
        radial = quad(
            lambda r: r * np.abs(6 * ((r - R) / R) * (1 - (r - R) / R) / R) ** expo,
            R,
            2 * R,
        )[0]
        rhs_oracle += ang * radial
    assert rep.rhs == pytest.approx(rhs_oracle, rel=5e-3)
    assert rep.range_ok is True


def test_corollary_no_gradient_diagnostic():
    # psi = 1 with no decay: the right side vanishes while the left does not,
    # which is exactly why compact support matters
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(16, 16))
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=ExpSingular(0.3), exponents=e)
    m = 0.3
    rep = corollary_sides(
        GridField.constant(g, m), GridField.constant(g, 1.0), 0.6, spec,
        ApplicableTheorem.THM3_5,
    )
    assert rep.rhs == 0.0 and rep.lhs > 0.0 and not rep.satisfied


@pytest.mark.parametrize("kind, case", [
    (ExpSingular(0.2), ApplicableTheorem.THM3_5),
    (MixedPower(10.0, 10.0), ApplicableTheorem.THM3_4),
])
def test_corollary_takes_every_axis_power_from_the_exact_table(kind, case):
    # the right side sums |D_i psi|^(p_i theta_i') with the powers of
    # `axis_powers`; for Thm3_5 every c_i is 1, so each power is E, bit for bit
    g = Grid(box=((-1.0, 1.0),) * 3, res=(12, 12, 12))
    spec = ProblemSpec(kind=kind, exponents=ExponentData.from_p([2, 3, 4]))
    beta, _ = select_beta(spec)
    powers = axis_powers(beta, spec)
    if case is ApplicableTheorem.THM3_5:
        assert powers == (lhs_power(beta, spec),) * 3
    psi = make_cutoff(CutoffSpec(R=0.4, center=(0.0, 0.0, 0.0)), g)
    rep = corollary_sides(GridField.constant(g, 0.1), psi, beta, spec, case)
    assert rep.rhs == sum(face_integral(np.abs(axis_diff(psi, axis)) ** power, g, axis)
                          for axis, power in enumerate(powers))


def test_corollary_case_validation():
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(16, 16))
    e = ExponentData.from_p([2, 2])
    mixed = ProblemSpec(kind=MixedPower(3.0, 4.0), exponents=e)
    expc = ProblemSpec(kind=ExpSingular(0.3), exponents=e)
    u = GridField.constant(g, 0.5)
    psi = make_cutoff(CutoffSpec(R=0.25, center=(0.0, 0.0)), g)
    with pytest.raises(ValidationError):
        corollary_sides(u, psi, 1.0, mixed, ApplicableTheorem.THM3_5)
    with pytest.raises(ValidationError):
        corollary_sides(u, psi, 0.6, expc, ApplicableTheorem.THM3_2)
    with pytest.raises(ValidationError):
        corollary_sides(u, psi, 1.0, mixed, ApplicableTheorem.THM3_4)  # delta != gamma
    with pytest.raises(ValidationError, match="case None has no cutoff corollary"):
        corollary_sides(u, psi, 1.0, mixed, ApplicableTheorem.NONE)
    with pytest.raises(ValidationError, match=r"beta = 100\.0 outside the window"):
        corollary_sides(u, psi, 100.0, mixed, ApplicableTheorem.THM3_2)
    rep = corollary_sides(GridField.constant(g, 1.7), psi, 1.0, mixed,
                          ApplicableTheorem.THM3_2)
    assert rep.range_ok is False  # out of range is reported, not fatal


# --- radius sweeps ----------------------------------------------------------------

def test_radius_sweep_ball_volume_slope():
    # constant candidate and weight: the left side grows like the ball volume
    e = ExponentData.from_p([2.5, 3.0])
    spec = ProblemSpec(kind=MixedPower(20.0, 20.0), exponents=e)
    g = Grid(box=((-45.0, 45.0), (-45.0, 45.0)), res=(1024, 1024))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    beta, _ = select_beta(spec)
    radii = list(np.geomspace(2.0, 20.0, 8))
    sweep = radius_sweep(u, ones, spec, beta, radii)
    log_r = np.log([row.R for row in sweep.rows])
    log_lhs = np.log([row.lhs for row in sweep.rows])
    slope = np.polyfit(log_r, log_lhs, 1)[0]
    assert abs(slope - e.N) <= 0.05


def test_radius_sweep_validation():
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=MixedPower(6.0, 6.0), exponents=e)
    g = Grid(box=((-2.0, 2.0), (-2.0, 2.0)), res=(32, 32))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    beta, _ = select_beta(spec)
    with pytest.raises(ValidationError, match=r"2 \* max radius = 3\.0 .* does not fit the box"):
        radius_sweep(u, ones, spec, beta, [0.5, 1.5])  # 2*1.5 > 2
    with pytest.raises(ValidationError):
        radius_sweep(u, ones, spec, beta, [0.5, 0.4])
    with pytest.raises(ValidationError, match=r"beta = 1000000\.0 outside the window"):
        radius_sweep(u, ones, spec, 1e6, [0.2, 0.4])
    # every radius is refused before the quadrature window is built from
    # the largest; a NaN passes the order check and fails `r > 0`
    for radii in ([-1.0], [-2.0, -1.0], [0.0, 0.5], [float("nan")], [0.2, float("nan")]):
        with pytest.raises(ValidationError, match="ball radius must be positive"):
            radius_sweep(u, ones, spec, beta, radii)


def test_radius_sweep_exploratory_outside_region():
    # delta outside I: some decay exponent stays nonnegative for every beta
    # in the window; the sweep still reports a slope
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(5.0, 5.0), exponents=e)
    g = Grid(box=((-6.0, 6.0),) * 3, res=(32, 32, 32))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    beta = 0.58  # inside (0.5, 2/3)
    sweep = radius_sweep(u, ones, spec, beta, [0.5, 0.8, 1.2, 1.8, 2.6])
    assert max(sweep.decay_exponents) > 0
    assert sweep.slope is not None and sweep.slope > 0


@pytest.mark.parametrize("target", ["weight", "candidate"])
def test_radius_sweep_rejects_non_finite_inputs(target):
    # a NaN fails `g > 0` and an inf candidate contributes exp(-inf) = 0:
    # both would vanish from the integral without a word
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=MixedPower(6.0, 6.0), exponents=e)
    g = Grid(box=((-2.0, 2.0), (-2.0, 2.0)), res=(16, 16))
    bad = np.ones(g.shape)
    bad[8, 8] = np.nan if target == "weight" else np.inf
    u = GridField(g, bad) if target == "candidate" else GridField.constant(g, 1.0)
    w = GridField(g, bad) if target == "weight" else GridField.constant(g, 1.0)
    beta, _ = select_beta(spec)
    with pytest.raises(ValidationError, match="finite"):
        radius_sweep(u, w, spec, beta, [0.5, 0.9])


@pytest.mark.filterwarnings("error")
def test_overflowing_quotient_integral_is_refused():
    # a weight of 1e308: the sum of the node terms overflows a float, which
    # was written as inf (null in the JSON report) after a RuntimeWarning
    e = ExponentData.from_p([2, 2])
    spec = ProblemSpec(kind=MixedPower(6.0, 6.0), exponents=e)
    g = Grid(box=((-2.0, 2.0), (-2.0, 2.0)), res=(32, 32))
    huge = GridField.constant(g, 1e308)
    beta, _ = select_beta(spec)
    with pytest.raises(ValidationError, match=r"int g \(psi/u\)\^E overflows a float"):
        radius_sweep(GridField.constant(g, 1.0), huge, spec, beta, [0.5, 0.9])
    psi = make_cutoff(CutoffSpec(R=0.5, center=(0.0, 0.0)), g)
    with pytest.raises(ValidationError, match="overflows a float"):
        corollary_sides(GridField.constant(g, 0.1), psi, beta, spec, ApplicableTheorem.THM3_4,
                        g=huge)


_OFFSET = st.floats(-20.0, 20.0)


@settings(max_examples=200, deadline=None)
@given(center=st.one_of(st.just(0.0), st.floats(-680.0, 680.0)),
       pool=st.lists(_OFFSET, min_size=1, max_size=8),
       picks=st.lists(st.one_of(st.integers(0, 7), _OFFSET), min_size=1, max_size=400),
       noise=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
@example(center=0.0, pool=[1.5], picks=[0], noise=0, seed=0)  # a single term
@example(center=-3.25, pool=[0.0], picks=[0] * 300, noise=0, seed=0)  # all equal
@example(center=0.0, pool=[-700.0, 700.0], picks=[0, 1, 699.5, 1, -1.0, 0, 1],
         noise=0, seed=0)  # ties at the top, values spanning +-700
def test_log_quotient_sum_is_scipy_logsumexp_bit_for_bit(center, pool, picks, noise, seed):
    # each int picks an offset of the pool, so the vector has ties; `noise`
    # seeded offsets, shuffled in, give the long vectors on which a tied
    # maximum dropped from the sum, not zeroed, would regroup numpy's
    # pairwise summation.  With unit w, g and psi and E = 1 the node logs
    # are -log(u).
    rng = np.random.default_rng(seed)
    offsets = [pool[v % len(pool)] if isinstance(v, int) else v for v in picks]
    offsets = np.concatenate([offsets, rng.normal(scale=4.0, size=noise)])
    x = center + (rng.permutation(offsets) if noise else offsets)
    u = np.exp(-x)
    ones = np.ones_like(u)
    logs = np.log(ones) + np.log(ones) + 1.0 * (np.log(ones) - np.log(u))
    with np.errstate(over="ignore"):
        expected = float(np.exp(logsumexp(logs)))
        assert _log_quotient_integral(ones, ones, ones, u, 1.0) == expected


def _reference_sweep_rows(u, g, big_e, decay, radii, center):
    # every radius on the full grid: int g*ball (1/u)^E in log space, node
    # weights, checks and log terms in the order of the sweep's definition
    grid = u.grid
    w = np.ones(grid.shape)
    for axis, w1 in enumerate(grid.node_weights_1d()):
        shape = [1] * grid.dim
        shape[axis] = -1
        w = w * w1.reshape(shape) if axis else w1.reshape(shape)
    rows = []
    for r in radii:
        ball = ball_fraction_weights(grid, r, center=center)
        g_ball = g.values * ball
        mask = (w > 0) & (ball > 0)
        if not (np.all(np.isfinite(g_ball[mask])) and np.all(np.isfinite(u.values[mask]))):
            raise ValidationError("weight and candidate must be finite")
        mask &= g_ball > 0
        lhs = 0.0
        if np.any(mask):
            if np.any(u.values[mask] <= 0):
                raise ValidationError("u must be positive")
            logs = (np.log(w[mask]) + np.log(g_ball[mask])
                    + big_e * (np.log(np.ones(grid.shape)[mask]) - np.log(u.values[mask])))
            lhs = float(np.exp(logsumexp(logs)))
        rhs = sum(r ** d for d in decay)
        rows.append((r, lhs, rhs, lhs / rhs))
    return rows


def _sweep_setup(dim):
    # odd cell counts, unequal steps, non-constant u and g, an off-centre
    # centre; the largest radius is the 2R fit limit, 4.75, exactly
    box = ((-10.0, 10.0), (-11.0, 9.5), (-10.0, 10.5))[:dim]
    grid = Grid(box=box, res=(33, 35, 31)[:dim])
    center = (0.5, -1.0, 0.25)[:dim]
    x = grid.meshgrid()
    u = GridField(grid, 0.9 + 0.2 * np.cos(x[0]) * np.sin(sum(x)) ** 2)
    g = GridField(grid, 1.0 + 0.5 * np.sin(x[0] * x[-1]) + 0.01 * x[-1])
    radii = list(np.geomspace(0.3, 4.75, 9))
    return grid, center, u, g, radii


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", [MixedPower(12.0, 15.0), ExpSingular(0.2)])
def test_radius_sweep_matches_full_grid_reference(dim, kind):
    grid, center, u, g, radii = _sweep_setup(dim)
    spec = ProblemSpec(kind=kind, exponents=ExponentData.from_p([2, 3, 4][:dim]))
    beta = 0.5 * sum(float(b) for b in beta_window(spec))  # any beta in the window
    sweep = radius_sweep(u, g, spec, beta, radii, center=center)
    expected = _reference_sweep_rows(u, g, lhs_power(beta, spec),
                                     decay_exponents(beta, spec), radii, center)
    assert [(r.R, r.lhs, r.rhs, r.ratio) for r in sweep.rows] == expected


@pytest.mark.parametrize("bad", ["nan-weight", "nonpositive-candidate"])
def test_radius_sweep_checks_reach_exactly_the_balls(bad):
    # a bad node that only the largest ball reaches is refused; the same
    # node just outside every ball (inside the quadrature sub-box or far
    # from it) is not, and the sweep equals the reference
    grid, center, u, g, radii = _sweep_setup(3)
    spec = ProblemSpec(kind=MixedPower(12.0, 15.0), exponents=ExponentData.from_p([2, 3, 4]))
    beta, _ = select_beta(spec)
    d = grid.node_distances(center)
    half_cell = 0.5 * max(grid.h)
    only_largest = (d >= radii[-2] + half_cell) & (d < radii[-1] + half_cell)
    near_outside = (d >= radii[-1] + half_cell) & (d < radii[-1] + 2 * half_cell)
    far_outside = d >= 2 * radii[-1]
    match = ("weight and candidate must be finite" if bad == "nan-weight"
             else "u must be positive")
    for where, raises in ((only_largest, True), (near_outside, False), (far_outside, False)):
        node = np.unravel_index(np.flatnonzero(where)[0], grid.shape)
        g_bad, u_bad = g.values.copy(), u.values.copy()
        if bad == "nan-weight":
            g_bad[node] = np.nan
        else:
            u_bad[node] = -1.0
        args = (GridField(grid, u_bad), GridField(grid, g_bad))
        if raises:
            with pytest.raises(ValidationError, match=match):
                radius_sweep(*args, spec, beta, radii, center=center)
            with pytest.raises(ValidationError, match=match):
                _reference_sweep_rows(*args, 1.0, (0.0,), radii, center)
        else:
            sweep = radius_sweep(*args, spec, beta, radii, center=center)
            assert [(r.R, r.lhs) for r in sweep.rows] == [
                row[:2] for row in _reference_sweep_rows(
                    *args, lhs_power(beta, spec), (0.0,), radii, center)]


# --- certificates -------------------------------------------------------------------

def test_certificate_bounded_candidate():
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(10.0, 11.0), exponents=e)
    g = Grid(box=((-10.0, 10.0),) * 3, res=(40, 40, 40))
    u = GridField.constant(g, 0.9)
    ones = GridField.constant(g, 1.0)
    cert = nonexistence_certificate(spec, u, ones)
    assert cert.theorem.value == "Thm3_2"
    assert cert.range_ok is True
    assert all(d < 0 for d in cert.decay_exponents)
    assert cert.sweep.firstViolatingR is not None
    assert "cannot satisfy" in cert.conclusion
    doc = cert.to_dict()
    assert doc["theoremApplicable"] == "Thm3_2"
    assert doc["sweep"]["firstViolatingR"] == cert.sweep.firstViolatingR


def test_certificate_refused_outside_hypotheses():
    e = ExponentData.from_p([2, 3, 4])
    g = Grid(box=((-4.0, 4.0),) * 3, res=(16, 16, 16))
    u = GridField.constant(g, 1.0)
    ones = GridField.constant(g, 1.0)
    with pytest.raises(HypothesisNotApplicableError):
        nonexistence_certificate(
            ProblemSpec(kind=MixedPower(5.0, 5.0), exponents=e), u, ones
        )


def test_p_of_another_dimension_than_the_grid_is_refused():
    # a 3D p on a 2D grid ended in numpy's AxisError (stability index) or
    # swept 2D balls against 3D decay exponents and gave a verdict
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(10.0, 10.0), exponents=e)
    g = Grid(box=((-8.0, 8.0),) * 2, res=(6, 6))
    ones = GridField.constant(g, 1.0)
    message = "exponent dimension 3 != grid dimension 2"
    with pytest.raises(ValidationError, match=message):
        stability_index(ones, NonlinearityEval.mixed_power(1.0, 1.0), ones, e.p)
    with pytest.raises(ValidationError, match=message):
        nonexistence_certificate(spec, ones, ones, radii=[1.0, 2.0])
    with pytest.raises(ValidationError, match=message):
        radius_sweep(ones, ones, spec, select_beta(spec)[0], [1.0, 2.0])


@pytest.mark.parametrize("p", [(2.0,), (2.0, 3.0, 4.0)])
def test_weak_form_and_gap_refuse_p_of_another_dimension(p):
    # each loops over the axes of p: a shorter p would drop an axis of the
    # grid from the form, a longer one would difference along a missing axis
    g = Grid(box=((0.0, 1.0),) * 2, res=(6, 6))
    u = GridField.constant(g, 1.0)
    phi = compact_bump(g, (0.5, 0.5), 0.4)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    message = f"exponent dimension {len(p)} != grid dimension 2"
    with pytest.raises(ValidationError, match=message):
        stability_gap(u, phi, nl, u, p)
    with pytest.raises(ValidationError, match=message):
        weak_residual(u, phi, nl, u, p)
    with pytest.raises(ValidationError, match=message):
        weak_form_gap(u, phi, u, p)
