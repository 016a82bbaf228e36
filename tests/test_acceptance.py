"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a pass line on success.  Oracles are independent of the code paths
they check: rational arithmetic, closed forms, Fourier series, dense
collocation, dense eigensolves, and brute-force quadrature.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from anisolab.exponents import (
    ExponentData,
    ExpSingular,
    MixedPower,
    ProblemSpec,
    beta_window,
    decay_exponents,
    integrability_thresholds,
    regions,
    sobolev_exponent,
)
from anisolab.errors import HypothesisNotApplicableError
from anisolab.grid import (
    CutoffSpec,
    Grid,
    GridField,
    make_cutoff,
    p_laplacian_apply,
)
from anisolab.solver import (
    RegularizationLevel,
    WeightSpec,
    inner_energy,
    run_ladder,
    solve_inner,
    solve_level,
    stampacchia_extinction,
    stampacchia_verify,
)
from anisolab.stability import (
    NonlinearityEval,
    StabilityVariant,
    apriori_sides,
    nonexistence_certificate,
    stability_index,
)
from anisolab.truncations import TruncationPair, a_eval, a_prime, b_eval, b_prime

from oracles import collocation_oracle, kron_difference_matrix, level_source


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


# -----------------------------------------------------------------------------
def test_criterion_01_threshold_algebra():
    t0 = time.time()
    tol = 1e-12
    e = ExponentData.from_p([2, 3, 4])
    spec_mixed = ProblemSpec(kind=MixedPower(10.0, 10.0), exponents=e)
    spec_exp = ProblemSpec(kind=ExpSingular(0.2), exponents=e)

    # independent rational arithmetic
    p = [Fraction(2), Fraction(3), Fraction(4)]
    n = 3
    pbar = n / sum(1 / x for x in p)
    q = sum(p) / n
    pstar = n * pbar / (n - pbar)
    l1 = (p[-1] - q) / 2
    a_lower = n * (q - 1) * (p[-1] - 1) / 4
    i_lower = max(
        n * n * (q - 1) * (pi - 1) / (pi * (n * (q - 1) + 4) - n * n * (q - 1))
        for pi in p
    )
    j_upper = min(
        Fraction(4) / (n * (q - 1) * (p[-1] - 1)),
        Fraction(4) / (n * (n - 1) * (q - 1)),
    )
    l2 = 2 * Fraction(10) / (n * (q - 1)) - (q - 1) / 2
    l3 = Fraction(2) / (Fraction(1, 5) * n * (q - 1)) - (q - 1) / 2
    m_bounded = pstar / (pstar - pbar)

    assert pbar == Fraction(36, 13) and pstar == 36 and q == 3
    assert abs(e.pbar - float(pbar)) <= tol
    assert abs(sobolev_exponent(e) - 36.0) <= 1e-12 * 36
    assert abs(e.q - 3.0) <= tol
    assert abs(beta_window(spec_mixed)[0] - float(l1)) <= tol
    ivs, _ = regions(e)
    assert abs(ivs["A"].lower - float(a_lower)) <= tol
    assert abs(ivs["I"].lower - float(i_lower)) <= tol
    assert abs(ivs["J"].upper - float(j_upper)) <= tol
    assert abs(beta_window(spec_mixed)[1] - float(l2)) <= tol
    assert abs(beta_window(spec_exp)[1] - float(l3)) <= tol
    assert abs(integrability_thresholds(e).m_bounded - float(m_bounded)) <= tol
    assert float(l1) == 0.5 and l2 == Fraction(7, 3) and l3 == Fraction(2, 3)
    assert j_upper == Fraction(2, 9) and m_bounded == Fraction(13, 12)

    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"threshold algebra vs rational oracle, 1e-12 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_02_truncation_identities():
    t0 = time.time()
    tol = 1e-12
    rng = np.random.default_rng(202)
    p_max = 4.0
    for _ in range(50):
        k = int(rng.integers(1, 20))
        alpha = p_max - 1.0 + 1e-3 + 9.0 * rng.random()
        tp = TruncationPair(k=k, alpha=alpha, exponents=(2.0, 3.0, 4.0))
        knot = tp.knot
        t_lin = np.linspace(0.0, knot, 400, endpoint=False)
        t_pow = np.geomspace(knot, 50.0, 600)
        t = np.concatenate([t_lin, [knot], t_pow])

        # property (c): exact derivative identity on both pieces
        ap = a_prime(tp, t)
        bp = b_prime(tp, t)
        ratio = tp.derivative_ratio
        dev = np.abs(ap ** 2 - ratio * np.abs(bp)) / np.maximum(1.0, ratio * np.abs(bp))
        assert np.max(dev) <= tol

        # property (a): everywhere, equality on the power piece
        a = a_eval(tp, t)
        b = b_eval(tp, t)
        margin = (a ** 2 - t * b) / np.maximum(1.0, a ** 2)
        assert np.min(margin) >= -tol
        on_pow = t >= knot
        assert np.max(np.abs(margin[on_pow])) <= tol

        # continuity at the knot
        (a_slope, a_icept, *_), (b_slope, b_icept, *_) = tp.rows["a"], tp.rows["b"]
        lin_a = a_slope * knot + a_icept
        lin_b = b_slope * knot + b_icept
        assert abs(lin_a - knot ** (0.5 * (1 - alpha))) <= tol * max(1.0, abs(lin_a))
        assert abs(lin_b - knot ** -alpha) <= tol * max(1.0, abs(lin_b))

    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, f"truncation identities, 50 random pairs, 1e-12 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_03_linear_solver_oracles():
    t0 = time.time()
    # 1D: max of x(1-x)/2 is 1/8
    g1 = Grid(box=((0.0, 1.0),), res=(128,))
    u1 = solve_inner(GridField.constant(g1, 1.0), ExponentData.from_p([2]))
    assert abs(u1.values.max() - 0.125) <= 1e-4

    # 2D: 196-term odd-mode Fourier reference
    g2 = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(128, 128))
    u2 = solve_inner(GridField.constant(g2, 1.0), ExponentData.from_p([2, 2]))
    x, y = g2.meshgrid()
    ref = np.zeros(g2.shape)
    for m in range(1, 28, 2):
        for n_ in range(1, 28, 2):
            ref += (
                16.0
                / (np.pi ** 4 * m * n_ * (m ** 2 + n_ ** 2))
                * np.sin(m * np.pi * x)
                * np.sin(n_ * np.pi * y)
            )
    assert np.max(np.abs(u2.values - ref)) <= 5e-4

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(3, f"linear solves vs analytic/Fourier oracles ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_04_nonlinear_1d_oracle():
    t0 = time.time()
    res = 128
    g = Grid(box=((0.0, 1.0),), res=(res,))
    w = WeightSpec(g=GridField.constant(g, 1.0))
    level = RegularizationLevel.from_weight(1, w)
    u = solve_level(level, ExponentData.from_p([2]))
    oracle = collocation_oracle(8 * res, *level_source(1.0))
    assert np.max(np.abs(u.values - oracle[::8])) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(4, f"level-1 fixed point vs 8x dense collocation, 1e-3 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_05_ladder_properties():
    t0 = time.time()
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(64, 64))
    w = WeightSpec(g=GridField.constant(g, 1.0), m=10.0)
    rep = run_ladder(6, w, ExponentData.from_p([2, 2]))
    assert len(rep.levels) == 6
    assert max(r.mono_defect for r in rep.levels) <= 1e-6
    mins = [r.interior_min for r in rep.levels]
    assert all(m > 0 for m in mins)
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(5, f"ladder monotone with positive interior minima ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_06_stampacchia():
    t0 = time.time()
    assert stampacchia_extinction(1.0, 2.0, 2.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    v = stampacchia_verify(1.0, 2.0, 2.0, 0.0, 1.0, target=1e-12)
    assert v.converged and v.final_bound <= 1e-12
    assert v.max_ratio_deviation <= 1e-9

    rng = np.random.default_rng(606)
    for _ in range(20):
        beta = 1.3 + 0.6 * rng.random()
        r = 2.2 + 1.3 * rng.random()
        c = 0.5 + 1.5 * rng.random()
        phi0 = 0.5 + 1.5 * rng.random()
        d = stampacchia_extinction(c, beta, r, 0.0, phi0) - 0.0
        # the closed form is the exact threshold of the recursion
        assert d ** r == pytest.approx(
            c * phi0 ** (beta - 1) * 2 ** (r * beta / (beta - 1)), rel=1e-12
        )
        vv = stampacchia_verify(c, beta, r, 0.0, phi0, target=1e-12)
        assert vv.converged
        assert vv.max_ratio_deviation <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(6, f"extinction increment exact, 20 randomized cases, 1e-9 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_07_stability_eigen_oracle():
    t0 = time.time()
    resolutions = (32, 64, 128)
    errors = []
    for n in resolutions:
        g = Grid(box=((0.0, np.pi),), res=(n,))
        h = np.pi / n
        lam1 = (2 / h ** 2) * (1 - np.cos(h))
        u = GridField.constant(g, 1.0)
        ones = GridField.constant(g, 1.0)

        def index(lam):
            return stability_index(
                u, NonlinearityEval.constant_slope(lam), ones, (2.0,),
                variant=StabilityVariant.AS_WRITTEN,
            ).gap

        # sign change exactly at the discrete eigenvalue
        assert index(lam1 - 1e-6) > 0 > index(lam1 + 1e-6)
        assert abs(index(lam1)) <= 1e-8

        # the index matches the dense eigensolve at a generic potential
        lam_test = 0.8
        got = index(lam_test)
        k = kron_difference_matrix(g, 0).toarray()
        dense = k.T @ k - lam_test * np.eye(n - 1)
        dense_min = scipy.linalg.eigvalsh(dense)[0]
        assert got == pytest.approx(dense_min, abs=1e-8 * max(1.0, abs(dense_min)))
        errors.append(abs(lam1 - 1.0))
    # observed O(h^2) march toward the continuum value 1
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(7, f"index crosses at (2/h^2)(1-cos h), dense match 1e-8 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_08_truncation_consistency():
    t0 = time.time()
    rng = np.random.default_rng(808)
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(40, 40))
    e = ExponentData.from_p([2, 3])
    psi = make_cutoff(CutoffSpec(R=0.25, center=(0.0, 0.0)), g)
    nl = NonlinearityEval.mixed_power(1.0, 2.0)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        alpha = 3.0 + 4.0 * rng.random()
        amp = 0.3 * rng.random()
        base = 1.0 / k + amp + 0.02 + rng.random()
        xx, yy = g.meshgrid()
        u = GridField(g, base + amp * np.sin(3 * xx + rng.random()) * np.cos(2 * yy))
        assert np.min(u.values) >= 1.0 / k
        rt = apriori_sides(u, psi, alpha, 0.3, k, nl, e, truncated=True)
        rp = apriori_sides(u, psi, alpha, 0.3, k, nl, e, truncated=False)
        assert abs(rt.lhs - rp.lhs) <= 1e-12 * (1.0 + abs(rp.lhs))
        assert abs(rt.rhs - rp.rhs) <= 1e-12 * (1.0 + abs(rp.rhs))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(8, f"inactive truncation equals pure power, 1e-12 ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
def test_criterion_09_contradiction_sweep():
    t0 = time.time()
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(10.0, 10.0), exponents=e)
    grid = Grid(box=((-42.0, 42.0),) * 3, res=(96, 96, 96))
    u = GridField.constant(grid, 1.0)
    ones = GridField.constant(grid, 1.0)
    cert = nonexistence_certificate(spec, u, ones)  # default radii span a decade

    beta = cert.beta
    p_theta = [e.N - d for d in cert.decay_exponents]
    target = min(p_theta)
    assert target == pytest.approx(100 / 33, abs=1e-4)
    assert abs(cert.sweep.slope - target) / target <= 0.10
    assert cert.sweep.firstViolatingR is not None
    radii = [row.R for row in cert.sweep.rows]
    assert max(radii) / min(radii) >= 10.0 - 1e-9

    # delta = 5 lies outside I: every beta in the window leaves a
    # non-negative decay exponent and the certificate gate refuses
    spec5 = ProblemSpec(kind=MixedPower(5.0, 5.0), exponents=e)
    l1, l2 = beta_window(spec5)
    assert l2 > l1
    for b in np.linspace(l1 + 1e-9, l2 - 1e-9, 200):
        assert max(decay_exponents(b, spec5)) >= 0
    with pytest.raises(HypothesisNotApplicableError):
        nonexistence_certificate(spec5, u, ones)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(9, f"sweep slope {cert.sweep.slope:.3f} vs {target:.3f}, "
               f"violation at R={cert.sweep.firstViolatingR:.3g}; "
               f"delta=5 refused ({elapsed:.1f}s)")


# -----------------------------------------------------------------------------
def test_criterion_10_exp_case_sweep():
    t0 = time.time()
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=ExpSingular(0.2), exponents=e)
    grid = Grid(box=((-42.0, 42.0),) * 3, res=(96, 96, 96))
    u = GridField.constant(grid, 0.2)
    ones = GridField.constant(grid, 1.0)
    cert = nonexistence_certificate(spec, u, ones)
    assert e.N - 2 * cert.beta - e.q < 0
    assert cert.sweep.firstViolatingR is not None
    assert cert.range_ok

    with pytest.raises(HypothesisNotApplicableError):
        nonexistence_certificate(
            ProblemSpec(kind=ExpSingular(0.5), exponents=e),
            GridField.constant(grid, 0.5),
            ones,
        )
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(10, f"exp-case violation at R={cert.sweep.firstViolatingR:.3g}, "
                f"M=0.5 refused ({elapsed:.1f}s)")


# -----------------------------------------------------------------------------
def test_criterion_11_variational_consistency():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    for p in ((2.0, 2.0), (3.0, 3.0), (2.0, 4.0)):
        e = ExponentData.from_p(p)
        g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(12, 12))
        # random smooth fields keep the energy O(1) so the central-difference
        # oracle resolves 1e-6 relative without cancellation noise
        xx, yy = g.meshgrid()
        vals = np.zeros(g.shape)
        for _ in range(3):
            m, n_ = rng.integers(1, 4, size=2)
            vals += rng.standard_normal() * np.sin(m * np.pi * xx) * np.sin(n_ * np.pi * yy)
        vals[g.boundary_mask()] = 0.0
        u = GridField(g, vals)
        rhs = GridField(g, rng.standard_normal(g.shape))
        op = p_laplacian_apply(u, e).values
        vol = g.cell_volume
        eps = 1e-6
        for i in range(1, 12, 3):
            for j in range(1, 12, 3):
                up = vals.copy()
                up[i, j] += eps
                dn = vals.copy()
                dn[i, j] -= eps
                fd = (
                    inner_energy(GridField(g, up), rhs, e)
                    - inner_energy(GridField(g, dn), rhs, e)
                ) / (2 * eps * vol)
                expected = op[i, j] - rhs.values[i, j]
                assert fd == pytest.approx(expected, rel=1e-6, abs=1e-7)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(11, f"operator equals energy gradient, 1e-6 relative ({elapsed:.2f}s)")
