"""Discretization contracts: adjoint consistency, operator correctness,
quadrature, cutoffs, level sets, and serialization."""

import csv
import math

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp

from anisolab.errors import ValidationError
from anisolab.exponents import ExponentData
from anisolab.grid import (
    _WRITE_VALUES,
    DENSE_DST_MAX,
    _axis_modes,
    _median,
    MAX_ROW_CHARS,
    CutoffSpec,
    Grid,
    GridField,
    axis_diff,
    ball_fraction_weights,
    export_field_csv,
    face_divergence,
    face_integral,
    integrate,
    level_set_measure,
    dst_solver,
    load_field,
    make_cutoff,
    p_laplacian_apply,
    save_field,
    sine_matrix,
    stencil_rows,
    stiffness,
    weighted_integrate,
)
from anisolab.solver import _newton_direction, inner_energy

from oracles import kron_difference_matrix, rand_zero_boundary


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(box=((0, 1),), res=(1,))
    with pytest.raises(ValidationError):
        Grid(box=((1, 0),), res=(8,))
    with pytest.raises(ValidationError):
        Grid(box=((0, 1),) * 4, res=(4,) * 4)
    with pytest.raises(ValidationError):
        GridField(Grid(box=((0, 1),), res=(4,)), np.zeros(7))


@pytest.mark.parametrize("box", [((0.0, math.inf), (0.0, 1.0)), ((0.0, 1.0), (math.nan, 3.0)),
                                 ((-math.inf, 0.0),)])
def test_grid_refuses_non_finite_box(tmp_path, box):
    # `lo < hi` holds for an infinite hi and fails to refuse a NaN
    with pytest.raises(ValidationError, match="box endpoints must be finite"):
        Grid(box=box, res=(8,) * len(box))
    path = tmp_path / "u.txt"
    header = " ".join(["anisofield", str(len(box))] + ["8"] * len(box)
                      + [repr(x) for axis in box for x in axis])
    path.write_text(header + "\n1.0\n")
    with pytest.raises(ValidationError, match="malformed field snapshot: box endpoints"):
        load_field(path)


@pytest.mark.parametrize("box", [((0.0, 1e300), (0.0, 1.0)), ((0.0, 1e-170), (0.0, 3.0)),
                                 ((0.0, 1e-160), (0.0, 1.0))],
                         ids=["h2-overflows", "h2-underflows", "inverse-h2-overflows"])
def test_grid_refuses_cell_widths_without_finite_square(tmp_path, box):
    # the stencils divide by h_i^2: without the check the first box ends in an
    # OverflowError, the second in a ZeroDivisionError, the third in a level
    # solve that does not converge
    with pytest.raises(ValidationError, match="must have finite h_i"):
        Grid(box=box, res=(8, 8))
    path = tmp_path / "u.txt"
    header = " ".join(["anisofield", "2", "8", "8"] + [repr(x) for axis in box for x in axis])
    path.write_text(header + "\n1.0\n")
    with pytest.raises(ValidationError, match="malformed field snapshot: cell widths"):
        load_field(path)


def test_grid_size_guard():
    # only the node count is checked; no array is allocated here
    with pytest.raises(ValidationError, match="exceeds the limit"):
        Grid(box=((0, 1), (0, 1)), res=(100000, 100000))
    with pytest.raises(ValidationError, match="exceeds the limit"):
        Grid(box=((0, 1),) * 3, res=(256,) * 3)
    Grid(box=((0, 1),) * 3, res=(255,) * 3)  # 256^3 nodes, within the limit


def test_axis_diff_basics():
    g = Grid(box=((0.0, 1.0),), res=(10,))
    const = GridField.constant(g, 3.0)
    assert np.allclose(axis_diff(const, 0), 0.0)
    linear = GridField.from_function(g, lambda x: x)
    assert np.allclose(axis_diff(linear, 0), 1.0)


@pytest.mark.parametrize("shape", [((0.0, 1.0),), ((0.0, 1.0), (-1.0, 2.0)),
                                   ((0.0, 1.0), (-1.0, 2.0), (0.5, 1.5))])
def test_summation_by_parts(shape):
    rng = np.random.default_rng(7)
    g = Grid(box=shape, res=(12,) * len(shape))
    f = rand_zero_boundary(g, rng)
    for axis in range(g.dim):
        face_shape = list(g.shape)
        face_shape[axis] = g.res[axis]
        faces = rng.standard_normal(face_shape)
        lhs = face_integral(axis_diff(f, axis) * faces, g, axis)
        rhs = -integrate(GridField(g, f.values * face_divergence(faces, g, axis)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_p_laplacian_zero_and_linear_reduction():
    g = Grid(box=((0.0, 1.0),), res=(64,))
    e = ExponentData.from_p([2])
    assert np.allclose(p_laplacian_apply(GridField.zeros(g), e).values, 0.0)
    # -u'' = 1 for u = x(1-x)/2, exact for the 3-point stencil on quadratics
    u = GridField.from_function(g, lambda x: 0.5 * x * (1 - x))
    out = p_laplacian_apply(u, e)
    interior = out.values[1:-1]
    assert np.max(np.abs(interior - 1.0)) <= 1e-10


def test_p_laplacian_2d_matches_five_point_stencil():
    rng = np.random.default_rng(3)
    g = Grid(box=((0.0, 1.0), (0.0, 2.0)), res=(9, 11))
    e = ExponentData.from_p([2, 2])
    u = rand_zero_boundary(g, rng)
    got = p_laplacian_apply(u, e).values
    hx, hy = g.h
    v = u.values
    want = np.zeros_like(v)
    want[1:-1, 1:-1] = (
        -(v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx ** 2
        - (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy ** 2
    )
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_p_laplacian_homogeneity():
    rng = np.random.default_rng(5)
    g = Grid(box=((0.0, 1.0),), res=(24,))
    e = ExponentData.from_p([3])
    u = rand_zero_boundary(g, rng)
    lam = 1.7
    a = p_laplacian_apply(GridField(g, lam * u.values), e).values
    b = lam ** (3 - 1) * p_laplacian_apply(u, e).values
    assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_integrate_examples():
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(16, 16))
    assert integrate(GridField.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    g1 = Grid(box=((0.0, 1.0),), res=(50,))
    linear = GridField.from_function(g1, lambda x: x)
    assert integrate(linear) == pytest.approx(0.5, abs=1e-13)
    w = GridField.from_function(g1, lambda x: 2 - x)
    assert weighted_integrate(linear, w) == pytest.approx(
        2 * 0.5 - 1 / 3, abs=1e-3
    )


def test_integrate_bump_refine_and_compare():
    def bump(x):
        s = np.clip(np.abs(x - 0.5) / 0.3, 0.0, 1.0)
        return (1 - s) ** 2 * (1 + 2 * s)

    coarse = Grid(box=((0.0, 1.0),), res=(60,))
    fine = Grid(box=((0.0, 1.0),), res=(960,))
    ic = integrate(GridField.from_function(coarse, bump))
    dense = integrate(GridField.from_function(fine, bump))
    assert abs(ic - dense) <= 1e-4


@pytest.mark.parametrize("p", [(2.0, 2.0), (3.0, 3.0), (2.0, 4.0)])
def test_variational_consistency(p):
    # the operator equals the per-volume finite-difference gradient of the energy
    rng = np.random.default_rng(11)
    g = Grid(box=((0.0, 1.0), (0.0, 1.0)), res=(10, 10))
    e = ExponentData.from_p(p)
    u = rand_zero_boundary(g, rng)
    rhs = GridField.zeros(g)
    op = p_laplacian_apply(u, e).values
    vol = g.cell_volume
    eps = 1e-6
    idx = [(i, j) for i in range(2, 9, 3) for j in range(2, 9, 3)]
    for i, j in idx:
        up = u.values.copy()
        up[i, j] += eps
        dn = u.values.copy()
        dn[i, j] -= eps
        fd = (inner_energy(GridField(g, up), rhs, e) - inner_energy(GridField(g, dn), rhs, e)) / (
            2 * eps * vol
        )
        assert fd == pytest.approx(op[i, j], rel=1e-6, abs=1e-8)


def test_cutoff_values_and_gradient_constant():
    g = Grid(box=((-1.0, 1.0), (-1.0, 1.0)), res=(128, 128))
    R = 0.25  # 1.5*R = 0.375 lands exactly on a node
    psi = make_cutoff(CutoffSpec(R=R, center=(0.0, 0.0)), g)
    d = g.node_distances((0.0, 0.0))
    assert np.all(psi.values[d <= R] == 1.0)
    assert np.all(psi.values[d >= 2 * R] == 0.0)
    mid = int(np.argmin(np.abs(g.axes()[0] - 1.5 * R)))
    centre = g.res[1] // 2
    assert psi.values[mid, centre] == pytest.approx(0.5, abs=1e-12)
    # continuum profile: max |psi'| * R = 3/2 attained at s = 1/2
    s = np.linspace(0.0, 1.0, 20001)
    prof_deriv = np.abs(np.gradient(1 - 3 * s ** 2 + 2 * s ** 3, s))
    assert prof_deriv.max() == pytest.approx(1.5, abs=1e-6)


def test_cutoff_r_independence():
    # R-independent gradient bound on resolved annuli (>= 8 cells across)
    g = Grid(box=((0.0, 1.0),), res=(512,))
    h = g.h[0]
    vals = []
    for units in (8, 16, 32):
        R = units * h
        psi = make_cutoff(CutoffSpec(R=R, center=(0.5,)), g)
        vals.append(R * np.abs(axis_diff(psi, 0)).max())
    spread = (max(vals) - min(vals)) / np.mean(vals)
    assert spread < 0.05, vals


def test_cutoff_geometry_error():
    g = Grid(box=((0.0, 1.0),), res=(32,))
    with pytest.raises(ValidationError, match=r"ball of radius 2R = 0\.6 .* leaves the box"):
        make_cutoff(CutoffSpec(R=0.3, center=(0.5,)), g)  # 2R = 0.6 > distance to edge


def test_level_set_measure():
    g = Grid(box=((0.0, 1.0),), res=(100,))
    assert level_set_measure(GridField.zeros(g), 1.0) == 0.0
    linear = GridField.from_function(g, lambda x: x)
    assert level_set_measure(linear, 0.5) == pytest.approx(0.5, abs=g.h[0])
    rng = np.random.default_rng(2)
    f = GridField(g, rng.standard_normal(g.shape))
    cuts = np.linspace(-2, 2, 9)
    meas = [level_set_measure(f, k) for k in cuts]
    assert all(a >= b for a, b in zip(meas, meas[1:]))


def test_ball_fraction_weights_volume():
    g = Grid(box=((-2.0, 2.0), (-2.0, 2.0)), res=(256, 256))
    w = ball_fraction_weights(g, 1.0, center=(0.0, 0.0))
    vol = integrate(GridField(g, w))
    assert vol == pytest.approx(np.pi, rel=2e-3)


@pytest.mark.parametrize(
    "box, res",
    [
        (((0.0, 1.0),), (9,)),
        (((0.0, 1.0),), (2,)),
        (((0.0, 1.0), (0.0, 2.5)), (8, 6)),
        (((-1.0, 1.0), (0.0, 0.5), (0.0, 3.0)), (5, 7, 4)),
        # an axis of one interior node has no links, whose DIA offsets
        # would repeat the next axis's
        (((0.0, 1.0), (0.0, 2.5)), (8, 2)),
        (((-1.0, 1.0), (0.0, 0.5), (0.0, 3.0)), (5, 2, 4)),
        (((-1.0, 1.0), (0.0, 0.5), (0.0, 3.0)), (2, 2, 2)),
    ],
    ids=["1d", "1d-one-node", "2d", "3d", "2d-one-node-axis", "3d-one-node-axis",
         "3d-one-node"],
)
def test_stiffness_matches_kronecker_assembly(box, res):
    rng = np.random.default_rng(11)
    g = Grid(box=box, res=res)
    weights, want = [], None
    for axis in range(g.dim):
        faces = rng.uniform(0.5, 2.0, axis_diff(GridField.zeros(g), axis).shape)
        # faces at transverse-boundary positions must not enter
        inner = tuple(slice(None) if j == axis else slice(1, -1) for j in range(g.dim))
        garbage = np.full(faces.shape, 1e6)
        garbage[inner] = faces[inner]
        weights.append(garbage)
        k = kron_difference_matrix(g, axis)
        block = k.T @ sp.diags(faces[inner].ravel()) @ k
        want = block if want is None else want + block
    diag = rng.uniform(0.0, 3.0, want.shape[0])
    want = (want + sp.diags(diag)).toarray()
    matrix, _ = stiffness(g, weights, diag)
    got = matrix.toarray()
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    assert np.array_equal(got, got.T)
    b = rng.standard_normal(want.shape[0])
    if g.dim == 1:
        # rows[1::-1] is the upper band the Newton step solves; one node
        # leaves the lone main row, a band without off-diagonal
        band = stencil_rows(g, weights, diag)[0][1::-1]
        assert np.array_equal(band[-1], np.diag(got))
        assert np.array_equal(band[0, 1:], np.diag(got, 1))
        assert band.shape[0] == (1 if b.size == 1 else 2)
        x = _newton_direction(g, weights, b, diag)[0]
        assert np.allclose(want @ x, b, rtol=0.0, atol=1e-10)
        if b.size == 1:
            assert x == pytest.approx(b / band[0], rel=4 * np.finfo(float).eps)
    # with constant weights and diagonal the DST preconditioner is the inverse
    const = [np.full(w.shape, c) for w, c in zip(weights, (1.0, 2.0, 3.0))]
    matrix, precond = stiffness(g, const, np.full(b.size, 0.5))
    assert np.allclose(precond(matrix @ b), b, rtol=0.0, atol=1e-10)


def dst_reference(grid, c, shift, b):
    """The fast-diagonalization solve by two pocketfft `dstn` calls."""
    shape = grid.interior_shape()
    lam = np.full(shape, shift)
    for axis, (c_i, r, h) in enumerate(zip(c, grid.res, grid.h)):
        modes = 4.0 / h ** 2 * np.sin(0.5 * np.pi * np.arange(1, r) / r) ** 2
        lam = lam + c_i * np.expand_dims(modes, [j for j in range(grid.dim) if j != axis])
    y = scipy.fft.dstn(b.reshape(shape), type=1, norm="ortho")
    return scipy.fft.dstn(y / lam, type=1, norm="ortho").ravel()


# interior axes of at most DENSE_DST_MAX nodes take the dense sine matrix,
# longer ones pocketfft: all short, all long and mixed, with both sides of
# the cap (96 and 97 interior nodes)
_DST_RES = {
    "1d-short": (9,), "1d-cap": (97,), "1d-long": (98,),
    "2d-short": (8, 6), "2d-long": (100, 98), "2d-mixed": (97, 98),
    "3d-short": (16, 5, 7), "3d-long": (98, 99, 98), "3d-mixed": (8, 97, 98),
}


@pytest.mark.parametrize("res", _DST_RES.values(), ids=_DST_RES.keys())
def test_dst_solver_matches_dstn_reference(res):
    rng = np.random.default_rng(5)
    g = Grid(box=tuple((0.0, 1.0 + 0.5 * i) for i in range(len(res))), res=res)
    c, shift = (1.0, 2.5, 0.7)[: g.dim], 0.3
    solve = dst_solver(g, c, shift)
    b = rng.standard_normal(math.prod(g.interior_shape()))
    want = dst_reference(g, c, shift, b)
    got = solve(b)
    assert got.shape == b.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("res", [(120, 6), (8, 110, 12)], ids=["2d", "3d"])
def test_dst_preconditioner_inverts_constant_stiffness_on_long_axes(res):
    # an axis longer than DENSE_DST_MAX goes through pocketfft
    g = Grid(box=tuple((0.0, 1.0 + i) for i in range(len(res))), res=res)
    assert max(g.interior_shape()) > DENSE_DST_MAX
    rng = np.random.default_rng(3)
    const = [np.full(axis_diff(GridField.zeros(g), axis).shape, c)
             for axis, c in zip(range(g.dim), (1.0, 2.0, 3.0))]
    b = rng.standard_normal(math.prod(g.interior_shape()))
    matrix, precond = stiffness(g, const, np.full(b.size, 0.5))
    assert np.allclose(precond(matrix @ b), b, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 11, 31, 32, DENSE_DST_MAX])
def test_sine_matrix_is_symmetric_and_orthonormal(m):
    s = sine_matrix(m)
    assert np.array_equal(s, s.T)
    assert np.max(np.abs(s @ s - np.eye(m))) <= 1e-14
    # it is the orthonormal DST-I; reducing jk mod 2(m+1) keeps each entry
    # within 1e-15 (unreduced arguments up to 32 pi are off by 3e-15)
    assert np.max(np.abs(s - scipy.fft.dst(np.eye(m), type=1, norm="ortho", axis=0))) <= 1e-15


def test_sine_matrix_equals_the_direct_formula():
    # `sine_matrix` looks its entries up in a table of 2(m+1) sines; the
    # direct formula takes one sine per entry, of the same reduced argument
    for m in range(1, 98):
        k = np.arange(1, m + 1)
        direct = math.sqrt(2.0 / (m + 1)) * np.sin(
            np.pi / (m + 1) * (np.outer(k, k) % (2 * (m + 1))))
        assert np.array_equal(sine_matrix(m), direct), m


def test_dst_axis_parts_are_memoized_read_only():
    # `dst_solver` takes each axis's sine matrix and modes from a memo
    # keyed on the axis length; a caller cannot alter what later ones get
    for m in (1, 11, DENSE_DST_MAX):
        sin2, mat = _axis_modes(m)
        assert np.array_equal(mat, sine_matrix(m))
        assert np.array_equal(sin2, np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2)
        for a in (sin2, mat):
            with pytest.raises(ValueError):
                a[0] = 0.0
    assert _axis_modes(DENSE_DST_MAX + 1)[1] is None
    assert _axis_modes.cache_info().maxsize == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9024, 9025])
def test_median_is_np_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    cases = [rng.standard_normal(n), rng.integers(0, 3, n).astype(float),
             np.full(n, 0.1), np.linspace(-1.0, 1.0, n) * 1e300]
    with_nan = rng.standard_normal(n)
    with_nan[n // 2] = np.nan
    for x in cases + [with_nan]:
        want, got = np.median(x), _median(x)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


@pytest.mark.parametrize("res", [(9,), (6, 9), (5, 7, 4)])
def test_node_distances_match_the_meshgrid_formula(res):
    g = Grid(box=tuple((-1.0 + 0.3 * i, 2.0 + i) for i in range(len(res))), res=res)
    for center in (None, tuple(0.1 * (i + 1) for i in range(len(res)))):
        c = g.center if center is None else center
        sq = np.zeros(g.shape)
        for x, ci in zip(g.meshgrid(), c):
            sq += (x - ci) ** 2
        assert np.array_equal(g.node_distances(center), np.sqrt(sq))
        # on a sub-box, bit for bit the full-grid slice
        window = tuple(slice(1, r - 1) for r in res)
        assert np.array_equal(g.node_distances(center, window), np.sqrt(sq)[window])


@pytest.mark.parametrize("res", [(9,), (6, 9), (5, 7, 4)])
def test_node_weights_are_the_tensor_trapezoid_weights(res):
    g = Grid(box=tuple((-1.0 + 0.3 * i, 2.0 + i) for i in range(len(res))), res=res)
    full = np.ones(g.shape)
    for axis, w1 in enumerate(g.node_weights_1d()):
        shape = [1] * g.dim
        shape[axis] = -1
        full = full * w1.reshape(shape)
    assert np.array_equal(g.node_weights(), full)
    window = tuple(slice(2, r) for r in res)
    assert np.array_equal(g.node_weights(window), full[window])


@pytest.mark.parametrize("res", [(7, 7, 63), (15, 15, 31), (17, 19, 40)],
                         ids=["one-chunk", "two-chunks", "boundary-inside-a-row"])
def test_csv_matches_reference_at_3d_chunk_boundaries(tmp_path, res):
    # 4096 and 8192 nodes end on a chunk boundary; at 14760 the boundaries
    # fall inside rows of the last axis
    g = Grid(box=((0.0, 1.0), (-2.0, 0.5), (1e-3, 7.0)), res=res)
    rng = np.random.default_rng(sum(res))
    f = GridField(g, rng.standard_normal(g.shape))
    export_field_csv(f, tmp_path / "field.csv")
    _reference_csv(f, tmp_path / "ref.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_field_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    g = Grid(box=((0.0, 1.0), (-1.0, 1.0)), res=(6, 9))
    f = GridField(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.txt"
    save_field(f, path)
    loaded = load_field(path)
    assert loaded.grid == g
    assert np.array_equal(loaded.values, f.values)
    csv_path = tmp_path / "field.csv"
    export_field_csv(f, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + f.values.size


def _reference_snapshot(f, path):
    # one formatted value per line, as the snapshot format defines it
    header = ["anisofield", str(f.grid.dim)] + [str(r) for r in f.grid.res]
    header += [f"{v!r}" for pair in f.grid.box for v in pair]
    with open(path, "w") as fh:
        fh.write(" ".join(header) + "\n")
        for v in f.values.ravel():
            fh.write(f"{v:.17g}\n")


def _reference_csv(f, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(f.grid.dim)] + ["value"])
        flat = [c.ravel() for c in f.grid.meshgrid()] + [f.values.ravel()]
        for row in zip(*flat):
            writer.writerow([f"{v:.17g}" for v in row])


@pytest.mark.parametrize("box, res", [
    (((-1.3, 2.7),), (9000,)),
    (((0.1, 1.0), (-1.0, np.pi)), (70, 91)),
    (((-4.2, 4.25), (0.3, 7.0), (-1e-3, 1e3)), (17, 19, 23)),
])
def test_writers_match_reference_byte_for_byte(tmp_path, box, res):
    # grids of more than one write chunk, so a chunk that takes one
    # coordinate row too many shifts every later CSV row
    g = Grid(box=box, res=res)
    assert np.prod(g.shape) > _WRITE_VALUES
    rng = np.random.default_rng(len(res))
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 301, g.shape)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1 / 3]
    vals.ravel()[: len(specials)] = specials
    vals.ravel()[_WRITE_VALUES - 1 : _WRITE_VALUES + 1] = [-0.0, 5e-324]
    f = GridField(g, vals)
    for write, reference, name in ((save_field, _reference_snapshot, "field.txt"),
                                   (export_field_csv, _reference_csv, "field.csv")):
        write(f, tmp_path / name)
        reference(f, tmp_path / f"ref-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    # one pass writing both files gives the same bytes as the single-file calls
    save_field(f, tmp_path / "both.txt", csv_path=tmp_path / "both.csv")
    for name, both in (("field.txt", "both.txt"), ("field.csv", "both.csv")):
        assert (tmp_path / both).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    loaded = load_field(tmp_path / "field.txt")
    assert loaded.grid == g
    # bit for bit, so -0.0 and subnormals count
    assert np.array_equal(loaded.values.view(np.int64), vals.view(np.int64))


@pytest.mark.parametrize("before", [0, 10_000, 16_375])
def test_load_field_row_length_cap(tmp_path, before):
    # a row of MAX_ROW_CHARS characters is read, one more is refused,
    # wherever the row falls: in the first block, inside one, or across the
    # boundary between the first two (body characters 65500 to 65630)
    head = "anisofield 1 20000 0.0 1.0\n"
    for width, ok in ((MAX_ROW_CHARS, True), (MAX_ROW_CHARS + 1, False)):
        rows = ["0.5"] * 20001
        rows[before] = "0.25".rjust(width)
        path = tmp_path / f"w{width}.txt"
        path.write_text(head + "".join(r + "\n" for r in rows))
        if ok:
            assert load_field(path).values[before] == 0.25
        else:
            with pytest.raises(ValidationError, match="a body row is not one value"):
                load_field(path)


@pytest.mark.parametrize("body, message", [
    ("1.0\n" * 3, "holds 3 values, its header needs 9"),
    ("1.0\n" * 9 + "\n", "a body row is not one value"),
    ("1.0\n" * 10, "holds more than 9 values"),
    ("1.0\n" * 10 + "x\n", "holds more than 9 values"),
    # a long row past the one row read beyond the count is never looked at
    pytest.param("1.0\n" * 10 + "x" * 200 + "\n", "holds more than 9 values", id="long-row-past-count"),
    pytest.param("1.0\n" * 10 + "1" * 200, "holds more than 9 values", id="long-tail-past-count"),
    pytest.param("1.0\n" * 9 + "1" * 200 + "\n", "a body row is not one value", id="long-row-past-count-is-read"),
    ("1.0\n" * 8 + "nan\n", "holds non-finite values"),
])
def test_load_field_body_errors(tmp_path, body, message):
    path = tmp_path / "f.txt"
    path.write_text("anisofield 2 2 2 0.0 1.0 0.0 1.0\n" + body)
    with pytest.raises(ValidationError, match=message):
        load_field(path)


def test_load_field_last_row_without_newline(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("anisofield 1 2 0.0 1.0\n1.0\n2.0\n3.0")
    assert load_field(path).values.tolist() == [1.0, 2.0, 3.0]
