"""Uniform tensor grids: fields, per-axis differences, quadrature, cutoffs.

Discretization contract: node-centered uniform grids in 1 to 3 dimensions.
Forward differences live on faces; the negative face divergence is the
exact adjoint of the forward difference for zero-boundary fields.  That
summation-by-parts identity is what makes the discrete weak form and the
discrete energy gradient agree to machine precision, and everything in
`solver` and `stability` relies on it (`stability.weak_residual` sums by
parts).  It is the only difference operator: `p_flux` applies the
anisotropic operator with it, and `stencil_rows` lays out every linear
system built from its stencil (Newton Jacobian, stability pencil) once, as
DIA rows.  The 1D Newton step solves those rows as a band; `stiffness`
wraps them in a DIA matrix with its preconditioner: the DST inverse
`dst_solver` of the mean-coefficient operator, scaled on both sides by the
diagonal ratio sqrt(diag P / diag J).  `dst_solver` is an exact inverse,
applied to one interior vector: it transforms by dense sine matrices (BLAS)
on interior axes of at most `DENSE_DST_MAX` = 96 nodes and by pocketfft on
longer ones.  Each of these takes an `Orthant`, a grid's low half on its
mirror-symmetric axes, in place of the grid.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError

# Largest admitted node count, about a 256^3-cell grid (255^3 cells fit).
# One float64 field of 2^24 nodes takes 128 MiB.  A 3D level solve keeps an
# estimated 30 such vectors (fields, Newton, line-search and CG work vectors)
# and one DIA stiffness matrix of 7 diagonals, 56 bytes per node, so it needs
# roughly 5 GiB at the limit: about all a laptop-class machine has.
MAX_NODES = 2 ** 24
# Longest body row `load_field` accepts, newline not counted: `save_field`
# writes at most 24 characters a row ("%.17g" of a float), so a longer row
# is refused as soon as it is read, before the reader holds more of it.
MAX_ROW_CHARS = 128
# Longest header line `load_field` accepts, newline not counted: `save_field`
# writes at most about 190 characters (magic, dim, 3 counts, 6 floats).
MAX_HEADER_CHARS = 512
# Characters `load_field` reads at a time, and values `_write_field` (behind
# `save_field` and `export_field_csv`) formats at a time: the text held
# stays well under 1 MB.
_READ_CHARS = 2 ** 16
_WRITE_VALUES = 4096
# Longest interior axis (in nodes) on which `dst_solver` transforms by a
# dense sine-matrix product rather than pocketfft.  One cap fits 2D and 3D
# on both BLAS kernel sets (2-core Xeon, one BLAS thread).  With AVX-512
# kernels one solve took 0.034 ms on a 48^2 grid against 0.079 at a cap of
# 32, 0.22 against 0.43 ms on 96^2 and 1.7 against 4.7 ms on 48^3 (the 3D
# product stops gaining near 127 nodes).  With AVX2 kernels 48^2 took
# 0.074 against 0.114 ms and 48^3 2.7 against 3.7 ms, while 96^2 lost
# (0.27 against 0.21 ms); the benchmark's 2D ladders, 95-node axes
# included, still ran 16% faster there, and its stability runs 6%.
DENSE_DST_MAX = 96


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box with a fixed number of cells per axis."""

    box: tuple[tuple[float, float], ...]
    res: tuple[int, ...]

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.box)
        # a fractional, NaN or infinite count fails `r % 1 == 0`
        if not all(r % 1 == 0 for r in self.res):
            raise ValidationError(f"cell counts must be integers, got {self.res}")
        res = tuple(int(r) for r in self.res)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "res", res)
        if not 1 <= len(box) <= 3:
            raise ValidationError(f"dimension must be 1, 2, or 3, got {len(box)}")
        if len(res) != len(box):
            raise ValidationError("res and box must have the same length")
        if any(r < 2 for r in res):
            raise ValidationError("need at least 2 cells per axis")
        if not all(math.isfinite(x) for axis in box for x in axis):
            raise ValidationError(f"box endpoints must be finite, got {box}")
        if any(b <= a for a, b in box):
            raise ValidationError("each box axis needs lo < hi")
        # before the widths: a count past the float range has none
        nodes = math.prod(r + 1 for r in res)
        if nodes > MAX_NODES:
            raise ValidationError(
                f"a grid of {nodes} nodes exceeds the limit of {MAX_NODES} nodes"
            )
        # the stencils divide by h_i^2: it and its inverse must be finite
        if not all(0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf for h in self.h):
            raise ValidationError(
                f"cell widths {self.h} must have finite h_i^2 and 1/h_i^2"
            )

    @property
    def dim(self) -> int:
        return len(self.box)

    def check_dim(self, p) -> None:
        """Refuse an exponent vector p of another dimension than the grid."""
        if len(p) != self.dim:
            raise ValidationError(f"exponent dimension {len(p)} != grid dimension {self.dim}")

    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / r for (a, b), r in zip(self.box, self.res))

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(r + 1 for r in self.res)

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for step in self.h:
            out *= step
        return out

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in self.box)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(a, b, r + 1) for (a, b), r in zip(self.box, self.res)]

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def node_weights_1d(self) -> list[np.ndarray]:
        """Trapezoid weights per axis: h/2 at the two end nodes, h inside."""
        out = []
        for step, r in zip(self.h, self.res):
            w = np.full(r + 1, step)
            w[0] = w[-1] = 0.5 * step
            out.append(w)
        return out

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            sl0 = [slice(None)] * self.dim
            sl0[axis] = 0
            mask[tuple(sl0)] = True
            sl0[axis] = -1
            mask[tuple(sl0)] = True
        return mask

    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(1, -1) for _ in range(self.dim))

    def interior_shape(self) -> tuple[int, ...]:
        return tuple(r - 1 for r in self.res)

    def _broadcast(self, vectors, window=None) -> Iterator[np.ndarray]:
        """The per-axis node vectors `vectors`, each on its slice of `window`
        (every node when None), shaped to broadcast along their axis."""
        window = (slice(None),) * self.dim if window is None else window
        for axis, (f, s) in enumerate(zip(vectors, window)):
            yield f[s].reshape([-1 if j == axis else 1 for j in range(self.dim)])

    def node_weights(self, window=None) -> np.ndarray:
        """Tensor-product trapezoid node weights, on the sub-box `window`
        (one slice per axis) when given."""
        return math.prod(self._broadcast(self.node_weights_1d(), window))

    def node_distances(self, center=None, window=None) -> np.ndarray:
        """Euclidean distance from every node to `center` (default box
        center), on the sub-box `window` (one slice per axis) when given;
        the squared offsets are summed axis by axis.  Node j's offset to the
        box center, (j - r/2) h, is the exact negative of its mirror's."""
        c = self.center if center is None else tuple(center)
        if len(c) != self.dim:
            raise ValidationError("center dimension mismatch")
        offsets = [(np.arange(r + 1) - r / 2) * h if center is None else x - ci
                   for x, ci, r, h in zip(self.axes(), c, self.res, self.h)]
        return np.sqrt(sum(x ** 2 for x in self._broadcast(offsets, window)))


@dataclass
class GridField:
    """Scalar values on the nodes of a grid.

    Fields are treated as immutable snapshots: operations return new fields.
    Zero-Dirichlet membership means the nodes flagged by the grid's boundary
    mask carry the value 0.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValidationError(
                f"value shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals

    @classmethod
    def zeros(cls, grid: Grid) -> "GridField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridField":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "GridField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    def like(self, values: np.ndarray) -> "GridField":
        return GridField(self.grid, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_zero_on_boundary(self) -> bool:
        return bool(np.all(self.values[self.grid.boundary_mask()] == 0.0))

    def zeroed_boundary(self) -> "GridField":
        vals = self.values.copy()
        vals[self.grid.boundary_mask()] = 0.0
        return GridField(self.grid, vals)


@dataclass(frozen=True)
class Orthant:
    """The low half of `grid` on the axes `fold`, for fields that equal
    their mirror image under x_i -> L_i - x_i there.  A folded axis of r
    cells keeps nodes 0..c, c = r // 2, and a ghost node c + 1 holding its
    mirror: node c - 1 for even r (node c is on the mirror plane), node c
    for odd r (the plane is a face that no flux crosses).  The grid's
    matrices restricted to such fields, R J P, are symmetric in the grid's
    inner product: each node weighted by its orbit size (`orbits`)."""

    grid: Grid
    fold: tuple[int, ...]
    dim = property(lambda self: self.grid.dim)
    h = property(lambda self: self.grid.h)
    check_dim = property(lambda self: self.grid.check_dim)
    interior_slices = property(lambda self: self.grid.interior_slices)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(r // 2 + 2 if axis in self.fold else r + 1
                     for axis, r in enumerate(self.grid.res))

    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 2 for n in self.shape)

    def orbit_sizes(self, axis: int, faces: bool = False) -> np.ndarray:
        """The orbit sizes of the interior nodes (or faces) of `axis`: 2 if
        folded, but 1 on the mirror plane and 0 at an even axis's ghost face."""
        r = self.grid.res[axis]
        if axis not in self.fold:
            return np.ones(r - 1 + faces, dtype=int)
        return np.append(np.full(r // 2 - 1 + faces, 2), r % 2 + (not faces))

    @functools.cached_property
    def orbits(self) -> np.ndarray:
        return math.prod(np.ix_(*map(self.orbit_sizes, range(self.dim)))).ravel()

    @functools.cached_property
    def face_orbits(self) -> list[np.ndarray]:
        """Per axis, the orbit sizes of its faces at interior transverse nodes."""
        return [math.prod(np.ix_(*(self.orbit_sizes(j, j == i) for j in range(self.dim))))
                for i in range(self.dim)]

    def inner(self, a, b) -> float:  # the grid's inner product
        return np.dot(self.orbits * a, b)

    def mirrored(self, values: np.ndarray, full: bool = False) -> np.ndarray:
        """The orthant's nodes of a mirror-symmetric node array, or of its
        own with the ghosts set; with `full` the grid's nodes."""
        for axis in self.fold:
            r = self.grid.res[axis]
            j = np.arange(r + 1 if full else r // 2 + 2)
            values = np.take(values, np.minimum(j, r - j), axis)
        return values


# ---------------------------------------------------------------------------
# differences, divergence, and the anisotropic operator
# ---------------------------------------------------------------------------

def axis_diff(f: GridField, axis: int) -> np.ndarray:
    """Forward difference along `axis`, living on the faces of that axis.

    The returned array keeps node extent on the transverse axes and has one
    entry per cell along `axis`.
    """
    return np.diff(f.values, axis=axis) / f.grid.h[axis]


def face_divergence(faces: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Discrete divergence of a face field back onto nodes.

    Defined at nodes interior along `axis`; the two boundary planes get 0.
    Together with `axis_diff` this satisfies summation by parts exactly:
    <axis_diff(f), F>_faces = -<f, face_divergence(F)>_nodes for any f that
    vanishes on the axis boundary.
    """
    out = np.zeros(grid.shape)
    sl = [slice(None)] * grid.dim
    sl[axis] = slice(1, -1)
    out[tuple(sl)] = np.diff(faces, axis=axis) / grid.h[axis]
    return out


def p_flux(values: np.ndarray, grid: Grid, p):
    """The operator on a node array, building no field: returns
    - sum_i face_divergence(|D_i u|^(p_i-2) D_i u) on the interior nodes
    (interior shape) and the differences D_i u (as `axis_diff`)."""
    diffs = [np.diff(values, axis=axis) / h for axis, h in enumerate(grid.h)]
    out = np.zeros(grid.shape)
    for axis, (d, p_i) in enumerate(zip(diffs, p)):
        out -= face_divergence(np.abs(d) ** (p_i - 2.0) * d, grid, axis)
    return out[grid.interior_slices()], diffs


def p_laplacian_apply(u: GridField, e) -> GridField:
    """Apply the anisotropic operator - sum_i d/dx_i(|u_i|^(p_i-2) u_i).

    Per axis: face flux |D_i u|^(p_i-2) D_i u, then the negative discrete
    divergence (`p_flux`).  Output is zero on the boundary ring.  For all
    p_i = 2 this reduces to the standard (2N+1)-point negative Laplacian.
    """
    grid = u.grid
    grid.check_dim(e.p)
    out = np.zeros(grid.shape)
    out[grid.interior_slices()] = p_flux(u.values, grid, e.p)[0]
    return GridField(grid, out)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(f: GridField) -> float:
    """Tensor-product trapezoid quadrature; exact for multilinear fields."""
    v = f.values
    for w in reversed(f.grid.node_weights_1d()):
        v = v @ w
    return float(v)


def weighted_integrate(f: GridField, w: GridField) -> float:
    if f.grid != w.grid:
        raise ValidationError("fields live on different grids")
    return integrate(GridField(f.grid, f.values * w.values))


def face_integral(faces: np.ndarray, grid: Grid, axis: int) -> float:
    """Quadrature of a face-sampled function: midpoint along `axis`
    (weight h), trapezoid on the transverse axes.  Exact for constants."""
    v = np.asarray(faces, dtype=float)
    weights = grid.node_weights_1d()
    weights[axis] = np.full(grid.res[axis], grid.h[axis])
    for w in reversed(weights):
        v = v @ w
    return float(v)


def face_average(f: GridField, axis: int) -> np.ndarray:
    """Arithmetic mean of the two nodes adjacent to each face of `axis`."""
    v = f.values
    lo = [slice(None)] * f.grid.dim
    hi = [slice(None)] * f.grid.dim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (v[tuple(lo)] + v[tuple(hi)])


def ball_fraction_weights(grid: Grid, radius: float,
                          distances: np.ndarray | None = None) -> np.ndarray:
    """Per-node fractional coverage of the ball of given radius around the
    box center, on the nodes of `distances` (their distances to that
    center, on a sub-box say) when given.

    A linear ramp of one cell width replaces the sharp indicator so that the
    measured volume converges at second order instead of first; weights are
    in [0, 1] and sum (against node weights) to the ball volume up to O(h^2).
    """
    if radius <= 0:
        raise ValidationError("ball radius must be positive")
    d = grid.node_distances() if distances is None else distances
    width = max(grid.h)
    return np.clip((radius - d) / width + 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# cutoff family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 on the ball of radius R, smoothstep down to 0 across
    the annulus R < |x - center| < 2R.  The profile 1 - 3s^2 + 2s^3 with
    s = (|x| - R)/R pins sup|grad| * R = 3/2 exactly."""

    R: float
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.R > 0:
            raise ValidationError("cutoff radius must be positive")


def cutoff_profile(s):
    """Smoothstep on [0, 1]: 1 at s=0, 0 at s=1, C^1 at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - 3.0 * s ** 2 + 2.0 * s ** 3


def make_cutoff(spec: CutoffSpec, grid: Grid) -> GridField:
    center = grid.center if spec.center is None else tuple(spec.center)
    for (lo, hi), c in zip(grid.box, center):
        if c - 2.0 * spec.R < lo or c + 2.0 * spec.R > hi:
            raise ValidationError(
                f"ball of radius 2R = {2.0 * spec.R} around {center} leaves the box {grid.box}"
            )
    d = grid.node_distances(spec.center)
    s = (d - spec.R) / spec.R
    return GridField(grid, cutoff_profile(s))


# ---------------------------------------------------------------------------
# linearizations: the interior stiffness matrix and its DST inverse
# ---------------------------------------------------------------------------

def sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I of length m as a dense symmetric orthogonal
    matrix sqrt(2/(m+1)) sin(pi j k/(m+1)), j, k = 1..m.  The integer jk is
    reduced mod 2(m+1) first, so every sine argument stays below 2 pi, and
    the entries are looked up in a table of those 2(m+1) scaled sines."""
    k = np.arange(1, m + 1)
    table = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * np.arange(2 * (m + 1)))
    return table[np.outer(k, k) % (2 * (m + 1))]


# At most 16 axis parts are kept: a run uses a few grids, and one entry
# holds at most a 96 x 96 sine matrix (72 KiB).
@functools.lru_cache(maxsize=16)
def _axis_modes(m: int, fold: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-axis parts of `dst_solver` on an axis of m interior nodes,
    read-only: sin^2(k pi / (2 (m + 1))), k = 1..m, and `sine_matrix(m)`
    when m <= `DENSE_DST_MAX` (else None); with `fold` its symmetric modes
    k = 1, 3, .. and sine_matrix(m)[0::2, :c] on the half, c = (m + 1) // 2."""
    sin2 = np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2
    mat = sine_matrix(m) if m <= DENSE_DST_MAX or fold else None
    if fold:
        sin2, mat = sin2[::2], mat[::2, : (m + 1) // 2].copy()
    for a in (sin2, mat):
        if a is not None:
            a.flags.writeable = False
    return sin2, mat


def _along(mat: np.ndarray, y: np.ndarray, axis: int, mat_t: np.ndarray | None = None):
    """`mat` applied along `axis` of the C-contiguous `y`, as one GEMM (last
    axis, by `mat_t`: mat.T as a C-contiguous array, `mat` when symmetric)
    or a stack of them (earlier axes)."""
    shape = y.shape
    pre, m, post = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    if post == 1:
        return (y.reshape(pre, m) @ (mat if mat_t is None else mat_t)).reshape(shape)
    return np.matmul(mat, y.reshape(pre, m, post)).reshape(shape)


def dst_solver(grid: Grid, c, shift: float = 0.0):
    """Exact inverse of sum_i c_i K_i^T K_i + shift * I on interior vectors.

    Each K_i^T K_i is the zero-Dirichlet second difference along axis i,
    whose eigenvectors are the type-I sine modes with eigenvalues
    (4/h_i^2) sin^2(k pi / (2 r_i)), k = 1..r_i - 1; the orthonormal DST-I is
    its own inverse, so the solve is two transforms and a division (fast
    diagonalization, Lynch, Rice & Thomas 1964).  A constant shift only
    moves every eigenvalue.

    The transform is a product with the dense `sine_matrix` (BLAS) along
    every interior axis of at most `DENSE_DST_MAX` nodes, and one pocketfft
    `scipy.fft.dstn` call over the longer axes; both are the same exact
    orthonormal DST-I.  `solve` takes one interior vector (n,) and returns
    one.  `stiffness` scales it by the diagonal of the assembled matrix to
    precondition that matrix.

    On an `Orthant` it inverts R M P: a folded axis takes the vector times
    `orbits` to its odd modes by the `_axis_modes` matrix, back by its
    transpose; one of over `DENSE_DST_MAX` nodes is solved on the grid.
    """
    fold = grid.fold if isinstance(grid, Orthant) else ()
    if any(grid.grid.res[axis] // 2 > DENSE_DST_MAX for axis in fold):
        full, inner = dst_solver(grid.grid, c, shift), grid.interior_slices()

        def across(side, b):  # interior values of one side on the other's interior
            return grid.mirrored(embed_interior(side, b).values, side is grid)[inner].ravel()
        return lambda b: across(grid.grid, full(across(grid, b)))
    shape = grid.interior_shape()
    lam = np.full(shape, float(shift))
    dense = {}
    for axis, (c_i, m, h) in enumerate(zip(c, (grid.grid if fold else grid).interior_shape(),
                                          grid.h)):
        sin2, mat = _axis_modes(m, axis in fold)
        mode = 4.0 / h ** 2 * sin2
        bshape = [1] * grid.dim
        bshape[axis] = mode.size
        lam = lam + c_i * mode.reshape(bshape)
        if mat is not None:
            dense[axis] = (mat, np.ascontiguousarray(mat.T)) if axis in fold else (mat, None)
    fft_axes = [axis for axis in range(grid.dim) if axis not in dense]
    weights = grid.orbits if fold else None

    def transform(y, back=False):
        for axis, (mat, mat_t) in dense.items():
            if back and mat_t is not None:
                mat, mat_t = mat_t, mat
            y = _along(mat, y, axis, mat_t)
        if not fft_axes:
            return y
        import scipy.fft
        return scipy.fft.dstn(y, type=1, norm="ortho", axes=fft_axes)

    def solve(b):
        b = np.reshape(b if weights is None else weights * b, shape)
        return transform(transform(b) / lam, True).ravel()

    return solve


def extract_interior(f: GridField) -> np.ndarray:
    return f.values[f.grid.interior_slices()].ravel()


def embed_interior(grid: Grid, vec: np.ndarray) -> GridField:
    """The zero-boundary field of interior values `vec` (ghosts mirrored)."""
    vals = np.zeros(grid.shape)
    vals[grid.interior_slices()] = np.asarray(vec, dtype=float).reshape(
        grid.interior_shape()
    )
    vals = grid.mirrored(vals) if isinstance(grid, Orthant) else vals
    return GridField(grid, vals)


def stencil_rows(grid: Grid, weights, diag):
    """The DIA rows of J = sum_i K_i^T diag(w_i) K_i + diag(diag) on
    interior nodes in row-major order, K_i being `axis_diff` on
    zero-boundary fields: the one layout of every assembled matrix.
    Returns (rows, offsets, means, diagonal).  Row 0, at offset 0, is the
    array `diag`, to which axis i adds (w_left + w_right)/h_i^2.  Each axis
    of more than one interior node adds the rows of its links -w/h_i^2 from
    each node to its successor (0 at the last one) at offsets +stride_i and
    -stride_i; an axis of one node has none, and its stride would repeat
    the next axis's offset, which DIA refuses.  A DIA row holds the entry of
    column j at index j, so the -stride row is the links and the +stride
    row the links shifted by the stride, its first stride entries 0.  In
    1D, rows[1::-1] is the upper band form of `scipy.linalg.solveh_banded`.
    Only faces of the full face arrays `weights[i]` at interior transverse
    positions enter; `means` are their means.  `diagonal` is J's, row 0
    itself on a grid.  On an `Orthant` the rows are R J P's: the link of a
    folded axis's last node c to its ghost lands on node c - 1 (even axis;
    in row c only) or cancels the mirror face's part of row 0 but not of
    `diagonal` (odd axis); `means` weigh each face by its orbit size.
    """
    shape = grid.interior_shape()
    fold = grid.fold if isinstance(grid, Orthant) else ()
    rows = np.zeros((1 + 2 * sum(m > 1 for m in shape), math.prod(shape)))
    main = rows[0].reshape(shape)
    offsets, means, mirror_faces = [0], [], []
    for axis, (w, h) in enumerate(zip(weights, grid.h)):
        # views with axis i last; the faces at interior transverse positions
        w = w.swapaxes(axis, -1)[(slice(1, -1),) * (grid.dim - 1)]
        sizes = grid.face_orbits[axis].swapaxes(axis, -1) if fold else None
        means.append(float(np.mean(w) if sizes is None else np.sum(sizes * w) / np.sum(sizes)))
        w = w / h ** 2
        main.swapaxes(axis, -1)[...] += w[..., :-1] + w[..., 1:]
        if shape[axis] > 1:
            up, link = rows[len(offsets)], rows[len(offsets) + 1]
            link.reshape(shape).swapaxes(axis, -1)[..., :-1] = -w[..., 1:-1]
            stride = math.prod(shape[axis + 1:])
            up[stride:] = link[:-stride]
            offsets += [stride, -stride]
        if axis in fold and grid.grid.res[axis] % 2:
            mirror_faces.append((axis, w[..., -1]))
        elif axis in fold and shape[axis] > 1:
            link.reshape(shape).swapaxes(axis, -1)[..., -2] -= w[..., -1]
    rows[0] += diag
    diagonal = rows[0].copy() if mirror_faces else rows[0]
    for axis, w in mirror_faces:
        rows[0].reshape(shape).swapaxes(axis, -1)[..., -1] -= w
    return rows, offsets, means, diagonal


def _median(x: np.ndarray) -> float:
    """`np.median` of a flat array, bit for bit, from one partition where
    np.median makes one at two or three places."""
    k = x.size // 2
    part = np.partition(x, k)
    if np.isnan(part[k:]).any():  # a NaN sorts last
        return math.nan
    if x.size % 2:
        return float(part[k])
    return float((np.max(part[:k]) + part[k]) / 2)


def stiffness(grid: Grid, weights, diag):
    """The `stencil_rows` matrix J as a DIA matrix and its preconditioner
    b -> s * P^-1(s * b), with P = sum_i mean(w_i) K_i^T K_i +
    median(diag) I inverted by `dst_solver` and the diagonal scaling
    s = sqrt(diag P / diag J) (Concus & Golub, SIAM J. Numer. Anal. 10,
    1973).  The preconditioner is symmetric positive definite, so CG and
    LOBPCG stay valid with it; it takes one interior vector like
    `dst_solver`, and it is exact when weights and diagonal are constant,
    since then s = 1; on an `Orthant` the median counts each entry orbit
    size times.  `stability_index` factors the matrix itself by SuperLU in
    1D and 2D and uses the preconditioner only in 3D.

    The scaling pays on smooth coefficients, as the ladder iterates and the
    stability candidates give: on 48^2 p = (2, 3) Jacobians of a smooth
    field (8 seeds) CG to relative residual 1e-2 took 11-13 iterations
    against 18-23 unscaled (about 0.6x).  On a field that is random node
    by node it took 39-50 against 17-22 (about 2.3x).
    """
    import scipy.sparse as sp
    rows, offsets, means, diagonal = stencil_rows(grid, weights, diag)
    n = rows.shape[1]
    matrix = sp.dia_matrix((rows, offsets), shape=(n, n))
    shift = _median(np.repeat(diag, grid.orbits) if isinstance(grid, Orthant) else diag)
    inverse = dst_solver(grid, means, shift)
    scale = np.sqrt((shift + sum(2.0 * c / h ** 2 for c, h in zip(means, grid.h))) / diagonal)
    return matrix, lambda b: scale * inverse(scale * b)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word[:1].upper() + word[1:] for word in rest)


def _report_value(value, keys: dict):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return report_dict(value, **keys)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_report_value(v, keys) for v in value]
    if isinstance(value, dict):
        return {str(k): _report_value(v, keys) for k, v in value.items()}
    return value


def report_dict(report, **keys) -> dict:
    """The JSON document of a report dataclass: each field under its
    camelCase name, or under the key that `keys` gives for it (None drops
    the field); `keys` holds at every depth.  A value with a `to_dict` gives
    that document, a nested dataclass its own `report_dict`, an enum its
    value, a tuple or list a list, a dict one with str keys; any other value
    is kept as it is."""
    doc = {}
    for f in fields(report):
        key = keys.get(f.name, _camel(f.name))
        if key is not None:
            doc[key] = _report_value(getattr(report, f.name), keys)
    return doc


_FIELD_MAGIC = "anisofield"


def save_field(f: GridField, path, csv_path=None) -> None:
    """Text snapshot: one header line (dim, res, box), then node values in
    row-major order, one per line ("%.17g").  With `csv_path` the same pass
    also writes `export_field_csv`'s table there, from the same formatted
    values (`_write_field`)."""
    _write_field(f, path, csv_path)


def load_field(path) -> GridField:
    """Read a `save_field` snapshot; a malformed header (longer than
    `MAX_HEADER_CHARS`, read no further than that, or with tokens past the
    box), a grid that `Grid` refuses (checked before any value is read), a
    body row that is not one value or is longer than `MAX_ROW_CHARS`
    (refused as soon as it is read), a value count that differs from the
    header's grid (read no further than one block of `_READ_CHARS`
    characters past it), or a non-finite value is a ValidationError.  Each
    byte is read as one character (Latin-1), so no byte fails to decode."""
    with open(path, encoding="latin-1") as fh:
        line = fh.readline(MAX_HEADER_CHARS + 1)
        header = line.split()
        if not header or header[0] != _FIELD_MAGIC:
            raise ValidationError(f"{path} is not a field snapshot")
        if len(line.rstrip("\n")) > MAX_HEADER_CHARS:
            raise ValidationError(
                f"{path} is a malformed field snapshot: "
                f"its header is longer than {MAX_HEADER_CHARS} characters"
            )
        try:
            dim = int(header[1])
            if len(header) > 2 + 3 * dim:
                raise ValueError(f"header tokens past the box of a {dim}D grid")
            res = tuple(int(x) for x in header[2 : 2 + dim])
            flat_box = [float(x) for x in header[2 + dim : 2 + 3 * dim]]
            box = tuple((flat_box[2 * i], flat_box[2 * i + 1]) for i in range(dim))
            grid = Grid(box=box, res=res)
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"{path} is a malformed field snapshot: {exc}") from exc
        expected = math.prod(grid.shape)
        # the row is left out of the message: it may be huge
        not_one_value = f"{path} is a malformed field snapshot: a body row is not one value"
        # one row past the header's count is enough to refuse a longer body
        values = np.empty(expected + 1)
        count, pending = 0, ""
        while count <= expected:
            block = fh.read(_READ_CHARS)
            text = pending + block
            if block:  # the text after the last newline starts the next row
                rows = text.split("\n")
                pending = rows.pop()
            else:  # at the end of the file a last row may lack its newline
                rows, pending = ([text] if text else []), ""
            # the longest row, the pending one included, is the largest gap
            # between newlines
            codes = np.frombuffer(text.encode("latin-1"), np.uint8)
            gaps = np.diff(np.flatnonzero(codes == 10), prepend=-1, append=codes.size)
            keep = expected + 1 - count
            if len(rows) >= keep:  # the last block: later rows are never parsed
                rows, gaps = rows[:keep], gaps[:keep]
            if gaps.max() > MAX_ROW_CHARS + 1:
                raise ValidationError(not_one_value)
            try:
                values[count : count + len(rows)] = np.fromiter(map(float, rows), float, len(rows))
            except ValueError as exc:
                raise ValidationError(not_one_value) from exc
            count += len(rows)
            if not block:
                break
    if count != expected:
        shown = f"more than {expected}" if count > expected else count
        raise ValidationError(f"{path} holds {shown} values, its header needs {expected}")
    values = values[:expected]
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path} holds non-finite values")
    return GridField(grid, values.reshape(grid.shape))


def export_field_csv(f: GridField, path) -> None:
    """CSV of the nodes in row-major order: coordinates x1.., value ("%.17g"),
    with `csv.writer`'s comma and CRLF; no field needs quoting."""
    _write_field(f, None, path)


def _write_field(f: GridField, snapshot_path, csv_path) -> None:
    """The one field writer: formats each node value once ("%.17g"),
    `_WRITE_VALUES` values at a time, and writes each chunk to the
    `save_field` snapshot at `snapshot_path` and to the `export_field_csv`
    table at `csv_path`; a None path skips its file."""
    header = [_FIELD_MAGIC, str(f.grid.dim)]
    header += [str(r) for r in f.grid.res]
    header += [f"{v!r}" for pair in f.grid.box for v in pair]
    axes = [["%.17g" % x for x in axis.tolist()] for axis in f.grid.axes()]
    coords = map(",".join, itertools.product(*axes))
    flat = f.values.ravel()
    with contextlib.ExitStack() as stack:
        txt = None if snapshot_path is None else stack.enter_context(open(snapshot_path, "w"))
        table = None if csv_path is None else stack.enter_context(
            open(csv_path, "w", newline=""))
        if txt is not None:
            txt.write(" ".join(header) + "\n")
        if table is not None:
            table.write(",".join([f"x{i + 1}" for i in range(f.grid.dim)] + ["value"]) + "\r\n")
        for start in range(0, flat.size, _WRITE_VALUES):
            chunk = flat[start : start + _WRITE_VALUES].tolist()
            body = "%.17g\n" * len(chunk) % tuple(chunk)
            if txt is not None:
                txt.write(body)
            if table is not None:
                # coordinate rows and values alternate; the rows are taken
                # one per value, so none past the chunk's end is consumed
                row_args = [None] * (2 * len(chunk))
                row_args[0::2] = itertools.islice(coords, len(chunk))
                row_args[1::2] = body.split("\n")[:-1]
                table.write("%s,%s\r\n" * len(chunk) % tuple(row_args))
