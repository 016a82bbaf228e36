"""Independent oracles shared by the test modules: code that shares no
assembly or solver with the package under test."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from anisolab.grid import GridField


def rand_zero_boundary(grid, rng, scale=1.0):
    """A field of scaled standard normal interior values, zero on the boundary ring."""
    vals = np.zeros(grid.shape)
    vals[grid.interior_slices()] = scale * rng.standard_normal(grid.interior_shape())
    return GridField(grid, vals)


def kron_difference_matrix(grid, axis):
    """Forward differences along `axis` from interior nodes to the faces of
    that axis at interior transverse positions, by Kronecker products: face
    k is (u_{k+1} - u_k)/h, with axis 0 outermost."""
    blocks = []
    for j, (r, h) in enumerate(zip(grid.res, grid.h)):
        if j == axis:
            blocks.append(sp.diags([np.full(r - 1, 1.0 / h), np.full(r - 1, -1.0 / h)],
                                   [0, -1], shape=(r, r - 1)))
        else:
            blocks.append(sp.identity(r - 1))
    mat = blocks[0]
    for blk in blocks[1:]:
        mat = sp.kron(mat, blk)
    return mat.tocsr()


def level_source(shift):
    """The level source u -> exp(1/(u + shift)) and its derivative."""
    return (lambda u: np.exp(1.0 / (u + shift)),
            lambda u: -np.exp(1.0 / (u + shift)) / (u + shift) ** 2)


def collocation_oracle(res, source, dsource, boundary=0.0):
    """Solve -u'' = source(u) on (0,1), u = boundary at both ends, by damped
    Newton from u = boundary on the tridiagonal 3-point collocation system;
    `dsource` is the derivative of `source`.  Returns the nodal values,
    boundary included."""
    h = 1.0 / res
    n = res - 1
    u = np.full(n, float(boundary))

    def resid(u):
        full = np.concatenate([[boundary], u, [boundary]])
        lap = (-full[:-2] + 2 * full[1:-1] - full[2:]) / h ** 2
        return lap - source(u)

    for _ in range(80):
        r = resid(u)
        if np.max(np.abs(r)) < 1e-12:
            break
        band = np.zeros((3, n))
        band[0, 1:] = -1.0 / h ** 2
        band[1] = 2.0 / h ** 2 - dsource(u)
        band[2, :-1] = -1.0 / h ** 2
        du = scipy.linalg.solve_banded((1, 1), band, -r)
        step, base = 1.0, np.linalg.norm(r)
        while step > 1e-12 and np.linalg.norm(resid(u + step * du)) >= base:
            step *= 0.5
        u = u + step * du
    return np.concatenate([[boundary], u, [boundary]])
