"""Conservative finite-difference operators -div(A grad u) + kappa u.

The scheme is flux-form and second order: per axis ``i`` the normal flux
uses the coefficient block ``a_ii`` evaluated exactly at face centers and
the exact normal difference; cross blocks ``a_ij`` (i != j) are evaluated
at nodes and paired through centered differences.  With this split the
assembled matrix of the adjoint field is exactly the transpose of the
assembled matrix, and symmetric fields give exactly symmetric matrices.

The discrete divergence of face data is the negative transpose of the
face-difference operator, so summation by parts holds exactly under
periodic boundary conditions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConverged
from .grids import PERIODIC, GridFunction


def _axis_face_diff(cells, h, bc):
    n = int(cells)
    nodes = n if bc == PERIODIC else n + 1     # the periodic last face wraps to node 0
    rows = np.arange(n)
    data = np.concatenate([-np.ones(n), np.ones(n)])
    idx_rows = np.concatenate([rows, rows])
    idx_cols = np.concatenate([rows, (rows + 1) % nodes])
    return sp.csr_matrix((data / h, (idx_rows, idx_cols)), shape=(n, nodes))


def _axis_centered(cells, h, bc):
    if bc == PERIODIC:
        n = int(cells)
        rows = np.arange(n)
        data = np.concatenate([np.ones(n), -np.ones(n)]) / (2.0 * h)
        cols = np.concatenate([(rows + 1) % n, (rows - 1) % n])
        return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))
    n = int(cells) + 1
    rows = np.arange(1, n - 1)
    data = np.concatenate([np.ones(n - 2), -np.ones(n - 2)]) / (2.0 * h)
    cols = np.concatenate([rows + 1, rows - 1])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))


def _kron_chain(grid, ax, mat):
    factors = []
    for a in range(grid.d):
        if a == ax:
            factors.append(mat)
        else:
            factors.append(sp.identity(grid.node_counts[a], format="csr"))
    return functools.reduce(lambda x, y: sp.kron(x, y, format="csr"), factors)


def face_diff_matrix(grid, ax):
    """Sparse normal-difference operator onto faces orthogonal to ``ax``."""
    return _kron_chain(grid, ax, _axis_face_diff(grid.cells[ax], grid.h[ax], grid.bc))


def centered_diff_matrix(grid, ax):
    """Sparse centered node difference along ``ax`` (zero rows on Dirichlet edges)."""
    return _kron_chain(grid, ax, _axis_centered(grid.cells[ax], grid.h[ax], grid.bc))


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    restarts: int
    method: str


class DiscreteOperator:
    """Assembled stencil for -div(A grad u) + kappa u on a BoxGrid.

    ``face_means[i, alpha]`` is the mean of the face coefficients
    a_ii^{alpha alpha} on the faces normal to axis ``i``; the solver's
    preconditioner for d >= 2 is built from them.
    """

    def __init__(self, grid, m, kappa, matrix, symmetric, face_means):
        self.grid = grid
        self.kappa = float(kappa)
        self.m = m
        self.matrix = matrix.tocsr()
        self.symmetric = bool(symmetric)
        self.face_means = np.asarray(face_means, dtype=float)

    @functools.cached_property
    def interior_indices(self):
        """Flat unknown indices (component-major) kept in a Dirichlet solve."""
        if self.grid.bc == PERIODIC:
            return np.arange(self.m * self.grid.node_total)
        node_mask = self.grid.interior_mask().ravel()
        return np.flatnonzero(np.tile(node_mask, self.m))

    @functools.cached_property
    def matrix_interior(self):
        if self.grid.bc == PERIODIC:
            return self.matrix
        idx = self.interior_indices
        return self.matrix[idx][:, idx].tocsr()

    @property
    def singular(self):
        """True for kappa = 0 on the periodic cell: constants span the kernel."""
        return self.kappa == 0.0 and self.grid.bc == PERIODIC

    @functools.cached_property
    def preconditioner(self):
        """Approximate inverse of ``matrix_interior``, built once per operator.

        d = 1: the exact sparse LU factor of the (block) tridiagonal matrix.
        d >= 2, or the singular periodic cell: the inverse of the
        constant-coefficient screened operator (see ``_fast_poisson``).
        """
        mat = self.matrix_interior
        if self.grid.d == 1 and not self.singular:
            lu = spla.splu(mat.tocsc())
            return spla.LinearOperator(mat.shape, matvec=lu.solve)
        return _fast_poisson(self)

    def apply(self, u):
        """Apply to a GridFunction; rows at Dirichlet boundary nodes are not meaningful."""
        flat = u.values.reshape(-1)
        out = self.matrix @ flat
        return GridFunction(self.grid, out.reshape(u.values.shape))


def assemble(field, grid, kappa):
    """Assemble the conservative second-order stencil.

    Requires an ellipticity certificate on the field; refuses to assemble
    without one.  ``kappa`` must be nonnegative and, with periodic boundary
    conditions and kappa = 0, the constant kernel is handled by the solver
    through mean projection.
    """
    if field.ellipticity is None:
        raise ValueError("field carries no ellipticity certificate; "
                         "run certify_ellipticity(field) first")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if field.d != grid.d:
        raise ValueError("field and grid dimensions differ")
    d, m = grid.d, field.m
    n_nodes = grid.node_total
    blocks = [[[] for _ in range(m)] for _ in range(m)]
    face_means = np.empty((d, m))

    for i in range(d):
        D_i = face_diff_matrix(grid, i)
        pts, _ = grid.face_points(i)
        coeffs = field.evaluate(pts)
        for al in range(m):
            face_means[i, al] = coeffs[:, i, i, al, al].mean()
            for be in range(m):
                vals = coeffs[:, i, i, al, be]
                if not np.any(vals):
                    continue
                blocks[al][be].append(D_i.T @ sp.diags(vals) @ D_i)
        del coeffs

    if d > 1:
        node_pts = grid.node_points()
        node_coeffs = field.evaluate(node_pts)
        mask = grid.interior_mask().ravel().astype(float)
        G = [centered_diff_matrix(grid, ax) for ax in range(d)]
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for al in range(m):
                    for be in range(m):
                        vals = node_coeffs[:, i, j, al, be] * mask
                        if not np.any(vals):
                            continue
                        blocks[al][be].append(G[i].T @ sp.diags(vals) @ G[j])
        del node_coeffs

    zero = sp.csr_matrix((n_nodes, n_nodes))
    grid_blocks = [[functools.reduce(lambda x, y: x + y, blocks[al][be], zero)
                    for be in range(m)] for al in range(m)]
    L = sp.bmat(grid_blocks, format="csr")
    if kappa:
        L = L + kappa * sp.identity(m * n_nodes, format="csr")
    return DiscreteOperator(grid, m, kappa, L, symmetric=field.symmetric,
                            face_means=face_means)


def divergence_rhs(g_faces, grid):
    """Discrete divergence of per-axis face data, adjoint to the face gradient.

    ``g_faces[ax]``, flat (m, faces) or shaped (m, *grid.face_shape(ax)), holds
    samples at the centers of the faces orthogonal to ``ax``.  Defined as
    -sum_ax D_ax^T g_ax so that sum div(g).v = -sum g.grad v exactly under
    periodic boundary conditions.
    """
    m = g_faces[0].shape[0]
    out = np.zeros((m,) + grid.node_counts)
    for ax in range(grid.d):
        D = face_diff_matrix(grid, ax)
        flat = g_faces[ax].reshape(m, -1)
        out -= (D.T @ flat.T).T.reshape((m,) + grid.node_counts)
    return GridFunction(grid, out)


def _fast_poisson(op):
    """Inverse of sum_i abar_i (-Delta_h,i) + kappa per component, as a LinearOperator.

    ``abar_i`` = ``op.face_means[i]``.  The 1D second differences are
    diagonalized by the orthonormal DST-I on the interior nodes of the
    Dirichlet box and by the real FFT on the periodic cell; on the singular
    periodic cell (kappa = 0) the constant mode is mapped to zero, matching
    the solver's mean projection.  The constant-coefficient operator is
    spectrally equivalent to the assembled one (Concus & Golub 1973), so
    Krylov iteration counts do not grow with the box size or 1/h.
    """
    import scipy.fft as sfft          # imported on first use: it costs import time

    grid, m, d = op.grid, op.m, op.grid.d
    periodic = grid.bc == PERIODIC
    shape = tuple(int(n) if periodic else int(n) - 1 for n in grid.cells)
    symbol = np.full((m,) + (1,) * d, op.kappa)
    for i, n in enumerate(grid.cells):
        if periodic:
            # rfftn halves the last axis
            k = np.arange(n // 2 + 1 if i == d - 1 else n)
            s = np.sin(np.pi * k / n)
        else:
            s = np.sin(0.5 * np.pi * np.arange(1, n) / n)
        lam = (2.0 * s / grid.h[i]) ** 2
        along_i = [1] * d
        along_i[i] = lam.size
        symbol = symbol + op.face_means[i].reshape((m,) + (1,) * d) * lam.reshape(along_i)
    inv = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inv, where=symbol > 0.0)
    axes = tuple(range(1, d + 1))
    full = (m,) + shape

    if periodic:
        def matvec(r):
            spec = sfft.rfftn(r.reshape(full), axes=axes)
            return sfft.irfftn(spec * inv, s=shape, axes=axes).reshape(-1)
    else:
        def matvec(r):
            spec = sfft.dstn(r.reshape(full), type=1, axes=axes, norm="ortho")
            return sfft.idstn(spec * inv, type=1, axes=axes, norm="ortho").reshape(-1)

    n_unknowns = int(np.prod(full))
    return spla.LinearOperator((n_unknowns, n_unknowns), matvec=matvec)


def solve(op, rhs, tol=1e-10, max_iters=None):
    """Krylov solve to a relative residual ||L u - b|| / ||b|| <= tol.

    Conjugate gradients for symmetric operators, BiCGSTAB otherwise, both
    preconditioned with ``op.preconditioner``; the true residual is
    re-checked after each Krylov run and the iteration restarts from the
    current iterate if the recursion drifted.  Raises
    :class:`NonConverged` when the budget is exhausted.  A zero right-hand
    side returns the zero function immediately.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b_full = rhs.values.reshape(-1)
    idx = op.interior_indices
    b = b_full[idx]
    shape = rhs.values.shape

    project_mean = op.singular
    n_nodes = op.grid.node_total

    def _project(vec):
        v = vec.reshape(op.m, n_nodes)
        return (v - v.mean(axis=1, keepdims=True)).reshape(-1)

    if project_mean:
        b = _project(b)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return GridFunction(op.grid, np.zeros(shape), SolveInfo(0, 0.0, 0, "trivial"))

    mat = op.matrix_interior
    if max_iters is None:
        max_iters = max(1000, 40 * int(np.sqrt(mat.shape[0])) + 2000)
    M = op.preconditioner
    method = spla.cg if op.symmetric else spla.bicgstab
    x = np.zeros_like(b)
    total_iters = 0
    restarts = 0
    residual = np.inf
    while total_iters < max_iters:
        budget = max_iters - total_iters
        count = [0]

        def _cb(_xk):
            count[0] += 1

        x, _ = method(mat, b, x0=x, rtol=tol * 0.5, atol=0.0, maxiter=budget,
                      M=M, callback=_cb)
        total_iters += max(count[0], 1)
        if project_mean:
            x = _project(x)
        residual = float(np.linalg.norm(mat @ x - b)) / b_norm
        if residual <= tol:
            break
        restarts += 1
        if restarts > 4:
            break
    if residual > tol:
        raise NonConverged(residual, total_iters)

    full = np.zeros(op.m * n_nodes)
    full[idx] = x
    return GridFunction(op.grid, full.reshape(shape),
                        SolveInfo(total_iters, residual, restarts,
                                  "cg" if op.symmetric else "bicgstab"))
