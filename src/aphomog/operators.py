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
import scipy.fft as sfft
import scipy.sparse as sp

from .errors import NonConverged
from .grids import PERIODIC, GridFunction, _dot


def _place(dest, src, shift, periodic):
    """``dest[..., x + shift] += src[..., x]`` over the trailing grid axes.

    The periodic cell wraps; on a Dirichlet grid the shifted entries that
    leave the nodes are dropped.
    """
    d = len(shift)
    if periodic:
        dest += np.roll(src, shift, axis=tuple(range(-d, 0)))
        return
    dsl, ssl = [Ellipsis], [Ellipsis]
    for s, n_src, n_dest in zip(shift, src.shape[-d:], dest.shape[-d:]):
        lo, hi = max(s, 0), min(n_src + s, n_dest)
        dsl.append(slice(lo, hi))
        ssl.append(slice(lo - s, hi - s))
    dest[tuple(dsl)] += src[tuple(ssl)]


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    restarts: int
    method: str


class DiscreteOperator:
    """Assembled stencil for -div(A grad u) + kappa u on a BoxGrid.

    ``matrix`` has a row per unknown (``grid.unknowns``, component-major)
    and a column per node, so a Dirichlet box's boundary nodes are columns only.
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

    @property
    def singular(self):
        """True for kappa = 0 on the periodic cell: constants span the kernel."""
        return self.kappa == 0.0 and self.grid.bc == PERIODIC

    @functools.cached_property
    def preconditioner(self):
        """Approximate inverse of the matrix on the unknowns, a function of the
        residual built once per operator.

        d = 1: the solve with the exact sparse LU factor of the unknowns'
        (block) tridiagonal block.  d >= 2, or the singular periodic cell: the
        inverse of the constant-coefficient screened operator (see ``_fast_poisson``).
        """
        if self.grid.d == 1 and not self.singular:
            from scipy.sparse.linalg import splu
            cols = np.flatnonzero(np.tile(self.grid.interior_mask().ravel(), self.m))
            return splu(self.matrix[:, cols].tocsc()).solve
        return _fast_poisson(self)

    def apply(self, u):
        """Apply to a GridFunction; the rows of Dirichlet boundary nodes are 0."""
        out = np.zeros_like(u.values)
        rows = out[(slice(None),) + self.grid.unknowns]
        rows[...] = (self.matrix @ u.values.reshape(-1)).reshape(rows.shape)
        return GridFunction(self.grid, out)


def assemble(field, grid, kappa, face_rows=None):
    """Assemble the conservative second-order stencil.

    Reads the field's ellipticity certificate before sampling anything, so
    a non-elliptic field raises :class:`EllipticityViolation` here.
    ``kappa`` must be nonnegative and, with periodic boundary conditions and
    kappa = 0, the constant kernel is handled by the solver through mean
    projection.  ``face_rows[i]``, when given, is row i of A already sampled
    at the centers of the faces normal to axis i (shape (faces_i, d, m, m),
    as ``CorrectorSet.face_rows``); ``a_ii`` is read from it instead of
    evaluating the field again.  The nodes are sampled for the cross blocks
    only when the field is not ``cross_free``.

    The matrix is built in one pass over stencil steps: ``coef[s]`` holds,
    for every component pair, the coefficient of u(x + s h) in the row of
    node x.  Each entry is formed and summed as in the sparse products
    sum_i D_i^T diag(a_ii) D_i + sum_{i != j} G_i^T diag(a_ij) G_j + kappa
    (D_i the face difference, G_i the centered difference), so the matrix
    is the same bit for bit in the unknowns' rows, the only rows it keeps.
    """
    field.ellipticity          # made on first read; raises if not elliptic
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if field.d != grid.d:
        raise ValueError("field and grid dimensions differ")
    d, m = grid.d, field.m
    nodes, periodic = grid.node_counts, grid.bc == PERIODIC
    eye = np.eye(d, dtype=int)
    zero = 0 * eye[0]
    coef = {}
    face_means = np.empty((d, m))

    def add(step, src, shift):
        step = tuple(int(t) for t in step)
        if step not in coef:
            coef[step] = np.zeros((m, m) + nodes)
        _place(coef[step], src, shift, periodic)

    for i, e in enumerate(eye):
        if face_rows is None:
            a = field.evaluate(grid.face_points(i)[0])[:, i, i]
        else:
            a = face_rows[i][:, i]
        for al in range(m):
            face_means[i, al] = a[:, al, al].mean()
        a = np.moveaxis(a, 0, -1).reshape((m, m) + grid.face_shape(i))
        inv_h = 1.0 / grid.h[i]
        flux = (inv_h * a) * inv_h          # face f couples nodes f and f + e
        del a
        # D_i^T diag(a) D_i sums its two diagonal terms before the axes add up
        diag = np.zeros((m, m) + nodes)
        _place(diag, flux, zero, periodic)
        _place(diag, flux, e, periodic)
        add(zero, diag, zero)
        add(e, -flux, zero)
        add(-e, -flux, e)
        del flux, diag

    if d > 1 and not field.cross_free:
        node_coeffs = field.evaluate(grid.node_points())
        mask = grid.interior_mask()
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                a = np.moveaxis(node_coeffs[:, i, j], 0, -1).reshape((m, m) + nodes) * mask
                if not np.any(a):
                    continue
                # node x couples x + si e_i (row) with x + sj e_j (column)
                x = ((1.0 / (2.0 * grid.h[i])) * a) * (1.0 / (2.0 * grid.h[j]))
                for si in (1, -1):
                    for sj in (1, -1):
                        add(sj * eye[j] - si * eye[i], x if si == sj else -x, si * eye[i])
        del node_coeffs

    if kappa:
        for al in range(m):
            coef[(0,) * d][al, al] += kappa
    n = grid.node_total
    order = sorted(coef)        # ascending column offsets; sort_indices orders wrap-around
    itype = np.int32 if m * n < 2 ** 31 else np.int64
    node = np.arange(n, dtype=itype).reshape(nodes)
    vals = np.empty((m, n, m, len(order)))
    cols = np.empty((n, len(order)), dtype=itype)
    for k, s in enumerate(order):
        vals[..., k] = coef.pop(s).reshape(m, m, n).transpose(0, 2, 1)
        cols[:, k] = np.roll(node, tuple(-t for t in s), axis=tuple(range(d))).ravel()
    cols = cols[None, :, None, :] + (n * np.arange(m, dtype=itype))[:, None]
    rows = grid.interior_mask().ravel()
    keep = vals != 0.0
    keep &= rows[:, None, None]
    counts = keep.reshape(m, n, -1).sum(axis=2)[:, rows].ravel()
    L = sp.csr_matrix((vals[keep], np.broadcast_to(cols, vals.shape)[keep],
                       np.concatenate(([0], np.cumsum(counts)))),
                      shape=(counts.size, m * n))
    L.sort_indices()
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
    periodic = grid.bc == PERIODIC
    out = np.zeros((m,) + grid.node_counts)
    for ax, e in enumerate(np.eye(grid.d, dtype=int)):
        q = (1.0 / grid.h[ax]) * g_faces[ax].reshape((m,) + grid.face_shape(ax))
        dt_g = np.zeros_like(out)               # D_ax^T g: face f gives -q to f, +q to f + e
        _place(dt_g, -q, 0 * e, periodic)
        _place(dt_g, q, e, periodic)
        out -= dt_g
    return GridFunction(grid, out)


def _fast_poisson(op):
    """Inverse of sum_i abar_i (-Delta_h,i) + kappa per component, as a function.

    ``abar_i`` = ``op.face_means[i]``.  The 1D second differences are
    diagonalized by the orthonormal DST-I on the interior nodes of the
    Dirichlet box and by the real FFT on the periodic cell; on the singular
    periodic cell (kappa = 0) the constant mode is mapped to zero, matching
    the solver's mean projection.  The constant-coefficient operator is
    spectrally equivalent to the assembled one (Concus & Golub 1973), so
    Krylov iteration counts do not grow with the box size or 1/h.
    """
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

    # the spectrum is a fresh array: scale and invert it in place, never r
    if periodic:
        def matvec(r):
            spec = sfft.rfftn(r.reshape(full), axes=axes)
            spec *= inv
            return sfft.irfftn(spec, s=shape, axes=axes, overwrite_x=True).reshape(-1)
    else:
        def matvec(r):
            spec = sfft.dstn(r.reshape(full), type=1, axes=axes, norm="ortho")
            spec *= inv
            return sfft.idstn(spec, type=1, axes=axes, norm="ortho",
                              overwrite_x=True).reshape(-1)

    return matvec


def _norm(v):
    return np.sqrt(_dot(v, v))


def _cg(matvec, psolve, b, x, atol, maxiter):
    """Preconditioned conjugate gradients from ``x`` (updated in place) until
    ||r|| < atol; returns (x, completed iterations).

    The recurrences, stopping test and iteration count are scipy 1.17's
    ``cg`` operation for operation; every inner product and norm is ``_dot``.
    """
    r = b - matvec(x) if x.any() else b.copy()
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, iteration
        z = psolve(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def _bicgstab(matvec, psolve, b, x, atol, maxiter):
    """Preconditioned BiCGSTAB, as :func:`_cg` for scipy 1.17's ``bicgstab``:
    the same recurrences, stopping tests and breakdown checks (a breakdown
    returns the iterate so far), and every inner product and norm is ``_dot``.
    """
    tiny = np.finfo(np.float64).eps ** 2
    r = b - matvec(x) if x.any() else b.copy()
    r0 = r.copy()
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, iteration
        rho = _dot(r0, r)
        if np.abs(rho) < tiny:
            return x, iteration
        if iteration > 0:
            if np.abs(omega) < tiny:
                return x, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = matvec(phat)
        rv = _dot(r0, v)
        if rv == 0:
            return x, iteration
        alpha = rho / rv
        r -= alpha * v
        # scipy copies r into s here; the two stay equal until r's update below
        if _norm(r) < atol:
            x += alpha * phat
            return x, iteration
        shat = psolve(r)
        t = matvec(shat)
        omega = _dot(t, r) / _dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, maxiter


def solve(op, rhs, tol=1e-10, max_iters=None):
    """Krylov solve to a relative residual ||L u - b|| / ||b|| <= tol.

    Conjugate gradients for symmetric operators, BiCGSTAB otherwise, both
    preconditioned with ``op.preconditioner``; the true residual is
    re-checked after each Krylov run and the iteration restarts from the
    current iterate if the recursion drifted.  Every inner product is the
    fixed-order ``_dot``, so the result does not depend on the BLAS thread
    count.  Raises :class:`NonConverged` when the budget is exhausted.  A
    zero right-hand side returns the zero function immediately.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    shape = rhs.values.shape
    unknowns = (slice(None),) + op.grid.unknowns
    b = rhs.values[unknowns].reshape(-1)

    def _project(vec):
        v = vec.reshape(op.m, -1)
        return (v - v.mean(axis=1, keepdims=True)).reshape(-1)

    if op.singular:
        b = _project(b)

    b_norm = float(_norm(b))
    if b_norm == 0.0:
        return GridFunction(op.grid, np.zeros(shape), SolveInfo(0, 0.0, 0, "trivial"))

    # x enters the matrix through a full-grid buffer whose boundary entries
    # stay 0.0; a row then sums +-0.0 for them, which changes no value
    full = np.zeros(shape)
    inner = full[unknowns]

    def matvec(x):
        inner[...] = x.reshape(inner.shape)
        return op.matrix @ full.reshape(-1)

    if max_iters is None:
        max_iters = max(1000, 40 * int(np.sqrt(b.size)) + 2000)
    krylov = _cg if op.symmetric else _bicgstab
    atol = tol * 0.5 * b_norm
    x = np.zeros_like(b)
    total_iters = 0
    restarts = 0
    residual = np.inf
    while total_iters < max_iters:
        x, iters = krylov(matvec, op.preconditioner, b, x, atol,
                          max_iters - total_iters)
        total_iters += max(iters, 1)
        if op.singular:
            x = _project(x)
        residual = float(_norm(matvec(x) - b)) / b_norm
        if residual <= tol:
            break
        restarts += 1
        if restarts > 4:
            break
    if residual > tol:
        raise NonConverged(residual, total_iters)

    inner[...] = x.reshape(inner.shape)
    return GridFunction(op.grid, full,
                        SolveInfo(total_iters, residual, restarts,
                                  "cg" if op.symmetric else "bicgstab"))
