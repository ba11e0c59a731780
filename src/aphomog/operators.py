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
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonConverged
from .fields import sample_mesh
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


# rows per block of the stencil matvec: its partial sums and products, two
# arrays of this length, stay in a core's L2 cache.  It serves grids of more
# rows than a block: one pass over all rows took 6.1 against 3.6 ms at 769^2
# nodes and 38 against 19 ms at 1537^2 (2-core x86 VM, median of 9); up to
# 257^2 nodes the rows are 1-3 blocks and neither form was consistently faster.
# At 769^2, 16384 to 65536 rows per block were fastest.
_MATVEC_BLOCK = 32768


class DiscreteOperator:
    """Assembled stencil for -div(A grad u) + kappa u on a BoxGrid.

    ``coef[step]``, one (m, m, *nodes) array per stencil step, holds for
    every component pair the coefficient of u(x + step h) in the row of node
    x.  The operator's rows are the unknowns' (``grid.unknowns``,
    component-major); a Dirichlet box's boundary nodes enter as columns only.
    ``face_means[i, alpha]`` is the mean of the face coefficients
    a_ii^{alpha alpha} on the faces normal to axis ``i``; the solver's
    preconditioner for d >= 2 is built from them.
    """

    def __init__(self, grid, m, kappa, coef, symmetric, face_means):
        self.grid = grid
        self.kappa = float(kappa)
        self.m = m
        self.coef = coef
        self.symmetric = bool(symmetric)
        self.face_means = np.asarray(face_means, dtype=float)

    @property
    def singular(self):
        """True for kappa = 0 on the periodic cell: constants span the kernel."""
        return self.kappa == 0.0 and self.grid.bc == PERIODIC

    @functools.cached_property
    def matrix(self):
        """The operator as a CSR matrix with a row per unknown and a column
        per node, built on first read: only the d = 1 preconditioner needs it.

        Its rows hold the nonzero coefficients in ascending column order,
        the order in which ``matvec`` sums them.
        """
        import scipy.sparse as sp
        grid, m, d = self.grid, self.m, self.grid.d
        n = grid.node_total
        node = np.arange(n).reshape(grid.node_counts)
        rows, cols, vals = [], [], []
        for s, c in self.coef.items():
            col = np.roll(node, tuple(-t for t in s), axis=tuple(range(d))).ravel()
            for al, be in itertools.product(range(m), range(m)):
                rows.append(al * n + node.ravel())
                cols.append(be * n + col)
                vals.append(c[al, be].ravel())
        L = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(m * n, m * n))
        L = L[np.flatnonzero(np.tile(grid.interior_mask().ravel(), m))]
        L.eliminate_zeros()
        L.sort_indices()
        return L

    @functools.cached_property
    def _plan(self):
        """How ``matvec`` walks the stencil: (unknowns' shape, blocks, wrap).

        A row x whose neighbours x + step do not wrap takes its terms in
        ascending column order, component by component and then by the
        step's flat offset, so each term is one product of flat contiguous
        slices.  The rows run in blocks of whole slabs along axis 0, so that
        a block's partial sums and products (views of two buffers kept here,
        so one matvec runs at a time per operator) stay in cache while its
        terms add up.  A block holds its output rows, its views of the two
        buffers and of the unknowns among its sums, and per row component
        its terms as (coefficients, column component, first and last node).
        Rows of the periodic cell's outer layer may wrap: ``wrap`` gathers
        them term by term with their columns sorted, as the CSR stores them.
        """
        grid, m = self.grid, self.m
        nodes, n = grid.node_counts, grid.node_total
        strides = np.cumprod((1,) + nodes[:0:-1])[::-1]
        offset = {s: int(np.dot(s, strides)) for s in self.coef}
        lo, hi = -min(offset.values()), n - max(offset.values())
        steps = sorted(self.coef, key=offset.get)
        terms = [[(self.coef[s][al, be].reshape(-1), be, offset[s])
                  for be in range(m) for s in steps if np.any(self.coef[s][al, be])]
                 for al in range(m)]
        (first, *across), slab = grid.unknowns, n // nodes[0]
        start, stop, _ = first.indices(nodes[0])
        k = min(max(1, _MATVEC_BLOCK // slab), stop - start)
        # a block copies out sums outside its rows [a, b) too (boundary nodes,
        # or wrapping rows replaced below), so they start as numbers
        y, tmp = np.zeros(k * slab), np.empty(k * slab)
        blocks = []
        for i in range(start, stop, k):
            j = min(i + k, stop)
            a = max(i * slab, lo)
            b = max(min(j * slab, hi), a)
            sums = y[:(j - i) * slab].reshape((j - i,) + nodes[1:])[(slice(None), *across)]
            blocks.append((slice(i - start, j - start), y[a - i * slab:b - i * slab],
                           tmp[:b - a], sums,
                           [[(c[a:b], be, a + off, b + off) for c, be, off in row]
                            for row in terms]))
        shape = (stop - start,) + sums.shape[1:]
        if grid.bc != PERIODIC:
            return shape, blocks, None
        edge = np.ones(nodes, dtype=bool)
        edge[(slice(1, -1),) * grid.d] = False
        rows = np.flatnonzero(edge)
        at = np.unravel_index(rows, nodes)
        steps = sorted(self.coef)
        cols = np.stack([be * n + np.ravel_multi_index(
            tuple((c + t) % size for c, t, size in zip(at, s, nodes)), nodes)
            for be in range(m) for s in steps])
        vals = np.stack([self.coef[s].reshape(m, m, n)[:, be, rows]
                         for be in range(m) for s in steps], axis=1)
        order = np.argsort(cols, axis=0, kind="stable")
        return shape, blocks, (rows, np.take_along_axis(cols, order, axis=0),
                               np.take_along_axis(vals, order[None], axis=1))

    def matvec(self, values):
        """The operator's rows applied to node values (m, *nodes): a fresh flat
        array over the unknowns, bit for bit ``matrix @ values.ravel()``.

        Every row is summed in its CSR column order without fused
        multiply-adds, as ``csr_matvec`` does; a coefficient the CSR drops
        as zero adds +-0.0, which changes no nonzero sum.
        """
        return self._matvec_into(values, np.empty((self.m,) + self._plan[0]))

    def _matvec_into(self, values, out):
        """``matvec`` written into ``out``, a contiguous array of m * unknowns
        floats, which it returns flat: the Krylov loop's ``q`` buffer."""
        m = self.m
        shape, blocks, wrap = self._plan
        x = values.reshape(m, -1)
        out = out.reshape((m,) + shape)
        for rows, ya, tb, sums, terms in blocks:
            for al, ((c, be, xa, xb), *rest) in enumerate(terms):
                np.multiply(c, x[be, xa:xb], out=ya)
                for c, be, xa, xb in rest:
                    np.multiply(c, x[be, xa:xb], out=tb)
                    ya += tb
                # csr_matvec starts from +0.0: adding it last turns a -0.0 sum,
                # the only one that can differ, into +0.0
                np.add(sums, 0.0, out=out[al, rows])
        if wrap is not None:
            rows, cols, vals = wrap
            gathered = x.reshape(-1)[cols]
            for al, out_rows in enumerate(out.reshape(m, -1)):
                acc = np.zeros(rows.size)
                for product in vals[al] * gathered:
                    acc += product
                out_rows[rows] = acc
        return out.reshape(-1)

    @functools.cached_property
    def preconditioner(self):
        """Approximate inverse of the matrix on the unknowns, built once per
        operator: a function ``precondition(r, out=None)`` of the residual
        that returns its result, written into ``out`` when given.

        d = 1: the solve with the exact sparse LU factor of the unknowns'
        (block) tridiagonal block, which ignores ``out`` and returns a fresh
        array.  d >= 2, or the singular periodic cell: the inverse of the
        constant-coefficient screened operator (see ``_fast_poisson``).
        """
        if self.grid.d == 1 and not self.singular:
            from scipy.sparse.linalg import splu
            cols = np.flatnonzero(np.tile(self.grid.interior_mask().ravel(), self.m))
            lu = splu(self.matrix[:, cols].tocsc())
            return lambda r, out=None: lu.solve(r)
        return _fast_poisson(self)

    def apply(self, u):
        """Apply to a GridFunction; the rows of Dirichlet boundary nodes are 0."""
        out = np.zeros_like(u.values)
        rows = out[(slice(None),) + self.grid.unknowns]
        rows[...] = self.matvec(u.values).reshape(rows.shape)
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
    evaluating the field again, and otherwise sampled alone, block by block
    (``fields.sample_mesh``).  The nodes are sampled for the cross blocks
    only when the field is not ``cross_free``, one block a_ij at a time and
    in the same way.

    The stencil is built in one pass over its steps: ``coef[s]`` holds,
    for every component pair, the coefficient of u(x + s h) in the row of
    node x.  Each entry is formed and summed as in the sparse products
    sum_i D_i^T diag(a_ii) D_i + sum_{i != j} G_i^T diag(a_ij) G_j + kappa
    (D_i the face difference, G_i the centered difference), so the
    unknowns' rows are those products bit for bit.
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
            a = sample_mesh(field, grid.face_axes(i), (i, i))
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
        node_axes = grid.slice_axes((slice(None),) * d)
        mask = grid.interior_mask()
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                a = sample_mesh(field, node_axes, (i, j))
                a = np.moveaxis(a, 0, -1).reshape((m, m) + nodes) * mask
                if not np.any(a):
                    continue
                # node x couples x + si e_i (row) with x + sj e_j (column)
                x = ((1.0 / (2.0 * grid.h[i])) * a) * (1.0 / (2.0 * grid.h[j]))
                for si in (1, -1):
                    for sj in (1, -1):
                        add(sj * eye[j] - si * eye[i], x if si == sj else -x, si * eye[i])

    if kappa:
        for al in range(m):
            coef[(0,) * d][al, al] += kappa
    return DiscreteOperator(grid, m, kappa, coef, symmetric=field.symmetric,
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
    """Inverse of sum_i abar_i (-Delta_h,i) + kappa per component, as a
    function ``precondition(r, out=None)`` that returns the result, written
    into ``out`` when given (the Krylov loop's ``z`` buffer) and into a fresh
    array otherwise.

    ``abar_i`` = ``op.face_means[i]``.  The 1D second differences are
    diagonalized by the orthonormal DST-I on the interior nodes of the
    Dirichlet box and by the real FFT on the periodic cell; on the singular
    periodic cell (kappa = 0) the constant mode is mapped to zero, matching
    the solver's mean projection.  The constant-coefficient operator is
    spectrally equivalent to the assembled one (Concus & Golub 1973), so
    Krylov iteration counts do not grow with the box size or 1/h.  The
    Dirichlet box (d >= 2; d = 1 takes the exact LU) runs one fused plan
    (``_dst_plan``), the periodic cell its transform pair (``_transforms``);
    either owns the buffers of its passes and holds no other full-size
    array than the inverse symbol.
    """
    grid, m, d = op.grid, op.m, op.grid.d
    periodic = grid.bc == PERIODIC
    shape = tuple(int(n) if periodic else int(n) - 1 for n in grid.cells)
    full = (m,) + shape
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
    del symbol
    if periodic:
        forward, inverse = _transforms(full)

        def plan(a, out):
            spec = forward(a)
            spec *= inv
            return inverse(spec, out)
    else:
        plan = _dst_plan(full, inv)

    def precondition(r, out=None):
        out = np.empty(full) if out is None else out.reshape(full)
        return plan(r.reshape(full), out).reshape(-1)

    return precondition


def _transforms(full):
    """(forward, inverse) real FFTs of arrays of shape ``full`` over every
    axis but the first, bit for bit ``scipy.fft``'s ``rfftn`` and ``irfftn``.

    Both run on ``numpy.fft``, whose pocketfft kernels are scipy's, with
    scipy's normalization: one factor over all axes, in long double.
    ``forward`` returns its one spectrum buffer, which its next call
    overwrites and which the caller may scale in place; ``inverse(s, out)``
    overwrites ``s`` and writes into ``out``, which it returns.
    """
    shape, axes = full[1:], tuple(range(1, len(full)))
    spec = np.empty(full[:-1] + (full[-1] // 2 + 1,), dtype=complex)
    scale = float(1 / np.longdouble(np.prod(shape)))

    def forward(a):
        # the last axis, then the others in order, as scipy's rfftn
        np.fft.rfft(a, out=spec)
        for ax in axes[:-1]:
            np.fft.fft(spec, axis=ax, out=spec)
        return spec

    def inverse(s, out):
        # unnormalized passes, then the factor 1/N once, as scipy's irfftn
        for ax in axes[:-1]:
            np.fft.ifft(s, axis=ax, norm="forward", out=s)
        out = np.fft.irfft(s, n=shape[-1], norm="forward", out=out)
        out *= scale
        return out

    return forward, inverse


def _dst_plan(full, inv):
    """The Dirichlet preconditioner as one fused plan ``apply(a, out)``: the
    orthonormal DST-I of ``a`` over every axis of ``full`` but the first
    (two or more), scaled by the inverse symbol ``inv`` (shape ``full``) and
    transformed back by the same DST-I into ``out``, which it returns; bit
    for bit ``scipy.fft``'s ``dstn``, the product and ``idstn`` (``type=1,
    norm="ortho"``).

    Along each axis, in order, a DST-I is minus the imaginary part of the
    real FFT of the odd extension (0, a, 0, -reversed a), as pocketfft
    computes it; the factor of all axes multiplies the first axis's result.
    The forward transform's last pass would negate its result and the
    spectrum then be scaled; it multiplies by the negated symbol instead,
    which is exact because (-x) y == x (-y), straight into the extension of
    the inverse transform's first pass, so no spectrum array exists.  The
    plan keeps the negated symbol in that extension's layout: a copy and an
    in-place product there are 3-4 times faster than one product of three
    differently strided operands.  The passes, d forward and d back, share
    one extension and one complex buffer, kept by the plan for the
    operator's lifetime, and each writes its result into the next one's
    extension, so a call allocates nothing.
    """
    axes = range(1, len(full))
    scale = float(1 / np.sqrt(np.longdouble(np.prod([2 * (full[ax] + 1) for ax in axes]))))
    shapes = [full[:ax] + full[ax + 1:] + (2 * (full[ax] + 1),) for ax in axes]
    ext_buf = np.empty(max(int(np.prod(sh)) for sh in shapes))
    spec_buf = np.empty(max(int(np.prod(sh[:-1])) * (sh[-1] // 2 + 1) for sh in shapes),
                        dtype=complex)
    exts = [ext_buf[:int(np.prod(sh))].reshape(sh) for sh in shapes]
    specs = [spec_buf[:ext[..., :full[ax] + 2].size].reshape(ext.shape[:-1] + (full[ax] + 2,))
             for ax, ext in zip(axes, exts)]
    # a pass reads its input from the odd half of its extension and its result
    # from the imaginary part of its spectrum, both with the axes as in full
    slots = [np.moveaxis(ext[..., 1:full[ax] + 1], -1, ax) for ax, ext in zip(axes, exts)]
    results = [np.moveaxis(spec.imag[..., 1:full[ax] + 1], -1, ax)
               for ax, spec in zip(axes, specs)]
    passes = list(zip([full[ax] for ax in axes], exts, specs, results))
    neg_inv = np.moveaxis(np.negative(np.moveaxis(inv, 1, -1), order="C"), -1, 1)
    # (factor, destination) per pass, forward then inverse; None is ``out``
    factors = [-scale] + [-1.0] * (len(passes) - 2)
    targets = (list(zip(factors + [neg_inv], slots[1:] + slots[:1]))
               + list(zip(factors + [-1.0], slots[1:] + [None])))

    def apply(a, out):
        slots[0][...] = a
        for (n, ext, spec, result), (factor, dest) in zip(passes + passes, targets):
            ext[..., 0] = ext[..., n + 1] = 0.0
            np.negative(ext[..., n:0:-1], out=ext[..., n + 2:])
            np.fft.rfft(ext, out=spec)
            if factor is neg_inv:
                dest[...] = result
                dest *= neg_inv
            else:
                np.multiply(result, factor, out=out if dest is None else dest)
        return out

    return apply


def _norm(v):
    return np.sqrt(_dot(v, v))


def _cg(matvec, psolve, b, x, atol, maxiter):
    """Preconditioned conjugate gradients from ``x`` (updated in place) until
    ||r|| < atol; returns (x, completed iterations).

    The recurrences, stopping test and iteration count are scipy 1.17's
    ``cg`` operation for operation; every inner product and norm is ``_dot``.
    The loop owns its vectors: beside ``b`` and ``x`` it holds ``r``, ``p``
    and one ``z`` and one ``q`` buffer, into which ``psolve(r, out)`` and
    ``matvec(p, out)`` write.  Once ``p`` has read ``z`` and ``alpha`` has
    read ``q``, the products alpha p and alpha q go into them, so an
    iteration allocates no vector.
    """
    r = b - matvec(x) if x.any() else b.copy()
    z, q = np.empty_like(b), np.empty_like(b)
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, iteration
        z = psolve(r, z)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p, q)
        alpha = rho / _dot(p, q)
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, q, out=q)
        rho_prev = rho
    return x, maxiter


def _bicgstab(matvec, psolve, b, x, atol, maxiter):
    """Preconditioned BiCGSTAB, as :func:`_cg` for scipy 1.17's ``bicgstab``:
    the same recurrences, stopping tests and breakdown checks (a breakdown
    returns the iterate so far), and every inner product and norm is ``_dot``.
    Unlike :func:`_cg` it takes fresh arrays from ``psolve`` and ``matvec``:
    ``phat`` and ``shat``, and ``v`` and ``t``, are alive at the same time,
    so one buffer each would not do.
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

    # x enters the stencil through a full-grid buffer whose boundary entries
    # stay 0.0; a row then sums +-0.0 for them, which changes no value
    full = np.zeros(shape)
    inner = full[unknowns]

    def matvec(x, out=None):
        inner[...] = x.reshape(inner.shape)
        return op.matvec(full) if out is None else op._matvec_into(full, out)

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
