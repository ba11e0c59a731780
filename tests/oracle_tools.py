"""Independent oracles: quadrature, enumeration, and brute-force search.

Everything here avoids the package's discrete operators on purpose; the
tests compare the production paths against these.  The sparse
face-difference matrices and the triple-product stencil assembly built from
them are the reference for the package's one-pass assembly and its stencil
matvec, an out-of-place fast Poisson solve on ``scipy.fft`` for its
preconditioner on ``numpy.fft``, the solver as it ran on scipy's ``cg`` and
``bicgstab`` for its own Krylov loops, and the corrector statistics as
explicit loops over every tensor index, or with whole-grid gradients, for
the vectorised ones on the window.  jsonschema's Draft 2020-12 validator and
its ``best_match`` are the reference for the package's own schema checker.
The per-corner multilinear interpolation over all points at once is the
reference for the blocked, flat-index one, and for the expansion term that
interpolates every corrector in one call.  The direct trigonometric sum,
one cos or sin of each whole phase, is the reference for the torus-form
rule of ``evaluate`` within a stated rounding bound.  Small shared test
helpers sit at the end: the oracle fields, among them a d = 2, m = 2 test
field, an evaluate counter, a ``sample_mesh`` counter, a counter of
rho_ladder's table entries and the HomogenizedMatrix of a known tensor.
"""

import functools
import itertools

import jsonschema
import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from aphomog import correctors as C
from aphomog import fields as F
from aphomog import metrics as M
from aphomog import operators
from aphomog.grids import (Box, PERIODIC, _face_pairs, _trapezoid_means, centered_gradient,
                           face_differences)
from jsonschema.exceptions import best_match


def scalar_profile(field, xs):
    return field.evaluate(np.asarray(xs, dtype=float)[:, None])[:, 0, 0, 0, 0]


def harmonic_mean_1d(field, n=1 << 16):
    """<1/a>^-1 over one period by midpoint quadrature."""
    t = (np.arange(n) + 0.5) / n
    return 1.0 / np.mean(1.0 / scalar_profile(field, t))


def exact_corrector_1d(field, xs, n=1 << 16):
    """Mean-zero periodic corrector: chi' = abar/a - 1 by quadrature."""
    t = (np.arange(n) + 0.5) / n
    a = scalar_profile(field, t)
    abar = 1.0 / np.mean(1.0 / a)
    slope = abar / a - 1.0
    cum = np.concatenate([[0.0], np.cumsum(slope) / n])
    grid = np.arange(n + 1) / n
    cum -= np.mean(cum[:-1] + 0.5 * np.diff(cum))
    return np.interp(np.asarray(xs) % 1.0, grid, cum)


def dirichlet_1d_quadrature(field, eps, xs, n=1 << 16):
    """-(a(x/eps) u')' = 1 on (0,1), zero trace, by quadrature."""
    t = (np.arange(n) + 0.5) / n
    inv_a = 1.0 / scalar_profile(field, t / eps)
    c = np.sum(t * inv_a) / np.sum(inv_a)
    integrand = (c - t) * inv_a / n
    cum = np.concatenate([[0.0], np.cumsum(integrand)])
    return np.interp(xs, np.arange(n + 1) / n, cum)


def brute_discrepancy(points):
    """Direct enumeration over all corner-candidate boxes (tiny sets only)."""
    pts = np.atleast_2d(points)
    n, m = pts.shape
    cands = [np.unique(np.concatenate([pts[:, k], [-0.5, 0.5]])) for k in range(m)]
    best = 0.0
    if m == 1:
        xs = cands[0]
        for i, a in enumerate(xs):
            for b in xs[i:]:
                closed = np.sum((pts[:, 0] >= a) & (pts[:, 0] <= b)) / n
                opened = np.sum((pts[:, 0] > a) & (pts[:, 0] < b)) / n
                vol = b - a
                best = max(best, closed - vol, vol - opened)
        return best
    xs, ys = cands
    for i, a in enumerate(xs):
        for b in xs[i:]:
            in_x_c = (pts[:, 0] >= a) & (pts[:, 0] <= b)
            in_x_o = (pts[:, 0] > a) & (pts[:, 0] < b)
            for j, c in enumerate(ys):
                for d in ys[j:]:
                    vol = (b - a) * (d - c)
                    closed = np.sum(in_x_c & (pts[:, 1] >= c) & (pts[:, 1] <= d)) / n
                    opened = np.sum(in_x_o & (pts[:, 1] > c) & (pts[:, 1] < d)) / n
                    best = max(best, closed - vol, vol - opened)
    return best


def brute_covering_radius(points, grid=512):
    """Torus covering radius in the sup norm by dense grid probing."""
    pts = np.atleast_2d(points)
    m = pts.shape[1]
    axes = [np.linspace(-0.5, 0.5, grid, endpoint=False)] * m
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    best = 0.0
    for chunk in np.array_split(probes, max(1, len(probes) // 4096)):
        diff = np.abs(chunk[:, None, :] - pts[None, :, :])
        diff = np.minimum(diff, 1.0 - diff)
        dmin = np.max(diff, axis=2).min(axis=1)
        best = max(best, float(dmin.max()))
    return best


def trig_sum_by_phase(points, terms, d, m):
    """sum over terms of cos(2 pi k.x) C + sin(2 pi k.x) S, every term through
    its phase (the form before the package added zero-frequency terms directly)."""
    out = np.zeros((points.shape[0], d, d, m, m))
    for k, cos_c, sin_c in terms:
        ph = 2.0 * np.pi * (points @ k)
        if np.any(cos_c):
            out += np.cos(ph)[:, None, None, None, None] * cos_c
        if np.any(sin_c):
            out += np.sin(ph)[:, None, None, None, None] * sin_c
    return out


def direct_trig_sum(points, terms, d, m):
    """sum over terms of cos(2 pi k.x) C + sin(2 pi k.x) S with one cos or sin
    of the whole phase 2 pi k.x per point and term, zero-frequency terms added
    directly (the package's evaluation before the torus-form rule)."""
    out = np.zeros((points.shape[0], d, d, m, m))
    for k, cos_c, sin_c in terms:
        if not np.any(k):
            out += cos_c
            continue
        ph = 2.0 * np.pi * (points @ k)
        if np.any(cos_c):
            out += np.cos(ph)[:, None, None, None, None] * cos_c
        if np.any(sin_c):
            out += np.sin(ph)[:, None, None, None, None] * sin_c
    return out


def direct_evaluate(field, pts):
    """``field.evaluate(pts)`` as the package computed it before the
    torus-form rule: a quasi-periodic field at its torus points (N, M), the
    per-axis products x_i * layout[i] joined in axis order, and a wrapper
    through its base at the moved points."""
    if isinstance(field, F.ShiftedField):
        return direct_evaluate(field.base, pts + field.shift)
    if isinstance(field, F.ScaledArgumentField):
        return direct_evaluate(field.base, pts * field.scale)
    if isinstance(field, F._Adjoint):
        return F.adjoint_tensor(direct_evaluate(field.base, pts))
    if isinstance(field, F.ConstantField):
        return np.broadcast_to(field.value, (len(pts),) + field.value.shape).copy()
    if isinstance(field, F.QuasiPeriodicField):
        pts = np.concatenate([pts[:, i, None] * f for i, f in enumerate(field.layout)], axis=1)
    return direct_trig_sum(pts, field.terms, field.d, field.m)


def rule_error_bound(field, pts):
    """Bound on |evaluate - direct_evaluate| per point and entry:
    8 eps (1 + |2 pi n.phase| + sum_i |2 pi k_i x_i|) (|C| + |S|) summed
    over the terms (n, C, S) of the field's torus form, k = lam^T n; a
    field that is not shifted has no phase.  Both forms round a term's
    phase to about eps |phase| (one whole phase against a fold of per-axis
    angles), and a phase error moves cos and sin by at most as much."""
    form = field.torus_form()
    eps = np.finfo(float).eps
    bound = np.zeros((len(pts),) + (field.d, field.d, field.m, field.m))
    for n, c, s in form.terms:
        k = form.lam.T @ n
        phase = (1.0 + abs(2.0 * np.pi * (n @ form.phase))
                 + np.sum(np.abs(2.0 * np.pi * k * pts), axis=1))
        bound += 8.0 * eps * phase[:, None, None, None, None] * (np.abs(c) + np.abs(s))
    return bound


def covering_radius_full_grid(points):
    """covering_radius with every probe of every refinement level queried
    (the form before the package pruned the probes of finer levels)."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[1]
    tree = cKDTree((pts + 0.5) % 1.0, boxsize=1.0)
    g = M._COVER_START
    prev = None
    while True:
        axes = [np.linspace(0.0, 1.0, g, endpoint=False)] * m
        probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        dists, _ = tree.query(probes, k=1, p=np.inf)
        val = float(np.max(dists))
        fine_enough = 1.0 / g <= val / 4.0 if val > 0 else True
        stable = prev is not None and abs(val - prev) <= M._COVER_REL_TOL * max(val, 1e-300)
        if (fine_enough and stable) or 2 * g > M._COVER_MAX:
            return val
        prev = val
        g = 2 * g


def brute_rho_ladder(field, R_list, y_samples, test_points, rng_seed,
                     z_grid_spacing=None, norm="inf"):
    """rho_ladder's sampled definition as a plain loop.

    Same y and test samples as ``rho_ladder``; every rung rescans the
    shifts -R + k spacing of its whole z grid that lie within R in the
    rung's norm, one shift at a time, and compares every (y, z) pair over
    every test point.  A field with a torus form samples A(x + shift) from
    the package's angle-addition tables, one shift per table; any other
    field makes one ``evaluate`` call per shift.
    """
    d = field.d
    rng = np.random.default_rng(rng_seed)
    y_box = Box.cube(32.0 * max(float(R_list[-1]), 1.0), d=d)
    test_box = Box.cube(32.0, d=d)
    ys = rng.uniform(y_box.lo, y_box.hi, size=(y_samples, d))
    tpts = rng.uniform(test_box.lo, test_box.hi, size=(test_points, d))
    if field.torus_form() is None:
        def sample(shift):
            return field.evaluate(tpts + shift)
    else:
        _, phases, table = M._shift_tables(field, tpts)

        def sample(shift):
            return table(phases(shift[None]), test_points)[0]
    ay = [sample(y) for y in ys]
    best = np.full(y_samples, np.inf)
    values = []
    for R in np.asarray(R_list, dtype=float):
        spacing = R / 64 if z_grid_spacing is None else z_grid_spacing
        axis = np.arange(-R, R + spacing * 0.5, spacing)
        for z in itertools.product(axis, repeat=d):
            z = np.array(z)
            size = np.sqrt(np.sum(z ** 2)) if norm == "euclid" else np.max(np.abs(z))
            if size > R * (1.0 + 1e-12):
                continue
            az = sample(z)
            for i in range(y_samples):
                best[i] = min(best[i], np.max(np.abs(ay[i] - az)))
        values.append(np.max(best))
    return np.array(values)


# the field validator as it ran on jsonschema: the variant's schema applies through if/then
FIELD_SCHEMA = {
    "type": "object", "required": ["variant"],
    "properties": {"variant": {"enum": list(F.FIELD_SCHEMAS)}},
    "allOf": [{"if": {"required": ["variant"], "properties": {"variant": {"const": v}}},
               "then": schema} for v, schema in F.FIELD_SCHEMAS.items()]}


def jsonschema_fault(schema, obj, path):
    """jsonschema's verdict on ``obj`` in the package's words: None when
    Draft202012Validator(schema).is_valid, else best_match's JSON path from
    ``path`` and its message."""
    validator = jsonschema.Draft202012Validator(schema)
    if validator.is_valid(obj):
        return None
    best = best_match(validator.iter_errors(obj))
    return f"{path}{best.json_path[1:]}: {best.message}"


def schema_fault(schema, obj, path):
    """fields._check_schema's verdict on ``obj`` in the same form."""
    try:
        F._check_schema(schema, obj, path)
    except ValueError as exc:
        return str(exc)
    return None


def field_schema_fault(cfg):
    """The verdict of field_from_config's two schema checks: the variant, then its schema."""
    return (schema_fault(F._VARIANT, cfg, "field")
            or schema_fault(F.FIELD_SCHEMAS[cfg["variant"]], cfg, "field"))


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


def triple_product_matrix(field, grid, kappa):
    """-div(A grad) + kappa as sums of sparse products D_i^T diag(a_ii) D_i
    (face blocks) and G_i^T diag(a_ij) G_j (cross blocks), per component
    block, joined with ``bmat``."""
    d, m = grid.d, field.m
    n_nodes = grid.node_total
    blocks = [[[] for _ in range(m)] for _ in range(m)]
    for i in range(d):
        D_i = face_diff_matrix(grid, i)
        coeffs = field.evaluate(grid.face_points(i))
        for al in range(m):
            for be in range(m):
                vals = coeffs[:, i, i, al, be]
                if np.any(vals):
                    blocks[al][be].append(D_i.T @ sp.diags(vals) @ D_i)
    if d > 1:
        node_coeffs = field.evaluate(grid.node_points())
        mask = grid.interior_mask().ravel().astype(float)
        G = [centered_diff_matrix(grid, ax) for ax in range(d)]
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for al in range(m):
                    for be in range(m):
                        vals = node_coeffs[:, i, j, al, be] * mask
                        if np.any(vals):
                            blocks[al][be].append(G[i].T @ sp.diags(vals) @ G[j])
    zero = sp.csr_matrix((n_nodes, n_nodes))
    L = sp.bmat([[functools.reduce(lambda x, y: x + y, blocks[al][be], zero)
                  for be in range(m)] for al in range(m)], format="csr")
    if kappa:
        L = L + kappa * sp.identity(m * n_nodes, format="csr")
    return L


def fast_poisson_out_of_place(op):
    """The fast Poisson preconditioner with a fresh array per step: the spectrum,
    the scaled spectrum and the inverse transform (the form before the package
    scaled and inverted the spectrum in place)."""
    grid, m, d = op.grid, op.m, op.grid.d
    periodic = grid.bc == PERIODIC
    shape = tuple(int(n) if periodic else int(n) - 1 for n in grid.cells)
    symbol = np.full((m,) + (1,) * d, op.kappa)
    for i, n in enumerate(grid.cells):
        if periodic:
            s = np.sin(np.pi * np.arange(n // 2 + 1 if i == d - 1 else n) / n)
        else:
            s = np.sin(0.5 * np.pi * np.arange(1, n) / n)
        along_i = [1] * d
        along_i[i] = s.size
        symbol = symbol + op.face_means[i].reshape((m,) + (1,) * d) * \
            ((2.0 * s / grid.h[i]) ** 2).reshape(along_i)
    inv = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inv, where=symbol > 0.0)
    axes = tuple(range(1, d + 1))
    full = (m,) + shape

    def matvec(r):
        if periodic:
            spec = sfft.rfftn(r.reshape(full), axes=axes)
            return sfft.irfftn(spec * inv, s=shape, axes=axes).reshape(-1)
        spec = sfft.dstn(r.reshape(full), type=1, axes=axes, norm="ortho")
        return sfft.idstn(spec * inv, type=1, axes=axes, norm="ortho").reshape(-1)

    return matvec


def scipy_krylov_solve(op, rhs, tol, max_iters=None):
    """``operators.solve`` as it ran on scipy's ``cg`` and ``bicgstab``, whose
    inner products are threaded BLAS ``ddot`` above 10 000 entries; returns
    (solution values, iterations as the callback counts them, residual,
    restarts); the caller compares the residual with ``tol``."""
    shape = rhs.values.shape
    unknowns = (slice(None),) + op.grid.unknowns
    b = rhs.values[unknowns].reshape(-1)

    def project(vec):
        v = vec.reshape(op.m, -1)
        return (v - v.mean(axis=1, keepdims=True)).reshape(-1)

    if op.singular:
        b = project(b)
    b_norm = float(np.linalg.norm(b))
    full = np.zeros(shape)
    inner = full[unknowns]

    def matvec(x):
        inner[...] = x.reshape(inner.shape)
        return op.matrix @ full.reshape(-1)

    mat = spla.LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
    precond = spla.LinearOperator((b.size, b.size), matvec=op.preconditioner, dtype=float)
    if max_iters is None:
        max_iters = max(1000, 40 * int(np.sqrt(b.size)) + 2000)
    method = spla.cg if op.symmetric else spla.bicgstab
    x = np.zeros_like(b)
    total_iters, restarts, residual = 0, 0, np.inf
    while total_iters < max_iters:
        count = [0]

        def callback(_xk):
            count[0] += 1

        x, _ = method(mat, b, x0=x, rtol=tol * 0.5, atol=0.0,
                      maxiter=max_iters - total_iters, M=precond,
                      callback=callback)
        total_iters += max(count[0], 1)
        if op.singular:
            x = project(x)
        residual = float(np.linalg.norm(mat.matvec(x) - b)) / b_norm
        if residual <= tol:
            break
        restarts += 1
        if restarts > 4:
            break
    inner[...] = x.reshape(inner.shape)
    return full, total_iters, residual, restarts


def multilinear_per_corner(table, rel, cells, periodic):
    """Multilinear interpolation of node data ``table`` (node axes first, any
    trailing shape) at node-unit coordinates ``rel`` (N, d) in [0, cells],
    over all points at once: per corner, its (N, d) indices (wrapped on
    periodic axes) index the node table directly."""
    n, d = rel.shape
    base = np.minimum(np.floor(rel).astype(int), cells - 1)
    w = rel - base
    out = np.zeros((n,) + table.shape[d:])
    for corner in itertools.product((0, 1), repeat=d):
        idx = (base + corner) % cells if periodic else base + corner
        weight = np.ones(n)
        for ax in range(d):
            weight = weight * (w[:, ax] if corner[ax] else 1.0 - w[:, ax])
        out += weight.reshape((n,) + (1,) * (out.ndim - 1)) * table[tuple(idx.T)]
    return out


def interpolate_per_corner(u, points):
    """``GridFunction.interpolate`` through :func:`multilinear_per_corner`, (m, N)."""
    g = u.grid
    rel = (np.atleast_2d(np.asarray(points, dtype=float)) - g.box.lo) / g.h
    if g.bc == PERIODIC:
        rel = rel % g.cells
    else:
        rel = np.clip(rel, 0.0, np.asarray(g.cells, dtype=float))
    table = np.moveaxis(u.values, 0, -1)                # (*nodes, m)
    return np.ascontiguousarray(multilinear_per_corner(table, rel, g.cells,
                                                       g.bc == PERIODIC).T)


def expansion_term_per_corrector(u0, cset, eps):
    """eps chi_T(x/eps) . grad u0 on u0's grid, one interpolation per corrector."""
    pts = u0.grid.node_points() / eps
    du0 = centered_gradient(u0)
    out = np.zeros_like(u0.values)
    for j in range(cset.d):
        for b in range(cset.m):
            chi_vals = interpolate_per_corner(cset.chi[j][b], pts)
            out += eps * chi_vals.reshape(u0.values.shape) * du0[j, b][None]
    return out


def corrector_flux_loops(cset, j, beta):
    """Flux arrays per direction i for solution (j, beta) at every i-face center:
    a_ii^{ag} D_i chi^g + sum_{k != i} a_ik^{ag} avg_i(centered_k chi^g)."""
    grid = cset.grid
    u = cset.chi[j][beta]
    m = cset.m
    grads = centered_gradient(u) if grid.d > 1 else None
    out = []
    for i, rows in enumerate(cset.face_rows):
        shape = (m,) + grid.face_shape(i)
        normal = face_differences(u, i)
        flux = np.einsum("fag,gf->af", rows[:, i], normal.reshape(m, -1)).reshape(shape)
        for k in range(grid.d):
            if k == i:
                continue
            behind, ahead = _face_pairs(grads[k], 1 + i, grid.bc == PERIODIC)
            trans = (0.5 * (behind + ahead)).reshape(m, -1)
            flux += np.einsum("fag,gf->af", rows[:, k], trans).reshape(shape)
        out.append(flux)
    return out


def homogenized_tensor_loops(cset, window=None):
    """``homogenized_matrix``'s tensor from fluxes on every face of the grid,
    then the window's faces (the form before the package computed the fluxes
    on the window's faces only)."""
    grid = cset.grid
    d, m = cset.d, cset.m
    if window is None:
        window = cset.window
    ahat = np.zeros((d, d, m, m))
    fluxes = [[corrector_flux_loops(cset, j, b) for b in range(m)] for j in range(d)]
    for i, rows in enumerate(cset.face_rows):
        shape = (m,) + grid.face_shape(i)
        fsl = grid.face_window_slices(window, i)
        for j in range(d):
            for b in range(m):
                integrand = rows[:, j, :, b].T.reshape(shape) + fluxes[j][b][i]
                ahat[i, j, :, b] = integrand[(slice(None), *fsl)].reshape(m, -1).mean(axis=1)
    return ahat


def homogenized_tensor_whole_grid(cset, window=None):
    """``homogenized_matrix``'s tensor with each chi's centered gradient taken on
    the whole grid, once per (j, b) (the form before the package took the
    gradients once per set on the window's nodes)."""
    grid = cset.grid
    d, m = cset.d, cset.m
    periodic = grid.bc == PERIODIC
    if window is None:
        window = cset.window
    windowed = []
    for i, rows in enumerate(cset.face_rows):
        fsl = (slice(None), *grid.face_window_slices(window, i))
        rows = rows.reshape(grid.face_shape(i) + rows.shape[1:])[fsl[1:]]
        windowed.append((fsl, rows.reshape((-1,) + rows.shape[d:])))
    ahat = np.zeros((d, d, m, m))
    for j, b in itertools.product(range(d), range(m)):
        u = cset.chi[j][b]
        grads = centered_gradient(u)
        for i, (fsl, rows) in enumerate(windowed):
            behind, ahead = _face_pairs(u.values, 1 + i, periodic)
            normal = (ahead[fsl] - behind[fsl]) / grid.h[i]
            shape = normal.shape
            flux = np.einsum("fag,gf->af", rows[:, i], normal.reshape(m, -1)).reshape(shape)
            for k in range(d):
                if k != i:
                    behind, ahead = _face_pairs(grads[k], 1 + i, periodic)
                    trans = (0.5 * (behind[fsl] + ahead[fsl])).reshape(m, -1)
                    flux += np.einsum("fag,gf->af", rows[:, k], trans).reshape(shape)
            faces = np.moveaxis(np.empty(grid.face_shape(i) + (m,)), -1, 0)[fsl]
            np.add(rows[:, j, :, b].T.reshape(shape), flux, out=faces)
            ahat[i, j, :, b] = faces.reshape(m, -1).mean(axis=1)
    return ahat


def node_samples_whole_grid(cset, sls):
    """``correctors._node_samples`` with every centered gradient taken on the
    whole grid and then sliced."""
    grads = np.array([[centered_gradient(u)[(slice(None), slice(None), *sls)] for u in row]
                      for row in cset.chi])
    coeffs = cset.field.evaluate(cset.grid.slice_points(sls))
    coeffs = np.moveaxis(coeffs, 0, -1).reshape(coeffs.shape[1:] + grads.shape[4:])
    return coeffs, grads


def flux_tensor_loops(cset, a_t, region=None):
    """``flux_tensor``'s (values, mean) with one loop per tensor index."""
    grid = cset.grid
    d, m = cset.d, cset.m
    if region is None:
        region = cset.window
    sls = grid.window_slices(region)
    pts = grid.slice_points(sls)
    coeffs = cset.field.evaluate(pts)
    shape = tuple(len(range(*s.indices(grid.node_counts[ax]))) for ax, s in enumerate(sls))
    values = np.empty((d, d, m, m) + shape)
    grads = [[centered_gradient(cset.chi[j][b]) for b in range(m)] for j in range(d)]
    for i, j, al, b in itertools.product(range(d), range(d), range(m), range(m)):
        acc = np.full(pts.shape[0], a_t[i, j, al, b])
        acc -= coeffs[:, i, j, al, b]
        for k in range(d):
            for g in range(m):
                acc -= coeffs[:, i, k, al, g] * grads[j][b][k][g][sls].ravel()
        values[i, j, al, b] = acc.reshape(shape)
    if region is None:
        mean = values.reshape(d, d, m, m, -1).mean(axis=-1)
    else:
        mean = _trapezoid_means(values, grid.trapezoid_weights(sls))
    return values, mean


def energy_identity_residual_loops(cset):
    """``energy_identity_residual`` with one loop per tensor index and one
    average per (direction, component)."""
    grid = cset.grid
    d, m = cset.d, cset.m
    sls = grid.window_slices(cset.window)
    pts = grid.slice_points(sls)
    coeffs = cset.field.evaluate(pts)
    if cset.window is None:
        weights = None
    else:
        weights = grid.trapezoid_weights(sls).ravel()
        weights = weights / weights.sum()

    def _avg(x):
        return float(np.mean(x)) if weights is None else float(np.sum(weights * x))

    res = np.zeros((d, m))
    rel = np.zeros((d, m))
    for j in range(d):
        for b in range(m):
            u = cset.chi[j][b]
            grad = centered_gradient(u)
            g = np.stack([grad[k][(slice(None), *sls)].reshape(m, -1) for k in range(d)])
            energy = np.zeros(pts.shape[0])
            for i, k, al, ga in itertools.product(range(d), range(d), range(m), range(m)):
                energy += coeffs[:, i, k, al, ga] * g[k, ga] * g[i, al]
            mass = np.sum(u.values[(slice(None), *sls)].reshape(m, -1) ** 2, axis=0)
            rhs = np.zeros(pts.shape[0])
            for i in range(d):
                for al in range(m):
                    rhs -= coeffs[:, i, j, al, b] * g[i, al]
            lhs_val = _avg(energy) + cset.kappa * _avg(mass)
            rhs_val = _avg(rhs)
            res[j, b] = lhs_val - rhs_val
            rel[j, b] = abs(res[j, b]) / (abs(lhs_val) + abs(rhs_val) + 1.0)
    return res, rel


def kronecker_divergence(g_faces, grid):
    """-sum_ax D_ax^T g_ax with the sparse face-difference matrices."""
    m = g_faces[0].shape[0]
    out = np.zeros((m,) + grid.node_counts)
    for ax in range(grid.d):
        D = face_diff_matrix(grid, ax)
        flat = g_faces[ax].reshape(m, -1)
        out -= (D.T @ flat.T).T.reshape((m,) + grid.node_counts)
    return out


def cross_term_system():
    """d = 2, m = 2 nonsymmetric field with cross blocks a_12, a_21 != 0."""
    base, wc, ws = (np.zeros((2, 2, 2, 2)) for _ in range(3))
    for i in range(2):
        base[i, i] = [[2.0, 0.2], [0.1, 2.5]]
    base[0, 1] = [[0.3, 0.1], [0.0, 0.2]]
    base[1, 0] = [[0.1, 0.0], [0.05, 0.1]]
    wc[0, 0] = [[0.3, 0.0], [0.1, 0.2]]
    wc[0, 1] = [[0.0, 0.05], [0.0, 0.0]]
    ws[1, 1] = [[0.2, 0.1], [0.0, 0.3]]
    ws[1, 0] = [[0.0, 0.0], [0.07, 0.0]]
    zero = np.zeros((2, 2, 2, 2))
    f = F.TrigPolynomialField(2, 2, [(np.zeros(2), base, zero),
                                     (np.array([1.0, 0.0]), wc, zero),
                                     (np.array([0.0, 1.0]), zero, ws)])
    F.certify_ellipticity(f, rng_seed=0)
    return f


def _trig_field(d, m, cross, seed):
    """Nonsymmetric trig field, one frequency per axis; cross blocks iff ``cross``."""
    rng = np.random.default_rng(seed)
    base = np.zeros((d, d, m, m))
    for i in range(d):
        base[i, i] = 2.0 * np.eye(m) + 0.1 * rng.random((m, m))
    terms = [(np.zeros(d), base, np.zeros((d, d, m, m)))]
    for k in range(d):
        cos_c, sin_c = 0.08 * rng.random((2, d, d, m, m))
        if not cross:
            off = ~np.eye(d, dtype=bool)
            cos_c[off], sin_c[off] = 0.0, 0.0
        terms.append((np.eye(d)[k], cos_c, sin_c))
    f = F.TrigPolynomialField(d, m, terms)
    F.certify_ellipticity(f, rng_seed=0)
    return f


ORACLE_FIELDS = {
    **{f"trig_d{d}_m{m}": (lambda d=d, m=m: _trig_field(d, m, False, 10 * d + m))
       for d in (1, 2, 3) for m in (1, 2)},
    **{f"cross_d{d}_m{m}": (lambda d=d, m=m: _trig_field(d, m, True, 10 * d + m))
       for d in (2, 3) for m in (1, 2)},
    "cross_term_system": cross_term_system,
}


def count_evaluate(field):
    """Count calls through an instance-level wrapper of ``field.evaluate``."""
    calls = []
    inner = field.evaluate

    def counting(points):
        calls.append(len(points))
        return inner(points)

    field.evaluate = counting
    return calls


def count_sample_mesh(monkeypatch):
    """(points, keep) of every ``sample_mesh`` call made by the corrector and
    the assembly, through wrappers of their module-level names."""
    calls = []
    inner = F.sample_mesh

    def counting(field, axes, keep):
        calls.append((int(np.prod([len(a) for a in axes])), tuple(keep)))
        return inner(field, axes, keep)

    for module in (C, operators):
        monkeypatch.setattr(module, "sample_mesh", counting)
    return calls


def count_table_entries(monkeypatch):
    """Sizes of the tables that ``metrics._shift_tables`` builds, one per call."""
    sizes = []
    build = M._shift_tables

    def counting_build(field, points):
        route, phases, table = build(field, points)

        def counting(ph, n):
            out = table(ph, n)
            sizes.append(out.size)
            return out
        return route, phases, counting

    monkeypatch.setattr(M, "_shift_tables", counting_build)
    return sizes


def reference_matrix(tensor):
    """A known effective tensor as a HomogenizedMatrix, elliptic when the
    symmetric part of its (dm, dm) matrix is positive definite."""
    t = np.asarray(tensor, dtype=float)
    mat = F.tensor_matrix(t)
    return C.HomogenizedMatrix(tensor=t, source=("reference",),
                               ellipticity_ok=bool(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] > 0))
