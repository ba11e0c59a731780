"""Screened correctors, effective coefficients, and the flux corrector.

For each coordinate direction j and component beta the corrector solves

    -div(A(y) grad u) + T^{-2} u = div(A(y) grad P_j^beta),

with P_j^beta(y) = y_j e^beta, on either a single period cell with
periodic boundary conditions (exact for periodic coefficients and cheap)
or on a truncated box of side (2 buffer + 1) T with zero Dirichlet data.
The screening term makes the whole-space problem well posed with
exponentially localized response, so window statistics on the central
cube are insensitive to the outer boundary once the buffer is a few
screening lengths.

Window averages of the corrector fluxes give the approximate effective
tensor  ahat_T[i,j,a,b] = <a_ij^{ab}> + <a_ik^{ag} d_k chi_{T,j}^{gb}>,
whose distance to the true effective tensor is controlled by the dyadic
gradient differences grad chi_T - grad chi_2T (the T-limit gradient is
never materialized; every estimate that needs it telescopes over dyadic
pairs instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ShiftedField, certify_ellipticity, identity_field, tensor_matrix
from .grids import (Box, BoxGrid, DIRICHLET, GridFunction, PERIODIC,
                    centered_gradient, face_differences, holder_seminorm, norms)
from .metrics import DecayReport
from .operators import assemble, divergence_rhs, solve


@dataclass
class CorrectorSet:
    """Solutions chi[j][beta] plus grid, window and solver provenance.

    ``window`` is the central cube the statistics average over on the
    truncated route, and None (the whole cell) on the periodic route.
    ``face_rows[i]`` is row i of A at the centers of the faces normal to
    axis i, shape (faces_i, d, m, m) in ``grid.face_shape(i)`` order, sampled
    once by ``solve_corrector``; the right-hand sides, the fluxes and the
    effective tensor all read it.
    """

    field: object
    T: float
    grid: BoxGrid
    buffer: float
    window: Box                    # None on the periodic cell
    chi: list                      # chi[j][beta] -> GridFunction (m components)
    kappa: float
    tol: float
    iterations: list = dc_field(default_factory=list)
    face_rows: list = None

    @property
    def d(self):
        return self.grid.d

    @property
    def m(self):
        return self.field.m

    @property
    def mode(self):
        """The route, "periodic" or "truncated", read off the grid."""
        return "periodic" if self.grid.bc == PERIODIC else "truncated"

    def sup_norm(self):
        """max |chi| over the window (the whole cell on the periodic route)."""
        return max(norms(self.chi[j][b], "Linf", window=self.window)
                   for j in range(self.d) for b in range(self.m))

    def provenance(self):
        import hashlib
        import json

        from .fields import field_to_config
        try:
            cfg = json.dumps(field_to_config(self.field), sort_keys=True)
            field_hash = hashlib.sha256(cfg.encode()).hexdigest()
        except ValueError:
            field_hash = None      # wrapped fields have no standalone config
        window = self.grid.box if self.window is None else self.window
        return {
            "T": self.T, "mode": self.mode, "buffer": self.buffer,
            "h": self.grid.h.tolist(), "cells": self.grid.cells.tolist(),
            "kappa": self.kappa, "tol": self.tol,
            "iterations": self.iterations,
            "field_config_sha256": field_hash,
            "window": [window.lo.tolist(), window.hi.tolist()],
        }


@dataclass
class HomogenizedMatrix:
    """Constant effective tensor with its sampled ellipticity check."""

    tensor: np.ndarray
    source: tuple                   # ("approximate", T) or ("reference",)
    sym_eig_min: float = None
    sym_eig_max: float = None
    ellipticity_ok: bool = None

    @property
    def d(self):
        return self.tensor.shape[0]

    @property
    def m(self):
        return self.tensor.shape[2]


@dataclass
class FluxTensor:
    """Pointwise oscillatory flux  ahat - A(y) - A(y) grad chi(y)  on a region."""

    values: np.ndarray              # (d, d, m, m, *region_nodes)
    grid: BoxGrid                   # grid the region slices live on
    slices: tuple
    mean: np.ndarray                # (d, d, m, m)
    T: float


def _corrector_rhs(face_rows, grid, j, beta):
    return divergence_rhs([rows[:, j, :, beta].T for rows in face_rows], grid)


def solve_corrector(field, T, h=None, buffer=6.0, bc="auto", window_side=None,
                    tol=1e-10, threads=None):
    """Solve the screened cell problems for every (direction, component).

    ``bc="auto"`` takes the single-cell periodic route for periodic fields
    and the buffered Dirichlet truncation otherwise.  ``h`` defaults to
    1/64 and must satisfy h <= T/64 so the screening length is resolved.
    The d*m component solves run one after another on one operator;
    ``threads`` has no effect (the benchmark harness passes it).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    d, m = field.d, field.m
    if field.ellipticity is None:
        certify_ellipticity(field)
    if h is None:
        h = 1.0 / 64.0
    if h > T / 64.0 + 1e-12:
        raise ValueError("h must resolve the screening length: h <= T/64")

    mode = bc
    if bc == "auto":
        mode = "periodic" if field.period is not None else "truncated"
    if mode == "periodic" and field.period is None:
        raise ValueError("periodic corrector route needs a periodic field")

    if mode == "periodic":
        cells = np.maximum(4, np.round(field.period / h).astype(int))
        grid = BoxGrid(Box(np.zeros(d), field.period), cells, PERIODIC)
        window = None
        buffer = 0.0
    else:
        side = (2.0 * buffer + 1.0) * T
        cells = int(np.ceil(side / h))
        cells += cells % 2
        half = 0.5 * cells * h
        grid = BoxGrid(Box(-half * np.ones(d), half * np.ones(d)),
                       cells * np.ones(d, dtype=int), DIRICHLET)
        wside = T if window_side is None else float(window_side)
        if wside > 2.0 * half - 2.0 * buffer * T + 1e-9:
            raise ValueError("window too large for the requested buffer")
        window = Box.cube(wside, d=d)

    kappa = T ** -2.0
    op = assemble(field, grid, kappa)
    face_rows = [field.evaluate(grid.face_points(i)[0])[:, i].copy() for i in range(d)]

    chi = [[None] * m for _ in range(d)]
    iterations = []
    for j in range(d):
        for b in range(m):
            u = solve(op, _corrector_rhs(face_rows, grid, j, b), tol=tol)
            chi[j][b] = u
            iterations.append(u.solve_info.iterations)
    return CorrectorSet(field=field, T=float(T), grid=grid, buffer=buffer,
                        window=window, chi=chi, kappa=kappa, tol=tol,
                        iterations=iterations, face_rows=face_rows)


# ---------------------------------------------------------------------------
# effective tensor from window-averaged fluxes


def _face_average(arr, ax, bc):
    """Average node data onto the centers of faces orthogonal to ``ax``."""
    if bc == PERIODIC:
        return 0.5 * (arr + np.roll(arr, -1, axis=ax))
    sl_lo = [slice(None)] * arr.ndim
    sl_hi = [slice(None)] * arr.ndim
    sl_lo[ax] = slice(None, -1)
    sl_hi[ax] = slice(1, None)
    return 0.5 * (arr[tuple(sl_lo)] + arr[tuple(sl_hi)])


def _face_window_slices(grid, window, ax):
    """Index slices selecting faces (normal to ax) with centers in the window."""
    if window is None:
        return tuple(slice(None) for _ in range(grid.d))
    sls = []
    for a in range(grid.d):
        if a == ax:
            lo = grid.box.lo[a] + 0.5 * grid.h[a]
            i0 = int(np.ceil((window.lo[a] - lo) / grid.h[a] - 1e-9))
            i1 = int(np.floor((window.hi[a] - lo) / grid.h[a] + 1e-9))
            i0, i1 = max(i0, 0), min(i1, grid.cells[a] - 1)
            sls.append(slice(i0, i1 + 1))
        else:
            s = grid.window_slices(window)[a]
            sls.append(s)
    return tuple(sls)


def corrector_flux(cset, j, beta):
    """Flux arrays per direction i for solution (j, beta), at i-face centers.

    flux_i^alpha(f) = a_ii^{ag}(f) D_i chi^g(f)
                    + sum_{k != i} a_ik^{ag}(f) avg_i(centered_k chi^g)(f)
    """
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
            trans = _face_average(grads[k], 1 + i, grid.bc).reshape(m, -1)
            flux += np.einsum("fag,gf->af", rows[:, k], trans).reshape(shape)
        out.append(flux)
    return out


def homogenized_matrix(cset, window=None):
    """Window-averaged approximate effective tensor with ellipticity check.

    Entry (i, j, a, b) is the mean over i-faces in the window of
    a_ij^{ab}(f) + flux_i^a[chi_j^b](f); face-midpoint quadrature.
    ``window`` defaults to the set's own window.
    """
    grid = cset.grid
    d, m = cset.d, cset.m
    if window is None:
        window = cset.window
    ahat = np.zeros((d, d, m, m))
    fluxes = [[corrector_flux(cset, j, b) for b in range(m)] for j in range(d)]
    for i, rows in enumerate(cset.face_rows):
        shape = (m,) + grid.face_shape(i)
        fsl = _face_window_slices(grid, window, i)
        for j in range(d):
            for b in range(m):
                integrand = rows[:, j, :, b].T.reshape(shape) + fluxes[j][b][i]
                ahat[i, j, :, b] = integrand[(slice(None), *fsl)].reshape(m, -1).mean(axis=1)
    mat = tensor_matrix(ahat)
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    ell = cset.field.ellipticity
    mu = ell.mu if ell is not None else 0.0
    ok = bool(eigs[0] > 0 and eigs[0] >= 0.90 * mu)
    return HomogenizedMatrix(tensor=ahat, source=("approximate", cset.T),
                             sym_eig_min=float(eigs[0]), sym_eig_max=float(eigs[-1]),
                             ellipticity_ok=ok)


def reference_matrix(tensor):
    t = np.asarray(tensor, dtype=float)
    mat = tensor_matrix(t)
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return HomogenizedMatrix(tensor=t, source=("reference",),
                             sym_eig_min=float(eigs[0]), sym_eig_max=float(eigs[-1]),
                             ellipticity_ok=bool(eigs[0] > 0))


# ---------------------------------------------------------------------------
# pointwise diagnostics on interior regions


def _region_slices(grid, region):
    """Node slices of ``region``; None is the whole grid."""
    if region is None:
        return tuple(slice(None) for _ in range(grid.d))
    return grid.window_slices(region)


def flux_tensor(cset, ahat=None, region=None):
    """Node-sampled oscillatory flux  ahat - A - A grad chi  with its mean.

    ``ahat``, a HomogenizedMatrix, defaults to the set's own window tensor
    (making the region mean small by construction); pass a reference
    tensor to measure the screening error against a T-independent limit.
    ``region`` defaults to the set's window.
    """
    if ahat is None:
        ahat = homogenized_matrix(cset)
    a_t = ahat.tensor
    grid = cset.grid
    d, m = cset.d, cset.m
    if region is None:
        region = cset.window
    sls = _region_slices(grid, region)
    mesh = grid.node_mesh()
    pts = np.stack([g[sls].ravel() for g in mesh], axis=1)
    coeffs = cset.field.evaluate(pts)                  # (N, d, d, m, m)
    shape = tuple(len(range(*s.indices(grid.node_counts[ax]))) for ax, s in enumerate(sls))
    values = np.empty((d, d, m, m) + shape)
    grads = [[centered_gradient(cset.chi[j][b]) for b in range(m)] for j in range(d)]
    for i in range(d):
        for j in range(d):
            for al in range(m):
                for b in range(m):
                    acc = np.full(pts.shape[0], a_t[i, j, al, b])
                    acc -= coeffs[:, i, j, al, b]
                    for k in range(d):
                        for g in range(m):
                            acc -= coeffs[:, i, k, al, g] * \
                                grads[j][b][k][g][sls].ravel()
                    values[i, j, al, b] = acc.reshape(shape)
    if region is None:
        # the whole periodic cell: the plain node average is the wrap-around mean
        mean = values.reshape(d, d, m, m, -1).mean(axis=-1)
    else:
        w = grid.trapezoid_weights(sls)
        mean = np.tensordot(values, w, axes=(tuple(range(4, 4 + d)),
                                             tuple(range(d)))) / float(np.sum(w))
    return FluxTensor(values=values, grid=grid, slices=sls, mean=mean, T=cset.T)


def energy_identity_residual(cset):
    """Residual of the screened energy balance, per (direction, component).

    <A grad chi . grad chi> + T^{-2} <|chi|^2> + <(A* grad chi)_j^b>
    evaluated with node-centered gradients and trapezoid window averages,
    deliberately independent of the solver's face-based quadrature, so the
    residual measures genuine discretization error of the identity.
    The averages run over the window (the whole cell on the periodic route).
    Returns (residuals, relative_residuals) arrays of shape (d, m).
    """
    grid = cset.grid
    d, m = cset.d, cset.m
    sls = _region_slices(grid, cset.window)
    mesh = grid.node_mesh()
    pts = np.stack([g[sls].ravel() for g in mesh], axis=1)
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
            g = np.stack([grad[k][(slice(None), *sls)].reshape(m, -1)
                          for k in range(d)])        # (d, m, N)
            energy = np.zeros(pts.shape[0])
            for i in range(d):
                for k in range(d):
                    for al in range(m):
                        for ga in range(m):
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


# ---------------------------------------------------------------------------
# dyadic ladders


def corrector_scalings(csets):
    """Sup-norm, Hoelder-ratio and windowed-gradient scalings over a T ladder.

    Returns a dict of DecayReports: ``corrector_sup`` holds
    (T, T^{-1} sup |chi_T|), ``corrector_holder`` the ratio
    sup |chi(x)-chi(y)| / (T^{1-sigma} |x-y|^sigma) at sigma = 1/2, and
    ``gradient_window`` one report per T of windowed gradient L2 means at
    radii r in {T/8, T/4, T/2, T}.
    """
    sigma = 0.5
    csets = sorted(csets, key=lambda c: c.T)
    Ts = np.array([c.T for c in csets])
    sup_vals, holder_vals, grad_reports = [], [], []
    for c in csets:
        sup = c.sup_norm()
        sup_vals.append(sup / c.T)
        ratio = max(holder_seminorm(c.chi[j][b], sigma, window=c.window)
                    for j in range(c.d) for b in range(c.m))
        holder_vals.append(ratio / c.T ** (1.0 - sigma))
        radii = [c.T / 8.0, c.T / 4.0, c.T / 2.0, c.T]
        vals = [windowed_gradient_sup(c, r) for r in radii]
        grad_reports.append(DecayReport(radii, vals, "gradient_window",
                                        metadata={"T": c.T, "sigma": sigma}))
    return {
        "corrector_sup": DecayReport(Ts, sup_vals, "corrector_sup"),
        "corrector_holder": DecayReport(Ts, holder_vals, "corrector_holder",
                                        metadata={"sigma": sigma}),
        "gradient_window": grad_reports,
    }


def windowed_gradient_sup(cset, r):
    """sup over window positions of the box-averaged gradient L2 mean.

    Boxes are sup-norm balls B(x, r); on the periodic route the sliding
    window wraps, on the truncated route every center whose box keeps a
    two-node margin from the Dirichlet boundary is taken, in any dimension.
    """
    from scipy.ndimage import uniform_filter
    grid = cset.grid
    d, m = cset.d, cset.m
    gradsq = np.zeros(grid.node_counts)
    for j in range(d):
        for b in range(m):
            grad = centered_gradient(cset.chi[j][b])
            gradsq += np.sum(grad ** 2, axis=(0, 1))
    if grid.bc == PERIODIC:
        size = [max(1, min(int(round(2 * r / grid.h[ax])), grid.node_counts[ax]))
                for ax in range(d)]
        means = uniform_filter(gradsq, size=size, mode="wrap")
        return float(np.sqrt(np.max(means)))
    half = np.array([int(round(r / grid.h[ax])) for ax in range(d)])
    margin = 2
    lo_c = half + margin
    hi_c = np.array(grid.node_counts) - 1 - half - margin
    if np.any(hi_c <= lo_c):
        raise ValueError("radius too large for the available interior region")
    means = uniform_filter(gradsq, size=2 * half + 1, mode="constant")
    valid = tuple(slice(lo, hi + 1) for lo, hi in zip(lo_c, hi_c))
    return float(np.sqrt(np.max(means[valid])))


def _aligned_window_faces(ca, cb, ax, window):
    ga, gb = ca.grid, cb.grid
    sa = _face_window_slices(ga, window, ax)
    sb = _face_window_slices(gb, window, ax)
    for a in range(ga.d):
        xa = (ga.box.lo[a] + ga.h[a] * (0.5 if a == ax else 0.0)
              + ga.h[a] * np.arange(*sa[a].indices(10 ** 9)))
        xb = (gb.box.lo[a] + gb.h[a] * (0.5 if a == ax else 0.0)
              + gb.h[a] * np.arange(*sb[a].indices(10 ** 9)))
        if xa.size != xb.size or not np.allclose(xa, xb, atol=1e-9):
            raise ValueError("corrector grids are not aligned on the common window")
    return sa, sb


def gradient_cauchy_decay(csets):
    """Window L2 norms of grad chi_T - grad chi_2T per dyadic pair.

    The pair values bound the distance to the T-limit gradient by
    telescoping; they must decrease along the ladder.  The window of a
    pair is the smaller of its two windows; the grids must share spacing
    and node alignment on it.
    """
    csets = sorted(csets, key=lambda c: c.T)
    if len(csets) < 2:
        raise ValueError("need at least two dyadic T values")
    params, vals = [], []
    for ca, cb in zip(csets[:-1], csets[1:]):
        if abs(cb.T / ca.T - 2.0) > 1e-9:
            raise ValueError("ladder must be dyadic in T")
        if ca.window is None:
            window = None
        else:
            window = Box.cube(min(c.window.sides.min() for c in (ca, cb)), d=ca.d)
        total = 0.0
        n_terms = 0
        for j in range(ca.d):
            for b in range(ca.m):
                for ax in range(ca.d):
                    fa = face_differences(ca.chi[j][b], ax)
                    fb = face_differences(cb.chi[j][b], ax)
                    if window is None:
                        if fa.shape != fb.shape:
                            raise ValueError("periodic corrector grids differ")
                        diff = fa - fb
                    else:
                        sa, sb = _aligned_window_faces(ca, cb, ax, window)
                        diff = fa[(slice(None), *sa)] - fb[(slice(None), *sb)]
                    total += float(np.mean(np.sum(diff ** 2, axis=0)))
                    n_terms += 1
        params.append(ca.T)
        vals.append(np.sqrt(total / max(n_terms, 1)))
    return DecayReport(params, vals, "gradient_cauchy",
                       metadata={"T_pairs": [[c.T, 2 * c.T] for c in csets[:-1]]})


# ---------------------------------------------------------------------------
# flux corrector and translation response


def solve_flux_corrector(flux, tol=1e-10):
    """Screened Poisson solve  -Lap f + T^{-2} f = B - <B>  per tensor entry.

    On the periodic route the solve lives on the period cell; otherwise the
    flux region is re-truncated with zero Dirichlet data and the scalings
    are reported on the central cube of side T.
    Returns (entries, report): entries[i][j][a][b] is a GridFunction, the
    report holds T^{-2} max |f| and T^{-1} max |grad f| over the window.
    """
    d = flux.values.shape[0]
    m = flux.values.shape[2]
    T = flux.T
    lap_field = identity_field(d, 1)
    certify_ellipticity(lap_field, sample_count=8)
    if flux.grid.bc == PERIODIC:
        grid, report_window = flux.grid, None
    else:
        region_shape = flux.values.shape[4:]
        if min(region_shape) < 8:
            raise ValueError("flux region too small to re-truncate")
        lo = np.array([flux.grid.axis_nodes(ax)[flux.slices[ax].start] for ax in range(d)])
        hi = np.array([flux.grid.axis_nodes(ax)[flux.slices[ax].stop - 1] for ax in range(d)])
        side = (hi - lo).min()
        if side < 3.0 * T:
            raise ValueError("flux region must span at least 3 screening lengths")
        grid = BoxGrid(Box(lo, hi), np.array(region_shape) - 1, DIRICHLET)
        report_window = Box.cube(T, d=d)
    op = assemble(lap_field, grid, T ** -2.0)
    rsl = (slice(None), *_region_slices(grid, report_window))
    entries = [[[[None] * m for _ in range(m)] for _ in range(d)] for _ in range(d)]
    sup_f = 0.0
    sup_grad = 0.0
    for i in range(d):
        for j in range(d):
            for al in range(m):
                for b in range(m):
                    data = flux.values[i, j, al, b] - flux.mean[i, j, al, b]
                    rhs = GridFunction(grid, data[None])
                    f = solve(op, rhs, tol=tol)
                    entries[i][j][al][b] = f
                    sup_f = max(sup_f, float(np.max(np.abs(f.values[rsl]))))
                    grad = centered_gradient(f)
                    sup_grad = max(sup_grad, float(np.max(np.abs(grad[(slice(None), *rsl)]))))
    report = {"T": T, "sup_f_scaled": sup_f * T ** -2.0,
              "sup_grad_scaled": sup_grad / T,
              "window_side": None if report_window is None
              else float(report_window.sides[0])}
    return entries, report


def translation_response(field, T, shift_pairs, h=None, tol=1e-8):
    """Sup-norm response of the corrector to coefficient translations.

    For each shift pair (y, z) the corrector is recomputed for the shifted
    fields and the ratio ||chi^y - chi^z||_inf / (T ||A(.+y) - A(.+z)||_inf)
    is reported.  The denominator is sampled at 4096 seeded points of the
    cube of side 64; pairs with T times it below 1e-8 are skipped and marked.
    """
    d = field.d
    denom_box = Box.cube(64.0, d=d)
    tpts = np.random.default_rng(0).uniform(denom_box.lo, denom_box.hi, size=(4096, d))
    records = []
    cache = {}

    def _solve_shift(s):
        key = tuple(np.round(np.asarray(s, dtype=float), 12))
        if key not in cache:
            shifted = ShiftedField(field, s)
            if shifted.ellipticity is None:
                certify_ellipticity(shifted)
            cache[key] = solve_corrector(shifted, T, h=h, bc="truncated", tol=tol)
        return cache[key]

    for y, z in shift_pairs:
        y = np.asarray(y, dtype=float).reshape(d)
        z = np.asarray(z, dtype=float).reshape(d)
        denom = float(np.max(np.abs(field.evaluate(tpts + y) - field.evaluate(tpts + z))))
        if denom * T < 1e-8:
            records.append({"y": y.tolist(), "z": z.tolist(), "skipped": True,
                            "denominator": denom})
            continue
        cy = _solve_shift(y)
        cz = _solve_shift(z)
        num = 0.0
        sls = cy.grid.window_slices(cy.window)
        for j in range(d):
            for b in range(field.m):
                diff = cy.chi[j][b].values[(slice(None), *sls)] \
                    - cz.chi[j][b].values[(slice(None), *sls)]
                num = max(num, float(np.max(np.abs(diff))))
        records.append({"y": y.tolist(), "z": z.tolist(), "skipped": False,
                        "denominator": denom, "numerator": num,
                        "ratio": num / (T * denom)})
    return records
