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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .fields import ShiftedField, identity_field, sample_mesh, tensor_matrix
from .grids import (Box, BoxGrid, DIRICHLET, GridFunction, PERIODIC, _face_pairs,
                    _gradient_at, _trapezoid_means, centered_gradient, face_differences,
                    holder_seminorm)
from .metrics import DecayReport
from .operators import assemble, divergence_rhs, solve


@dataclass
class CorrectorSet:
    """Solutions chi[j][beta] plus grid, window and solver provenance.

    ``window`` is the central cube the statistics average over on the
    truncated route, and None (the whole cell) on the periodic route.
    ``face_rows[i]`` is row i of A at the centers of the faces normal to
    axis i, shape (faces_i, d, m, m) in ``grid.face_shape(i)`` order, sampled
    once by ``solve_corrector``; the right-hand sides and the effective
    tensor's face fluxes read it.
    """

    field: object
    T: float
    grid: BoxGrid
    buffer: float
    window: Box                    # None on the periodic cell
    chi: list                      # chi[j][beta] -> GridFunction (m components)
    tol: float
    iterations: list               # Krylov iterations per (j, beta) solve
    face_rows: list

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

    @property
    def kappa(self):
        """The screening coefficient T^{-2} of the solves."""
        return self.T ** -2.0

    @functools.cached_property
    def window_gradients(self):
        """Every chi's centered gradient at the window's nodes (the whole cell
        on the periodic route), taken once for all window statistics:
        [j, b, k, g] is d_k chi_j^{gb}."""
        return _take_gradients(self, self.grid.window_slices(self.window))

    def sup_norm(self):
        """max |chi| over the window (the whole cell on the periodic route)."""
        sls = (slice(None), *self.grid.window_slices(self.window))
        return max(float(np.max(np.abs(self.chi[j][b].values[sls])))
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


def _sym_eigs(tensor):
    """Ascending eigenvalues of the symmetric part of the tensor's (dm, dm) matrix."""
    mat = tensor_matrix(tensor)
    return np.linalg.eigvalsh(0.5 * (mat + mat.T))


@dataclass
class HomogenizedMatrix:
    """Constant effective tensor with its sampled ellipticity check."""

    tensor: np.ndarray
    source: tuple                   # ("approximate", T) or ("reference",)
    ellipticity_ok: bool

    @property
    def sym_eig_min(self):
        return float(_sym_eigs(self.tensor)[0])

    @property
    def sym_eig_max(self):
        return float(_sym_eigs(self.tensor)[-1])


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


def _resolved_h(T, h):
    """The grid step ``h`` (1/64 when None) if it resolves the screening length, h <= T/64."""
    h = 1.0 / 64.0 if h is None else h
    return h if h <= T / 64.0 + 1e-12 else None


def _truncated_grid(d, T, h, buffer):
    """The truncated route's grid: even cells per axis on a cube of side >= (2 buffer + 1) T."""
    side = (2.0 * buffer + 1.0) * T
    cells = int(np.ceil(side / h))
    cells += cells % 2
    half = 0.5 * cells * h
    return BoxGrid(Box(-half * np.ones(d), half * np.ones(d)),
                   cells * np.ones(d, dtype=int), DIRICHLET)


def solve_corrector(field, T, h=None, buffer=6.0, bc="auto", tol=1e-10, threads=None):
    """Solve the screened cell problems for every (direction, component).

    ``bc="auto"`` takes the single-cell periodic route for periodic fields
    and the buffered Dirichlet truncation otherwise.  ``h`` defaults to
    1/64 and must satisfy h <= T/64 so the screening length is resolved.
    The d*m component solves run one after another on one operator;
    ``threads`` has no effect (the benchmark harness passes it).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if bc not in ("auto", "periodic", "truncated"):
        raise ValueError(f"unknown corrector route bc={bc!r}")
    d, m = field.d, field.m
    h = _resolved_h(T, h)
    if h is None:
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
        grid = _truncated_grid(d, T, h, buffer)
        window = Box.cube(T, d=d)

    field.ellipticity          # certified before anything is sampled
    face_rows = [sample_mesh(field, grid.face_axes(i), (i,)) for i in range(d)]
    op = assemble(field, grid, T ** -2.0, face_rows=face_rows)

    chi = [[None] * m for _ in range(d)]
    iterations = []
    for j in range(d):
        for b in range(m):
            u = solve(op, _corrector_rhs(face_rows, grid, j, b), tol=tol)
            chi[j][b] = u
            iterations.append(u.solve_info.iterations)
    return CorrectorSet(field=field, T=float(T), grid=grid, buffer=buffer,
                        window=window, chi=chi, tol=tol,
                        iterations=iterations, face_rows=face_rows)


# ---------------------------------------------------------------------------
# effective tensor from window-averaged fluxes


def homogenized_matrix(cset):
    """Window-averaged approximate effective tensor with ellipticity check.

    Entry (i, j, a, b) is the mean over i-faces in the window of
    a_ij^{ab}(f) + flux_i^a[chi_j^b](f); face-midpoint quadrature, with the flux
    computed on those faces only:

        flux_i^a(f) = a_ii^{ag}(f) D_i chi^g(f)
                    + sum_{k != i} a_ik^{ag}(f) avg_i(centered_k chi^g)(f)
    """
    grid = cset.grid
    d, m = cset.d, cset.m
    periodic = grid.bc == PERIODIC
    # the gradients are taken on the window's nodes, which hold both nodes of
    # every face in the window; gsl[i] are the window's i-faces in that block
    sls = grid.window_slices(cset.window)
    grads = cset.window_gradients
    # per axis i: the window's face slices and row i of A on those faces
    windowed = []
    for i, rows in enumerate(cset.face_rows):
        fsl = (slice(None), *grid.face_window_slices(cset.window, i))
        gsl = (slice(None),) + tuple(f if f.start is None else
                                     slice(f.start - s.start, f.stop - s.start)
                                     for f, s in zip(fsl[1:], sls))
        rows = rows.reshape(grid.face_shape(i) + rows.shape[1:])[fsl[1:]]
        windowed.append((fsl, gsl, rows.reshape((-1,) + rows.shape[d:])))
    ahat = np.zeros((d, d, m, m))
    for j, b in itertools.product(range(d), range(m)):
        u = cset.chi[j][b]
        for i, (fsl, gsl, rows) in enumerate(windowed):
            behind, ahead = _face_pairs(u.values, 1 + i, periodic)
            normal = (ahead[fsl] - behind[fsl]) / grid.h[i]
            shape = normal.shape
            flux = np.einsum("fag,gf->af", rows[:, i], normal.reshape(m, -1)).reshape(shape)
            for k in range(d):
                if k != i:
                    behind, ahead = _face_pairs(grads[j, b, k], 1 + i, periodic)
                    trans = (0.5 * (behind[gsl] + ahead[gsl])).reshape(m, -1)
                    flux += np.einsum("fag,gf->af", rows[:, k], trans).reshape(shape)
            # the integrand fills the window of an array over all i-faces with the
            # components innermost (nothing else of it is written), and the mean
            # sums it as that window, whatever part of the grid the window covers
            faces = np.moveaxis(np.empty(grid.face_shape(i) + (m,)), -1, 0)[fsl]
            np.add(rows[:, j, :, b].T.reshape(shape), flux, out=faces)
            ahat[i, j, :, b] = faces.reshape(m, -1).mean(axis=1)
    lam = _sym_eigs(ahat)[0]
    mu = cset.field.ellipticity.mu
    return HomogenizedMatrix(tensor=ahat, source=("approximate", cset.T),
                             ellipticity_ok=bool(lam > 0 and lam >= 0.90 * mu))


# ---------------------------------------------------------------------------
# pointwise diagnostics on interior regions


def _take_gradients(cset, sls):
    """Every chi's centered gradient at the nodes of the index slices ``sls``."""
    return np.array([[_gradient_at(u, sls) for u in row] for row in cset.chi])


def _node_samples(cset, sls):
    """A and every chi's centered gradient at the nodes of the index slices ``sls``.

    Returns (coeffs, grads) with the node axes last: coeffs[i, k, a, g] is
    a_ik^{ag} and grads[j, b, k, g] is d_k chi_j^{gb}, each of the slices' shape.
    """
    grads = (cset.window_gradients if sls == cset.grid.window_slices(cset.window)
             else _take_gradients(cset, sls))
    coeffs = sample_mesh(cset.field, cset.grid.slice_axes(sls), ())   # (N, d, d, m, m)
    coeffs = np.moveaxis(coeffs, 0, -1).reshape(coeffs.shape[1:] + grads.shape[4:])
    return coeffs, grads


def flux_tensor(cset, ahat=None, region=None):
    """Node-sampled oscillatory flux  ahat - A - A grad chi  with its mean.

    ``ahat``, a HomogenizedMatrix, defaults to the set's own window tensor
    (making the region mean small by construction); pass a reference
    tensor to measure the screening error against a T-independent limit.
    ``region`` defaults to the set's window.
    """
    if ahat is None:
        ahat = homogenized_matrix(cset)
    grid = cset.grid
    d, m = cset.d, cset.m
    if region is None:
        region = cset.window
    sls = grid.window_slices(region)
    coeffs, grads = _node_samples(cset, sls)
    # values[i, j, a, b] = ahat - a_ij^{ab} - sum_k sum_g a_ik^{ag} d_k chi_j^{gb}, in C
    # order, so the periodic mean sums each entry's nodes contiguously
    values = np.subtract(ahat.tensor[(...,) + (None,) * d], coeffs, order="C")
    for k, g in itertools.product(range(d), range(m)):
        values -= coeffs[:, k, :, g][:, None, :, None] * grads[:, :, k, g][None, :, None, :]
    if region is None:
        # the whole periodic cell: the plain node average is the wrap-around mean
        mean = values.reshape(d, d, m, m, -1).mean(axis=-1)
    else:
        mean = _trapezoid_means(values, grid.trapezoid_weights(sls))
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
    sls = grid.window_slices(cset.window)
    coeffs, grads = _node_samples(cset, sls)
    if cset.window is None:
        weights = None
    else:
        weights = grid.trapezoid_weights(sls).ravel()
        weights = weights / weights.sum()

    def _avg(x):
        x = x.reshape(d, m, -1)
        return np.mean(x, axis=-1) if weights is None else np.sum(weights * x, axis=-1)

    # per (j, b): sum_{i, k, a, g} a_ik^{ag} d_k chi^g d_i chi^a and -sum_{i, a} a_ij^{ab} d_i chi^a
    energy = np.zeros_like(grads[:, :, 0, 0])
    for i, k, al, ga in itertools.product(range(d), range(d), range(m), range(m)):
        energy += coeffs[i, k, al, ga] * grads[:, :, k, ga] * grads[:, :, i, al]
    rhs = np.zeros_like(energy)
    for i, al in itertools.product(range(d), range(m)):
        rhs -= coeffs[i, :, al] * grads[:, :, i, al]
    chi = np.array([[u.values[(slice(None), *sls)] for u in row] for row in cset.chi])
    lhs_val = _avg(energy) + cset.kappa * _avg(np.sum(chi ** 2, axis=2))
    rhs_val = _avg(rhs)
    res = lhs_val - rhs_val
    return res, np.abs(res) / (np.abs(lhs_val) + np.abs(rhs_val) + 1.0)


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
    sa = ca.grid.face_window_slices(window, ax)
    sb = cb.grid.face_window_slices(window, ax)
    for xa, xb, s_a, s_b in zip(ca.grid.face_axes(ax), cb.grid.face_axes(ax), sa, sb):
        if xa[s_a].size != xb[s_b].size or not np.allclose(xa[s_a], xb[s_b], atol=1e-9):
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


def _checked_flux_box(grid, slices, T):
    """The box the nodes of ``slices`` span; raises ValueError unless its sides are >= 3T."""
    box = Box(np.array([grid.axis_nodes(ax)[s.start] for ax, s in enumerate(slices)]),
              np.array([grid.axis_nodes(ax)[s.stop - 1] for ax, s in enumerate(slices)]))
    if box.sides.min() < 3.0 * T:
        raise ValueError("flux region must span at least 3 screening lengths")
    return box


def flux_region(field, T, h, buffer, region_factor):
    """The cube of side ``region_factor`` T a flux ladder samples at T, or None on
    the cell route of a field with a period, which ignores ``buffer`` and
    ``region_factor``.  Raises ValueError unless the cube lies in the grid box of
    ``solve_corrector`` and its snapped nodes span 3T; an h (None: 1/64) above
    T/64 is left to ``solve_corrector``, which refuses it."""
    if field.period is not None:
        return None
    region = Box.cube(region_factor * T, d=field.d)
    h = _resolved_h(T, h)
    if h is not None:
        grid = _truncated_grid(field.d, T, h, buffer)
        if not grid.box.contains(region):
            raise ValueError(f"flux region of side {region_factor:g} T does not fit in the "
                             f"corrector box of side {grid.box.sides[0] / T:g} T")
        _checked_flux_box(grid, grid.window_slices(region), T)
    return region


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
    region_shape = flux.values.shape[4:]
    periodic = flux.grid.bc == PERIODIC
    if periodic and region_shape != flux.grid.node_counts:
        raise ValueError(f"a periodic flux is solved on the whole period cell, but its "
                         f"region has {region_shape} of the cell's {flux.grid.node_counts} "
                         "nodes")
    lap_field = identity_field(d, 1)
    if periodic:
        grid, report_window = flux.grid, None
    else:
        if min(region_shape) < 8:
            raise ValueError("flux region too small to re-truncate")
        box = _checked_flux_box(flux.grid, flux.slices, T)
        grid = BoxGrid(box, np.array(region_shape) - 1, DIRICHLET)
        report_window = Box.cube(T, d=d)
    op = assemble(lap_field, grid, T ** -2.0)
    rsl = (slice(None), *grid.window_slices(report_window))
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


def translation_response(field, T, shift_pairs):
    """Sup-norm response of the corrector to coefficient translations.

    For each shift pair (y, z) the corrector is recomputed for the shifted
    fields (truncated route, default ``h``, tol 1e-8) and the ratio
    ||chi^y - chi^z||_inf / (T ||A(.+y) - A(.+z)||_inf) is reported.  The
    denominator is sampled at 4096 seeded points of the cube of side 64;
    pairs with T times it below 1e-8 are skipped and marked.
    """
    d = field.d
    denom_box = Box.cube(64.0, d=d)
    tpts = np.random.default_rng(0).uniform(denom_box.lo, denom_box.hi, size=(4096, d))
    records = []
    cache = {}

    def _solve_shift(s):
        key = tuple(np.round(np.asarray(s, dtype=float), 12))
        if key not in cache:
            cache[key] = solve_corrector(ShiftedField(field, s), T, bc="truncated", tol=1e-8)
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
