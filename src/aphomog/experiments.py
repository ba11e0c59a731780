"""End-to-end homogenization experiments on the unit box.

Solves the oscillating-coefficient Dirichlet problem
-div(A(x/eps) grad u) = 1 on [0, 1]^d with u = 0 on the boundary, the
constant-coefficient effective problem, and measures two-scale expansion
errors

    u_eps - u0 - eps chi_T(x/eps) . grad u0,      T = 1/eps,

in L2 and H1, fits convergence rates over dyadic eps ladders, and checks
the eps-uniformity of interior Hoelder seminorms.  The boundary corrector
(the solve with the oscillatory trace of the expansion) is optional: it
only improves the expansion error and is excluded from headline metrics.
"""

from __future__ import annotations

import numpy as np

from .correctors import homogenized_matrix, solve_corrector
from .fields import ConstantField, ScaledArgumentField
from .grids import (Box, BoxGrid, DIRICHLET, GridFunction, centered_gradient,
                    holder_seminorm, norms)
from .metrics import DecayReport, compute_Theta, theta_integral
from .operators import assemble, solve

SOLVER_FLOOR = 1e-8


def unit_box_operator(coeff, cells):
    """The stencil of -div(coeff grad .) on [0, 1]^d, ``cells`` per axis, zero Dirichlet data."""
    grid = BoxGrid(Box(np.zeros(coeff.d), np.ones(coeff.d)),
                   np.full(coeff.d, cells, dtype=int), DIRICHLET)
    return assemble(coeff, grid, kappa=0.0)


def _eps_cells(eps):
    """Cells per axis of the eps problems' grid, so that h <= eps/32."""
    return int(np.ceil(1.0 / (eps / 32.0)))


def eps_operator(field, eps):
    """The unit-box stencil of the oscillating coefficient A(x/eps), on a grid with h <= eps/32."""
    if eps <= 0:
        raise ValueError("the oscillating problem needs eps > 0")
    return unit_box_operator(ScaledArgumentField(field, 1.0 / eps), _eps_cells(eps))


def solve_problem(op, tol=1e-10):
    """FD solve of the unit-box problem of ``op`` with source 1, a broadcast
    1.0 that allocates no node-sized array."""
    source = np.broadcast_to(1.0, (op.m,) + op.grid.node_counts)
    return solve(op, GridFunction(op.grid, source), tol=tol)


def _ladder_rung(field, eps, ahat, tol, cset):
    """The unit-box solves of one eps: (u_eps, u0 on u_eps's grid, v_eps).

    The boundary corrector v_eps is solved when the corrector set ``cset``
    is given (else None), on the operator of the u_eps solve.  u0 is solved
    first so that the eps operator is not held through its solve.  Entries
    of Ahat at most eps_mach max|Ahat| (a laminate's rounding-noise a_21)
    are set to 0 first, so a noise-only cross block does not make u0's
    operator assemble its 4 cross steps.
    """
    tensor = ahat.tensor
    tensor = np.where(np.abs(tensor) <= np.finfo(float).eps * np.abs(tensor).max(), 0.0, tensor)
    u0 = solve_problem(unit_box_operator(ConstantField(tensor), _eps_cells(eps)), tol)
    op = eps_operator(field, eps)
    u_eps = solve_problem(op, tol)
    v_eps = None if cset is None else boundary_corrector(op, cset, u0, eps, tol=tol)[0]
    return u_eps, u0, v_eps


def expansion_term(u0, cset, eps):
    """eps chi_T(x/eps) . grad u0 sampled on u0's grid (m components).

    The d*m correctors are interpolated in one call, as the components of
    one grid function on their shared grid, and summed in (j, beta) order."""
    grid = u0.grid
    pts = grid.node_points() / eps
    du0 = centered_gradient(u0)                   # (d, m, *nodes)
    chi = GridFunction(cset.grid, np.concatenate([u.values for row in cset.chi for u in row]))
    chi_vals = chi.interpolate(pts).reshape((cset.d, cset.m) + u0.values.shape)
    out = np.zeros_like(u0.values)
    for j in range(cset.d):
        for b in range(cset.m):
            out += eps * chi_vals[j, b] * du0[j, b][None]
    return GridFunction(grid, out)


def two_scale_error(u_eps, u0, cset, eps, v_eps=None):
    """Plain and corrected expansion errors.

    Returns (L2 of u_eps - u0, L2 and H1 of the corrected remainder
    u_eps - u0 - eps chi(x/eps) grad u0 [+ v_eps when provided]).
    Requires T = 1/eps within 1 percent.
    """
    if abs(cset.T * eps - 1.0) > 0.01:
        raise ValueError("corrector screening length must satisfy T = 1/eps")
    if not (u_eps.grid == u0.grid):
        raise ValueError("u_eps and u0 must share a grid")
    plain = GridFunction(u_eps.grid, u_eps.values - u0.values)
    term = expansion_term(u0, cset, eps)
    corrected_vals = plain.values - term.values
    if v_eps is not None:
        corrected_vals = corrected_vals + v_eps.values
    corrected = GridFunction(u_eps.grid, corrected_vals)
    return (norms(plain, "L2"), norms(corrected, "L2"), norms(corrected, "H1"))


def boundary_corrector(op, cset, u0, eps, tol=1e-10):
    """Solve the homogeneous eps-problem with the oscillatory expansion trace.

    ``op`` is the eps-problem's operator (:func:`eps_operator`) on
    u0's grid.  Returns (v_eps, report) where the report compares ||v||_H1
    with the corrector smallness (T^{-1} sup |chi_T|)^{1/2} that controls it.
    """
    grid = u0.grid
    if op.grid != grid:
        raise ValueError("the operator and u0 must share a grid")
    trace = expansion_term(u0, cset, eps)
    rhs = GridFunction(grid, -op.apply(trace).values)
    w = solve(op, rhs, tol=tol)
    v = GridFunction(grid, w.values + trace.values)
    sup_scaled = cset.sup_norm() / cset.T
    report = {
        "H1": norms(v, "H1"),
        "H1_trace_term": norms(trace, "H1"),
        "corrector_smallness_sqrt": float(np.sqrt(sup_scaled)),
    }
    return v, report


def _sorted_eps(eps_list):
    """The eps values as sorted floats; raises ValueError, naming the bad value,
    unless each is finite and positive."""
    eps_list = [float(e) for e in eps_list]
    for eps in eps_list:
        if not (np.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be positive and finite, got eps = {eps}")
    return sorted(eps_list)


def checked_eps(eps_list):
    """The eps ladder sorted; raises ValueError unless it is 4 or more distinct
    finite positive values of at most 1 (each rung solves the corrector at
    T = 1/eps >= 1)."""
    eps_list = _sorted_eps(eps_list)
    if len(set(eps_list)) < max(4, len(eps_list)):
        raise ValueError(f"ladder needs at least 4 distinct eps values, got {eps_list}")
    if eps_list[-1] > 1.0:
        raise ValueError(f"eps must be at most 1 (T = 1/eps >= 1), got {eps_list[-1]}")
    return eps_list


def checked_holder_eps(eps_list):
    """The eps list sorted; raises ValueError unless it is nonempty, finite and
    positive, its smallest eps is at most 1 (its one corrector is solved at
    T = 1/min(eps) >= 1) and the grid of its largest has at least 4 cells per
    axis (eps < 32/3)."""
    eps_list = _sorted_eps(eps_list)
    if not eps_list:
        raise ValueError("the eps list is empty")
    if eps_list[0] > 1.0:
        raise ValueError(f"the smallest eps must be at most 1 (T = 1/eps >= 1), got {eps_list[0]}")
    if _eps_cells(eps_list[-1]) < 4:
        raise ValueError(f"eps {eps_list[-1]} leaves its grid fewer than 4 cells per axis")
    return eps_list


def rate_experiment(field, eps_list, corrector_h=None, tol=1e-9,
                    include_boundary_corrector=False, rho_report=None):
    """Dyadic-eps convergence study against the effective problem.

    Per eps: solve the oscillating problem, the effective problem on the
    same grid (effective tensor from the corrector at T = 1/eps), and the
    corrected expansion error.  Emits DecayReports and fitted slopes; when
    a rho report is supplied the Theta-integral upper bound (sigma = 1/2)
    is evaluated alongside the measured errors (dominance only, never
    equality).  Returns a dict of the per-eps ``rows``, the ``reports``
    (DecayReports), the ``fitted`` slopes, ``floor_limited`` and ``metadata``.
    """
    eps_list = checked_eps(eps_list)
    rows = []
    for eps in eps_list:
        T = 1.0 / eps
        cset = solve_corrector(field, T, h=corrector_h, tol=tol)
        ahat = homogenized_matrix(cset)
        u_eps, u0, v_eps = _ladder_rung(field, eps, ahat, tol,
                                        cset if include_boundary_corrector else None)
        l2_plain, l2_corr, h1_corr = two_scale_error(u_eps, u0, cset, eps, v_eps)
        h1_plain = norms(GridFunction(u_eps.grid, u_eps.values - u0.values), "H1")
        row = {"eps": eps, "cells": int(u_eps.grid.cells[0]),
               "ahat_entry": float(ahat.tensor.ravel()[0]),
               "L2_plain": l2_plain, "L2_corrected": l2_corr,
               "H1_plain": h1_plain, "H1_corrected": h1_corr,
               "iterations": u_eps.solve_info.iterations}
        if rho_report is not None:
            integral, tail, flagged = theta_integral(rho_report, 0.5, 0.5 / eps)
            theta1 = compute_Theta(rho_report, 1.0, 1.0 / eps, min_samples=1)
            row["L2_bound_shape"] = integral + theta1 ** 0.5
            row["bound_tail_flagged"] = bool(flagged)
        rows.append(row)

    eps_arr = np.array([r["eps"] for r in rows])
    reports = {
        "L2_plain": DecayReport(eps_arr, [r["L2_plain"] for r in rows],
                                "error_vs_eps", metadata={"norm": "L2"}),
        "H1_corrected": DecayReport(eps_arr, [r["H1_corrected"] for r in rows],
                                    "error_vs_eps", metadata={"norm": "H1_corrected"}),
    }
    floor_limited = max(r["L2_plain"] for r in rows) <= SOLVER_FLOOR
    fitted = {}
    if not floor_limited:
        for key, rep in reports.items():
            if np.all(rep.values > 0):
                slope, quality = rep.fit()
                fitted[key] = {"slope": slope, "quality": quality}
    return {"rows": rows, "reports": reports, "fitted": fitted, "floor_limited": floor_limited,
            "metadata": {"field_m": field.m, "d": field.d, "tol": tol}}


def holder_uniformity(field, eps_list, sigma=0.5, rng_seed=0, corrector_h=None):
    """Interior Hoelder seminorms of u_eps across the ladder.

    Returns per-eps seminorms of u_eps (uniformity statistic max/min) and
    of u_eps - u0 (which must decay as eps shrinks), both over the central
    subbox [1/4, 3/4]^d.
    """
    eps_list = checked_holder_eps(eps_list)
    subbox = Box.cube(0.5, center=0.5 * np.ones(field.d), d=field.d)
    cset = solve_corrector(field, 1.0 / min(eps_list), h=corrector_h, tol=1e-9)
    ahat = homogenized_matrix(cset)
    rows = []
    for eps in eps_list:
        u_eps, u0, _ = _ladder_rung(field, eps, ahat, 1e-9, None)
        semi_u = holder_seminorm(u_eps, sigma, rng_seed=rng_seed, window=subbox)
        diff = GridFunction(u_eps.grid, u_eps.values - u0.values)
        semi_diff = holder_seminorm(diff, sigma, rng_seed=rng_seed, window=subbox)
        rows.append({"eps": eps, "seminorm_u": semi_u, "seminorm_diff": semi_diff})
    semis = [r["seminorm_u"] for r in rows]
    return {
        "sigma": sigma,
        "rows": rows,
        "uniformity_ratio": max(semis) / min(semis),
        "subbox": [subbox.lo.tolist(), subbox.hi.tolist()],
    }
