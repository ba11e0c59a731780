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

from dataclasses import dataclass, field as dc_field

import numpy as np

from .correctors import solve_corrector
from .fields import ConstantField, ScaledArgumentField, certify_ellipticity
from .grids import (Box, BoxGrid, DIRICHLET, GridFunction, centered_gradient,
                    holder_seminorm, norms)
from .metrics import DecayReport, compute_Theta, theta_integral
from .operators import assemble, solve

SOLVER_FLOOR = 1e-8


@dataclass
class DirichletProblem:
    """One unit-box Dirichlet problem: oscillating (eps) or effective (ahat)."""

    field: object = None
    eps: float = None
    ahat: object = None             # HomogenizedMatrix or (d,d,m,m) tensor
    cells: int = None

    def __post_init__(self):
        if (self.field is None) == (self.ahat is None):
            raise ValueError("give either (field, eps) or ahat")
        if self.field is not None and (self.eps is None or self.eps <= 0):
            raise ValueError("the oscillating problem needs eps > 0")


def _coefficient(problem):
    if problem.ahat is not None:
        tensor = getattr(problem.ahat, "tensor", problem.ahat)
        f = ConstantField(np.asarray(tensor, dtype=float))
        certify_ellipticity(f, sample_count=8)
        return f
    coeff = ScaledArgumentField(problem.field, 1.0 / problem.eps)
    if coeff.ellipticity is None:
        certify_ellipticity(coeff)
    return coeff


def default_cells(problem):
    if problem.cells is not None:
        return int(problem.cells)
    if problem.eps is None:
        return 256
    return int(np.ceil(1.0 / (problem.eps / 32.0)))


def solve_problem(problem, tol=1e-10):
    """FD solve on the unit box [0, 1]^d with source 1 and zero boundary data."""
    coeff = _coefficient(problem)
    cells = default_cells(problem)
    if problem.eps is not None and 1.0 / cells > problem.eps / 32.0 + 1e-12:
        raise ValueError("grid must resolve eps: h <= eps/32")
    grid = BoxGrid(Box(np.zeros(coeff.d), np.ones(coeff.d)),
                   np.full(coeff.d, cells, dtype=int), DIRICHLET)
    op = assemble(coeff, grid, kappa=0.0)
    rhs = GridFunction(grid, np.ones((coeff.m,) + grid.node_counts))
    return solve(op, rhs, tol=tol)


def _ladder_rung(field, eps, ahat, tol):
    """The unit-box solves of one eps: (eps problem, u_eps, u0 on u_eps's grid)."""
    p_eps = DirichletProblem(field=field, eps=eps)
    u_eps = solve_problem(p_eps, tol=tol)
    u0 = solve_problem(DirichletProblem(ahat=ahat, cells=u_eps.grid.cells[0]), tol=tol)
    return p_eps, u_eps, u0


def expansion_term(u0, cset, eps):
    """eps chi_T(x/eps) . grad u0 sampled on u0's grid (m components)."""
    grid = u0.grid
    pts = grid.node_points() / eps
    du0 = centered_gradient(u0)                   # (d, m, *nodes)
    out = np.zeros_like(u0.values)
    for j in range(cset.d):
        for b in range(cset.m):
            chi_vals = cset.chi[j][b].interpolate(pts)      # (m, N)
            out += eps * chi_vals.reshape(u0.values.shape) * du0[j, b][None]
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


def boundary_corrector(problem, cset, u0, tol=1e-10):
    """Solve the homogeneous eps-problem with the oscillatory expansion trace.

    Returns (v_eps, report) where the report compares ||v||_H1 with the
    corrector smallness (T^{-1} sup |chi_T|)^{1/2} that controls it.
    """
    if problem.eps is None:
        raise ValueError("boundary corrector needs the oscillating problem")
    coeff = _coefficient(problem)
    grid = u0.grid
    op = assemble(coeff, grid, kappa=0.0)
    trace = expansion_term(u0, cset, problem.eps)
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


@dataclass
class RateExperiment:
    rows: list
    reports: dict
    fitted: dict
    floor_limited: bool
    metadata: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {
            "rows": self.rows,
            "reports": {k: v.as_dict() for k, v in self.reports.items()},
            "fitted": self.fitted,
            "floor_limited": self.floor_limited,
            "metadata": self.metadata,
        }


def rate_experiment(field, eps_list, corrector_h=None, tol=1e-9,
                    include_boundary_corrector=False, rho_report=None):
    """Dyadic-eps convergence study against the effective problem.

    Per eps: solve the oscillating problem, the effective problem on the
    same grid (effective tensor from the corrector at T = 1/eps), and the
    corrected expansion error.  Emits DecayReports and fitted slopes; when
    a rho report is supplied the Theta-integral upper bound (sigma = 1/2)
    is evaluated alongside the measured errors (dominance only, never
    equality).
    """
    from .correctors import homogenized_matrix

    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 4:
        raise ValueError("ladder needs at least 4 eps values")
    if field.ellipticity is None:
        certify_ellipticity(field)
    rows = []
    for eps in eps_list:
        T = 1.0 / eps
        cset = solve_corrector(field, T, h=corrector_h, tol=tol)
        ahat = homogenized_matrix(cset)
        p_eps, u_eps, u0 = _ladder_rung(field, eps, ahat, tol)
        v_eps = None
        if include_boundary_corrector:
            v_eps, _ = boundary_corrector(p_eps, cset, u0, tol=tol)
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
    return RateExperiment(rows=rows, reports=reports, fitted=fitted,
                          floor_limited=floor_limited,
                          metadata={"field_m": field.m, "d": field.d, "tol": tol})


def holder_uniformity(field, eps_list, sigma=0.5, rng_seed=0, corrector_h=None):
    """Interior Hoelder seminorms of u_eps across the ladder.

    Returns per-eps seminorms of u_eps (uniformity statistic max/min) and
    of u_eps - u0 (which must decay as eps shrinks), both over the central
    subbox [1/4, 3/4]^d.
    """
    from .correctors import homogenized_matrix

    eps_list = sorted(float(e) for e in eps_list)
    subbox = Box.cube(0.5, center=0.5 * np.ones(field.d), d=field.d)
    if field.ellipticity is None:
        certify_ellipticity(field)
    cset = solve_corrector(field, 1.0 / min(eps_list), h=corrector_h, tol=1e-9)
    ahat = homogenized_matrix(cset)
    rows = []
    for eps in eps_list:
        _, u_eps, u0 = _ladder_rung(field, eps, ahat, 1e-9)
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
