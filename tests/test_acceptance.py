"""Acceptance suite: one test per criterion, one pass line per criterion.

Each test prints its measured numbers and wall time; tolerances are pinned
here and nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from aphomog import cli
from aphomog import correctors as C
from aphomog import experiments as E
from aphomog import fields as F
from aphomog import metrics as M
from aphomog.grids import (Box, BoxGrid, DIRICHLET, GridFunction, PERIODIC,
                           norms, window_mean)
from aphomog.operators import assemble, divergence_rhs, face_diff_matrix, solve
from oracle_tools import dirichlet_1d_quadrature

PHI = F.GOLDEN_RATIO
UNIT = Box([0.0], [1.0])


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0


def _report(num, label, runtime, budget, detail):
    print(f"[PASS] criterion {num:>2}: {label} ({runtime:.1f}s < {budget:.0f}s) {detail}")


@pytest.fixture(scope="module")
def golden_rho(golden_field):
    """Measured translation modulus of the golden field, shared by 7 and 10."""
    return M.rho_ladder(golden_field, [2, 4, 8, 16, 32, 64, 128, 256],
                        z_grid_spacing=1 / 64, test_points=2048, rng_seed=5)


def test_criterion_01_harmonic_mean(sine_field, sine_csets):
    with _Timer() as t:
        hm = C.homogenized_matrix(sine_csets[64])
        err = abs(hm.tensor[0, 0, 0, 0] - np.sqrt(3.0))
    assert err <= 1e-3
    assert t.seconds < 10
    _report(1, "1D effective coefficient vs sqrt(3)", t.seconds, 10,
            f"|ahat - sqrt3| = {err:.2e} (T=64, h=1/256)")


def test_criterion_02_laminate(laminate):
    with _Timer() as t:
        cset = C.solve_corrector(laminate, 16.0, h=1 / 256)
        hm = C.homogenized_matrix(cset)
        err = np.max(np.abs(hm.tensor[:, :, 0, 0] - np.diag([np.sqrt(3.0), 2.0])))
    assert err <= 5e-3
    assert t.seconds < 300
    _report(2, "2D laminate effective tensor", t.seconds, 300,
            f"max entry error = {err:.2e} (T=16)")


def test_criterion_03_constant_degeneracy():
    with _Timer() as t:
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        cset = C.solve_corrector(f, 16.0, h=1 / 64)
        sup = cset.sup_norm()
        hm = C.homogenized_matrix(cset)
        tensor_err = abs(hm.tensor[0, 0, 0, 0] - 2.0)
        p_eps = E.DirichletProblem(field=f, eps=1 / 16)
        u_eps = E.solve_problem(p_eps, tol=1e-10)
        p_hom = E.DirichletProblem(ahat=hm, cells=u_eps.grid.cells[0])
        u0 = E.solve_problem(p_hom, tol=1e-10)
        errs = E.two_scale_error(u_eps, u0, cset, 1 / 16)
    assert sup <= 1e-8
    assert tensor_err <= 1e-12
    assert max(errs) <= 1e-8
    assert t.seconds < 1
    _report(3, "constant-coefficient degeneracy", t.seconds, 1,
            f"sup chi = {sup:.1e}, |ahat-A| = {tensor_err:.1e}, "
            f"errors <= {max(errs):.1e}")


def test_criterion_04_corrector_boundedness(sine_csets):
    with _Timer() as t:
        sups = {T: sine_csets[T].sup_norm() for T in (32, 64, 128)}
        spread = max(sups.values()) / min(sups.values())
        scaled = [sups[T] / T for T in (32, 64, 128)]
        ratios = [b / a for a, b in zip(scaled, scaled[1:])]
    assert spread <= 1.10
    assert all(0.45 <= r <= 0.55 for r in ratios)
    assert t.seconds < 60
    _report(4, "periodic corrector boundedness", t.seconds, 60,
            f"sup spread = {spread:.4f}, halving ratios = "
            f"{[round(r, 3) for r in ratios]}")


def test_criterion_05_mean_zero_and_energy(sine_field):
    with _Timer() as t:
        rels = {}
        for h in (1 / 128, 1 / 256):
            cset = C.solve_corrector(sine_field, 64.0, h=h)
            _, rel = C.energy_identity_residual(cset)
            rels[h] = float(rel[0, 0])
            if h == 1 / 256:
                mean = abs(window_mean(cset.chi[0][0])[0])
                sup = cset.sup_norm()
        shrink = rels[1 / 128] / rels[1 / 256]
    assert mean <= 1e-3 * (1.0 + sup)
    assert rels[1 / 256] <= 1e-3
    assert shrink >= 3.0
    assert t.seconds < 60
    _report(5, "mean-zero and energy identity", t.seconds, 60,
            f"|<chi>| = {mean:.1e}, residual = {rels[1/256]:.1e}, "
            f"h-halving shrink = {shrink:.2f}x")


def test_criterion_06_rate_experiment(sine_field):
    with _Timer() as t:
        eps_list = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
        exp = E.rate_experiment(sine_field, eps_list)
        slope = exp.fitted["L2_plain"]["slope"]
        # every eps-solve must match the quadrature closed form to O(h^2)
        oracle_errs = []
        for eps in eps_list:
            p = E.DirichletProblem(field=sine_field, eps=eps)
            u = E.solve_problem(p, tol=1e-9)
            xs = u.grid.axis_nodes(0)
            n_quad = max(1 << 16, int(4096 / eps))
            oracle = dirichlet_1d_quadrature(sine_field, eps, xs, n=n_quad)
            h = u.grid.h[0]
            oracle_errs.append(np.max(np.abs(u.values[0] - oracle)) / h ** 2)
    assert slope >= 0.9
    assert all(c <= 20.0 for c in oracle_errs)
    assert t.seconds < 120
    _report(6, "periodic 1D convergence rate", t.seconds, 120,
            f"fitted L2 slope = {slope:.3f}, oracle error <= "
            f"{max(oracle_errs):.2f} h^2")


def test_criterion_07_quasi_periodic_pipeline(golden_field, golden_rho):
    with _Timer() as t:
        # Diophantine exponent of (1, phi)
        _, tau_hat = F.diophantine_scan([1.0, PHI], 144)
        # measured modulus: nonincreasing over R in {2, ..., 256}, decaying
        rho_slope, _ = golden_rho.fit()
        assert np.all(np.diff(golden_rho.values) <= 1e-12)
        assert rho_slope <= 0.0
        # modulus chain rho_1(R) <= omega(theta(R)) + tol with matched grids
        torus = golden_field.torus
        chain_ok = []
        for R, rv in zip(golden_rho.parameters, golden_rho.values):
            if R < 8:
                continue
            th = M.theta_quasi([1.0, PHI], int(R), 64)
            om = F.modulus_of_continuity(torus, max(th, 1e-9), 8192)
            chain_ok.append(rv <= om + 0.05)
        # exact discrepancy dominated by the exponential-sum bound, N <= 2000
        sets = [M.kronecker_point_set([1.0, PHI], 500, 2),
                M.kronecker_point_set([PHI], 1000, 1),
                M.kronecker_point_set([1.0, PHI], 100, 10)]
        dominated = []
        for ps in sets:
            d_ex = M.discrepancy_exact(ps)
            dominated.append(all(M.etk_bound(ps, H) >= d_ex for H in (4, 16, 64)))
        # covering-radius decay: the direct orbit value decays (negative
        # exponent), and the discrepancy-route bound of the covering radius
        # (exponential-sum inequality at H = R^{1/(tau+1)}, tau = 1) decays
        # at the predicted -1/4 rate up to log factors
        Rs = [8, 16, 32, 64, 128, 256]
        direct, bound = [], []
        for R in Rs:
            ps = M.kronecker_point_set([1.0, PHI], R, max(2, R // 2))
            H = max(1, int(np.ceil(np.sqrt(R))))
            direct.append(M.covering_radius(ps.points))
            bound.append(M.covering_from_discrepancy(
                min(M.etk_bound(ps, H), 1.0), 2))
        direct_slope, _ = M.DecayReport(Rs, direct, "theta").fit()
        bound_slope, _ = M.DecayReport(Rs, bound, "theta").fit()
        chain2 = all(a <= b for a, b in zip(direct, bound))
    assert abs(tau_hat - 1.0) <= 0.3
    assert all(chain_ok) and len(chain_ok) >= 6
    assert all(dominated)
    assert direct_slope < 0
    assert -0.5 <= bound_slope <= -0.1
    assert chain2
    assert t.seconds < 300
    _report(7, "quasi-periodic pipeline", t.seconds, 300,
            f"tau_hat = {tau_hat:.3f}, modulus chain ok at "
            f"{len(chain_ok)} radii, D_N <= ETK on {len(sets)} sets, "
            f"covering slopes: direct {direct_slope:.2f}, "
            f"bound {bound_slope:.2f}")


def test_criterion_08_gradient_cauchy(sine_csets, golden_csets, laminate):
    with _Timer() as t1:
        rep_p = C.gradient_cauchy_decay([sine_csets[T] for T in (16, 32, 64, 128)])
        rep_g = C.gradient_cauchy_decay([golden_csets[T] for T in (16, 32, 64, 128)])
    with _Timer() as t2:
        lam_sets = [C.solve_corrector(laminate, float(T), h=1 / 128)
                    for T in (4, 8, 16, 32)]
        rep_2d = C.gradient_cauchy_decay(lam_sets)
    for rep in (rep_p, rep_g, rep_2d):
        assert len(rep.values) == 3
        assert rep.values[0] > rep.values[1] > rep.values[2]
    assert t1.seconds < 120
    assert t2.seconds < 900
    _report(8, "dyadic gradient Cauchy decay", t1.seconds + t2.seconds, 1020,
            f"periodic {np.round(rep_p.values, 7).tolist()}, golden "
            f"{np.round(rep_g.values, 6).tolist()}, 2D "
            f"{np.round(rep_2d.values, 6).tolist()}")


def test_criterion_09_holder_uniformity(sine_field):
    with _Timer() as t:
        rep = E.holder_uniformity(sine_field,
                                  [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128],
                                  sigma=0.5)
        ratio = rep["uniformity_ratio"]
        diffs = [r["seminorm_diff"] for r in rep["rows"]]   # ascending eps
        decreasing = all(a <= b + 1e-12 for a, b in zip(diffs, diffs[1:]))
    assert ratio <= 2.0
    assert decreasing
    assert t.seconds < 120
    _report(9, "Hoelder uniformity across eps", t.seconds, 120,
            f"max/min C^0.5 seminorm = {ratio:.3f}, "
            f"|u_eps - u0| seminorm decays with eps")


def test_criterion_10_flux_corrector_scalings(golden_field, golden_rho,
                                              golden_csets):
    with _Timer() as t:
        ok_f, ok_g = [], []
        details = []
        for T in (16, 32, 64, 128):
            flux = C.flux_tensor(golden_csets[T],
                                 region=Box.cube(9.0 * T, d=1))
            _, rep = C.solve_flux_corrector(flux)
            th1 = M.compute_Theta(golden_rho, 1.0, float(T))
            th05 = M.compute_Theta(golden_rho, 0.5, float(T))
            ok_f.append(rep["sup_f_scaled"] <= 10.0 * th1)
            ok_g.append(rep["sup_grad_scaled"] <= 10.0 * th05)
            details.append((T, rep["sup_f_scaled"], th1))
    assert all(ok_f) and all(ok_g)
    assert t.seconds < 300
    _report(10, "flux corrector scalings vs Theta", t.seconds, 300,
            "; ".join(f"T={d[0]}: T^-2|f| = {d[1]:.1e} <= 10 Theta1 = {10*d[2]:.2f}"
                      for d in details[:2]) + " ...")


def test_criterion_11_discretization_gates(sine_field, tmp_path):
    with _Timer() as t:
        # manufactured-solution convergence order, 1D and 2D
        import sympy as sp
        xs, ys = sp.symbols("x y")
        u1 = sp.sin(2 * sp.pi * xs) * xs * (1 - xs)
        a1 = 2 + sp.sin(2 * sp.pi * xs)
        f1 = sp.lambdify(xs, -sp.diff(a1 * sp.diff(u1, xs), xs) + 0.5 * u1, "numpy")
        u1n = sp.lambdify(xs, u1, "numpy")
        errs1 = []
        for n in (64, 128, 256):
            grid = BoxGrid(UNIT, [n], DIRICHLET)
            op = assemble(sine_field, grid, kappa=0.5)
            xg = grid.axis_nodes(0)
            u = solve(op, GridFunction(grid, f1(xg)[None]), tol=1e-11)
            errs1.append(norms(GridFunction(grid, u.values - u1n(xg)[None]), "L2"))
        r1 = [errs1[0] / errs1[1], errs1[1] / errs1[2]]

        a2 = 2 + sp.sin(2 * sp.pi * xs) * sp.cos(2 * sp.pi * ys)
        u2 = sp.sin(sp.pi * xs) * sp.sin(sp.pi * ys) * (1 + xs * ys)
        f2 = sp.lambdify((xs, ys),
                         -(sp.diff(a2 * sp.diff(u2, xs), xs)
                           + sp.diff(a2 * sp.diff(u2, ys), ys)) + 0.7 * u2, "numpy")
        u2n = sp.lambdify((xs, ys), u2, "numpy")
        field2 = F.TrigPolynomialField(2, 1, [
            (np.zeros(2), 2.0, 0.0),
            (np.array([1.0, 1.0]), 0.0, 0.5),
            (np.array([1.0, -1.0]), 0.0, 0.5),
        ])
        F.certify_ellipticity(field2)
        errs2 = []
        for n in (32, 64, 128):
            grid = BoxGrid(Box([0, 0], [1, 1]), [n, n], DIRICHLET)
            op = assemble(field2, grid, kappa=0.7)
            X, Y = grid.node_mesh()
            u = solve(op, GridFunction(grid, f2(X, Y)[None]), tol=1e-11)
            errs2.append(norms(GridFunction(grid, u.values - u2n(X, Y)[None]), "L2"))
        r2 = [errs2[0] / errs2[1], errs2[1] / errs2[2]]

        # summation by parts, exact
        grid = BoxGrid(UNIT, [256], PERIODIC)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((1, 256))
        v = rng.standard_normal(256)
        div = divergence_rhs([g], grid)
        sbp_gap = abs(np.sum(div.values.ravel() * v)
                      + np.sum(g.ravel() * (face_diff_matrix(grid, 0) @ v)))

        # operator symmetry for a symmetric field, exact
        op = assemble(sine_field, grid, kappa=0.5)
        sym_gap = abs(op.matrix - op.matrix.T).max()

        # deterministic bit-reproducibility through the CLI reproduce path
        man = {"command": "homogenize", "seed": 3,
               "field": F.field_to_config(F.sine_scalar_field()),
               "params": {"T": 16.0, "h": 1 / 64}}
        path = cli.run_manifest(man, str(tmp_path))
        ok, drift = cli.reproduce(path)
    assert all(3.5 <= r <= 4.5 for r in r1 + r2)
    assert sbp_gap < 1e-11
    assert sym_gap == 0.0
    assert ok and drift == []
    assert t.seconds < 60
    _report(11, "discretization gates", t.seconds, 60,
            f"MMS ratios 1D {np.round(r1, 2).tolist()} / 2D "
            f"{np.round(r2, 2).tolist()}, SBP gap {sbp_gap:.1e}, "
            f"symmetry gap {sym_gap:.1e}, reproduce bit-stable")
