import numpy as np
import pytest

from aphomog import correctors as C
from aphomog import experiments as E
from aphomog import fields as F
from aphomog.grids import GridFunction, norms
from oracle_tools import dirichlet_1d_quadrature


def test_problem_validation():
    with pytest.raises(ValueError):
        E.DirichletProblem()                       # neither field nor ahat
    with pytest.raises(ValueError):
        E.DirichletProblem(field=object(), eps=None)


class TestOracleGate:
    """Every 1D eps-solve must match the quadrature closed form to O(h^2)."""

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_eps_solve_matches_quadrature(self, sine_field, eps):
        p = E.DirichletProblem(field=sine_field, eps=eps)
        u = E.solve_problem(p, tol=1e-10)
        xs = u.grid.axis_nodes(0)
        oracle = dirichlet_1d_quadrature(sine_field, eps, xs)
        h = u.grid.h[0]
        assert np.max(np.abs(u.values[0] - oracle)) <= 20.0 * h ** 2

    def test_homogenized_parabola(self):
        p = E.DirichletProblem(ahat=np.sqrt(3.0) * np.ones((1, 1, 1, 1)), cells=512)
        u = E.solve_problem(p, tol=1e-10)
        x = u.grid.axis_nodes(0)
        assert np.max(np.abs(u.values[0] - x * (1 - x) / (2 * np.sqrt(3)))) < 1e-12

    def test_grid_must_resolve_eps(self, sine_field):
        p = E.DirichletProblem(field=sine_field, eps=1 / 8, cells=64)
        with pytest.raises(ValueError, match="resolve"):
            E.solve_problem(p)


class TestConstantDegeneracy:
    def test_eps_equals_homogenized(self):
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        p_eps = E.DirichletProblem(field=f, eps=1 / 16)
        u_eps = E.solve_problem(p_eps, tol=1e-12)
        p_hom = E.DirichletProblem(ahat=2.0 * np.ones((1, 1, 1, 1)),
                                   cells=u_eps.grid.cells[0])
        u0 = E.solve_problem(p_hom, tol=1e-12)
        cset = C.solve_corrector(f, 16.0, h=1 / 64)
        l2, l2c, h1c = E.two_scale_error(u_eps, u0, cset, 1 / 16)
        assert l2 < 1e-10 and l2c < 1e-10 and h1c < 1e-8


class TestTwoScale:
    def test_corrected_beats_plain_h1(self, sine_field):
        eps = 1 / 32
        cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
        from aphomog.correctors import homogenized_matrix
        ahat = homogenized_matrix(cset)
        p_eps = E.DirichletProblem(field=sine_field, eps=eps)
        u_eps = E.solve_problem(p_eps, tol=1e-10)
        p_hom = E.DirichletProblem(ahat=ahat,
                                   cells=u_eps.grid.cells[0])
        u0 = E.solve_problem(p_hom, tol=1e-10)
        _, _, h1_corr = E.two_scale_error(u_eps, u0, cset, eps)
        plain_h1 = norms(GridFunction(u_eps.grid, u_eps.values - u0.values), "H1")
        assert h1_corr < plain_h1

    def test_halving_eps_halves_plain_l2(self, sine_field):
        errs = {}
        for eps in (1 / 16, 1 / 32):
            cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
            ahat = C.homogenized_matrix(cset)
            p_eps = E.DirichletProblem(field=sine_field, eps=eps)
            u_eps = E.solve_problem(p_eps, tol=1e-10)
            p_hom = E.DirichletProblem(ahat=ahat,
                                       cells=u_eps.grid.cells[0])
            u0 = E.solve_problem(p_hom, tol=1e-10)
            errs[eps], _, _ = E.two_scale_error(u_eps, u0, cset, eps)
        assert 1.7 <= errs[1 / 16] / errs[1 / 32] <= 2.3

    def test_T_mismatch_rejected(self, sine_field):
        eps = 1 / 16
        cset = C.solve_corrector(sine_field, 24.0, h=1 / 128)
        p = E.DirichletProblem(field=sine_field, eps=eps)
        u = E.solve_problem(p, tol=1e-9)
        with pytest.raises(ValueError, match="T = 1/eps"):
            E.two_scale_error(u, u, cset, eps)


class TestBoundaryCorrector:
    def test_constant_field_zero(self):
        f = F.ConstantField(1.5, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        cset = C.solve_corrector(f, 16.0, h=1 / 64)
        p = E.DirichletProblem(field=f, eps=1 / 16)
        u0 = E.solve_problem(E.DirichletProblem(ahat=1.5 * np.ones((1, 1, 1, 1)), cells=512),
                             tol=1e-11)
        v, rep = E.boundary_corrector(p, cset, u0)
        assert rep["H1"] < 1e-9

    def test_periodic_stability_and_decay(self, sine_field):
        h1s = []
        for eps in (1 / 8, 1 / 32):
            cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
            ahat = C.homogenized_matrix(cset)
            p = E.DirichletProblem(field=sine_field, eps=eps)
            u_eps = E.solve_problem(p, tol=1e-10)
            u0 = E.solve_problem(E.DirichletProblem(ahat=ahat,
                                                    cells=u_eps.grid.cells[0]),
                                 tol=1e-10)
            v, rep = E.boundary_corrector(p, cset, u0)
            assert rep["H1"] <= 10.0 * rep["H1_trace_term"]
            h1s.append(rep["H1"])
        assert h1s[1] < h1s[0]


class TestRateExperiment:
    def test_periodic_slope(self, sine_field):
        exp = E.rate_experiment(sine_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert not exp.floor_limited
        assert exp.fitted["L2_plain"]["slope"] >= 0.9
        l2 = [r["L2_plain"] for r in exp.rows]      # ascending eps
        assert all(a <= b + 1e-15 for a, b in zip(l2, l2[1:]))

    def test_constant_floor_limited(self):
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        exp = E.rate_experiment(f, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert exp.floor_limited
        assert exp.fitted == {}

    def test_ladder_length_validated(self, sine_field):
        with pytest.raises(ValueError, match="ladder"):
            E.rate_experiment(sine_field, [1 / 8, 1 / 16])

    def test_grid_refinement_stability(self, sine_field):
        eps = 1 / 32
        cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
        ahat = C.homogenized_matrix(cset)
        errs = []
        for cells in (32 * 32, 64 * 32):
            p = E.DirichletProblem(field=sine_field, eps=eps, cells=cells)
            u_eps = E.solve_problem(p, tol=1e-10)
            u0 = E.solve_problem(E.DirichletProblem(ahat=ahat, cells=cells), tol=1e-10)
            l2, _, h1c = E.two_scale_error(u_eps, u0, cset, eps)
            errs.append((l2, h1c))
        for a, b in zip(errs[0], errs[1]):
            assert abs(a - b) <= 0.10 * max(a, b)

    def test_bound_columns_with_rho_report(self, sine_field):
        from aphomog.metrics import DecayReport
        R = np.geomspace(0.5, 512, 30)
        rho = DecayReport(R, np.exp(-R), "rho")
        exp = E.rate_experiment(sine_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                                rho_report=rho)
        for r in exp.rows:
            assert np.isfinite(r["L2_bound_shape"]) and r["L2_bound_shape"] > 0
            assert "bound_tail_flagged" in r

    def test_quasi_periodic_positive_rates(self, golden_field):
        exp = E.rate_experiment(golden_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                                corrector_h=1 / 64)
        assert exp.fitted["L2_plain"]["slope"] > 0
        assert exp.fitted["H1_corrected"]["slope"] > 0

    @pytest.mark.parametrize("which", ["periodic", "quasi_periodic"])
    def test_expansion_improves_h1(self, sine_field, golden_field, which):
        field = sine_field if which == "periodic" else golden_field
        kwargs = {} if which == "periodic" else {"corrector_h": 1 / 64}
        exp = E.rate_experiment(field, [1 / 16, 1 / 32, 1 / 64, 1 / 128], **kwargs)
        for row in exp.rows:
            assert row["H1_corrected"] < row["H1_plain"]


class TestHolderUniformity:
    def test_periodic_uniformity_and_decay(self, sine_field):
        rep = E.holder_uniformity(sine_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128],
                                  sigma=0.5)
        assert rep["uniformity_ratio"] <= 2.0
        diffs = [r["seminorm_diff"] for r in rep["rows"]]   # ascending eps
        assert all(a <= b + 1e-12 for a, b in zip(diffs, diffs[1:]))

    def test_constant_field_identical(self):
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        # grids differ per eps, so sampled seminorms agree only to the
        # pair-sampling resolution
        rep = E.holder_uniformity(f, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert rep["uniformity_ratio"] <= 1.01
