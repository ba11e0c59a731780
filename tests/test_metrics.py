import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aphomog import fields as F
from aphomog import metrics as M
from aphomog.errors import UnsupportedDimension
from oracle_tools import (brute_covering_radius, brute_discrepancy, brute_rho_ladder,
                          count_evaluate, cross_term_system)

PHI = F.GOLDEN_RATIO


class TestFitDecayExponent:
    def test_exact_power(self):
        x = np.geomspace(1, 100, 12)
        rep = M.DecayReport(x, 3.0 * x ** -2.0, "rho")
        slope, q = rep.fit()
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert q == pytest.approx(1.0)

    def test_log_biased_slopes(self):
        # log factors bias the fitted slope off -1 by roughly 1/ln(x)
        x = np.geomspace(1e2, 1e4, 20)
        up, _ = M.DecayReport(x, np.log(x) / x, "rho").fit()
        assert -1.0 < up < -0.75
        down, _ = M.DecayReport(x, 1.0 / (x * np.log(x)), "rho").fit()
        assert -1.35 < down < -1.0

    def test_constant_values(self):
        rep = M.DecayReport([1, 2, 4, 8], [0.5] * 4, "rho")
        slope, q = rep.fit()
        assert slope == pytest.approx(0.0, abs=1e-14)
        assert q == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            M.fit_decay_exponent(M.DecayReport([1, 2], [1, 1], "rho"))
        with pytest.raises(ValueError):
            M.DecayReport([1, 1, 2], [1, 1, 1], "rho")
        with pytest.raises(ValueError):
            M.DecayReport([1, 2, 3], [1, -1, 1], "rho")

    def test_csv_and_dict_round_trip(self, tmp_path):
        rep = M.DecayReport([1, 2, 4], [1.0, 0.5, 0.25], "rho",
                            metadata={"note": "synthetic"})
        rep.fit()
        path = tmp_path / "r.csv"
        rep.to_csv(path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(table[:, 0], [1, 2, 4])
        back = M.DecayReport.from_dict(rep.as_dict())
        assert np.allclose(back.values, rep.values)
        assert back.fitted_exponent == rep.fitted_exponent


class TestDiscrepancy:
    def test_single_point_is_one(self):
        assert M.discrepancy_exact(M.PointSet([[0.0]])) == pytest.approx(1.0)

    def test_equispaced(self):
        for n in (5, 16, 301):
            pts = (np.arange(n)[:, None] + 0.5) / n - 0.5
            assert M.discrepancy_exact(M.PointSet(pts)) == pytest.approx(1.0 / n)

    def test_vs_brute_force_1d(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            pts = rng.uniform(-0.5, 0.5, size=(rng.integers(2, 30), 1))
            got = M.discrepancy_exact(M.PointSet(pts))
            assert got == pytest.approx(brute_discrepancy(pts), abs=1e-12)

    def test_vs_brute_force_2d_with_ties(self):
        rng = np.random.default_rng(9)
        for trial in range(8):
            k = int(rng.integers(3, 10))
            pts = rng.uniform(-0.5, 0.5, size=(k, 2))
            if trial % 2 == 0:
                pts[: k // 2, 0] = pts[0, 0]
            got = M.discrepancy_exact(M.PointSet(pts))
            assert got == pytest.approx(brute_discrepancy(pts), abs=1e-12)

    def test_kronecker_golden_log_over_n(self):
        stats = []
        for R in (64, 256, 1000):
            ps = M.kronecker_point_set([PHI], R, 1)
            d = M.discrepancy_exact(ps)
            stats.append(ps.size * d / np.log(ps.size))
        assert all(0.1 < s < 2.0 for s in stats)

    def test_higher_dimension_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            M.discrepancy_exact(M.PointSet(np.zeros((4, 3))))


class TestEtkBound:
    def test_single_point_bound_at_least_one(self):
        p = M.PointSet([[0.25]])
        for H in (1, 4, 16):
            assert M.etk_bound(p, H) >= 1.0

    def test_equispaced_exact_cancellation(self):
        n = 64
        pts = (np.arange(n)[:, None] + 0.5) / n - 0.5
        p = M.PointSet(pts)
        for H in (4, 16, 63):
            # all exponential sums vanish for 0 < |k| < n
            assert M.etk_bound(p, H) == pytest.approx(4.0 / H, abs=1e-10)

    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(2, 64))
    def test_dominates_exact(self, seed, m, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5, 0.5, size=(n, m))
        p = M.PointSet(pts)
        exact = M.discrepancy_exact(p)
        for H in (4, 16, 64):
            assert M.etk_bound(p, H) >= exact - 1e-12

    def test_dominates_exact_large_sets(self):
        rng = np.random.default_rng(17)
        for m in (1, 2):
            pts = rng.uniform(-0.5, 0.5, size=(500, m))
            p = M.PointSet(pts)
            exact = M.discrepancy_exact(p)
            for H in (4, 16, 64):
                assert M.etk_bound(p, H) >= exact

    def test_dominates_exact_kronecker(self):
        for (R, ell) in ((125, 2), (50, 10), (250, 4)):
            p = M.kronecker_point_set([1.0, PHI], R, ell)
            exact = M.discrepancy_exact(p)
            for H in (4, 16, 64):
                assert M.etk_bound(p, H) >= exact

    def test_dominates_at_orbit_matched_H(self):
        # H chosen as R^{1/(tau+1)} with tau = 1, the choice that balances
        # the orbit-sampling bound
        R = 125
        p = M.kronecker_point_set([1.0, PHI], R, 4)   # N = 1000
        H = int(np.ceil(np.sqrt(R)))
        assert M.etk_bound(p, H) >= M.discrepancy_exact(p)


class TestCovering:
    def test_arithmetic_examples(self):
        assert M.covering_from_discrepancy(1.0, 2) == pytest.approx(0.5)
        assert M.covering_from_discrepancy(1.0 / 16, 1) == pytest.approx(1.0 / 32)
        with pytest.raises(ValueError):
            M.covering_from_discrepancy(1.5, 1)

    def test_equispaced_equality(self):
        n = 16
        pts = (np.arange(n)[:, None] + 0.5) / n - 0.5
        d = M.discrepancy_exact(M.PointSet(pts))
        assert M.covering_from_discrepancy(d, 1) == pytest.approx(
            M.covering_radius(pts), abs=1e-12)

    def test_bound_dominates_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(2, 14))
            pts = rng.uniform(-0.5, 0.5, size=(n, m))
            d = M.discrepancy_exact(M.PointSet(pts))
            bound = M.covering_from_discrepancy(min(d, 1.0), m)
            brute = brute_covering_radius(pts, grid=128 if m == 2 else 4096)
            assert bound >= brute - 1e-2


class TestTheta:
    def test_four_point_example(self):
        # points {-1, -0.5, 0, 0.5} wrapped: covering radius 1/4
        assert M.theta_quasi(np.array([1.0]), 1, 2) == pytest.approx(0.25)

    def test_dense_rational_orbit_small(self):
        # a single rational frequency closes onto the full circle grid, so
        # the covering radius drops to half the orbit resolution
        val = M.theta_quasi(np.array([0.125]), 64, 8)
        assert val <= 1.0 / 64 + 1e-9

    def test_golden_ladder_decreasing(self):
        Rs = [8, 16, 32, 64, 128]
        rep = M.theta_ladder([1.0, PHI], Rs, Rs)
        assert np.all(np.diff(rep.values) < 0)
        slope, _ = rep.fit()
        assert slope < 0

    def test_matches_brute_force(self):
        pts = M.kronecker_point_set([1.0, PHI], 8, 4).points
        got = M.covering_radius(pts)
        brute = brute_covering_radius(pts, grid=256)
        assert got == pytest.approx(brute, rel=0.08)

    def test_layout_maximum(self):
        layout = F.FrequencyLayout((np.array([1.0, PHI]), np.array([1.0])))
        v = M.theta_layout(layout, 16, 16)
        expected = max(M.theta_quasi(np.array([1.0, PHI]), 16, 16),
                       M.theta_quasi(np.array([1.0]), 16, 16))
        assert v == pytest.approx(expected)


class TestKroneckerPoints:
    def test_count_and_range(self):
        p = M.kronecker_point_set([1.0, PHI], 10, 3)
        assert p.size == 2 * 10 * 3
        assert p.dimension == 2
        assert np.all(np.abs(p.points) <= 0.5)
        assert p.provenance["R"] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            M.kronecker_point_set([1.0], 0, 2)
        with pytest.raises(ValueError):
            M.PointSet(np.array([[0.7]]))


class TestRho:
    def test_constant_field_zero(self):
        f = F.ConstantField(2.0, d=1, m=1)
        assert M.estimate_rho(f, 4.0, rng_seed=0) == pytest.approx(0.0, abs=1e-12)

    def test_periodic_small_at_integer_radius(self, sine_field):
        # z grid at spacing R/64 contains the integers; the floor is the
        # z-resolution times the field Lipschitz constant
        val = M.estimate_rho(sine_field, 1.0, rng_seed=3)
        assert val <= 2 * np.pi * (1.0 / 64) / 2 * 1.1

    def test_ladder_nonincreasing(self, golden_field):
        rep = M.rho_ladder(golden_field, [2, 4, 8, 16, 32], test_points=512,
                           y_samples=16, rng_seed=1)
        assert np.all(np.diff(rep.values) <= 1e-12)
        assert rep.metadata["norm"] == "inf"

    def test_golden_decay_exponent_nonpositive(self, golden_field):
        rep = M.rho_ladder(golden_field, [2, 4, 8, 16, 32, 64],
                           z_grid_spacing=1 / 32, test_points=1024,
                           y_samples=32, rng_seed=2)
        slope, _ = rep.fit()
        assert slope <= 0.0

    def test_norm_sandwich_2d(self, laminate):
        # inf-norm cube contains the euclidean ball: rho_1(R) <= rho(R),
        # and the cube of radius R sits inside the ball of radius sqrt(2) R
        kw = dict(y_samples=8, test_points=256, z_grid_spacing=0.25, rng_seed=5)
        r_inf = M.estimate_rho(laminate, 2.0, norm="inf", **kw)
        r_euc = M.estimate_rho(laminate, 2.0, norm="euclid", **kw)
        r_inf_wide = M.estimate_rho(laminate, 2.0 * np.sqrt(2.0), norm="inf", **kw)
        assert r_inf <= r_euc + 1e-12
        assert r_inf_wide <= r_euc + 1e-3

    def test_budget_validation(self, sine_field):
        with pytest.raises(ValueError):
            M.estimate_rho(sine_field, 1.0, y_samples=0)

    @pytest.mark.parametrize("spacing", [-0.5, 0.0, np.nan, np.inf])
    def test_spacing_validation_before_any_evaluation(self, spacing):
        f = F.golden_ratio_field()
        calls = count_evaluate(f)
        with pytest.raises(ValueError, match="z_grid_spacing must be finite and positive"):
            M.rho_ladder(f, [1, 2], z_grid_spacing=spacing)
        assert calls == []

    @pytest.mark.parametrize("name, R_list, kw", [
        ("golden_field", [0.5, 1, 2],
         dict(z_grid_spacing=1 / 64, y_samples=8, test_points=256)),
        ("sine_field", [1, 1.5, 2], dict(y_samples=8, test_points=256)),
        ("laminate", [1, 2],
         dict(z_grid_spacing=0.25, y_samples=4, test_points=96, norm="inf")),
        ("laminate", [1, 2],
         dict(z_grid_spacing=0.25, y_samples=4, test_points=96, norm="euclid")),
        ("cross_term", [0.5, 1], dict(z_grid_spacing=0.25, y_samples=4, test_points=100)),
        ("golden_field", [1, 2], dict(z_grid_spacing=1 / 32, y_samples=1, test_points=20)),
    ], ids=["golden-nested", "sine-default-spacing", "laminate-inf", "laminate-euclid",
            "cross-term-d2-m2", "few-points-one-y"])
    def test_rho_ladder_matches_brute_force(self, request, name, R_list, kw):
        field = cross_term_system() if name == "cross_term" else request.getfixturevalue(name)
        rep = M.rho_ladder(field, R_list, rng_seed=4, **kw)
        assert np.array_equal(rep.values, brute_rho_ladder(field, R_list, rng_seed=4, **kw))

    def test_rho_ladder_batches_evaluate_calls(self):
        # one call for the y table, then per rung one call for the probe
        # points of its new shifts and one for the survivors' full table
        f = F.golden_ratio_field()
        calls = count_evaluate(f)
        M.rho_ladder(f, [1, 2], z_grid_spacing=1 / 64, y_samples=8, test_points=128)
        assert calls[0] == 8 * 128
        assert len(calls) <= 1 + 2 * 2

    def test_rho_ladder_logs_each_rung(self, golden_field, caplog):
        with caplog.at_level(logging.INFO, logger="aphomog"):
            rep = M.rho_ladder(golden_field, [1, 2], z_grid_spacing=1 / 64,
                               y_samples=8, test_points=128)
        lines = [r.getMessage() for r in caplog.records if r.name == "aphomog.metrics"]
        assert len(lines) == 2
        assert lines[0].startswith("rho_ladder R=1 spacing=0.015625 new_shifts=129 ")
        # rung 2 scans only the shifts rung 1 did not, and prunes some of them
        fields = dict(kv.split("=") for kv in lines[1].split()[1:])
        assert fields["new_shifts"] == "128"
        assert int(fields["full_shifts"]) < 128
        assert float(fields["rho"]) == pytest.approx(rep.values[1], rel=1e-8)


class TestThetaAndRhoChain:
    def test_lemma_chain_golden(self, golden_field):
        # rho_1(R) <= omega(theta(R)) with matched z-grid and orbit subdivision
        ell = 32
        Rs = [8, 16, 32]
        rho = M.rho_ladder(golden_field, Rs, z_grid_spacing=1 / ell,
                           test_points=1024, y_samples=32, rng_seed=5)
        torus = golden_field.torus
        for R, rv in zip(Rs, rho.values):
            th = M.theta_quasi([1.0, PHI], R, ell)
            om = F.modulus_of_continuity(torus, max(th, 1e-9), 8192)
            assert rv <= om + 0.05


class TestComputeTheta:
    def _synthetic(self, tau):
        R = np.geomspace(1, 1e4, 50)
        return M.DecayReport(R, R ** -tau, "rho")

    def test_periodic_floor(self):
        rep = M.DecayReport([0.5, 1, 2, 4], [0.0] * 4, "rho")
        val = M.compute_Theta(rep, 0.5, 16.0)
        assert val <= (0.5 / 16.0) ** 0.5 + 1e-12

    def test_synthetic_rate(self):
        rep = self._synthetic(1.0)
        Ts = np.geomspace(10, 1e4, 10)
        vals = [M.compute_Theta(rep, 1.0, T) for T in Ts]
        fit = M.DecayReport(Ts, vals, "Theta_sigma")
        slope, _ = fit.fit()
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_monotone_in_T(self):
        rep = self._synthetic(0.7)
        vals = [M.compute_Theta(rep, 0.5, T) for T in (10, 40, 160, 640)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_upper_bounds(self):
        rep = self._synthetic(1.3)
        for T in (16.0, 256.0):
            v = M.compute_Theta(rep, 1.0, T)
            rho_at_T = np.interp(T, rep.parameters, rep.values)
            assert v <= rho_at_T + 1.0 + 1e-12
            assert v <= 1.0 + 1e-12

    def test_needs_samples_below_T(self):
        rep = M.DecayReport([8, 16, 32, 64], [1, 1, 1, 1], "rho")
        with pytest.raises(ValueError):
            M.compute_Theta(rep, 0.5, 4.0)

    def test_theta_integral_tail_flag(self):
        rep = self._synthetic(1.0)
        val, tail, flagged = M.theta_integral(rep, 0.5, 10.0)
        assert val > 0 and np.isfinite(tail)
        slow = M.DecayReport([1, 2, 4, 8], [0.9, 0.89, 0.88, 0.87], "rho")
        _, _, flagged_slow = M.theta_integral(slow, 0.5, 1.5)
        assert flagged_slow
