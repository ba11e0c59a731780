import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aphomog import fields as F
from aphomog import metrics as M
from aphomog.errors import UnsupportedDimension
from oracle_tools import (brute_covering_radius, brute_discrepancy, brute_rho_ladder,
                          count_evaluate, count_table_entries, covering_radius_full_grid,
                          cross_term_system)

PHI = F.GOLDEN_RATIO


def sampled_sine_field():
    """The sine field's node samples at spacing 1/16, a field without a torus form."""
    nodes = np.arange(16)[:, None] / 16
    return F.PeriodicSampledField([1.0], F.sine_scalar_field().evaluate(nodes))


def bench_2d_field():
    """2 + cos 2pi(x1 + x2) / 2 + cos 2pi(phi x1 + sqrt2 x2) / 2, the benchmark's 2D field."""
    return F.QuasiPeriodicField([[1.0, PHI], [1.0, np.sqrt(2.0)]], 1, [
        (np.zeros(4), 2.0, 0.0),
        (np.array([1.0, 0.0, 1.0, 0.0]), 0.5, 0.0),
        (np.array([0.0, 1.0, 0.0, 1.0]), 0.5, 0.0)])


TABLE_CASES = {
    "golden": F.golden_ratio_field,
    "sine": F.sine_scalar_field,
    "laminate": F.laminate_field,
    "cross_term": cross_term_system,
    "bench_2d": bench_2d_field,
    "shifted": lambda: F.ShiftedField(F.golden_ratio_field(), [0.37]),
    "rescaled": lambda: F.ScaledArgumentField(bench_2d_field(), 1.7),
    "adjoint": lambda: cross_term_system().adjoint(),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_angle_sum_tables_match_point_evaluation(name):
    f = TABLE_CASES[name]()
    rng = np.random.default_rng(3)
    tpts = rng.uniform(-16.0, 16.0, size=(256, f.d))
    shifts = np.concatenate([rng.uniform(-4096.0, 4096.0, size=(24, f.d)),
                             np.full((1, f.d), 4096.0), np.zeros((1, f.d))])
    route, phases, table = M._shift_tables(f, tpts)
    assert route == "angle_sum"
    got = table(phases(shifts), len(tpts))
    x = (tpts[None] + shifts[:, None]).reshape(-1, f.d)
    want = f.evaluate(x).reshape(len(shifts), -1)
    # the angle sum moves each value by the rounding of its phase
    form = f.torus_form()
    phase = max(np.max(np.abs(2.0 * np.pi * (x @ (form.lam.T @ n) + n @ form.phase)))
                for n, _, _ in form.terms)
    size = sum(np.max(np.abs(c)) + np.max(np.abs(s)) for _, c, s in form.terms)
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * (1.0 + phase) * size
    # an entry does not depend on its batch, and a probe's table is the
    # first columns of the full one
    assert np.array_equal(table(phases(shifts[3:5]), len(tpts)), got[3:5])
    assert np.array_equal(table(phases(shifts), 16), got[:, :16 * f.d ** 2 * f.m ** 2])


@pytest.mark.parametrize("name", ["golden", "cross_term", "laminate", "constant", "shifted",
                                  "rescaled"])
def test_tables_read_from_one_phases_array_match_one_shift_tables(name):
    # a rung computes its shifts' phases once and reads its probe and full
    # tables from slices and index arrays of them
    f = {**TABLE_CASES, "constant": lambda: F.ConstantField(2.0, d=1, m=1)}[name]()
    entries = f.d ** 2 * f.m ** 2
    rng = np.random.default_rng(5)
    tpts = rng.uniform(-16.0, 16.0, size=(64, f.d))
    shifts = rng.uniform(-64.0, 64.0, size=(40, f.d))
    _, phases, table = M._shift_tables(f, tpts)
    one_by_one = np.concatenate([table(phases(z[None]), 64) for z in shifts])
    ph = phases(shifts)
    idx = np.array([3, 17, 17, 39, 0])
    assert table(ph, 64).tobytes() == one_by_one.tobytes()
    assert table(ph[:, 8:24], 64).tobytes() == one_by_one[8:24].tobytes()
    assert table(ph[:, idx], 64).tobytes() == one_by_one[idx].tobytes()
    assert table(ph[:, 8:24], 16).tobytes() == one_by_one[8:24, :16 * entries].tobytes()
    assert table(ph[:, idx], 16).tobytes() == one_by_one[idx, :16 * entries].tobytes()


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

    @pytest.mark.parametrize("ell", [[2, 4, 8, 16, 32], [2, 4]])
    def test_ladder_needs_one_ell_per_radius(self, ell):
        with pytest.raises(ValueError, match=f"ell has {len(ell)} values for 3 radii"):
            M.theta_ladder([1.0, PHI], [2, 4, 8], ell)

    @pytest.mark.parametrize("R, ell", [(4, 4), (16, 16), (64, 64), (128, 64), (256, 128)])
    def test_pruned_refinement_equals_full_grid(self, R, ell):
        # N = 2 R ell = 32 ... 65 536 Kronecker points of (1, phi)
        pts = M.kronecker_point_set([1.0, PHI], R, ell).points
        assert M.covering_radius(pts) == covering_radius_full_grid(pts)

    def test_matches_brute_force(self):
        pts = M.kronecker_point_set([1.0, PHI], 8, 4).points
        got = M.covering_radius(pts)
        brute = brute_covering_radius(pts, grid=256)
        assert got == pytest.approx(brute, rel=0.08)


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
        assert M.rho_ladder(f, [4.0], rng_seed=0).values[0] == pytest.approx(0.0, abs=1e-12)

    def test_periodic_small_at_integer_radius(self, sine_field):
        # z grid at spacing R/64 contains the integers; the floor is the
        # z-resolution times the field Lipschitz constant
        val = M.rho_ladder(sine_field, [1.0], rng_seed=3).values[0]
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
        r_inf = M.rho_ladder(laminate, [2.0], norm="inf", **kw).values[0]
        r_euc = M.rho_ladder(laminate, [2.0], norm="euclid", **kw).values[0]
        r_inf_wide = M.rho_ladder(laminate, [2.0 * np.sqrt(2.0)], norm="inf", **kw).values[0]
        assert r_inf <= r_euc + 1e-12
        assert r_inf_wide <= r_euc + 1e-3

    def test_budget_validation(self, sine_field):
        with pytest.raises(ValueError):
            M.rho_ladder(sine_field, [1.0], y_samples=0)

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
        ("golden_field", [1, 2], dict(z_grid_spacing=1 / 32, y_samples=8, test_points=9)),
        ("sampled", [0.5, 1], dict(z_grid_spacing=1 / 32, y_samples=8, test_points=256)),
    ], ids=["golden-nested", "sine-default-spacing", "laminate-inf", "laminate-euclid",
            "cross-term-d2-m2", "few-points-one-y", "probe-is-every-point",
            "sampled-evaluate-route"])
    def test_rho_ladder_matches_brute_force(self, request, name, R_list, kw):
        # a field with a torus form against the scan over the package's
        # tables, a sampled field against point evaluation
        field = {"cross_term": cross_term_system, "sampled": sampled_sine_field}.get(
            name, lambda: request.getfixturevalue(name))()
        rep = M.rho_ladder(field, R_list, rng_seed=4, **kw)
        assert np.array_equal(rep.values, brute_rho_ladder(field, R_list, rng_seed=4, **kw))

    def test_rho_ladder_compares_rows_in_capped_chunks(self, monkeypatch):
        # batches of two y rows: every survivor with more than two y left
        # compares them two at a time, and no value moves
        field = cross_term_system()
        kw = dict(z_grid_spacing=1 / 8, y_samples=16, test_points=64)
        want = M.rho_ladder(field, [0.5, 1], rng_seed=4, **kw).values
        monkeypatch.setattr(M, "_RHO_BATCH_ENTRIES", 2 * 64 * 16)
        got = M.rho_ladder(field, [0.5, 1], rng_seed=4, **kw).values
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, brute_rho_ladder(field, [0.5, 1], rng_seed=4, **kw))

    def test_rho_ladder_batches_tables(self, monkeypatch):
        # one table for the y samples, then per rung one for the probe
        # points of its new shifts and one for the survivors' full tables
        f = F.golden_ratio_field()
        calls = count_evaluate(f)
        sizes = count_table_entries(monkeypatch)
        M.rho_ladder(f, [1, 2], z_grid_spacing=1 / 64, y_samples=8, test_points=128)
        assert sizes[0] == 8 * 128
        assert len(sizes) <= 1 + 2 * 2
        assert calls == []

    def test_rho_ladder_per_y_pruning_matches_brute_force(self, caplog):
        # a surviving z computes its sup only for the y it can still lower
        field = cross_term_system()
        kw = dict(z_grid_spacing=1 / 8, y_samples=16, test_points=256)
        with caplog.at_level(logging.INFO, logger="aphomog"):
            rep = M.rho_ladder(field, [0.5, 1], rng_seed=4, **kw)
        assert np.array_equal(rep.values, brute_rho_ladder(field, [0.5, 1], rng_seed=4, **kw))
        rungs = [dict(kv.split("=") for kv in r.getMessage().split()[1:])
                 for r in caplog.records if r.name == "aphomog.metrics"]
        full_shifts = sum(int(f["full_shifts"]) for f in rungs)
        full_rows = sum(int(f["full_rows"]) for f in rungs)
        assert 0 < full_rows < full_shifts * 16

    def test_rho_ladder_tables_stay_small(self, monkeypatch):
        # the bench rho manifest's budgets: no table may exceed the largest
        # one of the 64-point probe, 64 shifts of 1024 points
        f = F.golden_ratio_field()
        sizes = count_table_entries(monkeypatch)
        M.rho_ladder(f, [2, 4, 8, 16, 32], z_grid_spacing=1 / 64, test_points=1024,
                     rng_seed=0)
        assert max(sizes) <= 64 * 1024

    def test_rho_ladder_coarse_to_fine_scan_bounds_bench_work(self, monkeypatch, caplog):
        # the bench rho manifest's ladder: the coarse-to-fine scan builds
        # 482,320 table entries, 343 full tables (125 on rung 1); a scan in
        # grid order builds 557,072 entries, 416 full tables (194 on rung 1)
        f = F.golden_ratio_field()
        sizes = count_table_entries(monkeypatch)
        with caplog.at_level(logging.INFO, logger="aphomog"):
            M.rho_ladder(f, [2, 4, 8, 16, 32], z_grid_spacing=1 / 64, test_points=1024,
                         rng_seed=0)
        assert sum(sizes) <= 490_000
        first = next(r.getMessage() for r in caplog.records if r.name == "aphomog.metrics")
        assert int(dict(kv.split("=") for kv in first.split()[1:])["full_shifts"]) < 150

    @pytest.mark.parametrize("order", [np.arange, lambda n: np.arange(n)[::-1]],
                             ids=["grid-order", "reversed-order"])
    @pytest.mark.parametrize("name, R_list, kw", [
        ("golden_field", [0.5, 1, 2], dict(z_grid_spacing=1 / 64, y_samples=8, test_points=256)),
        ("cross_term", [0.5, 1], dict(z_grid_spacing=1 / 8, y_samples=16, test_points=256)),
    ], ids=["golden", "cross-term"])
    def test_rho_ladder_values_do_not_depend_on_scan_order(self, request, monkeypatch,
                                                           order, name, R_list, kw):
        field = cross_term_system() if name == "cross_term" else request.getfixturevalue(name)
        coarse_to_fine = M.rho_ladder(field, R_list, rng_seed=4, **kw).values
        monkeypatch.setattr(M, "_scan_order", order)
        assert np.array_equal(M.rho_ladder(field, R_list, rng_seed=4, **kw).values,
                              coarse_to_fine)

    @pytest.mark.parametrize("name, R_list, kw", [
        ("golden_field", [0.5, 1, 2], dict(z_grid_spacing=1 / 64, y_samples=8, test_points=256)),
        ("cross_term", [0.5, 1], dict(z_grid_spacing=1 / 8, y_samples=16, test_points=256)),
    ], ids=["golden", "cross-term"])
    def test_rho_ladder_values_do_not_depend_on_the_batch_size(self, request, monkeypatch,
                                                               name, R_list, kw):
        # 300 entries make every batch one shift
        field = cross_term_system() if name == "cross_term" else request.getfixturevalue(name)
        want = M.rho_ladder(field, R_list, rng_seed=4, **kw).values
        monkeypatch.setattr(M, "_RHO_BATCH_ENTRIES", 300)
        got = M.rho_ladder(field, R_list, rng_seed=4, **kw).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["bench-seed-0", "bench-seed-3", "cross-term", "sampled"])
    def test_rho_ladder_two_point_stage_changes_no_decision(self, monkeypatch, caplog, case):
        # the probe bound starts from the first 1, 2 or all 16 test points
        # (16: no stage); every value and every INFO line stays the same
        make, R_list, kw = {
            "bench-seed-0": (F.golden_ratio_field, [2, 4, 8, 16, 32],
                             dict(z_grid_spacing=1 / 64, test_points=1024, rng_seed=0)),
            "bench-seed-3": (F.golden_ratio_field, [2, 4, 8, 16, 32],
                             dict(z_grid_spacing=1 / 64, test_points=1024, rng_seed=3)),
            "cross-term": (cross_term_system, [0.5],
                           dict(z_grid_spacing=1 / 16, y_samples=16, test_points=256)),
            "sampled": (sampled_sine_field, [0.5, 1],
                        dict(z_grid_spacing=1 / 32, y_samples=8, test_points=256, rng_seed=4)),
        }[case]
        runs = []
        for points in (16, 1, 2):
            monkeypatch.setattr(M, "_RHO_CASCADE_POINTS", points)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="aphomog"):
                values = M.rho_ladder(make(), R_list, **kw).values
            runs.append((values.tobytes(),
                         [r.getMessage() for r in caplog.records if r.name == "aphomog.metrics"]))
        assert len(runs[0][1]) == len(R_list)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_rho_ladder_values_keep_their_bytes_over_several_phase_chunks(self, monkeypatch):
        # 1024 entries: probe batches of 4 shifts and phase chunks of 256
        # shifts (4 phase entries each), so the last rung's 512 new shifts
        # take two chunks
        field = F.golden_ratio_field()
        kw = dict(z_grid_spacing=1 / 64, y_samples=4, test_points=64)
        want = M.rho_ladder(field, [1, 2, 4, 8], rng_seed=4, **kw).values
        calls = []
        build = M._shift_tables

        def counting_build(field, points):
            route, phases, table = build(field, points)
            return route, lambda shifts: calls.append(len(shifts)) or phases(shifts), table

        monkeypatch.setattr(M, "_shift_tables", counting_build)
        monkeypatch.setattr(M, "_RHO_BATCH_ENTRIES", 1024)
        got = M.rho_ladder(field, [1, 2, 4, 8], rng_seed=4, **kw).values
        assert max(calls) == 256 and calls.count(256) >= 3
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, brute_rho_ladder(field, [1, 2, 4, 8], rng_seed=4, **kw))

    @pytest.mark.parametrize("name, norm", [("golden_field", "inf"), ("golden_field", "euclid"),
                                            ("laminate", "inf"), ("laminate", "euclid")])
    def test_z_grid_stays_in_the_ball_when_spacing_does_not_divide_R(
            self, request, monkeypatch, name, norm):
        # at R = 1, spacing 0.3 the axis -1, -0.7, ..., 0.8 would go on to 1.1
        field = request.getfixturevalue(name)
        grids = []
        z_grid = M._z_grid
        monkeypatch.setattr(M, "_z_grid", lambda *a: grids.append(z_grid(*a)) or grids[-1])
        kw = dict(z_grid_spacing=0.3, y_samples=4, test_points=64, norm=norm)
        rep = M.rho_ladder(field, [0.5, 1], rng_seed=4, **kw)
        for R, zs in zip([0.5, 1], grids):
            size = np.sqrt(np.sum(zs ** 2, axis=1)) if norm == "euclid" else np.max(np.abs(zs), axis=1)
            assert np.all(size <= R + 1e-12)
        assert np.max(grids[1]) == pytest.approx(0.8)
        assert np.array_equal(rep.values, brute_rho_ladder(field, [0.5, 1], rng_seed=4, **kw))

    @pytest.mark.parametrize("R", [1.0, 204.87720994573405, 3647.485509954382])
    def test_z_grid_keeps_the_sphere_at_large_radii(self, R):
        # (+-R, 0) and (0, +-R) come out up to 2.2e-11 beyond R at these radii
        assert M._z_grid(R, R / 64, 2, "euclid").shape == (12_853, 2)

    @pytest.mark.parametrize("R", [1.0, 204.87720994573405, 3647.485509954382])
    def test_z_grid_keeps_the_default_axis_whole(self, R):
        # at spacing R / 64 arange's last shift is R up to rounding, which at
        # these radii puts it 1.2e-12 and 2.2e-11 above R; it stays
        axis = np.arange(-R, R + R / 128, R / 64)
        assert axis.size == 129
        assert M._z_grid(R, R / 64, 1, "inf").ravel().tobytes() == axis.tobytes()

    @pytest.mark.parametrize("make, route", [(F.golden_ratio_field, "angle_sum"),
                                             (sampled_sine_field, "evaluate")],
                             ids=["golden", "sampled"])
    def test_rho_ladder_logs_each_rung(self, make, route, caplog):
        with caplog.at_level(logging.INFO, logger="aphomog"):
            rep = M.rho_ladder(make(), [1, 2], z_grid_spacing=1 / 64,
                               y_samples=8, test_points=128)
        lines = [r.getMessage() for r in caplog.records if r.name == "aphomog.metrics"]
        assert len(lines) == 2
        assert lines[0].startswith("rho_ladder R=1 spacing=0.015625 new_shifts=129 ")
        # rung 2 scans only the shifts rung 1 did not, and prunes some of them
        fields = dict(kv.split("=") for kv in lines[1].split()[1:])
        assert fields["new_shifts"] == "128"
        assert int(fields["full_shifts"]) < 128
        assert float(fields["rho"]) == pytest.approx(rep.values[1], rel=1e-8)
        assert fields["tables"] == route
        assert "tables" not in rep.metadata


class TestLadderRules:
    @pytest.mark.parametrize("R_list, message", [
        ([], "R ladder is empty"),
        ([1, float("nan")], "got R = nan"),
        ([1, float("inf")], "got R = inf"),
        ([0, 1], "got R = 0.0"),
        ([2, -1], "got R = -1.0"),
        ([4, 2], "got R = 2.0 after 4.0"),
    ], ids=["empty", "nan", "inf", "zero", "negative", "decreasing"])
    def test_a_bad_radius_is_refused_before_any_table(self, monkeypatch, R_list, message):
        monkeypatch.setattr(M, "_shift_tables", lambda *a: pytest.fail("a table was built"))
        with pytest.raises(ValueError, match=message):
            M.checked_radii(R_list)
        with pytest.raises(ValueError, match=message):
            M.rho_ladder(F.golden_ratio_field(), R_list)
        with pytest.raises(ValueError, match=message):
            M.theta_ladder([1.0, PHI], R_list, 4)

    @pytest.mark.parametrize("ell, message", [
        (1.5, "got ell = 1.5"), ([2, 0], "got ell = 0"), (-3, "got ell = -3"),
        (float("nan"), "got ell = nan"), (True, "got ell = True"),
    ], ids=["fraction", "zero", "negative", "nan", "boolean"])
    def test_a_bad_ell_is_refused(self, ell, message):
        with pytest.raises(ValueError, match=message):
            M.checked_ells(ell, 2)

    def test_a_whole_float_ell_is_an_integer(self):
        # the manifest schema's "integer" takes 2.0
        assert M.checked_ells(2.0, 2) == [2, 2]
        assert M.checked_ells([1, 4.0], 2) == [1, 4]


class TestThetaAndRhoChain:
    def test_lemma_chain_golden(self, golden_field):
        # rho_1(R) <= omega(theta(R)) with matched z-grid and orbit subdivision
        ell = 32
        Rs = [8, 16, 32]
        rho = M.rho_ladder(golden_field, Rs, z_grid_spacing=1 / ell,
                           test_points=1024, y_samples=32, rng_seed=5)
        for R, rv in zip(Rs, rho.values):
            th = M.theta_quasi([1.0, PHI], R, ell)
            om = F.modulus_of_continuity(golden_field, max(th, 1e-9), 8192)
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
