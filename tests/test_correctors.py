import dataclasses
import itertools

import numpy as np
import pytest

from aphomog import correctors as C
from aphomog import fields as F
from aphomog.grids import (_POINT_BLOCK, Box, BoxGrid, DIRICHLET, PERIODIC, GridFunction,
                           centered_gradient, window_mean)
from oracle_tools import (count_evaluate, count_sample_mesh, cross_term_system, energy_identity_residual_loops,
                          exact_corrector_1d, flux_tensor_loops, harmonic_mean_1d,
                          homogenized_tensor_loops, homogenized_tensor_whole_grid,
                          node_samples_whole_grid, reference_matrix)

PHI = F.GOLDEN_RATIO


@pytest.fixture(scope="module")
def constant_cset():
    f = F.ConstantField(2.0, d=1, m=1)
    F.certify_ellipticity(f, sample_count=16)
    return f, C.solve_corrector(f, 16.0, h=1 / 64)


class TestConstantField:
    def test_corrector_vanishes(self, constant_cset):
        _, cs = constant_cset
        assert cs.sup_norm() <= 1e-10

    def test_effective_tensor_exact(self, constant_cset):
        f, cs = constant_cset
        hm = C.homogenized_matrix(cs)
        assert hm.tensor[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-13)
        assert hm.ellipticity_ok

    def test_flux_tensor_zero(self, constant_cset):
        f, cs = constant_cset
        flux = C.flux_tensor(cs)
        assert np.max(np.abs(flux.values)) < 1e-10
        assert np.max(np.abs(flux.mean)) < 1e-10

    def test_energy_identity_machine_zero(self, constant_cset):
        f, cs = constant_cset
        res, rel = C.energy_identity_residual(cs)
        assert np.max(np.abs(res)) < 1e-12


class TestPeriodic1D:
    def test_effective_vs_quadrature_oracle(self, sine_field, sine_csets):
        hm = C.homogenized_matrix(sine_csets[64])
        oracle = harmonic_mean_1d(sine_field)
        assert oracle == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert abs(hm.tensor[0, 0, 0, 0] - oracle) < 1e-3

    def test_corrector_shape_vs_oracle(self, sine_field, sine_csets):
        cs = sine_csets[64]
        x = cs.grid.axis_nodes(0)
        chi = cs.chi[0][0].values[0]
        oracle = exact_corrector_1d(sine_field, x)
        assert np.max(np.abs(chi - oracle)) < 1.5e-3   # O(T^-2) + O(h^2)

    def test_sup_norm_T_independent(self, sine_csets):
        sups = [sine_csets[T].sup_norm() for T in (32, 64, 128)]
        assert max(sups) / min(sups) < 1.10

    def test_scaled_sup_halves(self, sine_csets):
        vals = [sine_csets[T].sup_norm() / T for T in (32, 64, 128)]
        for a, b in zip(vals, vals[1:]):
            assert 0.45 <= b / a <= 0.55

    def test_mean_zero(self, sine_csets):
        cs = sine_csets[64]
        mean = window_mean(cs.chi[0][0])
        assert abs(mean[0]) <= 1e-3 * (1.0 + cs.sup_norm())

    def test_energy_identity(self, sine_field, sine_csets):
        _, rel = C.energy_identity_residual(sine_csets[64])
        assert rel[0, 0] <= 1e-3

    def test_energy_residual_h_refinement(self, sine_field):
        rels = []
        for h in (1 / 128, 1 / 256):
            cs = C.solve_corrector(sine_field, 64.0, h=h)
            _, rel = C.energy_identity_residual(cs)
            rels.append(rel[0, 0])
        assert rels[0] / rels[1] >= 3.0

    def test_effective_tensor_cauchy_in_T(self, sine_field, sine_csets):
        mats = [C.homogenized_matrix(sine_csets[T]).tensor[0, 0, 0, 0]
                for T in (16, 32, 64, 128)]
        diffs = [abs(b - a) for a, b in zip(mats, mats[1:])]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_gradient_cauchy_decay(self, sine_csets):
        rep = C.gradient_cauchy_decay([sine_csets[T] for T in (16, 32, 64, 128)])
        assert np.all(np.diff(rep.values) < 0)
        slope, _ = rep.fit()
        assert slope <= -1.5   # screening error is O(T^-2) on the periodic route


class TestTruncatedRoute:
    def test_matches_periodic_route_on_window(self, sine_field, sine_csets):
        cs_tr = C.solve_corrector(sine_field, 16.0, h=1 / 64, bc="truncated")
        sls = cs_tr.grid.window_slices(cs_tr.window)
        xs = cs_tr.grid.axis_nodes(0)[sls[0]]
        per = C.solve_corrector(sine_field, 16.0, h=1 / 64)
        ref = per.chi[0][0].interpolate(xs[:, None])[0]
        got = cs_tr.chi[0][0].values[0][sls[0]]
        sup = per.sup_norm()
        assert np.max(np.abs(got - ref)) <= 0.05 * sup
        shift = np.mean(got - ref)
        assert np.max(np.abs(got - ref - shift)) <= 0.005 * sup

    def test_buffer_insensitivity_decays(self, golden_field):
        vals = {}
        for buf in (6.0, 9.0, 12.0):
            cs = C.solve_corrector(golden_field, 16.0, h=1 / 64, buffer=buf)
            sls = cs.grid.window_slices(cs.window)
            vals[buf] = cs.chi[0][0].values[(slice(None), *sls)]
        sup = float(np.max(np.abs(vals[12.0])))
        c69 = np.max(np.abs(vals[6.0] - vals[9.0])) / sup
        c912 = np.max(np.abs(vals[9.0] - vals[12.0])) / sup
        assert c69 <= 2e-2          # honest screening level at buffer 6
        assert c912 <= 0.25 * c69   # and it keeps decaying exponentially

    def test_h_resolves_screening_length(self, golden_field):
        with pytest.raises(ValueError, match="screening"):
            C.solve_corrector(golden_field, 16.0, h=1.0)

    def test_unknown_route_refused_before_any_grid(self, sine_field, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(C, "BoxGrid", no_grid)
        with pytest.raises(ValueError, match="periodc"):
            C.solve_corrector(sine_field, 4.0, h=1 / 64, bc="periodc")

    def test_mean_zero_shifted_golden(self, golden_field):
        # shift breaks the even symmetry; window mean stays at the
        # truncation-error level, bounded by a window-doubling comparison
        gs = F.ShiftedField(golden_field, [0.37])
        F.certify_ellipticity(gs)
        cs = C.solve_corrector(gs, 32.0, h=1 / 64, buffer=6.0)
        m_small = window_mean(cs.chi[0][0], cs.window)[0]
        m_large = window_mean(cs.chi[0][0], Box.cube(3 * 32.0, d=1))[0]
        sup = cs.sup_norm()
        assert abs(m_small) <= 3e-3 * (1.0 + sup)
        assert abs(m_large) <= 3e-3 * (1.0 + sup)


class TestRouteFacts:
    """Route, window and their provenance all follow from the set's grid."""

    def test_periodic_set_has_no_window(self, laminate):
        cs = C.solve_corrector(laminate, 4.0, h=1 / 16)
        assert cs.window is None
        assert cs.mode == "periodic"
        prov = cs.provenance()
        assert prov["mode"] == "periodic"
        assert prov["window"] == [[0.0] * cs.d, laminate.period.tolist()]

    def test_truncated_set_window_is_the_central_cube(self, laminate):
        T = 4.0
        cs = C.solve_corrector(laminate, T, h=1 / 16, bc="truncated", buffer=0.5)
        assert cs.mode == "truncated"
        assert np.array_equal(cs.window.lo, -0.5 * T * np.ones(2))
        assert np.array_equal(cs.window.hi, 0.5 * T * np.ones(2))
        assert cs.provenance()["window"] == [[-0.5 * T] * 2, [0.5 * T] * 2]

    @pytest.mark.parametrize("bc", ["periodic", "truncated"])
    def test_kappa_is_the_screening_coefficient(self, laminate, bc):
        cs = C.solve_corrector(laminate, 4.0, h=1 / 16, bc=bc, buffer=0.5)
        assert cs.kappa == cs.T ** -2
        assert cs.provenance()["kappa"] == cs.T ** -2

    def test_periodic_flux_takes_the_wrap_around_mean(self, laminate):
        cs = C.solve_corrector(laminate, 4.0, h=1 / 16)
        flux = C.flux_tensor(cs)
        assert flux.values.shape[4:] == cs.grid.node_counts
        # every node of the cell once, none halved: the plain node average
        plain = flux.values.reshape(2, 2, 1, 1, -1).mean(axis=-1)
        assert np.array_equal(flux.mean, plain)
        ends_halved = C.flux_tensor(cs, region=cs.grid.box).mean
        assert not np.array_equal(flux.mean, ends_halved)


def _sym_part_extremes(hm):
    mat = F.tensor_matrix(hm.tensor)
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return eigs[0], eigs[-1]


class TestSymmetricEigenvalues:
    """sym_eig_min and sym_eig_max follow from the tensor alone."""

    def test_approximate_matrix(self):
        f = F.TrigPolynomialField(2, 1, [([0.0, 0.0], [[2.0, 0.3], [0.1, 2.0]], 0.0),
                                         ([1.0, 0.0], [[0.4, 0.1], [0.0, 0.0]], 0.0)])
        F.certify_ellipticity(f)
        hm = C.homogenized_matrix(C.solve_corrector(f, 4.0, h=1 / 16))
        lo, hi = _sym_part_extremes(hm)
        assert lo < hi
        assert (hm.sym_eig_min, hm.sym_eig_max) == (lo, hi)

    def test_reference_matrix(self):
        t = np.zeros((2, 2, 1, 1))
        t[:, :, 0, 0] = [[2.0, 0.6], [-0.2, 1.5]]
        hm = reference_matrix(t)
        lo, hi = _sym_part_extremes(hm)
        assert (hm.sym_eig_min, hm.sym_eig_max) == (lo, hi)
        assert hm.ellipticity_ok == (lo > 0)


class TestLaminate2D:
    def test_effective_tensor(self, laminate):
        cs = C.solve_corrector(laminate, 16.0, h=1 / 128)
        hm = C.homogenized_matrix(cs)
        target = np.diag([np.sqrt(3.0), 2.0])
        assert np.max(np.abs(hm.tensor[:, :, 0, 0] - target)) < 5e-3
        assert hm.ellipticity_ok

    def test_truncated_route_matches(self, laminate):
        cs_p = C.solve_corrector(laminate, 4.0, h=1 / 16)
        cs_t = C.solve_corrector(laminate, 4.0, h=1 / 16, bc="truncated",
                                 buffer=3.0, tol=1e-8)
        hp = C.homogenized_matrix(cs_p)
        ht = C.homogenized_matrix(cs_t)
        assert np.max(np.abs(hp.tensor - ht.tensor)) < 5e-4

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64])
    def test_iterations_flat_under_refinement(self, laminate, h):
        # the spectral preconditioner keeps CG counts independent of T/h
        # (15, 17, 19 at these h); Jacobi needed hundreds
        cs = C.solve_corrector(laminate, 4.0, h=h, bc="truncated", buffer=0.5,
                               tol=1e-9)
        assert max(cs.iterations) <= 25

    def test_window_insensitivity(self, laminate):
        cs = C.solve_corrector(laminate, 4.0, h=1 / 16, bc="truncated",
                               buffer=3.0, tol=1e-8)
        full = C.homogenized_matrix(cs).tensor
        half = C.homogenized_matrix(dataclasses.replace(cs, window=Box.cube(2.0, d=2))).tensor
        assert np.max(np.abs(full - half)) <= 2e-3


class TestSystems:
    """m = 2 components ride the same code paths as the scalar case."""

    def _system_field(self):
        ident = np.eye(2)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        base = np.zeros((2, 2, 2, 2))
        wob1 = np.zeros((2, 2, 2, 2))
        wob2 = np.zeros((2, 2, 2, 2))
        for i in range(2):
            base[i, i] = 2.0 * ident
            wob1[i, i] = 0.3 * ident
            wob2[i, i] = 0.2 * swap
        return F.TrigPolynomialField(2, 2, [
            (np.zeros(2), base, np.zeros((2, 2, 2, 2))),
            (np.array([1.0, 0.0]), np.zeros((2, 2, 2, 2)), wob1),
            (np.array([0.0, 1.0]), wob2, np.zeros((2, 2, 2, 2))),
        ])

    def test_constant_system_degenerates(self):
        t = np.zeros((2, 2, 2, 2))
        for i in range(2):
            t[i, i] = np.array([[2.0, 0.4], [0.4, 3.0]])
        f = F.ConstantField(t)
        F.certify_ellipticity(f, sample_count=64)
        cs = C.solve_corrector(f, 8.0, h=1 / 16)
        assert cs.sup_norm() < 1e-10
        hm = C.homogenized_matrix(cs)
        assert np.max(np.abs(hm.tensor - t)) < 1e-12

    def test_variable_system_pipeline(self):
        f = self._system_field()
        assert f.symmetric
        F.certify_ellipticity(f)
        cs = C.solve_corrector(f, 8.0, h=1 / 32)
        assert len(cs.chi) == 2 and len(cs.chi[0]) == 2
        hm = C.homogenized_matrix(cs)
        assert hm.ellipticity_ok
        assert hm.sym_eig_min >= 0.9 * f.ellipticity.mu
        _, rel = C.energy_identity_residual(cs)
        assert np.max(rel) < 5e-3
        mean = window_mean(cs.chi[0][1])
        assert np.max(np.abs(mean)) <= 1e-3 * (1.0 + cs.sup_norm())


class TestAdjointConsistency:
    def test_effective_tensor_of_adjoint(self):
        terms = [
            (np.zeros(2), np.array([[2.0, 0.3], [0.1, 2.0]]), np.zeros((2, 2))),
            (np.array([1.0, 0.0]), np.array([[0.4, 0.1], [0.0, 0.0]]),
             np.zeros((2, 2))),
            (np.array([0.0, 1.0]), np.zeros((2, 2)),
             np.array([[0.0, 0.1], [0.05, 0.3]])),
        ]
        f = F.TrigPolynomialField(2, 1, terms)
        F.certify_ellipticity(f)
        fs = f.adjoint()
        cs = C.solve_corrector(f, 64.0, h=1 / 64)
        cs_adj = C.solve_corrector(fs, 64.0, h=1 / 64)
        a = C.homogenized_matrix(cs).tensor[:, :, 0, 0]
        b = C.homogenized_matrix(cs_adj).tensor[:, :, 0, 0]
        assert np.max(np.abs(b - a.T)) < 1e-3


class TestFaceRows:
    @pytest.mark.parametrize("bc, T, h", [("periodic", 4.0, 1 / 16),
                                          ("truncated", 1.0, 1 / 64)],
                             ids=["periodic", "truncated"])
    def test_face_rows_are_the_face_samples(self, bc, T, h):
        f = cross_term_system()
        assert not f.symmetric
        cs = C.solve_corrector(f, T, h=h, buffer=0.5, bc=bc)
        for i in range(2):
            want = f.evaluate(cs.grid.face_points(i))[:, i]
            assert np.array_equal(cs.face_rows[i], want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_face_samples_evaluated_once(self, d, monkeypatch):
        f = cross_term_system() if d == 2 else F.sine_scalar_field()
        if d == 1:
            F.certify_ellipticity(f, rng_seed=0)
        evaluated = count_evaluate(f)
        sampled = count_sample_mesh(monkeypatch)
        cs = C.solve_corrector(f, 4.0, h=1 / 16)
        # row i on each face set, which assemble reuses, plus each cross block
        # a_ij (i != j) on the nodes; each is one evaluate of its Mesh
        faces = [(len(cs.grid.face_points(i)), (i,)) for i in range(d)]
        nodes = [(cs.grid.node_total, (i, j)) for i in range(d) for j in range(d) if i != j]
        assert sampled == faces + nodes
        assert evaluated == [n for n, _ in faces + nodes]
        evaluated.clear()
        sampled.clear()
        C.homogenized_matrix(cs)
        assert sampled == [] and evaluated == []

    def test_cross_free_field_samples_no_nodes(self, monkeypatch):
        f = F.laminate_field()
        assert f.cross_free
        F.certify_ellipticity(f, rng_seed=0)
        sampled = count_sample_mesh(monkeypatch)
        cs = C.solve_corrector(f, 1.0, h=1 / 64, buffer=0.5, bc="truncated")
        assert sampled == [(len(cs.grid.face_points(i)), (i,)) for i in range(2)]
        sampled.clear()
        C.homogenized_matrix(cs)
        assert sampled == []

    def test_a_field_without_a_form_samples_its_faces_in_point_blocks(self):
        # a sampled field takes the point route: each face set's Mesh, then
        # its blocks of whole rows in turn, so the points sampled add up to
        # the face sets, set by set, and no node is sampled
        grid = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [16, 16], PERIODIC)
        f = F.PeriodicSampledField([1.0, 1.0], F.laminate_field().evaluate(
            grid.node_points()).reshape(16, 16, 2, 2, 1, 1))
        assert f.cross_free and f.torus_form() is None
        F.certify_ellipticity(f, rng_seed=0)
        calls = count_evaluate(f)
        cs = C.solve_corrector(f, 1.0, h=1 / 64, buffer=0.5, bc="truncated")
        shapes = [cs.grid.face_shape(i) for i in range(2)]
        assert min(map(np.prod, shapes)) > _POINT_BLOCK
        runs = [_POINT_BLOCK // row for _, row in shapes]
        assert calls == [n for (rows, row), run in zip(shapes, runs)
                         for n in [rows * row] + [row * min(run, rows - lo)
                                                  for lo in range(0, rows, run)]]
        calls.clear()
        C.homogenized_matrix(cs)
        assert calls == []


@pytest.fixture(scope="module", params=["periodic", "truncated"])
def cross_term_cset(request):
    # d = 2, m = 2, nonsymmetric: the summation order of every component sum shows
    if request.param == "periodic":
        return C.solve_corrector(cross_term_system(), 4.0, h=1 / 16, bc="periodic")
    return C.solve_corrector(cross_term_system(), 1.0, h=1 / 64, buffer=0.5, bc="truncated")


class TestStatisticsMatchLoops:
    """The statistics equal their one-loop-per-index forms byte for byte."""

    def test_homogenized_matrix(self, cross_term_cset):
        got = C.homogenized_matrix(cross_term_cset).tensor
        assert got.tobytes() == homogenized_tensor_loops(cross_term_cset).tobytes()

    def test_homogenized_matrix_in_a_smaller_window(self, cross_term_cset):
        grid = cross_term_cset.grid
        window = Box.cube(0.25 * grid.box.sides[0], center=0.5 * (grid.box.lo + grid.box.hi),
                          d=2)
        got = C.homogenized_matrix(dataclasses.replace(cross_term_cset, window=window)).tensor
        assert got.tobytes() == homogenized_tensor_loops(cross_term_cset, window).tobytes()

    def test_flux_tensor(self, cross_term_cset):
        ahat = C.homogenized_matrix(cross_term_cset)
        flux = C.flux_tensor(cross_term_cset, ahat=ahat)
        values, mean = flux_tensor_loops(cross_term_cset, ahat.tensor)
        assert flux.values.tobytes() == values.tobytes()
        assert flux.mean.tobytes() == mean.tobytes()

    def test_energy_identity_residual(self, cross_term_cset):
        res, rel = C.energy_identity_residual(cross_term_cset)
        want_res, want_rel = energy_identity_residual_loops(cross_term_cset)
        assert res.tobytes() == want_res.tobytes()
        assert rel.tobytes() == want_rel.tobytes()


class TestWindowGradients:
    """The statistics take each chi's gradient once, on the window's nodes, with
    the bits of the whole grid's gradient there."""

    def test_homogenized_matrix_equals_the_whole_grid_form(self, cross_term_cset):
        got = C.homogenized_matrix(cross_term_cset).tensor
        assert got.tobytes() == homogenized_tensor_whole_grid(cross_term_cset).tobytes()

    @pytest.mark.parametrize("side", [0.25, 0.6])
    def test_in_a_smaller_window(self, cross_term_cset, side):
        grid = cross_term_cset.grid
        window = Box.cube(side * grid.box.sides[0], center=0.5 * (grid.box.lo + grid.box.hi),
                          d=2)
        got = C.homogenized_matrix(dataclasses.replace(cross_term_cset, window=window)).tensor
        want = homogenized_tensor_whole_grid(cross_term_cset, window)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("region", ["window", "grid"])
    def test_node_samples_equal_the_whole_grid_form(self, cross_term_cset, region):
        # the window's slices read the set's gradients; others take their own
        grid = cross_term_cset.grid
        sls = grid.window_slices(cross_term_cset.window if region == "window" else None)
        coeffs, grads = C._node_samples(cross_term_cset, sls)
        want_coeffs, want_grads = node_samples_whole_grid(cross_term_cset, sls)
        assert grads.tobytes() == want_grads.tobytes()
        assert coeffs.tobytes() == want_coeffs.tobytes()

    def test_the_window_statistics_take_the_gradients_once(self, monkeypatch):
        calls = []
        inner = C._take_gradients

        def counting(cset, sls):
            calls.append(sls)
            return inner(cset, sls)

        monkeypatch.setattr(C, "_take_gradients", counting)
        cset = C.solve_corrector(cross_term_system(), 1.0, h=1 / 64, buffer=0.5)
        C.homogenized_matrix(cset)
        C.energy_identity_residual(cset)
        C.flux_tensor(cset)
        assert calls == [cset.grid.window_slices(cset.window)]


class TestFluxTensor:
    def test_reference_mean_decreases_in_T(self, sine_field, sine_csets):
        ref = reference_matrix(F.as_tensor(harmonic_mean_1d(sine_field), 1, 1))
        m32 = np.max(np.abs(C.flux_tensor(sine_csets[32], ahat=ref).mean))
        m128 = np.max(np.abs(C.flux_tensor(sine_csets[128], ahat=ref).mean))
        assert m128 < m32

    def test_dyadic_mean_monotone(self, sine_field, sine_csets):
        ref = reference_matrix(F.as_tensor(harmonic_mean_1d(sine_field), 1, 1))
        means = [np.max(np.abs(C.flux_tensor(sine_csets[T], ahat=ref).mean))
                 for T in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_own_tensor_mean_small(self, golden_csets, golden_field):
        flux = C.flux_tensor(golden_csets[32],
                             region=Box.cube(9 * 32.0, d=1))
        assert np.max(np.abs(flux.mean)) < 5e-3


class TestFluxCorrector:
    def test_constant_flux_gives_zero(self, unit_field):
        from aphomog.grids import BoxGrid, PERIODIC
        grid = BoxGrid(Box([0.0], [1.0]), [64], PERIODIC)
        vals = np.full((1, 1, 1, 1, 64), 3.3)
        flux = C.FluxTensor(values=vals, grid=grid, slices=(slice(None),),
                            mean=np.full((1, 1, 1, 1), 3.3), T=8.0)
        entries, rep = C.solve_flux_corrector(flux)
        assert np.max(np.abs(entries[0][0][0][0].values)) < 1e-12
        assert rep["sup_f_scaled"] < 1e-12

    def test_sine_symbol_oracle(self, unit_field):
        from aphomog.grids import BoxGrid, PERIODIC
        T = 8.0
        grid = BoxGrid(Box([0.0], [1.0]), [256], PERIODIC)
        x = grid.axis_nodes(0)
        vals = np.sin(2 * np.pi * x).reshape(1, 1, 1, 1, -1)
        flux = C.FluxTensor(values=vals, grid=grid, slices=(slice(None),),
                            mean=np.zeros((1, 1, 1, 1)), T=T)
        entries, _ = C.solve_flux_corrector(flux, tol=1e-12)
        expected = np.sin(2 * np.pi * x) / ((2 * np.pi) ** 2 + T ** -2)
        err = np.max(np.abs(entries[0][0][0][0].values[0] - expected))
        assert err < 2.0 * (2 * np.pi) ** 2 * grid.h[0] ** 2

    def test_periodic_flux_must_cover_the_cell(self, sine_field, monkeypatch):
        cset = C.solve_corrector(sine_field, 8.0, h=1 / 64)
        flux = C.flux_tensor(cset, region=Box([0.25], [0.75]))

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before rejecting the flux")

        monkeypatch.setattr(C, "assemble", no_assembly)
        with pytest.raises(ValueError, match="whole period cell"):
            C.solve_flux_corrector(flux)

    def test_region_must_cover_screening(self, golden_field, golden_csets):
        flux = C.flux_tensor(golden_csets[64],
                             region=Box.cube(64.0, d=1))
        with pytest.raises(ValueError, match="screening"):
            C.solve_flux_corrector(flux)

    @pytest.mark.parametrize("buffer, region_factor, fits", [
        (6, 3, True), (6, 2.99, False), (4, 9, True), (3.99, 9, False)])
    def test_flux_region_refuses_what_the_solves_refuse(self, golden_field, buffer,
                                                        region_factor, fits):
        T = 4.0
        cset = C.solve_corrector(golden_field, T, buffer=buffer)

        def both():
            region = C.flux_region(golden_field, T, None, buffer, region_factor)
            assert np.array_equal(region.sides, [region_factor * T])
            C.solve_flux_corrector(C.flux_tensor(cset, region=region))

        if fits:
            both()
            return
        with pytest.raises(ValueError):
            C.flux_region(golden_field, T, None, buffer, region_factor)
        with pytest.raises(ValueError):
            C.solve_flux_corrector(C.flux_tensor(cset, region=Box.cube(region_factor * T)))

    def test_flux_region_leaves_the_cell_route_and_a_coarse_h_alone(self, golden_field,
                                                                      sine_field):
        assert C.flux_region(sine_field, 16.0, 1 / 64, 0.0, 2.0) is None
        # h > T/64 is solve_corrector's to refuse, as a compute failure
        assert C.flux_region(golden_field, 16.0, 1.0, 0.0, 2.0) is not None


class TestScalingsAndTranslation:
    def test_golden_scaled_sup_decreasing(self, golden_csets):
        sc = C.corrector_scalings([golden_csets[T] for T in (16, 32, 64, 128)])
        vals = sc["corrector_sup"].values
        assert np.all(np.diff(vals) < 0)

    def test_holder_ratio_bounded(self, golden_csets):
        sc = C.corrector_scalings([golden_csets[T] for T in (16, 32, 64, 128)])
        vals = sc["corrector_holder"].values
        assert np.max(vals) / max(np.min(vals), 1e-30) < 50

    def test_gradient_window_bounded(self, sine_csets):
        sc = C.corrector_scalings([sine_csets[T] for T in (16, 32)])
        for rep in sc["gradient_window"]:
            # bounded by C (T/r)^sigma: scaled values stay of one size
            scaled = rep.values * (rep.parameters / rep.metadata["T"]) ** 0.5
            assert np.max(scaled) / max(np.min(scaled), 1e-30) < 10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_windowed_gradient_sup_matches_brute_force(self, d):
        # a truncated set with random components and per-axis spacings, so
        # the box half-widths differ between axes
        rng = np.random.default_rng(d)
        m, cells = 2, {1: 40, 2: 20, 3: 12}[d]
        sides = np.arange(1.0, d + 1.0)
        grid = BoxGrid(Box(-sides, sides), [cells] * d, DIRICHLET)
        chi = [[GridFunction(grid, rng.standard_normal((m,) + grid.node_counts))
                for _ in range(m)] for _ in range(d)]
        field = F.identity_field(d, m)
        cset = C.CorrectorSet(field=field, T=1.0, grid=grid,
                              buffer=0.0, window=Box.cube(1.0, d=d),
                              chi=chi, tol=1e-10, iterations=[0] * (d * m),
                              face_rows=[field.evaluate(grid.face_points(i))[:, i]
                                         for i in range(d)])
        r = 2.2 * grid.h[0]
        gradsq = sum(np.sum(centered_gradient(u) ** 2, axis=(0, 1))
                     for row in chi for u in row)
        half = [int(round(r / h)) for h in grid.h]
        ranges = [range(half[ax] + 2, grid.node_counts[ax] - half[ax] - 2)
                  for ax in range(d)]
        best = max(gradsq[tuple(slice(c - k, c + k + 1) for c, k in zip(center, half))].mean()
                   for center in itertools.product(*ranges))
        assert C.windowed_gradient_sup(cset, r) == pytest.approx(np.sqrt(best), rel=1e-12)

    def test_golden_cauchy_decreasing(self, golden_csets):
        rep = C.gradient_cauchy_decay([golden_csets[T] for T in (16, 32, 64, 128)])
        assert np.all(np.diff(rep.values) < 0)

    def test_translation_response(self, golden_field):
        rng = np.random.default_rng(3)
        pairs = [(rng.uniform(0, 10, 1), rng.uniform(0, 10, 1)) for _ in range(4)]
        pairs.append((np.array([1.3]), np.array([1.3])))
        recs = C.translation_response(golden_field, 16.0, pairs)
        assert sum(r["skipped"] for r in recs) == 1
        ratios = [r["ratio"] for r in recs if not r["skipped"]]
        assert len(ratios) == 4
        assert max(ratios) / min(ratios) <= 50

    def test_translation_periodic_shift_skipped(self, sine_field):
        recs = C.translation_response(sine_field, 8.0, [([0.2], [1.2])])
        assert recs[0]["skipped"]   # integer-period shift: denominator ~ 0

    def test_cauchy_requires_dyadic(self, sine_field):
        a = C.solve_corrector(sine_field, 16.0, h=1 / 64)
        b = C.solve_corrector(sine_field, 48.0, h=1 / 64)
        with pytest.raises(ValueError, match="dyadic"):
            C.gradient_cauchy_decay([a, b])
