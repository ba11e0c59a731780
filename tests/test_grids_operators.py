import struct

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from aphomog import correctors as C
from aphomog import fields as F
from aphomog import operators
from aphomog.errors import NonConverged
from aphomog.grids import (_POINT_BLOCK, Box, BoxGrid, DIRICHLET, GridFunction, PERIODIC,
                           _dot, _gradient_at, centered_gradient, face_differences, holder_seminorm,
                           load_grid_function, norms, save_grid_function, window_mean)
from aphomog.operators import assemble, divergence_rhs, solve
from oracle_tools import (ORACLE_FIELDS, cross_term_system, face_diff_matrix,
                          fast_poisson_out_of_place,
                          interpolate_per_corner, kronecker_divergence, scipy_krylov_solve,
                          triple_product_matrix)


@pytest.fixture
def pgrid():
    return BoxGrid(Box([0.0], [1.0]), [256], PERIODIC)


class TestGridBasics:
    def test_trapezoid_weights_sum(self):
        g = BoxGrid(Box([0.0, -1.0], [2.0, 1.0]), [8, 16], DIRICHLET)
        assert np.sum(g.trapezoid_weights()) == pytest.approx(4.0)
        # window slices snap outward to [0.25, 1.25] x [-0.5, 0.25]
        sls = g.window_slices(Box([0.3, -0.45], [1.2, 0.2]))
        assert np.sum(g.trapezoid_weights(sls)) == pytest.approx(1.0 * 0.75)
        # slice ends are halved on a periodic grid too: [0.0625, 0.625]
        pg = BoxGrid(Box([0.0], [1.0]), [16], PERIODIC)
        psl = pg.window_slices(Box([0.1], [0.6]))
        assert np.sum(pg.trapezoid_weights(psl)) == pytest.approx(0.5625)

    def test_l2_of_constant(self):
        g = BoxGrid(Box([0.0], [2.0]), [64], DIRICHLET)
        u = GridFunction(g, np.full((1, 65), 3.0))
        assert norms(u, "L2") == pytest.approx(3.0 * np.sqrt(2.0))
        assert norms(u, "H1") == pytest.approx(3.0 * np.sqrt(2.0))   # no gradient
        with pytest.raises(ValueError, match="unknown norm kind"):
            norms(u, "Linf")
        assert holder_seminorm(u, 0.5) == pytest.approx(0.0)

    def test_mean_of_sine_over_period(self, pgrid):
        x = pgrid.axis_nodes(0)
        u = GridFunction(pgrid, np.sin(2 * np.pi * x)[None])
        assert abs(window_mean(u)[0]) < 1e-12

    def test_window_mean_constant(self):
        g = BoxGrid(Box([0.0], [4.0]), [64], DIRICHLET)
        u = GridFunction(g, np.full((1, 65), 2.5))
        assert window_mean(u, Box([1.0], [2.0]))[0] == pytest.approx(2.5)

    def test_window_mean_is_a_fixed_order_dot_and_near_the_blas_contraction(self):
        # 19 481 window nodes, so the chunked dot sums three chunks per component
        g = BoxGrid(Box([0.0, 0.0], [2.0, 2.0]), [160, 160], DIRICHLET)
        values = 1.0 + np.random.default_rng(3).random((2, 161, 161))
        window = Box([0.5, 0.0], [2.0, 2.0])
        sls = g.window_slices(window)
        w = g.trapezoid_weights(sls)
        vals = values[(slice(None), *sls)]
        got = window_mean(GridFunction(g, values), window)
        for c in range(2):
            want = _dot(vals[c].ravel(), w.ravel()) / float(np.sum(w))
            assert got[c].tobytes() == want.tobytes()
        # positive terms: the two summation orders agree to n eps
        blas = np.tensordot(vals, w, axes=([1, 2], [0, 1])) / float(np.sum(w))
        np.testing.assert_allclose(got, blas, rtol=w.size * np.finfo(float).eps, atol=0.0)

    def test_interpolation_linear_exact(self):
        g = BoxGrid(Box([0.0], [1.0]), [32], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, (2 * x + 1)[None])
        q = np.array([[0.123], [0.77]])
        assert np.allclose(u.interpolate(q)[0], 2 * q[:, 0] + 1)


    def test_periodic_interpolation_at_a_coordinate_that_rounds_to_the_period(self):
        g = BoxGrid(Box([0.0, 0.0], [1.0, 2.0]), [8, 16], PERIODIC)
        u = GridFunction(g, np.random.default_rng(4).standard_normal((2, 8, 16)))
        got = u.interpolate(np.array([[-1e-18, -1e-18]]))[:, 0]
        assert got.tobytes() == u.values[:, 0, 0].tobytes()

    @pytest.mark.parametrize("window", [Box([0.5, -0.375], [1.25, 0.5]),
                                        Box([0.55, -0.4], [1.3, 0.46])],
                             ids=["edges-on-nodes", "edges-off-nodes"])
    def test_face_window_slices_select_the_faces_centered_in_the_window(self, window):
        g = BoxGrid(Box([0.0, -1.0], [2.0, 1.0]), [8, 16], DIRICHLET)
        for ax in range(2):
            axes = g.face_axes(ax)
            fsl = g.face_window_slices(window, ax)
            centers = axes[ax]
            # no window edge lies on a face center along the normal axis
            assert not np.any(np.isin(centers, [window.lo[ax], window.hi[ax]]))
            inside = (centers >= window.lo[ax]) & (centers <= window.hi[ax])
            assert np.array_equal(centers[fsl[ax]], centers[inside])
            # across, the faces sit on nodes, snapped outward like window_slices
            across = 1 - ax
            assert fsl[across] == g.window_slices(window)[across]
            nodes = axes[across][fsl[across]]
            assert nodes[0] <= window.lo[across] < nodes[1]
            assert nodes[-2] < window.hi[across] <= nodes[-1]


def _interpolation_points(grid, seed):
    """More points than two blocks, not a whole number of blocks: every node,
    points on the upper faces, outside the box and at -1e-18, then random
    points in and around the box."""
    lo, hi, d = grid.box.lo, grid.box.hi, grid.d
    rng = np.random.default_rng(seed)
    upper = rng.uniform(lo, hi, size=(64, d))
    upper[np.arange(64), np.arange(64) % d] = hi[np.arange(64) % d]
    special = [grid.node_points(), upper, hi[None], lo[None],
               np.full((1, d), -1e-18), np.where(np.arange(d) % 2, -1e-18, hi)[None],
               rng.uniform(lo - 3.0, hi + 3.0, size=(64, d))]
    n_special = sum(len(p) for p in special)
    fill = rng.uniform(lo - 0.5, hi + 0.5, size=(2 * _POINT_BLOCK + 77 - n_special, d))
    return np.concatenate(special + [fill])


class TestInterpolation:
    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_the_per_corner_oracle(self, d, m, bc):
        g = BoxGrid(Box(np.zeros(d), [1.0, 2.0, 1.5][:d]), [8, 5, 6][:d], bc)
        u = GridFunction(g, np.random.default_rng(d).standard_normal((m,) + g.node_counts))
        pts = _interpolation_points(g, seed=10 * d + m)
        assert len(pts) > _POINT_BLOCK and len(pts) % _POINT_BLOCK
        got = u.interpolate(pts)
        assert got.shape == (m, len(pts)) and got.flags.c_contiguous
        assert got.tobytes() == interpolate_per_corner(u, pts).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    def test_non_finite_points_raise(self, bc, bad):
        g = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [8, 8], bc)
        u = GridFunction(g, np.ones(g.node_counts))
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            u.interpolate(np.array([[0.5, 0.5], [0.25, bad]]))

    def test_points_of_another_dimension_raise(self):
        # x + 10 y on an 8 x 8 periodic grid: an (N, 1) array is not read as (x, x)
        g = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [8, 8], PERIODIC)
        x, y = np.meshgrid(g.axis_nodes(0), g.axis_nodes(1), indexing="ij")
        u = GridFunction(g, (x + 10.0 * y)[None])
        assert u.interpolate(np.array([[0.25, 0.25]])).tolist() == [[2.75]]
        with pytest.raises(ValueError, match="points have dimension 1"):
            u.interpolate(np.array([[0.25]]))

    def test_one_point_of_shape_d(self):
        # a 1-D array is one point, as for CoefficientField.evaluate; the
        # output keeps its (m, N) shape
        line = GridFunction(BoxGrid(Box([0.0], [1.0]), [8], DIRICHLET), np.ones((1, 9)))
        assert line.interpolate(np.array([0.5])).shape == (1, 1)
        with pytest.raises(ValueError, match="points have dimension 3"):
            line.interpolate(np.array([0.25, 0.5, 0.75]))


class TestHolderSeminorm:
    def test_linear_function_sigma_half(self):
        g = BoxGrid(Box([0.0], [1.0]), [128], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, x[None])
        # sup |x-y| / |x-y|^0.5 = 1 at the full-interval pair
        assert holder_seminorm(u, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_sigma_unit_box(self):
        # all node pairs in the unit box have |x-y| <= 1, so t^sigma is
        # nonincreasing in sigma and the seminorm is nondecreasing
        g = BoxGrid(Box([0.0], [1.0]), [64], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, (0.5 * np.sin(2 * np.pi * x))[None])  # oscillation <= 1
        sigmas = [0.2, 0.4, 0.6, 0.8]
        vals = [holder_seminorm(u, s) for s in sigmas]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        g = BoxGrid(Box([0.0, 0.0], [1.0, 2.0]), [8, 16], DIRICHLET)
        rng = np.random.default_rng(0)
        u = GridFunction(g, rng.standard_normal((2, 9, 17)))
        path = tmp_path / "u.bin"
        save_grid_function(u, path)
        v = load_grid_function(path)
        assert v.grid == g
        assert np.array_equal(u.values, v.values)   # bit identical

    def test_load_rejects_malformed_files(self, tmp_path):
        g = BoxGrid(Box([0.0, 0.0], [1.0, 2.0]), [8, 16], DIRICHLET)
        u = GridFunction(g, np.zeros((2, 9, 17)))
        path = tmp_path / "u.bin"
        save_grid_function(u, path)
        good = path.read_bytes()
        header = 4 + 16 + 3 * 8 * 2
        for bad in (good[:12], good[:header - 4], good[:-8], good + b"\0" * 8):
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                load_grid_function(path)

    @pytest.mark.parametrize("corner, value", [(0, np.nan), (1, np.inf)],
                             ids=["lo-nan", "hi-inf"])
    def test_load_rejects_a_non_finite_box_corner(self, tmp_path, corner, value):
        g = BoxGrid(Box([0.0, 0.0], [1.0, 2.0]), [8, 16], DIRICHLET)
        path = tmp_path / "u.bin"
        save_grid_function(GridFunction(g, np.zeros((1, 9, 17))), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 20 + 16 * corner, value)      # axis 0 of lo or hi
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            load_grid_function(path)


class TestOperator:
    def test_symbol_exact_on_fourier_mode(self, unit_field, pgrid):
        op = assemble(unit_field, pgrid, kappa=0.0)
        x = pgrid.axis_nodes(0)
        u = GridFunction(pgrid, np.cos(2 * np.pi * x)[None])
        h = pgrid.h[0]
        sym = 2.0 * (1.0 - np.cos(2 * np.pi * h)) / h ** 2
        assert np.max(np.abs(op.apply(u).values - sym * u.values)) < 1e-10
        assert abs(sym - (2 * np.pi) ** 2) < (2 * np.pi) ** 4 * h ** 2 / 10

    def test_constant_through_mass_term(self, unit_field, pgrid):
        op = assemble(unit_field, pgrid, kappa=1.0)
        one = GridFunction(pgrid, np.ones((1, 256)))
        assert np.max(np.abs(op.apply(one).values - 1.0)) == 0.0

    def test_symmetry_exact_variable_full_tensor(self):
        terms = [
            (np.zeros(2), np.array([[2.0, 0.3], [0.3, 2.0]]), np.zeros((2, 2))),
            (np.array([1.0, 0.0]), np.array([[0.5, 0.1], [0.1, 0.0]]), np.zeros((2, 2))),
            (np.array([0.0, 1.0]), np.zeros((2, 2)),
             np.array([[0.0, 0.05], [0.05, 0.4]])),
        ]
        f = F.TrigPolynomialField(2, 1, terms)
        assert f.symmetric
        F.certify_ellipticity(f, rng_seed=0)
        grid = BoxGrid(Box([0, 0], [1, 1]), [16, 16], PERIODIC)
        op = assemble(f, grid, kappa=0.5)
        assert abs(op.matrix - op.matrix.T).max() == 0.0

    def test_adjoint_assembly_is_transpose(self):
        terms = [
            (np.zeros(2), np.array([[2.0, 0.3], [0.1, 2.0]]), np.zeros((2, 2))),
            (np.array([1.0, 1.0]), np.array([[0.2, 0.15], [0.0, 0.1]]),
             np.array([[0.1, 0.0], [0.25, 0.3]])),
        ]
        f = F.TrigPolynomialField(2, 1, terms)
        F.certify_ellipticity(f, rng_seed=0)
        grid = BoxGrid(Box([0, 0], [1, 1]), [12, 12], PERIODIC)
        a = assemble(f, grid, kappa=0.3)
        b = assemble(f.adjoint(), grid, kappa=0.3)
        assert abs(b.matrix - a.matrix.T).max() == 0.0

    def test_row_sums_vanish_periodic(self, sine_field, pgrid):
        # kappa = 0, periodic: the operator annihilates constants exactly
        op = assemble(sine_field, pgrid, kappa=0.0)
        row_sums = np.asarray(op.matrix @ np.ones(op.matrix.shape[1]))
        assert np.max(np.abs(row_sums)) < 1e-10

    def test_coercivity(self, sine_field, pgrid):
        op = assemble(sine_field, pgrid, kappa=0.7)
        mu = sine_field.ellipticity.mu
        rng = np.random.default_rng(3)
        h = pgrid.h[0]
        for _ in range(5):
            u = GridFunction(pgrid, rng.standard_normal((1, 256)))
            lhs = np.sum(op.apply(u).values * u.values) * h
            grad_sq = np.sum(face_differences(u, 0) ** 2) * h
            mass = np.sum(u.values ** 2) * h
            assert lhs >= mu * grad_sq + 0.7 * mass - 1e-9 * (grad_sq + mass)

    def test_maximum_principle_surrogate(self, sine_field):
        grid = BoxGrid(Box([0.0], [1.0]), [128], DIRICHLET)
        op = assemble(sine_field, grid, kappa=0.5)
        x = grid.axis_nodes(0)
        rhs = GridFunction(grid, ((1.0 + 0.5 * np.sin(7 * x)) ** 2)[None])
        u = solve(op, rhs, tol=1e-10)
        assert np.min(u.values) >= -1e-10


def _oracle_grid(d, bc):
    """Unequal spacings per axis on a box off the origin."""
    cells = [7, 5, 4] if bc == DIRICHLET else [6, 5, 4]
    return BoxGrid(Box(np.full(d, -0.3), np.array([1.1, 0.7, 0.9])[:d]), cells[:d], bc)


def _unknown_index(grid, m):
    """Flat (component-major) node indices of the unknowns, from the interior mask."""
    return np.flatnonzero(np.tile(grid.interior_mask().ravel(), m))


def _assert_same_csr(a, b):
    assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


class TestAgainstTripleProducts:
    """The one-pass stencil and divergence equal the sparse-product forms bit for bit."""

    @pytest.mark.parametrize("kappa", [0.0, 0.75])
    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
    def test_matrix(self, name, bc, kappa):
        field = ORACLE_FIELDS[name]()
        grid = _oracle_grid(field.d, bc)
        op = assemble(field, grid, kappa)
        ref = triple_product_matrix(field, grid, kappa)
        idx = _unknown_index(grid, field.m)
        # the oracle's rows of the unknowns, and the solver's block of them
        _assert_same_csr(op.matrix, ref[idx])
        _assert_same_csr(op.matrix[:, idx], ref[idx][:, idx])

    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
    def test_matrix_from_face_rows(self, name, bc):
        # the corrector's face rows stand in for the field's face samples
        field = ORACLE_FIELDS[name]()
        grid = _oracle_grid(field.d, bc)
        rows = [field.evaluate(grid.face_points(i))[:, i].copy() for i in range(field.d)]
        op = assemble(field, grid, 0.75, face_rows=rows)
        sampled = assemble(field, grid, 0.75)
        _assert_same_csr(op.matrix, sampled.matrix)
        _assert_same_csr(op.matrix, triple_product_matrix(field, grid, 0.75)[
            _unknown_index(grid, field.m)])
        assert op.face_means.tobytes() == sampled.face_means.tobytes()

    @pytest.mark.parametrize("name", ["trig_d1_m1", "trig_d1_m2", "cross_d2_m1", "cross_d2_m2"])
    def test_dirichlet_rows_are_the_unknowns(self, name):
        field = ORACLE_FIELDS[name]()
        grid = _oracle_grid(field.d, DIRICHLET)
        op = assemble(field, grid, 0.75)
        n_unknowns = int(np.prod([n - 2 for n in grid.node_counts]))
        assert op.matrix.shape == (field.m * n_unknowns, field.m * grid.node_total)
        rng = np.random.default_rng(3)
        u = GridFunction(grid, rng.standard_normal((field.m,) + grid.node_counts))
        got = op.apply(u).values
        unknowns = (slice(None),) + grid.unknowns
        boundary = np.ones(got.shape, dtype=bool)
        boundary[unknowns] = False
        assert np.all(got[boundary] == 0.0)
        ref = triple_product_matrix(field, grid, 0.75)[_unknown_index(grid, field.m)]
        assert got[unknowns].tobytes() == (ref @ u.values.ravel()).tobytes()

    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_divergence(self, d, m, bc):
        grid = _oracle_grid(d, bc)
        rng = np.random.default_rng(100 * d + m)
        g = [rng.standard_normal((m,) + grid.face_shape(ax)) for ax in range(d)]
        g[0][0].flat[0], g[-1][-1].flat[-1] = 0.0, -0.0
        want = kronecker_divergence(g, grid).tobytes()
        assert divergence_rhs(g, grid).values.tobytes() == want
        assert divergence_rhs([x.reshape(m, -1) for x in g], grid).values.tobytes() == want


class TestDivergence:
    def test_constant_face_data_gives_zero(self, pgrid):
        g = [np.full((1, 256), 4.2)]
        div = divergence_rhs(g, pgrid)
        assert np.max(np.abs(div.values)) < 1e-12

    def test_sine_divergence_second_order(self, pgrid):
        xf = pgrid.axis_nodes(0) + 0.5 * pgrid.h[0]
        g = [np.sin(2 * np.pi * xf)[None]]
        div = divergence_rhs(g, pgrid)
        x = pgrid.axis_nodes(0)
        target = 2 * np.pi * np.cos(2 * np.pi * x)
        h = pgrid.h[0]
        assert np.max(np.abs(div.values[0] - target)) < (2 * np.pi) ** 3 * h ** 2

    def test_summation_by_parts_exact(self, pgrid):
        rng = np.random.default_rng(7)
        gvals = rng.standard_normal((1, 256))
        vvals = rng.standard_normal((1, 256))
        div = divergence_rhs([gvals], pgrid)
        D = face_diff_matrix(pgrid, 0)
        lhs = np.sum(div.values * vvals)
        rhs = -np.sum(gvals.ravel() * (D @ vvals.ravel()))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_summation_by_parts_2d(self):
        grid = BoxGrid(Box([0, 0], [1, 1]), [12, 20], PERIODIC)
        rng = np.random.default_rng(11)
        g = [rng.standard_normal((1, 12, 20)), rng.standard_normal((1, 12, 20))]
        v = rng.standard_normal(12 * 20)
        div = divergence_rhs(g, grid)
        lhs = np.sum(div.values.ravel() * v)
        rhs = -sum(np.sum(g[ax].ravel() * (face_diff_matrix(grid, ax) @ v))
                   for ax in range(2))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


# one operator per branch of the solver and its preconditioner (see _solver_case)
SOLVER_CASES = ["lu_1d", "mean_projection_1d", "laminate_2d", "cross_term_2d",
                "mean_projection_2d", "nonsymmetric_2d", "system_2d"]


def _signed_zeros(x, seed):
    """``x`` with about half its entries replaced by +0.0 and -0.0, so that some
    rows sum only zero products."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, 4, x.shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))


class TestStencilMatvec:
    """The stencil matvec and ``apply`` are ``matrix @ x`` bit for bit: each row in
    the CSR's column order, summed without fused multiply-adds."""

    @staticmethod
    def _assert_matrix_product(op, x):
        want = op.matrix @ x.reshape(-1)
        assert op.matvec(x).tobytes() == want.tobytes()
        got = op.apply(GridFunction(op.grid, x)).values
        unknowns = (slice(None),) + op.grid.unknowns
        assert got[unknowns].tobytes() == want.tobytes()
        boundary = np.ones(got.shape, dtype=bool)
        boundary[unknowns] = False
        assert not np.any(got[boundary])

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("case", SOLVER_CASES + ["cross_term_periodic_m2"])
    def test_solver_cases(self, case, block, monkeypatch):
        # block 1: one slab per block, so the row blocks and their edges show
        if block is not None:
            monkeypatch.setattr(operators, "_MATVEC_BLOCK", block)
        op, rhs = _solver_case(case)
        self._assert_matrix_product(op, rhs.values)
        self._assert_matrix_product(op, _signed_zeros(rhs.values, 1))

    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
    def test_oracle_fields(self, name, bc):
        # d = 1, 2, 3, m = 1, 2, cross blocks, unequal spacings
        field = ORACLE_FIELDS[name]()
        grid = _oracle_grid(field.d, bc)
        op = assemble(field, grid, 0.75)
        x = np.random.default_rng(4).standard_normal((field.m,) + grid.node_counts)
        self._assert_matrix_product(op, x)
        self._assert_matrix_product(op, _signed_zeros(x, 2))

    @pytest.mark.parametrize("case", ["mean_projection_2d", "cross_term_periodic_m2"])
    def test_wrap_rows_need_the_csr_order(self, case):
        # summing the steps in sorted order with wrapped neighbours misses the
        # CSR's bits on some rows of the periodic cell's outer layer
        op, rhs = _solver_case(case)
        x, m = rhs.values, op.m
        plain = np.zeros_like(x)
        for al in range(m):
            for be in range(m):
                for step in sorted(op.coef):
                    plain[al] += op.coef[step][al, be] * np.roll(
                        x[be], tuple(-t for t in step), axis=(0, 1))
        want = (op.matrix @ x.reshape(-1)).reshape(x.shape)
        differ = np.any(plain != want, axis=0)
        assert differ.any()
        assert not differ[1:-1, 1:-1].any()


class TestGradientAt:
    @pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slices_have_the_whole_grid_bits(self, d, bc):
        grid = BoxGrid(Box(np.zeros(d), np.array([1.3, 0.7, 0.9])[:d]), [7, 9, 5][:d], bc)
        rng = np.random.default_rng(d)
        u = GridFunction(grid, rng.standard_normal((2,) + grid.node_counts))
        whole = centered_gradient(u)
        for _ in range(40):
            sls = []
            for n in grid.node_counts:
                lo = int(rng.integers(0, n))
                sls.append(slice(lo, int(rng.integers(lo + 1, n + 1))))
            got = _gradient_at(u, tuple(sls))
            want = whole[(slice(None), slice(None), *sls)]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSolve:
    def test_recovers_known_solution(self, sine_field, pgrid):
        op = assemble(sine_field, pgrid, kappa=1.0)
        x = pgrid.axis_nodes(0)
        w = GridFunction(pgrid, (np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))[None])
        u = solve(op, op.apply(w), tol=1e-12)
        assert np.max(np.abs(u.values - w.values)) < 1e-10

    def test_manufactured_symbol_solution(self, unit_field, pgrid):
        op = assemble(unit_field, pgrid, kappa=1.0)
        x = pgrid.axis_nodes(0)
        rhs = GridFunction(pgrid, ((1.0 + (2 * np.pi) ** 2) * np.cos(2 * np.pi * x))[None])
        u = solve(op, rhs, tol=1e-12)
        err = np.max(np.abs(u.values[0] - np.cos(2 * np.pi * x)))
        assert err < 2.0 * (2 * np.pi) ** 2 * pgrid.h[0] ** 2

    def test_zero_rhs(self, sine_field, pgrid):
        op = assemble(sine_field, pgrid, kappa=0.3)
        u = solve(op, GridFunction(pgrid, np.zeros(pgrid.node_counts)), tol=1e-10)
        assert np.all(u.values == 0.0)
        assert u.solve_info.iterations == 0

    def test_non_converged_raises(self, sine_field, pgrid):
        op = assemble(sine_field, pgrid, kappa=1e-6)
        rng = np.random.default_rng(0)
        rhs = GridFunction(pgrid, rng.standard_normal((1, 256)))
        with pytest.raises(NonConverged) as exc:
            solve(op, rhs, tol=1e-14, max_iters=2)
        assert exc.value.residual > 0

    @pytest.mark.parametrize("case, method, max_iterations", [
        ("lu_1d", "cg", 1),
        ("mean_projection_1d", "cg", 30),
        ("laminate_2d", "cg", 30),
        ("cross_term_2d", "cg", 30),
        ("mean_projection_2d", "cg", 30),
        ("nonsymmetric_2d", "bicgstab", 30),
        ("system_2d", "cg", 30),
    ])
    def test_agrees_with_direct_solve(self, case, method, max_iterations):
        # ||u - u*|| <= ||A^{-1}|| ||A u - b|| <= tol ||b|| / sigma_min, with
        # sigma_min the least singular value on the solver's subspace (the
        # mean-zero functions where kappa = 0 on the periodic cell)
        op, rhs = _solver_case(case)
        tol = 1e-10
        u = solve(op, rhs, tol=tol)
        assert u.solve_info.method == method
        assert 1 <= u.solve_info.iterations <= max_iterations
        unknowns = (slice(None),) + op.grid.unknowns
        cols = np.arange(op.matrix.shape[1]).reshape(rhs.values.shape)[unknowns].ravel()
        mat = op.matrix[:, cols]
        b = rhs.values[unknowns].ravel()
        got = u.values[unknowns].ravel()
        sigma = np.linalg.svd(mat.toarray(), compute_uv=False)
        if op.singular:
            def centered(v):
                v = v.reshape(op.m, -1)
                return (v - v.mean(axis=1, keepdims=True)).ravel()

            b = centered(b)
            keep = np.ones(mat.shape[0], dtype=bool)
            keep[::op.grid.node_total] = False      # pin the first node of each component
            want = np.zeros_like(got)
            want[keep] = spla.spsolve(mat[keep][:, keep].tocsc(), b[keep])
            want = centered(want)
            sigma_min = np.sort(sigma)[op.m]
        else:
            want = spla.spsolve(mat.tocsc(), b)
            sigma_min = sigma.min()
        bound = tol * np.linalg.norm(b) / sigma_min + 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= bound

    def test_preconditioner_built_once_per_operator(self, monkeypatch):
        # the d * m = 4 corrector solves share one operator and its preconditioner
        built = []
        inner = operators._fast_poisson

        def counting(op):
            built.append(op)
            return inner(op)

        monkeypatch.setattr(operators, "_fast_poisson", counting)
        cset = C.solve_corrector(cross_term_system(), 4.0, h=1 / 16, tol=1e-9)
        assert len(cset.iterations) == 4
        assert len(built) == 1

    @pytest.mark.parametrize("case", ["laminate_2d", "system_2d", "mean_projection_2d",
                                      "mean_projection_1d", "dirichlet_31x48",
                                      "periodic_31x48", "system_dirichlet_31x48",
                                      "dirichlet_3d", "periodic_3d"])
    def test_fast_poisson_in_place_keeps_residual_and_bits(self, case):
        # DST-I route at m = 1 and 2, rfftn route in 2D and on the singular 1D
        # cell, odd and unequal sides, d = 3 (axis order)
        op, rhs = _solver_case(case)
        r = rhs.values[(slice(None),) + op.grid.unknowns].ravel()
        before = r.copy()
        precondition = operators._fast_poisson(op)
        want = fast_poisson_out_of_place(op)(before)
        # the second call reuses the transform buffers; the first result stays
        results = [precondition(r), precondition(r)]
        assert r.tobytes() == before.tobytes()
        assert [got.tobytes() for got in results] == [want.tobytes()] * 2
        assert not np.shares_memory(*results)
        # the write-into form: the same bytes, in the caller's buffer
        out = np.full_like(r, np.nan)
        got = precondition(r, out)
        assert np.shares_memory(got, out)
        assert out.tobytes() == want.tobytes()
        assert r.tobytes() == before.tobytes()

    def test_preconditioner_makes_no_probe_transform(self, monkeypatch):
        # building the preconditioner transforms nothing; only a Krylov step does
        calls = []
        rfft = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        op, rhs = _solver_case("laminate_2d")
        monkeypatch.setattr(np.fft, "rfft", counting)
        assert callable(op.preconditioner)
        assert calls == []
        op.preconditioner(rhs.values[(slice(None),) + op.grid.unknowns].ravel())
        assert len(calls) == 4      # two DST-I passes forward, two back

    def test_matvec_into_writes_the_bytes_of_matvec(self):
        # the Krylov loop's q buffer: Dirichlet blocks and periodic wrapping rows
        for case in ("system_dirichlet_31x48", "cross_term_periodic_m2"):
            op, rhs = _solver_case(case)
            want = op.matvec(rhs.values)
            out = np.full_like(want, np.nan)
            got = op._matvec_into(rhs.values, out)
            assert np.shares_memory(got, out)
            assert out.tobytes() == want.tobytes()

    def test_cg_working_set_is_bounded(self):
        # 255^2 unknowns of the rate ladder's eps = 1/8 rung: b, x, r, p and
        # the z and q buffers, the full-grid iterate, the preconditioner's two
        # pass buffers (about 2 vectors each) and inverse symbol, and the
        # matvec's block buffers come to about 13.3 vectors; a fresh z, q or
        # alpha product per iteration, or a spectrum array, goes past 14
        import tracemalloc
        grid = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [256, 256], DIRICHLET)
        op = assemble(F.laminate_field(), grid, 0.0)
        rhs = GridFunction(grid, np.ones((1,) + grid.node_counts))
        vector = 8 * 255 * 255
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u = solve(op, rhs, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert u.solve_info.method == "cg"
        assert peak <= 14 * vector

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("case", SOLVER_CASES)
    def test_krylov_loops_match_scipy_bytes(self, case, tol):
        # at most 8192 unknowns, where every _dot is np.dot itself
        op, rhs = _solver_case(case)
        assert op.matrix.shape[0] <= 8192
        u = solve(op, rhs, tol=tol)
        values, iterations, residual, restarts = scipy_krylov_solve(op, rhs, tol)
        assert u.values.tobytes() == values.tobytes()
        info = u.solve_info
        assert (info.iterations, info.residual, info.restarts) == (iterations, residual, restarts)

    @pytest.mark.parametrize("case", [c for c in SOLVER_CASES if c != "lu_1d"])
    def test_exhausted_budget_matches_scipy(self, case):
        # three iterations, then a restart with no budget left
        op, rhs = _solver_case(case)
        _, iterations, residual, restarts = scipy_krylov_solve(op, rhs, 1e-14, max_iters=3)
        with pytest.raises(NonConverged) as exc:
            solve(op, rhs, tol=1e-14, max_iters=3)
        assert (exc.value.iterations, exc.value.residual) == (iterations, residual)
        assert (iterations, restarts) == (3, 1)

    def test_deterministic_bitwise(self, sine_field, pgrid):
        op = assemble(sine_field, pgrid, kappa=0.5)
        rng = np.random.default_rng(2)
        rhs = GridFunction(pgrid, rng.standard_normal((1, 256)))
        u1 = solve(op, rhs, tol=1e-11)
        u2 = solve(op, rhs, tol=1e-11)
        assert np.array_equal(u1.values, u2.values)

    def test_mms_convergence_order_1d(self, sine_field):
        # -(a u')' + 0.5 u = f with u* = sin(2 pi x) x (1 - x), zero trace
        import sympy as sp
        xs = sp.symbols("x")
        a_e = 2 + sp.sin(2 * sp.pi * xs)
        u_e = sp.sin(2 * sp.pi * xs) * xs * (1 - xs)
        f_e = -sp.diff(a_e * sp.diff(u_e, xs), xs) + 0.5 * u_e
        f_fn = sp.lambdify(xs, f_e, "numpy")
        u_fn = sp.lambdify(xs, u_e, "numpy")
        errs = []
        for n in (64, 128, 256):
            grid = BoxGrid(Box([0.0], [1.0]), [n], DIRICHLET)
            op = assemble(sine_field, grid, kappa=0.5)
            x = grid.axis_nodes(0)
            u = solve(op, GridFunction(grid, f_fn(x)[None]), tol=1e-12)
            errs.append(norms(GridFunction(grid, u.values - u_fn(x)[None]), "L2"))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5


class TestFixedOrderDot:
    @pytest.mark.parametrize("n", [0, 1, 1000, 8191, 8192])
    def test_one_chunk_is_np_dot(self, n):
        a, b = np.random.default_rng(n).standard_normal((2, n))
        assert _dot(a, b).tobytes() == np.dot(a, b).tobytes()

    @pytest.mark.parametrize("n", [8193, 10001, 3 * 8192, 50000])
    def test_longer_vectors_sum_their_chunks_left_to_right(self, n):
        a, b = np.random.default_rng(n).standard_normal((2, n))
        chunks = [np.dot(a[lo:lo + 8192], b[lo:lo + 8192]) for lo in range(0, n, 8192)]
        want = chunks[0]
        for c in chunks[1:]:
            want = want + c
        assert _dot(a, b).tobytes() == want.tobytes()


def _system_2d_field():
    base = np.zeros((2, 2, 2, 2))
    wob = np.zeros((2, 2, 2, 2))
    for i in range(2):
        base[i, i] = [[2.0, 0.3], [0.3, 1.0]]
        wob[i, i] = [[0.5, 0.1], [0.1, 0.3]]
    return F.TrigPolynomialField(2, 2, [(np.zeros(2), base, np.zeros_like(base)),
                                        (np.array([1.0, 2.0]), np.zeros_like(base), wob)])


def _solver_case(name):
    """(operator, right-hand side) for one branch of the solver's preconditioner,
    or for a transform shape of it (``*_31x48``, ``*_3d``) or a periodic m = 2
    cross-term stencil (``cross_term_periodic_m2``)."""
    zero = np.zeros((2, 2))
    if name.endswith("_3d"):
        f = ORACLE_FIELDS["trig_d3_m1"]()
        bc = DIRICHLET if name.startswith("dirichlet") else PERIODIC
        grid = BoxGrid(Box(np.zeros(3), np.ones(3)), [6, 7, 8] if bc == DIRICHLET else [5, 6, 7],
                       bc)
        kappa = 0.5
    elif name.endswith("_31x48"):
        f = _system_2d_field() if name.startswith("system") else F.laminate_field()
        bc = PERIODIC if name.startswith("periodic") else DIRICHLET
        grid = BoxGrid(Box([0.0, 0.0], [2.0, 3.0]), [31, 48], bc)
        kappa = 1.0 / 16.0
    elif name == "cross_term_periodic_m2":
        f = cross_term_system()
        grid = BoxGrid(Box([0.0, 0.0], [2.0, 2.0]), [16, 16], PERIODIC)
        kappa = 1.0 / 16.0
    elif name.endswith("_1d"):
        f = F.sine_scalar_field()
        bc, kappa = (PERIODIC, 0.0) if name == "mean_projection_1d" else (DIRICHLET, 0.5)
        grid = BoxGrid(Box([0.0], [1.0]), [64], bc)
    else:
        if name == "cross_term_2d":
            f = F.TrigPolynomialField(2, 1, [
                (np.zeros(2), np.array([[2.0, 0.8], [0.8, 1.0]]), zero),
                (np.array([1.0, 1.0]), np.array([[0.4, 0.3], [0.3, 0.2]]), zero)])
        elif name == "nonsymmetric_2d":
            f = F.TrigPolynomialField(2, 1, [
                (np.zeros(2), np.array([[2.0, 0.5], [-0.5, 1.5]]), zero),
                (np.array([1.0, 0.0]), np.array([[0.5, 0.3], [0.0, 0.2]]), zero)])
        elif name == "system_2d":
            f = _system_2d_field()
        else:
            f = F.laminate_field()
        bc, kappa = ((PERIODIC, 0.0) if name == "mean_projection_2d"
                     else (DIRICHLET, 1.0 / 16.0))
        grid = BoxGrid(Box([0.0, 0.0], [2.0, 2.0]), [16, 16], bc)
    F.certify_ellipticity(f, rng_seed=0)
    op = assemble(f, grid, kappa)
    rng = np.random.default_rng(5)
    rhs = GridFunction(grid, rng.standard_normal((f.m,) + grid.node_counts))
    return op, rhs
