import numpy as np
import pytest
import scipy.sparse.linalg as spla

from aphomog import correctors as C
from aphomog import fields as F
from aphomog import operators
from aphomog.errors import NonConverged
from aphomog.grids import (Box, BoxGrid, DIRICHLET, GridFunction, PERIODIC,
                           face_differences, grid_function_to_csv,
                           holder_seminorm, load_grid_function, norms,
                           save_grid_function, window_mean)
from aphomog.operators import assemble, divergence_rhs, face_diff_matrix, solve
from oracle_tools import cross_term_system


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
        assert norms(u, "Linf") == pytest.approx(3.0)
        assert holder_seminorm(u, 0.5) == pytest.approx(0.0)

    def test_mean_of_sine_over_period(self, pgrid):
        x = pgrid.axis_nodes(0)
        u = GridFunction(pgrid, np.sin(2 * np.pi * x)[None])
        assert abs(window_mean(u)[0]) < 1e-12

    def test_window_mean_constant(self):
        g = BoxGrid(Box([0.0], [4.0]), [64], DIRICHLET)
        u = GridFunction(g, np.full((1, 65), 2.5))
        assert window_mean(u, Box([1.0], [2.0]))[0] == pytest.approx(2.5)

    def test_interpolation_linear_exact(self):
        g = BoxGrid(Box([0.0], [1.0]), [32], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, (2 * x + 1)[None])
        q = np.array([[0.123], [0.77]])
        assert np.allclose(u.interpolate(q)[0], 2 * q[:, 0] + 1)


class TestHolderSeminorm:
    def test_linear_function_sigma_half(self):
        g = BoxGrid(Box([0.0], [1.0]), [128], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, x[None])
        # sup |x-y| / |x-y|^0.5 = 1 at the full-interval pair
        assert holder_seminorm(u, 0.5, 512, 0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_sigma_unit_box(self):
        # all node pairs in the unit box have |x-y| <= 1, so t^sigma is
        # nonincreasing in sigma and the seminorm is nondecreasing
        g = BoxGrid(Box([0.0], [1.0]), [64], DIRICHLET)
        x = g.axis_nodes(0)
        u = GridFunction(g, (0.5 * np.sin(2 * np.pi * x))[None])  # oscillation <= 1
        sigmas = [0.2, 0.4, 0.6, 0.8]
        vals = [holder_seminorm(u, s, 2048, 0) for s in sigmas]
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

    def test_csv(self, tmp_path):
        g = BoxGrid(Box([0.0], [1.0]), [4], DIRICHLET)
        u = GridFunction(g, np.arange(5.0)[None])
        path = tmp_path / "u.csv"
        grid_function_to_csv(u, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (5, 2)
        assert np.allclose(table[:, 1], np.arange(5.0))


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
        u = solve(op, GridFunction.zeros(pgrid), tol=1e-10)
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
        idx = op.interior_indices
        mat = op.matrix_interior
        b = rhs.values.reshape(-1)[idx]
        got = u.values.reshape(-1)[idx]
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


def _solver_case(name):
    """(operator, right-hand side) for one branch of the solver's preconditioner."""
    zero = np.zeros((2, 2))
    if name.endswith("_1d"):
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
            base = np.zeros((2, 2, 2, 2))
            wob = np.zeros((2, 2, 2, 2))
            for i in range(2):
                base[i, i] = [[2.0, 0.3], [0.3, 1.0]]
                wob[i, i] = [[0.5, 0.1], [0.1, 0.3]]
            f = F.TrigPolynomialField(2, 2, [(np.zeros(2), base, np.zeros_like(base)),
                                             (np.array([1.0, 2.0]), np.zeros_like(base), wob)])
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
