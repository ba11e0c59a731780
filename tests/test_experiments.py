import numpy as np
import pytest

from aphomog import correctors as C
from aphomog import experiments as E
from aphomog import fields as F
from aphomog.grids import _POINT_BLOCK, Box, BoxGrid, DIRICHLET, GridFunction, norms
from oracle_tools import cross_term_system, dirichlet_1d_quadrature, expansion_term_per_corrector


def test_problem_validation(sine_field):
    for eps in (0, -1):
        with pytest.raises(ValueError, match="eps > 0"):
            E.eps_operator(sine_field, eps)


def _effective_operator(tensor, cells):
    return E.unit_box_operator(F.ConstantField(tensor), cells)


class TestOracleGate:
    """Every 1D eps-solve must match the quadrature closed form to O(h^2)."""

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_eps_solve_matches_quadrature(self, sine_field, eps):
        u = E.solve_problem(E.eps_operator(sine_field, eps), tol=1e-10)
        xs = u.grid.axis_nodes(0)
        oracle = dirichlet_1d_quadrature(sine_field, eps, xs)
        h = u.grid.h[0]
        assert np.max(np.abs(u.values[0] - oracle)) <= 20.0 * h ** 2

    def test_homogenized_parabola(self):
        u = E.solve_problem(_effective_operator(np.sqrt(3.0) * np.ones((1, 1, 1, 1)), 512),
                            tol=1e-10)
        x = u.grid.axis_nodes(0)
        assert np.max(np.abs(u.values[0] - x * (1 - x) / (2 * np.sqrt(3)))) < 1e-12


class TestConstantDegeneracy:
    def test_eps_equals_homogenized(self):
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        u_eps = E.solve_problem(E.eps_operator(f, 1 / 16))
        u0 = E.solve_problem(_effective_operator(2.0 * np.ones((1, 1, 1, 1)),
                                                 u_eps.grid.cells[0]))
        # one matrix and one solver: the two solutions are the same bytes
        assert u_eps.values.tobytes() == u0.values.tobytes()
        cset = C.solve_corrector(f, 16.0, h=1 / 64)
        l2, l2c, h1c = E.two_scale_error(u_eps, u0, cset, 1 / 16)
        assert l2 < 1e-10 and l2c < 1e-10 and h1c < 1e-8


@pytest.mark.parametrize("bc", ["periodic", "truncated"])
def test_expansion_term_is_the_per_corrector_loop(bc):
    # d = 2, m = 2: four correctors of two components each, interpolated in one call
    eps = 0.25
    f = cross_term_system()
    cset = C.solve_corrector(f, 1 / eps, h=1 / 16, buffer=0.5, bc=bc)
    grid = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [130, 130], DIRICHLET)
    assert grid.node_total > _POINT_BLOCK and grid.node_total % _POINT_BLOCK
    u0 = GridFunction(grid, np.random.default_rng(7).standard_normal((2,) + grid.node_counts))
    got = E.expansion_term(u0, cset, eps)
    assert got.values.tobytes() == expansion_term_per_corrector(u0, cset, eps).tobytes()


class TestTwoScale:
    def test_corrected_beats_plain_h1(self, sine_field):
        eps = 1 / 32
        cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
        from aphomog.correctors import homogenized_matrix
        ahat = homogenized_matrix(cset)
        u_eps = E.solve_problem(E.eps_operator(sine_field, eps), tol=1e-10)
        u0 = E.solve_problem(_effective_operator(ahat.tensor, u_eps.grid.cells[0]), tol=1e-10)
        _, _, h1_corr = E.two_scale_error(u_eps, u0, cset, eps)
        plain_h1 = norms(GridFunction(u_eps.grid, u_eps.values - u0.values), "H1")
        assert h1_corr < plain_h1

    def test_halving_eps_halves_plain_l2(self, sine_field):
        errs = {}
        for eps in (1 / 16, 1 / 32):
            cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
            ahat = C.homogenized_matrix(cset)
            u_eps = E.solve_problem(E.eps_operator(sine_field, eps), tol=1e-10)
            u0 = E.solve_problem(_effective_operator(ahat.tensor, u_eps.grid.cells[0]),
                                 tol=1e-10)
            errs[eps], _, _ = E.two_scale_error(u_eps, u0, cset, eps)
        assert 1.7 <= errs[1 / 16] / errs[1 / 32] <= 2.3

    def test_T_mismatch_rejected(self, sine_field):
        eps = 1 / 16
        cset = C.solve_corrector(sine_field, 24.0, h=1 / 128)
        u = E.solve_problem(E.eps_operator(sine_field, eps), tol=1e-9)
        with pytest.raises(ValueError, match="T = 1/eps"):
            E.two_scale_error(u, u, cset, eps)


class TestBoundaryCorrector:
    def test_constant_field_zero(self):
        f = F.ConstantField(1.5, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        cset = C.solve_corrector(f, 16.0, h=1 / 64)
        u0 = E.solve_problem(_effective_operator(1.5 * np.ones((1, 1, 1, 1)), 512), tol=1e-11)
        v, rep = E.boundary_corrector(E.eps_operator(f, 1 / 16), cset, u0, 1 / 16)
        assert rep["H1"] < 1e-9

    def test_periodic_stability_and_decay(self, sine_field):
        h1s = []
        for eps in (1 / 8, 1 / 32):
            cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
            ahat = C.homogenized_matrix(cset)
            op = E.eps_operator(sine_field, eps)
            u_eps = E.solve_problem(op, tol=1e-10)
            u0 = E.solve_problem(_effective_operator(ahat.tensor, u_eps.grid.cells[0]),
                                 tol=1e-10)
            v, rep = E.boundary_corrector(op, cset, u0, eps)
            assert rep["H1"] <= 10.0 * rep["H1_trace_term"]
            h1s.append(rep["H1"])
        assert h1s[1] < h1s[0]

    def test_operator_grid_must_match_u0(self, sine_field):
        cset = C.solve_corrector(sine_field, 8.0, h=1 / 64)
        u0 = E.solve_problem(_effective_operator(C.homogenized_matrix(cset).tensor, 512))
        with pytest.raises(ValueError, match="grid"):
            E.boundary_corrector(E.eps_operator(sine_field, 1 / 8), cset, u0, 1 / 8)


def test_rate_ladder_assembles_the_eps_operator_once_per_rung(sine_field, monkeypatch):
    """The eps operator serves both the u_eps solve and the boundary corrector;
    rows and v_eps equal those of the solves on freshly assembled operators."""
    ladder = [1 / 64, 1 / 32, 1 / 16, 1 / 8]      # the order of exp["rows"]
    assembled, corrections = [], []
    assemble, boundary_corrector = E.assemble, E.boundary_corrector

    def counting_assemble(*args, **kwargs):
        assembled.append(args[1])
        return assemble(*args, **kwargs)

    def recording_corrector(*args, **kwargs):
        corrections.append(boundary_corrector(*args, **kwargs))
        return corrections[-1]

    monkeypatch.setattr(E, "assemble", counting_assemble)
    monkeypatch.setattr(E, "boundary_corrector", recording_corrector)
    exp = E.rate_experiment(sine_field, ladder, include_boundary_corrector=True)
    monkeypatch.undo()
    assert len(assembled) == 2 * len(ladder)     # the eps and the effective operator

    for eps, row, (v_eps, _) in zip(ladder, exp["rows"], corrections):
        cset = C.solve_corrector(sine_field, 1.0 / eps, tol=1e-9)
        ahat = C.homogenized_matrix(cset)
        op = E.eps_operator(sine_field, eps)
        u_eps = E.solve_problem(op, tol=1e-9)
        u0 = E.solve_problem(_effective_operator(ahat.tensor, u_eps.grid.cells[0]), tol=1e-9)
        v_ref, _ = boundary_corrector(op, cset, u0, eps, tol=1e-9)
        assert v_eps.values.tobytes() == v_ref.values.tobytes()
        l2_plain, l2_corr, h1_corr = E.two_scale_error(u_eps, u0, cset, eps, v_ref)
        h1_plain = norms(GridFunction(u_eps.grid, u_eps.values - u0.values), "H1")
        assert row == {"eps": eps, "cells": int(u_eps.grid.cells[0]),
                       "ahat_entry": float(ahat.tensor.ravel()[0]),
                       "L2_plain": l2_plain, "L2_corrected": l2_corr,
                       "H1_plain": h1_plain, "H1_corrected": h1_corr,
                       "iterations": u_eps.solve_info.iterations}


def _rung_u0_operator(monkeypatch, field, eps, ahat):
    """(u0's operator, u0) of ``_ladder_rung`` at ``eps`` on ``ahat``."""
    operators, unit_box_operator = [], E.unit_box_operator

    def recording(coeff, cells):
        operators.append(unit_box_operator(coeff, cells))
        return operators[-1]

    with monkeypatch.context() as patch:
        patch.setattr(E, "unit_box_operator", recording)
        _, u0, _ = E._ladder_rung(field, eps, ahat, 1e-9, None)
    return operators[0], u0


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.125])
def test_u0_operator_drops_a_noise_cross_block(laminate, monkeypatch, eps):
    """The laminate's Ahat_21 is rounding noise (about 1e-33): u0's operator
    is the cross-free 5-step stencil, and u0 keeps the bytes of the solve
    with the raw Ahat on its 9-step stencil."""
    ahat = C.homogenized_matrix(C.solve_corrector(laminate, 1.0 / eps, h=1 / 64, tol=1e-9))
    cross = ahat.tensor[~np.eye(2, dtype=bool)]
    assert np.any(cross != 0.0) and np.all(np.abs(cross) < 1e-30)
    op, u0 = _rung_u0_operator(monkeypatch, laminate, eps, ahat)
    assert len(op.coef) == 5
    raw = _effective_operator(ahat.tensor, E._eps_cells(eps))
    assert len(raw.coef) == 9
    assert u0.values.tobytes() == E.solve_problem(raw, 1e-9).values.tobytes()


def test_u0_operator_keeps_a_genuine_cross_block(laminate, monkeypatch):
    tensor = np.diag([1.7, 2.0]).reshape(2, 2, 1, 1)
    tensor[0, 1] = tensor[1, 0] = 1e-3
    ahat = C.HomogenizedMatrix(tensor, ("reference",), True)
    op, _ = _rung_u0_operator(monkeypatch, laminate, 1.0, ahat)
    assert len(op.coef) == 9


class TestRateExperiment:
    def test_periodic_slope(self, sine_field):
        exp = E.rate_experiment(sine_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert not exp["floor_limited"]
        assert exp["fitted"]["L2_plain"]["slope"] >= 0.9
        l2 = [r["L2_plain"] for r in exp["rows"]]      # ascending eps
        assert all(a <= b + 1e-15 for a, b in zip(l2, l2[1:]))

    def test_constant_floor_limited(self):
        f = F.ConstantField(2.0, d=1, m=1)
        F.certify_ellipticity(f, sample_count=16)
        exp = E.rate_experiment(f, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert exp["floor_limited"]
        assert exp["fitted"] == {}

    def test_ladder_length_validated(self, sine_field):
        with pytest.raises(ValueError, match="ladder"):
            E.rate_experiment(sine_field, [1 / 8, 1 / 16])

    @pytest.mark.parametrize("eps_list, message", [
        ([0.5, 0.25, 0.125, -0.0625], "got eps = -0.0625"),
        ([float("nan"), 0.5, 0.25, 0.125], "got eps = nan"),
        ([float("inf"), 0.5, 0.25, 0.125], "got eps = inf"),
        ([0.5, 0.25, 0.125, 0.0], "got eps = 0.0"),
    ], ids=["negative", "nan", "inf", "zero"])
    def test_a_bad_eps_is_refused_before_any_solve(self, monkeypatch, sine_field,
                                                   eps_list, message):
        monkeypatch.setattr(E, "solve_corrector", lambda *a, **k: pytest.fail("a corrector was solved"))
        with pytest.raises(ValueError, match=message):
            E.checked_eps(eps_list)
        with pytest.raises(ValueError, match=message):
            E.rate_experiment(sine_field, eps_list)

    def test_grid_refinement_stability(self, sine_field):
        eps = 1 / 32
        cset = C.solve_corrector(sine_field, 1 / eps, h=1 / 256)
        ahat = C.homogenized_matrix(cset)
        errs = []
        for cells in (32 * 32, 64 * 32):
            u_eps = E.solve_problem(
                E.unit_box_operator(F.ScaledArgumentField(sine_field, 1 / eps), cells), tol=1e-10)
            u0 = E.solve_problem(_effective_operator(ahat.tensor, cells), tol=1e-10)
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
        for r in exp["rows"]:
            assert np.isfinite(r["L2_bound_shape"]) and r["L2_bound_shape"] > 0
            assert "bound_tail_flagged" in r

    def test_quasi_periodic_positive_rates(self, golden_field):
        exp = E.rate_experiment(golden_field, [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                                corrector_h=1 / 64)
        assert exp["fitted"]["L2_plain"]["slope"] > 0
        assert exp["fitted"]["H1_corrected"]["slope"] > 0

    @pytest.mark.parametrize("which", ["periodic", "quasi_periodic"])
    def test_expansion_improves_h1(self, sine_field, golden_field, which):
        field = sine_field if which == "periodic" else golden_field
        kwargs = {} if which == "periodic" else {"corrector_h": 1 / 64}
        exp = E.rate_experiment(field, [1 / 16, 1 / 32, 1 / 64, 1 / 128], **kwargs)
        for row in exp["rows"]:
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

    @pytest.mark.parametrize("eps", [16.0, 32 / 3, 11.0])
    def test_an_eps_whose_grid_has_fewer_than_4_cells_is_refused(self, eps):
        # the eps grid has ceil(32/eps) cells per axis, fewer than 4 from eps = 32/3 on
        with pytest.raises(ValueError, match="4 cells"):
            E.checked_holder_eps([0.125, 0.0625, eps])

    @pytest.mark.parametrize("eps_list, message", [
        ([], "the eps list is empty"), ([0.0], "got eps = 0.0"), ([-1.0], "got eps = -1.0"),
        ([0.5, float("nan")], "got eps = nan"), ([0.5, float("inf")], "got eps = inf"),
    ], ids=["empty", "zero", "negative", "nan", "inf"])
    def test_a_bad_eps_list_is_refused_before_any_solve(self, monkeypatch, sine_field,
                                                        eps_list, message):
        monkeypatch.setattr(E, "solve_corrector", lambda *a, **k: pytest.fail("a corrector was solved"))
        with pytest.raises(ValueError, match=message):
            E.checked_holder_eps(eps_list)
        with pytest.raises(ValueError, match=message):
            E.holder_uniformity(sine_field, eps_list)

    def test_an_eps_just_below_32_over_3_passes(self):
        assert E.checked_holder_eps([10.6, 0.5]) == [0.5, 10.6]
