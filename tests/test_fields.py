import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aphomog import fields as F
from aphomog.correctors import solve_corrector
from aphomog.errors import EllipticityViolation, ResonantFrequencies
from aphomog.grids import _POINT_BLOCK, Box, BoxGrid, DIRICHLET, PERIODIC, _mesh_points
from aphomog.operators import assemble
from oracle_tools import (ORACLE_FIELDS, count_evaluate, cross_term_system, direct_evaluate,
                          multilinear_per_corner, rule_error_bound, trig_sum_by_phase)


def test_constant_identity_everywhere():
    f = F.identity_field(2, 1)
    pts = np.array([[0.0, 0.0], [3.7, -1.2]])
    vals = f.evaluate(pts)
    assert np.allclose(vals[:, :, :, 0, 0], np.eye(2))


def test_trig_example_value(sine_field):
    # 2 + sin(2 pi y) at y = 0.25
    assert sine_field.evaluate(np.array([0.25]))[0, 0, 0, 0] == pytest.approx(3.0)


def test_quasi_periodic_example_value(golden_field):
    assert golden_field.evaluate(np.array([0.0]))[0, 0, 0, 0] == pytest.approx(3.0)


def test_nonfinite_point_rejected(sine_field):
    with pytest.raises(ValueError):
        sine_field.evaluate(np.array([np.nan]))


def test_zero_frequency_terms_add_their_tensors_exactly():
    # cos 0 = 1 and sin 0 = 0 exactly, so a zero-frequency cos term adds C and
    # a zero-frequency sin term adds nothing, at negative points as well
    rng = np.random.default_rng(7)
    c0, s0, c1 = (rng.normal(size=(2, 2, 2, 2)) for _ in range(3))
    zero = np.zeros((2, 2, 2, 2))
    f = F.TrigPolynomialField(2, 2, [(np.zeros(2), c0, zero), (np.zeros(2), c1, s0),
                                     (np.zeros(2), zero, s0)])
    pts = np.concatenate([rng.uniform(-40.0, 40.0, size=(200, 2)),
                          [[0.0, 0.0], [-0.0, -0.0], [-3.5, 0.0], [-1e-300, -7.0]]])
    want = np.broadcast_to(np.zeros((2, 2, 2, 2)) + c0 + c1, (len(pts), 2, 2, 2, 2))
    assert f.evaluate(pts).tobytes() == np.ascontiguousarray(want).tobytes()
    const = F.ConstantField(c0)
    assert const.evaluate(pts).tobytes() == np.ascontiguousarray(
        np.broadcast_to(c0, want.shape)).tobytes()


def test_quasi_periodic_integer_torus_shift():
    # rational frequencies so the torus shift is an exact integer vector
    f = F.QuasiPeriodicField([[0.5, 0.25]], 1, [
        (np.zeros(2), 2.0, 0.0),
        (np.array([1.0, 0.0]), 0.3, 0.1),
        (np.array([0.0, 2.0]), 0.0, 0.2),
    ])
    xs = np.linspace(-3, 3, 41)[:, None]
    a0 = f.evaluate(xs)
    a4 = f.evaluate(xs + 4.0)      # j(4) = (2, 1), an integer shift
    assert np.max(np.abs(a0 - a4)) < 1e-13


# axes with 3 and 1 frequencies, so d = 2 and M = 4
UNEVEN_LAYOUT = ([1.0, F.GOLDEN_RATIO, -np.sqrt(3.0)], [np.sqrt(2.0)])


def _uneven_quasi_field():
    rng = np.random.default_rng(4)
    terms = [(np.zeros(4), 3.0, 0.0)]
    terms += [(rng.integers(-3, 4, size=4), *rng.uniform(-0.2, 0.2, (2, 2, 2)))
              for _ in range(3)]
    return F.QuasiPeriodicField(UNEVEN_LAYOUT, 1, terms)


def test_quasi_periodic_form_reads_its_layout():
    # lam's column i holds axis i's frequencies in the rows of its torus axes
    f = _uneven_quasi_field()
    assert [a.tolist() for a in f.layout] == [list(a) for a in UNEVEN_LAYOUT]
    lam = f.torus_form().lam
    assert lam.shape == (4, 2) and not np.any(f.torus_form().phase)
    assert lam[:3, 0].tolist() == list(UNEVEN_LAYOUT[0]) and not np.any(lam[3:, 0])
    assert lam[3:, 1].tolist() == list(UNEVEN_LAYOUT[1]) and not np.any(lam[:3, 1])


class TestEllipticity:
    def test_constant_two(self):
        f = F.ConstantField(2.0, d=1, m=1)
        cert = F.check_ellipticity(f, 64, 0)
        assert cert.mu == pytest.approx(2.0)
        assert cert.mu_inv_check == pytest.approx(2.0)

    def test_sine_extrema(self, sine_field):
        cert = sine_field.ellipticity
        assert abs(cert.mu - 1.0) < 1e-3
        assert abs(cert.mu_inv_check - 3.0) < 1e-3

    def test_sign_changing_violation(self):
        f = F.TrigPolynomialField(1, 1, [(np.ones(1), 0.0, 1.0)])  # sin(2 pi y)
        with pytest.raises(EllipticityViolation) as exc:
            F.check_ellipticity(f, 512, 0)
        assert exc.value.point.shape == (1,)
        assert exc.value.quotient <= 0

    def test_certificate_bounds_fresh_samples(self, sine_field):
        cert = sine_field.ellipticity
        fresh = F.check_ellipticity(sine_field, 1000, rng_seed=12345)
        assert fresh.mu >= cert.mu - 1e-3
        assert fresh.mu_inv_check <= cert.mu_inv_check + 1e-3

    def test_assemble_certifies_a_fresh_field(self):
        f = F.sine_scalar_field()     # fresh, uncertified
        certified = F.sine_scalar_field()
        F.certify_ellipticity(certified)
        grid = BoxGrid(Box([0.0], [1.0]), [16], PERIODIC)
        got, want = assemble(f, grid, 1.0).matrix, assemble(certified, grid, 1.0).matrix
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        assert f.ellipticity == F.check_ellipticity(f)

    def test_non_elliptic_fresh_field_refused_on_first_read(self):
        grid = BoxGrid(Box([0.0], [1.0]), [16], PERIODIC)
        with pytest.raises(EllipticityViolation):
            assemble(F.TrigPolynomialField(1, 1, [(np.ones(1), 0.0, 1.0)]), grid, 1.0)
        with pytest.raises(EllipticityViolation):
            solve_corrector(F.TrigPolynomialField(1, 1, [(np.ones(1), 0.0, 1.0)]), 4.0,
                            h=1 / 16)

    def test_corrector_certifies_before_sampling(self):
        f = F.TrigPolynomialField(1, 1, [(np.ones(1), 0.0, 1.0)])
        calls = count_evaluate(f)
        with pytest.raises(EllipticityViolation):
            solve_corrector(f, 4.0, h=1 / 16)
        assert calls == [4096]            # the certificate's sample, nothing else

    @pytest.mark.parametrize("wrap", [lambda f: F.ShiftedField(f, [0.37]),
                                      lambda f: F.ScaledArgumentField(f, 8.0)],
                             ids=["shifted", "scaled"])
    def test_wrapper_has_its_base_certificate(self, wrap):
        f = F.sine_scalar_field()
        wrapped = wrap(f)
        assert wrapped.ellipticity is f.ellipticity
        assert f.ellipticity == F.check_ellipticity(f)
        cert = F.certify_ellipticity(wrapped, 64, rng_seed=3)
        assert wrapped.ellipticity is cert
        assert cert == F.check_ellipticity(wrapped, 64, 3)
        assert f.ellipticity == F.check_ellipticity(f)

    def test_adjoint_certifies_to_its_base_certificate(self):
        base = cross_term_system()
        fresh = F.TrigPolynomialField(2, 2, base.terms)
        assert fresh.adjoint().ellipticity == F.check_ellipticity(fresh)
        assert fresh.adjoint().ellipticity == base.ellipticity

    def test_constant_field_certifies_from_one_point(self):
        f = F.ConstantField(np.array([[2.0, 0.3], [0.1, 1.5]]), d=2, m=1)
        assert f.ellipticity == F.check_ellipticity(f, 4096)


class TestAdjoint:
    def test_symmetric_field_fixed_point(self, sine_field):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(100, 1))
        assert np.allclose(sine_field.evaluate(pts),
                           sine_field.adjoint().evaluate(pts))

    def test_constant_transpose(self):
        f = F.ConstantField(np.array([[1.0, 0.3], [0.0, 1.0]]), d=2, m=1)
        a = f.adjoint().evaluate(np.zeros(2))[:, :, 0, 0]
        assert np.allclose(a, [[1.0, 0.0], [0.3, 1.0]])

    @given(st.integers(0, 2 ** 31 - 1))
    def test_involution_constant(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((2, 2, 1, 1))
        f = F.ConstantField(t)
        pts = rng.uniform(-3, 3, size=(5, 2))
        assert np.allclose(f.adjoint().adjoint().evaluate(pts), f.evaluate(pts))

    def test_involution_all_variants(self, sine_field, golden_field, laminate):
        rng = np.random.default_rng(1)
        for f in (sine_field, golden_field, laminate):
            pts = rng.uniform(-4, 4, size=(20, f.d))
            assert np.allclose(f.adjoint().adjoint().evaluate(pts),
                               f.evaluate(pts))


def _sampled_cross_term_system():
    f = cross_term_system()
    nodes = BoxGrid(Box([0.0, 0.0], [1.0, 1.0]), [4, 4], PERIODIC).node_points()
    return F.PeriodicSampledField([1.0, 1.0], f.evaluate(nodes).reshape(4, 4, 2, 2, 2, 2))


ADJOINT_CASES = {
    "constant": lambda: F.ConstantField(np.array([[2.0, 0.3], [0.1, 1.5]]), d=2, m=1),
    "trig_polynomial": cross_term_system,
    "periodic_sampled": _sampled_cross_term_system,
    "quasi_periodic": lambda: _quasi_2d(True),
    "shifted": lambda: F.ShiftedField(cross_term_system(), [0.3, -0.2]),
    "scaled": lambda: F.ScaledArgumentField(cross_term_system(), 4.0),
}


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_transposes_values_and_shares_the_certificate(name):
    f = ADJOINT_CASES[name]()
    pts = np.random.default_rng(3).uniform(-3, 3, size=(64, 2))
    adj = f.adjoint()
    assert np.array_equal(adj.evaluate(pts), F.adjoint_tensor(f.evaluate(pts)))
    assert not np.array_equal(adj.evaluate(pts), f.evaluate(pts))
    assert adj.adjoint() is f
    assert adj.ellipticity == f.ellipticity
    assert (adj.symmetric, adj.cross_free) == (f.symmetric, f.cross_free)


class TestDiophantine:
    def test_rational_pair_resonant(self):
        with pytest.raises(ResonantFrequencies) as exc:
            F.diophantine_scan([1.0, 2.0], 10)
        n = exc.value.witness
        assert abs(n @ np.array([1.0, 2.0])) == 0
        assert np.max(np.abs(n)) <= 2

    def test_golden_ratio_badly_approximable(self):
        c0, tau = F.diophantine_scan([1.0, F.GOLDEN_RATIO], 144)
        assert 0.7 <= tau <= 1.3
        assert c0 > 0

    def test_sqrt2_badly_approximable(self):
        c0, tau = F.diophantine_scan([1.0, np.sqrt(2.0)], 100)
        assert 0.65 <= tau <= 1.35

    @given(st.integers(1, 11), st.integers(2, 12))
    def test_rational_always_resonant(self, p, q):
        with pytest.raises(ResonantFrequencies):
            F.diophantine_scan([1.0, p / q], n_max=max(q, p, 2))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            F.diophantine_scan([1.0], 10)
        with pytest.raises(ValueError):
            F.diophantine_scan([1.0, 1.5], 1)


class TestModulusOfContinuity:
    def test_constant_is_zero(self):
        # M = 0 for a constant field, M = 1 for a trig field of one zero-frequency term
        assert F.modulus_of_continuity(F.ConstantField(2.0, d=1, m=1), 0.3) == 0.0
        zero_freq = F.TrigPolynomialField(1, 1, [(np.zeros(1), 2.0, 0.0)])
        assert F.modulus_of_continuity(zero_freq, 0.3) == 0.0

    def test_sine_half_period(self, sine_field):
        # B(t) = 2 + sin(2 pi t) with lam = I: the grid holds t = 1/4 and 3/4
        assert F.modulus_of_continuity(sine_field, 0.5, 8192) == 2.0

    def test_golden_value_kept(self, golden_field):
        # the value before the modulus read the field's torus form
        got = F.modulus_of_continuity(golden_field, 0.05, 8192)
        assert got.hex() == "0x1.3c6ef329613c4p-2"

    def test_wrappers_give_the_base_value(self, golden_field):
        want = F.modulus_of_continuity(golden_field, 0.05, 8192)
        for g in (F.ShiftedField(golden_field, [0.37]), F.ScaledArgumentField(golden_field, 8.0),
                  golden_field.adjoint()):
            assert F.modulus_of_continuity(g, 0.05, 8192).hex() == want.hex()

    def test_field_without_torus_form_raises(self):
        sampled = F.PeriodicSampledField([1.0], np.full((8, 1, 1, 1, 1), 2.0))
        with pytest.raises(ValueError, match="PeriodicSampledField has no torus form"):
            F.modulus_of_continuity(sampled, 0.1)

    def test_monotone_in_delta(self, golden_field):
        deltas = [0.02, 0.05, 0.1, 0.2, 0.4]
        vals = [F.modulus_of_continuity(golden_field, d, 4096) for d in deltas]
        assert all(a <= b + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_delta_positive_required(self, golden_field):
        with pytest.raises(ValueError):
            F.modulus_of_continuity(golden_field, 0.0)


def _one_cross_entry(d, m):
    """A (d, d, m, m) tensor whose only nonzero entry is one cross entry a_01."""
    t = np.zeros((d, d, m, m))
    t[0, 1, m - 1, 0] = 0.1
    return t


def _quasi_2d(cross):
    iso = F.as_tensor(2.0, 2, 1)
    wobble = _one_cross_entry(2, 1) if cross else F.as_tensor(0.5, 2, 1)
    return F.QuasiPeriodicField([[1.0, F.GOLDEN_RATIO], [1.0, np.sqrt(2.0)]], 1, [
        (np.zeros(4), iso, 0.0),
        (np.array([1.0, 0.0, 1.0, 0.0]), 0.5 * iso, 0.0),
        (np.array([0.0, 1.0, 0.0, 1.0]), 0.0, wobble)])


def _sampled_2d(cross):
    samples = np.zeros((4, 4, 2, 2, 1, 1))
    samples[..., 0, 0, 0, 0] = samples[..., 1, 1, 0, 0] = 2.0
    if cross:
        samples[1, 2] += _one_cross_entry(2, 1)
    return F.PeriodicSampledField([1.0, 1.0], samples)


CROSS_FREE_CASES = {
    "constant_d1": (lambda: F.ConstantField(np.array([[[[2.0, 0.3], [0.1, 1.5]]]])), True),
    "constant_d2_system": (lambda: F.ConstantField(2.0, d=2, m=2), True),
    "constant_d2_cross": (lambda: F.ConstantField(np.array([[2.0, 0.3], [0.1, 1.5]]),
                                                  d=2, m=1), False),
    "trig_d1": (F.sine_scalar_field, True),
    "trig_laminate": (F.laminate_field, True),
    "trig_one_cross_entry": (lambda: F.TrigPolynomialField(2, 2, [
        (np.zeros(2), F.as_tensor(2.0, 2, 2), 0.0),
        (np.array([1.0, 0.0]), F.as_tensor(0.3, 2, 2), _one_cross_entry(2, 2))]), False),
    "trig_cross_term_system": (cross_term_system, False),
    "sampled_d1": (lambda: F.PeriodicSampledField([1.0], np.full((8, 1, 1, 1, 1), 2.0)), True),
    "sampled_d2": (lambda: _sampled_2d(False), True),
    "sampled_d2_one_cross_entry": (lambda: _sampled_2d(True), False),
    "quasi_d1_golden": (F.golden_ratio_field, True),
    "quasi_d2": (lambda: _quasi_2d(False), True),
    "quasi_d2_one_cross_entry": (lambda: _quasi_2d(True), False),
}


TORUS_FORM_CASES = {name: make for name, (make, _) in CROSS_FREE_CASES.items()}
# frequencies that are not integers: one torus axis per distinct nonzero frequency
TORUS_FORM_CASES["trig_irrational"] = lambda: F.TrigPolynomialField(1, 1, [
    (np.zeros(1), 2.0, 0.0), (np.array([F.GOLDEN_RATIO]), 0.3, 0.2),
    (np.array([-F.GOLDEN_RATIO]), 0.1, 0.0), (np.array([1.0]), 0.0, 0.4)])


@pytest.mark.parametrize("name", sorted(TORUS_FORM_CASES))
def test_torus_form_reproduces_evaluate(name):
    f = TORUS_FORM_CASES[name]()
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, size=(256, f.d))
    for g in (f, f.adjoint(), F.ShiftedField(f, np.full(f.d, 0.37)),
              F.ScaledArgumentField(f, 1.7)):
        form = g.torus_form()
        if isinstance(f, F.PeriodicSampledField):
            assert form is None
            continue
        assert form.lam.shape == (form.phase.size, g.d)
        for n, _, _ in form.terms:
            assert n.shape == form.phase.shape and np.array_equal(n, np.round(n))
        b = trig_sum_by_phase(pts @ form.lam.T + form.phase, form.terms, g.d, g.m)
        want = g.evaluate(pts)
        assert np.max(np.abs(b - want)) <= 1e-14 * np.max(np.abs(want))


def test_torus_form_layouts():
    assert F.ConstantField(2.0, d=2, m=1).torus_form().lam.shape == (0, 2)
    assert np.array_equal(F.laminate_field().torus_form().lam, np.eye(2))
    assert np.array_equal(F.golden_ratio_field().torus_form().lam, [[1.0], [F.GOLDEN_RATIO]])
    assert TORUS_FORM_CASES["trig_irrational"]().torus_form().lam.shape == (3, 1)


def _wrappers(f):
    return (f, f.adjoint(), F.ShiftedField(f, np.full(f.d, 0.37)), F.ScaledArgumentField(f, 1.7))


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_memoized_point_rule_keeps_the_bytes(name):
    # the rule built once per field gives the bytes of one built per call
    f = ORACLE_FIELDS[name]()
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(300, f.d))
    for g in _wrappers(f):
        tail = (g.d, g.d, g.m, g.m)
        want = F._form_points(F._rule_terms(g.torus_form(), ()), pts, tail)
        for _ in range(2):
            assert g.evaluate(pts).tobytes() == want.tobytes()
            assert g.evaluate(pts[7]).tobytes() == want[7].tobytes()


def test_repeated_evaluate_builds_the_form_once():
    base = F.golden_ratio_field()
    calls = []
    form = base.torus_form

    def counting():
        calls.append(1)
        return form()

    base.torus_form = counting
    for g in _wrappers(base):
        # a wrapper builds its form from the base's, once
        start = len(calls)
        for _ in range(3):
            g.evaluate(np.zeros((2, base.d)))
            g.evaluate(np.ones(base.d))
        assert len(calls) == start + 1


class TestCrossFree:
    @pytest.mark.parametrize("name", sorted(CROSS_FREE_CASES))
    def test_read_from_the_coefficients(self, name):
        make, want = CROSS_FREE_CASES[name]
        f = make()
        shift = np.full(f.d, 0.37)
        for g in (f, f.adjoint(), F.ShiftedField(f, shift), F.ScaledArgumentField(f, 8.0)):
            assert g.cross_free is want
            a = g.evaluate(np.random.default_rng(1).uniform(-2, 2, size=(256, g.d)))
            assert np.any(a[:, ~np.eye(g.d, dtype=bool)]) is not want
        with pytest.raises(AttributeError):
            f.cross_free = not want

    def test_base_class_cannot_tell(self):
        assert F.CoefficientField(2, 1).cross_free is False


class TestPeriodicSampled:
    def _sampled_sine(self, n=256):
        t = np.arange(n) / n
        vals = (2.0 + np.sin(2 * np.pi * t)).reshape(n, 1, 1, 1, 1)
        return F.PeriodicSampledField([1.0], vals)

    def test_interpolation_error(self, sine_field):
        f = self._sampled_sine()
        xs = np.linspace(0, 3, 700)[:, None]
        exact = sine_field.evaluate(xs)
        approx = f.evaluate(xs)
        # multilinear: O(h^2) with h = 1/256
        assert np.max(np.abs(exact - approx)) < 0.5 * (2 * np.pi / 256) ** 2

    def test_wraps_periodically(self):
        f = self._sampled_sine()
        xs = np.array([[0.3], [1.3], [-0.7]])
        vals = f.evaluate(xs)
        assert np.allclose(vals[0], vals[1])
        assert np.allclose(vals[0], vals[2])

    def test_a_wrapped_coordinate_that_rounds_to_the_period_is_node_0(self):
        samples = np.random.default_rng(2).standard_normal((4, 8, 2, 2, 2, 2))
        f = F.PeriodicSampledField([1.0, 0.5], samples)
        assert np.mod(-1e-18, 1.0) == 1.0
        assert f.evaluate(np.array([-1e-18, -1e-18])).tobytes() == samples[0, 0].tobytes()

    @pytest.mark.parametrize("period", [0.0, np.nan, np.inf, -1.0])
    def test_a_period_that_is_not_finite_and_positive_is_refused(self, period):
        # at a period of -1 the lattice would be read as A(-x), at infinity as node 0
        with pytest.raises(ValueError, match="period"):
            F.PeriodicSampledField([period], np.array([2.0, 3.0, 2.0, 2.0]).reshape(4, 1, 1, 1, 1))

    def test_rejects_higher_order(self):
        cfg = F.field_to_config(self._sampled_sine())
        with pytest.raises(ValueError, match=r"^field\.order: 1 was expected"):
            F.field_from_config(dict(cfg, order=2))


def _quasi_torus_8(m):
    """d = 2, torus dimension 8: each phase is the BLAS product embed(x) @ n.
    The frequencies reach 5 in size, so the products round (a factor 0, +-1 or
    +-2 is exact), and the phase's bits show how BLAS splits the rows."""
    rng = np.random.default_rng(11)
    layout = ([1.0, F.GOLDEN_RATIO, np.sqrt(2.0), -np.sqrt(3.0)],
              [1.0, np.sqrt(5.0), np.pi / 3.0, -np.e / 2.0])
    terms = [(np.zeros(8), F.as_tensor(4.0, 2, m), 0.0)]
    for _ in range(3):
        n = rng.integers(-5, 6, size=8).astype(float)
        terms.append((n, 0.1 * rng.standard_normal((2, 2, m, m)),
                      0.1 * rng.standard_normal((2, 2, m, m))))
    return F.QuasiPeriodicField(layout, m, terms)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
def test_sample_mesh_keeps_the_bytes_of_one_shot_face_slices(bc, m):
    f = _quasi_torus_8(m)
    grid = BoxGrid(Box([-9.0, -7.0], [9.0, 8.0]), [144, 120], bc)
    for i in range(2):
        full = f.evaluate(grid.face_points(i))
        assert len(full) > 2 * _POINT_BLOCK and len(full) % _POINT_BLOCK
        rows = F.sample_mesh(f, grid.face_axes(i), (i,))
        assert rows.shape == full[:, i].shape
        assert rows.tobytes() == full[:, i].tobytes()
        assert F.sample_mesh(f, grid.face_axes(i), (i, i)).tobytes() == \
            np.ascontiguousarray(full[:, i, i]).tobytes()


def _quasi_3d(m):
    """d = 3, torus dimension 5, with cross blocks."""
    rng = np.random.default_rng(12)
    layout = ([1.0, F.GOLDEN_RATIO], [np.sqrt(2.0)], [1.0, -np.sqrt(3.0)])
    terms = [(np.zeros(5), F.as_tensor(4.0, 3, m), 0.0)]
    for _ in range(3):
        terms.append((rng.integers(-2, 3, size=5), 0.1 * rng.standard_normal((3, 3, m, m)),
                      0.1 * rng.standard_normal((3, 3, m, m))))
    return F.QuasiPeriodicField(layout, m, terms)


# every field with a torus form that the rule's tests cover: d = 1, 2, 3 and m = 1, 2
RULE_FIELDS = {**ORACLE_FIELDS,
               **{name: make for name, make in TORUS_FORM_CASES.items()
                  if not name.startswith("sampled")},
               "quasi_uneven": _uneven_quasi_field,
               **{f"quasi_torus_8_m{m}": (lambda m=m: _quasi_torus_8(m)) for m in (1, 2)},
               **{f"quasi_d3_m{m}": (lambda m=m: _quasi_3d(m)) for m in (1, 2)}}


def _with_wrappers(f):
    return {"base": f, "adjoint": f.adjoint(), "shifted": F.ShiftedField(f, np.full(f.d, 0.37)),
            "scaled": F.ScaledArgumentField(f, 1.7)}


@pytest.mark.parametrize("name", sorted(RULE_FIELDS))
def test_rule_is_the_direct_formula_up_to_phase_rounding(name):
    # the rule folds per-axis angles 2 pi k_i x_i into the phase by angle
    # addition; the direct formula takes one cos or sin of the whole phase.
    # Both round a phase of size P to about eps P, and that moves cos and sin
    # by as much, so they differ by a few eps P per term and entry, at most
    # oracle_tools.rule_error_bound at |x| up to 10^3
    for wrap, g in _with_wrappers(RULE_FIELDS[name]()).items():
        pts = np.random.default_rng(5).uniform(-1e3, 1e3, size=(2000, g.d))
        pts[0], pts[1] = 0.0, -1e3
        got, want = g.evaluate(pts), direct_evaluate(g, pts)
        assert np.all(np.abs(got - want) <= rule_error_bound(g, pts)), wrap


@pytest.mark.parametrize("name", ["quasi_torus_8_m2", "cross_d3_m2", "quasi_d1_golden"])
def test_evaluate_blocks_keep_the_bytes_of_one_shot(name, monkeypatch):
    for g in _with_wrappers(RULE_FIELDS[name]()).values():
        pts = np.random.default_rng(9).uniform(-50.0, 50.0, size=(2 * _POINT_BLOCK + 77, g.d))
        blocked = g.evaluate(pts)
        with monkeypatch.context() as patch:
            patch.setattr(F, "_POINT_BLOCK", len(pts))
            assert g.evaluate(pts).tobytes() == blocked.tobytes()


def _keeps(d):
    return [(), *[(i,) for i in range(d)], *itertools.product(range(d), repeat=2)]


@pytest.mark.parametrize("name", sorted(RULE_FIELDS))
def test_sample_mesh_is_evaluate_at_the_mesh_points(name):
    f = RULE_FIELDS[name]()
    grid = BoxGrid(Box(np.full(f.d, -3.3), np.array([4.1, 2.7, 3.9])[:f.d]),
                   [29, 23, 19][:f.d], DIRICHLET)
    meshes = [grid.face_axes(i) for i in range(f.d)] + [grid.slice_axes((slice(None),) * f.d)]
    for g in _with_wrappers(f).values():
        for axes in meshes:
            full = g.evaluate(_mesh_points(axes))
            for keep in _keeps(f.d):
                got = F.sample_mesh(g, axes, keep)
                assert got.tobytes() == np.ascontiguousarray(full[(slice(None), *keep)]).tobytes()


@pytest.mark.parametrize("shape", [(20000,), (3, 9000), (5, 100, 100), (193, 192), (4, 5, 6),
                                   (1,), (8192,), (2, 4096)])
def test_mesh_blocks_cover_the_mesh_in_c_order(shape):
    covered = []
    for sls in F._mesh_blocks(shape):
        idx = np.indices(shape)[(slice(None), *sls)].reshape(len(shape), -1)
        assert 0 < idx.shape[1] <= _POINT_BLOCK
        covered.append(np.ravel_multi_index(idx, shape))
    assert np.array_equal(np.concatenate(covered), np.arange(math.prod(shape)))


@pytest.mark.parametrize("shape", [(20000,), (3, 9000), (2, 100, 100), (97, 3, 31), (4, 0), (0, 7)])
def test_sample_mesh_blocks_keep_the_bytes_of_evaluate(shape):
    # blocks of single leading indices, of rows and of whole planes; an empty
    # axis gives an empty sample
    f = {1: F.golden_ratio_field, 2: lambda: _quasi_torus_8(1), 3: lambda: _quasi_3d(1)}[len(shape)]()
    axes = [np.linspace(-40.0, 33.0, n) for n in shape]
    full = f.evaluate(_mesh_points(axes))
    for keep in [(), (0, 0)]:
        assert F.sample_mesh(f, axes, keep).tobytes() == \
            np.ascontiguousarray(full[(slice(None), *keep)]).tobytes()


@pytest.mark.parametrize("wrap", [lambda f: f, lambda f: F.ShiftedField(f, [0.3, 0.1]),
                                  lambda f: f.adjoint()], ids=["sampled", "shifted", "adjoint"])
def test_a_field_without_a_form_samples_meshes_point_by_point(wrap):
    g = wrap(_sampled_cross_term_system())
    assert g.torus_form() is None
    axes = [np.linspace(-1.0, 2.0, 130), np.linspace(0.2, 0.9, 140)]
    calls = count_evaluate(g)
    rows = F.sample_mesh(g, axes, (1,))
    # the mesh's own call, then one per block of whole rows of 140 points
    run = _POINT_BLOCK // 140
    assert calls == [130 * 140] + [140 * min(run, 130 - lo) for lo in range(0, 130, run)]
    assert rows.tobytes() == np.ascontiguousarray(g.evaluate(_mesh_points(axes))[:, 1]).tobytes()


def test_a_mesh_is_checked_like_points():
    f = cross_term_system()
    axes = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)]
    mesh = F.Mesh(axes, (0,))
    assert mesh.shape == (15, 2) and len(mesh) == 15
    assert f.evaluate(mesh).tobytes() == f.evaluate(_mesh_points(axes))[:, 0].tobytes()
    with pytest.raises(ValueError, match="dimension"):
        f.evaluate(F.Mesh(axes + [np.zeros(2)], ()))
    with pytest.raises(ValueError, match="non-finite"):
        F.Mesh([axes[0], np.array([0.0, np.inf])], ())
    with pytest.raises(ValueError, match="one-dimensional"):
        F.Mesh([axes[0], np.zeros((2, 2))], ())


def test_sample_mesh_holds_no_whole_mesh_temporaries():
    # the output is (N, 1): a route that built its factor products over the
    # whole mesh would hold several N-point arrays at once (cos, sin, their
    # products), 3 or more times the output; the blocked one holds a few
    # blocks of _POINT_BLOCK points, a quarter of the output here
    f = RULE_FIELDS["quasi_torus_8_m1"]()
    axes = [np.linspace(-9.0, 9.0, 400), np.linspace(-7.0, 8.0, 2 * _POINT_BLOCK // 25)]
    n = 400 * len(axes[1])
    assert n >= 16 * _POINT_BLOCK
    F.sample_mesh(f, axes, (0, 0))          # warm every code path first
    tracemalloc.start()
    try:
        out = F.sample_mesh(f, axes, (0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * n
    assert peak < 1.5 * out.nbytes


def test_periodic_sampled_field_matches_the_per_corner_oracle():
    samples = np.random.default_rng(6).standard_normal((6, 5, 2, 2, 2, 2))
    f = F.PeriodicSampledField([1.0, 0.5], samples)
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(2 * _POINT_BLOCK + 5, 2))
    pts[:3] = [[-1e-18, -1e-18], [1.0, 0.5], [0.5, 0.25]]
    rel = (pts / f.period) % 1.0 * f.cells
    want = multilinear_per_corner(samples, rel, f.cells, periodic=True)
    assert f.evaluate(pts).tobytes() == want.tobytes()


def test_config_round_trip(sine_field, golden_field, laminate):
    rng = np.random.default_rng(5)
    sampled = F.PeriodicSampledField(
        [1.0], (2.0 + np.sin(2 * np.pi * np.arange(64) / 64)).reshape(64, 1, 1, 1, 1))
    for f in (F.ConstantField(2.0, d=1, m=1), sine_field, laminate,
              golden_field, sampled):
        g = F.field_from_config(F.field_to_config(f))
        pts = rng.uniform(-2, 2, size=(30, f.d))
        assert np.allclose(f.evaluate(pts), g.evaluate(pts))
        assert g.d == f.d and g.m == f.m


def test_uneven_layout_config_round_trip():
    f = _uneven_quasi_field()
    g = F.field_from_config(F.field_to_config(f))
    pts = np.random.default_rng(8).uniform(-50.0, 50.0, size=(300, 2))
    assert g.evaluate(pts).tobytes() == f.evaluate(pts).tobytes()
    want, got = f.torus_form(), g.torus_form()
    assert got.lam.tobytes() == want.lam.tobytes()
    assert got.phase.tobytes() == want.phase.tobytes()
    assert [[a.tobytes() for a in t] for t in got.terms] == \
        [[a.tobytes() for a in t] for t in want.terms]


def _golden_cfg(**edit):
    return dict(F.field_to_config(F.golden_ratio_field()), **edit)


def _sine_cfg(**edit):
    return dict(F.field_to_config(F.sine_scalar_field()), **edit)


def _golden_cfg_with_cos(leaf):
    cfg = _golden_cfg()
    cfg["torus_terms"][0]["cos"] = leaf
    return cfg


def _golden_cfg_with(n, key, value):
    cfg = _golden_cfg()
    cfg["torus_terms"][n][key] = value
    return cfg


def _sine_cfg_with_sin(leaf):
    cfg = _sine_cfg()
    cfg["terms"][1]["sin"][0][0][0][0] = leaf
    return cfg


def _without(cfg, key):
    del cfg[key]
    return cfg


# every config is malformed in one key, and the message names that key's JSON path;
# an order other than 1 is test_rejects_higher_order's
@pytest.mark.parametrize("cfg, message", [
    (_golden_cfg(bogus=1), r"^field: .*'bogus' was unexpected"),
    (_without(_sine_cfg(), "terms"), r"^field: 'terms' is a required property"),
    (_without(_sine_cfg(), "variant"), r"^field: 'variant' is a required property"),
    (_sine_cfg(terms=3), r"^field\.terms: 3 is not of type 'array'"),
    (_sine_cfg(d=True), r"^field\.d: True is not of type 'integer'"),
    (_golden_cfg(layout="x"), r"^field\.layout: 'x' is not of type 'array'"),
    (_sine_cfg(variant="mystery"), r"^field\.variant: 'mystery' is not one of"),
    (_sine_cfg_with_sin(float("nan")), r"^field\.terms\[1\]\.sin\[0\]\[0\]\[0\]\[0\]: "
                                       r"non-finite number nan"),
    (_golden_cfg(layout=[[1.0, float("inf")]]), r"^field\.layout\[0\]\[1\]: non-finite"),
    (_sine_cfg_with_sin("2"), r"^field\.terms\[1\]\.sin\[0\]\[0\]\[0\]\[0\]: "
                              r"tensor entries must be numbers, not str"),
    (_golden_cfg_with_cos([[[[True]]]]), r"^field\.torus_terms\[0\]\.cos\[0\]\[0\]\[0\]\[0\]: "
                                         r"tensor entries must be numbers, not bool"),
    (_golden_cfg_with_cos(None), r"^field\.torus_terms\[0\]\.cos: tensor entries"),
    ({"variant": "constant", "d": 2, "m": 1, "value": [[2.0, True], [0.0, 2.0]]},
     r"^field\.value\[0\]\[1\]: tensor entries must be numbers, not bool"),
    ({"variant": "constant", "d": 2, "m": 1, "value": [[1.0], [1.0, 2.0]]},
     r"^field\.value: .*inhomogeneous"),
    ({"variant": "quasi_periodic", "d": 2, "m": 1, "layout": [[1.0, F.GOLDEN_RATIO]],
      "torus_terms": [{"frequency": [0, 0], "cos": 2.0, "sin": 0.0}]},
     r"^field\.d: the config states d = 2 but its field has d = 1"),
    ({"variant": "constant", "d": 1, "m": 2, "value": [[[[2.0]]]]},
     r"^field\.m: the config states m = 2 but its field has m = 1"),
    ({"variant": "quasi_periodic", "d": 2, "m": 1, "layout": [[1.0, F.GOLDEN_RATIO]],
      "torus_terms": [{"frequency": [0, 0], "cos": [[[[2.0]]]], "sin": [[[[0.0]]]]}]},
     r"^field\.torus_terms\[0\]\.cos: cannot interpret shape \(1, 1, 1, 1\) as a "
     r"\(d=2, m=1\) tensor"),
    (_golden_cfg_with(1, "frequency", [1, 1, 0]),
     r"^field\.torus_terms\[1\]\.frequency: cannot reshape array of size 3 into shape \(2,\)"),
    (_golden_cfg_with(1, "frequency", [0.5, 1]),
     r"^field\.torus_terms: torus frequencies must be integer vectors"),
    (_golden_cfg(layout=[[1.0, 0.0]]), r"^field\.layout: zero frequencies are not allowed"),
    ({"variant": "trig_polynomial", "d": 2, "m": 1,
      "terms": [{"frequency": [0, 0], "cos": [2.0, 2.0], "sin": 0.0}]},
     r"^field\.terms\[0\]\.cos: cannot interpret shape \(2,\) as a \(d=2, m=1\) tensor"),
    ({"variant": "constant", "d": 2, "m": 1, "value": [1.0, 2.0, 3.0]},
     r"^field\.value: cannot interpret shape \(3,\)"),
    ({"variant": "constant", "value": 2.0}, r"^field\.value: d and m required"),
    ({"variant": "periodic_sampled", "period": [1.0], "samples": [[2.0], [3.0]]},
     r"^field\.samples: samples must have shape \(\*cells, d, d, m, m\)"),
    ({"variant": "periodic_sampled", "period": [1.0], "samples": [[[[[[2.0]]]]]] * 2},
     r"^field\.samples: sample tensor dimension does not match lattice dimension"),
    ({"variant": "periodic_sampled", "period": [1.0, 2.0], "samples": [[[[[2.0]]]]] * 2},
     r"^field\.period: cannot reshape array of size 2 into shape \(1,\)"),
], ids=["unknown-key", "missing-key", "missing-variant", "wrong-type", "boolean-count",
        "wrong-type-layout", "unknown-variant", "nan", "inf", "string-entry",
        "boolean-entry", "null-tensor", "boolean-among-numbers", "ragged-tensor",
        "stated-d", "stated-m", "term-tensor-shape", "frequency-length",
        "non-integer-torus-frequency", "zero-layout-frequency", "trig-tensor-shape",
        "value-shape", "constant-without-d", "samples-shape", "samples-dimension",
        "period-length"])
def test_a_malformed_config_raises_value_error_naming_its_key(cfg, message):
    with pytest.raises(ValueError, match=message):
        F.field_from_config(cfg)


def test_a_count_written_as_a_float_builds_the_field():
    # JSON Schema's integer admits 2.0
    cfg = dict(F.field_to_config(F.laminate_field()), d=2.0, m=1.0)
    field = F.field_from_config(cfg)
    assert (field.d, field.m) == (2, 1)
    assert F.field_to_config(field) == F.field_to_config(F.laminate_field())


def test_scaled_and_shifted_wrappers(sine_field):
    xs = np.linspace(0, 1, 17)[:, None]
    s = F.ScaledArgumentField(sine_field, 8.0)
    assert np.allclose(s.evaluate(xs), sine_field.evaluate(8.0 * xs))
    assert s.period[0] == pytest.approx(1 / 8)
    sh = F.ShiftedField(sine_field, [0.25])
    assert np.allclose(sh.evaluate(xs), sine_field.evaluate(xs + 0.25))
