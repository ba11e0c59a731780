"""Coefficient tensor fields for divergence-form elliptic operators.

A field maps points ``y`` in R^d to a real tensor ``a[i, j, alpha, beta]``
(spatial indices ``i, j < d``, component indices ``alpha, beta < m``) acting
on gradients of R^m-valued functions through ``-div(A(y) grad u)``.

Supported constructions:

* constant tensors,
* trigonometric polynomials ``sum_k cos(2 pi k.y) C_k + sin(2 pi k.y) S_k``
  (the 1-periodic convention: a frequency vector of integers makes the
  field 1-periodic per axis),
* periodically sampled node grids with multilinear interpolation,
* quasi-periodic fields ``A(x) = B(j_lambda(x))``, stored as the integer
  terms of ``B``, a trigonometric polynomial that is 1-periodic on an
  M-torus, and the per-axis frequency lists ``lambda_i`` along which
  ``j_lambda`` embeds each axis ``x_i``.

Every variant but the sampled one also states its torus form
``A(x) = B(lam x + phase)`` (:meth:`CoefficientField.torus_form`), and is
evaluated from it by one rule, at points and on tensor-product meshes
(``evaluate`` of a ``Mesh``, or ``sample_mesh``) alike.

All evaluators are vectorized over points and deterministic; fields are immutable
apart from an ellipticity certificate cached on first read, and safe to evaluate concurrently.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityViolation, ResonantFrequencies
from .grids import _POINT_BLOCK, _check_points, _mesh_points, _multilinear

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

# A(x) = B(lam @ x + phase) with B(t) = sum over terms (n, C, S) of
# cos(2 pi n.t) C + sin(2 pi n.t) S on the M-torus; lam is (M, d), phase (M,)
TorusForm = collections.namedtuple("TorusForm", "terms lam phase")


# ---------------------------------------------------------------------------
# tensor values


def as_tensor(value, d, m):
    """Coerce ``value`` to a coefficient tensor of shape (d, d, m, m).

    Scalars become isotropic tensors ``c * delta_ij * delta_ab``; a (d, d)
    matrix is promoted componentwise for m == 1.
    """
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        out = np.zeros((d, d, m, m))
        for i in range(d):
            for al in range(m):
                out[i, i, al, al] = float(a)
        return out
    if a.shape == (d, d) and m == 1:
        return a.reshape(d, d, 1, 1).astype(float)
    if a.shape == (d, d, m, m):
        return a.astype(float)
    raise ValueError(f"cannot interpret shape {a.shape} as a (d={d}, m={m}) tensor")


def tensor_matrix(t):
    """Flatten a (d, d, m, m) tensor to the (dm, dm) matrix acting on xi[j, beta]."""
    d, _, m, _ = t.shape
    return np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(d * m, d * m)


def adjoint_tensor(t):
    """Index-swapped tensor over the last four axes: b[..., i, j, a, b] = a[..., j, i, b, a]."""
    return np.ascontiguousarray(np.swapaxes(np.swapaxes(t, -4, -3), -2, -1))


def is_symmetric_tensor(t):
    return bool(np.max(np.abs(t - adjoint_tensor(t))) <= 1e-12 * (1.0 + np.max(np.abs(t))))


def _is_cross_free(t):
    """True when every cross block t[..., i, j, :, :] (i != j) is exactly zero."""
    return not np.any(t[..., ~np.eye(t.shape[-4], dtype=bool), :, :])


@dataclass(frozen=True)
class Ellipticity:
    """Sampled two-sided ellipticity certificate.

    ``mu`` is the smallest and ``mu_inv_check`` the largest observed
    Rayleigh quotient of the symmetric part over unit directions in R^{dm}.
    The constant valid for the two-sided bound  mu0 |xi|^2 <= A xi.xi <=
    |xi|^2 / mu0  is ``min(mu, 1/mu_inv_check)``.
    """

    mu: float
    mu_inv_check: float

    def __post_init__(self):
        if not (0.0 < self.mu <= self.mu_inv_check):
            raise ValueError(f"invalid certificate: mu={self.mu}, max={self.mu_inv_check}")


# ---------------------------------------------------------------------------
# trigonometric terms (k, C, S) shared by TrigPolynomialField and QuasiPeriodicField


def _parse_terms(terms, dimension, d, m):
    return [(np.asarray(freq, dtype=float).reshape(dimension),
             as_tensor(cos_c, d, m), as_tensor(sin_c, d, m))
            for freq, cos_c, sin_c in terms]


def _rule_terms(form, keep):
    """The terms of a TorusForm as the evaluation rule reads them, each
    restricted to the entries ``keep`` of its tensors: per term, its axes
    with a nonzero frequency as (axis, 2 pi k_axis) with k = lam^T n, its
    start (cos 2 pi n.phase, sin 2 pi n.phase), and the (flat index, value)
    pairs of the nonzero entries of C and of S.  A term with no such entry
    adds nothing and is left out."""
    out = []
    for n, c, s in form.terms:
        c, s = c[keep].ravel(), s[keep].ravel()
        cos_e = [(e, c[e]) for e in np.flatnonzero(c)]
        sin_e = [(e, s[e]) for e in np.flatnonzero(s)]
        if not (cos_e or sin_e):
            continue
        w = 2.0 * np.pi * np.sum(form.lam.T * n, axis=1)      # k as rho_ladder's tables take it
        start = 2.0 * np.pi * float(np.sum(n * form.phase))
        out.append(([(i, w_i) for i, w_i in enumerate(w) if w_i != 0.0],
                    (math.cos(start), math.sin(start)), cos_e, sin_e))
    return out


def _factors(term, x):
    """A term's per-axis factor pairs (cos w x_i, sin w x_i), one per axis
    (i, w) of the term, at the per-axis coordinates x[i]; a factor that the
    term's fold does not read is None."""
    axes, start, cos_e, sin_e = term
    alone = len(axes) == 1 and start == (1.0, 0.0)      # the fold returns it as it is
    return [(np.cos(w * x[i]) if cos_e or not alone else None,
             np.sin(w * x[i]) if sin_e or not alone else None) for i, w in axes]


def _add_terms(acc, terms, factors):
    """acc[..., e] += each term's value at entry e, term by term, C before S.

    A term's angle is the real angle addition of its factor pairs, folded
    in axis order into its start: (c, s) -> (c ca - s sa, s ca + c sa); the
    last fold makes only what the term's entries read.  A start of (1, 0)
    is skipped, which changes only signs of zeros, and no sum here that
    starts from +0 keeps one.  The factors broadcast against the block
    ``acc[..., e]``: per point, or per mesh axis, which gives the same
    operations on the same inputs, so the same bits."""
    for (_, (c, s), cos_e, sin_e), pairs in zip(terms, factors):
        if pairs and (c, s) == (1.0, 0.0):
            (c, s), pairs = pairs[0], pairs[1:]
        for j, (ca, sa) in enumerate(pairs):
            last = j == len(pairs) - 1
            c, s = (c * ca - s * sa if cos_e or not last else None,
                    s * ca + c * sa if sin_e or not last else None)
        for e, v in cos_e:
            acc[..., e] += c * v
        for e, v in sin_e:
            acc[..., e] += s * v


def _form_points(terms, pts, tail):
    """The rule ``terms`` (``_rule_terms(form, ())``) at points (N, dim):
    A(x) = B(lam x + phase), shape (N, *tail), in blocks of at most
    _POINT_BLOCK points."""
    out = np.zeros((pts.shape[0],) + tail)
    flat = out.reshape(pts.shape[0], math.prod(tail))
    for lo in range(0, pts.shape[0], _POINT_BLOCK):
        x = pts[lo:lo + _POINT_BLOCK].T
        _add_terms(flat[lo:lo + _POINT_BLOCK], terms, [_factors(t, x) for t in terms])
    return out


def _mesh_blocks(shape):
    """Index slices, in C order, of blocks of at most _POINT_BLOCK points of
    a mesh: whole trailing axes, a run of rows along the axis before them
    and single indices before that.  An empty mesh has no blocks."""
    if not math.prod(shape):
        return
    q = next(q for q in range(1, len(shape) + 1) if math.prod(shape[q:]) <= _POINT_BLOCK)
    run = max(1, _POINT_BLOCK // math.prod(shape[q:]))
    for outer in itertools.product(*map(range, shape[:q - 1])):
        for lo in range(0, shape[q - 1], run):
            yield (tuple(slice(i, i + 1) for i in outer) + (slice(lo, lo + run),)
                   + (slice(None),) * (len(shape) - q))


def _terms_symmetric(terms):
    return all(is_symmetric_tensor(c) and is_symmetric_tensor(s) for _, c, s in terms)


def _terms_cross_free(terms):
    return all(_is_cross_free(c) and _is_cross_free(s) for _, c, s in terms)


# ---------------------------------------------------------------------------
# field variants


class CoefficientField:
    """Base class: vectorized evaluation plus metadata shared by variants."""

    def __init__(self, d, m):
        self.d = int(d)
        self.m = int(m)
        self.symmetric = False
        self._cross_free = False
        self.period = None

    @property
    def cross_free(self):
        """True when the coefficients prove every cross block a_ij (i != j) zero
        everywhere; each variant decides it from its own coefficients."""
        return self._cross_free

    @functools.cached_property
    def ellipticity(self):
        """Sampled certificate of the field, made on first read."""
        return check_ellipticity(self)

    def evaluate(self, points):
        """A at points (N, d) as (N, d, d, m, m), or at one point (d,), or the
        kept entries of A at the points of a ``Mesh``.  A field with a torus
        form takes the form's evaluation rule, per point or, on a mesh, per
        axis; any other its own point route."""
        if isinstance(points, Mesh):
            return _mesh_rule(self, points)
        pts, single = _check_points(points, self.d)
        terms = self._point_rule
        out = (self._evaluate(pts) if terms is None
               else _form_points(terms, pts, (self.d, self.d, self.m, self.m)))
        return out[0] if single else out

    @functools.cached_property
    def _point_rule(self):
        """The torus form's rule over all entries, built on first use, or None."""
        form = self.torus_form()
        return None if form is None else _rule_terms(form, ())

    def _evaluate(self, pts):  # pragma: no cover - abstract
        raise NotImplementedError

    def torus_form(self):
        """The field's TorusForm, or None for a field that is not a
        trigonometric polynomial."""
        return None

    def adjoint(self):
        """The index-swapped field A*(y) = adjoint_tensor(A(y))."""
        return _Adjoint(self)


class ConstantField(CoefficientField):
    def __init__(self, value, d=None, m=None):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 4:
            d, m = arr.shape[0], arr.shape[2]
        if d is None or m is None:
            raise ValueError("d and m required for scalar/matrix constants")
        super().__init__(d, m)
        self.value = as_tensor(arr, self.d, self.m)
        self.symmetric = is_symmetric_tensor(self.value)
        self._cross_free = _is_cross_free(self.value)
        self.period = np.ones(self.d)

    @functools.cached_property
    def ellipticity(self):
        return check_ellipticity(self, 1)      # every point is the same point

    def torus_form(self):
        return TorusForm([(np.zeros(0), self.value, np.zeros_like(self.value))],
                         np.zeros((0, self.d)), np.zeros(0))


class TrigPolynomialField(CoefficientField):
    """A(y) = sum over terms of cos(2 pi k.y) C + sin(2 pi k.y) S."""

    def __init__(self, d, m, terms):
        super().__init__(d, m)
        self.terms = _parse_terms(terms, self.d, self.d, self.m)
        self.symmetric = _terms_symmetric(self.terms)
        self._cross_free = _terms_cross_free(self.terms)
        freqs = np.array([k for k, _, _ in self.terms])
        if freqs.size and np.allclose(freqs, np.round(freqs), atol=1e-12):
            self.period = np.ones(self.d)

    def torus_form(self):
        ks = [k for k, _, _ in self.terms]
        if all(np.array_equal(k, np.round(k)) for k in ks):
            return TorusForm(self.terms, np.eye(self.d), np.zeros(self.d))
        # one torus axis per distinct nonzero frequency
        lam = np.unique([k for k in ks if np.any(k)], axis=0)
        return TorusForm([(np.all(lam == k, axis=1).astype(float), c, s)
                          for k, c, s in self.terms], lam, np.zeros(len(lam)))


def _lattice(samples):
    """(d, m) of node samples of shape (*cells, d, d, m, m)."""
    d = samples.ndim - 4
    if d < 1 or samples.shape[-4] != samples.shape[-3] or samples.shape[-2] != samples.shape[-1]:
        raise ValueError("samples must have shape (*cells, d, d, m, m)")
    if samples.shape[-4] != d:
        raise ValueError("sample tensor dimension does not match lattice dimension")
    return d, samples.shape[-1]


class PeriodicSampledField(CoefficientField):
    """Node samples on a periodic lattice, order-1 (multilinear) interpolation."""

    def __init__(self, period, samples):
        samples = np.asarray(samples, dtype=float)
        d, m = _lattice(samples)
        super().__init__(d, m)
        self.period = np.asarray(period, dtype=float).reshape(d)
        if not np.all(np.isfinite(self.period) & (self.period > 0)):
            raise ValueError(f"a sampled field needs finite positive periods, got {self.period}")
        self.samples = samples
        self.cells = np.array(samples.shape[:d], dtype=int)
        self.symmetric = is_symmetric_tensor(samples)
        self._cross_free = _is_cross_free(samples)

    def _evaluate(self, pts):
        return _multilinear(self.samples, (pts / self.period) % 1.0 * self.cells,
                            self.cells, periodic=True)


def _layout(frequencies):
    """Per-axis frequency lists as a tuple of float arrays, each nonempty and zero-free."""
    layout = tuple(np.asarray(f, dtype=float).ravel() for f in frequencies)
    for f in layout:
        if f.size == 0:
            raise ValueError("each direction needs at least one frequency")
        if np.any(f == 0.0):
            raise ValueError("zero frequencies are not allowed")
    return layout


class QuasiPeriodicField(CoefficientField):
    """A(x) = B(j(x)): B(t) = sum over terms of cos(2 pi n.t) C + sin(2 pi n.t) S
    on the M-torus with integer n, and j(x) = (layout[i] x_i) concatenated over
    the axes i, so d = len(layout) and M is the total number of frequencies."""

    def __init__(self, layout, m, terms):
        self.layout = _layout(layout)
        super().__init__(len(self.layout), m)
        parsed = _parse_terms(terms, sum(f.size for f in self.layout), self.d, self.m)
        if not all(np.allclose(n, np.round(n), atol=1e-9) for n, _, _ in parsed):
            raise ValueError("torus frequencies must be integer vectors")
        self.terms = [(np.round(n), c, s) for n, c, s in parsed]
        self.symmetric = _terms_symmetric(self.terms)
        self._cross_free = _terms_cross_free(self.terms)

    def torus_form(self):
        # column i: axis i's frequencies, in the rows of its torus axes
        eye = np.eye(self.d)
        lam = np.concatenate([eye[:, i, None] * f for i, f in enumerate(self.layout)], axis=1).T
        return TorusForm(self.terms, lam, np.zeros(len(lam)))


class _Transformed(CoefficientField):
    """A pointwise transform of ``base``: it shares the base's symmetry, cross
    blocks, period and certificate."""

    def __init__(self, base):
        super().__init__(base.d, base.m)
        self.base, self.symmetric, self.period = base, base.symmetric, base.period
        self._cross_free = base.cross_free

    @functools.cached_property
    def ellipticity(self):
        return self.base.ellipticity

    def torus_form(self):
        form = self.base.torus_form()
        return None if form is None else self._transform_form(form)


class _Adjoint(_Transformed):
    """adjoint_tensor(A(y)); transposition keeps the symmetric part, so the certificate."""

    def _evaluate(self, pts):
        return adjoint_tensor(self.base.evaluate(pts))

    def _transform_form(self, form):
        return form._replace(terms=[(n, adjoint_tensor(c), adjoint_tensor(s))
                                    for n, c, s in form.terms])

    def adjoint(self):
        return self.base


class ShiftedField(_Transformed):
    """A(. + shift)."""

    def __init__(self, base, shift):
        super().__init__(base)
        self.shift = np.asarray(shift, dtype=float).reshape(base.d)

    def _evaluate(self, pts):
        return self.base.evaluate(pts + self.shift)

    def _transform_form(self, form):
        return form._replace(phase=form.phase + form.lam @ self.shift)


class ScaledArgumentField(_Transformed):
    """A(scale * x), the eps-problem coefficient A(x / eps)."""

    def __init__(self, base, scale):
        super().__init__(base)
        self.period = None if base.period is None else base.period / float(scale)
        self.scale = float(scale)

    def _evaluate(self, pts):
        return self.base.evaluate(pts * self.scale)

    def _transform_form(self, form):
        return form._replace(lam=form.lam * self.scale)


# ---------------------------------------------------------------------------
# operations


def check_ellipticity(field, sample_count=4096, rng_seed=0):
    """Sample two-sided Rayleigh-quotient bounds of the symmetric part.

    The points fill one period cell, or the cube [-64, 64]^d for a field
    without a period.  Per sampled point the extreme quotients over unit
    directions are taken exactly (symmetric eigenvalues).  Raises
    :class:`EllipticityViolation` when the minimum is nonpositive.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    d = field.d
    if field.period is not None:
        lo, hi = np.zeros(d), field.period
    else:
        lo, hi = -64.0 * np.ones(d), 64.0 * np.ones(d)
    pts = rng.uniform(lo, hi, size=(sample_count, d))
    tensors = field.evaluate(pts)
    dm = field.d * field.m
    mats = np.ascontiguousarray(tensors.transpose(0, 1, 3, 2, 4)).reshape(-1, dm, dm)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    eigvals, eigvecs = np.linalg.eigh(sym)
    lo_idx = int(np.argmin(eigvals[:, 0]))
    mu = float(eigvals[lo_idx, 0])
    mu_inv = float(np.max(eigvals[:, -1]))
    if mu <= 0.0:
        raise EllipticityViolation(pts[lo_idx], eigvecs[lo_idx, :, 0], mu)
    return Ellipticity(mu=mu, mu_inv_check=mu_inv)


class Mesh:
    """The tensor product of per-axis coordinates ``axes`` (C order) as a
    point set for ``CoefficientField.evaluate``, which returns of each
    (d, d, m, m) tensor only the entries at the leading integer indices
    ``keep`` (``(i,)`` for row i, ``(i, i)`` for a_ii, ``(i, j)`` for a
    cross block, ``()`` for all).  It has the shape (N, d) and the length
    of the points it stands for; they are built only for a field without a
    torus form, block by block."""

    def __init__(self, axes, keep):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.keep = tuple(keep)
        if any(a.ndim != 1 for a in self.axes):
            raise ValueError("mesh axes must be one-dimensional")
        if not all(np.all(np.isfinite(a)) for a in self.axes):
            raise ValueError("non-finite evaluation point")
        self.shape = (math.prod(map(len, self.axes)), len(self.axes))

    def __len__(self):
        return self.shape[0]


def sample_mesh(field, axes, keep):
    """``field.evaluate(_mesh_points(axes))[(slice(None), *keep)]`` without the
    full tensors or the points: ``field.evaluate(Mesh(axes, keep))``."""
    return field.evaluate(Mesh(axes, keep))


def _mesh_rule(field, mesh):
    """A on a Mesh: only the kept entries of each tensor go into one
    preallocated output (N, *tail).

    The mesh is taken in blocks of at most _POINT_BLOCK points, whole rows
    of its trailing axes (``_mesh_blocks``).  A field with a torus form takes
    its evaluation rule (``_add_terms``) with the per-axis factor tables
    built once per term and axis and combined by outer products over each
    block: each output entry is made by the same operations on the same
    inputs as ``evaluate`` at points makes it, so the bytes are the same.
    Any other field evaluates each block's points."""
    axes, keep = mesh.axes, mesh.keep
    if len(axes) != field.d:
        raise ValueError(f"points have dimension {len(axes)}, expected d={field.d}")
    shape = tuple(len(a) for a in axes)
    n = math.prod(shape)
    tail = (field.d, field.d, field.m, field.m)[len(keep):]
    out = np.zeros((n,) + tail)
    flat = out.reshape(n, math.prod(tail))
    form = field.torus_form()
    if form is not None:
        terms = _rule_terms(form, keep)
        tables = [_factors(t, axes) for t in terms]
    lo = 0
    for sls in _mesh_blocks(shape):
        block = [a[sl] for a, sl in zip(axes, sls)]
        size = math.prod(map(len, block))
        if form is None:
            flat[lo:lo + size] = field.evaluate(_mesh_points(block))[
                (slice(None), *keep)].reshape(size, -1)
        else:
            # each axis's factors at the block's indices, along the block's axis
            factors = [[tuple(None if f is None else
                              f[sls[i]].reshape((-1,) + (1,) * (len(shape) - i - 1))
                              for f in pair) for (i, _), pair in zip(t[0], pairs)]
                       for t, pairs in zip(terms, tables)]
            _add_terms(flat[lo:lo + size].reshape(tuple(map(len, block)) + (-1,)),
                       terms, factors)
        lo += size
    return out


def certify_ellipticity(field, sample_count=4096, rng_seed=0):
    """Make the certificate of another sample the field's own and return it."""
    field.ellipticity = check_ellipticity(field, sample_count, rng_seed)
    return field.ellipticity


def _half_lattice(n_max, m):
    """Integer vectors 0 < ||n||_inf <= n_max in Z^m whose first nonzero entry is positive."""
    grid = _mesh_points([np.arange(-n_max, n_max + 1)] * m)
    grid = grid[np.any(grid != 0, axis=1)]
    first_nz = np.argmax(grid != 0, axis=1)
    return grid[grid[np.arange(len(grid)), first_nz] > 0]


def diophantine_scan(lams, n_max):
    """Brute-force the small-divisor bound |n.lambda| >= c0 |n|^{-tau}.

    Scans integer vectors 0 < ||n||_inf <= n_max, fits tau by log-log
    regression on the record-setting minima of |n.lambda| (new minima as
    ||n|| grows), and returns (c0_hat, tau_hat) with c0_hat the largest
    constant valid over the scanned range.  An exact relation raises
    :class:`ResonantFrequencies` with the smallest witness.
    """
    lams = np.asarray(lams, dtype=float).ravel()
    m = lams.size
    if m < 2:
        raise ValueError("need at least two frequencies")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    grid = _half_lattice(n_max, m)          # |n.lambda| is even in n
    dots = np.abs(grid @ lams)
    res_tol = 1e-12 * (1.0 + np.sum(np.abs(lams)) * n_max)
    resonant = dots <= res_tol
    if np.any(resonant):
        cand = grid[resonant]
        order = np.lexsort(tuple(cand[:, k] for k in reversed(range(m)))
                           + (np.max(np.abs(cand), axis=1),))
        raise ResonantFrequencies(cand[order[0]])
    norms = np.sqrt(np.sum(grid.astype(float) ** 2, axis=1))
    order = np.lexsort(tuple(grid[:, k] for k in reversed(range(m))) + (norms,))
    norms_s, dots_s = norms[order], dots[order]
    running = np.minimum.accumulate(dots_s)
    is_record = np.empty(len(dots_s), dtype=bool)
    is_record[0] = True
    is_record[1:] = dots_s[1:] < running[:-1]
    rec_n, rec_v = norms_s[is_record], dots_s[is_record]
    if rec_n.size >= 2:
        slope = np.polyfit(np.log(rec_n), np.log(rec_v), 1)[0]
        tau_hat = float(-slope)
    else:
        tau_hat = 0.0
    c0_hat = float(np.min(dots * norms ** tau_hat))
    return c0_hat, tau_hat


def modulus_of_continuity(field, delta, sample_count=4096):
    """Sampled sup of |B(s) - B(t)| over torus pairs with ||s - t||_inf <= delta,
    B from ``field.torus_form()`` (a field without one raises ValueError).

    Combines a regular torus grid with the extreme corner offsets
    (+-delta)^M and random offsets (seed 0); entrywise max-abs difference.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    form = field.torus_form()
    if form is None:
        raise ValueError(f"{type(field).__name__} has no torus form")
    M = len(form.lam)
    if M == 0:
        return 0.0                  # B is constant
    rng = np.random.default_rng(0)
    g = max(2, int(np.ceil(sample_count ** (1.0 / M))))
    base = _mesh_points([np.linspace(0.0, 1.0, g, endpoint=False)] * M)
    base = np.concatenate([base, rng.random((max(16, sample_count // 4), M))])
    offsets = [np.array(c, dtype=float) * delta for c in itertools.product((-1, 1), repeat=M)]
    offsets += list(rng.uniform(-delta, delta, size=(8, M)))
    # B itself: the form on the torus, with lam = I and no phase
    rule = _rule_terms(TorusForm(form.terms, np.eye(M), np.zeros(M)), ())
    tail = (field.d, field.d, field.m, field.m)
    b0 = _form_points(rule, base, tail)
    worst = 0.0
    for off in offsets:
        b1 = _form_points(rule, base + off, tail)
        worst = max(worst, float(np.max(np.abs(b1 - b0))))
    return worst


# ---------------------------------------------------------------------------
# stock fields used across tests and demos


def identity_field(d=1, m=1):
    return ConstantField(1.0, d=d, m=m)


def sine_scalar_field():
    """a(y) = 2 + sin(2 pi y) on the line; 1-periodic."""
    return TrigPolynomialField(1, 1, [
        (np.zeros(1), 2.0, 0.0),
        (np.ones(1), 0.0, 1.0),
    ])


def laminate_field():
    """a(y) = 2 + sin(2 pi y1) times the identity, d = 2."""
    return TrigPolynomialField(2, 1, [
        (np.zeros(2), as_tensor(2.0, 2, 1), 0.0),
        (np.array([1.0, 0.0]), 0.0, as_tensor(1.0, 2, 1)),
    ])


def golden_ratio_field():
    """Quasi-periodic scalar field 2 + cos(2 pi x) cos(2 pi phi x) on the line.

    B(t1, t2) = 2 + cos(2 pi t1) cos(2 pi t2) with the badly approximable
    frequency pair (1, phi).
    """
    return QuasiPeriodicField([[1.0, GOLDEN_RATIO]], 1, [
        (np.zeros(2), 2.0, 0.0),
        (np.array([1.0, 1.0]), 0.5, 0.0),
        (np.array([1.0, -1.0]), 0.5, 0.0),
    ])


# ---------------------------------------------------------------------------
# configuration I/O (JSON-compatible dictionaries)

# schema pieces, shared with the params schemas of the command line
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}


def _list_of(item):
    return {"type": "array", "minItems": 1, "items": item}


def _closed(required, properties):
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


# a JSON Schema (Draft 2020-12) checker of exactly the keywords the package's
# schemas use (FIELD_SCHEMAS below, cli's manifest and params schemas), with
# jsonschema's messages and the fault its best_match would pick
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum")}
_Fault = collections.namedtuple("_Fault", "path message")


def _json_equal(x, value):
    """JSON equality of ``x`` and a scalar enum or const value: 1 equals 1.0,
    but True is not 1."""
    return isinstance(x, bool) == isinstance(value, bool) and x == value


def _faults(schema, x, path):
    """Every fault of ``x`` under ``schema`` in jsonschema's order (keyword by
    keyword as the schema lists them), each at its JSON path tuple from ``path``.
    A keyword skips a value of a type it does not apply to."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    for key, v in schema.items():
        if key == "type":
            if not any(_TYPES[t](x) for t in types):
                yield _Fault(path, f"{x!r} is not of type {', '.join(map(repr, types))}")
        elif key == "enum":
            if not any(_json_equal(x, e) for e in v):
                yield _Fault(path, f"{x!r} is not one of {v!r}")
        elif key == "const":
            if not _json_equal(x, v):
                yield _Fault(path, f"{v!r} was expected")
        elif key in _BOUNDS:
            breaks, words = _BOUNDS[key]
            if _TYPES["number"](x) and breaks(x, v):
                yield _Fault(path, f"{x!r} is {words} of {v!r}")
        elif key == "minItems":
            if isinstance(x, list) and len(x) < v:
                yield _Fault(path, f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}")
        elif key == "items":
            for i, item in enumerate(x if isinstance(x, list) else ()):
                yield from _faults(v, item, (*path, i))
        elif key == "required":
            for name in (v if isinstance(x, dict) else ()):
                if name not in x:
                    yield _Fault(path, f"{name!r} is a required property")
        elif key == "properties":
            for name, sub in (v.items() if isinstance(x, dict) else ()):
                if name in x:
                    yield from _faults(sub, x[name], (*path, name))
        elif key == "additionalProperties" and v is False:
            known = schema.get("properties", {})
            extra = sorted((k for k in x if k not in known), key=str) if isinstance(x, dict) else []
            if extra:
                yield _Fault(path, f"Additional properties are not allowed "
                                   f"({', '.join(map(repr, extra))} "
                                   f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        else:
            raise NotImplementedError(f"schema keyword {key!r}: {v!r}")


def _relevance(f):
    # jsonschema's relevance: shallow before deep, then the later path
    return -len(f.path), f.path


def _check_schema(schema, obj, path):
    """Raise ValueError, naming its JSON path from ``path``, at the fault of
    ``obj`` that jsonschema's best_match would pick: the most relevant one, the
    first listed of those that tie."""
    best = max(_faults(schema, obj, ()), key=_relevance, default=None)
    if best is not None:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in best.path)
        raise ValueError(f"{path}{where}: {best.message}")


def _check_finite(obj, path):
    """Raise ValueError at the first NaN or infinity inside ``obj``; JSON Schema
    "number" admits both, and json.load reads them."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{path}: non-finite number {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


# one closed schema per field variant; a tensor's entries are _tensor_from_cfg's
_TERMS = {"type": "array", "items": _closed(["frequency", "cos", "sin"], {
    "frequency": _list_of({"type": "number"}), "cos": {}, "sin": {}})}


def _variant(required, **properties):
    return _closed(["variant", *required], {"variant": {}, "d": _COUNT, "m": _COUNT,
                                            **properties})


FIELD_SCHEMAS = {
    "constant": _variant(["value"], value={}),
    "trig_polynomial": _variant(["d", "m", "terms"], terms=_TERMS),
    "periodic_sampled": _variant(["period", "samples"], period=_list_of(_POSITIVE),
                                 order={"const": 1}, samples={}),
    "quasi_periodic": _variant(["d", "m", "layout", "torus_terms"], torus_terms=_TERMS,
                               layout=_list_of(_list_of({"type": "number"}))),
}
# a config's variant picks the schema its other keys are checked against
_VARIANT = {"type": "object", "required": ["variant"],
            "properties": {"variant": {"enum": list(FIELD_SCHEMAS)}}}


def _tensor_cfg(t):
    return np.asarray(t, dtype=float).tolist()


def _terms_cfg(terms):
    return [{"frequency": k.tolist(), "cos": _tensor_cfg(c), "sin": _tensor_cfg(s)}
            for k, c, s in terms]


def _check_entries(x, path):
    if isinstance(x, list):
        for i, v in enumerate(x):
            _check_entries(v, f"{path}[{i}]")
    elif isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{path}: tensor entries must be numbers, not {type(x).__name__}")


@contextlib.contextmanager
def _at(path):
    """Prefix a ValueError raised inside the block with the key's JSON path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _tensor_from_cfg(x, path, d=None, m=None):
    """A config's tensor as floats: nested lists of numbers of one shape, and
    with ``d`` and ``m`` given, as_tensor's (d, d, m, m) tensor.  A boolean or
    a string, which numpy would read as 1.0 or parse, is refused."""
    _check_entries(x, path)
    with _at(path):
        a = np.asarray(x, dtype=float)          # rows of different lengths raise here
        return a if d is None else as_tensor(a, d, m)


def _terms_from_cfg(items, path, dimension, d, m):
    """A config's (frequency, cos, sin) terms in the shapes the field takes."""
    terms = []
    for n, t in enumerate(items):
        with _at(f"{path}[{n}].frequency"):
            k = np.asarray(t["frequency"], dtype=float).reshape(dimension)
        terms.append((k, *(_tensor_from_cfg(t[key], f"{path}[{n}].{key}", d, m)
                           for key in ("cos", "sin"))))
    return terms


def field_to_config(field):
    if isinstance(field, ConstantField):
        return {"variant": "constant", "d": field.d, "m": field.m,
                "value": _tensor_cfg(field.value)}
    if isinstance(field, TrigPolynomialField):
        return {"variant": "trig_polynomial", "d": field.d, "m": field.m,
                "terms": _terms_cfg(field.terms)}
    if isinstance(field, PeriodicSampledField):
        return {"variant": "periodic_sampled", "d": field.d, "m": field.m,
                "period": field.period.tolist(), "order": 1,
                "samples": field.samples.tolist()}
    if isinstance(field, QuasiPeriodicField):
        return {"variant": "quasi_periodic", "d": field.d, "m": field.m,
                "layout": [f.tolist() for f in field.layout],
                "torus_terms": _terms_cfg(field.terms)}
    raise ValueError(f"cannot serialize field of type {type(field).__name__}")


def field_from_config(cfg):
    """Build a field from its JSON-compatible configuration dictionary.

    Raises ValueError, naming the key's JSON path from ``field``, for a config
    that ``FIELD_SCHEMAS`` refuses (an unknown, missing or mistyped key, an
    unknown variant, an ``order`` other than 1), that holds a NaN or infinity,
    a tensor entry that is not a number, or a tensor, frequency, samples or
    period of the wrong shape, or that states a ``d`` or ``m`` that is not the
    built field's.
    """
    _check_schema(_VARIANT, cfg, "field")
    _check_schema(FIELD_SCHEMAS[cfg["variant"]], cfg, "field")
    _check_finite(cfg, "field")
    field = _field_from_config(cfg)
    for key in ("d", "m"):
        _check_stated(cfg, key, getattr(field, key))
    return field


def _check_stated(cfg, key, value):
    if key in cfg and cfg[key] != value:
        raise ValueError(f"field.{key}: the config states {key} = {cfg[key]} but its "
                         f"field has {key} = {value}")


def _field_from_config(cfg):
    variant = cfg["variant"]
    if variant == "constant":
        value = _tensor_from_cfg(cfg["value"], "field.value")
        with _at("field.value"):
            return ConstantField(value, d=cfg.get("d"), m=cfg.get("m"))
    if variant == "periodic_sampled":
        samples = _tensor_from_cfg(cfg["samples"], "field.samples")
        with _at("field.samples"):
            d, _ = _lattice(samples)
        with _at("field.period"):
            period = np.asarray(cfg["period"], dtype=float).reshape(d)
        return PeriodicSampledField(period, samples)
    d, m = int(cfg["d"]), int(cfg["m"])
    if variant == "trig_polynomial":
        return TrigPolynomialField(d, m, _terms_from_cfg(cfg["terms"], "field.terms", d, d, m))
    with _at("field.layout"):
        layout = _layout(cfg["layout"])
    terms = _terms_from_cfg(cfg["torus_terms"], "field.torus_terms",
                            sum(f.size for f in layout), d, m)
    _check_stated(cfg, "d", len(layout))      # the terms' tensors are (d, d, m, m)
    with _at("field.torus_terms"):
        return QuasiPeriodicField(layout, m, terms)
