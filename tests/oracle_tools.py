"""Independent oracles: quadrature, enumeration, and brute-force search.

Everything here avoids the package's discrete operators on purpose; the
tests compare the production paths against these.  Two small shared test
helpers sit at the end: a d = 2, m = 2 test field and an evaluate counter.
"""

import itertools

import numpy as np

from aphomog import fields as F
from aphomog.grids import Box


def scalar_profile(field, xs):
    return field.evaluate(np.asarray(xs, dtype=float)[:, None])[:, 0, 0, 0, 0]


def harmonic_mean_1d(field, n=1 << 16):
    """<1/a>^-1 over one period by midpoint quadrature."""
    t = (np.arange(n) + 0.5) / n
    return 1.0 / np.mean(1.0 / scalar_profile(field, t))


def exact_corrector_1d(field, xs, n=1 << 16):
    """Mean-zero periodic corrector: chi' = abar/a - 1 by quadrature."""
    t = (np.arange(n) + 0.5) / n
    a = scalar_profile(field, t)
    abar = 1.0 / np.mean(1.0 / a)
    slope = abar / a - 1.0
    cum = np.concatenate([[0.0], np.cumsum(slope) / n])
    grid = np.arange(n + 1) / n
    cum -= np.mean(cum[:-1] + 0.5 * np.diff(cum))
    return np.interp(np.asarray(xs) % 1.0, grid, cum)


def dirichlet_1d_quadrature(field, eps, xs, n=1 << 16):
    """-(a(x/eps) u')' = 1 on (0,1), zero trace, by quadrature."""
    t = (np.arange(n) + 0.5) / n
    inv_a = 1.0 / scalar_profile(field, t / eps)
    c = np.sum(t * inv_a) / np.sum(inv_a)
    integrand = (c - t) * inv_a / n
    cum = np.concatenate([[0.0], np.cumsum(integrand)])
    return np.interp(xs, np.arange(n + 1) / n, cum)


def brute_discrepancy(points):
    """Direct enumeration over all corner-candidate boxes (tiny sets only)."""
    pts = np.atleast_2d(points)
    n, m = pts.shape
    cands = [np.unique(np.concatenate([pts[:, k], [-0.5, 0.5]])) for k in range(m)]
    best = 0.0
    if m == 1:
        xs = cands[0]
        for i, a in enumerate(xs):
            for b in xs[i:]:
                closed = np.sum((pts[:, 0] >= a) & (pts[:, 0] <= b)) / n
                opened = np.sum((pts[:, 0] > a) & (pts[:, 0] < b)) / n
                vol = b - a
                best = max(best, closed - vol, vol - opened)
        return best
    xs, ys = cands
    for i, a in enumerate(xs):
        for b in xs[i:]:
            in_x_c = (pts[:, 0] >= a) & (pts[:, 0] <= b)
            in_x_o = (pts[:, 0] > a) & (pts[:, 0] < b)
            for j, c in enumerate(ys):
                for d in ys[j:]:
                    vol = (b - a) * (d - c)
                    closed = np.sum(in_x_c & (pts[:, 1] >= c) & (pts[:, 1] <= d)) / n
                    opened = np.sum(in_x_o & (pts[:, 1] > c) & (pts[:, 1] < d)) / n
                    best = max(best, closed - vol, vol - opened)
    return best


def brute_covering_radius(points, grid=512):
    """Torus covering radius in the sup norm by dense grid probing."""
    pts = np.atleast_2d(points)
    m = pts.shape[1]
    axes = [np.linspace(-0.5, 0.5, grid, endpoint=False)] * m
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    best = 0.0
    for chunk in np.array_split(probes, max(1, len(probes) // 4096)):
        diff = np.abs(chunk[:, None, :] - pts[None, :, :])
        diff = np.minimum(diff, 1.0 - diff)
        dmin = np.max(diff, axis=2).min(axis=1)
        best = max(best, float(dmin.max()))
    return best


def brute_rho_ladder(field, R_list, y_samples, test_points, rng_seed,
                     z_grid_spacing=None, norm="inf"):
    """rho_ladder's sampled definition as a plain loop.

    Same y and test samples as ``rho_ladder``; every rung rescans its whole
    z grid with one ``evaluate`` call per shift and compares every (y, z)
    pair over every test point.
    """
    d = field.d
    rng = np.random.default_rng(rng_seed)
    y_box = Box.cube(32.0 * max(float(R_list[-1]), 1.0), d=d)
    test_box = Box.cube(32.0, d=d)
    ys = rng.uniform(y_box.lo, y_box.hi, size=(y_samples, d))
    tpts = rng.uniform(test_box.lo, test_box.hi, size=(test_points, d))
    ay = [field.evaluate(tpts + y) for y in ys]
    best = np.full(y_samples, np.inf)
    values = []
    for R in np.asarray(R_list, dtype=float):
        spacing = R / 64 if z_grid_spacing is None else z_grid_spacing
        axis = np.arange(-R, R + spacing * 0.5, spacing)
        for z in itertools.product(axis, repeat=d):
            z = np.array(z)
            if norm == "euclid" and np.sqrt(np.sum(z ** 2)) > R + 1e-12:
                continue
            az = field.evaluate(tpts + z)
            for i in range(y_samples):
                best[i] = min(best[i], np.max(np.abs(ay[i] - az)))
        values.append(np.max(best))
    return np.array(values)


def cross_term_system():
    """d = 2, m = 2 nonsymmetric field with cross blocks a_12, a_21 != 0."""
    base, wc, ws = (np.zeros((2, 2, 2, 2)) for _ in range(3))
    for i in range(2):
        base[i, i] = [[2.0, 0.2], [0.1, 2.5]]
    base[0, 1] = [[0.3, 0.1], [0.0, 0.2]]
    base[1, 0] = [[0.1, 0.0], [0.05, 0.1]]
    wc[0, 0] = [[0.3, 0.0], [0.1, 0.2]]
    wc[0, 1] = [[0.0, 0.05], [0.0, 0.0]]
    ws[1, 1] = [[0.2, 0.1], [0.0, 0.3]]
    ws[1, 0] = [[0.0, 0.0], [0.07, 0.0]]
    zero = np.zeros((2, 2, 2, 2))
    f = F.TrigPolynomialField(2, 2, [(np.zeros(2), base, zero),
                                     (np.array([1.0, 0.0]), wc, zero),
                                     (np.array([0.0, 1.0]), zero, ws)])
    F.certify_ellipticity(f, rng_seed=0)
    return f


def count_evaluate(field):
    """Count calls through an instance-level wrapper of ``field.evaluate``."""
    calls = []
    inner = field.evaluate

    def counting(points):
        calls.append(len(points))
        return inner(points)

    field.evaluate = counting
    return calls
