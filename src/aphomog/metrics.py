"""Almost-periodicity moduli, Kronecker orbits, and discrepancy.

Quantities measured here:

* ``rho_ladder``: the translation modulus
  sup_y inf_{|z| <= R} sup_x |A(x+y) - A(x+z)| on a ladder of radii R,
  sampled with explicit, reported budgets (the sup-inf-sup ranges over
  continua and is not exactly computable).
* ``theta_quasi``: covering radius of a wrapped Kronecker orbit on the
  m-torus, the link between orbit equidistribution and the modulus above.
* ``discrepancy_exact`` / ``etk_bound``: exact box discrepancy for m <= 2
  and the Erdos-Turan-Koksma exponential-sum bound for any m.
* ``compute_Theta``: the derived rate function
  inf_{0 < R <= T} { rho(R) + (R/T)^sigma }.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import UnsupportedDimension
from .fields import _half_lattice
from .grids import Box, _mesh_points

RHO_DEFAULT_BUDGETS = {"y_samples": 64, "z_per_axis": 64, "test_points": 4096}
# rho_ladder builds and compares tables in batches of at most
# _RHO_BATCH_ENTRIES float64 entries (2 MB; a table needs one scratch array of
# its size).  The sup over the first _RHO_PROBE_POINTS test points prunes z
# shifts; a probe batch holds as many shifts as a probe of
# _RHO_PROBE_BATCH_POINTS points would fit in one batch, which caps the
# survivors' full table of a batch.  The bench rho ladder (golden field,
# 1024 test points, 64 y) took 10.4 ms with these values on a 2-core x86 VM,
# and 9.2 to 11.7 ms over 2^17 to 2^20 entries whenever a probe batch held 32
# to 512 shifts; fewer shifts per probe batch pay more calls (up to 76 ms),
# and larger batches more peak memory (2.9 MB here, 19.7 MB at 2^20 entries).
_RHO_BATCH_ENTRIES = 1 << 18
_RHO_PROBE_POINTS = 16
_RHO_PROBE_BATCH_POINTS = 64
# The probe bound starts from the first _RHO_CASCADE_POINTS test points; on
# the bench rho ladder the first 2 settle 97.8 % of the (z, y) pairs.
_RHO_CASCADE_POINTS = 2
# covering_radius refines a probe grid of _COVER_START points per axis,
# doubling it until the value moves by less than _COVER_REL_TOL or the next
# grid would exceed _COVER_MAX points per axis.
_COVER_START = 65
_COVER_REL_TOL = 0.05
_COVER_MAX = 4097
# etk_bound: the dimension constant of the Erdos-Turan-Koksma inequality
# (4, validated against exact discrepancies for m <= 2 in the test suite),
# and the number of frequencies per vectorized block.
_ETK_CONSTANT = 4.0
_ETK_CHUNK = 2048

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# decay reports


@dataclass
class DecayReport:
    """(parameter, value) samples of a decaying quantity plus a log-log fit."""

    parameters: np.ndarray
    values: np.ndarray
    kind: str
    fitted_exponent: float = None
    fit_quality: float = None
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=float).ravel()
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.parameters.size != self.values.size:
            raise ValueError("parameter/value length mismatch")
        if np.any(np.diff(self.parameters) <= 0):
            raise ValueError("parameters must be strictly increasing")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("values must be finite and nonnegative")

    def fit(self):
        exponent, quality = fit_decay_exponent(self)
        self.fitted_exponent = exponent
        self.fit_quality = quality
        return exponent, quality

    def as_dict(self):
        return {
            "kind": self.kind,
            "parameters": self.parameters.tolist(),
            "values": self.values.tolist(),
            "fitted_exponent": self.fitted_exponent,
            "fit_quality": self.fit_quality,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_dict(d):
        return DecayReport(np.asarray(d["parameters"]), np.asarray(d["values"]),
                           d["kind"], d.get("fitted_exponent"),
                           d.get("fit_quality"), d.get("metadata", {}))

    def to_csv(self, path):
        table = np.stack([self.parameters, self.values], axis=1)
        np.savetxt(path, table, delimiter=",", header="parameter,value", comments="")


def fit_decay_exponent(report):
    """Least-squares slope in log-log coordinates with R^2 quality."""
    p, v = report.parameters, report.values
    if p.size < 3:
        raise ValueError("need at least 3 samples in the fit window")
    if np.any(v <= 0):
        raise ValueError("nonpositive values in the fit window")
    lx, ly = np.log(p), np.log(v)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    quality = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(quality)


# ---------------------------------------------------------------------------
# point sets on the centered torus cube


def fractional_part(x):
    """Signed fractional part in [-1/2, 1/2)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


@dataclass
class PointSet:
    """Finite subset of [-1/2, 1/2]^m, optionally Kronecker-generated."""

    points: np.ndarray
    provenance: dict = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if np.any(np.abs(self.points) > 0.5 + 1e-12):
            raise ValueError("points must lie in [-1/2, 1/2]^m")

    @property
    def dimension(self):
        return self.points.shape[1]

    @property
    def size(self):
        return self.points.shape[0]


def kronecker_point_set(lams, R, ell):
    """Wrapped orbit points <t * lambda> for t = j + k/ell, -R <= j < R.

    N = 2 R ell points on the torus cube of dimension len(lams).
    """
    lams = np.asarray(lams, dtype=float).ravel()
    R, ell = int(R), int(ell)
    if R < 1 or ell < 1:
        raise ValueError("need R >= 1 and ell >= 1")
    t = (np.arange(-R * ell, R * ell) / ell)
    pts = fractional_part(np.outer(t, lams))
    return PointSet(pts, provenance={"lambda": lams.tolist(), "R": R, "ell": ell})


def _covering_radius_1d(pts):
    x = np.sort(pts.ravel())
    if x.size == 1:
        return 0.5
    gaps = np.diff(x)
    wrap = x[0] + 1.0 - x[-1]
    return 0.5 * float(max(np.max(gaps), wrap))


def covering_radius(points):
    """Farthest-point torus distance from [-1/2, 1/2]^m to the set (sup norm).

    Distances wrap around the torus, so the two representatives of a
    boundary coordinate count as one point.  Grid-based search; the probe
    grid is refined until the value changes by less than 5 percent and
    the resolution is at least a factor 4 finer than the answer.  A finer
    grid queries only the probes that can still hold its max, so every
    level's value equals the max over its full grid bit for bit.
    """
    from scipy.spatial import cKDTree      # the only user of scipy.spatial

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[1]
    if m == 1:
        return _covering_radius_1d(pts)
    tree = cKDTree((pts + 0.5) % 1.0, boxsize=1.0)
    g = _COVER_START
    prev = None
    # upper bounds of the distance at every probe of the current grid: exact
    # where queried, else the parent probe's bound plus the fine spacing, the
    # sup-norm offset to the parent (the distance is 1-Lipschitz).  The coarse grid is a
    # subgrid of the fine one, so the coarse max bounds the fine max from
    # below and only probes whose bound reaches it are queried.
    bound = np.full((g,) * m, np.inf)
    floor = -np.inf
    while True:
        axis = np.linspace(0.0, 1.0, g, endpoint=False)
        idx = np.nonzero(bound >= floor)
        probes = np.stack([axis[i] for i in idx], axis=-1)
        dists, _ = tree.query(probes, k=1, p=np.inf)
        bound[idx] = dists
        val = float(np.max(dists))
        spacing = 1.0 / g
        fine_enough = spacing <= val / 4.0 if val > 0 else True
        stable = prev is not None and abs(val - prev) <= _COVER_REL_TOL * max(val, 1e-300)
        if (fine_enough and stable) or 2 * g > _COVER_MAX:
            # probe-grid maxima undershoot by at most half a probe spacing
            return val
        prev = val
        g = 2 * g
        for ax in range(m):
            bound = np.repeat(bound, 2, axis=ax)
        bound += 1.0 / g + 1e-12
        floor = val - 1e-12


def theta_quasi(lams, R, ell):
    """Covering radius of the Kronecker orbit of one frequency direction.

    For a single frequency (m = 1) the exact sorted-gap value is returned;
    the continuum orbit covers the circle once R lambda ell spans it, so
    the limit value is 0 as the subdivision refines.
    """
    return covering_radius(kronecker_point_set(lams, R, ell).points)


def checked_radii(R_list):
    """``R_list`` as floats; raises ValueError, naming the bad value, unless it
    is a nonempty ladder of finite positive radii, strictly increasing."""
    R_list = np.asarray(R_list, dtype=float).ravel()
    if R_list.size == 0:
        raise ValueError("R ladder is empty")
    for R in R_list:
        if not (np.isfinite(R) and R > 0):
            raise ValueError(f"R ladder must be positive and finite, got R = {R}")
    for lo, hi in zip(R_list, R_list[1:]):
        if hi <= lo:
            raise ValueError(f"R ladder must be positive and strictly increasing, "
                             f"got R = {hi} after {lo}")
    return R_list


def checked_ells(ell, n_radii):
    """One int subdivision per radius from a single ``ell`` or a list of n_radii;
    raises ValueError, naming the bad value, unless each is a whole number >= 1."""
    ells = [ell] * n_radii if np.isscalar(ell) else list(ell)
    if len(ells) != n_radii:
        raise ValueError(f"ell has {len(ells)} values for {n_radii} radii")
    for e in ells:
        if isinstance(e, (bool, np.bool_)) or not (float(e).is_integer() and e >= 1):
            raise ValueError(f"ell must be a whole number >= 1, got ell = {e!r}")
    return [int(e) for e in ells]


def theta_ladder(lams, R_list, ell):
    """theta over an R ladder; ``ell`` may be one subdivision or one per R.

    The covering-radius estimate tracks the continuum quantity only when
    the subdivision refines with R (the orbit-sampling bound needs roughly
    ell ~ R^{2/(tau+1)}), so ladders usually pass a per-R list.
    """
    R_list = checked_radii(R_list)
    ells = checked_ells(ell, len(R_list))
    vals = [theta_quasi(lams, R, e) for R, e in zip(R_list, ells)]
    return DecayReport(R_list, vals, "theta",
                       metadata={"ell": ells, "lambda": list(np.ravel(lams))})


# ---------------------------------------------------------------------------
# exact discrepancy (m <= 2) and the exponential-sum bound


def _candidates(coords):
    return np.unique(np.concatenate([coords, [-0.5, 0.5]]))


def _disc_1d(points):
    x = np.sort(points.ravel())
    n = x.size
    c = _candidates(x)
    cle = np.searchsorted(x, c, side="right") / n
    clt = np.searchsorted(x, c, side="left") / n
    a1 = cle - c
    a2 = c - clt
    best_closed = float(np.max(a1 + np.maximum.accumulate(a2)))
    b1 = c - clt
    b2 = cle - c
    run = np.maximum.accumulate(b2)
    best_open = float(np.max(b1[1:] + run[:-1])) if c.size > 1 else 0.0
    return max(best_closed, best_open, 0.0)


def _disc_2d(points):
    pts = points
    # sweep over the axis with fewer distinct values
    if np.unique(pts[:, 1]).size < np.unique(pts[:, 0]).size:
        pts = pts[:, ::-1]
    n = pts.shape[0]
    xs = _candidates(pts[:, 0])
    ys = _candidates(pts[:, 1])
    kx, ky = xs.size, ys.size
    xi = np.searchsorted(xs, pts[:, 0])
    yi = np.searchsorted(ys, pts[:, 1])
    counts = np.zeros((kx, ky))
    np.add.at(counts, (xi, yi), 1.0)
    pp = np.zeros((kx + 1, ky + 1))
    pp[1:, 1:] = np.cumsum(np.cumsum(counts, axis=0), axis=1)
    best = 0.0
    for a in range(kx):
        # closed slabs [xs[a], xs[b]], b >= a
        cle = (pp[a + 1:, 1:] - pp[a, 1:][None, :]) / n
        clt = (pp[a + 1:, :-1] - pp[a, :-1][None, :]) / n
        lx = (xs[a:] - xs[a])[:, None]
        a1 = cle - lx * ys[None, :]
        a2 = lx * ys[None, :] - clt
        best = max(best, float(np.max(a1 + np.maximum.accumulate(a2, axis=1))))
        # open slabs (xs[a], xs[b]), b > a
        if a + 1 < kx:
            ole = (pp[a + 1:kx, 1:] - pp[a + 1, 1:][None, :]) / n
            olt = (pp[a + 1:kx, :-1] - pp[a + 1, :-1][None, :]) / n
            lxo = (xs[a + 1:] - xs[a])[:, None]
            b1 = lxo * ys[None, :] - olt
            b2 = ole - lxo * ys[None, :]
            run = np.maximum.accumulate(b2, axis=1)
            if ky > 1:
                best = max(best, float(np.max(b1[:, 1:] + run[:, :-1])))
    return best


def discrepancy_exact(pset):
    """Exact box discrepancy sup_B |count(B)/N - |B|| over axis boxes.

    The supremum over boxes B inside [-1/2, 1/2]^m is attained with corners
    at point coordinates or cube edges, in the closed (maximal count) or
    open (minimal count) limit; both are enumerated.  Supported for m <= 2.
    """
    if pset.size < 1:
        raise ValueError("need at least one point")
    if pset.dimension == 1:
        return _disc_1d(pset.points)
    if pset.dimension == 2:
        return _disc_2d(pset.points)
    raise UnsupportedDimension("exact discrepancy implemented for m <= 2; use etk_bound")


def etk_bound(pset, H):
    """Erdos-Turan-Koksma exponential-sum bound on the discrepancy.

    C * ( 1/H + sum_{0 < ||n||_inf <= H} |mean_x e^{2 pi i n.x}|
          / prod_k (1 + |n_k|) ),

    with the dimension constant C = 4 (``_ETK_CONSTANT``).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    ns = _half_lattice(H, pset.dimension)          # exploit |S(n)| = |S(-n)|
    total = 0.0
    pts = pset.points
    for start in range(0, len(ns), _ETK_CHUNK):
        block = ns[start:start + _ETK_CHUNK]
        phases = 2.0 * np.pi * (block.astype(float) @ pts.T)
        sums = np.abs(np.exp(1j * phases).mean(axis=1))
        weights = np.prod(1.0 + np.abs(block), axis=1)
        total += 2.0 * float(np.sum(sums / weights))
    return _ETK_CONSTANT * (1.0 / H + total)


def covering_from_discrepancy(D, m):
    """Covering-radius bound (1/2) D^(1/m) from the box discrepancy."""
    if not (0.0 <= D <= 1.0):
        raise ValueError("discrepancy must lie in [0, 1]")
    return 0.5 * D ** (1.0 / m)


# ---------------------------------------------------------------------------
# translation modulus rho and the rate function Theta


def _z_grid(R, spacing, d, norm):
    """Shifts -R + k spacing with |z| <= R: the cube's grid, clipped to the
    ball for ``euclid``.  The axis stops at k <= 2R / spacing, so it drops
    the shift past R that arange adds when the spacing does not divide 2R,
    and keeps a shift on R that arange's rounding puts a little above it
    (by more than 1e-12 once R is in the hundreds); the ball's clip has the
    same slack relative to R."""
    axis = np.arange(-R, R + spacing * 0.5, spacing)
    mesh = _mesh_points([axis[:int(2.0 * R / spacing * (1.0 + 1e-12)) + 1]] * d)
    if norm == "euclid" and d > 1:      # in 1D the ball is the clipped axis
        mesh = mesh[np.sqrt(np.sum(mesh ** 2, axis=1)) <= R * (1.0 + 1e-12)]
    return mesh


def _scan_order(n):
    """0, ..., n - 1 in bit-reversed (van der Corput) order, coarse to fine."""
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range((n - 1).bit_length()):
        rev = (rev << 1) | ((idx >> b) & 1)
    return np.argsort(rev)


def _dot(points, k):
    """points @ k as a sum of elementwise products along each row, so a row's
    value does not depend on the other rows (a BLAS product may split them)."""
    return np.sum(points * k, axis=1)


def _shift_tables(field, points):
    """(route, phases, table): phases(shifts) is the (width, len(shifts))
    array a table reads its shifts from, one column per shift, and
    table(ph, n) is the (ph.shape[1], n * entries) table of
    A(points[:n] + shift), one row per column of ``ph`` (a slice or an index
    array of the columns of a phases array), entries flattened.

    A field with a torus form A(x) = B(lam x + phase) takes the ``angle_sum``
    route.  A term (n, C, S) of B has the frequency k = lam^T n in x and
    the phase alpha(t) = 2 pi (k.t + n.phase) at test point t; by angle
    addition its value at t + s is cos(beta) P + sin(beta) Q with
    beta = 2 pi k.s, P = cos(alpha) C + sin(alpha) S and
    Q = cos(alpha) S - sin(alpha) C.  P and Q are computed once per test
    point, and ``phases`` computes cos(beta) and sin(beta) of each term with
    k != 0 (rows 2j and 2j + 1) once per shift.  A table adds these
    broadcast products term by term in a fixed order, with no BLAS call;
    ``_dot`` sums each shift's row on its own, so an entry depends neither
    on the phases array nor on the table it is read into, and the table of
    the first n points is the first columns of the full one.  Any other
    field takes the ``evaluate`` route: its phases are the shifts (d rows),
    and a table is one ``evaluate`` call.
    """
    form = field.torus_form()
    if form is None:
        def table(ph, n):
            pts = (points[:n][None] + ph.T[:, None]).reshape(-1, field.d)
            return field.evaluate(pts).reshape(ph.shape[1], -1)
        return "evaluate", lambda shifts: shifts.T, table
    entries = field.d ** 2 * field.m ** 2
    const = np.zeros(len(points) * entries)
    moving = []
    for n_j, c, s in form.terms:
        k = _dot(form.lam.T, n_j)
        alpha = 2.0 * np.pi * (_dot(points, k) + n_j @ form.phase)
        cos_a, sin_a = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
        p = (cos_a * c.ravel() + sin_a * s.ravel()).ravel()
        if np.any(k):
            moving.append((k, p, (cos_a * s.ravel() - sin_a * c.ravel()).ravel()))
        else:                   # cos 0 = 1 and sin 0 = 0: the term is P at every shift
            const += p

    def phases(shifts):
        ph = np.empty((2 * len(moving), shifts.shape[0]))
        for j, (k, _, _) in enumerate(moving):
            beta = 2.0 * np.pi * _dot(shifts, k)
            np.cos(beta, out=ph[2 * j])
            np.sin(beta, out=ph[2 * j + 1])
        return ph

    def table(ph, n):
        width = n * entries
        out = np.empty((ph.shape[1], width))
        out[:] = const[:width]
        tmp = np.empty_like(out)
        for (_, p_j, q_j), cos_b, sin_b in zip(moving, ph[0::2], ph[1::2]):
            out += np.multiply(cos_b[:, None], p_j[:width], out=tmp)
            out += np.multiply(sin_b[:, None], q_j[:width], out=tmp)
        return out
    return "angle_sum", phases, table


def _row_keys(zs):
    """One bytes key per row of ``zs``: equal keys mean equal shifts."""
    zs = np.ascontiguousarray(zs)
    return zs.view(np.dtype((np.void, zs.itemsize * zs.shape[1]))).ravel().tolist()


def rho_ladder(field, R_list, y_samples=None, z_grid_spacing=None, rng_seed=0,
               norm="inf", test_points=None):
    """Translation modulus on an increasing R ladder with shared samples.

    The same y and test samples serve every R and the z search set is
    cumulative over the ladder, which makes the reported values
    nonincreasing in R by construction.  The y samples fill the cube of side
    32 max(R_max, 1), the test points the cube of side 32.

    The values equal the plain scan over every (y, z, test point) triple
    of the same tables bit for bit; the scan only skips work that cannot
    change a min or a max.  A field with a torus form gets its tables by
    angle addition (``_shift_tables``), which differ from point evaluation
    by the rounding of the phases; any other field is evaluated point by
    point.  Each z shift is scanned once per ladder (a rung skips the z an
    earlier rung scanned), and a rung visits its new shifts coarse to fine,
    in bit-reversed (van der Corput) order of their grid index, so the
    running inf per y falls early.  The sup over the first 16 test points
    bounds the full sup from below: a z whose bound already reaches the
    running inf for every y is dropped before its full table is built,
    and a surviving z computes its full sup only for the y whose bound is
    still below the running inf when its turn comes.  The bound itself
    starts from the first 2 test points, a lower bound on it: only the
    (z, y) pairs still below the running inf take the max over the other
    14, so every decision is the one the 16-point bound makes.  A rung
    computes the shift phases of its new shifts once, in chunks of whole
    probe batches, and its probe and full tables read them.  The full
    tables are built per batch of survivors, so a survivor left with no
    such y has its table built and only its comparison skipped.  A
    survivor compares its y rows a batch at a time, so the scratch array
    holds one batch.
    """
    R_list = checked_radii(R_list)
    if norm not in ("inf", "euclid"):
        raise ValueError("norm must be 'inf' or 'euclid'")
    if z_grid_spacing is not None:
        z_grid_spacing = float(z_grid_spacing)
        if not (np.isfinite(z_grid_spacing) and z_grid_spacing > 0):
            raise ValueError("z_grid_spacing must be finite and positive")
    d = field.d
    y_samples = RHO_DEFAULT_BUDGETS["y_samples"] if y_samples is None else int(y_samples)
    test_points = RHO_DEFAULT_BUDGETS["test_points"] if test_points is None else int(test_points)
    if y_samples < 1 or test_points < 1:
        raise ValueError("sampling budgets must be positive")
    y_box = Box.cube(32.0 * max(float(R_list[-1]), 1.0), d=d)
    test_box = Box.cube(32.0, d=d)
    rng = np.random.default_rng(rng_seed)
    ys = rng.uniform(y_box.lo, y_box.hi, size=(y_samples, d))
    tpts = rng.uniform(test_box.lo, test_box.hi, size=(test_points, d))
    route, phases, table = _shift_tables(field, tpts)
    entries = d * d * field.m * field.m
    row = test_points * entries
    max_rows = max(1, _RHO_BATCH_ENTRIES // row)
    ay = np.empty((y_samples, row))
    for start in range(0, y_samples, max_rows):
        ay[start:start + max_rows] = table(phases(ys[start:start + max_rows]), test_points)

    # the sup over the first n_probe test points bounds the full sup from
    # below, so a (z, y) pair whose bound reaches best[y] cannot lower it;
    # the probe tables are test-point major, (n_probe entries, y) and
    # (n_probe entries, z), so the bound is a max over whole (z, y) planes.
    # Its first n_cut rows already settle most pairs: a pair whose partial
    # max reaches best[y] fails with the full bound too, since best only
    # falls, so only the others take the max over the remaining rows
    n_probe = min(_RHO_PROBE_POINTS, test_points)
    n_cut = min(_RHO_CASCADE_POINTS, n_probe) * entries
    ay_probe = ay[:, :n_probe * entries].T.copy()
    probe_rows = max(1, _RHO_BATCH_ENTRIES // (
        y_samples * min(_RHO_PROBE_BATCH_POINTS, test_points) * entries))
    # a rung's phases come in chunks of whole probe batches and, past one
    # batch, at most _RHO_BATCH_ENTRIES entries (the phases of no shift give
    # the number of rows)
    phase_rows = max(1, phases(ys[:0]).shape[0])
    chunk_rows = probe_rows * max(1, _RHO_BATCH_ENTRIES // (probe_rows * phase_rows))
    buf = np.empty((min(max_rows, y_samples), row))
    best = np.full(y_samples, np.inf)
    scanned = set()
    values = []
    spacings = []
    for R in R_list:
        spacing = (R / RHO_DEFAULT_BUDGETS["z_per_axis"]
                   if z_grid_spacing is None else z_grid_spacing)
        spacings.append(spacing)
        zs = _z_grid(R, spacing, d, norm)
        keys = _row_keys(zs)
        fresh = np.array([k not in scanned for k in keys], dtype=bool)
        zs = zs[fresh]
        zs = zs[_scan_order(len(zs))]
        scanned.update(keys)
        n_full = n_rows = 0
        for first in range(0, zs.shape[0], chunk_rows):
            ph = phases(zs[first:first + chunk_rows])
            for start in range(0, ph.shape[1], probe_rows):
                zb = ph[:, start:start + probe_rows]
                probe = table(zb, n_probe).T
                gap = ay_probe[:n_cut, None] - probe[:n_cut, :, None]
                np.abs(gap, out=gap)
                bound = gap.max(axis=0)
                if n_cut < ay_probe.shape[0]:
                    # flat pair p is (z, y) = divmod(p, y_samples)
                    pairs = (bound < best).ravel().nonzero()[0]
                    zi, yi = np.divmod(pairs, y_samples)
                    rest = ay_probe[n_cut:].take(yi, axis=1)
                    rest -= probe[n_cut:].take(zi, axis=1)
                    np.abs(rest, out=rest)
                    flat = bound.reshape(-1)
                    flat[pairs] = np.maximum(flat[pairs], rest.max(axis=0))
                survivors = (bound < best).any(axis=1).nonzero()[0]
                n_full += survivors.size
                for s in range(0, survivors.size, max_rows):
                    part = survivors[s:s + max_rows]
                    # sup over test points of |A(.+y) - A(.+z)| for the y whose
                    # bound is still below best[y], then inf over z
                    for k, az in zip(part, table(zb[:, part], test_points)):
                        rows = (bound[k] < best).nonzero()[0]
                        if rows.size == 0:
                            continue
                        n_rows += rows.size
                        for c in range(0, rows.size, max_rows):
                            chunk = rows[c:c + max_rows]
                            sub = buf[:chunk.size]
                            ay.take(chunk, axis=0, out=sub, mode="clip")
                            np.subtract(sub, az, out=sub)
                            np.abs(sub, out=sub)
                            best[chunk] = np.minimum(best[chunk], sub.max(axis=1))
        values.append(float(np.max(best)))
        log.info("rho_ladder R=%g spacing=%g new_shifts=%d full_shifts=%d "
                 "full_rows=%d rho=%.9g tables=%s",
                 R, spacing, zs.shape[0], n_full, n_rows, values[-1], route)
    return DecayReport(R_list, values, "rho", metadata={
        "norm": norm, "y_samples": y_samples, "test_points": test_points,
        "z_spacings": spacings, "rng_seed": rng_seed,
        "y_box": [y_box.lo.tolist(), y_box.hi.tolist()],
        "test_box": [test_box.lo.tolist(), test_box.hi.tolist()],
    })


def compute_Theta(rho_report, sigma, T, min_samples=4):
    """Rate function inf over 0 < R <= T of rho(R) + (R/T)^sigma.

    rho is interpolated monotonically (nonincreasing envelope, linear
    between samples) and minimized over a geometric R grid of 2048 points
    joined with the sample points at or below T.
    """
    if not (0.0 < sigma <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    p, v = rho_report.parameters, rho_report.values
    keep = p <= T * (1 + 1e-12)
    if np.count_nonzero(keep) < min_samples:
        raise ValueError("rho report must cover (0, T] with at least "
                         f"{min_samples} samples")
    p, v = p[keep], np.minimum.accumulate(v[keep])
    grid = np.geomspace(p[0], min(p[-1], T), 2048)
    grid = np.unique(np.concatenate([grid, p]))
    rho_i = np.interp(grid, p, v)
    return float(np.min(rho_i + (grid / T) ** sigma))


def theta_integral(rho_report, sigma, lower):
    """Trapezoid quadrature of Theta_sigma(r)/r from ``lower`` to the largest
    sampled R, on a geometric grid of 512 points.

    Returns (value, tail_estimate, tail_flag): the tail beyond the data is
    estimated from the fitted decay of Theta on the sampled range and
    flagged when it exceeds 10 percent of the finite part.
    """
    R_max = float(rho_report.parameters[-1])
    if lower >= R_max:
        raise ValueError("integral lower limit beyond sampled range")
    rs = np.geomspace(lower, R_max, 512)
    theta = np.array([compute_Theta(rho_report, sigma, r, min_samples=1) for r in rs])
    value = float(np.trapezoid(theta / rs, rs))
    fit_rep = DecayReport(rs, np.maximum(theta, 1e-300), "Theta_sigma")
    slope, _ = fit_decay_exponent(fit_rep)
    if slope < -1e-3:
        tail = float(theta[-1] / (-slope))
    else:
        tail = np.inf
    flag = not np.isfinite(tail) or tail > 0.1 * max(value, 1e-300)
    return value, tail, flag
