"""Uniform box grids and grid functions.

Nodes are vertex-centered.  A Dirichlet grid with ``cells`` cells per axis
carries ``cells + 1`` nodes per axis including the boundary; a periodic
grid carries ``cells`` nodes (the right/top edge wraps).  Grid functions
hold ``m`` components as an array of shape ``(m, *nodes)``.

Binary serialization layout (little endian):

    magic  b"APGF"          4 bytes
    version                 uint32 (= 1)
    d, m                    uint32, uint32
    bc                      uint32 (0 = dirichlet0, 1 = periodic)
    lo[0..d), hi[0..d)      float64 each
    cells[0..d)             uint64 each
    values                  float64, C order, shape (m, *nodes)
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

DIRICHLET = "dirichlet0"
PERIODIC = "periodic"

_MAGIC = b"APGF"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis lower/upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).ravel())
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).ravel())
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("box needs lo < hi per axis")

    @property
    def dimension(self):
        return self.lo.size

    @property
    def sides(self):
        return self.hi - self.lo

    @property
    def volume(self):
        return float(np.prod(self.sides))

    def contains(self, other):
        """Whether ``other`` lies inside, up to 1e-9 per side."""
        return bool(np.all(other.lo >= self.lo - 1e-9) and np.all(other.hi <= self.hi + 1e-9))

    @staticmethod
    def cube(side, center=None, d=1):
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float).ravel()
        h = 0.5 * float(side)
        return Box(c - h, c + h)


class BoxGrid:
    """Uniform tensor-product grid on a box with a boundary-condition tag."""

    def __init__(self, box, cells, bc=DIRICHLET):
        if bc not in (DIRICHLET, PERIODIC):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.box = box
        self.cells = np.asarray(cells, dtype=int).ravel()
        if self.cells.size != box.dimension:
            raise ValueError("cells must give one count per axis")
        if np.any(self.cells < 4):
            raise ValueError("need at least 4 cells per axis")
        self.bc = bc
        self.h = box.sides / self.cells

    @property
    def d(self):
        return self.box.dimension

    @property
    def node_counts(self):
        extra = 0 if self.bc == PERIODIC else 1
        return tuple(int(n) + extra for n in self.cells)

    @property
    def node_total(self):
        return int(np.prod(self.node_counts))

    def axis_nodes(self, ax):
        n = self.node_counts[ax]
        return self.box.lo[ax] + self.h[ax] * np.arange(n)

    def node_mesh(self):
        axes = [self.axis_nodes(ax) for ax in range(self.d)]
        return np.meshgrid(*axes, indexing="ij")

    def node_points(self):
        mesh = self.node_mesh()
        return np.stack([g.ravel() for g in mesh], axis=1)

    def face_shape(self, ax):
        """Index shape of the faces normal to ``ax``: cells along ax, nodes across."""
        return tuple(int(self.cells[a]) if a == ax else n
                     for a, n in enumerate(self.node_counts))

    def face_points(self, ax):
        """Face centers for faces normal to axis ``ax``: midpoints along ax."""
        shape = self.face_shape(ax)
        axes = [self.axis_nodes(a)[:n] + 0.5 * self.h[a] if a == ax else self.axis_nodes(a)
                for a, n in enumerate(shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1), shape

    def trapezoid_weights(self, sls=None):
        """Trapezoid weights per node of the grid or of the sub-box ``sls``.

        Over the whole grid the total equals the box volume (periodic axes
        have no end nodes to halve); a tuple of index slices always halves
        its end nodes.
        """
        halve_ends = sls is not None or self.bc == DIRICHLET
        sls = (slice(None),) * self.d if sls is None else sls
        w = np.ones(())
        for ax, s in enumerate(sls):
            wa = np.full(len(range(*s.indices(self.node_counts[ax]))), self.h[ax])
            if halve_ends:
                wa[0] *= 0.5
                wa[-1] *= 0.5
            w = np.multiply.outer(w, wa)
        return w

    def interior_mask(self):
        mask = np.ones(self.node_counts, dtype=bool)
        if self.bc == DIRICHLET:
            for ax in range(self.d):
                sl = [slice(None)] * self.d
                sl[ax] = 0
                mask[tuple(sl)] = False
                sl[ax] = -1
                mask[tuple(sl)] = False
        return mask

    def window_slices(self, window):
        """Node index slices covering ``window``, snapped outward to nodes."""
        if not self.box.contains(window):
            raise ValueError("window not contained in the grid box")
        sls = []
        for ax in range(self.d):
            i0 = int(np.floor((window.lo[ax] - self.box.lo[ax]) / self.h[ax] + 1e-9))
            i1 = int(np.ceil((window.hi[ax] - self.box.lo[ax]) / self.h[ax] - 1e-9))
            n = self.node_counts[ax]
            i0 = max(0, min(i0, n - 2))
            i1 = max(i0 + 1, min(i1, n - 1))
            sls.append(slice(i0, i1 + 1))
        return tuple(sls)

    def __eq__(self, other):
        return (isinstance(other, BoxGrid) and self.bc == other.bc
                and np.array_equal(self.cells, other.cells)
                and np.allclose(self.box.lo, other.box.lo)
                and np.allclose(self.box.hi, other.box.hi))


@dataclass
class GridFunction:
    """m-component function sampled at the nodes of a BoxGrid."""

    grid: BoxGrid
    values: np.ndarray
    # operators.SolveInfo when the function is a solver's output, else None
    solve_info: object = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.grid.node_counts
        if self.values.shape == expected:
            self.values = self.values[None, ...]
        if self.values.shape[1:] != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match nodes {expected}")

    @property
    def m(self):
        return self.values.shape[0]

    @staticmethod
    def zeros(grid):
        """The scalar zero function on ``grid``."""
        return GridFunction(grid, np.zeros((1,) + grid.node_counts))

    def interpolate(self, points):
        """Multilinear interpolation; periodic grids wrap the coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.grid
        rel = (pts - g.box.lo) / g.h
        if g.bc == PERIODIC:
            rel = rel % g.cells
        else:
            rel = np.clip(rel, 0.0, np.asarray(g.cells, dtype=float))
        base = np.floor(rel).astype(int)
        base = np.minimum(base, np.asarray(g.cells) - 1)
        w = rel - base
        out = np.zeros((self.m, pts.shape[0]))
        for corner in itertools.product((0, 1), repeat=g.d):
            idx = []
            weight = np.ones(pts.shape[0])
            for ax in range(g.d):
                ia = base[:, ax] + corner[ax]
                if g.bc == PERIODIC:
                    ia = ia % g.cells[ax]
                idx.append(ia)
                weight = weight * (w[:, ax] if corner[ax] else 1.0 - w[:, ax])
            out += weight * self.values[(slice(None), *idx)]
        return out


# ---------------------------------------------------------------------------
# differences and norms


def face_differences(u, ax):
    """Normal differences at faces orthogonal to ``ax``: (u_next - u_this)/h."""
    vals, g = u.values, u.grid
    if g.bc == PERIODIC:
        vals = np.concatenate([vals, np.take(vals, [0], axis=1 + ax)], axis=1 + ax)
    return np.diff(vals, axis=1 + ax) / g.h[ax]


def centered_gradient(u):
    """Node-centered gradient, one-sided at Dirichlet boundaries.

    Returns an array of shape (d, m, *nodes).
    """
    vals, g = u.values, u.grid
    out = np.empty((g.d,) + vals.shape)
    for ax in range(g.d):
        if g.bc == PERIODIC:
            out[ax] = (np.roll(vals, -1, axis=1 + ax) - np.roll(vals, 1, axis=1 + ax)) \
                / (2.0 * g.h[ax])
        else:
            out[ax] = np.gradient(vals, g.h[ax], axis=1 + ax, edge_order=2)
    return out


def window_mean(u, window=None):
    """Trapezoid-consistent volume average per component over a window."""
    g = u.grid
    sls = None if window is None else g.window_slices(window)
    w = g.trapezoid_weights(sls)
    vals = u.values if sls is None else u.values[(slice(None), *sls)]
    total = float(np.sum(w))
    return np.tensordot(vals, w, axes=(tuple(range(1, vals.ndim)), tuple(range(w.ndim)))) / total


def norms(u, kind, window=None):
    """L2 / H1 / Linf norms with trapezoid (L2) and face-midpoint (H1) quadrature."""
    g = u.grid
    if window is not None:
        sls = g.window_slices(window)
    if kind == "Linf":
        vals = u.values if window is None else u.values[(slice(None), *sls)]
        return float(np.max(np.abs(vals)))
    if kind == "L2":
        if window is None:
            w = g.trapezoid_weights()
            return float(np.sqrt(np.sum(w * np.sum(u.values ** 2, axis=0))))
        sq = window_mean(GridFunction(g, np.sum(u.values ** 2, axis=0)[None]), window)[0]
        vol = Box(np.array([g.axis_nodes(ax)[sls[ax].start] for ax in range(g.d)]),
                  np.array([g.axis_nodes(ax)[sls[ax].stop - 1] for ax in range(g.d)])).volume
        return float(np.sqrt(max(sq, 0.0) * vol))
    if kind == "H1":
        l2 = norms(u, "L2", window)
        semi_sq = 0.0
        cell_vol = float(np.prod(g.h))
        for ax in range(g.d):
            fd = face_differences(u, ax)
            if window is not None:
                fsl = [slice(None)]
                for a in range(g.d):
                    s = sls[a]
                    fsl.append(slice(s.start, s.stop - 1) if a == ax else s)
                fd = fd[tuple(fsl)]
            semi_sq += float(np.sum(fd ** 2)) * cell_vol
        return float(np.sqrt(l2 ** 2 + semi_sq))
    raise ValueError(f"unknown norm kind {kind!r}")


def holder_seminorm(u, sigma, pair_budget=4096, rng_seed=0, window=None):
    """Sampled Hoelder seminorm sup |u(x)-u(y)| / |x-y|^sigma.

    Includes every nearest-neighbor pair, the window corner pairs, and a
    random pair sample up to ``pair_budget``.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    g = u.grid
    sls = g.window_slices(window) if window is not None else tuple(
        slice(0, n) for n in g.node_counts)
    vals = u.values[(slice(None), *sls)]
    shape = vals.shape[1:]
    best = 0.0
    # nearest neighbors
    for ax in range(g.d):
        diff = np.sqrt(np.sum(np.diff(vals, axis=1 + ax) ** 2, axis=0))
        best = max(best, float(np.max(diff)) / g.h[ax] ** sigma)
    # random pairs plus box corners
    rng = np.random.default_rng(rng_seed)
    flat = vals.reshape(vals.shape[0], -1)
    n_nodes = flat.shape[1]
    axes_nodes = [g.axis_nodes(ax)[sls[ax]] for ax in range(g.d)]
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    corner_ids = []
    for corner in np.ndindex(*(2,) * g.d):
        idx = tuple((0 if c == 0 else shape[ax] - 1) for ax, c in enumerate(corner))
        corner_ids.append(np.ravel_multi_index(idx, shape))
    ia = np.concatenate([rng.integers(0, n_nodes, pair_budget), np.array(corner_ids)])
    ib = np.concatenate([rng.integers(0, n_nodes, pair_budget),
                         np.array(corner_ids[::-1])])
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    if ia.size:
        dist = np.sqrt(np.sum((coords[ia] - coords[ib]) ** 2, axis=1))
        diff = np.sqrt(np.sum((flat[:, ia] - flat[:, ib]) ** 2, axis=0))
        best = max(best, float(np.max(diff / dist ** sigma)))
    return best


# ---------------------------------------------------------------------------
# serialization


def save_grid_function(u, path):
    g = u.grid
    bc_code = 1 if g.bc == PERIODIC else 0
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIII", 1, g.d, u.m, bc_code))
        f.write(struct.pack(f"<{g.d}d", *g.box.lo))
        f.write(struct.pack(f"<{g.d}d", *g.box.hi))
        f.write(struct.pack(f"<{g.d}Q", *[int(c) for c in g.cells]))
        f.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_grid_function(path):
    """Read a grid function; a malformed header or payload raises ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a grid-function file")
    if len(data) < 20:
        raise ValueError("truncated grid-function header")
    version, d, m, bc_code = struct.unpack_from("<IIII", data, 4)
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    if d < 1 or m < 1 or bc_code not in (0, 1):
        raise ValueError(f"invalid header: d={d}, m={m}, bc code {bc_code}")
    offset = 20 + 24 * d
    if len(data) < offset:
        raise ValueError("truncated grid-function header")
    lo = struct.unpack_from(f"<{d}d", data, 20)
    hi = struct.unpack_from(f"<{d}d", data, 20 + 8 * d)
    cells = struct.unpack_from(f"<{d}Q", data, 20 + 16 * d)
    nodes = tuple(c + (1 - bc_code) for c in cells)
    if len(data) - offset != 8 * m * math.prod(nodes):
        raise ValueError(f"payload of {len(data) - offset} bytes does not hold "
                         f"{m} x {nodes} float64 values")
    grid = BoxGrid(Box(lo, hi), cells, PERIODIC if bc_code else DIRICHLET)
    raw = np.frombuffer(data, dtype="<f8", offset=offset)
    return GridFunction(grid, raw.reshape((m,) + grid.node_counts).copy())


def grid_function_to_csv(u, path):
    """Node table: one row per node, coordinates then component values."""
    g = u.grid
    pts = g.node_points()
    flat = u.values.reshape(u.m, -1).T
    header = ",".join([f"x{i}" for i in range(g.d)] + [f"u{a}" for a in range(u.m)])
    table = np.hstack([pts, flat])
    np.savetxt(path, table, delimiter=",", header=header, comments="")
