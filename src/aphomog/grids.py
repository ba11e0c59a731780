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
        if self.lo.shape != self.hi.shape or not np.all(
                np.isfinite(self.lo) & np.isfinite(self.hi) & (self.lo < self.hi)):
            raise ValueError("box needs finite lo < hi per axis")

    @property
    def dimension(self):
        return self.lo.size

    @property
    def sides(self):
        return self.hi - self.lo

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

    def slice_axes(self, sls):
        """Per-axis node coordinates of the index slices ``sls`` (one per axis)."""
        return [self.axis_nodes(ax)[s] for ax, s in enumerate(sls)]

    def slice_points(self, sls):
        """The nodes of the index slices ``sls`` (one per axis) as points (N, d), C order."""
        return _mesh_points(self.slice_axes(sls))

    def node_points(self):
        return self.slice_points((slice(None),) * self.d)

    def face_shape(self, ax):
        """Index shape of the faces normal to ``ax``: cells along ax, nodes across."""
        return tuple(int(self.cells[a]) if a == ax else n
                     for a, n in enumerate(self.node_counts))

    def face_axes(self, ax):
        """Per-axis center coordinates of the faces normal to ``ax``: midpoints along ax."""
        return [self.axis_nodes(a)[:n] + 0.5 * self.h[a] if a == ax else self.axis_nodes(a)
                for a, n in enumerate(self.face_shape(ax))]

    def face_points(self, ax):
        """Face centers for faces normal to axis ``ax`` as points, in ``face_shape(ax)`` order."""
        return _mesh_points(self.face_axes(ax))

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

    @property
    def unknowns(self):
        """Index slices of the nodes that carry unknowns: every node of the
        periodic cell, the interior nodes of a Dirichlet box."""
        return (slice(None) if self.bc == PERIODIC else slice(1, -1),) * self.d

    def interior_mask(self):
        mask = np.zeros(self.node_counts, dtype=bool)
        mask[self.unknowns] = True
        return mask

    def window_slices(self, window):
        """Node index slices covering ``window``, snapped outward to nodes.

        None is the whole grid.
        """
        if window is None:
            return tuple(slice(0, n) for n in self.node_counts)
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

    def face_window_slices(self, window, ax):
        """Slices of the faces normal to ``ax`` whose centers lie in ``window`` (None: all)."""
        if window is None:
            return (slice(None),) * self.d
        sls = list(self.window_slices(window))
        lo = self.box.lo[ax] + 0.5 * self.h[ax]
        i0 = int(np.ceil((window.lo[ax] - lo) / self.h[ax] - 1e-9))
        i1 = int(np.floor((window.hi[ax] - lo) / self.h[ax] + 1e-9))
        sls[ax] = slice(max(i0, 0), min(i1, self.cells[ax] - 1) + 1)
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

    def interpolate(self, points):
        """Multilinear interpolation, shape (m, N); periodic grids wrap the coordinates.

        ``points`` pass :func:`_check_points`; one point (d,) gives (m, 1)."""
        g = self.grid
        pts, _ = _check_points(points, g.d)
        rel = (pts - g.box.lo) / g.h
        if g.bc == PERIODIC:
            rel = rel % g.cells
        else:
            rel = np.clip(rel, 0.0, np.asarray(g.cells, dtype=float))
        return _multilinear(self.values, rel, g.cells, g.bc == PERIODIC, node_axis=1)


def _check_points(points, d):
    """(points as (N, d) floats, whether one point (d,) was given); a point of
    another dimension or with a non-finite coordinate raises ValueError."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected d={d}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite evaluation point")
    return pts, single


def _mesh_points(axes):
    """The tensor product of per-axis coordinates as points (N, d), C order."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


# points per block of the point loops (multilinear interpolation here, field
# sampling in fields.sample_mesh): a block's indices, weights and gathered
# corners stay small whatever the number of points
_POINT_BLOCK = 8192


def _multilinear(table, rel, cells, periodic, node_axis=0):
    """Multilinear interpolation of node data ``table`` at node-unit
    coordinates ``rel`` (N, d) in [0, cells]; periodic axes wrap the upper
    corner index.  The node axes of ``table`` start at ``node_axis`` (0 or 1),
    and the points take their place: (N, *trailing) for node axes first,
    (lead, N) after one leading axis.

    Blocks of at most _POINT_BLOCK points gather their corners with ``np.take``
    on the flattened node axes; every output entry is the sum over corners,
    in ``itertools.product`` order from zero, of the product of the corner's
    per-axis weights times its node value."""
    n, d = rel.shape
    nodes = table.shape[node_axis:node_axis + d]
    flat = table.reshape(table.shape[:node_axis] + (-1,) + table.shape[node_axis + d:])
    strides = np.cumprod((1,) + nodes[:0:-1])[::-1]
    out = np.zeros(flat.shape[:node_axis] + (n,) + flat.shape[node_axis + 1:])
    spread = (1,) * (out.ndim - node_axis - 1)
    for lo in range(0, n, _POINT_BLOCK):
        r = rel[lo:lo + _POINT_BLOCK]
        base = np.minimum(np.floor(r).astype(int), cells - 1)
        w = r - base
        # per axis, the flat offsets and the weights of the lower and the upper
        # corner node
        offsets, factors = [], []
        for ax in range(d):
            upper = base[:, ax] + 1
            if periodic:
                upper[upper == cells[ax]] = 0
            offsets.append((base[:, ax] * strides[ax], upper * strides[ax]))
            factors.append((1.0 - w[:, ax], w[:, ax]))
        block = out[(slice(None),) * node_axis + (slice(lo, lo + _POINT_BLOCK),)]
        for corner in itertools.product((0, 1), repeat=d):
            # the weight's product starts from its first factor: 1.0 * x is x
            idx, weight = offsets[0][corner[0]], factors[0][corner[0]]
            for ax in range(1, d):
                idx = idx + offsets[ax][corner[ax]]
                weight = weight * factors[ax][corner[ax]]
            block += weight.reshape(weight.shape + spread) * np.take(flat, idx, axis=node_axis)
    return out


# ---------------------------------------------------------------------------
# differences and norms


def _face_pairs(arr, ax, periodic):
    """(behind, ahead): the node data on either side of each face normal to array
    axis ``ax``; on the periodic cell the last face wraps to node 0."""
    if periodic:
        return arr, np.roll(arr, -1, axis=ax)
    head = (slice(None),) * ax
    return arr[head + (slice(None, -1),)], arr[head + (slice(1, None),)]


def face_differences(u, ax):
    """Normal differences at faces orthogonal to ``ax``: (u_next - u_this)/h."""
    behind, ahead = _face_pairs(u.values, 1 + ax, u.grid.bc == PERIODIC)
    return (ahead - behind) / u.grid.h[ax]


def centered_gradient(u):
    """Node-centered gradient, one-sided at Dirichlet boundaries.

    Returns an array of shape (d, m, *nodes).
    """
    return _gradient_at(u, (slice(None),) * u.grid.d)


def _gradient_at(u, sls):
    """:func:`centered_gradient` at the nodes of the index slices ``sls`` (one
    per axis, step 1), of their shape: read from a block of nodes just larger
    than theirs (wrapped on the periodic cell), bit for bit the whole grid's
    gradient there."""
    vals, g = u.values, u.grid
    periodic = g.bc == PERIODIC
    block, inner = vals, [slice(None)]
    for ax, (s, n) in enumerate(zip(sls, g.node_counts)):
        lo, hi, _ = s.indices(n)
        if periodic and (lo, hi) == (0, n):
            inner.append(slice(None))       # the roll below wraps the whole axis
        elif periodic:
            block = np.take(block, np.arange(lo - 1, hi + 1), axis=1 + ax, mode="wrap")
            inner.append(slice(1, hi - lo + 1))
        else:
            # two nodes around: an edge node's one-sided difference reads two inward
            a, b = max(lo - 2, 0), min(hi + 2, n)
            block = block[(slice(None),) * (1 + ax) + (slice(a, b),)]
            inner.append(slice(lo - a, hi - a))
    inner = tuple(inner)
    out = np.empty((g.d,) + block[inner].shape)
    for ax in range(g.d):
        if periodic:
            out[ax] = ((np.roll(block, -1, axis=1 + ax) - np.roll(block, 1, axis=1 + ax))
                       / (2.0 * g.h[ax]))[inner]
        else:
            out[ax] = np.gradient(block, g.h[ax], axis=1 + ax, edge_order=2)[inner]
    return out


# below OpenBLAS's threading cutoff for ddot (n > 10000), so each chunk's
# dot runs on one thread whatever the BLAS thread count
_DOT_CHUNK = 8192


def _dot(a, b):
    """Inner product of two 1D float arrays in a fixed order.

    ``np.dot`` over consecutive chunks of at most 8192 entries, summed left
    to right: up to 8192 entries it is ``np.dot`` itself, and beyond that
    its rounding does not depend on how many threads BLAS may use.
    """
    total = np.dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK])
    for lo in range(_DOT_CHUNK, a.shape[0], _DOT_CHUNK):
        total += np.dot(a[lo:lo + _DOT_CHUNK], b[lo:lo + _DOT_CHUNK])
    return total


def _trapezoid_means(vals, w):
    """Weighted means over the trailing axes: ``vals`` (..., *w.shape) against
    the trapezoid weights ``w``, one fixed-order ``_dot`` per leading entry."""
    flat = w.reshape(-1)
    sums = [_dot(row, flat) for row in vals.reshape(-1, flat.size)]
    return np.reshape(sums, vals.shape[:vals.ndim - w.ndim]) / float(np.sum(w))


def window_mean(u, window=None):
    """Trapezoid-consistent volume average per component over a window."""
    g = u.grid
    sls = None if window is None else g.window_slices(window)
    vals = u.values if sls is None else u.values[(slice(None), *sls)]
    return _trapezoid_means(vals, g.trapezoid_weights(sls))


def norms(u, kind):
    """L2 / H1 norms with trapezoid (L2) and face-midpoint (H1) quadrature."""
    g = u.grid
    if kind == "L2":
        w = g.trapezoid_weights()
        return float(np.sqrt(np.sum(w * np.sum(u.values ** 2, axis=0))))
    if kind == "H1":
        semi_sq = 0.0
        cell_vol = float(np.prod(g.h))
        for ax in range(g.d):
            semi_sq += float(np.sum(face_differences(u, ax) ** 2)) * cell_vol
        return float(np.sqrt(norms(u, "L2") ** 2 + semi_sq))
    raise ValueError(f"unknown norm kind {kind!r}")


def holder_seminorm(u, sigma, rng_seed=0, window=None):
    """Sampled Hoelder seminorm sup |u(x)-u(y)| / |x-y|^sigma.

    Includes every nearest-neighbor pair, the window corner pairs, and
    4096 random pairs.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    g = u.grid
    sls = g.window_slices(window)
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
    coords = g.slice_points(sls)
    corner_ids = [np.ravel_multi_index(tuple(c * (n - 1) for c, n in zip(corner, shape)), shape)
                  for corner in np.ndindex(*(2,) * g.d)]
    ia = np.concatenate([rng.integers(0, n_nodes, 4096), np.array(corner_ids)])
    ib = np.concatenate([rng.integers(0, n_nodes, 4096),
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

