"""Quadrature engine shared by every transform, norm, and inversion routine.

All integrals in this package reduce to one of two patterns:

* a fixed tensor-product rule, built by ``tensor_rule`` from per-axis
  (nodes, weights) pairs: the outer integral of a norm;
* a batch of windowed rules, one box of per-axis windows per evaluation
  point, summed by ``_windowed_sums``: every forward transform, the
  classical one included, and the inner integral of a norm. Each caller
  supplies only its geometry (the windows and the map from window
  coordinates to integrand values).

Node counts for windowed rules scale with the window width relative to a
reference width (``tier_counts``), so a thin support slice at an extreme
slope still gets an adequate node density without paying for it everywhere
else.

Allocation rule of the windowed kernel: within one batch of
``_windowed_sums``, the only new batch-sized array is the field's values;
an axis has a node array only if indexed. Every other batch-sized array
(those nodes, the point buffer, the temporaries of operators and phantoms) is
a view of a buffer of a per-thread stack, the workspace (``_scratch``),
which keeps its buffers from batch to batch. A batch marks the stack before
its integrand runs and releases back to the mark after its sum is taken, so
a kernel nested in another's integrand (a norm of a transform of a dilated
phantom) stacks its buffers above its caller's and never aliases them.
Freeing and reallocating the same few hundred kilobytes every batch made
the allocator hand its heap top back to the system and fault the pages in
again on the next batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import prod

import numpy as np

from .errors import QuadratureError

#: Most nodes one evaluation batch of ``_windowed_sums`` holds, sized for
#: cache residency: each per-coordinate array of a batch (node axis, point
#: coordinate, field value) is 256 KB, so the few a batch holds at once fit
#: in a core's 2 MiB of L2 and the fields and the kernels' fills do not run
#: at memory bandwidth. Sweep of the benchmark workloads' median pass (seed
#: 1, 8 s runs, 2-core x86-64 VM, one BLAS thread, median of 3 runs, the
#: workspace limit scaled with the cap) at caps 65k / 32k / 16k / 8k:
#: recon3d 0.55 / 0.39 / 0.47 / 0.60 s, recon2d 0.024 / 0.022 / 0.022 /
#: 0.032 s, estimates 0.77 / 0.92 / 0.81 / 0.99 s at 69 / 65 / 61 / 59 MB
#: peak RSS. Median minor page faults per pass: recon3d 0 / 0 / 0 / 351,
#: recon2d 0 / 141 / 0 / 0, estimates 1 / 3.9k / 3 / 4 (1.1k-4.0k over the
#: runs at 32k). One cap's runs spread by up to 30 %, so 16k to 65k tie on
#: estimates; below 32k recon3d pays the per-batch Python overhead, and
#: above it the peak RSS grows. The cap never changes a bit of the result,
#: since every row is summed on its own.
_NODE_CAP = 2 ** 15

#: Largest request, in floats, that the workspace serves: the point buffer
#: of one capped batch of 4-vectors. A larger one (a single row of more
#: than ``_NODE_CAP`` nodes, or points in more dimensions) gets a fresh
#: array, so the workspace stays a few megabytes at most.
_WORKSPACE_MAX = 4 * _NODE_CAP


class _Workspace(threading.local):
    """One thread's stack of float buffers, kept from batch to batch."""

    def __init__(self):
        self.buffers = []    # one per stack slot, grown to its largest request
        self.top = 0         # slots in use
        self.depth = 0       # open kernel batches


_workspace = _Workspace()


def _scratch(shape):
    """Uninitialized float array of ``shape``. Inside a batch of
    ``_windowed_sums`` it is a view of the next workspace buffer, valid until
    that batch ends; outside any batch, or over ``_WORKSPACE_MAX`` floats, it
    is a fresh array."""
    ws = _workspace
    size = prod(shape)
    if not ws.depth or size > _WORKSPACE_MAX:
        return np.empty(shape)
    if ws.top == len(ws.buffers):
        ws.buffers.append(np.empty(size))
    elif ws.buffers[ws.top].size < size:
        ws.buffers[ws.top] = np.empty(size)
    ws.top += 1
    return ws.buffers[ws.top - 1][:size].reshape(shape)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for every numerical integral.

    Parameters
    ----------
    m:
        Nodes per axis at the reference width; also sets the norms' panels.

    No control truncates an unbounded integral: the integrand's support box
    bounds it, and one without a box is refused.
    """

    m: int = 200

    def __post_init__(self):
        if self.m < 2:
            raise QuadratureError("m must be >= 2")

    @classmethod
    def for_dimension(cls, n: int, **overrides) -> "QuadratureSpec":
        """Default spec at desk scale: m=200 per axis in n=2, m=80 in n>=3."""
        params = {"m": 200 if n <= 2 else 80}
        params.update(overrides)
        return cls(**params)

    def with_(self, **overrides) -> "QuadratureSpec":
        return replace(self, **overrides)


@lru_cache(maxsize=256)
def gauss_rule(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per node count."""
    x, w = np.polynomial.legendre.leggauss(int(m))
    return x, w


def line_rule(a: float, b: float, m: int):
    """Gauss-Legendre nodes and weights integrating over [a, b]."""
    x, w = gauss_rule(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def octave_edges(start: float, stop: float):
    """Doubling edges from start to stop (last panel clipped at stop)."""
    if not (stop > start > 0):
        raise QuadratureError("octave_edges needs 0 < start < stop")
    edges = [start]
    while edges[-1] * 2 < stop:
        edges.append(edges[-1] * 2)
    edges.append(stop)
    return np.asarray(edges)


def panel_rule(edges, m: int):
    """Gauss-Legendre panels of m nodes between consecutive ``edges``."""
    rules = [line_rule(a, b, m) for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def tensor_rule(axes):
    """Tensor product of per-axis ``(nodes, weights)`` rules.

    Returns nodes of shape (N, k), N the product of the axis sizes, with the
    first axis varying slowest, and their product weights of shape (N,).
    """
    pts = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"), axis=-1)
    weights = reduce(np.multiply.outer, [w for _, w in axes])
    return pts.reshape(-1, len(axes)), weights.ravel()


def _finite(what, vals, points):
    """``vals``, the values of ``what`` at the rows of ``points``; raises
    QuadratureError naming the first point whose value is not finite (a
    field that is NaN or inf inside its support). ``points`` may be a
    function returning them, called only then."""
    bad = ~np.isfinite(vals)
    if bad.any():
        if callable(points):
            points = points()
        node = tuple(float(v) for v in points[int(np.argmax(bad))])
        raise QuadratureError(f"non-finite {what} at {node}", node=node)
    return vals


def tier_counts(lo, hi, m_ref: int, width_ref: float, min_nodes: int = 44):
    """Quantized per-interval node counts for windowed rules.

    Counts scale with the width against ``width_ref`` (m_ref nodes at that
    width), quantized to min_nodes * 2^j and clipped to m_ref; an empty
    interval (hi <= lo) gets the floor.
    The floor keeps narrow windows resolved: a window cut down by a slab
    constraint still holds a full feature of the integrand, so its node
    count must not shrink with its width. A constant floor stops refinement
    in m there; the 3-D polar chart therefore takes m nodes on both axes of
    every row instead (``transforms._polar_chart``). The quantization lets
    a batch of windows collapse to a handful of tensor shapes.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    want = np.ceil(m_ref * np.maximum(hi - lo, 0) / max(width_ref, 1e-300))
    return _tier_levels(min_nodes, m_ref)[np.clip(want, min_nodes, m_ref).astype(int)]


@lru_cache(maxsize=64)
def _tier_levels(min_nodes: int, m_ref: int):
    """Lookup table of ``tier_counts`` by clipped node count 0 .. m_ref."""
    want = np.arange(m_ref + 1.0)
    tiers = np.ceil(np.log2(np.maximum(want / min_nodes, 1.0))).astype(int)
    return np.minimum(min_nodes * 2 ** tiers, m_ref)


@lru_cache(maxsize=256)
def _reference_rule(m: int, periodic: bool):
    """The m-node rule of a kernel axis on its reference interval: Gauss-
    Legendre on [-1, 1], or for a periodic axis the midpoint rule in units of
    its step (nodes j + 1/2, weights 1); the nodes over a row of ones."""
    x, w = (np.arange(m) + 0.5, np.ones(m)) if periodic else gauss_rule(m)
    return np.stack([x, np.ones(m)]), w


class _Axes:
    """The axes of one batch of ``_windowed_sums``: with ``maps[j] = (c, ref)``,
    node i of batch row r on axis j sits at c[r, 0] * ref[0, i] + c[r, 1]
    (half-width or step, and offset). ``shape`` is the tensor grid (b, m_1,
    ..., m_k); ``axes[j]``, mapped on first use into a workspace buffer, is
    axis j's node array of shape (b, 1, .., m_j, .., 1)."""

    def __init__(self, maps):
        self.maps = maps
        self.shape = (len(maps[0][0]),) + tuple(ref.shape[1] for _, ref in maps)
        self._nodes = [None] * len(maps)

    def __getitem__(self, j):
        j = range(len(self.maps))[j]
        if self._nodes[j] is None:
            grid = [self.shape[0]] + [1] * len(self.maps)
            grid[j + 1] = self.shape[j + 1]
            self._nodes[j] = self.affine(j, _scratch((grid[0], grid[j + 1]))).reshape(grid)
        return self._nodes[j]

    def affine(self, j, out, slope=None, offset=0.0):
        """``out`` (b, m_j) = slope * x + offset at the nodes x of axis j
        (scalars or per-row arrays; x itself when slope is None), in one pass:
        the rank-2 product of the composed coefficients (slope c0, slope c1 +
        offset) with (nodes, ones). ``np.einsum`` rounds each product and adds
        in order, so no value depends on the batch (BLAS edge kernels may)."""
        c, ref = self.maps[j]
        if slope is not None:
            c = np.multiply(c, np.reshape(slope, (-1, 1)), out=_scratch(c.shape))
            c[:, 1] += offset
        return np.einsum("rj,ji->ri", c, ref, out=out)


def _windowed_sums(lo, hi, counts, integrand, periodic=None):
    """Per-row integrals over the boxes [lo_i1, hi_i1] x ... x [lo_ik, hi_ik].

    ``lo``, ``hi`` and ``counts`` have shape (M, k); ``counts`` holds the
    node count of every row and axis (see ``tier_counts``). Rows sharing
    their counts and their ``periodic`` flag form one group, which is split
    into batches of at most ``_NODE_CAP`` nodes (one row per batch when a
    row alone holds more), small enough that a batch's temporaries stay in
    cache. Each row's sum is taken over that row alone, so how the rows are
    batched never changes a bit of the result. Axis j of a row gets a
    Gauss-Legendre rule mapped onto its window, except the last axis of a
    ``periodic`` row, which spans one full period of the integrand and gets
    the uniform midpoint rule (spectrally accurate there).

    ``integrand(idx, axes)`` receives the batch's row indices and its axes
    (``_Axes``): the rows' window maps per axis and, only where indexed,
    node arrays ``axes[j]`` of shape (b, 1, .., m_j, .., 1), m_j in slot
    j + 1, that broadcast to the tensor grid (b, m_1, ..., m_k). It returns
    the integrand values on that grid, Jacobian included. Rows with an
    empty window (hi <= lo on some axis) sum to 0.

    Allocations: the values the integrand returns are the batch's only new
    grid-sized array. The node arrays of the axes it indexes are workspace
    buffers (``_scratch``), and so is every ``_scratch`` request the
    integrand makes, at any depth of nesting: the batch marks the workspace
    before its integrand runs and releases back to the mark once its sums
    are taken, so none of those arrays may be kept past the integrand's
    return. The sum contracts the values one axis at a time against the
    reference weights of that axis (``np.einsum``, whose per-row sums do not
    depend on the row's place in the batch, as a BLAS product's may) and
    scales each row by the product of its half-widths, or of its step on a
    periodic axis; no weight grid is built.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    M, k = lo.shape
    out = np.zeros(M)
    rows = np.flatnonzero(np.all(hi > lo, axis=1))
    if rows.size == 0:
        return out
    # rows grouped by key (counts in mixed radix, then the periodic flag)
    key = counts[:, 0]
    for j in range(1, k):
        key = key * (int(counts[:, j].max()) + 1) + counts[:, j]
    if periodic is not None:
        key = 2 * key + periodic
    key = key[rows]
    if np.any(key[1:] < key[:-1]):
        # stable, so each group keeps row order; radix for keys below 2^16
        order = np.argsort(key.astype(np.uint16) if key.max() < 2**16 else key, kind="stable")
        rows, key = rows[order], key[order]
    bounds = [0] + (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist() + [len(rows)]
    # window maps (k, rows, 2): half-width and centre of a Gauss axis, step
    # and lower end of a periodic one
    maps = np.empty((k, len(rows), 2))
    for j, (h, a) in enumerate(zip(maps[..., 0], maps[..., 1])):
        a[:] = lo[:, j][rows]
        np.subtract(hi[:, j][rows], a, out=h)
        h *= 0.5
        a += h
    if periodic is not None:
        per = rows[periodic[rows]]
        maps[-1, periodic[rows]] = np.column_stack([(hi[per, -1] - lo[per, -1]) / counts[per, -1],
                                                    lo[per, -1]])
    scale = np.prod(maps[..., 0], axis=0)
    ws = _workspace
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        ms = counts[rows[g0]].tolist()
        mid = periodic is not None and bool(periodic[rows[g0]])
        rules = [_reference_rule(m, mid and j == k - 1) for j, m in enumerate(ms)]
        step = max(1, _NODE_CAP // prod(ms))
        for s0 in range(g0, g1, step):
            s1 = min(s0 + step, g1)
            mark = ws.top
            ws.depth += 1
            try:
                vals = integrand(rows[s0:s1], _Axes([(maps[j, s0:s1], ref)
                                                     for j, (ref, _) in enumerate(rules)]))
                for _, w_ref in reversed(rules):
                    vals = np.einsum("...j,j->...", vals, w_ref)
                out[rows[s0:s1]] = vals * scale[s0:s1]
            finally:
                ws.top = mark
                ws.depth -= 1
    return out


def sphere_nodes(d: int, m: int):
    """Quadrature nodes/weights for the unit sphere S^d embedded in R^{d+1}.

    d=1 uses uniform angles (spectral for periodic integrands); d>=2 uses a
    Gauss-Legendre rule in the polar cosine against the recursive rule on
    S^{d-1}. Weights sum to the sphere area.
    """
    if d == 1:
        ang = (np.arange(m) + 0.5) * (2 * np.pi / m)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return pts, np.full(m, 2 * np.pi / m)
    c, wc = gauss_rule(m)
    sub_pts, sub_w = sphere_nodes(d - 1, m)
    sin_pol = np.sqrt(1.0 - c ** 2)
    pts = np.concatenate([
        (sin_pol[:, None, None] * sub_pts[None, :, :]).reshape(-1, d),
        np.repeat(c, sub_pts.shape[0])[:, None],
    ], axis=1)
    w = (wc * sin_pol ** (d - 2))[:, None] * sub_w[None, :]
    return pts, w.ravel()
