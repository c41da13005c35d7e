"""Quadrature engine shared by every transform, norm, and inversion routine.

All integrals in this package reduce to one of two patterns:

* a fixed tensor-product rule, built by ``tensor_rule`` from per-axis
  (nodes, weights) pairs: ``integrate`` over a truncated box, the classical
  Radon transform over a hyperplane patch, the outer integral of a mixed norm;
* a batch of windowed rules, one box of per-axis windows per evaluation
  point, summed by ``_windowed_sums``: the forward transforms and the inner
  integral of a mixed norm. Each caller supplies only its geometry (the
  windows and the map from window coordinates to integrand values).

Node counts for windowed rules scale with the window width relative to a
reference width (``tier_counts``), so a thin support slice at an extreme
slope still gets an adequate node density without paying for it everywhere
else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .errors import QuadratureError

#: Most nodes one evaluation batch of ``_windowed_sums`` holds, sized for
#: cache residency: each per-coordinate temporary of a batch (node axis,
#: point coordinate, squared distance, field value, weight grid) is 256 KB,
#: so the few a batch holds at once fit in a core's 2 MiB of L2 and the
#: fields and the kernels' fills do not run at memory bandwidth. Sweep of
#: the benchmark's median pass (seed 1, 2-core x86-64 VM, one BLAS thread)
#: at caps 2M / 262k / 65k / 32k / 16k / 8k: recon3d 1.33 / 0.96 / 0.73 /
#: 0.69 / 0.78 / 0.93 s, recon2d 0.55 / 0.39 / 0.32 / 0.30 / 0.31 / 0.34 s,
#: estimates 1.94 / 1.40 / 1.20 / 1.15 / 1.18 / 1.37 s; below 16k the
#: per-batch Python overhead wins the gain back. The cap never changes a
#: bit of the result, since every row is summed on its own.
_NODE_CAP = 2 ** 15


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for every numerical integral.

    Parameters
    ----------
    R_max:
        Truncation radius for integrals over unbounded domains when the
        integrand carries no support box of its own.
    m:
        Nodes per axis at the reference width.
    """

    R_max: float = 8.0
    m: int = 200

    def __post_init__(self):
        if self.m < 2:
            raise QuadratureError("m must be >= 2")
        if not self.R_max > 0:
            raise QuadratureError("R_max must be positive")

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


def octave_edges(start: float, stop: float, factor: float = 2.0):
    """Geometric edges from start to stop (last panel clipped at stop)."""
    if not (stop > start > 0):
        raise QuadratureError("octave_edges needs 0 < start < stop")
    edges = [start]
    while edges[-1] * factor < stop:
        edges.append(edges[-1] * factor)
    edges.append(stop)
    return np.asarray(edges)


def tensor_rule(axes):
    """Tensor product of per-axis ``(nodes, weights)`` rules.

    Returns nodes of shape (N, k), N the product of the axis sizes, with the
    first axis varying slowest, and their product weights of shape (N,).
    """
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(pts.shape[0])
    for g in np.meshgrid(*[w for _, w in axes], indexing="ij"):
        weights *= g.ravel()
    return pts, weights


def integrate(integrand, k: int, spec: QuadratureSpec) -> float:
    """Tensor-product quadrature of ``integrand`` over [-R_max, R_max]^k.

    ``integrand`` maps a k-vector to a real; batched callables accepting an
    (N, k) array (or (N,) when k == 1) are used directly, scalar callables
    are looped.
    """
    if k < 1:
        raise QuadratureError("dimension k must be >= 1")
    if spec.m ** k > 2e8:
        raise QuadratureError(f"tensor rule too large: m={spec.m}, k={k}")
    pts, weights = tensor_rule([line_rule(-spec.R_max, spec.R_max, spec.m)] * k)
    if k == 1:
        pts = pts[:, 0]

    vals = _eval_integrand(integrand, pts, k)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        node = (float(pts[i]),) if k == 1 else tuple(float(v) for v in pts[i])
        raise QuadratureError(f"non-finite integrand value at node {node}", node=node)
    return float(np.dot(vals, weights))


def _finite(what, vals, points):
    """``vals``, the values of ``what`` at the rows of ``points``; raises
    QuadratureError naming the first point whose value is not finite (a
    field that is NaN or inf inside its support)."""
    bad = ~np.isfinite(vals)
    if bad.any():
        node = tuple(float(v) for v in points[int(np.argmax(bad))])
        raise QuadratureError(f"non-finite {what} at {node}", node=node)
    return vals


def _eval_integrand(integrand, pts, k):
    try:
        vals = np.asarray(integrand(pts), dtype=float)
        if vals.shape == (pts.shape[0],):
            return vals
    except TypeError:
        # what a scalar callable raises when handed an array
        pass
    # scalar fallback, one point at a time
    if k == 1:
        return np.array([float(integrand(float(p))) for p in pts])
    return np.array([float(integrand(np.asarray(p))) for p in pts])


def tier_counts(lo, hi, m_ref: int, width_ref: float, min_nodes: int = 44,
                max_nodes: int | None = None):
    """Quantized per-interval node counts for windowed rules.

    Counts scale with the width against ``width_ref`` (m_ref nodes at that
    width), quantized to min_nodes * 2^j and clipped to max_nodes (default
    m_ref); an empty interval (hi <= lo) gets the floor.
    The floor keeps narrow windows resolved: a window cut down by a slab
    constraint still holds a full feature of the integrand, so its node
    count must not shrink with its width. The quantization lets a batch of
    windows collapse to a handful of tensor shapes.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if max_nodes is None:
        max_nodes = m_ref
    want = np.ceil(m_ref * np.maximum(hi - lo, 0) / max(width_ref, 1e-300))
    want = np.clip(want, min_nodes, max_nodes)
    tiers = np.ceil(np.log2(np.maximum(want / min_nodes, 1.0))).astype(int)
    return np.minimum(min_nodes * 2 ** tiers, max_nodes)


def mapped_rule(lo, hi, m: int):
    """Gauss-Legendre nodes/weights mapped to each [lo_i, hi_i] row: (B, m)."""
    gx, gw = gauss_rule(m)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * gx[None, :]
    return nodes, half[:, None] * gw[None, :]


def _midpoint_rule(lo, hi, m: int):
    """Uniform midpoint nodes/weights on each [lo_i, hi_i] row: (B, m)."""
    step = (hi - lo) / m
    nodes = lo[:, None] + (np.arange(m) + 0.5)[None, :] * step[:, None]
    return nodes, np.repeat(step[:, None], m, axis=1)


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

    ``integrand(idx, nodes)`` receives the batch's row indices and one node
    array per axis, ``nodes[j]`` of shape (b, 1, .., m_j, .., 1) with m_j
    in slot j + 1, so that expressions in them broadcast to the tensor grid
    (b, m_1, ..., m_k). It returns the integrand values on that grid,
    Jacobian included. Rows with an empty window (hi <= lo on some axis)
    sum to 0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    M, k = lo.shape
    if periodic is None:
        periodic = np.zeros(M, dtype=bool)
    out = np.zeros(M)
    rows = np.nonzero(np.all(hi > lo, axis=1))[0]
    if rows.size == 0:
        return out
    # group rows by key with a stable sort, so each group keeps row order
    keys = np.column_stack([np.asarray(counts, dtype=int), periodic])[rows]
    order = np.lexsort(keys.T)
    keys, rows = keys[order], rows[order]
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    for g0, g1 in zip(np.r_[0, starts], np.r_[starts, len(rows)]):
        ms = [int(m) for m in keys[g0, :k]]
        step = max(1, _NODE_CAP // int(np.prod(ms)))
        for s0 in range(g0, g1, step):
            idx = rows[s0:min(s0 + step, g1)]
            nodes, weights = [], []
            for j, m in enumerate(ms):
                rule = _midpoint_rule if keys[g0, k] and j == k - 1 else mapped_rule
                x, w = rule(lo[idx, j], hi[idx, j], m)
                shape = (len(idx),) + tuple(m if a == j else 1 for a in range(k))
                nodes.append(x.reshape(shape))
                weights.append(w.reshape(shape))
            vals = integrand(idx, nodes)
            # the weight grid is built only now, so it is not held while the
            # integrand runs
            out[idx] = (vals * reduce(np.multiply, weights)).reshape(len(idx), -1).sum(axis=1)
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
