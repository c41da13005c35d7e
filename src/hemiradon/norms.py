"""Plain, weighted, and mixed Lebesgue norms, plus the scaling scans that
probe which exponent triples admit a bounded transform.

Mixed norms are iterated: an inner integral in the last coordinate raised
to s, then an outer L^q integral over the leading coordinates. A profile is
read as its half-space field in (x', r), so its inner integral runs over the
radius. The weighted norms insert t^(1-p) (half-space fields) or r^(1-s)
(profiles) into the inner integral.

Truncation policy: the outer integral runs over ``outer_box`` (defaulting to
the data's own support box), the inner one over the data's section, else its
box; an integral with neither bound, or an outer interval without lo < hi,
raises ``DomainError``. The inner rule's floor is ceil(m/2) nodes. The outer
rule is m Gauss nodes per axis for data with a support box (zero off it).
Data without one (transversal and parabolic fields, a profile without
``r_box``) has a tail past the box, so each axis takes 13 Gauss panels of
max(4, ceil(m/25)) nodes (four keep an octave panel near 1e-6 on an
algebraic tail) on the edges c +- hw 2^(j-6), j = 0..6, about the box's
centre c; they scale with the box, so the scans' dilation laws hold to
rounding. Identity tests that compare two norms of substitution-related
fields should pass outer boxes related by the same substitution; the
truncated norms then satisfy the identity exactly, so the comparison does
not depend on how much mass the truncation discards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .fields import ScalarField, SphereProfile, _stack_last
from .operators import OperatorId, apply
from .quadrature import (QuadratureSpec, _finite, _scratch, _windowed_sums,
                         line_rule, octave_edges, panel_rule, tensor_rule, tier_counts)
from .transforms import parabolic_field, sonar_profile, transversal_field

_LP_WEIGHTS = (None, "half_space_weight")
_MIXED_WEIGHTS = (None, "profile_weight")


def _inner_sums(eval_inner, lo, hi, s_exp, weight_exp, spec, min_nodes):
    """Per-outer-node inner integrals of |data|^s * t^weight_exp."""
    width_ref = float(np.max(hi - lo, initial=0.0))
    counts = tier_counts(lo, hi, spec.m, width_ref, min_nodes=min_nodes)

    def integrand(idx, nodes):
        (t,) = nodes
        # |data|^s (t^weight_exp), in place on the data's fresh values
        vals = eval_inner(idx, t)
        np.abs(vals, out=vals)
        vals **= s_exp
        if weight_exp != 0.0:
            vals *= np.power(t, weight_exp, out=_scratch(t.shape))
        return vals

    return _windowed_sums(lo[:, None], hi[:, None], counts[:, None], integrand)


def _iterated_power(data, s_exp, weight_exp, spec, outer_box):
    """Outer nodes XP, outer weights W, and inner integrals at each XP.

    Raises DomainError for an integral with no bound or a bad outer box
    (module docstring) and QuadratureError naming the outer node whose inner
    integral is not finite (data that is NaN or inf inside its support)."""
    n = data.n
    k = n - 1
    if outer_box is None:
        if data.box is None:
            raise DomainError("norm needs an outer_box or a support box")
        outer_box = data.box[:-1]
    if data.section_support is None and data.box is None:
        raise DomainError("norm needs a section or a support box for its inner integral")
    obox = np.asarray(outer_box, dtype=float)
    if obox.shape != (k, 2) or not np.isfinite(obox).all():
        raise DomainError(f"outer_box must be {k} finite (lo, hi) pairs, got {outer_box}")
    axes = []
    for axis, (a, b) in enumerate(obox.tolist()):
        if not a < b:
            raise DomainError(f"outer_box axis {axis} needs lo < hi, got ({a}, {b})")
        if data.box is not None:
            axes.append(line_rule(a, b, spec.m))
        else:
            half = octave_edges((b - a) / 128, (b - a) / 2)
            axes.append(panel_rule(0.5 * (a + b) + np.concatenate([-half[::-1], half]),
                                   max(4, math.ceil(spec.m / 25))))
    XP, W = tensor_rule(axes)
    if data.section_support is not None:
        lo, hi = data.section_support(XP)
    else:
        lo = np.full(XP.shape[0], data.box[-1][0])
        hi = np.full(XP.shape[0], data.box[-1][1])
    if data.domain == "half":
        lo = np.maximum(lo, 1e-12)

    def eval_inner(idx, nodes):
        lead = np.broadcast_to(XP[idx, None, :], nodes.shape + (k,))
        pts = _stack_last(lead, nodes).reshape(-1, n)
        return data.eval_array(pts).reshape(nodes.shape)

    inner = _inner_sums(eval_inner, lo, hi, s_exp, weight_exp, spec, math.ceil(spec.m / 2))
    if weight_exp < 0:
        # singular-weight guard: double the nodes where the window nears 0,
        # on a doubled m, since m caps the counts of both passes
        near = np.nonzero(lo < 0.05 * np.maximum(hi - lo, 1e-300))[0]
        if near.size:
            refined = _inner_sums(lambda idx, t: eval_inner(near[idx], t),
                                  lo[near], hi[near], s_exp, weight_exp,
                                  spec.with_(m=2 * spec.m), 2 * math.ceil(spec.m / 2))
            base = inner[near]
            scale = float(np.max(np.abs(refined), initial=0.0))
            if scale > 0 and np.max(np.abs(refined - base)) > 1e-4 * scale:
                raise QuadratureError(
                    "inner integral near the singular weight did not converge "
                    "under node doubling")
            inner[near] = refined
    return XP, W, _finite("norm inner integral", inner, XP)


def lp_norm(field: ScalarField, p: float, weight=None, spec=None, *,
            outer_box=None) -> float:
    """||field||_p, or the weighted version with t^(1-p) on the half-space."""
    if not isinstance(field, ScalarField):
        raise DomainError("lp_norm consumes a ScalarField")
    if p < 1:
        raise DomainError("lp_norm requires p >= 1")
    if weight not in _LP_WEIGHTS:
        raise DomainError(f"unknown weight {weight!r} for lp_norm")
    if weight == "half_space_weight" and field.domain != "half":
        raise DomainError("half_space_weight requires a half-space field")
    spec = spec if spec is not None else QuadratureSpec.for_dimension(field.n)
    weight_exp = (1.0 - p) if weight == "half_space_weight" else 0.0
    _, W, inner = _iterated_power(field, p, weight_exp, spec, outer_box)
    return float(np.dot(W, inner) ** (1.0 / p))


def mixed_norm(data, q: float, s: float, weight=None, spec=None, *,
               outer_box=None) -> float:
    """Iterated norm: inner L^s in the last coordinate (or radius), outer L^q.

    weight = "profile_weight" inserts r^(1-s) into the inner integral and
    requires a SphereProfile. q = inf is read as the sup over the outer
    nodes of the inner norm.
    """
    if (not math.isinf(q) and q < 1) or s < 1:
        raise DomainError("mixed_norm requires q, s >= 1")
    if weight not in _MIXED_WEIGHTS:
        raise DomainError(f"unknown weight {weight!r} for mixed_norm")
    if weight == "profile_weight" and not isinstance(data, SphereProfile):
        raise DomainError("profile_weight requires a SphereProfile")
    if not isinstance(data, (ScalarField, SphereProfile)):
        raise DomainError("mixed_norm consumes a ScalarField or SphereProfile")
    if isinstance(data, SphereProfile):
        # its x' box bounds the outer integral even when its r interval, and
        # so the box of its field, is unknown
        if outer_box is None:
            outer_box = data.xprime_box
        data = data.as_field()
    n = data.n
    spec = spec if spec is not None else QuadratureSpec.for_dimension(n)
    weight_exp = (1.0 - s) if weight == "profile_weight" else 0.0
    _, W, inner = _iterated_power(data, s, weight_exp, spec, outer_box)
    if math.isinf(q):
        return float(np.max(inner, initial=0.0) ** (1.0 / s))
    return float(np.dot(W, inner ** (q / s)) ** (1.0 / q))


@dataclass(frozen=True)
class ScanEntry:
    """One row of a scaling scan: dilation, the two norms, and their ratio."""

    lam: tuple
    output_norm: float
    input_norm: float
    ratio: float


#: transform -> builder, outer half-width at lam for radius R, output and input weights
_SCANS = {
    "transversal": ("transversal_field", lambda R, l1, l2: R * l1 / l2, None, None),
    "parabolic": ("parabolic_field", lambda R, l1, l2: R / l1, None, None),
    "sonar": ("sonar_profile", lambda R, l1, l2: R / l1, "profile_weight", "half_space_weight"),
}


def scaling_scan(transform: str, p: float, q: float, s: float, n: int,
                 lambdas, base: ScalarField, spec=None, *,
                 outer_radius: float = 16.0):
    """Norm ratios output/input across dilated copies of ``base``.

    For each lam = (lam1, lam2) the input is dilated by axis_dilate(lam), the
    transform is applied, and the ratio of the output (q, s) mixed norm to
    the input L^p norm is recorded. The sonar entry uses the weighted norms
    natural to it (r^(1-s) inner weight against the t^(1-p) half-space
    weight); the other transforms use plain norms.

    Outer truncation boxes follow the dilation (slope boxes scale like
    lam1/lam2 for the transversal transform, center boxes like 1/lam1
    otherwise), so for exact power-law families the truncated ratios follow
    the exact power law.
    """
    if transform not in _SCANS:
        raise DomainError(f"unknown transform {transform!r} for scaling_scan")
    if base.box is None:
        raise DomainError("scaling_scan needs a base field with a support box")
    if n != base.n:
        raise DomainError(f"scaling_scan in n = {n} got a base field in n = {base.n}")
    spec = spec if spec is not None else QuadratureSpec.for_dimension(n)
    name, half_width, out_weight, in_weight = _SCANS[transform]
    build = globals()[name]  # per call: bench/tracing.py counts scans by swapping it
    entries = []
    for lam in lambdas:
        lam = (float(lam[0]), float(lam[1]))
        scaled = apply(OperatorId("axis_dilate", lam), base)
        S = half_width(outer_radius, *lam)
        out_norm = mixed_norm(build(scaled, spec), q, s, out_weight, spec,
                              outer_box=((-S, S),) * (n - 1))
        in_norm = lp_norm(scaled, p, in_weight, spec)
        entries.append(ScanEntry(lam=lam, output_norm=out_norm,
                                 input_norm=in_norm,
                                 ratio=out_norm / in_norm))
    return entries
