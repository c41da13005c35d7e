"""Change-of-variable operators tying the transforms together.

Each operator is a pointwise substitution (plus an occasional Jacobian-like
prefactor), so applying one composes closures without any intermediate
grids; identities between operator chains then hold up to quadrature error
of the transforms alone.

Operator tags (all pure substitutions, names state the action):

==========================  =====================================================
tag                         action on the argument
==========================  =====================================================
sqrt_pullback               phi -> z_n^{-1/2} phi(z', sqrt(z_n))          half->half
square_pullback             Phi -> x_n Phi(x', x_n^2)                     half->half
parabolic_shear             f   -> f(x', x_n - |x'|^2)                    full->full
parabolic_unshear           u   -> u(x', x_n + |x'|^2)                    full->full
parabolic_shear_scaled      F   -> F(2x', x_n - |x'|^2)                   full->full
parabolic_unshear_scaled    v   -> v(x'/2, x_n + |x'|^2/4)                full->full
sqrt_pullback_shear         phi -> (x_n-|x'|^2)_+^{-1/2} phi(x', sqrt(.)) half->full
square_pullback_unshear     psi -> y_n psi(y', y_n^2 + |y'|^2)            full->half
field_to_profile            f   -> r f(2x', r^2 - |x'|^2)                 full->profile
profile_to_field            Phi -> (x_n+|x'|^2/4)_+^{-1/2} Phi(x'/2, sqrt(.))  profile->full
zero_extend                 extend a half-space field by zero             half->full
restrict_positive           restrict a full-space field to x_n > 0        full->half
axis_dilate(l1, l2)         psi -> psi(l1 x', l2 x_n)                     domain kept
dual_dilate(l1, l2)         Psi -> l1^{1-n} Psi((l2/l1) x', l2 x_n)       full->full
slope_intercept_map         not field-applicable; see slope_intercept_relation
==========================  =====================================================

The four parabolic shears are one substitution, F -> F(a x', x_n + b|x'|^2)
at the (a, b) of ``_SHEARS``; the support box and section of the result
follow from (a, b) and from F's own. The two composite tags are defined as
the chains they stand for (``_COMPOSITES``): sqrt_pullback, zero_extend,
parabolic_shear and parabolic_unshear, restrict_positive, square_pullback.

The (.)_+ convention: powers of a nonpositive argument are exact zeros, so
the square-root singularities along the critical paraboloids are never
poles of the returned fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainError, DomainError
from .fields import (Point, ScalarField, SphereProfile, _coordinate_major,
                     _stack_last, _sum_sq)
from .transforms import parabolic_field, sonar_profile, transversal_field

_PLAIN_TAGS = frozenset({
    "sqrt_pullback", "square_pullback",
    "parabolic_shear", "parabolic_unshear",
    "parabolic_shear_scaled", "parabolic_unshear_scaled",
    "sqrt_pullback_shear", "square_pullback_unshear",
    "field_to_profile", "profile_to_field",
    "zero_extend", "restrict_positive", "slope_intercept_map",
})
_DILATION_TAGS = frozenset({"axis_dilate", "dual_dilate"})
TAGS = _PLAIN_TAGS | _DILATION_TAGS

_TRANSFORM_STEPS = ("sonar", "parabolic", "transversal")

#: (a, b) of each shear F -> F(a x', x_n + b|x'|^2).
_SHEARS = {
    "parabolic_shear": (1.0, -1.0),
    "parabolic_shear_scaled": (2.0, -1.0),
    "parabolic_unshear": (1.0, 1.0),
    "parabolic_unshear_scaled": (0.5, 0.25),
}


@dataclass(frozen=True)
class OperatorId:
    """An operator tag plus the dilation parameters when the tag needs them."""

    tag: str
    lam: tuple | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ChainError(f"unknown operator tag {self.tag!r}")
        if self.tag in _DILATION_TAGS:
            if self.lam is None:
                raise ChainError(f"{self.tag} requires lam = (lam1, lam2)")
            lam = (float(self.lam[0]), float(self.lam[1]))
            if lam[0] <= 0 or lam[1] <= 0:
                raise ChainError("dilation parameters must be strictly positive")
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ChainError(f"{self.tag} takes no parameters")


@dataclass(frozen=True)
class IdentityReport:
    """Deviation summary from evaluating two chains at the same points."""

    max_abs_err: float
    max_rel_err: float
    worst_point: Point
    points_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _dilated(pts, lead, last):
    """The points (lead x', last x_n), coordinate-major."""
    scale = np.full(pts.shape[1], lead)
    scale[-1] = last
    return np.multiply(pts, scale, out=_coordinate_major(pts.shape))


def _minmax_sq(box_prime):
    lo = 0.0
    hi = 0.0
    for a, b in box_prime:
        if not a <= 0 <= b:
            lo += min(a * a, b * b)
        hi += max(a * a, b * b)
    return lo, hi


def _shear(field, a, b):
    """F -> F(a x', x_n + b|x'|^2), a > 0, with the box and the section it
    maps F's to; the section follows F's section when F has one."""

    def func(pts):
        ssq = _sum_sq(pts[:, :-1])
        return field.eval_array(_stack_last(a * pts[:, :-1], pts[:, -1] + b * ssq))

    box = field.box
    nbox = None
    if box is not None:
        bp = tuple((lo / a, hi / a) for lo, hi in box[:-1])
        lo2, hi2 = _minmax_sq(bp)
        if b > 0:        # x_n = (F's last coordinate) - b|x'|^2 falls with |x'|
            lo2, hi2 = hi2, lo2
        nbox = bp + ((box[-1][0] - b * lo2, box[-1][1] - b * hi2),)
    inner = field.section_support
    section = None
    if inner is not None or box is not None:
        def section(XP):
            XP = np.asarray(XP, dtype=float)
            if inner is not None:
                lo, hi = inner(a * XP)
            else:
                lo = np.full(XP.shape[0], box[-1][0])
                hi = np.full(XP.shape[0], box[-1][1])
            shift = b * _sum_sq(XP)
            return lo - shift, hi - shift

    return ScalarField(field.n, func, "full", nbox, section_support=section)


def apply(op: OperatorId, field):
    """Apply one operator, returning a new lazily evaluated field or profile."""
    tag = op.tag
    if tag == "slope_intercept_map":
        raise ChainError(
            "the slope-intercept map acts on plane parameters, not on fields; "
            "use slope_intercept_relation from the transforms module")
    if isinstance(field, SphereProfile):
        if tag != "profile_to_field":
            raise ChainError(f"{tag} consumes a ScalarField, got a SphereProfile")
        return _profile_to_field(field)
    if not isinstance(field, ScalarField):
        raise ChainError(f"cannot apply {tag} to {type(field).__name__}")

    n = field.n
    box = field.box

    def need(domain):
        if field.domain != domain:
            raise ChainError(f"{tag} consumes a {domain}-space field, got {field.domain}-space")

    if tag == "sqrt_pullback":
        need("half")

        def func(pts):
            root = np.sqrt(pts[:, -1])
            return field.eval_array(_stack_last(pts[:, :-1], root)) / root

        nbox = None
        if box is not None:
            lo, hi = box[-1]
            nbox = box[:-1] + ((max(lo, 0.0) ** 2, max(hi, 0.0) ** 2),)
        return ScalarField(n, func, "half", nbox)

    if tag == "square_pullback":
        need("half")

        def func(pts):
            xn = pts[:, -1]
            return xn * field.eval_array(_stack_last(pts[:, :-1], xn ** 2))

        nbox = None
        if box is not None:
            lo, hi = box[-1]
            nbox = box[:-1] + ((np.sqrt(max(lo, 0.0)), np.sqrt(max(hi, 0.0))),)
        inner_sec = field.section_support
        section = None
        if inner_sec is not None:
            def section(XP):
                lo, hi = inner_sec(XP)
                return np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0))
        return ScalarField(n, func, "half", nbox, section_support=section)

    if tag in _SHEARS:
        need("full")
        return _shear(field, *_SHEARS[tag])

    if tag in _COMPOSITES:
        return apply_chain(_COMPOSITES[tag], field)

    if tag == "field_to_profile":
        need("full")

        def pfunc(XP, R):
            return R * field.eval_array(_stack_last(2 * XP, R ** 2 - _sum_sq(XP)))

        r_support = None
        xprime_box = None
        if box is not None:
            xprime_box = tuple((a / 2, b / 2) for a, b in box[:-1])
            inner_sec = field.section_support
            last = box[-1]

            def r_support(XP):
                XP = np.asarray(XP, dtype=float)
                ssq = _sum_sq(XP)
                if inner_sec is not None:
                    lo, hi = inner_sec(2 * XP)
                else:
                    lo = np.full(XP.shape[0], last[0])
                    hi = np.full(XP.shape[0], last[1])
                return (np.sqrt(np.maximum(lo + ssq, 0.0)),
                        np.sqrt(np.maximum(hi + ssq, 0.0)))

        return SphereProfile(n, pfunc, xprime_box=xprime_box, r_support=r_support)

    if tag == "zero_extend":
        need("half")

        def func(pts):
            out = np.zeros(pts.shape[0])
            pos = pts[:, -1] > 0
            if pos.any():
                out[pos] = field.eval_array(pts[pos])
            return out

        nbox = None
        if box is not None:
            nbox = box[:-1] + ((max(box[-1][0], 0.0), max(box[-1][1], 0.0)),)
        return ScalarField(n, func, "full", nbox, section_support=field.section_support)

    if tag == "restrict_positive":
        need("full")
        nbox = None
        if box is not None:
            nbox = box[:-1] + ((max(box[-1][0], 0.0), max(box[-1][1], 0.0)),)
        inner_sec = field.section_support
        section = None
        if inner_sec is not None:
            def section(XP):
                lo, hi = inner_sec(XP)
                return np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        return ScalarField(n, lambda pts: field.eval_array(pts), "half", nbox,
                           section_support=section)

    if tag == "axis_dilate":
        l1, l2 = op.lam

        def func(pts):
            return field.eval_array(_dilated(pts, l1, l2))

        nbox = None
        if box is not None:
            nbox = tuple((a / l1, b / l1) for a, b in box[:-1]) \
                + ((box[-1][0] / l2, box[-1][1] / l2),)
        inner_sec = field.section_support
        section = None
        if inner_sec is not None:
            def section(XP):
                lo, hi = inner_sec(l1 * np.asarray(XP, dtype=float))
                return lo / l2, hi / l2
        return ScalarField(n, func, field.domain, nbox, section_support=section)

    if tag == "dual_dilate":
        need("full")
        l1, l2 = op.lam
        pref = l1 ** (1 - n)

        def func(pts):
            return pref * field.eval_array(_dilated(pts, l2 / l1, l2))

        nbox = None
        if box is not None:
            nbox = tuple((a * l1 / l2, b * l1 / l2) for a, b in box[:-1]) \
                + ((box[-1][0] / l2, box[-1][1] / l2),)
        inner_sec = field.section_support
        section = None
        if inner_sec is not None:
            def section(XP):
                lo, hi = inner_sec((l2 / l1) * np.asarray(XP, dtype=float))
                return lo / l2, hi / l2
        return ScalarField(n, func, "full", nbox, section_support=section)

    raise ChainError(f"unknown operator tag {tag!r}")


def _profile_to_field(profile: SphereProfile) -> ScalarField:
    n = profile.n

    def func(pts):
        ssq = _sum_sq(pts[:, :-1])
        arg = pts[:, -1] + ssq / 4
        out = np.zeros(pts.shape[0])
        good = arg > 0
        if good.any():
            out[good] = profile.eval_array(pts[good, :-1] / 2,
                                           np.sqrt(arg[good])) / np.sqrt(arg[good])
        return out

    section = None
    if profile.r_support is not None:
        rsup = profile.r_support

        def section(XP):
            XP = np.asarray(XP, dtype=float)
            rlo, rhi = rsup(XP / 2)
            ssq = _sum_sq(XP)
            return rlo ** 2 - ssq / 4, rhi ** 2 - ssq / 4

    return ScalarField(n, func, "full", None, section_support=section)


def apply_chain(chain, field, spec=None):
    """Run a chain of operators / transform steps left to right.

    Steps are OperatorId instances or one of the transform names
    "sonar", "parabolic", "transversal" (evaluated with ``spec``).
    """
    cur = field
    for step in chain:
        if isinstance(step, OperatorId):
            cur = apply(step, cur)
        elif step in _TRANSFORM_STEPS:
            if not isinstance(cur, ScalarField):
                raise ChainError(f"transform step {step!r} needs a ScalarField")
            if step == "sonar":
                cur = sonar_profile(cur, spec)
            elif step == "parabolic":
                cur = parabolic_field(cur, spec)
            else:
                cur = transversal_field(cur, spec)
        else:
            raise ChainError(f"unknown chain step {step!r}")
    return cur


#: The composite operators, each defined as the chain it stands for.
_COMPOSITES = {
    "sqrt_pullback_shear": (OperatorId("sqrt_pullback"), OperatorId("zero_extend"),
                            OperatorId("parabolic_shear")),
    "square_pullback_unshear": (OperatorId("parabolic_unshear"),
                                OperatorId("restrict_positive"),
                                OperatorId("square_pullback")),
}

#: The preregistered factorization identities, chains in application order.
CANONICAL_IDENTITIES = {
    "parabolic_via_transversal": (
        ("parabolic",),
        (OperatorId("parabolic_shear"), "transversal", OperatorId("parabolic_shear_scaled")),
    ),
    "sonar_via_transversal": (
        ("sonar",),
        (OperatorId("sqrt_pullback_shear"), "transversal", OperatorId("field_to_profile")),
    ),
    "sonar_via_parabolic": (
        ("sonar",),
        (OperatorId("sqrt_pullback"), OperatorId("zero_extend"), "parabolic",
         OperatorId("restrict_positive"), OperatorId("square_pullback")),
    ),
}


def dilation_identity(lam):
    """Chains asserting that dilating the input commutes with the transversal
    transform through the dual dilation of slopes and intercepts."""
    return ((OperatorId("axis_dilate", tuple(lam)), "transversal"),
            ("transversal", OperatorId("dual_dilate", tuple(lam))))


def _eval_output(out, pts):
    if isinstance(out, SphereProfile):
        return out.eval_array(pts[:, :-1], pts[:, -1])
    return out.eval_array(pts)


def _deviations(lv, rv):
    """(lv, rv, abs_err, rel_err) per point, rel_err against the larger side:
    0 where both sides vanish, inf where only one does."""
    absd = np.abs(lv - rv)
    denom = np.maximum(np.abs(lv), np.abs(rv))
    rel = np.zeros_like(absd)
    nz = denom > 0
    rel[nz] = absd[nz] / denom[nz]
    rel[(~nz) & (absd > 0)] = np.inf
    return lv, rv, absd, rel


def _identity_errors(lhs_chain, rhs_chain, input_field, pts, spec=None):
    """Both chains at the rows of pts in one batch per side, with their
    deviations: (lhs, rhs, abs_err, rel_err), one array each. A chain that
    produces a SphereProfile reads the last coordinate as the radius r."""
    lhs = apply_chain(lhs_chain, input_field, spec)
    rhs = apply_chain(rhs_chain, input_field, spec)
    return _deviations(_eval_output(lhs, pts), _eval_output(rhs, pts))


def verify_identity(lhs_chain, rhs_chain, input_field, points, tol: float = 1e-6,
                    spec=None) -> IdentityReport:
    """Evaluate both chains at the given points and report the deviations.

    Points are Point instances or coordinate rows; when a chain produces a
    SphereProfile the last coordinate is read as the radius r.
    """
    rows = [p.as_array() if isinstance(p, Point) else np.asarray(p, dtype=float)
            for p in points]
    pts = np.stack(rows, axis=0)
    _, _, absd, rel = _identity_errors(lhs_chain, rhs_chain, input_field, pts, spec)
    worst = int(np.argmax(rel)) if len(rel) else 0
    return IdentityReport(
        max_abs_err=float(absd.max(initial=0.0)),
        max_rel_err=float(rel.max(initial=0.0)),
        worst_point=Point.of(pts[worst]),
        points_checked=len(rows),
        tol=float(tol),
    )


def scaling_exponents(p: float, q: float, n: int):
    """(lambda1, lambda2) exponents of the two sides of the scaled inequality.

    The transformed side scales like lam1^(1-n+(n-1)/q) * lam2^(-n/q) in the
    plain L^q norm, the input side like lam1^((1-n)/p) * lam2^(-1/p); the
    pairs coincide exactly when p = (n+1)/n and q = n+1.
    """
    if p < 1 or q < 1:
        raise DomainError("exponents require p >= 1 and q >= 1")
    lhs = (1 - n + (n - 1) / q, -n / q)
    rhs = ((1 - n) / p, -1 / p)
    return lhs, rhs
