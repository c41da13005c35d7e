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
==========================  =====================================================

Every tag is one substitution (``_substitute``),
F -> w(u, F(a x', phi(u) + b|x'|^2)) with u = x_n + c|x'|^2, a > 0 and phi
increasing; the support box and section of the result follow from a, b, c,
phi^-1 and F's own by one rule. A profile is read as its half-space field in
(x', r) (``SphereProfile.as_field``), and a half-space F read on the full
space gives 0 where u <= 0. Per tag, (a, b, c, phi(t), w):
- the four shears: (a, b) = (1, -1), (2, -1), (1, 1) and (1/2, 1/4), with
  c = 0, phi(t) = t and w = 1;
- sqrt_pullback (1, 0, 0, sqrt(t), u^{-1/2}); square_pullback
  (1, 0, 0, t^2, u);
- sqrt_pullback_shear (1, 0, -1, sqrt(t), u^{-1/2}); square_pullback_unshear
  (1, 1, 0, t^2, u);
- field_to_profile (2, -1, 0, r^2, r), reading x_n as r; profile_to_field
  (1/2, 0, 1/4, sqrt(t), u^{-1/2});
- zero_extend and restrict_positive: the identity, with the last interval
  clipped at 0;
- axis_dilate (l1, 0, 0, l2 t, 1); dual_dilate (l2/l1, 0, 0, l2 t, l1^{1-n}).

The (.)_+ convention: powers of a nonpositive argument are exact zeros, so
the square-root singularities along the critical paraboloids are never
poles of the returned fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainError, DomainError
from .fields import (Point, ScalarField, SphereProfile, _box_dist_sq, _coordinate_major,
                     _last_support, _sum_sq)
from .transforms import parabolic_field, sonar_profile, transversal_field

_DILATION_TAGS = frozenset({"axis_dilate", "dual_dilate"})
_TRANSFORM_STEPS = ("sonar", "parabolic", "transversal")
_CONSUMES = {"full": "a full-space field", "half": "a half-space field",
             "profile": "a SphereProfile"}


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


def _scaled_sum_sq(XP, k):
    """k |x'|^2 at the rows of XP, a fresh array."""
    out = _sum_sq(XP)
    out *= k
    return out


def _substitute(field, domain, a, b, c, phi, phi_inv, w):
    """F -> w(u, F(a x', phi(u) + b|x'|^2)), u = x_n + c|x'|^2, for a > 0
    and an increasing phi (None: the identity; called as phi(u, out=...)),
    as a field on ``domain`` or, for domain "profile", as a profile in
    (x', r = x_n). A half-space F read on the full space gives 0 where
    u <= 0.

    The box and the section follow F's by one rule: x' runs over F's x' box
    divided by a, and at x' the last coordinate over
    phi^-1(s - b|x'|^2) - c|x'|^2 for s in F's section at a x' (F's last box
    interval without a section)."""
    n = field.n

    def read(XP, u):
        pts = _coordinate_major(XP.shape[:-1] + (n,))
        np.multiply(XP, a, out=pts[:, :-1])
        last = pts[:, -1]
        s = u if phi is None else phi(u, out=last)
        if b:
            np.add(s, _scaled_sum_sq(XP, b), out=last)
        elif phi is None:
            last[...] = u
        vals = field.eval_array(pts)
        return vals if w is None else w(u, vals)

    zero = field.domain == "half" and domain == "full"

    def core(XP, t):
        u = t
        if c:
            u = _scaled_sum_sq(XP, c)
            u += t
        if zero:
            pos = u > 0
            if not pos.all():
                out = np.zeros(u.shape[0])
                if pos.any():
                    out[pos] = read(XP[pos], u[pos])
                return out
        return read(XP, u)

    def bounds(lo, hi, near, far):
        """The last-coordinate interval at |x'|^2 in [near, far] for s in
        [lo, hi]."""
        if b:
            lo, hi = (lo - b * far, hi - b * near) if b > 0 else (lo - b * near, hi - b * far)
        if phi_inv is not None:
            lo, hi = phi_inv(lo), phi_inv(hi)
        if c:
            lo, hi = (lo - c * far, hi - c * near) if c > 0 else (lo - c * near, hi - c * far)
        return lo, hi

    box = field.box
    nbox = None
    if box is not None:
        bp = tuple((lo / a, hi / a) for lo, hi in box[:-1])
        near = far = None
        if b or c:
            near, far = (float(d[0]) for d in _box_dist_sq(np.zeros((1, n - 1)), bp))
        nbox = bp + (bounds(*box[-1], near, far),)
    section = None
    # the identity rows leave a box-only field's last interval to its box
    if field.section_support is not None or (box is not None and (b or phi is not None)):
        def section(XP):
            XP = np.asarray(XP, dtype=float)
            lo, hi = _last_support(field, a * XP, "substitution")
            sq = _sum_sq(XP) if b or c else None
            return bounds(lo, hi, sq, sq)

    if domain == "profile":
        if nbox is None:
            return SphereProfile(n, core, r_support=section)
        return SphereProfile(n, core, xprime_box=nbox[:-1], r_support=section,
                             r_box=nbox[-1])
    return ScalarField(n, lambda pts: core(pts[:, :-1], pts[:, -1]), domain, nbox,
                       section_support=section)


# phi, phi^-1 and w of the pullbacks by sqrt and by the square, and of the
# domain changes; phi^-1 of sqrt squares a scalar by pow and an array by
# np.square
_SQRT = (np.sqrt, lambda s: np.maximum(s, 0.0) ** 2, lambda u, v: v / np.sqrt(u))
_SQUARE = (np.square, lambda s: np.sqrt(np.maximum(s, 0.0)), lambda u, v: u * v)
_CLIP = (None, lambda s: np.maximum(s, 0.0), None)
_LINEAR = (None, None, None)

#: consumed domain, produced domain, a, b, c, phi, phi^-1, w of each fixed
#: substitution F -> w(u, F(a x', phi(u) + b|x'|^2)), u = x_n + c|x'|^2;
#: the dilations take theirs from lam (``apply``).
_SUBSTITUTIONS = {
    "parabolic_shear": ("full", "full", 1.0, -1.0, 0.0, *_LINEAR),
    "parabolic_shear_scaled": ("full", "full", 2.0, -1.0, 0.0, *_LINEAR),
    "parabolic_unshear": ("full", "full", 1.0, 1.0, 0.0, *_LINEAR),
    "parabolic_unshear_scaled": ("full", "full", 0.5, 0.25, 0.0, *_LINEAR),
    "sqrt_pullback": ("half", "half", 1.0, 0.0, 0.0, *_SQRT),
    "square_pullback": ("half", "half", 1.0, 0.0, 0.0, *_SQUARE),
    "sqrt_pullback_shear": ("half", "full", 1.0, 0.0, -1.0, *_SQRT),
    "square_pullback_unshear": ("full", "half", 1.0, 1.0, 0.0, *_SQUARE),
    "field_to_profile": ("full", "profile", 2.0, -1.0, 0.0, *_SQUARE),
    "profile_to_field": ("profile", "full", 0.5, 0.0, 0.25, *_SQRT),
    "zero_extend": ("half", "full", 1.0, 0.0, 0.0, *_CLIP),
    "restrict_positive": ("full", "half", 1.0, 0.0, 0.0, *_CLIP),
}

#: Every tag: the fixed substitutions and the two dilations.
TAGS = frozenset(_SUBSTITUTIONS) | _DILATION_TAGS


def apply(op: OperatorId, field):
    """Apply one operator, returning a new lazily evaluated field or profile."""
    tag = op.tag
    if not isinstance(field, (ScalarField, SphereProfile)):
        raise ChainError(f"cannot apply {tag} to {type(field).__name__}")
    got = "profile" if isinstance(field, SphereProfile) else field.domain
    if tag in _DILATION_TAGS:
        l1, l2 = op.lam
        scale = (lambda t, out: np.multiply(t, l2, out=out)), (lambda s: s / l2)
        if tag == "axis_dilate":
            kept = "half" if got == "half" else "full"
            row = (kept, kept, l1, 0.0, 0.0, *scale, None)
        else:
            pref = l1 ** (1 - field.n)
            row = ("full", "full", l2 / l1, 0.0, 0.0, *scale, lambda u, v: pref * v)
    else:
        row = _SUBSTITUTIONS[tag]
    consumed, domain, *args = row
    if got != consumed:
        raise ChainError(f"{tag} consumes {_CONSUMES[consumed]}, got {_CONSUMES[got]}")
    return _substitute(field.as_field() if got == "profile" else field, domain, *args)


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
