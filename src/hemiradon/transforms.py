"""Forward transforms: hemispherical means, the parabolic and transversal
Radon transforms, the classical Radon transform, and the slope-intercept
change of variables connecting the classical and transversal forms.

Conventions
-----------
sonar:        (x', r)   -> integral of phi over the upper hemisphere of
                           radius r centered at (x', 0), surface measure.
parabolic:    (x', x_n) -> integral over y' of f(x' - y', x_n - |y'|^2).
transversal:  (x', x_n) -> integral over y' of psi(y', x' . y' + x_n),
                           i.e. planes parameterized by slope and intercept.
classical:    (theta,t) -> integral of f over the hyperplane x . theta = t.

Each transform has one definition, its lazily evaluated field or profile
(``sonar_profile``, ``parabolic_field``, ``transversal_field``);
``sonar_transform``, ``parabolic_transform`` and ``transversal_transform``
evaluate it at one point. The parabolic transform integrates over all of
R^{n-1}: its restriction to |y'| < sqrt(x_n) is the transform of
``zero_extend(restrict_positive(f))`` (see ``operators``).

Every transform is one call of the shared kernel ``quadrature._windowed_sums``
per window: the transform supplies only its geometry, the per-point support
windows derived from the input field's support box and the map from window
coordinates to integrand values. The classical kernel charts its plane on the
transversal kernel's Householder frame and fill (``_frame_fill``); a plane
that misses the support box reads exactly 0. The parabolic, transversal and
classical transforms refuse a field without a support box (their domains are
unbounded and never truncated); the sonar hemisphere is compact, so any field
has one. Node counts scale with the window width, so the cost tracks the
geometry instead of the bounding box; the 3-D polar chart takes m per axis.
The sonar and parabolic transforms are implemented for n in {2, 3}; the
transversal and classical transforms for every n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import (Point, ScalarField, SphereProfile, _box_dist_sq,
                     _coordinate_major, _finite_points)
from .quadrature import QuadratureSpec, _finite, _scratch, _windowed_sums, tier_counts


def _default_spec(n: int, spec):
    return spec if spec is not None else QuadratureSpec.for_dimension(n)


def _check_boxed_full(f, what):
    """Refuse a field off the full space or without a support box, the only
    bound of the transform's unbounded integral."""
    if f.domain != "full":
        raise DomainError(f"{what} consumes a full-space field")
    if f.box is None:
        raise DomainError(f"{what} needs a support box: its integral is unbounded")


def _center_halfwidth(box):
    c = np.array([(a + b) / 2 for a, b in box])
    h = np.array([(b - a) / 2 for a, b in box])
    return c, h


def _grid_points(axes, n):
    """Uninitialized n-vectors on the tensor grid of the kernel's axes, of
    shape (b, m_1, ..., m_k, n), coordinate-major and taken from the
    kernel's workspace (see ``fields._coordinate_major``).

    Callers fill one coordinate at a time, straight into the buffer with
    ``out=``; each fill writes one contiguous run, and ``_eval_grid`` hands
    the field a view of this buffer, not a copy."""
    return _coordinate_major(axes.shape + (n,))


def _rank2_fill(out, col, row0, row1):
    """Fill one coordinate ``out`` (b, m_1, ..., m_k) of a chart grid with
    col * row0 + row1, where ``col`` (b, m_1, 1, .., 1) varies along the
    first axis only and ``row0``, ``row1`` (b, 1, m_2, .., m_k) along the
    others (or per row only): one stacked product (b, m_1, 2) @ (b, 2, P) of
    workspace factors, P = m_2 ... m_k, written in one pass. The outer-product
    broadcast and the second broadcast pass that adds the offset took 3.1
    ns a node for one coordinate of a (8, 44, 88) grid, the product 1.2 ns
    (numpy 2.4, OpenBLAS 0.3.31, AVX2 x86-64). The product may fuse the
    multiply and the add, so a point may differ from the broadcast's by one
    ulp; each matrix of the stack is one row's own product, so batching
    never changes a bit."""
    b, m1 = out.shape[:2]
    lhs = _scratch((b, m1, 2))
    lhs[..., 0] = col.reshape(b, m1)
    lhs[..., 1] = 1.0
    rhs = _scratch((b, 2) + out.shape[2:])
    rhs[:, :1] = row0
    rhs[:, 1:] = row1
    np.matmul(lhs, rhs.reshape(b, 2, -1), out=out.reshape(b, m1, -1))


def _frame_fill(pts, x, frame, offset=None):
    """Fill the first N coordinates of ``pts`` with sum_j x_j frame[:, j] +
    offset, for the k node arrays ``x``, per-row frame rows ``frame`` (b, k,
    N) and per-row ``offset`` (b, N): one ``_rank2_fill`` per coordinate."""
    row = (-1,) + (1,) * len(x)
    for i in range(frame.shape[-1]):
        terms = [xj * frame[:, j, i].reshape(row) for j, xj in enumerate(x[1:], 1)]
        if offset is not None:
            terms.append(offset[:, i].reshape(row))
        _rank2_fill(pts[..., i], x[0], frame[:, 0, i].reshape(row), sum(terms[1:], terms[0]))


def _eval_grid(field, pts):
    """``field`` at every point of ``pts`` (..., n), in the shape (...)."""
    return field.eval_array(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1])


def _reflections(D, axis):
    """Householder reflections (M, k, k) mapping e_axis to each unit row of
    D (M, k), batched; a zero row, or one at e_axis, gets the identity.

    The entry of D - e_axis on the axis is taken in the cancellation-free
    form -|rest|^2 / (1 + D_axis) when D_axis > 0, so that rows near e_axis
    keep their digits."""
    v = D.copy()
    a = D[:, axis]
    rest2 = np.sum(np.delete(D, axis, axis=1) ** 2, axis=1)
    v[:, axis] = np.where(a > 0, -rest2 / (1 + np.abs(a)), a - 1)
    vnorm2 = np.sum(v ** 2, axis=1)
    # no reflection: dividing by inf leaves I
    vnorm2 = np.where(D.any(axis=1) & (vnorm2 > 1e-28), vnorm2, np.inf)
    return np.eye(D.shape[1]) - 2 * v[:, :, None] * v[:, None, :] / vnorm2[:, None, None]


def _polar_chart(field, pole, rlo, rhi, d, circ, m, radial):
    """Per-row integrals of ``field`` in n = 3 over the (radius or polar
    cosine) x angle chart of the sonar and parabolic kernels, about the
    row's ``pole`` (M, 2) in the plane of the first two coordinates.

    The first axis gets [rlo, rhi]. At its nodes t, ``radial(idx, t)`` gives
    (rho, height, jac): the chart point at angle a is (pole + rho (cos a,
    sin a), height), and its value is scaled by the Jacobian jac (None for
    none). The angle axis gets the arc of the angles whose ray (cos a, sin a)
    meets the disc of radius ``circ`` about ``d`` (M, 2), or the full circle
    [0, 2 pi], flagged periodic, when the disc holds the origin.

    Every row holds m nodes on both axes. The full circle takes the midpoint
    rule, which converges geometrically on a smooth periodic integrand
    (Trefethen and Weideman, SIAM Review 56, 2014). An arc holds the whole
    disc however far the pole is, and is widest when the pole lies just
    outside it, so it gets no fewer nodes than the circle. The first axis
    takes m too: a polar-cosine window narrow against [0, 1] still crosses
    the whole support (the 3-D polar tests in ``tests/test_transforms.py``).
    """
    dist = np.linalg.norm(d, axis=1)
    full = dist <= circ
    alpha = np.arctan2(d[:, 1], d[:, 0])
    halfang = np.arcsin(np.clip(circ / np.maximum(dist, 1e-300), 0, 1))
    lo = np.column_stack([rlo, np.where(full, 0.0, alpha - halfang)])
    hi = np.column_stack([rhi, np.where(full, 2 * np.pi, alpha + halfang)])

    def chart(idx, nodes):
        tn, an = nodes
        rho, height, jac = radial(idx, tn)
        pts = _grid_points(nodes, 3)
        for i, trig in enumerate((np.cos, np.sin)):
            _rank2_fill(pts[..., i], rho, trig(an), pole[idx, i][:, None, None])
        pts[..., 2] = height
        vals = _eval_grid(field, pts)
        if jac is not None:
            vals *= jac
        return vals

    return _windowed_sums(lo, hi, np.full((len(dist), 2), m), chart, full)


# ---------------------------------------------------------------------------
# sonar (hemispherical means)
# ---------------------------------------------------------------------------

def sonar_transform(phi: ScalarField, xprime, r: float, spec=None) -> float:
    """Surface integral of phi over the upper hemisphere S+(x', r).

    For n = 2 this is the arc integral
        int_0^pi phi(x' + r cos t, r sin t) r dt,
    and for n = 3 the spherical chart in the polar cosine c = y_n / r and
    the azimuth, with surface element r^2 dc d(omega).
    """
    return sonar_profile(phi, spec).eval(xprime, r)


def sonar_profile(phi: ScalarField, spec=None) -> SphereProfile:
    """The sonar transform as a lazily evaluated profile in (x', r)."""
    _check_sonar_field(phi)
    spec = _default_spec(phi.n, spec)
    r_support = None
    if phi.box is not None:
        box = phi.box

        def r_support(XP):
            lo2, hi2 = _box_dist_sq(np.asarray(XP, dtype=float), box[:-1])
            a, b = box[-1]
            lo2 += max(a, 0.0) ** 2
            hi2 += max(abs(a), abs(b)) ** 2
            return np.sqrt(lo2), np.sqrt(hi2)

    return SphereProfile(phi.n, lambda XP, R: _sonar_batch(phi, XP, R, spec),
                         xprime_box=None, r_support=r_support)


def _check_sonar_field(phi):
    if phi.domain != "half":
        raise DomainError("sonar consumes a half-space field")
    if phi.n not in (2, 3):
        raise DomainError("sonar transform implemented for n in {2, 3}")


def _sonar_batch(phi, XP, R, spec):
    _finite_points("sonar transform", np.column_stack([XP, R]))
    if phi.n == 2:
        x = XP[:, 0]
        windows = [(np.zeros(len(R)), np.full(len(R), np.pi))]
        if phi.box is not None:
            (b1lo, b1hi), (b2lo, b2hi) = phi.box
            # cos t = (y1 - x)/r must reach the first-axis support
            tlo = np.arccos(np.clip((b1hi - x) / R, -1.0, 1.0))
            thi = np.arccos(np.clip((b1lo - x) / R, -1.0, 1.0))
            # sin t = y2/r must fall in [b2lo, b2hi]: t in [a, b] on the arc
            # and its mirror [pi - b, pi - a], one window while b2hi >= r
            a = np.arcsin(np.clip(max(b2lo, 0.0) / R, 0.0, 1.0))
            top = b2hi < R
            b = np.where(top, np.arcsin(np.clip(b2hi / R, 0.0, 1.0)), np.pi - a)
            mirror = np.maximum(tlo, np.pi - b)
            windows = [(np.maximum(tlo, a), np.minimum(thi, b)),
                       (mirror, np.where(top, np.minimum(thi, np.pi - a), mirror))]

        def arc(idx, axes):
            pts = _grid_points(axes, 2)
            y1, y2 = pts[..., 0], pts[..., 1]
            # one transcendental per node: with u = tan(t/2), the point is
            # (x - r + w, u w), w = 2r / (1 + u^2) = r (1 + cos t), within a
            # few ulp on all of [0, pi]. sqrt(1 - cos^2 t) loses digits near
            # the arc's ends; np.tan took 0.10 ms against 0.44 ms for np.cos
            # on 32k float64 nodes (numpy 2.4, AVX2 x86-64)
            u = axes.affine(0, _scratch(axes.shape), 0.5)
            np.tan(u, out=u)
            np.square(u, out=y2)
            y2 += 1.0
            np.divide(2.0 * R[idx, None], y2, out=y2)
            np.add(y2, (x[idx] - R[idx])[:, None], out=y1)
            y2 *= u
            return _eval_grid(phi, pts)

        out = 0.0
        for lo, hi in windows:
            counts = tier_counts(lo, hi, spec.m, np.pi)
            out = out + _windowed_sums(lo[:, None], hi[:, None], counts[:, None], arc)
        return _finite("sonar transform", out * R, lambda: np.column_stack([XP, R]))

    # n = 3: polar cosine c = y_3 / r against the azimuth
    clo = np.zeros(len(R))
    chi = np.ones(len(R))
    d = np.zeros_like(XP)
    circ = np.inf
    if phi.box is not None:
        b2lo, b2hi = phi.box[-1]
        clo = np.clip(max(b2lo, 0.0) / R, 0.0, 1.0)
        chi = np.clip(b2hi / R, 0.0, 1.0)
        c, h = _center_halfwidth(phi.box[:-1])
        circ = float(np.linalg.norm(h))
        d = c[None, :] - XP
        dist = np.linalg.norm(d, axis=1)
        # lateral reach r sin(theta) must fall inside [dist-circ, dist+circ]
        near = np.clip((dist - circ) / R, 0.0, None)
        farr = np.clip((dist + circ) / R, 0.0, 1.0)
        chi = np.where(near < 1.0, np.minimum(chi, np.sqrt(np.clip(1 - near ** 2, 0, 1))), clo)
        clo = np.maximum(clo, np.sqrt(np.clip(1 - farr ** 2, 0, 1)))

    def cap(idx, cn):
        r = R[idx, None, None]
        return r * np.sqrt(np.clip(1 - cn ** 2, 0, 1)), r * cn, None

    out = _polar_chart(phi, XP, clo, chi, d, circ, spec.m, cap)
    return _finite("sonar transform", out * R ** 2, lambda: np.column_stack([XP, R]))


# ---------------------------------------------------------------------------
# parabolic
# ---------------------------------------------------------------------------

def parabolic_transform(f: ScalarField, x, spec=None) -> float:
    """Integral of f(x' - y', x_n - |y'|^2) over y' in R^{n-1}."""
    return parabolic_field(f, spec).eval(x)


def parabolic_field(f: ScalarField, spec=None) -> ScalarField:
    """The parabolic transform as a lazily evaluated field on R^n."""
    _check_boxed_full(f, "parabolic transform")
    if f.n not in (2, 3):
        raise DomainError("parabolic transform implemented for n in {2, 3}")
    spec = _default_spec(f.n, spec)

    def section(XP):
        lo2, hi2 = _box_dist_sq(np.asarray(XP, dtype=float), f.box[:-1])
        a, b = f.box[-1]
        return a + lo2, b + hi2

    return ScalarField(f.n, lambda pts: _parabolic_batch(f, pts, spec),
                       domain="full", box=None, section_support=section)


def _parabolic_batch(f, X, spec):
    _finite_points("parabolic transform", X)
    box = f.box
    xn = X[:, -1]
    b2lo, b2hi = box[-1]
    rlo = np.sqrt(np.maximum(xn - b2hi, 0.0))
    rhi = np.sqrt(np.maximum(xn - b2lo, 0.0))

    if f.n == 2:
        x = X[:, 0]
        (b1lo, b1hi), _ = box

        def line(idx, axes):
            pts = _grid_points(axes, 2)
            axes.affine(0, pts[..., 0], -1.0, x[idx])
            y2 = np.square(axes.affine(0, pts[..., 1]), out=pts[..., 1])
            np.subtract(xn[idx, None], y2, out=y2)
            return _eval_grid(f, pts)

        # the support is an annulus in y: integrate its two radial sides apart
        out = 0.0
        for lo, hi in ((np.maximum(rlo, x - b1hi), np.minimum(rhi, x - b1lo)),
                       (np.maximum(-rhi, x - b1hi), np.minimum(-rlo, x - b1lo))):
            counts = tier_counts(lo, hi, spec.m, b1hi - b1lo)
            out = out + _windowed_sums(lo[:, None], hi[:, None], counts[:, None], line)
        return _finite("parabolic transform", out, X)

    # n = 3: polar coordinates in y', centred on the support disc at x' - c
    xp = X[:, :2]
    c, h = _center_halfwidth(box[:-1])
    circ = float(np.linalg.norm(h))
    d = xp - c[None, :]
    dist = np.linalg.norm(d, axis=1)
    rlo = np.maximum(rlo, np.maximum(dist - circ, 0.0))
    rhi = np.minimum(rhi, dist + circ)

    def disc(idx, rn):
        # f is read at x' - rn (cos, sin): rho = -rn, the bits of rn * -(cos, sin)
        return -rn, xn[idx][:, None, None] - rn ** 2, rn

    return _finite("parabolic transform", _polar_chart(f, xp, rlo, rhi, d, circ, spec.m, disc), X)


# ---------------------------------------------------------------------------
# transversal
# ---------------------------------------------------------------------------

def transversal_transform(psi: ScalarField, x, spec=None) -> float:
    """Integral of psi(y', x' . y' + x_n) over y' in R^{n-1}."""
    return transversal_field(psi, spec).eval(x)


def transversal_field(psi: ScalarField, spec=None) -> ScalarField:
    """The transversal transform as a lazily evaluated field in (slope, intercept)."""
    _check_boxed_full(psi, "transversal transform")
    spec = _default_spec(psi.n, spec)
    c, h = _center_halfwidth(psi.box[:-1])

    def section(XP):
        XP = np.asarray(XP, dtype=float)
        mid = XP @ c
        spread = np.abs(XP) @ h
        return psi.box[-1][0] - mid - spread, psi.box[-1][1] - mid + spread

    return ScalarField(psi.n, lambda pts: _transversal_batch(psi, pts, spec),
                       domain="full", box=None, section_support=section)


def _transversal_batch(psi, X, spec):
    """Rotated-frame evaluation: the first frame axis is the slope direction,
    so the hyperplane constraint becomes a 1-D slab in that coordinate."""
    _finite_points("transversal transform", X)
    n, k = psi.n, psi.n - 1
    sig, tau = X[:, :k], X[:, -1]
    c, h = _center_halfwidth(psi.box[:-1])
    b2lo, b2hi = psi.box[-1]
    smag = np.linalg.norm(sig, axis=1)
    live = smag > 1e-300
    if k == 1:
        # the reflection below, for one axis: the slope's sign, 1 at slope 0;
        # the frame's 1 x 1 products are then elementwise
        sign = np.where(live & (sig[:, 0] < 0), -1.0, 1.0)
        mid = sign[:, None] * c
        spread = h
    else:
        shat = np.where(live[:, None], sig / np.maximum(smag, 1e-300)[:, None], 0.0)
        basis = _reflections(shat, 0)                  # (M, k, k), symmetric
        # frame-axis support windows of the box via its support function
        mid = basis @ c                                # (M, k) of axis . center
        spread = np.abs(basis) @ h
    lo, hi = mid - spread, mid + spread
    with np.errstate(divide="ignore", invalid="ignore"):
        e1, e2 = (b2lo - tau) / smag, (b2hi - tau) / smag
    lo[:, 0] = np.where(live, np.maximum(lo[:, 0], np.minimum(e1, e2)), lo[:, 0])
    hi[:, 0] = np.where(live, np.minimum(hi[:, 0], np.maximum(e1, e2)), hi[:, 0])
    # slope 0: the last slot is constant tau; support check only
    flat_dead = (~live) & ((tau < b2lo) | (tau > b2hi))
    hi[flat_dead, 0] = lo[flat_dead, 0]

    counts = tier_counts(lo, hi, spec.m, 2 * float(np.max(h)))

    def plane(idx, u):
        if k == 1:
            pts = _grid_points(u, n)
            u.affine(0, pts[..., 0], sign[idx])
            u.affine(0, pts[..., 1], smag[idx], tau[idx])
            return _eval_grid(psi, pts)
        x = list(u)  # node arrays below the point buffer, as in the other charts
        pts = _grid_points(u, n)
        # y' = sum_j u_j basis_j: the frame rotated back to the original axes
        _frame_fill(pts, x, basis[idx])
        row = (-1,) + (1,) * k
        pts[..., k] = smag[idx].reshape(row) * x[0] + tau[idx].reshape(row)
        return _eval_grid(psi, pts)

    return _finite("transversal transform", _windowed_sums(lo, hi, counts, plane), X)


# ---------------------------------------------------------------------------
# classical Radon transform and the slope-intercept relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadonPlane:
    """Hyperplane {y : y . theta = t} with unit normal theta."""

    theta: tuple
    t: float

    def __post_init__(self):
        th = tuple(float(v) for v in np.atleast_1d(self.theta))
        _finite_points("plane (theta, t)", np.array([th + (float(self.t),)]))
        norm = float(np.linalg.norm(th))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"theta must be a unit vector, |theta| = {norm}")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return len(self.theta)


def classical_radon(f: ScalarField, plane: RadonPlane, spec=None) -> float:
    """Integral of f over the hyperplane y . theta = t, charted as t theta +
    sum_j u_j e_j on the rows e_j of the Householder frame mapping e_n to
    theta, each u_j on the support interval of f's box along e_j."""
    if plane.n != f.n:
        raise DomainError("plane dimension does not match the field")
    _check_boxed_full(f, "classical Radon transform")
    spec = _default_spec(f.n, spec)
    n, theta = f.n, np.asarray(plane.theta)
    c, h = _center_halfwidth(f.box)
    if abs(theta @ c - plane.t) > np.abs(theta) @ h:  # beyond the box's support function
        return 0.0
    frame = _reflections(theta[None, :], n - 1)[:, :-1]  # (1, n - 1, n)
    offset = plane.t * theta[None, :]
    mid, spread = frame @ (c - offset[0]), np.abs(frame) @ h
    lo, hi = mid - spread, mid + spread

    def patch(idx, u):
        pts = _grid_points(u, n)
        _frame_fill(pts, list(u), frame[idx], offset[idx])
        return _finite("classical Radon transform", _eval_grid(f, pts), lambda: pts.reshape(-1, n))

    counts = tier_counts(lo, hi, spec.m, 2 * float(np.max(h)))
    return float(_windowed_sums(lo, hi, counts, patch)[0])


def slope_intercept_relation(f: ScalarField, plane: RadonPlane, spec=None):
    """Both sides of the slope-intercept identity for planes meeting the last axis.

    Returns (lhs, rhs) with lhs the classical transform at (theta, t) and
    rhs = |theta_n|^{-1} * (transversal f)(-theta'/theta_n, t/theta_n).
    Requires theta_n != 0.
    """
    theta = np.asarray(plane.theta)
    tn = theta[-1]
    if abs(tn) < 1e-12:
        raise DomainError("slope-intercept relation requires theta_n != 0")
    lhs = classical_radon(f, plane, spec)
    x = Point(tuple(-theta[:-1] / tn), plane.t / tn)
    rhs = transversal_transform(f, x, spec) / abs(tn)
    return lhs, rhs
