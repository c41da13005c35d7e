"""Backprojection of transformed data and the inversion built on it.

Every entry point here evaluates one field, built by ``_inverse_field``: x
-> (-Delta)^k g(x), with g the kernel-weighted backprojection of the data
over all slopes (or paraboloid centers). At k = 0 it is the backprojection
(``backprojection``, ``backprojection_field``); at k = (n-1)/2, followed by
the kind's output chain, it is the inversion (``reconstruct``, ``invert``).

Under the slope-intercept relation u = tan(theta) the slope integral is the
classical backprojection over the half circle (n = 2) or hemisphere (n = 3)
of directions, where the integrand is smooth and bounded; the slope nodes
are therefore a Gauss rule in the polar angle and, for n = 3, on each polar
ring a uniform azimuth rule sized by the ring's circumference, weighted by
the exact Jacobian, with no truncation unless a slope cutoff is asked for.

The power is taken inside the backprojection: every direction's term
depends on x only through the data's intercept s, with |grad s| = c =
sqrt(1 + 4|z|^2), so the power is c^(2k) times the 1-D power
(-d^2/ds^2)^k of the data in s (the filtered backprojection; Natterer, *The
Mathematics of Computerized Tomography*, 1986, ch. II):

* integer k: a central difference of the data in s of spacing
  ``stencil_h``, 2k+1 reads per direction (one read at k = 0);
* k = 1/2 (n = 2): the eps-limit integral of the first difference against
  |y|^(-3), divided by the closed form of Samko's normalizer d = 2 pi =
  2 d_(1,1) (``hypersingular_constant``; Samko, *Hypersingular Integrals*,
  2002), which is the 1-D integral (1/pi) integral_0^inf (2h(s) - h(s+t) -
  h(s-t)) / t^2 dt of the data h in s, on q Gauss nodes in panels from 0
  with t scaled by c, plus its exact tail: 2q+1 reads per direction.

The two methods of ``invert``, ``hypersingular`` and ``laplacian_power``,
both run it and return the same value: for odd n the ell-th hypersingular
integral against |y|^(1-2n), divided by d_(n,ell), is the integer power in
the limit. ``hypersingular`` still checks ell against n.

The module also has both operators on a given field: ``laplacian_power``
applies k-fold central-difference stencils, and ``hypersingular_apply``
the hypersingular integral, with the difference averaged over y and -y so
that it loses its odd Taylor terms and the limit is an absolutely
convergent integral, taken by Gauss panels from 0 over the half circle or
hemisphere of directions; beyond the outer radius it is closed form, from
g ~ M/|x| with M = integral of f / sigma_n fitted to sphere means of g.

Every kind is inverted through the transversal one, as the paper derives
its sonar and parabolic formulas. A kind's row of ``_KINDS`` names the
operator that reads its data as transversal data (parabolic data by
``parabolic_unshear_scaled``, criterion 2's identity; sonar profiles by
``profile_to_field``, criterion 3's), backprojected on slopes u = 2z of the
grid's nodes z, and the output chain that takes the inversion of that data
back to the function the data came from (``parabolic_unshear``,
``square_pullback_unshear``).

Everything here is pure: reconstructions at different output points are
independent and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError
from .fields import ScalarField, SphereProfile, _as_points_array, _finite_points
from .operators import OperatorId, apply_chain
from .quadrature import QuadratureSpec, _finite, line_rule, octave_edges, panel_rule, sphere_nodes

#: per kind: the data type it consumes, the chain that reads it as
#: transversal data, the factor from that data's slope u to the caller's slope
#: z (u = 2z), and the chain from the inversion back to the data's function
_KINDS = {
    "transversal": (ScalarField, (), 1.0, ()),
    "parabolic": (ScalarField, (OperatorId("parabolic_unshear_scaled"),), 0.5,
                  (OperatorId("parabolic_unshear"),)),
    "sonar": (SphereProfile, (OperatorId("profile_to_field"),), 0.5,
              (OperatorId("square_pullback_unshear"),)),
}

_METHODS = ("hypersingular", "laplacian_power")


@dataclass(frozen=True)
class ReconstructionConfig:
    """Controls for the inversion pipeline.

    Parameters
    ----------
    ell:
        Finite-difference order of the hypersingular integral. Recovery
        requires ell = n-1 for even n and any ell > n-1 for odd n, which the
        ``hypersingular`` method of ``invert`` checks; its value enters only
        ``hypersingular_apply``.
    stencil_h:
        Spacing, in the data's intercept variable, of the central difference
        that the odd-n inversion applies to the data inside the
        backprojection (``for_dimension``: 0.01); even n never reads it.
    exponent:
        |y|-power of the kernel of ``hypersingular_apply``, which alone
        reads it; None selects 2n-1, the only power ``invert`` and
        ``reconstruct`` accept.
    y_radius:
        Outer radius T of the radial quadrature of the hypersingular
        integral. In 2-D ``invert`` it is the end of the 1-D integral in
        tau = t / c, whose tail beyond T is exact once every support point
        lies within T of the mapped point z (z = x for transversal data):
        exact recovery needs T at least the distance from z to the far edge
        of the support. In ``hypersingular_apply`` on a field g the tail
        beyond it comes from a far-field model of g fitted to its means over
        spheres of radius 8 to 16 about x, so y_radius should be at least 8
        there.
    hyper_radial_nodes:
        Gauss nodes per radial panel of that integral (panels on the octave
        edges 0, 0.25, 0.5, ..., y_radius): in 2-D ``invert`` the nodes per
        panel of the 1-D rule.
    bp_stop:
        Slope cutoff of the backprojection: only slopes |z| <= bp_stop
        (|u| <= 2 bp_stop for transversal data) enter, the polar angle
        running up to arctan(2 bp_stop). The default, infinity, integrates
        over every direction with no truncation.
    bp_angular_nodes:
        Azimuths of the widest polar ring of the direction grid in n = 3.
        Ring j at polar angle theta_j gets min(bp_angular_nodes,
        ceil(bp_angular_nodes sin(theta_j)) + 4) uniform azimuths, so the
        short rings near the pole are not over-resolved.
    g_spec:
        QuadratureSpec whose ``m`` is the number of Gauss nodes in the polar
        angle of the direction grid: the m directions of the half circle
        for n = 2, m polar rings (polar cosines) for n = 3, whose azimuths
        ``bp_angular_nodes`` sets; the defaults, 10 rings of at most 24,
        give 204 directions. None takes the ``for_dimension`` grid.
    """

    ell: int = 1
    stencil_h: float = 0.02
    exponent: float | None = None
    y_radius: float = 8.0
    hyper_radial_nodes: int = 8
    bp_stop: float = math.inf
    bp_angular_nodes: int = 24
    g_spec: QuadratureSpec | None = None

    def __post_init__(self):
        if not isinstance(self.ell, (int, np.integer)) or self.ell < 1:
            raise ConfigError("ell must be an integer >= 1")
        if not self.stencil_h > 0:
            raise ConfigError("stencil_h must be positive")
        if self.exponent is not None and not self.exponent > 0:
            raise ConfigError("exponent must be positive when given")
        if not self.y_radius > _FIRST_EDGE:
            raise ConfigError(f"y_radius must exceed {_FIRST_EDGE}")
        if min(self.hyper_radial_nodes, self.bp_angular_nodes) < 4:
            raise ConfigError("node counts must be >= 4")
        if not self.bp_stop > 0:
            raise ConfigError("bp_stop must be positive")

    @classmethod
    def for_dimension(cls, n: int, **overrides) -> "ReconstructionConfig":
        """Defaults per dimension: ell = n-1 for even n, ell = n for odd n,
        the stencil spacing, and the polar nodes of the direction grid."""
        params = {
            "ell": n - 1 if n % 2 == 0 else n,
            "stencil_h": 0.02 if n % 2 == 0 else 0.01,
            # polar nodes of the direction grid. The 3-D rule has converged at
            # 10 rings (m = 160 bump data reads within 4e-6 of 32 rings); more
            # rings amplify the m = 80 data's error by the steepest ring's c^2
            "g_spec": QuadratureSpec.for_dimension(n).with_(m=96 if n == 2 else 10),
        }
        params.update(overrides)
        return cls(**params)

    def refined(self) -> "ReconstructionConfig":
        """A uniformly sharper configuration: doubled polar direction nodes
        and a wider, denser hypersingular integral."""
        g = self.g_spec
        if g is not None:
            g = g.with_(m=g.m * 2)
        return replace(
            self,
            hyper_radial_nodes=self.hyper_radial_nodes * 3 // 2,
            y_radius=2 * self.y_radius,
            g_spec=g,
        )

    def with_(self, **overrides) -> "ReconstructionConfig":
        return replace(self, **overrides)


# ---------------------------------------------------------------------------
# backprojection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _slope_grid(n: int, m: int, stop: float, azimuths: int):
    """x-independent slope nodes/weights: a rule over the directions of the
    upper half circle (n = 2) or hemisphere (n = 3).

    The direction at polar angle theta from the last axis, with azimuth
    omega on the circle for n = 3, is the slope z = tan(theta)/2 (n = 2,
    theta signed) or z = tan(theta)/2 * omega (n = 3), so that |z| <= stop
    means |theta| <= arctan(2 stop). The polar rule is ``m`` Gauss nodes in
    the variable s with ds = sin^(n-2)(theta) dtheta, the polar part of the
    surface measure: theta on the whole half circle for n = 2, cos(theta)
    for n = 3, where each polar ring gets a uniform azimuth rule of
    ``_ring_azimuths`` points, ``azimuths`` on the widest ring; the rings
    follow one another in the returned list. The weights carry the exact
    Jacobian dz = 2^(1-n) cos^(-n)(theta) ds domega: against the kernel
    (1+4|z|^2)^(-(n-1)/2) = cos^(n-1)(theta) and data that decays like
    cos(theta), the integrand is the bounded classical backprojection over
    directions.

    Returns (Z, W) with Z of shape (N, n-1): the slopes z of parabolic and
    sonar data, at which the backprojection reads its transversal data at
    u = 2z.
    """
    top = math.atan(2.0 * stop)
    if n == 2:
        theta, ws = line_rule(-top, top, m)
        rings = [(np.ones((1, 1)), np.ones(1))] * m
    else:
        c, ws = line_rule(math.cos(top), 1.0, m)
        theta = np.arccos(c)
        rings = [sphere_nodes(1, a) for a in _ring_azimuths(theta, azimuths)]
    wz = ws / (2.0 ** (n - 1) * np.cos(theta) ** n)
    Z = np.concatenate([0.5 * t * omega for t, (omega, _) in zip(np.tan(theta), rings)])
    W = np.concatenate([w * aw for w, (_, aw) in zip(wz, rings)])
    return Z, W


def _ring_azimuths(theta, widest):
    """Azimuths of the polar rings at the angles ``theta`` of the n = 3
    direction grid: min(widest, ceil(widest sin(theta)) + 4), so that a ring's
    count follows its circumference (Gorski et al., "HEALPix", ApJ 622 (2005)
    759). The 4 above the circumference rule keep the rings near the pole,
    whose directions cross the whole support, about as accurate as 24
    azimuths on every ring: on 10 rings the 3-D backprojection of the
    Gaussian out to |x| = 3 reads 9.3e-9 off its closed form (4.8e-9 with
    24 everywhere), where max(8, ceil(24 sin(theta))) left 5.4e-7, 16
    everywhere 1.0e-5 and no pad 3.1e-5."""
    return np.minimum(widest, np.ceil(widest * np.sin(theta)).astype(int) + 4)


def _checked_cfg(kind, data, cfg) -> ReconstructionConfig:
    """Checks that ``kind`` backprojects ``data``; returns cfg, or the
    dimension's defaults, with an unset g_spec taking the dimension's
    direction grid."""
    if kind not in _KINDS:
        raise DomainError(f"unknown backprojection kind {kind!r}")
    consumes = _KINDS[kind][0]
    if not isinstance(data, consumes):
        raise DomainError(f"{kind} backprojection consumes a {consumes.__name__}")
    if isinstance(data, ScalarField) and data.domain != "full":
        raise DomainError("backprojection data must live on the full space")
    if data.n not in (2, 3):
        raise DomainError("backprojection implemented for n in {2, 3}")
    if cfg is None:
        return ReconstructionConfig.for_dimension(data.n)
    if cfg.g_spec is None:
        cfg = cfg.with_(g_spec=ReconstructionConfig.for_dimension(data.n).g_spec)
    return cfg


def _radial_rule(cfg):
    """Gauss panels of ``hyper_radial_nodes`` nodes on the edges 0, 0.25, 0.5, ..., y_radius."""
    return panel_rule(np.concatenate([[0.0], octave_edges(_FIRST_EDGE, cfg.y_radius)]),
                      cfg.hyper_radial_nodes)


def _intercept_rule(k, cfg, c):
    """Offsets in the data's intercept s and weights of (-d^2/ds^2)^k, both
    broadcasting to (reads, directions), for directions with |grad s| = c.

    k is an integer or 1/2. Integer k: the central difference
    (-1)^j C(2k, k+j) / h^(2k) at the offsets j h, j = -k..k, h = stencil_h;
    k = 0 is the single weight 1. k = 1/2: the 1-D hypersingular integral
    (1/pi) integral_0^inf (2 psi(s) - psi(s+t) - psi(s-t)) / t^2 dt of the
    data psi, with t = c tau and tau on ``_radial_rule`` up to T = y_radius,
    so that the panels keep the data's width in classical coordinates: the
    weight -w_q / (pi c tau_q^2) at each of s + c tau_q and s - c tau_q, and
    at s their doubled negated sum plus the tail 2 / (pi c T) beyond T,
    which is exact once cT covers the data's support about s.
    """
    if k == int(k):
        k = int(k)
        w = np.array([(-1.0) ** j * math.comb(2 * k, k + j)
                      for j in range(-k, k + 1)]) / cfg.stencil_h ** (2 * k)
        return cfg.stencil_h * np.arange(-k, k + 1.0)[:, None], w[:, None]
    tau, wt = _radial_rule(cfg)
    a = wt / tau ** 2
    offsets = np.concatenate([[0.0], tau, -tau])[:, None] * c[None, :]
    w = np.concatenate([[2.0 * (a.sum() + 1.0 / cfg.y_radius)], -a, -a])
    return offsets, w[:, None] / (math.pi * c[None, :])


def _bp_batch(data, slope_scale, X, cfg, k=0, names=None) -> np.ndarray:
    """(-Delta)^k of the backprojection of transversal data at an (M, n)
    batch of points X; a non-finite point or data read names the row of
    ``names`` (default X) it was for, a read also the slope u read, times
    ``slope_scale``.

    Each direction's term depends on x only through the data's intercept
    s = x_n - x'.u, whose gradient has length c = sqrt(1 + |u|^2), so
    (-Delta)^k passes inside the integral as c^(2k) (-d^2/ds^2)^k: the data
    is read at the offsets of ``_intercept_rule`` about s and combined with
    its weights. k = 0 is the backprojection itself, an integer k a central
    difference, k = 1/2 the 1-D hypersingular integral (n = 2).
    """
    n = X.shape[1]
    names = X if names is None else names
    _finite_points("backprojection", X, names)
    Z, W = _slope_grid(n, cfg.g_spec.m, cfg.bp_stop, cfg.bp_angular_nodes)
    U = 2.0 * Z
    zsq = np.sum(Z * Z, axis=1)
    # the kernel (1 + 4|z|^2)^(-(n-1)/2) times |grad s|^(2k)
    kernel = (1.0 + 4.0 * zsq) ** (k - (n - 1) / 2.0)
    offsets, weights = _intercept_rule(k, cfg, np.sqrt(1.0 + 4.0 * zsq))
    # du = 2^(n-1) dz
    Wk = (weights * (2.0 ** (n - 1) * W * kernel)[None, :]).ravel()
    S, N = offsets.shape[0], Z.shape[0]
    R = N * S                                         # data reads per point
    pref = (2 * np.pi) ** (1 - n)
    out = np.empty(X.shape[0])
    # at most 200k data reads per batch: the nested kernel caps its own
    # batches, so this bounds only the read points
    step = max(1, 200_000 // R)
    for i0 in range(0, X.shape[0], step):
        Xc = X[i0:i0 + step]
        B = Xc.shape[0]
        sec = Xc[:, -1][:, None] - Xc[:, :-1] @ U.T   # (B, N)
        sec = (sec[:, None, :] + offsets).ravel()     # (B, S, N)
        ZP = np.broadcast_to(U, (B * S, N, n - 1)).reshape(-1, n - 1)
        vals = data.eval_array(np.concatenate([ZP, sec[:, None]], axis=1))
        bad = ~np.isfinite(vals)
        if bad.any():
            b, j = divmod(int(np.argmax(bad)), R)
            slope = tuple(float(v) for v in slope_scale * U[j % N])
            point = tuple(float(v) for v in names[i0 + b])
            raise QuadratureError(
                f"non-finite data at slope {slope} for point {point}", node=slope)
        # one product per point, so that a point's value does not depend on
        # the batch it came in
        out[i0:i0 + step] = pref * (vals.reshape(B, 1, R) @ Wk)[:, 0]
    return out


def _inverse_field(kind, data, cfg, k, names=None) -> ScalarField:
    """x -> (-Delta)^k of the backprojection of the data of ``kind``, read as
    transversal data through the kind's ``_KINDS`` row, for a checked and
    resolved cfg: k = 0 is the backprojection, k = (n-1)/2 the inversion of
    the transversal data. A non-finite point or read names its row of
    ``names`` (default the points evaluated)."""
    _, reads, slope_scale, _ = _KINDS[kind]
    tdata = apply_chain(reads, data)
    return ScalarField(data.n, lambda X: _bp_batch(tdata, slope_scale, X, cfg, k, names))


def backprojection(kind: str, data, x, *, cfg=None) -> float:
    """Kernel-weighted slope integral of the data at one point: the field of
    ``backprojection_field`` there.

    kind "transversal": (2 pi)^(1-n) * integral of
        data(y', x_n - y'.x') (1+|y'|^2)^(-(n-1)/2) dy';
    kind "parabolic":  pi^(1-n) * integral of
        data(z', x_n - 2 z'.x' + |z'|^2) (1+4|z'|^2)^(-(n-1)/2) dz';
    kind "sonar": as parabolic with the profile read at r = sqrt(arg) and an
        extra arg^(-1/2) factor, the integrand vanishing where arg <= 0.

    The last two are the transversal backprojection of the transversal data
    that ``parabolic_unshear_scaled`` and ``profile_to_field`` make of the
    data (criterion 13), which is how they are computed.
    """
    return backprojection_field(kind, data, cfg).eval(x)


def backprojection_field(kind: str, data, cfg=None) -> ScalarField:
    """The backprojection as a lazily evaluated field on R^n: the inverse
    field at k = 0."""
    return _inverse_field(kind, data, _checked_cfg(kind, data, cfg), 0)


# ---------------------------------------------------------------------------
# Laplacian powers
# ---------------------------------------------------------------------------

def _stencil_offsets(n: int, k: int, h: float):
    """Offsets/coefficients of the k-fold (2n+1)-point stencil for (-Delta)^k."""
    offs = {(0,) * n: 1.0}
    for _ in range(k):
        new = {}
        for off, c in offs.items():
            new[off] = new.get(off, 0.0) + c * 2 * n / h ** 2
            for i in range(n):
                for s in (1, -1):
                    o2 = off[:i] + (off[i] + s,) + off[i + 1:]
                    new[o2] = new.get(o2, 0.0) - c / h ** 2
        offs = new
    steps = np.array(sorted(offs), dtype=float)
    coefs = np.array([offs[tuple(int(v) for v in row)] for row in steps])
    return steps, coefs


def laplacian_power(g: ScalarField, x, k: int, h: float) -> float:
    """(-Delta)^k g at x via k-fold central-difference stencils; k = 0 is g(x)."""
    if k < 0:
        raise DomainError("laplacian_power requires k >= 0")
    if not h > 0:
        raise DomainError("stencil spacing h must be positive")
    x0 = _as_points_array(x, g.n)[0]
    if k == 0:
        return float(g.eval_array(x0[None, :])[0])
    steps, coefs = _stencil_offsets(g.n, k, h)
    return float(g.eval_array(x0[None, :] + h * steps) @ coefs)


# ---------------------------------------------------------------------------
# the hypersingular integral
# ---------------------------------------------------------------------------

#: Radii of the ring (n = 2) or sphere (n = 3) means of g about x that fit
#: its far field M/rho + B/rho^3. The backprojection of the unit Gaussian is
#: at most 1e-6 off at radius 16, which moves the fitted M by 1e-7, but 5e-3
#: off at 32. In 2-D the first omitted order, 9 M mu_4 / (64 rho^5) with
#: mu_4 the mean fourth power of the source's distance from x, moves the
#: fitted M by 9 mu_4 / (64 * 8^2 * 16^2) relative: 1.7e-5 for the unit
#: Gaussian about 0.
_FIT_RADII = np.array([8.0, 16.0])
#: Directions per ring (n = 2) or polar cosines and azimuths per sphere
#: (n = 3) of those means.
_FIT_NODES = 16
#: Outer edge of the first radial panel of the hypersingular integral.
_FIRST_EDGE = 0.25


def _sphere_area(n: int) -> float:
    return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


def _hyper_nodes(n: int, cfg, exponent: float):
    """Offsets y over the upper half circle (n = 2) or hemisphere (n = 3) and
    weights of |y|^(-exponent) dy over the whole ball |y| < y_radius.

    The radial rule is Gauss panels on the octave edges 0, 0.25, 0.5, ...,
    y_radius; the directions are the upper half of sphere_nodes(n-1, 2k), a
    rule that maps onto itself under y -> -y, so the weights integrate an
    even function of y over the whole ball: k = 8 gives 8 directions on the
    half circle (n = 2), k = 4 gives 4 polar cosines times 8 azimuths on the
    hemisphere (n = 3).
    """
    rn, rw = _radial_rule(cfg)
    dirs, aw = sphere_nodes(n - 1, 16 if n == 2 else 8)
    up = dirs[:, -1] > 0
    Y = (rn[:, None, None] * dirs[up][None, :, :]).reshape(-1, n)
    W = ((rw * rn ** (n - 1 - exponent))[:, None] * (2.0 * aw[up])[None, :]).ravel()
    return Y, W


def _far_field(g: ScalarField, x0) -> np.ndarray:
    """Coefficients c_k of the far-field model A(rho) = sum_k c_k rho^(-1-2k)
    of the mean of g over the sphere |z - x0| = rho.

    The backprojection is g = (f * |.|^(-1)) / sigma_n, so A(rho) = M / rho
    plus even powers of the support's extent over rho, with M = integral of
    f / sigma_n = c_0; for n = 3 the model is exact once the sphere encloses
    the support (Newton's theorem). The coefficients interpolate rho A(rho)
    as a polynomial in rho^(-2) at the radii _FIT_RADII.
    """
    n = g.n
    dirs, w = sphere_nodes(n - 1, _FIT_NODES)
    rho = _FIT_RADII
    offs = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    vals = _finite(f"g from point {tuple(float(v) for v in x0)}", g.eval_array(x0 + offs), offs)
    means = vals.reshape(rho.size, -1) @ w / _sphere_area(n)
    return np.linalg.solve(np.vander(rho ** -2.0, rho.size, increasing=True),
                           rho * means)


def hypersingular_apply(g: ScalarField, x, cfg: ReconstructionConfig) -> float:
    """lim_{eps->0} integral over |y| > eps of (Delta^ell_y g)(x) |y|^(-exponent).

    The kernel is even, so the integrand may be averaged over y and -y: the
    odd Taylor terms of the difference cancel and the limit is the absolutely
    convergent integral over |y| < y_radius of
    sum_j C(ell,j) (-1)^j (g(x - jy) + g(x + jy)) / 2 |y|^(-exponent),
    taken on the rule of ``_hyper_nodes``. Beyond y_radius the j = 0 term is
    exact and every j >= 1 term reads the far-field model of ``_far_field``.
    Raises QuadratureError naming x and the offset of the first read at
    which g is not finite.
    """
    n = g.n
    e = cfg.exponent if cfg.exponent is not None else 2.0 * n - 1.0
    if not e > n:
        raise ConfigError("hypersingular exponent must exceed n for the tail")
    x0 = _as_points_array(x, n)[0]
    Y, W = _hyper_nodes(n, cfg, e)
    j = np.arange(1, cfg.ell + 1.0)
    coef = np.array([(-1.0) ** i * math.comb(cfg.ell, i) for i in range(1, cfg.ell + 1)])
    jY = (j[:, None, None] * Y[None, :, :]).reshape(-1, n)
    offs = np.concatenate([np.zeros((1, n)), -jY, jY])
    vals = _finite(f"g from point {tuple(float(v) for v in x0)}", g.eval_array(x0 + offs), offs)
    gx = vals[0]
    pairs = vals[1:].reshape(2, cfg.ell, -1).sum(axis=0)
    body = W @ (gx + 0.5 * (coef @ pairs))
    # beyond R: the j = 0 term, and each j >= 1 term integrated against the
    # model of the sphere means of g about x, A(j|y|)
    R = cfg.y_radius
    k = np.arange(_FIT_RADII.size)
    tail = _far_field(g, x0) * R ** (n - 1 - 2 * k - e) / (e - n + 1 + 2 * k)
    far = tail @ (coef @ j[:, None] ** (-1.0 - 2 * k))
    return float(body + _sphere_area(n) * (gx * R ** (n - e) / (e - n) + far))


# ---------------------------------------------------------------------------
# normalizing constants
# ---------------------------------------------------------------------------

def sqrt_laplacian_constant(n: int) -> float:
    """Gamma((n+1)/2)/pi^((n+1)/2), the normalizer of the half Laplacian's
    singular integral; at n = 2 it is 1 / hypersingular_constant(2, 1)."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    return float(math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2))


def _check_ell(n: int, ell: int):
    if n % 2 == 0:
        if ell != n - 1:
            raise DomainError(f"even n requires ell = n-1, got ell = {ell}")
    elif ell <= n - 1:
        raise DomainError(f"odd n requires ell > n-1, got ell = {ell}")


def hypersingular_constant(n: int, ell: int) -> float:
    """Normalizer of the hypersingular inversion: the real value of
    integral over R^n of (1 - e^(i y_1))^ell |y|^(1-2n) dy, which is Samko's
    closed form (*Hypersingular Integrals and Their Applications*, 2002,
    ch. 3) at a = n-1: with A(a) = sum_{j=1..ell} (-1)^(j-1) C(ell,j) j^a,
        d = pi^(1+n/2) A(a) / (2^a Gamma(1+a/2) Gamma((n+a)/2) sin(pi a/2)).
    For odd n, A(a) and the sine both vanish at the even a = n-1 < ell, and
    d is the ratio of their a-derivatives.
    """
    if n < 2 or not isinstance(n, (int, np.integer)):
        raise DomainError("dimension n must be an integer >= 2")
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise DomainError("ell must be an integer >= 1")
    _check_ell(n, ell)
    a = int(n) - 1
    terms = [(-1) ** (j - 1) * math.comb(ell, j) * j ** a for j in range(1, ell + 1)]
    if n % 2:
        num = math.fsum(t * math.log(j) for j, t in enumerate(terms, 1))
        den = math.pi / 2 * math.cos(math.pi * a / 2)
    else:
        num = math.fsum(terms)
        den = math.sin(math.pi * a / 2)
    return float(math.pi ** (1 + n / 2) * num
                 / (2 ** a * math.gamma(1 + a / 2) * math.gamma((n + a) / 2) * den))


# ---------------------------------------------------------------------------
# composed inverters
# ---------------------------------------------------------------------------

def invert(kind: str, data, x_out, method: str = "hypersingular",
           cfg=None) -> float:
    """Reconstruct the original function at one point from its transform:
    ``reconstruct`` at the one point x_out."""
    return float(reconstruct(kind, data, [x_out], method, cfg)[0])


def reconstruct(kind: str, data, points, method: str = "hypersingular",
                cfg=None) -> np.ndarray:
    """Reconstructed values at many points, in one batch.

    The inverse field at k = (n-1)/2, v = (-Delta)^((n-1)/2) g of the
    backprojection g of the data read as transversal data, taken inside the
    backprojection (both methods run this route and return the same value;
    see the module docstring), followed by the kind's output chain, which
    takes v back to the function the data came from: v itself for kind
    "transversal", ``parabolic_unshear`` of it, v(x', x_n + |x'|^2), for
    "parabolic", and ``square_pullback_unshear`` of it,
    y_n v(y', y_n^2 + |y'|^2), for "sonar", a half-space field that needs
    y_n > 0. A set cfg.exponent must be 2n-1; ``hypersingular`` checks ell
    against n. The chain maps rows one to one, so a non-finite point or data
    read names the row of ``points`` it was for.
    """
    cfg = _checked_cfg(kind, data, cfg)
    n = data.n
    if cfg.exponent is not None and cfg.exponent != 2 * n - 1:
        raise ConfigError(f"exponent must be 2n-1 = {2 * n - 1}, got {cfg.exponent}")
    if method not in _METHODS:
        raise ConfigError(f"unknown inversion method {method!r}")
    if method == "hypersingular":
        _check_ell(n, cfg.ell)
    P = np.array([_as_points_array(p, n)[0] for p in points]).reshape(-1, n)
    inverse = _inverse_field(kind, data, cfg, (n - 1) / 2, names=P)
    return apply_chain(_KINDS[kind][3], inverse).eval_array(P)
