"""Transform tests against closed forms and independently computed integrals.

Frozen reference values were produced with scipy.integrate.quad/dblquad on
the explicit integrands at the stated points; quad error estimates were at
or below 1e-12 in every case.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

import hemiradon as hr
import hemiradon.quadrature as q
from hemiradon import (
    QuadratureSpec,
    classical_radon,
    lp_norm,
    make_test_field,
    mixed_norm,
    parabolic_field,
    parabolic_transform,
    reconstruct,
    slope_intercept_relation,
    sonar_profile,
    sonar_transform,
    transforms,
    transversal_field,
    transversal_transform,
)
from hemiradon.errors import DomainError, QuadratureError
from hemiradon.fields import Point, ScalarField
from hemiradon.operators import OperatorId, apply
from hemiradon.transforms import RadonPlane


def hemisphere_area(n, r):
    return 0.5 * (2 * math.pi ** (n / 2) / math.gamma(n / 2)) * r ** (n - 1)


# ---------------------------------------------------------------------------
# sonar
# ---------------------------------------------------------------------------

def test_sonar_constant_gives_hemisphere_measure():
    for n in (2, 3):
        one = ScalarField(n, lambda pts: np.ones(len(pts)), domain="half")
        xp = (0.3,) if n == 2 else (0.1, -0.2)
        for r in (0.5, 1.0, 2.0):
            got = sonar_transform(one, xp, r)
            assert got == pytest.approx(hemisphere_area(n, r), rel=1e-10)


def test_sonar_bump_frozen_2d():
    # independent arc-integral oracle: 0.223111437031443
    phi = make_test_field("bump", 2, (0.0, 1.0), 0.5, domain="half")
    got = sonar_transform(phi, (0.0,), 1.0)
    assert got == pytest.approx(0.223111437031443, rel=1e-9)


def test_sonar_bump_frozen_3d():
    # independent polar-chart oracle: 0.116628098294582; the bump's edge
    # flatness limits the tensor rule to ~1e-7 here
    phi = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5, domain="half")
    got = sonar_transform(phi, (0.0, 0.0), 1.0)
    assert got == pytest.approx(0.116628098294582, rel=1e-6)


@pytest.mark.parametrize("xp", [-591.0, -306.0, -57.0])
def test_sonar_large_radius_arc_window(xp):
    # a circle centred far out on the x'-axis, through the bump centre: the
    # arc window must stop at the support's upper edge, or only a couple of
    # its nodes land on the bump
    phi = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    r = math.hypot(1.0, xp)
    t0 = math.atan2(1.0, -xp)

    def along(s):                     # arc length s from the bump centre
        t = t0 + s / r
        return float(phi.eval_array(np.array([[xp + r * math.cos(t), r * math.sin(t)]]))[0])

    want, _ = quad(along, -0.6, 0.6, epsabs=1e-15, epsrel=1e-13, limit=400)
    assert sonar_transform(phi, (xp,), r) == pytest.approx(want, rel=1e-8)


def test_sonar_linearity():
    a = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    b = make_test_field("bump", 2, (0.2, 0.8), 0.3, domain="half")
    xp, r = (0.1,), 0.9
    # the sum carries the union support box, so the two sides window the
    # arcs differently; agreement is limited by the bump quadrature itself
    lhs = sonar_transform(a + b, xp, r)
    rhs = sonar_transform(a, xp, r) + sonar_transform(b, xp, r)
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_sonar_profile_matches_pointwise():
    phi = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    prof = sonar_profile(phi)
    for xp, r in (((-0.2,), 0.8), ((0.0,), 1.0), ((0.3,), 1.2)):
        assert prof.eval(xp, r) == pytest.approx(sonar_transform(phi, xp, r), rel=1e-12)
    assert prof.n == 2
    # support hint: spheres too small or too large to reach the bump vanish
    lo, hi = prof.r_support(np.array([[0.0]]))
    assert lo[0] <= 0.6 and hi[0] >= 1.4


def test_sonar_domain_checks():
    full = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        sonar_transform(full, (0.0,), 1.0)
    phi = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    with pytest.raises(DomainError):
        sonar_transform(phi, (0.0,), -1.0)
    with pytest.raises(DomainError):
        sonar_transform(phi, (0.0, 0.0), 1.0)


def test_sonar_rejects_n4():
    phi = make_test_field("bump", 4, (0.0, 0.0, 0.0, 1.0), 0.5, domain="half")
    with pytest.raises(DomainError):
        sonar_transform(phi, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        sonar_profile(phi)


def test_parabolic_rejects_n4_when_built():
    f = make_test_field("bump", 4, (0.0, 0.0, 0.0, 1.0), 0.5)
    with pytest.raises(DomainError, match="n in"):
        parabolic_field(f)


@pytest.mark.parametrize("m", [6, 8, 80])
def test_polar_rows_batch_like_single_rows(m):
    """A full-circle row and a partial-arc row evaluated together each get
    their own angular rule: the midpoint rule on the circle, Gauss-Legendre
    on the arc, m nodes each."""
    spec = QuadratureSpec(m=m)
    bump3d_half = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5, domain="half")
    prof = sonar_profile(bump3d_half, spec)
    # x' = 0 sees the whole circle of the support; x' = (2, 0.3) an arc
    XP = np.array([[0.0, 0.1], [2.0, 0.3]])
    R = np.array([1.0, 2.2])
    both = prof.eval_array(XP, R)
    for i in range(2):
        alone = prof.eval_array(XP[i:i + 1], R[i:i + 1])[0]
        assert both[i] == pytest.approx(alone, rel=1e-13)

    bump3d = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5)
    field = parabolic_field(bump3d, spec)
    X = np.array([[0.1, 0.0, 1.5], [2.0, 0.3, 5.0]])
    both = field.eval_array(X)
    for i in range(2):
        alone = field.eval_array(X[i:i + 1])[0]
        assert both[i] == pytest.approx(alone, rel=1e-13)


# ---------------------------------------------------------------------------
# 3-D polar kernels: convergence in m
# ---------------------------------------------------------------------------

# Points x' = (d, 0.3) against the bump of scale 0.4 centred at (0, 0, 1),
# on the surface through its centre: the parabolic transform at
# (x', 1 + |x'|^2), the sonar transform at (x', r = sqrt(1 + |x'|^2)). From
# d = 0 to 30 the angle window goes from the full circle to an arc of 0.04.
_POLAR_D_PARABOLIC = (0.0, 0.2, 0.5, 2.0, 8.0, 30.0)
_POLAR_D_SONAR = (0.0, 0.5, 2.0, 8.0, 30.0)

# Parabolic references: scipy.integrate.dblquad(epsabs=1e-15, epsrel=1e-13)
# of f(w, x_n - |x' - w|^2) over the bump's disc |w| < 0.4 in the plane of
# its first two coordinates, w_2 between -+sqrt(0.16 - w_1^2).
_POLAR_REF_PARABOLIC = (0.06256055807506154, 0.0597882397221278, 0.04875911259859508,
                        0.017928660527887802, 0.004652974709974174, 0.0012438017470103376)


def _sonar_bump_through_centre():
    """The sonar value of the half bump on any sphere through its centre.

    Such a sphere meets the ball of radius rho about the centre in a cap of
    area pi rho^2 whatever its own radius (Archimedes' hat-box theorem), so
    the value is the bump's integral over a plane through its centre,
    2 pi int_0^s rho exp(-1 / (1 - rho^2/s^2)) drho = pi s^2 (1/e - E_1(1)).
    scipy.integrate.dblquad over the cap chart agrees to 2e-15 at every d
    here."""
    return math.pi * 0.4 ** 2 * (math.exp(-1.0) - exp1(1.0))


def _polar_errors(kind, m):
    spec = QuadratureSpec.for_dimension(3, m=m)
    if kind == "parabolic":
        f = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4)
        return [abs(parabolic_transform(f, (d, 0.3, 1.09 + d * d), spec) / want - 1)
                for d, want in zip(_POLAR_D_PARABOLIC, _POLAR_REF_PARABOLIC)]
    phi = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4, domain="half")
    want = _sonar_bump_through_centre()
    return [abs(sonar_transform(phi, (d, 0.3), math.sqrt(1.09 + d * d), spec) / want - 1)
            for d in _POLAR_D_SONAR]


@pytest.mark.parametrize("kind", ["parabolic", "sonar"])
def test_3d_polar_kernel_converges_in_m_at_every_distance(kind):
    """Every row holds m nodes on both axes: a far point's narrow arc, which
    holds the whole bump, gains nodes with m as the full circle does. A
    constant floor of 16 angle nodes left 1.1e-3 at d = 8 and 30 for every
    m."""
    coarse, fine = _polar_errors(kind, 80), _polar_errors(kind, 160)
    assert max(coarse) <= 1e-4, coarse
    assert all(b < a for a, b in zip(coarse, fine)), (coarse, fine)


# The sonar transform of the half bump of scale 0.4 centred at (0, 0, 1) at
# x' = (0.5, 0.5), r = 1.2: the pole x' lies just outside the disc about the
# support box (0.71 from its centre, radius 0.57), so the azimuth window is
# the widest arc. scipy.integrate.dblquad(epsabs=1e-15, epsrel=1e-13) of
# r^2 phi over the cap chart: the polar cosine c over [0.5, 1], and inside
# it the azimuths, about the direction from x' to the bump's axis, at which
# the circle of radius r sqrt(1 - c^2) about x' meets the bump's disc at
# height r c. m = 640 reads 0.0724418728363.
_NEAR_POLE_SONAR = 0.07244187283607922


def test_3d_sonar_near_pole_arc():
    """An arc from a pole just outside the support disc gets m angle nodes,
    as the full circle does. On a floor of ceil(2m/5) nodes it read 3.38e-5
    off at the default m = 80."""
    phi = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4, domain="half")
    assert sonar_transform(phi, (0.5, 0.5), 1.2) == pytest.approx(_NEAR_POLE_SONAR, rel=1e-6)


# ---------------------------------------------------------------------------
# parabolic
# ---------------------------------------------------------------------------

def test_parabolic_gaussian_frozen_2d():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    assert parabolic_transform(f, (0.3, 0.8)) == pytest.approx(
        1.188260294284684, rel=1e-10)
    assert parabolic_transform(f, (-0.5, 1.5)) == pytest.approx(
        0.644716200650647, rel=1e-10)


def test_parabolic_gaussian_frozen_3d():
    f = make_test_field("gaussian", 3, (0.0, 0.0, 0.0), 1.0)
    got = parabolic_transform(f, (0.2, -0.1, 0.5))
    assert got == pytest.approx(2.121391753576941, rel=1e-8)


def test_parabolic_restricted_frozen():
    # the integral over |y'| < sqrt(x_n) only: the parabolic transform of the
    # zero-extended restriction to the upper half-space
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    half = apply(OperatorId("restrict_positive"), f)
    got = parabolic_transform(apply(OperatorId("zero_extend"), half), (0.3, 0.8))
    assert got == pytest.approx(0.933970385045765, rel=1e-9)


def test_parabolic_field_matches_pointwise():
    f = make_test_field("gaussian", 2, (0.2, -0.3), 1.0)
    F = parabolic_field(f)
    for x in ((0.0, 0.0), (1.0, -0.5), (-2.0, 2.5)):
        assert F.eval(x) == pytest.approx(parabolic_transform(f, x), rel=1e-12)


def test_parabolic_rejects_bad_input():
    half = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    with pytest.raises(DomainError):
        parabolic_transform(half, (0.0, 1.0))


# ---------------------------------------------------------------------------
# transversal
# ---------------------------------------------------------------------------

def transversal_gaussian_exact(u, s):
    """Closed form for the unit gaussian: the slab integral is gaussian."""
    q = 1.0 + float(np.dot(u, u))
    k = len(u)
    return math.pi ** (k / 2) / math.sqrt(q) * math.exp(-s * s / q)


def test_transversal_gaussian_closed_form_2d():
    psi = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    for u in (0.0, 0.4, 1.3, -2.0):
        for s in (0.0, -0.7, 1.1):
            got = transversal_transform(psi, (u, s))
            assert got == pytest.approx(transversal_gaussian_exact((u,), s), rel=1e-12)
    # one frozen spot value for regression
    assert transversal_transform(psi, (1.3, -0.7)) == pytest.approx(
        0.900719142313290, rel=1e-12)


def test_transversal_gaussian_closed_form_3d():
    psi = make_test_field("gaussian", 3, (0.0, 0.0, 0.0), 1.0)
    for u in ((0.0, 0.0), (0.5, -0.3), (2.0, 1.0)):
        got = transversal_transform(psi, u + (0.4,))
        assert got == pytest.approx(transversal_gaussian_exact(u, 0.4), rel=1e-9)


def test_transversal_gaussian_closed_form_4d():
    # n = 4 is the first n whose frame has a third slope axis, the term
    # that only n >= 4 adds to each coordinate's fill; the closed form is
    # pi^((n-1)/2) (1+|u|^2)^(-1/2) exp(-t^2/(1+|u|^2))
    psi = make_test_field("gaussian", 4, (0.0,) * 4, 1.0)
    X = np.random.default_rng(4).uniform(-1.5, 1.5, (4, 4))
    got = transversal_field(psi, QuadratureSpec(m=80)).eval_array(X)
    want = [transversal_gaussian_exact(x[:-1], x[-1]) for x in X]
    # the tolerance of the 3-D test: here 2.3e-10 at t = -1.26, 1e-15 at the rest
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_transversal_extreme_slope_accuracy():
    # narrow support windows at steep slopes must stay resolved
    psi = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    for u in (8.0, 64.0, 1024.0):
        got = transversal_transform(psi, (u, 0.3))
        assert got == pytest.approx(transversal_gaussian_exact((u,), 0.3), rel=1e-9)


def test_transversal_field_matches_pointwise():
    psi = make_test_field("gaussian", 2, (0.1, 0.4), 1.0)
    T = transversal_field(psi)
    for x in ((0.0, 0.0), (1.5, -0.8)):
        assert T.eval(x) == pytest.approx(transversal_transform(psi, x), rel=1e-12)
    assert T.box is None
    assert T.section_support is not None


def test_transversal_rejects_half_space_input():
    half = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    with pytest.raises(DomainError):
        transversal_transform(half, (0.0, 1.0))


# ---------------------------------------------------------------------------
# classical Radon and the slope-intercept relation
# ---------------------------------------------------------------------------

def test_radon_plane_validation():
    with pytest.raises(DomainError):
        RadonPlane((1.0, 1.0), 0.0)
    p = RadonPlane((0.6, 0.8), 0.5)
    assert p.n == 2
    g = make_test_field("gaussian", 3, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="plane dimension does not match the field"):
        classical_radon(g, p)


def test_classical_radon_gaussian():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    # rotation invariance: sqrt(pi) exp(-t^2) for every direction
    for ang in (0.1, 1.0, 2.5):
        theta = (math.cos(ang), math.sin(ang))
        for t in (0.0, 0.6, -1.2):
            got = classical_radon(f, RadonPlane(theta, t))
            assert got == pytest.approx(math.sqrt(math.pi) * math.exp(-t * t),
                                        rel=1e-12)


def test_classical_radon_shifted_gaussian():
    c = (0.5, -0.25)
    f = make_test_field("gaussian", 2, c, 1.0)
    theta = (0.6, 0.8)
    t = 0.3
    shift = theta[0] * c[0] + theta[1] * c[1]
    got = classical_radon(f, RadonPlane(theta, t))
    assert got == pytest.approx(math.sqrt(math.pi) * math.exp(-(t - shift) ** 2),
                                rel=1e-11)


def test_classical_radon_3d():
    f = make_test_field("gaussian", 3, (0.0, 0.0, 0.0), 1.0)
    theta = (0.0, 0.6, 0.8)
    got = classical_radon(f, RadonPlane(theta, 0.4))
    assert got == pytest.approx(math.pi * math.exp(-0.16), rel=1e-10)


def test_classical_radon_3d_normal_just_off_the_last_axis():
    # theta 6e-8 off e_3: the tangent frame takes theta_3 - 1 free of
    # cancellation (rel error 1.4e-10 without it, 5e-16 with it)
    c = np.array([0.3, -0.2, 0.1])
    f = make_test_field("gaussian", 3, tuple(c), 1.0)
    theta = (6e-8, 0.0, math.sqrt(1 - 3.6e-15))
    got = classical_radon(f, RadonPlane(theta, 0.4))
    exact = math.pi * math.exp(-(0.4 - np.dot(theta, c)) ** 2)
    assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("theta, t", [((1.0, 0.0), 9.0), ((0.0, 0.6, 0.8), 12.0)])
def test_classical_radon_of_plane_missing_the_box_is_zero(theta, t):
    # the plane clears the box +-8 of the unit Gaussian; its projection onto
    # the plane once read the tail (1.18e-35 in 2-D, 9.1e-63 in 3-D)
    n = len(theta)
    f = make_test_field("gaussian", n, (0.0,) * n, 1.0)
    assert classical_radon(f, RadonPlane(theta, t)) == 0.0


def test_classical_radon_4d():
    # three in-plane axes through the frame fill the transversal kernel shares
    f = make_test_field("gaussian", 4, (0.0,) * 4, 1.0)
    theta = np.array([0.3, -0.4, 0.5, 0.7])
    theta /= np.linalg.norm(theta)
    got = classical_radon(f, RadonPlane(tuple(theta), 0.6))
    assert got == pytest.approx(math.pi ** 1.5 * math.exp(-0.36), rel=1e-10)


def test_slope_intercept_relation_agrees():
    f = make_test_field("gaussian", 2, (0.3, 0.1), 1.0)
    for ang in (0.4, 1.2, 2.8):
        plane = RadonPlane((math.cos(ang), math.sin(ang)), 0.7)
        lhs, rhs = slope_intercept_relation(f, plane)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_slope_intercept_needs_tilted_plane():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        slope_intercept_relation(f, RadonPlane((1.0, 0.0), 0.2))


def test_point_input_accepted():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    p = Point((0.5,), 0.25)
    assert transversal_transform(f, p) == pytest.approx(
        transversal_transform(f, (0.5, 0.25)), rel=1e-14)


def test_spec_override_changes_rule():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    coarse = QuadratureSpec(m=24)
    got = transversal_transform(f, (0.4, 0.2), coarse)
    exact = transversal_gaussian_exact((0.4,), 0.2)
    assert got == pytest.approx(exact, rel=0.05)
    assert abs(got - exact) > 0.0


# ---------------------------------------------------------------------------
# non-finite phantoms
# ---------------------------------------------------------------------------

def _nan_square(n, domain="full"):
    """A field that is NaN inside its support box about (0, .., 0, 1)."""
    centre = np.array([0.0] * (n - 1) + [1.0])

    def f(p):
        return np.where(np.all(np.abs(p - centre) < 0.5, axis=1), np.nan, 0.0)

    return ScalarField(n, f, domain=domain, box=[(c - 0.5, c + 0.5) for c in centre])


@pytest.mark.parametrize("n", [2, 3])
def test_classical_radon_rejects_non_finite_field(n):
    field = _nan_square(n)
    theta = (0.0,) * (n - 1) + (1.0,)
    # a plane that crosses the box only where the field is 0 integrates to 0
    assert classical_radon(field, RadonPlane(theta, 1.5)) == 0.0
    with pytest.raises(QuadratureError, match="classical Radon") as ei:
        classical_radon(field, RadonPlane(theta, 1.0))
    # the error names a node of the plane y_n = 1 inside the NaN square
    node = ei.value.node
    assert len(node) == n and node[-1] == pytest.approx(1.0, abs=1e-15)
    assert all(abs(v) < 0.5 for v in node[:-1])


def test_slope_intercept_relation_rejects_non_finite_field_on_both_sides():
    field = _nan_square(2)
    plane = RadonPlane((0.6, 0.8), 0.8)
    # the classical side is evaluated first and raises on its own
    with pytest.raises(QuadratureError, match="classical Radon"):
        slope_intercept_relation(field, plane)
    with pytest.raises(QuadratureError, match="transversal"):
        transversal_transform(field, (-0.75, 1.0))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
def test_non_finite_phantom_names_transform_point(kind, n):
    # NaN inside the support box about (0, .., 0, 1): the first point's
    # plane, paraboloid or hemisphere misses the box, the second's meets it
    # at its centre, and the error names the second point: x, or (x', r)
    if kind == "sonar":
        field = sonar_profile(_nan_square(n, domain="half"))
        with pytest.raises(QuadratureError, match="sonar") as ei:
            field.eval_array(np.zeros((2, n - 1)), np.array([5.0, 1.0]))
    else:
        build = transversal_field if kind == "transversal" else parabolic_field
        field = build(_nan_square(n))
        pts = np.zeros((2, n))
        pts[:, -1] = (5.0, 1.0) if kind == "transversal" else (-5.0, 1.0)
        with pytest.raises(QuadratureError, match=kind) as ei:
            field.eval_array(pts)
    assert ei.value.node == (0.0,) * (n - 1) + (1.0,)


@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar", "classical"])
def test_non_finite_point_is_refused(kind):
    # refused before a window's node count reads it
    g2 = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match=r"non-finite point \(.*nan"):
        if kind == "transversal":
            transversal_transform(g2, (0.1, math.nan))
        elif kind == "parabolic":
            parabolic_transform(make_test_field("bump", 2, (0.0, 1.0), 0.4), (0.1, math.nan))
        elif kind == "sonar":
            bump = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
            sonar_transform(bump, (math.nan,), 1.0)
        else:
            classical_radon(g2, RadonPlane((1.0, 0.0), math.nan))


def _extremizer():
    """f = (1 + |x|^2)^(-1) in 2-D, the endpoint extremizer of the classical
    Radon inequality: slow tails and no support box."""
    return ScalarField(2, lambda p: 1.0 / (1.0 + p[:, 0] ** 2 + p[:, 1] ** 2))


@pytest.mark.parametrize("call", ["transversal", "parabolic", "classical", "lp_norm",
                                  "mixed_norm"])
def test_boxless_unbounded_integral_is_refused(call):
    # each once read a finite wrong value, its integral cut at |y| <= 8:
    # T f(0, 0) = 2.8929 against pi, ||f||_1.5 = 3.1462 against (2 pi)^(2/3)
    f = _extremizer()
    with pytest.raises(DomainError, match="support box"):
        if call == "transversal":
            transversal_field(f).eval((0.0, 0.0))
        elif call == "parabolic":
            parabolic_field(f).eval((0.0, 1.0))
        elif call == "classical":
            classical_radon(f, hr.RadonPlane((0.6, 0.8), 0.5))
        elif call == "lp_norm":
            lp_norm(f, 1.5)
        else:
            # the transform of a boxed field has a section but no box: its
            # slopes are unbounded and need an outer_box
            g = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
            mixed_norm(transversal_field(g), 3.0, 3.0)


def test_boxless_field_has_a_sonar_transform():
    # the hemisphere is compact: nothing to truncate, so no box is needed
    one = ScalarField(2, lambda p: np.ones(len(p)), domain="half")
    assert sonar_transform(one, (0.3,), 0.7) == pytest.approx(0.7 * math.pi, rel=1e-13)


# ---------------------------------------------------------------------------
# point layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
def test_3d_kernel_hands_the_field_its_point_buffer(kind, monkeypatch):
    # the field reads a view of the kernel's buffer, not a copy, and each
    # coordinate column of it is one contiguous run of memory
    buffers, seen = [], []
    grid_points = transforms._grid_points

    def recording(nodes, n):
        buffers.append(grid_points(nodes, n))
        return buffers[-1]

    monkeypatch.setattr(transforms, "_grid_points", recording)
    domain = "half" if kind == "sonar" else "full"
    bump = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5, domain=domain)

    def func(pts):
        seen.append(pts)
        return bump.eval_array(pts)

    field = ScalarField(3, func, domain=domain, box=bump.box)
    if kind == "sonar":
        val = sonar_transform(field, (0.1, 0.0), 1.2)
    elif kind == "parabolic":
        val = parabolic_transform(field, (0.1, 0.0, 1.5))
    else:
        val = transversal_transform(field, (0.2, -0.1, 1.0))
    assert val > 0 and seen and len(seen) == len(buffers)
    for pts, buf in zip(seen, buffers):
        assert np.shares_memory(pts, buf)
        assert all(pts[:, i].flags.c_contiguous for i in range(3))


# ---------------------------------------------------------------------------
# batching of the windowed kernel
# ---------------------------------------------------------------------------

def _kernel_rows(kind, n, rows=24):
    """A bump phantom about (0, .., 0, 1) and ``rows`` points of ``kind``'s
    transform, the first one on the axis of the bump: for n = 3 its polar
    window is the full circle (a periodic row)."""
    rng = np.random.default_rng([n, len(kind)])
    domain = "half" if kind == "sonar" else "full"
    bump = make_test_field("bump", n, (0.0,) * (n - 1) + (1.0,), 0.5, domain=domain)
    xp = rng.uniform(-1.0, 1.0, size=(rows, n - 1))
    xp[0] = 0.0
    if kind == "sonar":
        last = rng.uniform(0.6, 2.5, rows)
        return lambda spec: transforms._sonar_batch(bump, xp, last, spec)
    if kind == "parabolic":
        X = np.column_stack([xp, rng.uniform(0.6, 3.0, rows)])
        return lambda spec: transforms._parabolic_batch(bump, X, spec)
    X = np.column_stack([xp, rng.uniform(-1.0, 2.0, rows)])
    return lambda spec: transforms._transversal_batch(bump, X, spec)


@pytest.mark.parametrize("m", [8, None])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
def test_node_cap_never_changes_kernel_bits(kind, n, m, monkeypatch):
    # every row is summed on its own, so a batch of one row (cap 64) and the
    # default batches of many rows give the same bits; m = 8 puts several
    # rows into one batch even at cap 64
    spec = QuadratureSpec.for_dimension(n) if m is None else QuadratureSpec(m=m)
    run = _kernel_rows(kind, n)
    periodic, batch_rows = [], []
    windowed_sums = transforms._windowed_sums

    def recording(lo, hi, counts, integrand, full=None):
        periodic.append(full is not None and bool(np.any(full)))

        def counted(idx, nodes):
            batch_rows.append(len(idx))
            return integrand(idx, nodes)

        return windowed_sums(lo, hi, counts, counted, full)

    monkeypatch.setattr(transforms, "_windowed_sums", recording)
    default = run(spec)
    assert np.all(np.isfinite(default)) and np.any(default > 0)
    assert any(periodic) == (n == 3 and kind != "transversal")
    assert max(batch_rows) > 1
    for cap in (64, 2_000_000):
        monkeypatch.setattr(q, "_NODE_CAP", cap)
        assert np.array_equal(run(spec), default)


@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
def test_3d_chart_fills_never_depend_on_batching(kind, monkeypatch):
    # the 3-D kernels fill each coordinate by one stacked matrix product;
    # every matrix of the stack is one row's, so a batch of one row (cap 64)
    # gives the bits of the default batches
    rng = np.random.default_rng(60)
    domain = "half" if kind == "sonar" else "full"
    bump = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5, domain=domain)
    xp = rng.uniform(-1.0, 1.0, size=(60, 2))
    last = rng.uniform(0.6, 2.5, 60)
    if kind == "sonar":
        prof = sonar_profile(bump)

        def run():
            return prof.eval_array(xp, last)
    else:
        data = (parabolic_field if kind == "parabolic" else transversal_field)(bump)

        def run():
            return data.eval_array(np.column_stack([xp, last]))

    default = run()
    assert np.all(np.isfinite(default)) and np.count_nonzero(default) >= 20
    monkeypatch.setattr(q, "_NODE_CAP", 64)
    assert np.array_equal(run(), default)


@pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
def test_3d_kernels_hand_the_field_cache_sized_batches(kind):
    # one 3-D laplacian_power reconstruction reads its data at 3 x 204
    # slopes in one call; the kernels must cut that into batches that stay
    # in cache instead of handing the field millions of points at once
    rows = []
    domain = "half" if kind == "sonar" else "full"
    bump = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.5, domain=domain)

    def func(pts):
        rows.append(pts.shape[0])
        return bump.eval_array(pts)

    field = ScalarField(3, func, domain=domain, box=bump.box)
    data = {"transversal": transversal_field, "parabolic": parabolic_field,
            "sonar": sonar_profile}[kind](field)
    val = reconstruct(kind, data, [(0.003, 0.0, 1.0)], method="laplacian_power")
    assert np.isfinite(val[0])
    assert sum(rows) > 2_000_000
    assert max(rows) <= 65_536


# ---------------------------------------------------------------------------
# support hints
# ---------------------------------------------------------------------------

_GRID_2D = np.linspace(-4.0, 4.0, 4001)[:, None]
_GRID_3D = np.stack(np.meshgrid(np.linspace(-4.0, 4.0, 321), np.linspace(-4.0, 4.0, 321)),
                    axis=-1).reshape(-1, 2)
_ARC_2D = np.linspace(0.0, np.pi, 4001)
_POL, _AZ = np.meshgrid(np.linspace(0.0, 0.5 * np.pi, 301), np.linspace(0.0, 2 * np.pi, 601))
_CAP_3D = np.column_stack([(np.sin(_POL) * np.cos(_AZ)).ravel(),
                           (np.sin(_POL) * np.sin(_AZ)).ravel(), np.cos(_POL).ravel()])


def _surface(kind, xp, t):
    """Points of the paraboloid, plane or hemisphere of ``kind`` at x' and
    last parameter t (x_n, or r for sonar) on a fixed dense grid that ignores
    every support window: y' over [-4, 4]^(n-1), or the directions of the
    upper half circle or hemisphere."""
    k = len(xp)
    if kind == "sonar":
        u = (np.column_stack([np.cos(_ARC_2D), np.sin(_ARC_2D)]) if k == 1 else _CAP_3D)
        pts = t * u
        pts[:, :k] += xp
        return pts[pts[:, -1] > 0]
    y = _GRID_2D if k == 1 else _GRID_3D
    if kind == "parabolic":
        return np.column_stack([xp - y, t - np.sum(y ** 2, axis=1)])
    return np.column_stack([y, y @ xp + t])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["transversal", "parabolic", "sonar"]), st.integers(2, 3),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.floats(0.1, 0.8),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_support_hints_are_conservative(kind, n, centre, scale, xprime):
    # the norms cut their inner integrals to these intervals, so a phantom
    # must vanish on every surface whose parameter lies outside them
    c = np.array(centre[:n - 1] + [1.0 + centre[-1]])
    if kind == "sonar":
        c[-1] = scale + 0.05 + abs(centre[-1])
    xp = np.array(xprime[:n - 1])
    domain = "half" if kind == "sonar" else "full"
    bump = make_test_field("bump", n, c, scale, domain=domain)
    if kind == "sonar":
        lo, hi = sonar_profile(bump).r_support(xp[None, :])
        through_centre = math.hypot(np.linalg.norm(c[:-1] - xp), c[-1])
    elif kind == "parabolic":
        lo, hi = parabolic_field(bump).section_support(xp[None, :])
        through_centre = c[-1] + np.sum((xp - c[:-1]) ** 2)
    else:
        lo, hi = transversal_field(bump).section_support(xp[None, :])
        through_centre = c[-1] - xp @ c[:-1]
    lo, hi = float(lo[0]), float(hi[0])
    # the sampling sees the bump on the surface through its centre ...
    assert lo < through_centre < hi
    assert np.max(bump.eval_array(_surface(kind, xp, through_centre))) > 0
    # ... and nothing on the surfaces just outside the hinted interval
    for t in (lo - 1e-9 * (1 + abs(lo)), hi + 1e-9 * (1 + abs(hi))):
        assert np.all(bump.eval_array(_surface(kind, xp, t)) == 0.0)


# ---------------------------------------------------------------------------
# concurrency and the 2-D arc
# ---------------------------------------------------------------------------

def test_concurrent_evaluation_matches_serial_bits():
    # each thread has its own kernel workspace, so threads evaluating the
    # same fields at once, more of them than cores and switching often, get
    # the bits of a serial run
    rng = np.random.default_rng(11)
    gauss = make_test_field("gaussian", 2, (0.0, 0.3), 1.0)
    bump = make_test_field("bump", 2, (0.1, 1.0), 0.6, domain="half")
    tf = transversal_field(gauss)
    sp = sonar_profile(bump)
    workers = 4
    X = [np.column_stack([rng.uniform(-2.0, 2.0, 2000), rng.uniform(-1.5, 1.5, 2000)])
         for _ in range(workers)]
    XP = [rng.uniform(-1.0, 1.0, (2000, 1)) for _ in range(workers)]
    R = [rng.uniform(0.5, 2.0, 2000) for _ in range(workers)]

    def run(i):
        return tf.eval_array(X[i]), sp.eval_array(XP[i], R[i])

    serial = [run(i) for i in range(workers)]
    got = [None] * workers
    start = threading.Barrier(workers)

    def worker(i):
        start.wait(timeout=60)
        got[i] = run(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, have in zip(serial, got):
        np.testing.assert_array_equal(have[0], want[0])
        np.testing.assert_array_equal(have[1], want[1])


def test_2d_sonar_arc_points_are_accurate_at_the_ends(monkeypatch):
    # the arc takes cos t and sin t from one tan(t/2); its points must match
    # (x + r cos t, r sin t) of numpy's cos and sin to a few ulp at every
    # node, the end nodes of [0, pi] included
    batches = []
    grid_points = transforms._grid_points

    def recording(nodes, n):
        batches.append([nodes[0].ravel().copy()])
        return grid_points(nodes, n)

    def func(pts):
        batches[-1].append(pts.copy())
        return np.exp(-np.sum(pts ** 2, axis=1))

    monkeypatch.setattr(transforms, "_grid_points", recording)
    x, r = 0.3, 1.7
    assert sonar_transform(ScalarField(2, func, domain="half"), (x,), r) > 0
    for t, pts in batches:
        np.testing.assert_allclose(pts[:, 1], r * np.sin(t), rtol=1e-15, atol=0)
        np.testing.assert_allclose(pts[:, 0], x + r * np.cos(t), rtol=0,
                                   atol=1e-15 * (abs(x) + r))
    ends = np.concatenate([t for t, _ in batches])
    assert ends.min() < 2e-4 and ends.max() > math.pi - 2e-4


@pytest.mark.parametrize("xp, r", [(0.0, 0.5), (0.3, 1.0), (-0.7, 1.5), (1.2, 0.8),
                                   (-0.2, 2.5)])
def test_2d_sonar_arc_ends_match_quad(xp, r):
    # a box-less half-space Gaussian that is large near the boundary, so the
    # window is the whole arc [0, pi] and its ends carry weight
    def phi_at(y1, y2):
        return math.exp(-((y1 - 0.2) ** 2 + (y2 - 0.1) ** 2))

    phi = ScalarField(2, lambda pts: np.exp(-((pts[:, 0] - 0.2) ** 2 + (pts[:, 1] - 0.1) ** 2)),
                      domain="half")
    want, _ = quad(lambda t: phi_at(xp + r * math.cos(t), r * math.sin(t)), 0.0, math.pi,
                   epsabs=1e-15, epsrel=1e-13, limit=200)
    assert sonar_transform(phi, (xp,), r) == pytest.approx(r * want, rel=1e-12)


def _chart_batches(monkeypatch):
    """Record every batch of the 1-D charts: its rows, its nodes mapped
    explicitly as h * xi + a from the batch's window maps, and (appended by
    the field) the points the chart hands its field."""
    batches = []
    windowed_sums = transforms._windowed_sums

    def recording(lo, hi, counts, integrand, periodic=None):
        def mapped(idx, axes):
            ((c, ref),) = axes.maps
            batches.append([idx.copy(), c[:, :1] * ref[0] + c[:, 1:]])
            return integrand(idx, axes)

        return windowed_sums(lo, hi, counts, mapped, periodic)

    monkeypatch.setattr(transforms, "_windowed_sums", recording)
    return batches


def _recording_field(batches, field):
    def func(pts):
        batches[-1].append(pts.copy())
        return field.eval_array(pts)

    return ScalarField(2, func, domain=field.domain, box=field.box)


def _assert_within_ulps(got, want, *terms, ulps=2):
    """|got - want| <= ulps spacings of the largest term of the coordinate's
    formula (or of want), elementwise."""
    size = np.abs(want)
    for t in terms:
        size = np.maximum(size, np.abs(t))
    err = np.abs(got - want) / np.spacing(size)
    assert err.max() <= ulps, err.max()


@pytest.mark.parametrize("chart", ["plane", "line", "arc"])
def test_1d_chart_points_match_explicitly_mapped_nodes(chart, monkeypatch):
    # the 1-D charts compose the window map into their point coordinates;
    # the points must be those of the chart's formula at the nodes a + h xi,
    # to 2 ulp of the formula's largest term, on windows of every tier and,
    # for the arc, on windows reaching both ends of [0, pi]
    batches = _chart_batches(monkeypatch)
    if chart == "plane":
        field = _recording_field(batches, make_test_field("gaussian", 2, (0.0, 0.0), 1.0))
        X = np.array([[20.0, 0.5], [-4.0, 1.0], [2.0, -3.0], [-1.0, 0.2], [0.3, 4.0],
                      [0.0, 0.7], [-0.5, -2.0]])
        transforms._transversal_batch(field, X, QuadratureSpec.for_dimension(2))
    elif chart == "line":
        field = _recording_field(batches, make_test_field("bump", 2, (0.0, 1.0), 0.5))
        X = np.array([[0.3, 1.0], [0.5, 1.5], [0.0, 0.6], [0.0, 0.52], [-0.2, 2.5],
                      [0.4, 0.9]])
        transforms._parabolic_batch(field, X, QuadratureSpec.for_dimension(2))
    else:
        spec = QuadratureSpec.for_dimension(2)
        XP = np.array([[0.0], [0.3], [-0.4], [0.1], [0.45], [-0.2], [0.0]])
        R = np.array([0.52, 0.6, 0.8, 1.2, 0.9, 1.49, 3.0])
        for field in (make_test_field("bump", 2, (0.0, 1.0), 0.5, domain="half"),
                      make_test_field("bump", 2, (0.0, 3.0), 2.5, domain="half"),
                      make_test_field("gaussian", 2, (0.2, 0.3), 1.0, domain="half")):
            transforms._sonar_batch(_recording_field(batches, field), XP, R, spec)
    tiers = set()
    for idx, t, pts in batches:
        tiers.add(t.shape[1])
        y1, y2 = pts[:, 0].reshape(t.shape), pts[:, 1].reshape(t.shape)
        if chart == "plane":
            sig, tau = X[idx, :1], X[idx, 1:]
            s = np.where(sig < 0, -1.0, 1.0)
            _assert_within_ulps(y1, s * t)
            _assert_within_ulps(y2, np.abs(sig) * t + tau, np.abs(sig) * t, tau)
        elif chart == "line":
            x, xn = X[idx, :1], X[idx, 1:]
            _assert_within_ulps(y1, x - t, x, t)
            _assert_within_ulps(y2, xn - t ** 2, xn, t ** 2)
        else:
            x, r = XP[idx], R[idx, None]
            u = np.tan(t / 2)
            w = 2 * r / (1 + u ** 2)
            _assert_within_ulps(y1, x - r + w, x - r, w)
            _assert_within_ulps(y2, u * w)
    assert {44, 88, 176, 200} <= tiers
    if chart == "arc":
        ends = np.concatenate([t.ravel() for _, t, _ in batches])
        assert ends.min() < 2e-4 and ends.max() > math.pi - 2e-4
