"""Field and profile container tests."""

import math

import numpy as np
import pytest

from hemiradon.errors import ConfigError, DomainError
from hemiradon.fields import (
    Point,
    ScalarField,
    SphereProfile,
    make_test_field,
)
from hemiradon.norms import mixed_norm
from hemiradon.operators import OperatorId, apply
from hemiradon.transforms import transversal_field, transversal_transform


def test_point_construction():
    p = Point((0.5, -1.0), 2.0)
    assert p.n == 3
    assert p.xprime == (0.5, -1.0)
    np.testing.assert_allclose(p.as_array(), [0.5, -1.0, 2.0])


def test_point_of_roundtrip():
    p = Point.of([1.0, 2.0, 3.0, 4.0])
    assert p.xprime == (1.0, 2.0, 3.0) and p.xn == 4.0


def test_point_needs_two_coordinates():
    with pytest.raises(DomainError):
        Point((), 1.0)


def test_scalar_field_eval_shapes():
    f = ScalarField(2, lambda pts: pts[:, 0] + pts[:, 1])
    assert f.eval((1.0, 2.0)) == 3.0
    assert f((1.0, 2.0)) == 3.0
    assert f.eval(Point((1.0,), 2.0)) == 3.0
    out = f.eval_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(out, [3.0, 7.0])
    with pytest.raises(DomainError):
        f.eval_array(np.zeros((2, 3)))


def test_scalar_field_validation():
    with pytest.raises(DomainError):
        ScalarField(1, lambda pts: pts[:, 0])
    with pytest.raises(ConfigError):
        ScalarField(2, lambda pts: pts[:, 0], domain="quarter")
    bad = ScalarField(2, lambda pts: np.zeros((len(pts), 2)))
    with pytest.raises(DomainError):
        bad.eval((0.0, 0.0))


def test_half_space_field_rejects_closed_boundary():
    f = ScalarField(2, lambda pts: np.ones(len(pts)), domain="half")
    assert f.eval((0.3, 0.1)) == 1.0
    with pytest.raises(DomainError):
        f.eval((0.3, 0.0))
    with pytest.raises(DomainError):
        f.eval((0.3, -0.2))


def test_field_algebra_and_box_union():
    a = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    b = make_test_field("bump", 2, (1.0, 1.0), 0.5)
    s = a + b
    x = (0.7, 0.9)
    assert s.eval(x) == pytest.approx(a.eval(x) + b.eval(x))
    assert (2.5 * a).eval(x) == pytest.approx(2.5 * a.eval(x))
    assert (a - b).eval(x) == pytest.approx(a.eval(x) - b.eval(x))
    lo, hi = s.box[0]
    assert lo == min(a.box[0][0], b.box[0][0])
    assert hi == max(a.box[0][1], b.box[0][1])
    with pytest.raises(DomainError):
        a + make_test_field("gaussian", 3, (0.0, 0.0, 0.0), 1.0)
    # the union of a box with no box is no box
    boxless = ScalarField(2, lambda pts: pts[:, 0])
    assert (a + boxless).box is None and (boxless + a).box is None


def test_gaussian_phantom_values():
    f = make_test_field("gaussian", 2, (0.5, -0.5), 2.0)
    assert f.eval((0.5, -0.5)) == 1.0
    # exp(-(1^2 + 0)/4)
    assert f.eval((1.5, -0.5)) == pytest.approx(math.exp(-0.25))
    assert f.box == ((0.5 - 16.0, 0.5 + 16.0), (-0.5 - 16.0, -0.5 + 16.0))


def test_bump_phantom_support():
    f = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    assert f.eval((0.0, 1.0)) == pytest.approx(math.exp(-1.0))
    assert f.eval((0.0, 1.41)) == 0.0
    assert f.eval((0.39, 1.0)) > 0.0
    # support must clear the boundary when the domain is the half-space
    with pytest.raises(DomainError):
        make_test_field("bump", 2, (0.0, 0.3), 0.4, domain="half")


def test_monomial_phantom_is_odd_in_last_slot():
    f = make_test_field("monomial_times_gaussian", 2, (0.0, 0.0), 1.0)
    assert f.eval((0.3, 0.7)) == pytest.approx(-f.eval((0.3, -0.7)))
    assert f.eval((0.2, 0.0)) == 0.0


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n", [2, 3])
def test_phantoms_keep_the_row_reduction_bits(n, layout):
    # the phantoms add up squared distances one coordinate at a time; for
    # n < 8 that is the order of np.sum(axis=1), in either memory layout
    rng = np.random.default_rng(n)
    for _ in range(4):
        c = rng.uniform(-1.0, 1.0, n)
        s = rng.uniform(0.3, 2.0)
        pts = c + s * rng.uniform(-1.5, 1.5, (3000, n))
        pts = np.asfortranarray(pts) if layout == "F" else np.ascontiguousarray(pts)
        gauss = np.exp(-np.sum((pts - c) ** 2, axis=1) / s ** 2)
        u = np.sum((pts - c) ** 2, axis=1) / s ** 2
        bump = np.zeros(len(pts))
        bump[u < 1.0] = np.exp(-1.0 / (1.0 - u[u < 1.0]))
        mono = pts[:, -1] * np.exp(-np.sum(pts ** 2, axis=1) / s ** 2)
        assert 0 < np.count_nonzero(bump) < len(pts)
        for kind, want in (("gaussian", gauss), ("bump", bump),
                           ("monomial_times_gaussian", mono)):
            got = make_test_field(kind, n, c, s).eval_array(pts)
            assert np.array_equal(got, want), kind


def test_make_test_field_validation():
    with pytest.raises(DomainError):
        make_test_field("gaussian", 2, (0.0, 0.0), 0.0)
    with pytest.raises(ConfigError):
        make_test_field("gaussian", 2, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ConfigError):
        make_test_field("cone", 2, (0.0, 0.0), 1.0)
    # scalar centers broadcast to every coordinate
    f = make_test_field("gaussian", 3, 0.0, 1.0)
    assert f.eval((0.0, 0.0, 0.0)) == 1.0
    # a Point centre is its coordinates
    g = make_test_field("bump", 2, Point((0.5,), 1.0), 0.4, domain="half")
    assert g.eval((0.5, 1.0)) == math.exp(-1.0)
    np.testing.assert_allclose(g.box, ((0.1, 0.9), (0.6, 1.4)), rtol=0, atol=1e-15)


def test_sphere_profile_eval():
    prof = SphereProfile(2, lambda XP, R: XP[:, 0] + R)
    assert prof.eval((1.0,), 2.0) == 3.0
    out = prof.eval_array(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [2.0, 3.0])
    with pytest.raises(DomainError):
        prof.eval((1.0,), 0.0)
    with pytest.raises(DomainError):
        prof.eval_array(np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(DomainError, match="profiles require n >= 2"):
        SphereProfile(1, lambda XP, R: R)


def test_sphere_profile_checks_what_its_func_returns():
    # a scalar would broadcast silently into the sonar backprojection
    prof = SphereProfile(2, lambda XP, R: 1.0)
    with pytest.raises(DomainError, match=r"shape \(\), expected \(3,\)"):
        prof.eval_array(np.zeros((3, 1)), np.ones(3))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_sphere_profile_refuses_r_not_positive(r):
    # a NaN radius passed "min(R) <= 0" and the profile read NaN
    bump = make_test_field("bump", 2, (0.0, 1.0), 0.4)
    prof = apply(OperatorId("field_to_profile"), bump)
    with pytest.raises(DomainError, match=f"r > 0, got r = {r}"):
        prof.eval_array(np.zeros((2, 1)), np.array([1.0, r]))


@pytest.mark.parametrize("bound", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
@pytest.mark.parametrize("what", ["box", "xprime_box", "r_box", "outer_box"])
def test_non_finite_box_is_refused(what, bound):
    # refused where it is declared: a non-finite bound once reached the node
    # counts of the transforms and norms and raised a raw IndexError there
    with pytest.raises(DomainError, match=rf"^{what} must"):
        if what == "box":
            ScalarField(2, lambda p: p[:, 0], box=((-1.0, 1.0), bound))
        elif what == "xprime_box":
            SphereProfile(2, lambda XP, R: R, xprime_box=(bound,))
        elif what == "r_box":
            SphereProfile(2, lambda XP, R: R, r_box=bound)
        else:
            g = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
            mixed_norm(transversal_field(g), 3.0, 3.0, outer_box=(bound,))


def test_bump_is_nan_at_a_nan_point():
    # as the Gaussian is: its "inside the ball" mask is False at NaN, which
    # once read as 0 outside the ball
    bump = make_test_field("bump", 2, (0.0, 1.0), 0.4)
    vals = bump.eval_array(np.array([[0.0, 1.0], [1.0, 1.0], [math.nan, 1.0]]))
    assert vals[0] == math.exp(-1.0)
    assert vals[1] == 0.0 and math.copysign(1.0, vals[1]) == 1.0
    assert math.isnan(vals[2])


def test_adding_a_constant_drops_the_support_hints():
    # f + c is c outside f's support: a box there would make the transforms
    # integrate only the bump (the transversal value at (0, 0) read 0.0)
    bump = make_test_field("bump", 2, (0.0, 1.0), 0.4)
    bump.section_support = lambda XP: (np.full(len(XP), 0.6), np.full(len(XP), 1.4))
    for shifted in (bump + 1.0, bump - 1.0):
        assert shifted.box is None and shifted.section_support is None
    for same in (bump + 0.0, bump - 0.0, 2.0 * bump, bump * 0.5):
        assert same.box == bump.box and same.section_support is bump.section_support
    # box-less, the integral over the plane y_2 = 0 diverges: it is refused,
    # not truncated
    with pytest.raises(DomainError, match="support box"):
        transversal_transform(bump + 1.0, (0.0, 0.0))
