"""Operator substitution tests: every tag is checked as a point mapping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemiradon import make_test_field, sonar_profile
from hemiradon.errors import ChainError, DomainError
from hemiradon.fields import ScalarField, SphereProfile
from hemiradon.operators import (
    CANONICAL_IDENTITIES,
    IdentityReport,
    OperatorId,
    TAGS,
    apply,
    apply_chain,
    dilation_identity,
    scaling_exponents,
    verify_identity,
)


def linear_probe(n=2, domain="full"):
    # f(x) = 1 + 2 x_1 + 3 x_n keeps every substitution easy to invert by hand
    return ScalarField(
        n, lambda pts: 1.0 + 2.0 * pts[:, 0] + 3.0 * pts[:, -1], domain=domain)


def test_operator_id_validation():
    with pytest.raises(ChainError):
        OperatorId("frobnicate")
    with pytest.raises(ChainError):
        OperatorId("axis_dilate")
    with pytest.raises(ChainError):
        OperatorId("axis_dilate", (1.0, -2.0))
    with pytest.raises(ChainError):
        OperatorId("parabolic_shear", (1.0, 2.0))
    ok = OperatorId("dual_dilate", (2, 3))
    assert ok.lam == (2.0, 3.0)


def test_parabolic_shear_pair():
    f = linear_probe()
    sheared = apply(OperatorId("parabolic_shear"), f)
    x = (0.5, 1.2)
    # f(x', x_n - |x'|^2)
    assert sheared.eval(x) == pytest.approx(f.eval((0.5, 1.2 - 0.25)))
    back = apply(OperatorId("parabolic_unshear"), sheared)
    assert back.eval(x) == pytest.approx(f.eval(x), rel=1e-14)


def test_parabolic_scaled_pair():
    f = linear_probe()
    sheared = apply(OperatorId("parabolic_shear_scaled"), f)
    x = (0.5, 1.2)
    assert sheared.eval(x) == pytest.approx(f.eval((1.0, 1.2 - 0.25)))
    back = apply(OperatorId("parabolic_unshear_scaled"), sheared)
    assert back.eval(x) == pytest.approx(f.eval(x), rel=1e-14)


def test_sqrt_square_pullback_pair():
    phi = linear_probe(domain="half")
    pulled = apply(OperatorId("sqrt_pullback"), phi)
    z = (0.3, 4.0)
    # z_n^{-1/2} phi(z', sqrt(z_n))
    assert pulled.eval(z) == pytest.approx(phi.eval((0.3, 2.0)) / 2.0)
    back = apply(OperatorId("square_pullback"), pulled)
    assert back.eval((0.3, 2.0)) == pytest.approx(phi.eval((0.3, 2.0)), rel=1e-14)


def test_sqrt_pullback_shear_mapping():
    phi = linear_probe(domain="half")
    out = apply(OperatorId("sqrt_pullback_shear"), phi)
    assert out.domain == "full"
    x = (0.5, 1.25)  # x_n - |x'|^2 = 1.0
    assert out.eval(x) == pytest.approx(phi.eval((0.5, 1.0)) / 1.0)
    # nonpositive parabolic argument gives exact zero, not a pole
    assert out.eval((0.5, 0.25)) == 0.0
    assert out.eval((0.5, -3.0)) == 0.0


def test_square_pullback_unshear_mapping():
    psi = linear_probe()
    out = apply(OperatorId("square_pullback_unshear"), psi)
    assert out.domain == "half"
    y = (0.5, 2.0)
    assert out.eval(y) == pytest.approx(2.0 * psi.eval((0.5, 4.25)), rel=1e-14)


def test_field_to_profile_mapping():
    f = linear_probe()
    prof = apply(OperatorId("field_to_profile"), f)
    assert isinstance(prof, SphereProfile)
    # r f(2x', r^2 - |x'|^2)
    assert prof.eval((0.5,), 2.0) == pytest.approx(2.0 * f.eval((1.0, 3.75)))


def test_profile_to_field_mapping():
    prof = SphereProfile(2, lambda XP, R: XP[:, 0] + R)
    out = apply(OperatorId("profile_to_field"), prof)
    x = (1.0, 3.75)  # arg = x_n + |x'|^2/4 = 4, sqrt = 2
    assert out.eval(x) == pytest.approx((0.5 + 2.0) / 2.0)
    assert out.eval((0.0, -1.0)) == 0.0


def test_profile_field_pair_inverts():
    # inversion holds on the chart's reach x_n + |x'|^2/4 > 0; outside it the
    # reconstructed field is zero by convention
    f = make_test_field("gaussian", 2, (0.1, 0.7), 1.0)
    back = apply(OperatorId("profile_to_field"),
                 apply(OperatorId("field_to_profile"), f))
    for x in ((0.0, 0.5), (0.4, 0.2), (-1.0, 1.5)):
        assert back.eval(x) == pytest.approx(f.eval(x), rel=1e-13)
    assert back.eval((0.4, -0.2)) == 0.0


def test_zero_extend_and_restrict():
    phi = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
    ext = apply(OperatorId("zero_extend"), phi)
    assert ext.domain == "full"
    assert ext.eval((0.0, 1.0)) == pytest.approx(phi.eval((0.0, 1.0)))
    assert ext.eval((0.0, -0.5)) == 0.0
    assert ext.eval((0.0, 0.0)) == 0.0
    back = apply(OperatorId("restrict_positive"), ext)
    assert back.domain == "half"
    assert back.eval((0.0, 1.0)) == pytest.approx(phi.eval((0.0, 1.0)))
    with pytest.raises(DomainError):
        back.eval((0.0, -0.5))


def test_axis_dilate():
    f = linear_probe()
    g = apply(OperatorId("axis_dilate", (2.0, 0.5)), f)
    assert g.eval((1.0, 4.0)) == pytest.approx(f.eval((2.0, 2.0)))


def test_dual_dilate():
    F = linear_probe()
    G = apply(OperatorId("dual_dilate", (2.0, 3.0)), F)
    # l1^{1-n} F((l2/l1) x', l2 x_n) with n = 2
    assert G.eval((1.0, 1.0)) == pytest.approx(0.5 * F.eval((1.5, 3.0)))


def test_domain_mismatch_raises():
    f = linear_probe()
    with pytest.raises(ChainError):
        apply(OperatorId("sqrt_pullback"), f)
    phi = linear_probe(domain="half")
    with pytest.raises(ChainError):
        apply(OperatorId("parabolic_shear"), phi)
    prof = SphereProfile(2, lambda XP, R: R)
    with pytest.raises(ChainError):
        apply(OperatorId("parabolic_shear"), prof)
    with pytest.raises(ChainError):
        apply(OperatorId("slope_intercept_map"), f)


def test_apply_chain_composition():
    f = linear_probe()
    out = apply_chain((OperatorId("parabolic_shear"),
                       OperatorId("parabolic_unshear")), f)
    assert out.eval((0.7, -0.3)) == pytest.approx(f.eval((0.7, -0.3)), rel=1e-14)
    with pytest.raises(ChainError):
        apply_chain(("fourier",), f)
    prof = sonar_profile(make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half"))
    with pytest.raises(ChainError):
        apply_chain(("transversal",), prof)


def test_canonical_identities_registered():
    assert set(CANONICAL_IDENTITIES) == {
        "parabolic_via_transversal",
        "sonar_via_transversal",
        "sonar_via_parabolic",
    }
    for lhs, rhs in CANONICAL_IDENTITIES.values():
        assert isinstance(lhs, tuple) and isinstance(rhs, tuple)


def test_verify_identity_report():
    """The parabolic factorization holds to quadrature accuracy on a gaussian."""
    f = make_test_field("gaussian", 2, (0.2, -0.3), 1.0)
    pts = np.array([[0.0, 0.0], [0.5, 1.0], [-1.0, 0.5]])
    rep = verify_identity(*CANONICAL_IDENTITIES["parabolic_via_transversal"], f, pts)
    assert isinstance(rep, IdentityReport)
    assert rep.points_checked == 3
    assert rep.max_rel_err < 1e-10
    assert rep.passed


def test_dilation_identity_chains():
    lhs, rhs = dilation_identity((2.0, 0.5))
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    rep = verify_identity(lhs, rhs, f, np.array([[0.3, 0.4], [1.0, -1.0]]), tol=1e-8)
    assert rep.max_rel_err < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
# a slope 6e-8 off the e_1 axis: the Householder frame there needs
# shat_1 - 1 free of cancellation
@example(3, (0.0, 0.5), [0.0, 1.0, 0.0], [0.0] * 6 + [1.0, 5.960464477539063e-08, 1.0] + [0.0] * 3)
def test_dilation_identity_at_random_lam_centres_and_points(n, octaves, centre, coords):
    # criterion 6's identity holds to rounding at any dilation (measured
    # worst 1.1e-13 over 200 3-D points, 8e-15 over 1500 2-D points)
    lam = tuple(2.0 ** u for u in octaves)
    field = make_test_field("gaussian", n, centre[:n], 1.0)
    pts = np.reshape(coords, (4, 3))[:, :n]
    rep = verify_identity(*dilation_identity(lam), field, pts, tol=1e-10)
    assert rep.max_rel_err <= 1e-10


def test_scaling_exponents_match_iff_admissible():
    # (p, q) = (3/2, 3) in n = 2 sits exactly on the scaling line, so the
    # two sides of the inequality carry identical dilation exponents
    lhs, rhs = scaling_exponents(1.5, 3.0, 2)
    assert lhs == pytest.approx(rhs, abs=1e-15)
    lhs, rhs = scaling_exponents(1.2, 3.0, 2)
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) > 0.1
    with pytest.raises(DomainError):
        scaling_exponents(0.5, 3.0, 2)


def test_tag_table_is_closed():
    assert "parabolic_shear" in TAGS
    assert len(TAGS) == 15
