"""Operator substitution tests: every tag is checked as a point mapping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemiradon import make_test_field, mixed_norm, parabolic_field, sonar_profile
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


# The value tests below compare every substitution, with ==, against its
# formula from the tag table, written out in the operation order of the
# per-tag code it replaced, on a batch of points in n = 2 and n = 3.

def probe(n, domain="full"):
    """A field whose value mixes every coordinate, computed column by column
    so that its bits do not depend on the memory layout of the points."""
    def func(pts):
        out = 1.0 + pts[:, 0] * pts[:, -1]
        for i in range(n):
            out = out + (i + 2) * pts[:, i]
        return out

    return ScalarField(n, func, domain)


def batch(n, half=False):
    """16 points in [-2, 2]^n, their last coordinate in [0.05, 3] if half."""
    rng = np.random.default_rng(n)
    pts = rng.uniform(-2.0, 2.0, (16, n))
    if half:
        pts[:, -1] = rng.uniform(0.05, 3.0, 16)
    return pts


def sum_sq(lead):
    return sum(lead[:, i] ** 2 for i in range(lead.shape[1]))


def stack(lead, last):
    return np.column_stack([lead, last])


def assert_exact(got, want):
    assert got.shape == want.shape
    assert (got == want).all(), float(np.max(np.abs(got - want)))


def test_parabolic_shear_pair():
    for n in (2, 3):
        f, X = probe(n), batch(n)
        sheared = apply(OperatorId("parabolic_shear"), f)
        # f(x', x_n - |x'|^2)
        assert_exact(sheared.eval_array(X), f.eval_array(stack(X[:, :-1], X[:, -1] - sum_sq(X[:, :-1]))))
        unsheared = apply(OperatorId("parabolic_unshear"), f)
        assert_exact(unsheared.eval_array(X),
                     f.eval_array(stack(X[:, :-1], X[:, -1] + sum_sq(X[:, :-1]))))
        back = apply(OperatorId("parabolic_unshear"), sheared)
        np.testing.assert_allclose(back.eval_array(X), f.eval_array(X), rtol=1e-13)


def test_parabolic_scaled_pair():
    for n in (2, 3):
        f, X = probe(n), batch(n)
        sheared = apply(OperatorId("parabolic_shear_scaled"), f)
        # F(2x', x_n - |x'|^2) and v(x'/2, x_n + |x'|^2/4)
        assert_exact(sheared.eval_array(X),
                     f.eval_array(stack(2.0 * X[:, :-1], X[:, -1] - sum_sq(X[:, :-1]))))
        unsheared = apply(OperatorId("parabolic_unshear_scaled"), f)
        assert_exact(unsheared.eval_array(X),
                     f.eval_array(stack(0.5 * X[:, :-1], X[:, -1] + 0.25 * sum_sq(X[:, :-1]))))
        back = apply(OperatorId("parabolic_unshear_scaled"), sheared)
        np.testing.assert_allclose(back.eval_array(X), f.eval_array(X), rtol=1e-13)


def test_sqrt_square_pullback_pair():
    for n in (2, 3):
        phi, Z = probe(n, "half"), batch(n, half=True)
        pulled = apply(OperatorId("sqrt_pullback"), phi)
        # z_n^{-1/2} phi(z', sqrt(z_n))
        root = np.sqrt(Z[:, -1])
        assert_exact(pulled.eval_array(Z), phi.eval_array(stack(Z[:, :-1], root)) / root)
        squared = apply(OperatorId("square_pullback"), phi)
        # x_n Phi(x', x_n^2)
        xn = Z[:, -1]
        assert_exact(squared.eval_array(Z), xn * phi.eval_array(stack(Z[:, :-1], xn ** 2)))
        back = apply(OperatorId("square_pullback"), pulled)
        np.testing.assert_allclose(back.eval_array(Z), phi.eval_array(Z), rtol=1e-14)


def test_sqrt_pullback_shear_mapping():
    for n in (2, 3):
        phi, X = probe(n, "half"), batch(n)
        out = apply(OperatorId("sqrt_pullback_shear"), phi)
        assert out.domain == "full"
        # (x_n - |x'|^2)_+^{-1/2} phi(x', sqrt(.))
        arg = X[:, -1] - sum_sq(X[:, :-1])
        good = arg > 0
        assert 0 < good.sum() < len(X)
        want = np.zeros(len(X))
        root = np.sqrt(arg[good])
        want[good] = phi.eval_array(stack(X[good, :-1], root)) / root
        assert_exact(out.eval_array(X), want)
    out = apply(OperatorId("sqrt_pullback_shear"), probe(2, "half"))
    # nonpositive parabolic argument gives exact zero, not a pole
    assert out.eval((0.5, 0.25)) == 0.0
    assert out.eval((0.5, -3.0)) == 0.0


def test_square_pullback_unshear_mapping():
    for n in (2, 3):
        psi, Y = probe(n), batch(n, half=True)
        out = apply(OperatorId("square_pullback_unshear"), psi)
        assert out.domain == "half"
        # y_n psi(y', y_n^2 + |y'|^2)
        yn = Y[:, -1]
        assert_exact(out.eval_array(Y),
                     yn * psi.eval_array(stack(Y[:, :-1], yn ** 2 + sum_sq(Y[:, :-1]))))


def test_field_to_profile_mapping():
    for n in (2, 3):
        f, P = probe(n), batch(n, half=True)
        prof = apply(OperatorId("field_to_profile"), f)
        assert isinstance(prof, SphereProfile)
        # r f(2x', r^2 - |x'|^2)
        XP, R = P[:, :-1], P[:, -1]
        assert_exact(prof.eval_array(XP, R),
                     R * f.eval_array(stack(2 * XP, R ** 2 - sum_sq(XP))))


def test_profile_to_field_mapping():
    for n in (2, 3):
        prof = SphereProfile(n, lambda XP, R: 1.0 + XP[:, 0] * R + 3.0 * XP[:, -1] + R)
        out = apply(OperatorId("profile_to_field"), prof)
        X = batch(n)
        # (x_n + |x'|^2/4)_+^{-1/2} Phi(x'/2, sqrt(.))
        arg = X[:, -1] + sum_sq(X[:, :-1]) / 4
        good = arg > 0
        assert 0 < good.sum() < len(X)
        want = np.zeros(len(X))
        want[good] = prof.eval_array(X[good, :-1] / 2, np.sqrt(arg[good])) / np.sqrt(arg[good])
        assert_exact(out.eval_array(X), want)
    out = apply(OperatorId("profile_to_field"), SphereProfile(2, lambda XP, R: XP[:, 0] + R))
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


@pytest.mark.parametrize("n", [2, 3])
def test_profile_field_pair_keeps_the_box(n):
    """The round trip of the bump is the bump on its support, and carries a
    box holding it, so its norm places its nodes as the bump's does. Without
    the profile's r interval the box was None and the mixed norm read 3.4e-4
    (2-D) and 6.1e-2 (3-D) off, its outer nodes spread over a default
    truncation interval [-8, 8]."""
    f = make_test_field("bump", n, (0.0,) * (n - 1) + (1.0,), 0.4)
    prof = apply(OperatorId("field_to_profile"), f)
    assert prof.xprime_box is not None and prof.r_box is not None
    back = apply(OperatorId("profile_to_field"), prof)
    assert all(lo <= a and b <= hi for (lo, hi), (a, b) in zip(back.box, f.box))
    assert mixed_norm(back, 3, 3) == pytest.approx(mixed_norm(f, 3, 3), rel=1e-12)
    # a sonar profile knows no x' box, and its round trip stays box-less
    half = make_test_field("bump", n, (0.0,) * (n - 1) + (1.0,), 0.4, domain="half")
    assert apply(OperatorId("profile_to_field"), sonar_profile(half)).box is None


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
    l1, l2 = 2.0, 0.5
    for n in (2, 3):
        for domain in ("full", "half"):
            f, X = probe(n, domain), batch(n, half=domain == "half")
            g = apply(OperatorId("axis_dilate", (l1, l2)), f)
            assert g.domain == domain
            # psi(l1 x', l2 x_n)
            assert_exact(g.eval_array(X), f.eval_array(stack(l1 * X[:, :-1], l2 * X[:, -1])))


def test_dual_dilate():
    l1, l2 = 2.0, 3.0
    for n in (2, 3):
        F, X = probe(n), batch(n)
        G = apply(OperatorId("dual_dilate", (l1, l2)), F)
        # l1^{1-n} F((l2/l1) x', l2 x_n)
        assert_exact(G.eval_array(X),
                     l1 ** (1 - n) * F.eval_array(stack((l2 / l1) * X[:, :-1], l2 * X[:, -1])))


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
    with pytest.raises(ChainError, match="profile_to_field consumes a SphereProfile"):
        apply(OperatorId("profile_to_field"), f)
    for tag in ("profile_to_field", "parabolic_shear"):
        with pytest.raises(ChainError, match=f"cannot apply {tag} to float"):
            apply(OperatorId(tag), 3.0)


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
    assert len(TAGS) == 14


# ---------------------------------------------------------------------------
# support hints
# ---------------------------------------------------------------------------

def _box_bump(domain):
    """A smooth bump whose support is exactly its box, so that the hints of
    an operator's output are tight somewhere and a hint too narrow shows."""
    c = np.array([0.7, -0.3, 1.0])

    def func(pts):
        u = (pts - c) / 0.4
        out = np.zeros(len(pts))
        inside = np.all(np.abs(u) < 1, axis=1)
        out[inside] = np.exp(-np.sum(1 / (1 - u[inside] ** 2), axis=1))
        return out

    return ScalarField(3, func, domain, tuple((ci - 0.4, ci + 0.4) for ci in c))


_HINT_ROWS = np.array([[0.0, 0.0], [0.5, -0.25], [1.5, 0.75]])

# box, then section (lo, hi) at _HINT_ROWS, of each shear and composite and
# of the parabolic and sonar transforms on the bump; the sqrt_pullback_shear
# and sonar input is the half-space bump
_PINNED_HINTS = {
    "parabolic_shear": (
        ((0.29999999999999993, 1.1), (-0.7, 0.10000000000000003), (0.69, 3.1)),
        (0.6, 0.9125, 3.4125), (1.4, 1.7125, 4.2125)),
    "parabolic_shear_scaled": (
        ((0.14999999999999997, 0.55), (-0.35, 0.05000000000000002), (0.6224999999999999, 1.825)),
        (0.6, 0.9125, 3.4125), (1.4, 1.7125, 4.2125)),
    "parabolic_unshear": (
        ((0.29999999999999993, 1.1), (-0.7, 0.10000000000000003), (-1.1, 1.31)),
        (0.6, 0.2875, -2.2125), (1.4, 1.0875, -1.4125)),
    "parabolic_unshear_scaled": (
        ((0.5999999999999999, 2.2), (-1.4, 0.20000000000000007), (-1.1, 1.31)),
        (0.6, 0.521875, -0.10312500000000002), (1.4, 1.321875, 0.6968749999999999)),
    "sqrt_pullback_shear": (
        ((0.29999999999999993, 1.1), (-0.7, 0.10000000000000003), (0.44999999999999996, 3.66)),
        (0.36, 0.6725, 3.1725), (1.9599999999999997, 2.2725, 4.7725)),
    "square_pullback_unshear": (
        ((0.29999999999999993, 1.1), (-0.7, 0.10000000000000003), (0.0, 1.1445523142259597)),
        (0.7745966692414834, 0.5361902647381804, 0.0),
        (1.1832159566199232, 1.0428326807307104, 0.0)),
    # the transforms' own hints: the parabolic section and the sonar r_support
    "parabolic": (
        None, (0.69, 0.6, 1.1824999999999997), (3.1, 1.9625, 4.942500000000001)),
    "sonar": (
        None, (0.6708203932499369, 0.6, 0.9708243919473798),
        (1.9131126469708992, 1.588238017426859, 2.34574082114798)),
}


@pytest.mark.parametrize("tag", sorted(_PINNED_HINTS))
def test_shear_support_hints_pinned(tag):
    box, lo, hi = _PINNED_HINTS[tag]
    step = tag if tag in ("parabolic", "sonar") else OperatorId(tag)
    out = apply_chain((step,), _box_bump("half" if tag in ("sqrt_pullback_shear", "sonar")
                                         else "full"))
    if isinstance(out, SphereProfile):
        got_box, hint = out.xprime_box, out.r_support
    else:
        got_box, hint = out.box, out.section_support
    assert got_box == box
    got_lo, got_hi = hint(_HINT_ROWS)
    assert tuple(got_lo) == lo and tuple(got_hi) == hi


def _hinted_outputs():
    """(name, output) of every operator on the box-supported bump."""
    full, half = _box_bump("full"), _box_bump("half")
    outs = [(tag, apply(OperatorId(tag), half)) for tag in
            ("sqrt_pullback", "square_pullback", "sqrt_pullback_shear", "zero_extend")]
    outs += [(tag, apply(OperatorId(tag), full)) for tag in
             ("parabolic_shear", "parabolic_shear_scaled", "parabolic_unshear",
              "parabolic_unshear_scaled", "square_pullback_unshear", "restrict_positive",
              "field_to_profile")]
    outs += [("axis_dilate", apply(OperatorId("axis_dilate", (2.0, 0.5)), f))
             for f in (full, half)]
    outs.append(("dual_dilate", apply(OperatorId("dual_dilate", (2.0, 3.0)), full)))
    # profile_to_field has the box of its profile's x' box and r interval
    back = apply(OperatorId("profile_to_field"), dict(outs)["field_to_profile"])
    outs.append(("profile_to_field", back))
    outs += [(f"{tag} of profile_to_field", apply(OperatorId(tag), back))
             for tag in ("parabolic_shear", "parabolic_unshear_scaled")]
    sectioned = apply(OperatorId("restrict_positive"), dict(outs)["parabolic_shear"])
    outs += [(f"{tag} of a sectioned field", apply(OperatorId(tag), sectioned))
             for tag in ("square_pullback", "sqrt_pullback")]
    return outs


_HINTED = _hinted_outputs()


def _outside_hint(out, u, gap, above, lead):
    """A point just outside ``out``'s hint: past its box on the first axis
    (``lead``) or past its last-axis window at x' (else); None if there is
    no such hint or no such point on the output's domain."""
    if isinstance(out, SphereProfile):
        box, window = out.xprime_box + (out.r_box or (0.0, np.inf),), out.r_support
    elif out.box is not None:
        box, window = out.box, out.section_support
    elif lead or out.section_support is None:
        return None
    else:
        box, window = ((-2.0, 2.0), (-2.0, 2.0), (-np.inf, np.inf)), out.section_support
    xp = [a + t * (b - a) for (a, b), t in zip(box[:-1], u)]
    if lead:
        xp[0] = box[0][1] + gap if above else box[0][0] - gap
    lo, hi = box[-1]
    if window is not None:
        wlo, whi = window(np.array([xp]))
        lo, hi = max(lo, wlo[0]), min(hi, whi[0])
    last = (lo + hi) / 2 if lead else hi + gap if above else lo - gap
    if last <= 0 and not (isinstance(out, ScalarField) and out.domain == "full"):
        return None
    return xp, last


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), st.floats(1e-9, 0.3),
       st.booleans(), st.booleans())
def test_operator_output_vanishes_outside_its_hints(u, gap, above, lead):
    """Every support hint is conservative: just outside the hinted box, or
    the hinted section at x', an operator's output is exactly zero."""
    for name, out in _HINTED:
        point = _outside_hint(out, u, gap, above, lead)
        if point is None:
            continue
        xp, last = point
        value = out.eval(xp, last) if isinstance(out, SphereProfile) else out.eval(xp + [last])
        assert value == 0.0, name


def test_shear_of_boxless_field_keeps_its_section():
    """The right side of the parabolic factorization is a shear of the
    box-less transversal field: its inner integral must follow that field's
    section, not stop at a default truncation radius (2.4e-2 off when it
    did)."""
    f = make_test_field("bump", 2, (0.0, 1.0), 0.4)
    rhs = apply_chain(CANONICAL_IDENTITIES["parabolic_via_transversal"][1], f)
    got = mixed_norm(rhs, 3, 3, outer_box=((-6, 6),))
    want = mixed_norm(parabolic_field(f), 3, 3, outer_box=((-6, 6),))
    assert got == pytest.approx(want, rel=1e-6)
