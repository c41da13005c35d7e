"""Norm evaluation tests against separable closed forms."""

import math

import numpy as np
import pytest

from hemiradon import (QuadratureSpec, make_test_field, parabolic_field, sonar_profile,
                       transversal_field)
from hemiradon.errors import DomainError, QuadratureError
from hemiradon.fields import ScalarField, SphereProfile, _coordinate_major
from hemiradon.norms import _inner_sums, lp_norm, mixed_norm, scaling_scan
from hemiradon.quadrature import line_rule, tensor_rule


def test_lp_norm_gaussian_closed_form():
    # || exp(-|x|^2) ||_p = (pi / p)^(1/p) in n = 2
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    for p in (1.0, 1.5, 3.0):
        assert lp_norm(f, p) == pytest.approx((math.pi / p) ** (1 / p), rel=1e-12)
    # frozen: (pi/3)^(1/3)
    assert lp_norm(f, 3.0) == pytest.approx(1.015491297563, rel=1e-11)


def test_lp_norm_shift_invariance():
    a = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    b = make_test_field("gaussian", 2, (1.0, -2.0), 1.0)
    assert lp_norm(b, 1.5) == pytest.approx(lp_norm(a, 1.5), rel=1e-12)


def test_weighted_half_space_norm_closed_form():
    """Monomial phantom: the weight cancels the monomial power exactly."""
    f = make_test_field("monomial_times_gaussian", 2, (0.0, 0.0), 1.0,
                        domain="half")
    # int_{x2>0} x2^p e^{-p|x|^2} x2^(1-p) dx = sqrt(pi/p) / (2p)
    for p, frozen in ((1.0, 0.886226925453), (2.0, 0.559757567460)):
        want = (math.sqrt(math.pi / p) / (2 * p)) ** (1 / p)
        got = lp_norm(f, p, "half_space_weight")
        assert got == pytest.approx(want, rel=1e-11)
        assert got == pytest.approx(frozen, rel=1e-11)


def test_lp_norm_validation():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)
    with pytest.raises(DomainError):
        lp_norm(f, 2.0, "radial_weight")
    with pytest.raises(DomainError):
        lp_norm(f, 2.0, "half_space_weight")  # needs a half-space field


@pytest.mark.parametrize("weight", [None, "half_space_weight"])
def test_lp_norm_refuses_what_is_not_a_field(weight):
    # the type is checked before the weight reads the domain, which a profile
    # or a number does not have (a raw AttributeError once)
    gh = make_test_field("gaussian", 2, (0.0, 0.0), 1.0, domain="half")
    for data in (sonar_profile(gh), 3.0):
        with pytest.raises(DomainError, match="lp_norm consumes a ScalarField"):
            lp_norm(data, 1.5, weight)


def test_singular_weight_guard_refines_rows_already_at_m():
    """The guard's second pass doubles m as well as the floor: at m alone,
    every near row of this norm was already at m, so it was recomputed at m
    and the check could not fire; the norm read 0.50 % low, silently."""
    gh = make_test_field("gaussian", 2, (0.0, 0.0), 1.0, domain="half")
    p = 1.5
    # int_{x2>0} e^{-p|x|^2} x2^(1-p) dx = sqrt(pi/p) 1/2 p^(-(2-p)/2) Gamma((2-p)/2)
    want = (math.sqrt(math.pi / p) * 0.5 * p ** (-(2 - p) / 2)
            * math.gamma((2 - p) / 2)) ** (1 / p)
    try:
        got = lp_norm(gh, p, "half_space_weight")
    except QuadratureError:
        return
    assert got == pytest.approx(want, rel=1e-6)


def test_mixed_norm_gaussian_closed_form():
    # inner L^s in x_n then outer L^q: (pi/s)^(1/(2s)) (pi/q)^(1/(2q))
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    q = s = 3.0
    want = (math.pi / s) ** (1 / (2 * s)) * (math.pi / q) ** (1 / (2 * q))
    assert mixed_norm(f, q, s) == pytest.approx(want, rel=1e-12)
    # frozen: (pi/3)^(1/3) again, by coincidence of exponents
    assert mixed_norm(f, 3.0, 3.0) == pytest.approx(1.015491297563, rel=1e-11)


def test_mixed_norm_sup_outer():
    # q = inf takes the sup over outer quadrature nodes; no node sits exactly
    # at the maximizer x' = 0, so the sup is a slight underestimate
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    got = mixed_norm(f, math.inf, 3.0)
    want = (math.pi / 3.0) ** (1 / 6)
    assert got <= want + 1e-12
    assert got == pytest.approx(want, rel=0.01)


def test_profile_weighted_mixed_norm_closed_form():
    # prof(x', r) = r exp(-x'^2 - r^2); the r^(1-s) weight cancels r^(s-1)
    prof = SphereProfile(
        2, lambda XP, R: R * np.exp(-XP[:, 0] ** 2 - R ** 2),
        xprime_box=((-8.0, 8.0),), r_support=lambda XP: (
            np.zeros(len(XP)), np.full(len(XP), 8.0)))
    q = s = 3.0
    want = (1.0 / (2 * s)) ** (1 / s) * (math.pi / q) ** (1 / (2 * q))
    got = mixed_norm(prof, q, s, "profile_weight")
    assert got == pytest.approx(want, rel=1e-9)
    # frozen: (sqrt(pi/3)/6)^(1/3)
    assert got == pytest.approx(0.554567421306, rel=1e-9)


def test_mixed_norm_plain_on_profile():
    prof = SphereProfile(
        2, lambda XP, R: np.exp(-XP[:, 0] ** 2 - R ** 2),
        xprime_box=((-8.0, 8.0),), r_support=lambda XP: (
            np.zeros(len(XP)), np.full(len(XP), 8.0)))
    # inner int_0^inf e^(-3r^2) dr = sqrt(pi/3)/2
    want = (math.sqrt(math.pi / 3) / 2) ** (1 / 3) * (math.pi / 3) ** (1 / 6)
    assert mixed_norm(prof, 3.0, 3.0) == pytest.approx(want, rel=1e-10)


def test_mixed_norm_validation():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        mixed_norm(f, 0.5, 3.0)
    with pytest.raises(DomainError):
        mixed_norm(f, 3.0, 3.0, "profile_weight")  # needs a profile
    with pytest.raises(DomainError):
        mixed_norm(f, 3.0, 3.0, outer_box=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(DomainError, match="unknown weight 'half_space_weight' for mixed_norm"):
        mixed_norm(f, 3.0, 3.0, "half_space_weight")
    with pytest.raises(DomainError, match="mixed_norm consumes a ScalarField or SphereProfile"):
        mixed_norm(3.0, 3.0, 3.0)


def test_outer_box_does_not_bound_the_inner_integral():
    # an outer box bounds x' only: data with neither a box nor a section has
    # no bound for its last coordinate
    boxless = ScalarField(2, lambda pts: np.exp(-np.sum(pts ** 2, axis=1)))
    for norm in (lambda: mixed_norm(boxless, 3.0, 3.0, outer_box=((-1.0, 1.0),)),
                 lambda: lp_norm(boxless, 1.5, outer_box=((-1.0, 1.0),))):
        with pytest.raises(DomainError, match="needs a section or a support box"):
            norm()


def test_transversal_norm_of_gaussian_closed_form():
    # the transversal transform of exp(-|x|^2) in n = 2 is
    # sqrt(pi / (1 + u^2)) exp(-t^2 / (1 + u^2)); the integral of its cube
    # over t is pi^2 / sqrt(3) (1 + u^2)^(-1), so over |u| <= 16 the (3, 3)
    # norm cubed is pi^2 / sqrt(3) * 2 arctan(16)
    g = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    want = (math.pi ** 2 * 2 * math.atan(16.0) / math.sqrt(3.0)) ** (1 / 3)
    assert want == pytest.approx(2.58083191928953, rel=1e-13)
    got = mixed_norm(transversal_field(g), 3.0, 3.0, outer_box=((-16.0, 16.0),))
    assert got == pytest.approx(want, rel=1e-9)


def test_parabolic_norm_of_bump_against_converged_value():
    # frozen: the same norm at m = 1600 for both the transform and the norm,
    # spec = QuadratureSpec(m=1600);
    # mixed_norm(parabolic_field(bump, spec), 3, 3, spec=spec, outer_box=((-16, 16),))
    bump = make_test_field("bump", 2, (0.0, 1.0), 0.4)
    got = mixed_norm(parabolic_field(bump), 3.0, 3.0, outer_box=((-16.0, 16.0),))
    assert got == pytest.approx(0.133986667503806, rel=1e-8)


def test_3d_parabolic_norm_of_bump_against_converged_value():
    # frozen converged value: with spec = QuadratureSpec(m=M) for both the
    # transform and the norm,
    # mixed_norm(parabolic_field(bump, spec), 4, 4, spec=spec,
    #            outer_box=((-16, 16), (-16, 16)))
    # reads 0.0563310 at M = 80 and 0.0563311 at M = 120; M = 24 reads
    # 0.0563276, outside the tolerance, so the test sees the rule converge
    bump = make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4)
    spec = QuadratureSpec(m=40)
    got = mixed_norm(parabolic_field(bump, spec), 4.0, 4.0, spec=spec,
                     outer_box=((-16.0, 16.0), (-16.0, 16.0)))
    assert got == pytest.approx(0.0563310, rel=1e-5)


@pytest.mark.parametrize("box", [((2.0, -2.0),), ((1.0, 1.0),), ((-1.0, 1.0), (1.0, -1.0))])
def test_outer_box_without_lo_below_hi_is_refused(box):
    # a reversed box once gave NaN (numpy only warned) and an empty one 0.0
    n = len(box) + 1
    g = make_test_field("gaussian", n, (0.0,) * n, 1.0)
    bad = rf"outer_box axis {n - 2} needs lo < hi, got \({box[-1][0]}, {box[-1][1]}\)"
    with pytest.raises(DomainError, match=bad):
        mixed_norm(transversal_field(g), 3.0, 3.0, outer_box=box)
    with pytest.raises(DomainError, match=bad):
        lp_norm(g, 1.5, outer_box=box)


def test_singular_weight_refinement_reads_its_own_rows():
    """Outer nodes past the support get r-windows away from r = 0, so only
    some rows are refined under node doubling; each must read its own node."""
    gh = make_test_field("gaussian", 2, (0.0, 0.0), 1.0, domain="half")
    vals = []
    for m in (64, 96):
        spec = QuadratureSpec(m=m)
        vals.append(mixed_norm(sonar_profile(gh, spec), 3, 3, "profile_weight", spec,
                               outer_box=((-12.0, 12.0),)))
    assert vals[0] == pytest.approx(vals[1], rel=1e-5)


def test_outer_box_truncation_is_exact_for_supported_fields():
    f = make_test_field("bump", 2, (0.0, 0.0), 0.5)
    full = lp_norm(f, 1.5)
    tight = lp_norm(f, 1.5, outer_box=((-0.5, 0.5),))
    assert tight == pytest.approx(full, rel=1e-9)


@pytest.mark.parametrize("norm", ["lp", "weighted", "mixed"])
def test_non_finite_field_names_outer_node(norm):
    # NaN on the box |x1| < 0.5, 0 < x2 < 1: every inner integral meets it,
    # and the error names the first outer node instead of returning nan
    def f(p):
        inside = (np.abs(p[:, 0]) < 0.5) & (p[:, 1] > 0.0) & (p[:, 1] < 1.0)
        return np.where(inside, np.nan, 0.0)

    box = ((-0.5, 0.5), (0.0, 1.0))
    with pytest.raises(QuadratureError, match="inner integral") as ei:
        if norm == "lp":
            lp_norm(ScalarField(2, f, box=box), 1.5)
        elif norm == "weighted":
            lp_norm(ScalarField(2, f, domain="half", box=box), 1.5, "half_space_weight")
        else:
            mixed_norm(ScalarField(2, f, box=box), 3.0, 3.0)
    (x1,) = ei.value.node
    assert -0.5 < x1 < -0.49


def _graded_reference_rule(a, b, m):
    """The outer rule of data without a support box, built by hand: 13 Gauss
    panels of max(4, ceil(m/25)) nodes on the edges c +- hw 2^(j-6),
    j = 0..6, about the centre c of [a, b] of half-width hw."""
    c, hw = 0.5 * (a + b), 0.5 * (b - a)
    half = hw * 2.0 ** np.arange(-6, 1)
    edges = c + np.concatenate([-half[::-1], half])
    rules = [line_rule(lo, hi, max(4, math.ceil(m / 25))) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def _profile_branch_reference(prof, q, s, weight_exp, spec, obox):
    """The mixed norm of a profile as its own evaluation path computed it
    before profiles were read through their half-space field: the graded
    outer rule over obox (the profile has no r_box, so its field has no
    box), inner windows on r_support clipped at 1e-12 with a floor of
    ceil(m/2) nodes, and the profile called with the x' rows and the radii
    (no singular-weight refinement, which the profiles below never reach)."""
    k = prof.n - 1
    XP, W = tensor_rule([_graded_reference_rule(lo, hi, spec.m) for lo, hi in obox])
    lo, hi = prof.r_support(XP)
    lo = np.maximum(lo, 1e-12)
    assert np.all(lo >= 0.05 * (hi - lo))

    def eval_inner(idx, nodes):
        XPrep = _coordinate_major(nodes.shape + (k,))
        XPrep[...] = XP[idx, None, :]
        return prof.eval_array(XPrep.reshape(-1, k), nodes.ravel()).reshape(nodes.shape)

    inner = _inner_sums(eval_inner, lo, hi, s, weight_exp, spec, math.ceil(spec.m / 2))
    return float(np.dot(W, inner ** (q / s)) ** (1.0 / q))


def test_profile_norm_is_its_half_space_field_norm():
    # a profile's mixed norms are those of the field (x', r) -> Phi(x', r),
    # to the bit, plain and with the r^(1-s) weight
    spec = QuadratureSpec.for_dimension(2).with_(m=24)
    bump = make_test_field("bump", 2, (0.1, 1.0), 0.4, domain="half")
    prof = sonar_profile(bump, spec)
    obox = ((-1.0, 1.2),)
    plain = mixed_norm(prof, 3.0, 3.0, spec=spec, outer_box=obox)
    assert plain == mixed_norm(prof.as_field(), 3.0, 3.0, spec=spec, outer_box=obox)
    assert plain == _profile_branch_reference(prof, 3.0, 3.0, 0.0, spec, obox)
    weighted = mixed_norm(prof, 3.0, 3.0, "profile_weight", spec, outer_box=obox)
    assert weighted == _profile_branch_reference(prof, 3.0, 3.0, -2.0, spec, obox)
    assert weighted != plain


def test_profile_without_r_box_bounds_outer_integral_by_its_xprime_box():
    # the field of a profile with no r_box has no box, yet the outer
    # integral still runs over the profile's x' box, not over a default
    # truncation interval
    prof = SphereProfile(
        2, lambda XP, R: np.exp(-XP[:, 0] ** 2 - R ** 2),
        xprime_box=((0.5, 1.0),), r_support=lambda XP: (
            np.zeros(len(XP)), np.full(len(XP), 8.0)))
    assert prof.r_box is None and prof.as_field().box is None
    got = mixed_norm(prof, 3.0, 3.0)
    assert got == mixed_norm(prof, 3.0, 3.0, outer_box=((0.5, 1.0),))
    assert got < 0.8 * mixed_norm(prof, 3.0, 3.0, outer_box=((-8.0, 8.0),))


def test_scaling_scan_flat_on_admissible_triple():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    lams = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
    entries = scaling_scan("transversal", 1.5, 3.0, 3.0, 2, lams, f)
    ratios = [e.ratio for e in entries]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-9)
    for e in entries:
        assert e.output_norm > 0 and e.input_norm > 0
        assert e.ratio == pytest.approx(e.output_norm / e.input_norm)


def test_scaling_scan_power_law_on_inadmissible_triple():
    """Off the scaling line the ratio follows an exact power of lambda."""
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    lams = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
    entries = scaling_scan("transversal", 1.2, 3.0, 3.0, 2, lams, f)
    r = [e.ratio for e in entries]
    # lambda^(1/3) law for (p, q) = (1.2, 3) in n = 2
    assert r[2] / r[1] == pytest.approx(2 ** (1 / 3), rel=1e-9)
    assert r[1] / r[0] == pytest.approx(2 ** (1 / 3), rel=1e-9)


@pytest.mark.parametrize("transform", ["parabolic", "sonar"])
@pytest.mark.parametrize("p", [1.5, 1.2])
def test_scaling_scan_follows_dilation_law(transform, p):
    """The parabolic and sonar scans along their own dilation paths.

    With f_lam(x) = f(lam1 x', lam2 x_n): on lam2 = lam1^2 the parabolic
    transform is lam1^(1-n) (Pf)(lam1 x', lam2 x_n), so its (q, s) norm goes
    like lam1^(1-n-(n-1)/q) lam2^(-1/s); on lam1 = lam2 = lam the sonar
    transform is lam^(1-n) (Sf)(lam x', lam r), whose r^(1-s)-weighted norm
    goes like lam^(2-n-2/s-(n-1)/q). The input norms go like
    lam1^((1-n)/p) lam2^(-1/p) and, with the t^(1-p) weight, lam^(1-(n+1)/p).
    Along either path the ratio goes like lam^e with the same
    e = (n+1)/p + 1-n - (n-1)/q - 2/s: 0 at (1.5, 3, 3), 1/2 at (1.2, 3, 3).
    """
    n, q, s = 2, 3.0, 3.0
    domain = "half" if transform == "sonar" else "full"
    f = make_test_field("bump", n, (0.0, 1.0), 0.4, domain=domain)
    lams = [(lam, lam ** 2 if transform == "parabolic" else lam) for lam in (0.5, 1.0, 2.0)]
    r = [e.ratio for e in scaling_scan(transform, p, q, s, n, lams, f)]
    e = (n + 1) / p + 1 - n - (n - 1) / q - 2 / s
    assert e == pytest.approx(0.0 if p == 1.5 else 0.5, abs=1e-12)
    assert r[2] / r[1] == pytest.approx(2 ** e, rel=1e-9)
    assert r[1] / r[0] == pytest.approx(2 ** e, rel=1e-9)


@pytest.mark.parametrize("transform", ["parabolic", "sonar"])
def test_scaling_scan_flat_over_twelve_octaves(transform):
    """The outer boxes of the parabolic and sonar scans have no support box
    behind them, so they take the graded rule; its edges scale with the box,
    so at lam = 2^k the admissible ratio is flat to rounding."""
    domain = "half" if transform == "sonar" else "full"
    f = make_test_field("bump", 2, (0.0, 1.0), 0.4, domain=domain)
    lams = [(2.0 ** k, 4.0 ** k if transform == "parabolic" else 2.0 ** k) for k in range(-6, 7)]
    r = np.array([e.ratio for e in scaling_scan(transform, 1.5, 3.0, 3.0, 2, lams, f)])
    assert np.max(np.abs(r / r[6] - 1.0)) <= 1e-12


@pytest.mark.parametrize("transform", ["transversal", "sonar", "parabolic"])
def test_3d_scaling_scan_is_flat_or_follows_its_power(transform):
    """The n = 3 scans, through both halves of the 3-D polar chart: flat at
    (4/3, 4, 4), and like lam^gamma at (1.2, 4, 4), gamma = 1/4 for the
    transversal scan and 1/3 on the parabolic and sonar dilation paths
    (exponents as in ``test_scaling_scan_follows_dilation_law``)."""
    n, spec = 3, QuadratureSpec(m=16)
    if transform == "transversal":
        f, gamma = make_test_field("gaussian", n, (0.0, 0.0, 0.0), 1.0), 1 / 4
    else:
        domain = "half" if transform == "sonar" else "full"
        f, gamma = make_test_field("bump", n, (0.0, 0.0, 1.0), 0.4, domain=domain), 1 / 3
    lams = [(lam, lam ** 2 if transform == "parabolic" else lam) for lam in (1.0, 2.0)]
    for p, e in ((4 / 3, 0.0), (1.2, gamma)):
        r = [entry.ratio for entry in scaling_scan(transform, p, 4.0, 4.0, n, lams, f, spec)]
        assert r[1] / r[0] == pytest.approx(2 ** e, rel=1e-9)


@pytest.mark.parametrize("radius", [0.0, -16.0])
def test_scaling_scan_refuses_outer_radius_not_positive(radius):
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="outer_box axis 0 needs lo < hi"):
        scaling_scan("transversal", 1.5, 3.0, 3.0, 2, [(1.0, 1.0)], f, outer_radius=radius)


def test_scaling_scan_validation():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        scaling_scan("fourier", 1.5, 3.0, 3.0, 2, [(1.0, 1.0)], f)
    boxless = ScalarField(2, lambda pts: np.exp(-np.sum(pts ** 2, axis=1)))
    with pytest.raises(DomainError):
        scaling_scan("transversal", 1.5, 3.0, 3.0, 2, [(1.0, 1.0)], boxless)


def test_scaling_scan_names_both_dimensions_on_mismatch():
    f = make_test_field("gaussian", 2, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="n = 3 got a base field in n = 2"):
        scaling_scan("transversal", 1.5, 3.0, 3.0, 3, [(1.0, 1.0)], f)
