"""Tests for backprojection and the inversion built on it.

Frozen backprojection references were computed with scipy.integrate.quad on
the explicit kernel integrals, truncating the slope variable at |z| = 8192
(the integrands decay like 1/|z|^2, so the tests that read them pass the
same cutoff as ``bp_stop``). Inner integrals track the moving support
window explicitly; quad error estimates were below 1e-10 throughout.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, i0e

import hemiradon as hr
from hemiradon.errors import ConfigError, DomainError, QuadratureError
from hemiradon.inversion import _far_field, _slope_grid


def gaussian_field(n):
    return hr.ScalarField(n, lambda p: np.exp(-np.sum(p * p, axis=1)),
                          box=((-8.0, 8.0),) * n)


def gaussian_backprojection(n, center=None, scale=1.0):
    """Closed-form backprojection g of exp(-|x - c|^2 / s^2), which is
    s^(n-1) g_1((x - c) / s) with g_1 that of the unit Gaussian:
    (sqrt(pi)/2) exp(-r^2/2) I0(r^2/2) for n = 2, (sqrt(pi)/4) erf(r)/r for
    n = 3."""
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)

    def g(p):
        r2 = np.sum(((p - c) / scale) ** 2, axis=1)
        if n == 2:
            return scale * math.sqrt(math.pi) / 2 * i0e(r2 / 2)
        r = np.sqrt(r2)
        ratio = np.full(r.shape, 2 / math.sqrt(math.pi))   # erf(r)/r at 0
        big = r > 1e-8
        ratio[big] = erf(r[big]) / r[big]
        return scale ** 2 * math.sqrt(math.pi) / 4 * ratio

    return hr.ScalarField(n, g)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestReconstructionConfig:
    def test_defaults_by_dimension(self):
        c2 = hr.ReconstructionConfig.for_dimension(2)
        assert c2.ell == 1
        assert c2.bp_stop == math.inf
        assert c2.g_spec.m == 96
        assert c2.stencil_h == 0.02
        c3 = hr.ReconstructionConfig.for_dimension(3)
        assert c3.ell == 3
        assert c3.bp_stop == math.inf
        assert c3.g_spec.m == 10
        assert c3.bp_angular_nodes == 24
        assert c3.stencil_h == 0.01

    def test_refined_sharpens_each_control(self):
        c = hr.ReconstructionConfig.for_dimension(2)
        r = c.refined()
        assert r.hyper_radial_nodes == c.hyper_radial_nodes * 3 // 2
        assert r.y_radius == 2 * c.y_radius
        assert r.g_spec.m == 2 * c.g_spec.m

    @pytest.mark.parametrize("n,ell", [(2, 1), (3, 3)])
    def test_unset_grid_takes_dimension_default(self, n, ell):
        # a config without g_spec reads the data at the for_dimension
        # direction grid, not at the forward spec's m
        m = hr.ReconstructionConfig.for_dimension(n).g_spec.m
        directions = _slope_grid(n, m, math.inf, 24)[0].shape[0]
        reads = []

        def psi(p):
            reads.append(p.shape[0])
            a = 1.0 + np.sum(p[:, :-1] ** 2, axis=1)
            return a ** -0.5 * np.exp(-p[:, -1] ** 2 / a)

        data = hr.ScalarField(n, psi)
        cfg = hr.ReconstructionConfig(ell=ell)
        hr.backprojection("transversal", data, (0.1,) * n, cfg=cfg)
        assert sum(reads) == directions

    def test_refined_keeps_unset_grid_unset(self):
        r = hr.ReconstructionConfig().refined()
        assert r.g_spec is None

    def test_with_overrides_one_field(self):
        c = hr.ReconstructionConfig().with_(ell=3)
        assert c.ell == 3
        assert c.stencil_h == hr.ReconstructionConfig().stencil_h

    @pytest.mark.parametrize("kw", [
        {"ell": 0},
        {"ell": 1.5},
        {"y_radius": 0.25},
        {"bp_stop": math.nan},
        {"stencil_h": 0.0},
        {"exponent": 0.0},
        {"y_radius": 0.1},
        {"hyper_radial_nodes": 3},
        {"bp_angular_nodes": 2},
        {"bp_stop": 0.0},
    ])
    def test_rejects_bad_controls(self, kw):
        with pytest.raises(ConfigError):
            hr.ReconstructionConfig(**kw)


# ---------------------------------------------------------------------------
# backprojection
# ---------------------------------------------------------------------------

class TestBackprojection:
    def test_transversal_gaussian_origin(self):
        # closed form sqrt(pi)/2: the direction grid runs over every slope
        data = hr.transversal_field(gaussian_field(2))
        got = hr.backprojection("transversal", data, (0.0, 0.0))
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-10)

    def test_parabolic_gaussian_origin(self):
        data = hr.parabolic_field(gaussian_field(2))
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(bp_stop=8192.0)
        got = hr.backprojection("parabolic", data, (0.0, 0.0), cfg=cfg)
        assert got == pytest.approx(0.8557128103225363, rel=1e-5)

    def test_sonar_bump_focus_point(self):
        # every circle in the slope family passes through the evaluation
        # point, so the whole grid contributes
        bump = hr.make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
        prof = hr.sonar_profile(bump)
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(bp_stop=8192.0)
        got = hr.backprojection("sonar", prof, (0.0, 1.0), cfg=cfg)
        assert got == pytest.approx(0.12213036964454264, rel=1e-5)

    def test_gaussian_closed_form_2d(self):
        # g = (sqrt(pi)/2) exp(-|x|^2/2) I0(|x|^2/2) out to the radius the
        # hypersingular integral reads
        data = hr.transversal_field(gaussian_field(2))
        rng = np.random.default_rng(7)
        ang = rng.uniform(0.0, 2 * np.pi, 24)
        X = np.linspace(0.0, 9.0, 24)[:, None] * np.column_stack(
            [np.cos(ang), np.sin(ang)])
        want = math.sqrt(math.pi) / 2 * i0e(np.sum(X * X, axis=1) / 2)
        got = [hr.backprojection("transversal", data, x) for x in X]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_gaussian_closed_form_3d(self):
        # g = (sqrt(pi)/4) erf(|x|)/|x|; the far points cross every polar
        # ring, so they guard the azimuths of the short rings near the pole
        data = hr.transversal_field(gaussian_field(3))
        rng = np.random.default_rng(8)
        d = rng.standard_normal((6, 3))
        X = np.linspace(0.5, 3.0, 6)[:, None] * d / np.linalg.norm(
            d, axis=1)[:, None]
        r = np.linalg.norm(X, axis=1)
        want = math.sqrt(math.pi) / 4 * erf(r) / r
        got = [hr.backprojection("transversal", data, x) for x in X]
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0)

    def test_non_finite_data_names_slope_and_point(self):
        Z, _ = _slope_grid(2, 96, math.inf, 24)
        u0 = 2.0 * float(Z[5, 0])                   # transversal reads 2Z

        def psi(p):
            vals = np.exp(-p[:, 1] ** 2)
            return np.where(p[:, 0] == u0, np.nan, vals)

        data = hr.ScalarField(2, psi)
        with pytest.raises(QuadratureError, match="0.3, -0.1") as ei:
            hr.backprojection("transversal", data, (0.3, -0.1))
        assert ei.value.node == (u0,)

    def test_transversal_3d_origin(self):
        # (2 pi)^(-2) * pi * integral (1+|u|^2)^(-3/2) du = 1/2
        data = hr.transversal_field(gaussian_field(3))
        got = hr.backprojection("transversal", data, (0.0, 0.0, 0.0))
        assert got == pytest.approx(0.5, rel=1e-5)

    def test_field_form_matches_pointwise(self):
        data = hr.transversal_field(gaussian_field(2))
        g = hr.backprojection_field("transversal", data)
        pts = np.array([[0.0, 0.0], [0.4, -0.3]])
        # single-row evaluation follows the identical path, so it is exact;
        # batched evaluation may differ in the last ulp (reduction order)
        one = float(g.eval_array(pts[:1])[0])
        assert one == hr.backprojection("transversal", data, pts[0])
        both = g.eval_array(pts)
        for row, v in zip(pts, both):
            assert v == pytest.approx(
                hr.backprojection("transversal", data, row), rel=1e-13)

    def test_rejects_mismatched_data(self):
        g2 = gaussian_field(2)
        data = hr.transversal_field(g2)
        prof = hr.sonar_profile(
            hr.make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half"))
        with pytest.raises(DomainError):
            hr.backprojection("spiral", data, (0.0, 0.0))
        with pytest.raises(DomainError):
            hr.backprojection("sonar", data, (0.0, 1.0))
        with pytest.raises(DomainError):
            hr.backprojection("transversal", prof, (0.0, 0.0))
        half = hr.ScalarField(2, lambda p: p[:, 1], domain="half")
        with pytest.raises(DomainError):
            hr.backprojection("parabolic", half, (0.0, 0.0))

    def test_rejects_unsupported_dimension(self):
        data = hr.transversal_field(gaussian_field(4))
        with pytest.raises(DomainError):
            hr.backprojection("transversal", data, (0.0, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

class TestDifferences:
    def test_stencil_exact_on_quadratic(self):
        sq = hr.ScalarField(2, lambda p: np.sum(p * p, axis=1))
        got = hr.laplacian_power(sq, (0.7, -0.3), 1, 0.1)
        assert got == pytest.approx(-4.0, abs=1e-10)

    def test_stencil_on_gaussian(self):
        g = gaussian_field(2)
        assert hr.laplacian_power(g, (0.0, 0.0), 1, 0.01) == pytest.approx(
            4.0, rel=1e-3)
        assert hr.laplacian_power(g, (0.0, 0.0), 2, 0.02) == pytest.approx(
            32.0, rel=5e-3)

    def test_stencil_zeroth_power_is_identity(self):
        g = gaussian_field(2)
        assert hr.laplacian_power(g, (0.3, 0.1), 0, 0.02) == float(
            g.eval_array(np.array([[0.3, 0.1]]))[0])

    def test_stencil_validation(self):
        g = gaussian_field(2)
        with pytest.raises(DomainError):
            hr.laplacian_power(g, (0.0, 0.0), -1, 0.02)
        with pytest.raises(DomainError):
            hr.laplacian_power(g, (0.0, 0.0), 1, 0.0)


# ---------------------------------------------------------------------------
# the odd-n Laplacian inside the backprojection
# ---------------------------------------------------------------------------

def transversal_gaussian_3d(p):
    """Closed-form transversal data of the 3-D unit Gaussian:
    pi (1+|u|^2)^(-1/2) exp(-t^2/(1+|u|^2))."""
    a = 1.0 + np.sum(p[:, :-1] ** 2, axis=1)
    return math.pi * a ** -0.5 * np.exp(-p[:, -1] ** 2 / a)


class TestLaplacianInBackprojection:
    @pytest.mark.parametrize("kind,method", [
        pytest.param(kind, method, id=kind if method else f"{kind}-default")
        for method in ("laplacian_power", None)
        for kind in ("transversal", "parabolic", "sonar")])
    def test_three_reads_per_direction(self, kind, method):
        # (-Delta) g is a second difference of the data in its intercept,
        # for both methods: 3 reads for each direction of the default grid
        # (204 on 10 polar rings), not a 7-point stencil of backprojections
        # nor the hypersingular integral of 9729 of them
        m = hr.ReconstructionConfig.for_dimension(3).g_spec.m
        budget = 3 * _slope_grid(3, m, math.inf, 24)[0].shape[0]
        reads = []

        def count(size):
            reads.append(size)
            assert sum(reads) <= budget

        if kind == "sonar":
            def prof(XP, R):
                count(R.size)
                return np.exp(-R ** 2)

            data = hr.SphereProfile(3, prof)
        else:
            def psi(p):
                count(p.shape[0])
                return transversal_gaussian_3d(p)

            data = hr.ScalarField(3, psi)
        methods = () if method is None else (method,)
        hr.invert(kind, data, (0.05, -0.02, 1.0), *methods)
        assert sum(reads) == budget

    def test_ring_azimuths_follow_circumference(self):
        # polar ring j of a 48-ring 3-D grid holds min(24, ceil(24 sin
        # theta_j) + 4) azimuths: 970 directions, not 48 x 24
        Z, W = _slope_grid(3, 48, math.inf, 24)
        radius, counts = np.unique(np.round(np.linalg.norm(Z, axis=1), 10),
                                   return_counts=True)
        theta = np.arctan(2.0 * radius)
        assert radius.size == 48
        np.testing.assert_array_equal(
            counts, np.minimum(24, np.ceil(24 * np.sin(theta)).astype(int) + 4))
        assert counts[0] == 5 and counts[-1] == 24
        assert Z.shape == (970, 2) and W.shape == (970,)

    @pytest.mark.parametrize("kind,pts,tol", [
        # criterion 10's points and two at the benchmark's radius 0.5
        ("transversal", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, -0.4, 0.2),
                         (0.25, 0.25, -0.25), (-0.2, 0.1, 0.4),
                         (1 / 6, -1 / 3, 1 / 3), (0.0, 0.0, -0.5)], 1e-6),
        # the bump centre and offsets as the benchmark draws them
        ("parabolic", [(0.0, 0.0, 1.0), (0.003, 0.0, 1.0),
                       (0.001, -0.002, 1.002)], 5e-4),
        ("sonar", [(0.0, 0.0, 1.0), (0.003, 0.0, 1.0),
                   (0.001, -0.002, 1.002)], 5e-4),
    ], ids=("transversal", "parabolic", "sonar"))
    def test_reconstruction_converged_in_azimuths(self, kind, pts, tol):
        # doubling every ring's azimuths (widest ring 48) moves the default
        # reconstruction by far less than its own error
        if kind == "transversal":
            data = hr.transversal_field(gaussian_field(3))
        else:
            bump = hr.make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4,
                                      domain="half" if kind == "sonar" else "full")
            data = (hr.sonar_profile if kind == "sonar" else hr.parabolic_field)(bump)
        base = hr.ReconstructionConfig.for_dimension(3)
        got = hr.reconstruct(kind, data, pts, method="laplacian_power", cfg=base)
        wide = hr.reconstruct(kind, data, pts, method="laplacian_power",
                              cfg=base.with_(bp_angular_nodes=48))
        np.testing.assert_allclose(got, wide, rtol=tol, atol=0)

    # Frozen values on 32 polar rings, computed with this test's data and
    # points as hr.reconstruct(kind, data, pts, method="laplacian_power",
    # cfg=hr.ReconstructionConfig.for_dimension(3).with_(
    # g_spec=hr.QuadratureSpec(m=32))). 64 rings make no better reference:
    # their steepest ring (|z|^2 = 2.1e6) moves the parabolic value 2.7e-5
    # and the transversal ones 1.1e-8 off these.
    _RINGS_32 = {
        "transversal": (0.9999833328468293, 0.913915951605219, 0.818718198963449,
                        0.829017028945907, 0.81057505994365),
        "parabolic": (0.3678016329449754,),
        "sonar": (0.36783130632542366,),
    }

    @pytest.mark.parametrize("kind,tol", [
        ("transversal", 1e-8), ("parabolic", 5e-6), ("sonar", 5e-6)],
        ids=("transversal", "parabolic", "sonar"))
    def test_reconstruction_converged_in_rings(self, kind, tol):
        # the default grid's direction rule has converged: its values lie
        # within tol of 32 rings. Closed-form transversal data at criterion
        # 10's points; bump data from m = 160 charts at the benchmark's first
        # point (seed 1), so that the m = 80 data's error, which the rings'
        # c^2 amplifies, does not hide the rule's own
        if kind == "transversal":
            data = hr.ScalarField(3, transversal_gaussian_3d)
            pts = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, -0.4, 0.2),
                   (0.25, 0.25, -0.25), (-0.2, 0.1, 0.4)]
        else:
            bump = hr.make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4,
                                      domain="half" if kind == "sonar" else "full")
            data = (hr.sonar_profile if kind == "sonar" else hr.parabolic_field)(
                bump, hr.QuadratureSpec(m=160))
            pts = [(-0.002498139202885086, -0.0003860931125854998, 0.9966271136889562)]
        got = hr.reconstruct(kind, data, pts, method="laplacian_power")
        np.testing.assert_allclose(got, self._RINGS_32[kind], rtol=tol, atol=0)

    def test_closed_form_data_3d(self):
        # with exact data only the backprojection rule and the difference in
        # s are left: error h^2/12 of the fourth derivative, so halving h
        # divides it by 4; criterion 10's points
        pts = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, -0.4, 0.2),
               (0.25, 0.25, -0.25), (-0.2, 0.1, 0.4)]
        data = hr.ScalarField(3, transversal_gaussian_3d)
        want = np.exp(-np.sum(np.asarray(pts) ** 2, axis=1))
        base = hr.ReconstructionConfig.for_dimension(3)
        errs = []
        for h in (0.02, 0.01):
            got = hr.reconstruct("transversal", data, pts,
                                 method="laplacian_power",
                                 cfg=base.with_(stencil_h=h))
            errs.append(float(np.max(np.abs(got - want) / want)))
        assert errs[0] <= 1e-4
        assert 3.9 <= errs[0] / errs[1] <= 4.1

    @pytest.mark.parametrize("kind", ["parabolic", "sonar"])
    def test_bump_error_falls_when_h_halves(self, kind):
        # at the benchmark's first point (seed 1) on the default grid, the
        # data is accurate enough that the stencil's h^2 term leads: halving
        # h lowers the error. On 48 rings, with the charts' arcs on a floor
        # of ceil(2m/5) angle nodes, it rose (parabolic 1.67e-4 to 2.89e-4,
        # sonar 1.89e-4 to 2.35e-4): the data error cancelled part of it
        x = (-0.002498139202885086, -0.0003860931125854998, 0.9966271136889562)
        bump = hr.make_test_field("bump", 3, (0.0, 0.0, 1.0), 0.4,
                                  domain="half" if kind == "sonar" else "full")
        data = (hr.sonar_profile if kind == "sonar" else hr.parabolic_field)(bump)
        want = bump.eval_array(np.array([x]))[0]
        base = hr.ReconstructionConfig.for_dimension(3)
        errs = [abs(hr.reconstruct(kind, data, [x], method="laplacian_power",
                                   cfg=base.with_(stencil_h=h))[0] / want - 1)
                for h in (0.02, 0.01)]
        assert errs[1] < errs[0], errs


# ---------------------------------------------------------------------------
# the 2-D half power inside the backprojection
# ---------------------------------------------------------------------------

PTS9 = [(a, b) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)]
PTS11 = [(0.0, 1.0), (0.15, 1.0), (-0.1, 1.1), (0.05, 0.85), (0.12, 1.18)]


def counting_data(kind, reads):
    """2-D data of the given kind that records how many values it is asked
    for."""
    if kind == "sonar":
        def prof(XP, R):
            reads.append(R.size)
            return np.exp(-R ** 2)

        return hr.SphereProfile(2, prof)

    def psi(p):
        reads.append(p.shape[0])
        a = 1.0 + p[:, 0] ** 2
        return a ** -0.5 * np.exp(-p[:, 1] ** 2 / a)

    return hr.ScalarField(2, psi)


class TestHalfPowerInBackprojection:
    @pytest.mark.parametrize("kind,pts", [
        ("transversal", [(0.1, 0.2), (-0.3, 0.5)]),
        ("parabolic", [(0.1, 0.2), (-0.3, 0.5)]),
        # high enough that no sonar read falls at a radius^2 <= 0, where the
        # profile is not read
        ("sonar", [(0.0, 9.0), (0.5, 9.5)]),
    ])
    def test_reads_per_point(self, kind, pts):
        # (-Delta)^(1/2) g is a 1-D hypersingular integral of the data in its
        # intercept: 1 + 2 x 48 reads for each of the 96 directions, not 801
        # reads of a 96-direction g (76,896)
        reads = []
        hr.reconstruct(kind, counting_data(kind, reads), pts)
        assert sum(reads) == len(pts) * 96 * (1 + 2 * 48)

    def test_non_finite_data_names_slope_and_output_point(self):
        # NaN only far out in the intercept at one slope: the 1-D integral
        # reaches it from the output point itself
        Z, _ = _slope_grid(2, 96, math.inf, 24)
        u0 = 2.0 * float(Z[5, 0])
        s0 = -0.1 - u0 * 0.3                        # intercept at (0.3, -0.1)

        def psi(p):
            vals = np.exp(-p[:, 1] ** 2)
            return np.where((p[:, 0] == u0) & (np.abs(p[:, 1] - s0) > 3.0),
                            np.nan, vals)

        data = hr.ScalarField(2, psi)
        with pytest.raises(QuadratureError,
                           match=r"slope .* point \(0\.3, -0\.1\)") as ei:
            hr.invert("transversal", data, (0.3, -0.1))
        assert ei.value.node == (u0,)

    @pytest.mark.parametrize("kind,x", [
        ("parabolic", (0.3, -0.1)),   # data read about z = (0.3, -0.01)
        ("sonar", (0.3, 0.5)),        # data read about z = (0.3, 0.34)
    ])
    def test_non_finite_data_names_output_point(self, kind, x):
        # NaN at every slope beyond 1: the error names the point the caller
        # asked for, not the point z the data is read about
        if kind == "sonar":
            data = hr.SphereProfile(2, lambda XP, R: np.where(
                np.abs(XP[:, 0]) > 1.0, np.nan, np.exp(-R ** 2)))
        else:
            data = hr.ScalarField(2, lambda p: np.where(
                np.abs(p[:, 0]) > 1.0, np.nan, np.exp(-p[:, 1] ** 2)))
        with pytest.raises(QuadratureError,
                           match=rf"slope .* point \({x[0]}, {x[1]}\)$") as ei:
            hr.invert(kind, data, x)
        assert abs(ei.value.node[0]) > 1.0
        # the slope of the caller's data, z, not the u = 2z it is read at
        assert ei.value.node[0] in _slope_grid(2, 96, math.inf, 24)[0][:, 0]

    def test_gaussian_far_from_its_centre(self):
        # the 1-D integral reaches T = 8 intercept widths, so no far-field
        # model of g enters: closed form exp(-|x|^2) to 1e-5 absolute
        g2 = gaussian_field(2)
        pts = [(3.0, 0.0), (6.0, 0.0)]
        got = hr.reconstruct("transversal", hr.transversal_field(g2), pts)
        want = np.exp(-np.sum(np.asarray(pts) ** 2, axis=1))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kind,pts,tol", [
        # the g route's own default errors: 4.3e-8 at criterion 9's points,
        # 4.0e-5 (parabolic) and 3.7e-5 (sonar) at criterion 11's
        ("transversal", PTS9, 5e-8),
        ("parabolic", PTS11, 5e-5),
        ("sonar", PTS11, 5e-5),
    ])
    def test_agrees_with_hypersingular_integral_of_g(self, kind, pts, tol):
        if kind == "transversal":
            data = hr.transversal_field(gaussian_field(2))
        else:
            bump = hr.make_test_field("bump", 2, (0.0, 1.0), 0.4,
                                      domain="half" if kind == "sonar" else "full")
            data = (hr.sonar_profile if kind == "sonar" else hr.parabolic_field)(bump)
        cfg = hr.ReconstructionConfig.for_dimension(2)
        g = hr.backprojection_field(kind, data, cfg)
        # g's half power at z = x, (x', x_n + |x'|^2), or (x', x_n^2 + |x'|^2)
        # times x_n for the three kinds
        P = np.asarray(pts)
        Z, mult = P.copy(), np.ones(len(pts))
        if kind == "parabolic":
            Z[:, 1] += P[:, 0] ** 2
        elif kind == "sonar":
            Z[:, 1] = P[:, 1] ** 2 + P[:, 0] ** 2
            mult = P[:, 1]
        old = mult * np.array([hr.hypersingular_apply(g, z, cfg)
                               for z in Z]) / (2 * math.pi)
        new = hr.reconstruct(kind, data, pts)
        np.testing.assert_allclose(new, old, rtol=tol, atol=0)


class TestBatchedReconstruct:
    @pytest.mark.parametrize("kind", ["transversal", "parabolic", "sonar"])
    def test_2d_batch_matches_invert(self, kind):
        reads = []
        data = counting_data(kind, reads)
        pts = [(0.3, 0.9), (-0.2, 1.4), (0.0, 0.5), (0.45, 1.1)]
        vals = hr.reconstruct(kind, data, pts)
        # one batch of data reads for all four points
        assert len(reads) == 1
        for p, v in zip(pts, vals):
            assert v == pytest.approx(hr.invert(kind, data, p), rel=1e-13)

    @pytest.mark.parametrize("kind", ["transversal", "parabolic"])
    def test_3d_batch_matches_invert(self, kind):
        data = hr.ScalarField(3, transversal_gaussian_3d)
        pts = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, -0.4, 0.2)]
        vals = hr.reconstruct(kind, data, pts, method="laplacian_power")
        for p, v in zip(pts, vals):
            assert v == pytest.approx(
                hr.invert(kind, data, p, method="laplacian_power"), rel=1e-13)


# ---------------------------------------------------------------------------
# the singular integral and its constants
# ---------------------------------------------------------------------------

class TestHypersingular:
    def test_halfpower_of_gaussian(self):
        # integral of (g(x) - g(x-y)) |y|^(-3) over R^2 at x = 0 equals
        # 2 pi sqrt(pi) for g = exp(-|y|^2); dividing by the first-order
        # constant leaves sqrt(pi)
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(exponent=3.0)
        val = hr.hypersingular_apply(gaussian_field(2), (0.0, 0.0), cfg)
        got = val / hr.hypersingular_constant(2, 1)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    @pytest.mark.parametrize("ell,tol", [(3, 5e-4), (4, 2e-3)])
    def test_full_power_3d_both_orders(self, ell, tol):
        # with exponent 2n-1 the normalized integral realizes the negative
        # Laplacian in n = 3: value 2n at the peak of exp(-|x|^2), for any
        # admissible difference order
        cfg = hr.ReconstructionConfig.for_dimension(3).with_(
            ell=ell, exponent=5.0)
        val = hr.hypersingular_apply(gaussian_field(3), (0.0, 0.0, 0.0), cfg)
        got = val / hr.hypersingular_constant(3, ell)
        assert got == pytest.approx(6.0, rel=tol)

    def test_closed_form_backprojection_2d(self):
        # g ~ M/|x| with M = 1/2 far out: the modelled tail leaves the layer
        # exact to 1e-6 at criterion 9's points
        g = gaussian_backprojection(2)
        cfg = hr.ReconstructionConfig.for_dimension(2)
        for x in [(a, b) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)]:
            got = hr.hypersingular_apply(g, x, cfg) / hr.hypersingular_constant(2, 1)
            assert got == pytest.approx(math.exp(-x[0] ** 2 - x[1] ** 2), rel=1e-6)

    def test_closed_form_backprojection_3d(self):
        # the full power (exponent 5, ell = 3) of the 3-D g at criterion
        # 10's points
        g = gaussian_backprojection(3)
        cfg = hr.ReconstructionConfig.for_dimension(3)
        for x in [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, -0.4, 0.2),
                  (0.25, 0.25, -0.25), (-0.2, 0.1, 0.4)]:
            got = hr.hypersingular_apply(g, x, cfg) / hr.hypersingular_constant(3, 3)
            assert got == pytest.approx(math.exp(-sum(v * v for v in x)), rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, math.pi),
           st.floats(0.5, 1.5))
    def test_far_field_moment_3d(self, radius, azimuth, polar, scale):
        # sphere means of the 3-D g are exactly M/rho (Newton's theorem), so
        # the fitted M is the integral of f over sigma_3 = 4 pi
        c = radius * np.array([math.sin(polar) * math.cos(azimuth),
                               math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        fit = _far_field(gaussian_backprojection(3, c, scale), np.zeros(3))
        assert fit[0] == pytest.approx(scale ** 3 * math.sqrt(math.pi) / 4, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.5, 1.5))
    def test_far_field_moment_2d(self, radius, angle, scale):
        # ring means of the 2-D g are (M/rho)(1 + mu_2/(4 rho^2)
        # + 9 mu_4/(64 rho^4) + ...), mu_k the k-th moment of |a - x| over
        # the source; a two-radius fit at 8 and 16 leaves the first omitted
        # order, M_fit / M - 1 = -(9/64) mu_4 / (8^2 16^2), within 25 %
        c = radius * np.array([math.cos(angle), math.sin(angle)])
        fit = _far_field(gaussian_backprojection(2, c, scale), np.zeros(2))
        M = scale ** 2 / 2
        mu4 = radius ** 4 + 4 * radius ** 2 * scale ** 2 + 2 * scale ** 4
        first = -9 / 64 * mu4 / (64 * 256)
        assert (fit[0] / M - 1) / first == pytest.approx(1.0, abs=0.25)

    @pytest.mark.parametrize("radius", [5.0, 12.0])
    def test_non_finite_g_names_offset_and_point(self, radius):
        # a NaN inside y_radius stops the integral itself, one between 8
        # and 16 the far-field fit
        def g(p):
            return np.where(np.hypot(p[:, 0], p[:, 1]) > radius, np.nan,
                            np.exp(-np.sum(p * p, axis=1)))

        cfg = hr.ReconstructionConfig.for_dimension(2)
        x = (0.3, -0.1)
        with pytest.raises(QuadratureError, match=r"point \(0\.3, -0\.1\)") as ei:
            hr.hypersingular_apply(hr.ScalarField(2, g), x, cfg)
        assert np.hypot(*np.add(x, ei.value.node)) > radius

    def test_exponent_must_exceed_dimension(self):
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(exponent=2.0)
        with pytest.raises(ConfigError, match="exceed"):
            hr.hypersingular_apply(gaussian_field(2), (0.0, 0.0), cfg)

    def test_first_order_constant_closed_form(self):
        # integral of (1 - cos y_1) |y|^(-3) over R^2
        assert hr.hypersingular_constant(2, 1) == pytest.approx(
            2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("n,ell,value", [
        (4, 3, -5.263789013914325),
        (5, 5, 0.9789066520515785),
        (5, 6, 0.31001246280347755),
        (6, 5, 2.099895986814001),
        (7, 7, -0.21598771897509889),
    ])
    def test_constants_match_radial_quadrature(self, n, ell, value):
        # frozen from an independent method: a Taylor piece near 0, Bessel
        # panels of the angular average of the ell-th difference out to
        # radius 20000, and the closed-form tail beyond
        assert hr.hypersingular_constant(n, ell) == pytest.approx(value, rel=1e-10)

    def test_constants_3d_frozen(self):
        assert hr.hypersingular_constant(3, 3) == pytest.approx(
            -3.2876650489104358, rel=1e-12)
        assert hr.hypersingular_constant(3, 4) == pytest.approx(
            -1.5368677140224123, rel=1e-12)

    @pytest.mark.parametrize("n,ell", [(2, 2), (2, 3), (3, 2), (3, 1)])
    def test_constant_parity_rules(self, n, ell):
        with pytest.raises(DomainError):
            hr.hypersingular_constant(n, ell)

    def test_constant_argument_validation(self):
        with pytest.raises(DomainError):
            hr.hypersingular_constant(1, 1)
        with pytest.raises(DomainError):
            hr.hypersingular_constant(2, 0)

    def test_halfpower_prefactor(self):
        assert hr.sqrt_laplacian_constant(2) == pytest.approx(
            1 / (2 * math.pi), rel=1e-12)
        assert hr.sqrt_laplacian_constant(3) == pytest.approx(
            1 / math.pi ** 2, rel=1e-12)
        with pytest.raises(DomainError):
            hr.sqrt_laplacian_constant(0)


# ---------------------------------------------------------------------------
# end-to-end inversion
# ---------------------------------------------------------------------------

class TestInvert:
    def setup_method(self):
        self.f = hr.make_test_field("gaussian", 2, (0.2, -0.3), 1.0)
        self.truth = lambda x: float(
            self.f.eval_array(np.asarray([x], dtype=float))[0])

    def test_transversal_roundtrip(self):
        data = hr.transversal_field(self.f)
        got = hr.invert("transversal", data, (0.3, -0.1))
        assert got == pytest.approx(self.truth((0.3, -0.1)), rel=2e-2)

    def test_parabolic_roundtrip(self):
        data = hr.parabolic_field(self.f)
        got = hr.invert("parabolic", data, (0.3, -0.1))
        assert got == pytest.approx(self.truth((0.3, -0.1)), rel=2e-2)

    def test_routes_coincide_in_2d(self):
        # for n = 2 no integer power of -Delta is left, so the stencil route
        # is the first-order singular integral itself: one code path
        data = hr.transversal_field(self.f)
        a = hr.invert("transversal", data, (0.3, -0.1), "hypersingular")
        b = hr.invert("transversal", data, (0.3, -0.1), "laplacian_power")
        assert a == b

    def test_routes_coincide_in_3d(self):
        # for odd n the normalized hypersingular integral is the integer
        # power of -Delta in the limit, so both methods run the difference
        # of the data in its intercept: one code path
        data = hr.ScalarField(3, transversal_gaussian_3d)
        a = hr.invert("transversal", data, (0.1, -0.05, 0.2), "hypersingular")
        b = hr.invert("transversal", data, (0.1, -0.05, 0.2), "laplacian_power")
        assert a == b

    @pytest.mark.parametrize("method", ["hypersingular", "laplacian_power"])
    def test_exponent_other_than_2n_minus_1_is_rejected(self, method):
        # the normalizer holds for the kernel power 2n-1 only; any other
        # power would return a wrong value
        data = hr.transversal_field(self.f)
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(exponent=4.0)
        with pytest.raises(ConfigError, match="exponent"):
            hr.invert("transversal", data, (0.3, -0.1), method, cfg)
        with pytest.raises(ConfigError, match="exponent"):
            hr.reconstruct("transversal", data, [(0.3, -0.1)], method, cfg)
        ok = cfg.with_(exponent=3.0)
        assert hr.invert("transversal", data, (0.3, -0.1), method, ok) == \
            hr.invert("transversal", data, (0.3, -0.1), method)

    def test_reconstruct_matches_invert(self):
        data = hr.transversal_field(self.f)
        pts = [(0.3, -0.1), (0.0, 0.4)]
        vals = hr.reconstruct("transversal", data, pts)
        assert vals.shape == (2,)
        assert vals[0] == hr.invert("transversal", data, pts[0])

    def test_sonar_target_must_be_interior(self):
        prof = hr.sonar_profile(
            hr.make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half"))
        with pytest.raises(DomainError, match="x_n > 0"):
            hr.invert("sonar", prof, (0.0, -1.0))

    def test_sonar_target_must_not_be_nan(self):
        prof = hr.sonar_profile(
            hr.make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half"))
        with pytest.raises(DomainError, match="got x_n = nan"):
            hr.reconstruct("sonar", prof, [(0.0, 0.5), (0.0, math.nan)])

    @pytest.mark.parametrize("kind,x", [
        ("transversal", (math.nan, 0.1)),
        ("parabolic", (math.nan, 0.1)),
        ("transversal", (math.inf, 0.1)),
        ("sonar", (math.nan, 0.5)),
    ])
    def test_non_finite_point_is_refused(self, kind, x):
        data = {"transversal": lambda: hr.transversal_field(self.f),
                "parabolic": lambda: hr.parabolic_field(self.f),
                "sonar": lambda: hr.sonar_profile(hr.make_test_field(
                    "bump", 2, (0.0, 1.0), 0.4, domain="half"))}[kind]()
        with pytest.raises(DomainError, match=rf"non-finite point \({x[0]}, {x[1]}\)"):
            hr.reconstruct(kind, data, [(0.0, 0.5), x])

    def test_unknown_method(self):
        data = hr.transversal_field(self.f)
        with pytest.raises(ConfigError, match="method"):
            hr.invert("transversal", data, (0.0, 0.0), "fourier")

    def test_difference_order_parity_enforced(self):
        data = hr.transversal_field(self.f)
        cfg = hr.ReconstructionConfig.for_dimension(2).with_(ell=2)
        with pytest.raises(DomainError, match="ell"):
            hr.invert("transversal", data, (0.0, 0.0), cfg=cfg)


def test_library_needs_no_scipy():
    # scipy is a test dependency only: with it blocked, the package imports,
    # reconstructs from sonar data and evaluates the normalizer
    code = textwrap.dedent("""
        import math, sys
        sys.modules["scipy"] = None
        import hemiradon as hr
        bump = hr.make_test_field("bump", 2, (0.0, 1.0), 0.4, domain="half")
        val = hr.reconstruct("sonar", hr.sonar_profile(bump), [(0.0, 1.0)])[0]
        assert abs(val - math.exp(-1.0)) < 1e-3, val
        assert abs(hr.hypersingular_constant(2, 1) - 2 * math.pi) < 1e-12
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
