"""Quadrature engine tests: rules, node counts and windowed sums."""

import math

import numpy as np
import pytest

import hemiradon as hr
import hemiradon.quadrature as q
from hemiradon.errors import QuadratureError
from hemiradon.fields import ScalarField
from hemiradon.quadrature import (
    QuadratureSpec,
    _windowed_sums,
    gauss_rule,
    line_rule,
    octave_edges,
    sphere_nodes,
    tier_counts,
)


def test_gauss_rule_polynomial_exactness():
    # degree 2m-1 exactness on [-1, 1]
    for m in (2, 5, 12):
        x, w = gauss_rule(m)
        assert x.shape == w.shape == (m,)
        for k in range(2 * m):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(w, x ** k) == pytest.approx(exact, abs=1e-13)


def test_gauss_rule_cached_identity():
    a = gauss_rule(31)
    b = gauss_rule(31)
    assert a[0] is b[0] and a[1] is b[1]


def test_line_rule_gauss_cubic():
    x, w = line_rule(0.0, 2.0, 6)
    assert np.dot(w, x ** 3) == pytest.approx(4.0, abs=1e-13)


def test_octave_edges_structure():
    np.testing.assert_allclose(octave_edges(1.0, 10.0), [1.0, 2.0, 4.0, 8.0, 10.0])
    np.testing.assert_allclose(octave_edges(3.0, 4.0), [3.0, 4.0])
    with pytest.raises(QuadratureError):
        octave_edges(0.0, 5.0)
    with pytest.raises(QuadratureError):
        octave_edges(5.0, 5.0)


def test_spec_validation():
    with pytest.raises(QuadratureError):
        QuadratureSpec(m=1)


def test_spec_for_dimension_defaults():
    assert QuadratureSpec.for_dimension(2).m == 200
    assert QuadratureSpec.for_dimension(3).m == 80
    assert QuadratureSpec.for_dimension(3, m=64).m == 64


def test_windowed_sums_polynomial_exactness():
    """Each row integrates its own window, in one and in two dimensions."""
    lo = np.array([[0.0], [-1.0], [2.0], [5.0]])
    hi = np.array([[1.0], [1.0], [2.0], [15.0]])
    got = _windowed_sums(lo, hi, tier_counts(lo, hi, 64, 10.0),
                         lambda idx, x: x[0] ** 5 + 1.0)
    exact = (hi[:, 0] ** 6 - lo[:, 0] ** 6) / 6.0 + (hi[:, 0] - lo[:, 0])
    np.testing.assert_allclose(got[[0, 1, 3]], exact[[0, 1, 3]], rtol=1e-12)
    # the hi <= lo row sums to zero
    assert got[2] == 0.0

    lo = np.array([[0.0, -1.0], [-2.0, 0.5], [1.0, 1.0], [0.0, 0.0]])
    hi = np.array([[1.0, 2.0], [6.0, 9.5], [3.0, 1.0], [0.0, 4.0]])
    counts = tier_counts(lo, hi, 64, 10.0, min_nodes=8)
    assert len({tuple(c) for c in counts[:2]}) == 2      # two groups
    got = _windowed_sums(lo, hi, counts, lambda idx, x: x[0] ** 2 * x[1] ** 3)
    exact = (hi[:, 0] ** 3 - lo[:, 0] ** 3) / 3.0 * (hi[:, 1] ** 4 - lo[:, 1] ** 4) / 4.0
    np.testing.assert_allclose(got[:2], exact[:2], rtol=1e-12)
    assert list(got[2:]) == [0.0, 0.0]


def test_windowed_sums_empty_windows():
    def never(idx, x):
        raise AssertionError("no row to integrate")

    lo = np.array([[1.0, 0.0], [0.0, 0.0]])
    hi = np.array([[1.0, 1.0], [1.0, -1.0]])
    out = _windowed_sums(lo, hi, tier_counts(lo, hi, 64, 10.0), never)
    assert list(out) == [0.0, 0.0]
    assert _windowed_sums(np.zeros((0, 1)), np.zeros((0, 1)),
                          np.zeros((0, 1), dtype=int), never).shape == (0,)


def test_windowed_sums_periodic_axis_uses_midpoint_rule():
    # cos(m t) at the m midpoints (j + 1/2) 2 pi / m reads -1 everywhere, so
    # the midpoint rule returns -2 pi; Gauss-Legendre, used for the same
    # counts on the non-periodic row, does not
    m = 16
    lo = np.array([[0.0, 0.0], [0.0, 0.0]])
    hi = np.array([[1.0, 2 * np.pi], [1.0, 2 * np.pi]])
    counts = np.array([[8, m], [8, m]])
    seen = {}

    def integrand(idx, x):
        # copies: the node arrays are workspace buffers, refilled by the
        # next batch
        seen.update((int(i), x[1][r].ravel().copy()) for r, i in enumerate(idx))
        return np.cos(m * x[1]) * np.ones_like(x[0])

    got = _windowed_sums(lo, hi, counts, integrand, np.array([True, False]))
    assert got[0] == pytest.approx(-2 * np.pi, rel=1e-12)
    assert abs(got[1] + 2 * np.pi) > 1.0
    np.testing.assert_allclose(seen[0], (np.arange(m) + 0.5) * (2 * np.pi / m), rtol=1e-15)


def test_windowed_sums_node_cap_is_transparent(monkeypatch):
    rng = np.random.default_rng(3)
    lo = rng.uniform(-2.0, 0.0, size=(40, 2))
    hi = lo + rng.uniform(0.1, 10.0, size=(40, 2))
    counts = tier_counts(lo, hi, 32, 10.0, min_nodes=4)
    batches = []

    def integrand(idx, x):
        batches.append((len(idx), x[0].shape[1] * x[1].shape[2]))
        return np.exp(-x[0] ** 2) * np.cos(x[1])

    direct = _windowed_sums(lo, hi, counts, integrand)
    assert max(b * per_row for b, per_row in batches) > 64
    batches.clear()
    monkeypatch.setattr(q, "_NODE_CAP", 64)
    capped = _windowed_sums(lo, hi, counts, integrand)
    np.testing.assert_array_equal(capped, direct)
    # a batch exceeds the cap only when one row alone does
    assert all(b * per_row <= 64 or b == 1 for b, per_row in batches)
    assert sum(b for b, _ in batches) == 40


def test_windowed_sums_groups_one_axis_rows_in_row_order(monkeypatch):
    # interleaved 1-axis rows of several counts, periodic and not, some
    # empty: each batch holds rows of one group only, each group's batches
    # run through its rows in row order, and batching at cap 64 gives the
    # bits of the default batches
    rng = np.random.default_rng(7)
    M = 90
    lo = rng.uniform(-1.0, 1.0, size=(M, 1))
    hi = lo + rng.uniform(0.1, 4.0, size=(M, 1))
    hi[::11] = lo[::11]
    counts = rng.choice([4, 8, 16, 32], size=(M, 1))
    periodic = rng.uniform(size=M) < 0.4
    batches = []

    def integrand(idx, x):
        batches.append(idx.copy())
        return np.cos(3.0 * x[0]) + x[0] ** 2

    direct = _windowed_sums(lo, hi, counts, integrand, periodic)
    assert len(batches) < M
    batches.clear()
    monkeypatch.setattr(q, "_NODE_CAP", 64)
    capped = _windowed_sums(lo, hi, counts, integrand, periodic)
    np.testing.assert_array_equal(capped, direct)
    assert max(len(idx) for idx in batches) > 1
    groups = {}
    for idx in batches:
        keys = {(int(counts[i, 0]), bool(periodic[i])) for i in idx}
        assert len(keys) == 1
        groups.setdefault(keys.pop(), []).extend(idx.tolist())
    for (m, per), rows in groups.items():
        want = np.flatnonzero((counts[:, 0] == m) & (periodic == per) & (hi[:, 0] > lo[:, 0]))
        assert rows == want.tolist()
    # the empty rows sum to 0, the rest to their own integrals
    assert np.all(direct[::11] == 0.0)
    for i in (1, 2, 3):
        alone = _windowed_sums(lo[i:i + 1], hi[i:i + 1], counts[i:i + 1], integrand,
                               periodic[i:i + 1])
        assert alone[0] == direct[i]


def _window_sizes(lo, hi, counts):
    """Node count the windowed kernel gives each row it integrates."""
    sizes = {}

    def integrand(idx, x):
        for i in idx:
            sizes[int(i)] = x[0].shape[1]
        return np.ones_like(x[0])

    _windowed_sums(lo[:, None], hi[:, None], counts[:, None], integrand)
    return sizes


def test_window_buckets_tier_quantization():
    lo = np.zeros(3)
    hi = np.array([0.1, 5.0, 10.0])
    sizes = _window_sizes(lo, hi, tier_counts(lo, hi, 64, 10.0, min_nodes=8))
    # narrow window floors at min_nodes, counts grow as min_nodes * 2^j
    assert sizes[0] == 8
    assert sizes[1] in (32, 64)
    assert sizes[2] == 64
    # and stop at m_ref
    assert list(tier_counts(lo, hi, 64, 10.0, min_nodes=8)) == [8, 32, 64]


def test_tier_counts_matches_window_buckets_policy():
    lo = np.array([0.0, 0.0, 3.0])
    hi = np.array([10.0, 0.5, 3.0])
    counts = tier_counts(lo, hi, 64, 10.0, min_nodes=8)
    assert counts[0] == 64
    assert counts[1] == 8
    # an empty window gets the floor, and the kernel drops its row
    assert counts[2] == 8
    assert _window_sizes(lo, hi, counts) == {0: 64, 1: 8}


def test_sphere_nodes_measures():
    pts, w = sphere_nodes(1, 48)
    assert pts.shape == (48, 2)
    assert w.sum() == pytest.approx(2 * math.pi, rel=1e-13)
    pts, w = sphere_nodes(2, 24)
    assert pts.shape[1] == 3
    assert w.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    # coordinate second moment: area / (d + 1) by symmetry
    got = np.dot(w, pts[:, -1] ** 2)
    assert got == pytest.approx(4 * math.pi / 3, rel=1e-12)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# the kernel's workspace
# ---------------------------------------------------------------------------

def _nested_results():
    """Kernels nested three deep: a mixed norm of the transversal transform
    of a dilated bump, the sonar_via_transversal chain at (x', r) pairs, and
    a mixed norm of profile_to_field of a sonar profile."""
    spec = QuadratureSpec(m=48)
    bump = hr.make_test_field("bump", 2, (0.1, 0.9), 0.6)
    dilated = hr.apply(hr.OperatorId("axis_dilate", (1.3, 0.8)), bump)
    norm = hr.mixed_norm(hr.transversal_field(dilated, spec), 3.0, 3.0, spec=spec,
                         outer_box=((-3.0, 3.0),))
    half = hr.make_test_field("bump", 2, (0.1, 0.9), 0.5, domain="half")
    chain = hr.apply_chain(hr.CANONICAL_IDENTITIES["sonar_via_transversal"][1], half, spec)
    xp = np.linspace(-0.4, 0.5, 7)[:, None]
    r = np.linspace(0.6, 1.3, 7)
    field = hr.apply(hr.OperatorId("profile_to_field"), hr.sonar_profile(half, spec))
    norm_ptf = hr.mixed_norm(field, 3.0, 3.0, spec=spec, outer_box=((-2.0, 2.0),))
    return np.concatenate([[norm], chain.eval_array(xp, r), [norm_ptf]])


def test_nested_kernels_at_a_tiny_cap_give_the_default_bits(monkeypatch):
    # at cap 64 every level runs a batch per row, so the inner kernels mark
    # and release the workspace many times inside each outer batch; a buffer
    # of an outer level reused by an inner one would change the bits
    default = _nested_results()
    assert np.all(np.isfinite(default)) and np.all(default > 0)
    assert q._workspace.depth == 0 and q._workspace.top == 0
    assert q._workspace.buffers
    monkeypatch.setattr(q, "_NODE_CAP", 64)
    np.testing.assert_array_equal(_nested_results(), default)
    assert q._workspace.depth == 0 and q._workspace.top == 0


def test_workspace_is_released_when_the_integrand_raises():
    nan_inside = ScalarField(2, lambda pts: np.where(pts[:, 1] > 0.5, np.nan, 0.0),
                             box=((-1.0, 1.0), (0.0, 1.0)))
    # the transversal kernel raises inside the norm kernel's integrand
    spec = QuadratureSpec(m=16)
    with pytest.raises(QuadratureError):
        hr.mixed_norm(hr.transversal_field(nan_inside, spec), 3.0, 3.0, spec=spec,
                      outer_box=((-1.0, 1.0),))
    assert q._workspace.depth == 0 and q._workspace.top == 0


def test_top_level_values_outlive_later_batches():
    # outside any kernel batch the operators take fresh arrays, so values
    # handed to a caller are never a workspace buffer, even those of a field
    # that returns a view of the points it was handed
    projection = ScalarField(2, lambda pts: pts[:, 0])
    dilated = hr.apply(hr.OperatorId("axis_dilate", (2.0, 0.5)), projection)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5000, 2))
    vals = dilated.eval_array(pts)
    assert q._workspace.depth == 0 and q._workspace.top == 0
    kept = vals.copy()
    gauss = hr.make_test_field("gaussian", 2, (0.0, 0.5), 1.0)
    hr.transversal_field(hr.apply(hr.OperatorId("axis_dilate", (2.0, 0.5)), gauss)) \
        .eval_array(pts[:800])
    np.testing.assert_array_equal(vals, kept)
    assert not any(np.shares_memory(vals, buf) for buf in q._workspace.buffers)
