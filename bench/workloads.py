"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A pass is a fixed list of named operations, ``pass_ops(i)``. Each returns an
``Op``: its outputs (hashed so traced and untraced runs can be compared bit
for bit), whether it met its check, and its relative error against a closed
form when it has one. An operation that raises counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import hemiradon as hr
import reference as ref

KINDS = ("transversal", "parabolic", "sonar")


@dataclass
class Op:
    outputs: np.ndarray
    ok: bool
    rel_err: float | None = None


def _rng(seed: int, workload_id: int, stream: int):
    return np.random.default_rng([seed, workload_id, stream])


def _direction(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


class _Layers:
    """Wraps fields in tracing spans when a tracer is given."""

    def __init__(self, tracer):
        self.tracer = tracer

    def phantom(self, kind, f):
        return f if self.tracer is None else self.tracer.phantom(kind, f)

    def transform(self, kind, data):
        return data if self.tracer is None else self.tracer.transform(kind, data)

    def span(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)


class Reconstruction(_Layers):
    """One ``hr.reconstruct`` per kind per pass, at fresh seeded points.

    Points follow a fixed design with seeded offsets, so every pass meets
    about the same error and cost while no point repeats. Within 0.2 of the
    bump centre the error varies tenfold, and the worst of the few points one
    run can afford would spread more than any bound on ``max_rel_err``:
    * transversal: |x| in [0.49, 0.5] in a uniform direction (the Gaussian
      and its error are radial, and the 2-D error peaks at the rim);
    * parabolic and sonar, the same point for both: the bump centre plus a
      uniform offset of length at most 0.005, where the error is flattest.
    """

    def __init__(self, n, workload_id, seed, tracer=None):
        super().__init__(tracer)
        self.n, self.id, self.seed = n, workload_id, seed
        self.method = "hypersingular" if n == 2 else "laplacian_power"
        self.center = ref.bump_center(n)
        gauss = hr.make_test_field("gaussian", n, (0.0,) * n, 1.0)
        bump_full = hr.make_test_field("bump", n, self.center, ref.BUMP_SCALE)
        bump_half = hr.make_test_field("bump", n, self.center, ref.BUMP_SCALE, domain="half")
        self.data = {
            "transversal": hr.transversal_field(self.phantom("transversal", gauss)),
            "parabolic": hr.parabolic_field(self.phantom("parabolic", bump_full)),
            "sonar": hr.sonar_profile(self.phantom("sonar", bump_half)),
        }
        self.data = {k: self.transform(k, d) for k, d in self.data.items()}
        self.reconstruct = {k: self.span(f"inversion.{k}", hr.reconstruct) for k in KINDS}
        self.exact_g = hr.ScalarField(n, ref.backprojection_gaussian)

    def points(self, stream):
        rng = _rng(self.seed, self.id, stream)
        n = self.n
        x_t = rng.uniform(0.49, 0.5) * _direction(rng, n)
        x_b = self.center + 0.005 * rng.uniform() ** (1.0 / n) * _direction(rng, n)
        return {"transversal": x_t, "parabolic": x_b, "sonar": x_b}

    def warm_up(self):
        """One backprojection per kind on a coarse slope grid, and one
        Laplacian layer, at points no pass uses: every code path of a pass
        runs once, for a fraction of a pass's cost."""
        cfg = hr.ReconstructionConfig.for_dimension(self.n).with_(
            bp_stop=16.0, bp_angular_nodes=4, g_spec=hr.QuadratureSpec(m=16))
        pts = self.points(0)
        for kind, x in pts.items():
            hr.backprojection(kind, self.data[kind], x, cfg=cfg)
        self._laplacian_layer(self.exact_g, pts["transversal"])

    def pass_ops(self, i):
        return [(f"reconstruct.{kind}", lambda k=kind, x=x: self._reconstruct(k, x))
                for kind, x in self.points(i + 1).items()]

    def _reconstruct(self, kind, x):
        val = self.reconstruct[kind](kind, self.data[kind], [tuple(x)], method=self.method)
        want = ref.gaussian(x[None]) if kind == "transversal" else ref.bump(x[None], self.center)
        err = float(abs(val[0] - want[0]) / abs(want[0]))
        return Op(np.asarray(val), math.isfinite(err) and err <= ref.RECON_BAR[kind], err)

    def _laplacian_layer(self, g, x):
        """The step of ``reconstruct`` after backprojection, on its own: the
        hypersingular integral in 2-D, the stencil in 3-D."""
        cfg = hr.ReconstructionConfig.for_dimension(self.n)
        if self.n == 2:
            return hr.hypersingular_apply(g, x, cfg.with_(exponent=2.0 * self.n - 1.0)) \
                / hr.hypersingular_constant(self.n, cfg.ell)
        return hr.laplacian_power(g, x, (self.n - 1) // 2, cfg.stencil_h)

    def layer_errors(self, tracer, passes):
        """inversion.bp_max_rel_err over the backprojection reads the trace
        recorded, and inversion.lap_rel_err of the Laplacian layer applied to
        the exact g at the transversal points of the first ``passes`` passes."""
        bp_err = 0.0
        for pts, vals in tracer.bp_reads:
            want = ref.backprojection_gaussian(pts)
            bp_err = max(bp_err, float(np.max(np.abs(vals - want) / want)))
        lap_err = 0.0
        for i in range(passes):
            x = self.points(i + 1)["transversal"]
            want = float(ref.gaussian(x[None])[0])
            lap_err = max(lap_err, abs(self._laplacian_layer(self.exact_g, x) - want) / want)
        return bp_err, lap_err


class Estimates(_Layers):
    """The norm side of the paper, with no inversion.

    Per pass: four ``hr.scaling_scan`` runs in 2-D (each transform at the
    admissible triple (1.5, 3, 3), and the transversal transform at the
    inadmissible (1.2, 3, 3)) over seven fresh dilations lam = 2^u,
    u uniform in [-3, 3]; the three ``CANONICAL_IDENTITIES`` at nine fresh
    points each; and forward transversal values of the Gaussian at fresh
    (u, t), |u_i| <= 2 and |t| <= 1.5, 400 in 2-D and 250 in 3-D.
    """

    SCANS = (("transversal", (1.5, 3.0, 3.0)), ("transversal", (1.2, 3.0, 3.0)),
             ("parabolic", (1.5, 3.0, 3.0)), ("sonar", (1.5, 3.0, 3.0)))
    DILATIONS = 7
    IDENTITY_POINTS = 9
    FORWARD_POINTS = {2: 400, 3: 250}

    def __init__(self, workload_id, seed, tracer=None):
        super().__init__(tracer)
        self.id, self.seed = workload_id, seed
        c = ref.bump_center(2)
        self.base = {
            "transversal": self.phantom("transversal", hr.make_test_field("gaussian", 2, (0.0, 0.0), 1.0)),
            "parabolic": self.phantom("parabolic", hr.make_test_field("bump", 2, c, ref.BUMP_SCALE)),
            "sonar": self.phantom("sonar", hr.make_test_field("bump", 2, c, ref.BUMP_SCALE, domain="half")),
        }
        # criterion 2's field for the parabolic identity; the sonar
        # identities read the half-space bump
        self.shifted = self.phantom("parabolic", hr.make_test_field("gaussian", 2, (0.2, -0.3), 1.0))
        self.forward = {
            n: self.transform("transversal", hr.transversal_field(
                self.phantom("transversal", hr.make_test_field("gaussian", n, (0.0,) * n, 1.0))))
            for n in (2, 3)}

    def inputs(self, stream):
        rng = _rng(self.seed, self.id, stream)
        lams = [np.sort(2.0 ** rng.uniform(-3.0, 3.0, size=self.DILATIONS)) for _ in self.SCANS]
        m = self.IDENTITY_POINTS
        plane = np.column_stack([rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, m)])
        pairs = np.column_stack([rng.uniform(-0.2, 0.2, m), rng.uniform(0.8, 1.2, m)])
        fwd = {}
        for n, count in self.FORWARD_POINTS.items():
            fwd[n] = np.column_stack([rng.uniform(-2.0, 2.0, (count, n - 1)),
                                      rng.uniform(-1.5, 1.5, count)])
        return lams, plane, pairs, fwd

    def warm_up(self):
        """Every path of a pass, on smaller inputs no pass uses."""
        lams, plane, pairs, fwd = self.inputs(0)
        for (kind, trip), lam in zip(self.SCANS, lams):
            hr.scaling_scan(kind, *trip, 2, self._path(kind, lam[:2]), self.base[kind])
        for name in hr.CANONICAL_IDENTITIES:
            self._identity(name, self._identity_points(name, plane, pairs)[:2])
        for n, X in fwd.items():
            self.forward[n].eval_array(X[:2])

    @staticmethod
    def _path(kind, lam):
        return [(float(v), float(v) ** 2) if kind == "parabolic" else (float(v), float(v)) for v in lam]

    def _identity_field(self, name):
        return self.shifted if name == "parabolic_via_transversal" else self.base["sonar"]

    @staticmethod
    def _identity_points(name, plane, pairs):
        """(x', r) pairs for the sonar identities, plane points otherwise."""
        return pairs if name.startswith("sonar") else plane

    def pass_ops(self, i):
        lams, plane, pairs, fwd = self.inputs(i + 1)
        ops = [(f"scan.{kind}.p{trip[0]}", lambda k=kind, t=trip, lam=lam: self._scan(k, t, lam))
               for (kind, trip), lam in zip(self.SCANS, lams)]
        ops += [(f"identity.{name}",
                 lambda name=name: self._identity(name, self._identity_points(name, plane, pairs)))
                for name in hr.CANONICAL_IDENTITIES]
        ops += [(f"forward.transversal.{n}d", lambda n=n, X=X: self._forward(n, X))
                for n, X in fwd.items()]
        return ops

    def _scan(self, kind, trip, lam):
        entries = hr.scaling_scan(kind, *trip, 2, self._path(kind, lam), self.base[kind])
        ratios = np.array([e.ratio for e in entries])
        norms = np.array([[e.output_norm, e.input_norm] for e in entries]).ravel()
        scaled = ratios / lam ** ref.scan_exponent(kind, *trip, 2)
        dev = float(np.max(np.abs(scaled / scaled[0] - 1.0)))
        ok = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0)) and dev <= ref.EXACT_BAR
        return Op(np.concatenate([ratios, norms]), ok, dev)

    def _identity(self, name, pts):
        rep = hr.verify_identity(*hr.CANONICAL_IDENTITIES[name], self._identity_field(name), pts)
        ok = math.isfinite(rep.max_rel_err) and rep.max_rel_err <= ref.EXACT_BAR
        return Op(np.array([rep.max_abs_err, rep.max_rel_err]), ok)

    def _forward(self, n, X):
        vals = self.forward[n].eval_array(X)
        want = ref.transversal_gaussian(X)
        err = float(np.max(np.abs(vals - want) / want))
        return Op(vals, math.isfinite(err) and err <= ref.EXACT_BAR, err)


WORKLOADS = {
    "recon2d": lambda seed, tracer: Reconstruction(2, 2, seed, tracer),
    "recon3d": lambda seed, tracer: Reconstruction(3, 3, seed, tracer),
    "estimates": lambda seed, tracer: Estimates(5, seed, tracer),
}
