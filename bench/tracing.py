"""Counting and timing wrappers at hemiradon's layer boundaries.

The library is measured from outside. A wrapper sits at each boundary:

* the phantom fields and the transform fields or profiles the benchmark
  builds and passes in;
* the transform builders that ``norms.scaling_scan`` and
  ``operators.apply_chain`` call, so the fields they build are wrapped too;
* the field that ``inversion.backprojection_field`` returns;
* ``norms.mixed_norm`` and ``norms.lp_norm``.

Every wrapper calls the wrapped function with the same arguments and returns
its result unchanged, so a traced run computes the same bits as an untraced
one. A span's self time is its duration minus the time of the spans it
directly encloses.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import hemiradon as hr
from hemiradon import inversion, norms, operators

_BUILDERS = (("transversal", "transversal_field"),
             ("parabolic", "parabolic_field"),
             ("sonar", "sonar_profile"))


class Tracer:
    """Spans and counts, recorded only while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.total = defaultdict(float)    # span name -> seconds
        self.child = defaultdict(float)    # span name -> seconds in direct child spans
        self.rows = defaultdict(int)       # (span name, enclosing span name) -> rows
        self.nonzero = defaultdict(int)    # phantom span name -> nonzero values
        self.bp_reads = []                 # (points, values) read from transversal g
        self._stack = []

    def wrap(self, name, fn, rows=None, after=None):
        """``fn`` timed as span ``name``; ``rows(args)`` counts its evaluations,
        one per call when not given."""

        def call(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.total[name] += dt
                if parent is not None:
                    self.child[parent] += dt
            self.rows[name, parent] += rows(args) if rows else 1
            if after is not None:
                after(args, out)
            return out

        return call

    def field(self, name, f, after=None):
        """A ScalarField evaluating ``f`` inside span ``name``."""
        return hr.ScalarField(f.n, self.wrap(name, f.eval_array, lambda a: len(a[0]), after),
                              f.domain, f.box, f.section_support)

    def profile(self, name, p):
        """A SphereProfile evaluating ``p`` inside span ``name``."""
        return hr.SphereProfile(p.n, self.wrap(name, p.eval_array, lambda a: len(a[1])),
                                p.xprime_box, p.r_support)

    def phantom(self, kind, f):
        name = f"fields.{kind}"

        def count_nonzero(args, out):
            self.nonzero[name] += int(np.count_nonzero(out))

        return self.field(name, f, count_nonzero)

    def transform(self, kind, data):
        name = f"transforms.{kind}"
        if isinstance(data, hr.SphereProfile):
            return self.profile(name, data)
        return self.field(name, data)

    def _record_bp(self, args, out):
        self.bp_reads.append((np.array(args[0], dtype=float), np.array(out)))

    def _backprojection_field(self, build):
        def traced(kind, data, *args, **kwargs):
            g = build(kind, data, *args, **kwargs)
            after = self._record_bp if kind == "transversal" else None
            return self.field(f"bp.{kind}", g, after)

        return traced

    def _builder(self, kind, build):
        def traced(*args, **kwargs):
            return self.transform(kind, build(*args, **kwargs))

        return traced

    @contextmanager
    def patched(self):
        """Wrap the library-internal boundaries for the duration of the block."""
        saved = []

        def swap(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        for module in (norms, operators):
            for kind, attr in _BUILDERS:
                swap(module, attr, self._builder(kind, getattr(module, attr)))
        for attr in ("mixed_norm", "lp_norm"):
            swap(norms, attr, self.wrap("norms", getattr(norms, attr)))
        swap(inversion, "backprojection_field",
             self._backprojection_field(inversion.backprojection_field))
        try:
            yield self
        finally:
            for module, attr, old in reversed(saved):
                setattr(module, attr, old)

    # -- per-layer metrics -------------------------------------------------

    def self_s(self, name) -> float:
        return self.total[name] - self.child[name]

    def rows_in(self, name) -> int:
        return sum(v for (n, _), v in self.rows.items() if n == name)

    def rows_under(self, layer, parent) -> int:
        """Rows of every span of ``layer`` directly inside span ``parent``."""
        return sum(v for (n, p), v in self.rows.items()
                   if p == parent and n.startswith(layer + "."))

    def layer_metrics(self, kinds) -> dict:
        out = {}
        for k in kinds:
            ph, tr, bp, inv = f"fields.{k}", f"transforms.{k}", f"bp.{k}", f"inversion.{k}"
            ph_evals, tr_evals, bp_evals = self.rows_in(ph), self.rows_in(tr), self.rows_in(bp)
            out[f"{ph}.evals"] = (ph_evals, "count")
            out[f"{ph}.s"] = (self.total[ph], "s")
            out[f"{tr}.evals"] = (tr_evals, "count")
            out[f"{tr}.nodes_per_eval"] = (_ratio(self.rows_under("fields", tr), tr_evals), "count")
            out[f"{tr}.self_s"] = (self.self_s(tr), "s")
            out[f"{tr}.useful_frac"] = (_ratio(self.nonzero[ph], ph_evals), "fraction")
            out[f"inversion.{k}.bp_evals"] = (bp_evals, "count")
            out[f"inversion.{k}.bp_nodes_per_eval"] = (_ratio(self.rows_under("transforms", bp), bp_evals), "count")
            out[f"inversion.{k}.bp_self_s"] = (self.self_s(bp), "s")
            out[f"inversion.{k}.lap_self_s"] = (self.self_s(inv), "s")
        out["norms.calls"] = (self.rows_in("norms"), "count")
        out["norms.self_s"] = (self.self_s("norms"), "s")
        return out


def _ratio(a, b) -> float:
    return float(a) / b if b else 0.0
