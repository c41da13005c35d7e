"""Batch command-line front end.

Subcommands
-----------
forward    evaluate one forward transform of a phantom on a point set
invert     forward-transform a phantom, reconstruct it, and report errors
verify     evaluate both sides of an operator identity on a point set
norm-scan  dilation sweep of the output/input norm ratio
constants  the inversion normalizing constants and their n = 2 product

Each subcommand resolves its settings, makes one batched library call per
side (the classical transform is a loop over planes) and writes
``result.csv`` (17-significant-digit values, header row) and
``manifest.txt`` (every resolved parameter, one ``key = value`` line, no
clocks) into the output directory, so identical configs reproduce
byte-identical outputs. Every n has default points for each point layout:
field points, (x', r) profile points and (theta, t) planes. Options may
come from ``--config FILE`` holding ``key = value`` lines, with optional
``[subcommand]`` sections; explicit command-line flags win. A subcommand
reads exactly the options its parser declares. Invalid configuration exits
with status 2 and a message naming the offending key; numerical failures
exit with status 1 after appending the diagnostic to the manifest.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, HemiradonError
from .fields import make_test_field
from .inversion import (ReconstructionConfig, hypersingular_constant,
                        reconstruct, sqrt_laplacian_constant)
from .norms import scaling_scan
from .operators import (CANONICAL_IDENTITIES, _deviations, _eval_output,
                        _identity_errors, apply_chain, dilation_identity)
from .quadrature import QuadratureSpec
from .transforms import RadonPlane, classical_radon, slope_intercept_relation

_FORWARD_KINDS = ("transversal", "parabolic", "sonar", "classical")
_INVERT_KINDS = ("transversal", "parabolic", "sonar")
_IDENTITY_NAMES = tuple(sorted(CANONICAL_IDENTITIES)) + ("dilation", "slope_intercept")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path: str, command: str) -> dict:
    """Flat key = value lines; [section] headers scope keys to one command.

    A key in a section must be one that section's command reads, and a key
    outside any section one that some command reads.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"key 'config': no such file {path!r}")
    out = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _KEYS:
                    raise ConfigError(
                        f"key 'config': unknown section [{section}] on line {lineno}")
                continue
            if "=" not in line:
                raise ConfigError(
                    f"key 'config': line {lineno} is not key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"key 'config': empty key on line {lineno}")
            key = key.replace("-", "_")
            known = _KEYS[section] if section else frozenset().union(*_KEYS.values())
            if key not in known:
                where = f"[{section}]" if section else "any subcommand"
                raise ConfigError(
                    f"key {key!r}: not read by {where}, line {lineno}")
            if section in (None, command):
                out[key] = val
    return out


class Params:
    """Resolved parameters: CLI flag, else config file, else default."""

    def __init__(self, args: argparse.Namespace, file_vals: dict):
        self._args = vars(args)
        self._file = file_vals
        self.resolved: dict = {}

    def get(self, key: str, cast, default=None):
        val = self._args.get(key)
        if val is None:
            val = self._file.get(key)
        if val is None:
            val = default
        if val is None:
            return None
        if isinstance(val, str):
            try:
                val = cast(val)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: cannot parse {val!r}") from exc
        self.resolved[key] = val
        return val


def _floats(txt) -> tuple:
    return tuple(float(v) for v in str(txt).split(","))


def _points(txt) -> tuple:
    pts = []
    for chunk in str(txt).split(";"):
        chunk = chunk.strip()
        if chunk:
            pts.append(tuple(float(v) for v in chunk.split(",")))
    return tuple(pts)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(path: str, resolved: dict, error=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(resolved):
            fh.write(f"{key} = {_fmt(resolved[key])}\n")
        if error is not None:
            fh.write(f"error = {error}\n")


# ---------------------------------------------------------------------------
# shared resolution helpers
# ---------------------------------------------------------------------------

#: Default points of each layout as the product of a lead-coordinate axis
#: (one per coordinate of x') and a last-coordinate axis: (lead, last) for
#: n = 2 and for n >= 3. "target" and "half_target" are reconstruction
#: points of full-space and half-space phantoms.
_DEFAULT_AXES = {
    "field": (((-2.0, -1.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0, 2.0)),
              ((-1.0, 1.0), (-1.0, 0.0))),
    "profile": (((-0.5, 0.0, 0.5), (0.75, 1.0, 1.25)), ((-0.5, 0.5), (0.8, 1.2))),
    "target": (((-0.5, 0.0, 0.5), (-0.5, 0.0, 0.5)), ((0.0,), (-0.4, 0.0, 0.4))),
    "half_target": (((-0.3, 0.0, 0.3), (0.7, 1.0, 1.3)), ((0.0,), (0.8, 1.0, 1.2))),
}


def _default_points(layout: str, n: int) -> tuple:
    if layout == "plane":
        # theta = (sin a, 0, ..., 0, cos a)
        return tuple((math.sin(a),) + (0.0,) * (n - 2) + (math.cos(a), t)
                     for a in (-0.8, -0.4, 0.0, 0.4, 0.8)
                     for t in (-1.0, -0.5, 0.0, 0.5, 1.0))
    lead, last = _DEFAULT_AXES[layout][n > 2]
    return tuple(itertools.product(*(lead,) * (n - 1), last))


def _resolve_points(p: Params, layout: str, n: int):
    """The checked points of a layout (flag, file or default) as one row
    each, recorded in the manifest, with their coordinate names."""
    pts = p.get("points", _points, _default_points(layout, n))
    if layout == "plane":
        names = [f"theta{i + 1}" for i in range(n)] + ["t"]
    else:
        names = [f"x{i + 1}" for i in range(n - 1)]
        names.append("r" if layout == "profile" else f"x{n}")
    if any(len(pt) != len(names) for pt in pts):
        raise ConfigError(f"key 'points': expected {len(names)} coordinates per point")
    if layout == "plane" and any(abs(sum(c * c for c in pt[:-1]) - 1.0) > 1e-9
                                 for pt in pts):
        raise ConfigError("key 'points': plane directions must be unit vectors")
    p.resolved["points"] = ";".join(",".join(_fmt(c) for c in pt) for pt in pts)
    return np.array(pts, dtype=float).reshape(len(pts), len(names)), names


def _table(P, *columns) -> list:
    """Rows of the points' coordinates followed by one value per column."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    return [row + list(vals) for row, vals in zip(P.tolist(), zip(*cols))]


def _resolve_spec(p: Params, n: int) -> QuadratureSpec:
    spec = QuadratureSpec.for_dimension(n)
    m = p.get("m", int)
    if m is not None:
        spec = spec.with_(m=m)
    p.resolved["m"] = spec.m
    return spec


def _resolve_phantom(p: Params, n: int, kind_needs_half: bool):
    default_kind = "bump" if kind_needs_half else "gaussian"
    phantom = p.get("phantom", str, default_kind)
    if kind_needs_half:
        center = p.get("center", _floats, (0.0,) * (n - 1) + (1.0,))
        scale = p.get("scale", float, 0.4)
        domain = "half"
    else:
        center = p.get("center", _floats, (0.0,) * n)
        scale = p.get("scale", float, 1.0)
        domain = "full"
    field = make_test_field(phantom, n, center, scale, domain)
    p.resolved["domain"] = domain
    return field


def _resolve_recon_cfg(p: Params, n: int):
    """The reconstruction config. The odd-n route reads stencil_h, the
    spacing of its difference; the even-n one y_radius, the bound of its
    hypersingular integral. The key a route does not read is an error."""
    key, unread = ("stencil_h", "y_radius") if n % 2 else ("y_radius", "stencil_h")
    if p.get(unread, float) is not None:
        raise ConfigError(f"key {unread!r}: the n = {n} inversion does not read it")
    cfg = ReconstructionConfig.for_dimension(n)
    val = p.get(key, float)
    if val is not None:
        cfg = cfg.with_(**{key: val})
    p.resolved[key] = getattr(cfg, key)
    p.resolved["bp_direction_nodes"] = cfg.g_spec.m
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_forward(p: Params):
    n = p.get("n", int, 2)
    kind = p.get("kind", str, "transversal")
    if kind not in _FORWARD_KINDS:
        raise ConfigError(f"key 'kind': expected one of {_FORWARD_KINDS}")
    spec = _resolve_spec(p, n)
    field = _resolve_phantom(p, n, kind == "sonar")
    layout = {"classical": "plane", "sonar": "profile"}.get(kind, "field")
    P, names = _resolve_points(p, layout, n)
    if kind == "classical":
        vals = [classical_radon(field, RadonPlane(pt[:-1], pt[-1]), spec) for pt in P]
    else:
        vals = _eval_output(apply_chain((kind,), field, spec), P)
    summary = f"points = {len(P)}, kind = {kind}"
    return names + ["value"], _table(P, vals), summary


def _run_invert(p: Params):
    n = p.get("n", int, 2)
    kind = p.get("kind", str, "transversal")
    if kind not in _INVERT_KINDS:
        raise ConfigError(f"key 'kind': expected one of {_INVERT_KINDS}")
    spec = _resolve_spec(p, n)
    cfg = _resolve_recon_cfg(p, n)
    field = _resolve_phantom(p, n, kind == "sonar")
    P, names = _resolve_points(p, "half_target" if kind == "sonar" else "target", n)

    recon = reconstruct(kind, apply_chain((kind,), field, spec), P, cfg=cfg)
    ref = field.eval_array(P)
    abs_err = np.abs(recon - ref)
    rel_err = abs_err / (float(np.max(np.abs(ref), initial=0.0)) or 1.0)
    header = names + ["reconstructed", "reference", "abs_err", "rel_err"]
    summary = f"sup_rel_err = {rel_err.max(initial=0.0):.6g} over {len(P)} points"
    return header, _table(P, recon, ref, abs_err, rel_err), summary


def _run_verify(p: Params):
    n = p.get("n", int, 2)
    name = p.get("identity", str)
    if name is None or name not in _IDENTITY_NAMES:
        raise ConfigError(f"key 'identity': expected one of {_IDENTITY_NAMES}")
    spec = _resolve_spec(p, n)

    if name == "slope_intercept":
        field = _resolve_phantom(p, n, False)
        P, names = _resolve_points(p, "plane", n)
        sides = np.array([slope_intercept_relation(field, RadonPlane(pt[:-1], pt[-1]), spec)
                          for pt in P]).reshape(-1, 2)
        cols = _deviations(sides[:, 0], sides[:, 1])
    else:
        if name == "dilation":
            lam = p.get("lam", _floats, (2.0, 2.0))
            if len(lam) == 1:
                lam = (lam[0], lam[0])
            p.resolved["lam"] = ",".join(_fmt(v) for v in lam)
            chains = dilation_identity(lam)
        else:
            chains = CANONICAL_IDENTITIES[name]
        # the sonar identities compare profiles (or a profile and a
        # half-space field) at (x', r)
        sonar = name.startswith("sonar")
        field = _resolve_phantom(p, n, sonar)
        P, names = _resolve_points(p, "profile" if sonar else "field", n)
        cols = _identity_errors(*chains, field, P, spec)
    header = names + ["lhs", "rhs", "abs_err", "rel_err"]
    summary = f"max_rel_err = {cols[3].max(initial=0.0):.6g} over {len(P)} points"
    return header, _table(P, *cols), summary


def _run_norm_scan(p: Params):
    n = p.get("n", int, 2)
    transform = p.get("transform", str, "transversal")
    pq = p.get("p", float, 1.5)
    qq = p.get("q", float, 3.0)
    ss = p.get("s", float, 3.0)
    lambdas = p.get("lambdas", _floats, (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    outer = p.get("outer_radius", float, 16.0)
    spec = _resolve_spec(p, n)
    field = _resolve_phantom(p, n, transform == "sonar")
    pairs = [(lam, lam) for lam in lambdas]
    entries = scaling_scan(transform, pq, qq, ss, n, pairs, field, spec,
                           outer_radius=outer)
    ratios = [e.ratio for e in entries]
    variation = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    rows = [[e.lam[0], e.lam[1], e.output_norm, e.input_norm, e.ratio]
            for e in entries]
    header = ["lam1", "lam2", "output_norm", "input_norm", "ratio"]
    summary = f"ratio variation = {variation:.6g} across {len(entries)} dilations"
    p.resolved["variation"] = variation
    return header, rows, summary


def _run_constants(p: Params):
    n = p.get("n", int, 2)
    ell = p.get("ell", int, n - 1 if n % 2 == 0 else n)
    dnl = hypersingular_constant(n, ell)
    cn = sqrt_laplacian_constant(n)
    rows = [["hypersingular_constant", dnl],
            ["sqrt_laplacian_constant", cn],
            ["product", dnl * cn]]
    header = ["name", "value"]
    summary = (f"hypersingular_constant({n},{ell}) = {dnl:.6g}, "
               f"sqrt_laplacian_constant = {cn:.6g}, product = {dnl * cn:.6g}")
    return header, rows, summary


_RUNNERS = {
    "forward": _run_forward,
    "invert": _run_invert,
    "verify": _run_verify,
    "norm-scan": _run_norm_scan,
    "constants": _run_constants,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hemiradon",
        description="Forward transforms, identity checks, norm scans, and "
                    "inversion roundtrips for hemispherical / parabolic / "
                    "transversal averaging operators.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, summary, phantom=True, points=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="key = value file; flags override it")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--n", help="dimension (default 2)")
        if not phantom:
            return sp
        sp.add_argument("--phantom", help="gaussian | bump | monomial_times_gaussian")
        sp.add_argument("--center", help="comma-separated phantom center")
        sp.add_argument("--scale", help="phantom scale")
        sp.add_argument("--m", help="quadrature nodes per axis override")
        if points:
            sp.add_argument("--points", help="semicolon-separated comma tuples")
        return sp

    sp = add("forward", "forward transform on a point set")
    sp.add_argument("--kind", help="transversal | parabolic | sonar | classical")

    sp = add("invert", "forward + reconstruct + error report")
    sp.add_argument("--kind", help="transversal | parabolic | sonar")
    sp.add_argument("--stencil-h", dest="stencil_h",
                    help="spacing of the odd-n Laplacian difference in the data intercept")
    sp.add_argument("--y-radius", dest="y_radius",
                    help="hypersingular outer radius (even n only)")

    sp = add("verify", "check an operator identity")
    sp.add_argument("--identity", help=" | ".join(_IDENTITY_NAMES))
    sp.add_argument("--lam", help="dilation parameters lam1,lam2")

    sp = add("norm-scan", "dilation sweep of the norm ratio", points=False)
    sp.add_argument("--transform", help="transversal | parabolic | sonar")
    sp.add_argument("--p", help="input Lebesgue exponent")
    sp.add_argument("--q", help="outer mixed-norm exponent")
    sp.add_argument("--s", help="inner mixed-norm exponent")
    sp.add_argument("--lambdas", help="comma-separated diagonal dilations")
    sp.add_argument("--outer-radius", dest="outer_radius",
                    help="outer truncation box half-width at lambda = 1")

    sp = add("constants", "inversion normalizing constants", phantom=False)
    sp.add_argument("--ell", help="finite-difference order")
    return ap


def _parser_keys() -> dict:
    """The keys each subcommand reads: the dests of its parser's options."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: frozenset(a.dest for a in sp._actions) - {"help", "config"}
            for name, sp in sub.choices.items()}


#: The keys each subcommand reads, from a flag or a config file.
_KEYS = _parser_keys()


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_vals = {}
        if args.config:
            file_vals = _load_config_file(args.config, args.command)
        p = Params(args, file_vals)
        p.resolved["command"] = args.command
        p.resolved["version"] = __version__
        out_dir = p.get("out", str, ".")
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "result.csv")
        manifest_path = os.path.join(out_dir, "manifest.txt")
        p.resolved["result"] = "result.csv"
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        header, rows, summary = _RUNNERS[args.command](p)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HemiradonError as exc:
        _write_manifest(manifest_path, p.resolved, error=exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    _write_manifest(manifest_path, p.resolved)
    _write_csv(csv_path, header, rows)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
