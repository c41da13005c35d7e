"""Batch command-line front end.

Subcommands
-----------
forward    evaluate one forward transform of a phantom on a point set
invert     forward-transform a phantom, reconstruct it, and report errors
verify     evaluate both sides of an operator identity on a point set
norm-scan  dilation sweep of the output/input norm ratio
constants  the inversion normalizing constants and their n = 2 product

Every run writes ``result.csv`` (17-significant-digit values, header row)
and ``manifest.txt`` (every resolved parameter, one ``key = value`` line,
no clocks) into the output directory, so identical configs reproduce
byte-identical outputs. Options may come from ``--config FILE`` holding
``key = value`` lines, with optional ``[subcommand]`` sections; explicit
command-line flags win. Invalid configuration exits with status 2 and a
message naming the offending key; numerical failures exit with status 1
after appending the diagnostic to the manifest. The environment variable
``HEMIRADON_MAX_THREADS`` caps the worker threads used for point loops.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import (ChainError, ConfigError, DomainError, HemiradonError,
                     QuadratureError)
from .fields import ScalarField, make_test_field
from .inversion import (ReconstructionConfig, hypersingular_constant, invert,
                        reconstruct, sqrt_laplacian_constant)
from .norms import scaling_scan
from .operators import CANONICAL_IDENTITIES, apply_chain, dilation_identity
from .quadrature import QuadratureSpec
from .transforms import (RadonPlane, classical_radon, parabolic_transform,
                         slope_intercept_relation, sonar_transform,
                         transversal_transform)

_FORWARD_KINDS = ("transversal", "parabolic", "sonar", "classical")
_INVERT_KINDS = ("transversal", "parabolic", "sonar")
_IDENTITY_NAMES = tuple(sorted(CANONICAL_IDENTITIES)) + ("dilation", "slope_intercept")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_SHARED_KEYS = frozenset({"out", "n", "m", "R_max", "phantom", "center", "scale"})
#: The keys each subcommand reads, from a flag or a config file.
_KEYS = {
    "forward": _SHARED_KEYS | {"points", "kind"},
    "invert": _SHARED_KEYS | {"points", "kind", "stencil_h", "y_radius", "bp_stop"},
    "verify": _SHARED_KEYS | {"points", "identity", "lam"},
    "norm-scan": _SHARED_KEYS | {"transform", "p", "q", "s", "lambdas", "outer_radius"},
    "constants": frozenset({"out", "n", "ell"}),
}


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
            self.resolved[key] = ""
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


def _grid2(lo: float, hi: float, count: int) -> list:
    ax = np.linspace(lo, hi, count)
    return [(float(a), float(b)) for a in ax for b in ax]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _max_workers(njobs: int) -> int:
    cap = os.environ.get("HEMIRADON_MAX_THREADS", "").strip()
    if cap:
        try:
            cap = int(cap)
        except ValueError as exc:
            raise ConfigError(
                "key 'HEMIRADON_MAX_THREADS': must be an integer") from exc
    else:
        cap = os.cpu_count() or 1
    return max(1, min(njobs, cap))


def _pmap(fn, items):
    """Order-preserving parallel map over pure per-point work."""
    items = list(items)
    workers = _max_workers(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(path: str, resolved: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(resolved):
            fh.write(f"{key} = {_fmt(resolved[key])}\n")


def _append_manifest(path: str, lines):
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# shared resolution helpers
# ---------------------------------------------------------------------------

def _resolve_spec(p: Params, n: int) -> QuadratureSpec:
    spec = QuadratureSpec.for_dimension(n)
    m = p.get("m", int)
    r = p.get("R_max", float)
    if m is not None:
        spec = spec.with_(m=m)
    if r is not None:
        spec = spec.with_(R_max=r)
    p.resolved["m"] = spec.m
    p.resolved["R_max"] = spec.R_max
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
    if len(center) == 1 and n > 1:
        center = center * n
    field = make_test_field(phantom, n, center, scale, domain)
    p.resolved["phantom"] = phantom
    p.resolved["domain"] = domain
    return field


def _resolve_recon_cfg(p: Params, n: int):
    cfg = ReconstructionConfig.for_dimension(n)
    for key, cast in (("stencil_h", float), ("y_radius", float), ("bp_stop", float)):
        val = p.get(key, cast)
        if val is not None:
            cfg = cfg.with_(**{key: val})
    p.resolved.update(
        stencil_h=cfg.stencil_h,
        y_radius=cfg.y_radius,
        bp_stop=cfg.bp_stop,
        bp_direction_nodes=cfg.g_spec.m if cfg.g_spec is not None else "",
    )
    return cfg


def _coord_header(dim: int, names=None):
    if names is not None:
        return list(names)
    return [f"x{i + 1}" for i in range(dim)]


def _as_plane(pt) -> RadonPlane:
    theta, t = pt[:-1], pt[-1]
    if abs(sum(c * c for c in theta) - 1.0) > 1e-9:
        raise ConfigError(
            "key 'points': plane directions must be unit vectors")
    return RadonPlane(theta, t)


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

    if kind == "classical":
        default = tuple((math.sin(a), math.cos(a), t)
                        for a in (-0.8, -0.4, 0.0, 0.4, 0.8)
                        for t in (-1.0, -0.5, 0.0, 0.5, 1.0))
        pts = p.get("points", _points, default)
        dim = n + 1
        names = [f"theta{i + 1}" for i in range(n)] + ["t"]
        worker = lambda pt: classical_radon(field, _as_plane(pt), spec)
    elif kind == "sonar":
        default = tuple((x, r) for x in (-0.5, 0.0, 0.5)
                        for r in (0.75, 1.0, 1.25)) if n == 2 else \
            tuple((x, y, r) for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                  for r in (0.8, 1.2))
        pts = p.get("points", _points, default)
        dim = n
        names = [f"x{i + 1}" for i in range(n - 1)] + ["r"]
        worker = lambda pt: sonar_transform(field, pt[:-1], pt[-1], spec)
    else:
        default = tuple(_grid2(-2.0, 2.0, 5)) if n == 2 else \
            tuple((x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                  for z in (-1.0, 0.0))
        pts = p.get("points", _points, default)
        dim = n
        names = None
        fwd = transversal_transform if kind == "transversal" else parabolic_transform
        worker = lambda pt: fwd(field, pt, spec)

    for pt in pts:
        if len(pt) != dim:
            raise ConfigError(f"key 'points': expected {dim} coordinates per point")
    p.resolved["points"] = ";".join(",".join(_fmt(c) for c in pt) for pt in pts)
    vals = _pmap(worker, pts)
    header = _coord_header(dim, names) + ["value"]
    rows = [list(pt) + [v] for pt, v in zip(pts, vals)]
    summary = f"points = {len(pts)}, kind = {kind}"
    return header, rows, summary


def _run_invert(p: Params):
    n = p.get("n", int, 2)
    kind = p.get("kind", str, "transversal")
    if kind not in _INVERT_KINDS:
        raise ConfigError(f"key 'kind': expected one of {_INVERT_KINDS}")
    spec = _resolve_spec(p, n)
    cfg = _resolve_recon_cfg(p, n)
    field = _resolve_phantom(p, n, kind == "sonar")

    if kind == "sonar":
        default = tuple((x, y) for x in (-0.3, 0.0, 0.3) for y in (0.7, 1.0, 1.3)) \
            if n == 2 else tuple((0.0, 0.0, y) for y in (0.8, 1.0, 1.2))
    else:
        default = tuple(_grid2(-0.5, 0.5, 3)) if n == 2 else \
            tuple((0.0, 0.0, z) for z in (-0.4, 0.0, 0.4))
    pts = p.get("points", _points, default)
    for pt in pts:
        if len(pt) != n:
            raise ConfigError(f"key 'points': expected {n} coordinates per point")
    p.resolved["points"] = ";".join(",".join(_fmt(c) for c in pt) for pt in pts)

    if kind == "sonar":
        from .transforms import sonar_profile
        data = sonar_profile(field, spec)
    elif kind == "parabolic":
        from .transforms import parabolic_field
        data = parabolic_field(field, spec)
    else:
        from .transforms import transversal_field
        data = transversal_field(field, spec)

    recon = reconstruct(kind, data, pts, cfg=cfg)
    ref = field.eval_array(np.asarray(pts, dtype=float))
    scale = float(np.max(np.abs(ref))) or 1.0
    rows = []
    sup_rel = 0.0
    for pt, rv, fv in zip(pts, recon, ref):
        abs_err = abs(rv - fv)
        rel_err = abs_err / scale
        sup_rel = max(sup_rel, rel_err)
        rows.append(list(pt) + [rv, fv, abs_err, rel_err])
    header = _coord_header(n) + ["reconstructed", "reference", "abs_err", "rel_err"]
    summary = f"sup_rel_err = {sup_rel:.6g} over {len(pts)} points"
    return header, rows, summary


def _run_verify(p: Params):
    n = p.get("n", int, 2)
    name = p.get("identity", str)
    if name is None or name not in _IDENTITY_NAMES:
        raise ConfigError(f"key 'identity': expected one of {_IDENTITY_NAMES}")
    spec = _resolve_spec(p, n)

    if name == "slope_intercept":
        field = _resolve_phantom(p, n, False)
        default = tuple((math.sin(a), math.cos(a), t)
                        for a in (-0.8, -0.4, 0.0, 0.4, 0.8)
                        for t in (-1.0, -0.5, 0.0, 0.5, 1.0))
        pts = p.get("points", _points, default)
        dim = n + 1
        names = [f"theta{i + 1}" for i in range(n)] + ["t"]

        def worker(pt):
            return slope_intercept_relation(field, _as_plane(pt), spec)

    else:
        if name == "dilation":
            lam = p.get("lam", _floats, (2.0, 2.0))
            if len(lam) == 1:
                lam = (lam[0], lam[0])
            p.resolved["lam"] = ",".join(_fmt(v) for v in lam)
            lhs_chain, rhs_chain = dilation_identity(lam)
            needs_half = False
        else:
            lhs_chain, rhs_chain = CANONICAL_IDENTITIES[name]
            needs_half = name.startswith("sonar")
        field = _resolve_phantom(p, n, needs_half)
        lhs_out = apply_chain(lhs_chain, field, spec)
        rhs_out = apply_chain(rhs_chain, field, spec)
        profile_out = not isinstance(lhs_out, ScalarField)
        if profile_out:
            default = tuple((x, r) for x in (-0.5, 0.0, 0.5)
                            for r in (0.8, 1.0, 1.2))
            names = [f"x{i + 1}" for i in range(n - 1)] + ["r"]
        else:
            default = tuple(_grid2(-2.0, 2.0, 5))
            names = None
        pts = p.get("points", _points, default)
        dim = n

        def worker(pt):
            arr = np.asarray(pt, dtype=float)
            if profile_out:
                lv = float(lhs_out.eval_array(arr[None, :-1], arr[-1:])[0])
                rv = float(rhs_out.eval_array(arr[None, :-1], arr[-1:])[0])
            else:
                lv = float(lhs_out.eval_array(arr[None, :])[0])
                rv = float(rhs_out.eval_array(arr[None, :])[0])
            return lv, rv

    for pt in pts:
        if len(pt) != dim:
            raise ConfigError(f"key 'points': expected {dim} coordinates per point")
    p.resolved["points"] = ";".join(",".join(_fmt(c) for c in pt) for pt in pts)
    pairs = _pmap(worker, pts)
    rows = []
    max_rel = 0.0
    for pt, (lv, rv) in zip(pts, pairs):
        abs_err = abs(lv - rv)
        denom = max(abs(lv), abs(rv))
        rel_err = 0.0 if abs_err == 0 else (abs_err / denom if denom else math.inf)
        max_rel = max(max_rel, rel_err)
        rows.append(list(pt) + [lv, rv, abs_err, rel_err])
    header = _coord_header(dim, names) + ["lhs", "rhs", "abs_err", "rel_err"]
    summary = f"max_rel_err = {max_rel:.6g} over {len(pts)} points"
    return header, rows, summary


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

    def common(sp):
        sp.add_argument("--config", help="key = value file; flags override it")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--n", help="dimension (default 2)")
        sp.add_argument("--phantom", help="gaussian | bump | monomial_times_gaussian")
        sp.add_argument("--center", help="comma-separated phantom center")
        sp.add_argument("--scale", help="phantom scale")
        sp.add_argument("--m", help="quadrature nodes per axis override")
        sp.add_argument("--R-max", dest="R_max", help="quadrature box radius override")
        sp.add_argument("--points", help="semicolon-separated comma tuples")

    sp = sub.add_parser("forward", help="forward transform on a point set")
    common(sp)
    sp.add_argument("--kind", help="transversal | parabolic | sonar | classical")

    sp = sub.add_parser("invert", help="forward + reconstruct + error report")
    common(sp)
    sp.add_argument("--kind", help="transversal | parabolic | sonar")
    sp.add_argument("--stencil-h", dest="stencil_h",
                    help="spacing of the odd-n Laplacian difference in the data intercept")
    sp.add_argument("--y-radius", dest="y_radius", help="hypersingular outer radius")
    sp.add_argument("--bp-stop", dest="bp_stop",
                    help="backprojection slope cutoff; default none")

    sp = sub.add_parser("verify", help="check an operator identity")
    common(sp)
    sp.add_argument("--identity", help=" | ".join(_IDENTITY_NAMES))
    sp.add_argument("--lam", help="dilation parameters lam1,lam2")

    sp = sub.add_parser("norm-scan", help="dilation sweep of the norm ratio")
    common(sp)
    sp.add_argument("--transform", help="transversal | parabolic | sonar")
    sp.add_argument("--p", help="input Lebesgue exponent")
    sp.add_argument("--q", help="outer mixed-norm exponent")
    sp.add_argument("--s", help="inner mixed-norm exponent")
    sp.add_argument("--lambdas", help="comma-separated diagonal dilations")
    sp.add_argument("--outer-radius", dest="outer_radius",
                    help="outer truncation box half-width at lambda = 1")

    sp = sub.add_parser("constants", help="inversion normalizing constants")
    common(sp)
    sp.add_argument("--ell", help="finite-difference order")
    return ap


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
        _write_manifest(manifest_path, p.resolved)
        _append_manifest(manifest_path, [f"error = {exc}"])
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    _write_manifest(manifest_path, p.resolved)
    _write_csv(csv_path, header, rows)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
