"""Analytic test functions on R^n and the open upper half-space.

Fields are closures over formulas, never resampled grids: every transform in
this package returns a new field whose evaluation runs quadrature on demand.
Identities between transform chains therefore hold up to quadrature error
only, with no interpolation term.

A field may carry two kinds of support metadata used to place quadrature
nodes:

* ``box``: per-axis interval hull of the support, finite (``None`` = unknown),
* ``section_support``: for fields whose support in the last coordinate
  depends on the leading coordinates, a vectorized map from leading
  coordinates to (lo, hi) bounds of the last-axis support slice.

Both are conservative hints, not hard masks; evaluation outside them simply
returns whatever the formula gives (usually zero). They also bound every
integral over an unbounded domain, which is refused without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .quadrature import _scratch

_DOMAINS = ("full", "half")


@dataclass(frozen=True)
class Point:
    """A point x = (x', x_n) of R^n with the last coordinate split off."""

    xprime: tuple
    xn: float

    def __post_init__(self):
        xp = tuple(float(v) for v in np.atleast_1d(self.xprime))
        if len(xp) < 1:
            raise DomainError("Point needs n >= 2, so xprime must be nonempty")
        object.__setattr__(self, "xprime", xp)
        object.__setattr__(self, "xn", float(self.xn))

    @property
    def n(self) -> int:
        return len(self.xprime) + 1

    @classmethod
    def of(cls, coords) -> "Point":
        """Build from a full coordinate sequence (x_1, ..., x_n)."""
        coords = [float(v) for v in coords]
        return cls(tuple(coords[:-1]), coords[-1])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.xprime + (self.xn,), dtype=float)


def _as_points_array(pts, n: int) -> np.ndarray:
    if isinstance(pts, Point):
        pts = pts.as_array()[None, :]
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DomainError(f"expected points of dimension {n}, got shape {arr.shape}")
    return arr


def _finite_points(what, pts, names=None):
    """``pts``; raises DomainError naming the row of ``names`` (default
    ``pts``) of the first point that is not finite."""
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        names = pts if names is None else names
        point = tuple(float(v) for v in names[int(np.argmax(bad))])
        raise DomainError(f"{what} at non-finite point {point}")
    return pts


def _coordinate_major(shape):
    """Uninitialized float array of ``shape`` (..., n) whose last index is its
    slowest: each coordinate is one contiguous run of memory, so filling or
    reading one coordinate at a time never strides, and reshaping the
    leading axes into one stays a view. Inside a kernel batch it is a
    workspace buffer (``quadrature._scratch``)."""
    buf = _scratch(shape[-1:] + tuple(shape[:-1]))
    return buf.transpose((*range(1, buf.ndim), 0))


def _stack_last(lead, last):
    """Coordinate-major points with leading coordinates ``lead`` (..., n-1)
    and last coordinate ``last`` (...)."""
    pts = _coordinate_major(lead.shape[:-1] + (lead.shape[-1] + 1,))
    pts[..., :-1] = lead
    pts[..., -1] = last
    return pts


def _checked_box(box, what):
    """``box`` as float (lo, hi) pairs, None kept; DomainError naming ``what``
    when a bound is NaN or infinite."""
    if box is None:
        return None
    box = tuple((float(a), float(b)) for a, b in box)
    if not np.isfinite(box).all():
        raise DomainError(f"{what} must have finite bounds, got {box}")
    return box


def _box_dist_sq(P, box):
    """Least and greatest squared distances from each row of P (N, k) to the
    box of k intervals, added up one axis at a time."""
    near2 = np.zeros(P.shape[0])
    far2 = np.zeros(P.shape[0])
    for i, (a, b) in enumerate(box):
        near = np.maximum(np.maximum(a - P[:, i], P[:, i] - b), 0.0)
        far = np.maximum(np.abs(P[:, i] - a), np.abs(P[:, i] - b))
        near2 += near ** 2
        far2 += far ** 2
    return near2, far2


def _sum_sq(pts, c=None):
    """Row sums of (pts - c)^2 over the n columns of ``pts`` (c = 0 when
    None), added up one coordinate at a time: a few elementwise passes over
    columns instead of a reduction over rows of length n, which costs
    several times more per point. For n < 8 this adds in the order of
    ``np.sum(..., axis=1)``, so the bits are the same; from n = 8 on numpy
    sums rows pairwise and the last bits may differ. The returned sum is a
    fresh array; the later coordinates share one workspace temporary."""
    def term(i, out):
        if c is None:
            return np.square(pts[:, i], out=out)
        d = np.subtract(pts[:, i], c[i], out=out)
        return np.square(d, out=d)

    total = term(0, None)
    if pts.shape[1] > 1:
        d = _scratch(total.shape)
        for i in range(1, pts.shape[1]):
            total += term(i, d)
    return total


def _clip_last(box):
    """``box`` with its last interval clipped to [0, inf); None stays None."""
    if box is None:
        return None
    return box[:-1] + ((max(box[-1][0], 0.0), max(box[-1][1], 0.0)),)


def _last_support(field, XP, what):
    """(lo, hi) arrays bounding ``field``'s last coordinate at the rows of XP
    (N, n-1): its section there, else its box's last interval; DomainError
    naming ``what`` when the field declares neither."""
    if field.section_support is not None:
        return field.section_support(XP)
    if field.box is None:
        raise DomainError(f"{what} needs a section or a support box")
    return np.full(XP.shape[0], field.box[-1][0]), np.full(XP.shape[0], field.box[-1][1])


def _box_union(a, b):
    if a is None or b is None:
        return None
    return tuple((min(la, lb), max(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


class ScalarField:
    """A real-valued function on R^n or on the half-space x_n > 0.

    ``func`` must accept a float (N, n) array and return an (N,) array.
    The array may be coordinate-major (Fortran-ordered: each column one
    contiguous run, as the transform kernels build it), so ``func`` must not
    assume C-contiguity; index it by column (``pts[:, i]``) or with numpy
    operations, which accept either layout. Inside a transform or a norm
    ``pts`` is a view of a workspace buffer that the next batch refills
    (see ``quadrature``): ``func`` must not keep it, or a view of it, after
    it returns. Callers may overwrite the array ``func`` returns, so it must
    not be one that ``func`` keeps (a cached constant, say). Evaluation is
    pure and deterministic and keeps no state, so fields may be evaluated
    concurrently.
    """

    def __init__(self, n: int, func, domain: str = "full", box=None,
                 section_support=None):
        if n < 2:
            raise DomainError("fields require n >= 2")
        if domain not in _DOMAINS:
            raise ConfigError(f"unknown domain {domain!r}; expected 'full' or 'half'")
        self.n = int(n)
        self.domain = domain
        self._func = func
        self.box = _checked_box(box, "box")
        self.section_support = section_support

    def eval(self, point) -> float:
        return float(self.eval_array(_as_points_array(point, self.n))[0])

    def __call__(self, point) -> float:
        return self.eval(point)

    def eval_array(self, pts) -> np.ndarray:
        pts = _as_points_array(pts, self.n)
        # not "<= 0": a NaN x_n must be refused as well
        if self.domain == "half" and pts.shape[0] and not np.min(pts[:, -1]) > 0:
            i = int(np.argmin(pts[:, -1]))
            raise DomainError(f"half-space field needs x_n > 0, got x_n = {float(pts[i, -1])} "
                              f"(point {tuple(float(v) for v in pts[i])})")
        vals = np.asarray(self._func(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise DomainError(f"field func returned shape {vals.shape}, expected ({pts.shape[0]},)")
        return vals

    # algebra (used by linearity tests); support hints take the union hull
    def _combine(self, other, op):
        if isinstance(other, ScalarField):
            if other.n != self.n or other.domain != self.domain:
                raise DomainError("field algebra requires matching dimension and domain")
            func = lambda pts: op(self._func(pts), other._func(pts))
            return ScalarField(self.n, func, self.domain, _box_union(self.box, other.box))
        c = float(other)
        # a nonzero constant is nonzero everywhere: no support hint holds
        kept = (self.box, self.section_support) if c == 0.0 else (None, None)
        return ScalarField(self.n, lambda pts: op(self._func(pts), c), self.domain, *kept)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, c):
        c = float(c)
        return ScalarField(self.n, lambda pts: c * self._func(pts), self.domain,
                           self.box, self.section_support)

    __rmul__ = __mul__


class SphereProfile:
    """A function of (x', r): center on the boundary hyperplane, radius r > 0.

    ``func`` must accept (XP: (N, n-1), R: (N,)) and return (N,).
    ``r_support``, when present, maps XP to (lo, hi) bounds of the r-support;
    ``r_box``, when present, is one (lo, hi) interval holding the r-support
    at every x' of ``xprime_box``.
    """

    def __init__(self, n: int, func, xprime_box=None, r_support=None, r_box=None):
        if n < 2:
            raise DomainError("profiles require n >= 2")
        self.n = int(n)
        self._func = func
        self.xprime_box = _checked_box(xprime_box, "xprime_box")
        self.r_support = r_support
        self.r_box = None if r_box is None else _checked_box((r_box,), "r_box")[0]

    def eval(self, xprime, r: float) -> float:
        xp = np.atleast_1d(np.asarray(xprime, dtype=float))[None, :]
        return float(self.eval_array(xp, np.asarray([r], dtype=float))[0])

    def eval_array(self, XP, R) -> np.ndarray:
        XP = np.asarray(XP, dtype=float)
        R = np.asarray(R, dtype=float)
        if XP.ndim != 2 or XP.shape[1] != self.n - 1 or R.shape != (XP.shape[0],):
            raise DomainError(f"profile expects XP (N,{self.n - 1}) and R (N,)")
        # not "<= 0": a NaN r must be refused as well
        if R.size and not np.min(R) > 0:
            raise DomainError(f"profile needs r > 0, got r = {float(R[np.argmin(R)])}")
        vals = np.asarray(self._func(XP, R), dtype=float)
        if vals.shape != R.shape:
            raise DomainError(f"profile func returned shape {vals.shape}, expected {R.shape}")
        return vals

    def as_field(self) -> ScalarField:
        """The profile read as the half-space field (x', r) -> Phi(x', r),
        with ``r_support`` as its section, boxed by ``xprime_box`` times
        ``r_box`` when the profile knows both."""
        box = None
        if self.xprime_box is not None and self.r_box is not None:
            box = self.xprime_box + (self.r_box,)
        return ScalarField(self.n, lambda pts: self.eval_array(pts[:, :-1], pts[:, -1]),
                           "half", box, section_support=self.r_support)


def make_test_field(kind: str, n: int, center, scale: float,
                    domain: str = "full") -> ScalarField:
    """Analytic phantoms used throughout the test and acceptance suites.

    kind = "gaussian":
        y -> exp(-|y - center|^2 / scale^2)
    kind = "bump":
        y -> exp(-1 / (1 - |y - center|^2 / scale^2)) inside the ball of
        radius scale, 0 outside (the standard compactly supported mollifier)
    kind = "monomial_times_gaussian":
        y -> y_n * exp(-|y|^2 / scale^2)   (center is not used by this kind)
    """
    if not scale > 0:
        raise DomainError("scale must be positive")
    if isinstance(center, Point):
        c = center.as_array()
    else:
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.size == 1 and n > 1:
            c = np.full(n, float(c[0]))
    if c.shape != (n,):
        raise ConfigError(f"center must have {n} coordinates, got {c.shape}")
    s = float(scale)

    # each formula works in place on the fresh array of squared distances,
    # with the operations of its closed form in their order
    def gaussian(u):
        np.negative(u, out=u)
        u /= s ** 2
        return np.exp(u, out=u)

    if kind == "gaussian":
        func = lambda pts: gaussian(_sum_sq(pts, c))
        box = tuple((ci - 8 * s, ci + 8 * s) for ci in c)
    elif kind == "bump":
        if domain == "half" and not c[-1] - s > 0:
            raise DomainError("bump support must lie strictly inside the half-space")

        def func(pts):
            u = _sum_sq(pts, c)
            u /= s ** 2
            inside = u < 1.0
            v = u[inside]           # the closed form only inside the ball
            np.subtract(1.0, v, out=v)
            np.divide(-1.0, v, out=v)
            np.exp(v, out=v)
            u *= 0.0                # 0 outside, NaN kept at a NaN point
            u[inside] = v
            return u

        box = tuple((ci - s, ci + s) for ci in c)
    elif kind == "monomial_times_gaussian":
        def func(pts):
            u = gaussian(_sum_sq(pts))
            u *= pts[:, -1]
            return u

        box = tuple((-8 * s, 8 * s) for _ in range(n))
    else:
        raise ConfigError(f"unknown phantom kind {kind!r}")

    return ScalarField(n, func, domain=domain, box=_clip_last(box) if domain == "half" else box)
