"""Closed forms the benchmark checks hemiradon against.

Everything here is computed from the formula, never from a hemiradon field,
so a fault in the library cannot cancel out of a check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, i0e

#: Bars on the relative error of a reconstructed phantom value, per kind
#: (acceptance criteria 9 to 11).
RECON_BAR = {"transversal": 2e-2, "parabolic": 5e-2, "sonar": 5e-2}

#: Bar on forward transversal values, scan dilation laws and identity
#: residuals.
EXACT_BAR = 1e-6

BUMP_SCALE = 0.4


def bump_center(n: int) -> np.ndarray:
    return np.array([0.0] * (n - 1) + [1.0])


def gaussian(X) -> np.ndarray:
    """The unit Gaussian exp(-|x|^2) at an (N, n) batch."""
    X = np.asarray(X, dtype=float)
    return np.exp(-np.sum(X * X, axis=1))


def bump(X, center, scale: float = BUMP_SCALE) -> np.ndarray:
    """The mollifier exp(-1 / (1 - |x - c|^2 / s^2)) inside the ball, 0 outside."""
    X = np.asarray(X, dtype=float)
    u = np.sum((X - center) ** 2, axis=1) / scale ** 2
    out = np.zeros(X.shape[0])
    inside = u < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return out


def transversal_gaussian(X) -> np.ndarray:
    """Transversal transform of the unit Gaussian at (u, t) rows:
    pi^((n-1)/2) (1+|u|^2)^(-1/2) exp(-t^2 / (1+|u|^2))."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    a = 1.0 + np.sum(X[:, :-1] ** 2, axis=1)
    return math.pi ** ((n - 1) / 2) * a ** -0.5 * np.exp(-X[:, -1] ** 2 / a)


def backprojection_gaussian(X) -> np.ndarray:
    """Backprojection g of the transversal data of the unit Gaussian.

    n = 2: g = (sqrt(pi)/2) exp(-|x|^2/2) I0(|x|^2/2);
    n = 3: g = (sqrt(pi)/4) erf(|x|)/|x|, whose value at 0 is 1/2.
    """
    X = np.asarray(X, dtype=float)
    r2 = np.sum(X * X, axis=1)
    if X.shape[1] == 2:
        return 0.5 * math.sqrt(math.pi) * i0e(0.5 * r2)
    r = np.sqrt(r2)
    out = np.full(r.shape, 0.5)
    big = r > 1e-8
    out[big] = 0.25 * math.sqrt(math.pi) * erf(r[big]) / r[big]
    return out


def scan_exponent(transform: str, p: float, q: float, s: float, n: int) -> float:
    """Exponent gamma of ratio(lam) = C lam^gamma along the sweep path of
    ``scaling_scan``: (lam, lam) for transversal and sonar, (lam, lam^2)
    for parabolic.

    With f_lam(x', x_n) = f(l1 x', l2 x_n):
    * transversal: T f_lam(u, t) = l1^(1-n) Tf(l2 u / l1, l2 t), read over
      slopes |u| <= R l1 / l2, so the output norm scales like
      l1^((1-n) + (n-1)/q) l2^(-1/s - (n-1)/q), the input like
      l1^(-(n-1)/p) l2^(-1/p);
    * parabolic, l2 = l1^2: P f_lam(x) = l1^(1-n) Pf(l1 x', l2 x_n), read over
      |x'| <= R / l1: output l1^((1-n) - (n-1)/q) l2^(-1/s), input as above;
    * sonar, l1 = l2 = lam: S f_lam(x', r) = lam^(1-n) Sf(lam x', lam r);
      the weight r^(1-s) adds lam^((s-2)/s) to the inner norm, the outer box
      |x'| <= R / lam gives lam^(-(n-1)/q), and the input weight t^(1-p)
      gives ||f_lam|| = lam^(1 - (n+1)/p) ||f||.
    """
    if transform == "transversal":
        a1 = (1 - n) + (n - 1) / q + (n - 1) / p
        a2 = -1 / s - (n - 1) / q + 1 / p
        return a1 + a2
    if transform == "parabolic":
        a1 = (1 - n) - (n - 1) / q + (n - 1) / p
        a2 = -1 / s + 1 / p
        return a1 + 2 * a2
    if transform == "sonar":
        return (1 - n) + (1 - 2 / s) - (n - 1) / q - (1 - (n + 1) / p)
    raise ValueError(f"unknown transform {transform!r}")
