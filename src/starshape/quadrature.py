"""The numerical rules the package's integrals run on.

Sphere and contour integrals in the plane use composite Simpson on equally
spaced nodes, with panel boundaries aligned to the kinks of the integrand
so every Simpson cell sees a C^1 function; integrals at p >= 3 use a Monte
Carlo mean with its standard error.  Integrals with algebraic endpoint
factors or graded panels (the plane integral, the matrix normalisers) use
batch Gauss-Jacobi rules, Gauss-Legendre being the case without weight.
Callers choose their own nodes and pass the samples in.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi


def arcs(kinks) -> list[tuple[float, float]]:
    """Split [0, 2pi) into smooth arcs at the given angles."""
    two_pi = 2.0 * np.pi
    kinks = np.asarray(kinks, dtype=float)
    if kinks.size == 0:
        return [(0.0, two_pi)]
    ks = np.unique(np.mod(kinks, two_pi))
    out = []
    for i in range(len(ks)):
        a = ks[i]
        b = ks[(i + 1) % len(ks)] + (two_pi if i == len(ks) - 1 else 0.0)
        if b - a > 1e-13:
            out.append((float(a), float(b)))
    return out


def panels(n_panels: int, length: float = 1.0, total: float = 1.0) -> int:
    """Even Simpson panel count, at least 8, for ``length`` out of ``total``.

    An arc gets its share ``n_panels * length / total`` of the budget,
    rounded, so panel widths stay roughly equal across arcs.
    """
    k = max(8, int(round(n_panels * length / total)))
    return k + k % 2


def simpson(vals: np.ndarray, h: float) -> float:
    """Composite Simpson h/3 (v_0 + v_n + 4 sum v_odd + 2 sum v_even).

    ``vals`` are an odd number of samples at spacing ``h``.
    """
    if vals.size % 2 == 0:
        raise ValueError("Simpson needs an odd sample count")
    return float(
        h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
    )


def mean_stderr(w: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``w`` and its standard error (unbiased variance)."""
    n = w.size
    mean = w.sum() / n
    var = max((w * w).sum() / n - mean * mean, 0.0) * n / (n - 1)
    return float(mean), float(np.sqrt(var / n))


def gauss(order: int, lo, hi, alpha: float = 0.0, beta: float = 0.0):
    """Gauss-Jacobi nodes and weights on every interval [lo, hi].

    ``sum(w * f(x))`` is the integral of f(x) (hi - x)^alpha (x - lo)^beta
    over [lo, hi], exact for polynomials f of degree < 2 order (Golub and
    Welsch 1969); alpha = beta = 0 gives Gauss-Legendre.  ``lo`` and ``hi``
    broadcast against each other and the node axis is appended last.
    """
    t, w = roots_jacobi(order, alpha, beta)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (1.0 + t), half ** (alpha + beta + 1.0) * w
