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

import math

import numpy as np


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
    """Sample mean of ``w`` and its standard error (unbiased variance).

    ``w`` is first divided by a power of two near its largest |w_i|, which
    is exact, so that its squares cannot underflow or overflow.
    """
    n = w.size
    _, e = np.frexp(np.max(np.abs(w), initial=0.0))
    w = np.ldexp(w, -e)
    mean = w.sum() / n
    var = max((w * w).sum() / n - mean * mean, 0.0) * n / (n - 1)
    return float(np.ldexp(mean, e)), float(np.ldexp(np.sqrt(var / n), e))


def gauss(order: int, lo, hi, alpha: float = 0.0, beta: float = 0.0):
    """Gauss-Jacobi nodes and weights on every interval [lo, hi].

    ``sum(w * f(x))`` is the integral of f(x) (hi - x)^alpha (x - lo)^beta
    over [lo, hi], exact for polynomials f of degree < 2 order (Golub and
    Welsch 1969); alpha = beta = 0 gives Gauss-Legendre.  ``lo`` and ``hi``
    broadcast against each other and the node axis is appended last.
    """
    t, w = _jacobi_rule(order, alpha, beta)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (1.0 + t), half ** (alpha + beta + 1.0) * w


def _jacobi_rule(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [-1, 1] for (1 - t)^alpha (1 + t)^beta.

    The nodes are the eigenvalues of the Jacobi matrix of the three-term
    recurrence, the weights mu0 times the squared first components of its
    unit eigenvectors, mu0 = 2^(alpha+beta+1) B(alpha + 1, beta + 1) being
    the weight's integral (Golub and Welsch 1969).  The weights are scaled to
    sum to mu0 exactly, as the squares of a unit vector do only to rounding.
    """
    ab = alpha + beta
    k = np.arange(order, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 when ab = 0
        diag = np.where(k == 0, (beta - alpha) / (ab + 2.0),
                        (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0)))
    k = k[1:]
    # At k = 1 the factor k (k + ab) / (2k + ab - 1) is 1, and 0/0 when ab = -1.
    ratio = np.where(k == 1, 1.0, k * (k + ab) / np.maximum(2.0 * k + ab - 1.0, 1.0))
    off = 2.0 / (2.0 * k + ab) * np.sqrt((k + alpha) * (k + beta) / (2.0 * k + ab + 1.0) * ratio)
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    log_mu0 = (ab + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) \
        - math.lgamma(ab + 2.0)
    w = v[0] ** 2
    return t, math.exp(log_mu0) / w.sum() * w
