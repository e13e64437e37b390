"""The numerical rules the package's integrals run on.

Sphere and contour integrals in the plane use composite Simpson on equally
spaced nodes, with panel boundaries aligned to the kinks of the integrand
so every Simpson cell sees a C^1 function; integrals at p >= 3 use a Monte
Carlo mean with its standard error, drawn in keyed blocks on every core.
Integrals with algebraic endpoint factors or graded panels (the plane
integral, the matrix normalisers) use batch Gauss-Jacobi rules,
Gauss-Legendre being the case without weight.  Callers choose their own
nodes and pass the samples in, or, for a Monte Carlo mean, a function that
draws them.
"""

from __future__ import annotations

import contextvars
import math
import os
from typing import Callable

import numpy as np

from . import rng as _rng

# Points per Monte Carlo block (see mc_mean).
MC_BLOCK = 1 << 16


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
    """Simpson panel count, a multiple of 4 and at least 8, for ``length`` out of ``total``.

    An arc gets its share ``n_panels * length / total`` of the budget, rounded
    up, so panel widths stay roughly equal across arcs; every other node
    then gives the rule at twice the spacing.
    """
    k = max(8, int(round(n_panels * length / total)))
    return k + -k % 4


def simpson(vals: np.ndarray, h: float) -> float:
    """Composite Simpson h/3 (v_0 + v_n + 4 sum v_odd + 2 sum v_even).

    ``vals`` are an odd number of samples at spacing ``h``.
    """
    if vals.size % 2 == 0:
        raise ValueError("Simpson needs an odd sample count")
    return float(
        h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
    )


def mc_mean(draw: Callable[[np.random.Generator, int], np.ndarray], n: int, seed: int,
            stream_id: int) -> tuple[float, float]:
    """Monte Carlo mean of n values and its standard error (unbiased variance).

    The n values come in blocks of MC_BLOCK, the last one shorter: block b
    is ``draw(gen, m)``, m values from the Philox stream keyed by (seed,
    stream_id, b) (:func:`starshape.rng.block_stream`).  Each block is
    divided by a power of two near its largest |w_i|, which is exact, so
    that its squares cannot underflow or overflow, and reduced to its
    exponent and scaled sums of w and w^2; the sums are brought to the
    largest exponent and added in block order.  Blocks run on a thread per
    available core, up to one per block, in a copy of the caller's context
    (numpy's error state included), so the result is the same for every
    core count.
    """
    if n < 2:
        raise ValueError("a Monte Carlo standard error needs n >= 2")
    n_blocks = -(-n // MC_BLOCK)
    context = contextvars.copy_context()

    def block(b: int) -> tuple[int, float, float]:
        w = draw(_rng.block_stream(seed, stream_id, b), min(MC_BLOCK, n - b * MC_BLOCK))
        _, e = np.frexp(np.max(np.abs(w), initial=0.0))
        w = np.ldexp(w, -e)
        return int(e), float(w.sum()), float((w * w).sum())

    def run(b: int) -> tuple[int, float, float]:
        return context.copy().run(block, b)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cores or 1, n_blocks)
    if workers == 1:
        parts = [run(b) for b in range(n_blocks)]
    else:
        # Imported here, so that a command without a parallel mean does not load it.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        try:
            parts = list(pool.map(run, range(n_blocks)))
        finally:
            pool.shutdown(cancel_futures=True)
    # An all-zero block (sum of squares 0) carries no exponent.
    top = max((e for e, _, s2 in parts if s2 > 0.0), default=0)
    total = total2 = 0.0
    for e, s, s2 in parts:
        total += math.ldexp(s, e - top)
        total2 += math.ldexp(s2, 2 * (e - top))
    mean = np.float64(total / n)
    var = max(total2 / n - mean * mean, 0.0) * n / (n - 1)
    return float(np.ldexp(mean, top)), float(np.ldexp(np.sqrt(var / n), top))


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
