"""The numerical rules the package's integrals run on.

Every deterministic integral runs on batch Gauss-Jacobi rules,
Gauss-Legendre being the case without weight: sphere and contour integrals
in the plane on equal panels of the arcs between the kinks of the
integrand, so every panel sees a smooth function, and the plane integral
and the matrix normalisers on graded panels or with algebraic endpoint
factors.  Integrals at p >= 3 use a Monte Carlo mean with its standard
error, drawn in keyed blocks on every core with one BLAS thread.  Callers
choose their own nodes and pass the samples in, or, for a Monte Carlo mean,
a function that draws them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import threading
from typing import Callable

import numpy as np

from . import rng as _rng

# Points per Monte Carlo block (see mc_mean).
MC_BLOCK = 1 << 16

# The OpenBLAS thread count before the running mc_mean calls set it to 1,
# and how many of them are running (see _one_blas_thread).
_blas_lock = threading.Lock()
_blas_saved = _blas_users = 0


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


def arc_rule(intervals, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` on equal panels of the
    arcs (a, b) in ``intervals``, and the index of each arc's first node.

    The arcs share ``n_panels`` in proportion to length, by rounding the
    running total of their lengths, and each gets at least one panel; so
    panel widths stay near equal, no panel straddles an arc end, and no
    node lies on one.  ``np.add.reduceat(w * f(theta), starts)`` gives each
    arc's integral of f, summed pairwise.
    """
    a, b = np.asarray(intervals, dtype=float).T
    ends = np.round(n_panels / (b - a).sum() * np.cumsum(np.r_[0.0, b - a]))
    k = np.maximum(np.diff(ends), 1.0).astype(int)
    first = np.cumsum(k) - k
    arc = np.repeat(np.arange(a.size), k)
    j = np.arange(arc.size) - first[arc]
    width = ((b - a) / k)[arc]
    theta, w = gauss(order, a[arc] + j * width, a[arc] + (j + 1) * width)
    return theta.ravel(), w.ravel(), order * first


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
    core count.  While they run, numpy's bundled OpenBLAS uses one thread,
    so that each block's matrix products do not contend with the other
    blocks for the cores (:func:`_one_blas_thread`).
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
    with _one_blas_thread():
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


@contextlib.contextmanager
def _one_blas_thread():
    """Set numpy's bundled OpenBLAS to one thread, and back to its previous
    count on exit, also on an exception; nothing where it is not found.

    Calls may overlap in several threads: the first to enter saves the
    count, and the last to leave restores it.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    global _blas_saved, _blas_users
    get, set_ = blas
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy wheels
    bundle in ``numpy.libs``, or None where no library there exports them."""
    # Imported here, so that a command without a Monte Carlo mean does not load it.
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


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
