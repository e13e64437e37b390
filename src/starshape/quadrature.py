"""The two numerical rules the package's integrals run on.

Planar integrals use composite Simpson on equally spaced nodes, with panel
boundaries aligned to the kinks of the integrand so every Simpson cell sees
a C^1 function; integrals at p >= 3 use a Monte Carlo mean with its
standard error.  Callers choose their own nodes and step and pass the
samples in.  Only numpy is imported, so the gauge layer can use this too.
"""

from __future__ import annotations

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
    """Sample mean of ``w`` and its standard error (unbiased variance)."""
    n = w.size
    mean = w.sum() / n
    var = max((w * w).sum() / n - mean * mean, 0.0) * n / (n - 1)
    return float(mean), float(np.sqrt(var / n))
