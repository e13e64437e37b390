import numpy as np
import pytest

from starshape import (
    EllipticalGauge,
    ExponentialProfile,
    GaussianProfile,
    HeavyTailProfile,
    KotzProfile,
    L1NormGauge,
    PolytopeGauge,
    SupNormGauge,
)
from starshape import rng as srng
from starshape.quadrature import arcs


def stream(seed, sid=0):
    return srng.stream(seed, sid)


def sign_vectors(p):
    """The 2^p vectors of +-1 entries, rows of shape (p,)."""
    return 1.0 - 2.0 * ((np.arange(2**p)[:, None] >> np.arange(p)) & 1)


def random_unit(gen, n, p):
    U = gen.normal(size=(n, p))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def polar_integral(
    func,
    radius: float,
    kinks: np.ndarray = np.empty(0),
    n_r: int = 2048,
    n_theta: int = 4096,
) -> float:
    """Simpson integral over a disk of a vectorized density func((n,2))->(n,).

    The angular grid is kink-aligned; the radial integrand func * r vanishes
    at the origin, evaluated from a tiny inset to keep func off x = 0.  As a
    test oracle it keeps its own Simpson weights instead of sharing the rule
    in ``starshape.quadrature`` with the code under test.
    """
    r_lo = radius * 1e-9
    r = np.linspace(r_lo, radius, n_r + 1)
    wr = _simpson_weights(n_r) * ((radius - r_lo) / n_r)
    total = 0.0
    for a, b in arcs(kinks):
        k = max(8, int(round(n_theta * (b - a) / (2.0 * np.pi))))
        k += k % 2
        theta = np.linspace(a, b, k + 1)
        wt = _simpson_weights(k) * ((b - a) / k)
        pts = np.empty((len(theta) * len(r), 2))
        R, T = np.meshgrid(r, theta)
        pts[:, 0] = (R * np.cos(T)).ravel()
        pts[:, 1] = (R * np.sin(T)).ravel()
        vals = func(pts).reshape(len(theta), len(r)) * r[None, :]
        total += float(wt @ vals @ wr)
    return total


def _simpson_weights(k: int) -> np.ndarray:
    w = np.ones(k + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w / 3.0


@pytest.fixture(scope="session")
def analytic_gauges():
    """The closed-form planar gauges, keyed by a short label."""
    return {
        "ell-i2": EllipticalGauge(np.eye(2)),
        "ell-14": EllipticalGauge(np.diag([1.0, 4.0])),
        "sup": SupNormGauge(2),
        "l1": L1NormGauge(2),
        "poly": PolytopeGauge(
            [[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [-0.4, -0.7], [0.9, 0.9]]
        ),
    }


@pytest.fixture(scope="session")
def profiles():
    return {
        "gaussian": GaussianProfile(1.0),
        "exponential": ExponentialProfile(1.0),
        "kotz": KotzProfile(1.0, 0.5, 2.0),
        "heavytail": HeavyTailProfile(3.0),
    }
