import numpy as np
import pytest
from hypothesis import strategies as st

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


def spd(p, entries):
    """A symmetric positive definite p x p matrix from p^2 entries."""
    B = np.array(entries).reshape(p, p)
    return B @ B.T + 0.1 * np.eye(p)


def box_and_cuts(p, rows):
    """A polytope gauge: the facets +-0.3 e_i and cuts of R^p by ``rows``."""
    # +-0.3 e_i keep K inside the box |x_i| <= 10/3, so the origin is inside.
    cuts = np.array(rows, dtype=float).reshape(-1, p)
    return PolytopeGauge(np.vstack([0.3 * np.eye(p), -0.3 * np.eye(p), cuts]))


def gauges_of_dim(p):
    """Sup, l1, random elliptical and random polytope gauges on R^p."""
    return st.one_of(
        st.just(SupNormGauge(p)),
        st.just(L1NormGauge(p)),
        st.builds(lambda e: EllipticalGauge(spd(p, e)),
                  st.lists(st.floats(-2.0, 2.0), min_size=p * p, max_size=p * p)),
        st.builds(lambda rows: box_and_cuts(p, rows),
                  st.lists(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p),
                           min_size=1, max_size=6)),
    )


def property_gauges(count=1):
    """``count`` gauges of a shared dimension p in {2, 3, 6}, one if count is 1."""
    dims = st.sampled_from([2, 3, 6])
    if count == 1:
        return dims.flatmap(gauges_of_dim)
    return dims.flatmap(lambda p: st.tuples(*[gauges_of_dim(p)] * count))


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
