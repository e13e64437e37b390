"""Star-shaped distributions: gauge + radial profile, assembled.

The density is f_G(g(x)) with f_G the normalized profile; length g(x) and
direction x/|x| are independent, the length has the radial marginal and the
direction has density c0 g^(-p).  The sampler composes the two exact
component samplers, so the factorization itself is load-bearing.  The
normalizing constant is computed two ways — from the sphere (the build-time
route) and from the radial integral divided by an independent
full-dimension integral — and the two are compared, which turns the
factorization into a numerical cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from . import rng as _rng
from .direction import (
    C0Estimate,
    direction_constant,
    direction_sample,
    sphere_surface,
)
from .errors import ConfigError, DimensionMismatchError, QuadratureFailureError
from .gauge import Gauge, _as_batch, _as_point
from .quadrature import gauss, mean_stderr
from .radial import (
    ExponentialProfile,
    GaussianProfile,
    KotzProfile,
    RadialProfile,
    RadialTable,
)

# Plane rule: Gauss-Legendre of the first order gives the value, the second
# order the error estimate; x panels halve to 2^-25 of the median length.
_PLANE_ORDERS = (12, 10)
_PLANE_DEPTH = 25
_PLANE_CHUNK = 1 << 17


@dataclass(frozen=True)
class OrbitalRecord:
    """Length/direction split of a point: x = g * z, zprime = z/|z|."""

    g: float
    z: np.ndarray
    zprime: np.ndarray


class StarDistribution:
    """A star-shaped law built from a gauge and a radial profile.

    Building computes the spherical normalizing constant, the closed-form
    length law and the sphere bounds; afterwards the object is immutable
    and safe to share across threads (samplers take an explicit generator).

    Parameters
    ----------
    gauge : Gauge
        Length function; dimension must be >= 2.
    profile : RadialProfile
        Unnormalized radial shape; all constants are absorbed into the
        distribution-level normalization.
    """

    def __init__(
        self,
        gauge: Gauge,
        profile: RadialProfile,
        n_mc: int = 1_000_000,
        seed: int = 0,
    ):
        if gauge.dim < 2:
            raise DimensionMismatchError("star-shaped laws need dim >= 2")
        self.gauge = gauge
        self.profile = profile
        self.p = gauge.dim
        est: C0Estimate = direction_constant(gauge, n_mc, seed)
        self.c0 = est.c0
        self.c0_stderr = est.stderr
        self.c0_provenance = "spherical-integral"
        self.sphere_integral = est.integral
        self.table = RadialTable.build(profile, self.p)
        self.radial_norm = self.table.constant
        # density(x) = scale * profile(g(x)); scale folds the profile's
        # missing constants so that the density integrates to 1.
        self.scale = self.c0 / self.radial_norm
        self.bounds = gauge.sphere_bounds()
        self._c0_radial_cache: dict[tuple[int, int] | None, tuple[float, float]] = {}

    # -- densities ----------------------------------------------------------

    def profile_density(self, g) -> np.ndarray:
        """Normalized profile f_G (the radial shape with constants folded in)."""
        return self.scale * self.profile.shape(np.asarray(g, dtype=float), self.p)

    def density(self, x) -> float:
        """Lebesgue density f_G(g(x)) at a single nonzero point."""
        x = _as_point(x, self.p)
        return float(self.densities(x[None, :])[0])

    def densities(self, X) -> np.ndarray:
        """Vectorized density over rows of X."""
        X = _as_batch(X, self.p)
        return self.profile_density(self.gauge.values(X))

    # -- sampling -----------------------------------------------------------

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws, composed as x = g * z'/g(z')."""
        g = self.table.sample(gen, n)
        draws = direction_sample(self.gauge, gen, n, self.bounds)
        return g[:, None] * (draws.points / draws.g[:, None])

    # -- orbital decomposition ----------------------------------------------

    def orbital_decompose(self, x) -> OrbitalRecord:
        """Split x into (g, z, z') = (g(x), x/g(x), x/|x|)."""
        x = _as_point(x, self.p)
        g, z, zprime = self.decompose_many(x[None, :])
        return OrbitalRecord(float(g[0]), z[0], zprime[0])

    def decompose_many(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized decomposition: returns (g, Z, Zprime) arrays."""
        X = _as_batch(X, self.p)
        g = self.gauge.values(X)
        return g, X / g[:, None], X / np.linalg.norm(X, axis=1, keepdims=True)

    # -- the radial route to c0 ----------------------------------------------

    def c0_radial(self, seed: int = 0, n_mc: int = 1_000_000) -> tuple[float, float]:
        """(value, stderr) of c0 via the radial integral.

        The profile is unnormalized, so the radial integral is divided by
        the total mass Z = integral of profile(g(x)) dx, computed by a
        method independent of the sphere route: a graded Cartesian
        Gauss-Legendre rule with kink-ray split points at p = 2,
        importance-sampled Monte Carlo at p >= 3.  Agreement with the
        spherical constant is a numerical check of the length/direction
        factorization.  Results are cached per ``(seed, n_mc)`` at p >= 3;
        the p = 2 rule uses neither, so it is computed once.
        """
        key = (seed, n_mc) if self.p > 2 else None
        if key not in self._c0_radial_cache:
            if self.p == 2:
                total, err = _plane_integral_2d(self.gauge, self.profile, self.table)
                value = self.radial_norm / total
                stderr = 0.0
                # Coarse sanity gate only: the twin-route comparison is the
                # real accuracy check.
                if err > 1e-4 * total:
                    raise QuadratureFailureError(
                        f"plane integral error {err:.2e} too large for {total:.6e}"
                    )
            else:
                total, se = _plane_integral_mc(
                    self.gauge, self.profile, self.bounds, seed=seed, n_mc=n_mc
                )
                value = self.radial_norm / total
                stderr = self.radial_norm * se / total**2
            self._c0_radial_cache[key] = (float(value), float(stderr))
        return self._c0_radial_cache[key]

    def c0_cross_check(self, seed: int = 0, n_mc: int = 1_000_000) -> dict:
        """Both routes to c0 plus their relative discrepancy."""
        rad, rad_se = self.c0_radial(seed=seed, n_mc=n_mc)
        combined_se = float(np.hypot(rad_se, self.c0_stderr))
        return {
            "c0_radial": rad,
            "stderr_radial": rad_se,
            "c0_spherical": self.c0,
            "stderr_spherical": self.c0_stderr,
            "rel_discrepancy": abs(rad - self.c0) / self.c0,
            "combined_stderr": combined_se,
        }


def within_orbit_map(gauge_from: Gauge, gauge_to: Gauge, x) -> np.ndarray:
    """Move x along its ray so the new gauge sees the old length.

    w = g_from(x) * x / g_to(x); then g_to(w) = g_from(x) and w = lambda x
    with lambda > 0.  The map is a bijection of each ray, inverted by
    swapping the two gauges.
    """
    x = _as_point(x, gauge_from.dim)
    return within_orbit_map_many(gauge_from, gauge_to, x[None, :])[0]


def within_orbit_map_many(gauge_from: Gauge, gauge_to: Gauge, X) -> np.ndarray:
    """Vectorized :func:`within_orbit_map`."""
    if gauge_from.dim != gauge_to.dim:
        raise DimensionMismatchError("gauges must share the ambient dimension")
    X = _as_batch(X, gauge_from.dim)
    lam = gauge_from.values(X) / gauge_to.values(X)
    return lam[:, None] * X


def pushforward_density(dist: StarDistribution, gauge_to: Gauge, w) -> float:
    """Density of w = within_orbit_map(dist.gauge, gauge_to, x), x ~ dist.

    For the scaling group the multiplier of Lebesgue measure is c^p and the
    modulus is trivial, so the mapped density is
    f_G(g_to(w)) * (g_to(w)/g_from(w))^p.
    """
    w = _as_point(w, dist.p)
    return float(pushforward_densities(dist, gauge_to, w[None, :])[0])


def pushforward_densities(dist: StarDistribution, gauge_to: Gauge, W) -> np.ndarray:
    """Vectorized :func:`pushforward_density` over rows of W."""
    if gauge_to.dim != dist.p:
        raise DimensionMismatchError("gauges must share the ambient dimension")
    W = _as_batch(W, dist.p)
    g_to = gauge_to.values(W)
    g_from = dist.gauge.values(W)
    return dist.profile_density(g_to) * (g_to / g_from) ** dist.p


def planar_angles(X) -> np.ndarray:
    """Angles in [0, 2pi) of planar points."""
    X = np.asarray(X, dtype=float)
    return np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * np.pi)


def _plane_integral_2d(
    gauge: Gauge, profile: RadialProfile, table: RadialTable
) -> tuple[float, float]:
    """(value, error estimate) of the integral of profile(g(x)) over the plane.

    Deliberately does not use the homogeneity factorization: a Cartesian
    Gauss-Legendre rule in x and y over the square [-R, R]^2.  Curvature
    concentrates near the origin, on the scale of the distance to it, so
    the x panels end at R 2^-k toward x = 0, down to 2^-25 times the
    profile's median length; each line x = const is split at 0, at +-|x|,
    at the +-R 2^-k beyond |x| and where the kink rays of the gauge cross
    it.  Points reach ``gauge.values`` in chunks of at most _PLANE_CHUNK.
    The error estimate is the difference of the values at two orders.
    """
    R = 1.3 * table.g_hi / gauge.sphere_bounds().g_min
    angles = np.asarray(gauge.kink_angles(), dtype=float)
    slopes = np.tan(angles[np.abs(np.cos(angles)) > 1e-12])
    levels = int(np.ceil(np.log2(R / profile._tail_quantile(2, 0.5)))) + _PLANE_DEPTH
    edges = np.append(R / 2.0 ** np.arange(levels + 1.0), 0.0)
    totals = []
    for order in _PLANE_ORDERS:
        x, wx = (v.ravel() for v in gauss(order, edges[1:], edges[:-1]))
        x, wx = np.concatenate([x, -x]), np.concatenate([wx, wx])
        graded = np.maximum(edges[:-1], np.abs(x)[:, None])
        kinks = np.clip(np.outer(x, slopes), -R, R)
        cuts = np.sort(np.column_stack([graded, -graded, np.zeros(x.size), kinks]), axis=1)
        keep = cuts[:, 1:] > cuts[:, :-1]
        rows = np.nonzero(keep)[0]
        lo, hi = cuts[:, :-1][keep], cuts[:, 1:][keep]
        step = _PLANE_CHUNK // order
        total = 0.0
        for i in range(0, lo.size, step):
            y, wy = gauss(order, lo[i : i + step], hi[i : i + step])
            r = rows[i : i + step]
            pts = np.column_stack([np.repeat(x[r], order), y.ravel()])
            vals = profile.shape(gauge.values(pts), 2).reshape(y.shape)
            total += float(wx[r] @ np.sum(wy * vals, axis=1))
        totals.append(total)
    return totals[0], abs(totals[0] - totals[1])


def _plane_integral_mc(
    gauge: Gauge,
    profile: RadialProfile,
    bounds,
    seed: int = 0,
    n_mc: int = 1_000_000,
) -> tuple[float, float]:
    """Importance-sampled integral of profile(g(x)) dx for p >= 3.

    Proposal: uniform direction times a Gamma(p, theta) radius with theta
    chosen per family so the proposal tail dominates the integrand tail.
    Heavy-tail/sub-exponential profiles are rejected with a ConfigError —
    the importance weights would have infinite variance.
    """
    p = gauge.dim
    if isinstance(profile, ExponentialProfile):
        theta = 1.5 / (profile.rate * bounds.g_min)
    elif isinstance(profile, GaussianProfile):
        theta = 2.0 * profile.scale / bounds.g_min
    elif isinstance(profile, KotzProfile) and profile.t >= 1.0:
        theta = 1.5 / (profile.r ** (1.0 / profile.t) * bounds.g_min)
    else:
        raise ConfigError(
            "the radial route to c0 has no finite-variance proposal for a "
            f"{profile.family} profile at p = {p} (gaussian, exponential and "
            "kotz with t >= 1 have one)"
        )
    gen = _rng.stream(seed, 2000)
    radius = gen.gamma(shape=p, scale=theta, size=n_mc)
    X = _rng.uniform_sphere(gen, n_mc, p)
    X *= radius[:, None]
    # Gamma(p, theta) pdf of the radius, in the form scipy.stats evaluates it.
    u = radius / theta
    gamma_pdf = np.exp(xlogy(p - 1.0, u) - u - gammaln(p)) / theta
    dens = gamma_pdf / (sphere_surface(p) * radius ** (p - 1))
    return mean_stderr(profile.shape(gauge.values(X), p) / dens)
