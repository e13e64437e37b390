"""Star-shaped distributions: gauge + radial profile, assembled.

The density is f_G(g(x)) with f_G the normalized profile; length g(x) and
direction x/|x| are independent, the length has the radial marginal and the
direction has density c0 g^(-p).  The sampler composes the two exact
component samplers, so the factorization itself is load-bearing.  The
normalizing constant is computed two ways — from the sphere (the spherical
route, on first use) and from the radial integral divided by an independent
full-dimension integral — and the two are compared, which turns the
factorization into a numerical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .direction import (
    C0Estimate,
    SphereIntegral,
    direction_constant,
    direction_sample,
    sphere_surface,
)
from .errors import ConfigError, DimensionMismatchError, DivergentError, QuadratureFailureError
from .gauge import Gauge, _as_batch, _as_point, _scaled_rows
from .quadrature import gauss, mc_mean
from .radial import RadialProfile, RadialTable

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

    Building computes only the sphere bounds.  The spherical constant
    ``c0`` (with ``c0_stderr`` and ``sphere_integral``, from ``n_mc`` and
    ``seed``), the radial table's constant ``radial_norm``, the density
    ``scale`` and the radial route's c0 are computed on first use, and
    each raises where it is computed, so a command fails only on what it
    uses: sampling needs none of them, and fails only when a draw cannot
    be represented in doubles.  Two threads racing on a first use
    compute the same deterministic value, so the object stays safe to
    share across threads (samplers take an explicit generator).

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
        self.n_mc = n_mc
        self.seed = seed
        self.table = RadialTable.build(profile, self.p)
        self.bounds = gauge.sphere_bounds()

    @cached_property
    def _c0_estimate(self) -> C0Estimate:
        return direction_constant(self.gauge, self.n_mc, self.seed)

    @property
    def c0(self) -> float:
        return self._c0_estimate.c0

    @property
    def c0_stderr(self) -> float:
        return self._c0_estimate.stderr

    @property
    def sphere_integral(self) -> SphereIntegral:
        return self._c0_estimate.integral

    @property
    def radial_norm(self) -> float:
        return self.table.constant

    @property
    def scale(self) -> float:
        """density(x) = scale * profile(g(x)): the profile's missing
        constants folded in so that the density integrates to 1."""
        return self.c0 / self.radial_norm

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
        return self.profile_density(_scaled_values(self.gauge, _as_batch(X, self.p))[0])

    # -- sampling -----------------------------------------------------------

    def sample(self, gen: np.random.Generator, n: int, lengths: bool = False):
        """n i.i.d. draws, composed as x = g * z'/g(z'); with ``lengths``, the
        pair (draws, drawn lengths g), which equal g(x) up to rounding.
        Raises DivergentError unless every draw has 0 < max|x_i| < inf."""
        g = self.table.sample(gen, n)
        draws = direction_sample(self.gauge, gen, n, self.bounds)
        with np.errstate(over="ignore"):
            X = g[:, None] * (draws.points / draws.g[:, None])
        if not (np.isfinite(X).all() and (X != 0.0).any(axis=1).all()):
            raise DivergentError("a draw left the double range")
        return (X, g) if lengths else X

    # -- orbital decomposition ----------------------------------------------

    def orbital_decompose(self, x) -> OrbitalRecord:
        """Split x into (g, z, z') = (g(x), x/g(x), x/|x|)."""
        x = _as_point(x, self.p)
        g, z, zprime = self.decompose_many(x[None, :])
        return OrbitalRecord(float(g[0]), z[0], zprime[0])

    def decompose_many(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized decomposition: returns (g, Z, Zprime) arrays."""
        X = _as_batch(X, self.p)
        g, Y = _scaled_values(self.gauge, X)  # Y is X scaled so that it squares safely
        return g, X / g[:, None], Y / _rng.row_norms(Y)[:, None]

    # -- the radial route to c0 ----------------------------------------------

    def c0_radial(self) -> tuple[float, float]:
        """(value, stderr) of c0 via the radial integral.

        The profile is unnormalized, so the radial integral is divided by
        the total mass Z = integral of profile(g(x)) dx, computed by a
        method independent of the sphere route: a graded Cartesian
        Gauss-Legendre rule with kink-ray split points at p = 2,
        importance-sampled Monte Carlo from ``n_mc`` and ``seed`` at
        p >= 3.  Agreement with the spherical constant is a numerical
        check of the length/direction factorization.
        """
        return self._c0_radial

    @cached_property
    def _c0_radial(self) -> tuple[float, float]:
        norm = self.radial_norm  # its error comes before the integral's
        if self.p == 2:
            total, err = _plane_integral_2d(self.gauge, self.profile, self.table)
            # Coarse sanity gate only: the twin-route comparison is the
            # real accuracy check.
            if err > 1e-4 * total:
                raise QuadratureFailureError(
                    f"plane integral error {err:.2e} too large for {total:.6e}"
                )
            return float(norm / total), 0.0
        total, se = _plane_integral_mc(self.gauge, self.profile, self.bounds, self.seed, self.n_mc)
        return float(norm / total), float((norm / total) * (se / total))  # total^2 can underflow

    def c0_cross_check(self) -> dict:
        """Both routes to c0 plus their relative discrepancy."""
        c0, c0_se = self.c0, self.c0_stderr
        rad, rad_se = self.c0_radial()
        return {
            "c0_radial": rad,
            "stderr_radial": rad_se,
            "c0_spherical": c0,
            "stderr_spherical": c0_se,
            "rel_discrepancy": abs(rad - c0) / c0,
            "combined_stderr": float(np.hypot(rad_se, c0_se)),
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


def length_and_direction(gauge: Gauge, X) -> tuple[np.ndarray, np.ndarray]:
    """(g(x), direction) of each row, the direction being the angle at p = 2
    and the first coordinate of x/|x| otherwise."""
    g, Y = _scaled_values(gauge, X)
    return g, planar_angles(Y) if gauge.dim == 2 else Y[:, 0] / np.linalg.norm(Y, axis=1)


def _scaled_values(gauge: Gauge, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g(x), Y): Y is X with its rows scaled by powers of two
    (:func:`~starshape.gauge._scaled_rows`), and g is evaluated on Y and
    scaled back, which is exact by homogeneity."""
    Y, e = _scaled_rows(X)
    return np.ldexp(gauge.values(Y), e - 1), Y


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
    # The median is high by less than 2 for a heavy tail and 2^(1/t) for a
    # Kotz form: halve 1 or 1/t more times.
    rounding = 1.0 if profile.family == "heavytail" else 1.0 / profile._kotz_form()[2]
    levels = int(np.ceil(np.log2(R / profile._tail_quantile(2, 0.5)) + rounding)) + _PLANE_DEPTH
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
    gauge: Gauge, profile: RadialProfile, bounds, seed: int, n_mc: int
) -> tuple[float, float]:
    """Importance-sampled integral of profile(g(x)) dx for p >= 3.

    Proposal: uniform direction times a Gamma(p, theta) radius, whose tail
    dominates that of a profile g^s exp(-r g^t) with t >= 1 for theta =
    1.5 / (r^(1/t) g_min).  Heavy tails and t < 1 are rejected with a
    ConfigError: the importance weights would have infinite variance.  The
    mean of the ``n_mc`` weights is :func:`~starshape.quadrature.mc_mean`
    over blocks of Philox task 2000 of ``seed``.
    """
    p = gauge.dim
    form = None if profile.family == "heavytail" else profile._kotz_form()
    if form is None or form[2] < 1.0:
        raise ConfigError(
            "the radial route to c0 has no finite-variance proposal for a "
            f"{profile.family} profile at p = {p} (gaussian, exponential and "
            "kotz with t >= 1 have one)"
        )
    _, r, t = form
    theta = 1.5 / (r ** (1.0 / t) * bounds.g_min)

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        radius = gen.gamma(shape=p, scale=theta, size=m)
        X = _rng.uniform_sphere(gen, m, p)
        X *= radius[:, None]
        # Gamma(p, theta) pdf of the radius.
        u = radius / theta
        gamma_pdf = np.exp((p - 1.0) * np.log(u) - u - math.lgamma(p)) / theta
        dens = gamma_pdf / (sphere_surface(p) * radius ** (p - 1))
        return profile.shape(gauge.values(X), p) / dens

    return mc_mean(draw, n_mc, seed, 2000)
