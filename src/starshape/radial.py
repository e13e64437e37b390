"""Radial profiles and the length marginal of a star-shaped law.

A profile is the scalar shape f(g) of the density along every ray; it is
stored unnormalized, all constants being absorbed by the distribution-level
normalizer.  The length marginal in dimension p is f(g) g^(p-1) / c with
c = integral of f(g) g^(p-1) over (0, inf), computed here by adaptive
quadrature.  Sampling goes through an inverse-CDF table on a geometric grid
so that one code path serves light and heavy tails alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import integrate

from .errors import (
    ConfigError,
    DivergentError,
    NonPositiveError,
    QuadratureFailureError,
)

_QUAD_RTOL = 1e-11
_QUAD_TARGET = 1e-9


class RadialProfile:
    """Base class for unnormalized radial profile shapes f(g) on (0, inf)."""

    family: str

    def shape(self, g, p: int) -> np.ndarray:
        """Profile value f(g); ``p`` only matters for the heavy-tail family."""
        raise NotImplementedError

    def check_integrable(self, p: int) -> None:
        """Raise DivergentError unless f(g) g^(p-1) is integrable on (0, inf)."""
        if p < 1:
            raise DivergentError("dimension must be >= 1")

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self._params()}

    def _params(self) -> dict:
        raise NotImplementedError


class GaussianProfile(RadialProfile):
    """f(g) = exp(-g^2 / (2 sigma^2))."""

    family = "gaussian"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise NonPositiveError("gaussian scale must be positive")
        self.scale = float(scale)

    def shape(self, g, p: int) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        return np.exp(-0.5 * (g / self.scale) ** 2)

    def _params(self):
        return {"scale": self.scale}


class ExponentialProfile(RadialProfile):
    """f(g) = exp(-beta g)."""

    family = "exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise NonPositiveError("exponential rate must be positive")
        self.rate = float(rate)

    def shape(self, g, p: int) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        return np.exp(-self.rate * g)

    def _params(self):
        return {"rate": self.rate}


class KotzProfile(RadialProfile):
    """f(g) = g^s exp(-r g^t) with s >= 0, r > 0, t > 0."""

    family = "kotz"

    def __init__(self, s: float, r: float, t: float):
        if s < 0:
            raise NonPositiveError("kotz exponent s must be >= 0")
        if r <= 0 or t <= 0:
            raise NonPositiveError("kotz decay parameters r, t must be positive")
        self.s, self.r, self.t = float(s), float(r), float(t)

    def shape(self, g, p: int) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        return g ** self.s * np.exp(-self.r * g ** self.t)

    def _params(self):
        return {"s": self.s, "r": self.r, "t": self.t}


class HeavyTailProfile(RadialProfile):
    """f(g) = (1 + g^2)^(-(p + nu)/2); the dimension binds at the use site."""

    family = "heavytail"

    def __init__(self, nu: float):
        if nu <= 0:
            raise NonPositiveError("heavy-tail index nu must be positive")
        self.nu = float(nu)

    def shape(self, g, p: int) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        return (1.0 + g ** 2) ** (-(p + self.nu) / 2.0)

    def _params(self):
        return {"nu": self.nu}


_FAMILIES = {
    "gaussian": (GaussianProfile, ["scale"]),
    "exponential": (ExponentialProfile, ["rate"]),
    "kotz": (KotzProfile, ["s", "r", "t"]),
    "heavytail": (HeavyTailProfile, ["nu"]),
}


def profile_from_dict(obj: dict) -> RadialProfile:
    """Rebuild a profile from its JSON form, rejecting unknown fields."""
    if not isinstance(obj, dict):
        raise ConfigError("profile: expected a JSON object")
    unknown = set(obj) - {"family", "params"}
    if unknown:
        raise ConfigError(f"profile: unknown field '{sorted(unknown)[0]}'")
    if "family" not in obj:
        raise ConfigError("profile: missing field 'family'")
    family = obj["family"]
    if family not in _FAMILIES:
        raise ConfigError(f"profile.family: unknown family '{family}'")
    cls, keys = _FAMILIES[family]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("profile.params: expected a JSON object")
    bad = set(params) - set(keys)
    if bad:
        raise ConfigError(f"profile.params: unknown field '{sorted(bad)[0]}'")
    missing = set(keys) - set(params)
    if missing:
        raise ConfigError(f"profile.params: missing field '{sorted(missing)[0]}'")
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"profile.params: {exc}") from exc


def radial_constant(profile: RadialProfile, p: int) -> float:
    """Integral of f(g) g^(p-1) over (0, inf), relative error ~1e-9.

    This equals the distribution's normalizing constant exactly when the
    profile's constants are matched to the gauge (e.g. a Gaussian profile
    carrying the multivariate-normal constant for an elliptical gauge);
    in general it normalizes the length marginal.
    """
    profile.check_integrable(p)

    def integrand(g):
        return profile.shape(g, p) * g ** (p - 1)

    val, err = integrate.quad(
        integrand, 0.0, np.inf, epsabs=0.0, epsrel=_QUAD_RTOL, limit=400
    )
    if not np.isfinite(val) or val <= 0.0:
        raise DivergentError(f"radial integral evaluated to {val}")
    if err > _QUAD_TARGET * val:
        raise QuadratureFailureError(
            f"radial quadrature error {err:.2e} exceeds target on value {val:.6e}"
        )
    return float(val)


def radial_density(profile: RadialProfile, p: int, c0: float, g) -> np.ndarray:
    """Length marginal density f(g) g^(p-1) / c0 at g > 0."""
    if c0 <= 0:
        raise NonPositiveError("c0 must be positive")
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr <= 0):
        raise NonPositiveError("the length marginal lives on g > 0")
    out = profile.shape(g_arr, p) * g_arr ** (p - 1) / c0
    return out if out.ndim else float(out)


# Fixed 10-point Gauss-Legendre rule used per table interval.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass
class RadialTable:
    """Inverse-CDF table for the length marginal on a geometric grid.

    ``grid`` holds n node positions and ``cdf`` the cumulative mass at each
    node (normalized by the quadrature constant, so the final entry sits
    within the truncated tail of 1).  Quantiles invert the piecewise-linear
    CDF; draws below/above the covered range clamp to the grid ends, which
    carry ~1e-12 / ~1e-10 of mass by construction.
    """

    profile: RadialProfile
    p: int
    constant: float
    grid: np.ndarray
    cdf: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        profile: RadialProfile,
        p: int,
        size: int = 4096,
        tail_mass: float = 1e-10,
        head_mass: float = 1e-12,
    ) -> "RadialTable":
        total = radial_constant(profile, p)

        def mass(a, b):
            return integrate.quad(
                lambda g: profile.shape(g, p) * g ** (p - 1),
                a,
                b,
                epsabs=total * 1e-15,
                epsrel=1e-10,
                limit=400,
            )[0]

        g_hi = 1.0
        while mass(g_hi, np.inf) > tail_mass * total:
            g_hi *= 2.0
            if g_hi > 1e300:
                raise DivergentError("could not cover the radial tail")
        # Pull g_hi back to the actual tail quantile; a doubling overshoot
        # would leave grid cells whose mass underflows the cumulative sum.
        lo_b, hi_b = g_hi / 2.0, g_hi
        for _ in range(60):
            midpoint = 0.5 * (lo_b + hi_b)
            tail = mass(midpoint, np.inf)
            if 0.2 * tail_mass * total <= tail <= tail_mass * total:
                g_hi = midpoint
                break
            if tail > tail_mass * total:
                lo_b = midpoint
            else:
                hi_b = midpoint
                g_hi = midpoint
        g_lo = g_hi * 1e-6
        while mass(0.0, g_lo) > head_mass * total:
            g_lo *= 0.5

        grid = np.geomspace(g_lo, g_hi, size)
        # Per-interval Gauss-Legendre masses, vectorized over intervals.
        mid = 0.5 * (grid[1:] + grid[:-1])
        half = 0.5 * (grid[1:] - grid[:-1])
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        dens = profile.shape(nodes.ravel(), p) * nodes.ravel() ** (p - 1)
        masses = half * (dens.reshape(nodes.shape) @ _GL_WEIGHTS)
        head = mass(0.0, g_lo)
        cdf = np.concatenate([[head], head + np.cumsum(masses)]) / total
        if np.any(np.diff(cdf) <= 0):
            raise QuadratureFailureError("radial CDF is not strictly increasing")
        return cls(
            profile,
            p,
            total,
            grid,
            cdf,
            meta={"g_lo": g_lo, "g_hi": g_hi, "coverage": float(cdf[-1])},
        )

    def cdf_at(self, g) -> np.ndarray:
        """Piecewise-linear CDF value at g (clamped outside the grid)."""
        return np.interp(np.asarray(g, dtype=float), self.grid, self.cdf,
                         left=0.0, right=1.0)

    def quantile(self, u) -> np.ndarray:
        """Inverse of :meth:`cdf_at`; exact round trip within the grid."""
        return np.interp(np.asarray(u, dtype=float), self.cdf, self.grid,
                         left=self.grid[0], right=self.grid[-1])

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. lengths by inverse-CDF transform."""
        return self.quantile(gen.random(n))
