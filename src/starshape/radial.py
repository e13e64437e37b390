"""Radial profiles and the length marginal of a star-shaped law.

A profile is the scalar shape f(g) of the density along every ray; it is
stored unnormalized, all constants being absorbed by the distribution-level
normalizer.  The length marginal in dimension p is f(g) g^(p-1) / c with
c = integral of f(g) g^(p-1) over (0, inf).  Every family has a closed-form
length law: g^s exp(-r g^t) (the Gaussian, exponential and Kotz families)
makes r g^t Gamma((p + s)/t)-distributed, and the heavy tail makes
g^2/(1 + g^2) Beta(p/2, nu/2)-distributed.  Sampling goes through an
inverse-CDF table of that law on a geometric grid, so one code path serves
light and heavy tails alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import (
    beta,
    betainc,
    betaincinv,
    gammainc,
    gammainccinv,
    gammaincinv,
    gammaln,
)

from .errors import ConfigError, DivergentError, NonPositiveError, QuadratureFailureError

_LOG_TINY = float(np.log(np.finfo(float).tiny))


class RadialProfile:
    """Base class for unnormalized radial profile shapes f(g) on (0, inf).

    The shape and the closed forms here are those of f(g) = g^s exp(-r g^t),
    with (s, r, t) from :meth:`_kotz_form`; the heavy tail overrides them.
    """

    family: str

    def shape(self, g, p: int) -> np.ndarray:
        """Profile value f(g); ``p`` only matters for the heavy-tail family."""
        s, r, t = self._kotz_form()
        g = np.asarray(g, dtype=float)
        return g**s * np.exp(-r * g**t)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self._params()}

    def _params(self) -> dict:
        raise NotImplementedError

    def _kotz_form(self) -> tuple[float, float, float]:
        """(s, r, t) with f(g) = g^s exp(-r g^t)."""
        raise NotImplementedError

    def _mass(self, p: int) -> float:
        """Integral of f(g) g^(p-1): Gamma(k) / (t r^k), k = (p + s)/t."""
        s, r, t = self._kotz_form()
        k = (p + s) / t
        with np.errstate(over="ignore"):  # inf is rejected by radial_constant
            return float(np.exp(gammaln(k) - k * np.log(r)) / t)

    def _cdf(self, g: np.ndarray, p: int) -> np.ndarray:
        """Length-law CDF at g: the regularized gamma P(k, r g^t).

        Where x = r g^t underflows the normal range (small k = (p + s)/t),
        P(k, x) is its leading series term x^k / Gamma(k + 1) to double
        precision, and that is taken in logs.
        """
        s, r, t = self._kotz_form()
        k = (p + s) / t
        log_x = np.minimum(np.log(r) + t * np.log(g), _LOG_TINY)
        series = np.exp(k * log_x - gammaln(k + 1.0))
        return np.where(log_x < _LOG_TINY, series, gammainc(k, r * g**t))

    def _quantiles(self, p: int, head: float, tail: float) -> tuple[float, float]:
        """Lengths with CDF ``head`` and with upper-tail mass ``tail``."""
        s, r, t = self._kotz_form()
        k = (p + s) / t
        g_hi = float((gammainccinv(k, tail) / r) ** (1.0 / t))
        # Invert the series of :meth:`_cdf` where it applies (small k).
        log_x_lo = (np.log(head) + gammaln(k + 1.0)) / k
        if log_x_lo < _LOG_TINY:
            return float(np.exp((log_x_lo - np.log(r)) / t)), g_hi
        return float((gammaincinv(k, head) / r) ** (1.0 / t)), g_hi


class GaussianProfile(RadialProfile):
    """f(g) = exp(-g^2 / (2 sigma^2))."""

    family = "gaussian"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise NonPositiveError("gaussian scale must be positive")
        self.scale = float(scale)

    def _params(self):
        return {"scale": self.scale}

    def _kotz_form(self):
        return 0.0, 0.5 / self.scale**2, 2.0


class ExponentialProfile(RadialProfile):
    """f(g) = exp(-beta g)."""

    family = "exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise NonPositiveError("exponential rate must be positive")
        self.rate = float(rate)

    def _params(self):
        return {"rate": self.rate}

    def _kotz_form(self):
        return 0.0, self.rate, 1.0


class KotzProfile(RadialProfile):
    """f(g) = g^s exp(-r g^t) with s >= 0, r > 0, t > 0."""

    family = "kotz"

    def __init__(self, s: float, r: float, t: float):
        if s < 0:
            raise NonPositiveError("kotz exponent s must be >= 0")
        if r <= 0 or t <= 0:
            raise NonPositiveError("kotz decay parameters r, t must be positive")
        self.s, self.r, self.t = float(s), float(r), float(t)

    def _params(self):
        return {"s": self.s, "r": self.r, "t": self.t}

    def _kotz_form(self):
        return self.s, self.r, self.t


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

    def _mass(self, p: int) -> float:
        return float(0.5 * beta(p / 2.0, self.nu / 2.0))

    def _cdf(self, g: np.ndarray, p: int) -> np.ndarray:
        # Past g = 1 take the upper tail from 1 - x = 1/(1 + g^2), which
        # stays exact where x itself rounds to 1.
        a, b = p / 2.0, self.nu / 2.0
        x = g**2 / (1.0 + g**2)
        return np.where(x < 0.5, betainc(a, b, x), 1.0 - betainc(b, a, 1.0 / (1.0 + g**2)))

    def _quantiles(self, p: int, head: float, tail: float) -> tuple[float, float]:
        # x = g^2/(1 + g^2) is Beta(p/2, nu/2) and 1 - x is Beta(nu/2, p/2);
        # inverting each on its own small side keeps both ends accurate.  A
        # subnormal 1 - x (nu near 0) has no accurate quantile: report none.
        x = betaincinv(p / 2.0, self.nu / 2.0, head)
        y = betaincinv(self.nu / 2.0, p / 2.0, tail)
        g_hi = np.sqrt((1.0 - y) / y) if y >= np.finfo(float).tiny else np.inf
        return float(np.sqrt(x / (1.0 - x))), float(g_hi)


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
    """Integral of f(g) g^(p-1) over (0, inf), in closed form.

    This equals the distribution's normalizing constant exactly when the
    profile's constants are matched to the gauge (e.g. a Gaussian profile
    carrying the multivariate-normal constant for an elliptical gauge);
    in general it normalizes the length marginal.
    """
    if p < 1:
        raise DivergentError("dimension must be >= 1")
    value = profile._mass(p)
    if not np.isfinite(value) or value <= 0.0:
        raise DivergentError(f"radial integral evaluated to {value}")
    return value


def radial_density(profile: RadialProfile, p: int, c0: float, g) -> np.ndarray:
    """Length marginal density f(g) g^(p-1) / c0 at g > 0."""
    if c0 <= 0:
        raise NonPositiveError("c0 must be positive")
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr <= 0):
        raise NonPositiveError("the length marginal lives on g > 0")
    out = profile.shape(g_arr, p) * g_arr ** (p - 1) / c0
    return out if out.ndim else float(out)


@dataclass
class RadialTable:
    """Inverse-CDF table for the length marginal on a geometric grid.

    ``grid`` holds n node positions from the ``head_mass`` quantile to the
    ``1 - tail_mass`` quantile of the length law, and ``cdf`` the exact CDF
    at each node.  Quantiles invert the piecewise-linear CDF; draws
    below/above the covered range clamp to the grid ends.
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
        g_lo, g_hi = profile._quantiles(p, head_mass, tail_mass)
        if not np.isfinite(g_hi):
            raise DivergentError("could not cover the radial tail")
        grid = np.geomspace(g_lo, g_hi, size)
        cdf = profile._cdf(grid, p)
        if np.any(np.diff(cdf) <= 0):
            raise QuadratureFailureError("radial CDF is not strictly increasing")
        meta = {"g_lo": g_lo, "g_hi": g_hi, "coverage": float(cdf[-1])}
        return cls(profile, p, total, grid, cdf, meta)

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
