"""Radial profiles and the length marginal of a star-shaped law.

A profile is the scalar shape f(g) of the density along every ray; it is
stored unnormalized, all constants being absorbed by the distribution-level
normalizer.  The length marginal in dimension p is f(g) g^(p-1) / c with
c = integral of f(g) g^(p-1) over (0, inf).  Every family has a closed-form
length law: g^s exp(-r g^t) (the Gaussian, exponential and Kotz families)
makes r g^t Gamma((p + s)/t)-distributed, and the heavy tail makes
g^2/(1 + g^2) Beta(p/2, nu/2)-distributed (Fang, Kotz & Ng 1990).  Lengths
are drawn as exact transforms of Gamma variates, with no table in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentError, NonPositiveError, OutOfRangeError

_LOG_TINY = float(np.log(np.finfo(float).tiny))


class RadialProfile:
    """Base class for unnormalized radial profile shapes f(g) on (0, inf).

    The shape and the closed forms here are those of f(g) = g^s exp(-r g^t),
    with (s, r, t) from :meth:`_kotz_form`; the heavy tail overrides them.
    """

    family: str
    #: document fields, each a constructor argument and an attribute
    params: tuple[str, ...]

    def shape(self, g, p: int) -> np.ndarray:
        """Profile value f(g); ``p`` only matters for the heavy-tail family."""
        s, r, t = self._kotz_form()
        g = np.asarray(g, dtype=float)
        return g**s * np.exp(-r * g**t)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": {k: getattr(self, k) for k in self.params}}

    def _kotz_form(self) -> tuple[float, float, float]:
        """(s, r, t) with f(g) = g^s exp(-r g^t)."""
        raise NotImplementedError

    def _mass(self, p: int) -> float:
        """Integral of f(g) g^(p-1): Gamma(k) / (t r^k), k = (p + s)/t."""
        from scipy.special import gammaln

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
        from scipy.special import gammainc, gammaln

        s, r, t = self._kotz_form()
        k = (p + s) / t
        log_x = np.minimum(np.log(r) + t * np.log(g), _LOG_TINY)
        series = np.exp(k * log_x - gammaln(k + 1.0))
        return np.where(log_x < _LOG_TINY, series, gammainc(k, r * g**t))

    def _tail_quantile(self, p: int, tail: float) -> float:
        """The length with upper-tail mass ``tail``."""
        from scipy.special import gammainccinv

        s, r, t = self._kotz_form()
        k = (p + s) / t
        return float((gammainccinv(k, tail) / r) ** (1.0 / t))

    def _draw(self, gen: np.random.Generator, n: int, p: int) -> np.ndarray:
        """n lengths g = (X/r)^(1/t) U^(1/(p + s)), X ~ Gamma(k + 1) drawn
        before U uniform on (0, 1]: r g^t = X U^(1/k) is Gamma(k), written in
        g so that it cannot underflow for small k = (p + s)/t."""
        s, r, t = self._kotz_form()
        x = gen.standard_gamma((p + s) / t + 1.0, n)
        u = 1.0 - gen.random(n)
        return (x / r) ** (1.0 / t) * u ** (1.0 / (p + s))


class GaussianProfile(RadialProfile):
    """f(g) = exp(-g^2 / (2 sigma^2))."""

    family = "gaussian"
    params = ("scale",)

    def __init__(self, scale: float = 1.0):
        if not 0 < scale < np.inf:
            raise NonPositiveError("gaussian scale must be positive and finite")
        if not 1e-154 <= scale <= 1e154:
            raise OutOfRangeError(
                f"gaussian scale {scale:g} is outside [1e-154, 1e154], where its rate "
                "1/(2 scale^2) is a finite, positive double"
            )
        self.scale = float(scale)

    def _kotz_form(self):
        return 0.0, 0.5 / self.scale**2, 2.0


class ExponentialProfile(RadialProfile):
    """f(g) = exp(-beta g)."""

    family = "exponential"
    params = ("rate",)

    def __init__(self, rate: float = 1.0):
        if not 0 < rate < np.inf:
            raise NonPositiveError("exponential rate must be positive and finite")
        self.rate = float(rate)

    def _kotz_form(self):
        return 0.0, self.rate, 1.0


class KotzProfile(RadialProfile):
    """f(g) = g^s exp(-r g^t) with s >= 0, r > 0, t > 0."""

    family = "kotz"
    params = ("s", "r", "t")

    def __init__(self, s: float, r: float, t: float):
        if not 0 <= s < np.inf:
            raise NonPositiveError("kotz exponent s must be >= 0 and finite")
        if not (0 < r < np.inf and 0 < t < np.inf):
            raise NonPositiveError("kotz decay parameters r, t must be positive and finite")
        self.s, self.r, self.t = float(s), float(r), float(t)

    def _kotz_form(self):
        return self.s, self.r, self.t


class HeavyTailProfile(RadialProfile):
    """f(g) = (1 + g^2)^(-(p + nu)/2); the dimension binds at the use site."""

    family = "heavytail"
    params = ("nu",)

    def __init__(self, nu: float):
        if not 0 < nu < np.inf:
            raise NonPositiveError("heavy-tail index nu must be positive and finite")
        self.nu = float(nu)

    def shape(self, g, p: int) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        return (1.0 + g ** 2) ** (-(p + self.nu) / 2.0)

    def _mass(self, p: int) -> float:
        from scipy.special import beta

        return float(0.5 * beta(p / 2.0, self.nu / 2.0))

    def _cdf(self, g: np.ndarray, p: int) -> np.ndarray:
        # Past g = 1 take the upper tail from 1 - x = 1/(1 + g^2), which
        # stays exact where x itself rounds to 1.
        from scipy.special import betainc

        a, b = p / 2.0, self.nu / 2.0
        x = g**2 / (1.0 + g**2)
        return np.where(x < 0.5, betainc(a, b, x), 1.0 - betainc(b, a, 1.0 / (1.0 + g**2)))

    def _tail_quantile(self, p: int, tail: float) -> float:
        # 1 - g^2/(1 + g^2) is Beta(nu/2, p/2); inverting it on its own small
        # side keeps the tail accurate.  A subnormal quantile (nu near 0) is
        # not accurate: report none.
        from scipy.special import betaincinv

        y = betaincinv(self.nu / 2.0, p / 2.0, tail)
        return float(np.sqrt((1.0 - y) / y)) if y >= np.finfo(float).tiny else np.inf

    def _draw(self, gen: np.random.Generator, n: int, p: int) -> np.ndarray:
        """n lengths sqrt(X/Y), X ~ Gamma(p/2) drawn before Y ~ Gamma(nu/2)."""
        x = gen.standard_gamma(p / 2.0, n)
        return np.sqrt(x / gen.standard_gamma(self.nu / 2.0, n))


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


@dataclass(frozen=True)
class RadialTable:
    """The length law of ``profile`` in dimension ``p``, in closed form.

    ``constant`` is the radial integral c and ``g_hi`` the length with
    upper-tail mass 1e-10, which sizes the plane rule's square; each is
    computed on first use and raises DivergentError there unless finite,
    and draws need neither.  Draws are exact (see the profiles' ``_draw``)
    and :meth:`cdf_at` is the exact CDF.
    """

    profile: RadialProfile
    p: int

    @classmethod
    def build(cls, profile: RadialProfile, p: int) -> "RadialTable":
        return cls(profile, p)

    @cached_property
    def constant(self) -> float:
        return radial_constant(self.profile, self.p)

    @cached_property
    def g_hi(self) -> float:
        g_hi = self.profile._tail_quantile(self.p, 1e-10)
        if not np.isfinite(g_hi):
            raise DivergentError("could not cover the radial tail")
        return g_hi

    def cdf_at(self, g) -> np.ndarray:
        """CDF of the length law at g > 0."""
        return self.profile._cdf(np.asarray(g, dtype=float), self.p)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. lengths; a draw that is not finite and positive raises,
        so the draw itself may overflow or divide by zero silently."""
        with np.errstate(over="ignore", divide="ignore"):
            g = self.profile._draw(gen, n, self.p)
        if not np.all((g > 0.0) & (g < np.inf)):
            raise DivergentError(f"length draw outside (0, inf) for {self.profile.family}")
        return g
