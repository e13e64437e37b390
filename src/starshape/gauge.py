"""Gauge (length) functions on R^p minus the origin.

A gauge is a positive, positively homogeneous degree-1 function g; its unit
level set {g = 1} is a cross section meeting every ray from the origin
exactly once.  Scaling a point moves it along its ray, g moves with it
(g(cx) = c g(x)), and x/g(x) is the scale-invariant part.  The gauges here
come in six flavors:

* ``EllipticalGauge``   g(x) = sqrt(x' Sigma^-1 x), ellipsoidal contours
* ``SupNormGauge``      g(x) = max_i |x_i|, hypercube contours
* ``L1NormGauge``       g(x) = sum_i |x_i|, crosspolytope contours
* ``PolytopeGauge``     g(x) = max_j <a_j, x>, general polytope contours
* ``TabulatedRadialGauge``  p=2 only, boundary radius tabulated in angle
* ``DirectionDerivedGauge`` built from a target direction density, see
  :func:`starshape.direction.gauge_from_direction_density`

Batches (shape ``(n, p)``) go through ``values`` / ``gradients``, each
written once per variant; the single-point forms ``value`` / ``gradient``
(shape ``(p,)``) validate their point and index the batch result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonPositiveError,
    NonSmoothPointError,
    NotADensityError,
    ZeroVectorError,
)

# Points with Euclidean norm below this are treated as the origin.  The
# threshold is a denormal guard, not an exact-zero test.
ZERO_NORM_EPS = 1e-300

# Relative gap below which two competing facets count as tied.
RIDGE_TIE_RTOL = 1e-9

# Step factor for central finite differences on tabulated/derived gauges.
FD_STEP = 1e-6


@dataclass(frozen=True)
class SphereBounds:
    """Bounds on a gauge over the unit sphere, g_min <= g(u) <= g_max.

    Exact up to rounding for the sup, l1, elliptical and tabulated gauges
    and for polytopes at p = 2.  Polytopes at p >= 3 and direction-derived
    gauges get numeric bounds, padded so that ``g_min`` errs low and
    ``g_max`` high; the direction samplers raise if a proposal falls below
    ``g_min``, on which their exactness depends.
    """

    g_min: float
    g_max: float

    def __post_init__(self):
        if not (0.0 < self.g_min <= self.g_max < np.inf):
            raise NonPositiveError(
                f"invalid sphere bounds ({self.g_min}, {self.g_max})"
            )


def _as_point(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(
            f"expected a point of dimension {dim}, got shape {x.shape}"
        )
    if np.linalg.norm(x) < ZERO_NORM_EPS:
        raise ZeroVectorError("gauge functions are undefined at the origin")
    return x


def _as_batch(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of shape (n, {dim}), got {X.shape}"
        )
    if X.shape[0] and np.min(np.linalg.norm(X, axis=1)) < ZERO_NORM_EPS:
        raise ZeroVectorError("batch contains the origin")
    return X


def unit_angles(theta) -> np.ndarray:
    """Unit vectors (cos t, sin t) for an array of angles, shape (n, 2)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _active_facets(scores: np.ndarray, strict: bool, floor: float, shape: str) -> np.ndarray:
    """Row-wise index of the largest score, ties going to the lowest index.

    With ``strict``, raises :class:`NonSmoothPointError` if any row's top two
    scores are within ``RIDGE_TIE_RTOL * max(floor, |top|)``.
    """
    j = np.argmax(scores, axis=1)
    if strict and scores.shape[1] > 1:
        top = scores[np.arange(len(scores)), j]
        second = np.partition(scores, -2, axis=1)[:, -2]
        if np.any(top - second <= RIDGE_TIE_RTOL * np.maximum(floor, np.abs(top))):
            raise NonSmoothPointError(f"point lies on a {shape} ridge")
    return j


class Gauge(ABC):
    """Positively homogeneous degree-1 positive function on R^p - {0}."""

    #: short lowercase tag used in the JSON schema
    variant: str

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError("gauge dimension must be >= 1")
        self.dim = int(dim)

    # -- evaluation -------------------------------------------------------

    @abstractmethod
    def values(self, X) -> np.ndarray:
        """Gauge values for a batch of points, shape (n, p) -> (n,)."""

    def value(self, x) -> float:
        """Gauge value at a single point."""
        x = _as_point(x, self.dim)
        return float(self.values(x[None, :])[0])

    __call__ = value

    # -- geometry ---------------------------------------------------------

    def gradients(self, X, strict: bool = False) -> np.ndarray:
        """Gradients of g at a batch of points, shape (n, p) -> (n, p).

        With ``strict=True``, a row at a facet ridge (two competing facets
        within a relative gap of 1e-9) raises :class:`NonSmoothPointError`;
        otherwise the lowest-index active facet wins.  Ridges are null sets
        for every continuous distribution involved, so the tie-break is
        statistically inert.
        """
        return self._gradients(_as_batch(X, self.dim), strict)

    def gradient(self, x, strict: bool = False) -> np.ndarray:
        """Gradient of g at a single point; see :meth:`gradients`."""
        return self.gradients(_as_point(x, self.dim)[None, :], strict)[0]

    def _gradients(self, X: np.ndarray, strict: bool) -> np.ndarray:
        # Central differences, for gauges without a closed-form gradient.
        n, p = X.shape
        h = FD_STEP * np.maximum(1.0, np.linalg.norm(X, axis=1))
        probes = np.repeat(X[:, None, :], 2 * p, axis=1)
        axes = np.arange(p)
        probes[:, 2 * axes, axes] += h[:, None]
        probes[:, 2 * axes + 1, axes] -= h[:, None]
        vals = self.values(probes.reshape(-1, p)).reshape(n, 2 * p)
        return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h[:, None])

    def cross_section_point(self, x) -> np.ndarray:
        """Projection z = x / g(x) onto the unit cross section {g = 1}."""
        x = _as_point(x, self.dim)
        return x / float(self.values(x[None, :])[0])

    def sphere_bounds(self) -> SphereBounds:
        """Conservative bounds on g over the unit sphere."""
        return self._numeric_sphere_bounds()

    def kink_angles(self) -> np.ndarray:
        """Angles (p=2 only) where g restricted to the circle is not C^1.

        Quadrature on the circle aligns panel boundaries to these angles.
        Smooth gauges return an empty array.
        """
        return np.empty(0)

    # -- helpers ----------------------------------------------------------

    def _numeric_sphere_bounds(self) -> SphereBounds:
        if self.dim == 2:
            theta = np.linspace(0.0, 2.0 * np.pi, 8193)
            vals = self.values(unit_angles(theta))
            lo, hi = float(vals.min()), float(vals.max())
            slack = float(np.max(np.abs(np.diff(vals))))
            g_min = max(lo - 10.0 * slack, 0.5 * lo)
            g_max = hi + 10.0 * slack
        else:
            U = _rng.uniform_sphere(_rng.stream(0, 901), 200_000, self.dim)
            vals = self.values(U)
            lo, hi = float(vals.min()), float(vals.max())
            pad = 0.1 * (hi - lo)
            g_min = max(lo - pad, 0.5 * lo)
            g_max = hi + pad
        if lo <= 0.0:
            raise NonPositiveError("gauge is not positive on the unit sphere")
        return SphereBounds(g_min, g_max)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready descriptor {"dim":..., "variant":..., "params":...}."""
        return {"dim": self.dim, "variant": self.variant, "params": self._params()}

    @abstractmethod
    def _params(self) -> dict:
        ...


class EllipticalGauge(Gauge):
    """g(x) = sqrt(x' Sigma^-1 x) for a symmetric positive-definite Sigma."""

    variant = "elliptical"

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionMismatchError("sigma must be a square matrix")
        super().__init__(sigma.shape[0])
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * max(1.0, np.max(np.abs(sigma))):
            raise NonPositiveError("sigma must be symmetric")
        eigvals = np.linalg.eigvalsh(sigma)
        if eigvals[0] <= 0.0:
            raise NonPositiveError("sigma must be positive definite")
        self.sigma = 0.5 * (sigma + sigma.T)
        self.sigma_inv = np.linalg.inv(self.sigma)
        self._eigvals = eigvals

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        return np.sqrt(np.einsum("ij,jk,ik->i", X, self.sigma_inv, X))

    def _gradients(self, X, strict):
        return (X @ self.sigma_inv.T) / self.values(X)[:, None]

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(
            float(self._eigvals[-1] ** -0.5), float(self._eigvals[0] ** -0.5)
        )

    def _params(self):
        return {"sigma": self.sigma.tolist()}


class SupNormGauge(Gauge):
    """g(x) = max_i |x_i|; unit cross section is the hypercube boundary."""

    variant = "sup"

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        return np.max(np.abs(X), axis=1)

    def _gradients(self, X, strict):
        j = _active_facets(np.abs(X), strict, 0.0, "hypercube")
        rows = np.arange(len(X))
        grad = np.zeros_like(X)
        grad[rows, j] = np.where(X[rows, j] >= 0, 1.0, -1.0)
        return grad

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(self.dim ** -0.5, 1.0)

    def kink_angles(self) -> np.ndarray:
        if self.dim != 2:
            return np.empty(0)
        return np.pi / 4.0 + np.arange(4) * np.pi / 2.0

    def _params(self):
        return {}


class L1NormGauge(Gauge):
    """g(x) = sum_i |x_i|; unit cross section is the crosspolytope boundary."""

    variant = "l1"

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        return np.sum(np.abs(X), axis=1)

    def _gradients(self, X, strict):
        if strict:
            a = np.abs(X)
            if np.any(a.min(axis=1) <= RIDGE_TIE_RTOL * a.max(axis=1)):
                raise NonSmoothPointError("point lies on a crosspolytope ridge")
        return np.where(X >= 0, 1.0, -1.0)

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(1.0, self.dim ** 0.5)

    def kink_angles(self) -> np.ndarray:
        if self.dim != 2:
            return np.empty(0)
        return np.arange(4) * np.pi / 2.0

    def _params(self):
        return {}


class PolytopeGauge(Gauge):
    """g(x) = max_j <a_j, x> for outward facet functionals a_j.

    The polytope {g <= 1} must contain the origin strictly inside, i.e.
    max_j <a_j, u> > 0 for every direction u.  The check and the sphere
    bounds are exact at p = 2 (:func:`_hull_geometry`), numeric at p >= 3.
    """

    variant = "polytope"

    def __init__(self, facets):
        A = np.asarray(facets, dtype=float)
        if A.ndim != 2 or A.shape[0] < 2:
            raise DimensionMismatchError("facets must be an (m, p) array, m >= 2")
        super().__init__(A.shape[1])
        self.facets = A
        if self.dim == 2:
            self._kinks, g_min = _hull_geometry(A)
            self._bounds = SphereBounds(g_min, float(np.linalg.norm(A, axis=1).max()))
        else:
            self._kinks = np.empty(0)
            self._bounds = self._numeric_sphere_bounds()  # raises if g <= 0 somewhere

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        return np.max(X @ self.facets.T, axis=1)

    def _gradients(self, X, strict):
        return self.facets[_active_facets(X @ self.facets.T, strict, 1.0, "polytope")]

    def sphere_bounds(self) -> SphereBounds:
        return self._bounds

    def kink_angles(self) -> np.ndarray:
        return self._kinks

    def _params(self):
        return {"facets": self.facets.tolist()}


def _hull_geometry(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Kink angles and g_min of the planar support function max_j <a_j, u>.

    Andrew's monotone chain builds the hull of the a_j counterclockwise,
    collinear points dropped.  g switches facets at the outward edge
    normals, where it equals the edge lines' distances from the origin (its
    local minima).  Raises :class:`NonPositiveError` unless every distance is
    positive (two vertices give d and -d): the origin is inside the hull.
    """
    pts = A[np.lexsort((A[:, 1], A[:, 0]))].tolist()
    hull: list[list[float]] = []
    for chain in (pts, pts[::-1]):
        start = len(hull)
        for x, y in chain:
            while len(hull) - start >= 2:
                (ax, ay), (bx, by) = hull[-2:]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0:
                    break
                hull.pop()
            hull.append([x, y])
        hull.pop()
    V = np.array(hull)
    E = np.roll(V, -1, axis=0) - V
    cross = V[:, 0] * E[:, 1] - V[:, 1] * E[:, 0]
    if cross.min() <= 0.0:
        raise NonPositiveError("gauge is not positive on the unit sphere")
    kinks = np.unique(np.mod(np.arctan2(-E[:, 0], E[:, 1]), 2.0 * np.pi))
    return kinks, float(np.min(cross / np.linalg.norm(E, axis=1)))


class TabulatedRadialGauge(Gauge):
    """Planar gauge given by tabulated boundary radii r_k at angles t_k.

    The cross section point at angle t is r(t)(cos t, sin t) with r linear
    in angle between the tabulated nodes (periodic), so g(x) = |x| / r(t).
    Restricted to p = 2; general-p tabulation would need a sphere mesh.
    Piecewise-C^1 smoothness between nodes is assumed, not verified.
    """

    variant = "tabulated"

    def __init__(self, angles, radii):
        super().__init__(2)
        angles = np.asarray(angles, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if angles.ndim != 1 or angles.shape != radii.shape or angles.size < 3:
            raise DimensionMismatchError("angles and radii must be equal-length 1-D")
        if np.any(np.diff(angles) <= 0) or angles[0] < 0 or angles[-1] >= 2 * np.pi:
            raise NonPositiveError("angles must be strictly increasing in [0, 2pi)")
        if np.any(radii <= 0):
            raise NonPositiveError("tabulated radii must be positive")
        self.angles = angles
        self.radii = radii
        self._ang_ext = np.concatenate([angles, [angles[0] + 2.0 * np.pi]])
        self._rad_ext = np.concatenate([radii, [radii[0]]])

    def _radius(self, theta: np.ndarray) -> np.ndarray:
        # Wrap into [angles[0], angles[0] + 2pi) before interpolating.
        t = np.mod(theta - self.angles[0], 2.0 * np.pi) + self.angles[0]
        return np.interp(t, self._ang_ext, self._rad_ext)

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        theta = np.arctan2(X[:, 1], X[:, 0])
        return np.linalg.norm(X, axis=1) / self._radius(theta)

    def sphere_bounds(self) -> SphereBounds:
        # Piecewise-linear r attains its extremes at the nodes.
        return SphereBounds(float(1.0 / self.radii.max()), float(1.0 / self.radii.min()))

    def kink_angles(self) -> np.ndarray:
        return np.mod(self.angles, 2.0 * np.pi)

    def _params(self):
        return {"angles": self.angles.tolist(), "radii": self.radii.tolist()}


class DirectionDerivedGauge(Gauge):
    """Gauge realizing a prescribed direction density.

    For a density f on the unit sphere, g(x) = |x| f(x/|x|)^(-1/p) makes the
    direction of a star-shaped sample with this gauge distributed exactly as
    f, whatever the radial profile.  Build through
    :func:`starshape.direction.gauge_from_direction_density`, which checks
    that f integrates to 1; ``values`` checks that it is positive.
    """

    variant = "direction-derived"

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], dim: int):
        super().__init__(dim)
        self.density = density

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        norms = np.linalg.norm(X, axis=1)
        f = np.asarray(self.density(X / norms[:, None]), dtype=float)
        if not np.all(f > 0.0):
            raise NonPositiveError("direction density must be positive")
        return norms * f ** (-1.0 / self.dim)

    def _params(self):
        raise NotADensityError(
            "direction-derived gauges hold a function handle and do not serialize"
        )


def sphere_surface(p: int) -> float:
    """Surface measure of the unit sphere in R^p, 2 pi^(p/2) / Gamma(p/2)."""
    from scipy.special import gamma

    return float(2.0 * np.pi ** (p / 2.0) / gamma(p / 2.0))


# -- JSON (de)serialization ------------------------------------------------

# variant -> (factory(dim, **params), required params)
_VARIANTS = {
    "elliptical": (lambda dim, sigma: EllipticalGauge(sigma), ["sigma"]),
    "sup": (SupNormGauge, []),
    "l1": (L1NormGauge, []),
    "polytope": (lambda dim, facets: PolytopeGauge(facets), ["facets"]),
    "tabulated": (
        lambda dim, angles, radii: TabulatedRadialGauge(angles, radii),
        ["angles", "radii"],
    ),
}


def gauge_from_dict(obj: dict) -> Gauge:
    """Rebuild a gauge from its JSON descriptor, rejecting unknown fields."""
    if not isinstance(obj, dict):
        raise ConfigError("gauge: expected a JSON object")
    unknown = set(obj) - {"dim", "variant", "params"}
    if unknown:
        raise ConfigError(f"gauge: unknown field '{sorted(unknown)[0]}'")
    for field in ("dim", "variant"):
        if field not in obj:
            raise ConfigError(f"gauge: missing field '{field}'")
    dim = obj["dim"]
    variant = obj["variant"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("gauge.params: expected a JSON object")
    if variant not in _VARIANTS:
        raise ConfigError(f"gauge.variant: unknown variant '{variant}'")

    factory, keys = _VARIANTS[variant]
    try:
        unknown = set(params) - set(keys)
        if unknown:
            raise ConfigError(f"gauge.params: unknown field '{sorted(unknown)[0]}'")
        for k in keys:
            if k not in params:
                raise ConfigError(f"gauge.params: missing field '{k}'")
        g = factory(dim, **params)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"gauge.params: {exc}") from exc
    if g.dim != dim:
        raise ConfigError(
            f"gauge.dim: declared {dim} but params imply {g.dim}"
        )
    return g
