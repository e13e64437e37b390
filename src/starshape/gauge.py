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
``body_sample`` draws uniform points of the star body K = {g <= 1} for the
sup, l1, elliptical and polytope gauges.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb, gamma, log, log2
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

# Largest number of boundary simplices of K (McMullen's upper bound, from
# its vertex count) for which a polytope gauge triangulates K at p >= 3 to
# draw from it; above it its directions come from rejection.  The
# benchmark's p = 6 hexacube (151 vertices) has a bound of 5.4e5 and 6,254
# simplices; Qhull took 4.1 s and 194 MB for 2.1e5 simplices at p = 7, and
# over a minute for a random 30-facet polytope at p = 8.
MAX_BODY_SIMPLICES = 10**7

# Row blocks of the polytope score matrix and of the simplex gathers, so
# that neither holds a (10^6, m) or (n, p, p) array at once.
_VALUES_BLOCK = 1 << 16
_SIMPLEX_BLOCK = 1 << 15

# Tolerance of the check that a boundary simplex of K lies on a facet.
_FACET_ATOL = 1e-9

# Largest g^-p a gauge may reach on the unit sphere: the sphere integral,
# its Monte Carlo variance and sums over 2^20 points then stay finite.
_MAX_SPHERE_DENSITY = 1e150


@dataclass(frozen=True)
class SphereBounds:
    """Bounds on a gauge over the unit sphere, g_min <= g(u) <= g_max.

    Exact up to rounding for every gauge but the direction-derived one,
    which gets numeric bounds, padded so that ``g_min`` errs low and
    ``g_max`` high.  The direction sampler raises if a direction falls
    below ``g_min``, on which the exactness of rejection depends.
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
    _check_not_origin(x[None, :], "gauge functions are undefined at the origin")
    return x


def _as_batch(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of shape (n, {dim}), got {X.shape}"
        )
    _check_not_origin(X, "batch contains the origin")
    return X


def _check_not_origin(X: np.ndarray, message: str) -> None:
    """Raise ZeroVectorError if a row of X has norm below ZERO_NORM_EPS.

    Rows whose squares underflow are measured again scaled by
    :func:`_scaled_rows`, so (1e-200, 1e-200) is not the origin.
    """
    with np.errstate(over="ignore"):  # a norm past the double range is not zero
        norms = np.linalg.norm(X, axis=1)
    if X.shape[0] and norms.min() < ZERO_NORM_EPS:
        Y, e = _scaled_rows(X[norms < ZERO_NORM_EPS])
        if np.min(np.ldexp(np.linalg.norm(Y, axis=1), e - 1)) < ZERO_NORM_EPS:
            raise ZeroVectorError(message)


def _scaled_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y, e): each row x of X divided by 2^(e-1), e the binary exponent of
    its largest |x_i|, so that max|y_i| lies in [1, 2).  The division is
    exact, and no coordinate of Y is squared past the double range."""
    # Column by column: numpy's reduction along a short axis 1 is far slower.
    _, e = np.frexp(reduce(np.maximum, np.abs(X).T))
    return np.ldexp(X, 1 - e[:, None]), e


def _check_value_range(p: int, log_g_min: float, log_g_max: float, what: str) -> None:
    """Raise ConfigError unless g is finite on the unit sphere and g^-p stays
    below _MAX_SPHERE_DENSITY there; works on logs, so nothing overflows."""
    if log_g_max >= log(np.finfo(float).max) or -p * log_g_min > log(_MAX_SPHERE_DENSITY):
        raise ConfigError(f"{what} put the gauge values out of the double range")


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
    #: document fields, each a constructor argument and an attribute
    params: tuple[str, ...] = ()

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError("gauge dimension must be >= 1")
        self.dim = int(dim)

    # -- evaluation -------------------------------------------------------

    @abstractmethod
    def values(self, X) -> np.ndarray:
        """Gauge values for a batch of points, shape (n, p) -> (n,)."""

    def body_sample(self, gen: np.random.Generator, n: int) -> np.ndarray | None:
        """n uniform points of the star body K = {g <= 1}, shape (n, p).

        None for tabulated and direction-derived gauges, and for polytopes
        whose triangulation is capped or fails; rejection draws theirs.
        """
        return None

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

    @abstractmethod
    def sphere_bounds(self) -> SphereBounds:
        """Bounds on g over the unit sphere."""

    def kink_angles(self) -> np.ndarray:
        """Angles (p=2 only) where g restricted to the circle is not C^1.

        Quadrature on the circle aligns panel boundaries to these angles.
        Smooth gauges return an empty array.
        """
        return np.empty(0)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready descriptor {"dim":..., "variant":..., "params":...}."""
        params = {k: getattr(self, k).tolist() for k in self.params}
        return {"dim": self.dim, "variant": self.variant, "params": params}


class EllipticalGauge(Gauge):
    """g(x) = sqrt(x' Sigma^-1 x) for a symmetric positive-definite Sigma."""

    variant = "elliptical"
    params = ("sigma",)

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if not np.isfinite(sigma).all():
            raise ConfigError("sigma entries must be finite")
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionMismatchError("sigma must be a square matrix")
        super().__init__(sigma.shape[0])
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * max(1.0, np.max(np.abs(sigma))):
            raise NonPositiveError("sigma must be symmetric")
        eigvals = np.linalg.eigvalsh(sigma)
        if not eigvals[0] > 0.0:
            raise NonPositiveError("sigma must be positive definite")
        what = f"sigma eigenvalues in [{eigvals[0]:.3g}, {eigvals[-1]:.3g}]"
        _check_value_range(self.dim, -0.5 * log(eigvals[-1]), -0.5 * log(eigvals[0]), what)
        self.sigma = 0.5 * (sigma + sigma.T)
        self.sigma_inv = np.linalg.inv(self.sigma)
        if not np.isfinite(self.sigma_inv).all():
            raise ConfigError(f"{what} put sigma's inverse out of the double range")
        self._eigvals = eigvals

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        return np.sqrt(np.einsum("ij,jk,ik->i", X, self.sigma_inv, X))

    def _gradients(self, X, strict):
        return (X @ self.sigma_inv.T) / self.values(X)[:, None]

    def body_sample(self, gen, n):
        # A uniform ball point times the Cholesky factor L: x' Sigma^-1 x = |y|^2.
        Y = _rng.uniform_sphere(gen, n, self.dim) * gen.random((n, 1)) ** (1.0 / self.dim)
        return Y @ np.linalg.cholesky(self.sigma).T

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(
            float(self._eigvals[-1] ** -0.5), float(self._eigvals[0] ** -0.5)
        )


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

    def body_sample(self, gen, n):
        return gen.uniform(-1.0, 1.0, (n, self.dim))

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(self.dim ** -0.5, 1.0)

    def kink_angles(self) -> np.ndarray:
        if self.dim != 2:
            return np.empty(0)
        return np.pi / 4.0 + np.arange(4) * np.pi / 2.0


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

    def body_sample(self, gen, n):
        # Random signs on Dirichlet(1, ..., 1) weights (Devroye 1986).
        E = gen.standard_exponential((n, self.dim + 1))
        W = E[:, 1:] / E.sum(axis=1, keepdims=True)
        return np.where(gen.integers(0, 2, (n, self.dim), dtype=bool), -W, W)

    def sphere_bounds(self) -> SphereBounds:
        return SphereBounds(1.0, self.dim ** 0.5)

    def kink_angles(self) -> np.ndarray:
        if self.dim != 2:
            return np.empty(0)
        return np.arange(4) * np.pi / 2.0


class PolytopeGauge(Gauge):
    """g(x) = max_j <a_j, x> for outward facet functionals a_j.

    The polytope {g <= 1} must contain the origin strictly inside, i.e.
    max_j <a_j, u> > 0 for every direction u.  The check and the sphere
    bounds are exact at every p: g_max = max_j |a_j| and g_min is the
    distance from the origin to the nearest facet of conv{a_j}, from the
    monotone chain at p = 2 (:func:`_hull_geometry`), from Qhull above.
    The edges or facets of that polar hull give the vertices of K, whose
    triangulated boundary ``body_sample`` draws from.
    """

    variant = "polytope"
    params = ("facets",)

    def __init__(self, facets):
        A = np.asarray(facets, dtype=float)
        if not np.isfinite(A).all():
            raise ConfigError("facet entries must be finite")
        if A.ndim != 2 or A.shape[0] < 2:
            raise DimensionMismatchError("facets must be an (m, p) array, m >= 2")
        super().__init__(A.shape[1])
        self.facets = A
        self._kinks = np.empty(0)
        self._vertices = None  # of sK, s below
        # The hull is built on A/s, s a power of two near max|a_ij|, so that
        # its arithmetic stays in range; g scales by s exactly.
        top = float(np.max(np.abs(A)))
        s = 2.0 ** min(round(log2(top)), 1023) if 0.0 < top < np.inf else 1.0
        if self.dim == 1:
            g_min = float(min(A.max(), -A.min()))
        elif self.dim == 2:
            self._kinks, g_min, self._vertices = _hull_geometry(A / s)
            g_min *= s
        else:
            # Qhull costs 0.1 s of import, so planar gauges keep the chain.
            from scipy.spatial import ConvexHull, QhullError

            try:
                polar = ConvexHull(A / s).equations
                g_min = s * float(np.min(-polar[:, -1]))
            except QhullError:  # the facet points lie in a hyperplane
                g_min = 0.0
        if not g_min > 0.0:
            raise NonPositiveError("gauge is not positive on the unit sphere")
        if self.dim > 2:
            # Each facet n.y = -b of conv{a_j / s} is the vertex n/b of sK.
            self._vertices = np.unique(polar[:, :-1] / -polar[:, -1:], axis=0)
        g_max = s * float(np.linalg.norm(A / s, axis=1).max())
        self._scale = s
        what = f"facets giving g in [{g_min:.3g}, {g_max:.3g}]"
        _check_value_range(self.dim, log(g_min), log(g_max), what)
        self._bounds = SphereBounds(g_min, g_max)

    def values(self, X) -> np.ndarray:
        X = _as_batch(X, self.dim)
        out = np.empty(len(X))
        for i in range(0, len(X), _VALUES_BLOCK):
            out[i : i + _VALUES_BLOCK] = (self.facets @ X[i : i + _VALUES_BLOCK].T).max(axis=0)
        return out

    def _gradients(self, X, strict):
        return self.facets[_active_facets(X @ self.facets.T, strict, 1.0, "polytope")]

    def body_sample(self, gen, n):
        # K is the union of the cones conv{0, S} over its boundary simplices
        # S: pick one with probability proportional to its volume |det S|,
        # then a uniform point sum_i E_i v_i / sum_0..p E_j (Devroye 1986).
        if self._cones is None:
            return None
        V, simplices, cum = self._cones
        pick = np.searchsorted(cum, gen.random(n) * cum[-1], side="right")
        pick = np.minimum(pick, len(cum) - 1)  # u * cum[-1] may round up to cum[-1]
        E = gen.standard_exponential((n, self.dim + 1))
        X = np.empty((n, self.dim))
        for i in range(0, n, _SIMPLEX_BLOCK):
            b = slice(i, i + _SIMPLEX_BLOCK)
            X[b] = np.einsum("ni,nij->nj", E[b, 1:], V[simplices[pick[b]]])
        X /= E.sum(axis=1, keepdims=True)
        return X

    @cached_property
    def _cones(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(V, simplices, cumulative |det|) of K's triangulated boundary.

        At p = 2 the boundary is the cycle of K's vertices from the chain;
        above, Qhull triangulates them on the first draw.  None at p = 1,
        above MAX_BODY_SIMPLICES, or when the triangulation fails its checks.
        """
        # The vertices and the volumes are taken on sK, whose determinants
        # stay in the double range; the vertices of K are those over s.
        W = self._vertices
        if W is None:
            return None
        if self.dim == 2:
            cycle = np.arange(len(W))
            simplices = np.column_stack([cycle, np.roll(cycle, -1)])
        elif _max_boundary_simplices(len(W), self.dim) > MAX_BODY_SIMPLICES:
            return None
        else:
            from scipy.spatial import ConvexHull, QhullError

            try:
                simplices = ConvexHull(W).simplices
            except QhullError:
                return None
        V = W / self._scale
        # Each simplex must lie on one facet of K: all its vertices at
        # <a_j, v> >= 1 - 1e-9 for one j.
        scores = V @ self.facets.T
        dets = []
        for i in range(0, len(simplices), _SIMPLEX_BLOCK):
            block = simplices[i : i + _SIMPLEX_BLOCK]
            if np.any(scores[block].min(axis=1).max(axis=1) < 1.0 - _FACET_ATOL):
                return None
            dets.append(np.abs(np.linalg.det(W[block])))
        if not _ridges_pair_up(simplices):
            return None
        return V, simplices, np.cumsum(np.concatenate(dets))

    def sphere_bounds(self) -> SphereBounds:
        return self._bounds

    def kink_angles(self) -> np.ndarray:
        return self._kinks


def _max_boundary_simplices(v: int, p: int) -> int:
    """McMullen's bound on the facets of a simplicial p-polytope with v
    vertices (Mathematika 1970), met by the cyclic polytope."""
    k = p // 2
    if p % 2:
        return 2 * comb(v - k - 1, k)
    return comb(v - k, k) + comb(v - k - 1, k - 1)


def _ridges_pair_up(simplices: np.ndarray) -> bool:
    """Whether every ridge of the (k, p) simplices is shared by exactly two,
    as in a triangulated closed surface."""
    s = np.sort(simplices, axis=1)
    ridges = np.concatenate([np.delete(s, i, axis=1) for i in range(s.shape[1])])
    _, counts = np.unique(ridges, axis=0, return_counts=True)
    return bool(np.all(counts == 2))


def _hull_geometry(A: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Kink angles, g_min and the vertices of K of g(u) = max_j <a_j, u>, p = 2.

    Andrew's monotone chain builds the hull of the a_j counterclockwise,
    collinear points dropped.  g switches facets at the outward edge
    normals, where it equals the edge lines' distances from the origin (its
    local minima).  Raises :class:`NonPositiveError` unless every distance is
    positive (two vertices give d and -d): the origin is inside the hull.
    Edge i lies on the line n.y = cross_i, n its outward normal, so n/cross_i
    is the vertex of K = {g <= 1} polar to it, counterclockwise in i.
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
    normals = np.column_stack([E[:, 1], -E[:, 0]])
    return kinks, float(np.min(cross / np.linalg.norm(E, axis=1))), normals / cross[:, None]


class TabulatedRadialGauge(Gauge):
    """Planar gauge given by tabulated boundary radii r_k at angles t_k.

    The cross section point at angle t is r(t)(cos t, sin t) with r linear
    in angle between the tabulated nodes (periodic), so g(x) = |x| / r(t).
    Restricted to p = 2; general-p tabulation would need a sphere mesh.
    Piecewise-C^1 smoothness between nodes is assumed, not verified.
    """

    variant = "tabulated"
    params = ("angles", "radii")

    def __init__(self, angles, radii):
        super().__init__(2)
        angles = np.asarray(angles, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if angles.ndim != 1 or angles.shape != radii.shape or angles.size < 3:
            raise DimensionMismatchError("angles and radii must be equal-length 1-D")
        increasing = np.isfinite(angles).all() and np.all(np.diff(angles) > 0)  # no inf - inf
        if not (increasing and 0 <= angles[0] and angles[-1] < 2 * np.pi):
            raise NonPositiveError("angles must be strictly increasing in [0, 2pi)")
        if not np.all((radii > 0) & (radii < np.inf)):
            raise NonPositiveError("tabulated radii must be positive and finite")
        _check_value_range(
            2, -log(radii.max()), -log(radii.min()),
            f"tabulated radii in [{radii.min():.3g}, {radii.max():.3g}]",
        )
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

    def sphere_bounds(self) -> SphereBounds:
        """Numeric bounds, padded so that g_min errs low and g_max high."""
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
        return SphereBounds(g_min, g_max)

    def to_dict(self) -> dict:
        raise NotADensityError(
            "direction-derived gauges hold a function handle and do not serialize"
        )


def sphere_surface(p: int) -> float:
    """Surface measure of the unit sphere in R^p, 2 pi^(p/2) / Gamma(p/2)."""
    return float(2.0 * np.pi ** (p / 2.0) / gamma(p / 2.0))
