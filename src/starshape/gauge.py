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
sup, l1, elliptical and polytope gauges.  A polytope gauge reads its sphere
bounds, its kinks and K's vertices off one convex hull of its facet
functionals, built by :func:`_convex_hull` at every p >= 2.
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
# its vertex count) for which a polytope gauge triangulates K to draw from
# it; above it its directions come from rejection.  The benchmark's p = 6
# hexacube (154 vertices) has a bound of 5.7e5 and 4,711 simplices.  On a
# 2-vCPU x86 container, _convex_hull took 0.8 s for the 34,050 simplices
# of a 7-cube with six corner cuts (315 vertices, bound 9.9e6) and 1.5 s
# for the 57,916 of a random 15-facet polytope at p = 7 (266 vertices,
# bound 5.9e6), with 44 and 52 MB of peak allocation.
MAX_BODY_SIMPLICES = 10**7

# A point more than this times the largest |x_i| of a convex hull's points
# above one of its facet planes sees that facet; one nearer lies on it.
_HULL_RTOL = 1e-10

# Row blocks of the polytope score matrix and of the simplex gathers, so
# that neither holds a (10^6, m) or (n, p, p) array at once.  The score
# blocks are a quarter of a Monte Carlo block: with (m, 2^16) ones, the
# benchmark's p = 6 `constant` (m = 18, two blocks at a time) peaked at
# 71-80 MB RSS on a 2-vCPU x86 container, and with (m, 2^14) at 57-59 MB.
_VALUES_BLOCK = 1 << 14
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
        norms = _rng.row_norms(X)
    if X.shape[0] and norms.min() < ZERO_NORM_EPS:
        Y, e = _scaled_rows(X[norms < ZERO_NORM_EPS])
        if np.min(np.ldexp(_rng.row_norms(Y), e - 1)) < ZERO_NORM_EPS:
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
        # Central differences, for gauges without a closed-form gradient.  The
        # gradient is 0-homogeneous, so they are taken at x/|x|: a step of
        # FD_STEP there reaches FD_STEP radians across, whatever |x|.
        n, p = X.shape
        U, _ = _scaled_rows(X)
        U /= _rng.row_norms(U)[:, None]
        probes = np.repeat(U[:, None, :], 2 * p, axis=1)
        axes = np.arange(p)
        probes[:, 2 * axes, axes] += FD_STEP
        probes[:, 2 * axes + 1, axes] -= FD_STEP
        vals = self.values(probes.reshape(-1, p)).reshape(n, 2 * p)
        return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * FD_STEP)

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
        return np.sqrt(np.einsum("ij,ij->i", X @ self.sigma_inv, X))

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
    incremental hull of :func:`_convex_hull` at every p >= 2.  The faces of
    that polar hull give the vertices of K (and at p = 2 the kinks, the
    rays through them), whose triangulated boundary ``body_sample`` draws
    from.
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
        else:
            polar = _convex_hull(A / s)
            # None: the facet points lie in a hyperplane, or the hull failed
            # its checks.
            g_min = 0.0 if polar is None else s * float(polar[2].min())
        if not g_min > 0.0:
            raise NonPositiveError("gauge is not positive on the unit sphere")
        if self.dim > 1:
            # Each face n.y = b of conv{a_j / s} is the vertex n/b of sK.  A
            # face split into several simplices is known by the points on it.
            # The incidences come in row blocks of 2^20 scores.
            _, N, B = polar
            As, step = A / s, max(1, (1 << 20) // len(N))
            tol = _HULL_RTOL * np.abs(As).max()
            on = np.vstack([np.abs(As[i : i + step] @ N.T - B) <= tol
                            for i in range(0, len(As), step)])
            _, first = np.unique(on.T, axis=0, return_index=True)
            self._vertices = N[first] / B[first, None]
        if self.dim == 2:
            # g switches facets on the rays through K's vertices.
            self._kinks = np.unique(np.mod(np.arctan2(N[first, 1], N[first, 0]), 2.0 * np.pi))
        g_max = s * float(_rng.row_norms(A / s).max())
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

        :func:`_convex_hull` triangulates K's vertices on the first draw.
        None at p = 1, above MAX_BODY_SIMPLICES, or when the triangulation
        fails its checks.
        """
        # The vertices and the volumes are taken on sK, whose determinants
        # stay in the double range; the vertices of K are those over s.
        W = self._vertices
        if W is None or _max_boundary_simplices(len(W), self.dim) > MAX_BODY_SIMPLICES:
            return None
        hull = _convex_hull(W)
        if hull is None:
            return None
        simplices = hull[0]
        V = W / self._scale
        # Each simplex must lie on one facet of K: all its vertices at
        # <a_j, v> >= 1 - 1e-9 for one j.  The scores and the gathers of
        # their incidences come in blocks of 2^20, however many facets.
        m, p = self.facets.shape
        on = np.empty((len(V), m), dtype=bool)
        step = max(1, (1 << 20) // m)
        for i in range(0, len(V), step):
            on[i : i + step] = V[i : i + step] @ self.facets.T >= 1.0 - _FACET_ATOL
        step = max(1, (1 << 20) // (p * m))
        dets = []
        for i in range(0, len(simplices), step):
            block = simplices[i : i + step]
            if not on[block].all(axis=1).any(axis=1).all():
                return None
            dets.append(np.abs(np.linalg.det(W[block])))
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


def _ridges_pair_up(simplices: np.ndarray, up: np.ndarray) -> bool:
    """Whether the (k, p) simplices form an oriented closed surface: every
    ridge shared by exactly two, which induce opposite orientations on it.
    ``up`` is each simplex's orientation in its own vertex order."""
    order = np.argsort(simplices, axis=1)
    s = np.take_along_axis(simplices, order, axis=1)
    p = s.shape[1]
    # Sorting a row by an odd permutation reverses its orientation, and its
    # ridge without vertex i has the row's orientation times (-1)^i.
    odd = sum(np.sum(order[:, i, None] > order[:, i + 1 :], axis=1) for i in range(p)) % 2 == 1
    R = np.concatenate([np.delete(s, i, axis=1) for i in range(p)])
    o = np.concatenate([up ^ odd ^ bool(i % 2) for i in range(p)])
    order = np.lexsort(R.T)
    R, o = R[order], o[order]
    # Sorted, the rows pair up iff rows 2k and 2k + 1 are equal and differ
    # from row 2k + 2.
    return bool(len(R) % 2 == 0 and np.all(R[0::2] == R[1::2])
                and np.all(np.any(R[2::2] != R[1:-1:2], axis=1)) and np.all(o[0::2] != o[1::2]))


def _convex_hull(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(simplices, N, B) of the convex hull of the rows of X, p >= 2: its
    boundary triangulated into simplices of row indices, each on the plane
    n.y = b of its unit outward normal n.  None if the rows lie in a
    hyperplane, or if the hull fails its checks: every row lies under every
    plane within the hull's tolerance, and the simplices, each oriented by
    its outward normal, make a closed surface with no fold.
    """
    tol = _HULL_RTOL * float(np.abs(X).max())
    hull = _beneath_beyond(X, tol)
    if hull is None:
        return None
    S, N, B = hull
    up = np.empty(len(S), dtype=bool)
    step = max(1, (1 << 20) // len(X))
    for i in range(0, len(S), step):
        b = slice(i, i + step)
        if np.max(X @ N[b].T - B[b]) > tol:
            return None
        # Whether the edges from the first vertex, then n, are right-handed.
        P = X[S[b]]
        up[b] = np.linalg.det(np.concatenate([P[:, 1:] - P[:, :1], N[b, None]], axis=1)) > 0.0
    return hull if _ridges_pair_up(S, up) else None


def _beneath_beyond(
    X: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The incremental hull of :func:`_convex_hull` (Clarkson & Shor 1989).

    It starts from a greedy simplex of X and adds the other rows farthest
    first.  A row more than ``tol`` above some facet planes replaces those
    facets by the cone from it over their horizon: the ridges that only one
    of them has.  Rows nearer a plane than ``tol`` count as on it, so the
    coplanar facets of a polytope come out triangulated.
    """
    n, p = X.shape
    chosen = [int(np.argmax(np.linalg.norm(X - X.mean(axis=0), axis=1)))]
    basis = np.empty((0, p))
    for _ in range(p):
        D = X - X[chosen[0]]
        D -= (D @ basis.T) @ basis
        dist = np.linalg.norm(D, axis=1)
        j = int(np.argmax(dist))
        if not dist[j] > tol:
            return None
        chosen.append(j)
        basis = np.vstack([basis, D[j] / dist[j]])
    centre = X[chosen].mean(axis=0)
    # Facet rows stay sorted, so that each of their ridges is too.
    S = np.sort([chosen[:i] + chosen[i + 1 :] for i in range(p + 1)], axis=1)
    N, B = _facet_planes(X, S, centre)
    drop = np.array([np.delete(np.arange(p), i) for i in range(p)])
    rest = np.setdiff1d(np.arange(n), chosen)
    # Slots of deleted facets, reused for new ones, have B = inf: no row
    # sees them or lies on them.
    free = np.empty(0, dtype=int)
    for q in rest[np.argsort(-np.linalg.norm(X[rest] - centre, axis=1), kind="stable")]:
        h = N @ X[q] - B
        seen = np.flatnonzero(h > tol)
        if not seen.size:
            continue
        # Sorted, a ridge that one seen facet has differs from both neighbours.
        R = S[seen][:, drop].reshape(-1, p - 1)
        R = R[np.lexsort(R.T)]
        once = np.concatenate([[True], np.any(R[1:] != R[:-1], axis=1), [True]])
        horizon = R[once[:-1] & once[1:]]
        cone = np.sort(np.column_stack([horizon, np.full(len(horizon), q)]), axis=1)
        # The cone facet over a ridge of a facet that q lies on is coplanar
        # with it and takes its plane, so that all simplices of a face share
        # one plane, not each a sliver's own tilted one; the others get their
        # own.  Only facets with p - 1 vertices on seen facets can have a
        # ridge on the horizon.
        on_seen = np.zeros(n, dtype=bool)
        on_seen[S[seen]] = True
        flat = np.flatnonzero(np.abs(h) <= tol)
        flat = flat[on_seen[S[flat]].sum(axis=1) >= p - 1]
        R = np.concatenate([horizon, S[flat][:, drop].reshape(-1, p - 1)])
        order = np.lexsort(R.T)
        pair = np.flatnonzero(np.all(R[order[1:]] == R[order[:-1]], axis=1))
        i, j = np.sort([order[pair], order[pair + 1]], axis=0)
        i, owner = i[i < len(horizon)], flat[(j[i < len(horizon)] - len(horizon)) // p]
        N_new, B_new = np.empty((len(cone), p)), np.empty(len(cone))
        N_new[i], B_new[i] = N[owner], B[owner]
        own = np.ones(len(cone), dtype=bool)
        own[i] = False
        N_new[own], B_new[own] = _facet_planes(X, cone[own], centre)
        slots = np.concatenate([seen, free])
        if len(cone) > len(slots):
            grow = max(len(cone) - len(slots), len(B))
            slots = np.concatenate([slots, np.arange(len(B), len(B) + grow)])
            S = np.concatenate([S, np.zeros((grow, p), dtype=int)])
            N = np.concatenate([N, np.zeros((grow, p))])
            B = np.concatenate([B, np.full(grow, np.inf)])
        new, free = slots[: len(cone)], slots[len(cone) :]
        S[new], N[new], B[new] = cone, N_new, B_new
        N[free], B[free] = 0.0, np.inf
    live = B < np.inf
    return S[live], N[live], B[live]


def _facet_planes(
    X: np.ndarray, S: np.ndarray, centre: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals and offsets of the planes through the simplices S of X,
    each normal pointing away from ``centre``.  The normal is the last
    column of the complete QR factor of the edges from the first vertex."""
    P = X[S]
    N = np.linalg.qr(np.swapaxes(P[:, 1:] - P[:, :1], 1, 2), mode="complete")[0][:, :, -1]
    B = np.einsum("ij,ij->i", N, P.mean(axis=1))
    flip = N @ centre > B
    N[flip] *= -1.0
    B[flip] *= -1.0
    return N, B


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
        return _rng.row_norms(X) / self._radius(theta)

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
        norms = _rng.row_norms(X)
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
