"""The direction side of a star-shaped law.

Whatever the radial profile, the direction z' = x/|x| of a star-shaped
sample has density c0 g(z')^(-p) on the unit sphere, where
1/c0 = integral of g^(-p) over the sphere.  This module computes that
constant (deterministic angular quadrature in the plane, Monte Carlo with a
standard error in higher dimensions), evaluates the direction density,
its angular bin probabilities and the induced surface measure on the unit
cross section, builds the gauge of a prescribed direction density, and
draws exact direction samples, returning the gauge values of the draws
with them.

Since the direction law is the same for every radial profile, the
direction of a uniform point of the star body K = {g <= 1} is an exact
draw: :func:`direction_sample` normalises ``Gauge.body_sample`` points,
without rejection, when the gauge has them (sup, l1, elliptical, and
polytopes at p >= 3 whose boundary triangulation is affordable), and
otherwise falls back to :func:`rejection_sample` against the sphere bound
g_min.  Both paths raise if a draw shows g_min false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng as _rng
from .errors import (
    BoundsUnavailableError,
    DimensionMismatchError,
    NotADensityError,
    NotOnCrossSectionError,
    NotUnitVectorError,
    QuadratureFailureError,
)
from .gauge import DirectionDerivedGauge, Gauge, SphereBounds, sphere_surface, unit_angles
from .quadrature import arcs, mean_stderr, panels, simpson
from .rng import uniform_sphere

UNIT_ATOL = 1e-9
# Simpson panels of the planar sphere integral: 2^16 and 2^20 panels agree
# to <= 2.2e-16 relative on polytope, sup, elliptical and tabulated gauges.
SPHERE_PANELS = 1 << 16
_MAX_ROUNDS = 10_000
# Rounding allowance of the lower-bound check on directions: g(u) and a
# closed-form g_min are each within a few ulps of their exact values.
_BOUND_RTOL = 1e-12
# How far from 1 a target direction density may integrate.
_NORM_RTOL = 0.01


@dataclass(frozen=True)
class SphereIntegral:
    """Estimate of an integral over the unit sphere.

    ``stderr`` is zero for deterministic quadrature; for Monte Carlo it is
    the sample standard error of omega_p * h(U) with U uniform.
    """

    value: float
    stderr: float
    method: str
    n_evals: int


class C0Estimate(NamedTuple):
    c0: float
    stderr: float
    integral: SphereIntegral


class DirectionDraws(NamedTuple):
    points: np.ndarray
    acceptance_rate: float
    n_proposed: int
    g: np.ndarray  # gauge values at ``points``


def direction_integral(gauge: Gauge, n_mc: int = 1_000_000, seed: int = 0) -> SphereIntegral:
    """Integral of g^(-p) over the unit sphere.

    p = 2 sums the kink-aligned composite Simpson rule of
    :func:`_arc_integrals` (deterministic, stderr 0).  p >= 3 uses
    ``n_mc`` uniform sphere points from Philox stream 1000 of ``seed``, so
    the result is a deterministic function of the seed.
    """
    p = gauge.dim
    if p < 2:
        raise DimensionMismatchError("direction integrals need dim >= 2")
    if p == 2:
        val = sum(_arc_integrals(gauge)[1])
        if not np.isfinite(val) or val <= 0:
            raise QuadratureFailureError(f"sphere integral evaluated to {val}")
        return SphereIntegral(float(val), 0.0, "angular-quadrature", SPHERE_PANELS + 1)
    U = uniform_sphere(_rng.stream(seed, 1000), n_mc, p)
    mean, stderr = mean_stderr(gauge.values(U) ** (-float(p)))
    omega = sphere_surface(p)
    return SphereIntegral(omega * mean, omega * stderr, "monte-carlo", n_mc)


def direction_constant(gauge: Gauge, n_mc: int = 1_000_000, seed: int = 0) -> C0Estimate:
    """Normalizing constant c0 = 1 / integral of g^(-p) over the sphere."""
    integral = direction_integral(gauge, n_mc, seed)
    c0 = 1.0 / integral.value
    stderr = integral.stderr / integral.value ** 2
    return C0Estimate(float(c0), float(stderr), integral)


def _check_ones(vals: np.ndarray, error: type, label: str) -> None:
    """Raise ``error`` naming the value farthest from 1 if it misses by > UNIT_ATOL."""
    dev = np.abs(vals - 1.0)
    if dev.size and dev.max() > UNIT_ATOL:
        raise error(f"{label} = {vals.flat[np.argmax(dev)]:.12g} is not 1")


def direction_density(gauge: Gauge, c0: float, zprime) -> float:
    """Density c0 g(z')^(-p) of the direction with respect to dz'."""
    z = np.asarray(zprime, dtype=float)
    if z.shape != (gauge.dim,):
        raise DimensionMismatchError(f"expected a unit vector of dimension {gauge.dim}")
    return float(direction_densities(gauge, c0, z[None, :])[0])


def direction_densities(gauge: Gauge, c0: float, Z) -> np.ndarray:
    """Vectorized :func:`direction_density` over rows of Z."""
    Z = np.asarray(Z, dtype=float)
    _check_ones(np.linalg.norm(Z, axis=-1), NotUnitVectorError, "|z'|")
    # float_power calls the C library pow per element, as Python's float **
    # does; np.power may use a SIMD pow that differs in the last bit.
    return c0 * np.float_power(gauge.values(Z), -float(gauge.dim))


def direction_sample(
    gauge: Gauge,
    gen: np.random.Generator,
    n: int,
    bounds: SphereBounds | None = None,
) -> DirectionDraws:
    """n i.i.d. directions with density c0 g^(-p), their gauge values and
    the acceptance rate.

    Normalises n uniform points of K = {g <= 1} when ``gauge.body_sample``
    draws them (acceptance rate 1), and otherwise runs
    :func:`rejection_sample`.  A direction with g(z') < g_min raises on
    both paths.
    """
    bounds = gauge.sphere_bounds() if bounds is None else bounds
    X = gauge.body_sample(gen, n)
    if X is None:
        return rejection_sample(gauge, gen, n, bounds)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    g_dir = gauge.values(X)
    _check_lower_bound(g_dir, bounds)
    return DirectionDraws(X, 1.0, n, g_dir)


def rejection_sample(
    gauge: Gauge,
    gen: np.random.Generator,
    n: int,
    bounds: SphereBounds | None = None,
) -> DirectionDraws:
    """:func:`direction_sample` by rejection, for every gauge.

    Proposes uniformly on the sphere and accepts with probability
    (g_min/g(z'))^p; expected acceptance is g_min^p/(c0 omega_p).  Exactness
    needs g >= g_min on the sphere: a proposal with g(u) < g_min raises.
    """
    p = gauge.dim
    bounds = gauge.sphere_bounds() if bounds is None else bounds
    out = np.empty((n, p))
    g_out = np.empty(n)
    got = 0
    proposed = 0
    accepted = 0
    for _ in range(_MAX_ROUNDS):
        if got >= n:
            break
        m = max(1024, int(1.5 * (n - got)))
        Z = uniform_sphere(gen, m, p)
        g_dir = gauge.values(Z)
        _check_lower_bound(g_dir, bounds)
        keep = gen.random(m) < (bounds.g_min / g_dir) ** p
        pts, g_pts = Z[keep], g_dir[keep]
        proposed += m
        accepted += len(pts)
        take = min(len(pts), n - got)
        out[got : got + take] = pts[:take]
        g_out[got : got + take] = g_pts[:take]
        got += take
    if got < n:
        raise BoundsUnavailableError(
            f"acceptance rate too low: {got}/{n} after {proposed} proposals"
        )
    return DirectionDraws(out, accepted / proposed, proposed, g_out)


def _check_lower_bound(g_dir: np.ndarray, bounds: SphereBounds) -> None:
    """Raise if a direction's gauge value shows ``bounds.g_min`` false."""
    low = np.min(g_dir, initial=np.inf)
    if low < bounds.g_min * (1.0 - _BOUND_RTOL):
        raise BoundsUnavailableError(f"g(u) = {low:.9g} is below g_min")


def cross_section_measure_density(gauge: Gauge, c0: float, z) -> float:
    """Density c0 <z, n_z> of the invariant part on the unit cross section.

    ``n_z`` is the outward unit normal (normalized gauge gradient); the
    inner product equals the distance from the origin to the tangent
    hyperplane at z (the support function there).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (gauge.dim,):
        raise DimensionMismatchError(f"expected a point of dimension {gauge.dim}")
    return float(cross_section_measure_densities(gauge, c0, z[None, :])[0])


def cross_section_measure_densities(gauge: Gauge, c0: float, Z) -> np.ndarray:
    """Vectorized :func:`cross_section_measure_density` over rows of Z."""
    Z = np.asarray(Z, dtype=float)
    _check_ones(gauge.values(Z), NotOnCrossSectionError, "g(z)")
    grad = gauge.gradients(Z)
    return c0 * np.einsum("ij,ij->i", Z, grad) / np.linalg.norm(grad, axis=1)


def cross_section_mass(gauge: Gauge, c0: float, n_panels: int = 1 << 14) -> float:
    """Total mass of c0 <z, n_z> dz over the unit cross section (p = 2).

    Parameterizes the cross section by angle, z(t) = u(t)/g(u(t)), and
    integrates the surface density times the curve speed |dz/dt| on
    kink-aligned arcs.  Equals 1 when the gradient geometry is consistent.
    """
    if gauge.dim != 2:
        raise DimensionMismatchError("cross-section mass check is planar only")

    delta = 1e-7

    def integrand(theta: np.ndarray) -> np.ndarray:
        u = unit_angles(theta)
        z = u / gauge.values(u)[:, None]
        u_plus = unit_angles(theta + delta)
        u_minus = unit_angles(theta - delta)
        z_plus = u_plus / gauge.values(u_plus)[:, None]
        z_minus = u_minus / gauge.values(u_minus)[:, None]
        speed = np.linalg.norm(z_plus - z_minus, axis=1) / (2.0 * delta)
        return cross_section_measure_densities(gauge, c0, z) * speed

    # Pull panel boundaries slightly inside each arc so the finite
    # differences above never straddle a ridge; the lost slivers are added
    # back as endpoint rectangles (error O(inset^2)).
    total = 0.0
    for a, b in arcs(gauge.kink_angles()):
        k = panels(n_panels, b - a, 2.0 * np.pi)
        inset = 4.0 * delta
        theta = np.linspace(a + inset, b - inset, k + 1)
        vals = integrand(theta)
        total += simpson(vals, theta[1] - theta[0])
        total += inset * (vals[0] + vals[-1])
    return float(total)


def angle_bin_probs(gauge: Gauge, c0: float, edges: np.ndarray) -> np.ndarray:
    """Probability of each angular bin under the direction law (p = 2);
    ``edges`` increase over at most 2pi and cut the arcs of _arc_integrals."""
    if gauge.dim != 2:
        raise DimensionMismatchError("angle bins are planar only")
    smooth, vals = _arc_integrals(gauge, edges)
    mid = edges[0] + np.mod(smooth.mean(axis=1) - edges[0], 2.0 * np.pi)
    idx = np.searchsorted(edges, mid, side="right") - 1
    inside = (idx >= 0) & (idx < len(edges) - 1)
    return c0 * np.bincount(idx[inside], vals[inside], len(edges) - 1)


def gauge_from_direction_density(
    density: Callable[[np.ndarray], np.ndarray], dim: int
) -> DirectionDerivedGauge:
    """Build the gauge whose induced direction law equals ``density``.

    ``density`` maps a batch of unit vectors, shape (n, p), to positive
    values (n,) integrating to 1 over the sphere.  On the sphere the gauge
    has g^(-p) = f, so :func:`direction_integral` checks the total.
    """
    gauge = DirectionDerivedGauge(density, dim)
    total = direction_integral(gauge, 200_000).value
    if abs(total - 1.0) > _NORM_RTOL:
        raise NotADensityError(
            f"direction density integrates to {total:.6g}, not 1 within {_NORM_RTOL:.0%}"
        )
    return gauge


def _arc_integrals(gauge: Gauge, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """The arcs (a, b) between the gauge's kinks and ``cuts``, and the
    composite Simpson integral of g^(-2) over each (p = 2).  SPHERE_PANELS
    are shared among the arcs in proportion to length, so every Simpson
    cell sees a C^1 integrand, polytope gauges included."""
    smooth = arcs(np.concatenate([gauge.kink_angles(), cuts]))
    total_len = sum(b - a for a, b in smooth)
    vals = []
    for a, b in smooth:
        k = panels(SPHERE_PANELS, b - a, total_len)
        theta = np.linspace(a, b, k + 1)
        vals.append(simpson(gauge.values(unit_angles(theta)) ** (-2.0), (b - a) / k))
    return np.array(smooth), np.array(vals)
