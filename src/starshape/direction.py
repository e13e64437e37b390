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
draw, and :func:`direction_sample` draws every direction that way.  The
points come from ``Gauge.body_sample`` where the gauge draws them (sup,
l1, elliptical, and polytopes whose boundary triangulation is
affordable), and otherwise by rejection from the ball of radius 1/g_min.
A direction that shows g_min false raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BoundsUnavailableError,
    DimensionMismatchError,
    NotADensityError,
    NotOnCrossSectionError,
    NotUnitVectorError,
    QuadratureFailureError,
)
from .gauge import (
    DirectionDerivedGauge, Gauge, SphereBounds, _scaled_rows, sphere_surface, unit_angles,
)
from .quadrature import arcs, mc_mean, panels, simpson
from .rng import uniform_sphere

UNIT_ATOL = 1e-9
# Simpson panels of the planar sphere integral: 2^16 and 2^20 panels agree
# to <= 2.2e-16 relative on polytope, sup, elliptical and tabulated gauges.
SPHERE_PANELS = 1 << 16
# Largest relative gap of the planar sphere integral's Simpson sums at h and 2h.
_SIMPSON_RTOL = 1e-6
_MAX_ROUNDS = 10_000
# Rounding allowance of the lower-bound check on directions: g(u) and a
# closed-form g_min are each within a few ulps of their exact values.
_BOUND_RTOL = 1e-12
# How far from 1 a target direction density may integrate.
_NORM_RTOL = 0.01
# Simpson panels of the planar cross-section mass check.
_MASS_PANELS = 1 << 14


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
    :func:`_arc_integrals` (deterministic, stderr 0), and raises where the
    rule at twice the spacing differs by more than 1e-6 relative.  p >= 3
    takes the :func:`~starshape.quadrature.mc_mean` of ``n_mc`` uniform
    sphere points drawn in blocks of Philox task 1000 of ``seed``, so the
    result is a deterministic function of the seed.
    """
    p = gauge.dim
    if p < 2:
        raise DimensionMismatchError("direction integrals need dim >= 2")
    if p == 2:
        _, fine, coarse, n_evals = _arc_integrals(gauge)
        value, error = float(fine.sum()), float(np.abs(fine - coarse).sum())
        if error > _SIMPSON_RTOL * value:
            raise QuadratureFailureError(
                f"sphere integral error {error:.2e} too large for {value:.6e}")
        integral = SphereIntegral(value, 0.0, "angular-quadrature", n_evals)
    else:
        def draw(gen: np.random.Generator, m: int) -> np.ndarray:
            return gauge.values(uniform_sphere(gen, m, p)) ** (-float(p))

        mean, stderr = mc_mean(draw, n_mc, seed, 1000)
        omega = sphere_surface(p)
        integral = SphereIntegral(omega * mean, omega * stderr, "monte-carlo", n_mc)
    if not 0.0 < integral.value < np.inf:
        raise QuadratureFailureError(f"sphere integral evaluated to {integral.value}")
    return integral


def direction_constant(gauge: Gauge, n_mc: int = 1_000_000, seed: int = 0) -> C0Estimate:
    """Normalizing constant c0 = 1 / integral of g^(-p) over the sphere."""
    integral = direction_integral(gauge, n_mc, seed)
    c0 = 1.0 / integral.value
    stderr = integral.stderr / integral.value / integral.value  # value^2 can underflow
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

    Normalises n uniform points of K = {g <= 1}, or of a multiple of K, from
    ``gauge.body_sample`` (acceptance rate 1) or else :func:`_ball_rejection`.
    A direction with g(z') < g_min raises: the fallback needs a true bound.
    """
    bounds = gauge.sphere_bounds() if bounds is None else bounds
    X = gauge.body_sample(gen, n)
    accepted = proposed = n
    if X is None:
        X, accepted, proposed = _ball_rejection(gauge, gen, n, bounds.g_min)
    X = _scaled_rows(X)[0]  # body points may be too small to square
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    g_dir = gauge.values(X)
    low = np.min(g_dir, initial=np.inf)
    if low < bounds.g_min * (1.0 - _BOUND_RTOL):
        raise BoundsUnavailableError(f"g(u) = {low:.9g} is below g_min")
    return DirectionDraws(X, accepted / proposed if proposed else 1.0, proposed, g_dir)


def _ball_rejection(gauge: Gauge, gen: np.random.Generator, n: int, g_min: float) -> tuple:
    """(n uniform points of g_min K, points accepted, points proposed).

    Rejection from the ball of radius 1/g_min, which holds K when g_min is
    a bound: a proposal u V^(1/p) / g_min, u uniform on the sphere and
    V = 1 - U in (0, 1] (never the origin), is kept if g <= 1.  All is
    taken times g_min, in the unit ball, where g stays in range.  The
    expected acceptance is Vol K / Vol(ball) = g_min^p / (c0 omega_p).
    Where g_min is false, directions with g(u) < g_min are always kept.
    """
    p = gauge.dim
    kept, accepted, proposed = [np.empty((0, p))], 0, 0
    for _ in range(_MAX_ROUNDS):
        if accepted >= n:
            break
        m = max(1024, int(1.5 * (n - accepted)))
        Y = uniform_sphere(gen, m, p) * (1.0 - gen.random((m, 1))) ** (1.0 / p)
        kept.append(Y[gauge.values(Y) <= g_min])
        accepted += len(kept[-1])
        proposed += m
    if accepted < n:
        raise BoundsUnavailableError(
            f"acceptance rate too low: {accepted}/{n} after {proposed} proposals")
    return np.concatenate(kept)[:n], accepted, proposed


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


def cross_section_mass(gauge: Gauge, c0: float) -> float:
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
        k = panels(_MASS_PANELS, b - a, 2.0 * np.pi)
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
    smooth, vals, _, _ = _arc_integrals(gauge, edges)
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
    has g^(-p) = f, so :func:`direction_integral` checks the total; at
    p >= 3 that calls ``density`` from several threads at once, so it must
    be safe to call concurrently.
    """
    gauge = DirectionDerivedGauge(density, dim)
    total = direction_integral(gauge, 200_000).value
    if abs(total - 1.0) > _NORM_RTOL:
        raise NotADensityError(
            f"direction density integrates to {total:.6g}, not 1 within {_NORM_RTOL:.0%}"
        )
    return gauge


def _arc_integrals(gauge: Gauge, cuts=()) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The arcs (a, b) between the gauge's kinks and ``cuts``, the composite
    Simpson integral of g^(-2) over each (p = 2) at spacings h and 2h, and
    the gauge evaluations made.  SPHERE_PANELS are shared among the arcs in
    proportion to length, so every Simpson cell sees a C^1 integrand."""
    smooth = arcs(np.concatenate([gauge.kink_angles(), cuts]))
    total_len = sum(b - a for a, b in smooth)
    fine, coarse, n_evals = [], [], 0
    for a, b in smooth:
        k = panels(SPHERE_PANELS, b - a, total_len)
        theta = np.linspace(a, b, k + 1)
        vals = gauge.values(unit_angles(theta)) ** (-2.0)
        fine.append(simpson(vals, (b - a) / k))
        coarse.append(simpson(vals[::2], 2.0 * (b - a) / k))
        n_evals += k + 1
    return np.array(smooth), np.array(fine), np.array(coarse), n_evals
