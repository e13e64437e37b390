import numpy as np
import pytest
from scipy import integrate

from starshape import (
    EllipticalGauge,
    ExponentialProfile,
    GaussianProfile,
    L1NormGauge,
    PolytopeGauge,
    SphereBounds,
    StarDistribution,
    SupNormGauge,
    TabulatedRadialGauge,
    angle_bin_probs,
    chisq_gof,
    cross_section_mass,
    cross_section_measure_density,
    direction_constant,
    direction_densities,
    direction_density,
    direction_sample,
    gauge_from_direction_density,
    planar_angles,
    ks_test,
    rejection_sample,
    sphere_surface,
    two_sample_ks,
    unit_angles,
)
from starshape import gauge as gauge_module
from starshape.errors import (
    BoundsUnavailableError,
    DimensionMismatchError,
    NotOnCrossSectionError,
    NotUnitVectorError,
)
from conftest import sign_vectors, stream


def quad_circle_oracle(gauge, power):
    """Independent adaptive-quadrature oracle for circle integrals of g^power."""
    kinks = sorted(set(np.concatenate([gauge.kink_angles(), [0.0, 2.0 * np.pi]])))
    val, _ = integrate.quad(
        lambda t: gauge.value(np.array([np.cos(t), np.sin(t)])) ** power,
        0.0,
        2.0 * np.pi,
        points=kinks,
        limit=400,
        epsabs=1e-12,
    )
    return val


def test_constant_hypercube_p2():
    c = direction_constant(SupNormGauge(2))
    assert c.c0 == pytest.approx(0.125, abs=1e-10)
    assert c.stderr == 0.0
    assert c.integral.method == "angular-quadrature"


def test_constant_crosspolytope_p2():
    # 1 / integral of (|cos| + |sin|)^-2 over the circle; the integral is 4
    # (sec^2 antiderivative per quadrant), so c0 = 1/4.
    c = direction_constant(L1NormGauge(2))
    assert quad_circle_oracle(L1NormGauge(2), -2.0) == pytest.approx(4.0, abs=1e-9)
    assert c.c0 == pytest.approx(0.25, abs=1e-10)


def test_constant_elliptical():
    assert direction_constant(EllipticalGauge(np.eye(2))).c0 == pytest.approx(
        1.0 / (2.0 * np.pi), abs=1e-10
    )
    assert direction_constant(EllipticalGauge(np.diag([1.0, 4.0]))).c0 == pytest.approx(
        1.0 / (4.0 * np.pi), abs=1e-9
    )


def test_constant_p3_monte_carlo():
    c = direction_constant(SupNormGauge(3), n_mc=1_000_000, seed=0)
    assert c.integral.method == "monte-carlo"
    assert c.stderr <= 1e-4
    assert abs(c.c0 - 1.0 / 24.0) <= 3.0 * c.stderr


def test_direction_density_values():
    ell = EllipticalGauge(np.diag([1.0, 4.0]))
    c0 = direction_constant(ell).c0
    assert direction_density(ell, c0, [1.0, 0.0]) == pytest.approx(
        1.0 / (4.0 * np.pi), rel=1e-9
    )
    sup = SupNormGauge(2)
    assert direction_density(sup, 0.125, [1.0, 0.0]) == pytest.approx(0.125)
    i2 = EllipticalGauge(np.eye(2))
    z = unit_angles(0.7)[0]
    assert direction_density(i2, 1.0 / (2 * np.pi), z) == pytest.approx(1.0 / (2 * np.pi))


def test_direction_density_matches_angular_gaussian_form():
    sigma = np.diag([1.0, 4.0])
    ell = EllipticalGauge(sigma)
    c0 = direction_constant(ell).c0
    inv = np.linalg.inv(sigma)
    Z = unit_angles(np.linspace(0, 2 * np.pi, 50, endpoint=False))
    quad = np.einsum("ij,jk,ik->i", Z, inv, Z)
    closed = quad ** -1.0 / (sphere_surface(2) * np.sqrt(np.linalg.det(sigma)))
    np.testing.assert_allclose(direction_densities(ell, c0, Z), closed, rtol=1e-9)


@pytest.mark.parametrize("label", ["ell-14", "sup", "l1", "poly"])
def test_direction_density_integrates_to_one(analytic_gauges, label):
    g = analytic_gauges[label]
    c0 = direction_constant(g).c0
    total = c0 * quad_circle_oracle(g, -2.0)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_direction_density_requires_unit_vector():
    with pytest.raises(NotUnitVectorError):
        direction_density(SupNormGauge(2), 0.125, [1.0, 0.5])


def test_rejection_acceptance_rate_spherical_target():
    draws = rejection_sample(EllipticalGauge(np.eye(2)), stream(201), 20_000)
    assert draws.acceptance_rate == 1.0


def test_rejection_acceptance_rate_hypercube():
    # Mean of (g_min/g)^2 over the circle: g_min^2 / (c0 omega_2) = 2/pi.
    draws = rejection_sample(SupNormGauge(2), stream(202), 100_000)
    assert draws.acceptance_rate == pytest.approx(2.0 / np.pi, abs=0.005)


@pytest.mark.parametrize(
    "label, sampler",
    [
        pytest.param(label, sampler, id=label + suffix)
        for suffix, sampler in (("", direction_sample), ("-rejection", rejection_sample))
        for label in ["ell-i2", "ell-14", "sup", "l1", "poly"]
    ],
)
def test_draws_carry_the_gauge_values_of_their_points(analytic_gauges, label, sampler):
    g = analytic_gauges[label]
    draws = sampler(g, stream(203), 50_000)
    assert draws.g.shape == (50_000,)
    np.testing.assert_array_equal(draws.g, g.values(draws.points))


def test_zero_draws_are_an_empty_draw_on_both_samplers(analytic_gauges):
    # The cone path (sup) and rejection (the rest) report the same empty draw.
    nodes = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    gauges = {
        "sup": analytic_gauges["sup"],
        "poly": analytic_gauges["poly"],
        "tabulated": TabulatedRadialGauge(nodes, 1.0 + 0.3 * np.cos(2 * nodes)),
        "derived": gauge_from_direction_density(lambda U: (2.0 + U[:, 0]) / (4.0 * np.pi), 2),
    }
    for label, g in gauges.items():
        draws = direction_sample(g, stream(204), 0)
        assert draws.points.shape == (0, 2), label
        assert draws.g.shape == (0,), label
        assert (draws.acceptance_rate, draws.n_proposed) == (1.0, 0), label


@pytest.mark.parametrize("label", ["ell-14", "sup", "poly"])
def test_direction_sample_matches_density(analytic_gauges, label):
    g = analytic_gauges[label]
    c0 = direction_constant(g).c0
    draws = direction_sample(g, stream(205), 100_000)
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    counts, _ = np.histogram(planar_angles(draws.points), bins=edges)
    probs = angle_bin_probs(g, c0, edges)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    report = chisq_gof(counts, probs, alpha=0.001)
    assert report.passed, report


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_angle_bin_probs_sum_to_one(analytic_gauges, label):
    g = analytic_gauges[label]
    c0 = direction_constant(g).c0
    for edges in (np.linspace(0.0, 2.0 * np.pi, 37), np.linspace(0.0, 2.0 * np.pi, 5)):
        probs = angle_bin_probs(g, c0, edges)
        assert probs.shape == (len(edges) - 1,) and probs.min() > 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # Edges need not start at 0: bins over [-pi, pi] are the same bins.
    probs = angle_bin_probs(g, c0, np.linspace(0.0, 2.0 * np.pi, 37))
    shifted = angle_bin_probs(g, c0, np.linspace(-np.pi, np.pi, 37))
    np.testing.assert_allclose(shifted, np.roll(probs, 18), rtol=1e-12)


def test_cross_section_density_elliptical_closed_form():
    sigma = np.diag([1.0, 4.0])
    ell = EllipticalGauge(sigma)
    c0 = direction_constant(ell).c0
    inv2 = np.linalg.inv(sigma) @ np.linalg.inv(sigma)
    gen = np.random.default_rng(7)
    for _ in range(25):
        z = ell.cross_section_point(gen.normal(size=2))
        expected = c0 * np.einsum("i,ij,j->", z, inv2, z) ** -0.5
        assert cross_section_measure_density(ell, c0, z) == pytest.approx(expected, rel=1e-9)
    i2 = EllipticalGauge(np.eye(2))
    z = unit_angles(1.1)[0]
    assert cross_section_measure_density(i2, 1.0 / (2 * np.pi), z) == pytest.approx(
        1.0 / (2.0 * np.pi)
    )


def test_cross_section_density_facet_constants():
    # Hypercube facets: <z, n_z> = 1 so the density is c0 = 1/(2^p p).
    assert cross_section_measure_density(
        SupNormGauge(2), 0.125, [1.0, 0.3]
    ) == pytest.approx(0.125, abs=1e-12)
    # Crosspolytope facets: <z, n_z> = 1/sqrt(p), density c0/sqrt(p).
    assert cross_section_measure_density(
        L1NormGauge(2), 0.25, [0.5, 0.5]
    ) == pytest.approx(0.25 / np.sqrt(2.0), abs=1e-12)


def test_cross_section_density_requires_cross_section_point():
    with pytest.raises(NotOnCrossSectionError):
        cross_section_measure_density(SupNormGauge(2), 0.125, [2.0, 0.5])


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_cross_section_mass_is_one(analytic_gauges, label):
    g = analytic_gauges[label]
    c0 = direction_constant(g).c0
    assert cross_section_mass(g, c0) == pytest.approx(1.0, abs=1e-6)


def test_cross_section_mass_planar_only():
    with pytest.raises(DimensionMismatchError):
        cross_section_mass(SupNormGauge(3), 1.0 / 24.0)


def test_surface_direction_consistency():
    # Dual route: angle histogram of direction draws vs per-bin integrals of
    # the surface density c0 <z, n_z> |dz/dtheta| (gradient route).
    g = EllipticalGauge(np.diag([1.0, 4.0]))
    c0 = direction_constant(g).c0
    draws = direction_sample(g, stream(206), 100_000)
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    counts, _ = np.histogram(planar_angles(draws.points), bins=edges)

    def surface_prob(a, b):
        def integrand(t):
            u = np.array([np.cos(t), np.sin(t)])
            z = g.cross_section_point(u)
            h = 1e-7
            up = np.array([np.cos(t + h), np.sin(t + h)])
            um = np.array([np.cos(t - h), np.sin(t - h)])
            speed = np.linalg.norm(
                g.cross_section_point(up) - g.cross_section_point(um)
            ) / (2 * h)
            return cross_section_measure_density(g, c0, z) * speed

        return integrate.quad(integrand, a, b, epsabs=1e-11)[0]

    probs = np.array([surface_prob(a, b) for a, b in zip(edges[:-1], edges[1:])])
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    report = chisq_gof(counts, probs, alpha=0.001)
    assert report.passed, report


@pytest.mark.parametrize("route", ["rejection", "body"])
def test_sampler_rejects_a_false_lower_bound(route):
    # The true infimum of g on the circle is 0.5; 0.6 is not a lower bound.
    # "rejection" calls the direction sampler; "body" draws whole points,
    # whose directions come from the same sampler under the stored bounds.
    gauge = EllipticalGauge(np.diag([1.0, 4.0]))
    false_bounds = SphereBounds(0.6, 1.0)
    with pytest.raises(BoundsUnavailableError, match="is below g_min"):
        if route == "rejection":
            direction_sample(gauge, stream(420), 1000, false_bounds)
        else:
            dist = StarDistribution(gauge, GaussianProfile(1.0), n_mc=20_000)
            dist.bounds = false_bounds
            dist.sample(stream(420), 1000)


# -- cone draws: directions of uniform points of K = {g <= 1} ----------------


def _twin_gauge(kind, p):
    if kind == "sup":
        return SupNormGauge(p)
    if kind == "l1":
        return L1NormGauge(p)
    if kind == "elliptical":
        q, _ = np.linalg.qr(np.eye(p) + 0.3 * np.random.default_rng(p).standard_normal((p, p)))
        return EllipticalGauge(q @ np.diag(np.linspace(1.0, 4.0, p)) @ q.T)
    box = np.vstack([np.eye(p), -np.eye(p)])
    if kind == "cube":
        return PolytopeGauge(box)
    if kind == "cross":
        return PolytopeGauge(sign_vectors(p))
    # A cube with corner cuts, as the benchmark's hexacube at p = 6.
    corners = {3: [0, 3, 5], 6: [0, 9, 22, 37, 50, 63]}[p]
    return PolytopeGauge(np.vstack([box, 1.8 / p * sign_vectors(p)[corners]]))


_TWIN_CASES = [
    (kind, p) for kind in ("sup", "l1", "elliptical") for p in (2, 3, 6)
] + [(kind, p) for kind in ("cube", "cross", "cut-cube") for p in (3, 6)]


@pytest.mark.parametrize("kind, p", _TWIN_CASES, ids=[f"{k}-{p}" for k, p in _TWIN_CASES])
def test_cone_draws_match_rejection_draws(kind, p):
    gauge = _twin_gauge(kind, p)
    n = 20_000
    cone = direction_sample(gauge, stream(430, p), n)
    assert cone.acceptance_rate == 1.0 and cone.n_proposed == n
    ref = rejection_sample(gauge, stream(431, p), n)
    for a, b in ((cone.g, ref.g), (cone.points[:, 0], ref.points[:, 0])):
        report = two_sample_ks(a, b, alpha=0.01)
        assert report.passed, report


@pytest.mark.parametrize("kind, p", _TWIN_CASES, ids=[f"{k}-{p}" for k, p in _TWIN_CASES])
def test_body_points_have_uniform_lengths(kind, p):
    # For x uniform in K, P(g(x) <= t) = Vol(t K) / Vol(K) = t^p.
    gauge = _twin_gauge(kind, p)
    g = gauge.values(gauge.body_sample(stream(435, p), 20_000))
    report = ks_test(g, lambda t: t**p, alpha=0.01)
    assert report.passed, report


def _broken_hull(hull_class, breaks):
    """scipy's ConvexHull with its simplices passed through ``breaks``."""

    def hull(points):
        h = hull_class(points)
        h.simplices = breaks(h.simplices, len(points))
        return h

    return hull


_BREAKS = {
    # one simplex missing: its ridges are each shared by one simplex only
    "dropped-simplex": lambda s, v: s[1:],
    # vertices relabelled: still a closed surface, but off the facets of K
    "relabelled-vertices": lambda s, v: np.roll(np.arange(v), 1)[s],
}


@pytest.mark.parametrize("breakage", sorted(_BREAKS))
def test_a_broken_triangulation_falls_back_to_rejection(monkeypatch, breakage):
    import scipy.spatial

    gauge = _twin_gauge("cut-cube", 3)
    broken = _broken_hull(scipy.spatial.ConvexHull, _BREAKS[breakage])
    monkeypatch.setattr(scipy.spatial, "ConvexHull", broken)
    draws = direction_sample(gauge, stream(432), 5_000)
    assert gauge._cones is None
    assert draws.acceptance_rate < 1.0


def test_above_the_simplex_cap_qhull_is_not_run_on_k(monkeypatch):
    import scipy.spatial

    gauge = _twin_gauge("cut-cube", 3)

    def no_qhull(points):
        raise AssertionError("K was triangulated above the cap")

    monkeypatch.setattr(gauge_module, "MAX_BODY_SIMPLICES", 10)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_qhull)
    draws = direction_sample(gauge, stream(433), 5_000)
    assert draws.acceptance_rate < 1.0


def test_building_and_cross_checking_do_not_triangulate_k():
    gauge = _twin_gauge("cut-cube", 6)
    dist = StarDistribution(gauge, ExponentialProfile(1.0), n_mc=20_000)
    dist.c0_cross_check(n_mc=20_000)
    assert "_cones" not in vars(gauge)
    dist.sample(stream(434), 10)
    assert "_cones" in vars(gauge)
