import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    sphere_surface,
    two_sample_ks,
    unit_angles,
)
from starshape import gauge as gauge_module
from starshape.direction import _arc_integrals
from starshape.errors import (
    BoundsUnavailableError,
    DimensionMismatchError,
    NotOnCrossSectionError,
    NotUnitVectorError,
    QuadratureFailureError,
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


def test_a_constant_whose_sphere_integral_squares_below_the_double_range_is_finite():
    # Facets x 1e100 put the sphere integral near 1e-300: its square
    # underflows, and so do the squares of the Monte Carlo samples.  By
    # homogeneity c0 and its stderr are the unit cube's times 1e300.
    cube = np.vstack([np.eye(3), -np.eye(3)])
    big = direction_constant(PolytopeGauge(1e100 * cube), n_mc=100_000)
    unit = direction_constant(PolytopeGauge(cube), n_mc=100_000)
    assert np.isfinite(big.c0) and np.isfinite(big.stderr)
    assert big.c0 == pytest.approx(1e300 * unit.c0, rel=1e-13)
    assert big.stderr == pytest.approx(1e300 * unit.stderr, rel=1e-13) and unit.stderr > 0.0


def test_a_sphere_integral_that_underflows_raises_at_every_p():
    # g = 1e150 |x| puts g^-3 below the double range: the Monte Carlo mean
    # is 0, as a p = 2 rule's sum is for g = 1e200 |x|.
    square = np.vstack([np.eye(2), -np.eye(2)])
    for gauge in (EllipticalGauge(1e-300 * np.eye(3)), PolytopeGauge(1e200 * square)):
        with pytest.raises(QuadratureFailureError, match="sphere integral evaluated to 0.0"):
            direction_constant(gauge, n_mc=1000)


@pytest.mark.parametrize("label", ["sup", "l1", "ell-14", "poly"])
def test_planar_n_evals_counts_the_gauge_evaluations(analytic_gauges, label):
    gauge = copy.copy(analytic_gauges[label])
    counted = []
    values = gauge.values
    gauge.values = lambda X: counted.append(len(X)) or values(X)
    assert direction_constant(gauge).integral.n_evals == sum(counted) > 0


_THIN = {
    "ellipse-1e6": (EllipticalGauge(np.diag([1.0, 1e6])), 2.0 * np.pi * 1e3),
    "ellipse-1e7": (EllipticalGauge(np.diag([1.0, 1e7])), 2.0 * np.pi * np.sqrt(1e7)),
    "ellipse-1e8": (EllipticalGauge(np.diag([1.0, 1e8])), None),
    # The rectangle |x| <= 1, |y| <= 1/a has area 4/a, half the integral.
    "rectangle-100": (PolytopeGauge([[1.0, 0.0], [-1.0, 0.0], [0.0, 100.0], [0.0, -100.0]]),
                      8.0 / 100.0),
    "rectangle-1e3": (PolytopeGauge([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e3], [0.0, -1e3]]),
                      8.0 / 1e3),
    "rectangle-1e4": (PolytopeGauge([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e4], [0.0, -1e4]]), None),
}


@pytest.mark.parametrize("label", sorted(_THIN))
def test_planar_sphere_integral_fails_where_simpson_cannot_resolve_it(label):
    # Gauss-Legendre at orders 32 and 24, on the same panels, must agree to 1e-6.
    gauge, exact = _THIN[label]
    if exact is None:
        with pytest.raises(QuadratureFailureError, match="sphere integral error .* too large"):
            direction_constant(gauge)
    else:
        assert direction_constant(gauge).integral.value == pytest.approx(exact, rel=1e-8)


_CUTS = st.lists(st.floats(0.0, 2.0 * np.pi, exclude_max=True), max_size=40)


def _end_radii(gauge, smooth):
    """Radii 1/g of the cross section at the ends of each arc, shape (n, 2)."""
    return 1.0 / gauge.values(unit_angles(smooth.ravel())).reshape(-1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.floats(0.0, 2.0 * np.pi), gaps=st.lists(st.floats(0.05, 1.0), min_size=3,
                                                           max_size=8),
       distances=st.lists(st.floats(0.1, 1.0), min_size=8, max_size=8), cuts=_CUTS)
def test_each_polygon_arc_integral_is_twice_its_triangle(start, gaps, distances, cuts):
    # Facets at distances d_j with normals less than pi apart bound a
    # polygon, whose vertices lie far out where two normals are nearly
    # opposite; within pi - 0.05, r stays below 40 d_j, where g near a
    # vertex, a cosine near 0, keeps most of its digits.  An arc inside
    # one facet's cone sweeps the triangle (0, z(a), z(b)), and the
    # integral of g^(-2) = r^2 over it is twice its area.
    gaps = 2.0 * np.pi * np.array(gaps) / sum(gaps)
    assume(gaps.max() < np.pi - 0.05)
    normals = unit_angles(start + np.cumsum(gaps))
    gauge = PolytopeGauge(normals / np.array(distances[: len(gaps)])[:, None])
    smooth, vals, _, _ = _arc_integrals(gauge, cuts)
    r = _end_radii(gauge, smooth)
    exact = r[:, 0] * r[:, 1] * np.sin(smooth[:, 1] - smooth[:, 0])
    np.testing.assert_allclose(vals, exact, rtol=1e-12, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gaps=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=20),
       radii=st.lists(st.floats(0.5, 2.0), min_size=20, max_size=20), cuts=_CUTS)
def test_each_tabulated_arc_integral_is_exact_for_its_linear_radius(gaps, radii, cuts):
    # r is linear in angle between nodes, so r^2 integrates to
    # (b - a)(r_a^2 + r_a r_b + r_b^2) / 3 over each arc.  Nodes at least
    # 0.015 apart keep r'/r, and so the rounding of r at a node, small.
    angles = 2.0 * np.pi * np.cumsum(gaps) / (sum(gaps) + gaps[0])
    gauge = TabulatedRadialGauge(angles, radii[: len(angles)])
    smooth, vals, _, _ = _arc_integrals(gauge, cuts)
    ra, rb = _end_radii(gauge, smooth).T
    exact = (smooth[:, 1] - smooth[:, 0]) * (ra * ra + ra * rb + rb * rb) / 3.0
    np.testing.assert_allclose(vals, exact, rtol=1e-12, atol=0.0)


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


def sample_by_rejection(gauge, gen, n, bounds=None):
    """:func:`direction_sample` through its rejection fallback, on a copy
    of ``gauge`` that draws no body points."""
    fallback = copy.copy(gauge)
    fallback.body_sample = lambda gen, n: None
    return direction_sample(fallback, gen, n, bounds)


def test_rejection_acceptance_rate_spherical_target():
    draws = sample_by_rejection(EllipticalGauge(np.eye(2)), stream(201), 20_000)
    assert draws.acceptance_rate == 1.0


def test_rejection_acceptance_rate_hypercube():
    # Mean of (g_min/g)^2 over the circle: g_min^2 / (c0 omega_2) = 2/pi.
    draws = sample_by_rejection(SupNormGauge(2), stream(202), 100_000)
    assert draws.acceptance_rate == pytest.approx(2.0 / np.pi, abs=0.005)


def test_rejection_acceptance_rate_matches_the_volume_ratio():
    # Ball proposals land in K with probability Vol K / Vol(ball of radius
    # 1/g_min) = g_min^p / (c0 omega_p); the rate counts every proposal.
    nodes = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    gauge = TabulatedRadialGauge(nodes, 1.0 + 0.3 * np.cos(2 * nodes))
    draws = direction_sample(gauge, stream(207), 100_000)
    expected = gauge.sphere_bounds().g_min ** 2 / (direction_constant(gauge).c0 * 2.0 * np.pi)
    sigma = np.sqrt(expected * (1.0 - expected) / draws.n_proposed)
    assert 0.0 < expected < 1.0
    assert abs(draws.acceptance_rate - expected) <= 4.0 * sigma


@pytest.mark.parametrize(
    "label, sampler",
    [
        pytest.param(label, sampler, id=label + suffix)
        for suffix, sampler in (("", direction_sample), ("-rejection", sample_by_rejection))
        for label in ["ell-i2", "ell-14", "sup", "l1", "poly"]
    ],
)
def test_draws_carry_the_gauge_values_of_their_points(analytic_gauges, label, sampler):
    g = analytic_gauges[label]
    draws = sampler(g, stream(203), 50_000)
    assert draws.g.shape == (50_000,)
    np.testing.assert_array_equal(draws.g, g.values(draws.points))


def test_zero_draws_are_an_empty_draw_on_both_samplers(analytic_gauges):
    # The body path (sup, poly) and rejection (the rest) report the same empty draw.
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


@pytest.mark.parametrize("route", ["rejection", "body", "tabulated"])
def test_sampler_rejects_a_false_lower_bound(route):
    # The true infimum of g on the circle is 0.5; 0.6 is not a lower bound.
    # "rejection" calls the direction sampler; "body" draws whole points,
    # whose directions come from the same sampler under the stored bounds;
    # "tabulated" has no body points, so its draws come from the ball of
    # radius 1/0.6, which misses part of K.
    gauge = EllipticalGauge(np.diag([1.0, 4.0]))
    false_bounds = SphereBounds(0.6, 1.0)
    with pytest.raises(BoundsUnavailableError, match="is below g_min"):
        if route == "rejection":
            direction_sample(gauge, stream(420), 1000, false_bounds)
        elif route == "tabulated":
            nodes = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
            tabulated = TabulatedRadialGauge(nodes, 1.0 / gauge.values(unit_angles(nodes)))
            assert tabulated.body_sample(stream(420), 1) is None
            direction_sample(tabulated, stream(420), 1000, false_bounds)
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
    if kind == "pentagon":
        return PolytopeGauge([[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [-0.4, -0.7], [0.9, 0.9]])
    if kind == "12-gon":
        return PolytopeGauge(unit_angles(np.arange(12) * np.pi / 6.0 + 0.1))
    if kind == "interior":
        # (0.2, 0.1) lies inside the hull of the others, which drops it.
        return PolytopeGauge([[1.0, 0.0], [0.0, 1.5], [-1.0, 0.3], [0.2, -0.8], [0.2, 0.1]])
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
] + [(kind, p) for kind in ("cube", "cross", "cut-cube") for p in (3, 6)] + [
    (kind, 2) for kind in ("pentagon", "12-gon", "interior")
]


@pytest.mark.parametrize("kind, p", _TWIN_CASES, ids=[f"{k}-{p}" for k, p in _TWIN_CASES])
def test_cone_draws_match_rejection_draws(kind, p):
    gauge = _twin_gauge(kind, p)
    n = 20_000
    cone = direction_sample(gauge, stream(430, p), n)
    assert cone.acceptance_rate == 1.0 and cone.n_proposed == n
    ref = sample_by_rejection(gauge, stream(431, p), n)
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


def _broken_hull(build, breaks):
    """The hull construction ``build`` with its result passed through ``breaks``."""

    def hull(points, tol):
        return breaks(*build(points, tol), len(points))

    return hull


_BREAKS = {
    # one simplex missing: its ridges are each shared by one simplex only
    "dropped-simplex": lambda s, n, b, v: (s[1:], n[1:], b[1:]),
    # vertices relabelled: still a closed surface, but off the facets of K
    "relabelled-vertices": lambda s, n, b, v: (np.roll(np.arange(v), 1)[s], n, b),
}


def _check_broken_hull_falls_back(monkeypatch, gauge, breakage):
    broken = _broken_hull(gauge_module._beneath_beyond, _BREAKS[breakage])
    monkeypatch.setattr(gauge_module, "_beneath_beyond", broken)
    draws = direction_sample(gauge, stream(432), 5_000)
    assert gauge._cones is None
    assert draws.acceptance_rate < 1.0


@pytest.mark.parametrize("breakage", sorted(_BREAKS))
def test_a_broken_triangulation_falls_back_to_rejection(monkeypatch, breakage):
    _check_broken_hull_falls_back(monkeypatch, _twin_gauge("cut-cube", 3), breakage)


@pytest.mark.parametrize("breakage", sorted(_BREAKS))
def test_a_broken_planar_triangulation_falls_back_to_rejection(monkeypatch, breakage):
    _check_broken_hull_falls_back(monkeypatch, _twin_gauge("pentagon", 2), breakage)


def test_above_the_simplex_cap_qhull_is_not_run_on_k(monkeypatch):
    gauge = _twin_gauge("cut-cube", 3)

    def no_hull(points):
        raise AssertionError("K was triangulated above the cap")

    monkeypatch.setattr(gauge_module, "MAX_BODY_SIMPLICES", 10)
    monkeypatch.setattr(gauge_module, "_convex_hull", no_hull)
    draws = direction_sample(gauge, stream(433), 5_000)
    assert draws.acceptance_rate < 1.0


def test_building_and_cross_checking_do_not_triangulate_k():
    gauge = _twin_gauge("cut-cube", 6)
    dist = StarDistribution(gauge, ExponentialProfile(1.0), n_mc=20_000)
    dist.c0_cross_check()
    assert "_cones" not in vars(gauge)
    dist.sample(stream(434), 10)
    assert "_cones" in vars(gauge)
