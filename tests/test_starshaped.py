import numpy as np
import pytest
from scipy.spatial import ConvexHull, HalfspaceIntersection

from starshape import (
    EllipticalGauge,
    ExponentialProfile,
    GaussianProfile,
    HeavyTailProfile,
    RadialTable,
    StarDistribution,
    SupNormGauge,
    chisq_gof,
    gauge_from_direction_density,
    independence_chisq,
    planar_angles,
    pushforward_densities,
    pushforward_density,
    two_sample_ks,
    within_orbit_map,
    within_orbit_map_many,
)
from starshape.errors import DimensionMismatchError, ZeroVectorError
from starshape import starshaped
from starshape.starshaped import _plane_integral_2d
from conftest import polar_integral, stream


@pytest.fixture(scope="module")
def gauss_i2():
    return StarDistribution(EllipticalGauge(np.eye(2)), GaussianProfile(1.0))


@pytest.fixture(scope="module")
def sup_exp():
    return StarDistribution(SupNormGauge(2), ExponentialProfile(1.0))


def test_density_bivariate_normal(gauss_i2):
    assert gauss_i2.density([1.0, 1.0]) == pytest.approx(
        np.exp(-1.0) / (2.0 * np.pi), rel=1e-9
    )


def test_density_supnorm_exponential(sup_exp):
    # Normalizer: c0 = 1/8 from the sphere, radial integral 1, so the
    # density at g = 2 is e^-2 / 8; both c0 routes agree on the constant.
    assert sup_exp.density([0.5, -2.0]) == pytest.approx(np.exp(-2.0) / 8.0, rel=1e-8)
    chk = sup_exp.c0_cross_check()
    assert chk["rel_discrepancy"] <= 1e-6


def test_density_constant_on_proportional_cross_sections(sup_exp):
    gen = np.random.default_rng(3)
    for _ in range(50):
        x = gen.normal(size=2)
        z = sup_exp.gauge.cross_section_point(x)
        xt = sup_exp.gauge.value(x) * (z / 1.0)  # same gauge value, other ray point
        y = gen.normal(size=2)
        y = y / sup_exp.gauge.value(y) * sup_exp.gauge.value(x)
        assert sup_exp.density(x) == pytest.approx(sup_exp.density(y), rel=1e-12)
        assert sup_exp.density(x) == pytest.approx(sup_exp.density(xt), rel=1e-12)


def test_density_rejects_origin(gauss_i2):
    with pytest.raises(ZeroVectorError):
        gauss_i2.density([0.0, 0.0])


def test_sample_standard_normal_moments(gauss_i2):
    n = 200_000
    X = gauss_i2.sample(stream(301), n)
    assert np.max(np.abs(X.mean(axis=0))) <= 4.0 / np.sqrt(n)
    cov = np.cov(X.T)
    np.testing.assert_allclose(cov, np.eye(2), atol=0.05)


def test_sample_independence_of_length_and_angle(sup_exp):
    X = sup_exp.sample(stream(302), 100_000)
    g, _, _ = sup_exp.decompose_many(X)
    report = independence_chisq(g, planar_angles(X), 8, 8, alpha=0.001)
    assert report.passed, report


def test_direction_derived_sampling_matches_target():
    def target(U):
        return (2.0 + U[:, 0]) / (4.0 * np.pi)

    gauge = gauge_from_direction_density(target, 2)
    dist = StarDistribution(gauge, ExponentialProfile(1.0))
    X = dist.sample(stream(303), 100_000)
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    counts, _ = np.histogram(planar_angles(X), bins=edges)
    # Exact per-bin probabilities of the target angle density.
    probs = np.array(
        [
            (2.0 * (b - a) + np.sin(b) - np.sin(a)) / (4.0 * np.pi)
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    report = chisq_gof(counts, probs, alpha=0.001)
    assert report.passed, report


def test_orbital_decompose_examples(gauss_i2, sup_exp):
    rec = gauss_i2.orbital_decompose([3.0, 4.0])
    assert rec.g == pytest.approx(5.0)
    np.testing.assert_allclose(rec.z, [0.6, 0.8], atol=1e-14)
    np.testing.assert_allclose(rec.zprime, [0.6, 0.8], atol=1e-14)

    rec2 = sup_exp.orbital_decompose([2.0, -4.0])
    assert rec2.g == pytest.approx(4.0)
    np.testing.assert_allclose(rec2.z, [0.5, -1.0], atol=1e-14)
    np.testing.assert_allclose(rec2.zprime, [1 / np.sqrt(5), -2 / np.sqrt(5)], rtol=1e-14)


def test_orbital_invariance_and_reconstruction(sup_exp):
    gen = np.random.default_rng(5)
    for _ in range(50):
        x = gen.normal(size=2) * 3.0
        rec = sup_exp.orbital_decompose(x)
        # scale invariance: z(7.3 x) = z(x) up to a rounding ulp
        np.testing.assert_allclose(sup_exp.orbital_decompose(7.3 * x).z, rec.z, rtol=5e-16)
        np.testing.assert_allclose(rec.g * rec.z, x, rtol=1e-10)


def test_equivariant_part_transformation_identity(analytic_gauges):
    # Homogeneity identity: g_B(x) = g_A(x) * g_B(x / g_A(x)), exactly.
    gA, gB = analytic_gauges["ell-14"], analytic_gauges["sup"]
    gen = np.random.default_rng(6)
    for _ in range(100):
        x = gen.normal(size=2) * 2.0
        lhs = gB.value(x)
        rhs = gA.value(x) * gB.value(x / gA.value(x))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_within_orbit_map_identity_and_example(analytic_gauges):
    gA = analytic_gauges["ell-i2"]
    gB = analytic_gauges["sup"]
    x = np.array([3.0, 4.0])
    np.testing.assert_allclose(within_orbit_map(gA, gA, x), x, rtol=1e-15)
    w = within_orbit_map(gA, gB, x)
    np.testing.assert_allclose(w, [3.75, 5.0], rtol=1e-14)
    assert gB.value(w) == pytest.approx(gA.value(x), rel=1e-14)
    # w stays on the ray through x
    assert w[0] * x[1] - w[1] * x[0] == pytest.approx(0.0, abs=1e-12)


def test_within_orbit_map_bijective(analytic_gauges):
    gA, gB = analytic_gauges["l1"], analytic_gauges["poly"]
    gen = np.random.default_rng(8)
    X = gen.normal(size=(100, 2)) * 2.0
    W = within_orbit_map_many(gA, gB, X)
    back = within_orbit_map_many(gB, gA, W)
    np.testing.assert_allclose(back, X, rtol=1e-12)


def test_within_orbit_map_dim_mismatch(analytic_gauges):
    with pytest.raises(DimensionMismatchError):
        within_orbit_map(analytic_gauges["sup"], SupNormGauge(3), [1.0, 2.0])


def test_pushforward_reduces_to_density(gauss_i2):
    gen = np.random.default_rng(9)
    for _ in range(20):
        x = gen.normal(size=2)
        assert pushforward_density(gauss_i2, gauss_i2.gauge, x) == pytest.approx(
            gauss_i2.density(x), rel=1e-12
        )


def test_pushforward_integrates_to_one(gauss_i2):
    sup = SupNormGauge(2)
    total = polar_integral(
        lambda W: pushforward_densities(gauss_i2, sup, W),
        radius=12.0,
        kinks=sup.kink_angles(),
    )
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pushforward_matches_mapped_samples(gauss_i2):
    # Histogram of mapped draws against the stated density on a polar grid.
    sup = SupNormGauge(2)
    n = 200_000
    X = gauss_i2.sample(stream(304), n)
    W = within_orbit_map_many(gauss_i2.gauge, sup, X)
    radii = np.linalg.norm(W, axis=1)
    angles = planar_angles(W)
    r_edges = np.quantile(radii, np.linspace(0.0, 1.0, 11))
    r_edges[0], r_edges[-1] = 0.0, np.inf
    t_edges = np.linspace(0.0, 2.0 * np.pi, 11)
    counts = np.histogram2d(radii, angles, bins=[r_edges, t_edges])[0].ravel()

    # Expected probabilities by per-cell quadrature of the pushforward
    # density in polar coordinates.
    from scipy import integrate

    kinks = np.sort(sup.kink_angles())

    def cell_prob(r0, r1, t0, t1):
        r1 = min(r1, 40.0)
        cuts = [t0] + [k for k in kinks if t0 < k < t1] + [t1]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += integrate.dblquad(
                lambda r, t: pushforward_densities(
                    gauss_i2, sup, np.array([[r * np.cos(t), r * np.sin(t)]])
                )[0]
                * r,
                a,
                b,
                r0,
                r1,
                epsabs=1e-10,
            )[0]
        return total

    probs = np.array(
        [
            cell_prob(r_edges[i], r_edges[i + 1], t_edges[j], t_edges[j + 1])
            for i in range(10)
            for j in range(10)
        ]
    )
    assert probs.sum() == pytest.approx(1.0, abs=1e-3)
    report = chisq_gof(counts, probs, alpha=0.001)
    assert report.passed, report


@pytest.mark.parametrize("key", [("ell-14", "gaussian"), ("sup", "exponential")])
def test_density_integrates_to_one(key, analytic_gauges, profiles):
    dist = StarDistribution(analytic_gauges[key[0]], profiles[key[1]])
    # Disk radius covering all but ~1e-7 of mass.
    R = dist.profile._tail_quantile(dist.p, 1e-7) / dist.bounds.g_min
    total = polar_integral(dist.densities, R, kinks=dist.gauge.kink_angles())
    assert total == pytest.approx(1.0, abs=2e-6)


def test_direction_law_profile_free(sup_exp):
    # Same gauge, different radial profiles: identical angle law.
    other = StarDistribution(SupNormGauge(2), GaussianProfile(1.0))
    a = planar_angles(sup_exp.sample(stream(305), 50_000))
    b = planar_angles(other.sample(stream(306), 50_000))
    report = two_sample_ks(a, b, alpha=0.01)
    assert report.passed, report


def test_p3_build_and_independence():
    dist = StarDistribution(
        SupNormGauge(3), ExponentialProfile(1.0), n_mc=200_000, seed=1
    )
    X = dist.sample(stream(307), 60_000)
    g, _, zp = dist.decompose_many(X)
    report = independence_chisq(g, zp[:, 0], 4, 4, alpha=0.001)
    assert report.passed, report
    chk = dist.c0_cross_check(seed=2, n_mc=400_000)
    assert abs(chk["c0_radial"] - chk["c0_spherical"]) <= 3.0 * chk["combined_stderr"]


def test_c0_radial_is_cached_per_seed_and_sample_size():
    def build():
        return StarDistribution(SupNormGauge(3), ExponentialProfile(1.0), n_mc=20_000)

    dist = build()
    first = dist.c0_radial(seed=1, n_mc=20_000)
    second = dist.c0_radial(seed=2, n_mc=20_000)
    assert second != first
    assert second == build().c0_radial(seed=2, n_mc=20_000)
    assert dist.c0_radial(seed=1, n_mc=10_000) == build().c0_radial(seed=1, n_mc=10_000)
    assert dist.c0_radial(seed=1, n_mc=20_000) == first


def test_c0_radial_at_p2_is_computed_once(monkeypatch):
    # The plane rule depends on neither seed nor n_mc.
    calls = []
    rule = starshaped._plane_integral_2d
    monkeypatch.setattr(starshaped, "_plane_integral_2d", lambda *a: calls.append(1) or rule(*a))
    dist = StarDistribution(SupNormGauge(2), ExponentialProfile(1.0))
    assert dist.c0_radial(seed=1) == dist.c0_radial(seed=2, n_mc=10)
    assert len(calls) == 1


def _unit_ball_area(label, gauge):
    if label.startswith("ell"):
        return np.pi * np.sqrt(np.linalg.det(gauge.sigma))
    A = np.asarray(gauge.facets if label == "poly" else {
        "sup": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        "l1": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
    }[label])
    hs = HalfspaceIntersection(np.column_stack([A, -np.ones(len(A))]), np.zeros(2))
    return ConvexHull(hs.intersections).volume


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_plane_rule_matches_closed_form_totals(label, analytic_gauges, profiles):
    # The integral of profile(g(x)) over the plane is the radial constant
    # times the area of {g <= 1} times 2, i.e. radial_constant / c0.  Heavy
    # tails are left out: their mass beyond the rule's square is ~1e-11.
    gauge = analytic_gauges[label]
    c0 = 1.0 / (2.0 * _unit_ball_area(label, gauge))
    for key in ("gaussian", "exponential", "kotz"):
        table = RadialTable.build(profiles[key], 2)
        total, err = _plane_integral_2d(gauge, profiles[key], table)
        assert total == pytest.approx(table.constant / c0, rel=1e-12)
        assert err <= 1e-10 * total


@pytest.mark.parametrize("nu", [1.0, 0.5])
def test_twin_route_on_heavy_tails_with_nu_at_most_one(nu):
    # g_hi is 1e10 (nu = 1) and 1e20 (nu = 0.5), so the plane rule needs 59
    # and 91 halvings of its square to reach the profile's median length.
    chk = StarDistribution(SupNormGauge(2), HeavyTailProfile(nu)).c0_cross_check()
    assert chk["rel_discrepancy"] <= 1e-6


def test_requires_dim_at_least_two():
    with pytest.raises(DimensionMismatchError):
        StarDistribution(SupNormGauge(1), GaussianProfile(1.0))
