import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starshape import (
    EllipticalGauge,
    L1NormGauge,
    PolytopeGauge,
    SupNormGauge,
    TabulatedRadialGauge,
    direction_constant,
    gauge_from_dict,
    gauge_from_direction_density,
    sphere_surface,
    unit_angles,
)
from starshape.errors import (
    ConfigError,
    DimensionMismatchError,
    NonPositiveError,
    NonSmoothPointError,
    NotADensityError,
    ZeroVectorError,
)
from conftest import random_unit, stream


def test_elliptical_euclidean_case():
    g = EllipticalGauge(np.eye(2))
    assert g.value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    np.testing.assert_allclose(g.gradient([3.0, 4.0]), [0.6, 0.8], atol=1e-14)
    np.testing.assert_allclose(g.cross_section_point([3.0, 4.0]), [0.6, 0.8], atol=1e-14)


def test_supnorm_and_l1_values():
    assert SupNormGauge(3).value([1.0, -2.0, 0.5]) == 2.0
    assert L1NormGauge(2).value([1.0, -2.0]) == 3.0


def test_supnorm_gradient_is_facet_normal():
    np.testing.assert_array_equal(SupNormGauge(2).gradient([0.9, 0.2]), [1.0, 0.0])
    np.testing.assert_array_equal(SupNormGauge(2).gradient([-0.9, 0.2]), [-1.0, 0.0])


def test_tabulated_gradient_matches_elliptical():
    # Tabulate the ellipse boundary radius on a fine grid, then compare the
    # finite-difference gradient against the closed form on a 360-point
    # angular grid (a subset of the tabulation nodes).
    sigma = np.diag([1.0, 4.0])
    ell = EllipticalGauge(sigma)
    nodes = np.linspace(0.0, 2.0 * np.pi, 1440, endpoint=False)
    radii = 1.0 / ell.values(unit_angles(nodes))
    tab = TabulatedRadialGauge(nodes, radii)
    worst = 0.0
    for theta in nodes[::4]:
        x = np.array([np.cos(theta), np.sin(theta)])
        worst = max(worst, np.max(np.abs(tab.gradient(x) - ell.gradient(x))))
    assert worst <= 1e-4


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_homogeneity(analytic_gauges, label):
    g = analytic_gauges[label]
    gen = np.random.default_rng(11)
    for _ in range(100):
        x = gen.normal(size=2) * 3.0
        c = np.exp(gen.normal())
        base = c * g.value(x)
        assert abs(g.value(c * x) - base) <= 1e-12 * base


def test_homogeneity_tabulated_and_derived():
    nodes = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    tab = TabulatedRadialGauge(nodes, 1.0 + 0.3 * np.cos(2 * nodes))
    der = gauge_from_direction_density(lambda U: np.full(len(U), 1.0 / (2 * np.pi)), 2)
    gen = np.random.default_rng(12)
    for g in (tab, der):
        for _ in range(100):
            x = gen.normal(size=2) * 2.0
            c = np.exp(gen.normal())
            base = c * g.value(x)
            assert abs(g.value(c * x) - base) <= 1e-12 * base


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_euler_identity_analytic(analytic_gauges, label):
    g = analytic_gauges[label]
    gen = np.random.default_rng(21)
    for _ in range(50):
        x = gen.normal(size=2) * 2.0
        val = g.value(x)
        assert abs(np.dot(g.gradient(x), x) - val) <= 1e-6 * val


def test_euler_identity_finite_difference():
    nodes = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    tab = TabulatedRadialGauge(nodes, 1.0 + 0.3 * np.cos(2 * nodes))
    gen = np.random.default_rng(22)
    for _ in range(50):
        x = gen.normal(size=2) * 2.0
        val = tab.value(x)
        assert abs(np.dot(tab.gradient(x), x) - val) <= 1e-4 * val


@pytest.mark.parametrize("label", ["ell-i2", "ell-14", "sup", "l1", "poly"])
def test_triangle_inequality_convex_variants(analytic_gauges, label):
    g = analytic_gauges[label]
    gen = np.random.default_rng(31)
    for _ in range(200):
        x, y = gen.normal(size=2), gen.normal(size=2)
        assert g.value(x + y) <= g.value(x) + g.value(y) + 1e-12


@pytest.mark.parametrize("label", ["ell-14", "sup", "l1", "poly"])
def test_cross_section_point_idempotent(analytic_gauges, label):
    g = analytic_gauges[label]
    gen = np.random.default_rng(41)
    for _ in range(50):
        z = g.cross_section_point(gen.normal(size=2))
        assert g.value(z) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(g.cross_section_point(z), z, atol=1e-12)


def test_sphere_bounds_closed_forms():
    # Oracle: extremize over a dense angular grid.
    grid = unit_angles(np.linspace(0, 2 * np.pi, 200001))
    sup_vals = SupNormGauge(2).values(grid)
    assert SupNormGauge(2).sphere_bounds().g_min == pytest.approx(sup_vals.min(), abs=1e-9)
    assert SupNormGauge(2).sphere_bounds().g_min == pytest.approx(2 ** -0.5)
    assert SupNormGauge(2).sphere_bounds().g_max == 1.0
    b3 = L1NormGauge(3).sphere_bounds()
    assert (b3.g_min, b3.g_max) == (1.0, pytest.approx(np.sqrt(3.0)))
    be = EllipticalGauge(np.diag([1.0, 4.0])).sphere_bounds()
    assert (be.g_min, be.g_max) == (pytest.approx(0.5), pytest.approx(1.0))


@pytest.mark.parametrize("label", ["ell-14", "sup", "l1", "poly"])
def test_sphere_bounds_sandwich(analytic_gauges, label):
    g = analytic_gauges[label]
    bounds = g.sphere_bounds()
    U = random_unit(np.random.default_rng(51), 10_000, 2)
    vals = g.values(U)
    assert vals.min() >= bounds.g_min - 1e-12
    assert vals.max() <= bounds.g_max + 1e-12


def test_sphere_bounds_sandwich_p3():
    g = PolytopeGauge(np.vstack([np.eye(3), -np.eye(3), [[0.5, 0.5, 0.5]]]))
    bounds = g.sphere_bounds()
    U = random_unit(np.random.default_rng(52), 10_000, 3)
    vals = g.values(U)
    assert vals.min() >= bounds.g_min
    assert vals.max() <= bounds.g_max


def test_polytope_requires_origin_inside():
    with pytest.raises(NonPositiveError):
        PolytopeGauge([[1.0, 0.0], [0.0, 1.0]])  # open in the third quadrant


def test_zero_vector_and_dimension_errors():
    g = SupNormGauge(2)
    with pytest.raises(ZeroVectorError):
        g.value([0.0, 0.0])
    with pytest.raises(ZeroVectorError):
        g.value([0.0, 1e-310])
    with pytest.raises(DimensionMismatchError):
        g.value([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        EllipticalGauge(np.eye(2)).gradient([1.0])


def test_strict_gradient_flags_ridges(analytic_gauges):
    with pytest.raises(NonSmoothPointError):
        SupNormGauge(2).gradient([1.0, 1.0], strict=True)
    with pytest.raises(NonSmoothPointError):
        L1NormGauge(2).gradient([1.0, 0.0], strict=True)
    # Lowest-index tie-break without strict mode.
    np.testing.assert_array_equal(SupNormGauge(2).gradient([1.0, 1.0]), [1.0, 0.0])
    assert analytic_gauges["poly"].gradient([0.5, 0.1]) is not None


_SQUARE = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


def _all_variants(analytic_gauges):
    nodes = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return {
        "elliptical": analytic_gauges["ell-14"],
        "sup": analytic_gauges["sup"],
        "l1": analytic_gauges["l1"],
        "polytope": analytic_gauges["poly"],
        "square": PolytopeGauge(_SQUARE),
        "tabulated": TabulatedRadialGauge(nodes, 1.0 + 0.3 * np.cos(2 * nodes)),
        "derived": gauge_from_direction_density(
            lambda U: (2.0 + U[:, 0]) / (4.0 * np.pi), 2
        ),
    }


def test_batch_gradients_match_scalar_rows(analytic_gauges):
    # Random rows plus ridge rows: tied facets and zero coordinates.
    ties = [[1.0, 1.0], [-2.0, 2.0], [0.0, 1.5], [-0.5, 0.0], [0.7, 0.1]]
    X = np.vstack([np.random.default_rng(71).normal(size=(40, 2)), ties])
    for name, g in _all_variants(analytic_gauges).items():
        G = g.gradients(X)
        assert G.shape == X.shape
        for i, x in enumerate(X):
            np.testing.assert_array_equal(G[i], g.gradient(x), err_msg=name)


def test_gradient_ties_go_to_the_lowest_index():
    ties = np.array([[1.0, 1.0], [-2.0, 2.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(
        SupNormGauge(2).gradients(ties), [[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
    )
    np.testing.assert_array_equal(
        PolytopeGauge(_SQUARE).gradients(ties), [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    )


def test_strict_gradients_raise_if_any_row_is_on_a_ridge():
    smooth = np.array([[3.0, 0.5], [-0.2, 2.0], [1.0, -4.0]])
    for g, ridge in (
        (SupNormGauge(2), [2.0, -2.0]),
        (L1NormGauge(2), [0.0, -1.0]),
        (PolytopeGauge(_SQUARE), [-1.0, 1.0]),
    ):
        np.testing.assert_array_equal(g.gradients(smooth, strict=True), g.gradients(smooth))
        for k in range(len(smooth) + 1):
            with pytest.raises(NonSmoothPointError):
                g.gradients(np.insert(smooth, k, ridge, axis=0), strict=True)


def test_polytope_ridge_raises_in_strict_mode(analytic_gauges):
    poly = analytic_gauges["poly"]
    x = np.array([0.7, 0.1])  # facets 0 and 4 both give 0.72, the largest value
    with pytest.raises(NonSmoothPointError, match="polytope ridge"):
        poly.gradient(x, strict=True)
    grad = poly.gradient(x)
    assert any(np.array_equal(grad, poly.facets[k]) for k in (0, 4))


def test_direction_derived_uniform_target():
    omega = sphere_surface(2)
    g = gauge_from_direction_density(lambda U: np.full(len(U), 1.0 / omega), 2)
    x = np.array([0.3, -1.2])
    assert g.value(x) == pytest.approx(omega ** 0.5 * np.linalg.norm(x), rel=1e-12)
    c0 = direction_constant(g).c0
    assert c0 == pytest.approx(1.0, abs=1e-6)


def test_direction_derived_rejects_bad_densities():
    with pytest.raises(NotADensityError):
        gauge_from_direction_density(lambda U: np.full(len(U), 1.0), 2)
    with pytest.raises(NonPositiveError):
        gauge_from_direction_density(lambda U: U[:, 0], 2)


def test_direction_derived_recovers_elliptical_shape():
    # Angular Gaussian target: the derived gauge must be a constant multiple
    # of the elliptical gauge, with spread ~ machine precision.
    sigma = np.diag([1.0, 4.0])
    ell = EllipticalGauge(sigma)
    inv = np.linalg.inv(sigma)
    det = np.linalg.det(sigma)

    def target(U):
        quad = np.einsum("ij,jk,ik->i", U, inv, U)
        return quad ** -1.0 / (2.0 * np.pi * np.sqrt(det))

    derived = gauge_from_direction_density(target, 2)
    grid = unit_angles(np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
    ratio = derived.values(grid) / ell.values(grid)
    assert (ratio.max() - ratio.min()) / ratio.mean() <= 1e-6


def test_json_round_trip(analytic_gauges):
    nodes = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    gauges = list(analytic_gauges.values()) + [
        TabulatedRadialGauge(nodes, 1.0 + 0.2 * np.sin(nodes))
    ]
    gen = np.random.default_rng(61)
    for g in gauges:
        back = gauge_from_dict(g.to_dict())
        for _ in range(20):
            x = gen.normal(size=2)
            assert back.value(x) == pytest.approx(g.value(x), rel=1e-12)


def test_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown field 'spin'"):
        gauge_from_dict({"dim": 2, "variant": "sup", "params": {}, "spin": 1})
    with pytest.raises(ConfigError, match="missing field 'variant'"):
        gauge_from_dict({"dim": 2})
    with pytest.raises(ConfigError, match="unknown variant"):
        gauge_from_dict({"dim": 2, "variant": "cube", "params": {}})
    with pytest.raises(ConfigError, match="sigma"):
        gauge_from_dict({"dim": 2, "variant": "elliptical", "params": {}})
    with pytest.raises(ConfigError):
        gauge_from_dict({"dim": 3, "variant": "elliptical", "params": {"sigma": [[1.0]]}})


def test_json_params_errors_carry_one_prefix():
    cases = [
        ({"variant": "sup", "params": {"x": 1}}, "gauge.params: unknown field 'x'"),
        ({"variant": "elliptical", "params": {}}, "gauge.params: missing field 'sigma'"),
        (
            {"variant": "elliptical", "params": {"sigma": [[1.0, 0.0], [0.0, -1.0]]}},
            "gauge.params: sigma must be positive definite",
        ),
    ]
    for obj, text in cases:
        with pytest.raises(ConfigError) as info:
            gauge_from_dict({"dim": 2, **obj})
        assert str(info.value) == text


# -- planar polytope geometry from the facet hull ----------------------------

_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def _facets(weights, offset, radii, shrink):
    """Facets at angles with gaps 2pi w_i / sum(w) (all below pi when every
    w_i is in [0.6, 1] and there are at least three), plus points pulled
    toward the origin from the first few: the origin is strictly inside."""
    angles = offset + 2.0 * np.pi * np.cumsum(weights) / np.sum(weights)
    A = unit_angles(angles) * np.asarray(radii)[:, None]
    return np.vstack([A, A[: len(shrink)] * np.asarray(shrink)[:, None]])


_valid_polygons = st.integers(3, 9).flatmap(
    lambda m: st.builds(
        _facets,
        st.lists(st.floats(0.6, 1.0), min_size=m, max_size=m),
        st.floats(0.0, 2.0 * np.pi),
        st.lists(st.floats(0.2, 3.0), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 0.99), max_size=3),
    )
)


@_PROPERTY
@given(_valid_polygons)
def test_polytope_kinks_are_exact_facet_switches(A):
    g = PolytopeGauge(A)
    kinks = g.kink_angles()
    assert np.all(np.diff(kinks) > 0) and kinks[0] >= 0 and kinks[-1] < 2 * np.pi
    # One facet is active on each arc between consecutive kinks ...
    ends = np.append(kinks, kinks[0] + 2.0 * np.pi)
    for a, b in zip(ends[:-1], ends[1:]):
        inner = a + (b - a) * np.linspace(0.01, 0.99, 33)
        assert np.unique(np.argmax(unit_angles(inner) @ A.T, axis=1)).size == 1
    # ... and the two facets of neighbouring arcs tie at the kink.
    top2 = np.sort(unit_angles(kinks) @ A.T, axis=1)[:, -2:]
    assert np.all(top2[:, 1] - top2[:, 0] <= 1e-12)


@_PROPERTY
@given(_valid_polygons)
def test_polytope_sphere_bounds_are_exact(A):
    g = PolytopeGauge(A)
    b = g.sphere_bounds()
    dense = g.values(unit_angles(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)))
    assert dense.min() >= b.g_min * (1.0 - 1e-12)
    assert g.values(unit_angles(g.kink_angles())).min() == pytest.approx(b.g_min, rel=1e-12)
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    toward_facets = g.values((A / norms)[norms[:, 0] > 0])
    assert toward_facets.max() == pytest.approx(b.g_max, rel=1e-12)
    assert dense.max() <= b.g_max * (1.0 + 1e-12)


@_PROPERTY
@given(
    st.floats(0.0, 2.0 * np.pi),
    st.lists(st.floats(1e-4, np.pi - 1e-4), min_size=2, max_size=8),
    st.floats(0.2, 3.0),
)
def test_polytope_facets_in_a_half_plane_raise(offset, angles, radius):
    with pytest.raises(NonPositiveError):
        PolytopeGauge(radius * unit_angles(offset + np.asarray(angles)))


def test_polytope_on_a_thin_arc_raises():
    # g < 0 only on an arc of width ~2e-4 rad, around the direction -e_2.
    c, s = np.cos(2e-4), np.sin(2e-4)
    pair = np.array([[1.0, 1e-4], [-1.0, 1e-4]]) @ np.array([[c, s], [-s, c]])
    for A in (pair, np.vstack([pair, [0.0, 1.0]])):
        with pytest.raises(NonPositiveError):
            PolytopeGauge(A)
