import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

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
from starshape.gauge import _convex_hull, _max_boundary_simplices, _ridges_pair_up
from starshape.io import load_schema
from conftest import box_and_cuts, property_gauges, random_unit, sign_vectors, spd, stream


def test_elliptical_euclidean_case():
    g = EllipticalGauge(np.eye(2))
    assert g.value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    np.testing.assert_allclose(g.gradient([3.0, 4.0]), [0.6, 0.8], atol=1e-14)
    np.testing.assert_allclose(g.cross_section_point([3.0, 4.0]), [0.6, 0.8], atol=1e-14)


def test_gauges_whose_values_leave_the_double_range_are_rejected():
    # g^-p may reach 1e150 on the unit sphere, and g must stay finite there.
    angles = [0.0, 2.0, 4.0]
    for make in (lambda: EllipticalGauge(1e305 * np.eye(2)),
                 lambda: EllipticalGauge(1e308 * np.eye(2)),
                 lambda: EllipticalGauge(1e51 * np.eye(6)),
                 lambda: EllipticalGauge(np.diag([1e-310, 1.0])),  # Sigma^-1 overflows
                 lambda: TabulatedRadialGauge(angles, [1e-320, 1.0, 1.0]),
                 lambda: TabulatedRadialGauge(angles, [1e76, 1.0, 1.0])):
        with pytest.raises(ConfigError, match="out of the double range"):
            make()
    for sigma in (1e149 * np.eye(2), 1e-300 * np.eye(2), 1e49 * np.eye(6)):
        assert np.isfinite(EllipticalGauge(sigma).value(np.ones(len(sigma))))
    assert np.isfinite(TabulatedRadialGauge(angles, [1e-300, 1.0, 1e74]).value([1.0, 1.0]))


@pytest.mark.parametrize("p", [2, 3])
def test_scaled_polytopes_keep_their_bounds_or_are_rejected(p):
    # The facet hull is built on facets scaled by a power of two, so the
    # cube's facets times 1e200 keep exact bounds; times 1e-100 and below,
    # g^-p passes 1e150 on the sphere, and past DBL_MAX g_max overflows.
    A = np.vstack([np.eye(p), -np.eye(p)])
    base = PolytopeGauge(A).sphere_bounds()
    for scale in (1e200, 2.0**-100):
        bounds = PolytopeGauge(scale * A).sphere_bounds()
        assert bounds.g_min == pytest.approx(scale * base.g_min, rel=1e-15)
        assert bounds.g_max == pytest.approx(scale * base.g_max, rel=1e-15)
    for facets in (1e-100 * A, 1e-120 * A, 1e-160 * A, 1.5e308 * np.vstack([A, np.ones(p)])):
        with pytest.raises(ConfigError, match="out of the double range"):
            PolytopeGauge(facets)


def test_supnorm_and_l1_values():
    assert SupNormGauge(3).value([1.0, -2.0, 0.5]) == 2.0
    assert L1NormGauge(2).value([1.0, -2.0]) == 3.0
    # The origin check must not overflow on points whose norm does.
    assert SupNormGauge(2).value([1e300, -1e300]) == 1e300
    assert L1NormGauge(2).values(np.array([[1e300, 1e300]]))[0] == 2e300


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


@pytest.mark.parametrize("p", [3, 6])
def test_polytope_sphere_bounds_are_exact_above_the_plane(p):
    # The cube {|x_i| <= 1} and the cross-polytope {sum |x_i| <= 1}.
    cube = PolytopeGauge(np.vstack([np.eye(p), -np.eye(p)])).sphere_bounds()
    assert cube.g_min == pytest.approx(p**-0.5, rel=1e-12, abs=0.0)
    assert cube.g_max == pytest.approx(1.0, rel=1e-12, abs=0.0)
    cross = PolytopeGauge(sign_vectors(p)).sphere_bounds()
    assert cross.g_min == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert cross.g_max == pytest.approx(p**0.5, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [2, 3, 6])
def test_boundary_simplices_fill_the_cube_and_the_cross_polytope(p):
    # Sum |det| / p! over the cones of K is Vol K: 2^p and 2^p / p!.
    fact = math.factorial(p)
    for facets, volume in ((np.vstack([np.eye(p), -np.eye(p)]), 2.0**p),
                           (sign_vectors(p), 2.0**p / fact)):
        V, simplices, cum = PolytopeGauge(facets)._cones
        assert cum[-1] / fact == pytest.approx(volume, rel=1e-12, abs=0.0)
        assert len(simplices) <= _max_boundary_simplices(len(V), p)
    # The triangulated 3-cube has 12 triangles, McMullen's bound for 8 vertices.
    assert _max_boundary_simplices(8, 3) == 12


def test_hexacube_lower_bound_is_an_uncut_corner():
    # +-e_i of R^6 plus six corner cuts 0.3 s; the other corners keep 1/sqrt(6).
    facets = np.vstack([np.eye(6), -np.eye(6), 0.3 * sign_vectors(6)[[0, 9, 22, 37, 50, 63]]])
    b = PolytopeGauge(facets).sphere_bounds()
    assert b.g_min == pytest.approx(6**-0.5, rel=1e-12, abs=0.0)
    assert b.g_max == pytest.approx(1.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [
    lambda: EllipticalGauge([[np.inf, 0.0], [0.0, 1.0]]),
    lambda: EllipticalGauge([[1.0, np.nan], [np.nan, 1.0]]),
    lambda: PolytopeGauge([[np.inf, 0.0], [-1.0, 1.0], [-1.0, -1.0]]),
    lambda: PolytopeGauge([[1.0, 0.0, 0.0], [0.0, np.nan, 1.0], [-1.0, -1.0, -1.0]]),
], ids=["sigma-inf", "sigma-nan", "facet-inf", "facet-nan"])
def test_gauge_entries_must_be_finite(make):
    # Checked before any arithmetic, so no RuntimeWarning comes first.
    with pytest.raises(ConfigError, match="entries must be finite"):
        make()


def test_tabulated_nodes_must_be_finite():
    # Stated positively, so that NaN fails too.
    with pytest.raises(NonPositiveError, match="angles"):
        TabulatedRadialGauge([0.0, 1.0, np.nan], [1.0, 1.0, 1.0])
    with pytest.raises(NonPositiveError, match="radii"):
        TabulatedRadialGauge([0.0, 1.0, 2.0], [1.0, np.nan, 1.0])


def test_infinite_tabulated_nodes_raise_before_any_arithmetic():
    # np.diff would form inf - inf; a RuntimeWarning fails the suite.
    with pytest.raises(NonPositiveError, match="angles"):
        TabulatedRadialGauge([0.0, np.inf, np.inf], [1.0, 1.0, 1.0])
    with pytest.raises(NonPositiveError, match="radii"):
        TabulatedRadialGauge([0.0, 1.0, 2.0], [1.0, np.inf, 1.0])


def test_polytope_requires_origin_inside():
    with pytest.raises(NonPositiveError):
        PolytopeGauge([[1.0, 0.0], [0.0, 1.0]])  # open in the third quadrant
    with pytest.raises(NonPositiveError):  # the origin lies outside the hull
        PolytopeGauge(np.vstack([np.eye(3), [[1.0, 1.0, 1.0]]]))
    with pytest.raises(NonPositiveError):  # two facets at p = 3: a flat set
        PolytopeGauge([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


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


def _elliptical(p, entries):
    A = np.reshape(entries, (p, p))
    return EllipticalGauge(A @ A.T + np.eye(p))


def _box_polytope(scales, extra):
    # The axis facets keep the origin inside; the extra ones cut corners.
    p = len(scales)
    return PolytopeGauge(np.vstack([np.diag(scales), -np.diag(scales), np.reshape(extra, (-1, p))]))


def _floats(lo, hi, k):
    return st.lists(st.floats(lo, hi), min_size=k, max_size=k)


_DIMS = st.sampled_from([2, 3])
_ANGLES = st.lists(st.floats(0.0, 2.0 * np.pi, exclude_max=True), min_size=3, max_size=12,
                   unique=True)
_DOC_GAUGES = st.one_of(
    _DIMS.flatmap(lambda p: st.builds(_elliptical, st.just(p), _floats(-2, 2, p * p))),
    st.builds(SupNormGauge, st.integers(1, 4)),
    st.builds(L1NormGauge, st.integers(1, 4)),
    _DIMS.flatmap(lambda p: st.builds(_box_polytope, _floats(0.5, 2.0, p),
                                      st.lists(_floats(-2, 2, p), max_size=4))),
    _ANGLES.flatmap(lambda a: st.builds(TabulatedRadialGauge, st.just(sorted(a)),
                                        _floats(0.5, 2.0, len(a)))),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(g=_DOC_GAUGES)
def test_json_round_trip(g):
    doc = json.loads(json.dumps(g.to_dict()))
    back = gauge_from_dict(doc)
    assert back.to_dict() == g.to_dict()
    X = np.random.default_rng(61).normal(size=(20, g.dim))
    np.testing.assert_array_equal(back.values(X), g.values(X))
    profile = {"family": "exponential", "params": {"rate": 1.0}}
    jsonschema.validate({"gauge": doc, "profile": profile}, load_schema("distribution.schema.json"))


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
    A = A[np.linalg.norm(A, axis=1) > 0]
    toward_facets = g.values(A / np.linalg.norm(A, axis=1, keepdims=True))
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


# -- uniform points of the star body K = {g <= 1} ------------------------------


_random_polytopes = st.integers(2, 5).flatmap(
    lambda p: st.builds(
        box_and_cuts,
        st.just(p),
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p), min_size=1, max_size=12),
    )
)


@_PROPERTY
@given(_random_polytopes, st.integers(0, 2**32 - 1))
def test_polytope_body_points_lie_in_k(gauge, seed):
    X = gauge.body_sample(stream(seed), 2_000)
    # Degenerate facet sets can fail the triangulation checks; such a
    # polytope draws its directions by rejection instead.
    assume(X is not None)
    assert gauge.values(X).max() <= 1.0 + 1e-12


_structured_gauges = st.integers(2, 6).flatmap(
    lambda p: st.one_of(
        st.just(SupNormGauge(p)),
        st.just(L1NormGauge(p)),
        st.builds(
            lambda e: EllipticalGauge(spd(p, e)),
            st.lists(st.floats(-2.0, 2.0), min_size=p * p, max_size=p * p),
        ),
    )
)


@_PROPERTY
@given(_structured_gauges, st.integers(0, 2**32 - 1))
def test_structured_body_points_lie_in_k(gauge, seed):
    X = gauge.body_sample(stream(seed), 2_000)
    assert gauge.values(X).max() <= 1.0 + 1e-12


@_PROPERTY
@given(property_gauges(), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
def test_gauges_are_positively_homogeneous(gauge, seed, log_c):
    X = 3.0 * np.random.default_rng(seed).normal(size=(64, gauge.dim))
    c = 10.0**log_c
    np.testing.assert_allclose(gauge.values(c * X), c * gauge.values(X), rtol=1e-12)


# -- the convex hull behind polytope gauges at p >= 2, against Qhull -----------


def _prism(p):
    """A pentagon times the cube [-1, 1]^(p - 2)."""
    pentagon = unit_angles(0.3 + 2.0 * np.pi * np.arange(5) / 5)
    box = np.vstack([np.eye(p - 2), -np.eye(p - 2)])
    return np.vstack([np.column_stack([pentagon, np.zeros((5, p - 2))]),
                      np.column_stack([np.zeros((2 * p - 4, 2)), box])])


def _cut_cube(p, depth, corners):
    return np.vstack([np.eye(p), -np.eye(p), depth * sign_vectors(p)[corners]])


# Facet sets rich in coplanar points: the cube and the cross-polytope, whose
# polar hulls and K have non-simplicial faces, a prism, cut cubes and the
# benchmark's seed-7919 hexacube.  At p = 2: the square and the diamond, a
# square with a facet point on an edge of conv{a_j}, and the benchmark's
# seed-7919 sample pentagon.
_COPLANAR = {
    "cube-2": np.vstack([np.eye(2), -np.eye(2)]),
    "cross-2": sign_vectors(2),
    "square-edge-point": np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]]),
    "pentagon": np.array([[0.9163152414854293, 0.32081669524408374],
                          [0.01900713612019206, 1.0072884743610653],
                          [-0.9306490864667535, 0.28280778020469477],
                          [-0.6072754832568049, -0.8141299309813355],
                          [0.5978175490578991, -0.7776642060468129]]),
    **{f"cube-{p}": np.vstack([np.eye(p), -np.eye(p)]) for p in (3, 4, 5, 6)},
    **{f"cross-{p}": sign_vectors(p) for p in (3, 4, 5, 6)},
    **{f"prism-{p}": _prism(p) for p in (3, 4, 5)},
    "cut-cube-3": _cut_cube(3, 0.6, [0, 3, 5]),
    "cut-cube-6": _cut_cube(6, 0.3, [0, 9, 22, 37, 50, 63]),
    "hexacube": _cut_cube(6, 0.3, [6, 12, 20, 27, 10, 49]),
}


def _check_against_qhull(A):
    """The gauge's g_min, vertices of K and boundary simplices against scipy's
    Qhull: g_min and sum |det S| within 1e-12 relative, the same vertices, and
    every simplex on a facet of K."""
    p = A.shape[1]
    gauge = PolytopeGauge(A)
    polar = ConvexHull(A).equations
    assert gauge.sphere_bounds().g_min == pytest.approx(
        np.min(-polar[:, -1]), rel=1e-12, abs=0.0)
    # Qhull's triangulated coplanar facets give copies of a vertex that differ
    # in their last bits; every copy lies next to one vertex of the gauge's.
    cones = gauge._cones
    assert cones is not None
    V, simplices, _ = cones
    ref = polar[:, :-1] / -polar[:, -1:]
    gap = np.linalg.norm(ref[:, None, :] - V[None, :, :], axis=2)
    assert np.all(gap.min(axis=1) <= 1e-9 * np.abs(V).max())
    assert np.all(gap.min(axis=0) <= 1e-9 * np.abs(V).max())
    own = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2) + np.eye(len(V))
    assert own.min() > 1e-6 * np.abs(V).max()
    volume = np.abs(np.linalg.det(V[simplices])).sum()
    assert volume == pytest.approx(math.factorial(p) * ConvexHull(V).volume, rel=1e-12, abs=0.0)
    assert np.all((V[simplices] @ A.T).min(axis=1).max(axis=1) >= 1.0 - 1e-9)
    return gauge


@pytest.mark.parametrize("label", sorted(_COPLANAR))
def test_polytope_hull_matches_qhull_on_coplanar_points(label):
    gauge = _check_against_qhull(_COPLANAR[label])
    if label == "hexacube":
        assert len(gauge._vertices) == 154


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(3, 6).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, 12 - p), st.integers(0, 2**32 - 1))))
def test_polytope_hull_matches_qhull_on_random_polytopes(case):
    # A random facet set around the box |x_i| <= 1, which keeps the origin
    # inside; a cut may lie beyond the box's hull of facets or inside it.
    # At most 12 - p cuts keep K's simplex bound under MAX_BODY_SIMPLICES.
    p, m, seed = case
    rng = np.random.default_rng(seed)
    cuts = rng.normal(size=(m, p)) * rng.uniform(0.3, 1.5, (m, 1))
    _check_against_qhull(np.vstack([np.eye(p), -np.eye(p), cuts]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_polygon_hull_matches_qhull_on_random_polygons(m, seed):
    # The square's facets plus m random cuts, as at p >= 3 above.
    rng = np.random.default_rng(seed)
    cuts = rng.normal(size=(m, 2)) * rng.uniform(0.3, 1.5, (m, 1))
    _check_against_qhull(np.vstack([np.eye(2), -np.eye(2), cuts]))


def test_the_facet_check_of_many_cones_holds_a_bounded_block():
    # 1,000 facets on the unit circle, each a vertex of conv{a_j}: K has
    # 1,000 cones.  A (cones, 2, facets) gather of the facet scores would
    # take 16 MB; the check's blocks hold 2^20 scores (8 MiB), and the
    # hull's own plane check two arrays of that size.
    t = 2.0 * np.pi * np.arange(1000) / 1000
    gauge = PolytopeGauge(np.column_stack([np.cos(t), np.sin(t)]))
    tracemalloc.start()
    try:
        cones = gauge._cones
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cones is not None and len(cones[1]) == 1000
    assert peak < 3 * 8 * 2**20


def test_the_vertices_of_many_facets_come_from_a_bounded_incidence_block():
    # 2,000 facets on the unit circle, each a face of the polar hull: a
    # (facets, faces) float matrix of the incidences would take 32 MB.  The
    # constructor's blocks hold 2^20 scores (8 MiB); the hull itself peaks
    # near 16 MiB.
    t = 2.0 * np.pi * np.arange(2000) / 2000
    tracemalloc.start()
    try:
        gauge = PolytopeGauge(np.column_stack([np.cos(t), np.sin(t)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gauge._vertices) == 2000
    assert peak < 32 * 2**20


@pytest.mark.parametrize("p", [3, 5])
def test_polytope_with_a_flat_facet_set_raises(p):
    # Facets in the hyperplane x_p = 0: the polar hull is flat, and g is 0
    # along e_p.
    flat = np.column_stack([np.vstack([np.eye(p - 1), -np.eye(p - 1)]), np.zeros(2 * p - 2)])
    with pytest.raises(NonPositiveError):
        PolytopeGauge(flat)
    assert _convex_hull(flat) is None


def test_convex_hull_planes_hold_every_point():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 4))
    simplices, normals, offsets = _convex_hull(X)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert np.max(X @ normals.T - offsets) <= 1e-12 * np.abs(X).max()
    # Each simplex lies on its own plane, and the origin inside all of them.
    assert np.max(np.abs(np.einsum("kij,kj->ki", X[simplices], normals) - offsets[:, None])) < 1e-12
    assert offsets.min() > 0.0


def test_ridge_check_wants_an_oriented_closed_surface():
    # The edges of a square, each oriented along the cycle: every vertex is
    # the end of one edge and the start of the next.
    cycle = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    up = np.ones(4, dtype=bool)
    assert _ridges_pair_up(cycle, up)
    # An edge written backwards with the opposite orientation is the same edge.
    assert _ridges_pair_up(np.vstack([cycle[:3], [[0, 3]]]), np.array([True, True, True, False]))
    # One edge reversed folds the cycle back on itself; one missing opens it.
    assert not _ridges_pair_up(cycle, np.array([True, False, True, True]))
    assert not _ridges_pair_up(cycle[1:], up[1:])
