import json
import math

import jsonschema
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from starshape import (
    ExponentialProfile,
    GaussianProfile,
    HeavyTailProfile,
    KotzProfile,
    RadialTable,
    StarDistribution,
    SupNormGauge,
    ks_test,
    profile_from_dict,
    radial_constant,
    radial_density,
    two_sample_ks,
)
from starshape.errors import ConfigError, DivergentError, NonPositiveError, OutOfRangeError
from starshape.io import load_schema
from conftest import stream


def brute_riemann(profile, p, hi=60.0, n=2_000_000):
    """Independent midpoint-rule oracle for the radial integral."""
    g = (np.arange(n) + 0.5) * (hi / n)
    return float(np.sum(profile.shape(g, p) * g ** (p - 1)) * hi / n)


def test_radial_constant_gaussian_with_folded_normal_constant():
    # Folding in the bivariate normal constant gives the elliptical c0.
    c = radial_constant(GaussianProfile(1.0), 2) / (2.0 * np.pi)
    assert c == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-9)


def test_radial_constant_exponential_gamma_integral():
    assert radial_constant(ExponentialProfile(1.0), 3) == pytest.approx(2.0, rel=1e-9)


def test_radial_constant_kotz():
    # g^s e^(-r g^t) g^(p-1) = g^3 e^(-g^2/2) for (s=1, p=3) and (s=2, p=2);
    # substituting u = g^2/2 gives 2 * integral of u e^-u = 2.
    prof = KotzProfile(1.0, 0.5, 2.0)
    assert radial_constant(prof, 3) == pytest.approx(2.0, rel=1e-9)
    assert radial_constant(KotzProfile(2.0, 0.5, 2.0), 2) == pytest.approx(2.0, rel=1e-9)
    assert radial_constant(prof, 2) == pytest.approx(brute_riemann(prof, 2), rel=1e-5)


@pytest.mark.parametrize("key", ["gaussian", "exponential", "kotz", "heavytail"])
def test_radial_constant_positive_finite(profiles, key):
    val = radial_constant(profiles[key], 2)
    assert 0.0 < val < np.inf
    val3 = radial_constant(profiles[key], 3)
    assert 0.0 < val3 < np.inf


def test_radial_density_values():
    c = radial_constant(GaussianProfile(1.0), 2)
    assert radial_density(GaussianProfile(1.0), 2, c, 1.0) == pytest.approx(
        np.exp(-0.5), rel=1e-9
    )
    c1 = radial_constant(ExponentialProfile(1.0), 1)
    assert radial_density(ExponentialProfile(1.0), 1, c1, 2.0) == pytest.approx(
        np.exp(-2.0), rel=1e-9
    )


@pytest.mark.parametrize("key", ["gaussian", "exponential", "kotz", "heavytail"])
def test_radial_density_normalizes(profiles, key):
    prof = profiles[key]
    c = radial_constant(prof, 2)
    val, _ = integrate.quad(
        lambda g: radial_density(prof, 2, c, g), 0.0, np.inf, epsabs=1e-12, limit=300
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_radial_density_rejects_nonpositive():
    with pytest.raises(NonPositiveError):
        radial_density(GaussianProfile(1.0), 2, 1.0, 0.0)
    with pytest.raises(NonPositiveError):
        radial_density(GaussianProfile(1.0), 2, -1.0, 1.0)


@pytest.mark.parametrize("profile", [ExponentialProfile(1e-200), GaussianProfile(1e110)])
def test_overflowing_radial_constant_fails_loudly(profile):
    # Gamma(3) / rate^3 and the Gaussian mass overflow at p = 3; the table's
    # constant, and the density scale built on it, raise where they are used.
    with pytest.raises(DivergentError):
        radial_constant(profile, 3)
    with pytest.raises(DivergentError):
        RadialTable.build(profile, 3).constant
    with pytest.raises(DivergentError):
        StarDistribution(SupNormGauge(3), profile, n_mc=1000).scale


def test_table_head_of_a_steep_kotz_profile():
    # k = (p + s)/t = 1/30 and 2e-4.  r g^t ~ Gamma(k) falls below the
    # normal double range in its 1e-12 head at k = 1/30 and for ~87% of
    # draws at k = 2e-4, while g itself does not: lengths must be drawn in
    # g, and the CDF taken from its log-space series head.
    for t in (60.0, 1e4):
        table = RadialTable.build(KotzProfile(0.0, 1.0, t), 2)
        draws = table.sample(stream(106), 100_000)
        assert np.all(np.isfinite(draws) & (draws > 0.0))
        report = ks_test(draws, table.cdf_at, alpha=0.01)
        assert report.passed, (t, report)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(log_k=st.floats(-2.0, 3.0), tail=st.sampled_from([1e-10, 0.5]))
def test_tail_quantile_scans_powers_of_two_of_the_gamma_variate(log_k, tail):
    # f(g) = exp(-k g^t) at p = 2, t = 2/k, makes x = k g^t Gamma(k): the
    # length is (x/k)^(1/t) at the smallest power of two x with Q(k, x) <= tail.
    k = 10.0**log_k
    t = 2.0 / k
    profile = KotzProfile(0.0, k, t)
    g = profile._tail_quantile(2, tail)
    x = 2.0 ** round(math.log2(k) + t * math.log2(g))
    assert g == (x / k) ** (1.0 / t)

    def q(v):
        return mp.gammainc(2.0 / t, v, mp.inf, regularized=True)

    assert q(x) <= tail < q(x / 2.0)
    if tail == 1e-10:
        exact = mp.findroot(lambda y: mp.log(q(mp.exp(y))) - mp.log(tail),
                            (math.log(x / 2.0), math.log(x)), solver="anderson")
        assert RadialTable.build(profile, 2).g_hi >= (mp.exp(exact) / k) ** (1.0 / t)


@pytest.mark.parametrize("key", ["kotz", "heavytail"])
def test_length_draws_are_gamma_transforms(profiles, key):
    # The sampler is the documented transform of Gamma variates drawn from
    # the generator in order, nothing approximate in between.
    p, n = 3, 1000
    profile = profiles[key]
    draws = RadialTable.build(profile, p).sample(stream(107), n)
    gen = stream(107)
    if key == "kotz":
        s, r, t = profile.s, profile.r, profile.t
        x = gen.standard_gamma((p + s) / t + 1.0, n)
        u = 1.0 - gen.random(n)
        expected = (x / r) ** (1.0 / t) * u ** (1.0 / (p + s))
    else:
        x = gen.standard_gamma(p / 2.0, n)
        expected = np.sqrt(x / gen.standard_gamma(profile.nu / 2.0, n))
    np.testing.assert_array_equal(draws, expected)


class _ZeroGammas:
    """Generator stub whose Gamma variates are all 0."""

    def standard_gamma(self, shape, size):
        return np.zeros(size)

    def random(self, size):
        return np.full(size, 0.5)


@pytest.mark.parametrize("key", ["gaussian", "heavytail"])
def test_length_draw_outside_the_half_line_raises(profiles, key):
    table = RadialTable.build(profiles[key], 2)
    with np.errstate(invalid="ignore"), pytest.raises(DivergentError):
        table.sample(_ZeroGammas(), 10)


def test_rayleigh_median():
    table = RadialTable.build(GaussianProfile(1.0), 2)
    draws = table.sample(stream(101), 100_000)
    assert np.median(draws) == pytest.approx(np.sqrt(2.0 * np.log(2.0)), abs=0.01)


def test_unit_exponential_mean():
    table = RadialTable.build(ExponentialProfile(1.0), 1)
    draws = table.sample(stream(102), 100_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("key", ["gaussian", "exponential", "kotz", "heavytail"])
def test_sampling_ks_against_table_cdf(profiles, key):
    table = RadialTable.build(profiles[key], 2)
    draws = table.sample(stream(103), 100_000)
    report = ks_test(draws, table.cdf_at, alpha=0.01)
    assert report.passed, report


@pytest.mark.parametrize("nu", [0.01, 1.0, 3.0])
@pytest.mark.parametrize("p", [2, 3])
def test_heavy_tail_cdf_far_out_matches_mpmath(nu, p):
    # The upper tail I_y(nu/2, p/2), y = 1/(1 + g^2), is computed from t = 1/g:
    # by betainc at g = 1e100 and by its leading term once t^2 underflows.
    gs = np.array([1e100, 1e154, 1e200])
    got = RadialTable.build(HeavyTailProfile(nu), p).cdf_at(gs)
    for g, value in zip(gs, got):
        y = 1 / (1 + mp.mpf(g) ** 2)
        ref = 1 - mp.betainc(nu / 2, p / 2, 0, y, regularized=True)
        assert value == pytest.approx(float(ref), rel=1e-14)
    assert RadialTable.build(HeavyTailProfile(nu), p).cdf_at(np.inf) == 1.0


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 30.0])
@pytest.mark.parametrize("p", [2, 3])
def test_heavy_tail_g_hi_is_a_power_of_two_within_twice_the_quantile(nu, p):
    # The upper tail I_{1/(1 + g^2)}(nu/2, p/2) is at most 1e-10 at g_hi and
    # above it at g_hi/2, so the exact quantile lies in (g_hi/2, g_hi].
    g_hi = RadialTable.build(HeavyTailProfile(nu), p).g_hi
    assert g_hi == 2.0 ** round(math.log2(g_hi))

    def tail(g):
        return mp.betainc(nu / 2, p / 2, 0, 1 / (1 + mp.mpf(g) ** 2), regularized=True)

    assert tail(g_hi) <= 1e-10 < tail(g_hi / 2)


def test_heavy_tail_quantile_beyond_the_double_range_is_none():
    # At nu = 0.01 the tail is about g^-0.01, still ~0.03 at g = 2^512 where
    # g^2 overflows, and 1e-10 only near g = 1e1000.
    profile = HeavyTailProfile(0.01)
    assert profile._tail_quantile(2, 1e-10) == math.inf
    with pytest.raises(DivergentError, match="could not cover the radial tail"):
        RadialTable.build(profile, 2).g_hi


def test_gaussian_scale_equivariance():
    base = RadialTable.build(GaussianProfile(1.0), 2).sample(stream(104), 50_000)
    scaled = RadialTable.build(GaussianProfile(2.5), 2).sample(stream(105), 50_000)
    report = two_sample_ks(2.5 * base, scaled, alpha=0.01)
    assert report.passed, report


def test_profile_validation():
    # Stated positively, so that NaN and infinities fail too.
    for make in (lambda: GaussianProfile(0.0),
                 lambda: GaussianProfile(np.nan),
                 lambda: GaussianProfile(np.inf),
                 lambda: ExponentialProfile(-1.0),
                 lambda: ExponentialProfile(np.nan),
                 lambda: KotzProfile(-0.5, 1.0, 1.0),
                 lambda: KotzProfile(np.nan, 1.0, 1.0),
                 lambda: KotzProfile(1.0, np.inf, 1.0),
                 lambda: HeavyTailProfile(0.0),
                 lambda: HeavyTailProfile(np.inf)):
        with pytest.raises(NonPositiveError):
            make()


@pytest.mark.parametrize("scale", [1e200, 1e155, 1e-155, 1e-162, 1e-200])
def test_gaussian_scale_whose_rate_leaves_the_double_range_is_rejected(scale):
    with pytest.raises(OutOfRangeError, match=r"outside \[1e-154, 1e154\]"):
        GaussianProfile(scale)
    for edge in (1e-154, 1e154):
        assert GaussianProfile(edge)._kotz_form()[1] > 0.0


_MODERATE = st.floats(1e-3, 1e3)
_DOC_PROFILES = st.one_of(
    st.builds(GaussianProfile, _MODERATE),
    st.builds(ExponentialProfile, _MODERATE),
    st.builds(KotzProfile, st.floats(0.0, 10.0), _MODERATE, st.floats(0.1, 4.0)),
    st.builds(HeavyTailProfile, _MODERATE),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(prof=_DOC_PROFILES)
def test_profile_json_round_trip(prof):
    doc = json.loads(json.dumps(prof.to_dict()))
    back = profile_from_dict(doc)
    assert back.to_dict() == prof.to_dict()
    g = np.linspace(0.1, 5.0, 40)
    np.testing.assert_array_equal(back.shape(g, 3), prof.shape(g, 3))
    sup = {"dim": 2, "variant": "sup", "params": {}}
    jsonschema.validate({"gauge": sup, "profile": doc}, load_schema("distribution.schema.json"))


def test_profile_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown family"):
        profile_from_dict({"family": "levy", "params": {}})
    with pytest.raises(ConfigError, match="missing field 'rate'"):
        profile_from_dict({"family": "exponential", "params": {}})
    with pytest.raises(ConfigError, match="unknown field"):
        profile_from_dict({"family": "gaussian", "params": {"scale": 1.0, "x": 2}})
