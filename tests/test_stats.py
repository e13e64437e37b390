import numpy as np
import pytest
from scipy import stats as sstats

from starshape import (
    EllipticalGauge,
    chisq_gof,
    direction_constant,
    direction_sample,
    independence_chisq,
    kolmogorov_sf,
    ks_test,
    planar_angles,
    two_sample_ks,
    unit_angles,
)
from starshape import angle_bin_probs
from starshape.errors import DegenerateBinsError, TooFewSamplesError
from conftest import stream


def test_kolmogorov_series_against_scipy():
    for x in (1e-4, 0.01, 0.3, 0.5, 0.8, 1.2, 2.0):
        assert kolmogorov_sf(x) == pytest.approx(sstats.kstwobign.sf(x), abs=1e-9)


def test_ks_statistic_on_constructed_grid():
    n = 100
    samples = (np.arange(1, n + 1) - 0.5) / n  # exact uniform quantiles
    report = ks_test(samples, lambda x: x)
    assert report.statistic == pytest.approx(0.5 / n, abs=1e-15)


def test_ks_calibration_and_power():
    u = stream(501).random(100_000)
    assert ks_test(u, lambda x: x, alpha=0.01).passed
    v = stream(502).random(10_000)
    bad = ks_test(v, lambda x: sstats.beta.cdf(x, 2, 2))
    assert bad.p_value < 1e-6


def test_ks_requires_samples():
    with pytest.raises(TooFewSamplesError):
        ks_test(np.arange(5) / 5.0, lambda x: x)


def test_chisq_exact_proportional_counts():
    probs = np.array([0.2, 0.3, 0.4, 0.1])
    counts = probs * 1000
    report = chisq_gof(counts, probs)
    assert report.statistic == 0.0
    assert report.p_value == 1.0


def test_chisq_angular_gaussian_calibration_and_power():
    gauge = EllipticalGauge(np.diag([1.0, 4.0]))
    c0 = direction_constant(gauge).c0
    draws = direction_sample(gauge, stream(503), 100_000)
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    counts, _ = np.histogram(planar_angles(draws.points), bins=edges)
    probs = angle_bin_probs(gauge, c0, edges)
    assert chisq_gof(counts, probs, alpha=0.001).passed
    # Deliberately wrong anisotropy: power check.
    wrong = EllipticalGauge(np.diag([1.0, 2.0]))
    wrong_probs = angle_bin_probs(wrong, direction_constant(wrong).c0, edges)
    assert chisq_gof(counts, wrong_probs).p_value < 1e-6


def test_chisq_merges_thin_bins():
    probs = np.array([0.45, 0.45, 0.004, 0.096])
    counts = np.array([450.0, 450.0, 4.0, 96.0])
    report = chisq_gof(counts, probs)
    assert "3bins" in report.method
    # cascading merges collapse a long run of thin bins
    cascade = chisq_gof(np.array([499.0, 499.0, 1.0, 1.0]),
                        np.array([0.499, 0.499, 0.001, 0.001]))
    assert "2bins" in cascade.method
    with pytest.raises(DegenerateBinsError):
        chisq_gof(np.array([2.0, 1.0]), np.array([0.5, 0.5]))


def test_independence_calibration_and_dependence():
    gen = stream(504)
    u, v = gen.random(100_000), gen.random(100_000)
    assert independence_chisq(u, v, 8, 8, alpha=0.001).passed
    perfect = independence_chisq(u, u, 8, 8)
    assert perfect.p_value < 1e-12


def test_independence_sample_floor():
    with pytest.raises(TooFewSamplesError):
        independence_chisq(np.arange(100.0), np.arange(100.0), 8, 8)


def test_two_sample_ks_basics():
    a = stream(505).random(5_000)
    assert two_sample_ks(a, a).statistic == 0.0
    b = stream(506).random(5_000)
    assert two_sample_ks(a, b, alpha=0.01).passed
    assert two_sample_ks(a, b ** 2).p_value < 1e-6


def test_reports_are_deterministic():
    gen = stream(507)
    x = gen.random(1_000)
    assert ks_test(x, lambda t: t) == ks_test(x, lambda t: t)
    y = gen.random(1_000)
    assert two_sample_ks(x, y) == two_sample_ks(x, y)


def test_rejection_rate_calibration_all_tests():
    # 200 independent true-null runs per test; at alpha = 0.05 the
    # empirical rejection rate must sit in the stated [0.02, 0.09] window.
    K, alpha = 200, 0.05
    rej = {"ks": 0, "chisq": 0, "ind": 0, "ks2": 0}
    probs = np.full(20, 1.0 / 20)
    for k in range(K):
        gen = stream(600, k)
        u = gen.random(2_000)
        rej["ks"] += not ks_test(u, lambda x: x, alpha=alpha).passed
        counts = np.bincount(
            np.minimum((gen.random(2_000) * 20).astype(int), 19), minlength=20
        )
        rej["chisq"] += not chisq_gof(counts, probs, alpha=alpha).passed
        rej["ind"] += not independence_chisq(
            gen.random(3_200), gen.random(3_200), 8, 8, alpha=alpha
        ).passed
        rej["ks2"] += not two_sample_ks(gen.random(1_000), gen.random(1_000), alpha=alpha).passed
    for name, count in rej.items():
        assert 0.02 <= count / K <= 0.09, (name, count / K)
