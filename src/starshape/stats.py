"""Goodness-of-fit and independence tests for distributional claims.

Small, deterministic, asymptotic-p-value implementations: one- and
two-sample Kolmogorov-Smirnov with the Kolmogorov limit law, Pearson
chi-square against given cell probabilities with greedy adjacent merging of
thin bins, and a contingency chi-square with empirical-quantile margins.
All tests return a :class:`TestReport` carrying the statistic, the p-value
and a pass flag at the caller's alpha.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateBinsError, TooFewSamplesError

_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check; deterministic in its inputs."""

    name: str
    statistic: float
    p_value: float
    n: int
    method: str
    alpha: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov limit law, P(K > x).

    Below x = 1 it is one minus the theta-function form of the CDF,
    sqrt(2 pi)/x sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2)); from x = 1 on it is
    2 sum_k (-1)^(k-1) exp(-2 k^2 x^2).  Five terms of either series reach
    double precision on its side of x = 1.
    """
    x = float(x)
    if x < 1.0:
        if not x > 0.1:  # the CDF is below 1e-50
            return 1.0
        w = -(math.pi / x) ** 2 / 8.0
        terms = (math.exp(w * (2 * k - 1) ** 2) for k in range(1, 6))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(terms)
    w = -2.0 * x * x
    return 2.0 * sum((-1) ** (k - 1) * math.exp(w * k * k) for k in range(1, 6))


def ks_test(samples, cdf, alpha: float = 0.05, name: str = "ks") -> TestReport:
    """One-sample Kolmogorov-Smirnov against a CDF handle."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 10:
        raise TooFewSamplesError(f"need at least 10 samples, got {n}")
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    p = kolmogorov_sf(np.sqrt(n) * d)
    return TestReport(name, d, p, n, "ks-one-sample", alpha, p > alpha)


def two_sample_ks(a, b, alpha: float = 0.05, name: str = "ks2") -> TestReport:
    """Two-sample Kolmogorov-Smirnov at effective size n_a n_b / (n_a + n_b)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size < 10 or b.size < 10:
        raise TooFewSamplesError("both samples need at least 10 points")
    grid = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid, side="right") / a.size
    Fb = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(Fa - Fb)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = kolmogorov_sf(np.sqrt(n_eff) * d)
    return TestReport(name, d, p, int(a.size + b.size), "ks-two-sample", alpha, p > alpha)


def _merge_thin_bins(counts: np.ndarray, expected: np.ndarray):
    """Greedy adjacent-first merge until every expected count is >= 5."""
    counts = list(counts.astype(float))
    expected = list(expected.astype(float))
    while len(expected) > 1 and min(expected) < _MIN_EXPECTED:
        i = next(k for k, e in enumerate(expected) if e < _MIN_EXPECTED)
        j = i + 1 if i + 1 < len(expected) else i - 1
        lo, hi = min(i, j), max(i, j)
        counts[lo] += counts[hi]
        expected[lo] += expected[hi]
        del counts[hi], expected[hi]
    return np.array(counts), np.array(expected)


def chi_square_sf(stat: float, dof: int) -> float:
    """Upper tail of chi-square via the regularized incomplete gamma."""
    from .special import gammaincc  # compiled only by the commands that use it

    return float(gammaincc(dof / 2.0, stat / 2.0))


def chisq_gof(bin_counts, expected_probs, alpha: float = 0.05, name: str = "chisq") -> TestReport:
    """Pearson chi-square of observed counts against cell probabilities.

    Cells with expected count below 5 are merged into a neighbor
    (adjacent-first, in order); fewer than two surviving cells is an error.
    """
    counts = np.asarray(bin_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise DegenerateBinsError("counts and probabilities must be equal-length 1-D")
    n = counts.sum()
    expected = probs / probs.sum() * n
    counts, expected = _merge_thin_bins(counts, expected)
    if counts.size < 2:
        raise DegenerateBinsError("fewer than 2 bins survive merging")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = counts.size - 1
    p = chi_square_sf(stat, dof)
    return TestReport(name, stat, p, int(n), f"chisq-gof-{counts.size}bins", alpha, p > alpha)


def independence_chisq(
    a,
    b,
    bins_a: int = 8,
    bins_b: int = 8,
    alpha: float = 0.05,
    name: str = "independence",
) -> TestReport:
    """Contingency chi-square with empirical-quantile margins.

    Quantile binning keeps every expected cell count near n/(bins_a bins_b),
    which protects the expected-count floor under heavy-tailed margins.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    if b.size != n:
        raise TooFewSamplesError("paired samples must have equal length")
    if n < 50 * bins_a * bins_b:
        raise TooFewSamplesError(
            f"need n >= {50 * bins_a * bins_b} for {bins_a}x{bins_b} bins, got {n}"
        )
    ia = _quantile_bin(a, bins_a)
    ib = _quantile_bin(b, bins_b)
    table = np.zeros((bins_a, bins_b))
    np.add.at(table, (ia, ib), 1.0)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    stat = float(np.sum((table - expected) ** 2 / expected))
    dof = (bins_a - 1) * (bins_b - 1)
    p = chi_square_sf(stat, dof)
    return TestReport(
        name, stat, p, int(n), f"chisq-independence-{bins_a}x{bins_b}", alpha, p > alpha
    )


def _quantile_bin(x: np.ndarray, bins: int) -> np.ndarray:
    edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.clip(np.searchsorted(edges, x, side="right"), 0, bins - 1)
