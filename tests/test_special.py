import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as sstats
from scipy.special import roots_jacobi

from starshape.quadrature import gauss
from starshape.errors import NonPositiveError
from starshape.special import betainc, betaln, gammainc, gammaincc
from starshape.stats import kolmogorov_sf

mp.mp.dps = 50
_EXAMPLES = settings(derandomize=True, max_examples=300, deadline=None)


def _tails(a: float, x: float) -> tuple[mp.mpf, mp.mpf]:
    a, x = mp.mpf(a), mp.mpf(x)
    return (mp.gammainc(a, 0, x, regularized=True), mp.gammainc(a, x, mp.inf, regularized=True))


def _rel(value: float, ref: mp.mpf) -> float:
    return float(abs((mp.mpf(value) - ref) / ref))


@_EXAMPLES
@given(log_a=st.floats(-2.0, 2.0), spread=st.floats(-4.0, 1.5), near=st.floats(-6.0, 6.0),
       at_mode=st.booleans())
def test_incomplete_gamma_ratios_against_mpmath(log_a, spread, near, at_mode):
    # x either anywhere from 1e-4 a to 30 a, or within 6 standard deviations
    # of the mean; the bound holds where the smaller tail is at least 1e-100,
    # beyond which the rounding of the exponent, about 1e-16 per unit of
    # |log tail|, reaches it.
    a = 10.0 ** log_a
    x = a + near * math.sqrt(a) if at_mode else a * 10.0 ** spread
    assume(x > 0.0)
    p_ref, q_ref = _tails(a, x)
    assume(min(p_ref, q_ref) >= 1e-100)
    p, q = gammainc(a, x), gammaincc(a, x)
    if p_ref < q_ref:
        assert _rel(p, p_ref) <= 1e-13
    else:
        assert _rel(q, q_ref) <= 1e-13
    assert p + q == pytest.approx(1.0, abs=4e-16)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(log_a=st.floats(2.0, 6.0), near=st.floats(-8.0, 8.0))
def test_incomplete_gamma_ratios_terminate_for_large_a(log_a, near):
    # Near x = a both loops need about 10 sqrt(a) terms: 10^4 at a = 10^6.
    a = 10.0 ** log_a
    x = a + near * math.sqrt(a)
    big_a, big_x = mp.mpf(a), mp.mpf(x)
    mp.mp.dps = 70
    try:
        p_ref = mp.exp(big_a * mp.log(big_x) - big_x - mp.loggamma(big_a + 1)) * mp.hyp1f1(
            1, big_a + 1, big_x, maxterms=10**6
        )
        q_ref = 1 - p_ref
    finally:
        mp.mp.dps = 50
    p, q = gammainc(a, np.array([x, x])), gammaincc(a, x)
    assert _rel(p[0], p_ref) <= 1e-9 and _rel(p[1], p_ref) <= 1e-9
    assert _rel(q, q_ref) <= 1e-9


def test_incomplete_gamma_ratios_keep_the_shape_and_the_ends():
    x = np.array([[0.0, 0.5], [3.0, np.inf]])
    p, q = gammainc(2.5, x), gammaincc(2.5, x)
    assert p.shape == q.shape == (2, 2)
    assert (p[0, 0], q[0, 0], p[1, 1], q[1, 1]) == (0.0, 1.0, 1.0, 0.0)
    assert isinstance(gammaincc(2.5, 3.0), float)


def test_incomplete_gamma_ratios_where_x_over_a_overflows():
    # For a < 1 and x > a 1.8e308, (x - a)/a leaves the double range; the
    # ratios are still P = 1 and Q = 0 (RuntimeWarnings fail the suite).
    assert (gammainc(0.03, 1e307), gammaincc(0.03, 1e307)) == (1.0, 0.0)
    x = np.ldexp(1.0, np.arange(1000, 1024))
    assert gammaincc(1.0 / 30.0, x).tolist() == [0.0] * 24
    assert gammainc(1.0 / 30.0, x).tolist() == [1.0] * 24


def _lower_beta(a: mp.mpf, b: mp.mpf, z: mp.mpf) -> mp.mpf:
    """I_z(a, b) = z^a (1 - z)^b / (a B(a, b)) F(a + b, 1; a + 1; z) (DLMF
    8.17.8), a series of positive terms.  mpmath's own betainc sums
    F(a, 1 - b; a + 1; z), whose terms alternate, and does not converge for
    a or b near 5e5 at moderate z.  A tail far below the double range is 0."""
    log_pre = a * mp.log(z) + b * mp.log1p(-z) - mp.log(a) - mp.log(mp.beta(a, b))
    if log_pre < -800:
        return mp.mpf(0)
    return mp.exp(log_pre) * mp.hyp2f1(a + b, 1, a + 1, z, maxterms=10**6)


_BETA_GRID = [1e-3, 0.3, 1.0, 20.0, 1e3, 5e5, 1e6]


@pytest.mark.parametrize("a", _BETA_GRID)
def test_incomplete_beta_against_mpmath(a):
    # x from 1e-300 to 1/2 and at the mean and 3 standard deviations either
    # side of it; as (b, a) is in the grid too, I_x(b, a) = 1 - I_{1-x}(a, b)
    # takes x to within 1e-300 of 1.  The reference is the smaller tail
    # (symmetry), and every point where I_x(a, b) >= 1e-300 is gated.  The
    # worst, 1.2e-13 at a = 1000, b = 20, x = 1/2 (I = 1.8e-267), is the
    # rounding of the exponent, about 1e-16 per unit of |log I|.
    for b in _BETA_GRID:
        mean = a / (a + b)
        sd = math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
        xs = [1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.1, 0.3, 0.5]
        xs += [v for v in (mean - 3.0 * sd, mean, mean + 3.0 * sd) if 0.0 < v <= 0.5]
        got = betainc(a, b, np.array(xs))
        big_a, big_b = mp.mpf(a), mp.mpf(b)
        for x, value in zip(xs, got):
            z = mp.mpf(x)
            if z <= big_a / (big_a + big_b):
                ref = _lower_beta(big_a, big_b, z)
            else:
                ref = 1 - _lower_beta(big_b, big_a, 1 - z)
            if ref >= 1e-300:
                assert _rel(value, ref) <= 1.2e-13, (a, b, x)
            else:
                assert value < 1e-290, (a, b, x)
        assert abs(betaln(a, b) - mp.log(mp.beta(big_a, big_b))) <= 1e-13 * max(1.0, abs(betaln(a, b)))


def test_incomplete_beta_keeps_the_shape_and_the_ends():
    x = np.array([[0.0, 0.25], [0.75, 1.0]])
    got = betainc(2.5, 0.5, x)
    assert got.shape == (2, 2)
    assert (got[0, 0], got[1, 1]) == (0.0, 1.0)
    assert got[0, 1] + betainc(0.5, 2.5, 0.75) == pytest.approx(1.0, abs=4e-16)
    assert isinstance(betainc(2.5, 0.5, 0.25), float)
    # a + b near the top of the double range: I_x(1, b) = 1 - (1 - x)^b.
    assert betainc(1.0, 1e305, 1e-306) == pytest.approx(-math.expm1(-0.1), rel=1e-13)
    for a, b in ((0.0, 1.0), (1.0, -1.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(NonPositiveError):
            betainc(a, b, 0.5)
        with pytest.raises(NonPositiveError):
            betaln(a, b)


def test_kolmogorov_against_scipy_on_a_dense_grid():
    x = np.linspace(1e-4, 5.0, 20_001)
    ours = np.array([kolmogorov_sf(v) for v in x])
    ref = sstats.kstwobign.sf(x)
    assert np.max(np.abs(ours - ref) / ref) <= 5e-14
    assert kolmogorov_sf(0.0) == 1.0 and kolmogorov_sf(40.0) == 0.0


@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 0.02, 0.5, 1.0, 2.5, 10.5])
@pytest.mark.parametrize("beta", [-0.99, -0.5, 0.0, 0.3, 1.0, 3.5, 10.5])
def test_gauss_jacobi_against_scipy(alpha, beta):
    # Weights are compared on the scale of their sum mu0: with an exponent
    # at -0.99, roots_jacobi's own weights are off by up to 2.4e-11 of mu0
    # (against a 50-digit Golub-Welsch rule, which these match to 1e-14).
    for order in range(1, 41):
        t, w = gauss(order, -1.0, 1.0, alpha, beta)
        t_ref, w_ref = roots_jacobi(order, alpha, beta)
        assert np.max(np.abs(t - t_ref)) <= 4e-15, order
        assert np.max(np.abs(w - w_ref)) <= 1e-10 * w_ref.sum(), order
        assert w.sum() == pytest.approx(w_ref.sum(), rel=1e-14), order

