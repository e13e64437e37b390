"""The gamma- and beta-family special functions, in numpy.

The regularized incomplete gamma ratios P(a, x) and Q(a, x) = 1 - P(a, x)
follow DiDonato and Morris (ACM TOMS 12, 1986): for a < 1 and x < 1.5 both
tails come from the Taylor series in x, with 1/Gamma(1 + a) - 1 summed from
its own Taylor coefficients so that the smaller tail keeps its relative
accuracy; elsewhere P comes from its power series below x = a + 1 and Q from
the Legendre continued fraction above, the other tail being one minus it.
The regularized incomplete beta ratio I_x(a, b) and log B(a, b) follow
DiDonato and Morris (ACM TOMS 18, 1992): the continued fraction of their
BFRAC below x = (a + 1)/(a + b + 2), and 1 - I_{1-x}(b, a) above.
Each element leaves its loop once its sum has converged, and a loop that
reaches its cap raises.  Besides the package's errors only ``math`` and
``numpy`` are imported, and callers import this module inside the functions
that use it, so that a command which never evaluates them does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveError, QuadratureFailureError

_EPS = float(np.finfo(float).eps)
_TINY = 1e-300  # the Lentz method's stand-in for a zero denominator
# Near x = a the power series and the continued fraction need about
# 10 sqrt(a) terms; the cap covers a up to about 4e7 there.
_MAX_TERMS = 50_000
# 1/(2k + 3) for k = 17, ..., 0: w^36/39 < 1e-18 w^2 for |w| <= 1/3.
_ATANH_SERIES = 1.0 / np.arange(37.0, 1.0, -2.0)
_TAYLOR_TERMS = 30  # (-x)^n / n! < 1e-18 beyond it for x < 1.5
# Taylor coefficients of 1/Gamma(1 + a) at a = 0 (Abramowitz and Stegun
# 6.1.34), from the a^1 term on; the first is Euler's constant.
_RGAMMA1P = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09,
    1.0434267116911005e-10, 7.782263439905071e-12, -3.696805618642206e-12,
    5.100370287454476e-13, -2.0583260535665066e-14, -5.348122539423018e-15,
    1.2267786282382608e-15, -1.1812593016974588e-16, 1.1866922547516004e-18,
)


def gammainc(a: float, x):
    """Regularized lower incomplete gamma P(a, x), elementwise over x >= 0."""
    return _ratios(a, x)[0]


def gammaincc(a: float, x):
    """Regularized upper incomplete gamma Q(a, x), elementwise over x >= 0."""
    return _ratios(a, x)[1]


def _ratios(a: float, x):
    """(P(a, x), Q(a, x))."""
    a = float(a)
    if not 0.0 < a < math.inf:
        raise NonPositiveError(f"the incomplete gamma ratios need 0 < a < inf, got a = {a}")
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    p, q = np.full(xs.shape, np.nan), np.full(xs.shape, np.nan)
    p[xs == 0.0], q[xs == 0.0] = 0.0, 1.0
    p[xs == np.inf], q[xs == np.inf] = 1.0, 0.0
    inside = (xs > 0.0) & (xs < np.inf)
    taylor = inside & (xs < 1.5) if a < 1.0 else np.zeros_like(inside)
    series = inside & ~taylor & (xs < a + 1.0)
    frac = inside & ~taylor & ~series
    if taylor.any():
        p[taylor], q[taylor] = _taylor(a, xs[taylor])
    for mask, sums, left in ((series, _power_series, True), (frac, _continued_fraction, False)):
        if mask.any():
            tail = _density(a, xs[mask]) * sums(a, xs[mask])
            p[mask], q[mask] = (tail, 1.0 - tail) if left else (1.0 - tail, tail)
    return p.reshape(x.shape)[()], q.reshape(x.shape)[()]


def _density(a: float, x: np.ndarray) -> np.ndarray:
    """D = x^a e^-x / Gamma(a), as sqrt(a / 2 pi) exp(a (log(1 + u) - u) - mu(a))
    with u = (x - a)/a, so that no large logarithms cancel near x = a; below
    x = a/2, where 1 + u would round, log(1 + u) is log(x/a).  Where u
    overflows (a < 1, x > a 1.8e308) x is far above a, nothing cancels, and
    D is exp(a log x - x) / Gamma(a)."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        u = (x - a) / a
        far = u == np.inf
        u[far] = 0.0
        log_ratio = np.where(u < -0.5, np.log(x / a), np.log1p(u))
        d = math.sqrt(a / (2.0 * math.pi)) * np.exp(a * (log_ratio - u) - _stirling_error(a))
        d[far] = np.exp(a * np.log(x[far]) - x[far] - math.lgamma(a))
    return d


def _stirling_error(a: float) -> float:
    """mu(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2."""
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    # Stirling's series; its first omitted term is below 1e-16 at a = 10.
    z = 1.0 / (a * a)
    return (1.0 / 12 - z * (1.0 / 360 - z * (1.0 / 1260 - z * (1.0 / 1680 - z * (1.0 / 1188
            - z * (691.0 / 360360 - z / 156.0)))))) / a


def _taylor(a: float, x: np.ndarray):
    """(P, Q) for a < 1 and x < 1.5 (DiDonato and Morris, eqs. 9 and 10).

    With t = x^a / Gamma(1 + a) and s = sum_{n>=1} (-x)^n / ((a + n) n!),
    P = t (1 + a s) and Q = (1 - t) - t a s, where 1 - t is formed from
    expm1(a log x) and 1/Gamma(1 + a) - 1 without cancellation.
    """
    s = np.zeros_like(x)
    term = np.ones_like(x)
    for n in range(1, _TAYLOR_TERMS):
        term *= -x / n
        s += term / (a + n)
    g1 = a * np.polyval(_RGAMMA1P[::-1], a)  # 1/Gamma(1 + a) - 1
    log_x = np.log(x)
    t = np.exp(a * log_x) * (1.0 + g1)
    one_minus_t = -(np.expm1(a * log_x) * (1.0 + g1) + g1)
    return t * (1.0 + a * s), one_minus_t - t * a * s


def _power_series(a: float, x: np.ndarray) -> np.ndarray:
    """P / D = sum_{n>=0} x^n / (a (a + 1) ... (a + n)), for x < a + 1."""
    total = np.full(x.shape, 1.0 / a)
    term = total.copy()

    def step(n, state):
        xs, term, total = state
        term = term * xs / (a + n)
        total = total + term
        return (xs, term, total), term <= _EPS * total

    return _converge(step, (x, term, total), f"incomplete gamma power series at a = {a:g}")


def _continued_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q / D = 1/(x + 1 - a - 1 (1 - a)/(x + 3 - a - 2 (2 - a)/(...))), by the
    modified Lentz method, for x >= a + 1."""
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()

    def step(n, state):
        b, c, d, h = state
        b = b + 2.0
        c, d, delta = _lentz(-n * (n - a), b, c, d)
        return (b, c, d, h * delta), np.abs(delta - 1.0) <= _EPS

    return _converge(step, (b, c, d, h), f"incomplete gamma continued fraction at a = {a:g}")


def betaln(a: float, b: float) -> float:
    """log B(a, b), from Stirling's formula with the corrections mu, so that
    no large log-gammas cancel when a + b is large."""
    a, b = sorted(_positive(a, b))
    return (0.5 * math.log(2.0 * math.pi) + (a - 0.5) * math.log(a) - a * math.log(a + b)
            - (b - 0.5) * math.log1p(a / b)
            + _stirling_error(a) + _stirling_error(b) - _stirling_error(a + b))


def betainc(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), elementwise over 0 <= x <= 1."""
    a, b = _positive(a, b)
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    out = np.full(xs.shape, np.nan)
    out[xs == 0.0], out[xs == 1.0] = 0.0, 1.0
    inside = (xs > 0.0) & (xs < 1.0)
    low = inside & (xs <= (a + 1.0) / (a + b + 2.0))
    high = inside & ~low
    if low.any():
        xl = xs[low]
        out[low] = _beta_fraction(a, b, xl, 1.0 - xl, _mode_offset(a, b, xl))
    if high.any():
        xh = xs[high]
        out[high] = 1.0 - _beta_fraction(b, a, 1.0 - xh, xh, -_mode_offset(a, b, xh))
    return out.reshape(x.shape)[()]


def _mode_offset(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """lambda = a - (a + b) x from x, which is exact where 1 - x is not, with
    a + b and its product with x carried to twice the precision (Knuth's
    two-sum, Dekker's two-product), so that it keeps its relative accuracy
    near x = a/(a + b), where a and (a + b) x cancel."""
    s = a + b
    s_err = (max(a, b) - s) + min(a, b)
    m, e = math.frexp(s)  # s = m 2^e: m is split, so that nothing overflows
    sh, sl = (math.ldexp(v, e) for v in _split(m))
    xh, xl = _split(x)
    p = s * x
    p_err = ((sh * xh - p) + sh * xl + sl * xh) + sl * xl
    return (a - p) - p_err - s_err * x


def _split(v):
    """(hi, lo) with v = hi + lo, each with half of v's 53 bits (Veltkamp)."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _positive(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; raises unless both are positive and finite."""
    a, b = float(a), float(b)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise NonPositiveError(f"the beta function needs 0 < a, b < inf, got a = {a}, b = {b}")
    return a, b


def _beta_fraction(a: float, b: float, x: np.ndarray, y: np.ndarray, lam: np.ndarray):
    """I_x(a, b) = x^a y^b / B(a, b) / (b0 + alpha_1/(beta_1 + alpha_2/(...))),
    the continued fraction of BFRAC (DiDonato and Morris 1992), for y = 1 - x
    and lam = a - (a + b) x > -1, where its terms have no cancellation."""
    h = a * (1.0 + lam) / (a + 1.0)

    def step(n, state):
        x, y, lam, c, d, h = state
        s = a + 2.0 * n - 1.0
        w = n * (b - n) * x
        alpha = (a + n - 1.0) * (a + b + n - 1.0) / (s * s) * w * x
        beta = n + w / s + (a + n) / (s + 2.0) * (1.0 + lam + n * (1.0 + y))
        c, d, delta = _lentz(alpha, beta, c, d)
        return (x, y, lam, c, d, h * delta), np.abs(delta - 1.0) <= _EPS

    state = (x, y, lam, h.copy(), np.zeros_like(h), h)
    what = f"incomplete beta continued fraction at a = {a:g}, b = {b:g}"
    return _beta_density(a, b, x, y, lam) / _converge(step, state, what)


def _beta_density(a: float, b: float, x: np.ndarray, y: np.ndarray, lam: np.ndarray):
    """x^a y^b / B(a, b) in logs, log x and log y both taken from the smaller
    of x and y, which is exact.  For a, b >= 8 it is sqrt(ab / (2 pi (a + b)))
    exp(a (log(1 + u) - u) + b (log(1 + v) - v) - mu(a) - mu(b) + mu(a + b)),
    u = x/x0 - 1 and v = y/y0 - 1 about x0 = a/(a + b), y0 = b/(a + b), so
    that no large logarithms cancel near the mode; below u = -1/2, where 1 + u
    would round, log(1 + u) is log(x/x0), and so for v."""
    with np.errstate(divide="ignore"):
        if min(a, b) < 8.0:
            lx = np.where(x <= y, np.log(x), np.log1p(-y))
            ly = np.where(x <= y, np.log1p(-x), np.log(y))
            return np.exp(a * lx + b * ly - betaln(a, b))
        u, v = -lam / a, lam / b
        eu = np.where(u < -0.5, np.log(x * ((a + b) / a)) - u, _log1pmx(np.maximum(u, -0.5)))
        ev = np.where(v < -0.5, np.log(y * ((a + b) / b)) - v, _log1pmx(np.maximum(v, -0.5)))
    mu = _stirling_error(a + b) - _stirling_error(a) - _stirling_error(b)
    return math.sqrt(a * b / (2.0 * math.pi * (a + b))) * np.exp(a * eu + b * ev + mu)


def _log1pmx(u: np.ndarray) -> np.ndarray:
    """log(1 + u) - u for u >= -1/2.  Up to |u| = 1/2 it is -u w + 2 w^3
    (1/3 + w^2/5 + w^4/7 + ...) with w = u/(2 + u), the series of
    2 atanh(w) = log(1 + u) less u, so that nothing cancels for small u."""
    w = u / (2.0 + u)
    series = -u * w + 2.0 * w**3 * np.polyval(_ATANH_SERIES, w * w)
    return np.where(np.abs(u) <= 0.5, series, np.log1p(u) - u)


def _lentz(an, bn, c: np.ndarray, d: np.ndarray):
    """One step of the modified Lentz method for b0 + a1/(b1 + a2/(b2 + ...)):
    the new C and D, and their product, by which the step moves the value."""
    d = an * d + bn
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
    c = bn + an / c
    c = np.where(np.abs(c) < _TINY, _TINY, c)
    return c, d, c * d


def _converge(step, state, what: str):
    """The last array of ``state`` once ``step(n, state) -> (state, done)``,
    applied for n = 1, 2, ... to arrays of equal length, has marked each of
    its elements done; an element leaves the arrays once it is."""
    out = state[-1].copy()
    live = np.arange(out.size)
    for n in range(1, _MAX_TERMS):
        state, done = step(n, state)
        if done.any():
            out[live[done]] = state[-1][done]
            keep = ~done
            live = live[keep]
            state = tuple(s[keep] for s in state)
        if not live.size:
            return out
    raise QuadratureFailureError(f"the {what} did not converge in {_MAX_TERMS} terms")
