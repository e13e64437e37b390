"""The gamma-family special functions, in numpy.

The regularized incomplete gamma ratios P(a, x) and Q(a, x) = 1 - P(a, x)
follow DiDonato and Morris (ACM TOMS 12, 1986): for a < 1 and x < 1.5 both
tails come from the Taylor series in x, with 1/Gamma(1 + a) - 1 summed from
its own Taylor coefficients so that the smaller tail keeps its relative
accuracy; elsewhere P comes from its power series below x = a + 1 and Q from
the Legendre continued fraction above, the other tail being one minus it.
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
# Near x = a the power series and the continued fraction need about
# 10 sqrt(a) terms; the cap covers a up to about 4e7 there.
_MAX_TERMS = 50_000
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

    return _converge(step, (x, term, total), a, "power series")


def _continued_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q / D = 1/(x + 1 - a - 1 (1 - a)/(x + 3 - a - 2 (2 - a)/(...))), by the
    modified Lentz method, for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()

    def step(n, state):
        b, c, d, h = state
        an = -n * (n - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        delta = c * d
        return (b, c, d, h * delta), np.abs(delta - 1.0) <= _EPS

    return _converge(step, (b, c, d, h), a, "continued fraction")


def _converge(step, state, a: float, what: str):
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
    raise QuadratureFailureError(
        f"the incomplete gamma {what} at a = {a:g} did not converge in {_MAX_TERMS} terms"
    )
