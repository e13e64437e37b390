"""Built-in verification suites behind the ``verify`` CLI command.

Each criterion produces a :class:`~starshape.stats.TestReport`.  Purely
deterministic tolerance checks are reported with p_value 1.0 or 0.0 and a
``deterministic-`` method tag; statistical checks carry their real
p-values.  Sample sizes here are sized for a command-line run; the test
suite exercises the same claims at full scale.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .direction import angle_bin_probs, cross_section_mass
from .errors import ConfigError, DegenerateRootsError
from .gauge import Gauge
from .matrixmodels import (
    _beta_det_shape,
    _eigen_shape,
    eigenvalue_density,
    gl_decompose_batch,
    gl_orbital_decompose,
    lt_decompose_batch,
    verify_global_cross_section,
    wishart_sample,
)
from .radial import RadialProfile
from .starshaped import StarDistribution, length_and_direction, planar_angles
from .stats import TestReport, chisq_gof, independence_chisq, ks_test, two_sample_ks


def _tolerance_report(name: str, value: float, tol: float, n: int = 0) -> TestReport:
    ok = bool(value <= tol)
    return TestReport(
        name, float(value), 1.0 if ok else 0.0, n,
        f"deterministic-tolerance<={tol:g}", 0.0, ok,
    )


def vector_suite(
    gauge: Gauge,
    profile: RadialProfile,
    stored_c0: float | None = None,
    n: int = 40_000,
    seed: int = 0,
    alpha: float = 0.001,
) -> list[TestReport]:
    """Criteria applicable to one star-shaped distribution."""
    reports: list[TestReport] = []
    dist = StarDistribution(gauge, profile, seed=seed)

    # Twin routes to the normalizing constant.
    chk = dist.c0_cross_check()
    if dist.p == 2:
        tol = 1e-6 if gauge.kink_angles().size else 1e-7
        reports.append(_tolerance_report("c0-twin-route", chk["rel_discrepancy"], tol))
    else:
        limit = 3.0 * chk["combined_stderr"] / chk["c0_spherical"]
        reports.append(
            _tolerance_report("c0-twin-route", chk["rel_discrepancy"], max(limit, 1e-12))
        )

    if stored_c0 is not None:
        rel = abs(stored_c0 - dist.c0) / dist.c0
        reports.append(_tolerance_report("c0-stored-consistency", rel, 1e-6))

    g, direction = length_and_direction(gauge, dist.sample(_rng.stream(seed, 10), n))

    bins = 8 if dist.p == 2 else 4
    reports.append(
        independence_chisq(g, direction, bins, bins, alpha=alpha, name="length-direction-independence")
    )
    if dist.p == 2:
        edges = np.linspace(0.0, 2.0 * np.pi, 37)
        counts, _ = np.histogram(direction, bins=edges)
        probs = angle_bin_probs(gauge, dist.c0, edges)
        reports.append(chisq_gof(counts, probs, alpha=alpha, name="direction-law-36bin"))
        mass = cross_section_mass(gauge, dist.c0)
        reports.append(_tolerance_report("surface-measure-mass", abs(mass - 1.0), 1e-6))

        # Direction law does not depend on the radial profile.
        from .radial import ExponentialProfile, GaussianProfile

        alt = GaussianProfile(1.0) if profile.family != "gaussian" else ExponentialProfile(1.0)
        alt_dist = StarDistribution(gauge, alt, seed=seed)
        alt_angles = planar_angles(alt_dist.sample(_rng.stream(seed, 11), n))
        reports.append(
            two_sample_ks(direction, alt_angles, alpha=0.01, name="null-robustness")
        )

    # Radial marginal against the exact length-law CDF.
    reports.append(ks_test(g, dist.table.cdf_at, alpha=0.01, name="radial-marginal-ks"))
    return reports


def matrix_suite(
    p: int = 2,
    n1: float = 5.0,
    n2: float = 7.0,
    n: int = 30_000,
    seed: int = 0,
    alpha: float = 0.001,
) -> list[TestReport]:
    """Criteria for the Wishart-pair fixture under both group actions."""
    from scipy.special import betainc, gammainc

    if p >= 2 and min(n1, n2) < 3.0:
        # Below a, b = 3/2 the shapes are unbounded at the edge of their
        # support, which the midpoint cells of the histograms cannot follow.
        low = " and ".join(f"{k} = {v:g}" for k, v in (("n1", n1), ("n2", n2)) if v < 3.0)
        raise ConfigError(f"{low}: the matrix criteria at p >= 2 need n1, n2 >= 3")
    a, b = n1 / 2.0, n2 / 2.0
    gen = _rng.stream(seed, 20)
    W1 = wishart_sample(p, n1, gen, n)
    W2 = wishart_sample(p, n2, gen, n)
    T, U = lt_decompose_batch(W1, W2)
    reports: list[TestReport] = []

    if p == 1:
        reports.append(
            ks_test(
                U[:, 0, 0],
                lambda x: betainc(a, b, x),
                alpha=0.01,
                name="matrix-beta-scalar-ks",
            )
        )
    else:
        reports.append(_u_histogram_report(U, a, b, alpha))
        reports.append(
            independence_chisq(
                T[:, 0, 0], U[:, 0, 0], 4, 4, alpha=alpha, name="t-u-independence"
            )
        )

    reports.append(
        ks_test(
            T[:, 0, 0] ** 2,
            lambda x: gammainc((n1 + n2) / 2.0, x / 2.0),
            alpha=0.01,
            name="bartlett-t11-ks",
        )
    )

    if p >= 2:
        B, lam, ok = gl_decompose_batch(W1, W2)
        B, lam = B[ok], lam[ok]
        if p == 2:
            reports.append(_eigen_histogram_report(lam, a, b, alpha))
        else:  # det U = prod l_i ~ prod Beta(a - i/2, b), i < p (Muirhead 1982, Thm 3.3.3)
            ref_gen = _rng.stream(seed, 21)
            ref = np.prod([ref_gen.beta(a - i / 2.0, b, len(lam)) for i in range(p)], axis=0)
            reports.append(two_sample_ks(lam.prod(axis=1), ref, alpha=0.01, name="root-product-ks"))
        reports.append(
            independence_chisq(
                B[:, 0, 0], lam[:, 0], 4, 4, alpha=alpha, name="b-l-independence"
            )
        )
        # det P(L) twist is an exact multiplicative factor.
        p_handle = lambda l: np.diag(np.r_[1.0 + l[0], np.ones(p - 1)])
        probe = np.linspace(0.7, 0.3, p)
        ratio = eigenvalue_density(probe, a, b, p_handle=p_handle, normalized=False)
        ratio /= eigenvalue_density(probe, a, b, normalized=False)
        err = abs(ratio / (1.0 + probe[0]) ** (2 * (a + b)) - 1.0)
        reports.append(_tolerance_report("detP-twist-ratio", err, 1e-12))

        # Degenerate pairs must be rejected.
        eye = np.eye(p)
        try:
            gl_orbital_decompose(eye, eye)
            fired = False
        except DegenerateRootsError:
            fired = True
        reports.append(
            TestReport("degenerate-pair-rejection", 0.0 if fired else 1.0,
                       1.0 if fired else 0.0, 1, "error-path", 0.0, fired)
        )

        # Isotropy audits of standard, normalizer-twisted, and rotated
        # cross sections.
        L = np.diag(probe)
        std_clean = verify_global_cross_section([(L, eye - L)], "gl").clean
        P = np.diag(np.r_[1.7, np.ones(p - 1)])
        tw_clean = verify_global_cross_section([(P @ L @ P.T, P @ (eye - L) @ P.T)], "gl").clean
        th = np.pi / 6.0
        R = eye.copy()
        R[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        rot_flagged = not verify_global_cross_section(
            [(R @ L @ R.T, R @ (eye - L) @ R.T)], "gl"
        ).clean
        ok_all = std_clean and tw_clean and rot_flagged
        reports.append(
            TestReport("cross-section-isotropy", 0.0 if ok_all else 1.0,
                       1.0 if ok_all else 0.0, 3, "exhaustive-sign-group", 0.0, ok_all)
        )
    return reports


def _u_histogram_report(U: np.ndarray, a: float, b: float, alpha: float) -> TestReport:
    """Chi-square of (u11, u22, u12) cells against the p=2 beta density."""
    edges1 = np.linspace(0.0, 1.0, 6)
    edges2 = np.linspace(-0.5, 0.5, 6)
    counts = np.histogramdd(
        np.column_stack([U[:, 0, 0], U[:, 1, 1], U[:, 0, 1]]),
        bins=[edges1, edges1, edges2],
    )[0].ravel()

    # Closed-form determinants: np.linalg.det runs one LU per node, on ~0.9M nodes.
    def density(u):  # zero outside 0 < U < I
        u11, u22, u12 = np.moveaxis(u, -1, 0)
        dU = u11 * u22 - u12 ** 2
        dI = (1.0 - u11) * (1.0 - u22) - u12 ** 2
        inside = (dU > 0) & (dI > 0)
        dU, dI = np.where(inside, dU, 1.0), np.where(inside, dI, 1.0)
        return np.where(inside, _beta_det_shape(dU, dI, 2, a, b), 0.0)

    probs = _cell_probs(density, [edges1, edges1, edges2], sub=24)
    return chisq_gof(counts, probs, alpha=alpha, name="matrix-beta-histogram")


def _eigen_histogram_report(lam: np.ndarray, a: float, b: float, alpha: float) -> TestReport:
    """Chi-square of (l1, l2) cells against the ordered eigenvalue density."""
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.histogram2d(lam[:, 0], lam[:, 1], bins=[edges, edges])[0].ravel()
    probs = _cell_probs(lambda l: np.where(l[..., 0] > l[..., 1], _eigen_shape(l, a, b, None), 0.0),
                        [edges, edges], sub=30)
    return chisq_gof(counts, probs, alpha=alpha, name="eigenvalue-law-histogram")


def _cell_probs(density, edges, sub) -> np.ndarray:
    """Midpoint-rule probabilities of the cells of equally spaced ``edges``, flattened.

    Each cell gets ``sub`` nodes per axis, where ``density`` maps nodes (..., d) to an
    unnormalised density, summed one first-axis cell at a time: never the full node grid.
    """
    m = [len(e) - 1 for e in edges]
    axes = [e[0] + (e[-1] - e[0]) * (np.arange(k * sub) + 0.5) / (k * sub) for e, k in zip(edges, m)]
    cells = []
    for i in range(m[0]):
        nodes = np.meshgrid(axes[0][i * sub:(i + 1) * sub], *axes[1:], indexing="ij")
        vals = density(np.stack(nodes, axis=-1)).reshape([sub] + [n for k in m[1:] for n in (k, sub)])
        cells.append(vals.sum(axis=tuple(range(0, vals.ndim, 2))))
    probs = np.ravel(cells)
    return probs / probs.sum()
