"""Built-in verification suites behind the ``verify`` CLI command.

Each criterion produces a :class:`~starshape.stats.TestReport`.  Purely
deterministic tolerance checks are reported with p_value 1.0 or 0.0 and a
``deterministic-`` method tag; statistical checks carry their real
p-values.  Sample sizes here are sized for a command-line run; the test
suite exercises the same claims at full scale.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, gammainc

from . import rng as _rng
from .direction import angle_bin_probs, cross_section_mass
from .errors import DegenerateRootsError
from .gauge import Gauge
from .matrixmodels import (
    eigenvalue_density,
    gl_decompose_batch,
    gl_orbital_decompose,
    lt_decompose_batch,
    matrix_beta_density,
    verify_global_cross_section,
    wishart_sample,
)
from .radial import RadialProfile
from .starshaped import StarDistribution, planar_angles
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
    chk = dist.c0_cross_check(seed=seed)
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

    gen = _rng.stream(seed, 10)
    X = dist.sample(gen, n)
    g = dist.gauge.values(X)

    if dist.p == 2:
        angles = planar_angles(X)
        reports.append(
            independence_chisq(g, angles, 8, 8, alpha=alpha, name="length-direction-independence")
        )
        edges = np.linspace(0.0, 2.0 * np.pi, 37)
        counts, _ = np.histogram(angles, bins=edges)
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
            two_sample_ks(angles, alt_angles, alpha=0.01, name="null-robustness")
        )
    else:
        zp = X / np.linalg.norm(X, axis=1, keepdims=True)
        reports.append(
            independence_chisq(g, zp[:, 0], 4, 4, alpha=alpha, name="length-direction-independence")
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

    if p == 2:
        B, lam, ok = gl_decompose_batch(W1, W2)
        B, lam = B[ok], lam[ok]
        reports.append(_eigen_histogram_report(lam, a, b, alpha))
        reports.append(
            independence_chisq(
                B[:, 0, 0], lam[:, 0], 4, 4, alpha=alpha, name="b-l-independence"
            )
        )
        # det P(L) twist is an exact multiplicative factor.
        p_handle = lambda l: np.diag([1.0 + l[0], 1.0])
        probe = np.array([0.7, 0.3])
        ratio = eigenvalue_density(probe, a, b, p_handle=p_handle, normalized=False)
        ratio /= eigenvalue_density(probe, a, b, normalized=False)
        err = abs(ratio / (1.0 + probe[0]) ** (2 * (a + b)) - 1.0)
        reports.append(_tolerance_report("detP-twist-ratio", err, 1e-12))

        # Degenerate pairs must be rejected.
        try:
            gl_orbital_decompose(np.eye(2), np.eye(2))
            fired = False
        except DegenerateRootsError:
            fired = True
        reports.append(
            TestReport("degenerate-pair-rejection", 0.0 if fired else 1.0,
                       1.0 if fired else 0.0, 1, "error-path", 0.0, fired)
        )

        # Isotropy audits of standard, normalizer-twisted, and rotated
        # cross sections.
        L = np.diag([0.7, 0.3])
        eye = np.eye(2)
        std_clean = verify_global_cross_section([(L, eye - L)], "gl").clean
        P = np.diag([1.7, 1.0])
        tw_clean = verify_global_cross_section([(P @ L @ P.T, P @ (eye - L) @ P.T)], "gl").clean
        th = np.pi / 6.0
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
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
    probs = _u_cell_probs(a, b, edges1, edges2, sub=24)
    return chisq_gof(counts, probs, alpha=alpha, name="matrix-beta-histogram")


def _u_cell_probs(a, b, edges1, edges2, sub=24) -> np.ndarray:
    """Midpoint-rule cell probabilities of the p=2 matrix beta density."""
    m1 = len(edges1) - 1
    m2 = len(edges2) - 1
    fine = m1 * sub
    x = (np.arange(fine) + 0.5) / fine
    t = -0.5 + (np.arange(m2 * sub) + 0.5) / (m2 * sub)
    X, Y, Z = np.meshgrid(x, x, t, indexing="ij")
    dU = X * Y - Z ** 2
    dI = (1 - X) * (1 - Y) - Z ** 2
    vals = np.where(
        (dU > 0) & (dI > 0),
        np.where(dU > 0, dU, 1.0) ** (a - 1.5) * np.where(dI > 0, dI, 1.0) ** (b - 1.5),
        0.0,
    )
    cell = vals.reshape(m1, sub, m1, sub, m2, sub).sum(axis=(1, 3, 5))
    probs = cell.ravel()
    return probs / probs.sum()


def _eigen_histogram_report(lam: np.ndarray, a: float, b: float, alpha: float) -> TestReport:
    """Chi-square of (l1, l2) cells against the ordered eigenvalue density."""
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.histogram2d(lam[:, 0], lam[:, 1], bins=[edges, edges])[0].ravel()
    sub = 30
    fine = 10 * sub
    x = (np.arange(fine) + 0.5) / fine
    L1, L2 = np.meshgrid(x, x, indexing="ij")
    vals = np.where(
        L1 > L2,
        L1 ** (a - 1.5) * L2 ** (a - 1.5)
        * (1 - L1) ** (b - 1.5) * (1 - L2) ** (b - 1.5)
        * np.maximum(L1 - L2, 0.0),
        0.0,
    )
    cell = vals.reshape(10, sub, 10, sub).sum(axis=(1, 3))
    probs = cell.ravel()
    probs /= probs.sum()
    return chisq_gof(counts, probs, alpha=alpha, name="eigenvalue-law-histogram")
