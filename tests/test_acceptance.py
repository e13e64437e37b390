"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale: p <= 3, n <= 1e6, fixed seeds throughout.  Expected values are
either closed forms checked against independent oracles computed here, or
cell probabilities obtained by numerical integration of the stated
densities (never from the sampling path under test).
"""

import numpy as np
import pytest
from scipy import integrate, stats as sstats

from starshape import (
    EllipticalGauge,
    ExponentialProfile,
    GaussianProfile,
    L1NormGauge,
    StarDistribution,
    SupNormGauge,
    chisq_gof,
    cross_section_mass,
    cross_section_measure_density,
    direction_constant,
    eigenvalue_density,
    gauge_from_direction_density,
    gl_decompose_batch,
    gl_orbital_decompose,
    independence_chisq,
    ks_test,
    lt_decompose_batch,
    planar_angles,
    pushforward_densities,
    two_sample_ks,
    unit_angles,
    verify_global_cross_section,
    wishart_sample,
    within_orbit_map_many,
)
from starshape import angle_bin_probs
from starshape.errors import DegenerateRootsError
from conftest import polar_integral, stream


def announce(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


# ---------------------------------------------------------------------------
# Shared fixtures (module scope: built once).
# ---------------------------------------------------------------------------

GAUGES = {
    "ell-i2": EllipticalGauge(np.eye(2)),
    "ell-14": EllipticalGauge(np.diag([1.0, 4.0])),
    "sup": SupNormGauge(2),
    "l1": L1NormGauge(2),
}
PROFILES = {"gaussian": GaussianProfile(1.0), "exponential": ExponentialProfile(1.0)}


@pytest.fixture(scope="module")
def dists():
    built = {}
    for gl, gauge in GAUGES.items():
        for pl, prof in PROFILES.items():
            built[gl, pl] = StarDistribution(gauge, prof)
    return built


# ---------------------------------------------------------------------------
# 1. Closed-form constants.
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_constants():
    ok = True
    details = []

    c_sup2 = direction_constant(SupNormGauge(2))
    ok &= abs(c_sup2.c0 - 0.125) <= 1e-8
    details.append(f"cube p2 err={abs(c_sup2.c0 - 0.125):.2e}")

    c_sup3 = direction_constant(SupNormGauge(3), n_mc=1_000_000, seed=0)
    ok &= c_sup3.stderr <= 1e-4
    ok &= abs(c_sup3.c0 - 1.0 / 24.0) <= 3.0 * c_sup3.stderr
    details.append(f"cube p3 dev={abs(c_sup3.c0 - 1/24.0):.2e} (3se={3*c_sup3.stderr:.2e})")

    # Crosspolytope: c0 = (p-1)!/2^p = 1/4 at p = 2, 3 (the often-quoted
    # (p-1)!/(2^p sqrt(p)) is the facet surface density c0/sqrt(p); both
    # are asserted, each against the right quantity).
    c_l1_2 = direction_constant(L1NormGauge(2))
    ok &= abs(c_l1_2.c0 - 0.25) <= 1e-8
    surf2 = cross_section_measure_density(L1NormGauge(2), 0.25, [0.5, 0.5])
    ok &= abs(surf2 - 0.1767766952966369) <= 1e-8
    details.append(f"cross p2 c0 err={abs(c_l1_2.c0 - 0.25):.2e}")

    c_l1_3 = direction_constant(L1NormGauge(3), n_mc=1_000_000, seed=1)
    ok &= abs(c_l1_3.c0 - 0.25) <= 3.0 * c_l1_3.stderr
    surf3 = cross_section_measure_density(L1NormGauge(3), 0.25, [0.5, 0.3, 0.2])
    ok &= abs(surf3 - 0.1443375672974065) <= 1e-8
    details.append(f"cross p3 dev={abs(c_l1_3.c0 - 0.25):.2e} (3se={3*c_l1_3.stderr:.2e})")

    for sigma, target in ((np.eye(2), 1 / (2 * np.pi)), (np.diag([1.0, 4.0]), 1 / (4 * np.pi))):
        c = direction_constant(EllipticalGauge(sigma))
        ok &= abs(c.c0 - target) <= 1e-7

    announce(1, "closed-form constants (cube, crosspolytope, elliptical)", ok,
             "; ".join(details))


# ---------------------------------------------------------------------------
# 2. Twin-route consistency.
# ---------------------------------------------------------------------------


def test_criterion_02_twin_route_consistency(dists):
    ok = True
    worst_smooth = worst_poly = 0.0
    for (gl, pl), dist in dists.items():
        chk = dist.c0_cross_check()
        if gl.startswith("ell"):
            ok &= chk["rel_discrepancy"] <= 1e-7
            worst_smooth = max(worst_smooth, chk["rel_discrepancy"])
        else:
            ok &= chk["rel_discrepancy"] <= 1e-6
            worst_poly = max(worst_poly, chk["rel_discrepancy"])

    p3_details = []
    for gauge, prof, seed in (
        (SupNormGauge(3), ExponentialProfile(1.0), 11),
        (L1NormGauge(3), GaussianProfile(1.0), 12),
    ):
        dist3 = StarDistribution(gauge, prof, seed=seed)
        chk = dist3.c0_cross_check()
        dev = abs(chk["c0_radial"] - chk["c0_spherical"])
        ok &= dev <= 3.0 * chk["combined_stderr"]
        p3_details.append(f"p3 dev={dev:.2e} (3se={3*chk['combined_stderr']:.2e})")

    announce(
        2,
        "twin-route c0 agreement for all gauge/profile fixtures",
        ok,
        f"worst p2: smooth={worst_smooth:.2e}, polytope={worst_poly:.2e}; " + "; ".join(p3_details),
    )


# ---------------------------------------------------------------------------
# 3. Independence of length and direction + calibration.
# ---------------------------------------------------------------------------


def test_criterion_03_independence(dists):
    ok = True
    worst_p = 1.0
    for i, (gl, pl) in enumerate(
        (g, p) for g in ("ell-14", "sup", "l1") for p in ("gaussian", "exponential")
    ):
        dist = dists[gl, pl]
        X = dist.sample(stream(700 + i), 100_000)
        g = dist.gauge.values(X)
        rep = independence_chisq(g, planar_angles(X), 8, 8, alpha=0.001)
        ok &= rep.passed
        worst_p = min(worst_p, rep.p_value)

    # Calibration: 200 independent seeds on one true-null fixture.
    dist = dists["sup", "exponential"]
    rejections = 0
    for k in range(200):
        X = dist.sample(stream(710, k), 6_400)
        rep = independence_chisq(
            dist.gauge.values(X), planar_angles(X), 8, 8, alpha=0.05
        )
        rejections += not rep.passed
    rate = rejections / 200.0
    ok &= 0.02 <= rate <= 0.09

    announce(3, "length/direction independence (6 fixtures + calibration)", ok,
             f"min p={worst_p:.4g}; rejection rate at 0.05 = {rate:.3f}")


# ---------------------------------------------------------------------------
# 4. Direction law and null robustness.
# ---------------------------------------------------------------------------


def test_criterion_04_direction_law(dists):
    ok = True
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    angles_by_profile = {}
    worst_p = 1.0
    for i, gl in enumerate(("ell-14", "sup")):
        for j, pl in enumerate(("gaussian", "exponential")):
            dist = dists[gl, pl]
            X = dist.sample(stream(720 + 2 * i + j), 100_000)
            angles = planar_angles(X)
            angles_by_profile[gl, pl] = angles
            counts, _ = np.histogram(angles, bins=edges)
            probs = angle_bin_probs(dist.gauge, dist.c0, edges)
            rep = chisq_gof(counts, probs, alpha=0.001)
            ok &= rep.passed
            worst_p = min(worst_p, rep.p_value)
    # Null robustness: the angle law ignores the radial profile.
    ks_ps = []
    for gl in ("ell-14", "sup"):
        rep = two_sample_ks(
            angles_by_profile[gl, "gaussian"], angles_by_profile[gl, "exponential"],
            alpha=0.01,
        )
        ok &= rep.passed
        ks_ps.append(rep.p_value)
    announce(4, "direction law (36-bin) and null robustness", ok,
             f"min chi2 p={worst_p:.4g}; KS p={min(ks_ps):.4g}")


# ---------------------------------------------------------------------------
# 5. Within-orbit pushforward.
# ---------------------------------------------------------------------------


def test_criterion_05_pushforward(dists):
    dist = dists["ell-i2", "gaussian"]
    sup = SupNormGauge(2)
    n = 1_000_000
    X = dist.sample(stream(730), n)
    W = within_orbit_map_many(dist.gauge, sup, X)

    radii = np.linalg.norm(W, axis=1)
    angles = planar_angles(W)
    r_edges = np.quantile(radii, np.linspace(0.0, 1.0, 21))
    r_edges[0], r_edges[-1] = 0.0, np.inf
    t_edges = np.linspace(0.0, 2.0 * np.pi, 21)
    counts = np.histogram2d(radii, angles, bins=[r_edges, t_edges])[0].ravel()

    # Expected cell probabilities: integrate the mapped density in polar
    # coordinates; the radial part is exact for the Gaussian profile,
    # leaving kink-aligned Simpson in the angle.
    K = dist.scale

    def radial_mass(s, r0, r1):
        hi = 0.0 if np.isinf(r1) else np.exp(-0.5 * (r1 * s) ** 2)
        return (np.exp(-0.5 * (r0 * s) ** 2) - hi) / s**2

    kinks = np.sort(sup.kink_angles())

    def cell_prob(r0, r1, t0, t1):
        cuts = [t0] + [k for k in kinks if t0 < k < t1] + [t1]
        acc = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = 64
            theta = np.linspace(a, b, m + 1)
            U = unit_angles(theta)
            s = sup.values(U)
            ratio = (s / dist.gauge.values(U)) ** 2
            vals = K * ratio * radial_mass(s, r0, r1)
            h = (b - a) / m
            acc += h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())
        return acc

    probs = np.array(
        [
            cell_prob(r_edges[i], r_edges[i + 1], t_edges[j], t_edges[j + 1])
            for i in range(20)
            for j in range(20)
        ]
    )
    ok = abs(probs.sum() - 1.0) <= 1e-6
    rep = chisq_gof(counts, probs, alpha=0.001)
    ok &= rep.passed

    total = polar_integral(
        lambda pts: pushforward_densities(dist, sup, pts), radius=12.0,
        kinks=sup.kink_angles(),
    )
    ok &= abs(total - 1.0) <= 1e-4
    announce(5, "within-orbit pushforward density (20x20 polar, 1e6 draws)", ok,
             f"chi2 p={rep.p_value:.4g}; integral dev={abs(total - 1.0):.2e}")


# ---------------------------------------------------------------------------
# 6. Gauge from a prescribed direction density.
# ---------------------------------------------------------------------------


def test_criterion_06_gauge_from_direction_density():
    def target(U):
        return (2.0 + U[:, 0]) / (4.0 * np.pi)

    gauge = gauge_from_direction_density(target, 2)
    dist = StarDistribution(gauge, ExponentialProfile(1.0))
    X = dist.sample(stream(740), 100_000)
    edges = np.linspace(0.0, 2.0 * np.pi, 37)
    counts, _ = np.histogram(planar_angles(X), bins=edges)
    probs = np.array(
        [
            (2.0 * (b - a) + np.sin(b) - np.sin(a)) / (4.0 * np.pi)
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    rep = chisq_gof(counts, probs, alpha=0.001)
    ok = rep.passed

    omega = 2.0 * np.pi
    uniform = gauge_from_direction_density(lambda U: np.full(len(U), 1.0 / omega), 2)
    c0_uniform = direction_constant(uniform).c0
    ok &= abs(c0_uniform - 1.0) <= 1e-6
    announce(6, "prescribed direction density realized by derived gauge", ok,
             f"chi2 p={rep.p_value:.4g}; uniform c0 dev={abs(c0_uniform - 1.0):.2e}")


# ---------------------------------------------------------------------------
# 7. Surface measure on the unit cross section.
# ---------------------------------------------------------------------------


def test_criterion_07_surface_measure():
    ok = True
    devs = []
    for gauge in (EllipticalGauge(np.diag([1.0, 4.0])), SupNormGauge(2), L1NormGauge(2)):
        c0 = direction_constant(gauge).c0
        mass = cross_section_mass(gauge, c0)
        devs.append(abs(mass - 1.0))
        ok &= abs(mass - 1.0) <= 1e-6

    # Pointwise facet constants with the exact constants as inputs.
    ok &= abs(
        cross_section_measure_density(SupNormGauge(2), 1.0 / 8.0, [1.0, 0.3]) - 1.0 / 8.0
    ) <= 1e-10
    ok &= abs(
        cross_section_measure_density(SupNormGauge(3), 1.0 / 24.0, [1.0, 0.4, -0.6])
        - 1.0 / 24.0
    ) <= 1e-10
    ok &= abs(
        cross_section_measure_density(L1NormGauge(2), 0.25, [0.5, 0.5])
        - 0.25 / np.sqrt(2.0)
    ) <= 1e-10
    ok &= abs(
        cross_section_measure_density(L1NormGauge(3), 0.25, [0.5, 0.3, 0.2])
        - 0.25 / np.sqrt(3.0)
    ) <= 1e-10
    announce(7, "surface measure: unit mass and facet constants", ok,
             f"max mass dev={max(devs):.2e}")


# ---------------------------------------------------------------------------
# 8. Matrix beta law under the triangular action.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wishart_pairs_p2():
    gen = stream(750)
    n = 100_000
    return wishart_sample(2, 5, gen, n), wishart_sample(2, 7, gen, n)


def test_criterion_08_matrix_beta(wishart_pairs_p2):
    a, b = 2.5, 3.5
    ok = True

    # p = 1 scalar reduction.
    gen = stream(751)
    w1 = wishart_sample(1, 5, gen, 100_000)[:, 0, 0]
    w2 = wishart_sample(1, 7, gen, 100_000)[:, 0, 0]
    u = w1 / (w1 + w2)
    rep1 = ks_test(u, lambda x: sstats.beta.cdf(x, a, b), alpha=0.01)
    ok &= rep1.passed

    W1, W2 = wishart_pairs_p2
    T, U = lt_decompose_batch(W1, W2)

    # (u11, u22, u12) histogram on a 5x5x5 grid against the stated density,
    # cell probabilities by exact off-diagonal integration over a fine
    # marginal grid.
    edges1 = np.linspace(0.0, 1.0, 6)
    edges2 = np.linspace(-0.5, 0.5, 6)
    counts = np.histogramdd(
        np.column_stack([U[:, 0, 0], U[:, 1, 1], U[:, 0, 1]]),
        bins=[edges1, edges1, edges2],
    )[0].ravel()
    probs = _beta_cell_probs_p2(a, b, edges1, edges2)
    rep2 = chisq_gof(counts, probs, alpha=0.001)
    ok &= rep2.passed

    rep3 = independence_chisq(T[:, 0, 0], U[:, 0, 0], 8, 8, alpha=0.001)
    ok &= rep3.passed

    rep4 = ks_test(T[:, 0, 0] ** 2, lambda x: sstats.chi2.cdf(x, 12), alpha=0.01)
    rep5 = ks_test(T[:, 1, 1] ** 2, lambda x: sstats.chi2.cdf(x, 11), alpha=0.01)
    ok &= rep4.passed and rep5.passed

    announce(8, "matrix beta law (scalar KS, 5x5x5 histogram, T/U indep, Bartlett)", ok,
             f"p-values: {rep1.p_value:.3g}, {rep2.p_value:.3g}, {rep3.p_value:.3g}, "
             f"{rep4.p_value:.3g}, {rep5.p_value:.3g}")


def _beta_cell_probs_p2(a, b, edges1, edges2, sub=48):
    """Cell probabilities of the p=2 matrix beta density.

    Midpoint rule over (u11, u22) with the u12 integral done per node by
    Gauss-Legendre on the exactly clipped admissible interval.
    """
    m1 = len(edges1) - 1
    m2 = len(edges2) - 1
    fine = m1 * sub
    x = (np.arange(fine) + 0.5) / fine
    X, Y = np.meshgrid(x, x, indexing="ij")
    s = np.sqrt(np.minimum(X * Y, (1.0 - X) * (1.0 - Y)))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    probs = np.zeros((m1, m1, m2))
    for k in range(m2):
        lo = np.maximum(edges2[k], -s)
        hi = np.minimum(edges2[k + 1], s)
        width = np.maximum(hi - lo, 0.0)
        mid = 0.5 * (hi + lo)
        acc = np.zeros_like(X)
        for t, w in zip(nodes, weights):
            u12 = mid + 0.5 * width * t
            dU = X * Y - u12**2
            dI = (1.0 - X) * (1.0 - Y) - u12**2
            good = (dU > 0.0) & (dI > 0.0) & (width > 0.0)
            acc += w * np.where(good, np.abs(dU) ** (a - 1.5) * np.abs(dI) ** (b - 1.5), 0.0)
        cell = (0.5 * width * acc).reshape(m1, sub, m1, sub).sum(axis=(1, 3))
        probs[:, :, k] = cell
    flat = probs.reshape(-1)
    return flat / flat.sum()


# ---------------------------------------------------------------------------
# 9. Eigenvalue law under the general linear action.
# ---------------------------------------------------------------------------


def test_criterion_09_eigenvalue_law(wishart_pairs_p2):
    a, b = 2.5, 3.5
    ok = True
    W1, W2 = wishart_pairs_p2
    B, lam, keep = gl_decompose_batch(W1, W2)
    B, lam = B[keep], lam[keep]
    ok &= keep.all()  # continuous sampling: no degenerate pairs expected

    edges = np.linspace(0.0, 1.0, 11)
    counts = np.histogram2d(lam[:, 0], lam[:, 1], bins=[edges, edges])[0].ravel()
    sub = 60
    fine = 10 * sub
    x = (np.arange(fine) + 0.5) / fine
    L1g, L2g = np.meshgrid(x, x, indexing="ij")
    vals = np.where(
        L1g > L2g,
        L1g ** (a - 1.5) * L2g ** (a - 1.5)
        * (1 - L1g) ** (b - 1.5) * (1 - L2g) ** (b - 1.5)
        * np.maximum(L1g - L2g, 0.0),
        0.0,
    )
    probs = vals.reshape(10, sub, 10, sub).sum(axis=(1, 3)).ravel()
    probs /= probs.sum()
    rep1 = chisq_gof(counts, probs, alpha=0.001)
    ok &= rep1.passed

    rep2 = independence_chisq(B[:, 0, 0], lam[:, 0], 8, 8, alpha=0.001)
    ok &= rep2.passed

    # det P(L) twist: exact multiplicative identity.
    p_handle = lambda l: np.diag([1.0 + l[0], 1.0])
    worst = 0.0
    for probe in ([0.7, 0.3], [0.9, 0.05], [0.51, 0.5]):
        probe = np.array(probe)
        ratio = eigenvalue_density(probe, a, b, p_handle=p_handle, normalized=False)
        ratio /= eigenvalue_density(probe, a, b, normalized=False)
        worst = max(worst, abs(ratio / (1.0 + probe[0]) ** (2 * (a + b)) - 1.0))
    ok &= worst <= 1e-12

    try:
        gl_orbital_decompose(np.diag([2.0, 2.0]), np.diag([2.0, 2.0]))
        fired = False
    except DegenerateRootsError:
        fired = True
    ok &= fired

    announce(9, "eigenvalue law (histogram, B/L indep, twist ratio, degeneracy)", ok,
             f"chi2 p={rep1.p_value:.4g}; indep p={rep2.p_value:.4g}; twist err={worst:.1e}")


# ---------------------------------------------------------------------------
# 10. Global cross sections: isotropy audits.
# ---------------------------------------------------------------------------


def test_criterion_10_cross_section_globality():
    eye = np.eye(2)
    spectra = ([0.7, 0.3], [0.9, 0.2], [0.6, 0.1], [0.55, 0.25])
    standard = [(np.diag(l), eye - np.diag(l)) for l in spectra]
    rep_std = verify_global_cross_section(standard, "gl")
    ok = rep_std.clean and rep_std.point_isotropy == (4, 4, 4, 4)

    # Normalizer twist: permutation times positive diagonal, depending on l.
    twisted = []
    for l in spectra:
        P = np.diag([1.0 + l[0], 1.0]) @ np.array([[0.0, 1.0], [1.0, 0.0]])
        L = np.diag(l)
        twisted.append((P @ L @ P.T, P @ (eye - L) @ P.T))
    rep_tw = verify_global_cross_section(twisted, "gl")
    ok &= rep_tw.clean

    th = np.pi / 6.0
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    L = np.diag([0.7, 0.3])
    rep_rot = verify_global_cross_section([(R @ L @ R.T, R @ (eye - L) @ R.T)], "gl")
    ok &= (not rep_rot.clean) and rep_rot.point_isotropy == (2,)

    gen = stream(760)
    lt_points = [(wishart_sample(2, 5, gen), wishart_sample(2, 7, gen)) for _ in range(4)]
    rep_lt = verify_global_cross_section(lt_points, "lt")
    ok &= rep_lt.clean

    announce(10, "cross-section globality: sign-group isotropy audits", ok,
             f"standard={rep_std.clean}, twisted={rep_tw.clean}, "
             f"rotated flagged={not rep_rot.clean}, lt={rep_lt.clean}")
