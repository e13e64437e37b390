import numpy as np
import pytest
from scipy import integrate, linalg, stats as sstats
from scipy.special import gammaln, roots_jacobi

from starshape import (
    gl_decompose_batch,
    lt_decompose_batch,
    check_sign_invariance,
    cholesky_factor,
    congruence_roots,
    eigenvalue_density,
    equivariant_density_lt,
    gl_orbital_decompose,
    independence_chisq,
    ks_test,
    lt_orbital_decompose,
    matrix_beta_density,
    multivariate_beta,
    sign_matrices,
    two_sample_ks,
    validate_pd_pair,
    verify_global_cross_section,
    wishart_sample,
)
from starshape.errors import (
    BadDegreesOfFreedomError,
    DegenerateRootsError,
    NotOrderedError,
    NotPositiveDefiniteError,
    NotTriangularError,
    OutOfRangeError,
)
from starshape.matrixmodels import _beta_normalizer
from conftest import stream


def random_lt(gen, p):
    A = np.tril(gen.normal(size=(p, p)))
    np.fill_diagonal(A, np.exp(0.4 * gen.normal(size=p)))
    return A


def wishart_pairs(gen, n, p=2, n1=5, n2=7):
    return wishart_sample(p, n1, gen, n), wishart_sample(p, n2, gen, n)


# -- cholesky ---------------------------------------------------------------


def test_cholesky_identity_and_hand_case():
    np.testing.assert_array_equal(cholesky_factor(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(
        cholesky_factor([[4.0, 2.0], [2.0, 5.0]]), [[2.0, 0.0], [1.0, 2.0]], rtol=1e-14
    )


def test_cholesky_round_trip():
    gen = np.random.default_rng(0)
    for _ in range(20):
        A = gen.normal(size=(3, 3))
        W = A @ A.T + np.eye(3)
        T = cholesky_factor(W)
        assert np.all(np.diag(T) > 0)
        np.testing.assert_allclose(T @ T.T, W, rtol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor([[1.0, 0.5], [0.2, 1.0]])


# -- wishart sampling ---------------------------------------------------------


def test_wishart_scalar_case_mean():
    W = wishart_sample(1, 4, stream(401), 100_000)[:, 0, 0]
    assert W.mean() == pytest.approx(4.0, abs=0.05)


def test_wishart_mean_p2():
    W = wishart_sample(2, 6, stream(402), 100_000)
    np.testing.assert_allclose(W.mean(axis=0), 6.0 * np.eye(2), atol=0.1)


def test_wishart_bartlett_diagonal_marginal():
    W = wishart_sample(2, 6, stream(403), 50_000)
    a11 = np.sqrt(W[:, 0, 0])  # first Cholesky pivot
    report = ks_test(a11 ** 2, lambda x: sstats.chi2.cdf(x, 6), alpha=0.01)
    assert report.passed, report


def test_wishart_dof_guard():
    with pytest.raises(BadDegreesOfFreedomError):
        wishart_sample(3, 2.0, stream(404))


# -- triangular action --------------------------------------------------------


def test_lt_decompose_symmetric_case():
    dec = lt_orbital_decompose(np.eye(2), np.eye(2))
    np.testing.assert_allclose(dec.T, np.sqrt(2.0) * np.eye(2), rtol=1e-14)
    np.testing.assert_allclose(dec.U, 0.5 * np.eye(2), rtol=1e-14)
    assert dec.resid_w1 <= 1e-12 and dec.resid_w2 <= 1e-12


def test_lt_invariance_and_equivariance():
    gen = np.random.default_rng(1)
    sgen = stream(405)
    for _ in range(100):
        W1, W2 = wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)
        dec = lt_orbital_decompose(W1, W2)
        A = random_lt(gen, 2)
        dec2 = lt_orbital_decompose(A @ W1 @ A.T, A @ W2 @ A.T)
        np.testing.assert_allclose(dec2.U, dec.U, atol=1e-9)
        np.testing.assert_allclose(dec2.G, A @ dec.G, atol=1e-9)


def test_lt_reconstruction_residuals():
    sgen = stream(406)
    for p in (2, 3):
        for _ in range(150):
            W1 = wishart_sample(p, 6, sgen)
            W2 = wishart_sample(p, 8, sgen)
            dec = lt_orbital_decompose(W1, W2)
            assert dec.resid_w1 <= 1e-8
            assert dec.resid_w2 <= 1e-8


def test_lt_cross_section_map_changes_equivariant_part():
    sgen = stream(407)
    W1, W2 = wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)
    s_handle = lambda U: np.linalg.cholesky(np.eye(2) + U)
    dec = lt_orbital_decompose(W1, W2, s_handle=s_handle)
    S = s_handle(dec.U)
    np.testing.assert_allclose(dec.G @ S, dec.T, rtol=1e-10)


# -- matrix beta density -------------------------------------------------------


def test_beta_density_scalar_case():
    assert matrix_beta_density(np.array([[0.5]]), 2.0, 3.0) == pytest.approx(1.5)


def test_beta_density_uniform_case():
    # a = b = 3/2 at p = 2 kills both determinant exponents.
    u1 = matrix_beta_density(np.array([[0.3, 0.05], [0.05, 0.6]]), 1.5, 1.5)
    u2 = matrix_beta_density(np.array([[0.7, -0.1], [-0.1, 0.2]]), 1.5, 1.5)
    assert u1 == pytest.approx(u2, rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_beta_constant_matches_cubature_oracle():
    a, b = 2.5, 3.5

    def core(u12, u22, u11):
        dU = u11 * u22 - u12 ** 2
        dI = (1 - u11) * (1 - u22) - u12 ** 2
        if dU <= 0.0 or dI <= 0.0:
            return 0.0
        return dU ** (a - 1.5) * dI ** (b - 1.5)

    oracle, _ = integrate.tplquad(
        core, 0, 1, 0, 1, -0.5, 0.5, epsabs=1e-7, epsrel=1e-6
    )
    assert multivariate_beta(2, a, b) == pytest.approx(oracle, rel=1e-5)


def test_beta_density_twisted_normalizer():
    # With an S-map the normalizer is numeric; the value must still match
    # shape / cubature at a probe point.
    a, b = 2.5, 3.5
    s_handle = lambda U: np.linalg.cholesky(np.eye(2) + U)
    U = np.array([[0.4, 0.1], [0.1, 0.5]])
    val = matrix_beta_density(U, a, b, s_handle=s_handle)
    shape_only = matrix_beta_density(U, a, b, s_handle=s_handle, normalized=False)
    ratio = shape_only / val
    U2 = np.array([[0.2, -0.05], [-0.05, 0.7]])
    val2 = matrix_beta_density(U2, a, b, s_handle=s_handle)
    shape2 = matrix_beta_density(U2, a, b, s_handle=s_handle, normalized=False)
    assert shape2 / val2 == pytest.approx(ratio, rel=1e-6)


def test_identity_s_handle_matches_untwisted_density():
    # An identity S(U) leaves the shape unchanged, so only the numeric
    # normaliser separates the two values.
    a, b = 2.5, 3.5
    for U, rel in ((np.array([[0.4, 0.1], [0.1, 0.5]]), 1e-4), (np.array([[0.3]]), 1e-8)):
        twisted = matrix_beta_density(U, a, b, s_handle=lambda V: np.eye(len(V)))
        assert twisted == pytest.approx(matrix_beta_density(U, a, b), rel=rel)


def test_identity_p_handle_gives_scalar_beta():
    a, b = 2.5, 3.5
    val = eigenvalue_density(np.array([0.3]), a, b, p_handle=lambda l: np.eye(1))
    assert val == pytest.approx(sstats.beta.pdf(0.3, a, b), rel=1e-8)


def test_twisted_normalizer_matches_per_node_loop():
    # Reference: the same nodes summed one at a time.  Ordered roots come
    # from three Gauss-Jacobi pieces (below l1 = 1/2 with l2 = l1 v, its
    # mirror image above l2 = 1/2, the square in between) and U = R diag(l)
    # R^t from the rectangle rule in theta.  Only the summation order and
    # the way U is formed differ, so the two agree to rounding.
    a, b, order = 2.5, 3.5, 6
    calls = {"loop": 0, "tensor": 0}

    def handle(key):
        def s_map(U):
            calls[key] += 1
            return np.linalg.cholesky(np.eye(2) + U)
        return s_map

    def jacobi(lo, hi, alpha, beta):
        # Weight (hi - x)^alpha (x - lo)^beta on [lo, hi].
        t, w = roots_jacobi(order, alpha, beta)
        half = 0.5 * (hi - lo)
        return lo + half * (1.0 + t), w * half ** (alpha + beta + 1.0)

    roots = []
    for mirror, (near, far) in enumerate(((a, b), (b, a))):
        for m1, w1 in zip(*jacobi(0.0, 0.5, 0.0, 2.0 * near - 1.0)):
            for v, wv in zip(*jacobi(0.0, 1.0, 1.0, near - 1.5)):
                rest = ((1.0 - m1) * (1.0 - m1 * v)) ** (far - 1.5)
                l1, l2 = (1.0 - m1 * v, 1.0 - m1) if mirror else (m1, m1 * v)
                roots.append((l1, l2, w1 * wv * rest))
    for l1, w1 in zip(*jacobi(0.5, 1.0, b - 1.5, 0.0)):
        for l2, w2 in zip(*jacobi(0.0, 0.5, 0.0, a - 1.5)):
            rest = l1 ** (a - 1.5) * (1.0 - l2) ** (b - 1.5) * (l1 - l2)
            roots.append((l1, l2, w1 * w2 * rest))

    s_map = handle("loop")
    exps = 2.0 * (a + b) + 2 - 2.0 * np.arange(1, 3) + 1.0
    total = 0.0
    for l1, l2, w in roots:
        for k in range(order):
            c, s = np.cos(np.pi * k / order), np.sin(np.pi * k / order)
            R = np.array([[c, -s], [s, c]])
            U = R @ np.diag([l1, l2]) @ R.T
            total += w * np.pi / order * np.prod(np.diag(s_map(U)) ** exps)
    tensor = _beta_normalizer(2, a, b, handle("tensor"), order=order)
    assert tensor == pytest.approx(total, rel=1e-13)
    assert calls["tensor"] == calls["loop"] == 3 * order**3


@pytest.mark.parametrize("a, b", [(1.2, 4.0), (4.0, 1.2)])
def test_twisted_normalizers_match_closed_forms_near_the_boundary(a, b):
    # Identity twists leave both shapes unchanged, so the numeric
    # normalisers must equal the multivariate beta constant and the p = 2
    # Selberg integral, also where a or b < 3/2 makes the shapes singular
    # on the boundary of their domains.
    U = np.array([[0.55, 0.1], [0.1, 0.35]])
    twisted = matrix_beta_density(U, a, b, s_handle=lambda V: np.eye(2))
    assert twisted == pytest.approx(matrix_beta_density(U, a, b), rel=1e-8)

    # Ordered roots: half the Selberg integral S_2(a - 1/2, b - 1/2, 1/2).
    x, y, g = a - 0.5, b - 0.5, 0.5
    selberg = 0.5 * np.exp(sum(
        gammaln(x + j * g) + gammaln(y + j * g) + gammaln(1 + (j + 1) * g)
        - gammaln(x + y + (1 + j) * g) - gammaln(1 + g)
        for j in range(2)
    ))
    l = np.array([0.7, 0.3])
    raw = eigenvalue_density(l, a, b, normalized=False)
    twisted = eigenvalue_density(l, a, b, p_handle=lambda r: np.eye(2))
    assert twisted == pytest.approx(raw / selberg, rel=1e-8)


def test_twisted_normalizer_rejects_a_bad_s_map_at_any_node():
    # Both maps are valid at the probe point (u12 = 0.1, u11 = 0.4) and
    # invalid only at some cubature nodes.
    def above_diagonal(U):
        return np.array([[1.0, 0.5 if U[0, 1] > 0.2 else 0.0], [0.0, 1.0]])

    def negative_diagonal(U):
        return np.diag([1.0, -1.0 if U[0, 0] > 0.9 else 1.0])

    U = np.array([[0.4, 0.1], [0.1, 0.5]])
    for handle, text in (
        (above_diagonal, "above the diagonal"),
        (negative_diagonal, "positive diagonal"),
    ):
        assert matrix_beta_density(U, 2.5, 3.5, s_handle=handle, normalized=False) > 0
        with pytest.raises(NotTriangularError, match=text):
            matrix_beta_density(U, 2.5, 3.5, s_handle=handle)


def test_normalizers_are_cached_per_handle():
    calls = []

    def s_handle(U):
        calls.append("s")
        return np.linalg.cholesky(np.eye(2) + U)

    def p_handle(l):
        calls.append("p")
        return np.diag([1.0 + l[0], 1.0])

    U1 = np.array([[0.4, 0.1], [0.1, 0.5]])
    U2 = np.array([[0.2, -0.05], [-0.05, 0.7]])
    l1, l2 = np.array([0.7, 0.3]), np.array([0.6, 0.1])
    for density, handle, first, second in (
        (matrix_beta_density, s_handle, U1, U2),
        (eigenvalue_density, p_handle, l1, l2),
    ):
        calls.clear()
        density(first, 2.5, 3.5, handle)
        assert len(calls) > 100  # the normaliser ran
        before = len(calls)
        density(second, 2.5, 3.5, handle)
        assert len(calls) == before + 1


def test_beta_density_range_errors():
    with pytest.raises(OutOfRangeError):
        matrix_beta_density(np.array([[1.2]]), 2.0, 3.0)
    with pytest.raises(OutOfRangeError):
        matrix_beta_density(np.array([[0.5, 0.0], [0.0, 0.5]]), 0.4, 3.0)
    with pytest.raises(OutOfRangeError):
        matrix_beta_density(
            np.array([[0.5, 0.0, 0], [0, 0.5, 0], [0, 0, 0.5]]), 3.0, 3.0, normalized=True
        )


def test_wishart_u_marginal_moments_match_density():
    # Under the stated U density the mean is (a/(a+b)) I; check the
    # decomposition of simulated Wishart pairs against it, and check
    # the batch path against the scalar op.
    a, b = 2.5, 3.5
    sgen = stream(408)
    n = 50_000
    W1, W2 = wishart_pairs(sgen, n)
    _, U = lt_decompose_batch(W1, W2)
    for k in range(50):
        np.testing.assert_allclose(U[k], lt_orbital_decompose(W1[k], W2[k]).U, atol=1e-12)
    u11 = U[:, 0, 0]
    assert u11.mean() == pytest.approx(a / (a + b), abs=4.0 * u11.std() / np.sqrt(n))
    assert U[:, 1, 1].mean() == pytest.approx(a / (a + b), abs=4.0 * u11.std() / np.sqrt(n))


# -- triangular equivariant density ------------------------------------------


def test_equivariant_density_scalar_chi_reduction():
    # p = 1: shape e^(-g^2/2) g^(2(a+b)-1), the chi law with 2(a+b) dof.
    a, b = 2.5, 3.5
    fg = lambda G: float(np.exp(-0.5 * np.trace(G @ G.T)))
    dof = 2 * (a + b)
    g1, g2 = 1.3, 2.1
    ratio = equivariant_density_lt(np.array([[g1]]), a, b, fg) / equivariant_density_lt(
        np.array([[g2]]), a, b, fg
    )
    expected = sstats.chi.pdf(g1, dof) / sstats.chi.pdf(g2, dof)
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_equivariant_density_requires_triangular():
    with pytest.raises(NotTriangularError):
        equivariant_density_lt(np.array([[1.0, 0.2], [0.0, 1.0]]), 2, 3, lambda G: 1.0)
    with pytest.raises(NotTriangularError):
        equivariant_density_lt(np.array([[-1.0, 0.0], [0.0, 1.0]]), 2, 3, lambda G: 1.0)


def test_bartlett_oracle_for_t_marginals():
    # t_ii^2 of the Cholesky factor of W1+W2 ~ chi-square(n1+n2-i+1).
    sgen = stream(409)
    n, n1, n2 = 40_000, 5, 7
    W1, W2 = wishart_pairs(sgen, n, n1=n1, n2=n2)
    S = W1 + W2
    t11sq = S[:, 0, 0]
    t22sq = S[:, 1, 1] - S[:, 1, 0] ** 2 / S[:, 0, 0]
    r1 = ks_test(t11sq, lambda x: sstats.chi2.cdf(x, n1 + n2), alpha=0.01)
    r2 = ks_test(t22sq, lambda x: sstats.chi2.cdf(x, n1 + n2 - 1), alpha=0.01)
    assert r1.passed, r1
    assert r2.passed, r2


def test_t_u_independence():
    sgen = stream(410)
    n = 30_000
    W1, W2 = wishart_pairs(sgen, n)
    T, U = lt_decompose_batch(W1, W2)
    report = independence_chisq(T[:, 0, 0], U[:, 0, 0], 4, 4, alpha=0.001)
    assert report.passed, report


# -- general linear action -----------------------------------------------------


def test_gl_decompose_diagonal_case():
    dec = gl_orbital_decompose(np.diag([3.0, 1.0]), np.diag([1.0, 1.0]))
    np.testing.assert_allclose(dec.l, [0.75, 0.5], rtol=1e-14)
    np.testing.assert_allclose(dec.B, np.diag([2.0, np.sqrt(2.0)]), rtol=1e-12)
    assert dec.resid_w1 <= 1e-12 and dec.resid_w2 <= 1e-12


def test_gl_invariance_of_roots():
    gen = np.random.default_rng(2)
    sgen = stream(411)
    for _ in range(100):
        W1, W2 = wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)
        dec = gl_orbital_decompose(W1, W2)
        A = gen.normal(size=(2, 2))
        while abs(np.linalg.det(A)) < 0.1:
            A = gen.normal(size=(2, 2))
        dec2 = gl_orbital_decompose(A @ W1 @ A.T, A @ W2 @ A.T)
        np.testing.assert_allclose(dec2.l, dec.l, atol=1e-8)


def test_gl_reconstruction_and_signs():
    sgen = stream(412)
    for p in (2, 3):
        for _ in range(150):
            W1 = wishart_sample(p, 6, sgen)
            W2 = wishart_sample(p, 8, sgen)
            dec = gl_orbital_decompose(W1, W2)
            assert dec.resid_w1 <= 1e-8 and dec.resid_w2 <= 1e-8
            assert np.all(np.diff(dec.l) < 0)
            for col in dec.B.T:
                nz = col[np.abs(col) > 1e-12 * np.abs(col).max()]
                assert nz[0] > 0
            np.testing.assert_allclose(dec.B @ dec.B.T, W1 + W2, rtol=1e-8)


def test_gl_degenerate_pair_rejected():
    with pytest.raises(DegenerateRootsError):
        gl_orbital_decompose(np.eye(2), np.eye(2))
    with pytest.raises(DegenerateRootsError):
        validate_pd_pair(np.eye(2), np.eye(2), gap_tol=1e-10)


def test_gl_twist_changes_equivariant_selection_only():
    sgen = stream(413)
    W1, W2 = wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)
    p_handle = lambda l: np.diag([1.0 + l[0], 1.0])
    plain = gl_orbital_decompose(W1, W2)
    twisted = gl_orbital_decompose(W1, W2, p_handle=p_handle)
    np.testing.assert_allclose(twisted.l, plain.l, rtol=1e-12)
    np.testing.assert_allclose(twisted.B, plain.B, rtol=1e-12)
    P = p_handle(plain.l)
    expected = plain.B @ np.linalg.inv(P)
    # same up to the column sign convention
    for ours, raw in zip(twisted.G.T, expected.T):
        assert np.allclose(ours, raw, atol=1e-10) or np.allclose(ours, -raw, atol=1e-10)


def test_sign_convention_is_selection_not_distortion():
    # Re-running with the opposite sign convention leaves the invariant
    # parts alone: reconstruct from the flipped factor, decompose again.
    sgen = stream(414)
    l_ours = []
    l_flip = []
    for _ in range(500):
        W1, W2 = wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)
        dec = gl_orbital_decompose(W1, W2)
        l_ours.append(dec.l[0])
        B_flip = -dec.B  # first nonzero of each column negative
        W1f = B_flip @ dec.L @ B_flip.T
        W2f = B_flip @ (np.eye(2) - dec.L) @ B_flip.T
        l_flip.append(gl_orbital_decompose(W1f, W2f).l[0])
    np.testing.assert_allclose(l_flip, l_ours, rtol=1e-9)
    report = two_sample_ks(np.array(l_ours), np.array(l_flip), alpha=0.01)
    assert report.passed


# -- eigenvalue density ---------------------------------------------------------


def test_eigenvalue_density_scalar_beta():
    assert eigenvalue_density(np.array([0.5]), 2.0, 3.0) == pytest.approx(1.5)


def test_eigenvalue_density_normalizes():
    # Riemann oracle over the ordered triangle: evaluate the raw shape on a
    # fine grid, and compare its normalizer against the op's at probe points.
    a, b = 2.5, 3.5
    m = 1200
    grid = (np.arange(m) + 0.5) / m
    l1, l2 = np.meshgrid(grid, grid, indexing="ij")
    mask = l1 > l2
    shape = (
        l1 ** (a - 1.5) * l2 ** (a - 1.5)
        * (1 - l1) ** (b - 1.5) * (1 - l2) ** (b - 1.5)
        * (l1 - l2)
    )
    riemann_norm = shape[mask].sum() / m ** 2
    for probe in ([0.7, 0.3], [0.9, 0.1], [0.5, 0.45]):
        probe = np.array(probe)
        raw = eigenvalue_density(probe, a, b, normalized=False)
        val = eigenvalue_density(probe, a, b)
        assert val == pytest.approx(raw / riemann_norm, rel=3e-3)


def test_eigenvalue_density_twist_ratio_identity():
    a, b = 2.5, 3.5
    p_handle = lambda l: np.diag([1.0 + l[0], 1.0])
    probe = np.array([0.7, 0.3])
    plain = eigenvalue_density(probe, a, b, normalized=False)
    twisted = eigenvalue_density(probe, a, b, p_handle=p_handle, normalized=False)
    assert twisted / plain == pytest.approx((1.7) ** (2 * (a + b)), rel=1e-12)
    probe2 = np.array([0.9, 0.05])
    plain2 = eigenvalue_density(probe2, a, b, normalized=False)
    twisted2 = eigenvalue_density(probe2, a, b, p_handle=p_handle, normalized=False)
    assert twisted2 / plain2 == pytest.approx((1.9) ** (2 * (a + b)), rel=1e-12)


def test_eigenvalue_density_validation():
    with pytest.raises(NotOrderedError):
        eigenvalue_density(np.array([0.3, 0.7]), 2.5, 3.5)
    with pytest.raises(OutOfRangeError):
        eigenvalue_density(np.array([1.2, 0.3]), 2.5, 3.5)
    with pytest.raises(OutOfRangeError):
        eigenvalue_density(np.array([0.7, 0.3]), 0.2, 3.5)


def test_b_l_independence():
    sgen = stream(415)
    n = 30_000
    W1, W2 = wishart_pairs(sgen, n)
    B, lam, ok = gl_decompose_batch(W1, W2)
    assert ok.all()
    for k in range(50):
        dec = gl_orbital_decompose(W1[k], W2[k])
        np.testing.assert_allclose(B[k], dec.B, atol=1e-10)
        np.testing.assert_allclose(lam[k], dec.l, atol=1e-12)
    report = independence_chisq(B[:, 0, 0], lam[:, 0], 4, 4, alpha=0.001)
    assert report.passed, report


def test_scalar_and_batch_gl_share_the_sign_convention():
    # Column 2 leads with 8e-13: below an absolute 1e-12 cut-off, but above
    # 1e-12 times its column's scale (0.5), so it decides the column's sign.
    B = np.array([[1.3, 8e-13], [0.4, -0.5]])
    L = np.diag([0.7, 0.3])
    W1 = B @ L @ B.T
    W2 = B @ (np.eye(2) - L) @ B.T
    batch = gl_decompose_batch(W1[None], W2[None])[0][0]
    np.testing.assert_array_equal(gl_orbital_decompose(W1, W2).B, batch)


# -- cross-section audits --------------------------------------------------------


def test_isotropy_standard_cross_section():
    L = np.diag([0.7, 0.3])
    report = verify_global_cross_section([(L, np.eye(2) - L)], "gl")
    assert report.clean
    assert report.point_isotropy == (4,)
    assert len(sign_matrices(2)) == 4


def test_isotropy_normalizer_twist_stays_clean():
    for l in ([0.7, 0.3], [0.9, 0.2], [0.55, 0.1]):
        L = np.diag(l)
        P = np.diag([1.0 + l[0], 1.0]) @ np.array([[0.0, 1.0], [1.0, 0.0]])
        point = (P @ L @ P.T, P @ (np.eye(2) - L) @ P.T)
        report = verify_global_cross_section([point], "gl")
        assert report.clean, report.violations


def test_isotropy_flags_non_normalizer_twist():
    th = np.pi / 6.0
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    L = np.diag([0.7, 0.3])
    report = verify_global_cross_section([(R @ L @ R.T, R @ (np.eye(2) - L) @ R.T)], "gl")
    assert not report.clean
    assert report.point_isotropy == (2,)
    assert "conjugate" in report.violations[0]


def test_isotropy_lt_free_action():
    sgen = stream(416)
    pts = [
        (wishart_sample(2, 5, sgen), wishart_sample(2, 7, sgen)) for _ in range(5)
    ]
    report = verify_global_cross_section(pts, "lt")
    assert report.clean
    assert report.expected_isotropy == 1


def test_sign_invariance_probe():
    even = lambda B: float(np.trace(B @ B.T))
    assert check_sign_invariance(even, 2, np.random.default_rng(3))
    odd = lambda B: float(B[0, 0])
    with pytest.warns(UserWarning):
        assert not check_sign_invariance(odd, 2, np.random.default_rng(4))


def test_congruence_roots_helper():
    roots = congruence_roots(np.diag([3.0, 1.0]), np.diag([1.0, 1.0]))
    np.testing.assert_allclose(roots, [0.75, 0.5], rtol=1e-14)
