"""Triangular- and general-linear-group models for positive-definite pairs.

A pair (W1, W2) of p x p positive-definite matrices decomposes under
congruence actions in two classic ways:

* lower-triangular group: with T the Cholesky factor of W1 + W2 and
  U = T^-1 W1 T^-t, the pair is (T U T^t, T (I-U) T^t); the action is free
  and under two independent Wisharts U has the matrix beta law.
* general linear group: with the congruence eigenvalues l_1 > ... > l_p of
  W1 relative to W1 + W2 and B the congruence factor,
  the pair is (B L B^t, B (I-L) B^t); the action is not free — the common
  isotropy of the diagonal cross section is the sign group diag(+-1) — and
  B is fixed by the convention that the first nonzero entry of each column
  is positive.

Densities of both invariant parts follow the weighted dominating measure
(det W1)^(a-(p+1)/2) (det W2)^(b-(p+1)/2) dW1 dW2 and carry an optional
cross-section twist (a triangular map S(U), or a normalizer map P(L) of
permutation x diagonal type).

The companion matrix-F decomposition (triangularizing W2 alone instead of
W1 + W2) follows from the same operations with W1 + W2 replaced by W2; it
is not provided separately.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import (
    BadDegreesOfFreedomError,
    DegenerateRootsError,
    DimensionMismatchError,
    NotOrderedError,
    NotPositiveDefiniteError,
    NotTriangularError,
    OutOfRangeError,
)
from .quadrature import gauss

DEFAULT_GAP_TOL = 1e-10
# Gauss-Jacobi order per axis of the twisted normalisers (p <= 2).
_NORMALISER_ORDER = 20
_SYM_ATOL = 1e-12


def _as_square(W, name: str = "matrix") -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {W.shape}")
    return W


def _check_symmetric(W: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(W))))
    if np.max(np.abs(W - W.T)) > _SYM_ATOL * scale:
        raise NotPositiveDefiniteError(f"{name} is not symmetric")
    return 0.5 * (W + W.T)


def cholesky_factor(W) -> np.ndarray:
    """Lower-triangular T with positive diagonal and T T^t = W."""
    W = _check_symmetric(_as_square(W), "matrix")
    try:
        return np.linalg.cholesky(W)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc


def validate_pd_pair(W1, W2, gap_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Check symmetry and positive-definiteness of a pair.

    With ``gap_tol`` set, also require the congruence roots of
    det(W1 - l (W1+W2)) = 0 to be separated by more than the tolerance,
    the precondition of the general-linear decomposition.
    """
    W1 = _check_symmetric(_as_square(W1, "W1"), "W1")
    W2 = _check_symmetric(_as_square(W2, "W2"), "W2")
    if W1.shape != W2.shape:
        raise DimensionMismatchError("W1 and W2 must have the same shape")
    cholesky_factor(W1)
    cholesky_factor(W2)
    if gap_tol is not None:
        roots = congruence_roots(W1, W2)
        if roots.size > 1 and np.min(-np.diff(roots)) <= gap_tol:
            raise DegenerateRootsError(
                f"congruence roots {roots} are not separated beyond {gap_tol:g}"
            )
    return W1, W2


def congruence_roots(W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """Roots of det(W1 - l (W1+W2)) = 0 in decreasing order."""
    cholesky_factor(W1 + W2)  # raises NotPositiveDefiniteError
    _, U = lt_decompose_batch(*(np.asarray(W, dtype=float)[None] for W in (W1, W2)))
    return np.linalg.eigvalsh(U[0])[::-1]


def wishart_sample(
    p: int, dof: float, gen: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Wishart(identity scale) draws by the triangular construction.

    The factor A is lower triangular with a_ii^2 ~ chi-square(dof - i + 1)
    and standard normal entries below the diagonal; W = A A^t.  Requires
    dof > p - 1 (non-integer degrees of freedom are fine).
    """
    if dof <= p - 1:
        raise BadDegreesOfFreedomError(f"need dof > p - 1 = {p - 1}, got {dof}")
    m = 1 if n is None else n
    A = np.zeros((m, p, p))
    rows, cols = np.tril_indices(p, k=-1)
    if rows.size:
        A[:, rows, cols] = gen.normal(size=(m, rows.size))
    for i in range(p):
        A[:, i, i] = np.sqrt(gen.chisquare(dof - i, size=m))
    W = A @ np.transpose(A, (0, 2, 1))
    return W[0] if n is None else W


@dataclass(frozen=True)
class LTDecomposition:
    """Triangular-group split of a pair: W1 = T U T^t, W2 = T (I-U) T^t.

    ``G`` is the equivariant part T S(U)^-1 for the cross-section map S
    (identity when no map is given, so G = T).  Residuals are relative
    Frobenius reconstruction errors.
    """

    T: np.ndarray
    U: np.ndarray
    G: np.ndarray
    resid_w1: float
    resid_w2: float


def lt_orbital_decompose(
    W1, W2, s_handle: Callable[[np.ndarray], np.ndarray] | None = None
) -> LTDecomposition:
    """Decompose a positive-definite pair under the triangular action."""
    W1, W2 = validate_pd_pair(W1, W2)
    p = W1.shape[0]
    T, U = (x[0] for x in lt_decompose_batch(W1[None], W2[None]))
    eig = np.linalg.eigvalsh(U)
    if eig[0] <= 0.0 or eig[-1] >= 1.0:
        raise NotPositiveDefiniteError(
            f"invariant part has eigenvalues {eig} outside (0, 1)"
        )
    if s_handle is None:
        G = T
    else:
        S = _check_lower_triangular(np.asarray(s_handle(U), dtype=float))
        G = T @ np.linalg.inv(S)
    R1 = T @ U @ T.T
    R2 = T @ (np.eye(p) - U) @ T.T
    return LTDecomposition(
        T,
        U,
        G,
        float(np.linalg.norm(R1 - W1) / np.linalg.norm(W1)),
        float(np.linalg.norm(R2 - W2) / np.linalg.norm(W2)),
    )


def _check_lower_triangular(G: np.ndarray) -> np.ndarray:
    """Validate one (p, p) matrix or a stack (..., p, p), each on its own scale."""
    if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
        raise DimensionMismatchError(f"matrix must be square, got shape {G.shape}")
    scale = np.maximum(1.0, np.max(np.abs(G), axis=(-2, -1)))
    if np.any(np.max(np.abs(np.triu(G, k=1)), axis=(-2, -1)) > 1e-12 * scale):
        raise NotTriangularError("matrix has entries above the diagonal")
    if np.any(np.diagonal(G, axis1=-2, axis2=-1) <= 0.0):
        raise NotTriangularError("triangular factor needs a positive diagonal")
    return G


def multivariate_beta(p: int, a: float, b: float) -> float:
    """B_p(a, b) = Gamma_p(a) Gamma_p(b) / Gamma_p(a + b)."""

    def log_gamma_p(x: float) -> float:
        return p * (p - 1) / 4.0 * np.log(np.pi) + sum(
            gammaln(x - 0.5 * i) for i in range(p)
        )

    return float(np.exp(log_gamma_p(a) + log_gamma_p(b) - log_gamma_p(a + b)))


def _beta_shape(U: np.ndarray, a: float, b: float, s_handle) -> np.ndarray:
    """Unnormalized matrix-beta shape at one (p, p) matrix or a stack of them."""
    p = U.shape[-1]
    dU = np.linalg.det(U)
    dI = np.linalg.det(np.eye(p) - U)
    value = dU ** (a - (p + 1) / 2.0) * dI ** (b - (p + 1) / 2.0)
    return value if s_handle is None else value * _s_factor(U, a, b, s_handle)


def _s_factor(
    U: np.ndarray, a: float, b: float, s_handle: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    # The handle takes one matrix, so it is called once per matrix of the stack.
    p = U.shape[-1]
    S = np.stack([np.asarray(s_handle(u), dtype=float) for u in U.reshape(-1, p, p)])
    S = _check_lower_triangular(S.reshape(U.shape[:-2] + S.shape[1:]))
    exps = 2.0 * (a + b) + p - 2.0 * np.arange(1, p + 1) + 1.0
    return np.prod(np.diagonal(S, axis1=-2, axis2=-1) ** exps, axis=-1)


def matrix_beta_density(
    U,
    a: float,
    b: float,
    s_handle: Callable[[np.ndarray], np.ndarray] | None = None,
    normalized: bool | None = None,
) -> float:
    """Density of the triangular-action invariant part U at a matrix point.

    The shape is
    prod_i s_ii(U)^(2(a+b)+p-2i+1) (det U)^(a-(p+1)/2) (det(I-U))^(b-(p+1)/2);
    for the plain cross section (no ``s_handle``) and p <= 2 the normalizer
    is the multivariate beta constant, for a twisted section (p <= 2) it is
    a Gauss-Jacobi rule over {0 < U < I}; at p >= 3 only the unnormalized
    shape is available (pass ``normalized=False``).
    """
    U = _check_symmetric(_as_square(U, "U"), "U")
    p = U.shape[0]
    if a <= (p - 1) / 2.0 or b <= (p - 1) / 2.0:
        raise OutOfRangeError(f"need a, b > (p-1)/2 = {(p - 1) / 2}")
    eig = np.linalg.eigvalsh(U)
    if eig[0] <= 0.0 or eig[-1] >= 1.0:
        raise OutOfRangeError(f"U must satisfy 0 < U < I, eigenvalues {eig}")
    if normalized is None:
        normalized = p <= 2
    value = float(_beta_shape(U, a, b, s_handle))
    if not normalized:
        return value
    if p > 2:
        raise OutOfRangeError("normalized values are available for p <= 2 only")
    if s_handle is None:
        return value / multivariate_beta(p, a, b)
    return value / _beta_normalizer(p, a, b, s_handle)


@functools.lru_cache(maxsize=64)
def _beta_normalizer(p: int, a: float, b: float, s_handle, order: int = _NORMALISER_ORDER) -> float:
    """Integral of the twisted shape over 0 < U < I (p <= 2), cached per handle.

    In spectral coordinates U = R(theta) diag(l) R(theta)^t, dU is
    (l1 - l2) dl1 dl2 dtheta over theta in [0, pi), and the matrix-beta
    shape of U is the ordered-root shape of l.  So the roots take the
    nodes of :func:`_eigen_rule`, and theta the rectangle rule, exact for
    trigonometric polynomials in 2 theta of degree < order.  The handle
    takes one matrix and is called once per node: order times at p = 1,
    3 order^3 times at p = 2.  At order 20 the identity twist reproduces
    the multivariate beta constant to <= 5e-14 relative for a, b in
    [0.51, 12].
    """
    l, w = _eigen_rule(p, a, b, order)
    U = l[..., None]
    if p == 2:
        theta = np.pi * np.arange(order) / order
        c2, s2, cs = np.cos(theta) ** 2, np.sin(theta) ** 2, np.cos(theta) * np.sin(theta)
        l1, l2 = l[:, 0, None], l[:, 1, None]
        off = (l1 - l2) * cs
        U = np.stack([l1 * c2 + l2 * s2, off, off, l1 * s2 + l2 * c2], axis=-1).reshape(-1, 2, 2)
        w = np.repeat(w * (np.pi / order), order)
    return float(np.sum(w * _s_factor(U, a, b, s_handle)))


def equivariant_density_lt(
    G, a: float, b: float, fg_handle: Callable[[np.ndarray], float]
) -> float:
    """Unnormalized density f_G(G) prod_i g_ii^(2(a+b)-i) of the triangular part.

    For the Wishart shape f_G(T) = exp(-tr(T T^t)/2) with a + b = (n1+n2)/2
    the implied marginals make g_ii^2 chi-square(n1+n2-i+1), which is the
    test oracle for this formula.
    """
    G = _check_lower_triangular(np.asarray(G, dtype=float))
    p = G.shape[0]
    exps = 2.0 * (a + b) - np.arange(1, p + 1)
    return float(fg_handle(G) * np.prod(np.diag(G) ** exps))


def lt_decompose_batch(W1: np.ndarray, W2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized triangular decomposition of stacked pairs.

    ``W1``, ``W2`` have shape (n, p, p); returns (T, U) with the same
    batch layout.  Validation is lighter than the scalar path (inputs are
    assumed symmetric; Cholesky still rejects non-PD slices).
    """
    S = W1 + W2
    T = np.linalg.cholesky(S)
    Ti = np.linalg.inv(T)
    U = Ti @ W1 @ np.transpose(Ti, (0, 2, 1))
    return T, 0.5 * (U + np.transpose(U, (0, 2, 1)))


def gl_decompose_batch(
    W1: np.ndarray, W2: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized general-linear decomposition of stacked pairs.

    Solves W1 v = l (W1 + W2) v by Cholesky reduction of W1 + W2; B = T V
    holds the eigenvectors for the decreasing roots, re-signed into the
    column convention.  Returns (B, l, ok) where ``ok`` flags the slices
    whose roots lie in (0, 1) and are separated beyond ``gap_tol``;
    degenerate slices keep their raw numbers but should be dropped by the
    caller.
    """
    T, U = lt_decompose_batch(W1, W2)
    lam, V = np.linalg.eigh(U)
    lam = lam[:, ::-1]
    V = V[:, :, ::-1]
    p = W1.shape[-1]
    ok = np.ones(len(W1), dtype=bool)
    if p > 1:
        ok &= np.min(-np.diff(lam, axis=1), axis=1) > gap_tol
    ok &= (lam[:, 0] < 1.0) & (lam[:, -1] > 0.0)
    return _sign_normalize(T @ V), lam, ok


def _sign_normalize(B: np.ndarray) -> np.ndarray:
    """Re-sign the columns of each (p, p) slice: first nonzero entry positive.

    An entry counts as nonzero above 1e-12 times its column's largest
    magnitude, so the convention does not depend on the scale of B.
    """
    n, p = B.shape[0], B.shape[-1]
    col_scale = np.max(np.abs(B), axis=1)
    sign = np.zeros((n, p))
    decided = np.zeros((n, p), dtype=bool)
    for i in range(p):
        row = B[:, i, :]
        significant = (np.abs(row) > 1e-12 * col_scale) & ~decided
        sign = np.where(significant, np.sign(row), sign)
        decided |= significant
    sign = np.where(decided, sign, 1.0)
    return B * sign[:, None, :]


@dataclass(frozen=True)
class GLDecomposition:
    """General-linear split of a pair: W1 = B L B^t, W2 = B (I-L) B^t.

    ``l`` holds the strictly decreasing congruence roots in (0, 1); ``B``
    follows the positive-first-nonzero column convention; ``G`` is the
    sign-repaired equivariant selection B P(L)^-1 (equal to B without a
    normalizer twist).
    """

    B: np.ndarray
    l: np.ndarray
    G: np.ndarray
    resid_w1: float
    resid_w2: float

    @property
    def L(self) -> np.ndarray:
        return np.diag(self.l)


def gl_orbital_decompose(
    W1,
    W2,
    p_handle: Callable[[np.ndarray], np.ndarray] | None = None,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> GLDecomposition:
    """Decompose a positive-definite pair under the general linear action.

    The validated single-pair form of :func:`gl_decompose_batch`, with
    residuals and the optional normalizer twist.  Raises
    :class:`DegenerateRootsError` when the roots are closer than
    ``gap_tol``.
    """
    W1, W2 = validate_pd_pair(W1, W2)
    p = W1.shape[0]
    B, lam, ok = (x[0] for x in gl_decompose_batch(W1[None], W2[None], gap_tol))
    if lam[0] >= 1.0 or lam[-1] <= 0.0:
        raise NotPositiveDefiniteError(f"congruence roots {lam} outside (0, 1)")
    if not ok:
        raise DegenerateRootsError(
            f"congruence roots {lam} are not separated beyond {gap_tol:g}"
        )
    if p_handle is None:
        G = B
    else:
        P = _check_monomial(np.asarray(p_handle(lam), dtype=float))
        G = _sign_normalize((B @ np.linalg.inv(P))[None])[0]
    L = np.diag(lam)
    R1 = B @ L @ B.T
    R2 = B @ (np.eye(p) - L) @ B.T
    return GLDecomposition(
        B,
        lam,
        G,
        float(np.linalg.norm(R1 - W1) / np.linalg.norm(W1)),
        float(np.linalg.norm(R2 - W2) / np.linalg.norm(W2)),
    )


def _check_monomial(P: np.ndarray) -> np.ndarray:
    """Validate a permutation-times-diagonal (normalizer) matrix."""
    P = _as_square(P, "P")
    nz = np.abs(P) > 1e-12 * max(1.0, float(np.max(np.abs(P))))
    if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
        raise OutOfRangeError(
            "normalizer element must have exactly one nonzero per row and column"
        )
    return P


def eigenvalue_density(
    l,
    a: float,
    b: float,
    p_handle: Callable[[np.ndarray], np.ndarray] | None = None,
    normalized: bool | None = None,
) -> float:
    """Density of the ordered congruence roots (l_1 > ... > l_p) at a point.

    The shape is (det P(L))^(2(a+b)) prod_i l_i^(a-(p+1)/2)
    prod_i (1-l_i)^(b-(p+1)/2) prod_{i<j} (l_i - l_j).  p = 1 normalizes to
    the scalar beta; p = 2 and twisted p = 1 normalize by a Gauss-Jacobi
    rule over the ordered roots; p >= 3 is shape-only.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 1:
        raise DimensionMismatchError("l must be a vector")
    p = l.size
    if a <= (p - 1) / 2.0 or b <= (p - 1) / 2.0:
        raise OutOfRangeError(f"need a, b > (p-1)/2 = {(p - 1) / 2}")
    if np.any(l <= 0.0) or np.any(l >= 1.0):
        raise OutOfRangeError(f"roots {l} must lie strictly inside (0, 1)")
    if p > 1 and np.any(np.diff(l) >= 0.0):
        raise NotOrderedError(f"roots {l} must be strictly decreasing")
    if normalized is None:
        normalized = p <= 2
    value = float(_eigen_shape(l, a, b, p_handle))
    if not normalized:
        return value
    if p > 2:
        raise OutOfRangeError("normalized values are available for p <= 2 only")
    if p == 1 and p_handle is None:
        return value * np.exp(gammaln(a + b) - gammaln(a) - gammaln(b))
    return value / _eigen_normalizer(p, a, b, p_handle)


@functools.lru_cache(maxsize=64)
def _eigen_normalizer(p: int, a: float, b: float, p_handle) -> float:
    """Integral of the root shape over the ordered roots in (0, 1) (p <= 2), cached.

    A Gauss-Jacobi product rule whose weights carry the untwisted shape, so
    only the P-twist is left to the nodes; the handle is called once per
    node of :func:`_eigen_rule`: order times at p = 1, 3 order^2 times at
    p = 2.  At order 20 the untwisted p = 2 value matches the Selberg
    integral to <= 5e-14 relative for a, b in [0.51, 12].
    """
    l, w = _eigen_rule(p, a, b, _NORMALISER_ORDER)
    return float(np.sum(w * _p_factor(l, a, b, p_handle)))


def _eigen_rule(p: int, a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes l (n, p) and weights w: sum w f(l) ~ integral of shape(l) f(l).

    p = 1 is Gauss-Jacobi for l^(a-1) (1-l)^(b-1).  At p = 2 the ordered
    triangle is cut into three pieces, so that each carries its algebraic
    factors as a product.  Below l1 = 1/2, with l2 = l1 v, the shape times
    the Jacobian is l1^(2a-1) v^(a-3/2) (1-v) ((1-l1) (1 - l1 v))^(b-3/2).
    Above l2 = 1/2 is its mirror image l -> 1 - l with a and b swapped, and
    the square in between carries l2^(a-3/2) (1-l1)^(b-3/2).  The weights
    take these factors and the rest of the shape goes into w.
    """
    if p == 1:
        l, w = gauss(order, 0.0, 1.0, b - 1.0, a - 1.0)
        return l[:, None], w
    ls, ws = [], []
    for mirror, (near, far) in enumerate(((a, b), (b, a))):
        m1, w1 = gauss(order, 0.0, 0.5, 0.0, 2.0 * near - 1.0)
        v, wv = gauss(order, 0.0, 1.0, 1.0, near - 1.5)
        m1, v = np.meshgrid(m1, v, indexing="ij")
        m = np.stack([m1, m1 * v], axis=-1).reshape(-1, 2)
        ls.append(1.0 - m[:, ::-1] if mirror else m)
        ws.append((w1[:, None] * wv * ((1.0 - m1) * (1.0 - m1 * v)) ** (far - 1.5)).ravel())
    l1, w1 = gauss(order, 0.5, 1.0, b - 1.5, 0.0)
    l2, w2 = gauss(order, 0.0, 0.5, 0.0, a - 1.5)
    l1, l2 = np.meshgrid(l1, l2, indexing="ij")
    ls.append(np.stack([l1, l2], axis=-1).reshape(-1, 2))
    rest = l1 ** (a - 1.5) * (1.0 - l2) ** (b - 1.5) * (l1 - l2)
    ws.append((w1[:, None] * w2 * rest).ravel())
    return np.concatenate(ls), np.concatenate(ws)


def _eigen_shape(l: np.ndarray, a: float, b: float, p_handle) -> np.ndarray:
    """Unnormalized ordered-root shape at rows l (..., p), times |det P(L)|^(2(a+b))."""
    p = l.shape[-1]
    value = np.prod(l ** (a - (p + 1) / 2.0), axis=-1) * np.prod(
        (1.0 - l) ** (b - (p + 1) / 2.0), axis=-1
    )
    for i, j in itertools.combinations(range(p), 2):
        value = value * (l[..., i] - l[..., j])
    return value * _p_factor(l, a, b, p_handle)


def _p_factor(l: np.ndarray, a: float, b: float, p_handle) -> np.ndarray:
    """|det P(L)|^(2(a+b)) per row of l (..., p); ones without a handle."""
    if p_handle is None:
        return np.ones(l.shape[:-1])
    # The handle takes one root vector, so it is called once per row.
    rows = l.reshape(-1, l.shape[-1])
    P = np.stack([_check_monomial(np.asarray(p_handle(r), dtype=float)) for r in rows])
    return np.abs(np.linalg.det(P)).reshape(l.shape[:-1]) ** (2.0 * (a + b))


def sign_matrices(p: int) -> list[np.ndarray]:
    """All 2^p diagonal sign matrices diag(+-1, ..., +-1)."""
    return [np.diag(eps) for eps in itertools.product((1.0, -1.0), repeat=p)]


def check_sign_invariance(
    t_handle: Callable[[np.ndarray], float],
    p: int,
    gen: np.random.Generator,
    n_probe: int = 8,
    rtol: float = 1e-8,
) -> bool:
    """Probe whether t(B) ignores column signs, as the eigenvalue law requires.

    Not a certification — random matrices and random sign flips only.  A
    failed probe emits a warning and returns False.
    """
    for _ in range(n_probe):
        B = gen.normal(size=(p, p))
        while abs(np.linalg.det(B)) < 1e-6:
            B = gen.normal(size=(p, p))
        eps = np.diag(np.where(gen.random(p) < 0.5, 1.0, -1.0))
        base = float(t_handle(B))
        flipped = float(t_handle(B @ eps))
        if abs(base - flipped) > rtol * max(1.0, abs(base)):
            warnings.warn(
                "t-handle changed under a column sign flip; the stated "
                "eigenvalue law does not apply to it",
                stacklevel=2,
            )
            return False
    return True


@dataclass(frozen=True)
class CrossSectionReport:
    """Outcome of the isotropy audit of a candidate global cross section."""

    group: str
    n_points: int
    expected_isotropy: int
    point_isotropy: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_global_cross_section(
    points: Sequence[tuple[np.ndarray, np.ndarray]],
    group: str = "gl",
    atol: float = 1e-9,
    gen: np.random.Generator | None = None,
) -> CrossSectionReport:
    """Audit that candidate cross-section points share the expected isotropy.

    For the general linear action the reference isotropy subgroup is the
    full sign group diag(+-1)^p; every sign matrix must fix every point
    (componentwise on the pair).  Points produced by a non-normalizer
    within-orbit move keep only a conjugate of the sign group and get
    flagged.  For the triangular action the action is free: the Cholesky
    factor of W1 + W2 is unique, so only the identity can fix a point; a
    handful of random triangular elements confirm that numerically.
    """
    if group not in ("gl", "lt"):
        raise ValueError(f"unknown group '{group}'")
    violations: list[str] = []
    sizes: list[int] = []
    if not points:
        raise DimensionMismatchError("need at least one cross-section point")
    p = np.asarray(points[0][0]).shape[0]

    if group == "gl":
        expected = 2 ** p
        signs = sign_matrices(p)
        for idx, (W1, W2) in enumerate(points):
            W1 = _as_square(W1, "W1")
            W2 = _as_square(W2, "W2")
            scale = max(1.0, float(np.max(np.abs(W1))), float(np.max(np.abs(W2))))
            stab = 0
            for E in signs:
                if (
                    np.max(np.abs(E @ W1 @ E.T - W1)) <= atol * scale
                    and np.max(np.abs(E @ W2 @ E.T - W2)) <= atol * scale
                ):
                    stab += 1
            sizes.append(stab)
            if stab != expected:
                violations.append(
                    f"point {idx}: only {stab}/{expected} sign matrices fix the pair; "
                    "isotropy is a conjugate of the reference subgroup"
                )
        return CrossSectionReport(group, len(points), expected, tuple(sizes), tuple(violations))

    expected = 1
    gen = np.random.default_rng(0) if gen is None else gen
    for idx, (W1, W2) in enumerate(points):
        W1, W2 = validate_pd_pair(W1, W2)
        scale = max(1.0, float(np.max(np.abs(W1))))
        stab = 1  # the identity
        for _ in range(16):
            A = np.tril(gen.normal(size=(p, p)))
            np.fill_diagonal(A, np.exp(0.3 * gen.normal(size=p)))
            if np.max(np.abs(A - np.eye(p))) < 1e-6:
                continue
            if (
                np.max(np.abs(A @ W1 @ A.T - W1)) <= atol * scale
                and np.max(np.abs(A @ W2 @ A.T - W2)) <= atol * scale
            ):
                stab += 1
        sizes.append(stab)
        if stab != expected:
            violations.append(
                f"point {idx}: a non-identity triangular element fixes the pair"
            )
    return CrossSectionReport(group, len(points), expected, tuple(sizes), tuple(violations))
