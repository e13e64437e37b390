"""Library script: normalise twisted p = 2 matrix-pair densities.

Evaluates ``matrix_beta_density`` with an identity ``s_handle`` and
``eigenvalue_density`` with an identity ``p_handle``.  A handle, even the
identity, sends both functions down their twisted normaliser (tensor
cubature and ``dblquad``), and the identity keeps the answer known in
closed form: the multivariate beta constant and the p = 2 Selberg
integral.  Handles are fresh objects on every call of :func:`run`, because
the library caches normalisers by handle identity.

    python3 bench/normaliser.py --a 2.5 --b 3.5 --out result.json
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
from scipy.special import gammaln


def _log_gamma2(x: float) -> float:
    return 0.5 * math.log(math.pi) + gammaln(x) + gammaln(x - 0.5)


def _selberg_ordered_p2(a: float, b: float) -> float:
    """Integral of l1^al l2^al (1-l1)^be (1-l2)^be (l1-l2) over 1 > l1 > l2 > 0.

    al = a - 3/2, be = b - 3/2: half the Selberg integral S_2(a - 1/2, b - 1/2, 1/2).
    """
    x, y, g = a - 0.5, b - 0.5, 0.5
    log_s = sum(
        gammaln(x + j * g) + gammaln(y + j * g) + gammaln(1 + (j + 1) * g)
        - gammaln(x + y + (1 + j) * g) - gammaln(1 + g)
        for j in range(2)
    )
    return 0.5 * math.exp(log_s)


def run(a: float, b: float) -> dict:
    from starshape.matrixmodels import eigenvalue_density, matrix_beta_density

    calls = {"s_handle": 0, "p_handle": 0}

    def s_handle(U):
        calls["s_handle"] += 1
        return np.eye(2)

    def p_handle(l):
        calls["p_handle"] += 1
        return np.eye(2)

    U = np.array([[0.55, 0.1], [0.1, 0.35]])
    twisted_beta = matrix_beta_density(U, a, b, s_handle=s_handle)
    dU = U[0, 0] * U[1, 1] - U[0, 1] ** 2
    dI = (1 - U[0, 0]) * (1 - U[1, 1]) - U[0, 1] ** 2
    log_b2 = _log_gamma2(a) + _log_gamma2(b) - _log_gamma2(a + b)
    exact_beta = dU ** (a - 1.5) * dI ** (b - 1.5) / math.exp(log_b2)

    l = np.array([0.7, 0.3])
    twisted_eigen = eigenvalue_density(l, a, b, p_handle=p_handle)
    core = np.prod(l ** (a - 1.5) * (1 - l) ** (b - 1.5)) * (l[0] - l[1])
    exact_eigen = core / _selberg_ordered_p2(a, b)
    return {
        "a": a,
        "b": b,
        "twisted_beta": float(twisted_beta),
        "exact_beta": float(exact_beta),
        "twisted_eigen": float(twisted_eigen),
        "exact_eigen": float(exact_eigen),
        "handle_calls": calls["s_handle"] + calls["p_handle"],
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, required=True)
    ap.add_argument("--b", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run(args.a, args.b)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
