"""Output checks, run outside the timed window.

Each check returns a :class:`Verdict`.  Reference values come from closed
forms and from NumPy/SciPy here, not from the package under test.  A
statistical check (a KS or chi-square p-value, a c0 within k standard
errors) can fail on a correct program with probability about its level;
``statistical`` marks those, so the caller can repeat the command once on
an independent seed.  Deterministic failures are final.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammainc

ALPHA = 1e-3
# Twin-route tolerances of `starshape verify` (smooth / kinked planar gauge).
PLANAR_TOL = {False: 1e-7, True: 1e-6}
G_COLUMN_RTOL = 1e-14
RESIDUAL_TOL = 1e-10
BETA_NORM_RTOL = 1e-4
EIGEN_NORM_RTOL = 1e-6


@dataclass
class Verdict:
    ok: bool
    statistical: bool = False
    message: str = ""


def _fail(message: str, statistical: bool = False) -> Verdict:
    return Verdict(False, statistical, message)


def reference_gauge(doc: dict, X: np.ndarray) -> np.ndarray:
    gauge = doc["gauge"]
    if gauge["variant"] == "sup":
        return np.max(np.abs(X), axis=1)
    if gauge["variant"] == "polytope":
        return np.max(X @ np.asarray(gauge["params"]["facets"]).T, axis=1)
    if gauge["variant"] == "elliptical":
        inv = np.linalg.inv(np.asarray(gauge["params"]["sigma"]))
        return np.sqrt(np.einsum("ij,jk,ik->i", X, inv, X))
    raise ValueError(f"no reference gauge for '{gauge['variant']}'")


def radial_cdf(doc: dict, p: int):
    """CDF of the length g(X): g^(p-1) f(g) is a (power-transformed) gamma law."""
    fam, par = doc["profile"]["family"], doc["profile"]["params"]
    if fam == "exponential":
        return lambda g: gammainc(p, par["rate"] * g)
    if fam == "gaussian":
        return lambda g: gammainc(0.5 * p, 0.5 * (g / par["scale"]) ** 2)
    if fam == "kotz":
        return lambda g: gammainc((par["s"] + p) / par["t"], par["r"] * g ** par["t"])
    raise ValueError(f"no closed-form radial CDF for '{fam}'")


def independence_pvalue(a: np.ndarray, b: np.ndarray, bins: int) -> float:
    """Contingency chi-square on empirical-quantile bins of a and b."""
    def qbin(x):
        edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        return np.searchsorted(edges, x, side="right")

    table = np.bincount(qbin(a) * bins + qbin(b), minlength=bins * bins).reshape(bins, bins)
    expected = np.outer(table.sum(1), table.sum(0)) / a.size
    stat = float(np.sum((table - expected) ** 2 / expected))
    return float(stats.chi2.sf(stat, (bins - 1) ** 2))


def load_rows(path: str, fmt: str) -> tuple[list[str], np.ndarray]:
    if fmt == "csv":
        with open(path, encoding="utf-8") as fh:
            columns = fh.readline().strip().split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        return columns, rows
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["columns"], np.asarray(obj["rows"], dtype=float)


def check_sample_rows(check: dict, columns: list[str], rows: np.ndarray) -> Verdict:
    doc, n = check["doc"], check["n"]
    p = doc["gauge"]["dim"]
    if rows.shape[0] != n:
        return _fail(f"{rows.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(rows)):
        return _fail("non-finite value in output")
    X = rows[:, :p]
    g = reference_gauge(doc, X)
    if "g" in columns:
        gcol = rows[:, columns.index("g")]
        worst = float(np.max(np.abs(gcol - g) / g))
        if worst > G_COLUMN_RTOL:
            return _fail(f"g column differs from the gauge of x by {worst:.3g} (relative)")
    if "theta" in columns:
        theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * np.pi)
        if np.max(np.abs(rows[:, columns.index("theta")] - theta)) > 1e-12:
            return _fail("theta column differs from the angle of x")
    ks = stats.kstest(g, radial_cdf(doc, p)).pvalue
    if ks <= ALPHA:
        return _fail(f"radial KS p = {ks:.3g}", statistical=True)
    other = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2 * np.pi) if p == 2 else X[:, 0] / np.linalg.norm(X, axis=1)
    chi = independence_pvalue(g, other, 8 if p == 2 else 4)
    if chi <= ALPHA:
        return _fail(f"length-direction chi-square p = {chi:.3g}", statistical=True)
    return Verdict(True)


def check_sample(check: dict, path: str, stderr: str) -> Verdict:
    return check_sample_rows(check, *load_rows(path, check["format"]))


def check_constant(check: dict, path: str, stderr: str) -> Verdict:
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    exact, p = check["c0"], check["p"]
    det_tol = PLANAR_TOL[check["kinked"]] if p == 2 else 0.0
    for route in ("spherical", "radial"):
        value, se = res[f"c0_{route}"], res[f"stderr_{route}"]
        if not abs(value - exact) <= max(4.0 * se, det_tol * exact):
            return _fail(f"c0 by the {route} route {value!r} vs closed form {exact!r} "
                         f"(stderr {se:.3g})", statistical=se > 0)
    if p == 2:
        tol, statistical = PLANAR_TOL[check["kinked"]], False
    else:
        tol, statistical = max(3.0 * res["combined_stderr"] / res["c0_spherical"], 1e-12), True
    if not res["rel_discrepancy"] <= tol:
        return _fail(f"twin-route discrepancy {res['rel_discrepancy']:.3g} > {tol:.3g}",
                     statistical)
    return Verdict(True)


_STATISTICAL_METHODS = ("ks-", "chisq-")


def check_verify(check: dict, path: str, stderr: str) -> Verdict:
    """Every criterion in the report passed; a failed statistical one may be retried."""
    with open(path, encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh if line.strip()]
    if not reports:
        return _fail("verify wrote no report")
    failed = [r for r in reports if not r["passed"]]
    if not failed:
        return Verdict(True)
    names = ", ".join(r["name"] for r in failed)
    statistical = all(r["method"].startswith(_STATISTICAL_METHODS) for r in failed)
    return _fail(f"verify failed: {names}", statistical)


def wishart_pairs(p: int, n: int, n1: float, n2: float, seed: int):
    """The pairs `starshape matrix` draws: Bartlett factors on Philox(seed, 0)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))

    def draw(dof):
        A = np.zeros((n, p, p))
        rows, cols = np.tril_indices(p, k=-1)
        if rows.size:
            A[:, rows, cols] = gen.normal(size=(n, rows.size))
        for i in range(p):
            A[:, i, i] = np.sqrt(gen.chisquare(dof - i, size=n))
        return A @ np.transpose(A, (0, 2, 1))

    return draw(n1), draw(n2)


def check_matrix(check: dict, path: str, stderr: str, seed: int) -> Verdict:
    columns, rows = load_rows(path, check["format"])
    p, n = check["p"], check["n"]
    m = re.search(r"dropped (\d+) degenerate", stderr)
    dropped = int(m.group(1)) if m else 0
    if rows.shape[0] != n - dropped:
        return _fail(f"{rows.shape[0]} rows, expected {n} - {dropped} dropped")
    if not np.all(np.isfinite(rows)):
        return _fail("non-finite value in output")
    W1, W2 = wishart_pairs(p, n, check["n1"], check["n2"], seed)
    eye = np.eye(p)
    col = {name: rows[:, i] for i, name in enumerate(columns)}

    def entry(prefix, i, j):
        key = f"{prefix}{i + 1}{j + 1}"
        return col[key] if key in col else col[f"{prefix}{j + 1}{i + 1}"]

    if check["group"] == "lt":
        T = np.zeros((len(rows), p, p))
        U = np.zeros((len(rows), p, p))
        for i in range(p):
            for j in range(p):
                if j <= i:
                    T[:, i, j] = entry("t", i, j)
                U[:, i, j] = entry("u", i, j)
        R1 = T @ U @ np.transpose(T, (0, 2, 1))
        R2 = T @ (eye - U) @ np.transpose(T, (0, 2, 1))
    else:
        B = np.stack([np.stack([col[f"b{i + 1}{j + 1}"] for j in range(p)], -1)
                      for i in range(p)], 1)
        L = np.stack([col[f"l{i + 1}"] for i in range(p)], -1)
        R1 = B @ (L[:, :, None] * np.transpose(B, (0, 2, 1)))
        R2 = B @ ((1.0 - L)[:, :, None] * np.transpose(B, (0, 2, 1)))
        if dropped:
            W1, W2 = _align_kept(W1, W2, R1, dropped)
            if W1 is None:
                return _fail("could not align rows with regenerated pairs")
    scale = np.maximum(np.max(np.abs(W1 + W2), axis=(1, 2)), 1.0)
    resid = np.max(np.maximum(np.max(np.abs(R1 - W1), axis=(1, 2)),
                              np.max(np.abs(R2 - W2), axis=(1, 2))) / scale)
    if not resid < RESIDUAL_TOL:
        return _fail(f"reconstruction residual {resid:.3g}")
    return Verdict(True)


def _align_kept(W1, W2, R1, dropped):
    """Drop the regenerated pairs that have no output row (kept rows stay in order)."""
    keep, r = [], 0
    for k in range(len(W1)):
        if r < len(R1) and np.max(np.abs(R1[r] - W1[k])) < 1e-6 * max(1.0, np.max(np.abs(W1[k]))):
            keep.append(k)
            r += 1
    if r != len(R1) or len(W1) - len(keep) != dropped:
        return None, None
    return W1[keep], W2[keep]


def check_normaliser(check: dict, path: str, stderr: str) -> Verdict:
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    rel_beta = abs(res["twisted_beta"] / res["exact_beta"] - 1.0)
    if not rel_beta <= BETA_NORM_RTOL:
        return _fail(f"twisted matrix-beta normaliser off by {rel_beta:.3g}")
    rel_eigen = abs(res["twisted_eigen"] / res["exact_eigen"] - 1.0)
    if not rel_eigen <= EIGEN_NORM_RTOL:
        return _fail(f"twisted eigenvalue normaliser off by {rel_eigen:.3g}")
    return Verdict(True)


def check_output(cmd: dict, seed: int | None, stderr: str) -> Verdict:
    """Dispatch on the command's check type; a missing or unreadable output fails."""
    check = cmd["check"]
    try:
        if check["type"] == "matrix":
            return check_matrix(check, cmd["out"], stderr, seed)
        return {
            "sample": check_sample,
            "constant": check_constant,
            "verify": check_verify,
            "normaliser": check_normaliser,
        }[check["type"]](check, cmd["out"], stderr)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"unreadable output: {exc!r}")
