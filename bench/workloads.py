"""Seeded inputs and command lists for the four benchmark workloads.

Everything the program sees (distribution documents, --seed values,
degrees of freedom) is drawn here from the workload seed, so the same seed
gives the same inputs.  Geometry is jittered around fixed shapes rather
than drawn freely: the cost of adaptive quadrature and of rejection
sampling depends on the shape, and a free draw would make run-to-run
spread measure the inputs instead of the program.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import gammaln

NAMES = ("sample-planar", "certify-planar", "highdim", "matrix-pairs")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Each workload draws from its own stream so adding one never shifts another.
_STREAM_KEYS = {name: i + 1 for i, name in enumerate(NAMES)}


def _ball_volume(p: int) -> float:
    return math.exp(0.5 * p * math.log(math.pi) - gammaln(0.5 * p + 1.0))


def c0_ellipse(sigma) -> float:
    """1/(p Vol{g <= 1}) = 1/(p Vol(B_p) sqrt(det Sigma))."""
    sigma = np.asarray(sigma)
    p = sigma.shape[0]
    return 1.0 / (p * _ball_volume(p) * math.sqrt(np.linalg.det(sigma)))


def c0_polytope(facets) -> float:
    """1/(p Vol K), K = {x : <a_j, x> <= 1 for all j}, volume from Qhull."""
    A = np.asarray(facets)
    p = A.shape[1]
    hs = HalfspaceIntersection(np.column_stack([A, -np.ones(len(A))]), np.zeros(p))
    return 1.0 / (p * ConvexHull(hs.intersections).volume)


def _doc(gauge: dict, profile: dict) -> dict:
    return {"gauge": gauge, "profile": profile}


def _sup_exponential(rng) -> dict:
    rate = float(rng.uniform(0.8, 1.25))
    return _doc({"dim": 2, "variant": "sup", "params": {}},
                {"family": "exponential", "params": {"rate": rate}})


def _pentagon_gaussian(rng) -> dict:
    """A regular pentagon's facets with small seeded angle and length jitter."""
    ang = 0.3 + 2.0 * np.pi * np.arange(5) / 5 + rng.uniform(-0.05, 0.05, 5)
    facets = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.97, 1.03, (5, 1))
    return _doc({"dim": 2, "variant": "polytope", "params": {"facets": facets.tolist()}},
                {"family": "gaussian", "params": {"scale": float(rng.uniform(0.9, 1.1))}})


def _rotated_ellipse(rng, p: int) -> np.ndarray:
    """SPD matrix with seeded eigenvalues in narrow bands and a small seeded rotation."""
    eig = np.linspace(1.0, 2.5, p) * rng.uniform(0.95, 1.05, p)
    q, _ = np.linalg.qr(np.eye(p) + 0.15 * rng.standard_normal((p, p)))
    sigma = q @ np.diag(eig) @ q.T
    return 0.5 * (sigma + sigma.T)


def _hexacube_facets(rng) -> np.ndarray:
    """+-e_i of R^6 plus 6 seeded corner cuts 0.3 * s, s a sign vector.

    Cutting six distinct corners of the cube to one depth keeps the body's
    volume and its smallest gauge value on the sphere (an uncut corner)
    the same for every seed, so the rejection sampler's acceptance rate
    (about 3%) does not depend on the seed.
    """
    corners = rng.choice(64, size=6, replace=False)
    signs = 1.0 - 2.0 * ((corners[:, None] >> np.arange(6)) & 1)
    return np.vstack([np.eye(6), -np.eye(6), 0.3 * signs])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _cli(name, args, **extra) -> dict:
    return {"name": name, "kind": "cli", "args": args, **extra}


def build(name: str, seed: int, work: str) -> dict:
    """Write the workload's documents under ``work`` and return its spec.

    A spec holds the commands (CLI argument lists plus what their outputs
    are checked against) and what a set-up process builds.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload '{name}'")
    rng = np.random.default_rng([seed, _STREAM_KEYS[name]])
    os.makedirs(work, exist_ok=True)

    def write_doc(label: str, doc: dict) -> str:
        path = os.path.join(work, f"doc-{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def out(label: str) -> str:
        return os.path.join(work, label)

    cmds = []
    setup = {"docs": [], "wishart": []}
    if name == "sample-planar":
        sup = _sup_exponential(rng)
        poly = _pentagon_gaussian(rng)
        sup_path, poly_path = write_doc("sup", sup), write_doc("pentagon", poly)
        cmds.append(_cli("sample-sup-csv",
                         ["sample", "--dist", sup_path, "--n", "1000000", "--decompose",
                          "--out", out("sup.csv")],
                         seed=_seed(rng), out=out("sup.csv"), role="sample", items=1_000_000,
                         check={"type": "sample", "format": "csv", "doc": sup, "n": 1_000_000}))
        cmds.append(_cli("sample-pentagon-json",
                         ["sample", "--dist", poly_path, "--n", "500000", "--format", "json",
                          "--strategy", "body", "--out", out("pentagon.json")],
                         seed=_seed(rng), out=out("pentagon.json"), role="sample", items=500_000,
                         check={"type": "sample", "format": "json", "doc": poly, "n": 500_000}))
        setup["docs"] = [sup_path, poly_path]
    elif name == "certify-planar":
        sup = _sup_exponential(rng)
        sigma = _rotated_ellipse(rng, 2)
        ell = _doc({"dim": 2, "variant": "elliptical", "params": {"sigma": sigma.tolist()}},
                   {"family": "gaussian", "params": {"scale": 1.0}})
        poly = _pentagon_gaussian(rng)
        poly["c0"] = c0_polytope(poly["gauge"]["params"]["facets"])
        paths = [write_doc("sup", sup), write_doc("ellipse", ell), write_doc("pentagon", poly)]
        cmds.append(_cli("constant-sup", ["constant", "--dist", paths[0], "--out", out("c-sup.json")],
                         seed=_seed(rng), out=out("c-sup.json"), role="constant",
                         check={"type": "constant", "c0": 1.0 / 8.0, "kinked": True, "p": 2}))
        cmds.append(_cli("constant-ellipse",
                         ["constant", "--dist", paths[1], "--out", out("c-ellipse.json")],
                         seed=_seed(rng), out=out("c-ellipse.json"), role="constant",
                         check={"type": "constant", "c0": c0_ellipse(sigma), "kinked": False,
                                "p": 2}))
        cmds.append(_cli("verify-pentagon",
                         ["verify", "--dist", paths[2], "--report", out("verify.jsonl")],
                         seed=_seed(rng), out=out("verify.jsonl"), role="verify",
                         check={"type": "verify"}))
        setup["docs"] = paths
    elif name == "highdim":
        sigma = _rotated_ellipse(rng, 3)
        ell = _doc({"dim": 3, "variant": "elliptical", "params": {"sigma": sigma.tolist()}},
                   {"family": "kotz", "params": {"s": 1.0, "r": 0.5, "t": 2.0}})
        facets = _hexacube_facets(rng)
        poly = _doc({"dim": 6, "variant": "polytope", "params": {"facets": facets.tolist()}},
                    {"family": "exponential", "params": {"rate": float(rng.uniform(0.8, 1.25))}})
        ell_path, poly_path = write_doc("ellipse3", ell), write_doc("hexacube", poly)
        cmds.append(_cli("constant-ellipse3",
                         ["constant", "--dist", ell_path, "--out", out("c-ellipse3.json")],
                         seed=_seed(rng), out=out("c-ellipse3.json"), role="constant",
                         check={"type": "constant", "c0": c0_ellipse(sigma), "kinked": False,
                                "p": 3}))
        cmds.append(_cli("constant-hexacube",
                         ["constant", "--dist", poly_path, "--out", out("c-hexacube.json")],
                         seed=_seed(rng), out=out("c-hexacube.json"), role="constant",
                         check={"type": "constant", "c0": c0_polytope(facets), "kinked": True,
                                "p": 6}))
        cmds.append(_cli("sample-hexacube-json",
                         ["sample", "--dist", poly_path, "--n", "200000", "--format", "json",
                          "--out", out("hexacube.json")],
                         seed=_seed(rng), out=out("hexacube.json"), role="sample", items=200_000,
                         check={"type": "sample", "format": "json", "doc": poly, "n": 200_000}))
        setup["docs"] = [ell_path, poly_path]
    else:
        n1 = round(float(rng.uniform(4.5, 5.5)), 3)
        n2 = round(float(rng.uniform(6.5, 7.5)), 3)
        dof = ["--n1", repr(n1), "--n2", repr(n2)]
        for group, p, fmt in (("gl", 2, "csv"), ("lt", 3, "json")):
            label = f"matrix-{group}{p}.{fmt}"
            cmds.append(_cli(f"matrix-{group}-{fmt}",
                             ["matrix", "--group", group, "--p", str(p), "--n", "100000", *dof,
                              "--format", fmt, "--out", out(label)],
                             seed=_seed(rng), out=out(label), role="matrix", items=100_000,
                             check={"type": "matrix", "group": group, "p": p, "n": 100_000,
                                    "n1": n1, "n2": n2, "format": fmt}))
            setup["wishart"].append({"p": p, "n": 100_000, "n1": n1, "n2": n2,
                                     "seed": cmds[-1]["seed"]})
        cmds.append(_cli("verify-matrix",
                         ["verify", "--matrix", "--p", "2", *dof, "--report", out("verify.jsonl")],
                         seed=_seed(rng), out=out("verify.jsonl"), role="verify",
                         check={"type": "verify"}))
        cmds.append({"name": "normaliser", "kind": "script", "role": "normaliser",
                     "args": ["--a", repr(n1 / 2.0), "--b", repr(n2 / 2.0),
                              "--out", out("normaliser.json")],
                     "seed": None, "out": out("normaliser.json"),
                     "check": {"type": "normaliser"}})
    return {"name": name, "seed": seed, "work": work, "commands": cmds, "setup": setup}


def argv(cmd: dict, seed: int | None = None) -> list[str]:
    """Arguments after the program name; ``seed`` overrides the command's own."""
    seed = cmd["seed"] if seed is None else seed
    return cmd["args"] + ([] if seed is None else ["--seed", str(seed)])


def process_argv(cmd: dict, seed: int | None = None) -> list[str]:
    """Full command line of a command run as its own process."""
    if cmd["kind"] == "cli":
        return [sys.executable, "-m", "starshape.cli", *argv(cmd, seed)]
    return [sys.executable, os.path.join(BENCH_DIR, "normaliser.py"), *argv(cmd, seed)]
