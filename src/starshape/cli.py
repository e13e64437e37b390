"""Command-line front door.

Commands: sample | density | constant | direction-density | verify |
independence-test | matrix.  All randomness is keyed by --seed through
counter-based streams, so a command line is reproducible byte for byte
(including Monte Carlo standard errors) from its seed alone.
Exit codes: 0 success, 1 failed verification or numerical failure, 2 bad
input (an option out of range, or a StarshapeError that is a ValueError).
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Iterable, Iterator

import click
import numpy as np

from . import rng as _rng
from .direction import direction_constant, direction_densities
from .errors import ConfigError, StarshapeError
from .io import load_distribution
from .matrixmodels import gl_decompose_batch, lt_decompose_batch, wishart_sample
from .starshaped import StarDistribution, planar_angles
from .stats import independence_chisq
from .verify import matrix_suite, vector_suite

_BLOCK = 1 << 16  # rows per string-formatting call
_COUNT = click.IntRange(min=1)
_SEED = click.IntRange(0, 2**64 - 1)
_ALPHA = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)


def _guard(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except StarshapeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, ValueError) else 1)

    return wrapper


def _parse_point(raw: str, dim: int) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in raw.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"--at '{raw}': {exc}") from exc
    if vals.size != dim:
        raise ConfigError(f"--at '{raw}': expected {dim} coordinates")
    return vals


def _write_text(out: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to ``out`` (- for stdout) one at a time."""
    if out == "-":
        for chunk in chunks:
            click.echo(chunk, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _table_chunks(fmt: str, columns: list[str], rows: np.ndarray) -> Iterator[str]:
    """A table as a head, one chunk per block of rows, and a tail.

    CSV "%.17g" round-trips doubles; the JSON chunks join to the text of
    ``json.dumps({"columns": columns, "rows": rows.tolist()})`` and a newline.
    """
    blocks = (rows[i : i + _BLOCK] for i in range(0, len(rows), _BLOCK))
    if fmt == "csv":
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        yield ",".join(columns) + "\n"
        for block in blocks:
            yield row * len(block) % tuple(block.ravel().tolist())
        return
    yield json.dumps({"columns": columns, "rows": []})[:-2]
    for i, block in enumerate(blocks):
        yield (", " if i else "") + json.dumps(block.tolist())[1:-1]
    yield "]}\n"


def _write_densities(out: str, fmt: str, prefix: str, X: np.ndarray, vals: np.ndarray) -> None:
    """Write points and their density values as JSON records or CSV rows."""
    if fmt == "json":
        records = [{"x": x, "density": v} for x, v in zip(X.tolist(), vals.tolist())]
        _write_text(out, [json.dumps({"values": records}) + "\n"])
    else:
        columns = [f"{prefix}{i + 1}" for i in range(X.shape[1])] + ["density"]
        _write_text(out, _table_chunks("csv", columns, np.column_stack([X, vals])))


@click.group()
@click.version_option()
def main() -> None:
    """Star-shaped distributions and matrix-pair models."""


@main.command()
@click.option("--dist", "dist_path", required=True, type=click.Path(), help="distribution JSON file")
@click.option("--n", default=1000, type=_COUNT, show_default=True, help="number of draws")
@click.option("--seed", default=0, type=_SEED, show_default=True, help="random seed (uint64)")
@click.option("--out", default="-", show_default=True, help="output file, - for stdout")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
# --strategy is deprecated and ignored (one sampler); it stays while the benchmark passes it.
@click.option("--strategy", type=click.Choice(["rejection", "body"]), hidden=True, expose_value=False)
@click.option("--decompose", is_flag=True, help="append length/angle columns g,theta (p=2)")
@_guard
def sample(dist_path, n, seed, out, fmt, decompose):
    """Draw n points from a star-shaped distribution."""
    gauge, profile, _ = load_distribution(dist_path)
    if decompose and gauge.dim != 2:
        raise ConfigError("--decompose emits g,theta and needs a planar distribution")
    dist = StarDistribution(gauge, profile, seed=seed)
    X = dist.sample(_rng.stream(seed, 0), n)
    columns = [f"x{i + 1}" for i in range(gauge.dim)]
    if decompose:
        g = gauge.values(X)
        rows = np.column_stack([X, g, planar_angles(X)])
        columns += ["g", "theta"]
    else:
        rows = X
    _write_text(out, _table_chunks(fmt, columns, rows))


@main.command()
@click.option("--dist", "dist_path", required=True, type=click.Path())
@click.option("--at", "points", multiple=True, required=True, help="point 'x1,x2,...' (repeatable)")
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@_guard
def density(dist_path, points, out, fmt, seed):
    """Evaluate the density at given points."""
    gauge, profile, _ = load_distribution(dist_path)
    dist = StarDistribution(gauge, profile, seed=seed)
    X = np.array([_parse_point(raw, gauge.dim) for raw in points])
    _write_densities(out, fmt, "x", X, dist.densities(X))


@main.command("direction-density")
@click.option("--dist", "dist_path", required=True, type=click.Path())
@click.option("--at", "points", multiple=True, required=True, help="unit vector 'z1,z2,...' (repeatable)")
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@_guard
def direction_density_cmd(dist_path, points, out, fmt, seed):
    """Evaluate the direction density at unit vectors."""
    gauge, _, _ = load_distribution(dist_path)
    c0 = direction_constant(gauge, seed=seed).c0
    Z = np.array([_parse_point(raw, gauge.dim) for raw in points])
    _write_densities(out, fmt, "z", Z, direction_densities(gauge, c0, Z))


@main.command()
@click.option("--dist", "dist_path", required=True, type=click.Path())
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--out", default="-", show_default=True)
@_guard
def constant(dist_path, seed, out):
    """Print the normalizing constant by both routes, with discrepancy."""
    gauge, profile, _ = load_distribution(dist_path)
    dist = StarDistribution(gauge, profile, seed=seed)
    chk = dist.c0_cross_check(seed=seed)
    _write_text(out, [json.dumps(chk) + "\n"])


@main.command("independence-test")
@click.option("--dist", "dist_path", required=True, type=click.Path())
@click.option("--n", default=40_000, type=_COUNT, show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--alpha", default=0.001, type=_ALPHA, show_default=True)
@click.option("--report", "report_path", default=None, type=click.Path())
@_guard
def independence_test(dist_path, n, seed, alpha, report_path):
    """Chi-square independence of length and direction on fresh draws."""
    gauge, profile, _ = load_distribution(dist_path)
    dist = StarDistribution(gauge, profile, seed=seed)
    X = dist.sample(_rng.stream(seed, 0), n)
    g = gauge.values(X)
    other = planar_angles(X) if gauge.dim == 2 else X[:, 0] / np.linalg.norm(X, axis=1)
    report = independence_chisq(g, other, 8, 8, alpha=alpha, name="length-direction-independence")
    click.echo(json.dumps(report.to_dict()))
    if report_path:
        _write_text(report_path, [json.dumps(report.to_dict()) + "\n"])
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--dist", "dist_path", default=None, type=click.Path(), help="vector-mode fixture")
@click.option("--matrix", "matrix_mode", is_flag=True, help="matrix-pair mode")
@click.option("--p", "pdim", default=2, type=_COUNT, show_default=True)
@click.option("--n1", default=5.0, show_default=True)
@click.option("--n2", default=7.0, show_default=True)
@click.option("--n", default=30_000, type=_COUNT, show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--alpha", default=0.001, type=_ALPHA, show_default=True)
@click.option("--report", "report_path", default=None, type=click.Path())
@_guard
def verify(dist_path, matrix_mode, pdim, n1, n2, n, seed, alpha, report_path):
    """Run the built-in verification suite; exit 0 iff every criterion passes."""
    if matrix_mode == (dist_path is not None):
        raise ConfigError("choose exactly one of --dist FILE or --matrix")
    if matrix_mode:
        reports = matrix_suite(pdim, n1, n2, n, seed, alpha)
    else:
        gauge, profile, stored = load_distribution(dist_path)
        reports = vector_suite(gauge, profile, stored, n, seed, alpha)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        click.echo(f"{status} {rep.name} (statistic={rep.statistic:.6g}, p={rep.p_value:.4g})")
    if report_path:
        _write_text(report_path, (json.dumps(rep.to_dict()) + "\n" for rep in reports))
    sys.exit(0 if all(r.passed for r in reports) else 1)


@main.command()
@click.option("--group", type=click.Choice(["lt", "gl"]), required=True)
@click.option("--p", "pdim", default=2, type=_COUNT, show_default=True)
@click.option("--n1", default=5.0, show_default=True)
@click.option("--n2", default=7.0, show_default=True)
@click.option("--n", default=1000, type=_COUNT, show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_guard
def matrix(group, pdim, n1, n2, n, seed, out, fmt):
    """Sample Wishart pairs and dump their decompositions as CSV."""
    gen = _rng.stream(seed, 0)
    W1 = wishart_sample(pdim, n1, gen, n)
    W2 = wishart_sample(pdim, n2, gen, n)
    if group == "lt":
        T, U = lt_decompose_batch(W1, W2)
        tril = [(i, j) for i in range(pdim) for j in range(i + 1)]
        triu = [(i, j) for i in range(pdim) for j in range(i, pdim)]
        columns = [f"t{i + 1}{j + 1}" for i, j in tril] + [f"u{i + 1}{j + 1}" for i, j in triu]
        rows = np.column_stack(
            [T[:, i, j] for i, j in tril] + [U[:, i, j] for i, j in triu]
        )
        dropped = 0
    else:
        B, lam, ok = gl_decompose_batch(W1, W2)
        dropped = int(np.sum(~ok))
        B, lam = B[ok], lam[ok]
        columns = [f"b{i + 1}{j + 1}" for i in range(pdim) for j in range(pdim)]
        columns += [f"l{i + 1}" for i in range(pdim)]
        rows = np.column_stack([B.reshape(len(B), -1), lam])
    _write_text(out, _table_chunks(fmt, columns, rows))
    click.echo(f"dropped {dropped} degenerate pair(s) of {n}", err=True)


if __name__ == "__main__":
    main()
