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
import os
import shutil
import stat
import sys
import tempfile
from typing import Iterable, Iterator

import click
import numpy as np

from . import rng as _rng
from .direction import direction_constant, direction_densities
from .errors import ConfigError, StarshapeError
from .io import load_distribution
from .matrixmodels import gl_decompose_batch, lt_decompose_batch, wishart_sample
from .starshaped import StarDistribution, length_and_direction, planar_angles
from .stats import independence_chisq
from .verify import matrix_suite, vector_suite

_BLOCK = 1 << 17  # values per serializer call
# How tables spell NaN, +inf and -inf, as %g and json.dumps do.
_NON_FINITE = {"csv": (b"nan", b"inf", b"-inf"), "json": (b"NaN", b"Infinity", b"-Infinity")}
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
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _parse_point(raw: str, dim: int) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in raw.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"--at '{raw}': {exc}") from exc
    if vals.size != dim:
        raise ConfigError(f"--at '{raw}': expected {dim} coordinates")
    return vals


def _write_text(out: str, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks to ``out`` (- for stdout) one at a time.

    Stdout takes the bytes on its binary buffer, after its text layer is
    flushed, or, where it has none (a StringIO), their ASCII text.
    A regular file that this user owns and that has no other hard link (or
    a new path) is written under a temporary name in its directory, with
    the mode ``open(out, "w")`` would leave it, and renamed over it only
    once every chunk is in, so a failed command leaves ``out`` as it was.
    Other targets (/dev/null, a FIFO, /dev/stdout, a file shared by link
    or owner) are written in place, as is a file whose directory refuses
    the temporary file or the rename.
    """
    if out == "-":
        binary = getattr(sys.stdout, "buffer", None)
        sys.stdout.flush()
        for chunk in chunks:
            if binary is None:
                sys.stdout.write(chunk.decode("ascii"))
            else:
                binary.write(chunk)
        sys.stdout.flush()
        return
    try:
        st = os.stat(out)
    except FileNotFoundError:
        st = None
    target = os.path.realpath(out)
    if st is None:
        umask = os.umask(0o22)
        os.umask(umask)
        mode = 0o666 & ~umask
    elif _replaceable(st, target):
        mode = stat.S_IMODE(st.st_mode)
    else:
        _write_in_place(out, chunks)
        return
    head, tail = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{tail}.", suffix=".part", dir=head)
    except OSError:
        _write_in_place(out, chunks)
        return
    renamed = False
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fd, mode)
            fh.writelines(chunks)
        try:
            os.replace(tmp, target)
            renamed = True
        except OSError:
            shutil.copyfile(tmp, out)
    finally:
        if not renamed:
            os.unlink(tmp)


def _replaceable(st: os.stat_result, target: str) -> bool:
    """True when a rename onto ``target`` may stand in for writing the file
    ``st`` in place: a regular file of this user that ``target`` names, with
    no other hard link, and not open as this process's stdout or stderr."""
    if not stat.S_ISREG(st.st_mode) or st.st_nlink != 1 or st.st_uid != os.geteuid():
        return False
    try:
        if not os.path.samestat(st, os.stat(target)):
            return False
    except OSError:
        return False
    for fd in (1, 2):
        try:
            if os.path.samestat(st, os.fstat(fd)):
                return False
        except OSError:
            pass
    return True


def _write_in_place(out: str, chunks: Iterable[bytes]) -> None:
    with open(out, "wb") as fh:
        fh.writelines(chunks)


def _table_chunks(fmt: str, columns: list[str], rows: np.ndarray) -> Iterator[bytes]:
    """A table as a head, the ASCII text of its rows in blocks, and a tail.

    Every float is written as the shortest decimal that parses back to it
    (orjson's numpy serializer), so CSV fields and JSON tokens round-trip
    exactly; JSON rows are separated as ``json.dumps`` separates them.
    Non-finite values are written ``nan``, ``inf``, ``-inf`` in CSV and
    ``NaN``, ``Infinity``, ``-Infinity`` in JSON.  A block holds about
    ``_BLOCK`` values, so its text stays near 3 MB however wide a row is.
    """
    import orjson  # only the commands that write a table load it

    if fmt == "csv":
        head, tail = ",".join(columns) + "\n", b""
    else:
        head, tail = json.dumps({"columns": columns, "rows": []})[:-2], b"]}\n"
    yield head.encode("ascii")
    step = max(1, _BLOCK // rows.shape[1])  # rows per block
    for i in range(0, len(rows), step):
        block = np.ascontiguousarray(rows[i : i + step], dtype=float)
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        if fmt == "csv":
            text = text[2:-2].replace(b"],[", b"\n") + b"\n"
        else:
            if i:
                yield b", "
            text = text[1:-1].replace(b",", b", ")
        # orjson writes NaN and +-inf as null; the block holds only numbers,
        # so its k-th null is its k-th non-finite value in row-major order.
        odd = block[~np.isfinite(block)].tolist()
        if odd:
            nan, inf, minus_inf = _NON_FINITE[fmt]
            parts = text.split(b"null")
            text = parts[0] + b"".join(
                (nan if v != v else inf if v > 0 else minus_inf) + part
                for v, part in zip(odd, parts[1:])
            )
        yield text
    yield tail


def _write_densities(out: str, fmt: str, prefix: str, X: np.ndarray, vals: np.ndarray) -> None:
    """Write points and their density values as JSON records or CSV rows."""
    if fmt == "json":
        records = [{"x": x, "density": v} for x, v in zip(X.tolist(), vals.tolist())]
        _write_text(out, [(json.dumps({"values": records}) + "\n").encode()])
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
    rows, g = dist.sample(_rng.stream(seed, 0), n, lengths=True)
    columns = [f"x{i + 1}" for i in range(gauge.dim)]
    if decompose:
        rows = np.column_stack([rows, g, planar_angles(rows)])
        columns += ["g", "theta"]
    # Only rows is written: the lengths need not stay in memory meanwhile.
    del g
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
    chk = dist.c0_cross_check()
    _write_text(out, [(json.dumps(chk) + "\n").encode()])


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
    g, other = length_and_direction(gauge, dist.sample(_rng.stream(seed, 0), n))
    report = independence_chisq(g, other, 8, 8, alpha=alpha, name="length-direction-independence")
    click.echo(json.dumps(report.to_dict()))
    if report_path:
        _write_text(report_path, [(json.dumps(report.to_dict()) + "\n").encode()])
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
        _write_text(report_path, ((json.dumps(rep.to_dict()) + "\n").encode() for rep in reports))
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
    # Only rows is written: every other array is dropped once it is used.
    if group == "lt":
        T, U = lt_decompose_batch(W1, W2)
        del W1, W2
        tril = [(i, j) for i in range(pdim) for j in range(i + 1)]
        triu = [(i, j) for i in range(pdim) for j in range(i, pdim)]
        columns = [f"t{i + 1}{j + 1}" for i, j in tril] + [f"u{i + 1}{j + 1}" for i, j in triu]
        rows = np.column_stack(
            [T[:, i, j] for i, j in tril] + [U[:, i, j] for i, j in triu]
        )
        del T, U
        dropped = 0
    else:
        B, lam, ok = gl_decompose_batch(W1, W2)
        del W1, W2
        dropped = int(np.sum(~ok))
        if dropped:
            B, lam = B[ok], lam[ok]
        columns = [f"b{i + 1}{j + 1}" for i in range(pdim) for j in range(pdim)]
        columns += [f"l{i + 1}" for i in range(pdim)]
        rows = np.column_stack([B.reshape(len(B), -1), lam])
        del B, lam
    _write_text(out, _table_chunks(fmt, columns, rows))
    click.echo(f"dropped {dropped} degenerate pair(s) of {n}", err=True)


if __name__ == "__main__":
    main()
