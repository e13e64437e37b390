import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading

import jsonschema
import numpy as np
import orjson
import pytest
from click.testing import CliRunner
from hypothesis import Phase, given, settings, strategies as st
from scipy import stats as sstats

import starshape
from starshape import direction_integral, GaussianProfile, ks_test, SupNormGauge
from starshape import cli, direction, starshaped
from starshape.cli import _table_chunks, main
from starshape.io import load_distribution, load_schema


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def ellipse_path(tmp_path):
    doc = {
        "gauge": {"dim": 2, "variant": "elliptical", "params": {"sigma": [[1.0, 0.0], [0.0, 4.0]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def cube_path(tmp_path):
    doc = {
        "gauge": {"dim": 2, "variant": "sup", "params": {}},
        "profile": {"family": "exponential", "params": {"rate": 1.0}},
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sample_is_reproducible(runner, ellipse_path):
    args = ["sample", "--dist", ellipse_path, "--n", "200", "--seed", "7"]
    out1 = runner.invoke(main, args)
    out2 = runner.invoke(main, args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    other = runner.invoke(main, ["sample", "--dist", ellipse_path, "--n", "200", "--seed", "8"])
    assert other.output != out1.output


def test_sample_strategy_option_is_ignored(runner, tmp_path):
    doc = {
        "gauge": {"dim": 2, "variant": "polytope",
                  "params": {"facets": [[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    args = ["sample", "--dist", str(path), "--n", "500", "--seed", "11", "--format", "json"]
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0
    for strategy in ("body", "rejection"):
        assert runner.invoke(main, args + ["--strategy", strategy]).output == plain.output
    assert "--strategy" not in runner.invoke(main, ["sample", "--help"]).output


def test_sample_csv_round_trip_precision(runner, ellipse_path, tmp_path):
    out = tmp_path / "draws.csv"
    res = runner.invoke(
        main, ["sample", "--dist", ellipse_path, "--n", "50", "--seed", "3", "--out", str(out)]
    )
    assert res.exit_code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    text2 = "\n".join(
        ",".join(format(v, ".17g") for v in row) for row in rows
    )
    rows2 = np.loadtxt(text2.splitlines(), delimiter=",")
    np.testing.assert_array_equal(rows, rows2)


# How _table_chunks spells NaN, +inf and -inf in each format.
_SPELLING = {"csv": ("nan", "inf", "-inf"), "json": ("NaN", "Infinity", "-Infinity")}


# Sign, point and exponent of float tokens, then the zeros at either end
# of what is left: the rest of a token is its significant digits.
_NOT_SIGNIFICANT = (re.compile(r"e\S*|[-.]"), re.compile(r"(?<!\S)0+|0+(?!\S)"))


def _significant_digits(tokens: list[str]) -> np.ndarray:
    text = " ".join(tokens)
    for pattern in _NOT_SIGNIFICANT:
        text = pattern.sub("", text)
    return np.array([len(digits) for digits in text.split(" ")]) if tokens else np.zeros(0)


def _check_table_text(fmt: str, rows: np.ndarray, text: str) -> None:
    """The float-text contract of a table: the layout of the format, fields
    that parse back to the exact doubles (NaN positions included), as many
    significant digits as ``repr``, no ``null``, non-finite words.  Every
    assertion compares small values: pytest's report of a failed comparison
    of two large strings or lists would take minutes."""
    assert text.count("null") == 0
    if fmt == "csv":
        head, body = "a,b,c\n", text[len("a,b,c\n"):]
        lines = body.split("\n")
        assert lines.pop() == ""
        tokens = [line.split(",") for line in lines]
        parsed = np.array([float(t) for row in tokens for t in row])
    else:
        head = '{"columns": ["a", "b", "c"], "rows": ['
        body = text[len(head) : -len("]}\n")]
        assert text.endswith("]}\n")
        tokens = [row.split(", ") for row in body[1:-1].split("], [")] if body else []
        obj = json.loads(text)
        assert obj["columns"] == ["a", "b", "c"]
        parsed = np.array(obj["rows"], dtype=float).ravel()
    assert text.startswith(head)
    assert len(tokens) == len(rows) and all(len(row) == 3 for row in tokens)
    values = rows.ravel()
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(parsed), nan)
    assert np.array_equal(parsed[~nan].view(np.uint64), values[~nan].view(np.uint64))
    tokens = [t for row in tokens for t in row]
    finite = np.isfinite(values)
    digits = _significant_digits(tokens), _significant_digits([repr(v) for v in values.tolist()])
    assert np.array_equal(digits[0][finite], digits[1][finite])
    nan_word, inf_word, minus_inf_word = _SPELLING[fmt]
    for i in np.flatnonzero(~finite):
        assert tokens[i] == (nan_word if nan[i] else inf_word if values[i] > 0 else minus_inf_word)


def _table_text(fmt: str, rows: np.ndarray) -> str:
    return "".join(_table_chunks(fmt, ["a", "b", "c"], rows))


def test_csv_rows_match_per_value_formatting():
    # Special values, then random bit patterns across a block boundary.
    special = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e22,
               np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 1.7976931348623157e308]
    bits = np.random.default_rng(0).integers(0, 2**64, size=3 * 65_539, dtype=np.uint64)
    rows = np.concatenate([np.array(special), bits.view(np.float64)]).reshape(-1, 3)
    text = _table_text("csv", rows)
    _check_table_text("csv", rows, text)
    assert text.startswith("a,b,c\n-0.0,0.0,5e-324\n")
    assert _table_text("csv", rows[:0]) == "a,b,c\n"


@pytest.mark.parametrize("n_rows", [0, 1, 2**16 + 1])
def test_json_table_chunks_join_to_one_dump(n_rows):
    rows = np.random.default_rng(1).normal(size=(n_rows, 3))
    text = _table_text("json", rows)
    _check_table_text("json", rows, text)


# -0.0, subnormals, the edges of repr's positional range, the largest
# double and the non-finite values.
_FLOAT_EDGES = [-0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e-5, float(np.nextafter(1e-4, 0.0)),
                1e-4, 1e16, 1.7976931348623157e308, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 2**16, 2**16 + 1])
# No shrinking: the tables are drawn from a seed, and shrinking one of 2^16
# rows would take minutes before a failure is reported.
@settings(derandomize=True, max_examples=2, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), edges=st.lists(st.sampled_from(_FLOAT_EDGES), max_size=40))
def test_table_floats_round_trip_in_shortest_text(fmt, n_rows, seed, edges):
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, 2**64, size=(n_rows, 3), dtype=np.uint64).view(np.float64)
    if rows.size:
        rows.ravel()[gen.integers(0, rows.size, size=len(edges))] = edges
    _check_table_text(fmt, rows, _table_text(fmt, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_table_text_does_not_depend_on_the_cpu_count(monkeypatch, fmt, n_rows):
    # One process formats every block: nothing forks, whatever the CPUs.
    def refuse():
        raise AssertionError("the table writer forked")

    monkeypatch.setattr(os, "fork", refuse)
    rows = np.random.default_rng(2).normal(size=(n_rows, 3))
    texts = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        texts.append(_table_text(fmt, rows))
    same = texts[0] == texts[1]
    assert same


def test_sample_writes_the_same_bytes_to_stdout_and_to_a_file(runner, cube_path, tmp_path):
    args = ["sample", "--dist", cube_path, "--n", str(2**16 + 1), "--seed", "4"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    out = tmp_path / "draws.csv"
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
    assert out.read_bytes() == res.stdout_bytes


def test_a_failed_table_leaves_the_out_file_as_it_was(monkeypatch, runner, cube_path, tmp_path):
    calls, dumps = [], orjson.dumps

    def fails_on_the_second_block(obj, **kwargs):
        calls.append(len(obj))
        if len(calls) % 2 == 0:
            raise MemoryError("no room for the text")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(orjson, "dumps", fails_on_the_second_block)
    old = tmp_path / "old.csv"
    old.write_text("earlier draws\n")
    for out in (old, tmp_path / "new.csv"):
        res = runner.invoke(main, ["sample", "--dist", cube_path, "--n", str(2**16 + 1),
                                   "--out", str(out)])
        assert (res.exit_code, res.stderr) == (1, "error: out of memory: no room for the text\n")
    assert calls == [2**16, 1, 2**16, 1]
    assert sorted(os.listdir(tmp_path)) == ["cube.json", "old.csv"]
    assert old.read_text() == "earlier draws\n"


def test_out_files_get_the_mode_of_a_plain_open(runner, cube_path, tmp_path):
    old = tmp_path / "old.csv"
    old.write_text("")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        for name in ("old.csv", "new.csv"):
            res = runner.invoke(main, ["sample", "--dist", cube_path, "--out", str(tmp_path / name)])
            assert res.exit_code == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["cube.json", "new.csv", "old.csv"]


def test_a_fifo_out_is_written_in_place(runner, cube_path, tmp_path):
    fifo = tmp_path / "draws.fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
    try:
        res = runner.invoke(main, ["sample", "--dist", cube_path, "--n", "5", "--out", str(fifo)])
        text = reader.communicate(timeout=30)[0].decode()
    finally:
        reader.kill()
        reader.wait()
        reader.stdout.close()
    assert res.exit_code == 0
    expected = runner.invoke(main, ["sample", "--dist", cube_path, "--n", "5"]).output
    assert text == expected
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    # /dev/fd/N resolves to a name like "pipe:[N]" that is not a path.
    r, w = os.pipe()
    try:
        res = runner.invoke(main, ["sample", "--dist", cube_path, "--n", "5", "--out", f"/dev/fd/{w}"])
        os.close(w)
        w = None
        with os.fdopen(r, encoding="utf-8") as fh:
            r = None
            text = fh.read()
    finally:
        for fd in (r, w):
            if fd is not None:
                os.close(fd)
    assert res.exit_code == 0
    assert text == expected


def _write_sample(runner, dist, out):
    res = runner.invoke(main, ["sample", "--dist", dist, "--n", "5", "--out", str(out)])
    assert res.exit_code == 0
    return res


def test_a_shared_out_file_is_written_in_place(monkeypatch, runner, cube_path, tmp_path):
    expected = runner.invoke(main, ["sample", "--dist", cube_path, "--n", "5"]).output
    own = tmp_path / "own.csv"
    own.write_text("earlier draws\n")
    ino = own.stat().st_ino
    _write_sample(runner, cube_path, own)
    assert own.read_text() == expected and own.stat().st_ino != ino
    # A hard link keeps sharing the new text.
    linked = tmp_path / "linked.csv"
    os.link(own, linked)
    ino = own.stat().st_ino
    own.write_text("earlier draws\n")
    _write_sample(runner, cube_path, own)
    assert linked.read_text() == expected and own.stat().st_ino == ino
    # A file of another user keeps its owner.
    other = tmp_path / "other.csv"
    other.write_text("earlier draws\n")
    ino, euid = other.stat().st_ino, os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: euid + 1)
    _write_sample(runner, cube_path, other)
    assert other.read_text() == expected and other.stat().st_ino == ino
    assert sorted(os.listdir(tmp_path)) == ["cube.json", "linked.csv", "other.csv", "own.csv"]


@pytest.mark.parametrize("refused", ["mkstemp", "replace"])
def test_a_directory_that_refuses_a_new_name_gets_an_in_place_write(
    monkeypatch, runner, cube_path, tmp_path, refused
):
    expected = runner.invoke(main, ["sample", "--dist", cube_path, "--n", "5"]).output

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile if refused == "mkstemp" else os, refused, refuse)
    out = tmp_path / "draws.csv"
    out.write_text("earlier draws\n")
    out.chmod(0o604)
    ino = out.stat().st_ino
    _write_sample(runner, cube_path, out)
    assert out.read_text() == expected
    assert out.stat().st_ino == ino and stat.S_IMODE(out.stat().st_mode) == 0o604
    assert sorted(os.listdir(tmp_path)) == ["cube.json", "draws.csv"]


def _decompose(runner, path, n, seed):
    res = runner.invoke(main, ["sample", "--dist", path, "--n", str(n), "--seed", str(seed),
                               "--decompose"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "x1,x2,g,theta"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    gauge, profile, _ = load_distribution(path)
    dist = starshaped.StarDistribution(gauge, profile, seed=seed)
    X, drawn = dist.sample(starshape.rng.stream(seed, 0), n, lengths=True)
    assert np.array_equal(data[:, :2], X)
    assert np.array_equal(dist.sample(starshape.rng.stream(seed, 0), n), X)
    return data, drawn


def test_sample_decompose_columns(runner, cube_path, ellipse_path):
    # The g column is the lengths the sampler drew, which equal g(x) up to rounding.
    data, drawn = _decompose(runner, cube_path, 100, 5)
    assert np.array_equal(data[:, 2], drawn)
    g = np.max(np.abs(data[:, :2]), axis=1)
    np.testing.assert_allclose(data[:, 2], g, rtol=1e-15, atol=0.0)
    # On an ellipse the two differ in the last bit for about a third of the draws.
    data, drawn = _decompose(runner, ellipse_path, 100, 5)
    assert np.array_equal(data[:, 2], drawn)


def test_sample_json_schema(runner, ellipse_path):
    res = runner.invoke(
        main, ["sample", "--dist", ellipse_path, "--n", "10", "--seed", "1", "--format", "json"]
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, load_schema("samples.schema.json"))
    assert payload["columns"] == ["x1", "x2"]


def test_invalid_gauge_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "gauge": {"dim": 2, "variant": "sup", "params": {"weird": 1}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }))
    res = runner.invoke(main, ["sample", "--dist", str(bad)])
    assert res.exit_code == 2
    assert "weird" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--dist", "DIST", "--n", "0"],
        ["sample", "--dist", "DIST", "--n", "-3"],
        ["sample", "--dist", "DIST", "--seed", "-1"],
        ["sample", "--dist", "DIST", "--seed", str(2**64)],
        ["matrix", "--group", "lt", "--p", "0"],
        ["matrix", "--group", "lt", "--n", "0"],
        ["verify", "--dist", "DIST", "--n", "100"],
        ["verify", "--matrix", "--n1", "0.5"],
        ["verify", "--matrix", "--alpha", "2"],
        ["density", "--dist", "DIST", "--at", "0,0"],
        ["direction-density", "--dist", "DIST", "--at", "1,1"],
    ],
)
def test_bad_input_exits_2_with_a_message(runner, cube_path, args):
    res = runner.invoke(main, [cube_path if a == "DIST" else a for a in args])
    assert res.exit_code == 2, res.output
    assert "rror" in res.output and "Traceback" not in res.output


def test_constant_on_a_heavy_tail_at_p3_exits_2(runner, tmp_path):
    # The p >= 3 radial route has no finite-variance proposal for heavy tails.
    doc = {
        "gauge": {"dim": 3, "variant": "sup", "params": {}},
        "profile": {"family": "heavytail", "params": {"nu": 3.0}},
    }
    path = tmp_path / "heavy3.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["constant", "--dist", str(path)])
    assert res.exit_code == 2
    assert "heavytail profile at p = 3" in res.output


def test_constant_command_schema_and_values(runner, cube_path):
    res = runner.invoke(main, ["constant", "--dist", cube_path])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, load_schema("constant.schema.json"))
    assert payload["c0_spherical"] == pytest.approx(0.125, abs=1e-8)
    assert payload["rel_discrepancy"] <= 1e-6


def test_density_commands(runner, cube_path):
    res = runner.invoke(main, ["density", "--dist", cube_path, "--at", "0.5,-2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, load_schema("density.schema.json"))
    assert payload["values"][0]["density"] == pytest.approx(np.exp(-2.0) / 8.0, rel=1e-8)

    res2 = runner.invoke(main, ["direction-density", "--dist", cube_path, "--at", "1,0"])
    payload2 = json.loads(res2.output)
    assert payload2["values"][0]["density"] == pytest.approx(0.125, rel=1e-8)


def test_independence_test_command(runner, cube_path, tmp_path):
    report = tmp_path / "rep.jsonl"
    res = runner.invoke(
        main,
        ["independence-test", "--dist", cube_path, "--n", "30000", "--seed", "2",
         "--report", str(report)],
    )
    assert res.exit_code == 0
    line = json.loads(report.read_text().strip())
    jsonschema.validate(line, load_schema("report.schema.json"))
    assert line["passed"] is True


def test_independence_test_detects_a_wrong_assembly(runner, ellipse_path, monkeypatch):
    # Composing x = g * z' without dividing by g(z') ties g(x) to the
    # direction; the statistic is taken on g(x) of the output, so it must fail.
    real = starshaped.direction_sample

    def unscaled(*args, **kwargs):
        draws = real(*args, **kwargs)
        return draws._replace(g=np.ones_like(draws.g))

    monkeypatch.setattr(starshaped, "direction_sample", unscaled)
    res = runner.invoke(main, ["independence-test", "--dist", ellipse_path, "--n", "20000"])
    assert res.exit_code == 1
    assert json.loads(res.output)["passed"] is False


def test_verify_vector_mode(runner, cube_path, tmp_path):
    report = tmp_path / "verify.jsonl"
    res = runner.invoke(
        main,
        ["verify", "--dist", cube_path, "--n", "20000", "--report", str(report)],
    )
    assert res.exit_code == 0, res.output
    assert "PASS c0-twin-route" in res.output
    schema = load_schema("report.schema.json")
    for line in report.read_text().strip().splitlines():
        jsonschema.validate(json.loads(line), schema)


def test_verify_detects_tampered_constant(runner, tmp_path):
    doc = {
        "gauge": {"dim": 2, "variant": "sup", "params": {}},
        "profile": {"family": "exponential", "params": {"rate": 1.0}},
        "c0": 0.2,  # stored constant is wrong on purpose
    }
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", "--dist", str(path), "--n", "20000"])
    assert res.exit_code == 1
    assert "FAIL c0-stored-consistency" in res.output


def test_verify_matrix_mode(runner):
    res = runner.invoke(
        main, ["verify", "--matrix", "--p", "2", "--n1", "5", "--n2", "7", "--n", "20000"]
    )
    assert res.exit_code == 0, res.output
    assert "PASS matrix-beta-histogram" in res.output
    assert "PASS eigenvalue-law-histogram" in res.output


@pytest.mark.parametrize("args, message", [
    (["--n1", "2.5", "--n2", "7"], "n1 = 2.5"),
    (["--n1", "2", "--n2", "2"], "n1 = 2 and n2 = 2"),
    (["--p", "3", "--n1", "5", "--n2", "2.2"], "n2 = 2.2"),
], ids=["n1-2.5", "both-2", "p3-n2-2.2"])
def test_verify_matrix_mode_needs_three_degrees_of_freedom(runner, args, message):
    # Below n = 3 the matrix shapes are unbounded at the edge of their
    # support, and the midpoint histogram references fail a correct sampler.
    res = runner.invoke(main, ["verify", "--matrix", *args])
    assert res.exit_code == 2, res.output
    assert f"error: {message}: the matrix criteria at p >= 2 need n1, n2 >= 3" in res.output


def test_verify_matrix_mode_passes_at_three_degrees_of_freedom(runner):
    res = runner.invoke(
        main, ["verify", "--matrix", "--n1", "3", "--n2", "3", "--n", "20000", "--seed", "1"]
    )
    assert res.exit_code == 0, res.output


def test_verify_matrix_mode_p3_checks_the_roots(runner):
    res = runner.invoke(main, ["verify", "--matrix", "--p", "3", "--n", "20000"])
    assert res.exit_code == 0, res.output
    for name in ("root-product-ks", "b-l-independence", "detP-twist-ratio",
                 "degenerate-pair-rejection", "cross-section-isotropy"):
        assert f"PASS {name}" in res.output
    assert "eigenvalue-law-histogram" not in res.output


@pytest.mark.parametrize("seed", range(1, 6))
def test_verify_matrix_mode_p4_with_roots_near_zero(runner, seed):
    # At a - 3/2 = 0.1 about 1.6% of the pairs have a smallest root that
    # rounds to <= 0 and are dropped; root-product-ks conditions both of its
    # samples on a product above 1e-12, so the dropped pairs bias neither.
    res = runner.invoke(main, ["verify", "--matrix", "--p", "4", "--n1", "3.2", "--n2", "7",
                               "--seed", str(seed)])
    assert res.exit_code == 0, res.output
    assert "PASS root-product-ks" in res.output


def test_matrix_command_lt_bounds_and_scalar_beta(runner):
    res = runner.invoke(
        main,
        ["matrix", "--group", "lt", "--p", "1", "--n1", "5", "--n2", "7",
         "--n", "20000", "--seed", "3"],
    )
    assert res.exit_code == 0
    lines = [l for l in res.output.strip().splitlines() if not l.startswith("dropped")]
    assert lines[0] == "t11,u11"
    u = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all((u > 0) & (u < 1))
    report = ks_test(u, lambda x: sstats.beta.cdf(x, 2.5, 3.5), alpha=0.01)
    assert report.passed, report


def test_matrix_command_gl_ordering(runner):
    res = runner.invoke(
        main,
        ["matrix", "--group", "gl", "--p", "2", "--n1", "5", "--n2", "7",
         "--n", "5000", "--seed", "4"],
    )
    assert res.exit_code == 0
    lines = [l for l in res.output.strip().splitlines() if not l.startswith("dropped")]
    assert lines[0] == "b11,b12,b21,b22,l1,l2"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(data[:, 4] > data[:, 5])
    assert np.all((data[:, 5] > 0) & (data[:, 4] < 1))


def test_matrix_command_lt_p2_u_in_bounds(runner):
    res = runner.invoke(
        main,
        ["matrix", "--group", "lt", "--p", "2", "--n1", "5", "--n2", "7",
         "--n", "5000", "--seed", "5"],
    )
    lines = [l for l in res.output.strip().splitlines() if not l.startswith("dropped")]
    assert lines[0] == "t11,t21,t22,u11,u12,u22"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    u11, u12, u22 = data[:, 3], data[:, 4], data[:, 5]
    # 0 < U < I as eigenvalue bounds for every row
    det = u11 * u22 - u12 ** 2
    det_c = (1 - u11) * (1 - u22) - u12 ** 2
    assert np.all((u11 > 0) & (u11 < 1) & (det > 0) & (det_c > 0))


def test_monte_carlo_depends_on_seed_only(monkeypatch):
    # Both p >= 3 routes to c0 are bit-identical on 1, 2 and 3 cores, below
    # one block and off a block multiple, and no worker thread outlives them.
    g = SupNormGauge(3)
    threads = threading.active_count()
    for n_mc in (40_000, 3 * 2**16 + 5):
        results = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            dist = starshaped.StarDistribution(g, GaussianProfile(1.0), n_mc=n_mc, seed=9)
            results.append((direction_integral(g, n_mc=n_mc, seed=9), dist.c0_radial()))
            assert threading.active_count() == threads
        assert results[1] == results[0] and results[2] == results[0]
        assert direction_integral(g, n_mc=n_mc, seed=10) != results[0][0]


def _env() -> dict:
    """The environment of a fresh interpreter that imports this starshape."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starshape.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def _loaded_modules(code: str, modules: tuple[str, ...]) -> list[bool]:
    """Run ``code`` in a fresh interpreter; report which ``modules`` it loaded."""
    code += f"\nimport json, sys; print('loaded', json.dumps([m in sys.modules for m in {modules!r}]))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    return json.loads(next(l for l in out.stdout.splitlines() if l.startswith("loaded "))[7:])


def test_cli_import_does_not_load_scipy_stats(cube_path, tmp_path):
    modules = ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.spatial", "scipy.special",
               "orjson", "jsonschema", "starshape.special", "concurrent.futures")
    assert _loaded_modules("import starshape.cli", modules) == [False] * 9
    # Only the table writer needs orjson; the document reader checks its
    # fields without jsonschema, a test-only dependency.
    args = ["constant", "--dist", cube_path, "--out", str(tmp_path / "c0.json")]
    code = f"from starshape.cli import main; main({args!r}, standalone_mode=False)"
    assert _loaded_modules(code, ("orjson", "jsonschema")) == [False, False]
    # Nor do planar sampling and the matrix decompositions need scipy.special.
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "gauge": {"dim": 2, "variant": "polytope",
                  "params": {"facets": [[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }))
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps({"gauge": _SUP, "profile": {"family": "heavytail",
                                                            "params": {"nu": 3.0}}}))
    out = str(tmp_path / "out.txt")
    for args in (["sample", "--dist", cube_path, "--n", "1000", "--out", out],
                 ["sample", "--dist", str(poly), "--n", "1000", "--out", out],
                 ["sample", "--dist", str(heavy), "--n", "1000", "--out", out],
                 ["matrix", "--group", "lt", "--p", "3", "--out", out],
                 ["matrix", "--group", "gl", "--p", "2", "--out", out]):
        code = f"from starshape.cli import main; main({args!r}, standalone_mode=False)"
        assert _loaded_modules(code, ("scipy.special", "starshape.special")) == [False] * 2, args
    # The gamma-family functions, the Kolmogorov law and the Gauss-Jacobi
    # rules are the package's own, so neither do planar constants, their
    # verification, p = 2 matrix verification, a p = 3 elliptical constant
    # or the pointwise commands.  One interpreter runs them all in turn.
    ell3 = tmp_path / "ell3.json"
    ell3.write_text(json.dumps({
        "gauge": {"dim": 3, "variant": "elliptical",
                  "params": {"sigma": [[1.0, 0.2, 0.0], [0.2, 2.0, 0.0], [0.0, 0.0, 1.5]]}},
        "profile": {"family": "kotz", "params": {"s": 1.0, "r": 0.5, "t": 2.0}},
    }))
    ellipse = tmp_path / "ellipse.json"
    ellipse.write_text(json.dumps({
        "gauge": {"dim": 2, "variant": "elliptical", "params": {"sigma": [[2.0, 0.3], [0.3, 1.0]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }))
    runs = [["constant", "--dist", path, "--out", out] for path in (cube_path, ellipse, poly, ell3)]
    runs += [["verify", "--dist", str(poly), "--n", "20000", "--report", out],
             ["verify", "--matrix", "--p", "2", "--n", "20000", "--report", out],
             ["density", "--dist", str(ellipse), "--at", "1,2", "--out", out],
             ["direction-density", "--dist", cube_path, "--at", "1,0", "--out", out],
             ["independence-test", "--dist", cube_path, "--n", "4000", "--report", out]]
    # verify and independence-test end in sys.exit, 0 when every check passes.
    code = (f"from starshape.cli import main\nfor args in {[[str(a) for a in r] for r in runs]!r}:\n"
            "    try:\n        main(args, standalone_mode=False)\n"
            "    except SystemExit as exc:\n        assert not exc.code, args")
    assert _loaded_modules(code, ("scipy.special", "scipy.linalg")) == [False, False]


def test_sampling_a_polytope_at_p3_never_computes_c0(monkeypatch, runner, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("sample computed c0")

    monkeypatch.setattr(direction, "direction_constant", refuse)
    monkeypatch.setattr(starshaped, "direction_constant", refuse)
    facets = np.vstack([np.eye(3), -np.eye(3), [[0.6, 0.6, 0.6]]])
    path = tmp_path / "poly3.json"
    path.write_text(json.dumps({
        "gauge": {"dim": 3, "variant": "polytope", "params": {"facets": facets.tolist()}},
        "profile": {"family": "exponential", "params": {"rate": 1.0}},
    }))
    res = runner.invoke(main, ["sample", "--dist", str(path), "--n", "1000", "--seed", "6"])
    assert res.exit_code == 0, res.output
    assert len(res.output.splitlines()) == 1001


_SUP = {"dim": 2, "variant": "sup", "params": {}}
_EXPONENTIAL = {"family": "exponential", "params": {"rate": 1.0}}

# Laws whose constants are not finite: `constant` rejects them with the
# message of the first constant it meets, and `sample`, which uses none of
# them, fails only on draws it cannot represent (None: it writes them).
_REJECTED = {
    "exponential-rate-1e-300": (
        {"gauge": _SUP, "profile": {"family": "exponential", "params": {"rate": 1e-300}}},
        "radial integral evaluated to inf", None),
    "kotz-s500-r1e-3-t0.5": (
        {"gauge": _SUP, "profile": {"family": "kotz", "params": {"s": 500.0, "r": 1e-3, "t": 0.5}}},
        "radial integral evaluated to inf", None),
    # The radial integral is e^706; the length with tail 1e-10 is about e^1125.
    "kotz-s0-r290-t0.0015": (
        {"gauge": _SUP, "profile": {"family": "kotz", "params": {"s": 0.0, "r": 290.0, "t": 0.0015}}},
        "could not cover the radial tail", "length draw outside (0, inf) for kotz"),
    "heavytail-nu-1e-300": (
        {"gauge": _SUP, "profile": {"family": "heavytail", "params": {"nu": 1e-300}}},
        "could not cover the radial tail", "length draw outside (0, inf) for heavytail"),
    "heavytail-nu-1e-3": (
        {"gauge": _SUP, "profile": {"family": "heavytail", "params": {"nu": 1e-3}}},
        "could not cover the radial tail", "length draw outside (0, inf) for heavytail"),
    "ellipse-sigma-1e100-rate-1e-260": (
        {"gauge": {"dim": 2, "variant": "elliptical",
                   "params": {"sigma": [[1e100, 0.0], [0.0, 1e100]]}},
         "profile": {"family": "exponential", "params": {"rate": 1e-260}}},
        "radial integral evaluated to inf", "a draw left the double range"),
}

# Laws whose gauge values leave the double range, which the gauge
# constructors reject as bad input.
_OUT_OF_RANGE = {
    "tabulated-radius-1e-320": (
        {"dim": 2, "variant": "tabulated",
         "params": {"angles": [0.0, 2.0, 4.0], "radii": [1e-320, 1.0, 1.0]}},
        "tabulated radii in [1e-320, 1] put the gauge values out of the double range"),
    "ellipse-sigma-1e305": (
        {"dim": 2, "variant": "elliptical", "params": {"sigma": [[1e305, 0.0], [0.0, 1e305]]}},
        "sigma eigenvalues in [1e+305, 1e+305] put the gauge values out of the double range"),
    "ellipse-sigma-1e308": (
        {"dim": 2, "variant": "elliptical", "params": {"sigma": [[1e308, 0.0], [0.0, 1e308]]}},
        "sigma eigenvalues in [1e+308, 1e+308] put the gauge values out of the double range"),
    "ellipse-sigma-1e-310": (
        {"dim": 2, "variant": "elliptical", "params": {"sigma": [[1e-310, 0.0], [0.0, 1.0]]}},
        "sigma eigenvalues in [1e-310, 1] put sigma's inverse out of the double range"),
}


def _run_cli(tmp_path, doc, *args) -> subprocess.CompletedProcess:
    """Run a command on ``doc`` in a fresh interpreter that turns every
    RuntimeWarning into an error."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "starshape.cli",
         args[0], "--dist", str(path), *args[1:]],
        env=_env(), capture_output=True, text=True,
    )


def _expected_failure(label, command):
    """(document, exit code, message) of a _REJECTED or _OUT_OF_RANGE law."""
    if label in _OUT_OF_RANGE:
        gauge, message = _OUT_OF_RANGE[label]
        return {"gauge": gauge, "profile": _EXPONENTIAL}, 2, message
    doc, constant_message, sample_message = _REJECTED[label]
    return doc, 1, constant_message if command == "constant" else sample_message


@pytest.mark.parametrize("label", sorted(_REJECTED) + sorted(_OUT_OF_RANGE))
def test_constant_rejects_laws_it_cannot_normalise(tmp_path, label):
    doc, code, message = _expected_failure(label, "constant")
    res = _run_cli(tmp_path, doc, "constant")
    assert (res.returncode, res.stdout, res.stderr) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("label", sorted(_REJECTED) + sorted(_OUT_OF_RANGE))
def test_sample_fails_only_on_draws_it_cannot_represent(tmp_path, label):
    doc, code, message = _expected_failure(label, "sample")
    res = _run_cli(tmp_path, doc, "sample", "--n", "10")
    if message is None:
        assert (res.returncode, res.stderr) == (0, "")
        rows = np.loadtxt(res.stdout.splitlines()[1:], delimiter=",")
        assert rows.shape == (10, 2) and np.all(np.isfinite(rows))
        assert np.all(np.any(rows != 0.0, axis=1))
    else:
        assert (res.returncode, res.stdout, res.stderr) == (code, "", f"error: {message}\n")


def test_sample_draws_from_a_cube_whose_volume_underflows(tmp_path):
    # Facets +-1e200 e_i at p = 3: K's cone volumes (~1e-600) and the squared
    # norms of its points are below the double range unless scaled first.
    facets = 1e200 * np.vstack([np.eye(3), -np.eye(3)])
    doc = {"gauge": {"dim": 3, "variant": "polytope", "params": {"facets": facets.tolist()}},
           "profile": _EXPONENTIAL}
    res = _run_cli(tmp_path, doc, "sample", "--n", "10")
    assert (res.returncode, res.stderr) == (0, "")
    rows = np.loadtxt(res.stdout.splitlines()[1:], delimiter=",")
    assert rows.shape == (10, 3) and np.all(np.isfinite(rows) & (np.abs(rows) < 1e-190))


def _tabulated(angles, radii):
    return {"dim": 2, "variant": "tabulated", "params": {"angles": angles, "radii": radii}}


def _with_rate(rate):
    return {"gauge": _SUP, "profile": {"family": "exponential", "params": {"rate": rate}}}


# Documents that break the value rules of the format (json.dumps writes
# NaN and Infinity, as Python's json reads them), with the one error line
# each exits 2 with; None marks a document that runs.
_MALFORMED = {
    "tabulated-angle-nan": ({"gauge": _tabulated([0.0, 1.0, np.nan], [1.0, 1.0, 1.0]),
                             "profile": _EXPONENTIAL},
                            "gauge.params.angles: expected a finite number, got nan"),
    "tabulated-radius-nan": ({"gauge": _tabulated([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
                              "profile": _EXPONENTIAL},
                             "gauge.params.radii: expected a finite number, got nan"),
    "sigma-strings": ({"gauge": {"dim": 2, "variant": "elliptical",
                                 "params": {"sigma": [["1", "0"], ["0", "1"]]}},
                       "profile": _EXPONENTIAL},
                      "gauge.params.sigma: expected a finite number, got '1'"),
    "sigma-infinity": ({"gauge": {"dim": 2, "variant": "elliptical",
                                  "params": {"sigma": [[np.inf, 0.0], [0.0, 1.0]]}},
                        "profile": _EXPONENTIAL},
                       "gauge.params.sigma: expected a finite number, got inf"),
    "gaussian-scale-infinity": ({"gauge": _SUP,
                                 "profile": {"family": "gaussian", "params": {"scale": np.inf}}},
                                "profile.params.scale: expected a finite number, got inf"),
    **{f"gaussian-scale-{scale:g}": (
        {"gauge": _SUP, "profile": {"family": "gaussian", "params": {"scale": scale}}},
        f"profile.params: gaussian scale {scale:g} is outside [1e-154, 1e154], "
        "where its rate 1/(2 scale^2) is a finite, positive double",
    ) for scale in (1e200, 1e-162, 1e-200)},
    **{f"gaussian-scale-{scale:g}": (
        {"gauge": _SUP, "profile": {"family": "gaussian", "params": {"scale": scale}}}, None,
    ) for scale in (1e150, 1e-150)},
    "rate-nan": (_with_rate(np.nan), "profile.params.rate: expected a finite number, got nan"),
    "rate-true": (_with_rate(True), "profile.params.rate: expected a finite number, got True"),
    "rate-int-1e400": (_with_rate(10**400),
                       f"profile.params.rate: expected a finite number, got {10**400}"),
    "c0-true": ({"gauge": _SUP, "profile": _EXPONENTIAL, "c0": True},
                "distribution.c0: expected a finite number, got True"),
    "dim-string": ({"gauge": {**_SUP, "dim": "2"}, "profile": _EXPONENTIAL},
                   "gauge.dim: expected an integer >= 1, got '2'"),
    "dim-true": ({"gauge": {**_SUP, "dim": True}, "profile": _EXPONENTIAL},
                 "gauge.dim: expected an integer >= 1, got True"),
    "variant-array": ({"gauge": {**_SUP, "variant": []}, "profile": _EXPONENTIAL},
                      "gauge.variant: unknown variant '[]'"),
    "dim-2.0": ({"gauge": {**_SUP, "dim": 2.0}, "profile": _EXPONENTIAL}, None),
}


@pytest.mark.parametrize("label", sorted(_MALFORMED))
def test_malformed_documents_exit_2_naming_the_field(tmp_path, label):
    doc, message = _MALFORMED[label]
    res = _run_cli(tmp_path, doc, "constant")
    if message is None:
        assert (res.returncode, res.stderr) == (0, "")
    else:
        assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("gauge", [{"dim": 3, "variant": "sup", "params": {}},
                                   _tabulated([0.0, 2.0, 4.0], [1.0, 1.5, 0.8])],
                         ids=["sup-p3", "tabulated"])
def test_independence_test_takes_draws_whose_squares_overflow(tmp_path, gauge):
    # Draws reach ~1e300, so neither the lengths nor the directions may
    # square a coordinate.
    doc = {"gauge": gauge, "profile": {"family": "exponential", "params": {"rate": 1e-300}}}
    res = _run_cli(tmp_path, doc, "independence-test", "--n", "4000")
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout)["passed"] is True


def _log_uniform(lo: float, hi: float):
    """10^e for e in [lo, hi]; Hypothesis favours the ends of the interval."""
    return st.floats(0.0, 1.0).map(lambda u: 10.0 ** (lo + (hi - lo) * u))


_PROFILES = st.one_of(
    st.builds(lambda rate: {"family": "exponential", "params": {"rate": rate}},
              _log_uniform(-300, 300)),
    st.builds(lambda s, r, t: {"family": "kotz", "params": {"s": s, "r": r, "t": t}},
              st.floats(0.0, 1e3), _log_uniform(-300, 300), _log_uniform(-2, 2)),
    st.builds(lambda nu: {"family": "heavytail", "params": {"nu": nu}}, _log_uniform(-300, 3)),
)
_GAUGES = st.one_of(
    st.sampled_from([_SUP, {"dim": 3, "variant": "sup", "params": {}}]),
    st.builds(
        lambda p, c: {"dim": p, "variant": "elliptical",
                      "params": {"sigma": (c * np.diag(np.arange(1.0, p + 1.0))).tolist()}},
        st.sampled_from([2, 3]), _log_uniform(-100, 99),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gauge=_GAUGES, profile=_PROFILES)
def test_sample_writes_representable_rows_or_one_error_line(gauge, profile):
    # RuntimeWarnings are errors in this suite, so a warning would end the
    # command with an exception rather than an error line.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump({"gauge": gauge, "profile": profile}, fh)
        res = CliRunner().invoke(main, ["sample", "--dist", path, "--n", "50"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 0:
        rows = np.loadtxt(res.stdout.splitlines()[1:], delimiter=",")
        assert rows.shape == (50, gauge["dim"]) and np.all(np.isfinite(rows))
        assert np.all(np.any(rows != 0.0, axis=1))
    else:
        assert res.exit_code == 1 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_planar_polytope_distribution_does_not_load_qhull():
    code = (
        "import starshape; starshape.StarDistribution(starshape.PolytopeGauge("
        "[[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]), starshape.GaussianProfile(1.0))"
        ".sample(starshape.rng.stream(0), 1000)"
    )
    assert _loaded_modules(code, ("scipy.spatial",)) == [False]


# Planar laws whose sphere integral the Simpson rule cannot resolve.
_UNRESOLVED = {
    "ellipse-1e8": {"dim": 2, "variant": "elliptical",
                    "params": {"sigma": [[1.0, 0.0], [0.0, 1e8]]}},
    "rectangle-1e4": {"dim": 2, "variant": "polytope",
                      "params": {"facets": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1e4], [0.0, -1e4]]}},
}


@pytest.mark.parametrize("label", sorted(_UNRESOLVED))
@pytest.mark.parametrize("args", [["constant"], ["direction-density", "--at", "1,0"]],
                         ids=["constant", "direction-density"])
def test_an_unresolved_planar_sphere_integral_exits_1(tmp_path, label, args):
    res = _run_cli(tmp_path, {"gauge": _UNRESOLVED[label], "profile": _EXPONENTIAL}, *args)
    assert (res.returncode, res.stdout) == (1, "")
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: sphere integral error ")


def test_the_benchmark_tracer_installs_on_the_package(tmp_path):
    # bench/run.py --trace wraps the package's functions by name; a renamed
    # or deleted one would crash the traced benchmark.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    doc = tmp_path / "pentagon.json"
    doc.write_text(json.dumps({
        "gauge": {"dim": 2, "variant": "polytope",
                  "params": {"facets": [[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [-0.4, -0.7],
                                        [0.9, 0.9]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }))
    commands = [["sample", "--dist", str(doc), "--n", "1000", "--out", str(tmp_path / "x.csv")],
                ["constant", "--dist", str(doc), "--out", str(tmp_path / "c0.json")]]
    code = (
        f"import json, sys; sys.path.insert(0, {bench!r}); import child\n"
        "from starshape.cli import main\n"
        "tracer = child.Tracer(); child.install(tracer)\n"
        f"for args in {commands!r}: main(args, standalone_mode=False)\n"
        "print('spans', json.dumps(sorted({s[0] for s in tracer.spans})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True)
    spans = json.loads(next(l for l in out.stdout.splitlines() if l.startswith("spans "))[6:])
    for name in ("direction.direction_sample", "radial.RadialTable.sample", "starshaped.sample"):
        assert name in spans
