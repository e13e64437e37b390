import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats as sstats

import starshape
from starshape import direction_integral, ks_test, SupNormGauge
from starshape import cli
from starshape.cli import _table_chunks, main
from starshape.io import load_schema


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


def test_csv_rows_match_per_value_formatting():
    # Special values, then random bit patterns across a block boundary.
    special = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e22,
               np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 1.7976931348623157e308]
    bits = np.random.default_rng(0).integers(0, 2**64, size=3 * 65_539, dtype=np.uint64)
    rows = np.concatenate([np.array(special), bits.view(np.float64)]).reshape(-1, 3)
    expected = "a,b,c\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
    )
    assert "".join(_table_chunks("csv", ["a", "b", "c"], rows)) == expected
    assert "".join(_table_chunks("csv", ["a", "b", "c"], rows[:0])) == "a,b,c\n"


@pytest.mark.parametrize("n_rows", [0, 1, 2**16 + 1])
def test_json_table_chunks_join_to_one_dump(n_rows):
    rows = np.random.default_rng(1).normal(size=(n_rows, 3))
    expected = json.dumps({"columns": ["a", "b", "c"], "rows": rows.tolist()}) + "\n"
    assert "".join(_table_chunks("json", ["a", "b", "c"], rows)) == expected


def _cpus(monkeypatch, cpus):
    """Make ``cpus`` the available CPUs; return the list the workers' pids go to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_table_text_does_not_depend_on_the_cpu_count(monkeypatch, fmt, n_rows):
    rows = np.random.default_rng(2).normal(size=(n_rows, 3))
    texts, forks = [], []
    for cpus in ({0}, {0, 1}):
        with monkeypatch.context() as patch:
            workers = _cpus(patch, cpus)
            texts.append("".join(_table_chunks(fmt, ["a", "b", "c"], rows)))
        forks.append(len(workers))
    assert texts[0] == texts[1]
    assert forks == [0, int(n_rows > 2**16)]


def test_sample_writes_the_same_bytes_to_stdout_and_to_a_file(monkeypatch, runner, cube_path, tmp_path):
    workers = _cpus(monkeypatch, {0, 1})
    args = ["sample", "--dist", cube_path, "--n", str(2**16 + 1), "--seed", "4"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    out = tmp_path / "draws.csv"
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
    assert out.read_bytes() == res.stdout_bytes
    assert len(workers) == 2


def test_a_failed_worker_fails_the_command_with_one_line(monkeypatch, runner, cube_path):
    parent, block_text = os.getpid(), cli._block_text

    def fails_in_a_worker(fmt, block):
        if os.getpid() != parent:
            raise MemoryError("no room for the text")
        return block_text(fmt, block)

    monkeypatch.setattr(cli, "_block_text", fails_in_a_worker)
    _cpus(monkeypatch, {0, 1})
    res = runner.invoke(main, ["sample", "--dist", cube_path, "--n", str(2**16 + 1)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == "error: a table-formatting worker failed: MemoryError: no room for the text\n"


def test_closing_the_table_early_leaves_no_worker(monkeypatch):
    workers = _cpus(monkeypatch, {0, 1})
    chunks = _table_chunks("csv", ["a", "b", "c"], np.zeros((3 * 2**16 + 5, 3)))
    assert next(chunks) == "a,b,c\n"
    assert len(workers) == 1
    chunks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sample_decompose_columns(runner, cube_path):
    res = runner.invoke(
        main,
        ["sample", "--dist", cube_path, "--n", "100", "--seed", "5", "--decompose"],
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "x1,x2,g,theta"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    g = np.max(np.abs(data[:, :2]), axis=1)
    np.testing.assert_allclose(data[:, 2], g, rtol=1e-15)


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


def test_verify_matrix_mode_p3_checks_the_roots(runner):
    res = runner.invoke(main, ["verify", "--matrix", "--p", "3", "--n", "20000"])
    assert res.exit_code == 0, res.output
    for name in ("root-product-ks", "b-l-independence", "detP-twist-ratio",
                 "degenerate-pair-rejection", "cross-section-isotropy"):
        assert f"PASS {name}" in res.output
    assert "eigenvalue-law-histogram" not in res.output


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
    # Seeded Monte Carlo results depend on the seed, not on STARSHAPE_THREADS.
    g = SupNormGauge(3)
    monkeypatch.delenv("STARSHAPE_THREADS", raising=False)
    a = direction_integral(g, n_mc=40_000, seed=9)
    monkeypatch.setenv("STARSHAPE_THREADS", "4")
    assert direction_integral(g, n_mc=40_000, seed=9) == a
    assert direction_integral(g, n_mc=40_000, seed=10) != a


def _loaded_modules(code: str, modules: tuple[str, ...]) -> list[bool]:
    """Run ``code`` in a fresh interpreter; report which ``modules`` it loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starshape.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code += f"; import json, sys; print(json.dumps([m in sys.modules for m in {modules!r}]))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_does_not_load_scipy_stats():
    modules = ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.spatial")
    assert _loaded_modules("import starshape.cli", modules) == [False] * 4


def test_planar_polytope_distribution_does_not_load_qhull():
    code = (
        "import starshape; starshape.StarDistribution(starshape.PolytopeGauge("
        "[[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]), starshape.GaussianProfile(1.0))"
        ".sample(starshape.rng.stream(0), 1000)"
    )
    assert _loaded_modules(code, ("scipy.spatial",)) == [False]
