import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats as sstats

import starshape
from starshape import direction_integral, ks_test, SupNormGauge
from starshape import cli, direction, starshaped
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
    _assert_same_text("".join(_table_chunks("csv", ["a", "b", "c"], rows)), expected)
    assert "".join(_table_chunks("csv", ["a", "b", "c"], rows[:0])) == "a,b,c\n"


def _assert_same_text(text: str, expected: str) -> None:
    """text == expected, reported as a length and the first differing
    offset: a diff of two multi-megabyte strings takes pytest minutes."""
    assert len(text) == len(expected)
    if text != expected:
        first = next(i for i, (a, b) in enumerate(zip(text, expected)) if a != b)
        pytest.fail(f"texts differ from offset {first}: "
                    f"{text[first : first + 80]!r} != {expected[first : first + 80]!r}")


@pytest.mark.parametrize("n_rows", [0, 1, 2**16 + 1])
def test_json_table_chunks_join_to_one_dump(n_rows):
    rows = np.random.default_rng(1).normal(size=(n_rows, 3))
    expected = json.dumps({"columns": ["a", "b", "c"], "rows": rows.tolist()}) + "\n"
    _assert_same_text("".join(_table_chunks("json", ["a", "b", "c"], rows)), expected)


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
    _assert_same_text(texts[0], texts[1])
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


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; an exited process that nobody reaped does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_worker_leaves_when_its_parent_is_killed():
    # The parent streams the head of a table in 400 one-row blocks, reports
    # its worker and sleeps; the worker's 200 blocks, at 0.1 s each, would
    # keep it alive for another 20 s.
    code = (
        "import os, time, numpy as np\n"
        "from starshape import cli\n"
        "cli._BLOCK = 1\n"
        "text = cli._block_text\n"
        "cli._block_text = lambda fmt, block: time.sleep(0.1) or text(fmt, block)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, pids = os.fork, []\n"
        "os.fork = lambda: pids.append(fork()) or pids[-1]\n"
        "chunks = cli._table_chunks('csv', ['a'], np.zeros((400, 1)))\n"
        "next(chunks)\n"
        "print(*pids, flush=True)\n"
        "time.sleep(60)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", code], env=_env(), stdout=subprocess.PIPE, text=True)
    worker = None
    try:
        (worker,) = map(int, parent.stdout.readline().split())
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 3.0
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker)
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)


def test_a_failed_table_leaves_the_out_file_as_it_was(monkeypatch, runner, cube_path, tmp_path):
    parent, block_text = os.getpid(), cli._block_text

    def fails_in_a_worker(fmt, block):
        if os.getpid() != parent:
            raise MemoryError("no room for the text")
        return block_text(fmt, block)

    monkeypatch.setattr(cli, "_block_text", fails_in_a_worker)
    _cpus(monkeypatch, {0, 1})
    old = tmp_path / "old.csv"
    old.write_text("earlier draws\n")
    for out in (old, tmp_path / "new.csv"):
        res = runner.invoke(main, ["sample", "--dist", cube_path, "--n", str(2**16 + 1),
                                   "--out", str(out)])
        assert res.exit_code == 1 and "worker failed" in res.stderr
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


def _env() -> dict:
    """The environment of a fresh interpreter that imports this starshape."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starshape.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def _loaded_modules(code: str, modules: tuple[str, ...]) -> list[bool]:
    """Run ``code`` in a fresh interpreter; report which ``modules`` it loaded."""
    code += f"; import json, sys; print(json.dumps([m in sys.modules for m in {modules!r}]))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_does_not_load_scipy_stats(cube_path, tmp_path):
    modules = ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.spatial", "scipy.special")
    assert _loaded_modules("import starshape.cli", modules) == [False] * 5
    # Nor do planar sampling and the matrix decompositions need scipy.special.
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "gauge": {"dim": 2, "variant": "polytope",
                  "params": {"facets": [[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]}},
        "profile": {"family": "gaussian", "params": {"scale": 1.0}},
    }))
    out = str(tmp_path / "out.txt")
    for args in (["sample", "--dist", cube_path, "--n", "1000", "--out", out],
                 ["sample", "--dist", str(poly), "--n", "1000", "--out", out],
                 ["matrix", "--group", "lt", "--p", "3", "--out", out],
                 ["matrix", "--group", "gl", "--p", "2", "--out", out]):
        code = f"from starshape.cli import main; main({args!r}, standalone_mode=False)"
        assert _loaded_modules(code, ("scipy.special",)) == [False], args


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

# Laws that a full build rejected; a lazy one must reject them alike.
_REJECTED = {
    "exponential-rate-1e-300": (
        {"gauge": _SUP, "profile": {"family": "exponential", "params": {"rate": 1e-300}}},
        "radial integral evaluated to inf"),
    "kotz-s500-r1e-3-t0.5": (
        {"gauge": _SUP, "profile": {"family": "kotz", "params": {"s": 500.0, "r": 1e-3, "t": 0.5}}},
        "radial integral evaluated to inf"),
    "heavytail-nu-1e-300": (
        {"gauge": _SUP, "profile": {"family": "heavytail", "params": {"nu": 1e-300}}},
        "could not cover the radial tail"),
    "heavytail-nu-1e-3": (
        {"gauge": _SUP, "profile": {"family": "heavytail", "params": {"nu": 1e-3}}},
        "could not cover the radial tail"),
    "ellipse-sigma-1e-310": (
        {"gauge": {"dim": 2, "variant": "elliptical",
                   "params": {"sigma": [[1e-310, 0.0], [0.0, 1.0]]}},
         "profile": {"family": "exponential", "params": {"rate": 1.0}}},
        "sphere integral evaluated to nan"),
}


@pytest.mark.parametrize("label", sorted(_REJECTED))
def test_sample_rejects_every_law_a_full_build_rejects(tmp_path, label):
    doc, message = _REJECTED[label]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "starshape.cli",
         "sample", "--dist", str(path), "--n", "10"],
        env=_env(), capture_output=True, text=True,
    )
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


def test_planar_polytope_distribution_does_not_load_qhull():
    code = (
        "import starshape; starshape.StarDistribution(starshape.PolytopeGauge("
        "[[1.0, 0.2], [-0.8, 0.6], [0.1, -1.1], [0.9, 0.9]]), starshape.GaussianProfile(1.0))"
        ".sample(starshape.rng.stream(0), 1000)"
    )
    assert _loaded_modules(code, ("scipy.spatial",)) == [False]
