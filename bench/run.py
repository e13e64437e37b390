"""The starshape benchmark: seeded CLI workloads, checked outputs, timings.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is taken from ./src.

--trace 0 runs the workload's commands as real ``python3 -m starshape.cli``
processes in a closed loop (one client, one command at a time) and reports
the end-to-end metrics of BENCHMARK.json: set-up time (median of several
fresh set-up processes), wall time per pass over the commands (median over
the passes that fit in --seconds) and the highest per-process peak RSS.

--trace 1 runs the same commands in process twice, each time in a fresh
interpreter: first plain, then with a span around every call into the
package's public functions.  It reports the per-layer metrics of
BENCHMARK.json and the tracing overhead (the difference of the two).

Every output is checked outside the timed window (see checks.py).  The last
line of standard output is the result object the metrics are read from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 25.0  # time kept back for the output checks and retries
LAYERS = ("cli", "io", "gauge", "radial", "direction", "starshaped", "stats", "verify",
          "matrixmodels", "bench")


class Launcher:
    """The small process that starts every measured process (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        """Stop the launcher; a child it is still waiting for is killed."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()


class Runner:
    """Runs measured processes through the launcher until a deadline."""

    def __init__(self, seconds: float, launcher: Launcher):
        self.deadline = time.perf_counter() + seconds
        self.launcher = launcher

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str], stdout_path: str, stderr_path: str) -> dict:
        """Wall time from start to exit, the process's own peak RSS and its exit code."""
        timeout = self.left()
        if timeout <= 0:
            return {"wall_s": 0.0, "rss_mb": 0.0, "exit_code": -1,
                    "stderr": "not started: no time left"}
        rec = self.launcher.run({"argv": argv, "stdout": stdout_path, "stderr": stderr_path,
                                 "env": child_env(), "cwd": ROOT, "timeout": timeout})
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            rec["stderr"] = fh.read()
        return rec


# -- processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Measure the program's own default worker/shard count as it ships.
    env.pop("STARSHAPE_THREADS", None)
    return env


def _paths(spec: dict, cmd: dict) -> tuple[str, str]:
    base = os.path.join(spec["work"], cmd["name"])
    return base + ".stdout", base + ".stderr"


def run_command(spec: dict, cmd: dict, runner: Runner, seed: int | None = None) -> dict:
    return runner.run(workloads.process_argv(cmd, seed), *_paths(spec, cmd))


def alternate_seed(seed: int | None) -> int | None:
    return None if seed is None else (seed + 1_000_003) % (2**31 - 1)


def verdict_for(spec: dict, cmd: dict, rec: dict, runner: Runner) -> dict:
    """Check one command's output; repeat a statistical failure once on another seed.

    Under a correct program a statistical check fails with probability about
    its level (1e-3 for the benchmark's own tests, up to 1e-2 inside
    `verify`); requiring two independent failures keeps false alarms rare
    over many runs.  A deterministic failure counts at once.
    """
    v = checks.check_output(cmd, cmd["seed"], rec["stderr"])
    if rec["exit_code"] != 0 and (v.ok or cmd["check"]["type"] != "verify"):
        v = checks.Verdict(False, False, f"exit code {rec['exit_code']}: {rec['stderr'][-300:]}")
    out = {"ok": v.ok, "message": v.message}
    if not v.ok and v.statistical:
        seed = alternate_seed(cmd["seed"])
        again = run_command(spec, cmd, runner, seed)
        v2 = checks.check_output(cmd, seed, again["stderr"])
        if again["exit_code"] != 0 and v2.ok:
            v2 = checks.Verdict(False, False, f"exit code {again['exit_code']}")
        out = {"ok": v2.ok, "message": f"{v.message}; repeated on seed {seed}: "
                                       f"{'passed' if v2.ok else v2.message}"}
    return out


def file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError:
        return None


# -- untraced (end-to-end) run --------------------------------------------------------


def write_spec(spec: dict) -> str:
    path = os.path.join(spec["work"], "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def timed_run(spec: dict, seconds: float, runner: Runner) -> dict:
    spec_path = write_spec(spec)
    attempted = failed = 0
    notes = []

    setups = []
    for i in range(SETUP_RUNS):
        res_path = os.path.join(spec["work"], f"setup-{i}.json")
        rec = runner.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), "setup",
                          spec_path, res_path], res_path + ".out", res_path + ".err")
        attempted += 1
        if rec["exit_code"] != 0:
            failed += 1
            notes.append(f"set-up process {i} exited {rec['exit_code']}: {rec['stderr'][-300:]}")
            continue
        with open(res_path, encoding="utf-8") as fh:
            setups.append({"wall_s": rec["wall_s"], **json.load(fh)})

    cmds = spec["commands"]
    passes: list[list[dict]] = []
    digests: dict[str, str | None] = {}
    measured = 0.0
    while True:
        records = []
        for cmd in cmds:
            rec = run_command(spec, cmd, runner)
            records.append(rec)
            attempted += 1
            if not passes:
                continue
            if rec["exit_code"] != 0 or file_digest(cmd["out"]) != digests[cmd["name"]]:
                failed += 1
                notes.append(f"{cmd['name']}: pass {len(passes) + 1} exited {rec['exit_code']} "
                             "or wrote different bytes than pass 1 for the same seed")
        if not passes:
            # Full checks on the first pass; later passes must repeat it byte for byte.
            t_check = time.perf_counter()
            for cmd, rec in zip(cmds, records):
                digests[cmd["name"]] = file_digest(cmd["out"])
            for cmd, rec in zip(cmds, records):
                v = verdict_for(spec, cmd, rec, runner)
                failed += not v["ok"]
                if v["message"]:
                    notes.append(f"{cmd['name']}: {v['message']}")
            check_s = time.perf_counter() - t_check
        passes.append(records)
        measured += sum(r["wall_s"] for r in records)
        per_pass = measured / len(passes)
        if measured + per_pass > seconds or runner.left() < per_pass + CHECK_RESERVE_S:
            break
        if any(r["exit_code"] != 0 for r in records):
            break
    return {"setups": setups, "passes": passes, "check_s": check_s,
            "attempted": attempted, "failed": failed, "notes": notes}


def end_to_end(spec: dict, run: dict) -> tuple[dict, dict]:
    cmds = spec["commands"]
    passes = run["passes"]
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    setup_walls = [s["wall_s"] for s in run["setups"]]
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
    }

    def role_rate(role):
        rates = []
        for p in passes:
            items = sum(c.get("items", 0) for c in cmds if c["role"] == role)
            wall = sum(r["wall_s"] for c, r in zip(cmds, p) if c["role"] == role)
            rates.append(items / wall)
        return statistics.median(rates)

    details = {
        "samples": {"setup_s": f"median of {len(setup_walls)} set-up processes",
                    "wall_s": f"median of {len(passes)} pass(es)",
                    "peak_rss_mb": f"max over {len(passes) * len(cmds)} processes"},
        "passes": len(passes),
        "setup_runs": len(setup_walls),
        "setup_s_samples": setup_walls,
        "setup_import_s_median": statistics.median(s["import_s"] for s in run["setups"])
        if run["setups"] else None,
        "wall_s_samples": walls,
        "check_s": run["check_s"],
        "fail_frac": run["failed"] / run["attempted"],
        "commands": {
            c["name"]: {"wall_s_median": statistics.median(p[i]["wall_s"] for p in passes),
                        "samples": len(passes),
                        "peak_rss_mb": max(p[i]["rss_mb"] for p in passes)}
            for i, c in enumerate(cmds)
        },
    }
    roles = {c["role"] for c in cmds}
    if "sample" in roles:
        details["draws_per_s"] = role_rate("sample")
    if "matrix" in roles:
        details["pairs_per_s"] = role_rate("matrix")
    if "normaliser" in roles:
        i = next(i for i, c in enumerate(cmds) if c["role"] == "normaliser")
        details["normalizer_s"] = statistics.median(p[i]["wall_s"] for p in passes)
    return metrics, details


# -- traced run -----------------------------------------------------------------


def inproc_run(spec: dict, spec_path: str, traced: bool, spans_path: str, runner: Runner) -> dict:
    res_path = os.path.join(spec["work"], f"inproc-{int(traced)}.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "inproc", spec_path, res_path]
    if traced:
        argv += ["--trace", spans_path]
    rec = runner.run(argv, res_path + ".out", res_path + ".err")
    if rec["exit_code"] != 0:
        return {"failed": True, "stderr": rec["stderr"][-2000:]}
    with open(res_path, encoding="utf-8") as fh:
        return {"failed": False, **json.load(fh)}


def read_spans(path: str) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            name, start, end, parent, attrs = line.rstrip("\n").split(",", 4)
            spans.append((name, float(start), float(end), int(parent),
                          json.loads(attrs) if attrs else None))
    return spans


def aggregate(spans: list[tuple]) -> dict:
    """Busy time per span name (outermost spans of that name) and self time per layer."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        layer_self[name.split(".", 1)[0]] += dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        j = parent
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        if j < 0:
            busy[name] = busy.get(name, 0.0) + dur
    return {"busy": busy, "calls": calls, "layer_self": layer_self}


def layer_metrics(spans: list[tuple], traced: dict, untraced: dict, bytes_out: int) -> dict:
    agg = aggregate(spans)
    busy, calls = agg["busy"], agg["calls"]
    attrs = {}
    for name, *_rest, a in spans:
        if a:
            attrs.setdefault(name, []).append(a)

    def total(name, key):
        return sum(a[key] for a in attrs.get(name, []))

    draws = [(a, spans[parent][4]) for (name, _, _, parent, a) in spans
             if name == "direction.direction_sample" and a]
    proposed = sum(a["proposed"] for a, _ in draws)
    accepted = sum(a["accepted"] for a, _ in draws)
    weighted = [(a["proposed"], pa["expected"]) for a, pa in draws if pa and "expected" in pa]
    w_total = sum(w for w, _ in weighted)
    gl_attempted = total("matrixmodels.gl_decompose_batch", "attempted")
    self_sum = sum(agg["layer_self"].values())
    m = {
        "cli.import_s": traced["import_s"],
        "cli.bytes_out": float(bytes_out),
        "gauge.values_calls": float(calls.get("gauge.values", 0)),
        "gauge.values_points": float(total("gauge.values", "points")),
        "direction.direction_constant_n_evals": float(total("direction.direction_constant", "n_evals")),
        "direction.direction_sample_proposed": float(proposed),
        "direction.direction_sample_accepted": float(accepted),
        "direction.acceptance": accepted / proposed if proposed else 0.0,
        "direction.acceptance_expected": sum(w * e for w, e in weighted) / w_total if w_total else 0.0,
        "matrixmodels.gl_ok_frac": total("matrixmodels.gl_decompose_batch", "ok") / gl_attempted
        if gl_attempted else 0.0,
        "rng.normal_floor_s": traced["normal_floor_s"],
        "trace.wall_s": traced["loop_wall_s"],
        "trace.untraced_wall_s": untraced["loop_wall_s"],
        "trace.overhead_s": traced["loop_wall_s"] - untraced["loop_wall_s"],
        "trace.span_cost_s": traced["span_cost_s"] * len(spans),
        "trace.self_sum_s": self_sum,
        "trace.spans": float(len(spans)),
    }
    for layer, value in agg["layer_self"].items():
        m[f"{layer}.self_s"] = value
    for name in ("io.load_distribution", "gauge.values", "gauge.sphere_bounds",
                 "gauge.kink_angles", "radial.radial_constant", "radial.RadialTable.build",
                 "radial.RadialTable.sample", "direction.direction_constant",
                 "direction.direction_sample", "direction.cross_section_mass",
                 "direction.angle_bin_probs", "starshaped.StarDistribution",
                 "starshaped.c0_radial", "starshaped.sample", "stats.ks_test",
                 "stats.chisq_gof", "stats.independence_chisq", "verify.vector_suite",
                 "verify.matrix_suite", "matrixmodels.wishart_sample",
                 "matrixmodels.lt_decompose_batch", "matrixmodels.gl_decompose_batch",
                 "matrixmodels.matrix_beta_density", "matrixmodels.eigenvalue_density"):
        m[f"{name}_s"] = busy.get(name, 0.0)
    return m


def traced_run(spec: dict, runner: Runner, spans_path: str) -> dict:
    spec_path = write_spec(spec)
    untraced = inproc_run(spec, spec_path, False, spans_path, runner)
    digests = {c["name"]: file_digest(c["out"]) for c in spec["commands"]}
    traced = inproc_run(spec, spec_path, True, spans_path, runner)
    attempted = 2 * len(spec["commands"])
    failed = 0
    notes = []
    for label, res in (("untraced", untraced), ("traced", traced)):
        if res["failed"]:
            failed += len(spec["commands"])
            notes.append(f"{label} in-process run crashed: {res['stderr']}")
    if failed:
        return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": None}
    bytes_out = handle_calls = 0
    for cmd, rec in zip(spec["commands"], traced["commands"]):
        stdout_path, _ = _paths(spec, cmd)
        for path in {cmd["out"], stdout_path}:
            if os.path.exists(path):
                bytes_out += os.path.getsize(path)
        if digests[cmd["name"]] != file_digest(cmd["out"]):
            failed += 1
            notes.append(f"{cmd['name']}: traced output differs from untraced output")
        if cmd["role"] == "normaliser" and rec["exit_code"] == 0:
            with open(cmd["out"], encoding="utf-8") as fh:
                handle_calls += json.load(fh)["handle_calls"]
        v = verdict_for(spec, cmd, rec, runner)
        failed += not v["ok"]
        if v["message"]:
            notes.append(f"{cmd['name']}: {v['message']}")
    spans = read_spans(spans_path)
    metrics = layer_metrics(spans, traced, untraced, bytes_out)
    metrics["matrixmodels.handle_calls"] = float(handle_calls)
    methods = sorted({a["method"] for name, *_r, a in spans
                      if name == "direction.direction_constant" and a})
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
            "details": {"direction_constant_methods": methods,
                        "self_sum_matches_wall": abs(metrics["trace.wall_s"]
                                                     - metrics["trace.self_sum_s"])
                        <= max(metrics["trace.overhead_s"], 0.0) + 1e-3}}


# -- reporting ------------------------------------------------------------------


def machine_info() -> dict:
    import scipy

    def read(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            level, kind, size = (read(os.path.join(base, entry, f)).strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    pkg = os.path.join(SRC, "starshape")
    lines = sum(read(os.path.join(pkg, f)).count("\n")
                for f in os.listdir(pkg) if f.endswith(".py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_starshape_py_lines": lines,
        "STARSHAPE_THREADS": "unset (program default)",
    }


def load_metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics: dict, wanted: list[dict]) -> dict:
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool, bench_spec: dict,
            launcher: Launcher) -> dict:
    work = os.path.join(BENCH_DIR, "_work", f"{name}-{os.getpid()}")
    results_dir = os.path.join(BENCH_DIR, "_results")
    os.makedirs(results_dir, exist_ok=True)
    runner = Runner(RUN_BUDGET_S, launcher)
    try:
        spec = workloads.build(name, seed, work)
        if trace:
            spans_path = os.path.join(results_dir, f"spans-{name}-seed{seed}.csv")
            res = traced_run(spec, runner, spans_path)
            metrics = res["metrics"]
            details = res.get("details", {})
            wanted = bench_spec["per_layer"]
        else:
            res = timed_run(spec, seconds, runner)
            complete = res["passes"] and len(res["setups"]) == SETUP_RUNS
            metrics, details = end_to_end(spec, res) if complete else (None, {})
            wanted = bench_spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update({"workload": name, "seed": seed, "trace": int(trace),
                    "run_s": RUN_BUDGET_S - runner.left(),
                    "attempted": res["attempted"], "failed": res["failed"], "notes": res["notes"]})
    return {"metrics": metrics, "details": details, "wanted": wanted}


def print_report(out: dict) -> None:
    d = out["details"]
    print(f"# workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"failed {d['failed']}/{d['attempted']}")
    for note in d["notes"]:
        print(f"#   note: {note}")
    if out["metrics"] is None:
        return
    samples = d.get("samples", {})
    for entry in out["wanted"]:
        value = out["metrics"][entry["name"]]
        print(f"#   {entry['name']:<44} {value:>16.6g} {entry['unit']:<6} "
              f"{samples.get(entry['name'], '')}")
    extra = {k: v for k, v in d.items() if k not in ("notes", "samples")}
    print("# details " + json.dumps(extra, default=float))


def self_test(launcher: Launcher) -> int:
    """The checks must catch a tampered CSV row and a wrong stored c0."""
    work = os.path.join(BENCH_DIR, "_work", f"self-test-{os.getpid()}")
    runner = Runner(RUN_BUDGET_S, launcher)
    ok = True
    try:
        spec = workloads.build("sample-planar", 1, work)
        cmd = dict(spec["commands"][0])
        cmd["args"] = [a if a != "1000000" else "20000" for a in cmd["args"]]
        cmd["check"] = {**cmd["check"], "n": 20000}
        rec = run_command(spec, cmd, runner)
        columns, rows = checks.load_rows(cmd["out"], "csv")
        clean = checks.check_sample_rows(cmd["check"], columns, rows)
        rows[123, 0] *= 1.001
        tampered = checks.check_sample_rows(cmd["check"], columns, rows)
        print(f"# untampered CSV: {'pass' if clean.ok else 'FAIL ' + clean.message}")
        print(f"# tampered CSV row: {'FAIL (expected): ' + tampered.message if not tampered.ok else 'pass (wrong)'}")
        ok &= rec["exit_code"] == 0 and clean.ok and not tampered.ok

        spec = workloads.build("certify-planar", 1, work)
        cmd = dict(spec["commands"][2])
        doc_path = cmd["args"][cmd["args"].index("--dist") + 1]
        with open(doc_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["c0"] *= 1.001
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rec = run_command(spec, cmd, runner)
        v = verdict_for(spec, cmd, rec, runner)
        print(f"# verify with a wrong stored c0: exit {rec['exit_code']}, "
              f"{'FAIL (expected): ' + v['message'] if not v['ok'] else 'pass (wrong)'}")
        ok &= not v["ok"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"self_test_passed": bool(ok)}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="starshape benchmark")
    ap.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # A terminated run still stops the process it is waiting for (Launcher.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "starshape", "cli.py")):
        print(f"error: no starshape sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.self_test:
        ap.error("--workload is required")
    bench_spec = load_metric_spec()
    launcher = Launcher()
    try:
        if args.self_test:
            return self_test(launcher)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        print(f"# machine {json.dumps(machine_info())}")
        outs = []
        for name in names:
            out = run_one(name, args.seed, args.seconds, bool(args.trace), bench_spec, launcher)
            print_report(out)
            outs.append(out)
    finally:
        launcher.close()
    attempted = sum(o["details"]["attempted"] for o in outs)
    failed = sum(o["details"]["failed"] for o in outs)
    metrics = {}
    for o in outs:
        if o["metrics"] is None:
            continue
        for key, val in select(o["metrics"], o["wanted"]).items():
            metrics[key if len(outs) == 1 else f"{o['details']['workload']}.{key}"] = val
    complete = all(o["metrics"] is not None for o in outs)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
