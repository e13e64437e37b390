"""Measurements that run inside a fresh interpreter.

    python3 bench/child.py setup SPEC RESULT
        Import starshape.cli and build the workload's inputs (set-up time).
    python3 bench/child.py inproc SPEC RESULT [--trace SPANS]
        Run the workload's commands in this process through
        ``starshape.cli.main(..., standalone_mode=False)``; with ``--trace``,
        record a span around every call into the package's public
        functions first and write the spans to SPANS at the end.

SPEC is the workload spec written by run.py; RESULT receives a JSON summary.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any import, so import time is complete

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# -- tracing -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if attrs is not None:
                spans[idx][4] = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, None])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()


def _points(args, result):
    return {"points": int(result.size)}


def _c0_attrs(args, result):
    return {"n_evals": int(result.integral.n_evals), "method": result.integral.method}


def _draw_attrs(args, result):
    points = result.points
    return {"proposed": int(result.n_proposed),
            "accepted": int(round(result.acceptance_rate * result.n_proposed)),
            "p": int(points.shape[1])}


def _sample_attrs(args, result):
    dist = args[0]
    p = dist.p
    omega = 2.0 * math.pi ** (p / 2) / math.gamma(p / 2)
    return {"expected": dist.bounds.g_min ** p / (dist.c0 * omega)}


def _gl_attrs(args, result):
    ok = result[2]
    return {"ok": int(ok.sum()), "attempted": int(ok.size)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, and every imported alias of them."""
    from starshape import direction, gauge, io as sio, matrixmodels, radial, starshaped, stats, verify

    replaced = {}

    def wrap(owner, attr, name, attrs=None):
        original = owner.__dict__[attr]
        if getattr(original, "__isabstractmethod__", False):
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.span(name, original.__func__, attrs))
        else:
            wrapped = tracer.span(name, original, attrs)
            replaced[id(original)] = (original, wrapped)
        setattr(owner, attr, wrapped)

    wrap(sio, "load_distribution", "io.load_distribution")
    gauge_classes = [c for c in vars(gauge).values()
                     if isinstance(c, type) and issubclass(c, gauge.Gauge)]
    for cls in gauge_classes:
        for attr, name, attrs in (("values", "gauge.values", _points),
                                  ("sphere_bounds", "gauge.sphere_bounds", None),
                                  ("_numeric_sphere_bounds", "gauge.sphere_bounds", None),
                                  ("kink_angles", "gauge.kink_angles", None)):
            if attr in cls.__dict__:
                wrap(cls, attr, name, attrs)
    wrap(radial, "radial_constant", "radial.radial_constant")
    wrap(radial.RadialTable, "build", "radial.RadialTable.build")
    wrap(radial.RadialTable, "sample", "radial.RadialTable.sample")
    wrap(direction, "direction_constant", "direction.direction_constant", _c0_attrs)
    wrap(direction, "direction_sample", "direction.direction_sample", _draw_attrs)
    wrap(direction, "cross_section_mass", "direction.cross_section_mass")
    wrap(direction, "angle_bin_probs", "direction.angle_bin_probs")
    wrap(starshaped.StarDistribution, "__init__", "starshaped.StarDistribution")
    wrap(starshaped.StarDistribution, "c0_radial", "starshaped.c0_radial")
    wrap(starshaped.StarDistribution, "sample", "starshaped.sample", _sample_attrs)
    for fn in ("ks_test", "chisq_gof", "independence_chisq"):
        wrap(stats, fn, f"stats.{fn}")
    for fn in ("vector_suite", "matrix_suite"):
        wrap(verify, fn, f"verify.{fn}")
    wrap(matrixmodels, "wishart_sample", "matrixmodels.wishart_sample")
    wrap(matrixmodels, "lt_decompose_batch", "matrixmodels.lt_decompose_batch")
    wrap(matrixmodels, "gl_decompose_batch", "matrixmodels.gl_decompose_batch", _gl_attrs)
    wrap(matrixmodels, "matrix_beta_density", "matrixmodels.matrix_beta_density")
    wrap(matrixmodels, "eigenvalue_density", "matrixmodels.eigenvalue_density")

    # Names imported into other modules (e.g. starshape.cli.StarDistribution
    # is the class, already patched; starshape.cli.load_distribution is a
    # separate binding of the function and needs its own patch).
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "starshape" or name.startswith("starshape.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# -- running commands in process -------------------------------------------------


def _run_cli(main, argv, stdout_path):
    """Run one CLI command; returns (exit code, captured stderr)."""
    err = io.StringIO()
    code = 0
    with open(stdout_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ret = main(argv, standalone_mode=False)
            code = ret if isinstance(ret, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, err.getvalue()


def inproc(spec: dict, spans_path: str | None) -> dict:
    t_import = time.perf_counter()
    import starshape.cli

    import_s = time.perf_counter() - t_import
    import normaliser
    import workloads

    tracer = Tracer() if spans_path else None
    if tracer is not None:
        install(tracer)
    results = []
    loop_start = time.perf_counter()
    for cmd in spec["commands"]:
        stdout_path = os.path.join(spec["work"], f"{cmd['name']}.stdout")
        label = f"cli.{cmd['args'][0]}" if cmd["kind"] == "cli" else "bench.normaliser"
        ctx = tracer.root(label) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with ctx:
            if cmd["kind"] == "cli":
                code, err = _run_cli(starshape.cli.main, workloads.argv(cmd), stdout_path)
            else:
                code, err = 0, ""
                try:
                    normaliser.main(workloads.argv(cmd))
                except Exception as exc:  # reported as a failed command
                    code, err = 1, f"{type(exc).__name__}: {exc}\n"
        results.append({"name": cmd["name"], "wall_s": time.perf_counter() - t0,
                        "exit_code": code, "stderr": err})
    loop_wall = time.perf_counter() - loop_start
    out = {"import_s": import_s, "loop_wall_s": loop_wall, "commands": results}
    if tracer is not None:
        out["normal_floor_s"] = _normal_floor(tracer.spans)
        out["span_cost_s"] = _span_cost()
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,attrs\n")
            for name, start, end, parent, attrs in tracer.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{json.dumps(attrs) if attrs else ''}\n")
    return out


def _span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds around a call, timed on a no-op."""
    tracer = Tracer()
    noop = tracer.span("calibration", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    with_span = time.perf_counter() - t0
    bare = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    return max(with_span - (time.perf_counter() - t0), 0.0) / calls


def _normal_floor(spans) -> float:
    """Time for Philox normal draws of the sampler's proposal count alone."""
    from starshape import rng

    gen = rng.stream(0, 0)
    total = 0.0
    chunk = 1 << 20
    for name, _, _, _, attrs in spans:
        if name != "direction.direction_sample" or not attrs:
            continue
        left = attrs["proposed"]
        while left > 0:
            m = min(left, chunk)
            t0 = time.perf_counter()
            gen.normal(size=(m, attrs["p"]))
            total += time.perf_counter() - t0
            left -= m
    return total


# -- set-up ---------------------------------------------------------------------


def setup(spec: dict) -> dict:
    import starshape.cli  # noqa: F401

    t_import = time.perf_counter()
    from starshape import rng
    from starshape.io import load_distribution
    from starshape.matrixmodels import wishart_sample
    from starshape.starshaped import StarDistribution

    for path in spec["setup"]["docs"]:
        gauge, profile, _ = load_distribution(path)
        StarDistribution(gauge, profile)
    for w in spec["setup"]["wishart"]:
        gen = rng.stream(w["seed"], 0)
        wishart_sample(w["p"], w["n1"], gen, w["n"])
        wishart_sample(w["p"], w["n2"], gen, w["n"])
    done = time.perf_counter()
    return {"import_s": t_import - _T0, "build_s": done - t_import}


def main() -> None:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        result = setup(spec)
    elif mode == "inproc":
        spans_path = sys.argv[5] if len(sys.argv) > 5 and sys.argv[4] == "--trace" else None
        result = inproc(spec, spans_path)
    else:
        raise SystemExit(f"unknown mode '{mode}'")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
