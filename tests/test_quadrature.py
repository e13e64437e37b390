import math
import os
import sys
import threading

import numpy as np
import pytest

from starshape import quadrature
from starshape import rng as srng
from starshape.quadrature import MC_BLOCK, mc_mean


def _one_array(w: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of w, the sums taken exactly by fsum."""
    n = w.size
    _, e = np.frexp(np.max(np.abs(w)))
    v = np.ldexp(w, -e)
    mean = math.fsum(v) / n
    var = max(math.fsum(v * v) / n - mean * mean, 0.0) * n / (n - 1)
    return math.ldexp(mean, int(e)), math.ldexp(math.sqrt(var / n), int(e))


def _wide_draw(gen, m):
    """Blocks of zeros, or signed values at a block scale from 1e-300 to 1e300."""
    if gen.random() < 0.25:
        return np.zeros(m)
    scale = 10.0 ** gen.uniform(-300.0, 300.0)
    return scale * gen.uniform(-0.5, 1.5, m) * np.exp(gen.normal(0.0, 3.0, m))


def _cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.mark.parametrize("n", [2, 1000, MC_BLOCK, 5 * MC_BLOCK + 17])
@pytest.mark.parametrize("draw", [
    lambda gen, m: gen.uniform(1.0, 2.0, m),
    lambda gen, m: 10.0 ** gen.uniform(-300.0, 300.0, m),
    _wide_draw,
])
def test_blocks_combine_to_the_one_array_mean_and_stderr(monkeypatch, n, draw):
    w = np.concatenate([
        draw(srng.block_stream(3, 77, b), min(MC_BLOCK, n - b * MC_BLOCK))
        for b in range(-(-n // MC_BLOCK))
    ])
    ref = _one_array(w)
    for k in (1, 2, 3):
        _cpus(monkeypatch, k)
        got = mc_mean(draw, n, 3, 77)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_blocks_run_on_worker_threads_that_end_with_the_call(monkeypatch):
    main, threads = threading.get_ident(), threading.active_count()
    seen = {}

    def draw(gen, m):
        seen.setdefault(k, set()).add(threading.get_ident())
        return gen.normal(size=m)

    results = []
    for k in (1, 2, 3):
        _cpus(monkeypatch, k)
        results.append(mc_mean(draw, 4 * MC_BLOCK, 5, 77))
        assert threading.active_count() == threads
    assert results[1] == results[0] and results[2] == results[0]
    assert seen[1] == {main}
    assert main not in seen[2] | seen[3] and len(seen[2]) <= 2 and len(seen[3]) <= 3


def test_a_failing_block_raises_and_leaves_no_thread(monkeypatch):
    threads = threading.active_count()

    def draw(gen, m):
        if m < MC_BLOCK:
            raise ArithmeticError("last block")
        return gen.normal(size=m)

    for k in (1, 2):
        _cpus(monkeypatch, k)
        with pytest.raises(ArithmeticError, match="last block"):
            mc_mean(draw, 3 * MC_BLOCK + 1, 0, 77)
        assert threading.active_count() == threads


def test_blocks_run_under_the_callers_error_state(monkeypatch):
    # The overflow raises under the suite's warning filter unless it is ignored.
    def draw(gen, m):
        w = gen.uniform(1.0, 2.0, m)
        return np.where(w * 1e300 * 1e10 < np.inf, 0.0, w)

    results = []
    with np.errstate(over="ignore"):
        for k in (1, 2):
            _cpus(monkeypatch, k)
            results.append(mc_mean(draw, 2 * MC_BLOCK, 0, 77))
    assert results[1] == results[0]


_no_openblas = pytest.mark.skipif(quadrature._openblas() is None,
                                  reason="numpy bundles no OpenBLAS with a thread count")


@_no_openblas
def test_blocks_run_on_one_blas_thread_and_restore_the_count(monkeypatch):
    get, set_ = quadrature._openblas()
    before = get()
    seen = []

    def draw(gen, m):
        seen.append(get())
        if m < MC_BLOCK:
            raise ArithmeticError("last block")
        return gen.normal(size=m)

    def nested(gen, m):
        # A mean inside a block leaves the count pinned for the outer one.
        mc_mean(lambda g, k: g.normal(size=k), 2, 0, 78)
        seen.append(get())
        return gen.normal(size=m)

    try:
        set_(2)
        for k in (1, 2):
            _cpus(monkeypatch, k)
            mc_mean(nested, 2 * MC_BLOCK, 0, 77)
            assert get() == 2
            with pytest.raises(ArithmeticError, match="last block"):
                mc_mean(draw, 3 * MC_BLOCK + 1, 0, 77)
            assert get() == 2
    finally:
        set_(before)
    assert seen and set(seen) == {1}


@_no_openblas
def test_overlapping_means_keep_one_blas_thread_until_the_last_ends(monkeypatch):
    # Means on more threads than cores, switching often: each block sees one
    # thread, and the count is restored once, when the last mean returns.
    get, set_ = quadrature._openblas()
    before, switch = get(), sys.getswitchinterval()
    seen = []

    def draw(gen, m):
        seen.append(get())
        return gen.normal(size=m)

    _cpus(monkeypatch, 2)
    threads = [threading.Thread(target=mc_mean, args=(draw, 3 * MC_BLOCK, i, 77)) for i in range(6)]
    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert get() == 2
    finally:
        sys.setswitchinterval(switch)
        set_(before)
    assert len(seen) == 18 and set(seen) == {1}


@_no_openblas
def test_a_numpy_without_openblas_symbols_gives_the_same_bits(monkeypatch):
    A = srng.stream(0, 5).normal(size=(6, 40))

    def draw(gen, m):
        return (gen.normal(size=(m, 6)) @ A).max(axis=1)

    pinned = mc_mean(draw, 3 * MC_BLOCK + 5, 1, 77)

    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr("ctypes.CDLL", NoSymbols)
    quadrature._openblas.cache_clear()
    try:
        assert quadrature._openblas() is None
        for k in (1, 2, 3):
            _cpus(monkeypatch, k)
            assert mc_mean(draw, 3 * MC_BLOCK + 5, 1, 77) == pinned
    finally:
        quadrature._openblas.cache_clear()


def test_block_streams_are_keyed_apart_from_task_streams():
    first = srng.block_stream(1, 1000, 0).random(4)
    assert not np.array_equal(first, srng.stream(1, 1000).random(4))
    assert not np.array_equal(first, srng.block_stream(1, 1000, 1).random(4))
    assert not np.array_equal(first, srng.block_stream(1, 2000, 0).random(4))
    np.testing.assert_array_equal(first, srng.block_stream(1, 1000, 0).random(4))
    for bad in (lambda: srng.stream(1, 2**32), lambda: srng.block_stream(1, 2**32, 0),
                lambda: srng.block_stream(1, 1000, 2**32 - 1), lambda: srng.stream(-1)):
        with pytest.raises(ValueError):
            bad()
