"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by
``(seed, stream_id)``.  Philox is counter-based, so two streams with
different keys are statistically independent, and every result is a
deterministic function of the seed: each task draws from its own fixed
stream id.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for stream ``stream_id`` of the given seed."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_sphere(gen: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n uniform points on the unit sphere via normalized Gaussians."""
    U = gen.normal(size=(n, p))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U
