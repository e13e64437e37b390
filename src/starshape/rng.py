"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by
``(seed, stream_id)``.  Philox is counter-based, so two streams with
different keys are statistically independent, and every result is a
deterministic function of the seed: each task draws from its own fixed
stream id.

Key layout: the Philox key is the pair of 64-bit words (seed, k).  A
task's own stream has k = stream_id < 2^32.  Block b of a blocked Monte
Carlo task (:func:`starshape.quadrature.mc_mean`) has
k = (b + 1) 2^32 + stream_id, whose high half is never zero, so no block
shares its key with a task stream or with another block.  The ids in use
are 0 (command samples), 10, 11, 20 and 21 (``verify``), 901 (numeric
sphere bounds), and 1000 (sphere integral) and 2000 (plane integral),
the last two in blocks.
"""

from __future__ import annotations

import numpy as np

_ID_LIMIT = 1 << 32


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for stream ``stream_id`` of the given seed."""
    if not 0 <= stream_id < _ID_LIMIT:
        raise ValueError("stream ids lie in [0, 2^32)")
    return _keyed(seed, stream_id)


def block_stream(seed: int, stream_id: int, block: int) -> np.random.Generator:
    """Return the generator for block ``block`` of task ``stream_id``."""
    if not (0 <= stream_id < _ID_LIMIT and 0 <= block < _ID_LIMIT - 1):
        raise ValueError("stream ids lie in [0, 2^32) and blocks in [0, 2^32 - 1)")
    return _keyed(seed, (block + 1) * _ID_LIMIT + stream_id)


def _keyed(seed: int, k: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def uniform_sphere(gen: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n uniform points on the unit sphere via normalized Gaussians."""
    U = gen.normal(size=(n, p))
    U /= row_norms(U)[:, None]
    return U


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, p) array.

    An unscaled sum of squares, as in ``np.linalg.norm(X, axis=1)``, which
    it may differ from in the last bit, at about a third of its cost on
    (2^16, p) blocks for p from 3 to 6.
    """
    return np.sqrt(np.einsum("ij,ij->i", X, X))
