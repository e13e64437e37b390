"""The histogram references of ``verify --matrix``.

Both p = 2 histogram criteria sum matrixmodels' shapes over midpoint nodes
with ``verify._cell_probs``, one first-axis cell at a time.  The references
below are the same midpoint sums taken on the full node grid, with the
exponents of each law written out by hand.
"""

import numpy as np
import pytest

from starshape import verify
from starshape.verify import _cell_probs


def _u_reference(a, b, sub=24):
    fine = 5 * sub
    x = (np.arange(fine) + 0.5) / fine
    t = -0.5 + (np.arange(fine) + 0.5) / fine
    X, Y, Z = np.meshgrid(x, x, t, indexing="ij")
    dU = X * Y - Z ** 2
    dI = (1 - X) * (1 - Y) - Z ** 2
    vals = np.where(
        (dU > 0) & (dI > 0),
        np.where(dU > 0, dU, 1.0) ** (a - 1.5) * np.where(dI > 0, dI, 1.0) ** (b - 1.5),
        0.0,
    )
    probs = vals.reshape(5, sub, 5, sub, 5, sub).sum(axis=(1, 3, 5)).ravel()
    return probs / probs.sum()


def _root_reference(a, b, sub=30):
    x = (np.arange(10 * sub) + 0.5) / (10 * sub)
    L1, L2 = np.meshgrid(x, x, indexing="ij")
    vals = np.where(
        L1 > L2,
        L1 ** (a - 1.5) * L2 ** (a - 1.5)
        * (1 - L1) ** (b - 1.5) * (1 - L2) ** (b - 1.5)
        * np.maximum(L1 - L2, 0.0),
        0.0,
    )
    probs = vals.reshape(10, sub, 10, sub).sum(axis=(1, 3)).ravel()
    return probs / probs.sum()


@pytest.fixture
def criterion_probs(monkeypatch):
    """The cell probabilities a histogram report hands to its chi-square."""
    monkeypatch.setattr(verify, "chisq_gof", lambda counts, probs, **kw: probs)
    return lambda report, draws, a, b: report(draws, a, b, 0.001)


@pytest.mark.parametrize("a, b", [(1.5, 1.5), (2.55, 3.6), (6.0, 2.0)])
def test_matrix_beta_cells_match_the_full_grid_sums(criterion_probs, a, b):
    probs = criterion_probs(verify._u_histogram_report, np.full((1, 2, 2), 0.25), a, b)
    assert probs.shape == (125,)
    assert np.max(np.abs(probs - _u_reference(a, b))) <= 1e-15


@pytest.mark.parametrize("a, b", [(1.5, 1.5), (2.55, 3.6), (6.0, 2.0)])
def test_root_cells_match_the_full_grid_sums(criterion_probs, a, b):
    probs = criterion_probs(verify._eigen_histogram_report, np.array([[0.7, 0.3]]), a, b)
    assert probs.shape == (100,)
    assert np.max(np.abs(probs - _root_reference(a, b))) <= 1e-15


def test_cell_probs_keeps_each_axis_in_its_place():
    # Unequal ranges and cell counts per axis, a support cut along a diagonal,
    # against the midpoint sums on the full node grid.
    edges = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0, 5), np.linspace(-1.0, 0.0, 4)]
    sub = 8

    def density(x):
        shape = x[..., 0] + 10.0 * x[..., 1] ** 2 + 100.0 * (x[..., 2] + 1.0)
        return np.where(x[..., 1] < 2.0 * x[..., 0], shape, 0.0)

    probs = _cell_probs(density, edges, sub)
    axes = [e[0] + (e[-1] - e[0]) * (np.arange((len(e) - 1) * sub) + 0.5) / ((len(e) - 1) * sub)
            for e in edges]
    fine = density(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    cells = fine.reshape(2, sub, 4, sub, 3, sub).sum(axis=(1, 3, 5)).ravel()
    np.testing.assert_allclose(probs, cells / cells.sum(), rtol=0, atol=1e-15)
