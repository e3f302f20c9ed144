"""Multisublinear maximal operators over the shift-0 dyadic tree of a grid.

The operator takes the sup over the tree's cubes of the product of
r_j-averages.  Trailing atom axes broadcast, so on lattice-valued inputs it
is the lattice maximal operator, and the per-atom slice identity holds by
construction (it is still asserted in the tests).  Operator norms are
probed from below by randomized and structured inputs; upper bounds belong
to the sparse-domination route.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._checks import at_least, need, one_per
from .dyadic import Grid, grid_norm, level_products
from .spaces import Space, harmonic_exponent, product_space

__all__ = [
    "scalar_maximal",
    "maximal_opnorm_lower",
]


def check_tuple(grid: Grid, fs: Sequence[np.ndarray]):
    """The functions as float arrays, plus their common trailing atom shape.

    Cell functions live on the shift-0 grid, so a shifted grid is refused.
    """
    if grid.shift:
        raise ValueError(f"cell functions live on the shift-0 grid, got {grid}")
    fs = [np.asarray(f, dtype=float) for f in fs]
    trail = fs[0].shape[grid.d:]
    for f in fs:
        if f.shape[: grid.d] != grid.cell_shape or f.shape[grid.d:] != trail:
            raise ValueError("functions must share the grid cell shape and atoms")
    return fs, trail


def scalar_maximal(grid: Grid, fs: Sequence[np.ndarray], rs: Sequence[float]) -> np.ndarray:
    """sup_{Q} prod_j <f_j>_{r_j,Q} 1_Q per finest cell, exactly.

    Q runs over the full shift-0 tree of the grid: ``_running_max`` of the
    ``level_products`` pyramid.  Max is exact, so this equals the max over
    every level upsampled to the cells (the oracle in ``tests/oracles.py``)
    bit for bit.  The functions share one trailing atom shape, which
    broadcasts: on (cells x atoms) inputs this is the lattice maximal
    operator, the scalar one on every atom slice.
    """
    one_per("exponent", "function", rs, fs)
    fs, _ = check_tuple(grid, fs)
    return _running_max(grid, level_products(grid, fs, rs))


def _running_max(grid: Grid, levels: dict[int, np.ndarray]) -> np.ndarray:
    """The finest level of a running max taken top down through ``levels``.

    Level k's max over levels 0..k, repeated twice along each axis, is
    folded into level k+1 in place, so every level below the root is
    overwritten: a caller that still reads the pyramid runs this last.
    """
    trail = levels[0].shape[grid.d:]
    for k in range(1, grid.depth + 1):
        fine = levels[k].reshape((1 << (k - 1), 2) * grid.d + trail)
        coarse = levels[k - 1].reshape((1 << (k - 1), 1) * grid.d + trail)
        np.maximum(fine, coarse, out=fine)
    return levels[grid.depth]


def tower(rng, grid: Grid) -> np.ndarray:
    """Nested-indicator extremal input: geometric growth toward a corner."""
    beta = rng.uniform(0.3, 0.95)
    f = np.zeros(grid.cell_shape)
    for k in range(grid.depth + 1):
        b = 1 << (grid.depth - k)
        f[(slice(0, b),) * grid.d] = (2.0 ** (grid.d * k)) ** beta
    return f


def _check_convexity(spaces: Sequence[Space], rs: Sequence[float]) -> None:
    """Refuse a space whose convexity is below its exponent r_j."""
    for sp, r in zip(spaces, rs):
        if sp.convexity < r - 1e-12:
            raise ValueError(f"space {sp!r} must be {r}-convex; its convexity is {sp.convexity}")


def maximal_opnorm_lower(
    grid: Grid,
    rs: Sequence[float],
    ps: Sequence[float],
    spaces: Sequence[Space],
    trials: int = 50,
    seed: int = 0,
) -> tuple[float, list[np.ndarray]]:
    """Best ratio ||M(F)||_{L^p(X)} / prod ||F_j||_{L^{p_j}(X_j)} found.

    A certified lower bound for the operator norm on the given grid family,
    together with the maximizing input tuple.  The trial suite mixes the
    constant input (ratio exactly 1), lognormal noise, and indicator towers;
    ``trials`` is at least 1.
    """
    m = one_per("p_j", "r_j", ps, rs)
    one_per("space", "r_j", spaces, rs)
    at_least("trials", trials, 1)
    for j, (r, p) in enumerate(zip(rs, ps), 1):
        need(f"r_{j}", r, "<", f"p_{j}", p)
    _check_convexity(spaces, rs)
    prod = product_space(spaces)
    p_out = harmonic_exponent(ps)
    n = spaces[0].measure.n

    rng = np.random.default_rng(seed)
    best, best_input = 0.0, None
    for trial in range(trials):
        if trial == 0:
            Fs = [np.ones(grid.cell_shape + (n,)) for _ in range(m)]
        elif trial % 2 == 1:
            Fs = [
                rng.lognormal(sigma=1.5, size=grid.cell_shape + (n,))
                for _ in range(m)
            ]
        else:
            Fs = [
                np.multiply.outer(tower(rng, grid), rng.exponential(size=n))
                for _ in range(m)
            ]
        M = scalar_maximal(grid, Fs, rs)
        num = grid_norm(grid, np.asarray(prod.norm(M)), p_out)
        den = 1.0
        for F, p, sp in zip(Fs, ps, spaces):
            den *= grid_norm(grid, np.asarray(sp.norm(F)), p)
        if den == 0:
            continue
        ratio = num / den
        if ratio > best:
            best, best_input = ratio, Fs
    return best, best_input
