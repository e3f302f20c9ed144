"""Multisublinear maximal operators over the shift-0 dyadic tree of a grid.

The scalar operator takes the sup over the tree's cubes of the product of
r_j-averages; the lattice variant is the same computation with a trailing
atom axis, which makes the per-atom slice identity hold by construction (and
it is still asserted in the tests).  Operator norms are probed from below by
randomized and structured inputs; upper bounds belong to the sparse-domination
route.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._checks import at_least, need, one_per
from .dyadic import Grid, grid_norm, level_products
from .spaces import Space, harmonic_exponent, product_space

__all__ = [
    "scalar_maximal",
    "lattice_maximal",
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
    bit for bit.
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


def lattice_maximal(grid: Grid, Fs: Sequence[np.ndarray], rs: Sequence[float]) -> np.ndarray:
    """The lattice maximal operator: scalar_maximal on every atom slice.

    Inputs are (cells x atoms) arrays over one shared atom count; the lattice
    sup over an atomic measure space is the per-atom sup, so this is the
    scalar computation with a trailing axis.
    """
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    atoms = {F.shape[grid.d:] for F in Fs}
    if len(atoms) != 1 or Fs[0].ndim == grid.d:
        raise ValueError("lattice inputs need one common nonempty atom shape")
    return scalar_maximal(grid, Fs, rs)


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
        M = lattice_maximal(grid, Fs, rs)
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
