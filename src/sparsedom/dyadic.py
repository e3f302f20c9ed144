"""Dyadic cubes, shifted grids and r-averages.

Everything lives on the unit cube [0,1)^d, d in {1,2}, truncated at a depth
cap so that every supremum in the toolkit is a finite maximum.  Functions are
piecewise constant on the 2^(dL) finest cells of the standard (shift 0) grid,
stored as plain numpy arrays of shape (2^L,)*d, optionally with trailing axes
(one value per atom of a function space).  Integrals of such functions are
finite sums, so averages are exact up to float rounding.

A ``Cube`` is (level, index) on the standard lattice.  Shifted grids follow
the one-third trick: grid alpha consists of the cubes

    2^(-k) * ([0,1)^d + m + (-1)^k * a/3),    a = per-axis digits of alpha,

which is nested in k (the two children of a cube along an axis have indices
2m + (-1)^k a and 2m + (-1)^k a + 1).  Shifted cubes may protrude from the
unit cube; averages are then taken over the intersection with [0,1)^d.  A
shifted ``Grid`` holds level arrays only: its cubes are entries of those
arrays, not ``Cube`` objects.

``level_averages`` is the one r-average kernel, for every lattice: it refines
each axis with a nonzero shift digit into thirds, which makes every cube of a
level one contiguous block of subcells, and reduces all blocks of a level in
one zero-padded reshape.  That layout depends on the lattice only, so it is
computed once per (d, depth, shift) and reused by every later call, on any
``Grid`` of that lattice.  On the shift-0 lattice the blocks tile the cells,
so a level is a plain reshape-and-sum divided by one integer count, and
``average`` reads one ``Cube`` off it.  A sparse family reads its cubes'
blocks only (``_family_products``), summed in the full reshape's order, so
its values equal the level arrays' entries.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from ._checks import EXPONENT, check, csv_rows, entries, interval, one_per

__all__ = [
    "Cube",
    "Grid",
    "shifted_grids",
    "average",
    "level_averages",
    "level_products",
    "grid_norm",
    "function_to_json",
    "function_from_json",
    "function_to_csv",
    "function_from_csv",
]

MAX_DEPTH = {1: 12, 2: 6}
_DIMENSIONS = interval(1, 2, lo_closed=True, hi_closed=True)
_DEPTHS = {d: interval(0, cap, lo_closed=True, hi_closed=True) for d, cap in MAX_DEPTH.items()}
_SHIFTS = {d: interval(0, 3**d, lo_closed=True) for d in MAX_DEPTH}


def _digits(shift: int, d: int) -> tuple[int, ...]:
    """Per-axis one-third digits of a shift index: base 3, axis 0 first."""
    return tuple(shift // 3**axis % 3 for axis in range(d))


@dataclass(frozen=True)
class Cube:
    """One standard-lattice dyadic cube 2^(-level) * ([0,1)^d + index)."""

    level: int
    index: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.index)


def _axis_range(level: int, digit: int) -> range:
    """Index range along one axis keeping only cubes meeting [0,1)."""
    if digit == 0:
        return range(0, 1 << level)
    if level % 2 == 0:
        return range(-1, 1 << level)
    return range(0, (1 << level) + 1)


class Grid:
    """The finite tree of dyadic cubes of one shift, levels 0..depth.

    The function domain (finest cells) always refers to the shift-0 grid at
    level ``depth``.  A shifted ``Grid`` holds level arrays only: it counts
    its cubes but builds no ``Cube``.
    """

    def __init__(self, d: int, depth: int, shift: int = 0):
        check("dimension", d, _DIMENSIONS, integer=True)
        check(f"depth at d={d}", depth, _DEPTHS[d], integer=True)
        check(f"shift at d={d}", shift, _SHIFTS[d], integer=True)
        self.d = d
        self.depth = depth
        self.shift = shift
        self.digits = _digits(shift, d)
        self.cell_shape = (1 << depth,) * d
        self.ncells = (1 << depth) ** d
        self.cell_measure = 2.0 ** (-d * depth)

    def __repr__(self) -> str:
        return f"Grid(d={self.d}, depth={self.depth}, shift={self.shift})"

    def _standard(self, *cubes: Cube) -> None:
        """Refuse a shifted grid, and any of ``cubes`` off this one."""
        if self.shift:
            raise ValueError(f"cubes lie on the standard lattice; {self!r} holds level arrays only")
        for q in cubes:
            if q.d != self.d or not 0 <= q.level <= self.depth or not all(0 <= m < 1 << q.level for m in q.index):
                raise ValueError(f"{q} lies off {self!r}")

    def level_cubes(self, level: int) -> list[Cube]:
        self._standard()
        check("level", level, interval(0, self.depth, lo_closed=True, hi_closed=True), integer=True)
        return [Cube(level, index) for index in product(range(1 << level), repeat=self.d)]

    def cubes(self) -> Iterator[Cube]:
        for level in range(self.depth + 1):
            yield from self.level_cubes(level)

    def ncubes(self) -> int:
        """The count of cubes on this grid's lattice, shifted or not."""
        return sum(math.prod(len(_axis_range(k, a)) for a in self.digits) for k in range(self.depth + 1))

    def children(self, cube: Cube) -> list[Cube]:
        """The 2^d subcubes at the next level, none at the depth.  A cube off
        the grid raises ValueError."""
        self._standard(cube)
        if cube.level >= self.depth:
            return []
        return [
            Cube(cube.level + 1, tuple(2 * m + e for m, e in zip(cube.index, bits)))
            for bits in product((0, 1), repeat=self.d)
        ]


def shifted_grids(d: int, depth: int) -> list[Grid]:
    """All 3^d shifted grids at the same dimension and depth."""
    return [Grid(d, depth, alpha) for alpha in range(3**d)]


def _check_cells(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[: grid.d] != grid.cell_shape:
        raise ValueError(
            f"function shape {f.shape} does not start with cells {grid.cell_shape}"
        )
    return f


def _power(f: np.ndarray, r: float) -> np.ndarray:
    """|f|^r, with the exact identity |f| at r = 1 and for the r = inf maximum."""
    return np.abs(f) if math.isinf(r) or r == 1 else np.abs(f) ** r


@functools.cache
def _shifted_layout(d: int, depth: int, shift: int) -> tuple[tuple, ...]:
    """Per level of a shifted lattice, its block layout in subcells: the block
    shape, the zero-padded extent, the window of the subcells in it, and the
    read-only count of subcells of each cube inside the unit cube.

    The layout depends on the lattice only, so each of the at most 82 shifted
    lattices (``MAX_DEPTH`` and 3^d - 1 shifts) is laid out once.
    """
    layout = []
    for k in range(depth + 1):
        shape, padded, window, counts = (), (), (), np.ones(())
        sign = 1 if k % 2 == 0 else -1
        for a in _digits(shift, d):
            # in subcells: cube i of the axis is block i after ``lo`` zeros
            rng, size = _axis_range(k, a), (3 if a else 1) << depth
            ncubes, block = len(rng), (3 if a else 1) << (depth - k)
            lo = -(3 * rng.start + sign * a) << (depth - k)
            shape += (ncubes, block)
            padded += (ncubes * block,)
            window += (slice(lo, lo + size),)
            edges = np.clip(np.arange(ncubes + 1) * block - lo, 0, size)
            counts = np.multiply.outer(counts, np.diff(edges))
        counts.flags.writeable = False
        layout.append((shape, padded, window, counts))
    return tuple(layout)


def level_averages(grid: Grid, f: np.ndarray, r: float) -> dict[int, np.ndarray]:
    """r-averages over every cube of ``grid``'s lattice, one array per level.

    The r-average is <f>_{r,Q} = (|Q|^-1 int_Q |f|^r)^(1/r) with Q cut down
    to [0,1)^d; r = inf gives the essential supremum.  Each level is one
    block reshape of |f|^r, summed per block and divided by the block's
    count of subcells inside the unit cube.  On shift 0 the cubes of a level
    tile the cells, so the reshape needs no padding and the count is one
    integer; a shifted lattice works on subcells (see the module notes) and
    zero-pads its protruding blocks, in a layout computed once per
    (d, depth, shift) and reused (``_shifted_layout``).  At r = 1 the powers
    |f|^1 and s^(1/1) are skipped: both are exact identities.  Entry i along
    an axis is the cube with index ``_axis_range(level, digit)[i]``; on
    shift 0 that is the index itself.  Trailing axes broadcast.
    """
    check("r", r, EXPONENT)
    f = _check_cells(grid, f)
    trail = f.shape[grid.d:]
    power = _power(f, r)
    for axis, a in enumerate(grid.digits):
        if a:
            power = np.repeat(power, 3, axis=axis)
    blocks = tuple(range(1, 2 * grid.d, 2))
    layout = _shifted_layout(grid.d, grid.depth, grid.shift) if grid.shift else ()
    out: dict[int, np.ndarray] = {}
    for k in range(grid.depth + 1):
        if grid.shift:
            shape, padded, window, counts = layout[k]
            x = np.zeros(padded + trail)
            x[window] = power
            x = x.reshape(shape + trail)
            counts = counts.reshape(counts.shape + (1,) * len(trail))
        else:
            block = 1 << (grid.depth - k)
            x = power.reshape((1 << k, block) * grid.d + trail)
            counts = block**grid.d
        if math.isinf(r):
            out[k] = x.max(axis=blocks)
        else:
            mean = x.sum(axis=blocks) / counts
            out[k] = mean if r == 1 else mean ** (1.0 / r)
    return out


def level_products(
    grid: Grid, fs: Sequence[np.ndarray], rs: Sequence[float]
) -> dict[int, np.ndarray]:
    """prod_j <f_j>_{r_j,Q} over every cube of ``grid``'s lattice, per level."""
    one_per("exponent", "function", rs, fs)
    lvs = [level_averages(grid, f, r) for f, r in zip(fs, rs)]
    out = {}
    for k in range(grid.depth + 1):
        out[k] = lvs[0][k]
        for lv in lvs[1:]:
            out[k] = out[k] * lv[k]
    return out


def _family_products(
    grid: Grid, fs: Sequence[np.ndarray], rs: Sequence[float], level: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """prod_j <f_j>_{r_j,Q} for the shift-0 cubes Q = (level[i], index[i]), one row each.

    Only the blocks of |f_j|^{r_j} under the cubes are read.  The cubes are
    grouped by level: a level's blocks are gathered from its reshape in
    ``level_averages``, or viewed there if the level holds one cube, and
    reduced together.  Every row equals its ``level_products`` entry bit for
    bit, because each block is summed in the full reshape's order:
    - with more than one atom, NumPy adds the block's cells one by one in
      row-major order, atom-wise; a plain block sum does the same;
    - without, it sums the innermost block axis pairwise.  A d = 1 block
      is one pairwise sum, and so is the d = 2 root, whose rows are one
      contiguous run; a d = 2 block below the root sums each row pairwise
      and adds the row sums left to right.
    The division by the cell count and the power 1/r are taken on the rows'
    array, as on the level arrays; a 0-d power would round differently.
    The grid's shift is ignored: families live on the shift-0 lattice.
    The callers check that there is one exponent per function.
    """
    d, depth = grid.d, grid.depth
    rows_of: dict[int, list[int]] = {}
    for i, k in enumerate(level.tolist()):
        rows_of.setdefault(k, []).append(i)
    groups = []  # per level: its rows, and where its blocks sit in the level's reshape
    for k, sel in rows_of.items():
        if len(sel) == 1:  # a view of shape (1, block, ...), as a gather of one cube
            m = index[sel[0]].tolist()
            sel, ix = slice(sel[0], sel[0] + 1), [slice(m[0], m[0] + 1)] + m[1:]
        else:
            ix = list(index[sel].T)
        groups.append((k, sel, (ix[0],) if d == 1 else (ix[0], slice(None), ix[1])))
    counts = np.ldexp(1.0, d * (depth - level))
    axes = tuple(range(1, d + 1))
    out = None
    for f, r in zip(fs, rs):
        check("r", r, EXPONENT)
        f = _check_cells(grid, f)
        trail = f.shape[d:]
        power = _power(f, r)
        by_rows = d == 2 and math.prod(trail) == 1
        rows = np.empty((len(level),) + trail)
        for k, sel, take in groups:
            blk = power.reshape((1 << k, 1 << (depth - k)) * d + trail)[take]
            if math.isinf(r):
                rows[sel] = blk.max(axis=axes)
            elif by_rows and k:
                rows[sel] = np.cumsum(blk.sum(axis=2), axis=1)[:, -1]
            else:
                rows[sel] = blk.sum(axis=axes)
        if not math.isinf(r):
            rows /= counts.reshape(counts.shape + (1,) * len(trail))
            if r != 1:
                rows = rows ** (1.0 / r)
        out = rows if out is None else out * rows
    return out


def average(grid: Grid, f: np.ndarray, r: float, cube: Cube):
    """The r-average <f>_{r,Q} of one cube, read off its level of
    ``level_averages``.  Trailing axes of ``f`` broadcast (one average per
    atom).  A cube off the grid raises ValueError.
    """
    grid._standard(cube)
    return level_averages(grid, f, r)[cube.level][cube.index]


def grid_norm(grid: Grid, f: np.ndarray, p: float, weight: np.ndarray | None = None) -> float:
    """L^p norm over the unit cube of a scalar cell function.

    A weight, of the cells' shape, finite and strictly positive, multiplies
    pointwise before the norm (the ||f w||_p convention).
    p lies in (0, inf]; p = inf gives the sup over cells.
    """
    check("p", p, EXPONENT)
    f = _check_cells(grid, f)
    if f.shape != grid.cell_shape:
        raise ValueError("grid_norm expects a scalar cell function")
    if weight is not None and np.shape(weight) != grid.cell_shape:
        raise ValueError(f"weight shape {np.shape(weight)} must be the cell shape {grid.cell_shape}")
    g = np.abs(f)
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if not np.all(np.isfinite(weight) & (weight > 0)):
            raise ValueError("weights must be finite and strictly positive")
        g = g * weight
    if math.isinf(p):
        return float(g.max())
    return float((np.sum(g**p) * grid.cell_measure) ** (1.0 / p))


def function_to_json(grid: Grid, f: np.ndarray) -> str:
    """JSON envelope {d, L, values} for a cell function."""
    f = _check_cells(grid, f)
    return json.dumps({"d": grid.d, "L": grid.depth, "values": f.tolist()})


def function_from_json(text: str) -> tuple[Grid, np.ndarray]:
    d, depth, values = entries("function", json.loads(text), "d", "L", "values")
    grid = Grid(int(d), int(depth))
    return grid, _check_cells(grid, np.asarray(values, dtype=float))


def function_to_csv(grid: Grid, f: np.ndarray, path) -> None:
    """One row per finest cell: flat row-major cell index, value."""
    f = _check_cells(grid, f)
    if f.shape != grid.cell_shape:
        raise ValueError("CSV serialization expects a scalar cell function")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "value"])
        for i, v in enumerate(f.reshape(-1)):
            writer.writerow([i, repr(float(v))])


def function_from_csv(path, grid: Grid) -> np.ndarray:
    """The cell function of a ``function_to_csv`` file, which lists each cell once."""
    values = np.zeros(grid.ncells)
    listed = np.zeros(grid.ncells, dtype=bool)
    with open(path, newline="") as fh:
        for row in csv_rows(fh, ("cell", "value")):
            i = check("cell", int(row[0]), interval(0, grid.ncells, lo_closed=True))
            if listed[i]:
                raise ValueError(f"cell must be listed once, got {i} again")
            listed[i] = True
            values[i] = float(row[1])
    if not listed.all():
        raise ValueError(f"need one row per cell, got {np.count_nonzero(listed)} for {grid.ncells}")
    return values.reshape(grid.cell_shape)
