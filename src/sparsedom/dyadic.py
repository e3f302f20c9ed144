"""Dyadic cubes, shifted grids, the three-lattice covering, and r-averages.

Everything lives on the unit cube [0,1)^d, d in {1,2}, truncated at a depth
cap so that every supremum in the toolkit is a finite maximum.  Functions are
piecewise constant on the 2^(dL) finest cells of the standard (shift 0) grid,
stored as plain numpy arrays of shape (2^L,)*d, optionally with trailing axes
(one value per atom of a function space).  Integrals of such functions are
finite sums, so averages are exact up to float rounding.

Shifted grids follow the one-third trick: grid alpha consists of the cubes

    2^(-k) * ([0,1)^d + m + (-1)^k * a/3),    a = per-axis digits of alpha,

which is nested in k (the two children of a cube along an axis have indices
2m + (-1)^k a and 2m + (-1)^k a + 1).  Shifted cubes may protrude from the
unit cube; averages are then taken over the intersection with [0,1)^d.  Cover
decisions use exact rational arithmetic, so the covering suites are exact.

``level_averages`` is the one r-average kernel, for every lattice: it refines
each axis with a nonzero shift digit into thirds, which makes every cube of a
level one contiguous block of subcells, and reduces all blocks of a level in
one zero-padded reshape.  On the shift-0 lattice the blocks tile the cells,
so a level is a plain reshape-and-sum divided by one integer count.
``average`` reads one cube, shifted or not, off its lattice's level arrays.
A sparse family reads its cubes' blocks only (``_family_products``), summed
in the full reshape's order, so its values equal the level arrays' entries.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from ._checks import EXPONENT, check, csv_rows, interval, one_per

__all__ = [
    "Cube",
    "Grid",
    "shifted_grids",
    "cover_cube",
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
_SIDES = interval(0, 1, hi_closed=True)
_CORNERS = interval(0, 1, lo_closed=True)


def _digits(shift: int, d: int) -> tuple[int, ...]:
    """Per-axis one-third digits of a shift index: base 3, axis 0 first."""
    return tuple(shift // 3**axis % 3 for axis in range(d))


@dataclass(frozen=True)
class Cube:
    """One dyadic cube 2^(-level) * ([0,1)^d + index + sign*digits/3)."""

    level: int
    index: tuple[int, ...]
    shift: int = 0

    @property
    def d(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.level * self.d)

    @property
    def sign(self) -> int:
        # level-alternating sign of the one-third shift
        return 1 if self.level % 2 == 0 else -1

    @property
    def shift_digits(self) -> tuple[int, ...]:
        return _digits(self.shift, self.d)

    def support_exact(self) -> list[tuple[Fraction, Fraction]]:
        """Per-axis [lo, hi) as exact rationals."""
        den = 3 * (1 << self.level)
        out = []
        for m, a in zip(self.index, self.shift_digits):
            lo = Fraction(3 * m + self.sign * a, den)
            out.append((lo, lo + Fraction(3, den)))
        return out

    def support(self) -> list[tuple[float, float]]:
        """Per-axis [lo, hi) in floats."""
        return [(float(lo), float(hi)) for lo, hi in self.support_exact()]

    def contains(self, lower: Sequence, side) -> bool:
        """Exact test: is the axis-parallel cube (lower, side) inside self."""
        side = Fraction(side)
        for (lo, hi), x in zip(self.support_exact(), lower):
            x = Fraction(x)
            if x < lo or x + side > hi:
                return False
        return True


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
    level ``depth``; a shifted ``Grid`` only enumerates cube geometry.
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

    def level_cubes(self, level: int) -> list[Cube]:
        check("level", level, interval(0, self.depth, lo_closed=True, hi_closed=True), integer=True)
        ranges = [_axis_range(level, a) for a in self.digits]
        return [Cube(level, index, self.shift) for index in product(*ranges)]

    def cubes(self) -> Iterator[Cube]:
        for level in range(self.depth + 1):
            yield from self.level_cubes(level)

    def ncubes(self) -> int:
        return sum(math.prod(len(_axis_range(k, a)) for a in self.digits) for k in range(self.depth + 1))

    def children(self, cube: Cube) -> list[Cube]:
        """The up-to-2^d subcubes at the next level meeting [0,1)^d."""
        if cube.level >= self.depth:
            return []
        k1 = cube.level + 1
        digits = cube.shift_digits
        axes = []
        for m, a in zip(cube.index, digits):
            base = 2 * m + cube.sign * a
            rng = _axis_range(k1, a)
            axes.append([b for b in (base, base + 1) if b in rng])
        return [Cube(k1, index, self.shift) for index in product(*axes)]


def shifted_grids(d: int, depth: int) -> list[Grid]:
    """All 3^d shifted grids at the same dimension and depth."""
    return [Grid(d, depth, alpha) for alpha in range(3**d)]


def cover_cube(lower: Sequence, side) -> tuple[int, Cube]:
    """Cover an arbitrary axis-parallel cube by one shifted dyadic cube.

    Returns (alpha, Q') with Q contained in Q' and |Q'| <= 6^d |Q|.  The
    level is the largest k with 2^(-k) >= 3*side (so 2^(-k) < 6*side), and
    per axis at most one of the three digit classes has a grid endpoint
    cutting through Q, which leaves a containing cube in one of the others.
    Sides longer than 1/3 are covered by the shift-0 root directly.  The
    side lies in (0, 1] and each lower-corner coordinate in [0, 1).
    """
    check("side", side, _SIDES)
    lower = [Fraction(check(f"lower corner x_{i}", x, _CORNERS)) for i, x in enumerate(lower, 1)]
    side = Fraction(side)
    d = len(lower)
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    for x in lower:
        if x + side > 1:
            raise ValueError("cube must sit inside [0,1)^d")

    # exact standard-grid cubes cover themselves at ratio 1
    if side.numerator == 1 and side.denominator & (side.denominator - 1) == 0:
        if all(x % side == 0 for x in lower):
            k = side.denominator.bit_length() - 1
            return 0, Cube(k, tuple(int(x / side) for x in lower), 0)

    if side > Fraction(1, 3):
        return 0, Cube(0, (0,) * d, 0)

    k = 0
    while Fraction(1, 2 ** (k + 1)) >= 3 * side:
        k += 1
    sign = 1 if k % 2 == 0 else -1
    scale = Fraction(1 << k)

    digits, index = [], []
    for x in lower:
        for a in (0, 1, 2):
            t = scale * x - Fraction(sign * a, 3)
            m = math.floor(t)
            hi = (m + 1 + Fraction(sign * a, 3)) / scale
            if x + side <= hi:
                digits.append(a)
                index.append(m)
                break
        else:  # unreachable: at most one digit class can fail
            raise AssertionError("no admissible one-third shift found")
    alpha = sum(a * 3**i for i, a in enumerate(digits))
    return alpha, Cube(k, tuple(index), alpha)


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


def level_averages(grid: Grid, f: np.ndarray, r: float) -> dict[int, np.ndarray]:
    """r-averages over every cube of ``grid``'s lattice, one array per level.

    The r-average is <f>_{r,Q} = (|Q|^-1 int_Q |f|^r)^(1/r) with Q cut down
    to [0,1)^d; r = inf gives the essential supremum.  Each level is one
    block reshape of |f|^r, summed per block and divided by the block's
    count of subcells inside the unit cube.  On shift 0 the cubes of a level
    tile the cells, so the reshape needs no padding and the count is one
    integer; a shifted lattice works on subcells (see the module notes) and
    zero-pads its protruding blocks.  At r = 1 the powers |f|^1 and s^(1/1)
    are skipped: both are exact identities.  Entry i along an axis is the
    cube with index ``_axis_range(level, digit)[i]``; on shift 0 that is the
    index itself.  Trailing axes broadcast.
    """
    check("r", r, EXPONENT)
    f = _check_cells(grid, f)
    trail = f.shape[grid.d:]
    power = _power(f, r)
    for axis, a in enumerate(grid.digits):
        if a:
            power = np.repeat(power, 3, axis=axis)
    blocks = tuple(range(1, 2 * grid.d, 2))
    out: dict[int, np.ndarray] = {}
    for k in range(grid.depth + 1):
        if grid.shift:
            shape, padded, window, counts = (), (), [], np.ones(())
            sign = 1 if k % 2 == 0 else -1
            for axis, a in enumerate(grid.digits):
                # in subcells: cube i of the axis is block i after ``lo`` zeros
                rng, size = _axis_range(k, a), power.shape[axis]
                ncubes, block = len(rng), (3 if a else 1) << (grid.depth - k)
                lo = -(3 * rng.start + sign * a) << (grid.depth - k)
                shape += (ncubes, block)
                padded += (ncubes * block,)
                window.append(slice(lo, lo + size))
                edges = np.clip(np.arange(ncubes + 1) * block - lo, 0, size)
                counts = np.multiply.outer(counts, np.diff(edges))
            x = np.zeros(padded + trail)
            x[tuple(window)] = power
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
    """The r-average <f>_{r,Q} of one cube, exact (see level_averages).

    The cube may come from any of the 3^d lattices.  Trailing axes of ``f``
    broadcast (one average per atom).  A cube that is not in its lattice's
    index range raises ValueError.
    """
    if cube.d != grid.d or not 0 <= cube.level <= grid.depth:
        raise ValueError(f"{cube} lies off the d={grid.d} lattices of depth {grid.depth}")
    ranges = [_axis_range(cube.level, a) for a in cube.shift_digits]
    if any(m not in rng for m, rng in zip(cube.index, ranges)):
        raise ValueError(f"{cube} does not meet [0,1)^{grid.d}")
    lv = level_averages(Grid(grid.d, grid.depth, cube.shift), f, r)[cube.level]
    return lv[tuple(m - rng.start for m, rng in zip(cube.index, ranges))]


def grid_norm(grid: Grid, f: np.ndarray, p: float, weight: np.ndarray | None = None) -> float:
    """L^p norm over the unit cube of a scalar cell function.

    A weight, of the cells' shape, multiplies pointwise before the norm (the
    ||f w||_p convention).
    p lies in (0, inf]; p = inf gives the sup over cells.
    """
    check("p", p, EXPONENT)
    f = _check_cells(grid, f)
    if f.shape != grid.cell_shape:
        raise ValueError("grid_norm expects a scalar cell function")
    if weight is not None and np.shape(weight) != grid.cell_shape:
        raise ValueError(f"weight shape {np.shape(weight)} must be the cell shape {grid.cell_shape}")
    g = np.abs(f) if weight is None else np.abs(f) * np.asarray(weight, dtype=float)
    if math.isinf(p):
        return float(g.max())
    return float((np.sum(g**p) * grid.cell_measure) ** (1.0 / p))


def function_to_json(grid: Grid, f: np.ndarray) -> str:
    """JSON envelope {d, L, values} for a cell function."""
    f = _check_cells(grid, f)
    return json.dumps({"d": grid.d, "L": grid.depth, "values": f.tolist()})


def function_from_json(text: str) -> tuple[Grid, np.ndarray]:
    obj = json.loads(text)
    grid = Grid(int(obj["d"]), int(obj["L"]))
    f = np.asarray(obj["values"], dtype=float)
    return grid, _check_cells(grid, f)


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
