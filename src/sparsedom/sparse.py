"""Sparse families: exact verification, forms, optimization, CZ, stopping.

Sparseness of a family of distinct standard-lattice cubes is decided
exactly by one bottom-up sweep over the levels that hold family cubes.
Disjoint subsets E_Q with |E_Q| >= eta |Q| exist iff every family cube P
packs: eta * sum_{Q subseteq P} |Q| <= |P| (the Carleson condition with
constant 1/eta).  In finest cells at a depth where every demand eta |Q| is
whole, P's free cells are |P| less the demands of its family descendants.
The sweep takes all cubes of a level at once: it counts each block's free
cells and gives each cube its demand in the block's lowest free cells.  A
cube left short refutes sparseness with itself and its family descendants
as Hall violator.

The optimizers target the sparse form sum_Q prod_j <f_j>_{r_j,Q} |Q|: the
exact optimum, a knapsack on the dyadic tree over that same packing
criterion (integer loads in finest cells, so feasibility is exact; see
Hanninen, Ark. Mat. 2018, and Lerner & Nazarov, Expo. Math. 2019), and
the greedy principal-cubes construction that realizes the maximal function's
L^1 norm up to a factor of two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

import numpy as np

from ._checks import EXPONENT, FINITE, UNIT, _is_int, check, distinct, entries, interval, json_list, one_per
from .dyadic import Cube, Grid, _family_products, grid_norm, level_averages, level_products
from .maximal import _check_convexity, _running_max, check_tuple
from .spaces import Space, harmonic_exponent, product_space

__all__ = [
    "SparseFamily",
    "SparseRefutation",
    "CZParts",
    "StoppingCertificate",
    "StoppingFailure",
    "verify_sparse",
    "certificate_depth",
    "sparse_form",
    "optimal_sparse_form",
    "GREEDY_FACTOR",
    "cz_decompose",
    "stopping_domination",
    "family_to_json",
    "family_from_json",
]

# the greedy principal-cubes family realizes at least this fraction of
# ||M(f)||_{L^1}; combined with the exact optimum <= 2 ||M||_{L^1} it gives
# the 1/4 guarantee against the exact mode
GREEDY_FACTOR = 0.5

_VERIFY_DEPTH_CAP = {1: 18, 2: 9}
_CELL_DEPTHS = interval(0, 31, lo_closed=True, hi_closed=True)  # d * depth < 63: int64 cell ids


@dataclass
class SparseFamily:
    """Distinct standard-lattice cubes with a sparseness parameter and a cell
    certificate, held as arrays in family order.

    Cube i is 2^(-level[i]) * ([0,1)^d + index[i]), with ``index`` n x d.  Its
    witness set E_Q is cells[offsets[i]:offsets[i + 1]]: flat ids (row-major
    ints) of finest cells at ``certificate_depth`` (at most 31), empty for a
    cube without witnesses.  ``from_cubes`` builds a family from a cube list;
    ``cubes`` builds the ``Cube`` list on every read.
    """

    level: np.ndarray
    index: np.ndarray
    cells: np.ndarray
    offsets: np.ndarray
    eta: float
    certificate_depth: int

    def __post_init__(self):
        check("eta", self.eta, UNIT)
        check("certificate_depth", self.certificate_depth, _CELL_DEPTHS, integer=True)

    @classmethod
    def from_cubes(cls, cubes: Sequence[Cube], eta: float = 0.5, certificate: Sequence[Sequence[int]] | None = None,
                   certificate_depth: int = 0) -> SparseFamily:
        """The family of ``cubes`` in list order, cube i with the witness cells
        certificate[i] (none without a certificate), as ``family_to_json``
        writes them.

        The cubes must be distinct shift-0 cubes of one dimension inside the
        unit cube, the certificate one list of int cells per cube; else a
        named refusal.
        """
        cubes = list(cubes)
        sets = [[] for _ in cubes] if certificate is None else [list(s) for s in certificate]
        rows = [(q.level, *q.index) for q in cubes if not q.shift]
        if len(rows) < len(cubes):
            raise ValueError("sparseness verification supports the standard lattice only")
        wrong = next((q for q, r in zip(cubes, rows) if len(r) < 2 or not all(map(_is_int, r))), None)
        if wrong is not None:
            raise ValueError(f"a cube needs an int level and one int index per axis, got {wrong}")
        if len({len(r) for r in rows}) > 1:
            raise ValueError("cubes must share one dimension")
        bad = next((q for q, r in zip(cubes, rows) if min(r) < 0 or any(m >> r[0] for m in r[1:])), None)
        if bad is not None:
            raise ValueError(f"cube indices must be in [0, 2^level), got {bad}")
        distinct("cubes", cubes)
        if cubes or sets:
            one_per("witness set", "cube", sets, cubes)
        flat = list(chain.from_iterable(sets))
        wrong = next((c for c in flat if not _is_int(c) or not -(1 << 63) <= c < 1 << 63), None)
        if wrong is not None:  # int64 cell ids
            raise ValueError(f"certificate cells must be ints in [-2^63, 2^63), got {wrong}")
        table = np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 1)
        offsets = np.cumsum([0] + [len(s) for s in sets])
        return cls(table[:, 0], table[:, 1:], np.array(flat, dtype=np.int64), offsets, eta, certificate_depth)

    @property
    def cubes(self) -> list[Cube]:
        """The cubes in family order, built on every read."""
        return _cubes(self.level, self.index)

    def __eq__(self, other) -> bool:
        """Same type, every field equal, arrays by value (a dataclass == over arrays raises)."""
        return type(self) is type(other) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def check_certificate(self) -> bool:
        """One witness set of distinct cells per family cube: disjoint, contained, large enough.

        False when a cube is finer than ``certificate_depth``.  All witness
        cells are checked in one pass: ids in range, one sort for repeats
        within and across the sets, containment as cell >> (depth - level) ==
        index axis by axis, and each set's size against its demand
        ceil(eta |Q|) in cells, as integers.
        """
        level, cells, depth = self.level, self.cells, self.certificate_depth
        if not len(level):
            return True
        d, n, sizes = self.index.shape[1], 1 << depth, np.diff(self.offsets)
        if level.max() > depth or cells.min(initial=0) < 0 or cells.max(initial=0) >= n**d:
            return False
        owner = np.repeat(np.arange(len(sizes)), sizes)
        for axis, m in enumerate(self.index.T):
            coord = cells >> depth * (d - 1 - axis) & n - 1
            if np.any(coord >> depth - level[owner] != m[owner]):
                return False
        ordered = np.sort(cells)
        if np.any(ordered[1:] == ordered[:-1]):  # a cell in two sets, or twice in one
            return False
        eta = Fraction(self.eta)
        need = [-(-(eta.numerator << d * (depth - k)) // eta.denominator) for k in range(depth + 1)]
        return bool(np.all(sizes >= np.array(need)[level]))


@dataclass
class SparseRefutation:
    """A Hall violator: cubes whose demand exceeds their union's measure.

    Cube i is 2^(-level[i]) * ([0,1)^d + index[i]), as in ``SparseFamily``:
    the refuted cube and its family descendants, in family order.
    """

    level: np.ndarray
    index: np.ndarray
    demand: Fraction
    available: Fraction
    eta: float
    depth: int

    __eq__ = SparseFamily.__eq__


def certificate_depth(d: int, level: int, eta: float) -> int:
    """Cell depth at which eta |Q| is a whole number of cells down to ``level``.

    Raises ValueError when eta is not a dyadic rational in (0, 1) or when the
    depth passes the resolution cap of dimension d.
    """
    frac = Fraction(check("eta", eta, UNIT))
    den = frac.denominator
    if den & (den - 1):
        raise ValueError(f"eta={eta} is not dyadic; no refinement depth resolves it")
    depth = level + (den.bit_length() - 1 + d - 1) // d
    if depth > _VERIFY_DEPTH_CAP[d]:
        raise ValueError(f"certificate depth {depth} exceeds the d={d} resolution cap")
    return depth


def verify_sparse(cubes: Sequence[Cube], eta: float = 0.5):
    """Decide eta-sparseness exactly; SparseFamily or SparseRefutation.

    The cubes must be distinct shift-0 cubes of one dimension inside the
    unit cube, as ``SparseFamily.from_cubes`` requires.  The demand eta |Q|
    must be an integer number of cells at the working depth, which is
    refined automatically for dyadic eta; other eta values cannot be
    resolved on any dyadic refinement and raise.

    One sweep over the level and index arrays visits the levels that hold
    family cubes, deepest first, and treats a level's cubes at once: a row
    per cube holds its block's flat ids (row-major, so increasing), a cumsum
    counts the row's free cells, and the cube takes the lowest eta |Q| =
    num 2^(d k) / den of them (k levels above the cells).  As the deeper
    levels all packed, a block's count is |P| less its family descendants'
    demands: the packing condition.  The first cube of the level, in input
    order, that falls short is refuted together with its family
    descendants: their demand exceeds |P|, which contains all their cells.
    Cubes of one level are disjoint, so this is the family (in input order),
    certificate and refutation of a walk over the cubes one at a time,
    deepest level first and input order within a level (the oracle in
    ``tests/oracles.py``).
    """
    family = SparseFamily.from_cubes(cubes, eta)
    return _pack(family.level, family.index, eta)


def _pack(level: np.ndarray, index: np.ndarray, eta: float):
    """The sweep of ``verify_sparse`` on level and index arrays in family order."""
    (n, d), frac = index.shape, Fraction(eta)
    depth = certificate_depth(d, int(level.max()), eta) if n else 0
    demands = [(frac.numerator << d * (depth - k)) // frac.denominator for k in range(depth + 1)]
    offsets = np.concatenate(([0], np.cumsum(np.array(demands)[level])))
    first = np.zeros(n, dtype=np.int64)  # each cube's first cell
    for m in index.T:
        first = first << depth | m << depth - level

    cells = np.empty(offsets[-1], dtype=np.int64)
    free = np.ones(1 << d * depth, dtype=bool)  # by flat id
    flat = np.arange(free.size).reshape((1 << depth,) * d)
    for k in sorted(set(level.tolist()), reverse=True):
        at, b, demand = np.flatnonzero(level == k), depth - k, demands[k]
        ids = np.add.outer(first[at], flat[(slice(1 << b),) * d].ravel())
        ok = free[ids]
        count = np.add.accumulate(ok, axis=1, dtype=int)  # ok.cumsum, less overhead
        mine = ids[ok & (count <= demand)]
        if mine.size < len(at) * demand:  # a cube short of its demand
            top, deeper = at[np.argmax(count[:, -1] < demand)], np.flatnonzero(level >= k)
            inside = deeper[np.all(index[deeper] >> (level[deeper] - k)[:, None] == index[top], axis=1)]
            owned = frac * Fraction(int(np.sum(1 << d * (depth - level[inside]))), 1 << d * depth)
            return SparseRefutation(level[inside], index[inside], owned, Fraction(1, 1 << d * k), eta, depth)
        free[mine] = False
        cells[offsets[at, None] + np.arange(demand)] = mine.reshape(len(at), demand)
    return SparseFamily(level, index, cells, offsets, eta, depth)


def sparse_form(
    family: SparseFamily,
    grid: Grid,
    fs: Sequence[np.ndarray],
    rs: Sequence[float],
    g: np.ndarray | None = None,
    sigma: float | None = None,
    q: float = 1.0,
) -> float:
    """( sum_Q (prod_j <f_j>_{r_j,Q})^q <g>_{sigma,Q}^q |Q| )^(1/q), exact.

    q lies in (0, inf) and sigma, which defaults to q, in (0, inf].  The
    terms are read off the family's level and index arrays by
    ``dyadic._family_products``, as in ``SparseOperator.apply``: only the
    blocks under the family's cubes are reduced, each product equals its
    ``level_products`` entry bit for bit, and the terms are summed left to
    right in family order.  The functions are scalar cell functions with
    finite entries: one with atom axes, or with a NaN or infinite entry, is
    refused by name.
    """
    check("q", q, FINITE)
    if g is not None and sigma is not None:
        check("sigma", sigma, EXPONENT)
    fs, rs = list(fs), list(rs)
    if g is not None:
        fs, rs = fs + [g], rs + [q if sigma is None else sigma]
    one_per("exponent", "function", rs, fs)
    _check_scalar("sparse_form", grid, fs)
    _check_on_grid(family, grid)
    products = _family_products(grid, fs, rs, family.level, family.index)
    total = 0.0
    for k, p in zip(family.level.tolist(), products):
        total += float(p) ** q * 2.0 ** (-k * grid.d)
    return total ** (1.0 / q)


def _check_scalar(caller: str, grid: Grid, fs: Sequence[np.ndarray]) -> None:
    """Refuse a function that is no finite scalar cell function of ``grid``, naming the caller."""
    for j, f in enumerate(fs, 1):
        if np.shape(f) != grid.cell_shape:
            raise ValueError(f"{caller} takes scalar functions of shape {grid.cell_shape}, got shape {np.shape(f)}")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{caller} takes finite functions, got a non-finite entry in f_{j}")


def _check_on_grid(family: SparseFamily, grid: Grid) -> None:
    """Refuse a family with a cube of another dimension or finer than the grid."""
    level, index = family.level, family.index
    if len(level) and (index.shape[1] != grid.d or level.max() > grid.depth):
        raise ValueError(f"a family cube lies off the d={grid.d} lattices of depth {grid.depth}")


def optimal_sparse_form(
    fs: Sequence[np.ndarray],
    rs: Sequence[float],
    grid: Grid,
    mode: str = "exact",
    eta: float = 0.5,
) -> tuple[float, SparseFamily]:
    """Maximize the pure sparse form over eta-sparse subfamilies of the grid.

    exact: a knapsack on the dyadic tree over the packing criterion, with
    eta = num/den and loads in finest cells.  g_Q[b], the best value inside
    Q with load b, is the max-plus of the children's tables; Q joins when
    num (b + |Q|) <= den |Q|, also on a tie.  A taken Q packs at most |Q|/eta
    cells and a finer level at most |Q|, so a table has at most
    min(den/num, depth - level + 1) |Q| + 1 entries.  The root keeps its
    smallest best load, so no cube of contribution 0 is taken.  The winner,
    re-verified by ``verify_sparse``, lists its cubes by descending
    contribution (ties in ``grid.cubes()`` order); the value sums them left
    to right in that order.
    greedy: principal cubes; the root is selected, and so is every cube whose
    product of averages more than doubles that of its nearest selected
    ancestor.  One top-down sweep over the levels carries that ancestor's
    product as a level array.  The family lists the cubes in preorder of the
    principal tree, children in descending Z-order (a stack walk's pop
    order), and the value sums them left to right in that order.  The
    greedy family is sparse at a slightly smaller eta when sum 1/r_j > 1
    (set on the result).
    Both modes refuse shifted grids: they optimize on the standard lattice.
    The functions are scalar cell functions with finite entries: one with
    atom axes, which the batched optimizer would read as a batch, or with a
    NaN or infinite entry, is refused by name.
    This is the batch of one of ``_optimize_form``, which reads the
    ``level_products`` pyramids of many inputs that share ``rs`` and
    optimizes them all in one knapsack or one sweep; each input's result is
    bit for bit the one it gets alone.
    """
    one_per("exponent", "function", rs, fs)
    _check_scalar("optimal_sparse_form", grid, fs)
    [result] = _optimize_form(grid, [level_products(grid, fs, rs)], rs, mode, eta)
    return result


def _optimize_form(
    grid: Grid, pyramids: Sequence[dict[int, np.ndarray]], rs: Sequence[float], mode: str, eta: float
) -> list[tuple[float, SparseFamily]]:
    """``optimal_sparse_form`` on each pyramid lp = ``level_products(grid, fs, rs)``
    of a batch whose inputs share ``rs``: one (value, family) per pyramid, in order.

    Each level of the pyramids is stacked along a trailing input axis, and
    the knapsack or the greedy sweep runs once on the stack.  Both are
    elementwise across that axis, so an input's masks are bit for bit those
    of a batch of one.  The masks are read off, ordered, summed and packed
    per input.  The pyramids are only read.
    """
    check("eta", eta, UNIT)
    if grid.shift:
        raise ValueError("sparse forms are optimized on the standard lattice only")
    lp = [np.stack([p[k] for p in pyramids], axis=-1) for k in range(grid.depth + 1)]
    contrib = [v * 2.0 ** (-grid.d * k) for k, v in enumerate(lp)]
    if mode == "exact":
        picks = _knapsack_picks(contrib, grid.d, Fraction(eta))
    elif mode == "greedy":
        rho = harmonic_exponent(rs)
        bound = 1 - 2.0**-rho
        den = 16
        while math.floor(bound * den) == 0 and den < 1024:
            den *= 2
        eta = min(eta, math.floor(bound * den) / den)
        if eta <= 0:
            raise ValueError(f"greedy guarantee {bound} too small to certify")
        anchor, picks = lp[0], [np.ones(lp[0].shape, dtype=bool)]
        for k in range(1, grid.depth + 1):
            anchor = _refine(anchor, grid.d)
            picks.append(lp[k] > 2 * anchor)
            anchor[picks[-1]] = lp[k][picks[-1]]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    results = []
    for b in range(len(pyramids)):
        mine = [sel[..., b] for sel in picks]
        level, index, code = _selected(mine, grid.depth)
        values = np.concatenate([c[..., b][sel] for c, sel in zip(contrib, mine)])
        if mode == "exact":
            order = np.argsort(-values, kind="stable")
        else:  # descending Z-order of the last finest cell, then by level
            order = np.lexsort((level, -(code + (1 << grid.d * (grid.depth - level)) - 1)))
        value = float(np.cumsum(np.concatenate(([0.0], values[order])))[-1])  # left to right; np.sum pairs
        family = _pack(level[order], index[order], eta)
        if not isinstance(family, SparseFamily):
            raise AssertionError(f"{mode} family failed sparseness verification")
        results.append((value, family))
    return results


_KNAPSACK_CELLS = 1 << 16  # finest cells, over all its inputs, of one knapsack chunk


def _knapsack_picks(contrib: Sequence[np.ndarray], d: int, eta: Fraction) -> list[np.ndarray]:
    """Per-level masks of the exact optimum of ``optimal_sparse_form`` for a
    batch of inputs.

    contrib[k] holds the level-k contributions prod_j <f_j>_{r_j,Q} |Q| of B
    inputs, shape (2^k,)*d + (B,); the masks keep that trailing input axis.
    The tables of B inputs take B times the memory of one, so the inputs run
    in chunks of at most max(1, 2^16 // 2^(d depth)): a chunk holds at most
    2^16 finest cells in all, or one input.  With eta = num/den, level k's
    tables hold t_k = min(den/num, depth - k + 1) entries per finest cell
    (``optimal_sparse_form``); a chunk peaks under 48 S bytes per finest
    cell, S = t_0 + ... + t_depth, plus 1 MiB.  At d=2 L=6 and eta = 1/2
    that is 16 inputs a chunk and under 40 MiB (18.4 MiB measured).
    """
    depth, inputs = len(contrib) - 1, contrib[0].shape[-1]
    step = max(1, _KNAPSACK_CELLS >> d * depth)
    chunks = [_knapsack_chunk([c[..., i : i + step] for c in contrib], d, eta) for i in range(0, inputs, step)]
    return [np.concatenate(masks, axis=-1) for masks in zip(*chunks)]


def _knapsack_chunk(contrib: Sequence[np.ndarray], d: int, eta: Fraction) -> list[np.ndarray]:
    """``_knapsack_picks`` on one chunk of inputs, all in one pass.

    A table has shape (2^k,)*d + (inputs, loads).  Every step is
    elementwise across the input axis: the sums, comparisons and masked
    copies of the merge, the take/skip choice, the roll along the load axis,
    and the backtrack's argmax and gathers along it.  So each input's masks
    keep the bits of a knapsack on it alone (kept as the oracle in
    ``tests/oracles.py``).  The leaves' children hold empty selections, and
    loads past |Q|/eta are cut.
    """
    depth, inputs = len(contrib) - 1, contrib[0].shape[-1]
    kids = [tuple(slice(b, None, 2) for b in e) for e in product((0, 1), repeat=d)]
    g, steps = np.zeros((2 << depth,) * d + (inputs, 1)), []
    for k in range(depth, -1, -1):
        cells = 1 << (d * (depth - k))
        acc, args = g[kids[0]], []
        for e in kids[1:]:
            # max-plus with the next child, looping over its (shorter)
            # table; a tie keeps the child's smaller load
            n, child = acc.shape[-1], g[e]
            out = np.full(acc.shape[:-1] + (n + child.shape[-1] - 1,), -np.inf)
            args.append(np.zeros(out.shape, dtype=np.int32))
            for i in range(child.shape[-1]):
                cand = acc + child[..., i : i + 1]
                better = cand > out[..., i : i + n]
                np.copyto(out[..., i : i + n], cand, where=better)
                np.copyto(args[-1][..., i : i + n], i, where=better)
            acc = out
        skip = np.concatenate([acc, np.full(acc.shape[:-1] + (cells,), -np.inf)], axis=-1)
        # take[b] = skip[b - |Q|] + c_Q; the roll brings the -inf pad below |Q|
        take = np.roll(skip, cells, axis=-1) + contrib[k][..., None]
        top = eta.denominator * cells // eta.numerator + 1
        chosen = (take >= skip)[..., :top]
        g = np.where(chosen, take[..., :top], skip[..., :top])
        steps.append((cells, chosen, args))
    # the root's smallest best load, per input
    load, picks = np.argmax(g, axis=-1), []
    for cells, chosen, args in reversed(steps):
        picks.append(np.take_along_axis(chosen, load[..., None], axis=-1)[..., 0])
        rest = load - picks[-1] * cells
        load = np.empty(tuple(2 * n for n in load.shape[:d]) + (inputs,), dtype=int)
        for e, arg in zip(kids[:0:-1], args[::-1]):
            load[e] = np.take_along_axis(arg, rest[..., None], axis=-1)[..., 0]
            rest = rest - load[e]
        load[kids[0]] = rest
    return picks


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


@dataclass
class CZParts:
    """Good/bad splitting at threshold lambda after L^{r_j} normalization.

    good[j] = flat[j] + averaged[j]: the original function off the level set
    plus its r_j-average frozen on each selected maximal cube.  bad is the
    product remainder prod f_j - prod good[j].  selections[j][k] masks
    component j's selected cubes at level k.
    """

    good: list[np.ndarray]
    flat: list[np.ndarray]
    averaged: list[np.ndarray]
    bad: np.ndarray
    level_sets: list[np.ndarray]
    selections: list[list[np.ndarray]]
    threshold: float
    r: float
    component_thresholds: list[float]
    norms: list[float]


def cz_decompose(
    grid: Grid,
    fs: Sequence[np.ndarray],
    rs: Sequence[float],
    lam: float,
) -> CZParts:
    """Maximal-cube decomposition: <f_j>_{r_j,Q} > lam^{r/r_j} selection.

    Components are normalized to ||f_j||_{L^{r_j}} = 1; lam and every norm
    lie in (0, inf).  Selected cubes are the maximal ones exceeding the
    component threshold; the averaged part freezes the cube average there.
    They are found in one top-down sweep over the levels: at level k the
    selection is the exceeding cubes not covered by a coarser selection, and
    the cover and the frozen values are refined one level at a time, and
    each level's selection mask is kept.

    The lattice is the full one of the zero extension beyond the window, so
    when the root average exceeds the threshold the selected cube is the
    maximal qualifying ancestor and the frozen value is its decayed average
    root * 2^(-k d / r_j); this keeps the doubling bound on the averaged
    part at every threshold, not just above 2^(-d/r).
    """
    check("lam", lam, FINITE)
    one_per("exponent", "function", rs, fs)
    fs = [np.asarray(f, dtype=float) for f in fs]
    norms = [check(f"norm of f_{j}", grid_norm(grid, f, r), FINITE) for j, (f, r) in enumerate(zip(fs, rs), 1)]
    fn = [f / c for f, c in zip(fs, norms)]
    r = harmonic_exponent(rs)
    thresholds = [lam ** (r / rj) for rj in rs]
    d = grid.d

    flat, averaged, good, level_sets, selections = [], [], [], [], []
    for f, rj, thr in zip(fn, rs, thresholds):
        lv = level_averages(grid, f, rj)
        covered = np.zeros((1,) * d, dtype=bool)
        frozen = np.zeros((1,) * d)
        picks = []
        for k in range(grid.depth + 1):
            if k:
                covered, frozen = _refine(covered, d), _refine(frozen, d)
            sel = (lv[k] > thr) & ~covered
            covered |= sel
            frozen[sel] = lv[k][sel]
            picks.append(sel)
        if picks[0].any():  # the root itself is selected
            # climb the zero extension: each ancestor divides the average
            # by 2^(d/r_j); stop on the last level still above threshold
            a0, k = float(lv[0].flat[0]), 0
            while a0 * 2.0 ** (-(k + 1) * d / rj) > thr:
                k += 1
            frozen = np.full(grid.cell_shape, a0 * 2.0 ** (-k * d / rj))
        g1 = np.where(covered, 0.0, f)
        flat.append(g1)
        averaged.append(frozen)
        good.append(g1 + frozen)
        level_sets.append(covered)
        selections.append(picks)

    bad = np.prod(fn, axis=0) - np.prod(good, axis=0)
    return CZParts(
        good, flat, averaged, bad, level_sets, selections, lam, r, thresholds, norms
    )


def _refine(a: np.ndarray, d: int) -> np.ndarray:
    """A level array one level finer: each cube's entry goes to its children."""
    for axis in range(d):
        a = np.repeat(a, 2, axis=axis)
    return a


def _selected(picks: Sequence[np.ndarray], depth: int):
    """Levels, n x d indices and first-cell Z-order codes of per-level masks.

    Cubes come level by level, row-major within a level.  The Z-order code
    interleaves the bits of the cube's first finest cell, axis 0 high.
    """
    found = [np.nonzero(sel) for sel in picks]
    level = np.repeat(np.arange(len(found)), [len(f[0]) for f in found])
    index = np.column_stack([np.concatenate(axis) for axis in zip(*found)])
    d = index.shape[1]
    code = np.zeros(len(level), dtype=np.int64)
    for axis, m in enumerate(index.T):
        cell = m << (depth - level)
        for b in range(depth):
            code |= ((cell >> b) & 1) << (d * b + d - 1 - axis)
    return level, index, code


def _cubes(level: np.ndarray, index: np.ndarray) -> list[Cube]:
    """Shift-0 cubes of level and n x d index arrays, with Python ints."""
    return [Cube(k, tuple(m)) for k, m in zip(level.tolist(), index.tolist())]


# ---------------------------------------------------------------------------
# stopping-time sparse domination
# ---------------------------------------------------------------------------


class StoppingFailure(RuntimeError):
    """Raised when doubling the stopping constant never stabilizes."""

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state


@dataclass
class StoppingCertificate:
    """The sparse family built by the stopping recursion, plus its audit.

    ratios holds, in family order, each selected cube's worst cell ratio of
    the lattice maximal function's X-norm against c_stop times the
    q-aggregated sparse bound; all ratios are <= 1 when pointwise_ok.
    c_stop is also the adaptive stand-in for the nonconstructive weak-type
    constant.
    """

    family: SparseFamily
    c_stop: float
    doublings: int
    ratios: np.ndarray
    pointwise_ok: bool


def stopping_domination(
    grid: Grid,
    Fs: Sequence[np.ndarray],
    rs: Sequence[float],
    q: float,
    spaces: Sequence[Space],
    c_stop: float = 1.0,
    max_doublings: int = 20,
) -> StoppingCertificate:
    """Recursive stopping-children construction with adaptive constant.

    Children of a selected Q are the maximal Q' where the X-norm of the
    chain supremum sup_{Q' <= P <= Q} prod_j <F_j>_{r_j,P} exceeds
    c_stop * prod_j <||F_j||_{X_j}>_{r_j,Q}.  The constant doubles until
    every selected cube keeps at least half its measure free of children,
    which makes the family 1/2-sparse by construction; the packing sweep of
    ``verify_sparse`` runs on its arrays and builds the certificate (an
    AssertionError if it ever refutes).  The pointwise bound holds cell by
    cell.

    Every generation is found in one top-down sweep over the levels (see
    ``_stopping_sweep``), with one X-norm call per level.  The family lists
    the cubes in the preorder of the stopping tree, children in ascending
    Z-order: sorted by the Z-order code of the first finest cell (axis 0 as
    the high bit), then by level.  The audit reads level arrays as well:
    the lattice maximal function is the running max of the vector pyramid
    the sweeps read (``maximal._running_max``, bit for bit
    ``scalar_maximal``), a cell's sum of A(Q)^q is a running sum down the
    selection masks, and a cube's worst ratio its entry of
    ``level_averages`` at r = inf.
    """
    one_per("exponent", "function", rs, Fs)
    one_per("space", "function", spaces, Fs)
    Fs, _ = check_tuple(grid, Fs)
    prod_space_X = product_space(spaces)
    _check_convexity([*spaces, prod_space_X], [*rs, q])

    cellnorms = [np.asarray(sp.norm(F)) for sp, F in zip(spaces, Fs)]
    scalar_lp = level_products(grid, cellnorms, rs)
    vector_lp = level_products(grid, Fs, rs)

    c = float(c_stop)
    for doubling in range(max_doublings + 1):
        picks, parent = _stopping_sweep(grid, scalar_lp, vector_lp, prod_space_X, c)
        level = np.repeat(np.arange(len(picks)), [np.count_nonzero(sel) for sel in picks])
        # each cube's children may cover at most half of it, in finest cells
        cells = 1 << (grid.d * (grid.depth - level))
        covered = np.bincount(parent, weights=cells[1:], minlength=len(cells))
        if np.all(2 * covered <= cells):
            break
        c *= 2.0
    else:
        raise StoppingFailure(
            "stopping constant failed to stabilize; counterexample candidate",
            {"c_stop": c, "rs": list(rs), "q": q, "depth": grid.depth},
        )

    _, index, code = _selected(picks, grid.depth)
    order = np.lexsort((level, code))
    family = _pack(level[order], index[order], 0.5)
    if not isinstance(family, SparseFamily):
        raise AssertionError("stopping family failed sparseness verification")

    M = _running_max(grid, vector_lp)  # overwrites the pyramid the sweeps read
    lhs = np.asarray(prod_space_X.norm(M))
    # a cell sums A(Q)^q over its selected cubes top down, the order in
    # which the preorder lists them; Python's powers, not np.power's
    rhs_q = np.zeros((1,) * grid.d)
    for k, sel in enumerate(picks):
        if k:
            rhs_q = _refine(rhs_q, grid.d)
        rhs_q[sel] += [v**q for v in scalar_lp[k][sel].tolist()]
    rhs = rhs_q ** (1.0 / q)
    with np.errstate(invalid="ignore", divide="ignore"):
        cell_ratio = np.where(lhs > 0, lhs / (c * rhs), 0.0)
    # each selected cube's worst cell: its block maximum (cell_ratio >= 0)
    worst = level_averages(grid, cell_ratio, math.inf)
    ratios = np.concatenate([worst[k][sel] for k, sel in enumerate(picks)])[order]
    pointwise_ok = bool(np.all(cell_ratio <= 1 + 1e-9))
    return StoppingCertificate(family, c, doubling, ratios, pointwise_ok)


def _stopping_sweep(grid: Grid, scalar_lp, vector_lp, space: Space, c: float):
    """Every generation of stopping cubes at constant c, top down by level.

    Each cell of level k carries its owner's threshold c A(owner), the chain
    supremum of the vector averages since the owner, and the owner's id.
    The cubes whose chain X-norm passes the threshold are selected; they
    own themselves from then on.  Returns the per-level selection masks and,
    for every selected cube but the root, its owner's id; ids count the
    cubes level by level, row-major within a level.
    """
    d = grid.d
    thr = c * scalar_lp[0]
    chain = vector_lp[0]
    owner = np.zeros(thr.shape, dtype=int)
    picks, parent, count = [np.ones(thr.shape, dtype=bool)], [np.zeros(0, dtype=int)], 1
    for k in range(1, grid.depth + 1):
        chain, thr, owner = _refine(chain, d), _refine(thr, d), _refine(owner, d)
        np.maximum(chain, vector_lp[k], out=chain)
        sel = np.asarray(space.norm(chain)) > thr
        parent.append(owner[sel])
        owner[sel] = count + np.arange(len(parent[-1]))
        count += len(parent[-1])
        thr[sel] = c * scalar_lp[k][sel]
        chain[sel] = vector_lp[k][sel]
        picks.append(sel)
    return picks, np.concatenate(parent)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def family_to_json(family: SparseFamily) -> str:
    """JSON of a family: eta, its cubes in family order (all shift 0), one
    certificate entry per cube with witness cells, in family order, and the
    certificate depth."""
    cells, bounds = family.cells.tolist(), family.offsets.tolist()
    cubes = [{"level": k, "index": m, "shift": 0} for k, m in zip(family.level.tolist(), family.index.tolist())]
    certificate = [{"cube": i, "cells": cells[a:b]} for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]
    depth = int(family.certificate_depth)
    return json.dumps({"eta": float(family.eta), "cubes": cubes, "certificate": certificate, "depth": depth})


def family_from_json(text: str) -> SparseFamily:
    """The family of a ``family_to_json`` text; a certificate entry must name
    a listed cube by its position, at most once."""
    eta, listed, entered, depth = entries("family", json.loads(text), "eta", "cubes", "certificate", "depth")
    cubes = [
        Cube(k, tuple(json_list("cube index", m)), s)
        for k, m, s in (entries("cube", c, "level", "index", "shift") for c in json_list("cubes", listed))
    ]
    positions = interval(0, len(cubes), lo_closed=True)
    pairs = [entries("certificate", entry, "cube", "cells") for entry in json_list("certificate", entered)]
    at = [check("certificate cube", i, positions, integer=True) for i, _ in pairs]
    distinct("certificate cubes", at)
    certificate = [[] for _ in cubes]
    for i, (_, cells) in zip(at, pairs):
        certificate[i] = json_list("certificate cells", cells)
    return SparseFamily.from_cubes(cubes, eta, certificate, depth)
