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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

import numpy as np

from ._checks import EXPONENT, FINITE, UNIT, check, interval, one_per
from .dyadic import Cube, Grid, cube_averages, grid_norm, level_averages, level_products
from .maximal import _check_convexity, lattice_maximal
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
    """A cube family with sparseness parameter and optional cell certificate.

    certificate maps each cube to the flat ids (row-major ints) of finest
    cells at ``certificate_depth`` (at most 31) forming its disjoint witness
    set E_Q.
    """

    cubes: list[Cube]
    eta: float = 0.5
    certificate: dict[Cube, list[int]] = field(default_factory=dict)
    certificate_depth: int = 0

    def __post_init__(self):
        check("eta", self.eta, UNIT)
        check("certificate_depth", self.certificate_depth, _CELL_DEPTHS, integer=True)

    def check_certificate(self) -> bool:
        """One witness set of distinct cells per family cube: disjoint, contained, large enough.

        False unless the certificate's keys are the family's cubes, each once,
        and these are shift-0 cubes of one dimension inside the unit cube, no
        finer than ``certificate_depth``.  All witness cells are checked in one
        pass: int ids in range, one sort for repeats within and across the
        sets, containment as cell >> (depth - level) == index axis by axis,
        and each set's size against its demand ceil(eta |Q|) in cells, as
        integers.
        """
        cert, depth = self.certificate, self.certificate_depth
        if len(cert) != len(self.cubes) or set(cert) != set(self.cubes):
            return False
        if not cert:
            return True
        try:
            table = np.array(_family_rows(list(cert)))
        except ValueError:
            return False
        d, level, index, n = table.shape[1] - 1, table[:, 0], table[:, 1:].T, 1 << depth
        cells = np.array(list(chain.from_iterable(cert.values())))  # float64 when there are none
        if level.max() > depth or cells.dtype.kind != "i" or cells.min() < 0 or cells.max() >= n**d:
            return False
        sizes = np.array([len(c) for c in cert.values()])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        for axis, m in enumerate(index):
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
    """A Hall violator: cubes whose demand exceeds their union's measure."""

    cubes: list[Cube]
    demand: Fraction
    available: Fraction
    eta: float
    depth: int


def _family_rows(cubes: Sequence[Cube]) -> list[tuple[int, ...]]:
    """(level, *index) per cube when the cubes are distinct shift-0 cubes of
    one dimension inside the unit cube; else a named refusal."""
    rows = [(q.level, *q.index) for q in cubes if not q.shift]
    if len(rows) < len(cubes):
        raise ValueError("sparseness verification supports the standard lattice only")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("cubes must share one dimension")
    if min(map(min, rows)) < 0 or any(m >> r[0] for r in rows for m in r[1:]):
        bad = next(q for q, r in zip(cubes, rows) if min(r) < 0 or any(m >> r[0] for m in r[1:]))
        raise ValueError(f"cube indices must be in [0, 2^level), got {bad}")
    if len(set(rows)) < len(rows):
        again = next(q for i, q in enumerate(cubes) if q in cubes[:i])
        raise ValueError(f"cubes must be distinct, got {again} more than once")
    return rows


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
    unit cube.  The demand eta |Q| must be an integer number of cells at the
    working depth, which is refined automatically for dyadic eta; other eta
    values cannot be resolved on any dyadic refinement and raise.

    One sweep visits the levels that hold family cubes, deepest first, and
    treats a level's cubes at once: a row per cube holds its block's flat
    ids (row-major, so increasing), a cumsum counts the row's free cells,
    and the cube takes the lowest eta |Q| = num 2^(d k) / den of them (k
    levels above the cells).  As the deeper levels all packed, a block's
    count is |P| less its family descendants' demands: the packing
    condition.  The first cube of the level, in input order, that falls
    short is refuted together with its family descendants: their demand
    exceeds |P|, which contains all their cells.  Cubes of one level are
    disjoint, so this is the family, certificate and refutation of a walk
    over the cubes one at a time, deepest level first and input order
    within a level (the oracle in ``tests/oracles.py``).
    """
    cubes = list(cubes)
    if not cubes:
        return SparseFamily([], eta, {}, 0)
    rows = _family_rows(cubes)
    d, frac = len(rows[0]) - 1, Fraction(eta)
    depth = certificate_depth(d, max(r[0] for r in rows), eta)
    at_level: dict[int, list[tuple[int, int]]] = {}  # each cube's position and first cell
    for i, (k, *index) in enumerate(rows):
        first = 0
        for m in index:
            first = first << depth | m << depth - k
        at_level.setdefault(k, []).append((i, first))

    free = np.ones(1 << d * depth, dtype=bool)  # by flat id
    flat = np.arange(free.size).reshape((1 << depth,) * d)
    taken = [None] * len(cubes)
    for k in sorted(at_level, reverse=True):
        (at, firsts), b = zip(*at_level[k]), depth - k
        demand = (frac.numerator << d * b) // frac.denominator
        ids = np.add.outer(firsts, flat[(slice(1 << b),) * d].ravel())
        ok = free[ids]
        count = np.add.accumulate(ok, axis=1, dtype=int)  # ok.cumsum, less overhead
        mine = ids[ok & (count <= demand)]
        if mine.size < len(at) * demand:  # a cube short of its demand
            top = rows[at[np.argmax(count[:, -1] < demand)]]
            inside = [i for i, (j, *ix) in enumerate(rows) if j >= k and [m >> j - k for m in ix] == [*top[1:]]]
            owned = sum(1 << d * (depth - rows[i][0]) for i in inside)
            violator, total = [cubes[i] for i in inside], frac * Fraction(owned, 1 << d * depth)
            return SparseRefutation(violator, total, Fraction(1, 1 << d * k), eta, depth)
        free[mine] = False
        for i, own in zip(at, mine.reshape(len(at), demand).tolist()):
            taken[i] = own
    return SparseFamily(cubes, eta, dict(zip(cubes, taken)), depth)


def sparse_form(
    family: SparseFamily | Sequence[Cube],
    grid: Grid,
    fs: Sequence[np.ndarray],
    rs: Sequence[float],
    g: np.ndarray | None = None,
    sigma: float | None = None,
    q: float = 1.0,
) -> float:
    """( sum_Q (prod_j <f_j>_{r_j,Q})^q <g>_{sigma,Q}^q |Q| )^(1/q), exact.

    q lies in (0, inf) and sigma, which defaults to q, in (0, inf].
    """
    cubes = family.cubes if isinstance(family, SparseFamily) else list(family)
    check("q", q, FINITE)
    if g is not None and sigma is not None:
        check("sigma", sigma, EXPONENT)
    fs, rs = list(fs), list(rs)
    if g is not None:
        fs, rs = fs + [g], rs + [q if sigma is None else sigma]
    one_per("exponent", "function", rs, fs)
    total = 0.0
    for cube, term in zip(cubes, cube_averages(grid, fs, rs, cubes)):
        total += float(term) ** q * cube.measure
    return total ** (1.0 / q)


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
    """
    check("eta", eta, UNIT)
    if grid.shift:
        raise ValueError("sparse forms are optimized on the standard lattice only")
    lp = level_products(grid, fs, rs)
    contrib = [lp[k] * 2.0 ** (-grid.d * k) for k in range(grid.depth + 1)]
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
    level, index, code = _selected(picks, grid.depth)
    values = np.concatenate([c[sel] for c, sel in zip(contrib, picks)])
    if mode == "exact":
        order = np.argsort(-values, kind="stable")
    else:  # descending Z-order of the last finest cell, then by level
        order = np.lexsort((level, -(code + (1 << grid.d * (grid.depth - level)) - 1)))
    value = float(np.cumsum(np.concatenate(([0.0], values[order])))[-1])  # left to right; np.sum pairs
    family = verify_sparse(_cubes(level, index, order), eta)
    if not isinstance(family, SparseFamily):
        raise AssertionError(f"{mode} family failed sparseness verification")
    return value, family


def _knapsack_picks(contrib: Sequence[np.ndarray], d: int, eta: Fraction) -> list[np.ndarray]:
    """Per-level masks of the exact optimum of ``optimal_sparse_form``: the
    leaves' children hold empty selections, and loads past |Q|/eta are cut."""
    depth = len(contrib) - 1
    kids = [tuple(slice(b, None, 2) for b in e) for e in product((0, 1), repeat=d)]
    g, steps = np.zeros((2 << depth,) * d + (1,)), []
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
    load, picks = np.full((1,) * d, np.argmax(g)), []
    for cells, chosen, args in reversed(steps):
        picks.append(np.take_along_axis(chosen, load[..., None], axis=-1)[..., 0])
        rest, load = load - picks[-1] * cells, np.empty(tuple(2 * n for n in load.shape), dtype=int)
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
    component j's selected cubes at level k; ``stopping_cubes`` builds them.
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

    @property
    def stopping_cubes(self) -> list[list[Cube]]:
        """Each component's disjoint selected cubes, built from ``selections``
        on every read, in descending Z-order of their first finest cell."""
        found = (_selected(picks, len(picks) - 1) for picks in self.selections)
        return [_cubes(level, index, np.argsort(-code, kind="stable")) for level, index, code in found]


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
    the cover and the frozen values are refined one level at a time.  The
    masks are kept; ``stopping_cubes`` builds the disjoint cubes from them on
    read, in descending Z-order of their first finest cell (axis 0 high).

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
    """Levels, indices and first-cell Z-order codes of per-level masks.

    Cubes come level by level, row-major within a level.  The Z-order code
    interleaves the bits of the cube's first finest cell, axis 0 high.
    """
    found = [np.nonzero(sel) for sel in picks]
    level = np.repeat(np.arange(len(found)), [len(f[0]) for f in found])
    index = [np.concatenate(axis) for axis in zip(*found)]
    d = len(index)
    code = np.zeros(len(level), dtype=np.int64)
    for axis, m in enumerate(index):
        cell = m << (depth - level)
        for b in range(depth):
            code |= ((cell >> b) & 1) << (d * b + d - 1 - axis)
    return level, index, code


def _cubes(level: np.ndarray, index: Sequence[np.ndarray], order: np.ndarray) -> list[Cube]:
    indices = zip(*(m[order].tolist() for m in index))
    return [Cube(k, i) for k, i in zip(level[order].tolist(), indices)]


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

    ratios maps each selected cube to the worst cell ratio of the lattice
    maximal function's X-norm against c_stop times the q-aggregated sparse
    bound; all ratios are <= 1 when pointwise_ok.  c_stop is also the
    adaptive stand-in for the nonconstructive weak-type constant.
    """

    family: SparseFamily
    c_stop: float
    doublings: int
    ratios: dict[Cube, float]
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
    which makes the family 1/2-sparse by construction (still re-verified by
    ``verify_sparse``) and the pointwise bound holds cell by cell.

    Every generation is found in one top-down sweep over the levels (see
    ``_stopping_sweep``), with one X-norm call per level.  The family lists
    the cubes in the preorder of the stopping tree, children in ascending
    Z-order: sorted by the Z-order code of the first finest cell (axis 0 as
    the high bit), then by level.  The audit reads level arrays as well:
    a cell's sum of A(Q)^q is a running sum down the selection masks, and a
    cube's worst ratio the maximum over its block.
    """
    one_per("exponent", "function", rs, Fs)
    one_per("space", "function", spaces, Fs)
    Fs = [np.asarray(F, dtype=float) for F in Fs]
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
    selected = _cubes(level, index, order)
    family = verify_sparse(selected, 0.5)
    if not isinstance(family, SparseFamily):
        raise AssertionError("stopping family failed sparseness verification")

    M = lattice_maximal(grid, Fs, rs)
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
    # each selected cube's worst cell: block maxima, finest level first
    worst, top = [], cell_ratio
    for k in range(grid.depth, -1, -1):
        worst.append(top[picks[k]])
        if k:
            top = top.reshape(sum(((n // 2, 2) for n in top.shape), ())).max(axis=tuple(range(1, 2 * grid.d, 2)))
    ratios = dict(zip(selected, np.concatenate(worst[::-1])[order].tolist()))
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
    cubes = family.cubes
    payload = {
        "eta": float(family.eta),
        "cubes": [
            {"level": q.level, "index": list(q.index), "shift": q.shift}
            for q in cubes
        ],
        "certificate": [
            {"cube": cubes.index(q), "cells": list(cells)}
            for q, cells in family.certificate.items()
        ],
        "depth": family.certificate_depth,
    }
    return json.dumps(payload)


def family_from_json(text: str) -> SparseFamily:
    obj = json.loads(text)
    cubes = [
        Cube(c["level"], tuple(c["index"]), c["shift"]) for c in obj["cubes"]
    ]
    certificate = {
        cubes[entry["cube"]]: list(entry["cells"]) for entry in obj["certificate"]
    }
    return SparseFamily(cubes, obj["eta"], certificate, obj["depth"])
