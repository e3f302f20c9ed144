"""Sparse families: exact verification, forms, optimization, CZ, stopping.

Sparseness of a cube family is decided exactly by one bottom-up pass over
the dyadic tree.  On one lattice, disjoint subsets E_Q with |E_Q| >= eta |Q|
exist iff every family cube P packs: eta * sum_{Q subseteq P} |Q| <= |P|
(the Carleson condition with constant 1/eta).  Deepest cubes first, each
cube takes eta |Q| free finest cells of its own; a cube that finds too few
refutes sparseness with itself and its family descendants as Hall violator.

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
from itertools import product
from typing import Sequence

import numpy as np

from ._checks import EXPONENT, FINITE, UNIT, check, one_per
from .dyadic import Cube, Grid, cube_averages, grid_norm, level_averages, level_products
from .maximal import _check_convexity, lattice_maximal, scalar_maximal
from .spaces import Space, harmonic_exponent, product_space

__all__ = [
    "SparseFamily",
    "SparseRefutation",
    "CZParts",
    "StoppingCertificate",
    "StoppingFailure",
    "verify_sparse",
    "certificate_depth",
    "carleson_constant",
    "sparse_form",
    "optimal_sparse_form",
    "GREEDY_FACTOR",
    "cz_decompose",
    "stopping_domination",
    "form_bound_from_pointwise",
    "family_to_json",
    "family_from_json",
]

# the greedy principal-cubes family realizes at least this fraction of
# ||M(f)||_{L^1}; combined with the exact optimum <= 2 ||M||_{L^1} it gives
# the 1/4 guarantee against the exact mode
GREEDY_FACTOR = 0.5

_VERIFY_DEPTH_CAP = {1: 18, 2: 9}


@dataclass
class SparseFamily:
    """A cube family with sparseness parameter and optional cell certificate.

    certificate maps each cube to the flat ids of finest cells (at
    ``certificate_depth``) forming its disjoint witness set E_Q.
    """

    cubes: list[Cube]
    eta: float = 0.5
    certificate: dict[Cube, list[int]] = field(default_factory=dict)
    certificate_depth: int = 0

    def __post_init__(self):
        check("eta", self.eta, UNIT)

    def check_certificate(self) -> bool:
        """One witness set of distinct cells per family cube: disjoint, contained, large enough."""
        if set(self.certificate) != set(self.cubes):
            return False
        seen: set[int] = set()
        eta = Fraction(self.eta)
        for cube, cells in self.certificate.items():
            if seen.intersection(cells) or len(set(cells)) < len(cells):
                return False
            seen.update(cells)
            owned = _cells_under(cube, self.certificate_depth)
            if not set(cells) <= owned:
                return False
            need = eta * Fraction(2 ** (cube.d * (self.certificate_depth - cube.level)))
            if Fraction(len(cells)) < need:
                return False
        return True


@dataclass
class SparseRefutation:
    """A Hall violator: cubes whose demand exceeds their union's measure."""

    cubes: list[Cube]
    demand: Fraction
    available: Fraction
    eta: float
    depth: int


def _cells_under(cube: Cube, depth: int) -> set[int]:
    """Flat ids of depth-``depth`` cells inside a shift-0 cube."""
    block = 1 << (depth - cube.level)
    n = 1 << depth
    ranges = [range(m * block, (m + 1) * block) for m in cube.index]
    if cube.d == 1:
        return set(ranges[0])
    return {i * n + j for i in ranges[0] for j in ranges[1]}


def _require_standard(cubes: Sequence[Cube]) -> int:
    if any(q.shift != 0 for q in cubes):
        raise ValueError("sparseness verification supports the standard lattice only")
    ds = {q.d for q in cubes}
    if len(ds) != 1:
        raise ValueError("cubes must share one dimension")
    return ds.pop()


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
        raise ValueError(
            f"certificate depth {depth} exceeds the d={d} resolution cap"
        )
    return depth


def verify_sparse(cubes: Sequence[Cube], eta: float = 0.5):
    """Decide eta-sparseness exactly; SparseFamily or SparseRefutation.

    The demand eta |Q| must be an integer number of cells at the working
    depth, which is refined automatically for dyadic eta; other eta values
    cannot be resolved on any dyadic refinement and raise.

    Certificate rule: cubes are visited deepest level first (input order
    within a level), and each takes the eta |Q| lowest-indexed finest cells
    of its block that no earlier cube took.  The first cube P that finds
    fewer free cells than its demand is refuted together with its family
    descendants: their demand exceeds |P|, which contains all their cells.
    """
    cubes = list(cubes)
    if not cubes:
        return SparseFamily([], eta, {}, 0)
    d = _require_standard(cubes)
    frac = Fraction(eta)
    depth = certificate_depth(d, max(q.level for q in cubes), eta)

    free = np.ones((1 << depth,) * d, dtype=bool)
    taken: dict[int, list[int]] = {}
    for i in sorted(range(len(cubes)), key=lambda i: -cubes[i].level):
        P = cubes[i]
        k = depth - P.level
        demand = int(frac * 2 ** (d * k))
        block = tuple(slice(m << k, (m + 1) << k) for m in P.index)
        # nonzero lists the free cells of the block in row-major order,
        # which is increasing flat id
        cells = tuple(
            axis[:demand] + (m << k) for axis, m in zip(np.nonzero(free[block]), P.index)
        )
        if len(cells[0]) < demand:
            violator = [
                Q for Q in cubes if Q.level >= P.level and _ancestor(Q, P.level) == P
            ]
            total = sum(frac * Fraction(1, 2 ** (d * Q.level)) for Q in violator)
            return SparseRefutation(
                violator, total, Fraction(1, 2 ** (d * P.level)), eta, depth
            )
        free[cells] = False
        taken[i] = np.ravel_multi_index(cells, free.shape).tolist()
    certificate = {q: taken[i] for i, q in enumerate(cubes)}
    return SparseFamily(cubes, eta, certificate, depth)


def _ancestor(Q: Cube, level: int) -> Cube:
    """The standard-lattice cube at ``level`` (<= Q.level) containing Q."""
    return Cube(level, tuple(m >> (Q.level - level) for m in Q.index))


def carleson_constant(cubes: Sequence[Cube] | SparseFamily) -> float:
    """max_P sum_{Q subseteq P} |Q| / |P| over the family (packing constant)."""
    if isinstance(cubes, SparseFamily):
        cubes = cubes.cubes
    cubes = list(cubes)
    if not cubes:
        return 0.0
    _require_standard(cubes)
    # each cube adds its measure to every family ancestor, itself included
    packed = {P: 0.0 for P in cubes}
    for Q in cubes:
        for level in range(Q.level + 1):
            P = _ancestor(Q, level)
            if P in packed:
                packed[P] += Q.measure
    return max(tot / P.measure for P, tot in packed.items())


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
    value = float(np.cumsum(np.r_[0.0, values[order]])[-1])  # left to right; np.sum pairs
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
    product remainder prod f_j - prod good[j].
    """

    good: list[np.ndarray]
    flat: list[np.ndarray]
    averaged: list[np.ndarray]
    bad: np.ndarray
    level_sets: list[np.ndarray]
    stopping_cubes: list[list[Cube]]
    threshold: float
    r: float
    component_thresholds: list[float]
    norms: list[float]


def cz_decompose(
    grid: Grid,
    fs: Sequence[np.ndarray],
    rs: Sequence[float],
    lam: float,
    norms: Sequence[float] | None = None,
) -> CZParts:
    """Maximal-cube decomposition: <f_j>_{r_j,Q} > lam^{r/r_j} selection.

    Components are normalized to ||f_j||_{L^{r_j}} = 1 (using supplied norms
    when given); lam and every norm lie in (0, inf).  Selected cubes are the
    maximal ones exceeding the component threshold; the averaged part
    freezes the cube average there.  They are found in one top-down sweep
    over the levels: at level k the selection is the exceeding cubes not
    covered by a coarser selection, and the cover and the frozen values are
    refined one level at a time.
    ``stopping_cubes`` lists the disjoint cubes in descending Z-order of
    their first finest cell (axis 0 as the high bit).

    The lattice is the full one of the zero extension beyond the window, so
    when the root average exceeds the threshold the selected cube is the
    maximal qualifying ancestor and the frozen value is its decayed average
    root * 2^(-k d / r_j); this keeps the doubling bound on the averaged
    part at every threshold, not just above 2^(-d/r).
    """
    check("lam", lam, FINITE)
    one_per("exponent", "function", rs, fs)
    fs = [np.asarray(f, dtype=float) for f in fs]
    if norms is None:
        norms = [grid_norm(grid, f, r) for f, r in zip(fs, rs)]
    norms = [check(f"norm of f_{j}", float(c), FINITE) for j, c in enumerate(norms, 1)]
    fn = [f / c for f, c in zip(fs, norms)]
    r = harmonic_exponent(rs)
    thresholds = [lam ** (r / rj) for rj in rs]
    d = grid.d

    flat, averaged, good, level_sets, stop_cubes = [], [], [], [], []
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
        level, index, code = _selected(picks, grid.depth)
        g1 = np.where(covered, 0.0, f)
        flat.append(g1)
        averaged.append(frozen)
        good.append(g1 + frozen)
        level_sets.append(covered)
        stop_cubes.append(_cubes(level, index, np.argsort(-code, kind="stable")))

    bad = np.prod(fn, axis=0) - np.prod(good, axis=0)
    return CZParts(
        good, flat, averaged, bad, level_sets, stop_cubes, lam, r, thresholds, norms
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
    level = np.concatenate([np.full(len(f[0]), k) for k, f in enumerate(found)])
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
    the high bit), then by level.
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
        level, index, code = _selected(picks, grid.depth)
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

    selected = _cubes(level, index, np.lexsort((level, code)))
    family = verify_sparse(selected, 0.5)
    if not isinstance(family, SparseFamily):
        raise AssertionError("stopping family failed sparseness verification")

    M = lattice_maximal(grid, Fs, rs)
    lhs = np.asarray(prod_space_X.norm(M))
    rhs_q = np.zeros(grid.cell_shape)
    for Q in selected:
        rhs_q[grid.cube_slices(Q)] += float(scalar_lp[Q.level][Q.index]) ** q
    rhs = rhs_q ** (1.0 / q)
    with np.errstate(invalid="ignore", divide="ignore"):
        cell_ratio = np.where(lhs > 0, lhs / (c * rhs), 0.0)
    ratios = {
        Q: float(cell_ratio[grid.cube_slices(Q)].max()) for Q in selected
    }
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


def form_bound_from_pointwise(
    grid: Grid,
    T_values: np.ndarray,
    fs: Sequence[np.ndarray],
    g: np.ndarray,
    rs: Sequence[float],
    q: float,
) -> float:
    """||T(f) g||_{L^q} divided by ||M_{(r,q)}(f,g)||_{L^q}."""
    num = grid_norm(grid, np.asarray(T_values, dtype=float) * np.asarray(g), q)
    M = scalar_maximal(grid, list(fs) + [np.asarray(g, dtype=float)], list(rs) + [q])
    den = grid_norm(grid, M, q)
    if den == 0:
        if num == 0:
            return 0.0
        raise ValueError("maximal side vanishes while the operator side does not")
    return num / den


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
