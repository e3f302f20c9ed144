"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is deliberately naive: python loops, exhaustive enumeration,
dense grids.  None of it calls the library's fast paths for the quantity it
checks, so agreement is evidence, not tautology.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from sparsedom._checks import need
from sparsedom.dyadic import (
    Cube,
    Grid,
    _axis_range,
    _check_cells,
    grid_norm,
    level_averages,
    level_products,
    shifted_grids,
)
from sparsedom import spaces, sparse
from sparsedom.maximal import check_tuple, scalar_maximal
from sparsedom.spaces import OrliczSpace, _nominal_exponent, _orlicz_split, harmonic_exponent, product_space
from sparsedom.sparse import (
    CZParts,
    SparseFamily,
    SparseRefutation,
    StoppingCertificate,
    StoppingFailure,
    certificate_depth,
)
from sparsedom.transfer import _random_cells, _signed_means, _vectorize, space_tuple
from sparsedom.weights import gap_exponent


# ---------------------------------------------------------------------------
# tree geometry of single cubes (the library works on level arrays)
# ---------------------------------------------------------------------------

def root(grid):
    """The level-0 cube of a shift-0 grid."""
    if grid.shift != 0:
        raise ValueError("shifted grids have no single root over [0,1)^d")
    return Cube(0, (0,) * grid.d, 0)


def parent(grid, cube):
    """The cube one level up on the cube's lattice, or None for level 0."""
    if cube.level == 0:
        return None
    k0 = cube.level - 1
    sign0 = 1 if k0 % 2 == 0 else -1
    index = tuple((m - sign0 * a) // 2 for m, a in zip(cube.index, cube.shift_digits))
    return Cube(k0, index, grid.shift)


def cube_slices(grid, cube):
    """Cell-array slices covered by a shift-0 cube."""
    if cube.shift != 0:
        raise ValueError("cell slices are defined for shift-0 cubes only")
    b = 1 << (grid.depth - cube.level)
    return tuple(slice(m * b, (m + 1) * b) for m in cube.index)


# ---------------------------------------------------------------------------
# covering oracle: minimal containing cube over all shifted grids
# ---------------------------------------------------------------------------

def minimal_container(lower, side, d, max_depth):
    """Smallest shifted dyadic cube containing (lower, side), by enumeration.

    Scans every cube of every one-third-shifted grid up to max_depth and
    returns one of minimal measure containing the target, or None.
    """
    lower = [Fraction(x) for x in lower]
    side = Fraction(side)
    best = None
    for grid in shifted_grids(d, max_depth):
        for cube in grid.cubes():
            if cube.contains(lower, side):
                if best is None or cube.level > best.level:
                    best = cube
    return best


# ---------------------------------------------------------------------------
# naive averages (any lattice) and maximal function (shift-0 cubes)
# ---------------------------------------------------------------------------

def naive_average(values, r, level, m, depth):
    """<f>_{r,Q} for Q = 2^-level([0,1)+m) by direct summation, d=1."""
    block = 2 ** (depth - level)
    cells = list(range(m * block, (m + 1) * block))
    if r == float("inf"):
        return max(abs(values[i]) for i in cells)
    s = sum(abs(values[i]) ** r for i in cells) / len(cells)
    return s ** (1.0 / r)


def naive_scalar_maximal(fs, rs, cubes, depth):
    """Pointwise sup over shift-0 cubes of the product of r_j-averages, d in {1, 2}."""
    fs = [np.asarray(f, dtype=float) for f in fs]
    out = np.zeros(fs[0].shape)
    for cell in np.ndindex(*out.shape):
        for cube in cubes:
            block = 2 ** (depth - cube.level)
            if any(i // block != m for i, m in zip(cell, cube.index)):
                continue
            inside = [
                tuple(m * block + o for m, o in zip(cube.index, offset))
                for offset in np.ndindex(*(block,) * len(cell))
            ]
            prod = 1.0
            for f, r in zip(fs, rs):
                vals = [abs(f[c]) for c in inside]
                if r == math.inf:
                    prod *= max(vals)
                else:
                    prod *= (sum(v**r for v in vals) / len(vals)) ** (1.0 / r)
            out[cell] = max(out[cell], prod)
    return out


def naive_shifted_average(values, r, cube, depth):
    """<f>_{r,Q} for any shifted cube Q, cut down to [0,1)^d, d in {1, 2}.

    Each finest cell enters with the exact Fraction measure of its overlap
    with Q, taken per axis from Cube.support_exact; r = inf is the max over
    the cells that meet Q in positive measure.  Trailing axes of ``values``
    broadcast.
    """
    values = np.abs(np.asarray(values, dtype=float))
    n = 2**depth
    per_axis = []
    for lo, hi in cube.support_exact():
        per_axis.append([
            max(Fraction(0), min(hi, Fraction(i + 1, n)) - max(lo, Fraction(i, n)))
            for i in range(n)
        ])
    overlaps = {}
    for cell in product(range(n), repeat=cube.d):
        w = Fraction(1)
        for axis, i in enumerate(cell):
            w *= per_axis[axis][i]
        if w > 0:
            overlaps[cell] = w
    if r == float("inf"):
        return np.max([values[cell] for cell in overlaps], axis=0)
    total = sum(overlaps.values())
    acc = sum(float(w / total) * values[cell] ** r for cell, w in overlaps.items())
    return acc ** (1.0 / r)


# ---------------------------------------------------------------------------
# sparse families: Hall-condition feasibility, max-flow and exhaustive form optimum
# ---------------------------------------------------------------------------

def _cube_cells(cube, depth):
    """Set of flat finest-cell ids inside a shift-0 cube (d=1 or d=2)."""
    d = cube.d
    n = 2**depth
    block = 2 ** (depth - cube.level)
    ranges = [range(m * block, (m + 1) * block) for m in cube.index]
    if d == 1:
        return set(ranges[0])
    return {i * n + j for i in ranges[0] for j in ranges[1]}


def hall_feasible(cubes, eta, depth):
    """Exact sparseness by checking every subfamily's counting bound.

    Disjoint subsets E_Q with |E_Q| >= eta|Q| exist iff for every subfamily
    the total demand does not exceed the measure of its union.
    """
    cells = {cube: _cube_cells(cube, depth) for cube in cubes}
    cell_measure = Fraction(1, (2**depth) ** cubes[0].d) if cubes else None
    eta = Fraction(eta)
    for k in range(1, len(cubes) + 1):
        for sub in combinations(cubes, k):
            union = set().union(*(cells[q] for q in sub))
            demand = sum(
                eta * Fraction(1, (2**q.level) ** q.d) for q in sub
            )
            if demand > len(union) * cell_measure:
                return False
    return True


def flow_sparse(cubes, eta):
    """Sparseness by max-flow, a SparseFamily or SparseRefutation.

    The bipartite transversal problem: source -> cube (capacity eta|Q| in
    finest cells at the verifier's depth) -> each of its cells (capacity 1)
    -> sink (capacity 1).  Every demand saturates iff the family is
    eta-sparse; otherwise the cubes reachable from the source in the
    residual graph form a Hall violator (the min cut).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    cubes = list(cubes)
    d = cubes[0].d
    frac = Fraction(eta)
    depth = certificate_depth(d, max(q.level for q in cubes), eta)
    ncells = (2**depth) ** d
    C = len(cubes)
    demands = [int(frac * 2 ** (d * (depth - q.level))) for q in cubes]
    cell_sets = [sorted(_cube_cells(q, depth)) for q in cubes]

    # nodes: 0 source, 1..C cubes, C+1..C+ncells cells, last = sink
    nodes = C + ncells + 2
    sink = nodes - 1
    rows, cols, caps = [], [], []

    def add_edge(u, v, c):
        rows.extend((u, v))
        cols.extend((v, u))
        caps.extend((c, 0))

    for i, dem in enumerate(demands):
        add_edge(0, 1 + i, dem)
    for i, cells in enumerate(cell_sets):
        for cell in cells:
            add_edge(1 + i, 1 + C + cell, 1)
    for cell in sorted(set().union(*map(set, cell_sets))):
        add_edge(1 + C + cell, sink, 1)

    graph = csr_matrix((caps, (rows, cols)), shape=(nodes, nodes), dtype=np.int32)
    graph.sum_duplicates()
    result = maximum_flow(graph, 0, sink)

    if result.flow_value == sum(demands):
        certificate = []
        for i in range(C):
            row = result.flow.getrow(1 + i)
            certificate.append(sorted(
                int(j) - 1 - C for j, fl in zip(row.indices, row.data) if fl > 0
            ))
        return SparseFamily.from_cubes(cubes, eta, certificate, depth)

    residual = graph - result.flow
    reach = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for pos in range(residual.indptr[u], residual.indptr[u + 1]):
            v = int(residual.indices[pos])
            if residual.data[pos] > 0 and v not in reach:
                reach.add(v)
                stack.append(v)
    violator = [q for i, q in enumerate(cubes) if 1 + i in reach]
    union = set().union(*(cell_sets[i] for i in range(C) if 1 + i in reach))
    demand = sum(frac * Fraction(1, (2**q.level) ** d) for q in violator)
    return SparseRefutation(*cube_arrays(violator), demand, Fraction(len(union), ncells), eta, depth)


def cube_arrays(cubes):
    """The level array and n x d index array of a nonempty ``Cube`` list, in order."""
    return np.array([q.level for q in cubes]), np.array([q.index for q in cubes])


def _require_standard(cubes):
    if any(q.shift != 0 for q in cubes):
        raise ValueError("sparseness verification supports the standard lattice only")
    ds = {q.d for q in cubes}
    if len(ds) != 1:
        raise ValueError("cubes must share one dimension")
    return ds.pop()


def _ancestor(Q, level):
    """The standard-lattice cube at ``level`` (<= Q.level) containing Q."""
    return Cube(level, tuple(m >> (Q.level - level) for m in Q.index))


def verify_sparse_walk(cubes, eta=0.5):
    """``sparse.verify_sparse`` one cube at a time, with one ``np.nonzero``
    per block and a ``Fraction`` demand per cube.

    Cubes are visited deepest level first (input order within a level), and
    each takes the eta |Q| lowest-indexed finest cells of its block that no
    earlier cube took.  The first cube P that finds fewer free cells than its
    demand is refuted together with its family descendants.  The family is
    built by ``SparseFamily.from_cubes``, which refuses repeated cubes.
    """
    cubes = list(cubes)
    if not cubes:
        return SparseFamily.from_cubes([], eta)
    d = _require_standard(cubes)
    frac = Fraction(eta)
    depth = certificate_depth(d, max(q.level for q in cubes), eta)

    free = np.ones((1 << depth,) * d, dtype=bool)
    taken = {}
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
                *cube_arrays(violator), total, Fraction(1, 2 ** (d * P.level)), eta, depth
            )
        free[cells] = False
        taken[i] = np.ravel_multi_index(cells, free.shape).tolist()
    certificate = [taken[i] for i in range(len(cubes))]
    return SparseFamily.from_cubes(cubes, eta, certificate, depth)


def check_certificate_sets(family):
    """``SparseFamily.check_certificate`` by Python sets, one cube at a time.

    A depth below a cube's level raises.
    """
    seen = set()
    eta = Fraction(family.eta)
    bounds = family.offsets.tolist()
    for cube, a, b in zip(family.cubes, bounds, bounds[1:]):
        cells = family.cells[a:b].tolist()
        if seen.intersection(cells) or len(set(cells)) < len(cells):
            return False
        seen.update(cells)
        if not set(cells) <= _cube_cells(cube, family.certificate_depth):
            return False
        need = eta * Fraction(2 ** (cube.d * (family.certificate_depth - cube.level)))
        if Fraction(len(cells)) < need:
            return False
    return True


def family_to_json_cubes(family):
    """``sparse.family_to_json`` from the ``Cube`` list: one certificate
    entry per cube whose slice of ``cells`` is not empty."""
    cubes = family.cubes
    bounds = family.offsets.tolist()
    payload = {
        "eta": float(family.eta),
        "cubes": [
            {"level": q.level, "index": list(q.index), "shift": q.shift}
            for q in cubes
        ],
        "certificate": [
            {"cube": i, "cells": family.cells[a:b].tolist()}
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if b > a
        ],
        "depth": family.certificate_depth,
    }
    return json.dumps(payload)


def carleson_constant(cubes):
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


def exhaustive_best_form(cube_values, eta, depth):
    """Maximize sum of per-cube values over eta-sparse subfamilies.

    cube_values: dict Cube -> contribution (already includes the |Q| factor).
    Brute force over all subsets, feasibility by hall_feasible.
    """
    cubes = [q for q, v in cube_values.items() if v > 0]
    best, best_family = 0.0, []
    for k in range(len(cubes) + 1):
        for sub in combinations(cubes, k):
            if sub and not hall_feasible(list(sub), eta, depth):
                continue
            value = sum(cube_values[q] for q in sub)
            if value > best:
                best, best_family = value, list(sub)
    return best, best_family


def knapsack_picks(contrib: Sequence[np.ndarray], d: int, eta: Fraction) -> list[np.ndarray]:
    """Per-level masks of the exact optimum of ``optimal_sparse_form``: the
    leaves' children hold empty selections, and loads past |Q|/eta are cut.

    The library's knapsack before it took a trailing input axis, verbatim:
    one input, contrib[k] of shape (2^k,)*d."""
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


def knapsack_picks_per_input(contrib, d, eta):
    """``sparse._knapsack_picks`` by ``knapsack_picks`` on one input at a
    time: contrib[k] has a trailing input axis, and so do the masks."""
    inputs = contrib[0].shape[-1]
    each = [knapsack_picks([c[..., b] for c in contrib], d, eta) for b in range(inputs)]
    return [np.stack(masks, axis=-1) for masks in zip(*each)]


@contextmanager
def knapsack_per_input():
    """Within the block, the exact optimizer solves each input's knapsack
    alone, by ``knapsack_picks``."""
    saved = sparse._knapsack_picks
    sparse._knapsack_picks = knapsack_picks_per_input
    try:
        yield
    finally:
        sparse._knapsack_picks = saved


# ---------------------------------------------------------------------------
# level arrays reduced and spread one level at a time, operators cube by cube
# ---------------------------------------------------------------------------

def signed_cells(rng, shape):
    """Test input: lognormal magnitudes, random signs, about a fifth exact zeros."""
    f = rng.lognormal(sigma=1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    f[rng.random(shape) < 0.2] = 0.0
    return f


def level_averages_padded(grid, f, r):
    """``dyadic.level_averages`` with one general block reduction for all lattices.

    Every level builds per-axis shapes, a padding window and per-axis counts,
    and shift 0 too goes through |f|^r and (.)^(1/r) at r = 1.
    """
    f = _check_cells(grid, f)
    if not (r > 0):
        raise ValueError(f"average exponent must be positive, got r={r}")
    trail = f.shape[grid.d:]
    power = np.abs(f) if math.isinf(r) else np.abs(f) ** r
    for axis, a in enumerate(grid.digits):
        if a:
            power = np.repeat(power, 3, axis=axis)
    blocks = tuple(range(1, 2 * grid.d, 2))
    out = {}
    for k in range(grid.depth + 1):
        shape, padded, window, counts = (), (), [], np.ones(())
        sign = 1 if k % 2 == 0 else -1
        for axis, a in enumerate(grid.digits):
            rng, size = _axis_range(k, a), power.shape[axis]
            ncubes, block = len(rng), (3 if a else 1) << (grid.depth - k)
            lo = -(3 * rng.start + sign * a) << (grid.depth - k)
            shape += (ncubes, block)
            padded += (ncubes * block,)
            window.append(slice(lo, lo + size))
            if grid.shift:
                edges = np.clip(np.arange(ncubes + 1) * block - lo, 0, size)
                counts = np.multiply.outer(counts, np.diff(edges))
            else:
                counts = counts * block
        x = power
        if grid.shift:
            x = np.zeros(padded + trail)
            x[tuple(window)] = power
        x = x.reshape(shape + trail)
        if math.isinf(r):
            out[k] = x.max(axis=blocks)
        else:
            counts = counts.reshape(counts.shape + (1,) * len(trail))
            out[k] = (x.sum(axis=blocks) / counts) ** (1.0 / r)
    return out


def upsample(grid, arr, level):
    """A shift-0 level array onto the finest cells; trailing axes ride along."""
    b = 1 << (grid.depth - level)
    out = np.repeat(arr, b, axis=0)
    if grid.d == 2:
        out = np.repeat(out, b, axis=1)
    return out


def scalar_maximal_upsampled(grid, fs, rs):
    """``maximal.scalar_maximal`` over the full shift-0 tree, every level spread to the cells."""
    fs, trail = check_tuple(grid, fs)
    out = np.zeros(grid.cell_shape + trail)
    for k, prods in level_products(grid, fs, rs).items():
        np.maximum(out, upsample(grid, prods, k), out=out)
    return out


def cube_averages(grid, fs, rs, cubes):
    """Yield prod_j <f_j>_{r_j,Q} for each cube Q, looked up in level arrays.

    The cubes may come from any of the 3^d lattices; level products are
    built once for each lattice that occurs.
    """
    tables = {}
    for cube in cubes:
        if cube.d != grid.d or not 0 <= cube.level <= grid.depth:
            raise ValueError(f"{cube} lies off the d={grid.d} lattices of depth {grid.depth}")
        ranges = [_axis_range(cube.level, a) for a in cube.shift_digits]
        if any(m not in rng for m, rng in zip(cube.index, ranges)):
            raise ValueError(f"{cube} does not meet [0,1)^{grid.d}")
        if cube.shift not in tables:
            tables[cube.shift] = level_products(Grid(grid.d, grid.depth, cube.shift), fs, rs)
        yield tables[cube.shift][cube.level][tuple(m - rng.start for m, rng in zip(cube.index, ranges))]


def sparse_form_walk(family, grid, fs, rs, g=None, sigma=None, q=1.0):
    """``sparse.sparse_form`` cube by cube: each ``Cube`` of the family looked
    up by ``cube_averages``, its term times ``Cube.measure`` summed in order."""
    if g is not None:
        fs, rs = list(fs) + [g], list(rs) + [q if sigma is None else sigma]
    total = 0.0
    cubes = family.cubes
    for cube, term in zip(cubes, cube_averages(grid, fs, rs, cubes)):
        total += float(term) ** q * cube.measure
    return total ** (1.0 / q)


def sparse_apply_walk(T, grid, fs):
    """``SparseOperator.apply`` cube by cube: look up, bounds-check and slice each one."""
    if len(fs) != T.m:
        raise ValueError(f"model takes {T.m} functions, got {len(fs)}")
    fs, trail = check_tuple(grid, fs)
    out = np.zeros(grid.cell_shape + trail)
    cubes = T.family.cubes
    for cube, val in zip(cubes, cube_averages(grid, fs, T.rs, cubes)):
        out[cube_slices(grid, cube)] += val
    return out


def haar_apply_loop(T, grid, fs):
    """``HaarTransform.apply`` with every level of means and of signs
    spread to the cells before it is differenced and summed.

    Levels past the transform's sign arrays get an array of +1 each.
    """
    if len(fs) != 1:
        raise ValueError("Haar transform supports m = 1 only")
    fs, trail = check_tuple(grid, fs)
    if len(T.signs) > grid.depth:
        raise ValueError(f"sign at level {len(T.signs) - 1} has no children at depth {grid.depth}")
    means = _signed_means(grid, fs[0])
    out = upsample(grid, means[0], 0).copy()
    for k in range(grid.depth):
        detail = upsample(grid, means[k + 1], k + 1) - upsample(grid, means[k], k)
        signs = T.signs[k] if k < len(T.signs) else np.ones((1 << k,) * grid.d)
        s = upsample(grid, signs, k)
        out += s.reshape(s.shape + (1,) * len(trail)) * detail
    return out


def transfer_ratios_per_atom_count(T, grid, specs, q, s, ns, trials, seed):
    """The ratios of ``vv_transfer_check`` for one model, drawn atom count by
    atom count: the profile stream is reseeded for every n and the product
    space is rebuilt for every trial.  It checks the order of the draws, so
    it uses the library's draws, norms and maximal function as they are.
    """
    sigma = gap_exponent(q, s)
    out = {}
    for n in ns:
        factors = space_tuple(specs, n)
        rng_prof = np.random.default_rng((seed, 1))
        rng_dir = np.random.default_rng((seed, 2, n))
        ratios = []
        for _ in range(trials):
            profs = [_random_cells(rng_prof, grid) for _ in range(T.m)]
            g = np.abs(_random_cells(rng_prof, grid))
            Fs = [_vectorize(rng_dir, prof, sp.atom_shape) for prof, sp in zip(profs, factors)]
            lhs = grid_norm(grid, np.asarray(product_space(factors).norm(T.apply(grid, Fs))) * g, q)
            norms = [np.asarray(sp.norm(F)) for sp, F in zip(factors, Fs)]
            rhs = grid_norm(grid, scalar_maximal(grid, norms + [g], list(T.rs) + [sigma]), q)
            ratios.append(0.0 if rhs == 0 else lhs / rhs)
        out[n] = ratios
    return out


# ---------------------------------------------------------------------------
# Muckenhoupt characteristic over an explicit cube family
# ---------------------------------------------------------------------------

def muckenhoupt_over_cubes(ws, ps, rs, s, grid, cubes):
    """max over ``cubes`` of prod_j <w_j^-1>_{e_j,Q} * <w>_{e,Q}, exact.

    ``ws`` are positive cell arrays of one shape, and w is their product.
    The exponents are e_j = gap_exponent(r_j, p_j) and e = gap_exponent(p, s).
    A vanishing gap turns the corresponding average into an essential
    supremum (the inf-average branch), which is the definition's limit case.
    """
    ws = [np.asarray(w, dtype=float) for w in ws]
    if not len(ps) == len(rs) == len(ws):
        raise ValueError("ps, rs, and the weight tuple must share one length")
    for j, (p, r) in enumerate(zip(ps, rs), 1):
        need(f"r_{j}", r, "<=", f"p_{j}", p)
    p = harmonic_exponent(ps)
    need("p", p, "<=", "s", s)
    ejs = [gap_exponent(r, pj) for r, pj in zip(rs, ps)]
    winv = [1.0 / w for w in ws]
    product = np.prod(np.stack(ws), axis=0)
    vals = cube_averages(grid, [product, *winv], [gap_exponent(p, s), *ejs], cubes)
    return max((float(v) for v in vals), default=0.0)


# ---------------------------------------------------------------------------
# principal and stopping cubes by walking the tree one Cube at a time
# ---------------------------------------------------------------------------

def greedy_walk(fs, rs, grid, eta=0.5):
    """``optimal_sparse_form(mode="greedy")`` by a stack walk over
    ``Grid.children``.

    Pops the root first; a popped cube is selected when its product of
    averages more than doubles that of its nearest selected ancestor.  The
    family and the value's running sum follow the pop order.
    """
    lp = level_products(grid, fs, rs)
    rho = harmonic_exponent(rs)
    bound = 1 - 2.0**-rho
    den = 16
    while math.floor(bound * den) == 0 and den < 1024:
        den *= 2
    eta_g = min(eta, math.floor(bound * den) / den)
    if eta_g <= 0:
        raise ValueError(f"greedy guarantee {bound} too small to certify")
    selected = []
    stack = [(root(grid), float(lp[0].flat[0]), True)]
    value = 0.0
    while stack:
        cube, anchor, select_now = stack.pop()
        p = float(lp[cube.level][cube.index])
        if select_now or p > 2 * anchor:
            selected.append(cube)
            value += p * cube.measure
            anchor = p
        for child in grid.children(cube):
            stack.append((child, anchor, False))
    family = verify_sparse_walk(selected, eta_g)
    if not isinstance(family, SparseFamily):
        raise AssertionError("greedy family failed its sparseness guarantee")
    return value, family


def cz_decompose_walk(grid, fs, rs, lam):
    """``sparse.cz_decompose`` by a stack walk over ``Grid.children``.

    Pops the root, keeps a cube above its threshold, else pushes its
    children.  The selection masks are set from the kept cubes.
    """
    if not (lam > 0):
        raise ValueError(f"threshold must be positive, got {lam}")
    fs = [np.asarray(f, dtype=float) for f in fs]
    norms = [grid_norm(grid, f, r) for f, r in zip(fs, rs)]
    if any(c <= 0 for c in norms):
        raise ValueError("cannot normalize a vanishing component")
    fn = [f / c for f, c in zip(fs, norms)]
    r = harmonic_exponent(rs)
    thresholds = [lam ** (r / rj) for rj in rs]

    flat, averaged, good, level_sets, selections = [], [], [], [], []
    for f, rj, thr in zip(fn, rs, thresholds):
        lv = level_averages(grid, f, rj)
        selected = []
        stack = [root(grid)]
        while stack:
            cube = stack.pop()
            if float(lv[cube.level][cube.index]) > thr:
                selected.append(cube)
            else:
                stack.extend(grid.children(cube))
        frozen = {q: float(lv[q.level][q.index]) for q in selected}
        if selected == [root(grid)]:
            # climb the zero extension: each ancestor divides the average
            # by 2^(d/r_j); stop on the last level still above threshold
            a0, k = frozen[root(grid)], 0
            while a0 * 2.0 ** (-(k + 1) * grid.d / rj) > thr:
                k += 1
            frozen[root(grid)] = a0 * 2.0 ** (-k * grid.d / rj)
        mask = np.zeros(grid.cell_shape, dtype=bool)
        g2 = np.zeros(grid.cell_shape)
        picks = [np.zeros((1 << k,) * grid.d, dtype=bool) for k in range(grid.depth + 1)]
        for cube in selected:
            sl = cube_slices(grid, cube)
            mask[sl] = True
            g2[sl] = frozen[cube]
            picks[cube.level][cube.index] = True
        g1 = np.where(mask, 0.0, f)
        flat.append(g1)
        averaged.append(g2)
        good.append(g1 + g2)
        level_sets.append(mask)
        selections.append(picks)

    bad = np.prod(fn, axis=0) - np.prod(good, axis=0)
    return CZParts(
        good, flat, averaged, bad, level_sets, selections, lam, r, thresholds, norms
    )


def stopping_domination_walk(grid, Fs, rs, q, spaces, c_stop=1.0, max_doublings=20):
    """``sparse.stopping_domination`` by stack walks over ``Grid.children``.

    A frontier of selected cubes is popped depth first; below each one a
    stack walk carries the chain supremum and takes one X-norm per node,
    and the doubling restarts as soon as one cube fails the half test.
    """
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    if len(Fs) != len(rs) or len(spaces) != len(rs):
        raise ValueError("Fs, rs and spaces must align")
    for sp, r in zip(spaces, rs):
        if sp.convexity < r - 1e-12:
            raise ValueError(
                f"component space must be {r}-convex; its convexity is {sp.convexity}"
            )
    prod_space_X = product_space(spaces)
    if prod_space_X.convexity < q - 1e-12:
        raise ValueError(
            f"product space must be {q}-convex; its convexity is {prod_space_X.convexity}"
        )

    cellnorms = [np.asarray(sp.norm(F)) for sp, F in zip(spaces, Fs)]
    scalar_lp = level_products(grid, cellnorms, rs)
    vector_lp = level_products(grid, Fs, rs)

    def A(cube):
        return float(scalar_lp[cube.level][cube.index])

    def pvec(cube):
        return vector_lp[cube.level][cube.index]

    def xnorm(vec):
        return float(prod_space_X.norm(vec))

    c = float(c_stop)
    for doubling in range(max_doublings + 1):
        selected = []
        ok = True
        frontier = [root(grid)]
        while frontier and ok:
            Q = frontier.pop()
            selected.append(Q)
            threshold = c * A(Q)
            children = []
            stack = [(child, pvec(Q)) for child in grid.children(Q)]
            while stack:
                node, chain = stack.pop()
                chain = np.maximum(chain, pvec(node))
                if xnorm(chain) > threshold:
                    children.append(node)
                else:
                    for sub in grid.children(node):
                        stack.append((sub, chain))
            if sum(ch.measure for ch in children) > 0.5 * Q.measure:
                ok = False
                break
            frontier.extend(children)
        if ok:
            break
        c *= 2.0
    else:
        raise StoppingFailure(
            "stopping constant failed to stabilize; counterexample candidate",
            {"c_stop": c, "rs": list(rs), "q": q, "depth": grid.depth},
        )

    family = verify_sparse_walk(selected, 0.5)
    if not isinstance(family, SparseFamily):
        raise AssertionError("stopping family failed sparseness verification")

    ratios, pointwise_ok = stopping_audit(grid, Fs, rs, q, spaces, selected, c)
    return StoppingCertificate(family, c, doubling, ratios, pointwise_ok)


def stopping_audit(grid, Fs, rs, q, spaces, cubes, c):
    """(ratios, pointwise_ok) of a stopping family's cubes at constant c, by
    cube slices, from the X-norm of ``scalar_maximal`` built afresh."""
    prod_space_X = product_space(spaces)
    lhs = np.asarray(prod_space_X.norm(scalar_maximal(grid, Fs, rs)))
    scalar_lp = level_products(grid, [np.asarray(sp.norm(F)) for sp, F in zip(spaces, Fs)], rs)
    rhs_q = np.zeros(grid.cell_shape)
    for Q in cubes:  # top down along every chain, as the preorder lists them
        rhs_q[cube_slices(grid, Q)] += float(scalar_lp[Q.level][Q.index]) ** q
    rhs = rhs_q ** (1.0 / q)
    with np.errstate(invalid="ignore", divide="ignore"):
        cell_ratio = np.where(lhs > 0, lhs / (c * rhs), 0.0)
    ratios = np.array([cell_ratio[cube_slices(grid, Q)].max() for Q in cubes])
    return ratios, bool(np.all(cell_ratio <= 1 + 1e-9))


# ---------------------------------------------------------------------------
# dense-grid searches for Kothe duals and product norms (n <= 3)
# ---------------------------------------------------------------------------

def dual_norm_grid(norm, xi, npoints=400, refine=3):
    """sup { sum xi_i eta_i mu_i : norm(eta) <= 1 } by dense direction scan.

    norm must accept a numpy vector or a (k, n) batch of them and include
    the measure weights itself;
    the pairing weights are passed separately by the caller via xi (already
    multiplied by mu), so here we just scan directions eta >= 0.
    """
    xi = np.abs(np.asarray(xi, dtype=float))
    n = xi.size
    best = 0.0
    best_dir = None

    def value(direction):
        nrm = norm(direction)
        if nrm <= 0:
            return 0.0
        return float(np.dot(xi, direction) / nrm)

    if n == 1:
        e = np.ones(1)
        return value(e), e / norm(e)
    if n == 2:
        thetas = np.linspace(0.0, np.pi / 2, npoints)
        scan = np.column_stack([np.cos(thetas), np.sin(thetas)])
    else:
        ticks = np.linspace(0.0, 1.0, npoints // 6)
        scan = np.array([[u1, u2, 1.0 - u1 - u2] for u1 in ticks for u2 in ticks if u1 + u2 <= 1.0])
    nrm = np.asarray(norm(scan), dtype=float)
    vals = np.divide(scan @ xi, nrm, out=np.zeros(len(scan)), where=nrm > 0)
    i = int(np.argmax(vals))  # the first maximum, as a scan keeping strict gains
    if vals[i] > best:
        best, best_dir = float(vals[i]), scan[i]
    if best_dir is None:
        return 0.0, np.ones(n) / norm(np.ones(n))
    # local refinement around the best direction
    rng = np.random.default_rng(0)
    span = 4.0 / npoints
    for _ in range(refine):
        for _ in range(300):
            cand = np.clip(best_dir + span * rng.standard_normal(n), 0, None)
            if cand.sum() == 0:
                continue
            v = value(cand)
            if v > best:
                best, best_dir = v, cand
        span /= 4
    return best, best_dir / norm(best_dir)


def product_norm_grid(norm1, norm2, xi, span=8.0, npoints=161, refine=4):
    """inf { norm1(g) * norm2(xi/g) } over positive factorizations, m=2, n<=3.

    Scans log-space splits around the symmetric square-root factorization;
    the overall scale of g is fixed by homogeneity.
    """
    xi = np.abs(np.asarray(xi, dtype=float))
    pos = xi > 0
    n = int(pos.sum())
    if n == 0:
        return 0.0
    root = np.sqrt(xi[pos])

    def value(u):
        g = np.zeros_like(xi)
        h = np.zeros_like(xi)
        g[pos] = root * np.exp(u)
        h[pos] = root * np.exp(-u)
        return norm1(g) * norm2(h)

    free = n - 1  # one log-coordinate is fixed by scale invariance
    ticks = np.linspace(-span, span, npoints)
    best, best_u = np.inf, np.zeros(n)
    if free == 0:
        best, best_u = value(np.zeros(1)), np.zeros(1)
    else:
        for rest in product(ticks, repeat=free):
            u = np.array((0.0,) + rest)
            v = value(u)
            if v < best:
                best, best_u = v, u
    step = ticks[1] - ticks[0] if npoints > 1 else 1.0
    for _ in range(refine):
        grid1 = np.linspace(-step, step, 9)
        for delta in product(grid1, repeat=n):
            u = best_u + np.array(delta)
            v = value(u)
            if v < best:
                best, best_u = v, u
        step /= 4
    return float(best)


# ---------------------------------------------------------------------------
# the Orlicz level sets by geometric bisection
# ---------------------------------------------------------------------------

def bisect_level(excess, start, what):
    """Per entry, the upper end of a tight bracket of the root of ``excess``.

    excess(x) is decreasing, evaluated on whole arrays, and > 0 below the
    root.  The bracket [lo, hi] is found by doubling and halving from
    ``start`` (at most spaces._BRACKET_CAP times, else the ValueError of
    spaces naming ``what``), then narrowed by geometric midpoints, i.e.
    bisection in log x, until no entry moves.
    """
    cap = spaces._BRACKET_CAP

    def check_bracket(open_rows):
        if open_rows.any():
            raise ValueError(f"{what} not bracketed within {cap} doublings; Phi grows too slowly for this vector")

    hi = start.copy()
    for _ in range(cap):
        mask = excess(hi) > 0
        if not mask.any():
            break
        hi[mask] *= 2.0
    else:
        check_bracket(excess(hi) > 0)
    lo = start.copy()
    for _ in range(cap):
        mask = excess(lo) <= 0
        if not mask.any():
            break
        lo[mask] *= 0.5
    else:
        check_bracket(excess(lo) <= 0)
    for _ in range(120):
        mid = np.sqrt(lo * hi)
        high = excess(mid) > 0
        new_lo = np.where(high, mid, lo)
        new_hi = np.where(high, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break  # a fixed point: further steps repeat it
        lo, hi = new_lo, new_hi
    return hi


@contextmanager
def bisected_levels():
    """Within the block, spaces solves every Orlicz level set (the Luxemburg
    norm and the associate norm's k) by ``bisect_level`` on the same excess."""

    def solve(level, start, what):
        return bisect_level(lambda x: level(x, np.arange(x.size))[0], start, what)

    saved = spaces._solve_level
    spaces._solve_level = solve
    try:
        yield
    finally:
        spaces._solve_level = saved


# ---------------------------------------------------------------------------
# Luxemburg norm of one row, bisected on its own unscaled bracket
# ---------------------------------------------------------------------------

def luxemburg_norm_unscaled(space, row, bracket_cap=100, steps=120):
    """inf { lam : sum Phi(|row| / lam) mu <= 1 } by doubling out from the
    sup, then geometric bisection with midpoint sqrt(lo * hi), one row at a
    time.  Right wherever lo * hi stays a normal double."""
    a = np.abs(np.asarray(row, dtype=float))
    if not a.max() > 0:
        return 0.0

    def excess(lam):
        return float(np.sum(space.phi(a / lam) * space.measure.weights)) - 1.0

    hi = lo = float(a.max())
    for _ in range(bracket_cap):
        if excess(hi) <= 0:
            break
        hi *= 2.0
    for _ in range(bracket_cap):
        if excess(lo) > 0:
            break
        lo *= 0.5
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# the p-concavification, by its definition
# ---------------------------------------------------------------------------

def concavified_norm(space, p, xi):
    """||xi||_(X^p) = || |xi|^(1/p) ||_X^p, through the norm of X itself."""
    return np.asarray(space.norm(np.abs(np.asarray(xi, dtype=float)) ** (1.0 / p))) ** p


# ---------------------------------------------------------------------------
# the Amemiya norm of an Orlicz table, from the table alone
# ---------------------------------------------------------------------------

def young_conjugate(space, s):
    """Psi(s) = sup_t (s t - Phi(t)) for a convex tabulated Phi, per entry of s.

    Phi is Y (t/X)^a on each table segment and on the two extensions beyond
    the table; s t - Phi(t) is concave there, so its sup on a segment sits at
    the stationary point X (s X / (a Y))^(1/(a-1)) clipped to the segment.
    No (Phi')^{-1} is used.  A sup beyond the double range reads inf.
    """
    x, y = space.table[:, 0], space.table[:, 1]
    a = np.diff(np.log(y)) / np.diff(np.log(x))
    X = np.concatenate([x[:1], x[:-1], x[-1:]])
    Y = np.concatenate([y[:1], y[:-1], y[-1:]])
    A = np.concatenate([a[:1], a, a[-1:]])
    lo, hi = np.concatenate([[0.0], x]), np.concatenate([x, [math.inf]])
    s = np.asarray(s, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.clip(X * (s * X / (A * Y)) ** (1.0 / (A - 1.0)), lo, hi)
        gain = s * t - Y * (t / X) ** A
    return np.where(np.isnan(gain), math.inf, gain).max(axis=-1)


def amemiya_norm(space, xi, k_lo, k_hi):
    """min over k in [k_lo, k_hi] of (1 + sum Psi(k |xi|) mu) / k.

    Golden-section search in log k: the objective is convex in 1/k, so it
    has one minimum on the interval.  Every value it takes is an upper
    bound for the associate norm of the Luxemburg norm of Phi.
    """
    xi = np.abs(np.asarray(xi, dtype=float))

    def amemiya(lk):
        k = math.exp(lk)
        return (1.0 + float(np.sum(young_conjugate(space, k * xi) * space.measure.weights))) / k

    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(k_lo), math.log(k_hi)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = amemiya(c), amemiya(d)
    for _ in range(100):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = amemiya(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = amemiya(d)
    return min(fc, fd)


# ---------------------------------------------------------------------------
# the product search: its split by bisection, its restarts one after another
# ---------------------------------------------------------------------------

def orlicz_split_fixed_steps(spaces, flat, pos):
    """The inverse-Young factor list of product_norm, with 200 bisection steps."""
    vals = flat[pos]

    def prod_inv(y):
        acc = np.ones_like(y)
        with np.errstate(over="ignore"):  # inf still compares above every target
            for sp in spaces:
                acc = acc * sp.phi_inv(y)
        return acc

    lo, hi = np.log(np.full(vals.shape, 1e-300)), np.log(np.full(vals.shape, 1e300))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_big = prod_inv(np.exp(mid)) > vals
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    y = np.exp(0.5 * (lo + hi))
    gs = []
    for sp in spaces[:-1]:
        g = np.zeros_like(flat)
        g[pos] = sp.phi_inv(y)
        gs.append(g)
    return gs


def product_norm_sequential(spaces, xi, seed=0, restarts=8):
    """product_norm's coordinate descent, running its restarts one at a time.

    The search path only (two or more factors, not all Lebesgue).  Each
    restart sweeps factor by factor and atom by atom until a sweep improves
    nothing or 30 sweeps pass; the smallest value over restarts wins.  The
    inverse-Young split comes from the code under test: this oracle checks
    the restart schedule, and ``orlicz_split_fixed_steps`` checks the split.
    """
    spaces = list(spaces)
    xi = np.abs(np.asarray(xi, dtype=float))
    flat = xi.ravel()
    pos = np.flatnonzero(flat > 0)
    if pos.size == 0:
        return 0.0
    m = len(spaces)
    shape = spaces[0].atom_shape

    def norms_off(gs_fixed, skip):
        acc = 1.0
        for k, g in enumerate(gs_fixed):
            if k != skip and k != m - 1:
                acc *= float(spaces[k].norm(g.reshape(shape)))
        return acc

    def last_factor(gs):
        g = flat.copy()
        for k in range(m - 1):
            g[pos] = g[pos] / gs[k][pos]
        g[flat == 0] = 0.0
        return g

    def total(gs):
        glast = last_factor(gs)
        acc = float(spaces[m - 1].norm(glast.reshape(shape)))
        for k in range(m - 1):
            acc *= float(spaces[k].norm(gs[k].reshape(shape)))
        return acc

    inv = [1.0 / max(_nominal_exponent(sp), 1e-9) for sp in spaces]
    theta_nominal = np.array(inv) / sum(inv)
    splits = [theta_nominal, np.full(m, 1.0 / m)]
    if all(isinstance(sp, OrliczSpace) for sp in spaces):
        splits.append(_orlicz_split(spaces, flat, pos))
    rng = np.random.default_rng(seed)
    while len(splits) < restarts:
        splits.append(rng.dirichlet(np.ones(m)))

    factors = np.exp(np.linspace(-2.0, 2.0, 21))
    best = np.inf
    for split in splits[:restarts]:
        if isinstance(split, list):
            gs = [g.copy() for g in split[: m - 1]]
        else:
            gs = [np.where(flat > 0, flat ** float(split[k]), 0.0) for k in range(m - 1)]
        cur = total(gs)
        for _ in range(30):
            improved = False
            for k in range(m - 1):
                off = norms_off(gs, k)
                glast = last_factor(gs)
                for i in pos:
                    cands = gs[k][i] * factors
                    batch = np.repeat(gs[k][None, :], cands.size, axis=0)
                    batch[:, i] = cands
                    nk = np.asarray(spaces[k].norm(batch.reshape(-1, *shape)))
                    others = np.prod([gs[kk][i] for kk in range(m - 1) if kk != k])
                    lasts = np.repeat(glast[None, :], cands.size, axis=0)
                    lasts[:, i] = flat[i] / (cands * others)
                    nl = np.asarray(spaces[m - 1].norm(lasts.reshape(-1, *shape)))
                    vals = off * nk * nl
                    j = int(np.argmin(vals))
                    if vals[j] < cur * (1 - 1e-12):
                        cur = vals[j]
                        gs[k][i] = cands[j]
                        glast = last_factor(gs)
                        improved = True
            if not improved:
                break
        best = min(best, cur)
    return float(best)


# ---------------------------------------------------------------------------
# BHT region: full theta-grid scan
# ---------------------------------------------------------------------------

def theta_scan_full(r1, r2, s, resolution=1e-3):
    """Existence of theta in [0,1)^3, sum 1, with the three strict bounds.

    Full two-dimensional scan of the simplex at the given resolution.
    """
    sprime = s / (s - 1.0)
    b1 = 2.0 / r1 - 1.0
    b2 = 2.0 / r2 - 1.0
    b3 = 2.0 / sprime - 1.0
    steps = int(round(1.0 / resolution))
    for i in range(steps + 1):
        t1 = i * resolution
        if t1 >= 1.0 or t1 <= b1:
            continue
        for j in range(steps + 1 - i):
            t2 = j * resolution
            t3 = 1.0 - t1 - t2
            if t2 >= 1.0 or t3 < 0.0 or t3 >= 1.0:
                continue
            if t2 > b2 and t3 > b3:
                return True
    return False


def theta_scan(r1, r2, s, resolution=1e-3):
    """Same grid scan as theta_scan_full, vectorized row by row over theta_1.

    For a fixed grid value of theta_1 the admissible grid indices of theta_2
    form one integer interval, so existence is interval nonemptiness.  Near
    exact float coincidences the two scans can classify single grid points
    differently; callers keep the inputs away from the region boundary.
    """
    sprime = s / (s - 1.0)
    b1 = 2.0 / r1 - 1.0
    b2 = 2.0 / r2 - 1.0
    b3 = 2.0 / sprime - 1.0
    steps = int(round(1.0 / resolution))
    i = np.arange(steps + 1)
    t1 = i * resolution
    rows = (t1 < 1.0) & (t1 > b1)
    lo2 = int(np.floor(b2 / resolution)) + 1 if b2 >= 0.0 else 0
    j_lo = np.maximum(lo2, (i == 0).astype(int))  # theta_3 < 1 needs j >= 1 at i = 0
    j_hi = np.ceil((1.0 - t1 - b3) / resolution) - 1
    j_hi = np.minimum(j_hi, steps - i)            # theta_3 >= 0
    j_hi = np.minimum(j_hi, steps - 1)            # theta_2 < 1
    return bool(np.any(rows & (j_lo <= j_hi)))
