"""Dyadic substrate: grids, covering, averages, serialization."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom.dyadic import (
    MAX_DEPTH,
    Cube,
    Grid,
    _family_products,
    _shifted_layout,
    average,
    function_from_csv,
    function_from_json,
    function_to_csv,
    function_to_json,
    grid_norm,
    level_averages,
    level_products,
    shifted_grids,
)

import oracles
from oracles import ShiftedCube, cover_cube


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_counts():
    assert Grid(1, 0, 0).ncubes() == 1
    assert Grid(1, 2, 0).ncubes() == 7  # 1 + 2 + 4
    assert Grid(2, 1, 0).ncubes() == 5  # 1 + 4
    # the count builds no cube, yet matches the enumeration on every lattice
    for d in (1, 2):
        for depth in (2, 3):
            for grid in shifted_grids(d, depth):
                assert grid.ncubes() == len(oracles.shifted_cubes(grid))
            assert Grid(d, depth).ncubes() == len(list(Grid(d, depth).cubes()))


def test_a_cube_has_no_shift():
    # a Cube is (level, index) on the standard lattice; a shift is a Grid's
    with pytest.raises(TypeError):
        Cube(1, (0,), 1)
    assert [f.name for f in dataclasses.fields(Cube)] == ["level", "index"]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 2, 0)
    with pytest.raises(ValueError):
        Grid(1, 13, 0)
    with pytest.raises(ValueError):
        Grid(2, 7, 0)
    with pytest.raises(ValueError):
        Grid(1, 2, 3)
    with pytest.raises(ValueError):
        Grid(2, 2, 9)


def test_cells_partition_unit_interval():
    grid = Grid(1, 3, 0)
    cells = oracles.shifted_level_cubes(grid, 3)
    endpoints = sorted(c.support_exact()[0] for c in cells)
    assert endpoints[0][0] == 0
    assert endpoints[-1][1] == 1
    for (lo1, hi1), (lo2, hi2) in zip(endpoints, endpoints[1:]):
        assert hi1 == lo2


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha_axis", [0, 1, 2])
def test_children_tile_parent_exactly(d, alpha_axis):
    # exact rational check that the 2^d index-children tile each parent
    alpha = alpha_axis * sum(3**i for i in range(d)) if alpha_axis else 0
    grid = Grid(d, 3 if d == 1 else 2, alpha)
    for cube in oracles.shifted_cubes(grid):
        if cube.level == grid.depth:
            continue
        kids = oracles.shifted_children(grid, cube)
        if not alpha:
            assert oracles.as_shifted(grid.children(Cube(cube.level, cube.index))) == kids
        # full index-space children, ignoring the unit-cube clipping
        total = sum(Fraction(1, (2 ** (cube.level + 1)) ** d) for _ in kids)
        clipped = Fraction(1, (2**cube.level) ** d) - total
        assert 0 <= clipped <= Fraction(1, (2**cube.level) ** d)
        for kid in kids:
            assert oracles.parent(grid, kid) == cube
            for (plo, phi), (klo, khi) in zip(
                cube.support_exact(), kid.support_exact()
            ):
                assert plo <= klo and khi <= phi


def test_shifted_grid_cube_meets_domain():
    for grid in shifted_grids(1, 4):
        for cube in oracles.shifted_cubes(grid):
            (lo, hi), = cube.support_exact()
            assert lo < 1 and hi > 0


# ---------------------------------------------------------------------------
# three-lattice covering
# ---------------------------------------------------------------------------

def test_cover_dyadic_identity():
    # a standard dyadic cube is covered by itself at ratio 1
    alpha, cube = cover_cube([Fraction(1, 4)], Fraction(1, 4))
    assert alpha == 0
    assert cube == ShiftedCube(2, (1,), 0)
    alpha, cube = cover_cube([Fraction(1, 2), Fraction(1, 2)], Fraction(1, 2))
    assert alpha == 0
    assert cube == ShiftedCube(1, (1, 1), 0)


def test_cover_half_interval_example():
    # [1/4, 3/4) needs a container of length <= 3 * (1/2)
    alpha, cube = cover_cube([Fraction(1, 4)], Fraction(1, 2))
    assert cube.contains([Fraction(1, 4)], Fraction(1, 2))
    assert cube.side <= 1.5
    best = oracles.minimal_container([Fraction(1, 4)], Fraction(1, 2), 1, 4)
    assert best is not None and best.level == cube.level


def test_cover_validation():
    with pytest.raises(ValueError):
        cover_cube([Fraction(1, 2)], 0)
    with pytest.raises(ValueError):
        cover_cube([Fraction(3, 4)], Fraction(1, 2))
    with pytest.raises(ValueError):
        cover_cube([Fraction(1, 2), Fraction(1, 2), Fraction(0)], Fraction(1, 4))


@pytest.mark.parametrize("d", [1, 2])
def test_cover_random_suite(d):
    # 100 random representable cubes per dimension, ratio never above 6^d
    rng = np.random.default_rng(7)
    den = 1 << 10
    for _ in range(100):
        side = Fraction(int(rng.integers(1, den)), den)
        lower = [
            Fraction(int(rng.integers(0, int((1 - side) * den) + 1)), den)
            for _ in range(d)
        ]
        alpha, cube = cover_cube(lower, side)
        assert cube.contains(lower, side)
        ratio = (Fraction(1, 2**cube.level) / side) ** d
        assert ratio <= 6**d
        assert 0 <= alpha < 3**d


def test_cover_matches_enumeration_oracle_small():
    # for a sweep of d=1 intervals the chosen level is within one of optimal
    den = 48
    for num in range(1, den // 3):
        side = Fraction(num, den)
        for start in range(0, den - num, 5):
            lower = [Fraction(start, den)]
            _, cube = cover_cube(lower, side)
            best = oracles.minimal_container(lower, side, 1, 8)
            assert best is not None
            assert cube.level <= best.level  # container cannot beat the oracle
            assert Fraction(1, 2**cube.level) < 6 * side


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def test_average_constant():
    grid = Grid(1, 3, 0)
    f = np.full(grid.cell_shape, 2.5)
    for r in (0.5, 1, 2, math.inf):
        assert average(grid, f, r, oracles.root(grid)) == pytest.approx(2.5)


def test_average_half_indicator():
    grid = Grid(1, 1, 0)
    f = np.array([1.0, 0.0])
    assert average(grid, f, 1, oracles.root(grid)) == pytest.approx(0.5, abs=1e-9)
    assert average(grid, f, 2, oracles.root(grid)) == pytest.approx(0.5**0.5, abs=1e-9)
    assert average(grid, f, math.inf, oracles.root(grid)) == 1.0


def test_average_shifted_cube_against_direct_sum():
    grid = Grid(1, 4, 0)
    rng = np.random.default_rng(3)
    f = rng.random(grid.cell_shape)
    shifted = Grid(1, 4, 1)
    lv = level_averages(shifted, f, 2)[2]
    cubes = oracles.shifted_level_cubes(shifted, 2)
    assert len(lv) == len(cubes)
    for cube, value in zip(cubes, lv):
        lo, hi = map(float, cube.support_exact()[0])
        clo, chi = max(lo, 0.0), min(hi, 1.0)
        if chi <= clo:
            continue
        h = grid.cell_measure
        total, acc = 0.0, 0.0
        for i, v in enumerate(f):
            ov = max(0.0, min(chi, (i + 1) * h) - max(clo, i * h))
            total += ov
            acc += ov * v**2
        expected = (acc / total) ** 0.5
        assert value == pytest.approx(expected, abs=1e-12)


def test_average_empty_intersection_error():
    # the level-1 cube [5/6, 4/3) of shift 1 meets [0,1) and averages over
    # the overlap; [4/3, 11/6) does not, and no level array holds it
    lattice = Grid(1, 2, 1)
    cubes = oracles.shifted_level_cubes(lattice, 1)
    lv = level_averages(lattice, np.ones(lattice.cell_shape), 1)[1]
    assert len(lv) == len(cubes)
    assert ShiftedCube(1, (3,), 1) not in cubes
    assert cubes[-1] == ShiftedCube(1, (2,), 1) and cubes[-1].support_exact() == [(Fraction(5, 6), Fraction(4, 3))]
    assert lv[-1] == pytest.approx(1.0)


def test_average_bad_exponent():
    grid = Grid(1, 1, 0)
    f = np.ones(grid.cell_shape)
    with pytest.raises(ValueError):
        average(grid, f, 0, oracles.root(grid))
    with pytest.raises(ValueError):
        average(grid, f, -1, oracles.root(grid))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 8, allow_nan=False), min_size=8, max_size=8),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
)
def test_average_monotone_in_r(vals, r1, r2):
    if r1 > r2:
        r1, r2 = r2, r1
    grid = Grid(1, 3, 0)
    f = np.array(vals)
    for cube in grid.cubes():
        a1 = average(grid, f, r1, cube)
        a2 = average(grid, f, r2, cube)
        assert a1 <= a2 + 1e-9, f"r-monotonicity broke on {cube}"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 8, allow_nan=False), min_size=8, max_size=8),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_average_nesting_identity(vals, r):
    # average(f 1_Q, r, P)^r |P| == average(f, r, Q)^r |Q| for Q inside P
    grid = Grid(1, 3, 0)
    f = np.array(vals)
    P = oracles.root(grid)
    for Q in grid.cubes():
        restricted = np.zeros_like(f)
        sl = oracles.cube_slices(grid, Q)
        restricted[sl] = f[sl]
        lhs = average(grid, restricted, r, P) ** r * oracles.measure(P)
        rhs = average(grid, f, r, Q) ** r * oracles.measure(Q)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_level_averages_match_per_cube():
    grid = Grid(2, 3, 0)
    rng = np.random.default_rng(11)
    f = rng.random(grid.cell_shape)
    for r in (0.5, 1.0, 2.0, math.inf):
        byk = level_averages(grid, f, r)
        for cube in grid.cubes():
            assert byk[cube.level][cube.index] == pytest.approx(
                average(grid, f, r, cube), abs=1e-12
            )


_NONNEGLIGIBLE = st.one_of(st.just(0.0), st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_level_averages_match_exact_overlap_oracle(data):
    # every cube of every one-third-shifted lattice, entries in the row-major
    # order of the oracle's enumeration
    d = data.draw(st.sampled_from([1, 2]), label="d")
    depth = 3 if d == 1 else 2
    atoms = data.draw(st.sampled_from([(), (2,)]), label="atoms")
    r = data.draw(st.sampled_from([0.5, 1.0, 2.0, math.inf]), label="r")
    shape = (1 << depth,) * d + atoms
    size = int(np.prod(shape))
    vals = data.draw(st.lists(_NONNEGLIGIBLE, min_size=size, max_size=size))
    f = np.reshape(vals, shape)
    for alpha in range(3**d):
        lattice = Grid(d, depth, alpha)
        lv = level_averages(lattice, f, r)
        for k in range(depth + 1):
            got = lv[k].reshape((-1,) + atoms)
            cubes = oracles.shifted_level_cubes(lattice, k)
            assert len(got) == len(cubes)
            for cube, value in zip(cubes, got):
                want = oracles.naive_shifted_average(f, r, cube, depth)
                np.testing.assert_allclose(value, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d, depth, atoms", [(1, 6, ()), (1, 6, (3,)), (2, 4, ()), (2, 4, (2, 2))])
def test_level_averages_shift_zero_is_a_plain_block_mean(d, depth, atoms):
    grid = Grid(d, depth)
    f = np.random.default_rng(7).lognormal(size=grid.cell_shape + atoms)
    n = 1 << depth
    for r in (0.5, 1.0, 2.0, math.inf):
        lv = level_averages(grid, f, r)
        for k in range(depth + 1):
            b = 1 << (depth - k)
            blocks = np.abs(f).reshape((n // b, b) * d + atoms)
            axes = (1,) if d == 1 else (1, 3)
            if math.isinf(r):
                want = blocks.max(axis=axes)
            else:
                want = np.mean(blocks**r, axis=axes) ** (1.0 / r)
            assert np.array_equal(lv[k], want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_level_averages_match_the_padded_oracle(data):
    # bit for bit: the shift-0 reshape and the skipped r = 1 powers are exact
    d = data.draw(st.sampled_from([1, 2]))
    shift = data.draw(st.one_of(st.just(0), st.integers(0, 3**d - 1)))
    grid = Grid(d, data.draw(st.integers(0, 5)), shift)
    atoms = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    r = data.draw(st.sampled_from([0.5, 1.0, 2.5, math.inf]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = oracles.signed_cells(rng, grid.cell_shape + atoms)
    got, want = level_averages(grid, f, r), oracles.level_averages_padded(grid, f, r)
    assert got.keys() == want.keys()
    for k in want:
        assert np.array_equal(got[k], want[k])


@st.composite
def lattice_cases(draw):
    """(d, depth, atoms, r, seed) up to the depth caps, for all 3^d shifts."""
    d = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, MAX_DEPTH[d]))
    atoms = draw(st.sampled_from([(), (2,)]))
    r = draw(st.sampled_from([0.5, 1.0, 2.0, math.inf]))
    return d, depth, atoms, r, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(case=lattice_cases())
@example(case=(1, MAX_DEPTH[1], (2,), 0.5, 0))
@example(case=(2, MAX_DEPTH[2], (2,), 2.0, 1))
@example(case=(2, 0, (), math.inf, 2))
def test_level_averages_equal_the_per_call_layout(case):
    # bit for bit: the memoized layout changes no arithmetic
    d, depth, atoms, r, seed = case
    f = oracles.signed_cells(np.random.default_rng(seed), (1 << depth,) * d + atoms)
    for grid in shifted_grids(d, depth):
        got, want = level_averages(grid, f, r), oracles.level_averages_per_call(grid, f, r)
        assert got.keys() == want.keys()
        for k in want:
            assert np.array_equal(got[k], want[k])


def test_shifted_layout_is_built_once_and_read_only():
    f = np.ones((8, 8))
    level_averages(Grid(2, 3, 4), f, 2.0)
    before = _shifted_layout.cache_info()
    level_averages(Grid(2, 3, 4), f, 2.0)  # a fresh Grid of the same lattice
    after = _shifted_layout.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    for _, _, _, counts in _shifted_layout(2, 3, 4):
        with pytest.raises(ValueError, match="read-only"):
            counts[...] = 0.0


@st.composite
def family_cases(draw):
    """(d, depth, trail, rs, seed): every depth of the caps used here, atom
    trails with and without real axes, one or two factors."""
    d = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 8 if d == 1 else 6))
    trail = draw(st.sampled_from([(), (1,), (1, 1), (1, 3), (3, 1), (2,), (32,)]))
    rs = draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, math.inf]), min_size=1, max_size=2))
    return d, depth, trail, rs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=family_cases())
# atom axes: each block adds its cells one by one in row-major order
@example(case=(2, 5, (32,), [1.0], 0))
# d = 2 without atoms, below the root: rows pairwise, row sums left to right
@example(case=(2, 6, (), [1.0], 0))
# the d = 2 root without atoms (here a trail of ones): one pairwise sum
@example(case=(2, 6, (1,), [2.5], 0))
def test_family_products_equal_the_level_products(case):
    # ==, entry by entry: the whole tree shuffled, then a random subfamily,
    # whose levels hold one cube or several
    d, depth, trail, rs, seed = case
    grid = Grid(d, depth)
    rng = np.random.default_rng(seed)
    fs = [oracles.signed_cells(rng, grid.cell_shape + trail) for _ in rs]
    lp = level_products(grid, fs, rs)
    cubes = list(grid.cubes())
    for keep in (1.0, rng.uniform(0.0, 0.5)):
        picked = [cubes[i] for i in rng.permutation(len(cubes)) if rng.random() < keep]
        level = np.array([q.level for q in picked], dtype=int)
        index = np.array([q.index for q in picked], dtype=int).reshape(-1, d)
        got = _family_products(grid, fs, rs, level, index)
        want = np.array([lp[q.level][q.index] for q in picked]).reshape(got.shape)
        assert np.array_equal(got, want)


def test_average_rejects_cube_outside_its_lattice():
    grid = Grid(1, 2)
    f = np.arange(4.0)
    # negative or too large indices must not wrap around into the arrays
    for cube in (
        Cube(1, (-1,)),
        Cube(1, (2,)),
        Cube(1, (3,)),
        Cube(2, (-2,)),
        Cube(3, (0,)),
    ):
        with pytest.raises(ValueError):
            average(grid, f, 1.0, cube)
        with pytest.raises(ValueError, match="lies off Grid"):
            grid.children(cube)
    with pytest.raises(ValueError):
        average(Grid(2, 1), np.ones((2, 2)), 2.0, Cube(1, (0, -1)))


def test_level_averages_trailing_axes():
    grid = Grid(1, 2, 0)
    rng = np.random.default_rng(5)
    F = rng.random(grid.cell_shape + (3,))
    byk = level_averages(grid, F, 2.0)
    for atom in range(3):
        single = level_averages(grid, F[..., atom], 2.0)
        for k in byk:
            assert np.allclose(byk[k][..., atom], single[k])


def test_grid_norm_basics():
    grid = Grid(1, 2, 0)
    assert grid_norm(grid, np.ones(grid.cell_shape), 1) == pytest.approx(1.0)
    f = np.array([4.0, 0.0, 0.0, 0.0])
    assert grid_norm(grid, f, 1) == pytest.approx(1.0)
    assert grid_norm(grid, f, 2) == pytest.approx((16 / 4) ** 0.5)
    assert grid_norm(grid, f, math.inf) == 4.0
    w = np.array([0.5, 1.0, 1.0, 1.0])
    assert grid_norm(grid, f, 1, weight=w) == pytest.approx(0.5)


@pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 2), ()])
def test_grid_norm_refuses_a_weight_off_the_cells(shape):
    # broadcasting would otherwise give a number (2.9155 for (2,) and (2, 1))
    grid = Grid(2, 1)
    with pytest.raises(ValueError, match=r"weight shape \(.*\) must be the cell shape \(2, 2\)"):
        grid_norm(grid, np.arange(4.0).reshape(2, 2), 2, weight=np.ones(shape))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_exact():
    grid = Grid(2, 2, 0)
    rng = np.random.default_rng(13)
    f = rng.random(grid.cell_shape)
    text = function_to_json(grid, f)
    grid2, f2 = function_from_json(text)
    assert (grid2.d, grid2.depth) == (2, 2)
    assert np.array_equal(f, f2)
    payload = json.loads(text)
    assert set(payload) == {"d", "L", "values"}


def test_csv_round_trip_exact(tmp_path):
    grid = Grid(1, 4, 0)
    rng = np.random.default_rng(17)
    f = rng.random(grid.cell_shape)
    path = tmp_path / "f.csv"
    function_to_csv(grid, f, path)
    f2 = function_from_csv(path, grid)
    assert np.array_equal(f, f2)


def write_rows(path, rows):
    path.write_text("cell,value\n" + "".join(f"{i},{v}\n" for i, v in rows))
    return path


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 1.0), (1, 2.0), (2, 3.0)], r"need one row per cell, got 3 for 4"),
        ([(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (-1, 5.0)], r"cell must be in \[0, 4\), got -1"),
        ([(0, 1.0), (1, 2.0), (1, 2.0), (2, 3.0), (3, 4.0)], r"cell must be listed once, got 1 again"),
        ([(i, float(i)) for i in range(8)], r"cell must be in \[0, 4\), got 4"),
    ],
    ids=["truncated", "negative", "repeated", "deeper-grid"],
)
def test_csv_refuses_files_that_miss_or_repeat_cells(tmp_path, rows, message):
    with pytest.raises(ValueError, match=message):
        function_from_csv(write_rows(tmp_path / "f.csv", rows), Grid(1, 2))


def test_csv_refuses_an_empty_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="expected header 'cell,value'"):
        function_from_csv(path, Grid(1, 2))


def test_csv_refuses_a_row_with_one_field(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("cell,value\n0,1.0\n1\n")
    with pytest.raises(ValueError, match="row 3 must have at least 2 fields, got 1"):
        function_from_csv(path, Grid(1, 2))
