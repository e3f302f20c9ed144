"""Scalar and lattice maximal operators against enumeration oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedom.dyadic import Grid
from sparsedom.maximal import maximal_opnorm_lower, scalar_maximal
from sparsedom.spaces import AtomicMeasure, LebesgueSpace
import oracles
from oracles import naive_scalar_maximal


def test_constant_is_fixed_point():
    grid = Grid(1, 3)
    f = np.ones(grid.cell_shape)
    out = scalar_maximal(grid, [f], [1.0])
    assert np.allclose(out, 1.0)
    out = scalar_maximal(grid, [f, f], [2.0, np.inf])
    assert np.allclose(out, 1.0)


def test_halved_indicator_values():
    grid = Grid(1, 1)
    f = np.array([1.0, 0.0])
    assert np.allclose(scalar_maximal(grid, [f], [1.0]), [1.0, 0.5])
    assert np.allclose(scalar_maximal(grid, [f, f], [1.0, 1.0]), [1.0, 0.25])


def test_default_family_equals_explicit():
    grid = Grid(1, 3)
    rng = np.random.default_rng(0)
    f, g = rng.exponential(size=(2,) + grid.cell_shape)
    fast = scalar_maximal(grid, [f, g], [1.0, 2.0])
    oracle = naive_scalar_maximal([f, g], [1.0, 2.0], list(grid.cubes()), grid.depth)
    assert np.allclose(fast, oracle, rtol=1e-12)


def test_matches_naive_oracle_d1():
    grid = Grid(1, 3)
    rng = np.random.default_rng(1)
    f = rng.exponential(size=grid.cell_shape)
    cubes = list(grid.cubes())
    for r in (0.5, 1.0, 2.0):
        oracle = naive_scalar_maximal([f], [r], cubes, grid.depth)
        assert np.allclose(scalar_maximal(grid, [f], [r]), oracle, rtol=1e-12)


def test_d2_fast_path_matches_cube_loop():
    grid = Grid(2, 2)
    rng = np.random.default_rng(2)
    f = rng.exponential(size=grid.cell_shape)
    fast = scalar_maximal(grid, [f], [1.5])
    oracle = naive_scalar_maximal([f], [1.5], list(grid.cubes()), grid.depth)
    assert np.allclose(fast, oracle, rtol=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_full_tree_matches_the_upsampled_oracle(data):
    # bit for bit: the running max meets the same values as the cell-size max
    grid = Grid(data.draw(st.sampled_from([1, 2])), data.draw(st.integers(0, 5)))
    atoms = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    rs = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, math.inf]), min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fs = [oracles.signed_cells(rng, grid.cell_shape + atoms) for _ in rs]
    got = scalar_maximal(grid, fs, rs)
    assert np.array_equal(got, oracles.scalar_maximal_upsampled(grid, fs, rs))


def test_lattice_single_atom_matches_scalar():
    grid = Grid(1, 2)
    rng = np.random.default_rng(4)
    f = rng.exponential(size=grid.cell_shape)
    lat = scalar_maximal(grid, [f[:, None]], [1.0])
    assert np.allclose(lat[:, 0], scalar_maximal(grid, [f], [1.0]), rtol=1e-12)


def test_lattice_two_atom_example():
    grid = Grid(1, 1)
    F = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = scalar_maximal(grid, [F], [1.0])
    assert np.allclose(out[:, 0], [1.0, 0.5])
    assert np.allclose(out[:, 1], [0.5, 1.0])


def test_lattice_constant_in_x_returns_input():
    grid = Grid(1, 2)
    vals = np.array([0.3, 2.0, 1.1])
    F = np.broadcast_to(vals, grid.cell_shape + (3,)).copy()
    out = scalar_maximal(grid, [F], [2.0])
    assert np.allclose(out, F, rtol=1e-12)


def test_lattice_mismatched_atoms_rejected():
    grid = Grid(1, 1)
    with pytest.raises(ValueError, match="functions must share the grid cell shape and atoms"):
        scalar_maximal(grid, [np.ones((2, 2)), np.ones((2, 3))], [1.0, 1.0])
    with pytest.raises(ValueError, match="functions must share the grid cell shape and atoms"):
        scalar_maximal(grid, [np.ones((2, 2)), np.ones(2)], [1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_slice_identity(data):
    grid = Grid(1, 3)
    n = data.draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    Fs = [rng.exponential(size=grid.cell_shape + (n,)) for _ in range(2)]
    rs = [1.0, 2.0]
    lat = scalar_maximal(grid, Fs, rs)
    for w in range(n):
        sliced = scalar_maximal(grid, [F[..., w] for F in Fs], rs)
        assert np.allclose(lat[..., w], sliced, rtol=1e-12)


def test_leave_one_out_splitting():
    # with m+1 = 3 components, M of the full tuple is dominated pointwise by
    # the product of the three leave-one-out operators to the power 1/m
    grid = Grid(1, 3)
    rng = np.random.default_rng(5)
    fs = [rng.exponential(size=grid.cell_shape) for _ in range(3)]
    rs = [1.0, 2.0, 1.5]
    full = scalar_maximal(grid, fs, rs)
    prod = np.ones(grid.cell_shape)
    for j in range(3):
        keep = [i for i in range(3) if i != j]
        prod *= scalar_maximal(grid, [fs[i] for i in keep], [rs[i] for i in keep])
    assert np.all(full <= prod ** (1 / 2) * (1 + 1e-12))


def test_opnorm_lower_bound():
    grid = Grid(1, 3)
    meas = AtomicMeasure.unit(4)
    best, Fs = maximal_opnorm_lower(
        grid, [1.0], [2.0], [LebesgueSpace(2, meas)], trials=20, seed=0
    )
    assert best >= 1.0
    assert Fs[0].shape == grid.cell_shape + (4,)
    # reproducibility
    again, _ = maximal_opnorm_lower(
        grid, [1.0], [2.0], [LebesgueSpace(2, meas)], trials=20, seed=0
    )
    assert best == again


def test_opnorm_validates_exponents_and_convexity():
    grid = Grid(1, 2)
    meas = AtomicMeasure.unit(2)
    with pytest.raises(ValueError):
        maximal_opnorm_lower(grid, [2.0], [2.0], [LebesgueSpace(2, meas)])
    with pytest.raises(ValueError):
        maximal_opnorm_lower(grid, [2.0], [4.0], [LebesgueSpace(1, meas)])


def test_opnorm_bilinear_bounded_across_n():
    grid = Grid(1, 3)
    vals = []
    for n in (2, 8):
        meas = AtomicMeasure.unit(n)
        spaces = [LebesgueSpace(4, meas), LebesgueSpace(4 / 3, meas)]
        best, _ = maximal_opnorm_lower(
            grid, [1.0, 1.0], [3.0, 3.0], spaces, trials=30, seed=1
        )
        vals.append(best)
    assert all(1.0 <= v <= 50.0 for v in vals)
