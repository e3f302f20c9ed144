"""Sparse engine: packing verification, forms, optimizers, CZ, stopping."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparsedom import dyadic, sparse as sparse_module
from sparsedom.dyadic import Cube, Grid, grid_norm
from sparsedom.maximal import scalar_maximal
from sparsedom.spaces import AtomicMeasure, LebesgueSpace, OrliczSpace, harmonic_exponent
from sparsedom.sparse import (
    GREEDY_FACTOR,
    SparseFamily,
    SparseRefutation,
    StoppingFailure,
    certificate_depth,
    cz_decompose,
    family_from_json,
    family_to_json,
    optimal_sparse_form,
    sparse_form,
    stopping_domination,
    verify_sparse,
)

from oracles import (
    carleson_constant,
    check_certificate_sets,
    cube_slices,
    cz_decompose_walk,
    exhaustive_best_form,
    family_to_json_cubes,
    flow_sparse,
    greedy_walk,
    hall_feasible,
    knapsack_per_input,
    knapsack_picks,
    sparse_form_walk,
    stopping_audit,
    stopping_domination_walk,
    verify_sparse_walk,
)

ROOT = Cube(0, (0,), 0)
LEFT = Cube(1, (0,), 0)
RIGHT = Cube(1, (1,), 0)
TREE1 = [ROOT, LEFT, RIGHT]


def full_tree(d, depth):
    g = Grid(d, depth)
    return list(g.cubes())


# ---------------------------------------------------------------------------
# verify_sparse
# ---------------------------------------------------------------------------


class TestVerifySparse:
    def test_disjoint_cubes_sparse_at_any_eta(self):
        cubes = [Cube(2, (i,), 0) for i in range(4)]
        fam = verify_sparse(cubes, 15 / 16)
        assert isinstance(fam, SparseFamily)
        assert fam.check_certificate()

    def test_level1_tree_sparse_at_half(self):
        fam = verify_sparse(TREE1, 0.5)
        assert isinstance(fam, SparseFamily)
        # total demand 1/2 + 1/4 + 1/4 exhausts the unit measure exactly
        assert fam.certificate_depth == 2
        assert sorted(fam.cells.tolist()) == [0, 1, 2, 3]
        assert fam.check_certificate()

    def test_level2_tree_not_sparse_at_half(self):
        ref = verify_sparse(full_tree(1, 2), 0.5)
        assert isinstance(ref, SparseRefutation)
        assert ref.demand > ref.available
        assert set(sparse_module._cubes(ref.level, ref.index)) <= set(full_tree(1, 2))

    def test_level2_tree_total_demand(self):
        # the counting obstruction: demands sum to 3/2 over measure 1
        ref = verify_sparse(full_tree(1, 2), 0.5)
        total = sum(Fraction(1, 2) * Fraction(1, 2**q.level) for q in full_tree(1, 2))
        assert total == Fraction(3, 2)
        assert ref.demand <= total

    def test_d2_one_level_tight(self):
        fam = verify_sparse(full_tree(2, 1), 0.5)
        assert isinstance(fam, SparseFamily)
        assert fam.check_certificate()

    def test_d2_two_levels_refuted(self):
        assert isinstance(verify_sparse(full_tree(2, 2), 0.5), SparseRefutation)

    def test_certificate_sizes_exact(self):
        fam = verify_sparse(TREE1, 0.5)
        for cube, size in zip(fam.cubes, np.diff(fam.offsets)):
            need = Fraction(1, 2) * 2 ** (fam.certificate_depth - cube.level)
            assert size == need

    def test_empty_family(self):
        fam = verify_sparse([], 0.5)
        assert fam.cubes == []
        # the empty family is trivially sparse, with nothing to witness
        assert fam.check_certificate()

    def test_certificate_must_cover_every_cube(self):
        fam = verify_sparse(TREE1, 0.5)
        cells, bounds, depth = fam.cells.tolist(), fam.offsets.tolist(), fam.certificate_depth
        sets = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
        assert SparseFamily.from_cubes(TREE1, 0.5, sets, depth) == fam
        assert not SparseFamily.from_cubes(TREE1, 0.5, [[]] + sets[1:], depth).check_certificate()
        # two disjoint cubes, a witness set for only one of them
        assert not SparseFamily.from_cubes([LEFT, RIGHT], 0.5, [[], sets[2]], depth).check_certificate()
        # and one witness set more or fewer than cubes, refused when built
        for wrong in (sets + [[]], sets[:2]):
            with pytest.raises(ValueError, match=f"need one witness set per cube and at least one, got {len(wrong)} for 3"):
                SparseFamily.from_cubes(TREE1, 0.5, wrong, depth)
        with pytest.raises(ValueError, match="need one witness set per cube and at least one, got 1 for 0"):
            SparseFamily.from_cubes([], 0.5, [[0]], depth)

    def test_certificate_counts_a_repeated_cell_once(self):
        # at depth 2 the root needs eta |Q| = 2 cells; listing cell 0 twice is one cell
        assert SparseFamily.from_cubes([ROOT], 0.5, [[0, 1]], 2).check_certificate()
        assert not SparseFamily.from_cubes([ROOT], 0.5, [[0, 0]], 2).check_certificate()

    def test_certificate_below_a_cube_level_is_false(self):
        Q = Cube(2, (1,), 0)
        with pytest.raises(TypeError):  # the set oracle asks for half a cell
            check_certificate_sets(SparseFamily.from_cubes([Q], 0.5, [[1]], 1))
        assert not SparseFamily.from_cubes([Q], 0.5, [[1]], 1).check_certificate()

    def test_certificate_of_a_shifted_cube_is_false(self):
        # no family holds a shifted cube: shift-0 cell 0 witnesses none
        Q = Cube(1, (0,), 1)
        with pytest.raises(ValueError, match="standard lattice only"):
            SparseFamily.from_cubes([Q], 0.5, [[0]], 2)

    def test_repeated_cubes_are_refused(self):
        again = r"cubes must be distinct, got Cube\(level=1, index=\(0,\), shift=0\) more than once"
        with pytest.raises(ValueError, match=again):
            verify_sparse([LEFT, RIGHT, LEFT], 0.5)
        # one witness set cannot serve two copies: no family holds both
        with pytest.raises(ValueError, match=again):
            SparseFamily.from_cubes([LEFT, LEFT], 0.5, [[0], []], 2)

    @pytest.mark.parametrize("cube", [Cube(1, (2,), 0), Cube(1, (-1,), 0), Cube(2, (1, 4), 0)])
    def test_cubes_outside_the_unit_cube_are_refused(self, cube):
        with pytest.raises(ValueError, match=r"cube indices must be in \[0, 2\^level\), got Cube"):
            verify_sparse([ROOT if cube.d == 1 else Cube(0, (0, 0)), cube], 0.5)

    def test_certificate_depth_range(self):
        with pytest.raises(ValueError, match=r"certificate_depth must be in \[0, 31\], got 32"):
            SparseFamily.from_cubes([], 0.5, [], 32)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.625, 0.75])
    def test_matches_hall_oracle(self, eta):
        rng = np.random.default_rng(7)
        pool = full_tree(1, 3)
        for _ in range(12):
            size = rng.integers(1, 8)
            pick = rng.choice(len(pool), size=size, replace=False)
            cubes = [pool[i] for i in pick]
            out = verify_sparse(cubes, eta)
            depth = out.certificate_depth if isinstance(out, SparseFamily) else out.depth
            assert isinstance(out, SparseFamily) == hall_feasible(cubes, eta, depth)

    def test_non_dyadic_eta_rejected(self):
        with pytest.raises(ValueError, match="not dyadic"):
            verify_sparse(TREE1, Fraction(1, 3))

    def test_unresolvable_float_eta_rejected(self):
        with pytest.raises(ValueError, match="resolution cap"):
            verify_sparse(TREE1, 0.3)

    def test_shifted_cubes_rejected(self):
        with pytest.raises(ValueError, match="standard lattice"):
            verify_sparse([Cube(1, (0,), 1)], 0.5)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            verify_sparse(TREE1, 1.5)


class TestCarleson:
    def test_single_cube(self):
        assert carleson_constant([ROOT]) == 1.0

    def test_level1_tree_attains_packing_bound(self):
        assert carleson_constant(TREE1) == 2.0

    def test_bounded_by_inverse_eta_on_certificates(self):
        rng = np.random.default_rng(3)
        pool = full_tree(1, 3)
        for _ in range(20):
            pick = rng.choice(len(pool), size=rng.integers(1, 8), replace=False)
            out = verify_sparse([pool[i] for i in pick], 0.5)
            if isinstance(out, SparseFamily):
                assert carleson_constant(out) <= 2.0 + 1e-12


class TestPackingEquivalence:
    # on one lattice the bottom-up packing pass decides exactly what the
    # max-flow transversal and Hall's condition over all subfamilies decide
    POOLS = {1: full_tree(1, 3), 2: full_tree(2, 2)}

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.sampled_from([1, 2]),
        eta=st.sampled_from([0.25, 0.5, 0.625, 0.75]),
    )
    def test_verify_matches_flow_and_hall(self, data, d, eta):
        cubes = data.draw(
            st.lists(st.sampled_from(self.POOLS[d]), min_size=1, max_size=8, unique=True)
        )
        out = verify_sparse(cubes, eta)
        flow = flow_sparse(cubes, eta)
        assert isinstance(out, SparseFamily) == isinstance(flow, SparseFamily)
        if isinstance(out, SparseFamily):
            assert out.check_certificate()
            depth = out.certificate_depth
        else:
            assert out.demand > out.available
            assert not hall_feasible(sparse_module._cubes(out.level, out.index), eta, out.depth)
            depth = out.depth
        assert isinstance(out, SparseFamily) == hall_feasible(cubes, eta, depth)


@st.composite
def nested_families(draw):
    """Cubes nested under one anchor cube, up to three levels below it, plus a
    few anywhere: dense nests refute often, also several siblings at once.
    Grids reach the benchmark depths (d=1 L=12, d=2 L=6)."""
    d = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 12 if d == 1 else 6))

    def under(top, anchor, span, min_size, max_size):
        offsets = st.integers(0, span).flatmap(
            lambda k: st.tuples(st.just(k), st.tuples(*[st.integers(0, (1 << k) - 1)] * d))
        )
        picks = draw(st.lists(offsets, min_size=min_size, max_size=max_size, unique=True))
        return [Cube(top + k, tuple((m << k) + o for m, o in zip(anchor, off))) for k, off in picks]

    top = draw(st.integers(0, depth))
    anchor = [draw(st.integers(0, (1 << top) - 1)) for _ in range(d)]
    cubes = under(top, anchor, min(3, depth - top), 1, 14) + under(0, [0] * d, depth, 0, 4)
    order = draw(st.permutations(range(len(cubes))))
    return list(dict.fromkeys(cubes[i] for i in order))


DYADIC_ETAS = [1 / 8, 1 / 4, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 15 / 16]


def _eta_fits(cubes, eta):
    try:
        certificate_depth(cubes[0].d, max(q.level for q in cubes), eta)
    except ValueError:  # past the resolution cap
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(cubes=nested_families(), eta=st.sampled_from(DYADIC_ETAS))
def test_level_sweep_equals_the_walk(cubes, eta):
    # families (certificates in input order) and refutations (the refuted
    # cube and its descendants in input order) under ==, arrays by value
    assume(_eta_fits(cubes, eta))
    swept, walked = verify_sparse(cubes, eta), verify_sparse_walk(cubes, eta)
    assert swept == walked


def test_level_sweep_refutes_the_first_short_cube_of_the_deepest_level():
    # at eta 3/4 both level-1 halves fail (each holds two level-2 cubes); the
    # walk refutes the first in input order, not the last
    quarters = [Cube(2, (i,)) for i in range(4)]
    cubes = [ROOT, RIGHT, LEFT] + quarters
    out = verify_sparse(cubes, 0.75)
    assert out == verify_sparse_walk(cubes, 0.75)
    assert sparse_module._cubes(out.level, out.index) == [RIGHT, Cube(2, (2,)), Cube(2, (3,))]


def _mutate(family, data):
    """The family with one of its witness sets altered."""
    cells, bounds = family.cells.tolist(), family.offsets.tolist()
    cert = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
    cubes, n = range(len(cert)), 1 << family.certificate_depth * family.index.shape[1]
    q = data.draw(st.sampled_from(cubes))
    kind = data.draw(st.sampled_from(["drop", "share", "outside", "below", "extra"]))
    if kind == "drop":  # one cell fewer: short of an exact demand
        cert[q].pop(data.draw(st.integers(0, len(cert[q]) - 1)))
    elif kind == "share":  # a cell of another cube, or its own again
        other = data.draw(st.sampled_from(cubes))
        cert[q].append(data.draw(st.sampled_from(cert[other])))
    elif kind == "outside":  # a cell outside the cube, maybe outside the grid
        own = set(cert[q])
        cell = data.draw(st.integers(-2, n + 1).filter(lambda c: c not in own))
        cert[q][data.draw(st.integers(0, len(cert[q]) - 1))] = cell
    elif kind == "below":
        del cert[q][data.draw(st.integers(0, len(cert[q]) - 1)):]
    else:  # a free cell more: valid when it lies in the cube
        used = {c for cells in cert for c in cells}
        cert[q].append(data.draw(st.integers(0, n - 1).filter(lambda c: c not in used)))
    return SparseFamily.from_cubes(family.cubes, family.eta, cert, family.certificate_depth)


@settings(max_examples=200, deadline=None)
@given(cubes=nested_families(), eta=st.sampled_from(DYADIC_ETAS), data=st.data())
def test_certificate_check_equals_the_set_check(cubes, eta, data):
    assume(_eta_fits(cubes, eta))
    family = verify_sparse(cubes, eta)
    assume(isinstance(family, SparseFamily))
    assert family.check_certificate() and check_certificate_sets(family)
    mutated = _mutate(family, data)
    assert mutated.check_certificate() == check_certificate_sets(mutated)


# ---------------------------------------------------------------------------
# sparse_form
# ---------------------------------------------------------------------------


class TestSparseForm:
    def test_single_cube_all_ones(self):
        g = Grid(1, 2)
        ones = np.ones(4)
        for q in (0.5, 1.0, 2.0):
            val = sparse_form(SparseFamily.from_cubes([ROOT]), g, [ones], [1.0], g=ones, q=q)
            assert val == pytest.approx(1.0)

    def test_level1_tree_measure_sum(self):
        g = Grid(1, 1)
        ones = np.ones(2)
        assert sparse_form(SparseFamily.from_cubes(TREE1), g, [ones], [1.0], q=1.0) == pytest.approx(2.0)

    def test_chain_family_hand_value(self):
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        S = [Cube(2, (0,), 0), LEFT, ROOT]
        assert sparse_form(SparseFamily.from_cubes(S), g, [f], [1.0]) == pytest.approx(3.0)

    def test_qth_root_reporting(self):
        g = Grid(1, 1)
        ones = np.ones(2)
        c = 3.7
        val = sparse_form(SparseFamily.from_cubes([ROOT]), g, [ones], [1.0], g=c * ones, q=2.0)
        assert val == pytest.approx(c)

    def test_sigma_override(self):
        g = Grid(1, 1)
        gfun = np.array([1.0, 3.0])
        v1 = sparse_form(SparseFamily.from_cubes([ROOT]), g, [np.ones(2)], [1.0], g=gfun, sigma=2.0)
        assert v1 == pytest.approx(np.sqrt(5.0))

    def test_accepts_family_object(self):
        fam = verify_sparse(TREE1, 0.5)
        g = Grid(1, 1)
        assert sparse_form(fam, g, [np.ones(2)], [1.0]) == pytest.approx(2.0)

    def test_bad_exponent(self):
        g = Grid(1, 1)
        with pytest.raises(ValueError):
            sparse_form(SparseFamily.from_cubes([ROOT]), g, [np.ones(2)], [1.0], q=0.0)

    def test_refuses_a_family_off_the_grid(self):
        # finer than the grid, or of another dimension, as SparseOperator.apply refuses it
        fam = verify_sparse([ROOT, Cube(3, (5,))], 0.5)
        with pytest.raises(ValueError, match="a family cube lies off the d=1 lattices of depth 2"):
            sparse_form(fam, Grid(1, 2), [np.ones(4)], [1.0])
        with pytest.raises(ValueError, match="a family cube lies off the d=2 lattices of depth 3"):
            sparse_form(fam, Grid(2, 3), [np.ones((8, 8))], [1.0])
        assert sparse_form(fam, Grid(1, 3), [np.ones(8)], [1.0]) == 1.125


# ---------------------------------------------------------------------------
# optimal_sparse_form
# ---------------------------------------------------------------------------


def oracle_best(fs, rs, grid, eta):
    from sparsedom.dyadic import average

    vals = {}
    for q in grid.cubes():
        prod = 1.0
        for f, r in zip(fs, rs):
            prod *= float(average(grid, f, r, q))
        vals[q] = prod * q.measure
    return exhaustive_best_form(vals, eta, certificate_depth(grid.d, grid.depth, eta))


class TestOptimalExact:
    def test_single_cube_grid(self):
        g = Grid(1, 0)
        val, fam = optimal_sparse_form([np.array([3.0])], [1.0], g)
        assert fam.cubes == [ROOT]
        assert val == pytest.approx(3.0)

    def test_constant_one_attains_two(self):
        for depth in (1, 2):
            g = Grid(1, depth)
            val, fam = optimal_sparse_form([np.ones(2**depth)], [1.0], g)
            assert val == pytest.approx(2.0)
            assert isinstance(fam, SparseFamily)
            assert fam.check_certificate()

    def test_quarter_bump_hand_value(self):
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        val, fam = optimal_sparse_form([f], [1.0], g)
        assert val == pytest.approx(3.0)
        assert set(fam.cubes) == {Cube(2, (0,), 0), LEFT, ROOT}

    @pytest.mark.parametrize("d, depth", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.625, 0.75])
    @pytest.mark.parametrize("rs", [(1.0,), (1.0, 1.0), (2.0, 1.0)])
    def test_matches_exhaustive_oracle(self, rs, eta, d, depth):
        g = Grid(d, depth)
        rng = np.random.default_rng(zlib.crc32(f"{rs}|{eta}|{d}".encode()))
        for trial in range(6):
            # every other draw takes values in {0, 1, 2}, so that equal cube
            # values reach the tie-break
            if trial % 2:
                fs = [rng.integers(0, 3, size=g.cell_shape).astype(float) for _ in rs]
            else:
                fs = [rng.uniform(0.0, 2.0, size=g.cell_shape) for _ in rs]
            val, fam = optimal_sparse_form(fs, list(rs), g, eta=eta)
            best, _ = oracle_best(fs, list(rs), g, eta)
            assert val == pytest.approx(best, rel=1e-12)
            assert val == pytest.approx(
                sparse_form(fam, g, fs, list(rs)), rel=1e-12
            )
            assert fam.check_certificate()
            assert carleson_constant(fam) <= 1 / eta

    def test_d2_matches_oracle(self):
        g = Grid(2, 1)
        rng = np.random.default_rng(5)
        fs = [rng.uniform(0.0, 2.0, size=(2, 2))]
        val, fam = optimal_sparse_form(fs, [1.0], g)
        best, _ = oracle_best(fs, [1.0], g, 0.5)
        assert val == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("d, depth", [(1, 4), (2, 3)])
    def test_optimizers_only_read_the_pyramid(self, d, depth):
        # a caller reuses every pyramid of a batch after both modes, so
        # neither writes one, and each input gets its batch-of-one result
        grid, rs = Grid(d, depth), [1.0, 2.0]
        rng = np.random.default_rng(79)
        inputs = [[rng.lognormal(size=grid.cell_shape) for _ in rs] for _ in range(3)]
        pyramids = [dyadic.level_products(grid, fs, rs) for fs in inputs]
        kept = [{k: v.copy() for k, v in lp.items()} for lp in pyramids]
        for mode in ("exact", "greedy"):
            results = sparse_module._optimize_form(grid, pyramids, rs, mode, 0.5)
            for lp, was in zip(pyramids, kept):
                assert all(np.array_equal(lp[k], was[k]) for k in was)
            assert results == [optimal_sparse_form(fs, rs, grid, mode=mode) for fs in inputs]

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_shifted_lattice_refused(self, mode):
        # even an all-zero input, whose exact optimum is the empty family
        with pytest.raises(ValueError, match="standard lattice only"):
            optimal_sparse_form([np.zeros(4)], [1.0], Grid(1, 2, 1), mode=mode)

    def test_zero_function(self):
        g = Grid(1, 1)
        val, fam = optimal_sparse_form([np.zeros(2)], [1.0], g)
        assert val == 0.0

    def test_unknown_mode(self):
        g = Grid(1, 1)
        with pytest.raises(ValueError, match="mode"):
            optimal_sparse_form([np.ones(2)], [1.0], g, mode="best")

    def test_refuses_a_function_without_exponent(self):
        hs = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([4.0, 0.0, 1.0, 1.0])]
        with pytest.raises(ValueError, match="need one exponent per function"):
            optimal_sparse_form(hs, [1.0], Grid(1, 2))


EIGHTHS = [k / 8 for k in range(1, 8)]
R_CASES = [(1.0,), (1.0, 1.0), (2.0, 1.0)]


@st.composite
def form_inputs(draw, shapes):
    """A grid, an eta in eighths, exponents and inputs.  A third of the draws
    take values in {0, 1, 2} and a sixth vanish, so that ties are reached;
    nonzero real entries are floored at 1e-3, away from underflow."""
    d, depth = draw(st.sampled_from(shapes))
    g, rs = Grid(d, depth), list(draw(st.sampled_from(R_CASES)))
    cell = draw(st.sampled_from([st.just(0.0)] + [st.integers(0, 2).map(float)] * 2 + [
        st.one_of(st.just(0.0), st.floats(1e-3, 4.0))] * 3))
    fs = [draw(arrays(np.float64, g.cell_shape, elements=cell)) for _ in rs]
    return g, draw(st.sampled_from(EIGHTHS)), rs, fs


@settings(max_examples=40, deadline=None)
@given(case=form_inputs([(1, 0), (1, 1), (1, 2), (2, 1)]))
def test_knapsack_matches_the_exhaustive_oracle(case):
    g, eta, rs, fs = case
    val, fam = optimal_sparse_form(fs, rs, g, eta=eta)
    best, _ = oracle_best(fs, rs, g, eta)
    assert val == pytest.approx(best, rel=1e-12, abs=0.0)
    assert fam.eta == eta and fam.check_certificate()
    assert carleson_constant(fam) <= 1 / eta
    # a cube of contribution 0 is never taken, so zero inputs give no cubes
    assert all(sparse_form(SparseFamily.from_cubes([q]), g, fs, rs) > 0 for q in fam.cubes)


@settings(max_examples=40, deadline=None)
@given(case=form_inputs([(1, 4), (1, 5), (1, 6), (2, 2), (2, 3)]), other=st.sampled_from(EIGHTHS))
def test_knapsack_metamorphic_bounds(case, other):
    g, eta, rs, fs = case
    val, fam = optimal_sparse_form(fs, rs, g, eta=eta)
    assert val == pytest.approx(sparse_form(fam, g, fs, rs), rel=1e-12, abs=0.0)
    # a looser sparseness admits every family a stricter one does
    low, high = sorted([eta, other])
    assert optimal_sparse_form(fs, rs, g, eta=high)[0] <= optimal_sparse_form(fs, rs, g, eta=low)[0] * (1 + 1e-12)
    # packing bound: sum_Q c_Q |Q| <= (1/eta) sum_Q c_Q |E_Q| <= ||M f||_1 / eta
    mnorm = grid_norm(g, scalar_maximal(g, fs, rs), 1.0)
    assert val <= mnorm / eta * (1 + 1e-12)
    # the greedy family is sparse at its own certified eta, so it is a
    # candidate of the exact search there
    gval, gfam = optimal_sparse_form(fs, rs, g, mode="greedy", eta=eta)
    assert gval <= optimal_sparse_form(fs, rs, g, eta=gfam.eta)[0] * (1 + 1e-12)


@st.composite
def knapsack_batches(draw):
    """A grid, an eta the battery accepts, exponents and a batch of 1 to 5
    inputs.  Some inputs are constant, where equal loads tie at every cube
    and the child's-smaller-load and smallest-root-load rules decide the
    picks; some take values in {0, 1, 2}."""
    d, depth = draw(st.sampled_from([(1, 0), (1, 1), (1, 3), (1, 5), (2, 1), (2, 2), (2, 3)]))
    g, rs = Grid(d, depth), list(draw(st.sampled_from(R_CASES)))
    eta = draw(st.sampled_from([1 / 2, 1 / 4, 1 / 32, 3 / 4]))
    cell = st.sampled_from([st.integers(0, 2).map(float), st.floats(1e-3, 4.0)])
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            batch.append([np.full(g.cell_shape, draw(st.sampled_from([0.0, 1.0, 2.0]))) for _ in rs])
        else:
            batch.append([draw(arrays(np.float64, g.cell_shape, elements=draw(cell))) for _ in rs])
    return g, eta, rs, batch


@settings(max_examples=60, deadline=None)
@given(case=knapsack_batches())
def test_batched_knapsack_equals_the_oracle_per_input(case):
    # one call for the batch: every input's masks, value and family are
    # those of the single-input knapsack run on it alone
    g, eta, rs, batch = case
    pyramids = [dyadic.level_products(g, fs, rs) for fs in batch]
    contrib = [np.stack([lp[k] for lp in pyramids], axis=-1) * 2.0 ** (-g.d * k) for k in range(g.depth + 1)]
    masks = sparse_module._knapsack_picks(contrib, g.d, Fraction(eta))
    for b in range(len(batch)):
        alone = knapsack_picks([c[..., b] for c in contrib], g.d, Fraction(eta))
        assert all(np.array_equal(m[..., b], a) for m, a in zip(masks, alone))
    results = sparse_module._optimize_form(g, pyramids, rs, "exact", eta)
    with knapsack_per_input():
        assert results == [sparse_module._optimize_form(g, [lp], rs, "exact", eta)[0] for lp in pyramids]


def test_knapsack_batch_memory_stays_under_the_stated_bound(monkeypatch):
    # 25 inputs at d=2 L=6 run in chunks of 2^16 // 4^6 = 16 inputs, and a
    # chunk peaks under 48 S bytes per finest cell plus 1 MiB, S the sum of
    # the per-level table entries per cell (the _knapsack_picks docstring)
    d, depth, eta = 2, 6, Fraction(1, 2)
    rng = np.random.default_rng(31)
    contrib = [rng.lognormal(size=(1 << k,) * d + (25,)) * 2.0 ** (-d * k) for k in range(depth + 1)]
    chunks, solve = [], sparse_module._knapsack_chunk
    monkeypatch.setattr(sparse_module, "_knapsack_chunk", lambda c, *args: chunks.append(c[0].shape[-1]) or solve(c, *args))
    S = sum(min(eta.denominator / eta.numerator, depth - k + 1) for k in range(depth + 1))
    tracemalloc.start()
    try:
        masks = sparse_module._knapsack_picks(contrib, d, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [16, 9]
    assert [m.shape for m in masks] == [c.shape for c in contrib]
    assert peak < 48 * S * (1 << 16) + (1 << 20)


@settings(max_examples=40, deadline=None)
@given(case=form_inputs([(1, 0), (1, 3), (1, 6), (2, 1), (2, 3)]))
def test_greedy_sweep_matches_the_walk(case):
    g, eta, rs, fs = case
    val, fam = optimal_sparse_form(fs, rs, g, mode="greedy", eta=eta)
    want, wfam = greedy_walk(fs, rs, g, eta=eta)
    assert val == want
    assert fam == wfam


@settings(max_examples=60, deadline=None)
@given(
    case=form_inputs([(1, 2), (1, 6), (2, 1), (2, 3)]),
    source=st.sampled_from(["verify", "exact", "greedy"]),
    q=st.sampled_from([0.5, 1.0, 2.0]),
    sigma=st.sampled_from([None, 1.0, 3.0, math.inf]),
    weighted=st.booleans(),
    data=st.data(),
)
def test_sparse_form_equals_the_cube_walk(case, source, q, sigma, weighted, data):
    # bit for bit: the same level-product entries, times |Q|, summed in family order
    g, eta, rs, fs = case
    if source == "verify":
        cubes = data.draw(st.lists(st.sampled_from(list(g.cubes())), max_size=10, unique=True))
        fam = verify_sparse(cubes, eta)
        assume(isinstance(fam, SparseFamily))
    else:
        fam = optimal_sparse_form(fs, rs, g, mode=source, eta=eta)[1]
    kw = {"q": q}
    if weighted:
        kw.update(g=data.draw(arrays(np.float64, g.cell_shape, elements=st.floats(0.0, 4.0))), sigma=sigma)
    assert sparse_form(fam, g, fs, rs, **kw) == sparse_form_walk(fam, g, fs, rs, **kw)


def test_sparse_form_sums_in_family_order():
    # the exact optimum lists its cubes by contribution, not by level; at
    # this input the two orders round apart, and sparse_form keeps the family's
    g = Grid(1, 8)
    f = np.random.default_rng(0).lognormal(size=g.cell_shape)
    fam = optimal_sparse_form([f], [1.0], g)[1]
    cubes = fam.cubes
    by_level = SparseFamily.from_cubes([cubes[i] for i in np.argsort(fam.level, kind="stable")])
    value = sparse_form(fam, g, [f], [1.0])
    assert value == sparse_form_walk(fam, g, [f], [1.0]) != sparse_form(by_level, g, [f], [1.0])


class TestGreedy:
    def test_realizes_half_the_maximal_norm(self):
        rng = np.random.default_rng(17)
        for rs in [(1.0,), (1.0, 1.0), (2.0, 1.0)]:
            g = Grid(1, 4)
            fs = [rng.uniform(0.0, 3.0, size=16) for _ in rs]
            val, fam = optimal_sparse_form(fs, list(rs), g, mode="greedy")
            mnorm = grid_norm(g, scalar_maximal(g, fs, list(rs)), 1.0)
            assert val >= GREEDY_FACTOR * mnorm - 1e-12
            assert val == pytest.approx(
                sparse_form(fam, g, fs, list(rs)), rel=1e-12
            )
            assert fam.check_certificate()

    def test_within_quarter_of_exact(self):
        rng = np.random.default_rng(23)
        g = Grid(1, 2)
        for rs in [(1.0,), (1.0, 1.0), (2.0, 1.0)]:
            for _ in range(5):
                fs = [rng.uniform(0.0, 2.0, size=4) for _ in rs]
                gval, _ = optimal_sparse_form(fs, list(rs), g, mode="greedy")
                eval_, _ = optimal_sparse_form(fs, list(rs), g, mode="exact")
                assert gval >= 0.25 * eval_ - 1e-12

    def test_greedy_eta_values(self):
        g = Grid(1, 2)
        cases = {(1.0,): 0.5, (1.0, 1.0): 0.25, (2.0, 1.0): 0.3125}
        for rs, eta in cases.items():
            fs = [np.ones(4) for _ in rs]
            _, fam = optimal_sparse_form(fs, list(rs), g, mode="greedy")
            assert fam.eta == eta

    def test_root_always_selected(self):
        g = Grid(1, 2)
        _, fam = optimal_sparse_form([np.zeros(4)], [1.0], g, mode="greedy")
        assert ROOT in fam.cubes

    def test_refuses_an_exponent_without_function(self):
        # the greedy eta would be certified from both exponents
        with pytest.raises(ValueError, match="need one exponent per function"):
            optimal_sparse_form([np.ones(4)], [1.0, 1.0], Grid(1, 2), mode="greedy")


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


def selected_cubes(parts):
    """Each component's selected cubes, read off its level masks, as a set."""
    out = []
    for picks in parts.selections:
        found = [(k, np.argwhere(sel)) for k, sel in enumerate(picks)]
        out.append({Cube(k, tuple(m)) for k, index in found for m in index.tolist()})
    return out


class TestCZ:
    def test_huge_threshold_trivial(self):
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        parts = cz_decompose(g, [f], [1.0], lam=100.0)
        assert not any(sel.any() for sel in parts.selections[0])
        np.testing.assert_allclose(parts.good[0], f)
        np.testing.assert_allclose(parts.bad, 0.0)

    def test_quarter_bump_root_selected_at_half(self):
        # at lam = 1/2 the root average 1 exceeds the threshold, so the
        # maximal selected cube is the root and g freezes the root average
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        parts = cz_decompose(g, [f], [1.0], lam=0.5)
        assert selected_cubes(parts) == [{ROOT}]
        np.testing.assert_allclose(parts.good[0], np.ones(4))
        assert np.max(np.abs(parts.averaged[0])) <= 2 ** (1 / 1) * 0.5 + 1e-12

    def test_low_threshold_freezes_ancestor_average(self):
        # lam far below the root average: the zero-extension ancestor two
        # levels up still averages 0.25 > 0.2 while its parent drops to
        # 0.125, so the frozen value is 0.25 and the doubling bound holds
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        parts = cz_decompose(g, [f], [1.0], lam=0.2)
        assert selected_cubes(parts) == [{ROOT}]
        np.testing.assert_allclose(parts.good[0], 0.25 * np.ones(4))
        assert np.max(np.abs(parts.averaged[0])) <= 2.0 * 0.2 + 1e-12

    def test_quarter_bump_halfcube_selected_above_one(self):
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])
        parts = cz_decompose(g, [f], [1.0], lam=1.2)
        assert selected_cubes(parts) == [{LEFT}]
        np.testing.assert_allclose(parts.good[0], np.array([2.0, 2.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            parts.level_sets[0], np.array([True, True, False, False])
        )

    def test_norm_preserved(self):
        rng = np.random.default_rng(31)
        g = Grid(1, 3)
        for rs in [(1.0,), (1.0, 2.0)]:
            fs = [rng.uniform(0.1, 3.0, size=8) for _ in rs]
            parts = cz_decompose(g, fs, list(rs), lam=1.0)
            for gj, r in zip(parts.good, rs):
                assert grid_norm(g, gj, r) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_proof_estimates(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        depth = 3 if d == 1 else 2
        g = Grid(d, depth)
        shape = g.cell_shape
        rs = [1.0, 2.0][:m]
        r = 1.0 / sum(1.0 / rj for rj in rs)
        for lam in [2.0 ** (-d / r), 1.0, 1.7]:
            for _ in range(8):
                fs = [rng.uniform(0.0, 4.0, size=shape) for _ in range(m)]
                parts = cz_decompose(g, fs, rs, lam=lam)
                for j, rj in enumerate(rs):
                    thr = lam ** (r / rj)
                    assert np.max(np.abs(parts.flat[j])) <= thr + 1e-12
                    assert (
                        np.max(np.abs(parts.averaged[j]))
                        <= 2 ** (d / rj) * thr + 1e-12
                    )
                exceed = np.abs(parts.bad) > lam
                assert np.sum(exceed) * g.cell_measure <= m / lam**r + 1e-12

    def test_bad_supported_on_level_sets(self):
        rng = np.random.default_rng(41)
        g = Grid(1, 3)
        fs = [rng.uniform(0.0, 4.0, size=8) for _ in range(2)]
        parts = cz_decompose(g, fs, [1.0, 1.0], lam=1.3)
        union = parts.level_sets[0] | parts.level_sets[1]
        assert np.all(parts.bad[~union] == 0.0)

    def test_splitting_identity(self):
        rng = np.random.default_rng(43)
        g = Grid(1, 3)
        fs = [rng.uniform(0.0, 4.0, size=8) for _ in range(2)]
        parts = cz_decompose(g, fs, [1.0, 1.0], lam=1.1)
        fn = [f / grid_norm(g, f, 1.0) for f in fs]
        np.testing.assert_allclose(
            np.prod(fn, axis=0), np.prod(parts.good, axis=0) + parts.bad, atol=1e-12
        )

    def test_domain_errors(self):
        g = Grid(1, 1)
        with pytest.raises(ValueError):
            cz_decompose(g, [np.ones(2)], [1.0], lam=0.0)
        with pytest.raises(ValueError):
            cz_decompose(g, [np.zeros(2)], [1.0], lam=1.0)

    def test_refuses_a_function_without_exponent(self):
        fs = [np.arange(1.0, 9.0), np.ones(8)]
        with pytest.raises(ValueError, match="need one exponent per function"):
            cz_decompose(Grid(1, 3), fs, [1.0], 1.0)


# ---------------------------------------------------------------------------
# stopping-time domination
# ---------------------------------------------------------------------------


def vec(cells, atom_values):
    """Constant-in-x vector function with the given atom values."""
    out = np.empty(cells + (len(atom_values),))
    out[...] = atom_values
    return out


class TestStopping:
    def test_constant_input_selects_root_only(self):
        g = Grid(1, 2)
        X = [LebesgueSpace(4.0, AtomicMeasure.unit(2)), LebesgueSpace(4 / 3, AtomicMeasure.unit(2))]
        Fs = [vec((4,), [1.0, 2.0]), vec((4,), [3.0, 1.0])]
        cert = stopping_domination(g, Fs, [1.0, 1.0], 1.0, X)
        assert cert.family.cubes == [Cube(0, (0,), 0)]
        assert cert.c_stop == 1.0
        assert cert.doublings == 0
        assert cert.pointwise_ok
        assert np.all(cert.ratios <= 1 + 1e-12)

    def test_scalar_principal_tree(self):
        g = Grid(1, 2)
        f = np.array([4.0, 0.0, 0.0, 0.0])[:, None]
        cert = stopping_domination(g, [f], [1.0], 1.0, [LebesgueSpace(1.0, AtomicMeasure.unit(1))])
        assert set(cert.family.cubes) == {ROOT, LEFT, Cube(2, (0,), 0)}
        assert cert.pointwise_ok
        assert cert.c_stop == 1.0

    def test_doubling_triggered_by_wide_plateau(self):
        # three quarters at a common height force children of total measure
        # 3/4 at the initial constant, so one doubling is required
        g = Grid(1, 2)
        f = np.array([1.9, 1.9, 1.9, 0.0])[:, None]
        cert = stopping_domination(g, [f], [1.0], 1.0, [LebesgueSpace(1.0, AtomicMeasure.unit(1))])
        assert cert.doublings == 1
        assert cert.c_stop == 2.0
        assert cert.family.cubes == [ROOT]
        assert cert.pointwise_ok

    def test_chain_restarts_at_each_selected_cube(self):
        # l^2 on two atoms; the left half is selected below the root, with a
        # chain (30.5, 0.5) and threshold A = 30.5.  Its right child's chain
        # restarts at (30.5, 0): norm 30.5, not above, so only the left
        # child is selected.  A chain kept from the root would carry the
        # root's 0.5 and select both children, failing the half test.
        g = Grid(1, 2)
        F = np.array([[59.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        cert = stopping_domination(g, [F], [1.0], 1.0, [LebesgueSpace(2.0, AtomicMeasure.unit(2))])
        assert cert.family.cubes == [ROOT, LEFT, Cube(2, (0,), 0)]
        assert cert.c_stop == 1.0

    def test_one_norm_call_per_level_and_no_tree_walk(self, monkeypatch):
        calls = {"children": 0, "norm": 0}
        children, norm = Grid.children, LebesgueSpace.norm

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(Grid, "children", count("children", children))
        monkeypatch.setattr(LebesgueSpace, "norm", count("norm", norm))
        g = Grid(1, 5)
        F = np.random.default_rng(61).lognormal(sigma=2.0, size=(32, 3))
        cert = stopping_domination(g, [F], [1.0], 1.0, [LebesgueSpace(2.0, AtomicMeasure.unit(3))], c_stop=0.25)
        assert cert.doublings > 0
        # the cell norms, one call per level and attempt, the closing audit
        assert calls["norm"] == 1 + g.depth * (cert.doublings + 1) + 1
        cz_decompose(g, [F[:, 0]], [1.0], lam=1.0)
        optimal_sparse_form([F[:, 0]], [1.0], g, mode="greedy")
        assert calls["children"] == 0

    @pytest.mark.parametrize("d, depth", [(1, 6), (2, 3)])
    def test_audit_reads_level_arrays_not_cube_slices(self, bind_everywhere, d, depth):
        # the library has no per-cube slicer (it lives in tests/oracles.py).
        # Two pyramids are built, each once: the cell norms', then the
        # fields', which the sweeps read and the audit's maximal function
        # reuses.  Every worst ratio comes from the one r = inf call of
        # level_averages.
        calls = []
        products, averages = dyadic.level_products, dyadic.level_averages
        bind_everywhere(products, lambda g, fs, rs: calls.append([np.shape(f) for f in fs]) or products(g, fs, rs))
        bind_everywhere(averages, lambda g, f, r: calls.append(r) or averages(g, f, r))
        g = Grid(d, depth)
        F = np.random.default_rng(67).lognormal(sigma=2.0, size=g.cell_shape + (3,))
        cert = stopping_domination(g, [F], [1.0], 1.0, [LebesgueSpace(2.0, AtomicMeasure.unit(3))])
        assert len(cert.family.cubes) > 3
        assert calls == [[g.cell_shape], 1.0, [g.cell_shape + (3,)], 1.0, math.inf]
        assert not hasattr(Grid, "cube_slices")

    def test_random_suite_produces_valid_certificates(self):
        rng = np.random.default_rng(53)
        for n in (2, 8):
            mu = AtomicMeasure.unit(n)
            X = [LebesgueSpace(4.0, mu), LebesgueSpace(4 / 3, mu)]
            g = Grid(1, 3)
            Fs = [rng.uniform(0.0, 3.0, size=(8, n)) for _ in range(2)]
            cert = stopping_domination(g, Fs, [1.0, 1.0], 1.0, X)
            assert cert.pointwise_ok
            assert cert.family.check_certificate()
            assert len(cert.ratios) == len(cert.family.level) and np.all(cert.ratios <= 1 + 1e-9)

    def test_q_convex_aggregation(self):
        rng = np.random.default_rng(59)
        X = [LebesgueSpace(4.0, AtomicMeasure.unit(4)), LebesgueSpace(4.0, AtomicMeasure.unit(4))]
        g = Grid(1, 3)
        Fs = [rng.uniform(0.0, 3.0, size=(8, 4)) for _ in range(2)]
        cert = stopping_domination(g, Fs, [1.0, 1.0], 2.0, X)
        assert cert.pointwise_ok

    def test_convexity_validation(self):
        g = Grid(1, 1)
        with pytest.raises(ValueError, match="convex"):
            stopping_domination(
                g, [np.ones((2, 1))], [1.0], 1.0, [LebesgueSpace(0.5, AtomicMeasure.unit(1))]
            )

    def test_alignment_validation(self):
        g = Grid(1, 1)
        with pytest.raises(ValueError, match="need one exponent per function and at least one, got 2 for 1"):
            stopping_domination(g, [np.ones((2, 1))], [1.0, 1.0], 1.0,
                                [LebesgueSpace(1.0, AtomicMeasure.unit(1))])


# ---------------------------------------------------------------------------
# level sweeps against the stack walks they replaced (tests/oracles.py)
# ---------------------------------------------------------------------------

# Phi = t^2 up to one and t^3 beyond, as a three-knot table
PIECEWISE = np.array([[0.5, 0.25], [1.0, 1.0], [2.0, 8.0]])


@st.composite
def cell_arrays(draw, shape):
    """Hypothesis-built arrays (mostly one repeated fill value), or seeded
    lognormal draws, plain or rounded to integers: equal values make equal
    averages and chains that tie their threshold, wide ones make the atoms
    of a chain peak at different levels."""
    style = draw(st.sampled_from(["hypothesis", "lognormal", "rounded"]))
    if style == "hypothesis":
        values = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.01, 100.0))
        return draw(arrays(float, shape, elements=values))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.lognormal(sigma=draw(st.sampled_from([1.0, 2.0, 3.0])), size=shape)
    return np.round(out) if style == "rounded" else out


def assert_identical(a, b):
    """Every dataclass field equal: == for values and orders, arrays bitwise."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, SparseFamily):
            assert x == y, f.name
        elif isinstance(x, dict):
            assert list(x.items()) == list(y.items()), f.name
        else:
            assert_same(x, y, f.name)


def assert_same(x, y, name):
    """== for values, arrays bitwise, lists (of lists) of them item by item."""
    if isinstance(x, np.ndarray):
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    elif isinstance(x, list):
        assert isinstance(y, list) and len(x) == len(y), name
        for u, v in zip(x, y):
            assert_same(u, v, name)
    else:
        assert x == y, name


@st.composite
def stopping_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    grid = Grid(d, draw(st.integers(0, 6 if d == 1 else 3)))
    kind = draw(st.sampled_from(["lebesgue", "piecewise", "power"]))
    if kind == "lebesgue":
        # at most three unit atoms: with more, or other weights, the BLAS
        # matmul of LebesgueSpace.norm gives a row other bits in a batch
        # than alone (the xfail test in test_spaces), so a chain norm that
        # ties its threshold may pass it in one construction only
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        ts = [draw(st.sampled_from([1.0, 2.0, 4.0, math.inf])) for _ in range(m)]
        spaces = [LebesgueSpace(t, AtomicMeasure.unit(n)) for t in ts]
        q_cap = harmonic_exponent(ts)
    else:
        n, m = draw(st.integers(1, 6)), 1
        measure = AtomicMeasure(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
        if kind == "piecewise":
            spaces = [OrliczSpace(PIECEWISE, measure)]
        else:
            spaces = [OrliczSpace.from_power(draw(st.sampled_from([1.0, 2.0])), measure)]
        q_cap = 1.0
    rs = [draw(st.sampled_from([0.5, 1.0])) for _ in range(m)]
    q = draw(st.sampled_from([x for x in (0.5, 1.0, 2.0) if x <= q_cap]))
    Fs = [draw(cell_arrays(grid.cell_shape + (n,))) for _ in range(m)]
    c_stop = draw(st.sampled_from([0.25, 1.0]))
    max_doublings = draw(st.sampled_from([1, 20]))
    return grid, Fs, rs, q, spaces, c_stop, max_doublings


def _stopping_outcome(build, case):
    try:
        return build(*case)
    except StoppingFailure as exc:
        return exc.state


# l^2 on two atoms (TestStopping's chain restart): the left half is selected
# with chain (30.5, 0.5); its children's chain restarts at (30.5, 0), where
# the root's 0.5 would still lift its norm past the threshold 30.5
CHAIN_RESTART = (Grid(1, 2), [np.array([[59.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])], [1.0], 1.0,
                 [LebesgueSpace(2.0, AtomicMeasure.unit(2))], 1.0, 20)


@settings(max_examples=120, deadline=None)
@given(case=stopping_cases())
@example(case=CHAIN_RESTART)
def test_stopping_sweep_matches_the_walk(case):
    swept = _stopping_outcome(stopping_domination, case)
    walked = _stopping_outcome(stopping_domination_walk, case)
    if isinstance(walked, dict) or isinstance(swept, dict):
        assert swept == walked
    else:
        assert_identical(swept, walked)


@settings(max_examples=60, deadline=None)
@given(case=stopping_cases().filter(lambda case: case[1][0].shape[-1] <= 3))
def test_stopping_audit_equals_one_from_scalar_maximal(case):
    # the audit's maximal function is the running max of the pyramid the
    # sweeps read; built afresh by scalar_maximal it gives the same bits
    cert = _stopping_outcome(stopping_domination, case)
    assume(not isinstance(cert, dict))
    grid, Fs, rs, q, spaces = case[:5]
    ratios, pointwise_ok = stopping_audit(grid, Fs, rs, q, spaces, cert.family.cubes, cert.c_stop)
    assert cert.ratios.dtype == ratios.dtype and np.array_equal(cert.ratios, ratios)
    assert cert.pointwise_ok == pointwise_ok


@settings(max_examples=120, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), m=st.integers(1, 2))
def test_cz_sweep_matches_the_walk(data, d, m):
    grid = Grid(d, data.draw(st.integers(0, 6 if d == 1 else 4)))
    fs = [data.draw(cell_arrays(grid.cell_shape)) for _ in range(m)]
    assume(all(f.any() for f in fs))
    rs = [data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for _ in range(m)]
    lam = data.draw(st.floats(0.05, 4.0))
    assert_identical(cz_decompose(grid, fs, rs, lam), cz_decompose_walk(grid, fs, rs, lam))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), m=st.integers(1, 2))
def test_cz_stopping_cubes_tile_the_level_sets(data, d, m):
    # lam < 1 selects the root, whose normalized average is 1
    grid = Grid(d, data.draw(st.integers(0, 6 if d == 1 else 4)))
    fs = [data.draw(cell_arrays(grid.cell_shape)) for _ in range(m)]
    assume(all(f.any() for f in fs))
    rs = [data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for _ in range(m)]
    parts = cz_decompose(grid, fs, rs, data.draw(st.floats(0.05, 4.0)))
    for cubes, level_set in zip(selected_cubes(parts), parts.level_sets):
        count = np.zeros(grid.cell_shape, dtype=int)
        for cube in cubes:
            count[cube_slices(grid, cube)] += 1
        # each cell of the level set lies in exactly one cube, no other cell in any
        assert np.array_equal(count, level_set)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestFamilyJSON:
    def test_round_trip_bit_exact(self):
        fam = verify_sparse(TREE1, 0.5)
        text = family_to_json(fam)
        back = family_from_json(text)
        assert family_to_json(back) == text
        assert back == fam
        assert back.check_certificate()

    def test_schema_fields(self):
        fam = verify_sparse([ROOT], 0.5)
        obj = json.loads(family_to_json(fam))
        assert set(obj) == {"eta", "cubes", "certificate", "depth"}
        assert obj["cubes"][0] == {"level": 0, "index": [0], "shift": 0}

    @pytest.mark.parametrize("cubes, eta", [
        (TREE1, 0.5),
        ([Cube(k, (np.int64(0),)) for k in range(3)], 0.5),  # NumPy ints in the indices
        ([Cube(np.int64(1), (i, j)) for i in range(2) for j in range(2)], 0.75),
        ([], 0.25),
    ])
    def test_verified_families_serialize(self, cubes, eta):
        fam = verify_sparse(cubes, eta)
        text = family_to_json(fam)
        assert text == family_to_json_cubes(fam)
        assert family_from_json(text) == fam and family_from_json(text).check_certificate()
        # the same cubes without witness sets write no certificate entry
        bare = SparseFamily.from_cubes(cubes, eta)
        assert family_to_json(bare) == family_to_json_cubes(bare)
        assert json.loads(family_to_json(bare))["certificate"] == []

    def test_certificate_entries_name_each_listed_cube_once(self):
        obj = json.loads(family_to_json(verify_sparse(TREE1, 0.5)))
        entries = obj["certificate"]
        # -1 would index the last cube, and a second entry would overwrite the first
        for certificate, message in [
            (entries[:2] + [dict(entries[2], cube=-1)], r"certificate cube must be in \[0, 3\), got -1"),
            (entries[:2] + [dict(entries[2], cube=3)], r"certificate cube must be in \[0, 3\), got 3"),
            (entries[:2] + [dict(entries[2], cube=2.0)], r"certificate cube must be an integer in \[0, 3\), got 2.0"),
            (entries + [entries[2]], "certificate cubes must be distinct, got 2 more than once"),
        ]:
            with pytest.raises(ValueError, match=message):
                family_from_json(json.dumps(dict(obj, certificate=certificate)))

    @pytest.mark.parametrize("cell", [1.0, True, 2**70])
    def test_certificate_cells_must_be_int64_ints(self, cell):
        with pytest.raises(ValueError, match=rf"certificate cells must be ints in \[-2\^63, 2\^63\), got {cell}"):
            SparseFamily.from_cubes([ROOT], 0.5, [[0, cell]], 2)


@st.composite
def written_families(draw):
    """A family from verify_sparse, from either optimizer mode at eta 1/2,
    1/4 or 1/32, or from the stopping recursion."""
    source = draw(st.sampled_from(["verify", "exact", "greedy", "stopping"]))
    if source == "verify":
        cubes, eta = draw(nested_families()), draw(st.sampled_from(DYADIC_ETAS))
        assume(_eta_fits(cubes, eta))
        family = verify_sparse(cubes, eta)
        assume(isinstance(family, SparseFamily))
        return family
    if source == "stopping":
        grid, Fs, rs, q, spaces, c_stop, max_doublings = draw(stopping_cases())
        try:
            return stopping_domination(grid, Fs, rs, q, spaces, c_stop, max_doublings).family
        except StoppingFailure:
            assume(False)
    g, _, rs, fs = draw(form_inputs([(1, 0), (1, 3), (1, 6), (2, 1), (2, 3)]))
    return optimal_sparse_form(fs, rs, g, mode=source, eta=draw(st.sampled_from([1 / 2, 1 / 4, 1 / 32])))[1]


@settings(max_examples=150, deadline=None)
@given(family=written_families())
def test_family_json_equals_the_cube_list_writer(family):
    text = family_to_json(family)
    assert text == family_to_json_cubes(family)
    assert family_to_json(family_from_json(text)) == text
