"""Model operators, lattice extension, and the transfer experiments."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedom import cli, dyadic, maximal, transfer
from sparsedom.dyadic import Cube, Grid, grid_norm
from sparsedom.maximal import scalar_maximal
from sparsedom.sparse import SparseFamily, sparse_form, verify_sparse
from sparsedom.spaces import (
    AtomicMeasure,
    IteratedSpace,
    LebesgueSpace,
    LorentzSpace,
    associate_norm,
    product_space,
)
from sparsedom.transfer import (
    HaarTransform,
    SparseOperator,
    _ellq_collapse,
    _norming_field,
    admissible_tuple,
    dual_power_space,
    lebesgue_layers,
    scalar_hypothesis_check,
    space_tuple,
    tensor_extend,
    transfer_sides,
    vv_equivalence_check,
    vv_transfer_check,
    weighted_transfer_experiment,
)

import oracles

INF = math.inf


def certified(cubes, eta: float = 0.5) -> SparseFamily:
    """The family verify_sparse certifies for eta-sparse ``cubes``."""
    fam = verify_sparse(cubes, eta=eta)
    assert isinstance(fam, SparseFamily)
    return fam


def chain_family(levels: int, eta: float = 0.5) -> SparseFamily:
    """Nested left-edge chain; feasible at eta = 1/2 for any length."""
    return certified([Cube(k, (0,)) for k in range(levels)], eta)


@st.composite
def cubes_of(draw, d, depth):
    """One cube of the shift-0 grid, levels 0..depth."""
    level = draw(st.integers(0, depth))
    return draw(st.sampled_from(Grid(d, depth).level_cubes(level)))


def slice_apply(T, grid, Fs):
    """Oracle: loop the scalar model over every atom index."""
    atom_shape = Fs[0].shape[grid.d :]
    out = np.zeros(grid.cell_shape + atom_shape)
    for idx in np.ndindex(*atom_shape):
        sl = (Ellipsis,) + idx
        out[sl] = T.apply(grid, [F[sl] for F in Fs])
    return out


# ---------------------------------------------------------------------------
# sparse averaging model
# ---------------------------------------------------------------------------


def refused_level_arrays(*args):
    raise AssertionError("built the level arrays of every cube")


class TestSparseOperator:
    def test_root_only_fixes_constants(self):
        grid = Grid(1, 2)
        T = SparseOperator(certified([Cube(0, (0,))]), rs=(1.0,))
        assert np.array_equal(T.apply(grid, [np.ones(4)]), np.ones(4))

    def test_depth_one_tree_pinned(self):
        grid = Grid(1, 1)
        T = SparseOperator(certified([Cube(0, (0,)), Cube(1, (0,)), Cube(1, (1,))]), rs=(1.0,))
        out = T.apply(grid, [np.array([1.0, 0.0])])
        assert np.allclose(out, [1.5, 0.5], atol=1e-15)

    def test_matches_cell_loop(self):
        # independent accumulation: indicator blocks and power means per cube
        grid = Grid(1, 3)
        rng = np.random.default_rng(3)
        cubes = [Cube(0, (0,)), Cube(1, (1,)), Cube(2, (0,)), Cube(3, (5,))]
        rs = (1.0, 2.0)
        fs = [rng.lognormal(size=8), rng.lognormal(size=8)]
        T = SparseOperator(certified(cubes), rs=rs)
        expected = np.zeros(8)
        for cube in cubes:
            sl = oracles.cube_slices(grid, cube)
            val = 1.0
            for f, r in zip(fs, rs):
                val *= float(np.mean(f[sl] ** r) ** (1.0 / r))
            expected[sl] += val
        assert np.allclose(T.apply(grid, fs), expected, rtol=1e-12)

    def test_scaling_in_each_slot(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(5)
        fs = [rng.lognormal(size=4), rng.lognormal(size=4)]
        T = SparseOperator(chain_family(3), rs=(1.0, 3.0))
        base = T.apply(grid, fs)
        scaled = T.apply(grid, [2.5 * fs[0], fs[1]])
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_additive_in_the_family(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(6)
        f = rng.lognormal(size=4)
        a = [Cube(0, (0,)), Cube(2, (3,))]
        b = [Cube(1, (0,))]
        whole = SparseOperator(certified(a + b), rs=(1.0,)).apply(grid, [f])
        parts = SparseOperator(certified(a), rs=(1.0,)).apply(grid, [f]) + SparseOperator(
            certified(b), rs=(1.0,)
        ).apply(grid, [f])
        assert np.allclose(whole, parts, rtol=1e-13)

    def test_arity_and_exponent_errors(self):
        grid = Grid(1, 1)
        T = SparseOperator(certified([Cube(0, (0,))]), rs=(1.0, 1.0))
        with pytest.raises(ValueError, match="need one function per averaging exponent and at least one, got 1 for 2"):
            T.apply(grid, [np.ones(2)])
        with pytest.raises(ValueError, match=r"r_1 must be in \(0, inf\], got 0.0"):
            SparseOperator(certified([Cube(0, (0,))]), rs=(0.0,))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_cube_walk(self, data):
        # bit for bit, with unsorted levels, on two depths twice.  At most
        # four distinct cubes are 1/4-sparse, whatever they are.
        d, depth = data.draw(st.sampled_from([1, 2])), data.draw(st.integers(0, 4))
        pool = data.draw(st.lists(cubes_of(d, depth), min_size=1, max_size=4))
        family = data.draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
        rs = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, INF]), min_size=1, max_size=2))
        atoms = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        T = SparseOperator(certified(family, eta=0.25), rs=rs)
        for grid in [Grid(d, depth), Grid(d, depth + 1)] * 2:
            fs = [oracles.signed_cells(rng, grid.cell_shape + atoms) for _ in rs]
            assert np.array_equal(T.apply(grid, fs), oracles.sparse_apply_walk(T, grid, fs))

    @pytest.mark.parametrize("d", [1, 2])
    def test_apply_and_sparse_form_build_no_level_array(self, bind_everywhere, d):
        # both read only their family's blocks, and still equal the cube walks
        grid = Grid(d, 4)
        fam = certified([Cube(k, (k % 2,) * d) for k in range(1, 5)] + [Cube(0, (0,) * d)])
        rs = (1.0, 2.5)
        rng = np.random.default_rng(71)
        Fs = [oracles.signed_cells(rng, grid.cell_shape + (3,)) for _ in rs]
        fs = [oracles.signed_cells(rng, grid.cell_shape) for _ in rs]
        T = SparseOperator(fam, rs=rs)
        want = oracles.sparse_apply_walk(T, grid, Fs), oracles.sparse_form_walk(fam, grid, fs, rs)
        bind_everywhere(dyadic.level_averages, refused_level_arrays)
        bind_everywhere(dyadic.level_products, refused_level_arrays)
        assert np.array_equal(T.apply(grid, Fs), want[0])
        assert sparse_form(fam, grid, fs, rs) == want[1]

    def test_cubes_are_validated_on_every_grid(self):
        # cubes that fit depth 3 are checked again at depth 2, on every call
        deep = SparseOperator(certified([Cube(3, (0,))]), rs=(1.0,))
        deep.apply(Grid(1, 3), [np.ones(8)])
        for _ in range(2):
            with pytest.raises(ValueError, match="lies off the d=1 lattices of depth 2"):
                deep.apply(Grid(1, 2), [np.ones(4)])

    def test_uncertified_families_are_refused(self):
        # no witness sets at all (tests/test_checks.py refuses a family that
        # is not 1/2-sparse); a cube outside [0,1) or a repeated cube makes
        # no family at all
        root = Cube(0, (0,))
        with pytest.raises(ValueError, match="SparseOperator needs a family whose certificate checks"):
            SparseOperator(SparseFamily.from_cubes([root]), rs=(1.0,))
        with pytest.raises(ValueError, match=r"cube indices must be in \[0, 2\^level\)"):
            SparseFamily.from_cubes([root, Cube(1, (2,))])
        with pytest.raises(ValueError, match="cubes must be distinct"):
            SparseFamily.from_cubes([root, root])

    def test_family_object_carries_eta(self):
        fam = chain_family(3)
        T = SparseOperator(fam, rs=(1.0,))
        assert T.eta == 0.5
        assert T.hypothesis_constant(1.0) == 2.0
        assert T.hypothesis_constant(0.5) == 4.0
        assert T.hypothesis_constant(1.5) is None

    def test_operators_refuse_a_shifted_grid(self):
        # cell functions live on the shift-0 grid; the level products of a
        # shifted one would be read at shift-0 positions
        grid, f = Grid(1, 2, 1), np.ones(4)
        for call in (
            lambda: SparseOperator(chain_family(2), rs=(1.0,)).apply(grid, [f]),
            lambda: HaarTransform().apply(grid, [f]),
            lambda: scalar_maximal(grid, [f], [1.0]),
        ):
            with pytest.raises(ValueError, match=r"shift-0 grid, got Grid\(d=1, depth=2, shift=1\)"):
                call()


# ---------------------------------------------------------------------------
# martingale sign transform
# ---------------------------------------------------------------------------


class TestHaarTransform:
    def test_all_plus_is_identity(self):
        grid = Grid(1, 3)
        f = np.random.default_rng(0).normal(size=8)
        out = HaarTransform().apply(grid, [f])
        assert np.allclose(out, f, atol=1e-14)

    def test_all_plus_is_identity_d2(self):
        grid = Grid(2, 2)
        f = np.random.default_rng(1).normal(size=(4, 4))
        out = HaarTransform().apply(grid, [f])
        assert np.allclose(out, f, atol=1e-14)

    def test_root_flip_pinned(self):
        grid = Grid(1, 1)
        T = HaarTransform([np.array([-1.0])])
        out = T.apply(grid, [np.array([1.0, 0.0])])
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_mean_is_preserved(self):
        grid = Grid(1, 3)
        f = np.random.default_rng(2).normal(size=8)
        out = HaarTransform.random(grid, seed=9).apply(grid, [f])
        assert abs(out.mean() - f.mean()) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_isometry_every_sign_pattern(self, sign_seed, f_seed):
        grid = Grid(1, 3)
        T = HaarTransform.random(grid, seed=sign_seed)
        f = np.random.default_rng(f_seed).normal(size=8)
        out = T.apply(grid, [f])
        assert abs(grid_norm(grid, out, 2) - grid_norm(grid, f, 2)) < 1e-12

    def test_isometry_d2(self):
        grid = Grid(2, 2)
        f = np.random.default_rng(4).normal(size=(4, 4))
        out = HaarTransform.random(grid, seed=7).apply(grid, [f])
        assert abs(grid_norm(grid, out, 2) - grid_norm(grid, f, 2)) < 1e-12

    def test_random_signs_deterministic(self):
        grid = Grid(1, 3)
        a = HaarTransform.random(grid, seed=11)
        b = HaarTransform.random(grid, seed=11)
        assert len(a.signs) == len(b.signs) == grid.depth
        assert all(np.array_equal(x, y) for x, y in zip(a.signs, b.signs))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_sign_loop(self, data):
        # bit for bit, applied twice
        grid = Grid(data.draw(st.sampled_from([1, 2])), data.draw(st.integers(0, 5)))
        atoms = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # signs on levels 0 to a random one; the levels past it keep +1
        signs = [rng.choice([-1.0, 1.0], size=(1 << k,) * grid.d) for k in range(data.draw(st.integers(0, grid.depth)))]
        T = HaarTransform(signs)
        assert len(T.signs) == len(signs) and all(np.array_equal(a, b) for a, b in zip(T.signs, signs))
        for _ in range(2):
            f = oracles.signed_cells(rng, grid.cell_shape + atoms)
            assert np.array_equal(T.apply(grid, [f]), oracles.haar_apply_loop(T, grid, [f]))

    def test_signs_are_validated_on_every_grid(self):
        T = HaarTransform([np.ones(1), np.ones(2), np.array([-1.0, 1.0, 1.0, 1.0])])
        T.apply(Grid(1, 3), [np.ones(8)])
        for _ in range(2):
            with pytest.raises(ValueError, match="no children"):
                T.apply(Grid(1, 2), [np.ones(4)])

    def test_two_inputs_unsupported(self):
        grid = Grid(1, 1)
        with pytest.raises(ValueError, match="need one function per averaging exponent and at least one, got 2 for 1"):
            HaarTransform().apply(grid, [np.ones(2), np.ones(2)])

    def test_sign_validation(self):
        for level in ([2.0], [0.0], [math.nan], [-0.5]):
            with pytest.raises(ValueError, match=rf"Haar signs must be \+1 or -1, got {level[0]} at level 0"):
                HaarTransform([np.array(level)])
        with pytest.raises(ValueError, match=r"Haar signs must be \+1 or -1, got 0.0 at level 1"):
            HaarTransform([np.ones(1), np.array([1.0, 0.0])])
        # level k has shape (2^k,)*d, one d >= 1 for all levels
        for signs, k, shape in [
            ([np.ones(2)], 0, r"\(2,\)"),
            ([np.ones(1), np.ones(3)], 1, r"\(3,\)"),
            ([np.ones(1), np.ones((2, 2))], 1, r"\(2, 2\)"),
            ([np.ones((1, 1)), np.ones(2)], 1, r"\(2,\)"),
            ([np.ones((1, 1)), np.ones((2, 1))], 1, r"\(2, 1\)"),
            ([np.array(1.0)], 0, r"\(\)"),
        ]:
            with pytest.raises(ValueError, match=rf"Haar sign level {k} must have shape \(2\^{k},\)\*d for one d >= 1, got shape {shape}"):
                HaarTransform(signs)
        grid = Grid(1, 2)
        deep = HaarTransform([np.ones(1), np.ones(2), np.array([-1.0, 1.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match="no children"):
            deep.apply(grid, [np.ones(4)])
        with pytest.raises(ValueError, match="dimension does not match"):
            HaarTransform([-np.ones((1, 1))]).apply(grid, [np.ones(4)])


# ---------------------------------------------------------------------------
# tensor extension
# ---------------------------------------------------------------------------


class TestTensorExtend:
    def test_slice_identity_sparse(self):
        grid = Grid(1, 3)
        rng = np.random.default_rng(8)
        T = SparseOperator(chain_family(4), rs=(1.0, 2.0))
        Fs = [rng.lognormal(size=(8, 3)), rng.lognormal(size=(8, 3))]
        assert np.allclose(tensor_extend(T, grid, Fs), slice_apply(T, grid, Fs), atol=1e-13)

    def test_slice_identity_haar(self):
        grid = Grid(1, 3)
        rng = np.random.default_rng(9)
        T = HaarTransform.random(grid, seed=2)
        Fs = [rng.normal(size=(8, 4))]
        assert np.allclose(tensor_extend(T, grid, Fs), slice_apply(T, grid, Fs), atol=1e-13)

    def test_slice_identity_nested_atoms(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(10)
        T = SparseOperator(chain_family(3), rs=(1.0,))
        Fs = [rng.lognormal(size=(4, 2, 2))]
        assert np.allclose(tensor_extend(T, grid, Fs), slice_apply(T, grid, Fs), atol=1e-13)

    def test_two_atom_stack_is_two_applications(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(11)
        f1, f2 = rng.lognormal(size=4), rng.lognormal(size=4)
        for T in (SparseOperator(chain_family(3), rs=(1.0,)), HaarTransform.random(grid, 3)):
            out = tensor_extend(T, grid, [np.stack([f1, f2], axis=-1)])
            assert np.allclose(out[:, 0], T.apply(grid, [f1]), atol=1e-13)
            assert np.allclose(out[:, 1], T.apply(grid, [f2]), atol=1e-13)

    def test_needs_an_atom_axis(self):
        grid = Grid(1, 2)
        T = SparseOperator(certified([Cube(0, (0,))]), rs=(1.0,))
        with pytest.raises(ValueError, match="atom axis"):
            tensor_extend(T, grid, [np.ones(4)])


# ---------------------------------------------------------------------------
# space tuples and the admissibility catalog
# ---------------------------------------------------------------------------


class TestAdmissibility:
    def test_space_tuple_shapes(self):
        spaces = space_tuple([2.0, (3.0, 2.0)], n=4)
        assert spaces[0].atom_shape == (4,)
        assert spaces[1].atom_shape == (4, 2)
        assert lebesgue_layers(spaces[0]) == [2.0]
        assert lebesgue_layers(spaces[1]) == [3.0, 2.0]

    def test_product_pair_is_admissible(self):
        ok, why = admissible_tuple(space_tuple([4.0, 4.0 / 3.0], 2), (1.0, 1.0), 1.0, INF)
        assert ok and why == "admissible"

    def test_iterated_factor_is_admissible(self):
        ok, _ = admissible_tuple(space_tuple([(3.0, 2.0)], 2), (1.0,), 1.0, INF)
        assert ok

    def test_layer_at_r_rejected(self):
        ok, why = admissible_tuple(space_tuple([1.0], 2), (1.0,), 1.0, INF)
        assert not ok and "need t > r" in why

    def test_aggregate_below_q_rejected(self):
        ok, why = admissible_tuple(space_tuple([4.0, 4.0], 2), (1.0, 1.0), 3.0, INF)
        assert not ok and "below q" in why

    def test_aggregate_must_stay_below_s(self):
        ok, why = admissible_tuple(space_tuple([4.0, 4.0], 2), (1.0, 1.0), 1.0, 2.0)
        assert not ok and "not below s" in why

    def test_non_lebesgue_factor_outside_catalog(self):
        sp = LorentzSpace(2.0, 1.0, AtomicMeasure.unit(3))
        ok, why = admissible_tuple([sp], (1.0,), 1.0, INF)
        assert not ok and "catalog" in why

    def test_mixed_nesting_depth(self):
        spaces = (space_tuple([2.0], 2)[0], space_tuple([(3.0, 2.0)], 2)[0])
        ok, why = admissible_tuple(spaces, (1.0, 1.0), 1.0, INF)
        assert not ok and "different depths" in why

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="one space per"):
            admissible_tuple(space_tuple([2.0], 2), (1.0, 1.0), 1.0, INF)


# ---------------------------------------------------------------------------
# dual machinery
# ---------------------------------------------------------------------------


class TestDualPower:
    def test_l2_is_self_dual_at_q1(self):
        X = LebesgueSpace(2.0, AtomicMeasure.unit(3))
        assert dual_power_space(X, 1.0).t == 2.0

    def test_exponents_pinned(self):
        meas = AtomicMeasure.unit(2)
        assert dual_power_space(LebesgueSpace(4.0, meas), 2.0).t == 4.0
        assert math.isinf(dual_power_space(LebesgueSpace(1.5, meas), 1.5).t)
        assert dual_power_space(LebesgueSpace(INF, meas), 2.0).t == 2.0

    def test_needs_q_convexity(self):
        with pytest.raises(ValueError, match="q-convex"):
            dual_power_space(LebesgueSpace(1.0, AtomicMeasure.unit(2)), 2.0)

    def test_matches_associate_norm_lebesgue(self):
        X = LebesgueSpace(3.0, AtomicMeasure.unit(4))
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = rng.lognormal(size=4)
            assert dual_power_space(X, 1.0).norm(v) == associate_norm(X, v)

    def test_matches_associate_norm_iterated(self):
        X = IteratedSpace(
            LebesgueSpace(3.0, AtomicMeasure.unit(2)),
            LebesgueSpace(2.0, AtomicMeasure.unit(2)),
        )
        rng = np.random.default_rng(13)
        v = rng.lognormal(size=(2, 2))
        assert dual_power_space(X, 1.0).norm(v) == associate_norm(X, v)

    def test_norming_field_attains_lebesgue(self):
        X = LebesgueSpace(2.5, AtomicMeasure.unit(3))
        rng = np.random.default_rng(14)
        V = rng.lognormal(size=(8, 3)) * (rng.random(size=(8, 3)) > 0.2)
        H = _norming_field(X, 1.0, V)
        assert np.allclose(_ellq_collapse(V * H, X.mu, 1.0), np.asarray(X.norm(V)), atol=1e-12)
        dn = np.asarray(dual_power_space(X, 1.0).norm(H))
        assert np.all(dn <= 1 + 1e-9)

    def test_norming_field_attains_iterated(self):
        X = IteratedSpace(
            LebesgueSpace(3.0, AtomicMeasure.unit(2)),
            LebesgueSpace(2.0, AtomicMeasure.unit(2)),
        )
        V = np.random.default_rng(15).lognormal(size=(4, 2, 2))
        H = _norming_field(X, 1.0, V)
        assert np.allclose(_ellq_collapse(V * H, X.mu, 1.0), np.asarray(X.norm(V)), atol=1e-12)
        assert np.allclose(np.asarray(dual_power_space(X, 1.0).norm(H)), 1.0, atol=1e-9)

    def test_norming_field_attains_above_q1(self):
        X = LebesgueSpace(4.0, AtomicMeasure.unit(3))
        V = np.random.default_rng(16).lognormal(size=(4, 3))
        H = _norming_field(X, 2.0, V)
        assert np.allclose(_ellq_collapse(V * H, X.mu, 2.0), np.asarray(X.norm(V)), atol=1e-12)

    def test_norming_field_zero_rows(self):
        X = LebesgueSpace(2.0, AtomicMeasure.unit(3))
        V = np.zeros((4, 3))
        V[0] = [1.0, 2.0, 0.0]
        H = _norming_field(X, 1.0, V)
        assert np.all(H[1:] == 0.0)
        assert np.isclose(float(_ellq_collapse(V * H, X.mu, 1.0)[0]), float(np.asarray(X.norm(V))[0]))


class TestEquivalence:
    def test_single_atom_forms_coincide(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(17)
        spaces = space_tuple([4.0, 4.0 / 3.0], 1)
        Fs = [rng.lognormal(size=(4, 1)) for _ in range(2)]
        res = vv_equivalence_check(grid, Fs, rng.lognormal(size=4), spaces, 1.0, INF)
        assert res["passed"] and res["gap"] < 1e-12

    def test_reconstruction_l2(self):
        grid = Grid(1, 3)
        rng = np.random.default_rng(18)
        spaces = space_tuple([2.0], 3)
        res = vv_equivalence_check(
            grid, [rng.lognormal(size=(8, 3))], rng.lognormal(size=8), spaces, 1.0, INF
        )
        assert res["holder_ok"] and res["passed"]
        assert res["gap"] <= 1e-3 * max(1.0, res["scalar_form"])
        assert res["reconstructed"] <= res["scalar_form"] * (1 + 1e-9)

    def test_product_pair(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(19)
        spaces = space_tuple([4.0, 4.0 / 3.0], 3)
        Fs = [rng.lognormal(size=(4, 3)) for _ in range(2)]
        res = vv_equivalence_check(grid, Fs, rng.lognormal(size=4), spaces, 1.0, INF)
        assert res["passed"]

    def test_iterated_case(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(20)
        spaces = space_tuple([(3.0, 2.0)], 2)
        Fs = [rng.lognormal(size=(4, 2, 2))]
        res = vv_equivalence_check(grid, Fs, rng.lognormal(size=4), spaces, 1.0, INF)
        assert res["passed"]

    def test_above_q1(self):
        grid = Grid(1, 2)
        rng = np.random.default_rng(21)
        spaces = space_tuple([4.0], 3)
        res = vv_equivalence_check(
            grid, [rng.lognormal(size=(4, 3))], rng.lognormal(size=4), spaces, 2.0, INF
        )
        assert res["passed"]

    def test_catalog_and_convexity_errors(self):
        grid = Grid(1, 1)
        lorentz = LorentzSpace(2.0, 1.0, AtomicMeasure.unit(2))
        with pytest.raises(ValueError, match="catalog|Lebesgue"):
            vv_equivalence_check(grid, [np.ones((2, 2))], np.ones(2), [lorentz], 1.0, INF)
        thin = space_tuple([1.0], 2)
        with pytest.raises(ValueError, match="q-convex"):
            vv_equivalence_check(grid, [np.ones((2, 2))], np.ones(2), thin, 2.0, INF)

    def test_shape_mismatch(self):
        grid = Grid(1, 2)
        with pytest.raises(ValueError, match="share the grid cells"):
            vv_equivalence_check(
                grid, [np.ones((4, 5))], np.ones(4), space_tuple([2.0], 3), 1.0, INF
            )


# ---------------------------------------------------------------------------
# scalar hypothesis
# ---------------------------------------------------------------------------


class TestScalarHypothesis:
    def test_sparse_chain_respects_certificate_q1(self):
        [res] = scalar_hypothesis_check(
            [SparseOperator(chain_family(4), rs=(1.0,))], Grid(1, 3), 1.0
        )
        assert res["passed"] and res["bound"] == 2.0
        assert 0 < res["max_ratio"] <= 2.0 * (1 + 1e-9)

    def test_sparse_chain_respects_certificate_subunit_q(self):
        [res] = scalar_hypothesis_check(
            [SparseOperator(chain_family(3), rs=(1.0,))], Grid(1, 2), 0.5
        )
        assert res["passed"] and res["bound"] == 4.0

    def test_q_above_one_reports_only(self):
        [res] = scalar_hypothesis_check(
            [SparseOperator(chain_family(3), rs=(1.0,))], Grid(1, 2), 1.5
        )
        assert res["bound"] is None and res["passed"]

    def test_haar_reports_measured_constant(self):
        [res] = scalar_hypothesis_check([HaarTransform.random(Grid(1, 3), 1)], Grid(1, 3), 1.0)
        assert res["bound"] is None and res["passed"] and res["max_ratio"] > 0

    def test_finite_s_shrinks_the_ratio(self):
        T = SparseOperator(chain_family(4), rs=(1.0,))
        grid = Grid(1, 3)
        [loose] = scalar_hypothesis_check([T], grid, 1.0, s=INF, seed=5)
        [tight] = scalar_hypothesis_check([T], grid, 1.0, s=4.0, seed=5)
        # same seeded trials; a larger auxiliary exponent only grows the majorant
        assert tight["max_ratio"] <= loose["max_ratio"] + 1e-12

    def test_exponent_window_validated(self):
        T = SparseOperator(chain_family(2), rs=(1.0,))
        with pytest.raises(ValueError, match="need s > q"):
            scalar_hypothesis_check([T], Grid(1, 1), 2.0, s=2.0)
        # a run with no trials measures nothing
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            scalar_hypothesis_check([T], Grid(1, 1), 1.0, trials=0)


# ---------------------------------------------------------------------------
# the two sides and the transfer verdict
# ---------------------------------------------------------------------------


class TestTransferSides:
    def test_zero_g_gives_zero_on_both_sides(self):
        grid = Grid(1, 3)
        spaces = space_tuple([2.0], 3)
        [(lhs, rhs)] = transfer_sides(
            [HaarTransform.random(grid, 1)],
            grid,
            [np.ones((8, 3))],
            np.zeros(8),
            spaces,
            product_space(spaces),
            1.0,
            INF,
        )
        assert lhs == 0.0 and rhs == 0.0

    def test_one_hot_reduces_to_the_scalar_ratio(self):
        grid = Grid(1, 3)
        rng = np.random.default_rng(22)
        f, g = rng.lognormal(size=8), rng.lognormal(size=8)
        T = SparseOperator(chain_family(4), rs=(1.0,))
        direction = np.zeros(3)
        direction[1] = 1.0
        spaces = space_tuple([2.5], 3)
        [(lhs, rhs)] = transfer_sides(
            [T], grid, [np.multiply.outer(f, direction)], g, spaces, product_space(spaces), 1.0, INF
        )
        num = grid_norm(grid, T.apply(grid, [f]) * g, 1.0)
        den = grid_norm(grid, scalar_maximal(grid, [f, g], [1.0, 1.0]), 1.0)
        assert np.isclose(lhs, num, rtol=1e-12) and np.isclose(rhs, den, rtol=1e-12)


class TestVvTransferCheck:
    def test_haar_l2_passes(self):
        grid = Grid(1, 3)
        [rep] = vv_transfer_check(
            [HaarTransform.random(grid, seed=1)], grid, [2.0], 1.0, INF, trials=120
        )
        assert rep.verdict == "PASS"
        assert rep.passed and rep.admissible and not rep.exploratory
        assert rep.slope <= 0.05
        assert rep.scalar["passed"]
        assert set(rep.worst) == {2, 8, 32}

    def test_sparse_product_pair_passes(self):
        grid = Grid(1, 3)
        T = SparseOperator(chain_family(4), rs=(1.0, 1.0))
        [rep] = vv_transfer_check([T], grid, [4.0, 4.0 / 3.0], 1.0, INF, trials=120)
        assert rep.passed and rep.admissible
        assert rep.scalar["bound"] == 2.0 and rep.scalar["passed"]

    def test_iterated_single_factor_passes(self):
        grid = Grid(1, 3)
        [rep] = vv_transfer_check(
            [HaarTransform.random(grid, seed=2)], grid, [(3.0, 2.0)], 1.0, INF, trials=80
        )
        assert rep.passed and rep.admissible

    def test_iterated_product_pair_reports(self):
        # an admissible m = 2 tuple of iterated factors: its product space is
        # l^2(l^(3/2)) in closed form, so the run reports instead of refusing
        grid = Grid(1, 4)
        T = SparseOperator(chain_family(5), rs=(1.0, 1.0))
        specs = [(4.0, 3.0), (4.0, 3.0)]
        X = product_space(space_tuple(specs, 2))
        assert (X.outer.t, X.inner.t) == (2.0, 1.5)
        [rep] = vv_transfer_check([T], grid, specs, 1.0, INF, trials=20)
        assert rep.admissible and not rep.exploratory
        assert all(len(rep.ratios[n]) == 20 and 0 < rep.worst[n] < INF for n in rep.ns)

    def test_inadmissible_tuple_runs_exploratory(self):
        grid = Grid(1, 2)
        T = SparseOperator(chain_family(3), rs=(1.0,))
        [rep] = vv_transfer_check([T], grid, [1.0], 1.0, INF, trials=20)
        assert not rep.admissible and rep.exploratory
        assert any("exploratory" in w for w in rep.warnings)
        assert all(len(rep.ratios[n]) == 20 for n in rep.ns)

    def test_report_serializes(self):
        grid = Grid(1, 2)
        [rep] = vv_transfer_check(
            [HaarTransform.random(grid, seed=3)], grid, [2.0], 1.0, INF, ns=(2, 4), trials=10
        )
        payload = json.loads(json.dumps(rep.as_dict()))
        assert payload["verdict"] in ("PASS", "FAIL")
        assert payload["config"]["s"] == "inf"
        assert set(payload["worst"]) == {"2", "4"}

    def test_deterministic_replay(self):
        grid = Grid(1, 2)
        T = SparseOperator(chain_family(3), rs=(1.0,))
        [a] = vv_transfer_check([T], grid, [2.0], 1.0, INF, ns=(2, 4), trials=15, seed=9)
        [b] = vv_transfer_check([T], grid, [2.0], 1.0, INF, ns=(2, 4), trials=15, seed=9)
        assert a.worst == b.worst and a.ratios == b.ratios

    def test_input_validation(self):
        grid = Grid(1, 2)
        T = SparseOperator(chain_family(3), rs=(1.0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            vv_transfer_check([T], grid, [2.0], 1.0, INF, ns=(4, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            vv_transfer_check([T], grid, [2.0], 1.0, INF, ns=())
        with pytest.raises(ValueError, match="need one space per averaging exponent and at least one, got 2 for 1"):
            vv_transfer_check([T], grid, [2.0, 2.0], 1.0, INF)
        # with no trials there is no worst ratio to take
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            vv_transfer_check([T], grid, [2.0], 1.0, INF, trials=0)


# ---------------------------------------------------------------------------
# one trial suite shared by a group of models
# ---------------------------------------------------------------------------


def model_groups(grid: Grid) -> dict[str, tuple[list, list]]:
    """Groups of two and three models sharing m and rs, with their specs."""
    origin = (0,) * grid.d
    chain = certified([Cube(k, origin) for k in range(grid.depth + 1)])
    root = certified([Cube(0, origin)])
    haar = [HaarTransform.random(grid, seed) for seed in (1, 2)]
    return {
        "haar-sparse": ([haar[0], SparseOperator(chain, rs=(1.0,))], [2.0]),
        "haar-sparse-haar": ([haar[0], SparseOperator(chain, rs=(1.0,)), haar[1]], [2.0]),
        "sparse-r2": ([SparseOperator(root, rs=(2.0,)), SparseOperator(chain, rs=(2.0,))], [(3.0, 2.5)]),
        "pair": ([SparseOperator(chain, rs=(1.0, 1.0)), SparseOperator(root, rs=(1.0, 1.0))], [4.0, 4.0 / 3.0]),
        "pair-three": (
            [SparseOperator(chain, rs=(1.0, 2.0)), SparseOperator(root, rs=(1.0, 2.0)),
             SparseOperator(chain, rs=(1.0, 2.0))],
            [4.0, 4.0 / 3.0],
        ),
    }


@pytest.mark.parametrize("group", ["haar-sparse", "haar-sparse-haar", "sparse-r2", "pair", "pair-three"])
@pytest.mark.parametrize("s", [INF, 4.0])
@pytest.mark.parametrize("d, depth", [(1, 3), (2, 2)])
def test_grouped_models_equal_each_model_alone(d, depth, s, group):
    # the group shares each trial's draws and maximal side; every model's
    # report and scalar dict must keep their bits, not only a tolerance
    grid = Grid(d, depth)
    models, specs = model_groups(grid)[group]
    grouped = vv_transfer_check(models, grid, specs, 1.0, s, ns=(2, 4), trials=6, seed=d)
    alone = [vv_transfer_check([T], grid, specs, 1.0, s, ns=(2, 4), trials=6, seed=d)[0] for T in models]
    assert [rep.as_dict() for rep in grouped] == [rep.as_dict() for rep in alone]
    scalars = scalar_hypothesis_check(models, grid, 1.0, s, trials=6, seed=d)
    assert scalars == [scalar_hypothesis_check([T], grid, 1.0, s, trials=6, seed=d)[0] for T in models]


@pytest.mark.parametrize("group", ["haar-sparse", "pair"])
@pytest.mark.parametrize("d, depth", [(1, 3), (2, 2)])
def test_ratios_follow_the_per_atom_count_streams(d, depth, group):
    # every trial's profiles first, then atom counts outside and trials
    # inside, draw what a loop over n with the profile stream reseeded
    # draws, bit for bit
    grid = Grid(d, depth)
    models, specs = model_groups(grid)[group]
    reports = vv_transfer_check(models, grid, specs, 1.0, 8.0, ns=(2, 3, 8), trials=9, seed=4)
    for T, rep in zip(models, reports):
        assert rep.ratios == oracles.transfer_ratios_per_atom_count(T, grid, specs, 1.0, 8.0, (2, 3, 8), 9, 4)


@pytest.mark.parametrize("group", ["haar-sparse", "pair"])
def test_atom_counts_run_outside_and_trials_inside(monkeypatch, group):
    # each atom count lifts and evaluates every trial back to back, so the
    # largest count's arrays are not made and freed once per trial
    grid = Grid(2, 2)
    counts = []

    def counted(Ts, grid, Fs, *args):
        counts.append(Fs[0].shape[grid.d])
        return transfer_sides(Ts, grid, Fs, *args)

    monkeypatch.setattr(transfer, "transfer_sides", counted)
    models, specs = model_groups(grid)[group]
    trials = 5
    vv_transfer_check(models, grid, specs, 1.0, INF, ns=(2, 8, 32), trials=trials)
    assert counts == [2] * trials + [8] * trials + [32] * trials


@pytest.mark.parametrize("size", [1, 2, 3])
def test_one_maximal_side_per_trial_and_atom_count(monkeypatch, size):
    grid = Grid(1, 2)
    calls = []

    def counted(*args):
        calls.append(None)
        return scalar_maximal(*args)

    monkeypatch.setattr(transfer, "scalar_maximal", counted)
    models = [HaarTransform.random(grid, seed) for seed in range(size)]
    ns, trials = (2, 4, 8), 7
    vv_transfer_check(models, grid, [2.0], 1.0, INF, ns=ns, trials=trials)
    # min(trials, 50) scalar-check denominators, then one maximal side per
    # (trial, atom count), whatever the group size
    assert len(calls) == min(trials, 50) + trials * len(ns)


# ---------------------------------------------------------------------------
# weighted transfer
# ---------------------------------------------------------------------------


class TestWeightedTransfer:
    def test_haar_l2_square_growth(self):
        grid = Grid(1, 6)
        res = weighted_transfer_experiment(
            HaarTransform.random(grid, seed=4), grid, [2.0], ps=(2.0,), q=1.0
        )
        assert res["gamma"] == 2.0
        assert res["passed"] and res["slope"] <= 2.1
        first = res["rows"][0]
        assert first["a"] == 0.0 and np.isclose(first["constant"], 1.0, rtol=1e-12)
        for row in res["rows"]:
            assert row["ratio"] <= row["bound"] * (1 + 1e-9)

    def test_sparse_pair_square_growth(self):
        grid = Grid(1, 6)
        T = SparseOperator(chain_family(5), rs=(1.0, 1.0))
        res = weighted_transfer_experiment(T, grid, [4.0, 4.0 / 3.0], ps=(2.0, 2.0), q=1.0)
        assert res["gamma"] == 2.0 and res["passed"]

    def test_interval_geometry_required(self):
        T = SparseOperator(certified([Cube(0, (0, 0))]), rs=(1.0,))
        with pytest.raises(ValueError, match="interval"):
            weighted_transfer_experiment(T, Grid(2, 2), [2.0], ps=(2.0,), q=1.0)


# ---------------------------------------------------------------------------
# the transfer battery against the oracle paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 3)])
def test_transfer_report_equals_the_oracle_paths(monkeypatch, bind_everywhere, dim, depth, seed):
    # the report's floats must keep their bits, not only a tolerance: the
    # fitted slopes are noise of size 1e-16 that an ulp moves
    cfg = {"dim": dim, "depth": depth, "trials": 5, "seed": seed}
    fast = cli.run("transfer", cfg)
    bind_everywhere(dyadic.level_averages, oracles.level_averages_padded)
    bind_everywhere(maximal.scalar_maximal, oracles.scalar_maximal_upsampled)
    monkeypatch.setattr(SparseOperator, "apply", oracles.sparse_apply_walk)
    monkeypatch.setattr(HaarTransform, "apply", oracles.haar_apply_loop)
    assert cli.run("transfer", cfg) == fast
