"""Muckenhoupt constants, exponent arithmetic, and the BHT region."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedom.dyadic import Grid, grid_norm, shifted_grids
from sparsedom.maximal import scalar_maximal
from sparsedom.weights import (
    bht_region,
    composed_transfer_exponent,
    conjugate,
    ellt_exponent,
    extrapolation_exponent,
    gap_exponent,
    harmonic_exponent,
    maximal_weighted_exponent,
    muckenhoupt_constant,
    power_envelope,
    power_weight,
    recip,
    stable_muckenhoupt_constant,
    transfer_exponent,
)

from oracles import muckenhoupt_over_cubes, naive_average, shifted_cubes, theta_scan, theta_scan_full

INF = math.inf
EXPONENTS = st.floats(0.01, 100.0)


def naive_muckenhoupt(ws, ejs, e0, depth):
    """Dumb d=1 shift-0 enumeration of sup_Q prod <w_j^-1>_{e_j} <w>_{e0}."""
    prod = np.prod(np.stack(ws), axis=0)
    best, count = 0.0, 0
    for level in range(depth + 1):
        for m in range(1 << level):
            val = naive_average(prod, e0, level, m, depth)
            for w, ej in zip(ws, ejs):
                val *= naive_average(1.0 / w, ej, level, m, depth)
            best = max(best, val)
            count += 1
    return best, count


class TestReciprocalHelpers:
    def test_recip_values(self):
        assert recip(2.0) == 0.5
        assert recip(INF) == 0.0
        assert recip(0.25) == 4.0

    def test_recip_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=r"exponent must be in \(0, inf\], got 0.0"):
            recip(0.0)
        with pytest.raises(ValueError, match=r"exponent must be in \(0, inf\], got -3.0"):
            recip(-3.0)

    def test_harmonic(self):
        assert harmonic_exponent((2.0, 2.0)) == 1.0
        assert harmonic_exponent((4.0,)) == 4.0
        assert harmonic_exponent((INF, INF)) == INF
        assert np.isclose(harmonic_exponent((2.0, 3.0)), 1.2)

    @given(EXPONENTS, EXPONENTS | st.just(INF))
    def test_gap_exponent_inverts_the_reciprocal_gap(self, x, y):
        a, b = min(x, y), max(x, y)
        assert math.isclose(recip(gap_exponent(a, b)), recip(a) - recip(b), rel_tol=1e-15)

    @given(st.floats(1e-6, 1e6))
    def test_gap_exponent_at_infinity_is_exact(self, a):
        assert gap_exponent(a, INF) == a
        assert gap_exponent(a, a) == INF

    @given(EXPONENTS, st.floats(1e-6, 100.0))
    def test_gap_exponent_refuses_a_negative_gap(self, b, u):
        with pytest.raises(ValueError, match="a <= b"):
            gap_exponent(b * (1.0 + u), b)

    # the round trip loses about t ulps, so t stays where rel 1e-15 holds
    @given(st.floats(1.0, 4.0, exclude_min=True))
    def test_conjugate_is_an_involution(self, t):
        assert math.isclose(conjugate(conjugate(t)), t, rel_tol=1e-15)

    def test_conjugate_endpoints(self):
        assert conjugate(1.0) == INF
        assert conjugate(INF) == 1.0
        assert conjugate(2.0) == 2.0
        with pytest.raises(ValueError, match=r"t must be in \[1, inf\], got 0.5"):
            conjugate(0.5)


class TestWeightVector:
    """The weight components as muckenhoupt_constant checks and multiplies them."""

    def test_product_is_cellwise(self):
        # r_j = p_j and s = p make every average a sup: at the root
        # max(w1 w2) max(1/w1) max(1/w2) = 3 * 1 * 4, where the product of
        # the sups max(w1) max(w2) would give 32
        w1 = np.array([1.0, 2.0, 3.0, 4.0])
        w2 = np.array([2.0, 0.5, 1.0, 0.25])
        assert muckenhoupt_constant([w1, w2], (2.0, 2.0), (2.0, 2.0), 1.0, Grid(1, 2)) == 12.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            muckenhoupt_constant([np.array([1.0, 0.0])], (2.0,), (1.0,), INF, Grid(1, 1))

    @pytest.mark.parametrize("bad", [INF, math.nan])
    def test_rejects_nonfinite(self, bad):
        # an infinite weight made the characteristic infinite, with a warning
        with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
            muckenhoupt_constant([np.array([1.0, bad])], (2.0,), (1.0,), INF, Grid(1, 1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="cell shape"):
            muckenhoupt_constant([np.ones(4), np.ones(8)], (4.0, 4.0), (1.0, 1.0), INF, Grid(1, 2))

    def test_rejects_empty(self):
        # the weights are checked before the exponents are matched to them
        with pytest.raises(ValueError, match="need at least one weight component, got none"):
            muckenhoupt_constant([], (), (), INF, Grid(1, 1))


class TestPowerWeight:
    def test_zero_exponent_is_one(self):
        g = Grid(1, 5)
        np.testing.assert_array_equal(power_weight(g, 0.0), np.ones(32))

    def test_cell_averages_are_exact(self):
        # sum of cell averages times cell width = integral of x^a = 1/(a+1)
        g = Grid(1, 6)
        for a in (0.25, 0.5, 1.0, -0.5):
            w = power_weight(g, a)
            assert np.isclose(w.sum() / 64, 1.0 / (a + 1.0), rtol=1e-12)
        # first cell: integral of x^a over [0, h) is h^(a+1)/(a+1)
        h = 1.0 / 64
        w = power_weight(g, 0.25)
        assert np.isclose(w[0], h**0.25 / 1.25, rtol=1e-12)
        assert np.all(np.diff(w) > 0)

    def test_requires_integrable(self):
        with pytest.raises(ValueError, match=r"a must be in \(-1, inf\), got -1.0"):
            power_weight(Grid(1, 3), -1.0)

    def test_two_dimensional_depends_on_first_axis(self):
        g = Grid(2, 3)
        w = power_weight(g, 0.5)
        assert w.shape == (8, 8)
        assert np.all(w == w[:, :1])


class TestMuckenhouptConstant:
    def test_unit_weight_gives_one(self):
        for d, depth in ((1, 4), (2, 2)):
            grids = shifted_grids(d, depth)
            ones = np.ones(grids[0].cell_shape)
            for ps, rs, s in (
                ((2.0,), (1.0,), INF),
                ((3.0,), (2.0,), 4.0),
            ):
                got = muckenhoupt_constant([ones], ps, rs, s, grids)
                assert np.isclose(got, 1.0, rtol=1e-12)
            got = muckenhoupt_constant([ones, ones], (4.0, 4.0), (1.0, 2.0), INF, grids)
            assert np.isclose(got, 1.0, rtol=1e-12)

    def test_matches_dumb_enumeration_power_weight(self):
        # m=1, p=2, r=1, s=inf: both average exponents come out as 2
        g = Grid(1, 8)
        w = power_weight(g, 0.25)
        got = muckenhoupt_constant([w], (2.0,), (1.0,), INF, g)
        want, count = naive_muckenhoupt([w], [2.0], 2.0, 8)
        assert count == 511
        assert np.isclose(got, want, rtol=1e-12)
        # the continuous weight has sup_I <w>_2 <1/w>_2 = sqrt(4/3), attained
        # on intervals touching the singularity; the cell discretization
        # lands close below it
        assert got < math.sqrt(4.0 / 3.0) + 1e-9
        assert abs(got - math.sqrt(4.0 / 3.0)) < 0.02

    def test_matches_dumb_enumeration_two_components(self):
        g = Grid(1, 5)
        w1 = power_weight(g, 0.25)
        w2 = np.exp(np.sin(np.arange(32)))
        got = muckenhoupt_constant([w1, w2], (2.0, 2.0), (1.0, 1.0), INF, g)
        want, _ = naive_muckenhoupt([w1, w2], [2.0, 2.0], 1.0, 5)
        assert np.isclose(got, want, rtol=1e-12)

    def test_stabilization_reports_deep_value(self):
        make = lambda g: [power_weight(g, 0.25)]
        got = stable_muckenhoupt_constant(make, (2.0,), (1.0,), INF, 1, 8, all_shifts=False)
        direct = muckenhoupt_constant([power_weight(Grid(1, 8), 0.25)], (2.0,), (1.0,), INF, Grid(1, 8))
        assert got == direct
        shallow = muckenhoupt_constant([power_weight(Grid(1, 7), 0.25)], (2.0,), (1.0,), INF, Grid(1, 7))
        assert abs(direct - shallow) <= 0.05 * direct

    def test_stabilization_flags_moving_supremum(self):
        # a near-singular weight whose constant keeps growing with depth
        def steep(g):
            n = 1 << g.depth
            return [((np.arange(n) + 0.5) / n) ** 0.98]

        with pytest.raises(RuntimeError, match="not stabilized"):
            stable_muckenhoupt_constant(steep, (1.01,), (1.0,), INF, 1, 6, all_shifts=False)

    def test_infinite_branch_when_r_equals_p(self):
        g = Grid(1, 4)
        w = power_weight(g, 0.5)
        got = muckenhoupt_constant([w], (2.0,), (2.0,), INF, g)
        # <1/w>_inf * <w>_2 over the root already exceeds 1
        assert got >= 1.0
        got_ps = muckenhoupt_constant([w], (2.0,), (1.0,), 2.0, g)
        assert got_ps >= 1.0  # p = s turns the product average into a sup

    def test_shifted_grids_only_enlarge(self):
        g = Grid(1, 5)
        w = power_weight(g, 0.25)
        base = muckenhoupt_constant([w], (2.0,), (1.0,), INF, g)
        with_shifts = muckenhoupt_constant([w], (2.0,), (1.0,), INF, shifted_grids(1, 5))
        assert with_shifts >= base

    @pytest.mark.parametrize("grids", [
        [Grid(1, 3), Grid(1, 1, 1)],  # a shallower lattice among the grids
        Grid(1, 4),  # a deeper lattice
        Grid(2, 3),  # the other dimension
    ])
    def test_grids_must_lie_over_the_weight_cells(self, grids):
        w = power_weight(Grid(1, 3), 0.25)
        with pytest.raises(ValueError, match="does not lie over the weights' cells"):
            muckenhoupt_constant([w], (2.0,), (1.0,), INF, grids)

    def test_needs_a_grid(self):
        w = power_weight(Grid(1, 3), 0.25)
        with pytest.raises(ValueError, match="need at least one grid"):
            muckenhoupt_constant([w], (2.0,), (1.0,), INF, [])

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 0), (1, 3), (1, 5), (2, 1), (2, 3)]),
        shifts=st.booleans(),
        exps=st.lists(st.tuples(st.floats(1.1, 6.0), st.sampled_from([0.3, 0.7, 1.0])),
                      min_size=1, max_size=2),
        s_case=st.sampled_from(["inf", "p", "2p"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_level_maxima_equal_the_cube_walk(self, shape, shifts, exps, s_case, seed):
        # r_j = p_j (fraction 1.0) and s = p are the gap-0 sup branches
        d, depth = shape
        ps = tuple(p for p, _ in exps)
        rs = tuple(p * t for p, t in exps)
        p = harmonic_exponent(ps)
        s = {"inf": INF, "p": p, "2p": 2 * p}[s_case]
        grids = shifted_grids(d, depth) if shifts else [Grid(d, depth)]
        rng = np.random.default_rng(seed)
        ws = [np.exp(rng.normal(scale=2.0, size=grids[0].cell_shape)) for _ in exps]
        want = muckenhoupt_over_cubes(
            ws, ps, rs, s, grids[0], (q for g in grids for q in shifted_cubes(g))
        )
        assert muckenhoupt_constant(ws, ps, rs, s, grids) == want

    def test_monotone_in_cube_family(self):
        g = Grid(1, 5)
        w = power_weight(g, 0.5)
        cubes = shifted_cubes(g)
        full = muckenhoupt_over_cubes([w], (2.0,), (1.0,), INF, g, cubes)
        rng = np.random.default_rng(7)
        for _ in range(10):
            keep = rng.random(len(cubes)) < 0.4
            sub = [q for q, k in zip(cubes, keep) if k]
            assert muckenhoupt_over_cubes([w], (2.0,), (1.0,), INF, g, sub) <= full + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), scales=st.tuples(
        st.floats(0.01, 100.0), st.floats(0.01, 100.0)))
    def test_rescaling_invariance(self, seed, scales):
        g = Grid(1, 4)
        rng = np.random.default_rng(seed)
        ws = [np.exp(rng.normal(size=16)), np.exp(rng.normal(size=16))]
        base = muckenhoupt_constant(ws, (3.0, 4.0), (1.0, 2.0), 6.0, g)
        scaled = muckenhoupt_constant(
            [scales[0] * ws[0], scales[1] * ws[1]], (3.0, 4.0), (1.0, 2.0), 6.0, g
        )
        assert np.isclose(base, scaled, rtol=1e-9)

    def test_two_dimensional_smoke(self):
        g = Grid(2, 3)
        w = power_weight(g, 0.5)
        got = muckenhoupt_constant([w], (2.0,), (1.0,), INF, shifted_grids(2, 3))
        assert 1.0 < got < 10.0

    def test_domain_errors(self):
        g = Grid(1, 3)
        w = power_weight(g, 0.25)
        with pytest.raises(ValueError, match="r_1 <= p_1"):
            muckenhoupt_constant([w], (1.0,), (2.0,), INF, g)
        with pytest.raises(ValueError, match="p <= s"):
            muckenhoupt_constant([w], (2.0,), (1.0,), 1.5, g)
        with pytest.raises(ValueError, match="need one p_j per weight component and at least one, got 2 for 1"):
            muckenhoupt_constant([w], (2.0, 2.0), (1.0,), INF, g)


class TestExponentTuple:
    """The standing inequalities and tau as composed_transfer_exponent checks and uses them."""

    def test_derived_fields(self):
        # r = 1/2, p = 1, tau = (1/q)/(1/r - 1/s + 1/q) = 1/3 and t_j = 3:
        # extrapolation gives max{4/3, 2/3}, and 4/3 / (1 - tau) = 2
        got = composed_transfer_exponent((2.0, 2.0), 1.0, (1.0, 1.0), INF)
        assert np.isclose(got, 2.0, rtol=1e-14)
        assert np.isclose(got, transfer_exponent((2.0, 2.0), 1.0, (1.0, 1.0), INF), rtol=1e-14)

    def test_tau_half_in_linear_case(self):
        # tau = 1/2 gives t = p, so the extrapolation exponent is exactly 1
        assert extrapolation_exponent((2.0,), (2.0,), (1.0,), INF) == 1.0
        assert composed_transfer_exponent((2.0,), 1.0, (1.0,), INF) == 2.0

    def test_standing_inequalities(self):
        with pytest.raises(ValueError, match="r_1 < p_1"):
            composed_transfer_exponent((2.0,), 1.0, (2.0,), INF)
        with pytest.raises(ValueError, match="s > r"):
            composed_transfer_exponent((3.0, 3.0), 0.5, (2.0, 2.0), 1.0)
        with pytest.raises(ValueError, match="q < s"):
            composed_transfer_exponent((2.0,), 4.0, (1.0,), 4.0)
        with pytest.raises(ValueError, match="p < s"):
            composed_transfer_exponent((3.0,), 1.0, (1.0,), 2.0)
        with pytest.raises(ValueError, match=r"r_1 must be in \(0, inf\), got inf"):
            composed_transfer_exponent((INF,), 1.0, (INF,), INF)

    def test_infinite_p_component_is_legal(self):
        got = composed_transfer_exponent((2.0, INF), 1.0, (1.0, 1.0), INF)
        assert np.isclose(got, transfer_exponent((2.0, INF), 1.0, (1.0, 1.0), INF), rtol=1e-14)


class TestMaximalWeightedExponent:
    def test_classical_linear_value(self):
        assert maximal_weighted_exponent((2.0,), (1.0,)) == 2.0

    def test_bilinear_value(self):
        assert np.isclose(maximal_weighted_exponent((4.0, 4.0), (1.0, 1.0)), 4.0 / 3.0)

    def test_infinite_p_tends_to_one(self):
        assert maximal_weighted_exponent((INF,), (1.0,)) == 1.0
        assert maximal_weighted_exponent((INF, INF), (2.0, 3.0)) == 1.0

    @given(st.lists(st.tuples(EXPONENTS, st.floats(1e-3, 100.0)), min_size=1, max_size=3))
    def test_is_the_extrapolation_r_side_at_infinite_t(self, pairs):
        # with every t_j = s = inf (p < s needs p finite) the s-side is 0
        rs = tuple(r for r, _ in pairs)
        ps = tuple(r * (1.0 + u) for r, u in pairs)
        ts = (INF,) * len(rs)
        assert maximal_weighted_exponent(ps, rs) == extrapolation_exponent(ps, ts, rs, INF)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="r_1 < p_1"):
            maximal_weighted_exponent((1.0,), (1.0,))
        with pytest.raises(ValueError, match="r_2 < p_2"):
            maximal_weighted_exponent((3.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError, match=r"r_1 must be in \(0, inf\), got inf"):
            maximal_weighted_exponent((INF,), (INF,))
        with pytest.raises(ValueError, match="need one p_j per r_j and at least one, got 1 for 2"):
            maximal_weighted_exponent((2.0,), (1.0, 1.0))


class TestTransferExponent:
    def test_linear_czo_value(self):
        assert transfer_exponent((2.0,), 1.0, (1.0,), INF) == 2.0

    def test_bilinear_value(self):
        # r-side gives 2 twice, s-side gives 1
        assert transfer_exponent((2.0, 2.0), 1.0, (1.0, 1.0), INF) == 2.0

    def test_q_equals_p_reduces_to_maximal(self):
        for ps, rs in (((2.0,), (1.0,)), ((3.0, 6.0), (1.0, 2.0))):
            p = harmonic_exponent(ps)
            got = transfer_exponent(ps, p, rs, INF)
            assert got == maximal_weighted_exponent(ps, rs)

    def test_s_side_value(self):
        # r close to p: r-side (1)/(1 - 1/8) = 8/7; s-side 1/(1/8) = 8 binds
        assert np.isclose(transfer_exponent((8.0,), 1.0, (1.0,), INF), 8.0)

    def test_classical_ap_family(self):
        # m=1, r=1, q=1, s=inf reduces to max{p, p'}
        for p in (1.5, 2.0, 3.0, 4.0):
            pprime = p / (p - 1.0)
            assert np.isclose(transfer_exponent((p,), 1.0, (1.0,), INF), max(p, pprime))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="q <= p"):
            transfer_exponent((2.0,), 3.0, (1.0,), INF)
        with pytest.raises(ValueError, match="p < s"):
            transfer_exponent((2.0,), 1.0, (1.0,), 2.0)


class TestExtrapolationExponent:
    def test_identity_when_t_equals_p(self):
        assert extrapolation_exponent((2.0,), (2.0,), (1.0,), INF) == 1.0
        assert extrapolation_exponent((3.0, 4.0), (3.0, 4.0), (1.0, 2.0), INF) == 1.0

    def test_linear_worked_value(self):
        got = extrapolation_exponent((2.0,), (3.0,), (1.0,), INF)
        assert np.isclose(got, 4.0 / 3.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="r_1 <= t_1"):
            extrapolation_exponent((2.0,), (0.5,), (1.0,), INF)
        with pytest.raises(ValueError, match="t <= s"):
            extrapolation_exponent((2.0,), (5.0,), (1.0,), 4.0)
        with pytest.raises(ValueError, match="p < s"):
            extrapolation_exponent((4.0,), (2.0,), (1.0,), 4.0)


class TestCompositionIdentity:
    def test_linear_case_exact(self):
        got = composed_transfer_exponent((2.0,), 1.0, (1.0,), INF)
        assert np.isclose(got, 2.0, rtol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 3),
        infinite_s=st.booleans(),
    )
    def test_matches_transfer_on_random_tuples(self, seed, m, infinite_s):
        rng = np.random.default_rng(seed)
        rs = tuple(rng.uniform(0.5, 3.0, size=m))
        ps = tuple(r * rng.uniform(1.2, 4.0) for r in rs)
        p = harmonic_exponent(ps)
        q = p * rng.uniform(0.3, 1.0)
        s = INF if infinite_s else p * rng.uniform(1.5, 4.0)
        direct = transfer_exponent(ps, q, rs, s)
        composed = composed_transfer_exponent(ps, q, rs, s)
        assert np.isclose(composed, direct, rtol=1e-12)


class TestElltExponent:
    def test_banach_range_value(self):
        # q0=1, r=(1,1): gamma = max{p1', p2', p} once t >= 1
        got = ellt_exponent((2.0, 3.0), (1.0, 1.0), 1.0, (2.0, 2.0))
        p = harmonic_exponent((2.0, 3.0))
        assert np.isclose(got, max(2.0, 1.5, p))
        assert np.isclose(got, 2.0)

    def test_quasi_banach_range_value(self):
        # t = 2/3 below q0 = 1 switches the second term to p/t = (3/2) p
        ps = (4.0, 4.0)
        got = ellt_exponent(ps, (1.0, 1.0), 1.0, (4.0 / 3.0, 4.0 / 3.0))
        p = harmonic_exponent(ps)
        assert np.isclose(got, max(4.0 / 3.0, 1.5 * p))
        assert np.isclose(got, 3.0)

    def test_case_boundary_agrees(self):
        # t = q0 exactly: both branches give p/q0
        ps, rs = (3.0, 3.0), (1.0, 1.0)
        q0 = 1.0
        at_boundary = ellt_exponent(ps, rs, q0, (2.0, 2.0))  # t = 1 = q0
        p = harmonic_exponent(ps)
        assert np.isclose(at_boundary, max(1.5, p / q0))

    def test_general_r_side(self):
        # r above 1 moves the first family off the conjugates
        got = ellt_exponent((4.0,), (2.0,), 2.0, (3.0,))
        r_side = (1.0 / 2.0) / (1.0 / 2.0 - 1.0 / 4.0)
        assert np.isclose(got, max(r_side, 4.0 / 2.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="t > r"):
            ellt_exponent((2.0, 2.0), (1.0, 1.0), 1.0, (1.0, 1.0))
        with pytest.raises(ValueError, match=r"p must be in \(0, inf\), got inf"):
            ellt_exponent((INF,), (1.0,), 1.0, (2.0,))
        with pytest.raises(ValueError, match=r"t must be in \(0, inf\), got inf"):
            ellt_exponent((2.0,), (1.0,), 1.0, (INF,))
        with pytest.raises(ValueError, match=r"q0 must be in \(0, inf\), got inf"):
            ellt_exponent((2.0,), (1.0,), INF, (2.0,))


class TestBhtRegion:
    @staticmethod
    def witness_ok(r1, r2, s, theta):
        t1, t2, t3 = theta
        ok = all(0.0 <= t < 1.0 for t in theta)
        ok &= abs(sum(theta) - 1.0) < 1e-12
        ok &= 1.0 / r1 < (1.0 + t1) / 2.0
        ok &= 1.0 / r2 < (1.0 + t2) / 2.0
        ok &= 1.0 / s > (1.0 - t3) / 2.0
        return ok

    def test_local_l2_triple_is_member(self):
        member, theta = bht_region(2.0, 2.0, 2.0)
        assert member
        np.testing.assert_allclose(theta, (1.0 / 3.0,) * 3)
        assert self.witness_ok(2.0, 2.0, 2.0, theta)

    def test_near_one_triple_is_not_member(self):
        member, info = bht_region(10.0 / 9.0, 10.0 / 9.0, 10.0)
        assert not member
        assert np.isclose(info["sum"], 2.7, rtol=1e-12)
        assert info["bound"] == 2.0

    def test_domain_errors(self):
        for bad in ((1.0, 2.0, 2.0), (2.0, 0.5, 2.0), (2.0, 2.0, INF)):
            with pytest.raises(ValueError, match="in \\(1, inf\\)"):
                bht_region(*bad)

    def test_closed_form_matches_theta_scan(self):
        vals = (1.05, 1.2, 1.6, 2.0, 3.0, 6.0)
        for r1 in vals:
            for r2 in vals:
                for s in vals:
                    total = sum(
                        max(1.0 / rho, 0.5) for rho in (r1, r2, s / (s - 1.0))
                    )
                    if abs(total - 2.0) < 0.05:
                        continue  # too close to the boundary for a 1e-2 scan
                    member, _ = bht_region(r1, r2, s)
                    assert member == theta_scan(r1, r2, s, resolution=1e-2)

    def test_vectorized_scan_matches_full_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            r1, r2 = rng.uniform(1.05, 4.0, size=2)
            s = rng.uniform(1.05, 6.0)
            assert theta_scan(r1, r2, s, 1e-2) == theta_scan_full(r1, r2, s, 1e-2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_member_witnesses_are_valid(self, seed):
        rng = np.random.default_rng(seed)
        r1, r2 = rng.uniform(1.05, 6.0, size=2)
        s = rng.uniform(1.05, 6.0)
        member, out = bht_region(r1, r2, s)
        if member:
            assert self.witness_ok(r1, r2, s, out)
        else:
            assert out["sum"] >= 2.0


class TestPowerEnvelope:
    def test_exact_power_data(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.0 * xs**2
        c, slope = power_envelope(xs, ys, 2.0)
        assert np.isclose(c, 3.0)
        assert np.isclose(slope, 2.0)
        assert np.all(ys <= c * xs**2 * (1 + 1e-12))

    def test_single_point_slope_zero(self):
        c, slope = power_envelope([2.0], [8.0], 3.0)
        assert np.isclose(c, 1.0)
        assert slope == 0.0

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError, match="x > 0"):
            power_envelope([0.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="1-d"):
            power_envelope([[1.0]], [[1.0]], 1.0)


class TestWeightedMaximalEnvelope:
    def test_power_weight_family_sits_under_envelope(self):
        # m=1, r=1, p=2: the maximal bound exponent is gamma = 2
        g = Grid(1, 6)
        gamma = maximal_weighted_exponent((2.0,), (1.0,))
        assert gamma == 2.0
        consts, ratios = [], []
        tests = [
            np.ones(64),
            np.concatenate([np.ones(1), np.zeros(63)]),
            np.concatenate([np.ones(16), np.zeros(48)]),
        ]
        for a in (0.0, 0.125, 0.25, 0.375, 0.5):
            w = power_weight(g, a)
            consts.append(muckenhoupt_constant([w], (2.0,), (1.0,), INF, g))
            tests_a = tests + [1.0 / w]
            best = 0.0
            for f in tests_a:
                mf = scalar_maximal(g, [f], [1.0])
                best = max(best, grid_norm(g, mf, 2.0, weight=w)
                           / grid_norm(g, f, 2.0, weight=w))
            ratios.append(best)
        c, slope = power_envelope(consts, ratios, gamma)
        assert np.isfinite(c) and c > 0
        assert slope <= gamma + 0.1
        for x, y in zip(consts, ratios):
            assert y <= c * x**gamma * (1 + 1e-9)
