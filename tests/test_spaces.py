"""Norms, duals, and products of the finite atomic function spaces."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsedom.spaces import (
    AtomicMeasure,
    IteratedSpace,
    LebesgueSpace,
    LorentzSpace,
    OrliczSpace,
    associate_norm,
    associate_space,
    concavify,
    harmonic_exponent,
    phi_table_from_csv,
    phi_table_to_csv,
    product_norm,
    product_space,
    space_from_json,
    space_to_json,
)
import sparsedom.spaces as spaces_module
from sparsedom.spaces import _norming, _orlicz_split, conjugate
from oracles import (
    amemiya_norm,
    bisected_levels,
    concavified_norm,
    dual_norm_grid,
    luxemburg_norm_unscaled,
    orlicz_split_fixed_steps,
    product_norm_grid,
    product_norm_sequential,
)

U2 = AtomicMeasure.unit(2)
U3 = AtomicMeasure.unit(3)
WEIGHTED3 = AtomicMeasure([0.5, 2.0, 1.25])

# exact zeros stay; nonzero entries floored so table-driven norms keep precision
finite_vec = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=8.0, allow_nan=False)),
    min_size=3,
    max_size=3,
).map(np.array)


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure([1.0, 0.0])
    with pytest.raises(ValueError):
        AtomicMeasure([[1.0, 2.0]])
    assert AtomicMeasure.unit(4).n == 4


def test_lebesgue_values():
    assert LebesgueSpace(1, U2).norm([1, 1]) == pytest.approx(2.0)
    assert LebesgueSpace(math.inf, U2).norm([3, -4]) == pytest.approx(4.0)
    w = AtomicMeasure([0.25, 0.75])
    assert LebesgueSpace(2, w).norm([2, 2]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        LebesgueSpace(0, U2)


def test_lebesgue_batch_shape():
    sp = LebesgueSpace(2, U2)
    out = sp.norm(np.array([[3.0, 4.0], [0.0, 1.0]]))
    assert out.shape == (2,)
    assert out == pytest.approx([5.0, 1.0])


def test_lorentz_matches_lebesgue_on_diagonal():
    rng = np.random.default_rng(0)
    w = AtomicMeasure(rng.uniform(0.5, 2.0, 5))
    for t in (1.0, 1.5, 2.0, 3.0):
        lo, le = LorentzSpace(t, t, w), LebesgueSpace(t, w)
        for _ in range(20):
            v = rng.exponential(size=5)
            assert lo.norm(v) == pytest.approx(le.norm(v), rel=1e-12)


def test_lorentz_values():
    assert LorentzSpace(2, 2, U2).norm([3, 4]) == pytest.approx(5.0)
    # sorted (4,3), unit atoms: 4*2*(1-0) + 3*2*(sqrt(2)-1)
    assert LorentzSpace(2, 1, U2).norm([3, 4]) == pytest.approx(2 + 6 * math.sqrt(2))
    # u = inf: max of value times cumulative-weight^(1/t)
    assert LorentzSpace(2, math.inf, U2).norm([3, 4]) == pytest.approx(
        max(4.0, 3 * math.sqrt(2))
    )
    with pytest.raises(ValueError):
        LorentzSpace(math.inf, 2, U2)


def test_lorentz_rearrangement_invariant():
    sp = LorentzSpace(2.5, 1.5, U3)
    v = np.array([1.0, 5.0, 2.0])
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert sp.norm(v[perm]) == pytest.approx(sp.norm(v), rel=1e-12)


def test_orlicz_power_values():
    assert OrliczSpace.from_power(2, U2).norm([3, 4]) == pytest.approx(5.0, rel=1e-10)
    # Phi = c t^2 scales the norm by sqrt(c)
    assert OrliczSpace.from_power(2, U2, scale=4.0).norm([3, 4]) == pytest.approx(
        10.0, rel=1e-10
    )
    rng = np.random.default_rng(1)
    w = AtomicMeasure(rng.uniform(0.5, 2.0, 4))
    orl, leb = OrliczSpace.from_power(1.5, w), LebesgueSpace(1.5, w)
    for _ in range(10):
        v = rng.exponential(size=4)
        assert orl.norm(v) == pytest.approx(leb.norm(v), rel=1e-10)
    assert orl.norm(np.zeros(4)) == 0.0


def test_orlicz_norm_raises_at_bracket_cap():
    # Phi = t^0.01 puts the norm of (1, 1, 1) at 3^100, beyond 2^100 doublings
    slow = OrliczSpace.from_power(0.01, AtomicMeasure.unit(3))
    with pytest.raises(ValueError, match="100 doublings"):
        slow.norm(np.ones(3))
    # within the cap the same space still norms: 2^100 >= (4/3)^100
    assert slow.norm([1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-10)


def test_orlicz_rows_near_the_double_limit_keep_their_norm():
    # the rescale by a power of two near the sup must not overflow from 2^1023 up
    sp = OrliczSpace.from_power(2, U2)
    assert sp.norm([1e308, 0.0]) == 1e308
    assert sp.norm([8e307, 0.0]) == 8e307
    assert sp.norm([np.finfo(float).max, 0.0]) == np.finfo(float).max
    assert associate_norm(sp, np.array([1e308, 0.0])) == 1e308


@pytest.mark.parametrize(
    "space",
    [
        LebesgueSpace(1.0, U2),
        LebesgueSpace(2.0, U2),
        IteratedSpace(LebesgueSpace(2.0, U2), LebesgueSpace(2.0, AtomicMeasure.unit(1))),
        IteratedSpace(LebesgueSpace(2.0, AtomicMeasure.unit(1)), LebesgueSpace(2.0, U2)),
        OrliczSpace.from_power(2.0, U2),
        # t < 1: the power sum stays finite and only the norm overflows
        LebesgueSpace(0.5, U2),
        IteratedSpace(LebesgueSpace(0.5, U2), LebesgueSpace(2.0, AtomicMeasure.unit(1))),
    ],
    ids=["l1", "l2", "l2-of-l2-outer", "l2-of-l2-inner", "orlicz-2", "l0.5", "l0.5-of-l2-outer"],
)
def test_norms_past_the_largest_double_are_inf_without_a_warning(space):
    xi = np.full(space.atom_shape, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.norm(xi) == math.inf
        assert np.array_equal(space.norm(np.stack([xi, xi / 2**1000])), [math.inf, space.norm(xi / 2**1000)])


def test_orlicz_phi_roundtrip_and_validation():
    tab = np.array([[0.5, 0.3], [1.0, 1.0], [2.0, 5.0], [4.0, 40.0]])
    sp = OrliczSpace(tab, U2)
    xs = np.array([0.1, 0.7, 1.3, 3.0, 9.0])
    assert np.allclose(sp.phi_inv(sp.phi(xs)), xs, rtol=1e-12)
    with pytest.raises(ValueError):
        OrliczSpace([[1.0, 1.0], [2.0, 0.5]], U2)
    with pytest.raises(ValueError):
        OrliczSpace([[1.0, 1.0]], U2)


def test_iterated_norm():
    inner = LebesgueSpace(math.inf, U2)
    outer = LebesgueSpace(1, U2)
    sp = IteratedSpace(outer, inner)
    # rows (1,2) and (3,4): inner sups (2,4), outer sum 6
    assert sp.norm([[1, 2], [3, 4]]) == pytest.approx(6.0)
    assert sp.atom_shape == (2, 2)
    assert sp.mu.shape == (2, 2)
    with pytest.raises(ValueError):
        IteratedSpace(sp, inner)


def test_concavify_closed_forms():
    le = concavify(LebesgueSpace(2, U2), 2)
    assert isinstance(le, LebesgueSpace) and le.t == pytest.approx(1.0)
    lo = concavify(LorentzSpace(4, 2, U3), 2)
    assert isinstance(lo, LorentzSpace)
    assert (lo.t, lo.u) == (pytest.approx(2.0), pytest.approx(1.0))
    assert concavify(le, 1) is le
    it = concavify(IteratedSpace(LebesgueSpace(3, U2), LorentzSpace(4, 2, U3)), 2)
    assert isinstance(it.outer, LebesgueSpace) and isinstance(it.inner, LorentzSpace)
    assert (it.outer.t, it.inner.t, it.inner.u) == (1.5, 2.0, 1.0)


def test_concavify_norm_identity():
    rng = np.random.default_rng(2)
    w = WEIGHTED3
    for base in (LebesgueSpace(3, w), LorentzSpace(4, 2, w), IteratedSpace(LebesgueSpace(3, U2), LorentzSpace(4, 2, w))):
        for p in (0.5, 2.0, 3.0):
            v = rng.exponential(size=(15, *base.atom_shape))
            assert concavify(base, p).norm(v) == pytest.approx(concavified_norm(base, p, v), rel=1e-10)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", ["piecewise", "power", "nonconvex"])
def test_concavified_orlicz_is_the_table_x_to_the_p(name, p):
    # X^p of L^Phi is the Orlicz space of the table (x^p, Phi), not (x^(1/p), Phi);
    # the tables: a convex piecewise power law, t^2.5, and log-slopes 1, 3, 1
    table = {"piecewise": PIECEWISE, "power": OrliczSpace.from_power(2.5, U3).table, "nonconvex": NONCONVEX}[name]
    base = OrliczSpace(table, WEIGHTED3)
    closed = concavify(base, p)
    assert isinstance(closed, OrliczSpace)
    v = np.random.default_rng(7).lognormal(sigma=2.0, size=(40, 3))
    assert closed.norm(v) == pytest.approx(concavified_norm(base, p, v), rel=1e-12, abs=0.0)


def test_concavified_convex_orlicz_has_the_exact_associate_norm():
    # (t^3)^2 is Phi(s) = s^1.5, so X^2 is l^1.5(mu) and its associate l^3(mu)
    sp = concavify(OrliczSpace.from_power(3.0, WEIGHTED3), 2.0)
    assert sp.has_convex_phi() and sp.convexity == 1.0
    for xi in np.random.default_rng(8).lognormal(size=(20, 3)):
        assert associate_norm(sp, xi) == pytest.approx(LebesgueSpace(3.0, WEIGHTED3).norm(xi), rel=1e-12, abs=0.0)


def test_convexity_is_derived():
    # every kind, before and after a JSON round trip, whose payload carries none
    derived = [
        (LebesgueSpace(1.7, U2), 1.7),
        (LebesgueSpace(math.inf, U2), math.inf),
        (LorentzSpace(3, 1.5, U2), 1.5),
        (LorentzSpace(2, 4, U2), 0.5),
        (LorentzSpace(2, math.inf, U2), 0.0),
        (OrliczSpace.from_power(2, U2), 1.0),
        (OrliczSpace.from_power(0.5, U2), 0.5),
        # (t^3)^2 is l^1.5, which is 1-convex; (t^2)^4 is l^0.5
        (concavify(OrliczSpace.from_power(3, U2), 2.0), 1.0),
        (concavify(OrliczSpace.from_power(2, U2), 4.0), 0.5),
        (IteratedSpace(LebesgueSpace(1, U2), LebesgueSpace(2, U2)), 1.0),
        (IteratedSpace(LebesgueSpace(2, U2), LebesgueSpace(0.5, U2)), 0.5),
    ]
    for space, convexity in derived:
        text = space_to_json(space)
        assert "convexity" not in text
        for sp in (space, space_from_json(text)):
            assert sp.convexity == pytest.approx(convexity, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(vecs=st.lists(finite_vec, min_size=2, max_size=4))
def test_p_convexity_at_declared_exponent(vecs):
    fam = np.array(vecs)
    spaces = [
        LebesgueSpace(1.7, U3),
        LorentzSpace(3, 1.5, U3),
        OrliczSpace.from_power(2, U3),
        IteratedSpace(LebesgueSpace(1, U3), LebesgueSpace(2, U3)),
    ]
    for sp in spaces:
        p = sp.convexity
        if len(sp.atom_shape) == 2:
            fam_s = np.repeat(fam[:, None, :], sp.atom_shape[0], axis=1)
        else:
            fam_s = fam
        lhs = sp.norm((fam_s**p).sum(axis=0) ** (1.0 / p))
        rhs = float(np.sum([sp.norm(v) ** p for v in fam_s])) ** (1.0 / p)
        assert lhs <= rhs * (1 + 1e-9)


def test_quasi_triangle_constant_bounded():
    rng = np.random.default_rng(3)
    sp = LorentzSpace(2, math.inf, U3)
    worst = 0.0
    for _ in range(500):
        a, b = rng.exponential(size=3), rng.exponential(size=3)
        worst = max(worst, sp.norm(a + b) / (sp.norm(a) + sp.norm(b)))
    assert 1.0 <= worst <= 4.0


def test_associate_lebesgue_values():
    assert associate_norm(LebesgueSpace(2, U2), [3, 4]) == pytest.approx(5.0)
    assert associate_norm(LebesgueSpace(1, U2), [3, 4]) == pytest.approx(4.0)
    assert associate_norm(LebesgueSpace(math.inf, U2), [3, 4]) == pytest.approx(7.0)
    w = AtomicMeasure([0.5, 2.0])
    assert associate_norm(LebesgueSpace(3, w), [1, 2]) == pytest.approx(
        LebesgueSpace(1.5, w).norm([1, 2])
    )


def test_associate_refuses_quasi_norms():
    with pytest.raises(ValueError):
        associate_norm(LorentzSpace(2, 4, U2), [1, 1])
    # l^t with t < 1 has convexity t, alone or as a layer, so it is refused
    sp = LebesgueSpace(0.5, U2)
    for argmax in (False, True):
        with pytest.raises(ValueError, match="requires a 1-convex space; its convexity is 0.5"):
            associate_norm(sp, [1, 1], return_argmax=argmax)
        with pytest.raises(ValueError, match="requires a 1-convex space; its convexity is 0.5"):
            associate_norm(IteratedSpace(LebesgueSpace(2.0, U2), sp), np.ones((2, 2)), return_argmax=argmax)


@pytest.mark.parametrize(
    "space", [OrliczSpace.from_power(2.0, U3), OrliczSpace.from_power(1.0, U3), LebesgueSpace(2.0, U3)]
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_associate_refuses_non_finite_vectors(space, bad):
    with pytest.raises(ValueError, match="associate norm needs a finite vector"):
        associate_norm(space, [bad, 1.0, 1.0], restarts=1)


@pytest.mark.parametrize(
    "space",
    [LebesgueSpace(2.0, U3), LebesgueSpace(math.inf, U3), LorentzSpace(2.0, 1.0, U3), OrliczSpace.from_power(2.0, U3)],
    ids=["lebesgue", "lebesgue-inf", "lorentz", "orlicz"],
)
def test_norms_share_the_non_finite_rule(space):
    # a NaN entry gives nan and an inf entry inf, row by row in a batch; a
    # NaN wins over an inf, and the finite rows keep their one-row values
    rows = np.array([[math.nan, 1.0, 1.0], [math.inf, 1.0, 1.0], [math.inf, math.nan, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    out = np.asarray(space.norm(rows))
    assert math.isnan(out[0]) and math.isnan(out[2])
    assert out[1] == math.inf
    assert out[3] == 0.0 and out[4] == space.norm(rows[4])
    assert math.isnan(space.norm(rows[0])) and space.norm(rows[1]) == math.inf


def test_product_norm_keeps_the_non_finite_rule():
    factors = [OrliczSpace.from_power(2.0, U3), OrliczSpace.from_power(3.0, U3)]
    assert math.isnan(product_norm(factors, [math.nan, 1.0, 1.0]))
    assert product_norm(factors, [math.inf, 1.0, 1.0]) == math.inf


def test_associate_orlicz_matches_grid_oracle():
    sp = OrliczSpace.from_power(1.5, U3)
    xi = np.array([1.0, 2.0, 0.5])
    val = associate_norm(sp, xi, restarts=32)
    grid, _ = dual_norm_grid(sp.norm, xi)
    assert val == pytest.approx(grid, rel=1e-4)
    # Phi = t^1.5 is plain l^1.5, so the dual is l^3 exactly
    assert val == pytest.approx(LebesgueSpace(3, U3).norm(xi), rel=1e-4)


def test_associate_deterministic():
    sp = OrliczSpace.from_power(1.5, U2)
    a = associate_norm(sp, [1.0, 2.0], restarts=8)
    b = associate_norm(sp, [1.0, 2.0], restarts=8)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(xi=finite_vec, eta=finite_vec)
def test_duality_pairing_bound(xi, eta):
    for sp in (LebesgueSpace(2, U3), OrliczSpace.from_power(2, U3)):
        ne = sp.norm(eta)
        if ne == 0:
            continue
        pair = float(np.sum(xi * eta * sp.mu))
        dual = associate_norm(sp, xi, restarts=4)
        assert pair <= dual * ne * (1 + 1e-6) + 1e-12


def test_product_lebesgue_values():
    l2 = LebesgueSpace(2, U2)
    assert product_norm([l2, l2], [1, 1]) == pytest.approx(2.0)
    l4, l43 = LebesgueSpace(4, U2), LebesgueSpace(4 / 3, U2)
    assert product_norm([l4, l43], [1, 0]) == pytest.approx(1.0)
    assert product_norm([l2], [3, 4]) == pytest.approx(5.0)


def test_product_lebesgue_identity_weighted():
    rng = np.random.default_rng(4)
    w = AtomicMeasure(rng.uniform(0.5, 2.0, 3))
    sps = [LebesgueSpace(3, w), LebesgueSpace(3, w), LebesgueSpace(math.inf, w)]
    target = LebesgueSpace(1.5, w)
    for _ in range(10):
        v = rng.exponential(size=3)
        assert product_norm(sps, v) == pytest.approx(target.norm(v), rel=1e-9)


def test_product_generic_matches_grid_oracle():
    oa = OrliczSpace.from_power(2, U2)
    ob = OrliczSpace.from_power(2, U2)
    xi = np.array([1.0, 1.0])
    val = product_norm([oa, ob], xi, restarts=8)
    grid = product_norm_grid(oa.norm, ob.norm, xi)
    assert val == pytest.approx(grid, rel=1e-4)
    assert val == pytest.approx(2.0, rel=1e-4)

    mixed = [LorentzSpace(2, 2, U2), LebesgueSpace(2, U2)]
    xi = np.array([1.0, 2.0])
    val = product_norm(mixed, xi, restarts=8)
    grid = product_norm_grid(mixed[0].norm, mixed[1].norm, xi)
    assert val == pytest.approx(grid, rel=1e-4)
    assert val == pytest.approx(3.0, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(a=finite_vec, b=finite_vec)
def test_generalized_holder(a, b):
    oa = OrliczSpace.from_power(2, U3)
    ob = OrliczSpace.from_power(2, U3)
    val = product_norm([oa, ob], a * b, restarts=4)
    assert val <= oa.norm(a) * ob.norm(b) * (1 + 1e-6) + 1e-12


def test_product_validation():
    with pytest.raises(ValueError):
        product_norm([], [1.0])
    with pytest.raises(ValueError):
        product_norm(
            [LebesgueSpace(2, U2), LebesgueSpace(2, AtomicMeasure([1.0, 2.0]))],
            [1, 1],
        )


def test_product_of_orlicz_factors_raises_no_overflow_warning():
    # the split's solve may double y until prod Phi_j^{-1} overflows to inf,
    # or halve it until it underflows to 0; both order correctly and must
    # stay silent, also where the root lies beyond the double range
    m = AtomicMeasure.unit(3)
    factors = [OrliczSpace.from_power(0.5, m), OrliczSpace.from_power(1.5, m)]
    U4 = AtomicMeasure.unit(4)
    pair = [OrliczSpace(PIECEWISE, U4), OrliczSpace.from_power(3.0, U4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert product_norm(factors, [0.5, 1, 2]) == 19.872850860879016
        assert product_norm(pair, [1e300, 1, 1, 1]) == pytest.approx(1e300, rel=1e-12)
        assert product_norm(pair, [1e-300, 1, 1, 1]) == pytest.approx(2.498049532966813, rel=1e-12)


def test_product_space_closed_form():
    sp = product_space([LebesgueSpace(4, U2), LebesgueSpace(4, U2)])
    assert isinstance(sp, LebesgueSpace) and sp.t == pytest.approx(2.0)
    with pytest.raises(ValueError, match="no closed-form product"):
        product_space([OrliczSpace.from_power(2, U2), LebesgueSpace(2, U2)])
    # iterated tuples close layer by layer over Lebesgue layers only
    sp = product_space([IteratedSpace(LebesgueSpace(4, U2), LebesgueSpace(3, U3))] * 2)
    assert (sp.outer.t, sp.inner.t) == (2.0, 1.5)
    mixed = IteratedSpace(LebesgueSpace(4, U2), OrliczSpace.from_power(2, U3))
    with pytest.raises(ValueError, match="no closed-form product"):
        product_space([mixed, mixed])
    with pytest.raises(ValueError, match="share one atomic measure"):
        product_space([IteratedSpace(LebesgueSpace(4, U2), LebesgueSpace(3, U3)), LebesgueSpace(2, U2)])


def test_space_json_roundtrip():
    spaces = [
        LebesgueSpace(2.5, AtomicMeasure([0.5, 1.5])),
        LorentzSpace(3, 1.5, U3),
        OrliczSpace.from_power(2, U2),
        IteratedSpace(LebesgueSpace(1, U2), LebesgueSpace(2, U2)),
        IteratedSpace(LebesgueSpace(2, U2), LebesgueSpace(0.5, U2)),
        concavify(OrliczSpace.from_power(2, U2), 2.0),
        concavify(OrliczSpace.from_power(3, U2), 2.0),
        LebesgueSpace(0.5, U2),
        LorentzSpace(3, 4, U3),
    ]
    rng = np.random.default_rng(5)
    for sp in spaces:
        text = space_to_json(sp)
        back = space_from_json(text)
        assert json.loads(text)["kind"] == sp.kind
        assert back.convexity == sp.convexity
        v = rng.exponential(size=sp.atom_shape)
        assert back.norm(v) == pytest.approx(sp.norm(v), rel=1e-12)
        assert _associate_outcome(back, v) == _associate_outcome(sp, v)


def _associate_outcome(space, v):
    """associate_norm's value, or its refusal message."""
    try:
        return associate_norm(space, v, restarts=1)
    except ValueError as exc:
        return str(exc)


def test_phi_table_csv_roundtrip(tmp_path):
    tab = np.array([[0.5, 0.3], [1.0, 1.0], [2.0, 5.0]])
    path = tmp_path / "phi.csv"
    phi_table_to_csv(tab, path)
    assert np.array_equal(phi_table_from_csv(path), tab)
    with pytest.raises(ValueError):
        path2 = tmp_path / "bad.csv"
        path2.write_text("a,b\n1,1\n")
        phi_table_from_csv(path2)


@pytest.mark.parametrize(
    "text, message",
    [("", "expected header 't,phi'"), ("t,phi\n1.0\n", "row 2 must have at least 2 fields, got 1")],
    ids=["empty", "one-field"],
)
def test_phi_table_csv_refuses_malformed_files(tmp_path, text, message):
    path = tmp_path / "phi.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        phi_table_from_csv(path)


# ---------------------------------------------------------------------------
# a batched norm gives each row the bits of its one-row call
# ---------------------------------------------------------------------------

# Phi = t^2 on [1e-3, 1] and t^3 on [1, 1e3]: a convex piecewise power law
_KNOTS = np.logspace(-3, 3, 13)
PIECEWISE = np.column_stack([_KNOTS, np.where(_KNOTS <= 1.0, _KNOTS**2, _KNOTS**3)])


@st.composite
def row_stacks(draw):
    """A measure and an (R, n) stack: one zero row, entries over six decades."""
    n = draw(st.integers(1, 8))
    weights = draw(
        st.one_of(
            st.just([1.0] * n),
            st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n),
        )
    )
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=10))
    rows.insert(draw(st.integers(0, len(rows))), [0.0] * n)
    return AtomicMeasure(weights), np.array(rows)


def one_row_calls(space, X):
    return np.array([space.norm(x) for x in X])


@settings(max_examples=80, deadline=None)
@given(data=row_stacks(), exponent=st.sampled_from([None, 1.0, 1.5, 2.0, 3.0]))
def test_orlicz_batched_norm_matches_one_row_calls(data, exponent):
    measure, X = data
    if exponent is None:
        sp = OrliczSpace(PIECEWISE, measure)
    else:
        sp = OrliczSpace.from_power(exponent, measure)
    assert np.array_equal(sp.norm(X), one_row_calls(sp, X))


@settings(max_examples=40, deadline=None)
@given(data=row_stacks(), t=st.sampled_from([1.0, 1.5, 3.0]), u=st.sampled_from([1.0, 1.5, 3.0, math.inf]))
def test_lorentz_batched_norm_matches_one_row_calls(data, t, u):
    measure, X = data
    sp = LorentzSpace(t, u, measure)
    assert np.array_equal(sp.norm(X), one_row_calls(sp, X))


def count_level_evaluations(monkeypatch):
    """Wrap the level-set solver; the returned list gets, per solve, its
    (what, number of level evaluations), the most any of its rows took."""
    solves, solve = [], spaces_module._solve_level

    def counted(level, start, what):
        solves.append([what, 0])

        def counted_level(x, rows):
            solves[-1][1] += 1
            return level(x, rows)

        return solve(counted_level, start, what)

    monkeypatch.setattr(spaces_module, "_solve_level", counted)
    return solves


def test_orlicz_rows_that_settle_early_keep_their_bits(monkeypatch):
    # each row is evaluated until its own bracket closes, then frozen
    sp = OrliczSpace(PIECEWISE, U3)
    X = np.array([[1.0, 0.0, 0.0], [3.0, 4.0, 0.5], [0.3, 0.1, 0.0], [0.0, 0.0, 0.0]])
    solves = count_level_evaluations(monkeypatch)
    single = [sp.norm(x) for x in X]
    steps = [n for _, n in solves]
    assert len(steps) == 3 and len(set(steps)) == 3  # the zero row is never solved
    assert np.array_equal(sp.norm(X), single)


@pytest.mark.parametrize("step", [0.0, math.nan, 1e3], ids=["stalled", "undefined", "wild"])
def test_orlicz_solver_closes_brackets_without_newton(monkeypatch, step):
    # with useless Newton steps the clip into the open bracket, the midpoint
    # and the plain bisection after _NEWTON_CAP steps still give the same bits
    sp = OrliczSpace(PIECEWISE, U3)
    X = np.array([[1.0, 0.0, 0.0], [3.0, 4.0, 0.5], [0.3, 0.1, 0.0], [1e-200, 3e-201, 0.0]])
    with bisected_levels():
        want = sp.norm(X)
    solve = spaces_module._solve_level

    def useless(level, start, what):
        def level_without_newton(x, rows):
            excess, _ = level(x, rows)
            return excess, np.full_like(x, step)

        return solve(level_without_newton, start, what)

    monkeypatch.setattr(spaces_module, "_solve_level", useless)
    assert np.array_equal(sp.norm(X), want)


def test_luxemburg_solves_take_at_most_twelve_evaluations(monkeypatch):
    # the benchmark's product_norm on its piecewise table at seed 3 (the
    # orlicz-duality workload): 57 evaluations a solve by bisection
    rng = np.random.default_rng(3)
    rng.uniform(0.25, 4.0, size=6), rng.uniform(0.25, 4.0, size=3)
    xi = rng.uniform(0.25, 4.0, size=4)
    factors = [OrliczSpace(PIECEWISE, AtomicMeasure.unit(4)), OrliczSpace.from_power(3.0, AtomicMeasure.unit(4))]
    solves = count_level_evaluations(monkeypatch)
    product_norm(factors, xi, restarts=8)
    luxemburg = [n for what, n in solves if what == "Luxemburg norm"]
    split = [n for what, n in solves if what == "inverse-Young split"]
    assert luxemburg and len(split) == 1 and len(luxemburg) + 1 == len(solves)
    assert max(luxemburg) <= 12
    assert split[0] <= 10  # 7 at this seed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="LebesgueSpace.norm sums atoms with a BLAS matmul, whose summation "
    "order depends on the batch size",
)
@settings(max_examples=80, deadline=None)
@given(data=row_stacks(), t=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
# a known counterexample: Hypothesis raises a failing explicit example before
# it generates, so the test fails at once instead of searching and shrinking
@example(
    data=(
        AtomicMeasure([2.88467697828505, 1, 2.3012938660245585, 1]),
        np.array([[0.0, 0.0, 0.0, 0.0], [2.5, 0.0, 177.4375, 0.0]]),
    ),
    t=3.0,
)
def test_lebesgue_batched_norm_matches_one_row_calls(data, t):
    measure, X = data
    sp = LebesgueSpace(t, measure)
    assert np.array_equal(sp.norm(X), one_row_calls(sp, X))


# ---------------------------------------------------------------------------
# extreme magnitudes
# ---------------------------------------------------------------------------

def test_orlicz_norm_at_extreme_magnitudes():
    sp = OrliczSpace.from_power(2.0, U3)
    # an unscaled bisection's lo * hi underflows below 1e-308 and overflows
    # above 1e308
    assert sp.norm([1e-200, 1e-200, 0.0]) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-12, abs=0.0)
    assert sp.norm([1e160, 0.0, 0.0]) == pytest.approx(1e160, rel=1e-12, abs=0.0)
    X = np.array([[1e-200, 1e-200, 0.0], [3.0, 4.0, 0.0], [1e160, 1e160, 0.0]])
    assert sp.norm(X) == pytest.approx([math.sqrt(2) * 1e-200, 5.0, math.sqrt(2) * 1e160], rel=1e-12, abs=0.0)
    assert np.array_equal(sp.norm(X), one_row_calls(sp, X))


def test_lebesgue_norm_renorms_overflowing_rows_silently():
    # the power sum of [1e160, 0, 0] overflows before the row is renormed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (2.0, 3.0):
            assert LebesgueSpace(t, U3).norm([1e160, 0.0, 0.0]) == pytest.approx(1e160, rel=1e-12, abs=0.0)


def test_lebesgue_norm_scales_rows_out_of_range():
    for t in (1.5, 2.0, 3.0):
        sp = LebesgueSpace(t, U3)
        assert sp.norm([1e-300, 0.0, 0.0]) == pytest.approx(1e-300, rel=1e-12, abs=0.0)
        assert sp.norm([1e160, 0.0, 0.0]) == pytest.approx(1e160, rel=1e-12, abs=0.0)
        assert sp.norm([1e200, 1e200, 0.0]) == pytest.approx(2 ** (1 / t) * 1e200, rel=1e-12, abs=0.0)
    weighted = LebesgueSpace(2.0, AtomicMeasure([4.0, 1.0, 1.0]))
    assert weighted.norm([1e200, 0.0, 0.0]) == pytest.approx(2e200, rel=1e-12, abs=0.0)
    X = np.array([[1e-300, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [math.inf, 1.0, 0.0]])
    out = LebesgueSpace(2.0, U3).norm(X)
    assert out[:2] == pytest.approx([1e-300, 5.0], rel=1e-12, abs=0.0)
    assert out[2] == 0.0 and out[3] == math.inf


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
def test_lebesgue_norm_takes_the_power_in_place(t):
    # |xi| is the norm's one temporary of the input's size: the power
    # overwrites it, and the input itself is left as it was
    xi = np.random.default_rng(0).lognormal(sigma=1.0, size=(32, 32, 32))
    before = xi.copy()
    sp = LebesgueSpace(t, AtomicMeasure.unit(32))
    tracemalloc.start()
    try:
        sp.norm(xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * xi.nbytes
    assert np.array_equal(xi, before)


# ---------------------------------------------------------------------------
# the product search runs its restarts in lockstep
# ---------------------------------------------------------------------------

# log-slopes 1, 3, 1: Phi' falls at the last knot
NONCONVEX = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 16.0], [8.0, 32.0]])


# restarts is checked on entry, before a kind without a closed form is
# refused, so every path refuses it, though none reads it
@pytest.mark.parametrize(
    "space, argmax",
    [
        (OrliczSpace(NONCONVEX, U3), False),
        (OrliczSpace.from_power(2.0, U3), False),
        (LebesgueSpace(2.0, U3), False),
        (LebesgueSpace(2.0, U3), True),
    ],
    ids=["orlicz-search", "orlicz-closed-form", "lebesgue-analytic", "lebesgue-search"],
)
def test_associate_norm_refuses_zero_restarts(space, argmax):
    with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
        associate_norm(space, [1.0, 2.0, 0.5], restarts=0, return_argmax=argmax)


@pytest.mark.parametrize(
    "factors",
    [
        [OrliczSpace.from_power(2.0, U3), OrliczSpace(PIECEWISE, U3)],
        [OrliczSpace(PIECEWISE, U3)],
        [LebesgueSpace(2.0, U3), LebesgueSpace(3.0, U3)],
    ],
    ids=["orlicz-search", "one-factor", "lebesgue-closed-form"],
)
def test_product_norm_refuses_zero_restarts(factors):
    with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
        product_norm(factors, [1.0, 2.0, 0.5], restarts=0)


@st.composite
def convex_tables(draw):
    """A (k x 2) Young-function table: a piecewise power law with exponents
    non-decreasing and at least one, or an exact power."""
    if draw(st.booleans()):
        return OrliczSpace.from_power(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])), U2).table
    k = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.2, 2.0), min_size=k - 1, max_size=k - 1))
    slopes = sorted(draw(st.lists(st.floats(1.0, 4.0), min_size=k - 1, max_size=k - 1)))
    lx = draw(st.floats(-3.0, 0.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    ly = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(np.multiply(slopes, steps))])
    return np.column_stack([np.exp(lx), np.exp(ly)])


@st.composite
def increasing_tables(draw):
    """A (k x 2) strictly increasing table with log-slopes in any order."""
    k = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=k - 1, max_size=k - 1))
    slopes = draw(st.lists(st.floats(0.25, 4.0), min_size=k - 1, max_size=k - 1))
    lx = draw(st.floats(-3.0, 0.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    ly = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(np.multiply(slopes, steps))])
    return np.column_stack([np.exp(lx), np.exp(ly)])


power_tables = st.floats(1.1, 4.0).map(lambda p: OrliczSpace.from_power(p, U2).table)


@st.composite
def measures(draw, min_atoms, max_atoms):
    n = draw(st.integers(min_atoms, max_atoms))
    if draw(st.booleans()):
        return AtomicMeasure.unit(n)
    return AtomicMeasure(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))


def vectors(n):
    # one entry in five is zero
    entry = st.tuples(st.integers(0, 4), st.floats(0.05, 20.0)).map(lambda p: p[1] if p[0] else 0.0)
    return st.lists(entry, min_size=n, max_size=n).map(np.array)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), table=convex_tables(), measure=measures(1, 6))
def test_orlicz_norm_keeps_the_bits_of_the_unscaled_bisection(data, table, measure):
    # rows from 1e-100 to 1e100: the power-of-two rescaling inside the norm
    # must not move a bit where the unscaled bracket stays in range
    sp = OrliczSpace(table, measure)
    exps = data.draw(st.lists(st.integers(-100, 100), min_size=1, max_size=6))
    X = np.array([data.draw(vectors(measure.n)) * 10.0**e for e in exps])
    assert np.array_equal(sp.norm(X), [luxemburg_norm_unscaled(sp, row) for row in X])


def norms_or_refusal(sp, X):
    try:
        return sp.norm(X)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), table=st.one_of(convex_tables(), power_tables, increasing_tables()), measure=measures(1, 6))
def test_orlicz_norm_equals_the_bisection(data, table, measure):
    # the solver finishes on the bisection's own predicate: the same bits on
    # every row, a zero row and rows from 1e-320 to 2e307 included, and the
    # same refusal where a root is not bracketed
    sp = OrliczSpace(table, measure)
    exps = data.draw(st.lists(st.integers(-320, 306), min_size=1, max_size=6))
    X = np.array([data.draw(vectors(measure.n)) * 10.0**e for e in exps] + [np.zeros(measure.n)])
    with bisected_levels():
        want = norms_or_refusal(sp, X)
    got = norms_or_refusal(sp, X)
    assert got == want if isinstance(want, str) else np.array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    tables=st.lists(convex_tables(), min_size=2, max_size=3),
    measure=measures(2, 4),
    restarts=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_product_lockstep_matches_sequential_restarts(data, tables, measure, restarts, seed):
    factors = [OrliczSpace(tab, measure) for tab in tables]
    xi = data.draw(vectors(measure.n))
    got = product_norm(factors, xi, seed=seed, restarts=restarts)
    assert got == product_norm_sequential(factors, xi, seed=seed, restarts=restarts)


def test_product_lockstep_matches_sequential_on_piecewise_tuples():
    # the orlicz-duality product at its input scale, as a pair and a triple
    U4 = AtomicMeasure.unit(4)
    pair = [OrliczSpace(PIECEWISE, U4), OrliczSpace.from_power(3.0, U4)]
    triple = pair + [OrliczSpace.from_power(1.5, U4)]
    for factors, seed in ((pair, 1), (pair, 4), (triple, 4)):
        xi = np.random.default_rng(seed).uniform(0.25, 4.0, size=4)
        got = product_norm(factors, xi, seed=seed, restarts=8)
        assert got == product_norm_sequential(factors, xi, seed=seed, restarts=8)


def count_norm_calls(space):
    """Wrap space.norm; the returned one-item list counts its calls."""
    calls, norm = [0], space.norm

    def counted(x):
        calls[0] += 1
        return norm(x)

    space.norm = counted
    return calls


def test_orlicz_split_stops_at_its_fixed_point(monkeypatch):
    # the split's y is the smallest double where the solver's own excess is
    # <= 0, and its factors lie within a few ulps of the 200-step bisection
    rng = np.random.default_rng(8)
    cases = [
        [OrliczSpace(PIECEWISE, U3), OrliczSpace.from_power(3.0, U3)],
        [OrliczSpace.from_power(1.5, U3), OrliczSpace(PIECEWISE, U3), OrliczSpace.from_power(2.0, U3)],
    ]
    solved, solve = [], spaces_module._solve_level

    def recorded(level, start, what):
        solved.append((level, solve(level, start, what)))
        return solved[-1][1]

    monkeypatch.setattr(spaces_module, "_solve_level", recorded)
    for spaces in cases:
        for _ in range(5):
            flat = rng.lognormal(sigma=2.0, size=3) * (rng.random(3) > 0.2)
            pos = np.flatnonzero(flat > 0)
            got = _orlicz_split(spaces, flat, pos)
            level, y = solved.pop()
            rows = np.arange(y.size)
            assert np.all(level(y, rows)[0] <= 0)
            assert np.all(level(np.nextafter(y, 0.0), rows)[0] > 0)
            want = orlicz_split_fixed_steps(spaces, flat, pos)
            assert len(got) == len(want) == len(spaces) - 1
            for g, w in zip(got, want):
                assert np.array_equal(g > 0, w > 0)
                np.testing.assert_allclose(g, w, rtol=4e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the closed-form associate norm of a convex Orlicz space
# ---------------------------------------------------------------------------

def log_slopes(table):
    return np.diff(np.log(table[:, 1])) / np.diff(np.log(table[:, 0]))


steep_tables = convex_tables().filter(lambda tab: log_slopes(tab).min() > 1.0)


def assert_certified(sp, xi):
    """The closed form is a unit-norm pairing that meets the Amemiya bound."""
    val, eta = associate_norm(sp, xi, return_argmax=True)
    assert associate_norm(sp, xi) == val
    assert sp.norm(eta) == pytest.approx(1.0, rel=1e-12)
    assert float(np.sum(xi * eta * sp.mu)) == pytest.approx(val, rel=1e-12)
    # the minimizing k lies in [min a, max a] / val; the bound and the value
    # each carry rounding, a few ulps more on near-linear segments
    a = log_slopes(sp.table)
    upper = amemiya_norm(sp, xi, a.min() / (2 * val), 2 * a.max() / val)
    assert val <= upper * (1 + 1e-13)
    assert upper <= val * (1 + 1e-12)
    return val


@settings(max_examples=40, deadline=None)
@given(data=st.data(), table=steep_tables, measure=measures(1, 6))
def test_associate_orlicz_closed_form_meets_the_amemiya_bound(data, table, measure):
    sp = OrliczSpace(table, measure)
    assert sp.has_convex_phi()
    assert_certified(sp, data.draw(vectors(measure.n).filter(np.any)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), table=st.one_of(steep_tables, power_tables), measure=measures(1, 6), argmax=st.booleans())
def test_associate_orlicz_equals_the_bisection(data, table, measure, argmax):
    sp = OrliczSpace(table, measure)
    assert sp.has_convex_phi()
    xi = data.draw(vectors(measure.n).filter(np.any)) * 10.0 ** data.draw(st.integers(-100, 100))
    with bisected_levels():
        want = associate_norm(sp, xi, return_argmax=argmax)
    got = associate_norm(sp, xi, return_argmax=argmax)
    if argmax:
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
    else:
        assert got == want


@pytest.mark.parametrize("exponent", [1 + 2.0**-45, 1 + 1e-9])
def test_associate_orlicz_normalizes_eta_on_near_linear_tables(exponent):
    # log psi has slope 1/(exponent - 1), so the last ulp of k in the
    # bisection moves eta, and ||eta|| is off one by up to 0.7% here
    sp = OrliczSpace.from_power(exponent, U3)
    assert_certified(sp, np.array([1.0, 1.0, 0.7]))


def test_associate_orlicz_attains_the_norm_where_phi_prime_is_flat():
    # the first segment has log-slope 1 up to rounding, so Phi' is flat on
    # it and psi jumps across it between adjacent doubles of k; normalizing
    # psi at the upper double read the norm 0.21% low
    steps, slopes = [1.4392041150276922, 1.0, 1.0], [1.0, 2.0, 2.0]
    lx = -1.8332357280626885 + np.concatenate([[0.0], np.cumsum(steps)])
    ly = -1.4596139799103551 + np.concatenate([[0.0], np.cumsum(np.multiply(slopes, steps))])
    sp = OrliczSpace(np.column_stack([np.exp(lx), np.exp(ly)]), U2)
    assert sp.has_convex_phi()
    assert_certified(sp, np.array([1.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([1.5, 2.0, 3.0]), measure=measures(1, 6))
def test_associate_orlicz_power_is_the_conjugate_lebesgue_norm(data, p, measure):
    sp = OrliczSpace.from_power(p, measure)
    xi = data.draw(vectors(measure.n))
    want = LebesgueSpace(conjugate(p), measure).norm(xi)
    assert associate_norm(sp, xi) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "table",
    [OrliczSpace.from_power(p, U3).table for p in (1.5, 2.0, 3.0)] + [PIECEWISE],
    ids=["power-1.5", "power-2", "power-3", "piecewise"],
)
def test_associate_norm_takes_the_closed_form(table):
    # the slopes of these tables wobble by a few ulps; they still count as convex
    sp = OrliczSpace(table, U3)
    assert sp.has_convex_phi()
    calls = count_norm_calls(sp)
    for argmax in (False, True):
        associate_norm(sp, [0.5, 2.0, 1.0], return_argmax=argmax)
    assert calls[0] == 2  # one normalizing call each


# ---------------------------------------------------------------------------
# the closed-form associate space of Lebesgue and iterated Lebesgue spaces
# ---------------------------------------------------------------------------

lebesgue_exponents = st.one_of(st.floats(1.1, 5.0), st.sampled_from([1.0, math.inf]))


@st.composite
def lebesgue_spaces(draw, iterated=st.booleans()):
    """l^t or l^a(l^b) over drawn measures, every exponent in [1.1, 5], 1 or inf."""
    if not draw(iterated):
        return LebesgueSpace(draw(lebesgue_exponents), draw(measures(1, 6)))
    outer = LebesgueSpace(draw(lebesgue_exponents), draw(measures(1, 4)))
    return IteratedSpace(outer, LebesgueSpace(draw(lebesgue_exponents), draw(measures(1, 3))))


def draw_vector(data, space):
    return data.draw(vectors(int(np.prod(space.atom_shape)))).reshape(space.atom_shape)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), space=lebesgue_spaces())
def test_associate_space_satisfies_holder(data, space):
    # sum |xi eta| mu <= ||xi||_X' ||eta||_X on random pairs
    xi, eta = draw_vector(data, space), draw_vector(data, space)
    val = associate_norm(space, xi)
    assert float(np.sum(xi * eta * space.mu)) <= val * space.norm(eta) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), space=lebesgue_spaces())
def test_associate_space_attains_its_pairing(data, space):
    xi = data.draw(vectors(int(np.prod(space.atom_shape))).filter(np.any)).reshape(space.atom_shape)
    val, eta = associate_norm(space, xi, return_argmax=True)
    assert associate_norm(space, xi) == val
    assert space.norm(eta) == pytest.approx(1.0, rel=1e-12)
    assert float(np.sum(xi * eta * space.mu)) == pytest.approx(val, rel=1e-12)


def certifies(space, dual, xi, etas):
    """Whether dual.norm(xi) meets Holder against etas and is attained by the
    norming element of dual at xi, a unit vector of space."""
    def pair(e):
        return float(np.sum(xi * e * space.mu))

    val, eta = dual.norm(xi), _norming(dual, xi)
    holder = all(pair(e) <= val * space.norm(e) * (1 + 1e-12) for e in etas)
    return holder and math.isclose(space.norm(eta), 1.0, rel_tol=1e-12) and math.isclose(pair(eta), val, rel_tol=1e-12)


def test_associate_space_mutants_fail_the_certificate():
    outer, inner = LebesgueSpace(3.0, AtomicMeasure([1.0, 0.5, 3.0])), LebesgueSpace(1.5, AtomicMeasure([0.5, 2.0]))
    space = IteratedSpace(outer, inner)
    rng = np.random.default_rng(11)
    xi, etas = rng.lognormal(size=(3, 2)), rng.lognormal(size=(20, 3, 2))
    dual = associate_space(space)
    assert (dual.outer.t, dual.inner.t) == (conjugate(3.0), conjugate(1.5))
    assert certifies(space, dual, xi, etas)
    swapped = IteratedSpace(LebesgueSpace(dual.inner.t, outer.measure), LebesgueSpace(dual.outer.t, inner.measure))
    unweighted = IteratedSpace(dual.outer, LebesgueSpace(dual.inner.t, AtomicMeasure.unit(2)))
    for mutant in (swapped, unweighted):
        assert not certifies(space, mutant, xi, etas)


def test_associate_space_is_none_without_a_closed_form():
    assert associate_space(LorentzSpace(3, 1, U3)) is None
    assert associate_space(OrliczSpace.from_power(2.0, U3)) is None
    assert associate_space(IteratedSpace(LebesgueSpace(2.0, U2), OrliczSpace.from_power(2.0, U3))) is None
    assert associate_space(LebesgueSpace(math.inf, U3)).t == 1.0


@pytest.mark.parametrize(
    "space, argmax",
    [
        (LebesgueSpace(3.0, AtomicMeasure([0.5, 2.0, 1.0])), False),
        (LebesgueSpace(2.0, U3), True),
        (LebesgueSpace(math.inf, U3), True),
        (IteratedSpace(LebesgueSpace(3.0, U3), LebesgueSpace(2.0, U3)), False),
        (IteratedSpace(LebesgueSpace(1.0, U3), LebesgueSpace(2.0, AtomicMeasure([0.5, 2.0]))), False),
        (IteratedSpace(LebesgueSpace(3.0, U2), LebesgueSpace(1.5, AtomicMeasure([0.5, 2.0]))), True),
        (LebesgueSpace(1.0, AtomicMeasure([0.5, 2.0, 1.0])), True),
        (IteratedSpace(LebesgueSpace(2.0, U3), LebesgueSpace(1.0, AtomicMeasure([0.5, 2.0]))), True),
        (IteratedSpace(LebesgueSpace(1.0, AtomicMeasure([0.5, 2.0, 1.0])), LebesgueSpace(3.0, U2)), True),
    ],
    ids=[
        "lebesgue", "lebesgue-argmax", "lebesgue-inf-argmax", "iterated", "iterated-1", "iterated-argmax",
        "lebesgue-1-argmax", "iterated-inner-1-argmax", "iterated-outer-1-argmax",
    ],
)
def test_associate_space_takes_the_closed_form(space, argmax):
    # an l^1 layer has an l^inf dual layer, which _norming maps in closed form too
    xi = np.arange(1.0, 1.0 + np.prod(space.atom_shape)).reshape(space.atom_shape)
    got = associate_norm(space, xi, restarts=2, return_argmax=argmax)
    assert (got[0] if argmax else got) == associate_space(space).norm(xi)
    if argmax:
        val, eta = got
        assert space.norm(eta) == pytest.approx(1.0, rel=1e-12)
        assert float(np.sum(xi * eta * space.mu)) == pytest.approx(val, rel=1e-12)


def test_sup_dual_layer_norms_at_the_first_largest_entry():
    # l^1(mu) has the dual l^inf(mu): 1/mu_j at the first largest entry, 0 on a tie's others
    space = LebesgueSpace(1.0, AtomicMeasure([1.0, 0.5, 2.0, 0.25, 3.0, 1.5]))
    xi = np.array([1.0, 4.0, 2.0, 4.0, 0.5, 3.0])
    val, eta = associate_norm(space, xi, return_argmax=True)
    assert val == 4.0 and eta.tolist() == [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    # a zero inner block maps to zero under l^2(l^1)'s dual l^2(l^inf)
    space = IteratedSpace(LebesgueSpace(2.0, U2), LebesgueSpace(1.0, AtomicMeasure([0.5, 2.0])))
    val, eta = associate_norm(space, np.array([[0.0, 0.0], [3.0, 1.0]]), return_argmax=True)
    assert val == 3.0 and eta.tolist() == [[0.0, 0.0], [2.0, 0.0]]


@pytest.mark.parametrize(
    "space",
    [
        LebesgueSpace(3.0, AtomicMeasure([0.5, 2.0, 1.0])),
        LebesgueSpace(1.0, U3),
        LebesgueSpace(math.inf, U3),
        IteratedSpace(LebesgueSpace(3.0, U2), LebesgueSpace(1.5, AtomicMeasure([0.5, 2.0, 1.0]))),
        OrliczSpace.from_power(2.0, AtomicMeasure([0.5, 2.0, 1.0])),
        OrliczSpace(PIECEWISE, U3),
    ],
    ids=["lebesgue", "lebesgue-1", "lebesgue-inf", "iterated", "orlicz-power", "orlicz-piecewise"],
)
def test_associate_norm_of_zero_is_zero_at_the_normed_ones(space):
    xi, ones = np.zeros(space.atom_shape), np.ones(space.atom_shape)
    val = associate_norm(space, xi)
    assert val == 0.0 and isinstance(val, float)
    val, eta = associate_norm(space, xi, return_argmax=True)
    assert val == 0.0 and isinstance(val, float)
    assert np.array_equal(eta, ones / space.norm(ones))


# ---------------------------------------------------------------------------
# the closed-form product of iterated Lebesgue tuples
# ---------------------------------------------------------------------------

@st.composite
def iterated_tuples(draw):
    """Two or three l^(a_j)(l^(b_j)) factors over one drawn outer and inner measure."""
    outer, inner = draw(measures(1, 4)), draw(measures(1, 3))
    exponents = st.floats(1.2, 6.0)
    return [
        IteratedSpace(LebesgueSpace(draw(exponents), outer), LebesgueSpace(draw(exponents), inner))
        for _ in range(draw(st.integers(2, 3)))
    ]


def factorization(factors, xi):
    """xi_j = n^(a/a_j) (xi / n)^(b/b_j), n the inner l^b norms of xi > 0:
    a factorization of xi whose factor norms multiply to ||xi||_(l^a(l^b))."""
    a = harmonic_exponent(sp.outer.t for sp in factors)
    b = harmonic_exponent(sp.inner.t for sp in factors)
    n = LebesgueSpace(b, factors[0].inner.measure).norm(xi)[:, None]
    return [n ** (a / sp.outer.t) * (xi / n) ** (b / sp.inner.t) for sp in factors]


def product_certifies(product, factors, xi, pairs):
    """Whether product meets Holder on pairs (one vector per factor) and its
    norm at xi > 0 is attained by the factorization of xi."""
    def norms(vs):
        return math.prod(sp.norm(v) for sp, v in zip(factors, vs))

    holder = all(product.norm(np.prod(vs, axis=0)) <= norms(vs) * (1 + 1e-12) for vs in pairs)
    return holder and math.isclose(product.norm(xi), norms(factorization(factors, xi)), rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), factors=iterated_tuples())
def test_iterated_product_satisfies_holder_and_is_attained(data, factors):
    shape = factors[0].atom_shape
    positive = st.lists(st.floats(0.05, 20.0), min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    xi = np.array(data.draw(positive)).reshape(shape)
    pairs = [[draw_vector(data, sp) for sp in factors] for _ in range(5)]
    product = product_space(factors)
    assert product_certifies(product, factors, xi, pairs)
    assert np.allclose(np.prod(factorization(factors, xi), axis=0), xi, rtol=1e-12, atol=0.0)
    assert product_norm(factors, xi) == product.norm(xi)


def test_iterated_product_mutants_fail_the_certificate():
    outer, inner = AtomicMeasure([1.0, 0.5, 3.0]), AtomicMeasure([0.5, 2.0])
    factors = [
        IteratedSpace(LebesgueSpace(3.0, outer), LebesgueSpace(1.5, inner)),
        IteratedSpace(LebesgueSpace(4.0, outer), LebesgueSpace(5.0, inner)),
    ]
    rng = np.random.default_rng(12)
    xi, pairs = rng.lognormal(size=(3, 2)), rng.lognormal(size=(20, 2, 3, 2))
    product = product_space(factors)
    assert (product.outer.t, product.inner.t) == (harmonic_exponent([3.0, 4.0]), harmonic_exponent([1.5, 5.0]))
    assert product_certifies(product, factors, xi, pairs)
    swapped = IteratedSpace(LebesgueSpace(product.inner.t, outer), LebesgueSpace(product.outer.t, inner))
    unweighted = IteratedSpace(product.outer, LebesgueSpace(product.inner.t, AtomicMeasure.unit(2)))
    for mutant in (swapped, unweighted):
        assert not product_certifies(mutant, factors, xi, pairs)


@pytest.mark.parametrize(
    "space",
    [
        LebesgueSpace(2.0, U3),
        LebesgueSpace(math.inf, U3),
        LorentzSpace(2.0, 1.0, U3),
        LorentzSpace(2.0, math.inf, U3),
        OrliczSpace.from_power(2.0, U3),
        concavify(OrliczSpace.from_power(2.0, U3), 2.0),
        IteratedSpace(LebesgueSpace(2.0, U2), LebesgueSpace(3.0, U3)),
    ],
    ids=["lebesgue", "lebesgue-inf", "lorentz", "lorentz-inf", "orlicz", "concavified", "iterated"],
)
def test_norm_of_an_empty_batch_is_empty(space):
    out = space.norm(np.zeros((0, *space.atom_shape)))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
