"""One refusal table: every range and arity check, worded as name, range and value."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sparsedom._checks import EXPONENT, FINITE, at_least, check, increasing
from sparsedom.cli import ConfigError, main, run
from sparsedom.dyadic import Cube, Grid, average, function_from_json, grid_norm, level_averages
from sparsedom.maximal import maximal_opnorm_lower
from sparsedom.spaces import (
    AtomicMeasure,
    IteratedSpace,
    LebesgueSpace,
    LorentzSpace,
    OrliczSpace,
    associate_norm,
    concavify,
    product_norm,
    product_space,
    space_from_json,
    space_to_json,
)
from sparsedom.sparse import (
    SparseFamily,
    certificate_depth,
    cz_decompose,
    family_from_json,
    family_to_json,
    optimal_sparse_form,
    sparse_form,
    stopping_domination,
    verify_sparse,
)
from sparsedom.transfer import (
    HaarTransform,
    SparseOperator,
    _norming_field,
    admissible_tuple,
    scalar_hypothesis_check,
    space_tuple,
    transfer_sides,
    vv_transfer_check,
)
from sparsedom.weights import (
    bht_region,
    composed_transfer_exponent,
    conjugate,
    muckenhoupt_constant,
    power_envelope,
    power_weight,
    stable_muckenhoupt_constant,
)

from oracles import cover_cube

INF, NAN = math.inf, math.nan
G = Grid(1, 2)
ONES = np.ones(G.cell_shape)
U2 = AtomicMeasure.unit(2)
HAAR = HaarTransform.random(G, seed=3)
ROOT_ONLY = verify_sparse([Cube(0, (0,))], 0.5)
ORLICZ_PAIR = [OrliczSpace.from_power(2.0, U2), OrliczSpace.from_power(3.0, U2)]
# the 1-convex kinds whose associate norm has no closed form here; the
# Orlicz tables have log-slopes 1, 3, 1 (Phi' falls) and 3, 2 (decreasing)
NO_CLOSED_DUAL = [
    ("lorentz", LorentzSpace(3.0, 1.0, U2)),
    ("nonconvex", OrliczSpace(np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 16.0], [8.0, 32.0]]), U2)),
    ("decreasing", OrliczSpace(np.array([[1.0, 1.0], [2.0, 8.0], [4.0, 32.0]]), U2)),
    ("power-1", OrliczSpace.from_power(1.0, U2)),
    ("mixed-iterated", IteratedSpace(LebesgueSpace(3.0, U2), OrliczSpace.from_power(2.0, U2))),
]
FAMILY_PAYLOAD = family_to_json(ROOT_ONLY)  # the root, witness cell 0 at depth 1
ITERATED_PAYLOAD = space_to_json(IteratedSpace(LebesgueSpace(2.0, AtomicMeasure([1.0, 2.0])), LebesgueSpace(3.0, U2)))

# (id, call, message): the message names the parameter, its range and the value
REFUSALS = [
    # (0, inf], where inf is legal
    ("grid_norm-p", lambda: grid_norm(G, ONES, -INF), r"p must be in \(0, inf\], got -inf"),
    ("level_averages-r", lambda: level_averages(G, ONES, NAN), r"r must be in \(0, inf\], got nan"),
    ("sparse_form-sigma", lambda: sparse_form(ROOT_ONLY, G, [ONES], [1.0], g=ONES, sigma=NAN),
     r"sigma must be in \(0, inf\], got nan"),
    ("SparseOperator-r", lambda: SparseOperator(SparseFamily.from_cubes([Cube(0, (0,))]), rs=(NAN,)), r"r_1 must be in \(0, inf\], got nan"),
    # (0, inf)
    ("sparse_form-q", lambda: sparse_form(ROOT_ONLY, G, [ONES], [1.0], q=INF),
     r"q must be in \(0, inf\), got inf"),
    ("cz_decompose-norms", lambda: cz_decompose(G, [np.full(G.cell_shape, NAN)], [1.0], 1.0),
     r"norm of f_1 must be in \(0, inf\), got nan"),
    ("cz_decompose-lam", lambda: cz_decompose(G, [ONES], [1.0], INF), r"lam must be in \(0, inf\), got inf"),
    ("concavify-orlicz", lambda: concavify(OrliczSpace.from_power(2.0, U2), INF), r"p must be in \(0, inf\), got inf"),
    ("concavify-lebesgue", lambda: concavify(LebesgueSpace(2.0, U2), INF), r"p must be in \(0, inf\), got inf"),
    ("lorentz-t", lambda: LorentzSpace(INF, 2.0, U2), r"t must be in \(0, inf\), got inf"),
    # (0, 1), (1, inf), [1, inf], (-1, inf) and (0, 1]
    ("eta-nan", lambda: certificate_depth(1, 0, NAN), r"eta must be in \(0, 1\), got nan"),
    ("family-eta", lambda: SparseFamily.from_cubes([], eta=1.0), r"eta must be in \(0, 1\), got 1.0"),
    ("bht-s", lambda: bht_region(2.0, 2.0, NAN), r"s must be in \(1, inf\), got nan"),
    ("conjugate-t", lambda: conjugate(NAN), r"t must be in \[1, inf\], got nan"),
    ("power_weight-a", lambda: power_weight(G, INF), r"a must be in \(-1, inf\), got inf"),
    ("cover_cube-side", lambda: cover_cube([Fraction(0)], 2), r"side must be in \(0, 1\], got 2"),
    ("cover_cube-corner-nan", lambda: cover_cube([NAN], 0.5), r"lower corner x_1 must be in \[0, 1\), got nan"),
    ("cover_cube-corner-inf", lambda: cover_cube([0.5, INF], 0.25), r"lower corner x_2 must be in \[0, 1\), got inf"),
    # integer ranges
    ("grid-depth", lambda: Grid(1, 13), r"depth at d=1 must be in \[0, 12\], got 13"),
    ("grid-shift", lambda: Grid(2, 2, 9), r"shift at d=2 must be in \[0, 9\), got 9"),
    ("grid-level", lambda: G.level_cubes(3), r"level must be in \[0, 2\], got 3"),
    # cubes lie on the standard lattice: a shifted grid holds level arrays only
    *[
        (f"shifted-{name}", call,
         r"cubes lie on the standard lattice; Grid\(d=1, depth=2, shift=1\) holds level arrays only")
        for name, call in [
            ("level_cubes", lambda: Grid(1, 2, 1).level_cubes(1)),
            ("cubes", lambda: list(Grid(1, 2, 1).cubes())),
            ("children", lambda: Grid(1, 2, 1).children(Cube(0, (0,)))),
            ("average", lambda: average(Grid(1, 2, 1), ONES, 1.0, Cube(0, (0,)))),
        ]
    ],
    ("grid-depth-float", lambda: Grid(1, 2.5), r"depth at d=1 must be an integer in \[0, 12\], got 2.5"),
    ("grid-depth-whole-float", lambda: Grid(1, 2.0), r"depth at d=1 must be an integer in \[0, 12\], got 2.0"),
    ("grid-shift-float", lambda: Grid(1, 2, 1.0), r"shift at d=1 must be an integer in \[0, 3\), got 1.0"),
    ("grid-level-float", lambda: G.level_cubes(1.5), r"level must be an integer in \[0, 2\], got 1.5"),
    ("grid-dimension", lambda: Grid(3, 2), r"dimension must be in \[1, 2\], got 3"),
    ("grid-dimension-float", lambda: Grid(1.0, 2), r"dimension must be an integer in \[1, 2\], got 1.0"),
    ("grid-dimension-bool", lambda: Grid(True, 2), r"dimension must be an integer in \[1, 2\], got True"),
    # counts: ints at least a bound, Python or NumPy, not floats or bools
    ("stable-depth", lambda: stable_muckenhoupt_constant(lambda g: [np.ones(g.cell_shape)], (2.0,), (1.0,), INF, 1, 0),
     "depth must be at least 1, got 0"),
    ("opnorm-trials", lambda: maximal_opnorm_lower(G, [1.0], [2.0], [LebesgueSpace(2.0, U2)], trials=0),
     "trials must be at least 1, got 0"),
    ("scalar-trials-float", lambda: scalar_hypothesis_check([HAAR], G, 1.0, trials=2.5),
     "trials must be an integer at least 1, got 2.5"),
    ("vv-trials-float", lambda: vv_transfer_check([HAAR], G, [2.0], 1.0, INF, ns=(2, 4), trials=2.5),
     "trials must be an integer at least 1, got 2.5"),
    ("associate-restarts-float", lambda: associate_norm(LorentzSpace(3.0, 1.0, U2), [1.0, 2.0], restarts=2.5),
     "restarts must be an integer at least 1, got 2.5"),
    ("product-restarts-float", lambda: product_norm(ORLICZ_PAIR, [1.0, 2.0], restarts=2.5),
     "restarts must be an integer at least 1, got 2.5"),
    ("product-restarts-bool", lambda: product_norm(ORLICZ_PAIR, [1.0, 2.0], restarts=True),
     "restarts must be an integer at least 1, got True"),
    ("ns-float", lambda: vv_transfer_check([HAAR], G, [2.0], 1.0, INF, ns=(2.5, 8)),
     r"ns must be one or more strictly increasing positive ints, got \(2.5, 8\)"),
    # arity and exponent claims
    ("one-per", lambda: admissible_tuple([], [], 1.0, INF),
     "need one space per averaging exponent and at least one, got 0 for 0"),
    ("nonempty", lambda: muckenhoupt_constant([ONES], (2.0,), (1.0,), INF, []), "need at least one grid, got none"),
    ("product_space-empty", lambda: product_space([]), "need at least one factor space, got none"),
    ("need", lambda: maximal_opnorm_lower(G, [2.0], [2.0], [LebesgueSpace(2.0, U2)]),
     "need r_1 < p_1, got r_1=2.0 >= p_1=2.0"),
    ("composed-q-above-p", lambda: composed_transfer_exponent([2.0], 3.0, [1.0], INF),
     "need q <= p, got q=3.0 > p=2.0"),
    ("vv-one-atom-count", lambda: vv_transfer_check([HAAR], G, [2.0], 1.0, INF, ns=(4,)),
     r"need at least two atom counts to fit a slope, got \(4,\)"),
    # a space spec is an exponent t or a pair (t_outer, t_inner)
    ("space-spec-one", lambda: vv_transfer_check([HAAR], Grid(1, 2), [(2.0,)], 1.0, INF, trials=1),
     r"a space spec is an exponent t or a pair \(t_outer, t_inner\), got \(2.0,\)"),
    ("space-spec-three", lambda: space_tuple([(3.0, 2.0, 2.0)], 2),
     r"a space spec is an exponent t or a pair \(t_outer, t_inner\), got \(3.0, 2.0, 2.0\)"),
    ("space-spec-word", lambda: space_tuple(["abc"], 2),
     r"a space spec is an exponent t or a pair \(t_outer, t_inner\), got 'abc'"),
    ("space-spec-inner-word", lambda: space_tuple([[3.0, "2"]], 2),
     r"a space spec is an exponent t or a pair \(t_outer, t_inner\), got \[3.0, '2'\]"),
    ("stopping-shifted", lambda: stopping_domination(Grid(1, 2, 1), [np.ones((4, 2))], [1.0], 1.0, [LebesgueSpace(2.0, U2)]),
     r"cell functions live on the shift-0 grid, got Grid\(d=1, depth=2, shift=1\)"),
    ("sparse_form-atoms", lambda: sparse_form(ROOT_ONLY, G, [np.ones((4, 2))], [1.0]),
     r"sparse_form takes scalar functions of shape \(4,\), got shape \(4, 2\)"),
    *[
        (f"sparse_form-{name}", lambda f=f: sparse_form(ROOT_ONLY, G, [ONES, f], [1.0, 1.0]),
         "sparse_form takes finite functions, got a non-finite entry in f_2")
        for name, f in [
            ("nan", np.array([1.0, NAN, 1.0, 1.0])),
            ("inf", np.array([1.0, INF, 1.0, 1.0])),
            ("neg-inf", np.array([1.0, -INF, 1.0, 1.0])),
        ]
    ],
    # the optimizers read a trailing axis as a batch of inputs, so a
    # function with atom axes is refused, as is a non-finite entry
    *[
        (f"optimal_sparse_form-{mode}-{name}", lambda mode=mode, f=f: optimal_sparse_form([ONES, f], [1.0, 1.0], G, mode=mode),
         message)
        for mode in ("exact", "greedy")
        for name, f, message in [
            ("atoms", np.ones((4, 2)), r"optimal_sparse_form takes scalar functions of shape \(4,\), got shape \(4, 2\)"),
            ("nan", np.array([1.0, NAN, 1.0, 1.0]), "optimal_sparse_form takes finite functions, got a non-finite entry in f_2"),
            ("inf", np.array([1.0, INF, 1.0, 1.0]), "optimal_sparse_form takes finite functions, got a non-finite entry in f_2"),
        ]
    ],
    # a group of models sharing one trial suite
    ("models-none", lambda: vv_transfer_check([], G, [2.0], 1.0, INF), "need at least one model, got none"),
    ("models-m", lambda: scalar_hypothesis_check([HAAR, SparseOperator(ROOT_ONLY, rs=(1.0, 1.0))], G, 1.0),
     r"grouped models must share m and rs, got m=1, rs=\(1.0,\) and m=2, rs=\(1.0, 1.0\)"),
    ("models-rs", lambda: transfer_sides([HAAR, SparseOperator(ROOT_ONLY, rs=(2.0,))], G, [np.ones((4, 2))], ONES,
                                         [LebesgueSpace(2.0, U2)], LebesgueSpace(2.0, U2), 1.0, INF),
     r"grouped models must share m and rs, got m=1, rs=\(1.0,\) and m=1, rs=\(2.0,\)"),
    # associate norms are exact or refused, naming the kind
    *[
        (f"associate-{name}{'-argmax' if argmax else ''}",
         lambda sp=sp, argmax=argmax: associate_norm(sp, np.ones(sp.atom_shape), return_argmax=argmax),
         f"no closed-form associate norm for this {sp.kind} space")
        for name, sp in NO_CLOSED_DUAL
        for argmax in (False, True)
    ],
    # Orlicz tables: an inf knot or value and a NaN are refused, as is a
    # knot that concavification pushes past the double range (1e6^80)
    ("orlicz-inf-knot", lambda: OrliczSpace([[1.0, 1.0], [INF, 2.0]], U2), "Phi table entries must be finite and strictly positive"),
    ("orlicz-inf-value", lambda: OrliczSpace([[1.0, 1.0], [2.0, INF]], U2), "Phi table entries must be finite and strictly positive"),
    ("orlicz-nan-value", lambda: OrliczSpace([[1.0, 1.0], [2.0, NAN]], U2), "Phi table entries must be finite and strictly positive"),
    ("concavify-orlicz-overflow", lambda: concavify(OrliczSpace.from_power(2.0, U2), 80.0),
     "Phi table entries must be finite and strictly positive"),
    # JSON payloads name the entry they lack
    ("space-json-atoms", lambda: space_from_json('{"kind": "lebesgue"}'), "space payload needs a 'atoms' entry"),
    ("space-json-list", lambda: space_from_json("[1, 2]"), "space payload needs a 'kind' entry"),
    ("space-json-t", lambda: space_from_json('{"kind": "lebesgue", "atoms": [1.0], "parameters": {}}'),
     "lebesgue payload needs a 't' entry"),
    ("family-json-cubes", lambda: family_from_json('{"eta": 0.5}'), "family payload needs a 'cubes' entry"),
    ("family-json-shift", lambda: family_from_json('{"eta": 0.5, "cubes": [{"level": 0, "index": [0]}], "certificate": [], "depth": 0}'),
     "cube payload needs a 'shift' entry"),
    ("family-json-shift-1", lambda: family_from_json(FAMILY_PAYLOAD.replace('"shift": 0', '"shift": 1')),
     "family cubes lie on the standard lattice, so cube shift must be 0, got 1"),
    # and refuse a list entry that is no list, or a cube that is not ints
    ("family-json-cells-int", lambda: family_from_json(FAMILY_PAYLOAD.replace('"cells": [0]', '"cells": 5')),
     "certificate cells must be a list, got 5"),
    ("family-json-index-int", lambda: family_from_json(FAMILY_PAYLOAD.replace('"index": [0]', '"index": 5')),
     "cube index must be a list, got 5"),
    ("family-json-cubes-int", lambda: family_from_json(FAMILY_PAYLOAD.replace('"cubes": [', '"cubes": 5, "was": [')),
     "cubes must be a list, got 5"),
    ("family-json-certificate-word", lambda: family_from_json(FAMILY_PAYLOAD.replace('"certificate": [', '"certificate": "x", "was": [')),
     "certificate must be a list, got 'x'"),
    ("family-json-index-word", lambda: family_from_json(FAMILY_PAYLOAD.replace('"index": [0]', '"index": ["0"]')),
     r"a cube needs an int level and one int index per axis, got Cube\(level=0, index=\('0',\)\)"),
    ("family-json-level-float", lambda: family_from_json(FAMILY_PAYLOAD.replace('"level": 0', '"level": 0.5')),
     r"a cube needs an int level and one int index per axis, got Cube\(level=0.5, index=\(0,\)\)"),
    ("family-json-index-empty", lambda: family_from_json(FAMILY_PAYLOAD.replace('"index": [0]', '"index": []')),
     r"a cube needs an int level and one int index per axis, got Cube\(level=0, index=\(\)\)"),
    ("function-json-L", lambda: function_from_json('{"d": 1, "values": [1.0]}'), "function payload needs a 'L' entry"),
    # an iterated payload's atoms are its outer layer's
    ("space-json-iterated-atoms", lambda: space_from_json(json.dumps({**json.loads(ITERATED_PAYLOAD), "atoms": [7.0]})),
     r"iterated payload atoms must equal the outer layer's \[1.0, 2.0\], got \[7.0\]"),
    # a value that is no real number is refused before it is compared
    ("space-json-t-word", lambda: space_from_json('{"kind": "lebesgue", "atoms": [1.0], "parameters": {"t": "abc"}}'),
     r"t must be in \(0, inf\], got 'abc'"),
    ("space-json-u-null", lambda: space_from_json('{"kind": "lorentz", "atoms": [1.0], "parameters": {"t": 2.0, "u": null}}'),
     r"u must be in \(0, inf\], got None"),
    ("family-json-eta-word", lambda: family_from_json('{"eta": "0.5", "cubes": [], "certificate": [], "depth": 0}'),
     r"eta must be in \(0, 1\), got '0.5'"),
    ("check-list", lambda: check("q", [2.0], FINITE), r"q must be in \(0, inf\), got \[2.0\]"),
    ("check-complex", lambda: check("q", 2j, FINITE), r"q must be in \(0, inf\), got 2j"),
    # weights and families
    ("weights-none", lambda: muckenhoupt_constant([], (), (), INF, G), "need at least one weight component, got none"),
    ("weights-shapes", lambda: muckenhoupt_constant([ONES, np.ones(8)], (4.0, 4.0), (1.0, 1.0), INF, G),
     "weight components must share one cell shape"),
    ("weights-zero", lambda: muckenhoupt_constant([np.zeros(G.cell_shape)], (2.0,), (1.0,), INF, G),
     "weights must be finite and strictly positive"),
    # a grid norm's weight too; a negative one gave a norm of 0.5 for 1.0
    *[
        (f"grid_norm-weight-{name}", lambda w=w: grid_norm(G, ONES, 1.0, weight=np.array([w, 1.0, 1.0, 1.0])),
         "weights must be finite and strictly positive")
        for name, w in [("negative", -1.0), ("nan", NAN), ("inf", INF)]
    ],
    # an envelope fit takes finite data only; NaN and inf passed the sign test
    *[
        (f"power_envelope-{name}", lambda xs=xs, ys=ys: power_envelope(xs, ys, 1.0),
         "envelope fit needs finite x > 0 and y >= 0")
        for name, xs, ys in [
            ("x-nan", [NAN, 2.0], [1.0, 1.0]),
            ("y-nan", [1.0, 2.0], [NAN, 1.0]),
            ("x-inf", [1.0, INF], [1.0, 1.0]),
            ("y-inf", [1.0, 2.0], [1.0, INF]),
        ]
    ],
    ("SparseOperator-uncertified", lambda: SparseOperator(SparseFamily.from_cubes(list(Grid(1, 3).cubes())), rs=(1.0,)),
     "SparseOperator needs a family whose certificate checks, as from verify_sparse"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in REFUSALS], ids=[c[0] for c in REFUSALS])
def test_refusal_names_parameter_range_and_value(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_norming_field_attains_the_sup_norm():
    # l^inf is normed, not refused: mu^(-1/q) at each cell's first largest
    # atom and zero elsewhere, zero on a zero cell
    X = LebesgueSpace(INF, AtomicMeasure([0.5, 2.0]))
    V = np.array([[1.0, 3.0], [2.0, 2.0], [0.0, 0.0], [4.0, 1.0]])
    for q in (1.0, 2.0):
        H = _norming_field(X, q, V)
        assert np.array_equal(H, np.array([[0.0, 0.5], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]]) ** (1.0 / q))
        pairing = np.sum((V * H) ** q * X.mu, axis=-1) ** (1.0 / q)
        assert np.allclose(pairing, X.norm(V), rtol=1e-12, atol=0.0)


def test_integer_ranges_take_python_and_numpy_ints():
    grid = Grid(2, np.int64(3), np.int32(4))
    assert (grid.depth, grid.shift, grid.cell_shape) == (3, 4, (8, 8))
    assert G.level_cubes(np.int64(1)) == G.level_cubes(1)
    # a corner on the boundary is refused by the fit check, not the corner range
    with pytest.raises(ValueError, match=r"cube must sit inside \[0,1\)\^d"):
        cover_cube([0.875], 0.25)


def test_check_takes_python_and_numpy_reals_as_before():
    # every real scalar, bools included, is compared as it was; NaN and an
    # out-of-range NumPy value keep their printed forms
    for x in (2, 2.5, Fraction(5, 2), True, np.float64(2.5), np.float32(2.5), np.int64(2), np.bool_(True)):
        assert check("q", x, EXPONENT) is x
    with pytest.raises(ValueError, match=r"^q must be in \(0, inf\], got nan$"):
        check("q", np.float64(NAN), EXPONENT)
    with pytest.raises(ValueError, match=r"^q must be in \(0, inf\), got -1.5$"):
        check("q", np.float32(-1.5), FINITE)
    with pytest.raises(ValueError, match=r"^q must be in \(0, inf\), got False$"):
        check("q", np.bool_(False), FINITE)


def test_iterated_payload_with_its_outer_atoms_round_trips():
    space = space_from_json(ITERATED_PAYLOAD)
    assert space.measure == AtomicMeasure([1.0, 2.0]) and space_to_json(space) == ITERATED_PAYLOAD


def test_counts_take_python_and_numpy_ints():
    assert Grid(np.int64(2), 1).d == 2
    assert at_least("trials", np.int64(3), 1) == 3
    assert increasing("ns", np.array([2, 4])) == (2, 4)
    xi = [1.0, 2.0]
    assert product_norm(ORLICZ_PAIR, xi, restarts=np.int32(2)) == product_norm(ORLICZ_PAIR, xi, restarts=2)


@pytest.mark.parametrize("key", ["q", "s", "p", "r"])
@pytest.mark.parametrize("value", [True, "abc"])
def test_cli_float_keys_refuse_bools_and_words(key, value):
    # a bool is no exponent, and a word must fail naming its key
    with pytest.raises(ConfigError, match=f"{key} must be a number, got {value!r}"):
        run("exponents", {key: value})


def test_cli_config_q_true_exits_two(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("q = true\n")
    assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "q must be a number, got True" in capsys.readouterr().err


def test_cli_stopping_reads_neither_q_nor_s(tmp_path, capsys):
    # stopping fixes q = 1 and never reads s, so s = 0.5 is no precondition
    cfg = tmp_path / "s.cfg"
    cfg.write_text("s = 0.5\nq = 0\ndepth = 1\n")
    assert main(["stopping", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(ConfigError, match=r"need s > q, got s=0.5 <= q=1.0"):
        run("transfer", {"s": 0.5})
