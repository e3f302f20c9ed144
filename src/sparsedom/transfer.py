"""Model operators and scalar-to-vector transfer experiments.

The lab question: an operator T on m-tuples of cell functions satisfies the
scalar domination

    ||T(f_1,...,f_m) g||_{L^q}  <=  C ||M_{(r,sigma)}(f_1,...,f_m, g)||_{L^q},
    sigma = 1/(1/q - 1/s),

and we apply T per atom to tuples of lattice-valued fields F_j.  Does the same
bound survive with the cellwise lattice norms ||F_j||_{X_j} on the maximal
side and ||.||_X of the output (X the pointwise product space) on the left?
It should, with a constant independent of the atom count, whenever the tuple
of lattices sits inside the iterated-Lebesgue admissibility catalog.  The
experiments here measure the vector constant as the atom count grows and call
the transfer sound when the fitted growth is flat.

Two model operators stand in for genuine singular integrals: a positive sparse
averaging operator (the canonical recipient of the scalar bound) and a
martingale sign transform (the canonical cancellative one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._checks import _REAL, EXPONENT, at_least, check, increasing, need, nonempty, one_per
from .dyadic import Grid, _family_products, grid_norm
from .maximal import check_tuple, scalar_maximal, tower
from .sparse import SparseFamily, _check_on_grid
from .spaces import (
    AtomicMeasure,
    IteratedSpace,
    LebesgueSpace,
    Space,
    _layers,
    _norming,
    associate_space,
    concavify,
    gap_exponent,
    harmonic_exponent,
    product_space,
)
from .weights import (
    encode_inf,
    muckenhoupt_constant,
    power_envelope,
    power_weight,
    transfer_exponent,
)

__all__ = [
    "SparseOperator",
    "HaarTransform",
    "tensor_extend",
    "space_tuple",
    "lebesgue_layers",
    "admissible_tuple",
    "dual_power_space",
    "scalar_hypothesis_check",
    "transfer_sides",
    "TransferReport",
    "vv_transfer_check",
    "vv_equivalence_check",
    "weighted_transfer_experiment",
]


# ---------------------------------------------------------------------------
# model operators
# ---------------------------------------------------------------------------


class SparseOperator:
    """Positive averaging model: T(f)(x) = sum_Q prod_j <f_j>_{r_j,Q} 1_Q(x).

    ``family`` is a SparseFamily whose certificate checks, so that its
    sparseness parameter certifies the scalar hypothesis constant; an
    uncertified family is refused.  Averages take absolute values, so the
    operator is positive and m-sublinear.
    """

    kind = "sparse"

    def __init__(self, family: SparseFamily, rs: Sequence[float]):
        self.family = family
        self.eta = float(family.eta)
        self.rs = tuple(check(f"r_{j}", float(r), EXPONENT) for j, r in enumerate(rs, 1))
        self.m = nonempty("averaging exponent", self.rs)
        if not family.check_certificate():
            raise ValueError("SparseOperator needs a family whose certificate checks, as from verify_sparse")

    def hypothesis_constant(self, q: float) -> float | None:
        """eta^(-1/q), the certified scalar-domination constant for q <= 1.

        Disjoint witness sets of measure eta |Q| turn the cube sum into an
        integral of the maximal function; q-subadditivity needs q <= 1, so
        q > 1 returns None.
        """
        return None if q > 1.0 else self.eta ** (-1.0 / q)

    def apply(self, grid: Grid, fs: Sequence[np.ndarray]) -> np.ndarray:
        """T(f) per finest cell; trailing atom axes broadcast.

        Each cube adds prod_j <f_j>_{r_j,Q} to its cells, in family order.
        The products are read off the family's level and index arrays by
        ``dyadic._family_products``, as ``sparse_form`` reads them: only the
        blocks under the family's cubes are reduced, and each value equals
        its entry of ``level_products`` bit for bit.  A cell thus sums the
        same values in the same order as a per-cube walk that looks each
        ``Cube`` up and slices it (the oracle in ``tests/oracles.py``), so
        the result equals it bit for bit.  A cube off the grid is refused.

        The family is eta-sparse: disjoint witness sets E_Q in Q with
        |E_Q| >= eta |Q| give sum_Q |Q| <= 1/eta, so the blocks read cover at
        most cells/eta cells per factor, against (depth + 1) cells for all
        level products.
        """
        one_per("function", "averaging exponent", fs, self.rs)
        fs, trail = check_tuple(grid, fs)
        _check_on_grid(self.family, grid)
        level, index = self.family.level, self.family.index
        products = _family_products(grid, fs, self.rs, level, index)
        out = np.zeros(grid.cell_shape + trail)
        for k, m, p in zip(level.tolist(), index.tolist(), products):
            b = 1 << grid.depth - k
            out[tuple(slice(i * b, i * b + b) for i in m)] += p
        return out

    def __repr__(self) -> str:
        return f"SparseOperator(cubes={len(self.family.level)}, rs={self.rs})"


def _signed_means(grid: Grid, f: np.ndarray) -> list[np.ndarray]:
    """Plain block means per level, no absolute value; trailing axes ride."""
    pairs = tuple(range(1, 2 * grid.d, 2))
    out = [f]
    for k in range(grid.depth - 1, -1, -1):
        out.append(out[-1].reshape((1 << k, 2) * grid.d + f.shape[grid.d:]).mean(axis=pairs))
    return out[::-1]


class HaarTransform:
    """Martingale sign transform: mean plus signed per-cube differences.

    T f = E_0 f + sum_Q eps_Q (E_{k+1} f - E_k f) 1_Q over shift-0 cubes Q of
    levels 0..depth-1.  ``signs`` is the pyramid of eps_Q: level k an array
    of shape (2^k,)*d with entries +1 or -1, levels 0 to the deepest signed
    one; levels past it keep eps_Q = +1, so the empty pyramid is the
    identity.  The differences are orthogonal, so every sign choice is an
    L^2 isometry.  One input function only.
    """

    kind = "haar"

    def __init__(self, signs: Sequence[np.ndarray] = ()):
        self.signs = [np.array(eps, dtype=float) for eps in signs]
        d = self.signs[0].ndim if self.signs else 0
        for k, eps in enumerate(self.signs):
            if not d or eps.shape != (1 << k,) * d:
                raise ValueError(f"Haar sign level {k} must have shape (2^{k},)*d for one d >= 1, got shape {eps.shape}")
            wrong = eps[(eps != 1.0) & (eps != -1.0)]
            if wrong.size:
                raise ValueError(f"Haar signs must be +1 or -1, got {wrong[0]} at level {k}")
        self.rs = (1.0,)
        self.m = 1
        self.eta = None

    @classmethod
    def random(cls, grid: Grid, seed: int = 0) -> "HaarTransform":
        """A sign per cube of levels 0..depth-1, drawn level by level in row-major order."""
        rng = np.random.default_rng(seed)
        draws = [[rng.choice([-1.0, 1.0]) for _ in range(1 << grid.d * k)] for k in range(grid.depth)]
        return cls([np.reshape(level, (1 << k,) * grid.d) for k, level in enumerate(draws)])

    def hypothesis_constant(self, q: float) -> None:
        # no a-priori certificate; the scalar check reports the measured one
        return None

    def apply(self, grid: Grid, fs: Sequence[np.ndarray]) -> np.ndarray:
        """T f per finest cell; trailing atom axes broadcast.

        A top-down running sum: the sum over levels 0..k, repeated twice
        along each axis, gains eps_Q (E_{k+1} f - E_k f) on level k+1's
        cells.  Every cell meets the same operands in the same order as when
        each level is upsampled to the cells first (the oracle in
        ``tests/oracles.py``), so the result equals that bit for bit.  Levels
        past the deepest signed one keep eps_Q = +1 and skip the product.
        """
        one_per("function", "averaging exponent", fs, self.rs)
        fs, trail = check_tuple(grid, fs)
        if self.signs and self.signs[0].ndim != grid.d:
            raise ValueError("sign cube dimension does not match the grid")
        if len(self.signs) > grid.depth:
            raise ValueError(f"sign at level {len(self.signs) - 1} has no children at depth {grid.depth}")
        means = _signed_means(grid, fs[0])
        out = means[0].copy()
        for k in range(grid.depth):
            half = (1 << k, 1) * grid.d
            fine = means[k + 1].reshape((1 << k, 2) * grid.d + trail)
            # eps_Q * detail, then the sum so far plus it, in one new buffer
            term = fine - means[k].reshape(half + trail)
            if k < len(self.signs):
                np.multiply(self.signs[k].reshape(half + (1,) * len(trail)), term, out=term)
            np.add(out.reshape(half + trail), term, out=term)
            out = term.reshape(means[k + 1].shape)
        return out

    def __repr__(self) -> str:
        return f"HaarTransform(levels={len(self.signs)})"


def tensor_extend(T, grid: Grid, Fs: Sequence[np.ndarray]) -> np.ndarray:
    """The lattice extension: the scalar model on every atom slice.

    Equivalent to looping ``T.apply`` over atom indices (the slice identity,
    pinned in the tests); both models broadcast trailing atom axes, so it is
    one call.
    """
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    if any(F.ndim == grid.d for F in Fs):
        raise ValueError("tensor_extend expects at least one trailing atom axis")
    return T.apply(grid, Fs)


# ---------------------------------------------------------------------------
# admissible space tuples
# ---------------------------------------------------------------------------


def space_tuple(specs: Sequence, n: int) -> tuple[Space, ...]:
    """Build a space tuple at atom count n; a spec is t or (t_outer, t_inner).

    Nested specs scale their outer axis with n and keep two inner atoms.
    All factors share the unit atomic measure, as the pointwise product
    structure requires.  Any other spec is refused by name.
    """
    meas = AtomicMeasure.unit(n)
    out = []
    for spec in specs:
        pair = isinstance(spec, (tuple, list)) and len(spec) == 2
        if not all(isinstance(t, _REAL) for t in (spec if pair else [spec])):
            raise ValueError(f"a space spec is an exponent t or a pair (t_outer, t_inner), got {spec!r}")
        if pair:
            t_outer, t_inner = spec
            out.append(
                IteratedSpace(
                    LebesgueSpace(float(t_outer), meas),
                    LebesgueSpace(float(t_inner), AtomicMeasure.unit(2)),
                )
            )
        else:
            out.append(LebesgueSpace(float(spec), meas))
    return tuple(out)


def lebesgue_layers(space: Space) -> list[float] | None:
    """Exponent layers [t] or [t_outer, t_inner] for catalog members, else None."""
    layers = _layers(space)
    return [sp.t for sp in layers] if all(isinstance(sp, LebesgueSpace) for sp in layers) else None


def admissible_tuple(
    spaces: Sequence[Space], rs: Sequence[float], q: float, s: float
) -> tuple[bool, str]:
    """Catalog membership for the vector transfer at exponents (q, s).

    Every factor must be a Lebesgue space or one nested level of them, all
    nesting to the same depth; each layer needs t_j > r_j componentwise and
    q <= t < s for the aggregate exponent t (harmonic over the tuple, the
    product-space exponent of that layer).  Returns (ok, reason).
    """
    spaces = list(spaces)
    rs = [float(r) for r in rs]
    one_per("space", "averaging exponent", spaces, rs)
    layer_lists = []
    for j, sp in enumerate(spaces):
        layers = lebesgue_layers(sp)
        if layers is None:
            return False, f"factor {j} is outside the iterated-Lebesgue catalog"
        layer_lists.append(layers)
    if len({len(ls) for ls in layer_lists}) != 1:
        return False, "factors nest to different depths"
    for k in range(len(layer_lists[0])):
        ts = [ls[k] for ls in layer_lists]
        for t, r in zip(ts, rs):
            if not t > r:
                return False, f"layer {k}: need t > r, got t={t}, r={r}"
        agg = harmonic_exponent(ts)
        if not q <= agg:
            return False, f"layer {k}: aggregate exponent {agg} below q={q}"
        if not agg < s:
            return False, f"layer {k}: aggregate exponent {agg} not below s={s}"
    return True, "admissible"


# ---------------------------------------------------------------------------
# dual machinery for the equivalence of the two domination shapes
# ---------------------------------------------------------------------------


def dual_power_space(space: Space, q: float) -> Space:
    """The space with norm || |v|^q ||_{(X^q)'}^(1/q), the associate space of
    X^q concavified back by 1/q: l^e with 1/e = 1/q - 1/t for X = l^t, per
    layer when nested.  X must be q-convex, with Lebesgue layers."""
    if not space.convexity >= q:
        raise ValueError(f"dual computations need a q-convex space: convexity {space.convexity} < q={q}")
    dual = associate_space(concavify(space, q))
    if dual is None:
        raise ValueError("closed-form duals cover Lebesgue layers only")
    return concavify(dual, 1.0 / q)


def _ellq_collapse(arr: np.ndarray, mu: np.ndarray, q: float) -> np.ndarray:
    """(sum_atoms |arr|^q mu)^(1/q) cellwise; mu in atom_shape layout."""
    axes = tuple(range(arr.ndim - mu.ndim, arr.ndim))
    return np.sum(np.abs(arr) ** q * mu, axis=axes) ** (1.0 / q)


def _norming_field(space: Space, q: float, v: np.ndarray) -> np.ndarray:
    """Unit dual field H with (sum |v H|^q mu)^(1/q) = ||v||_X on every cell:
    |H|^q is ``_norming`` of |v|^q in X^q, for Lebesgue layers.  H is
    zero (still admissible) where v vanishes, or one if a layer's t is q."""
    return _norming(concavify(space, q), np.abs(np.asarray(v, dtype=float)) ** q) ** (1.0 / q)


# ---------------------------------------------------------------------------
# trial suites
# ---------------------------------------------------------------------------


def _random_cells(rng, grid: Grid) -> np.ndarray:
    """One scalar profile: cube indicator, tower, or lognormal field."""
    kind = int(rng.integers(3))
    if kind == 0:
        k = int(rng.integers(grid.depth + 1))
        b = 1 << grid.depth - k
        corner = [b * int(rng.integers(1 << k)) for _ in range(grid.d)]
        f = np.zeros(grid.cell_shape)
        f[tuple(slice(m, m + b) for m in corner)] = float(rng.exponential()) + 0.1
        return f
    if kind == 1:
        return tower(rng, grid)
    return rng.lognormal(sigma=1.2, size=grid.cell_shape)


def _vectorize(rng, base: np.ndarray, atom_shape: tuple[int, ...]) -> np.ndarray:
    """Lift a scalar profile to atoms: one-hot, smooth, or roughened."""
    kind = int(rng.integers(3))
    if kind == 0:
        direction = np.zeros(atom_shape)
        flat = int(rng.integers(int(np.prod(atom_shape))))
        direction.ravel()[flat] = 1.0
    else:
        direction = rng.exponential(size=atom_shape) + 1e-3
    F = np.multiply.outer(base, direction)
    if kind == 2:
        F *= rng.lognormal(sigma=0.5, size=F.shape)
    return F


def _random_field(rng, grid: Grid, atom_shape: tuple[int, ...]) -> np.ndarray:
    return _vectorize(rng, _random_cells(rng, grid), atom_shape)


# ---------------------------------------------------------------------------
# the scalar hypothesis and the two sides of the vector bound
# ---------------------------------------------------------------------------


def _sigma(q: float, s: float) -> float:
    need("s", s, ">", "q", q)
    return gap_exponent(q, s)


def _shared_rs(Ts) -> list[float]:
    """The averaging exponents of a group of models that share m and rs."""
    nonempty("model", Ts)
    m, rs = Ts[0].m, list(Ts[0].rs)
    for T in Ts[1:]:
        if T.m != m or list(T.rs) != rs:
            raise ValueError(
                f"grouped models must share m and rs, got m={m}, rs={tuple(rs)} and m={T.m}, rs={tuple(T.rs)}"
            )
    return rs


def scalar_hypothesis_check(
    Ts, grid: Grid, q: float, s: float = math.inf, trials: int = 50, seed: int = 0
) -> list[dict]:
    """Measure the scalar-domination constant of models over a seeded suite.

    The ratio is ||T(f) g||_q / ||M_{(r,sigma)}(f,g)||_q.  A sparse model
    carrying a sparseness parameter must stay below eta^(-1/q) when q <= 1;
    other models just report the measured constant (pass = finite).  The
    exponents need 0 < q < s <= inf, and ``trials`` is at least 1.

    ``Ts`` is a nonempty sequence of models sharing m and rs; one dict comes
    back per model.  Each trial draws f and g once and takes the maximal
    side once, and every model divides its own T(f) by it, so a model's
    dict equals the one it gets alone bit for bit.
    """
    rs = _shared_rs(Ts)
    at_least("trials", trials, 1)
    sigma = _sigma(q, s)
    rng = np.random.default_rng(seed)
    worst = [0.0] * len(Ts)
    for _ in range(trials):
        fs = [_random_cells(rng, grid) for _ in rs]
        g = _random_cells(rng, grid)
        nums = [grid_norm(grid, np.abs(T.apply(grid, fs)) * g, q) for T in Ts]
        den = grid_norm(grid, scalar_maximal(grid, fs + [g], rs + [sigma]), q)
        worst = [max(w, 0.0 if den == 0 else num / den) for w, num in zip(worst, nums)]
    out = []
    for T, w in zip(Ts, worst):
        bound = T.hypothesis_constant(q)
        passed = w <= bound * (1 + 1e-9) if bound is not None else math.isfinite(w)
        out.append({
            "max_ratio": float(w),
            "bound": None if bound is None else float(bound),
            "passed": bool(passed),
            "trials": int(trials),
        })
    return out


def transfer_sides(
    Ts, grid: Grid, Fs: Sequence[np.ndarray], g, spaces: Sequence[Space], X: Space, q: float, s: float
) -> list[tuple[float, float]]:
    """One evaluation of the vector bound: (lattice side, maximal side) per model.

    Lattice side: || ||T~(F)||_X g ||_{L^q} with X = product_space(spaces),
    which the caller builds once for its atom count.
    Maximal side: || M_{(r,sigma)}(||F_1||_{X_1},...,||F_m||_{X_m}, g) ||_{L^q}.

    ``Ts`` is a nonempty sequence of models sharing m and rs.  The maximal
    side does not depend on the model, so the factor norms and M are
    computed once; only T~(F) and its norm in X are taken per model.
    """
    rs = _shared_rs(Ts)
    sigma = _sigma(q, s)
    g = np.abs(np.asarray(g, dtype=float))
    lhs = [grid_norm(grid, np.asarray(X.norm(tensor_extend(T, grid, Fs))) * g, q) for T in Ts]
    scalars = [np.asarray(sp.norm(F)) for sp, F in zip(spaces, Fs)]
    rhs = grid_norm(grid, scalar_maximal(grid, scalars + [g], rs + [sigma]), q)
    return [(side, rhs) for side in lhs]


# ---------------------------------------------------------------------------
# the transfer experiment
# ---------------------------------------------------------------------------


@dataclass
class TransferReport:
    """Outcome of one vector transfer experiment across atom counts."""

    kind: str
    ns: tuple[int, ...]
    ratios: dict[int, list[float]]
    worst: dict[int, float]
    slope: float
    passed: bool
    admissible: bool
    exploratory: bool
    warnings: list[str] = field(default_factory=list)
    scalar: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ns": list(self.ns),
            "worst": {str(n): float(v) for n, v in self.worst.items()},
            "slope": float(self.slope),
            "verdict": self.verdict,
            "admissible": self.admissible,
            "exploratory": self.exploratory,
            "warnings": list(self.warnings),
            "scalar": self.scalar,
            "config": {k: encode_inf(v) for k, v in self.config.items()},
            "ratios": {str(n): [float(x) for x in r] for n, r in self.ratios.items()},
        }


def vv_transfer_check(
    Ts,
    grid: Grid,
    specs,
    q: float,
    s: float,
    ns: Sequence[int] = (2, 8, 32),
    trials: int = 200,
    seed: int = 0,
) -> list[TransferReport]:
    """Does the scalar domination survive the lattice extension?

    ``Ts`` is a nonempty sequence of models sharing m and rs; one report
    comes back per model, equal to the one it gets alone.  ``specs`` lists
    per-factor exponents (t, or (t_outer, t_inner) for one nested level),
    built at each atom count by ``space_tuple``.  ``ns`` are two or more
    strictly increasing positive ints, the points of the slope fit, and
    ``trials`` is at least 1.  Per atom count the worst ratio of the two
    transfer_sides over the trial suite is recorded; the verdict is PASS
    when the log-log slope of that worst ratio against n stays at or below
    0.05.  An inadmissible tuple downgrades the run to exploratory with a
    warning rather than refusing it.

    Each trial draws its scalar profiles and g once, from one stream, and
    every atom count lifts the same profiles.  The lifts to atoms come from
    a stream of their own per n, and each factor draws its own lift kind
    and, for a one-hot lift, its own atom.  A trial reduces to the scalar
    bound only when every factor is one-hot on the same atom; for m = 2
    over n flat atoms that happens with probability 1/(9n), so the worst
    ratios at different n come from different lifts.  Every trial's
    profiles and g are drawn first, in trial order; then atom counts run on
    the outside and trials, in order, on the inside.  The streams are
    independent, so each draw is the one a loop over trials, with atom
    counts inside, would make.  Running each atom count's lifts back to
    back keeps the allocator at their size, rather than returning the
    largest count's arrays to the system after every trial.  The held
    profiles take (m + 1) * trials * cells * 8 bytes; with 25 trials and
    m <= 2 that is about 0.6 MB at d=2 depth 5 and 2.4 MB on a 4,096-cell
    grid.  The space tuple and its product are built once per n.
    """
    rs = _shared_rs(Ts)
    ns = increasing("ns", ns)
    if len(ns) < 2:
        raise ValueError(f"need at least two atom counts to fit a slope, got {ns}")
    at_least("trials", trials, 1)
    spaces = {n: space_tuple(specs, n) for n in ns}
    one_per("space", "averaging exponent", spaces[ns[0]], rs)
    ok, why = admissible_tuple(spaces[ns[0]], rs, q, s)
    warnings = [] if ok else [f"inadmissible space tuple ({why}); run is exploratory"]
    scalars = scalar_hypothesis_check(Ts, grid, q, s, trials=min(trials, 50), seed=seed)

    products = {n: product_space(spaces[n]) for n in ns}
    rng_prof = np.random.default_rng((seed, 1))
    rng_dir = {n: np.random.default_rng((seed, 2, n)) for n in ns}
    draws = []
    for _ in range(trials):
        profs = [_random_cells(rng_prof, grid) for _ in rs]
        draws.append((profs, np.abs(_random_cells(rng_prof, grid))))
    ratios = [{n: [] for n in ns} for _ in Ts]
    for n in ns:
        for profs, g in draws:
            Fs = [_vectorize(rng_dir[n], prof, sp.atom_shape) for prof, sp in zip(profs, spaces[n])]
            sides = transfer_sides(Ts, grid, Fs, g, spaces[n], products[n], q, s)
            for rat, (lhs, rhs) in zip(ratios, sides):
                rat[n].append(0.0 if rhs == 0 else lhs / rhs)
    reports = []
    for T, rat, scalar in zip(Ts, ratios, scalars):
        worst = {n: max(rat[n]) for n in ns}
        ys = [worst[n] for n in ns]
        if min(ys) <= 0:
            slope = 0.0
        else:
            slope = float(np.polyfit(np.log(ns), np.log(ys), 1)[0])
        passed = slope <= 0.05
        reports.append(TransferReport(
            kind=T.kind,
            ns=ns,
            ratios=rat,
            worst=worst,
            slope=slope,
            passed=bool(passed),
            admissible=ok,
            exploratory=not ok,
            warnings=list(warnings),
            scalar=scalar,
            config={
                "q": float(q),
                "s": float(s),
                "rs": list(rs),
                "trials": int(trials),
                "seed": int(seed),
                "d": grid.d,
                "depth": grid.depth,
            },
        ))
    return reports


# ---------------------------------------------------------------------------
# equivalence of the two domination shapes
# ---------------------------------------------------------------------------


def vv_equivalence_check(
    grid: Grid,
    Fs: Sequence[np.ndarray],
    g,
    spaces: Sequence[Space],
    q: float,
    s: float,
    samples: int = 24,
    seed: int = 0,
) -> dict:
    """Scalar-majorant shape versus dual-valued shape on concrete data.

    The field under test is the pointwise product V of the F_j, an element of
    the product space X.  The scalar shape integrates ||V||_X g; the dual
    shape pairs V against lattice-valued fields G = g H with cellwise
    ||H||_{((X^q)*)^(1/q)} <= 1.  Every such pairing is at most the scalar
    value (the Holder direction), and the norming field attains it, so the
    two shapes carry the same constant.  The maximal side is common to both,
    which is why s only enters validation here.
    """
    _sigma(q, s)
    spaces = list(spaces)
    one_per("field", "space", Fs, spaces)
    X = product_space(spaces)
    dual = dual_power_space(X, q)
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    for F in Fs:
        if F.shape != grid.cell_shape + X.atom_shape:
            raise ValueError("fields must share the grid cells and the product atoms")
    V = Fs[0].copy()
    for F in Fs[1:]:
        V = V * F
    absV = np.abs(V)
    g = np.abs(np.asarray(g, dtype=float))
    mu = X.mu
    trail = len(X.atom_shape)

    scalar_form = grid_norm(grid, np.asarray(X.norm(V)) * g, q)

    rng = np.random.default_rng(seed)
    sup_pair, holder_ok = 0.0, True
    for _ in range(samples):
        H = rng.lognormal(sigma=1.0, size=V.shape)
        dn = np.asarray(dual.norm(H))
        dn_b = dn.reshape(dn.shape + (1,) * trail)
        H = np.divide(H, dn_b, out=np.zeros_like(H), where=dn_b > 0)
        pair = grid_norm(grid, _ellq_collapse(absV * H, mu, q) * g, q)
        if pair > scalar_form * (1 + 1e-9) + 1e-15:
            holder_ok = False
        sup_pair = max(sup_pair, pair)

    Hstar = _norming_field(X, q, absV)
    pair_star = grid_norm(grid, _ellq_collapse(absV * Hstar, mu, q) * g, q)
    sup_pair = max(sup_pair, pair_star)

    gap = abs(scalar_form - sup_pair)
    passed = holder_ok and gap <= 1e-3 * max(1.0, scalar_form)
    return {
        "scalar_form": float(scalar_form),
        "reconstructed": float(sup_pair),
        "gap": float(gap),
        "holder_ok": bool(holder_ok),
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# weighted transfer
# ---------------------------------------------------------------------------


def weighted_transfer_experiment(
    T,
    grid: Grid,
    specs,
    ps: Sequence[float],
    q: float,
    s: float = math.inf,
    a_values: Sequence[float] = tuple(0.05 * k for k in range(10)),
    n: int = 3,
    trials: int = 12,
    seed: int = 0,
) -> dict:
    """Weighted operator ratios against the hypothesis growth C [w]^gamma.

    One-sided power weights w_j = x^(a/m) on the interval; for each a the
    ratio ||T~(F)||_{L^p_w(X)} / prod_j ||F_j||_{L^{p_j}_{w_j}(X_j)} (product
    weight w = prod w_j) is maximized over a deterministic battery plus
    seeded random fields, then fitted under one constant times [w]^gamma with
    gamma = transfer_exponent(ps, q, rs, s).  Rows give the log-log table.
    ``specs`` lists per-factor exponents, built at n atoms by ``space_tuple``.
    """
    if grid.d != 1:
        raise ValueError("weighted experiments use the interval geometry")
    spaces = space_tuple(specs, n)
    one_per("space", "averaging exponent", spaces, T.rs)
    rs = list(T.rs)
    ps = [float(p) for p in ps]
    p = harmonic_exponent(ps)
    gamma = transfer_exponent(ps, q, rs, s)
    norm_fn = product_space(spaces).norm

    rng = np.random.default_rng(seed)
    rows, xs, ys = [], [], []
    for a in a_values:
        ws = [power_weight(grid, float(a) / T.m) for _ in range(T.m)]
        const = muckenhoupt_constant(ws, ps, rs, s, grid)
        wprod = np.prod(np.stack(ws), axis=0)
        best = 0.0
        for Fs in _weighted_suite(rng, grid, spaces, ws, trials):
            out = tensor_extend(T, grid, Fs)
            num = grid_norm(grid, np.asarray(norm_fn(out)), p, weight=wprod)
            den = 1.0
            for sp, F, pj, w in zip(spaces, Fs, ps, ws):
                den *= grid_norm(grid, np.asarray(sp.norm(F)), pj, weight=w)
            if den > 0:
                best = max(best, num / den)
        rows.append({"a": float(a), "constant": float(const), "ratio": float(best)})
        xs.append(const)
        ys.append(best)

    C, slope = power_envelope(xs, ys, gamma)
    for row in rows:
        row["bound"] = float(C * row["constant"] ** gamma)
    over = max(row["ratio"] / row["bound"] for row in rows if row["bound"] > 0)
    passed = slope <= gamma + 0.1 and over <= 1.0 + 1e-9
    return {
        "gamma": float(gamma),
        "fitted_constant": float(C),
        "slope": float(slope),
        "rows": rows,
        "passed": bool(passed),
    }


def _weighted_suite(rng, grid: Grid, spaces, ws, trials: int):
    """Deterministic extremal battery plus seeded random vector fields."""
    shapes = [sp.atom_shape for sp in spaces]
    ones = np.ones(grid.cell_shape)
    first = np.zeros(grid.cell_shape)
    first[(0,) * grid.d] = 1.0
    block = np.zeros(grid.cell_shape)
    block[(slice(0, max(1, (1 << grid.depth) // 4)),) * grid.d] = 1.0
    batteries = [
        [ones] * len(spaces),
        [first] * len(spaces),
        [block] * len(spaces),
        [1.0 / w for w in ws],
    ]
    for profs in batteries:
        yield tuple(
            np.multiply.outer(prof, np.ones(shape))
            for prof, shape in zip(profs, shapes)
        )
    # the scalar-equivalent corner: extremal profile on a single atom
    for profs in (batteries[1], batteries[3]):
        lifted = []
        for prof, shape in zip(profs, shapes):
            direction = np.zeros(shape)
            direction.ravel()[0] = 1.0
            lifted.append(np.multiply.outer(prof, direction))
        yield tuple(lifted)
    for _ in range(trials):
        yield tuple(_random_field(rng, grid, shape) for shape in shapes)
