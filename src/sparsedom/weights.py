"""Muckenhoupt characteristics and the exponent arithmetic of weighted bounds.

Weights are plain arrays: finite, strictly positive cell functions of one
shape on a dyadic grid.  The characteristic [w]_{p,(r,s)} is the exact
maximum of the level arrays of the supplied grids (one-third shifts
optional), which must lie over the weights' cells.  The exponent helpers are
pure arithmetic in reciprocal space with the convention 1/inf = 0: the
weighted maximal exponent, the transfer exponent for sparse forms, the
extrapolation exponent together with its loss-free composition identity,
the two ell^t cases, and membership in the bilinear Hilbert transform region
with explicit theta witnesses.  Each function checks the weights or standing
inequalities it uses, by name, before computing.  Each exponent is one
float, the larger of its r-side and s-side terms.  They build on the
helpers re-exported from ``spaces``: ``recip``, ``harmonic_exponent``,
``gap_exponent`` (1/e = 1/a - 1/b, with gap_exponent(a, inf) = a exactly) and
the Holder ``conjugate``.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import FINITE, at_least, check, interval, need, nonempty, one_per
from .dyadic import Grid, level_products, shifted_grids
from .spaces import conjugate, gap_exponent, harmonic_exponent, recip

__all__ = [
    "recip",
    "harmonic_exponent",
    "gap_exponent",
    "conjugate",
    "encode_inf",
    "power_weight",
    "muckenhoupt_constant",
    "stable_muckenhoupt_constant",
    "maximal_weighted_exponent",
    "transfer_exponent",
    "extrapolation_exponent",
    "composed_transfer_exponent",
    "ellt_exponent",
    "bht_region",
    "power_envelope",
]


def power_weight(grid: Grid, a: float) -> np.ndarray:
    """Exact cell averages of x_1 -> x_1^a on the finest cells of ``grid``.

    The average over a cell [lo, hi) is (hi^(a+1) - lo^(a+1))/((a+1)(hi-lo)),
    so the discretized weight integrates exactly like the continuous one.
    Requires a > -1 (integrable at the origin); in d = 2 the weight depends
    on the first coordinate only.
    """
    a = check("a", float(a), interval(-1, math.inf))
    n = 1 << grid.depth
    if a == 0:
        col = np.ones(n)
    else:
        edges = np.arange(n + 1) / n
        col = (edges[1:] ** (a + 1) - edges[:-1] ** (a + 1)) * n / (a + 1)
    if grid.d == 1:
        return col
    return np.repeat(col[:, None], n, axis=1)


def muckenhoupt_constant(ws, ps, rs, s, grids) -> float:
    """[w]_{p,(r,s)}: max over every cube of ``grids`` of
    prod_j <w_j^-1>_{e_j,Q} * <w>_{e,Q}, exact.

    ``ws`` is a nonempty sequence of arrays w_1, ..., w_m of one cell shape,
    finite and strictly positive; w = prod_j w_j is their cellwise product.
    The exponents are e_j = gap_exponent(r_j, p_j) and e = gap_exponent(p, s).
    A vanishing gap turns the corresponding average into an essential
    supremum (the inf-average branch), which is the definition's limit case.
    ``grids`` is one Grid or a nonempty sequence of Grids over the weights'
    cells (pass all 3^d shifted grids to include the shifted lattices in the
    supremum).  The value is the largest entry of each lattice's level
    arrays; averages over shifted cubes are taken over their part inside the
    unit cube, so it is exact for the piecewise constant weight.
    """
    parts = [np.asarray(w, dtype=float) for w in ws]
    nonempty("weight component", parts)
    for w in parts:
        if w.shape != parts[0].shape:
            raise ValueError("weight components must share one cell shape")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be finite and strictly positive")
    product = np.prod(np.stack(parts), axis=0)
    one_per("p_j", "weight component", ps, parts)
    one_per("r_j", "weight component", rs, parts)
    for j, (p, r) in enumerate(zip(ps, rs), 1):
        need(f"r_{j}", r, "<=", f"p_{j}", p)
    p = harmonic_exponent(ps)
    need("p", p, "<=", "s", s)
    if isinstance(grids, Grid):
        grids = [grids]
    nonempty("grid", grids)
    for g in grids:
        if g.cell_shape != product.shape:
            raise ValueError(f"{g} does not lie over the weights' cells {product.shape}")
    fs = [product, *(1.0 / w for w in parts)]
    es = [gap_exponent(p, s), *(gap_exponent(r, pj) for r, pj in zip(rs, ps))]
    return max(float(lv.max()) for g in grids for lv in level_products(g, fs, es).values())


def stable_muckenhoupt_constant(
    make_weights, ps, rs, s, d: int, depth: int, all_shifts: bool = True,
    rtol: float = 0.05,
) -> float:
    """[w] evaluated at depth-1 and depth; reported once the two agree.

    ``make_weights`` maps a shift-0 grid to the weight components resampled
    on its cells.  Disagreement beyond ``rtol`` (relative) means the
    supremum is still moving with resolution, and no constant is reported.
    """
    at_least("depth", depth, 1)
    vals = []
    for level in (depth - 1, depth):
        base = Grid(d, level)
        grids = shifted_grids(d, level) if all_shifts else [base]
        vals.append(muckenhoupt_constant(make_weights(base), ps, rs, s, grids))
    if max(vals) - min(vals) > rtol * max(vals):
        raise RuntimeError(
            f"Muckenhoupt constant not stabilized: {vals[0]:.6g} at depth "
            f"{depth - 1} vs {vals[1]:.6g} at depth {depth}"
        )
    return vals[1]


def _r_side(ps, rs, ts) -> float:
    """max_j (1/r_j - 1/t_j)/(1/r_j - 1/p_j); needs r_j in (0, inf), r_j < p_j, r_j <= t_j."""
    one_per("p_j", "r_j", ps, rs)
    one_per("t_j", "r_j", ts, rs)
    terms = []
    for j, (p, t, r) in enumerate(zip(ps, ts, rs), 1):
        rr = recip(check(f"r_{j}", r, FINITE))
        need(f"r_{j}", r, "<", f"p_{j}", p)
        need(f"r_{j}", r, "<=", f"t_{j}", t)
        terms.append((rr - recip(t)) / (rr - recip(p)))
    return max(terms)


def _s_side(a, p, s) -> float:
    """(1/a - 1/s)/(1/p - 1/s); needs p < s."""
    need("p", p, "<", "s", s)
    rs_ = recip(s)
    return (recip(a) - rs_) / (recip(p) - rs_)


def maximal_weighted_exponent(ps, rs) -> float:
    """Exponent of [w] in the weighted bound for the r-averaged maximal
    operator: gamma = max_j (1/r_j)/(1/r_j - 1/p_j), the r-side term with
    every t_j = inf.  Requires r_j < p_j."""
    return _r_side(ps, rs, (math.inf,) * len(rs))


def encode_inf(x):
    """JSON-safe value: float infinity as the string 'inf', others unchanged."""
    return "inf" if isinstance(x, float) and math.isinf(x) else x


def transfer_exponent(ps, q, rs, s) -> float:
    """Exponent of [w] when a sparse form bound transfers to weighted norms.

    gamma = max{max_j (1/r_j)/(1/r_j - 1/p_j), (1/q - 1/s)/(1/p - 1/s)};
    requires r_j < p_j componentwise and q <= p < s.
    """
    r_side = maximal_weighted_exponent(ps, rs)
    p = harmonic_exponent(ps)
    need("q", q, "<=", "p", p)
    return max(r_side, _s_side(q, p, s))


def extrapolation_exponent(ps, ts, rs, s) -> float:
    """Exponent of [w] when moving weighted bounds from p to t.

    gamma = max{max_j (1/r_j - 1/t_j)/(1/r_j - 1/p_j), (1/t - 1/s)/(1/p - 1/s)};
    requires r_j < p_j, r_j <= t_j, p < s, t <= s.  t = p gives 1.
    """
    r_side = _r_side(ps, rs, ts)
    p, t = harmonic_exponent(ps), harmonic_exponent(ts)
    s_side = _s_side(t, p, s)
    need("t", t, "<=", "s", s)
    return max(r_side, s_side)


def composed_transfer_exponent(ps, q, rs, s) -> float:
    """The transfer exponent rebuilt through the extrapolation route.

    With tau = (1/q)/(1/r - 1/s + 1/q) and t_j = r_j/tau, the extrapolation
    exponent comes out as (1 - tau) times the transfer exponent; dividing
    the factor back out must reproduce transfer_exponent, an identity this
    function realizes numerically.  Requires r_j in (0, inf) with
    r_j < p_j componentwise, s > r, q < s, p < s and q <= p.
    """
    rs, ps = tuple(float(r) for r in rs), tuple(float(p) for p in ps)
    s, q = float(s), float(q)
    maximal_weighted_exponent(ps, rs)  # r_j in (0, inf) and r_j < p_j
    r = harmonic_exponent(rs)
    need("s", s, ">", "r", r)
    need("q", q, "<", "s", s)
    p = harmonic_exponent(ps)
    need("p", p, "<", "s", s)
    need("q", q, "<=", "p", p)
    # tau in (0, 1): 1/r - 1/s > 0 by s > r
    rq = recip(q)
    tau = rq / (recip(r) - recip(s) + rq)
    ts = tuple(r_j / tau for r_j in rs)
    return extrapolation_exponent(ps, ts, rs, s) / (1.0 - tau)


def ellt_exponent(ps, rs, q0, ts) -> float:
    """Exponent of [w] for sequence-valued extensions into ell^t spaces.

    gamma = max{max_j (1/r_j)/(1/r_j - 1/p_j), p/q0} for t >= q0 and with
    p/q0 replaced by p/t for t in (r, q0]; the cases agree at t = q0.
    Requires r_j < p_j and finite p, t with t > r.
    """
    q0 = check("q0", float(q0), FINITE)
    r_side = maximal_weighted_exponent(ps, rs)
    p = check("p", harmonic_exponent(ps), FINITE)
    t = check("t", harmonic_exponent(ts), FINITE)
    r = harmonic_exponent(rs)
    need("t", t, ">", "r", r)
    return max(r_side, p / q0 if t >= q0 else p / t)


def bht_region(r1, r2, s):
    """Membership of (r1, r2, s) in the bilinear Hilbert transform region.

    Closed form: max{1/r1, 1/2} + max{1/r2, 1/2} + max{1/s', 1/2} < 2 with
    s' the conjugate of s.  Members come with an explicit witness
    theta = (theta_1, theta_2, theta_3) in [0,1)^3 summing to 1 and
    satisfying 1/r1 < (1+theta_1)/2, 1/r2 < (1+theta_2)/2,
    1/s > (1-theta_3)/2; non-members come with the offending sum.
    """
    above_one = interval(1, math.inf)
    r1, r2, s = (check(name, float(x), above_one) for name, x in (("r1", r1), ("r2", r2), ("s", s)))
    rhos = (r1, r2, conjugate(s))
    total = sum(max(1.0 / rho, 0.5) for rho in rhos)
    if total >= 2.0:
        return False, {"sum": total, "bound": 2.0}
    # strict lower bounds: theta_i > 2/rho_i - 1 whenever that is positive;
    # spreading the slack keeps every constraint strict and the sum at 1
    lows = [max(0.0, 2.0 / rho - 1.0) for rho in rhos]
    slack = 1.0 - sum(lows)
    theta = tuple(low + slack / 3.0 for low in lows)
    return True, theta


def power_envelope(xs, ys, gamma: float) -> tuple[float, float]:
    """Upper envelope fit of y <= C * x^gamma plus the free log-log slope.

    C is the smallest constant making the envelope hold on the data; the
    slope comes from a least-squares line through (log x, log y) and is 0
    when the data cannot support one (a single point, or no spread in x).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("need matching nonempty 1-d arrays")
    if np.any(xs <= 0) or np.any(ys < 0):
        raise ValueError("envelope fit needs x > 0 and y >= 0")
    envelope = float(np.max(ys / xs**gamma))
    lx = np.log(xs)
    if xs.size < 2 or float(lx.max() - lx.min()) < 1e-12 or np.any(ys <= 0):
        slope = 0.0
    else:
        slope = float(np.polyfit(lx, np.log(ys), 1)[0])
    return envelope, slope
