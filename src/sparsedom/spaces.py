"""Finite-dimensional quasi-Banach function spaces over atomic measures.

Four kinds: weighted Lebesgue, Lorentz via the decreasing rearrangement,
Orlicz with a tabulated Young function and the Luxemburg norm, and one level
of iteration (outer space of inner norms).  A space is what its parameters
say: its convexity is derived from them, never declared, and ``concavify``
maps each kind to a space of the same kind (an Orlicz table (x, Phi) to
(x^p, Phi)).  All norms are vectorized over leading axes, so a (cells x
atoms) array is normed per cell in one call.
Orlicz and Lorentz norms give a row the same bits whatever rows share its
call; the Lebesgue norm's BLAS matmul sums in an order set by the batch.

The Kothe dual has one home, ``associate_space``: l^t(mu) gives l^(t')(mu),
an iterated space dualizes layer by layer, and ``_norming`` gives the unit
element that attains the pairing for Lebesgue layers.  The associate
norm is exact there and for an Orlicz Phi that is convex (log-slopes above
one, non-decreasing): the Orlicz norm of the complementary function, which
meets the Amemiya upper bound inf_k (1 + sum Psi(k xi) mu) / k.  Every
Orlicz level set, the Luxemburg norm's lam, the associate norm's k and the
product norm's inverse-Young split, comes from one solver (``_solve_level``):
safeguarded Newton steps in log x, finished by single-ulp steps to the
smallest double where the excess (of the modular over one, or of log |xi|
over the split's log) is <= 0, the double a geometric bisection reaches on
the same predicate; the bisection is a test oracle, and the tests require
the same bits.  Every other kind's associate norm is refused.  Lebesgue and
iterated Lebesgue tuples have a closed-form ``product_space``; every other
product norm is a seeded coordinate search, its restarts in lockstep, that
returns an upper bound, cross-checked against a dense-grid oracle in the tests.

The package's exponent arithmetic lives here too (1/inf = 0): ``recip``
(re-exported from the range checks, which compare exponents through it),
``harmonic_exponent``, ``gap_exponent`` (1/e = 1/a - 1/b, and exactly a when
b = inf) and the Holder ``conjugate`` t/(t - 1), with 1' = inf and inf' = 1.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable, Sequence

import numpy as np

from ._checks import EXPONENT, FINITE, at_least, check, csv_rows, entries, interval, need, nonempty, recip

__all__ = [
    "AtomicMeasure",
    "Space",
    "LebesgueSpace",
    "LorentzSpace",
    "OrliczSpace",
    "IteratedSpace",
    "concavify",
    "associate_space",
    "associate_norm",
    "product_norm",
    "product_space",
    "space_to_json",
    "space_from_json",
    "phi_table_to_csv",
    "phi_table_from_csv",
    "recip",
    "harmonic_exponent",
    "gap_exponent",
    "conjugate",
]


# [1, inf]: the exponents of normed Lebesgue spaces, and of Holder pairs
_NORMED = interval(1, math.inf, lo_closed=True, hi_closed=True)


def harmonic_exponent(ps: Iterable[float]) -> float:
    """The aggregate p with 1/p = sum_j 1/p_j (inf when every p_j is inf)."""
    total = sum(recip(p) for p in ps)
    return math.inf if total == 0.0 else 1.0 / total


def gap_exponent(a, b) -> float:
    """The e with 1/e = 1/a - 1/b: inf at gap 0, a itself at b = inf; a > b raises."""
    ra, rb = need("a", a, "<=", "b", b)
    gap = ra - rb
    if math.isinf(b):
        return float(a)
    return math.inf if gap == 0.0 else 1.0 / gap


def conjugate(t) -> float:
    """The Holder conjugate t' = t/(t - 1) of t >= 1, with 1' = inf and inf' = 1."""
    t = check("t", float(t), _NORMED)
    if math.isinf(t):
        return 1.0
    return math.inf if t == 1.0 else t / (t - 1.0)


class AtomicMeasure:
    """Finitely many atoms with strictly positive weights."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("measure needs a 1-d, nonempty weight vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("atom weights must be finite and strictly positive")
        self.weights = w
        self.n = w.size

    @classmethod
    def unit(cls, n: int) -> "AtomicMeasure":
        return cls(np.ones(n))

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomicMeasure) and np.array_equal(
            self.weights, other.weights
        )

    def __repr__(self) -> str:
        return f"AtomicMeasure({self.weights.tolist()})"


_TINY = np.finfo(float).tiny  # the smallest normal double


def _as_scalar(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


class Space:
    """Base class: a quasi-normed function lattice over finitely many atoms."""

    kind = "abstract"

    def __init__(self, measure: AtomicMeasure, convexity: float):
        self.measure = measure
        self.convexity = float(convexity)

    @property
    def atom_shape(self) -> tuple[int, ...]:
        return (self.measure.n,)

    @property
    def mu(self) -> np.ndarray:
        """Weights in atom_shape layout (product weights when iterated)."""
        return self.measure.weights

    def _atoms(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        k = len(self.atom_shape)
        if xi.shape[xi.ndim - k:] != self.atom_shape:
            raise ValueError(
                f"vector shape {xi.shape} does not end with atoms {self.atom_shape}"
            )
        return np.abs(xi)

    def norm(self, xi):
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError


class LebesgueSpace(Space):
    """Weighted l^t; t = inf is the plain sup norm."""

    kind = "lebesgue"

    def __init__(self, t: float, measure: AtomicMeasure):
        check("t", t, EXPONENT)
        # l^t is p-convex with constant one exactly for p <= t
        super().__init__(measure, t)
        self.t = float(t)

    def norm(self, xi):
        xi = np.asarray(xi, dtype=float)
        a = self._atoms(xi)
        if math.isinf(self.t):
            return _as_scalar(a.max(axis=-1))
        w = self.measure.weights
        # a is a fresh |xi|, so it takes the power in place: one temporary
        # of the input's size, not two, and the same bits, as in-place and
        # plain ** share np.power's scalar-exponent loop.  np.power on the
        # sums: a NumPy scalar's ** rounds unlike the array loop.  The
        # matmul still sums a row in an order set by the batch size.  A
        # power that overflows is renormed below, so it need not warn, and
        # a norm past the largest double (for t < 1) is inf.  An empty
        # batch reads as in range through the initial values.
        with np.errstate(over="ignore"):
            a **= self.t
            total = a @ w
            out = np.power(total, 1.0 / self.t)
        # the range tests read xi, not its power, which can underflow to 0
        # on a nonzero row
        lo, hi = np.min(total, initial=math.inf), np.max(total, initial=0.0)
        if hi < math.inf and (_TINY <= lo or not xi[total < _TINY].any()):
            return _as_scalar(out)  # every sum in range, or from a zero row
        # a power sum that overflows or leaves the normal range loses its
        # row; norm such nonzero rows again scaled by their largest entry
        a = np.abs(xi)
        top = a.max(axis=-1)
        odd = ~((total >= _TINY) & (total < math.inf)) & (top > 0) & (top < math.inf)
        if np.any(odd):
            out, scale = np.array(out), top[odd]
            with np.errstate(over="ignore"):  # a norm past the largest double is inf
                out[odd] = scale * np.power((a[odd] / scale[:, None]) ** self.t @ w, 1.0 / self.t)
        return _as_scalar(out)

    def params(self) -> dict:
        return {"t": self.t}

    def __repr__(self) -> str:
        return f"LebesgueSpace(t={self.t}, n={self.measure.n})"


class LorentzSpace(Space):
    """Lorentz quasi-norm via the decreasing rearrangement with atom weights.

    ||xi|| = ( sum_j xi_(j)^u * (t/u) * (S_j^(u/t) - S_(j-1)^(u/t)) )^(1/u)
    with S_j the cumulative weight of the j largest values; u = inf gives
    max_j xi_(j) S_j^(1/t).  LorentzSpace(t, t) coincides with l^t.

    For u <= t the functional is min(t, u)-convex with constant one; for
    u > t it is only a quasi-norm, so its convexity is t/u < 1 (0 at
    u = inf), a flag.  associate_norm refuses every Lorentz space, as no
    closed-form dual is implemented (L^(t,1)'s is a Marcinkiewicz space).
    """

    kind = "lorentz"

    def __init__(self, t: float, u: float, measure: AtomicMeasure):
        check("t", t, FINITE)
        check("u", u, EXPONENT)
        super().__init__(measure, min(t, u) if u <= t else (0.0 if math.isinf(u) else t / u))
        self.t = float(t)
        self.u = float(u)

    def norm(self, xi):
        a = self._atoms(xi)
        order = np.argsort(-a, axis=-1, kind="stable")
        vals = np.take_along_axis(a, order, axis=-1)
        w = np.broadcast_to(self.measure.weights, a.shape)
        w = np.take_along_axis(w, order, axis=-1)
        cum = np.cumsum(w, axis=-1)
        if math.isinf(self.u):
            return _as_scalar((vals * cum ** (1.0 / self.t)).max(axis=-1))
        prev = cum - w
        ex = self.u / self.t
        blocks = (self.t / self.u) * (cum**ex - prev**ex)
        return _as_scalar(np.power((vals**self.u * blocks).sum(axis=-1), 1.0 / self.u))

    def params(self) -> dict:
        return {"t": self.t, "u": self.u}

    def __repr__(self) -> str:
        return f"LorentzSpace(t={self.t}, u={self.u}, n={self.measure.n})"


_BRACKET_CAP = 100
_NEWTON_CAP = 16  # safeguarded Newton steps per row; a row still open after them bisects


def _modular_step(terms: np.ndarray, slopes: np.ndarray):
    """Row sums M of ``terms`` and the Newton step -log M / (d log M / d log x)
    toward M = 1, where ``slopes`` holds d log term / d log x per term."""
    modular = np.sum(terms, axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return modular, -np.log(modular) * modular / np.sum(terms * slopes, axis=-1)


def _solve_level(level, start: np.ndarray, what: str) -> np.ndarray:
    """Per row, the smallest double x with excess(x) <= 0.

    ``level(x, rows)`` evaluates the given rows at the points x and returns
    (excess, step): excess is decreasing in x and > 0 below the root, and
    step is the Newton increment toward the root in log x.  The root is
    bracketed by doubling or halving from ``start`` (at most _BRACKET_CAP
    times, else a ValueError naming ``what``).  Then each row takes
    safeguarded Newton steps in log x: a step landing in the closed bracket
    [lo, hi] is kept, any other is replaced by the geometric midpoint, and
    the point is clipped strictly inside, so each evaluation shrinks the
    bracket by at least one double and, near the root, walks single ulps on
    excess itself.  After _NEWTON_CAP steps a row only bisects.  A row stops
    when lo and hi are adjacent doubles with excess(lo) > 0 >= excess(hi)
    and returns hi, the double a bisection in log x reaches when excess is
    monotone.  Rows are evaluated only while open, so a row's path never
    depends on the rows that share its call.
    """
    x = start.copy()
    lo, hi = np.zeros_like(x), np.full_like(x, np.inf)
    rows = np.arange(x.size)
    excess, step = level(x, rows)
    up = excess > 0  # the root lies above start: double, else halve
    for doublings in range(_BRACKET_CAP + 1):
        above = excess > 0
        lo[rows[above]] = x[rows[above]]
        hi[rows[~above]] = x[rows[~above]]
        rows = rows[above == up[rows]]
        if not rows.size:
            break
        if doublings == _BRACKET_CAP:
            raise ValueError(
                f"{what} not bracketed within {_BRACKET_CAP} doublings; "
                "Phi grows too slowly for this vector"
            )
        x[rows] = np.where(up[rows], x[rows] * 2.0, x[rows] * 0.5)
        excess, step[rows] = level(x[rows], rows)
    rows = np.flatnonzero(np.nextafter(lo, np.inf) < hi)
    steps = 0
    while rows.size:
        a, b = lo[rows], hi[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            t = x[rows] * np.exp(step[rows])
        kept = (t >= a) & (t <= b) & (steps < _NEWTON_CAP)
        t = np.clip(np.where(kept, t, np.sqrt(a) * np.sqrt(b)), np.nextafter(a, np.inf), np.nextafter(b, 0.0))
        excess, step[rows] = level(t, rows)
        x[rows] = t
        above = excess > 0
        lo[rows[above]] = t[above]
        hi[rows[~above]] = t[~above]
        rows = rows[np.nextafter(lo[rows], np.inf) < hi[rows]]
        steps += 1
    return hi


class OrliczSpace(Space):
    """Luxemburg norm for a tabulated monotone Young function.

    The table is interpolated log-linearly (piecewise power law) and extended
    beyond its range with the boundary slopes, so pure powers are represented
    exactly.  The norm inf { lam > 0 : sum Phi(|xi_i|/lam) mu_i <= 1 } is
    the smallest double lam where the modular is at most one, found by
    ``_solve_level``: Newton steps in log lam (the log-modular has slope
    minus the Phi mu-weighted mean log-slope of Phi), then single ulps.
    """

    kind = "orlicz"

    def __init__(self, table, measure: AtomicMeasure):
        tab = np.asarray(table, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
            raise ValueError("Phi table must be a (k >= 2) x 2 array")
        if not np.all(np.isfinite(tab)) or np.any(tab <= 0):
            raise ValueError("Phi table entries must be finite and strictly positive")
        if np.any(np.diff(tab[:, 0]) <= 0) or np.any(np.diff(tab[:, 1]) <= 0):
            raise ValueError("Phi table must be strictly increasing in both columns")
        self.table = tab
        self._lx = np.log(tab[:, 0])
        self._ly = np.log(tab[:, 1])
        self._slopes = np.diff(self._ly) / np.diff(self._lx)
        # the log-slope on each of the k + 1 pieces, the end slopes outside
        self._pieces = np.concatenate([self._slopes[:1], self._slopes, self._slopes[-1:]])
        # the Luxemburg functional of a locally-power Phi is 1-convex
        # only when every segment exponent is at least one
        super().__init__(measure, float(min(1.0, self._slopes.min())))

    @classmethod
    def from_power(cls, exponent: float, measure: AtomicMeasure, scale: float = 1.0) -> "OrliczSpace":
        """Exact table for Phi(t) = scale * t^exponent."""
        ts = np.logspace(-6, 6, 25)
        return cls(np.column_stack([ts, scale * ts**exponent]), measure)

    @staticmethod
    def _power_law(x, knots_x, knots_y, slope_lo, slope_hi):
        """0 for x <= 0, else exp of the log-log interpolant (end slopes beyond the knots)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        logs_in = np.log(x[pos])
        logs = np.interp(logs_in, knots_x, knots_y)
        lo = logs_in < knots_x[0]
        hi = logs_in > knots_x[-1]
        logs = np.where(lo, knots_y[0] + slope_lo * (logs_in - knots_x[0]), logs)
        logs = np.where(hi, knots_y[-1] + slope_hi * (logs_in - knots_x[-1]), logs)
        out[pos] = np.exp(logs)
        return out

    @staticmethod
    def _log_slope(x, knots_x, pieces):
        """d log f / d log x of a power law at x > 0 (one-sided at a knot):
        pieces[i] on the i-th piece that the knots (in log x) cut out."""
        with np.errstate(divide="ignore"):
            return pieces[np.searchsorted(knots_x, np.log(x), side="right")]

    def phi(self, x):
        return self._power_law(x, self._lx, self._ly, self._slopes[0], self._slopes[-1])

    def phi_inv(self, y):
        return self._power_law(y, self._ly, self._lx, 1 / self._slopes[0], 1 / self._slopes[-1])

    def has_convex_phi(self) -> bool:
        """Whether Phi' increases: every log-slope a_k > 1 and none decreasing.

        The slopes of a tabulated power or convex piecewise power law wobble
        by a few ulps, so a drop of up to 1e-12 relative counts as level.
        """
        a = self._slopes
        return bool(a.min() > 1.0 and np.all(np.diff(a) >= -1e-12 * a[1:]))

    def psi(self, s):
        """(Phi')^{-1}, the derivative of the complementary Young function.

        Defined for a convex Phi (``has_convex_phi``).  log Phi' is linear in
        log x with slope a_k - 1 on segment k and jumps at knot k from
        L_k = log a_(k-1) + ly_k - lx_k up to R_k = log a_k + ly_k - lx_k, so
        log psi is flat at lx_k on [L_k, R_k] and linear in between; beyond
        the table it has the slopes 1/(a_0 - 1) and 1/(a_last - 1).
        """
        return self._power_law(s, *self._psi_law())

    def _psi_law(self):
        """psi as a power law: knots in log s, log psi there, the end slopes."""
        a = self._pieces
        base = self._ly - self._lx
        # the rounding tolerance of has_convex_phi may put L_k above R_k
        knots = np.maximum.accumulate(np.column_stack([np.log(a[:-1]) + base, np.log(a[1:]) + base]).ravel())
        return knots, np.repeat(self._lx, 2), 1 / (a[0] - 1), 1 / (a[-1] - 1)

    def norm(self, xi):
        a = self._atoms(xi)
        lead = a.shape[:-1]
        rows = a.reshape(-1, a.shape[-1])
        w = self.measure.weights
        top = rows.max(axis=1)
        out = np.where(np.isfinite(top), 0.0, top)  # nan and inf rows as in l^t
        active = (top > 0) & (top < math.inf)
        if active.any():
            # norm each row times the reciprocal of a power of two near its
            # sup (ldexp, so a sup from 2^1023 up does not overflow the scale):
            # exact for normal entries, so a row keeps its bits, and the
            # solver works near one however large or small the row is
            scale = np.frexp(top[active])[1]
            sub = np.ldexp(rows[active], -scale[:, None])

            def level(lam, which):
                # sum Phi(a / lam) mu - 1 for the rows ``which``; a row sum,
                # not a matmul, so that a row's bits do not depend on its batch
                ratio = sub[which] / lam[:, None]
                modular, step = _modular_step(self.phi(ratio) * w, -self._log_slope(ratio, self._lx, self._pieces))
                return modular - 1.0, step

            lam = _solve_level(level, sub.max(axis=1), "Luxemburg norm")  # bracketed outward from the sup
            with np.errstate(over="ignore"):  # a norm past the largest double is inf
                out[active] = np.ldexp(lam, scale)
        return _as_scalar(out.reshape(lead))

    def params(self) -> dict:
        return {"table": self.table.tolist()}

    def __repr__(self) -> str:
        return f"OrliczSpace({len(self.table)} knots, n={self.measure.n})"


class IteratedSpace(Space):
    """Outer space of inner norms; atoms are (outer, inner) pairs."""

    kind = "iterated"

    def __init__(self, outer: Space, inner: Space):
        if isinstance(outer, IteratedSpace) or isinstance(inner, IteratedSpace):
            raise ValueError("iterated spaces nest exactly one level")
        super().__init__(outer.measure, min(outer.convexity, inner.convexity))
        self.outer = outer
        self.inner = inner

    @property
    def atom_shape(self) -> tuple[int, ...]:
        return (self.outer.measure.n, self.inner.measure.n)

    @property
    def mu(self) -> np.ndarray:
        return np.multiply.outer(self.outer.measure.weights, self.inner.measure.weights)

    def norm(self, xi):
        a = self._atoms(xi)
        return self.outer.norm(self.inner.norm(a))

    def params(self) -> dict:
        return {"outer": _space_payload(self.outer), "inner": _space_payload(self.inner)}

    def __repr__(self) -> str:
        return f"IteratedSpace({self.outer!r}, {self.inner!r})"


def concavify(space: Space, p: float) -> Space:
    """The p-concavification X^p, ||xi||_(X^p) = || |xi|^(1/p) ||_X^p for p
    in (0, inf), as a space of the same kind: l^t gives l^(t/p), L^(t,u)
    gives L^(t/p,u/p), an iterated space concavifies per layer, and the
    Orlicz table (x, Phi) gives (x^p, Phi): its Young function Phi(s^(1/p))
    at s = |xi| / lam^p is Phi(|xi|^(1/p) / lam).  A knot that x^p pushes
    past the double range is refused with the table."""
    check("p", p, FINITE)
    if p == 1:
        return space
    if isinstance(space, IteratedSpace):
        return IteratedSpace(concavify(space.outer, p), concavify(space.inner, p))
    if isinstance(space, LebesgueSpace):
        return LebesgueSpace(space.t / p, space.measure)
    if isinstance(space, LorentzSpace):
        return LorentzSpace(space.t / p, space.u / p, space.measure)
    if isinstance(space, OrliczSpace):
        with np.errstate(over="ignore", under="ignore"):
            return OrliczSpace(np.column_stack([space.table[:, 0] ** p, space.table[:, 1]]), space.measure)
    raise ValueError(f"no concavification for a {space.kind} space")


# ---------------------------------------------------------------------------
# associate (Kothe dual) space and norm
# ---------------------------------------------------------------------------

def _layers(space: Space) -> list[Space]:
    return [space.outer, space.inner] if isinstance(space, IteratedSpace) else [space]


def associate_space(space: Space) -> Space | None:
    """The Kothe dual X' as a Space, or None where no closed form is known.

    l^t(mu), t in [1, inf], gives l^(t')(mu), t' = conjugate(t); X(Y) gives
    X'(Y') when both layers have one (Benedek & Panzone, 1961)."""
    if isinstance(space, LebesgueSpace):
        return LebesgueSpace(conjugate(space.t), space.measure)
    if isinstance(space, IteratedSpace):
        outer, inner = associate_space(space.outer), associate_space(space.inner)
        return None if outer is None or inner is None else IteratedSpace(outer, inner)
    return None


def _norming(space: Space, v: np.ndarray) -> np.ndarray:
    """Per row of v >= 0, the eta >= 0 with ||eta||_(X') <= 1 and sum v eta mu
    = ||v||_X, for Lebesgue layers: each l^t maps its blocks, innermost
    first, to (v / ||v||_t)^(t - 1), zero on a zero block unless t = 1; l^inf
    maps a block to 1/mu at its first largest entry and zero elsewhere, zero
    on a zero block."""
    cur, eta = v, 1.0
    for depth, sp in enumerate(reversed(_layers(space))):
        t, axis = sp.t, -1 - depth
        w = sp.measure.weights.reshape((-1,) + (1,) * depth)
        if math.isinf(t):
            nrm = np.max(cur, axis=axis, keepdims=True)
            first = np.arange(len(w)).reshape(w.shape) == np.argmax(cur, axis=axis, keepdims=True)
            eta = np.where(first & (nrm > 0), 1.0 / w, 0.0) * eta
        else:
            nrm = np.sum(cur**t * w, axis=axis, keepdims=True) ** (1.0 / t)
            eta = np.divide(cur, nrm, out=np.zeros_like(cur), where=nrm > 0) ** (t - 1.0) * eta
        cur = nrm
    return eta


def associate_norm(space: Space, xi, restarts: int = 64, return_argmax: bool = False):
    """sup { sum |xi eta| mu : ||eta||_X <= 1 }, the Kothe dual norm.

    Requires a 1-convex space, so that the associate functional is a norm;
    ``convexity`` follows from the space's parameters, so l^t with t < 1 and
    any iterated space with such a layer are refused here.  Exact on two
    paths; every other kind (Lorentz, non-convex Orlicz, mixed iterated)
    raises a ValueError:

    - Lebesgue and iterated Lebesgue (``associate_space``): the dual norm of
      xi.  The argmax is ``_norming`` of the dual at xi.
    - Orlicz with a convex Phi (``OrliczSpace.has_convex_phi``): the Orlicz
      norm of the complementary function Psi, which is the Amemiya norm
      inf_k (1 + sum Psi(k xi) mu) / k.  ``_solve_level`` finds the root of
      sum Phi(psi(k xi)) mu = 1 in log k, psi = (Phi')^{-1}, with Newton
      slopes from the segment log-slopes of Phi and psi; the value is the
      pairing sum xi eta mu / ||eta|| at eta = psi(k xi), a lower bound for
      any table.  On a convex table it is exact: by Young's equality it
      meets the Amemiya upper bound at that k.  Where Phi' is flat, psi
      jumps between adjacent doubles of k, and eta is the point of the jump
      where the modular is one.  The argmax is eta / ||eta||.

    At xi = 0 both give 0, with the argmax ones / ||ones||_X.  No path reads
    ``restarts``; it is checked and kept until ``product_norm``'s goes.
    """
    at_least("restarts", restarts, 1)
    if space.convexity < 1.0 - 1e-12:
        raise ValueError(
            "associate norm requires a 1-convex space; "
            f"its convexity is {space.convexity}"
        )
    xi = np.abs(np.asarray(xi, dtype=float))
    if xi.shape != space.atom_shape:
        raise ValueError(f"expected a single vector of shape {space.atom_shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("associate norm needs a finite vector")

    dual = associate_space(space)
    if dual is None and not (isinstance(space, OrliczSpace) and space.has_convex_phi()):
        raise ValueError(f"no closed-form associate norm for this {space.kind} space")
    if not xi.any():
        ones = np.ones(space.atom_shape)
        return (0.0, ones / space.norm(ones)) if return_argmax else 0.0
    if dual is None:
        return _associate_orlicz(space, xi, return_argmax)
    return (dual.norm(xi), _norming(dual, xi)) if return_argmax else dual.norm(xi)


def _associate_orlicz(space: OrliczSpace, xi: np.ndarray, return_argmax: bool):
    """The closed-form associate norm of a convex Orlicz space at xi >= 0, xi != 0."""
    w = space.measure.weights
    # psi(k xi) = psi(c r) with r = xi over a power of two near its sup
    r = np.ldexp(xi, -np.frexp(xi.max())[1])
    # start at c = Phi(x)/x <= Phi'(x) for the x with Phi(x) sum(mu) = 1:
    # there psi(c r) <= x, so the modular is at most one
    y = np.array([1.0 / w.sum()])
    start = y / space.phi_inv(y)

    knots, logs, slope_lo, slope_hi = law = space._psi_law()
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_pieces = np.concatenate([[slope_lo], np.diff(logs) / np.diff(knots), [slope_hi]])

    def level(c, _which):
        # one row; on steep segments psi(c r) overflows to inf while the bracket is
        # doubled; that reads as a modular above one, which it is
        s = c[:, None] * r
        with np.errstate(over="ignore"):
            eta = space._power_law(s, *law)
            terms = space.phi(eta) * w
        # d log Phi(psi(s)) / d log s: the log-slopes of Phi and psi multiply
        slopes = space._log_slope(eta, space._lx, space._pieces) * space._log_slope(s, knots, psi_pieces)
        modular, step = _modular_step(terms, slopes)
        return 1.0 - modular, step

    c = _solve_level(level, start, "associate norm")[0]
    eta = space.psi(c * r)
    modular = float(np.sum(space.phi(eta) * w))
    if modular > 1.0 + 1e-12:
        # more than rounding above one: psi jumps over a flat piece of Phi' between c and
        # the double below; Phi is linear there and Young's equality holds, so a secant finds one
        below = space.psi(np.nextafter(c, 0.0) * r)
        low = float(np.sum(space.phi(below) * w))
        eta = below + (1.0 - low) / (modular - low) * (eta - below)
    nrm = space.norm(eta)
    value = float(np.sum(xi * eta * w) / nrm)
    return (value, eta / nrm) if return_argmax else value


# ---------------------------------------------------------------------------
# product spaces
# ---------------------------------------------------------------------------

def _nominal_exponent(space: Space) -> float:
    if isinstance(space, (LebesgueSpace, LorentzSpace)):
        return space.t
    if isinstance(space, OrliczSpace):
        return float((space._ly[-1] - space._ly[0]) / (space._lx[-1] - space._lx[0]))
    return 1.0


def product_norm(spaces: Sequence[Space], xi, seed: int = 0, restarts: int = 8):
    """inf { prod ||xi_j||_(X_j) : |xi| = prod xi_j }, the product-space norm.

    Exact wherever ``product_space`` has a closed form (one factor, Lebesgue
    and iterated Lebesgue tuples); otherwise alternating coordinate descent
    over factorizations, seeded by power splits and, for Orlicz tuples, by
    the inverse-Young factorization.

    The restarts run in lockstep: each coordinate step norms the candidates
    of every restart still improving in one call per factor, and a restart
    drops out after a sweep that improves nothing (or after 30 sweeps).  The result equals running the restarts one after
    another, bit for bit, when every factor's norm is batch-independent
    (Orlicz, Lorentz); a Lebesgue factor may move it by an ulp.
    """
    at_least("restarts", restarts, 1)
    spaces = list(spaces)
    closed = _closed_product(spaces)
    if closed is not None:
        return closed.norm(xi)

    xi = np.abs(np.asarray(xi, dtype=float))
    shape = spaces[0].atom_shape
    if xi.shape != shape:
        raise ValueError(f"expected a single vector of shape {shape}")
    flat = xi.ravel()
    pos = np.flatnonzero(flat > 0)
    if pos.size == 0 or not np.isfinite(flat).all():
        return float(flat.max())  # 0, or nan and inf as in l^t
    m = len(spaces)

    def norms(k, g):
        # ||g||_(X_k) for every row of g; leading axes kept
        out = np.asarray(spaces[k].norm(g.reshape(-1, *shape)), dtype=float)
        return out.reshape(g.shape[:-1])

    def last_factors(G):
        # the factor of X_m that completes each row's factorization of |xi|
        g = np.repeat(flat[None, :], len(G), axis=0)
        for k in range(m - 1):
            g[:, pos] = g[:, pos] / G[:, k, pos]
        return g

    # structured initial splits
    inv = [1.0 / max(_nominal_exponent(sp), 1e-9) for sp in spaces]
    theta_nominal = np.array(inv) / sum(inv)
    splits = [theta_nominal, np.full(m, 1.0 / m)]
    if all(isinstance(sp, OrliczSpace) for sp in spaces):
        splits.append(_orlicz_split(spaces, flat, pos))
    rng = np.random.default_rng(seed)
    while len(splits) < restarts:
        splits.append(rng.dirichlet(np.ones(m)))

    # G[r, k] is factor k of restart r, for the first m - 1 factors
    G = np.empty((restarts, m - 1, flat.size))
    for r, split in enumerate(splits[:restarts]):
        if isinstance(split, list):  # precomputed factor list
            G[r] = split[: m - 1]
        else:
            G[r] = [np.where(flat > 0, flat ** float(split[k]), 0.0) for k in range(m - 1)]

    factors = np.exp(np.linspace(-2.0, 2.0, 21))
    cur = norms(m - 1, last_factors(G))
    for k in range(m - 1):
        cur = cur * norms(k, G[:, k])
    live = np.arange(restarts)  # restarts whose last sweep improved
    for _ in range(30):
        improved = np.zeros(live.size, dtype=bool)
        rows = np.arange(live.size)
        for k in range(m - 1):
            off = np.ones(live.size)
            for kk in range(m - 1):
                if kk != k:
                    off = off * norms(kk, G[live, kk])
            glast = last_factors(G[live])
            for i in pos:
                gk = G[live, k]
                cands = gk[:, i, None] * factors
                batch = np.repeat(gk[:, None, :], factors.size, axis=1)
                batch[:, :, i] = cands
                nk = norms(k, batch)
                others = np.ones(live.size)
                for kk in range(m - 1):
                    if kk != k:
                        others = others * G[live, kk, i]
                lasts = np.repeat(glast[:, None, :], factors.size, axis=1)
                lasts[:, :, i] = flat[i] / (cands * others[:, None])
                nl = norms(m - 1, lasts)
                vals = off[:, None] * nk * nl
                j = np.argmin(vals, axis=1)
                gain = vals[rows, j] < cur[live] * (1 - 1e-12)
                if gain.any():
                    cur[live[gain]] = vals[rows, j][gain]
                    G[live[gain], k, i] = cands[rows, j][gain]
                    glast[gain] = last_factors(G[live[gain]])
                    improved |= gain
        live = live[improved]
        if not live.size:
            break
    return float(min(math.inf, *cur))  # a NaN restart never wins, as in min()


def _orlicz_split(spaces: Sequence[Space], flat: np.ndarray, pos: np.ndarray):
    """Factor list from xi_j = Phi_j^{-1}(Phi(|xi|)), Phi^{-1} = prod Phi_j^{-1}."""
    # per positive atom, the y with sum_j log Phi_j^{-1}(y) = log |xi| from
    # _solve_level; log Phi_j^{-1} has log-slope 1/a_j at x_j = Phi_j^{-1}(y)
    target = np.log(flat[pos])

    def level(y, rows):
        xs = [sp.phi_inv(y) for sp in spaces]  # x = 0 or inf reads as below or above the root
        excess = target[rows] - sum(np.log(x) for x in xs)
        return excess, excess / sum(1.0 / sp._log_slope(x, sp._lx, sp._pieces) for sp, x in zip(spaces, xs))

    # the root lies between the least and largest Phi_j(|xi|^(1/m)); start at their
    # geometric mean, kept in the normal range (a root beyond it solves to inf or 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bounds = np.log([sp.phi(np.exp(target / len(spaces))) for sp in spaces])
        start = np.clip(np.exp(np.nan_to_num(bounds.mean(axis=0))), _TINY, np.finfo(float).max)
        y = _solve_level(level, start, "inverse-Young split")
    gs = [np.zeros_like(flat) for _ in spaces[:-1]]
    for g, sp in zip(gs, spaces):
        g[pos] = sp.phi_inv(y)
    return gs


def _closed_product(spaces: list[Space]) -> Space | None:
    """The product space, or None: l^t with 1/t = sum 1/t_j for Lebesgue tuples,
    and l^a(l^b) layer by layer for iterated ones, which Holder bounds and
    xi_j = n^(a/a_j) (|xi| / n)^(b/b_j), n the inner l^b norms, attains."""
    nonempty("factor space", spaces)
    if any(sp.atom_shape != spaces[0].atom_shape or not np.allclose(sp.mu, spaces[0].mu) for sp in spaces):
        raise ValueError("product factors must share one atomic measure")
    if len(spaces) == 1:
        return spaces[0]
    if all(isinstance(sp, LebesgueSpace) for sp in spaces):
        return LebesgueSpace(harmonic_exponent(sp.t for sp in spaces), spaces[0].measure)
    if all(isinstance(sp, IteratedSpace) for sp in spaces):
        outer = _closed_product([sp.outer for sp in spaces])
        inner = _closed_product([sp.inner for sp in spaces])
        if outer is not None and inner is not None:
            return IteratedSpace(outer, inner)
    return None


def product_space(spaces: Sequence[Space]) -> Space:
    """The product space as a Space object, where ``_closed_product`` has one."""
    closed = _closed_product(list(spaces))
    if closed is None:
        raise ValueError("no closed-form product for these kinds; evaluate product_norm directly")
    return closed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def space_to_json(space: Space) -> str:
    return json.dumps(_space_payload(space))


def _space_payload(space: Space) -> dict:
    return {"kind": space.kind, "parameters": space.params(), "atoms": space.measure.weights.tolist()}


def space_from_json(text: str) -> Space:
    return _space_from_payload(json.loads(text))


def _space_from_payload(obj) -> Space:
    kind, atoms, params = entries("space", obj, "kind", "atoms", "parameters")
    measure = AtomicMeasure(atoms)
    if kind == "lebesgue":
        return LebesgueSpace(*entries("lebesgue", params, "t"), measure)
    if kind == "lorentz":
        return LorentzSpace(*entries("lorentz", params, "t", "u"), measure)
    if kind == "orlicz":
        return OrliczSpace(*entries("orlicz", params, "table"), measure)
    if kind == "iterated":
        space = IteratedSpace(*map(_space_from_payload, entries("iterated", params, "outer", "inner")))
        if space.measure != measure:
            raise ValueError(f"iterated payload atoms must equal the outer layer's {space.measure.weights.tolist()}, "
                             f"got {measure.weights.tolist()}")
        return space
    raise ValueError(f"unknown space kind {kind!r}")


def phi_table_to_csv(table, path) -> None:
    tab = np.asarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "phi"])
        for t, p in tab:
            writer.writerow([repr(float(t)), repr(float(p))])


def phi_table_from_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [(float(row[0]), float(row[1])) for row in csv_rows(fh, ("t", "phi"))]
    return np.asarray(rows)
