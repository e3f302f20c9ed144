"""Acceptance gate: the seven headline guarantees, one test per criterion.

Each test measures the advertised quantity on its stated suite, prints one
pass/fail line, and asserts at the stated tolerance.  Everything is seeded;
a failure here is a real counterexample, not noise.
"""

import json
import math
import time
import zlib
from fractions import Fraction

import numpy as np

import conftest
from oracles import theta_scan
from sparsedom.dyadic import Cube, Grid, cover_cube, grid_norm
from sparsedom.maximal import scalar_maximal
from sparsedom.sparse import (
    SparseFamily,
    cz_decompose,
    family_from_json,
    family_to_json,
    optimal_sparse_form,
    stopping_domination,
    verify_sparse,
)
from sparsedom.spaces import AtomicMeasure, LebesgueSpace
from sparsedom.transfer import (
    HaarTransform,
    SparseOperator,
    vv_transfer_check,
    weighted_transfer_experiment,
)
from sparsedom.weights import (
    bht_region,
    composed_transfer_exponent,
    ellt_exponent,
    harmonic_exponent,
    transfer_exponent,
)

INF = math.inf


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    ok = bool(ok)
    conftest.acceptance_results.append((number, name, ok))
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _chain(levels: int, eta: float = 0.5) -> SparseFamily:
    family = verify_sparse([Cube(k, (0,)) for k in range(levels)], eta)
    assert isinstance(family, SparseFamily)
    return family


def test_criterion_1_sparse_maximal_equivalence():
    # maximal L^1 norm against the eta-normalized best sparse form: the
    # packing bound makes the ratio at least 1 exactly, and on this suite
    # it never reaches 8; the raw (unnormalized) ratio is reported too
    start = time.monotonic()
    grid = Grid(1, 2)
    rng = np.random.default_rng(2024)
    eta, tol = 0.5, 1e-9
    min_ratio, max_ratio, min_greedy = INF, 0.0, INF
    raw_lo, raw_hi = INF, 0.0
    for rs in [(1.0,), (1.0, 1.0), (2.0, 1.0)]:
        for _ in range(50):
            fs = [rng.uniform(0.25, 4.0, size=grid.cell_shape) for _ in rs]
            exact_val, _ = optimal_sparse_form(fs, list(rs), grid, mode="exact", eta=eta)
            greedy_val, _ = optimal_sparse_form(fs, list(rs), grid, mode="greedy", eta=eta)
            mnorm = grid_norm(grid, scalar_maximal(grid, fs, list(rs)), 1.0)
            ratio = mnorm / (eta * exact_val)
            min_ratio = min(min_ratio, ratio)
            max_ratio = max(max_ratio, ratio)
            raw_lo = min(raw_lo, mnorm / exact_val)
            raw_hi = max(raw_hi, mnorm / exact_val)
            min_greedy = min(min_greedy, greedy_val / exact_val)
    elapsed = time.monotonic() - start
    ok = (
        min_ratio >= 1.0 - tol
        and max_ratio <= 8.0 + tol
        and min_greedy >= 0.25 - tol
        and elapsed < 60.0
    )
    _verdict(
        1,
        "sparse/maximal equivalence",
        ok,
        f"maximal/(eta*form) in [{min_ratio:.4f}, {max_ratio:.4f}], "
        f"raw in [{raw_lo:.4f}, {raw_hi:.4f}], "
        f"greedy/exact >= {min_greedy:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_cz_decomposition_bounds():
    rng = np.random.default_rng(7)
    violations = 0
    worst = 0.0
    suites = [(Grid(1, 3), 100), (Grid(2, 2), 100)]
    for grid, count in suites:
        d = grid.d
        for i in range(count):
            rs = [(1.0,), (1.0, 2.0), (2.0, 2.0)][i % 3]
            fs = [rng.uniform(0.05, 5.0, size=grid.cell_shape) for _ in rs]
            fs = [f / grid_norm(grid, f, rj) for f, rj in zip(fs, rs)]
            lam = float(rng.uniform(0.2, 3.0))
            parts = cz_decompose(grid, fs, list(rs), lam)
            r = parts.r
            for j, rj in enumerate(rs):
                thr = lam ** (r / rj)
                m1 = np.max(np.abs(parts.flat[j])) / thr
                m2 = np.max(np.abs(parts.averaged[j])) / (2 ** (d / rj) * thr)
                worst = max(worst, m1, m2)
                violations += int(m1 > 1 + 1e-12) + int(m2 > 1 + 1e-12)
            exceed = np.sum(np.abs(parts.bad) > lam) * grid.cell_measure
            m3 = exceed / (len(rs) / lam**r)
            worst = max(worst, m3)
            violations += int(m3 > 1 + 1e-12)
    _verdict(
        2,
        "Calderon-Zygmund proof bounds",
        violations == 0,
        f"{violations} violations over 200 inputs, worst margin {worst:.4f}",
    )


def test_criterion_3_stopping_certificates():
    start = time.monotonic()
    grid = Grid(1, 2)
    cases = [
        ("l1 single", (1.0,), (1.0,)),
        ("l2 single", (2.0,), (2.0,)),
        ("l1 pair", (1.0, 1.0), (4.0, 4.0 / 3.0)),
        ("l2 pair", (1.0, 1.0), (4.0, 4.0)),
    ]
    all_ok = True
    details = []
    for label, rs, ts in cases:
        r = harmonic_exponent(rs)
        for q in sorted({1.0, r}):
            rng = np.random.default_rng(zlib.crc32(f"{label}|{q}".encode()))
            consts = []
            for n in (2, 8, 32):
                spaces = [LebesgueSpace(t, AtomicMeasure.unit(n)) for t in ts]
                Fs = [
                    rng.lognormal(sigma=1.0, size=grid.cell_shape + (n,))
                    for _ in rs
                ]
                cert = stopping_domination(grid, Fs, list(rs), q, spaces)
                flow = verify_sparse(cert.family.cubes, 0.5)
                if not (isinstance(flow, SparseFamily) and cert.pointwise_ok):
                    all_ok = False
                consts.append(cert.c_stop)
            spread = max(consts) / min(consts)
            if spread > 2.0 + 1e-9:
                all_ok = False
            details.append(f"{label} q={q:g}: c={max(consts):g} x{spread:g}")
    elapsed = time.monotonic() - start
    all_ok = all_ok and elapsed < 300.0
    _verdict(
        3,
        "stopping-time sparse domination",
        all_ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_4_exponent_calculators():
    pinned = transfer_exponent([2.0], 1.0, [1.0], INF)
    ok_pinned = pinned == 2.0

    # 100-tuple grid for the sequence-valued display max{p_j', p/q0}
    grid_vals = np.linspace(1.2, 5.0, 10)
    ellt_bad = 0
    for p1 in grid_vals:
        for p2 in grid_vals:
            got = ellt_exponent((float(p1), float(p2)), (1.0, 1.0), 1.0, (2.0, 2.0))
            want = max(p1 / (p1 - 1.0), p2 / (p2 - 1.0), harmonic_exponent((p1, p2)))
            ellt_bad += int(not np.isclose(got, want, rtol=1e-12))

    rng = np.random.default_rng(11)
    comp_bad = 0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        rs = list(rng.uniform(0.5, 3.0, size=m))
        ps = [rj * u for rj, u in zip(rs, rng.uniform(1.2, 4.0, size=m))]
        p = harmonic_exponent(ps)
        q = p * float(rng.uniform(0.3, 1.0))
        s = INF if rng.random() < 0.5 else p * float(rng.uniform(1.5, 4.0))
        direct = transfer_exponent(ps, q, rs, s)
        composed = composed_transfer_exponent(ps, q, rs, s)
        comp_bad += int(not np.isclose(direct, composed, rtol=1e-12))

    # closed-form region membership vs the theta-grid witness search; every
    # grid point is either exactly on the boundary (both sides say no: the
    # strict simplex is empty there) or at least 3 scan steps away from it
    res = 1e-4
    vals = [round(1.1 + 0.1 * k, 10) for k in range(20)]
    bht_bad = 0
    decidable = True
    for r1 in vals:
        for r2 in vals:
            for s in vals:
                total = (
                    max(1 / r1, 0.5) + max(1 / r2, 0.5) + max((s - 1) / s, 0.5)
                )
                margin = abs(total - 2.0)
                if 0.0 < margin < 3 * res:
                    decidable = False
                member, _ = bht_region(r1, r2, s)
                bht_bad += int(member != theta_scan(r1, r2, s, resolution=res))

    ok = ok_pinned and ellt_bad == 0 and comp_bad == 0 and bht_bad == 0 and decidable
    _verdict(
        4,
        "exponent calculators",
        ok,
        f"pinned gamma {pinned}, ellt mismatches {ellt_bad}/100, "
        f"composition mismatches {comp_bad}/1000, region mismatches {bht_bad}/8000",
    )


def test_criterion_5_weighted_envelope():
    grid = Grid(1, 6)
    configs = [
        ("haar l2", HaarTransform.random(grid, seed=4), [2.0], (2.0,)),
        (
            "sparse pair",
            SparseOperator(_chain(6), rs=(1.0, 1.0)),
            [4.0, 4.0 / 3.0],
            (2.0, 2.0),
        ),
    ]
    all_ok = True
    details = []
    for label, T, specs, ps in configs:
        res = weighted_transfer_experiment(T, grid, specs, ps=ps, q=1.0)
        over = max(row["ratio"] / row["bound"] for row in res["rows"])
        ok = res["passed"] and over <= 1.01 and res["slope"] <= res["gamma"] + 0.1
        all_ok = all_ok and ok
        details.append(
            f"{label}: slope {res['slope']:.3f} vs gamma {res['gamma']:g}, "
            f"max over-envelope {over:.4f}"
        )
    _verdict(5, "weighted envelope growth", all_ok, "; ".join(details))


def test_criterion_6_vector_valued_transfer():
    grid = Grid(1, 2)
    chain = _chain(3)
    models = [
        ("haar l2", HaarTransform.random(grid, seed=0), [2.0]),
        ("sparse l2", SparseOperator(chain, rs=(1.0,)), [2.0]),
        ("sparse pair", SparseOperator(chain, rs=(1.0, 1.0)), [4.0, 4.0 / 3.0]),
        ("haar iterated", HaarTransform.random(grid, seed=1), [(3.0, 2.0)]),
    ]
    all_ok = True
    details = []
    for label, T, specs in models:
        [rep] = vv_transfer_check([T], grid, specs, 1.0, INF, trials=60)
        ok = rep.admissible and rep.scalar["passed"] and rep.passed
        all_ok = all_ok and ok
        details.append(f"{label}: slope {rep.slope:.3f}")
    _verdict(6, "vector-valued transfer", all_ok, "; ".join(details))


def test_criterion_7_structural_exactness():
    # exhaustive covering suites: every representable cube at the chosen
    # resolutions, container ratio never above 6^d
    cover_ok = True
    den = 32
    for num in range(1, den):
        side = Fraction(num, den)
        for start in range(0, den - num + 1):
            _, cube = cover_cube([Fraction(start, den)], side)
            cover_ok &= cube.contains([Fraction(start, den)], side)
            cover_ok &= (Fraction(1, 2**cube.level) / side) <= 6
    den = 8
    for num in range(1, den):
        side = Fraction(num, den)
        for sx in range(0, den - num + 1):
            for sy in range(0, den - num + 1):
                lower = [Fraction(sx, den), Fraction(sy, den)]
                _, cube = cover_cube(lower, side)
                cover_ok &= cube.contains(lower, side)
                cover_ok &= (Fraction(1, 2**cube.level) / side) ** 2 <= 36

    rng = np.random.default_rng(5)
    iso_err = 0.0
    for depth in (1, 2, 3):
        grid = Grid(1, depth)
        for trial in range(20):
            T = HaarTransform.random(grid, seed=trial)
            f = rng.normal(size=grid.cell_shape)
            iso_err = max(
                iso_err,
                abs(grid_norm(grid, T.apply(grid, [f]), 2.0) - grid_norm(grid, f, 2.0)),
            )

    families = [
        _chain(4),
        verify_sparse([Cube(0, (0,)), Cube(1, (0,)), Cube(1, (1,))], 0.5),
        verify_sparse([Cube(1, (i, j)) for i in range(2) for j in range(2)], 0.75),
    ]
    roundtrip_ok = True
    for family in families:
        assert isinstance(family, SparseFamily)
        text = family_to_json(family)
        again = family_to_json(family_from_json(text))
        roundtrip_ok &= text == again
        roundtrip_ok &= family_from_json(text).check_certificate()

    ok = cover_ok and iso_err <= 1e-12 and roundtrip_ok
    _verdict(
        7,
        "structural exactness",
        ok,
        f"covering exhaustive, isometry error {iso_err:.2e}, JSON round trips",
    )
