"""The four benchmark workloads, built from a seed.

A workload is a fixed list of operations.  An operation is one battery call
(``cli.run``) or one library call; each is timed on its own, and one pass
runs every operation once, in order, in one thread (a closed loop with one
client).

Why these four (each optimization needs one workload that exercises its
mechanism and one that bypasses it):

- ``shifted-weights`` is the only path through the shifted-cube overlap
  branch of ``dyadic.average``: no flow graphs, no Orlicz spaces.
- ``sparse-certify`` certifies families by max-flow (``stopping``), searches
  for the best family (``equivalence``) and walks ``Grid.children``; it has
  no shifted averages.
- ``vector-transfer`` drives ``level_averages`` through the shift-0 block
  reductions under ``scalar_maximal``, with trailing atom axes: a different
  path through ``dyadic`` than ``shifted-weights``.
- ``orlicz-duality`` is the only workload where ``spaces`` runs its
  searches and bisections; no battery reaches these calls.  Its associate
  norm search on the piecewise table uses 16 restarts, not the default 64,
  and its stopping call runs at depth 6, not 8: at 9-10 s a pass, a 25 s run
  held two passes and its pass_s spread 21% across seeds.  On seeds 0-9 the
  16-restart search returns the same value as the 64-restart one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sparsedom import cli
from sparsedom.dyadic import Grid
from sparsedom.spaces import (
    AtomicMeasure,
    LebesgueSpace,
    OrliczSpace,
    associate_norm,
    product_norm,
)
from sparsedom.sparse import SparseFamily, stopping_domination, verify_sparse

# Battery reports are deterministic given the seed, so a faithful refactor
# only moves floats by summation-order rounding.
REPORT_RTOL = 1e-9
# Numerical searches return lower bounds; a closed form may land up to about
# 2.1e-4 away, so the reference comparison allows 1e-3.
SEARCH_RTOL = 1e-3
# The l^3 oracle tolerance of the tier-1 suite (tests/test_spaces.py).
ORACLE_RTOL = 1e-4


@dataclass
class Operation:
    """One timed call plus the checks of its output.

    ``call`` runs the operation.  ``summarize`` turns its return value into
    JSON-able outputs (compared with the stored reference at ``rtol``) and a
    list of problems found without a reference.
    """

    label: str
    call: Callable[[], Any]
    summarize: Callable[[Any], tuple[dict, list[str]]]
    rtol: float


def _battery(command: str, config: dict) -> Operation:
    def summarize(report):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        problems = [f"report not passed: {', '.join(failed) or 'passed is false'}"] if not report["passed"] else []
        return report, problems

    label = command + "(" + ",".join(f"{k}={v}" for k, v in config.items() if k != "seed") + ")"
    return Operation(label, lambda: cli.run(command, config), summarize, REPORT_RTOL)


def _batteries(specs, seed: int) -> list[Operation]:
    return [_battery(command, {**cfg, "seed": seed}) for command, cfg in specs]


def shifted_weights(seed: int, warm: bool = False) -> list[Operation]:
    depth = 1 if warm else 5
    return _batteries([("weights", dict(dim=2, depth=depth, shifts=True))], seed)


def sparse_certify(seed: int, warm: bool = False) -> list[Operation]:
    specs = [
        ("equivalence", dict(dim=1, depth=1 if warm else 3)),
        ("stopping", dict(dim=1, depth=2 if warm else 12)),
        ("stopping", dict(dim=2, depth=1 if warm else 6)),
        ("cz", dict(dim=2, depth=1 if warm else 6)),
    ]
    return _batteries(specs, seed)


def vector_transfer(seed: int, warm: bool = False) -> list[Operation]:
    specs = [
        ("transfer", dict(dim=1, depth=2 if warm else 8)),
        ("transfer", dict(dim=2, depth=1 if warm else 5)),
    ]
    return _batteries(specs, seed)


def piecewise_power_table() -> np.ndarray:
    """Phi = t^2 on [1e-3, 1] and t^3 on [1, 1e3]: 13 knots, convex."""
    ts = np.logspace(-3.0, 3.0, 13)
    return np.column_stack([ts, np.where(ts <= 1.0, ts**2, ts**3)])


def _value_summary(value) -> tuple[dict, list[str]]:
    return {"value": float(value)}, []


def _certificate_summary(cert) -> tuple[dict, list[str]]:
    problems = []
    if not isinstance(verify_sparse(cert.family.cubes, 0.5), SparseFamily):
        problems.append("stopping family fails verify_sparse at eta 1/2")
    if not cert.pointwise_ok:
        problems.append("stopping certificate is not pointwise_ok")
    out = {
        "c_stop": float(cert.c_stop),
        "doublings": int(cert.doublings),
        "pointwise_ok": bool(cert.pointwise_ok),
        "cubes": [[q.level, *q.index] for q in cert.family.cubes],
    }
    return out, problems


def orlicz_duality(seed: int, warm: bool = False) -> list[Operation]:
    rng = np.random.default_rng(seed)
    table = piecewise_power_table()
    sp6 = OrliczSpace(table, AtomicMeasure.unit(6))
    xi6 = rng.uniform(0.25, 4.0, size=6)
    p15 = OrliczSpace.from_power(1.5, AtomicMeasure.unit(3))
    xi3 = rng.uniform(0.25, 4.0, size=3)
    factors = [OrliczSpace(table, AtomicMeasure.unit(4)), OrliczSpace.from_power(3.0, AtomicMeasure.unit(4))]
    xi4 = rng.uniform(0.25, 4.0, size=4)
    grid = Grid(1, 2 if warm else 6)
    sp8 = OrliczSpace(table, AtomicMeasure.unit(8))
    F = rng.lognormal(sigma=1.0, size=grid.cell_shape + (8,))
    oracle = float(LebesgueSpace(3.0, AtomicMeasure.unit(3)).norm(xi3))

    def power_summary(value):
        out, problems = _value_summary(value)
        if abs(value - oracle) > ORACLE_RTOL * abs(oracle):
            problems.append(f"associate norm {value!r} misses the l^3 oracle {oracle!r} at rel {ORACLE_RTOL}")
        return out, problems

    restarts6, restarts3, restarts_prod = (1, 1, 1) if warm else (16, 32, 8)
    return [
        Operation(
            "associate_norm(piecewise,6 atoms,16 restarts)",
            lambda: associate_norm(sp6, xi6, restarts=restarts6),
            _value_summary,
            SEARCH_RTOL,
        ),
        Operation(
            "associate_norm(power 1.5,3 atoms)",
            lambda: associate_norm(p15, xi3, restarts=restarts3),
            power_summary,
            SEARCH_RTOL,
        ),
        Operation(
            "product_norm(piecewise x power 3,4 atoms)",
            lambda: product_norm(factors, xi4, restarts=restarts_prod),
            _value_summary,
            SEARCH_RTOL,
        ),
        Operation(
            "stopping_domination(dim=1,depth=6,orlicz 8 atoms)",
            lambda: stopping_domination(grid, [F], [1.0], 1.0, [sp8]),
            _certificate_summary,
            SEARCH_RTOL,
        ),
    ]


WORKLOADS: dict[str, Callable[..., list[Operation]]] = {
    "shifted-weights": shifted_weights,
    "sparse-certify": sparse_certify,
    "vector-transfer": vector_transfer,
    "orlicz-duality": orlicz_duality,
}
