"""The benchmark's correctness gate on ``sparse-certify`` and ``vector-transfer``,
inside the tier-1 suite.

The operations of each workload in ``perfbench/workloads.py`` (four for
``sparse-certify``, two ``transfer`` batteries for ``vector-transfer``) run at
seeds 0 and 1, and ``perfbench/gate.judge`` compares each output with its
stored reference in ``perfbench/refs/<workload>.json``, which is only read.
A speed change that moves a report past the gate fails here before the
benchmark runs.  The ``vector-transfer`` gate compares fitted slopes of size
about 1e-16 at a relative tolerance, so there it fails on one ulp.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module by file, registered so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gate, workloads = _load("gate"), _load("workloads")


def _passes_the_gate(workload: str, seed: int, count: int) -> None:
    refs = gate.load_refs(workload)[str(seed)]["outputs"]
    ops = workloads.WORKLOADS[workload](seed)
    assert len(ops) == len(refs) == count
    for op, ref in zip(ops, refs):
        try:
            result, error = op.call(), None
        except Exception as exc:  # the gate counts a raise as a failure
            result, error = None, exc
        _, problems = gate.judge(op, result, error, ref)
        assert problems == [], (op.label, problems)


@pytest.mark.parametrize("seed", [0, 1])
def test_sparse_certify_passes_the_benchmark_gate(seed):
    _passes_the_gate("sparse-certify", seed, 4)


@pytest.mark.parametrize("seed", [0, 1])
def test_vector_transfer_passes_the_benchmark_gate(seed):
    _passes_the_gate("vector-transfer", seed, 2)
