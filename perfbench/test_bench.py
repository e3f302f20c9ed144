"""Tests of the benchmark itself: the correctness gate, the tracer and the names.

    python3 -m pytest perfbench -q

The gate tests feed the worker a workload whose operations return a report
with one float moved beyond tolerance, a report with a check flipped to
failed, and a raising call; each must count as a failed operation.  The
unmodified package must pass the gate on two seeds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run_worker(monkeypatch, capsys, workload: str, seed: int, trace: int = 0) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--spawned-at", repr(time.monotonic())]
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.main prepends to sys.path
    assert worker.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _tiny_battery():
    return workloads._battery("cz", dict(dim=1, depth=2, seed=0))


def _first_float_path(report):
    for i, check in enumerate(report["checks"]):
        for key, value in check.items():
            if isinstance(value, float):
                return i, key
    raise AssertionError("report has no float field")


def _broken_workload(good_report):
    moved = copy.deepcopy(good_report)
    i, key = _first_float_path(moved)
    moved["checks"][i][key] *= 1 + 1e-6
    flipped = copy.deepcopy(good_report)
    flipped["checks"][0]["passed"] = False
    flipped["passed"] = False

    def boom():
        raise ValueError("injected failure")

    def build(seed, warm=False):
        base = _tiny_battery()
        return [
            base,
            workloads.Operation("moved float", lambda: copy.deepcopy(moved), base.summarize, base.rtol),
            workloads.Operation("flipped check", lambda: copy.deepcopy(flipped), base.summarize, base.rtol),
            workloads.Operation("raising call", boom, base.summarize, base.rtol),
        ]

    return build


def test_gate_counts_each_injected_fault(monkeypatch, capsys):
    good = _tiny_battery().call()
    ref = gate.normalize(good)
    monkeypatch.setitem(workloads.WORKLOADS, "broken", _broken_workload(good))
    monkeypatch.setattr(gate, "load_refs", lambda name: {"0": {"digest": "", "outputs": [ref] * 4}})
    out = _run_worker(monkeypatch, capsys, "broken", 0)
    passes = out["attempted"] // 4
    assert passes >= 1 and out["attempted"] == 4 * passes
    assert out["failed"] == 3 * passes
    text = "\n".join(out["problems"])
    assert "moved float" in text and "rel tol" in text
    assert "flipped check: report not passed" in text
    assert "raising call: raised ValueError: injected failure" in text


def test_float_within_tolerance_passes():
    op = _tiny_battery()
    report = op.call()
    ref = gate.normalize(report)
    i, key = _first_float_path(report)
    report["checks"][i][key] *= 1 + 1e-12
    assert gate.judge(op, report, None, ref)[1] == []
    report["checks"][i][key] *= 1 + 1e-6
    assert gate.judge(op, report, None, ref)[1]


def test_non_float_fields_must_match_exactly():
    assert gate.compare({"a": [1, "x", True]}, {"a": [1, "x", True]}, 1e-3) == []
    assert gate.compare({"a": [1, "x", True]}, {"a": [2, "x", True]}, 1e-3)
    assert gate.compare({"a": [1, "x", True]}, {"a": [1, "y", True]}, 1e-3)
    assert gate.compare({"a": 1.0}, {"a": 1}, 1e-3)
    assert gate.compare({"a": 1.0}, {"b": 1.0}, 1e-3)


def test_search_tolerance_accepts_closed_form_distance():
    # the closed-form associate norm sits up to 2.1e-4 from the search
    assert gate.compare(1.00021, 1.0, workloads.SEARCH_RTOL) == []
    assert gate.compare(1.002, 1.0, workloads.SEARCH_RTOL)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_code_passes_the_gate(monkeypatch, capsys, workload, seed):
    assert str(seed) in gate.load_refs(workload), "stored references cover seeds 0 and 1"
    out = _run_worker(monkeypatch, capsys, workload, seed)
    assert out["failed"] == 0, out["problems"]
    assert out["digest"] == out["reference_digest"]


def test_counts_repeat_across_two_traced_runs():
    def traced_counts():
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "vector-transfer", "--seed", "3",
               "--seconds", "0", "--trace", "1", "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        return json.loads(proc.stdout.strip().splitlines()[-1])["counts"]

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["maximal.scalar_maximal.calls"] > 0


def test_tracer_wraps_every_namespace_and_restores():
    import sparsedom.dyadic as dyadic
    import sparsedom.spaces as spaces
    import sparsedom.weights as weights

    original, method = dyadic.average, spaces.OrliczSpace.__dict__["norm"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert weights.average is dyadic.average is not original
        assert spaces.OrliczSpace.__dict__["norm"] is not method
        grid = dyadic.Grid(1, 2)
        sp = spaces.OrliczSpace.from_power(2.0, spaces.AtomicMeasure.unit(3))
        weights.muckenhoupt_constant([weights.power_weight(grid, 0.2)], [2.0], [1.0], float("inf"), grid)
        sp.norm([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    finally:
        tracer.uninstall()
    assert dyadic.average is original and weights.average is original
    assert spaces.OrliczSpace.__dict__["norm"] is method
    spans = tracer.take()
    stats = tracing.layer_stats(spans)
    assert stats["weights.muckenhoupt_constant"]["calls"] == 1
    assert stats["dyadic.average"]["calls"] == 2 * grid.ncubes()
    counts = tracing.derived_counts(spans)
    assert counts["weights.muckenhoupt_constant.cubes"] == grid.ncubes()
    assert counts["spaces.OrliczSpace.norm.rows"] == 2
    # self time of the parent excludes its wrapped children
    total = sum(s[2] - s[1] for s in spans if s[0] == "weights.muckenhoupt_constant")
    assert stats["weights.muckenhoupt_constant"]["self_s"] < total


def test_names_agree_with_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    expected = {f"{n}.{k}" for n in tracing.LAYERS for k in ("calls", "self_s")}
    expected |= set(tracing.DERIVED) | {"trace.overhead_s"}
    assert per_layer == expected
