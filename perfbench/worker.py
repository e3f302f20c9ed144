"""One measured process for one workload; started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at MONOTONIC [--setup-only] [--spans FILE]

Set-up is import, input generation and a warm-up pass on small inputs that
runs every code path once (filling caches and lazy imports), timed from
``--spawned-at`` (the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide) to the end of the warm-up, so work
moved out of the calls and into set-up shows in ``setup_s``.  ``--setup-only``
stops there.  Timed passes follow while the next one is expected to end
within ``--seconds`` (see ``_another_pass`` for the minimum); each operation
is timed alone and checked afterwards, outside the timed region.
With ``--trace 1`` untraced and traced passes alternate.  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Host speed on this kind of shared machine drifts by 20-35% over minutes,
# in wall and CPU time alike; a calibration kernel run between passes drifts
# with it.  pass_s and cpu_s rescale the run's passes by the median
# calibration of the run, and setup_s rescales each set-up probe by the
# calibration run right after it, to the speed at which one unit takes
# CAL_UNIT_REF_S (its median on the 2-core VM where the benchmark was
# defined).  Raw times and calibrations stay in the run record.
CAL_UNIT_REF_S = 0.036
CAL_SHARE = 0.15  # calibration time after a pass, as a share of the pass


def _version(package: str) -> str | None:
    """Installed version, read without importing the package."""
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, read through ctypes."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _timed(op):
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a raising call is a failed operation
        result, error = None, exc
    return result, error, time.perf_counter() - wall, time.process_time() - cpu


def _calibration_unit() -> float:
    """Fixed work shaped like the package's: overlap-weighted and block
    r-averages on small NumPy arrays inside a Python loop."""
    import numpy  # after set-up is timed; already loaded by then

    cells = numpy.linspace(0.5, 2.0, 64).reshape(8, 8)
    edges = numpy.arange(9) / 8.0
    acc = 0.0
    for i in range(1200):
        lo = (i % 7) / 16.0
        overlap = numpy.maximum(numpy.minimum(lo + 0.5, edges[1:]) - numpy.maximum(lo, edges[:-1]), 0.0)
        w = numpy.multiply.outer(overlap, overlap)
        acc += float((numpy.sum(w * numpy.abs(cells) ** 1.5) / w.sum()) ** (1 / 1.5))
        acc += float(numpy.mean(numpy.abs(cells[i % 4 : i % 4 + 4]) ** 1.5) ** (1 / 1.5))
    for k in range(200_000):
        acc += k * 0.5
    return acc


def _calibrate(units: int) -> tuple[float, float]:
    """Wall and CPU seconds per calibration unit, measured now."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(units):
        _calibration_unit()
    return (time.perf_counter() - wall) / units, (time.process_time() - cpu) / units


def _another_pass(start: float, seconds: float, passes: list[dict], traced: bool) -> bool:
    """At least two plain passes (one plain and one traced when tracing),
    then more while the next is expected to end within ``seconds``."""
    kinds = [p["kind"] for p in passes]
    if kinds.count("plain") < (1 if traced else 2) or (traced and "traced" not in kinds):
        return True
    mean_wall = sum(p["wall"] for p in passes) / len(passes)
    return time.perf_counter() - start + mean_wall * (1 + CAL_SHARE) <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import gate
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    for op in workloads.WORKLOADS[args.workload](args.seed, warm=True):
        _timed(op)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        # calibrated right after set-up, in the same process: import time
        # follows the host speed of that moment, not the run's median
        unit_s = _calibrate(6)[0]
        print(json.dumps({"setup_s": setup_s, "scaled_setup_s": setup_s * CAL_UNIT_REF_S / unit_s}))
        return 0

    refs = gate.load_refs(args.workload).get(str(args.seed))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(extra_modules=[workloads])

    passes: list[dict] = []
    attempted, failed, problems, first_outputs = 0, 0, [], []
    layer_passes, count_passes, first_spans = [], [], None
    start = time.perf_counter()
    kind = "plain"
    op_s = [[] for _ in ops]
    calibrations = [_calibrate(4)]
    while _another_pass(start, args.seconds, passes, tracer is not None):
        if tracer and kind == "traced":
            tracer.install()
        try:
            timed = [_timed(op) for op in ops]
        finally:
            if tracer and kind == "traced":
                tracer.uninstall()
        wall, cpu = sum(t[2] for t in timed), sum(t[3] for t in timed)
        passes.append({"kind": kind, "wall": wall, "cpu": cpu})
        calibrations.append(_calibrate(max(2, round(CAL_SHARE * wall / CAL_UNIT_REF_S))))
        if kind == "plain":
            for samples, t in zip(op_s, timed):
                samples.append(t[2])
        if tracer and kind == "traced":
            spans = tracer.take()
            first_spans = first_spans or spans
            layer_passes.append(tracing.layer_stats(spans))
            count_passes.append(tracing.derived_counts(spans))

        for i, (op, (result, error, _, _)) in enumerate(zip(ops, timed)):
            out, bad = gate.judge(op, result, error, refs["outputs"][i] if refs else None)
            if len(first_outputs) < len(ops):
                first_outputs.append(out)
            elif out != first_outputs[i]:
                bad.append("output differs from the first pass")
            attempted += 1
            if bad:
                failed += 1
                problems.extend(f"{op.label}: {p}" for p in bad[:3])
        if tracer:
            kind = "traced" if kind == "plain" else "plain"

    wall_scale = CAL_UNIT_REF_S / statistics.median(c[0] for c in calibrations)
    cpu_scale = CAL_UNIT_REF_S / statistics.median(c[1] for c in calibrations)
    plain = [p for p in passes if p["kind"] == "plain"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": [p["wall"] * wall_scale for p in plain],
        "cpu_s": [p["cpu"] * cpu_scale for p in plain],
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "calibration_unit_s": [c[0] for c in calibrations],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": gate.digest(first_outputs),
        "reference_digest": refs["digest"] if refs else None,
        "operations": [op.label for op in ops],
        "op_s_median": {op.label: statistics.median(v) for op, v in zip(ops, op_s)},
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": _blas_threads(),
    }
    if tracer:
        calls = [{k: v["calls"] for k, v in lp.items()} for lp in layer_passes]
        counts = [{**c, **{f"{k}.calls": v for k, v in cl.items()}} for c, cl in zip(count_passes, calls)]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        traced_wall = [p["wall"] * wall_scale for p in passes if p["kind"] == "traced"]
        result["traced_pass_s"] = traced_wall
        result["counts"] = counts[0]
        result["self_s"] = {
            name: statistics.median(lp[name]["self_s"] for lp in layer_passes) for name in tracing.LAYERS
        }
        result["trace_overhead_s"] = statistics.median(traced_wall) - statistics.median(result["pass_s"])
        if args.spans:
            tracing.write_spans(first_spans, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
