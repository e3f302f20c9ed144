"""sparsedom benchmark: four workloads timed end to end, per-module spans from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (perfbench/worker.py) as a closed
loop with one client: each call starts when the previous one returns, and
NumPy's BLAS gets at most ``nproc`` threads.  Afterwards ``SETUP_PROBES``
more fresh interpreters only import, build inputs, warm up and calibrate, so
``setup_s`` is a median.  Every operation's output goes through the correctness gate
(perfbench/gate.py).

With ``--trace 0`` the result carries the end-to-end metrics: ``pass_s`` and
``cpu_s`` (median wall and CPU time of one pass over the workload's calls,
rescaled to the reference host speed by a calibration kernel run between
passes; see worker.py), ``setup_s`` (fresh interpreter to first timed call,
median of SETUP_PROBES interpreters, each rescaled by a calibration run right
after its set-up) and ``peak_rss_mb``.  The failed ratio is the result's ``failed`` /
``attempted``.  With ``--trace 1`` the per-layer metrics: calls and self
time of each traced function, counts derived from call arguments and return
values, and the tracing overhead.  ``--workload all`` runs every workload (twice with
``--trace 1``, to check that the counts repeat) and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
whenever that line is printed, so a failed check shows as ``correct: false``.  The run record
(machine, versions, load average, output digest) goes to the lines above it
and to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("shifted-weights", "sparse-certify", "vector-transfer", "orlicz-duality")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (stdlib-only at import time)


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(5.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n}, needs 11)"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(values)[k - 1]!r} s (n={n})"


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One fresh worker for the timed passes, then the set-up probes."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(nproc)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    base = ["--workload", workload, "--seed", str(seed)]
    spans = RESULTS / f"spans-{workload}-seed{seed}.csv.gz"
    load_before = _loadavg()
    run = _worker(
        base + ["--seconds", repr(seconds), "--trace", str(trace)] + (["--spans", str(spans)] if trace else []),
        env, deadline,
    )
    probes = [_worker(base + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
    setups = [p["scaled_setup_s"] for p in probes]
    run.update(
        nproc=nproc, threads_env=threads, setup_samples=[p["setup_s"] for p in probes], setup_scaled=setups,
        loadavg_before=load_before, loadavg_after=_loadavg(),
    )
    run["correct"] = run["failed"] == 0 and run.get("counts_repeat", True)
    if trace:
        metrics = {f"{name}.calls": (run["counts"][f"{name}.calls"], "count") for name in tracing.LAYERS}
        metrics.update({f"{name}.self_s": (run["self_s"][name], "s") for name in tracing.LAYERS})
        metrics.update({name: (run["counts"][name], "count") for name in tracing.DERIVED})
        metrics["trace.overhead_s"] = (run["trace_overhead_s"], "s")
    else:
        metrics = {
            "pass_s": (statistics.median(run["pass_s"]), "s"),
            "cpu_s": (statistics.median(run["cpu_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        }
    run["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run, indent=1) + "\n")
    return run


def report(run: dict, trace: int) -> None:
    """The human-readable run record."""
    print(f"== {run['workload']} seed {run['seed']} trace {trace}: operations {', '.join(run['operations'])}")
    print(
        f"   record: nproc {run['nproc']}, python {run['python']}, numpy {run['numpy']}, scipy {run['scipy']}, "
        f"BLAS threads {run['blas_threads']} (env {run['threads_env']}), "
        f"loadavg before {run['loadavg_before']} after {run['loadavg_after']}"
    )
    print(f"   pass_s samples: median {statistics.median(run['pass_s'])!r} s, {tail(run['pass_s'])}")
    print(
        f"   raw wall per pass: median {statistics.median(run['pass_wall_s'])!r} s, {tail(run['pass_wall_s'])}; "
        f"calibration unit median {statistics.median(run['calibration_unit_s'])!r} s"
    )
    for label, seconds in run["op_s_median"].items():
        print(f"   operation {label}: median raw wall {seconds!r} s")
    print(f"   set-up probes: raw {run['setup_samples']!r} s, rescaled {run['setup_scaled']!r} s; worker set-up {run['setup_s']!r} s")
    ref = run["reference_digest"]
    match = "no stored reference for this seed" if ref is None else ("matches" if ref == run["digest"] else "DIFFERS from") + " the seed-commit reference"
    print(f"   output digest {run['digest']} ({match})")
    ratio = run["failed"] / run["attempted"]
    print(f"   failed_ratio {ratio!r} fraction ({run['failed']}/{run['attempted']} operations failed)")
    for problem in run["problems"]:
        print(f"   FAILED {problem}")
    if trace:
        print(f"   traced pass_s median {statistics.median(run['traced_pass_s'])!r} s; counts repeat across traced passes: {run['counts_repeat']}")
    for name, m in run["metrics"].items():
        if not name.endswith(".self_s") or m["value"]:
            print(f"   {name:48s} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsedom" / "__init__.py").is_file():
        print(f"sparsedom sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.workload != "all":
        run = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
        report(run, args.trace)
        print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    runs = []
    for name in WORKLOAD_NAMES:
        deadline = time.monotonic() + TIME_LIMIT_S
        run = measure(name, args.seed, args.seconds, args.trace, deadline)
        report(run, args.trace)
        if args.trace:
            again = measure(name, args.seed, args.seconds, args.trace, time.monotonic() + TIME_LIMIT_S)
            same = again["counts"] == run["counts"]
            print(f"   counts identical across two traced runs of seed {args.seed}: {same}")
            run["correct"] = run["correct"] and again["correct"] and same
        runs.append(run)
    print("\nworkload          metric                                            value  unit")
    metrics = {}
    for run in runs:
        rows = {**run["metrics"], "failed_ratio": {"value": run["failed"] / run["attempted"], "unit": "fraction"}}
        for name, m in rows.items():
            print(f"{run['workload']:17s} {name:48s} {m['value']:>10.6g}  {m['unit']}")
            metrics[f"{run['workload']}.{name}"] = m
    correct = all(r["correct"] for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
