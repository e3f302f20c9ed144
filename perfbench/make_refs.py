"""Store reference outputs for the correctness gate.

    python3 perfbench/make_refs.py

Run this on the commit whose outputs are the reference (the refs in
perfbench/refs/ come from the sparsedom seed commit, before any performance
work).  Each workload runs once per seed in ``SEEDS``, and each refs file is
written afresh.  A seed on which an operation raises or fails its own checks
gets no reference, so no failing output becomes one; the gate still fails
that operation on every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(25)


def reference(workload: str, seed: int) -> dict | None:
    outputs = []
    for op in workloads.WORKLOADS[workload](seed):
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, exc
        out, problems = gate.judge(op, result, error, None)
        if problems:
            print(f"{workload} seed {seed}: no reference, {op.label} fails: {problems}", flush=True)
            return None
        outputs.append(out)
    return {"digest": gate.digest(outputs), "outputs": outputs}


def main() -> int:
    for name in workloads.WORKLOADS:
        seeds = {}
        for seed in SEEDS:
            ref = reference(name, seed)
            if ref is not None:
                seeds[str(seed)] = ref
                print(f"{name} seed {seed}: {ref['digest']}", flush=True)
        path = gate.refs_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seeds": seeds}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
