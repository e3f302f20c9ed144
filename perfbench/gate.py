"""Correctness gate: every operation's output is checked before it counts.

An operation fails when it raises, when its own summary finds a problem (a
report with ``"passed": false``, a stopping certificate that does not verify,
an associate norm off its l^3 oracle), or when its output disagrees with the
stored reference of the same seed: non-float fields exactly, floats within
the operation's relative tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"


def normalize(outputs):
    """The JSON view of an output: tuples become lists, keys become strings."""
    return json.loads(json.dumps(outputs))


def digest(outputs: list) -> str:
    """sha256 of the canonical JSON of a pass's outputs (floats at full repr)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compare(actual, expected, rtol: float, path: str = "$") -> list[str]:
    """Paths where ``actual`` departs from ``expected``."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= rtol * max(abs(actual), abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel tol {rtol})"]
    if type(actual) is not type(expected):
        return [f"{path}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in compare(actual[k], expected[k], rtol, f"{path}.{k}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in compare(a, e, rtol, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def judge(op, result, error: BaseException | None, reference) -> tuple[object, list[str]]:
    """Outputs and problems of one operation; no problems means it passed.

    ``reference`` is the stored output of this operation for this seed, or
    None when the seed has no stored reference.
    """
    if error is not None:
        detail = "".join(traceback.format_exception_only(type(error), error)).strip()
        return {"raised": detail}, [f"raised {detail}"]
    try:
        outputs, problems = op.summarize(result)
        outputs = normalize(outputs)
    except Exception as exc:  # a malformed result is a failed operation
        return {"unreadable": repr(exc)}, [f"output unreadable: {exc!r}"]
    if reference is not None:
        problems = problems + compare(outputs, reference, op.rtol)
    return outputs, problems


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str) -> dict:
    """seed (as a string) -> {"digest": ..., "outputs": [...]}; empty if none stored."""
    path = refs_path(workload)
    if not path.exists():
        return {}
    return json.loads(path.read_text())["seeds"]
