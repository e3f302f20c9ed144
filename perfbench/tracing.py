"""Per-module spans, recorded from outside the package.

``Tracer.install`` wraps each public function listed in ``TRACED`` in every
module namespace that binds it (``weights``, ``maximal``, ``sparse`` and
``transfer`` each hold their own ``average`` through ``from .dyadic import
average``), and methods on their classes.  A span is (name, start, end,
parent, info); spans stay in memory until ``write_spans``.  ``uninstall``
puts the original objects back, so untraced passes and the correctness gate
run the package as shipped.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path); "Class.method" names a method
TRACED = {
    "dyadic.average": ("sparsedom.dyadic", "average"),
    "dyadic.level_averages": ("sparsedom.dyadic", "level_averages"),
    "dyadic.Grid.children": ("sparsedom.dyadic", "Grid.children"),
    "maximal.scalar_maximal": ("sparsedom.maximal", "scalar_maximal"),
    "sparse.verify_sparse": ("sparsedom.sparse", "verify_sparse"),
    "sparse.optimal_sparse_form": ("sparsedom.sparse", "optimal_sparse_form"),
    "sparse.stopping_domination": ("sparsedom.sparse", "stopping_domination"),
    "sparse.cz_decompose": ("sparsedom.sparse", "cz_decompose"),
    "weights.muckenhoupt_constant": ("sparsedom.weights", "muckenhoupt_constant"),
    "spaces.LebesgueSpace.norm": ("sparsedom.spaces", "LebesgueSpace.norm"),
    "spaces.OrliczSpace.norm": ("sparsedom.spaces", "OrliczSpace.norm"),
    "spaces.associate_norm": ("sparsedom.spaces", "associate_norm"),
    "spaces.product_norm": ("sparsedom.spaces", "product_norm"),
    "transfer.vv_transfer_check": ("sparsedom.transfer", "vv_transfer_check"),
    "transfer.transfer_sides": ("sparsedom.transfer", "transfer_sides"),
    "transfer.scalar_hypothesis_check": ("sparsedom.transfer", "scalar_hypothesis_check"),
    "transfer.SparseOperator.apply": ("sparsedom.transfer", "SparseOperator.apply"),
    "transfer.HaarTransform.apply": ("sparsedom.transfer", "HaarTransform.apply"),
    "cli.run": ("sparsedom.cli", "run"),
}

# optimal_sparse_form gets one span name per mode
LAYERS = sorted(
    [n for n in TRACED if n != "sparse.optimal_sparse_form"]
    + ["sparse.optimal_sparse_form.exact", "sparse.optimal_sparse_form.greedy"]
)

# counts derived from call arguments and return values (see derived_counts)
DERIVED = (
    "maximal.level_averages_per_call",
    "sparse.verify_sparse.cubes",
    "sparse.verify_sparse.refuted",
    "sparse.stopping_domination.attempts_per_call",
    "weights.muckenhoupt_constant.cubes",
    "spaces.OrliczSpace.norm.rows",
)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _sparse_form_name(fn, args, kwargs, result) -> tuple[str, None]:
    return f"sparse.optimal_sparse_form.{_bound(fn, args, kwargs)['mode']}", None


def _verify_info(fn, args, kwargs, result):
    from sparsedom.sparse import SparseRefutation

    cubes = _bound(fn, args, kwargs)["cubes"]
    return None, (len(list(cubes)), isinstance(result, SparseRefutation))


def _stopping_info(fn, args, kwargs, result):
    return None, result.doublings + 1


def _muckenhoupt_info(fn, args, kwargs, result):
    from sparsedom.dyadic import Grid

    grids = _bound(fn, args, kwargs)["grids"]
    grids = [grids] if isinstance(grids, Grid) else grids
    return None, sum(g.ncubes() for g in grids)


def _orlicz_rows_info(fn, args, kwargs, result):
    import numpy as np

    space, xi = args[0], _bound(fn, args, kwargs)["xi"]
    return None, int(np.asarray(xi).size // np.prod(space.atom_shape))


# span name -> hook(fn, args, kwargs, result) -> (span name override, info)
_HOOKS = {
    "sparse.optimal_sparse_form": _sparse_form_name,
    "sparse.verify_sparse": _verify_info,
    "sparse.stopping_domination": _stopping_info,
    "weights.muckenhoupt_constant": _muckenhoupt_info,
    "spaces.OrliczSpace.norm": _orlicz_rows_info,
}


class Tracer:
    """Wraps the TRACED callables and keeps their spans in memory."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if hook is not None:
                rename, spans[idx][4] = hook(fn, args, kwargs, result)
                if rename:
                    spans[idx][0] = rename
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in list(sys.modules.items()) if n == "sparsedom" or n.startswith("sparsedom.")]
        namespaces += self.extra_modules
        for name, (modname, attr) in TRACED.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls and self time per span name; self time excludes wrapped children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    for i, (name, start, end, _, _) in enumerate(spans):
        # a call that raised before its hook ran keeps the unsplit name
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
    return stats


def _under(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def derived_counts(spans: list[list]) -> dict[str, float]:
    """The DERIVED counts of one pass; they repeat exactly for one seed."""
    def infos(name):
        return [s[4] for s in spans if s[0] == name]

    maximal_calls = len(infos("maximal.scalar_maximal"))
    nested = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "dyadic.level_averages" and _under(spans, i, "maximal.scalar_maximal")
    )
    verify = infos("sparse.verify_sparse")
    attempts = infos("sparse.stopping_domination")
    return {
        "maximal.level_averages_per_call": nested / maximal_calls if maximal_calls else 0.0,
        "sparse.verify_sparse.cubes": sum(n for n, _ in verify),
        "sparse.verify_sparse.refuted": sum(1 for _, refuted in verify if refuted),
        "sparse.stopping_domination.attempts_per_call": sum(attempts) / len(attempts) if attempts else 0.0,
        "weights.muckenhoupt_constant.cubes": sum(infos("weights.muckenhoupt_constant")),
        "spaces.OrliczSpace.norm.rows": sum(infos("spaces.OrliczSpace.norm")),
    }


def write_spans(spans: list[list], path: Path) -> None:
    """One CSV row per span: id, name, start and end (s from the first span), parent id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s[1] for s in spans), default=0.0)
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start_s", "end_s", "parent"])
        for i, (name, start, end, parent, _) in enumerate(spans):
            writer.writerow([i, name, repr(start - t0), repr(end - t0), parent])
