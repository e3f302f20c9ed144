"""Every public name of the package earns a caller, or has a stated reason.

A name in a module's ``__all__`` counts as called when some module of
``src/sparsedom``, ``demos`` or ``perfbench`` loads it (as a bare name or
an attribute) outside its own top-level definition.  Tests do not count,
``perfbench/test_*.py`` included:
a name only tests reach is dead weight, unless it is kept below for a
reason that holds without a caller.

The same rule holds for private functions by reach: one whose own name has
a single leading underscore must run in the reach configs (every CLI
battery, the demos and one pass of each perfbench workload), or be kept in
``UNREACHED_KEPT`` for a reason.
"""

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsedom"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

SERIALIZATION = "a serialization round trip the north star requires"
KEPT = {
    "function_from_json": SERIALIZATION,
    "function_to_csv": SERIALIZATION,
    "function_from_csv": SERIALIZATION,
    "space_to_json": SERIALIZATION,
    "space_from_json": SERIALIZATION,
    "phi_table_to_csv": SERIALIZATION,
    "phi_table_from_csv": SERIALIZATION,
    "family_from_json": SERIALIZATION + "; the acceptance tests import it",
    "sparse_form": "the form the optimizers are tested against",
    "GREEDY_FACTOR": "documents the 1/4 guarantee that greedy_captures_quarter checks",
    "maximal_opnorm_lower": "ROADMAP item 6 gives it a battery caller",
    "vv_equivalence_check": "ROADMAP items 7 and 11 give it a battery caller",
    "average": "the perfbench tracer wraps it (ROADMAP items 1 and 3)",
    "stable_muckenhoupt_constant": "ROADMAP item 4 calls it if it needs it",
}


def exported_names() -> dict[str, list[str]]:
    """Public name -> the modules whose ``__all__`` lists it."""
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for entry in node.value.elts:
                    out.setdefault(entry.value, []).append(path.stem)
    return out


def loaded_names(node: ast.AST) -> set[str]:
    """The names ``node`` loads, bare or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


@functools.cache
def callers() -> dict[str, frozenset[str]]:
    """Public name -> the caller files that load it outside its own definition."""
    names = exported_names()
    out: dict[str, set[str]] = {name: set() for name in names}
    for directory in CALLER_DIRS:
        for path in sorted(set(directory.glob("*.py")) - set(directory.glob("test_*.py"))):
            for node in ast.parse(path.read_text()).body:
                # a public def or class loading its own name is not a caller
                own = getattr(node, "name", None)
                if path.stem not in names.get(own, ()):
                    own = None
                for name in loaded_names(node) & out.keys() - {own}:
                    out[name].add(path.name)
    return {name: frozenset(files) for name, files in out.items()}


def test_every_public_name_has_a_caller_or_a_kept_reason():
    orphans = sorted(name for name, files in callers().items() if not files and name not in KEPT)
    assert not orphans, f"public names with no caller outside tests: {orphans}"


def test_kept_names_are_public_and_still_uncalled():
    found = callers()
    assert sorted(set(KEPT) - set(found)) == [], "kept names that are no longer public"
    called = {name: sorted(found[name]) for name in KEPT if found[name]}
    assert not called, f"kept names that gained a caller; drop them from KEPT: {called}"


def traced_names() -> dict[str, tuple[str, str]]:
    """``TRACED`` of perfbench/tracing.py: span name -> (module, attribute path)."""
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no TRACED")


def test_every_traced_name_resolves():
    # the tracer looks each name up with getattr (a method in its class's own
    # __dict__), so a rename shows here and not only in a traced bench run
    unresolved = []
    for span, (modname, attr) in traced_names().items():
        owner = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            found = vars(owner).get(name) if owner is not None else None
        else:
            found = getattr(owner, name, None)
        if not callable(found):
            unresolved.append(span)
    assert not unresolved, f"traced names that no longer resolve: {unresolved}"


UNREACHED_KEPT = {
    "cli._parse_value": "reads --config files, which the reach configs do not pass; tests/test_cli.py runs it",
    "spaces._norming": "the argmax of associate_norm and _norming_field's map; ROADMAP items 7 and 11",
    "spaces._space_payload": SERIALIZATION,
    "spaces._space_from_payload": SERIALIZATION,
    "transfer._ellq_collapse": "vv_equivalence_check's pairing, which ROADMAP items 7 and 11 give a battery caller",
    "transfer._norming_field": "vv_equivalence_check's norming field, which ROADMAP items 7 and 11 give a battery caller",
}

# the reach configs of ROADMAP.md's Baseline: every CLI battery at seed 0,
# then the demos and one pass of each perfbench workload
REACH_BATTERIES = [
    ["all"],
    ["transfer", "--dim", "1", "--depth", "8"],
    ["transfer", "--dim", "2", "--depth", "5"],
    ["stopping", "--dim", "2", "--depth", "6"],
    ["cz", "--dim", "2", "--depth", "6"],
    ["weights", "--dim", "2", "--depth", "5", "--shifts"],
    ["equivalence", "--dim", "1", "--depth", "3"],
    ["exponents"],
]
REACH_WORKLOAD_SEED = 3


def private_functions() -> dict[tuple[str, int], str]:
    """(file, first line) of each def in the package whose own name has one
    leading underscore -> module.qualified name.  The first line is the
    code object's: the first decorator's line for a decorated def."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and child.name.startswith("_") and not child.name.startswith("__"):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[path, first] = name
                visit(child, path, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), path.stem + ".")
    return out


@functools.cache
def reached() -> frozenset[str]:
    """The private functions that run in the reach configs, traced by call.

    Memoized layouts are dropped first, so the configs run as in a fresh
    process: a cache hit from an earlier test would enter no function.
    """
    from sparsedom import cli, dyadic

    dyadic._shifted_layout.cache_clear()

    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno))

    spec = importlib.util.spec_from_file_location("reach_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    previous = sys.gettrace()
    try:
        spec.loader.exec_module(workloads)
        sys.settrace(tracer)
        with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as out:
            for argv in REACH_BATTERIES:
                cli.main([*argv, "--seed", "0", "--out", out])
            for script in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(script), run_name="__main__")
            for build in workloads.WORKLOADS.values():
                for op in build(REACH_WORKLOAD_SEED):
                    op.call()
    finally:
        sys.settrace(previous)
        del sys.modules[spec.name]
    names, real = private_functions(), functools.cache(os.path.realpath)
    return frozenset(names[real(f), line] for f, line in seen if (real(f), line) in names)


def test_every_private_function_runs_or_has_a_kept_reason():
    unreached = sorted(set(private_functions().values()) - reached() - set(UNREACHED_KEPT))
    assert not unreached, f"private functions no reach config runs: {unreached}"


def test_kept_private_functions_exist_and_still_do_not_run():
    assert sorted(set(UNREACHED_KEPT) - set(private_functions().values())) == [], "kept functions that are gone"
    ran = sorted(set(UNREACHED_KEPT) & reached())
    assert not ran, f"kept functions that now run; drop them from UNREACHED_KEPT: {ran}"
