"""Every public name of the package earns a caller, or has a stated reason.

A name in a module's ``__all__`` counts as called when some module of
``src/sparsedom``, ``demos`` or ``perfbench`` loads it (as a bare name or
an attribute) outside its own top-level definition.  Tests do not count,
``perfbench/test_*.py`` included:
a name only tests reach is dead weight, unless it is kept below for a
reason that holds without a caller.
"""

import ast
import functools
import importlib
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
    "cover_cube": "the acceptance tests import it",
    "sparse_form": "the form the optimizers are tested against",
    "GREEDY_FACTOR": "documents the 1/4 guarantee that greedy_captures_quarter checks",
    "maximal_opnorm_lower": "ROADMAP item 6 gives it a battery caller",
    "haar_unconditionality_probe": "ROADMAP item 6 gives it a battery caller",
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
