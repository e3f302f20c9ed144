"""Cubes are geometry, not keys: the public API of ``sparse``, ``transfer``
and ``maximal`` holds cube selections as level and index arrays or masks.

A public function's parameters and return annotation, and a public
dataclass's fields, may name ``Cube`` only where ``ALLOWED`` says: the input
side that builds a family from a cube list, and the one view that lists a
family's cubes.  Dunder methods such as ``__init__`` count as public.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsedom"
MODULES = ("sparse", "transfer", "maximal")
ALLOWED = {"sparse.verify_sparse", "sparse.SparseFamily.from_cubes", "sparse.SparseFamily.cubes"}


def names_cube(annotation: ast.AST) -> bool:
    """Whether an annotation mentions ``Cube``, as a name, an attribute or inside a string."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "Cube" or isinstance(node, ast.Attribute) and node.attr == "Cube":
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.search(r"\bCube\b", node.value):
            return True
    return False


def public(name: str) -> bool:
    return not name.startswith("_") or name.startswith("__") and name.endswith("__")


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass" or isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def cube_slots(source: str, prefix: str) -> set[str]:
    """prefix + qualified name of each public function of ``source`` whose
    parameters or return name ``Cube``, and of each public dataclass field
    that does."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) or not public(child.name):
                continue
            name = prefix + child.name
            if isinstance(child, ast.ClassDef):
                fields = [s for s in child.body if isinstance(s, ast.AnnAssign)] if is_dataclass(child) else []
                out.update(f"{name}.{s.target.id}" for s in fields if names_cube(s.annotation))
                visit(child, name + ".")
                continue
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            annotations = [p.annotation for p in params if p.annotation] + [child.returns] * bool(child.returns)
            if any(map(names_cube, annotations)):
                out.add(name)

    visit(ast.parse(source), prefix)
    return out


def test_public_signatures_name_cube_only_where_allowed():
    found = set().union(*(cube_slots((PACKAGE / f"{m}.py").read_text(), m + ".") for m in MODULES))
    assert sorted(found - ALLOWED) == [], "public parameters, returns or fields that name Cube"
    assert sorted(ALLOWED - found) == [], "allowed names that no longer name Cube; drop them from ALLOWED"


def test_the_guard_sees_parameters_returns_and_fields():
    source = """
@dataclass
class Held:
    cubes: list[Cube]
    level: int

class Plain:
    cubes: list[Cube]

class Model:
    def __init__(self, signs: "dict[Cube, float]"): ...
    def _hidden(self, cube: Cube): ...
    def apply(self, *cubes: Cube): ...

def view(family) -> dict[dyadic.Cube, list[int]]: ...
def fine(level: int, cubic: "Cubes") -> list[int]: ...
def _private(cube: Cube) -> Cube: ...
def outer():
    def inner(cube: Cube): ...
"""
    assert cube_slots(source, "m.") == {"m.Held.cubes", "m.Model.__init__", "m.Model.apply", "m.view"}
