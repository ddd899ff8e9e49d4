"""No module of the package reaches into a sibling's private names, and
none builds an immutable record or its equality by hand."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "c2bezout"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module an import names, or "" for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "c2bezout":
        return node.module.partition(".")[2]
    return None


def private_uses(source: str) -> list:
    """"module.name" for each private name of a sibling module that the
    source imports or reads as an attribute."""
    tree = ast.parse(source)
    aliases = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node) is not None:
            module = _sibling(node)
            for alias in node.names:
                if not module:       # from . import point as pt
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("c2bezout.") and alias.asname:
                    aliases[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_the_scan_sees_both_forms():
    src = ("from . import point as pt\n"
           "from .schubert import FreeOrbit, _Hidden\n"
           "from c2bezout.bundles import _helper\n"
           "x = pt._sym_text(s) or pt.p_text(s)\n"
           "y = self._cache\n")
    assert private_uses(src) == ["schubert._Hidden", "bundles._helper",
                                 "point._sym_text"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text()) == []


_RECORD_HOOKS = ("__setattr__", "__delattr__", "__reduce__")


def hand_built_records(source: str) -> list:
    """Each use of object.__setattr__ or object.__delattr__, and each
    definition of __setattr__, __delattr__ or __reduce__, in the source:
    the pieces of a hand-built immutable record, which the tuple base of
    grading.FrozenRecord already provides."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object" and node.attr in _RECORD_HOOKS[:2]):
            found.append(f"object.{node.attr}")
        elif isinstance(node, ast.FunctionDef) and node.name in _RECORD_HOOKS:
            found.append(f"def {node.name}")
        elif isinstance(node, ast.Assign):
            found += [f"{t.id} =" for t in node.targets
                      if isinstance(t, ast.Name) and t.id in _RECORD_HOOKS]
    return found


def test_the_record_scan_sees_every_form():
    src = ("_set = object.__setattr__\n"
           "class R:\n"
           "    def __setattr__(self, name, value): pass\n"
           "    def __delattr__(self, name): object.__delattr__(self, name)\n"
           "    def __reduce__(self): return R, ()\n"
           "    __setattr__ = None\n"
           "    def __getnewargs__(self): return ()\n"
           "setattr(x, 'y', 1)\n")
    assert sorted(hand_built_records(src)) == sorted([
        "object.__setattr__", "def __setattr__", "def __delattr__",
        "object.__delattr__", "def __reduce__", "__setattr__ ="])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_hand_built_records(path):
    assert hand_built_records(path.read_text()) == []


# The classes that may define __eq__: the record base, and the two space
# types, whose values are not records (a space owns its caches, a class
# its space).
EQUALITY_OWNERS = ["grading.FrozenRecord", "projective.Ambient", "projective.ProjClass"]


def equality_definitions(source: str, module: str) -> list:
    """"module.Class" for each class in the source that defines __eq__,
    by a def or an assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [n.id for t in item.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            if "__eq__" in names:
                found.append(f"{module}.{node.name}")
    return found


def test_the_equality_scan_sees_every_form():
    src = ("class A:\n"
           "    def __eq__(self, other): return True\n"
           "class B(A):\n"
           "    __eq__ = A.__eq__\n"
           "class C:\n"
           "    __lt__, __eq__ = None, None\n"
           "class D:\n"
           "    def __ne__(self, other): return False\n"
           "def __eq__(a, b): return a is b\n")
    assert equality_definitions(src, "m") == ["m.A", "m.B", "m.C"]


def test_only_the_record_base_and_the_spaces_define_equality():
    found = [name for path in MODULES
             for name in equality_definitions(path.read_text(), path.stem)]
    assert sorted(found) == EQUALITY_OWNERS
