"""Every public name is reached by the package itself.

A name exported from verolab/__init__.py that no module of the package
uses, outside __init__.py and its own definition, is reached only by
tests: delete it with its export and its tests, or list it in KEEP with
the reason it stays.
"""

from __future__ import annotations

import ast
import os

import verolab

KEEP = {
    "contains": "the rank-based membership reference (v in a iff dim(a + <v>) = dim a) that tests compare fast paths against",
    "subspace_le": "the rank-based containment reference (a <= b iff dim(a + b) = dim b) that tests compare fast paths against",
    "rref": "the public reduced row echelon form of a Matrix, the library's elimination entry point",
    "parse_family_text": "fixture I/O: reads the family files that `verolab construct` writes",
    "parse_poly": "fixture I/O: reads the polynomial syntax that format_poly writes",
    "eval_monomial": "the one-monomial evaluation that tests compare veronese_vector against",
}


def _names_used_in_package() -> set[str]:
    """Every Name and attribute referenced in the package's modules other
    than __init__.py, leaving out references inside a definition of the
    same name (a recursive call is not a use)."""
    root = os.path.dirname(verolab.__file__)
    used: set[str] = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for fn in sorted(os.listdir(root)):
        if fn.endswith(".py") and fn != "__init__.py":
            with open(os.path.join(root, fn)) as fh:
                visit(ast.parse(fh.read()), frozenset())
    return used


def _exported() -> list[str]:
    with open(verolab.__file__) as fh:
        tree = ast.parse(fh.read())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def test_every_export_is_used_in_the_package_or_kept():
    used = _names_used_in_package()
    unused = [name for name in _exported() if name not in used and name not in KEEP]
    assert not unused, f"exported but used only by tests: {unused}"


def test_keep_list_names_only_exported_names_unused_in_the_package():
    exported, used = set(_exported()), _names_used_in_package()
    assert all(name in exported and name not in used for name in KEEP)
