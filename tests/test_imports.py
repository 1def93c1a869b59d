"""No module of the package imports a name it never uses.

No linter runs on the package, so a refactor that stops calling an
imported helper leaves the import behind.  This reads each module of
verolab except __init__.py (whose imports are its exports, which
test_exports checks) with the standard library's ast and lists every
name an import binds that no other line of the module reads.
"""

from __future__ import annotations

import ast
import os

import verolab

ROOT = os.path.dirname(verolab.__file__)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for fn in sorted(os.listdir(ROOT)):
        if fn.endswith(".py") and fn != "__init__.py":
            with open(os.path.join(ROOT, fn)) as fh:
                names = _unused_imports(fh.read())
            if names:
                unused[fn] = names
    assert not unused, f"imported but never used: {unused}"


def test_the_guard_sees_a_stale_import():
    source = "from .linalg import _int_rows, span_raw, _span_int\nimport os.path\n\n\ndef f(rows):\n    return _span_int(rows)\n"
    assert sorted(_unused_imports(source)) == ["_int_rows", "os", "span_raw"]
