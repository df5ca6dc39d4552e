"""No module in the package imports a name it never uses.

No linter runs on this code, so an import left behind by a refactor would stay
unnoticed. A name counts as used when it is read anywhere in the module or
listed in ``__all__``; ``__init__.py`` re-exports what it imports, so it is
exempt. An import line marked ``# noqa`` is exempt too: it keeps a binding on
purpose, as ``branching`` does for ``residual``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pvckit"


def unused_imports(source, filename="<source>"):
    """(name, line) of each imported name the module never reads."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return [(name, line) for name, line in imported if name not in used]


def test_no_module_in_the_package_imports_an_unused_name():
    files = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert files
    offenders = ["%s:%d %s" % (path.name, line, name) for path in files
                 for name, line in unused_imports(path.read_text(), str(path))]
    assert offenders == []


def test_guard_sees_unused_names_and_honors_noqa():
    source = '''
from __future__ import annotations

import os
import os.path
import time as clock
from dataclasses import dataclass, replace
from .graph import Graph  # noqa: F401  kept on purpose

__all__ = ["replace"]


@dataclass
class Point:
    x: int


def now():
    return clock.time()
'''
    assert unused_imports(source) == [("os", 4), ("os", 5)]
