"""No private module-level name in the package is left unused.

A private function, class or constant (a module-level name with one leading
underscore) is not part of the public API, so once the package itself stops
reading it, it is dead code that a refactor left behind. A name counts as
used when some statement of the package other than its own definition reads
it: as a name, as an attribute (``module._name``) or in an import. Dunders
such as ``__all__`` are exempt. Tests may not keep a private name alive on
their own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pvckit"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(stmt):
    """Private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if _private(name)]


def _read(stmt):
    """Names a statement reads: loaded names, attributes and imported names."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def dead_private_names(sources):
    """(file name, private name, line) of each module-level private name that
    no statement of ``sources`` (file name -> text) reads outside its own
    definition."""
    defined = []
    used = set()
    for filename, source in sources.items():
        for stmt in ast.parse(source, filename=filename).body:
            names = _defined(stmt)
            defined += [(filename, name, stmt.lineno) for name in names]
            used |= _read(stmt) - set(names)
    return [(filename, name, line) for filename, name, line in defined if name not in used]


def test_no_private_name_in_the_package_is_dead():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert dead_private_names(sources) == []


def test_guard_sees_dead_names_and_cross_module_use():
    sources = {
        "a.py": '''
from .b import _helper

_LIMIT = 3
_UNUSED_LIMIT = 4
__all__ = ["run"]


def _walk(x):
    return _walk(x - 1) if x else 0


class _Box:
    pass


def _gone():
    pass


def run():
    return _helper(_LIMIT)
''',
        "b.py": '''
import a


def _helper(x):
    return a._Box(), x
''',
    }
    assert dead_private_names(sources) == [("a.py", "_UNUSED_LIMIT", 5),
                                           ("a.py", "_walk", 9),
                                           ("a.py", "_gone", 17)]
