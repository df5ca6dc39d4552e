"""Values check themselves, so no function re-checks what it is handed.

A ``Graph`` runs ``check_graph`` as it is built, so the one place in the
package that reads ``check_graph`` is ``Graph.__post_init__``. No module
reads ``_checked``, the mark that once told built graphs from hand-built
ones, whether as a name, an attribute or a string.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pvckit"


def reads(sources, name):
    """(file name, enclosing definition) of each place ``sources`` (file name
    -> text) reads ``name``: as a loaded name, an attribute or a string.
    Module-level reads are enclosed by ``<module>``; definitions and imports
    do not count."""
    found = []

    def visit(node, filename, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else "%s.%s" % (scope, child.name)
            elif ((isinstance(child, ast.Name) and child.id == name
                   and isinstance(child.ctx, ast.Load))
                  or (isinstance(child, ast.Attribute) and child.attr == name)
                  or (isinstance(child, ast.Constant) and child.value == name)):
                found.append((filename, scope))
            visit(child, filename, inner)

    for filename, source in sources.items():
        visit(ast.parse(source, filename=filename), filename, "<module>")
    return found


def _package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    return sources


def test_check_graph_runs_only_as_a_graph_is_built():
    assert reads(_package(), "check_graph") == [("graph.py", "Graph.__post_init__")]


def test_no_module_reads_the_checked_mark():
    assert reads(_package(), "_checked") == []


def test_guard_sees_names_attributes_and_strings():
    sources = {"a.py": '''
from .b import check_graph


class Graph:
    def __post_init__(self):
        check_graph(self)


def f(g):
    return g._checked or getattr(g, "_checked")


LATE = b.check_graph
'''}
    assert reads(sources, "check_graph") == [("a.py", "Graph.__post_init__"),
                                              ("a.py", "<module>")]
    assert reads(sources, "_checked") == [("a.py", "f"), ("a.py", "f")]
