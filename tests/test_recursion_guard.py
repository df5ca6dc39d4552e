"""No function in the package calls itself by name.

Python stops a call chain at its recursion limit (1000 frames by default), so
a recursive search would cap the inputs it can take by their depth rather
than by memory. Every search in pvckit keeps its frames on an explicit stack;
this test keeps it that way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pvckit"


def self_calls(source, filename="<source>"):
    """(function name, line) of each call, anywhere in a function's body
    (nested functions included), to a name equal to the function's own, as
    ``f(...)`` or ``self.f(...)``/``cls.f(...)``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name):
                name = f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                name = f.attr
            else:
                continue
            if name == node.name:
                found.append((node.name, call.lineno))
    return found


def test_no_function_in_the_package_calls_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = ["%s:%d %s" % (path.name, line, name) for path in files
                 for name, line in self_calls(path.read_text(), str(path))]
    assert offenders == []


def test_guard_sees_direct_and_nested_recursion():
    source = '''
def dfs(u):
    return dfs(u + 1)

def outer(x):
    def helper():
        return outer(x - 1)
    return helper()

class Walker:
    def walk(self, v):
        return self.walk(v)

def fine(x):
    return other(x)
'''
    assert self_calls(source) == [("dfs", 3), ("outer", 7), ("walk", 12)]
