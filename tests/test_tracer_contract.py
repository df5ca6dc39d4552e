"""The benchmark's tracer wraps pvckit's public functions from outside the
package and checks afterwards that every binding is restored. Renaming or
removing a name it traces breaks the traced benchmark run; this test makes
that show in the unit tests too."""

import importlib
from pathlib import Path

import pvckit
from pvckit import make_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], budget=2, target=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = pvckit.solve_epvcbd(inst)
    finally:
        tracer.uninstall()
    tracing.assert_unpatched()
    assert rep.verdict
    assert "branching.solve_epvcbd" in {span[1] for span in tracer.spans}
