"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracing.py`` rebinds library functions and methods by module
and name (``weightfn.psi``, ``mirror.DualityInterface.value``, ...).
Installing it fails when one of them is renamed or deleted, so this test
makes such a change fail here and not only in traced benchmark runs.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # tracing imports workloads
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [*tracing.MODULES,
              *(cls for _, cls, _ in tracing.COUNTED_METHODS + tracing.SPANNED_METHODS)]
    before = [dict(vars(owner)) for owner in owners]
    suites = dict(tracing.cli.SUITES)
    with tracing.Tracer():
        assert tracing.cli.SUITES["mirror"] is not suites["mirror"]
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracing.cli.SUITES == suites
