"""The benchmark's tracer binds capsym functions by name: every name it
lists must exist, or a traced benchmark run fails before its first job."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    missing = [f"{mod}.{name}" for mod, names in tracer.TRACED.items() for name in names
               if not hasattr(importlib.import_module(f"capsym.{mod}"), name)]
    assert missing == []


def test_install_restores_every_binding(tracer):
    modules = [importlib.import_module(f"capsym.{mod}") for mod in tracer.TRACED]
    before = [{k: id(v) for k, v in vars(m).items()} for m in modules]
    t = tracer.Tracer()
    t.install()
    try:
        assert t._patched
    finally:
        t.uninstall()
    assert [{k: id(v) for k, v in vars(m).items()} for m in modules] == before


def test_lu_names_resolve_lazily_to_scipy():
    # the solver uses no LU; `bem` hands the traced names over from scipy
    # on access and keeps them out of its namespace
    import scipy.linalg
    bem = importlib.import_module("capsym.bem")
    assert bem.lu_factor is scipy.linalg.lu_factor and bem.lu_solve is scipy.linalg.lu_solve
    assert "lu_factor" not in vars(bem) and "lu_solve" not in vars(bem)
    with pytest.raises(AttributeError, match="no_such_name"):
        bem.no_such_name
