import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kerrdeco

MODULES = sorted(f"kerrdeco.{m.name}" for m in pkgutil.iter_modules(kerrdeco.__path__))


def test_every_module_is_listed():
    assert {"kerrdeco.analytics", "kerrdeco.cli", "kerrdeco.evolution", "kerrdeco.linalg",
            "kerrdeco.measures", "kerrdeco.states", "kerrdeco.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"


def test_every_name_the_benchmark_traces_resolves():
    # the benchmark wraps these by name; a deleted or renamed one would fail only a traced run
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("kerrdeco_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fn}" for table in (tracing.TRACED, tracing.COUNTED)
               for mod, fns in table.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"kerrdeco.{mod}"), fn, None))]
    assert not missing, f"benchmarks/tracing.py names what kerrdeco does not define: {missing}"
