import importlib
import pkgutil

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
