import importlib
import pkgutil
import sys
import types

import ml2o


def test_one_home_per_name():
    homes = {}
    submodules = set()
    for info in pkgutil.iter_modules(ml2o.__path__):
        submodules.add(info.name)
        mod = importlib.import_module(f"ml2o.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"ml2o.{info.name}.__all__ lists a missing {name!r}"
            assert name not in homes, f"{name!r} is exported by ml2o.{homes[name]} and ml2o.{info.name}"
            homes[name] = info.name
    # the package root holds its version and its submodules, nothing that shadows one
    assert ml2o.unroll is sys.modules["ml2o.unroll"]
    public = {name: value for name, value in vars(ml2o).items() if not name.startswith("_")}
    assert set(public) <= submodules
    assert all(isinstance(value, types.ModuleType) for value in public.values())
    assert isinstance(ml2o.__version__, str)
