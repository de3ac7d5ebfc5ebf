"""A refused value is one exception: every check raises ValueError, and
the package defines only the errors its boundaries convert it into (see
``bus``)."""

import importlib
import inspect
import pkgutil

import fusionsim


def test_the_package_defines_only_the_boundary_errors():
    modules = [fusionsim] + [importlib.import_module(m.name) for m in
                             pkgutil.walk_packages(fusionsim.__path__, "fusionsim.")]
    defined = {name for module in modules
               for name, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert defined == {"ScenarioError", "ParseError", "ValidationError", "ReplayError"}
