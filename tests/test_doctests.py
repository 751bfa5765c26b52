import doctest
import importlib
import pkgutil

import rmonoid


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(rmonoid.__path__):
        module = importlib.import_module(f"rmonoid.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
