from __future__ import annotations

import doctest
import importlib
import pkgutil

import smoothchains


def test_src_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(smoothchains.__path__):
        module = importlib.import_module(f"smoothchains.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{module.__name__}: {result.failed} failed"
        attempted += result.attempted
    assert attempted > 0, "no doctest example ran"
