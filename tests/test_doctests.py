"""The examples in the docstrings of every ``permspec`` module run and hold."""

import doctest
import importlib
import pkgutil

import permspec


def test_module_doctests():
    failed = attempted = 0
    for info in pkgutil.iter_modules(permspec.__path__, "permspec."):
        result = doctest.testmod(importlib.import_module(info.name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 18
