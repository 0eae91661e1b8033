"""The examples in the ``perms`` docstrings run and hold."""

import doctest

import permspec.perms


def test_perms_doctests():
    result = doctest.testmod(permspec.perms)
    assert result.failed == 0
    assert result.attempted >= 16
