"""Shared test helpers."""

import pytest

import schurkit.cli
import schurkit.exact
import schurkit.partitions
import schurkit.schur
import schurkit.semisimple

MODULES = (schurkit.exact, schurkit.partitions, schurkit.schur, schurkit.semisimple, schurkit.cli)


def clear_schurkit_caches():
    """Empty every functools cache that a schurkit module defines or imports."""
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def clear_caches():
    """The function that empties every schurkit cache, for a test to call when it needs to."""
    return clear_schurkit_caches
