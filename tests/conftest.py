"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import seifertq.rt


@pytest.fixture(scope="session")
def clear_rt_caches():
    """A function that empties every functools cache of seifertq.rt, so that the next evaluation starts cold."""
    caches = [
        value
        for value in vars(seifertq.rt).values()
        if hasattr(value, "cache_clear") and value.__module__ == seifertq.rt.__name__
    ]

    def clear():
        for cache in caches:
            cache.cache_clear()

    return clear
