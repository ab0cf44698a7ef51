"""Fixtures shared by the test modules."""

from __future__ import annotations

from importlib.resources import files

import pytest

import seifertq.rt
from seifertq import load_triangulation


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


@pytest.fixture(scope="session")
def sphere():
    """The packaged two-tetrahedron 3-sphere: two tetrahedra glued by the identity on all four faces."""
    return load_triangulation(files("seifertq") / "data/s3_two_tet.tri")
