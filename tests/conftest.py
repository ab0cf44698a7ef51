"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from importlib.resources import files

import pytest

import seifertq
from seifertq import load_triangulation


@pytest.fixture(scope="session")
def clear_rt_caches():
    """A function that empties every functools cache of every seifertq module, so that the next evaluation starts cold.

    That is rt's caches and congruence._mu, and any cache a module defines later; each is found where it is defined.
    """
    seifertq.__all__  # imports every submodule
    caches = [
        value
        for name, module in sys.modules.items()
        if name.startswith("seifertq.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == name
    ]

    def clear():
        for cache in caches:
            cache.cache_clear()

    return clear


@pytest.fixture(scope="session")
def sphere():
    """The packaged two-tetrahedron 3-sphere: two tetrahedra glued by the identity on all four faces."""
    return load_triangulation(files("seifertq") / "data/s3_two_tet.tri")
