"""Quantum invariants of oriented Seifert fibered 3-manifolds.

The package computes Reshetikhin-Turaev invariants of closed Seifert
symbols, Turaev-Viro invariants of closed and bounded symbols (the latter
through the orientation double), certifies the congruence systems that
control their growth, evaluates the resulting lower bounds and LTV
asymptotics, and independently cross-checks levels against a six-j state
sum over triangulations.

The package exports exactly the names listed in its submodules' ``__all__``,
the one declaration of each public name.  ``import seifertq`` loads no
submodule.  The first access to ``__all__`` or to any name without a leading
underscore (an export or a submodule) imports every submodule and binds all
their exports into the package namespace, so later accesses are plain
attribute lookups.
"""

__version__ = "0.1.0"

_SUBMODULES = ("congruence", "errors", "growth", "rootdata", "rt", "statesum", "symbols", "triangulation", "tv")


def __getattr__(name):
    namespace = globals()
    # dunder probes such as __path__ or __wrapped__ must not load the package
    if "__all__" not in namespace and (name == "__all__" or not name.startswith("_")):
        from importlib import import_module

        exports = []
        for module in _SUBMODULES:
            loaded = import_module(f"{__name__}.{module}")
            exports += loaded.__all__
            namespace.update((export, getattr(loaded, export)) for export in loaded.__all__)
        namespace["__all__"] = exports + ["__version__"]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
