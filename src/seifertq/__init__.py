"""Quantum invariants of oriented Seifert fibered 3-manifolds.

The package computes Reshetikhin-Turaev invariants of closed Seifert
symbols, Turaev-Viro invariants of closed and bounded symbols (the latter
through the orientation double), certifies the congruence systems that
control their growth, evaluates the resulting lower bounds and LTV
asymptotics, and independently cross-checks levels against a six-j state
sum over triangulations.

``import seifertq`` loads no submodule.  The first access to an exported
name or a submodule imports every submodule and binds all exports into the
package namespace, so later accesses are plain attribute lookups.
"""

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "congruence": (
        "CongruenceCertificate",
        "SystemClassification",
        "classify_system",
        "dedekind_sum",
        "enumerate_solutions",
        "mod_inverse",
        "solve_system",
        "system_modulus",
    ),
    "errors": (
        "DegenerateSystemError",
        "DomainError",
        "MalformedInputError",
        "NonInvertibleError",
        "NumericInconsistencyError",
        "SeifertQError",
        "TriangulationError",
    ),
    "growth": ("LemmaCheck", "LowerBound", "LtvSample", "lower_bound", "ltv_scan", "verify_lemma"),
    "rootdata": (
        "RootContext",
        "delta",
        "is_admissible",
        "quantum_factorial",
        "quantum_integer",
        "six_j",
        "tet_symbol",
        "theta",
    ),
    "rt": ("InvariantValue", "rt_closed", "unit_phase", "verlinde_dimension", "z_direct", "z_double_simplified"),
    "statesum": ("enumerate_admissible_colorings", "face_class_triples", "tv_statesum"),
    "symbols": (
        "SeifertSymbol",
        "double",
        "euler_number",
        "normalize",
        "orbifold_euler_characteristic",
        "reverse_orientation",
        "symbol_from_dict",
        "symbol_from_json",
        "symbol_to_dict",
        "symbol_to_json",
    ),
    "triangulation": ("EDGE_SLOTS", "Triangulation", "load_triangulation", "parse_triangulation", "s3_two_tetrahedra"),
    "tv": ("tv_bounded", "tv_closed"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        loaded = import_module(f"{__name__}.{module}")
        for export in names:
            namespace[export] = getattr(loaded, export)
    return namespace[name]
