"""scheme-forge: translation association schemes from cyclotomy.

Exact verification of candidate schemes over finite fields (Gauss periods
in Z[xi_p], dual-signature criterion), eigenmatrices and intersection
numbers, Bannai-Muzychuk fusion, index-2 Gauss sum closed forms, the named
four-/five-class fission families, a two-class conference construction with
its published F_{37^3} four-class fission, and an exhaustive nonexistence
scan over prime-square fields.

The public names below are imported from their modules on first access, so
a command imports only the modules it runs.
"""

import importlib

_EXPORTS = {
    "cyclotomy": ("CyclotomicSystem", "build_cyclotomy", "embed"),
    "finite_field": ("DEFAULT_CAP", "FieldSpec", "build_field", "is_prime",
                     "multiplicative_order"),
    "gauss_sums": ("Index2Params", "class_number", "gauss_sum_index2",
                   "gauss_sum_quadratic", "gauss_sums_all",
                   "index2_comparison", "make_index2_params", "solve_bc"),
    "scheme_core": ("IndexPartition", "SchemeReport", "check_fusion",
                    "dual_classes", "dual_partition", "eigenmatrices",
                    "intersection_numbers", "is_primitive", "is_scheme",
                    "krein_parameters", "symmetrize", "verify_scheme"),
    "constructions": ("BuiltScheme", "SongReproduction",
                      "conference_7mod8", "five_class_3mod8",
                      "five_class_index_sets", "four_class_7mod8",
                      "match_template", "song_example", "three_class_base"),
    "search": ("SearchResult", "exhaustive_nonexistence"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
