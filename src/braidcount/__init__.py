"""Exact invariants and counting functions for three-strand braids.

The package works modulo the center of the braid group: elements are
represented in a free product of cyclic groups of orders two and three,
every element carries a unique normal form, and a projection map sends
normal forms to pure-braid words.  Syllable weights of those words give
exact lower and upper bounds for extremal length and entropy, and the
counting module evaluates the number of admissible tuples and words
below a threshold exactly, next to closed-form analytic bounds.

Submodules are registered in ``sys.modules`` and bound here at import
time, but each one executes only when one of its attributes is first
read, so a command runs only the modules it uses.  The public names
below resolve through the submodule that defines them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: submodule -> the public names it defines, re-exported by the package
_PUBLIC = {
    "braid": (
        "BraidSyntaxError", "BraidWord", "CosetElement", "HALF_TWIST", "IDENTITY",
        "NormalForm", "braid_to_text", "conjugate", "embed_pure", "evaluate",
        "half_twist_word", "normal_form", "parse_braid", "pure_projection",
        "remultiply", "s3_image", "sigma_word", "swap_generators", "unembed",
    ),
    "classes": (
        "FamilyWord", "ForbiddenConjugation", "LowerBoundReport", "class_count",
        "class_count_by_enumeration", "enumerate_family", "is_alternating_form",
        "lower_bound_report", "orbit_of", "rotation_conjugator",
        "search_forbidden_conjugations",
    ),
    "counting": (
        "BoundNotApplicable", "WordBoundChain", "bound_tuples_j", "bound_tuples_total",
        "bound_words", "count_tuples", "count_tuples_j", "count_words",
        "count_words_bounded", "count_words_with_bounds", "max_tuple_length",
        "threshold_from_y",
    ),
    "invariants": (
        "BoundInterval", "LogInteger", "Scale", "entropy_bounds",
        "extremal_length_bounds_braid", "extremal_length_bounds_word",
        "lower_weight", "upper_weight",
    ),
    "words": (
        "FreeWord", "Syllable", "SyllableDecomposition", "WordSyntaxError",
        "cyclic_reduce", "free_conjugator", "is_cyclically_reduced",
        "is_cyclically_syllable_reduced", "parse_word", "syllable_decompose",
        "syllable_degrees", "word_to_text",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def _register_lazily(name: str):
    # the recipe of the importlib documentation: the module object exists
    # and is importable at once, and its code runs on first attribute access
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


words = _register_lazily("words")
braid = _register_lazily("braid")
invariants = _register_lazily("invariants")
counting = _register_lazily("counting")
classes = _register_lazily("classes")
oracle = _register_lazily("oracle")
verify = _register_lazily("verify")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
