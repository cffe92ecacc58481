"""Computable Galois connection between Myers-Briggs type indicators and
Szondi personality profiles.

The two spaces are finite: 2^16 indicator sets on one side and the
429,981,696 profiles (12 signatures on 8 drive factors) on the other.  A
translation of each indicator into a propositional pivot language over
signed-factor atoms induces an antitone Galois connection: an indicator
set maps to the profiles satisfying the conjunction of its members'
formulas, and a profile set maps to the indicators every member satisfies.
Profile sets are carried symbolically as disjoint unions of signature
boxes, so exact counts over the full space are cheap; independent
brute-force enumeration and randomized law-checking back the symbolic
path.
"""

import importlib

from .boxes import Box, ProfileSet
from .connection import (
    _SUITE_NAMES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    all_right_polarities,
    closure_left,
    closure_right,
    kernel_classes,
    left_polarity,
    right_polarity,
)
from .core import (
    NORM_PROFILE,
    PROFILE_COUNT,
    Factor,
    GrammarError,
    Profile,
    Signature,
    TypeIndicator,
    indicator_set_from_mask,
    indicator_set_mask,
    parse_indicator,
    parse_indicator_set,
    parse_profile,
    parse_signature_subset,
    render_indicator_set,
    render_signature_subset,
)
from .interpret import (
    BASIC_KEYS,
    ConsistencyError,
    Interpretation,
    InterpretationError,
    UnsatisfiableRowError,
    builtin_interpretation,
    load_interpretation,
    perception_dominant,
    profile_formula,
    profiles_formula,
    synthesize_rows,
)
from .logic import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Formula,
    Not,
    Or,
    conj,
    disj,
    entails,
    equivalent,
    evaluate,
    factors_of,
    is_negation_free,
    models,
    parse_formula,
    render_formula,
    satisfiable,
)

__version__ = "1.0.0"

# Names imported on first use, with the submodule that holds each: the
# table, the law suites and the numpy oracle.  A query runs none of them,
# so it loads none of them, nor hashlib, dataclasses or numpy with them.
# Each submodule is reachable under its own name too.
_LAZY = {
    **dict.fromkeys(
        ("cache", "write_cache", "open_cache", "PolarityCache", "CacheError",
         "CacheFormatError", "FingerprintMismatchError", "CorruptEntryError"),
        "cache",
    ),
    **dict.fromkeys(("verification", *_SUITE_NAMES), "verification"),
    **dict.fromkeys(
        ("enumeration", "count_full", "count_restricted", "evaluate_on_digits",
         "restricted_universe", "satisfying_vector"),
        "enumeration",
    ),
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import": the latter asks this hook for the
    # attribute again before importing, and recurses.
    module = importlib.import_module(f"{__name__}.{module_name}")
    return module if name == module_name else getattr(module, name)


__all__ = [
    "__version__",
    # carriers and grammars
    "Signature",
    "Factor",
    "Profile",
    "NORM_PROFILE",
    "PROFILE_COUNT",
    "TypeIndicator",
    "GrammarError",
    "parse_profile",
    "parse_indicator",
    "parse_indicator_set",
    "render_indicator_set",
    "indicator_set_mask",
    "indicator_set_from_mask",
    "render_signature_subset",
    "parse_signature_subset",
    # pivot language
    "Atom",
    "Not",
    "And",
    "Or",
    "TOP",
    "BOTTOM",
    "Formula",
    "conj",
    "disj",
    "evaluate",
    "factors_of",
    "is_negation_free",
    "models",
    "entails",
    "equivalent",
    "satisfiable",
    "parse_formula",
    "render_formula",
    # symbolic profile sets
    "Box",
    "ProfileSet",
    # enumeration oracle
    "evaluate_on_digits",
    "restricted_universe",
    "satisfying_vector",
    "count_restricted",
    "count_full",
    # interpretations
    "Interpretation",
    "builtin_interpretation",
    "synthesize_rows",
    "perception_dominant",
    "profile_formula",
    "profiles_formula",
    "load_interpretation",
    "BASIC_KEYS",
    "InterpretationError",
    "UnsatisfiableRowError",
    "ConsistencyError",
    # the connection
    "right_polarity",
    "left_polarity",
    "closure_left",
    "closure_right",
    "kernel_classes",
    "all_right_polarities",
    "run_verification",
    "verify_facts",
    "verify_lemma",
    "verify_theorem",
    "CheckResult",
    "ConnectionReport",
    "DEFAULT_TRIALS",
    "DEFAULT_SEED",
    # cache
    "write_cache",
    "open_cache",
    "PolarityCache",
    "CacheError",
    "CacheFormatError",
    "FingerprintMismatchError",
    "CorruptEntryError",
]
