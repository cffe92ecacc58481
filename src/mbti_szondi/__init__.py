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

# Each query module's __all__ is declared there once; these bind its names.
from . import boxes, connection, core, interpret, logic
from .boxes import *
from .connection import *
from .connection import _SUITE_NAMES
from .core import *
from .interpret import *
from .logic import *

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


# The query modules' names, then the lazy ones (the submodules themselves
# are reachable but not listed).
__all__ = [
    "__version__",
    *core.__all__,
    *logic.__all__,
    *boxes.__all__,
    *interpret.__all__,
    *connection.__all__,
    *(name for name, module_name in _LAZY.items() if name != module_name),
]
