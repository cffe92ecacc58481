"""The antitone Galois connection between indicator sets and profile sets.

Both polarity maps are induced by one interpretation: the right polarity of
an indicator set I is the model set of its translation, the conjunction of
the rows of I (``models(interp.lift(I))``, which reuses each row's compiled
set).  A nonempty right polarity is memoized on the interpretation, keyed
by the indicator set and filled through ``interp.lift`` on a miss; on a
plain interpretation that is at most one entry per key of
``interp.covers()``, so the memo is bounded by the formal context.  The
left polarity of a profile set P is the set of indicators whose row every
member of P satisfies, the AND of the masks of the regions P meets.  It is
read off one index of the region boxes, built once per interpretation,
whether P is symbolic or an explicit list of profiles.
The closure on indicator sets takes its →I through ``interp.lift``, so a
broken set translation shows in it.  The characteristic biconditional
P subset-of right(I) iff I subset-of left(P) holds for any interpretation
because set translation is conjunction over members; the suites in
:mod:`mbti_szondi.verification` re-check it rather than take it on faith.
Their names are forwarded from here on first use, so that a query, which
runs no suite, does not load them.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from functools import lru_cache
from operator import itemgetter

from .boxes import ProfileSet, _meeting
from .core import _INDICATORS, INDICATOR_SET_COUNT, Profile, TypeIndicator, indicator_set_from_mask
from .interpret import Interpretation
from .logic import models

__all__ = [
    "right_polarity",
    "left_polarity",
    "closure_left",
    "closure_right",
    "all_right_polarities",
    "kernel_classes",
]

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1729
# The left polarity of every empty profile set, symbolic or explicit.
_ALL_INDICATORS = frozenset(_INDICATORS)
# The suites ``verify`` runs, in the order ``all`` runs them, then ``all``.
VERIFY_SUITES = ("facts", "lemma", "theorem", "all")

# The law suites' names, which are ``verification.__all__``, loaded from
# ``verification`` when first asked for here or on the package.
_SUITE_NAMES = (
    "run_verification",
    "verify_facts",
    "verify_lemma",
    "verify_theorem",
    "CheckResult",
    "ConnectionReport",
)


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def right_polarity(
    interp: Interpretation,
    indicators: Iterable[TypeIndicator],
) -> ProfileSet:
    """Profiles satisfying the translation of the indicator set.

    The empty set translates to TRUE, so its polarity is the full space; a
    singleton translates to its row, so a compound row's polarity is the
    model set memoized on that row, not a copy.  A nonempty answer is
    memoized on ``interp``, keyed by the set, so a set asked again returns
    the same ``ProfileSet``; a miss computes ``models(interp.lift(I))``.
    An empty answer is the shared ``ProfileSet.empty()`` and is not stored.
    """
    key = frozenset(indicators)
    found = interp._polarities.get(key)
    if found is None:
        found = models(interp.lift(key))
        if found:
            interp._polarities[key] = found
    return found


def left_polarity(
    interp: Interpretation,
    profiles: ProfileSet | Iterable[Profile],
) -> frozenset[TypeIndicator]:
    """Indicators whose row is satisfied by every profile in the set.

    Accepts either a symbolic profile set or an explicit collection of
    profiles; both are decided from the region boxes
    (``interp.region_index()``, memoized).  The region boxes a set meets
    are ORed together, and an indicator is kept when every met box lies in
    a region whose mask has its bit.  A box of a symbolic set meets the
    AND over factors of the region boxes admitting one of its signatures;
    a profile lies in exactly one region box, the AND over factors of the
    boxes admitting its signature.  The empty set, either way, yields all
    sixteen indicators as one shared frozenset, with no region index
    built for it.
    """
    if isinstance(profiles, ProfileSet):
        if not profiles.boxes:
            return _ALL_INDICATORS
        signatures, _, indicator_boxes = interp.region_index()
        met = 0
        for box in profiles.boxes:
            met |= _meeting(signatures, box.masks)
    else:
        members = list(profiles)
        if not members:
            return _ALL_INDICATORS
        _, points, indicator_boxes = interp.region_index()
        p0, p1, p2, p3, p4, p5, p6, p7 = points
        met = 0
        for profile in members:
            s0, s1, s2, s3, s4, s5, s6, s7 = profile.signatures
            met |= p0[s0] & p1[s1] & p2[s2] & p3[s3] & p4[s4] & p5[s5] & p6[s6] & p7[s7]
    return frozenset([ind for ind, boxes in indicator_boxes if met & boxes == met])


def closure_left(
    interp: Interpretation,
    indicators: Iterable[TypeIndicator],
) -> frozenset[TypeIndicator]:
    """Left-after-right closure on indicator sets (inflationary)."""
    return left_polarity(interp, right_polarity(interp, indicators))


def closure_right(
    interp: Interpretation,
    profiles: ProfileSet | Iterable[Profile],
) -> ProfileSet:
    """Right-after-left closure on profile sets (inflationary)."""
    return right_polarity(interp, left_polarity(interp, profiles))


def all_right_polarities(interp: Interpretation) -> list[ProfileSet]:
    """Right polarities of all 65,536 indicator sets, indexed by bitmask.

    Masks that cover the same regions share one ``ProfileSet``: the
    polarity of the smallest such mask.  Only the masks of
    ``interp.covers()`` (memoized) cover any region; every other mask
    maps to ``ProfileSet.empty()``.  The covers come from the rows alone,
    so a ``lift`` override shows only in the polarities of their keys.
    """
    table = [ProfileSet.empty()] * INDICATOR_SET_COUNT
    shared = {}
    for mask, cover in interp.covers().items():
        if cover not in shared:
            shared[cover] = right_polarity(interp, indicator_set_from_mask(mask))
        table[mask] = shared[cover]
    return table


@lru_cache(maxsize=1)
def _all_masks() -> tuple[int, ...]:
    """The 65,536 indicator-set masks in order, built on first use (not at
    import, which every command pays for): the empty polarity's class is
    sliced from it, so no call makes its masks afresh."""
    return tuple(range(INDICATOR_SET_COUNT))


def kernel_classes(interp: Interpretation) -> list[list[int]]:
    """Partition of the 65,536 indicator-set bitmasks by right polarity.

    A mask's polarity is the union of the regions whose row mask contains
    it; regions are nonempty and disjoint, so masks share a polarity iff
    they cover the same regions.  The masks of ``interp.covers()``
    (memoized) are grouped by cover; the masks in the gaps between those
    ascending keys cover no region and form the class of the empty
    polarity, a new list of slices of one shared tuple of the masks.
    Classes are returned sorted by their smallest member.
    """
    classes: defaultdict[int, list[int]] = defaultdict(list)
    masks = _all_masks()
    empty: list[int] = []
    start = 0  # the smallest mask not yet placed in a class
    for mask, cover in interp.covers().items():
        classes[cover].append(mask)
        empty += masks[start:mask]
        start = mask + 1
    empty += masks[start:]
    found = list(classes.values())
    if empty:
        found.append(empty)
    return sorted(found, key=itemgetter(0))
