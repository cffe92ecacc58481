"""Translation of type indicators into the pivot language, and back-ends for
user-supplied alternatives.

A translation is a flat ``KEY = formula`` text document: either the ten
basic entries (``E I F F! T T! N N! S S!``, the sixteen rows are then
synthesized via the dominance rule) or all sixteen rows explicitly.  Set
translation is always the conjunction over members, which is what makes
any loaded interpretation induce a Galois connection.

The built-in translation is the basic document ``_BUILTIN_DOCUMENT``,
synthesized like any other.  It interprets extroversion as a positive
tendency of the morality factor hy and introversion as a negative one; the
remaining six faculties follow four per-factor templates: a non-dominant
positive factor f yields ``f+ | f+- | f+-_!``, a non-dominant negative one
``f- | f+- | f+-^!``, and their dominant counterparts use the quantum tiers
``f+! | f+!! | f+!!! | f+-^!`` and ``f-! | f-!! | f-!!! | f+-_!``.  Feeling
conjoins personal warmth (h+) with empathy (p-); thinking is having-less
(k-); the perceptive faculties share having-more (k+), intuition adds
being-more (p+), and sensing adds the disjunction of the five sense factors
(touching h+, hearing e-, seeing hy-, smelling d+, tasting m+), interleaved
tier by tier.

Which of the perception/judgment conjuncts is taken at the dominant tier is
decided by the attitude and the J/P flag: extroverts show their dominant
faculty for dealing with the outer world, introverts do not.  So I+J and
E+P mark perception dominant, I+P and E+J mark judgment dominant.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations, compress
from types import MappingProxyType

from .boxes import ProfileSet, _SignatureIndex, _signature_index
from .core import GrammarError, InterpretationError, Profile, TypeIndicator
from .logic import (
    _ATOMS,
    And,
    Formula,
    _fold,
    _render_node,
    conj,
    disj,
    is_negation_free,
    models,
    parse_formula,
    satisfiable,
)

__all__ = ["Interpretation", "builtin_interpretation", "load_interpretation"]

BASIC_KEYS = ("E", "I", "F", "F!", "T", "T!", "N", "N!", "S", "S!")

# The built-in translation as a basic document, one line per basic key.
_BUILTIN_DOCUMENT = """\
E = hy+ | hy+! | hy+!! | hy+!!! | hy+-^!
I = hy- | hy-! | hy-!! | hy-!!! | hy+-_!
F = (h+ | h+- | h+-_!) & (p- | p+- | p+-^!)
F! = (h+! | h+!! | h+!!! | h+-^!) & (p-! | p-!! | p-!!! | p+-_!)
T = k- | k+- | k+-^!
T! = k-! | k-!! | k-!!! | k+-_!
N = (k+ | k+- | k+-_!) & (p+ | p+- | p+-_!)
N! = (k+! | k+!! | k+!!! | k+-^!) & (p+! | p+!! | p+!!! | p+-^!)
S = (k+ | k+- | k+-_!) & (h+ | e- | hy- | d+ | m+ | h+- | e+- | hy+- | d+- | m+- | h+-_! | e+-^! | hy+-^! | d+-_! | m+-_!)
S! = (k+! | k+!! | k+!!! | k+-^!) & (h+! | e-! | hy-! | d+! | m+! | h+!! | e-!! | hy-!! | d+!! | m+!! | h+!!! | e-!!! | hy-!!! | d+!!! | m+!!! | h+-^! | e+-_! | hy+-_! | d+-^! | m+-^!)
"""

# What ``Interpretation.region_index`` returns: the signature index of the
# region boxes, per factor the boxes admitting each one signature, and per
# indicator the boxes of the regions with its bit.
_RegionIndex = tuple[
    _SignatureIndex, tuple[tuple[int, ...], ...], tuple[tuple[TypeIndicator, int], ...]
]


def perception_dominant(indicator: TypeIndicator) -> bool:
    """Whether the perception conjunct is the dominant-tier one.

    Extroverts show their dominant faculty for dealing with the outer world
    (named by the J/P flag); introverts show the other one.
    """
    return (indicator.attitude, indicator.flag) in {("I", "J"), ("E", "P")}


def _row_keys(indicator: TypeIndicator) -> tuple[str, str, str]:
    """The basic keys an indicator's row conjoins: attitude, perception, judgment."""
    per_mark, jud_mark = ("!", "") if perception_dominant(indicator) else ("", "!")
    return indicator.attitude, indicator.perception + per_mark, indicator.judgment + jud_mark


def synthesize_rows(basic: dict[str, Formula]) -> dict[TypeIndicator, Formula]:
    """Build the sixteen indicator rows from the ten basic translations."""
    return {ind: And(tuple([basic[key] for key in _row_keys(ind)])) for ind in TypeIndicator}


# Fact 1: the 24 pairs of basic entries that a synthesized row conjoins, so
# each pair's conjunction must be satisfiable; in BASIC_KEYS order.
_CONJOINED = {frozenset(pair) for i in TypeIndicator for pair in combinations(_row_keys(i), 2)}
_FACT1_PAIRS = tuple(pair for pair in combinations(BASIC_KEYS, 2) if frozenset(pair) in _CONJOINED)


class Interpretation:
    """A translation of indicators into the pivot language.

    Immutable after construction.  ``rows`` is a read-only mapping of every
    indicator to its formula; ``basic`` holds the ten basic translations
    when they are known (the built-in one, and documents that supply them).
    Set translation (:meth:`lift`) is the conjunction over members, empty
    set to TRUE.  The region table (cut by the row sets, which ``models``
    keeps on each row's node), the covers of the indicator sets with a
    nonempty polarity, the index of the region boxes that every left
    polarity reads, the fingerprint and the warnings are memoized, which
    is sound only because rows cannot change.  Each nonempty right
    polarity that :func:`~mbti_szondi.connection.right_polarity` computes
    is memoized too, keyed by the indicator set and filled on a miss with
    ``models(self.lift(I))``; that is sound because rows cannot change and
    ``lift`` is a function of its argument, and a subclass that overrides
    ``lift`` fills its own memo with its own sets.  An empty polarity is
    not stored, so on a plain interpretation the memo's keys are among the
    keys of :meth:`covers` (61 for the built-in).
    """

    def __init__(
        self,
        rows: dict[TypeIndicator, Formula],
        basic: dict[str, Formula] | None = None,
    ):
        missing = [i.name for i in TypeIndicator if i not in rows]
        if missing:
            raise ValueError(f"interpretation missing rows: {', '.join(missing)}")
        self.rows = MappingProxyType(dict(rows))
        self.basic = dict(basic) if basic is not None else None
        self._warnings: tuple[str, ...] | None = None
        self._regions: tuple[tuple[int, ProfileSet], ...] | None = None
        self._covers: MappingProxyType[int, int] | None = None
        self._region_index: _RegionIndex | None = None
        self._fingerprint: str | None = None
        self._polarities: dict[frozenset[TypeIndicator], ProfileSet] = {}

    def row(self, indicator: TypeIndicator) -> Formula:
        return self.rows[indicator]

    @property
    def warnings(self) -> tuple[str, ...]:
        """What is legal but notable, from the basic entries (memoized): the
        E and I translations overlap.  Rows alone give no warning."""
        if self._warnings is None:
            self._warnings = ()
            if self.basic is not None and satisfiable(And((self.basic["E"], self.basic["I"]))):
                self._warnings = (
                    "translations of E and I overlap (their conjunction is "
                    "satisfiable); the built-in translation keeps them exclusive",
                )
        return self._warnings

    def row_set(self, indicator: TypeIndicator) -> ProfileSet:
        """Model set of one row, memoized by ``models`` on a compound row's node."""
        return models(self.rows[indicator])

    def regions(self) -> tuple[tuple[int, ProfileSet], ...]:
        """The formal context: nonempty cells of the partition the row sets cut.

        Each entry is ``(mask, region)``: bit *i* of ``mask`` is set iff the
        members of ``region`` satisfy the *i*-th indicator's row.  Regions are
        pairwise disjoint, cover the whole profile space and have distinct
        masks, so the right polarity of an indicator set is the union of the
        regions whose mask contains it.  Built on first use by splitting the
        full space on each row set in turn, then memoized; a cell the row
        misses is kept whole, with no subtraction.
        """
        if self._regions is None:
            cells = [(0, ProfileSet.full())]
            for ind in TypeIndicator:
                row = self.row_set(ind)
                split = []
                for mask, cell in cells:
                    inside = cell.intersect(row)
                    if inside:
                        split.append((mask | 1 << ind, inside))
                        outside = cell.subtract(row)
                    else:
                        outside = cell
                    if outside:
                        split.append((mask, outside))
                cells = split
            self._regions = tuple(cells)
        return self._regions

    def covers(self) -> MappingProxyType[int, int]:
        """Read-only mapping from each indicator-set mask I whose right
        polarity is nonempty to the bitset of ``regions()`` whose mask
        contains I, in ascending order of I (see :func:`region_covers`;
        memoized).  A mask that is not a key covers no region."""
        if self._covers is None:
            self._covers = MappingProxyType(region_covers([mask for mask, _ in self.regions()]))
        return self._covers

    def region_index(self) -> _RegionIndex:
        """The boxes of ``regions()``, numbered in order, indexed as bitsets
        (memoized): ``(signatures, points, indicator_boxes)``.

        ``signatures`` gives, per factor, the boxes admitting a signature
        of any mask (``boxes._signature_index``); ``points[f][s]`` is its
        entry for the one signature s on factor f; ``indicator_boxes``
        pairs each indicator with the boxes whose region's mask has its
        bit.  A profile set meets the boxes that one of its own boxes meets
        on every factor, a profile lies in the one box that admits each of
        its signatures, and the indicators whose boxes include all the
        boxes met are the left polarity.
        """
        if self._region_index is None:
            entries = [(mask, box) for mask, region in self.regions() for box in region.boxes]
            signatures = _signature_index([box.masks for _, box in entries])
            points = tuple(
                tuple(half[1 << s] for half in halves for s in range(6)) for halves in signatures
            )
            indicator_boxes = tuple(
                (ind, sum(1 << b for b, (mask, _) in enumerate(entries) if mask >> ind & 1))
                for ind in TypeIndicator
            )
            self._region_index = (signatures, points, indicator_boxes)
        return self._region_index

    def lift(self, indicators: Iterable[TypeIndicator]) -> Formula:
        """Translation of an indicator set: conjunction over members.

        The conjunction shares each member's row node, so its model set is
        built from the rows' compiled sets; the empty set lifts to TOP and
        a singleton to its row itself, with no new node."""
        return conj([self.rows[i] for i in sorted(set(indicators))])

    @property
    def negation_free(self) -> bool:
        return all(is_negation_free(f) for f in self.rows.values())

    def document(self) -> str:
        """The sixteen rows as a loadable interpretation document, rendered
        in one fold, so a basic entry that several rows share is rendered once."""
        texts = _fold([self.rows[i] for i in TypeIndicator], str, _render_node)
        return "".join(f"{i.name} = {text}\n" for i, text in zip(TypeIndicator, texts))

    def fingerprint(self) -> str:
        """Stable hash of the canonical serialization of the sixteen rows (memoized)."""
        if self._fingerprint is None:
            import hashlib  # here, not at the top: a query takes no fingerprint

            self._fingerprint = hashlib.sha256(self.document().encode("utf-8")).hexdigest()
        return self._fingerprint


def region_covers(region_masks: Sequence[int]) -> dict[int, int]:
    """The regions each indicator-set mask covers, for the masks that cover any.

    ``region_masks[r]`` is region r's "rows satisfied" mask; bit r of a
    mask I's cover is set iff that mask contains I, so the right polarity
    of I is the union of those regions.  The keys are the masks with a
    nonzero cover, the subsets of the region masks, in ascending order; any
    other mask covers no region.  Subset-lattice DP over those masks only:
    a mask with highest bit b covers what mask - 2**b covers, less the
    regions outside row b, and is kept when that leaves a region.
    """
    masks = [0]
    covers = [(1 << len(region_masks)) - 1]
    for bit in range(16):
        row_regions = sum(1 << r for r, mask in enumerate(region_masks) if mask >> bit & 1)
        hits = [cover & row_regions for cover in covers]
        step = 1 << bit
        masks += [mask + step for mask in compress(masks, hits)]
        covers += filter(None, hits)
    return dict(zip(masks, covers))


@lru_cache(maxsize=1)
def builtin_interpretation() -> Interpretation:
    """The built-in translation: ``_BUILTIN_DOCUMENT``, synthesized like any
    basic document.  It is not outside input, so it skips the satisfiability
    checks of :func:`load_interpretation`; a test runs them instead."""
    entries = _parse_document(_BUILTIN_DOCUMENT)
    basic = {key: entries[key] for key in BASIC_KEYS}
    return Interpretation(synthesize_rows(basic), basic)


def profile_formula(profile: Profile) -> Formula:
    """Conjunction of the profile's eight signed-factor atoms."""
    return And(tuple([atoms[s] for atoms, s in zip(_ATOMS, profile.signatures)]))


def profiles_formula(profiles: Iterable[Profile]) -> Formula:
    """Disjunction over a profile set's members; empty set to FALSE."""
    # Signature tuples order like the base-12 index (h the most significant
    # digit), so the members are deduplicated and ordered by them.
    unique = {p.signatures: p for p in profiles}
    return disj(profile_formula(unique[signatures]) for signatures in sorted(unique))


_ROW_KEYS = tuple(i.name for i in TypeIndicator)


def _parse_document(text: str) -> dict[str, Formula]:
    entries: dict[str, Formula] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GrammarError("expected 'KEY = formula'", line=lineno)
        key, _, body = line.partition("=")
        key = key.strip().upper()
        if key not in BASIC_KEYS and key not in _ROW_KEYS:
            raise GrammarError(f"unknown interpretation key {key!r}", line=lineno)
        if key in entries:
            raise GrammarError(f"duplicate entry for {key!r}", line=lineno)
        try:
            entries[key] = parse_formula(body.strip())
        except GrammarError as exc:
            raise GrammarError(f"in entry {key!r}: {exc}", line=lineno) from exc
    return entries


def load_interpretation(text: str) -> Interpretation:
    """Parse and validate an interpretation document.

    The document supplies either the ten basic translations (rows are then
    synthesized via the dominance rule) or all sixteen rows explicitly.
    Validation is one ordered list of formulas, and the first unsatisfiable
    one is reported, so the most specific cause comes first: the basic
    entries in ``BASIC_KEYS`` order, then the pairs of ``_FACT1_PAIRS``,
    then the rows in indicator order (in basic mode an unsatisfiable row
    means a three-way conflict).
    """
    entries = _parse_document(text)
    basic_given = any(k in BASIC_KEYS for k in entries)
    if basic_given and any(k in _ROW_KEYS for k in entries):
        raise GrammarError(
            "document mixes basic entries with explicit rows; supply either "
            "the 10 basic formulas or all 16 rows"
        )
    missing = [k for k in (BASIC_KEYS if basic_given else _ROW_KEYS) if k not in entries]
    if missing:
        what = "basic entries" if basic_given else "indicator rows"
        raise GrammarError(f"missing {what}: {', '.join(missing)}")
    if basic_given:
        basic = {k: entries[k] for k in BASIC_KEYS}
        rows = synthesize_rows(basic)
        checks = [(basic[k], f"basic translation of {k!r} is unsatisfiable") for k in BASIC_KEYS]
        checks += [
            (And((basic[a], basic[b])), f"consistency violation: translations of {a} and {b} "
             "exclude each other (their conjunction is unsatisfiable)")
            for a, b in _FACT1_PAIRS
        ]
    else:
        basic, checks = None, []
        rows = {TypeIndicator[k]: entries[k] for k in _ROW_KEYS}
    checks += [(rows[i], f"translation of {i.name} is unsatisfiable") for i in TypeIndicator]
    for formula, message in checks:
        if not satisfiable(formula):
            raise InterpretationError(message)
    return Interpretation(rows, basic)
