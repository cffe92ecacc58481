"""Translation of type indicators into the pivot language, and back-ends for
user-supplied alternatives.

The built-in translation interprets extroversion as a positive tendency of
the morality factor hy and introversion as a negative one; the remaining six
faculties are generated from four per-factor templates (the *generating
pattern*): a non-dominant positive factor f yields ``f+ | f+- | f+-_!``, a
non-dominant negative one ``f- | f+- | f+-^!``, and their dominant
counterparts use the quantum tiers ``f+! | f+!! | f+!!! | f+-^!`` and
``f-! | f-!! | f-!!! | f+-_!``.  Feeling conjoins personal warmth (h+) with
empathy (p-); thinking is having-less (k-); the perceptive faculties share
having-more (k+), intuition adds being-more (p+), and sensing adds the
disjunction of the five sense factors (touching h+, hearing e-, seeing hy-,
smelling d+, tasting m+).

Which of the perception/judgment conjuncts is taken at the dominant tier is
decided by the attitude and the J/P flag: extroverts show their dominant
faculty for dealing with the outer world, introverts do not.  So I+J and
E+P mark perception dominant, I+P and E+J mark judgment dominant.

A user may supply their own translation as a flat ``KEY = formula`` text
document: either the ten basic entries (``E I F F! T T! N N! S S!``, the
sixteen rows are then synthesized via the dominance rule) or all sixteen
rows explicitly.  Set translation is always the conjunction over members,
which is what makes any loaded interpretation induce a Galois connection.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from functools import lru_cache
from types import MappingProxyType

from .boxes import ProfileSet
from .core import Factor, GrammarError, Profile, Signature, TypeIndicator
from .logic import (
    And,
    Atom,
    Formula,
    Or,
    conj,
    disj,
    equivalent,
    is_negation_free,
    models,
    parse_formula,
    render_formula,
    satisfiable,
)

__all__ = [
    "Tendency",
    "pattern",
    "Interpretation",
    "InterpretationError",
    "UnsatisfiableRowError",
    "ConsistencyError",
    "BASIC_KEYS",
    "builtin_interpretation",
    "synthesize_rows",
    "dominance_consistent",
    "perception_dominant",
    "profile_formula",
    "profiles_formula",
    "load_interpretation",
    "region_covers",
]

BASIC_KEYS = ("E", "I", "F", "F!", "T", "T!", "N", "N!", "S", "S!")

# Fact 1: the 24 pairs of basic entries that a synthesized row conjoins, so
# each pair's conjunction must be satisfiable: each attitude with every
# faculty entry, and each judgment with the perceptions of the other tier.
_FACT1_PAIRS = tuple(
    [(attitude, key) for attitude in ("E", "I") for key in BASIC_KEYS[2:]]
    + [
        pair
        for j in ("F", "T")
        for pair in ((j, "N!"), (j, "S!"), (j + "!", "N"), (j + "!", "S"))
    ]
)


class InterpretationError(ValueError):
    """An interpretation document that parses but fails validation."""


class UnsatisfiableRowError(InterpretationError):
    def __init__(self, indicator: TypeIndicator):
        self.indicator = indicator
        super().__init__(f"translation of {indicator.name} is unsatisfiable")


class ConsistencyError(InterpretationError):
    def __init__(self, key_a: str, key_b: str):
        self.pair = (key_a, key_b)
        super().__init__(
            f"consistency violation: translations of {key_a} and {key_b} "
            f"exclude each other (their conjunction is unsatisfiable)"
        )


class Tendency(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def pattern(factor: Factor, tendency: Tendency, dominant: bool) -> Formula:
    """The generating-pattern disjunction for one factor."""
    positive = tendency is Tendency.POSITIVE
    if not dominant:
        sigs = (
            (Signature.POS, Signature.AMBI, Signature.AMBI_LOW)
            if positive
            else (Signature.NEG, Signature.AMBI, Signature.AMBI_HIGH)
        )
    else:
        sigs = (
            (Signature.POS1, Signature.POS2, Signature.POS3, Signature.AMBI_HIGH)
            if positive
            else (Signature.NEG1, Signature.NEG2, Signature.NEG3, Signature.AMBI_LOW)
        )
    return Or(tuple(Atom(factor, s) for s in sigs))


# The five sense factors with the tendency their sense carries.
_SENSES = (
    (Factor.H, Tendency.POSITIVE),   # touching
    (Factor.E, Tendency.NEGATIVE),   # hearing
    (Factor.HY, Tendency.NEGATIVE),  # seeing
    (Factor.D, Tendency.POSITIVE),   # smelling
    (Factor.M, Tendency.POSITIVE),   # tasting
)


def _sense_disjunction(dominant: bool) -> Formula:
    """Flat disjunction of the sense factors' generating patterns.

    The patterns are interleaved tier by tier (every factor's head
    signature, then its second one, ...), so the canonical rendering groups
    the way the patterns do.
    """
    patterns = [pattern(factor, tendency, dominant).items for factor, tendency in _SENSES]
    return Or(tuple(atom for tier in zip(*patterns) for atom in tier))


def _builtin_basic() -> dict[str, Formula]:
    hy = Factor.HY
    extro = Or(
        (
            Atom(hy, Signature.POS),
            Atom(hy, Signature.POS1),
            Atom(hy, Signature.POS2),
            Atom(hy, Signature.POS3),
            Atom(hy, Signature.AMBI_HIGH),
        )
    )
    intro = Or(
        (
            Atom(hy, Signature.NEG),
            Atom(hy, Signature.NEG1),
            Atom(hy, Signature.NEG2),
            Atom(hy, Signature.NEG3),
            Atom(hy, Signature.AMBI_LOW),
        )
    )
    pos, neg = Tendency.POSITIVE, Tendency.NEGATIVE
    return {
        "E": extro,
        "I": intro,
        "F": And((pattern(Factor.H, pos, False), pattern(Factor.P, neg, False))),
        "F!": And((pattern(Factor.H, pos, True), pattern(Factor.P, neg, True))),
        "T": pattern(Factor.K, neg, False),
        "T!": pattern(Factor.K, neg, True),
        "N": And((pattern(Factor.K, pos, False), pattern(Factor.P, pos, False))),
        "N!": And((pattern(Factor.K, pos, True), pattern(Factor.P, pos, True))),
        "S": And((pattern(Factor.K, pos, False), _sense_disjunction(False))),
        "S!": And((pattern(Factor.K, pos, True), _sense_disjunction(True))),
    }


def perception_dominant(indicator: TypeIndicator) -> bool:
    """Whether the perception conjunct is the dominant-tier one.

    Extroverts show their dominant faculty for dealing with the outer world
    (named by the J/P flag); introverts show the other one.
    """
    return (indicator.attitude, indicator.flag) in {("I", "J"), ("E", "P")}


def synthesize_rows(basic: dict[str, Formula]) -> dict[TypeIndicator, Formula]:
    """Build the sixteen indicator rows from the ten basic translations."""
    rows = {}
    for ind in TypeIndicator:
        per_dom = perception_dominant(ind)
        per_key = ind.perception + ("!" if per_dom else "")
        jud_key = ind.judgment + ("" if per_dom else "!")
        rows[ind] = And((basic[ind.attitude], basic[per_key], basic[jud_key]))
    return rows


def _builtin_rows(b: dict[str, Formula]) -> dict[TypeIndicator, Formula]:
    # Transcribed row block, kept literal on purpose; a test pins it equal to
    # synthesize_rows(b) so a slip in either place is caught.
    T = TypeIndicator
    return {
        T.ISTJ: And((b["I"], b["S!"], b["T"])),
        T.ISFJ: And((b["I"], b["S!"], b["F"])),
        T.INFJ: And((b["I"], b["N!"], b["F"])),
        T.INTJ: And((b["I"], b["N!"], b["T"])),
        T.ISTP: And((b["I"], b["S"], b["T!"])),
        T.ISFP: And((b["I"], b["S"], b["F!"])),
        T.INFP: And((b["I"], b["N"], b["F!"])),
        T.INTP: And((b["I"], b["N"], b["T!"])),
        T.ESTP: And((b["E"], b["S!"], b["T"])),
        T.ESFP: And((b["E"], b["S!"], b["F"])),
        T.ENFP: And((b["E"], b["N!"], b["F"])),
        T.ENTP: And((b["E"], b["N!"], b["T"])),
        T.ESTJ: And((b["E"], b["S"], b["T!"])),
        T.ESFJ: And((b["E"], b["S"], b["F!"])),
        T.ENFJ: And((b["E"], b["N"], b["F!"])),
        T.ENTJ: And((b["E"], b["N"], b["T!"])),
    }


class Interpretation:
    """A translation of indicators into the pivot language.

    Immutable after construction.  ``rows`` is a read-only mapping of every
    indicator to its formula; ``basic`` holds the ten basic translations
    when they are known (the built-in one, and documents that supply them).
    Set translation (:meth:`lift`) is the conjunction over members, empty
    set to TRUE.  The row model sets, the region table derived from them,
    the region covers and the fingerprint are memoized, which is sound only
    because the rows cannot change.
    """

    def __init__(
        self,
        rows: dict[TypeIndicator, Formula],
        basic: dict[str, Formula] | None = None,
        warnings: Iterable[str] = (),
    ):
        missing = [i.name for i in TypeIndicator if i not in rows]
        if missing:
            raise ValueError(f"interpretation missing rows: {', '.join(missing)}")
        self.rows = MappingProxyType(dict(rows))
        self.basic = dict(basic) if basic is not None else None
        self.warnings = tuple(warnings)
        self._row_sets: dict[TypeIndicator, ProfileSet] = {}
        self._regions: tuple[tuple[int, ProfileSet], ...] | None = None
        self._covers: tuple[int, ...] | None = None
        self._fingerprint: str | None = None

    def row(self, indicator: TypeIndicator) -> Formula:
        return self.rows[indicator]

    def row_set(self, indicator: TypeIndicator) -> ProfileSet:
        """Model set of one row (memoized)."""
        cached = self._row_sets.get(indicator)
        if cached is None:
            cached = models(self.rows[indicator])
            self._row_sets[indicator] = cached
        return cached

    def regions(self) -> tuple[tuple[int, ProfileSet], ...]:
        """The formal context: nonempty cells of the partition the row sets cut.

        Each entry is ``(mask, region)``: bit *i* of ``mask`` is set iff the
        members of ``region`` satisfy the *i*-th indicator's row.  Regions are
        pairwise disjoint, cover the whole profile space and have distinct
        masks, so the right polarity of an indicator set is the union of the
        regions whose mask contains it.  Built on first use by splitting the
        full space on each row set in turn, then memoized.
        """
        if self._regions is None:
            cells = [(0, ProfileSet.full())]
            for ind in TypeIndicator:
                row = self.row_set(ind)
                split = []
                for mask, cell in cells:
                    inside, outside = cell.intersect(row), cell.subtract(row)
                    if inside:
                        split.append((mask | 1 << ind, inside))
                    if outside:
                        split.append((mask, outside))
                cells = split
            self._regions = tuple(cells)
        return self._regions

    def covers(self) -> tuple[int, ...]:
        """Entry I: the bitset of ``regions()`` whose mask contains indicator
        set I, for all 65,536 masks (see :func:`region_covers`; memoized)."""
        if self._covers is None:
            self._covers = tuple(region_covers([mask for mask, _ in self.regions()]))
        return self._covers

    def lift(self, indicators: Iterable[TypeIndicator]) -> Formula:
        """Translation of an indicator set: conjunction over members."""
        return conj(self.rows[i] for i in sorted(set(indicators)))

    @property
    def negation_free(self) -> bool:
        return all(is_negation_free(f) for f in self.rows.values())

    def document(self) -> str:
        """The sixteen rows as a loadable interpretation document."""
        lines = [f"{i.name} = {render_formula(self.rows[i])}" for i in TypeIndicator]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """Stable hash of the canonical serialization of the sixteen rows (memoized)."""
        if self._fingerprint is None:
            import hashlib  # here, not at the top: a query takes no fingerprint

            self._fingerprint = hashlib.sha256(self.document().encode("utf-8")).hexdigest()
        return self._fingerprint


def region_covers(region_masks: Sequence[int]) -> list[int]:
    """For each of the 65,536 indicator-set masks, the regions it covers.

    ``region_masks[r]`` is region r's "rows satisfied" mask; bit r of entry
    I is set iff that mask contains I, so the right polarity of I is the
    union of those regions.  Subset-lattice DP: a mask with highest bit b
    covers what mask - 2**b covers, less the regions outside row b.
    """
    covers = [(1 << len(region_masks)) - 1]
    for bit in range(16):
        row_regions = sum(1 << r for r, mask in enumerate(region_masks) if mask >> bit & 1)
        covers += [cover & row_regions for cover in covers]
    return covers


@lru_cache(maxsize=1)
def builtin_interpretation() -> Interpretation:
    basic = _builtin_basic()
    return Interpretation(_builtin_rows(basic), basic)


def dominance_consistent(interp: Interpretation) -> bool:
    """Whether every row equals (semantically) the rule-synthesized row.

    Requires the basic translations; raises ValueError without them.
    """
    if interp.basic is None:
        raise ValueError("dominance consistency needs the ten basic translations")
    synthesized = synthesize_rows(interp.basic)
    return all(equivalent(interp.rows[i], synthesized[i]) for i in TypeIndicator)


def profile_formula(profile: Profile) -> Formula:
    """Conjunction of the profile's eight signed-factor atoms."""
    return And(tuple(Atom(f, profile.signatures[f]) for f in Factor))


def profiles_formula(profiles: Iterable[Profile]) -> Formula:
    """Disjunction over a profile set's members; empty set to FALSE."""
    unique = sorted(set(profiles), key=lambda p: p.index())
    return disj(profile_formula(p) for p in unique)


_ROW_KEYS = tuple(i.name for i in TypeIndicator)


def _parse_document(text: str) -> dict[str, tuple[Formula, int]]:
    entries: dict[str, tuple[Formula, int]] = {}
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
            formula = parse_formula(body.strip())
        except GrammarError as exc:
            raise GrammarError(f"in entry {key!r}: {exc}", line=lineno) from exc
        entries[key] = (formula, lineno)
    return entries


def _check_fact1(basic: dict[str, Formula]) -> None:
    for key_a, key_b in _FACT1_PAIRS:
        if not satisfiable(And((basic[key_a], basic[key_b]))):
            raise ConsistencyError(key_a, key_b)


def load_interpretation(text: str) -> Interpretation:
    """Parse and validate an interpretation document.

    The document supplies either the ten basic translations (rows are then
    synthesized via the dominance rule) or all sixteen rows explicitly.
    Validation reports the most specific cause first: a basic entry that is
    itself unsatisfiable, then a pair of basic entries whose conjunction is
    unsatisfiable, then an unsatisfiable row (in basic mode that means a
    three-way conflict).  An overlap between the E and I translations is
    legal but reported as a warning.
    """
    entries = _parse_document(text)
    basic_given = [k for k in entries if k in BASIC_KEYS]
    rows_given = [k for k in entries if k in _ROW_KEYS]
    if basic_given and rows_given:
        raise GrammarError(
            "document mixes basic entries with explicit rows; supply either "
            "the 10 basic formulas or all 16 rows"
        )
    warnings: list[str] = []
    if basic_given:
        missing = [k for k in BASIC_KEYS if k not in entries]
        if missing:
            raise GrammarError(f"missing basic entries: {', '.join(missing)}")
        basic = {k: entries[k][0] for k in BASIC_KEYS}
        for key in BASIC_KEYS:
            if not satisfiable(basic[key]):
                raise InterpretationError(
                    f"basic translation of {key!r} is unsatisfiable"
                )
        _check_fact1(basic)
        rows = synthesize_rows(basic)
    else:
        missing = [k for k in _ROW_KEYS if k not in entries]
        if missing:
            raise GrammarError(f"missing indicator rows: {', '.join(missing)}")
        basic = None
        rows = {TypeIndicator[k]: entries[k][0] for k in _ROW_KEYS}

    for indicator in TypeIndicator:
        if not satisfiable(rows[indicator]):
            raise UnsatisfiableRowError(indicator)
    if basic is not None:
        if satisfiable(And((basic["E"], basic["I"]))):
            warnings.append(
                "translations of E and I overlap (their conjunction is "
                "satisfiable); the built-in translation keeps them exclusive"
            )
    return Interpretation(rows, basic, warnings)
