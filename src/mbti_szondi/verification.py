"""Randomized law suites for the Galois connection of an interpretation.

The characteristic biconditional P subset-of right(I) iff I subset-of
left(P) holds for any interpretation because set translation is
conjunction over members, but these suites do not take that on faith: they
re-check it (and the antitone/inflationary laws, the monotonicity of the
profile translation and the distinctness of the rows) on randomly drawn
inputs, deciding explicit profile lists by formula evaluation (the rows'
generated function, :meth:`Interpretation.row_program`).  Each law is
decided by one check.  The right polarity is the model set of the set
translation, so ``lemma.antitone-right`` is also the antitonicity of set
translation; the pairwise consistency of the basic translations is decided
where a document loads, which refuses a bad pair.  Only ``verify`` runs
these suites, so no query pays for loading this module.  Its two records
are immutable ``_Value``s, like the package's other values.

Every sampled law takes its inputs from two draws.  An indicator draw is
zero to three distinct indicators, since a larger set almost never has a
nonempty right polarity.  A profile draw is one to eight profiles, all of
them inside a given polarity in half the draws: a uniform sample almost
never lies inside one, which would leave each subset test false.

A subclass of ``Interpretation`` that overrides ``lift`` (say, with
disjunction instead of conjunction) changes the right polarity, so a broken
set translation is seen to fail the lemma and theorem suites.  The region
table, the covers of the indicator sets with a nonempty polarity, the
region-box index that the left polarity of a symbolic set reads and the
row function that the explicit one runs are built from the rows alone and
do not see such an override; it still shows
through ``right_polarity``, and so through the closure ←→I that
``lemma.closure-indicators`` checks.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Sequence
from functools import reduce

from .boxes import ProfileSet
from .connection import (
    _SUITE_NAMES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    VERIFY_SUITES,
    closure_left,
    closure_right,
    left_polarity,
    right_polarity,
)
from .core import (
    _INDICATORS, PROFILE_COUNT, Profile, TypeIndicator, _Value, render_indicator_set, render_payload,
)
from .interpret import Interpretation, profiles_formula
from .logic import entails

__all__ = list(_SUITE_NAMES)

_MAX_SAMPLE = 8
_SHOWN_PROFILES = 3  # a witness lists this many of a profile set, then its total


class CheckResult(_Value):
    """One law's outcome; ``witness`` is the first case against it, or None."""

    __slots__ = _fields = ("name", "passed", "trials", "elapsed", "witness")
    name: str
    passed: bool
    trials: int
    elapsed: float
    witness: str | None

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "elapsed_seconds": round(self.elapsed, 6),
            "witness": self.witness,
        }


class ConnectionReport(_Value):
    """A suite's checks; ``checks`` is a list, so a report is not hashable."""

    __slots__ = _fields = ("suite", "seed", "trials", "fingerprint", "checks")
    __hash__ = None
    suite: str
    seed: int
    trials: int
    fingerprint: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        """The report as ``verify`` prints it, rendered from :meth:`to_payload`."""
        return render_payload(self.to_payload())

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "fingerprint": self.fingerprint,
            "passed": self.passed,
            "checks": [check.to_payload() for check in self.checks],
        }


def _draw_indicators(rng: random.Random) -> frozenset[TypeIndicator]:
    """Zero to three distinct indicators."""
    return frozenset(rng.sample(_INDICATORS, rng.randint(0, 3)))


def _draw_profiles(rng: random.Random, inside: ProfileSet) -> list[Profile]:
    """One to eight profiles, all from ``inside`` in half the draws if nonempty."""
    size = rng.randint(1, _MAX_SAMPLE)
    if inside and rng.random() < 0.5:
        return inside.sample(rng, size)
    return [Profile.from_index(rng.randrange(PROFILE_COUNT)) for _ in range(size)]


def _sub_list(rng: random.Random, profiles: list[Profile]) -> list[Profile]:
    """A nonempty sub-list: each member kept with probability 1/2."""
    return [p for p in profiles if rng.random() < 0.5] or profiles[:1]


def _law(name: str, trials: int, trial: Callable[[], str | None]) -> CheckResult:
    """Run ``trial`` up to ``trials`` times; its first witness fails the law
    and ends the run, so the result counts the trials that ran."""
    start = time.perf_counter()
    witness, ran = None, 0
    while witness is None and ran < trials:
        witness = trial()
        ran += 1
    return CheckResult(name, witness is None, ran, time.perf_counter() - start, witness)


def _format_profiles(profiles: Sequence[Profile]) -> str:
    shown = ", ".join(str(p) for p in profiles[:_SHOWN_PROFILES])
    if len(profiles) > _SHOWN_PROFILES:
        shown += f", ... ({len(profiles)} total)"
    return "{" + shown + "}"


def verify_theorem(
    interp: Interpretation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Randomized check of the characteristic biconditional.

    Each trial draws indicators I and profiles P, all of P inside right(I)
    in a quarter of the draws and inside the rows of I in another quarter,
    so both sides are often true and a too small right(I) shows.  It compares
    P subset-of right(I), decided by membership in the boxes of the compiled
    right polarity, against I subset-of left(P), decided by the explicit left
    polarity, which runs the rows' compiled program over all the profiles of
    P (one bitmask of satisfying members per row; the program is built once
    per interpretation, from its own rows).  The two sides share no code:
    box membership on one, formula evaluation on the other.
    """
    rng = random.Random(seed)

    def biconditional() -> str | None:
        ind_set = _draw_indicators(rng)
        right = right_polarity(interp, ind_set)
        inside = right
        if rng.random() < 0.5:  # the rows' own sets, which no lift override changes
            inside = reduce(ProfileSet.intersect, map(interp.row_set, ind_set), ProfileSet.full())
        profiles = _draw_profiles(rng, inside)
        lhs = all(p in right for p in profiles)
        rhs = ind_set <= left_polarity(interp, profiles)
        if lhs != rhs:
            return (
                f"I={render_indicator_set(ind_set)}  "
                f"P={_format_profiles(profiles)}  "
                f"P⊆→I is {lhs} but I⊆←P is {rhs}"
            )

    return [_law("theorem.biconditional", trials, biconditional)]


def verify_lemma(
    interp: Interpretation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Randomized checks of antitonicity and the two inflationary closures."""
    rng = random.Random(seed)

    def antitone_right() -> str | None:
        small = _draw_indicators(rng)
        large = small | _draw_indicators(rng)
        if not right_polarity(interp, large).issubset(right_polarity(interp, small)):
            return (
                f"I={render_indicator_set(small)} ⊆ "
                f"I'={render_indicator_set(large)} but →I' ⊄ →I"
            )

    def antitone_left() -> str | None:
        large = _draw_profiles(rng, right_polarity(interp, _draw_indicators(rng)))
        small = _sub_list(rng, large)
        if not left_polarity(interp, large) <= left_polarity(interp, small):
            return (
                f"P={_format_profiles(small)} ⊆ "
                f"P'={_format_profiles(large)} but ←P' ⊄ ←P"
            )

    def inflation_indicators() -> str | None:
        ind_set = _draw_indicators(rng)
        closed = closure_left(interp, ind_set)
        if not ind_set <= closed:
            return (
                f"I={render_indicator_set(ind_set)} ⊄ "
                f"←→I={render_indicator_set(closed)}"
            )

    def inflation_profiles() -> str | None:
        profiles = _draw_profiles(rng, right_polarity(interp, _draw_indicators(rng)))
        closed = closure_right(interp, profiles)
        missing = [p for p in profiles if p not in closed]
        if missing:
            return f"{missing[0]} ∉ →←P for P={_format_profiles(profiles)}"

    # One generator feeds the four laws in this order; reordering changes seeded reports.
    return [
        _law("lemma.antitone-right", trials, antitone_right),
        _law("lemma.antitone-left", trials, antitone_left),
        _law("lemma.closure-indicators", trials, inflation_indicators),
        _law("lemma.closure-profiles", trials, inflation_profiles),
    ]


def verify_facts(
    interp: Interpretation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Monotonicity of the profile translation and distinctness of the rows."""
    rng = random.Random(seed)

    def profile_translation_monotone() -> str | None:
        large = _draw_profiles(rng, ProfileSet.empty())
        small = _sub_list(rng, large)
        if not entails(profiles_formula(small), profiles_formula(large)):
            return (
                f"p({_format_profiles(small)}) does not entail "
                f"p({_format_profiles(large)})"
            )

    row_pairs = itertools.combinations(_INDICATORS, 2)
    counts: dict[TypeIndicator, int] = {}  # filled by the first trial

    def rows_distinct() -> str | None:
        # Equal sets have equal counts, so only rows whose counts tie are compared.
        if not counts:
            counts.update((indicator, interp.row_set(indicator).count()) for indicator in _INDICATORS)
        a, b = next(row_pairs)
        if counts[a] == counts[b] and interp.row_set(a) == interp.row_set(b):
            return f"rows {a.name} and {b.name} are equivalent"

    return [
        _law("facts.profile-translation-monotone", trials, profile_translation_monotone),
        _law("facts.rows-distinct", 120, rows_distinct),
    ]


def run_verification(
    interp: Interpretation,
    suite: str = "all",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> ConnectionReport:
    """Run one of ``VERIFY_SUITES`` (``all`` runs the others in order) and collect a report."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    report = ConnectionReport(suite, seed, trials, interp.fingerprint(), [])
    for name in VERIFY_SUITES[:-1]:
        if suite in (name, "all"):
            # verify_facts, verify_lemma or verify_theorem, looked up when called.
            report.checks.extend(globals()[f"verify_{name}"](interp, trials, seed))
    return report
