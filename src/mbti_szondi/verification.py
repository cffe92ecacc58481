"""Randomized law suites for the Galois connection of an interpretation.

The characteristic biconditional P subset-of right(I) iff I subset-of
left(P) holds for any interpretation because set translation is
conjunction over members, but these suites do not take that on faith: they
re-check it (and the antitone/inflationary laws, and the pairwise
consistency facts) on randomly drawn inputs, deciding explicit profile
lists by formula evaluation.  Only ``verify`` runs them, so no query pays
for loading this module.

A subclass of ``Interpretation`` that overrides ``lift`` (say, with
disjunction instead of conjunction) changes the right polarity and the
set-translation check alike, so a deliberately broken set translation is
seen to fail; a checker that cannot reject that would itself be broken.
The region table and covers are built from the rows alone and do not see
such an override.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .boxes import ProfileSet
from .connection import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    closure_left,
    closure_right,
    left_polarity,
    right_polarity,
)
from .core import PROFILE_COUNT, Profile, TypeIndicator, render_indicator_set
from .interpret import _FACT1_PAIRS, Interpretation, profiles_formula
from .logic import And, entails, satisfiable

__all__ = [
    "CheckResult",
    "ConnectionReport",
    "verify_facts",
    "verify_lemma",
    "verify_theorem",
    "run_verification",
]

_MAX_SAMPLE = 64


@dataclass
class CheckResult:
    name: str
    passed: bool
    trials: int
    elapsed: float
    witness: str | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}  ({self.trials} trials, {self.elapsed:.2f}s)"
        if self.detail:
            text += f"  [{self.detail}]"
        if self.witness:
            text += f"\n      witness: {self.witness}"
        return text


@dataclass
class ConnectionReport:
    suite: str
    seed: int
    trials: int
    fingerprint: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            f"verification suite: {self.suite}  "
            f"(seed={self.seed}, trials={self.trials})",
            f"interpretation fingerprint: {self.fingerprint[:16]}...",
        ]
        lines.extend(check.line() for check in self.checks)
        lines.append("result: " + ("all checks passed" if self.passed else "FAILED"))
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "fingerprint": self.fingerprint,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "trials": c.trials,
                    "elapsed_seconds": round(c.elapsed, 6),
                    "witness": c.witness,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _random_indicator_set(rng: random.Random) -> frozenset[TypeIndicator]:
    return frozenset(ind for ind in TypeIndicator if rng.random() < 0.5)


def _random_superset(
    rng: random.Random, base: frozenset[TypeIndicator]
) -> frozenset[TypeIndicator]:
    extra = frozenset(ind for ind in TypeIndicator if rng.random() < 0.25)
    return base | extra

def _random_profile(rng: random.Random) -> Profile:
    return Profile.from_index(rng.randrange(PROFILE_COUNT))


def _sample_profiles(
    rng: random.Random,
    inside: ProfileSet,
    size: int,
) -> list[Profile]:
    """Mixed sample: at least half drawn from ``inside`` when it is nonempty.

    Without steering, a uniform profile sample almost never hits a polarity
    set, which would leave the subset test on the left side of the
    biconditional vacuously false for both routes.  The quota rounds up so
    even single-profile samples can lie entirely inside, the one shape that
    separates a sound set translation from a broken one.
    """
    members: list[Profile] = []
    inside_quota = (size + 1) // 2 if inside else 0
    if inside_quota:
        members.extend(inside.sample(rng, inside_quota))
    while len(members) < size:
        members.append(_random_profile(rng))
    rng.shuffle(members)
    return members


def _law(name: str, trials: int, trial: Callable[[], str | None]) -> CheckResult:
    """Run ``trial`` up to ``trials`` times; its first witness fails the law."""
    start = time.perf_counter()
    witness = None
    for _ in range(trials):
        witness = trial()
        if witness is not None:
            break
    return CheckResult(name, witness is None, trials, time.perf_counter() - start, witness)


def _format_profiles(profiles: Sequence[Profile], limit: int = 3) -> str:
    shown = ", ".join(str(p) for p in profiles[:limit])
    if len(profiles) > limit:
        shown += f", ... ({len(profiles)} total)"
    return "{" + shown + "}"


def verify_theorem(
    interp: Interpretation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Randomized check of the characteristic biconditional.

    Each trial draws an indicator set I and a profile sample P (steered so
    membership is non-vacuous) and compares the two sides:
    P subset-of right(I), decided by membership in the boxes of the compiled
    right polarity, against I subset-of left(P), decided by the explicit left
    polarity, which evaluates each row formula on each profile of P.
    """
    rng = random.Random(seed)

    def biconditional() -> str | None:
        ind_set = _random_indicator_set(rng)
        right = right_polarity(interp, ind_set)
        profiles = _sample_profiles(rng, right, rng.randint(1, _MAX_SAMPLE))
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
        small = _random_indicator_set(rng)
        large = _random_superset(rng, small)
        if not right_polarity(interp, large).issubset(right_polarity(interp, small)):
            return (
                f"I={render_indicator_set(small)} ⊆ "
                f"I'={render_indicator_set(large)} but →I' ⊄ →I"
            )

    def antitone_left() -> str | None:
        steer = right_polarity(interp, _random_indicator_set(rng))
        large = _sample_profiles(rng, steer, rng.randint(1, _MAX_SAMPLE))
        small = [p for p in large if rng.random() < 0.5] or large[:1]
        if not left_polarity(interp, large) <= left_polarity(interp, small):
            return (
                f"P={_format_profiles(small)} ⊆ "
                f"P'={_format_profiles(large)} but ←P' ⊄ ←P"
            )

    def inflation_indicators() -> str | None:
        ind_set = _random_indicator_set(rng)
        closed = closure_left(interp, ind_set)
        if not ind_set <= closed:
            return (
                f"I={render_indicator_set(ind_set)} ⊄ "
                f"←→I={render_indicator_set(closed)}"
            )

    def inflation_profiles() -> str | None:
        steer = right_polarity(interp, _random_indicator_set(rng))
        profiles = _sample_profiles(rng, steer, rng.randint(1, 16))
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
    """Consistency of the basic translations and monotonicity of both lifts."""
    rng = random.Random(seed)
    if interp.basic is None:
        pairwise_check = CheckResult(
            "facts.pairwise-consistency",
            True,
            0,
            0.0,
            detail="skipped: document supplied explicit rows, no basic entries",
        )
    else:
        basic_pairs = iter(_FACT1_PAIRS)

        def pairwise() -> str | None:
            key_a, key_b = next(basic_pairs)
            if not satisfiable(And((interp.basic[key_a], interp.basic[key_b]))):
                return f"conjunction of {key_a} and {key_b} is unsatisfiable"

        pairwise_check = _law("facts.pairwise-consistency", len(_FACT1_PAIRS), pairwise)

    def set_translation_antitone() -> str | None:
        small = _random_indicator_set(rng)
        large = _random_superset(rng, small)
        if not entails(interp.lift(large), interp.lift(small)):
            return (
                f"i({render_indicator_set(large)}) does not entail "
                f"i({render_indicator_set(small)}) despite "
                f"{render_indicator_set(small)} ⊆ {render_indicator_set(large)}"
            )

    def profile_translation_monotone() -> str | None:
        large = [_random_profile(rng) for _ in range(rng.randint(1, 8))]
        small = [p for p in large if rng.random() < 0.5] or large[:1]
        if not entails(profiles_formula(small), profiles_formula(large)):
            return (
                f"p({_format_profiles(small)}) does not entail "
                f"p({_format_profiles(large)})"
            )

    row_pairs = itertools.combinations(TypeIndicator, 2)

    def rows_distinct() -> str | None:
        a, b = next(row_pairs)
        if interp.row_set(a) == interp.row_set(b):
            return f"rows {a.name} and {b.name} are equivalent"

    return [
        pairwise_check,
        _law("facts.set-translation-antitone", trials, set_translation_antitone),
        _law("facts.profile-translation-monotone", trials, profile_translation_monotone),
        _law("facts.rows-distinct", 120, rows_distinct),
    ]


def run_verification(
    interp: Interpretation,
    suite: str = "all",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> ConnectionReport:
    """Run one of the named suites and collect a report.

    Suites: ``facts``, ``lemma``, ``theorem``, ``all``.
    """
    report = ConnectionReport(suite, seed, trials, interp.fingerprint())
    if suite not in {"facts", "lemma", "theorem", "all"}:
        raise ValueError(f"unknown suite {suite!r}")
    if suite in {"facts", "all"}:
        report.checks.extend(verify_facts(interp, trials, seed))
    if suite in {"lemma", "all"}:
        report.checks.extend(verify_lemma(interp, trials, seed))
    if suite in {"theorem", "all"}:
        report.checks.extend(verify_theorem(interp, trials, seed))
    return report
