"""Acceptance gate: the nine headline guarantees, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Each criterion enforces its own runtime budget; the budgets are
part of the contract, not hints.
"""

import contextlib
import json
import random
import time

import pytest

from mbti_szondi import (
    And,
    Atom,
    BOTTOM,
    CacheError,
    NORM_PROFILE,
    Or,
    Signature,
    TOP,
    TypeIndicator,
    builtin_interpretation,
    entails,
    equivalent,
    left_polarity,
    load_interpretation,
    models,
    open_cache,
    right_polarity,
    satisfiable,
    verify_lemma,
    verify_theorem,
    write_cache,
)
from mbti_szondi.cli import EXIT_OK, main
from mbti_szondi.core import Factor
from mbti_szondi.interpret import synthesize_rows
from mbti_szondi.enumeration import satisfying_vector, restricted_universe

import pinned
from conftest import data_text, membership_vector


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"[FAIL] criterion {number}: {name} "
            f"(budget {budget_seconds}s exceeded: {elapsed:.2f}s)",
            flush=True,
        )
        raise AssertionError(
            f"criterion {number} over budget: {elapsed:.2f}s >= {budget_seconds}s"
        )
    print(f"[PASS] criterion {number}: {name} ({elapsed:.2f}s)", flush=True)


def test_criterion_1_norm_profile_empty(capsys):
    with criterion(1, "norm profile maps to the empty indicator set", 1.0):
        code = main(["to-mbti", "h+ s+ e- hy- k- p- d+ m+", "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["indicators"] == "{}"
        assert payload["count"] == 0
        # same answer through the library route
        interp = builtin_interpretation()
        assert left_polarity(interp, [NORM_PROFILE]) == frozenset()


def test_criterion_2_biconditional_1000_trials():
    with criterion(2, "biconditional holds on 1000 random (I, P) trials", 60.0):
        interp = builtin_interpretation()
        for check in verify_theorem(interp, trials=1000, seed=101):
            assert check.passed, check
        second = load_interpretation(data_text("alt_interpretation.txt"))
        for check in verify_theorem(second, trials=1000, seed=102):
            assert check.passed, check


def test_criterion_3_antitone_and_inflation_1000_trials():
    with criterion(3, "antitone and inflationary laws on 1000 random inputs", 60.0):
        interp = builtin_interpretation()
        results = verify_lemma(interp, trials=1000, seed=103)
        assert [c.name for c in results] == [
            "lemma.antitone-right",
            "lemma.antitone-left",
            "lemma.closure-indicators",
            "lemma.closure-profiles",
        ]
        for check in results:
            assert check.passed, check


def test_criterion_4_pairwise_consistency():
    with criterion(4, "pairwise consistency conjunctions satisfiable", 5.0):
        basic = builtin_interpretation().basic
        variants = ("F", "F!", "T", "T!", "N", "N!", "S", "S!")
        pairs = [(a, v) for a in ("E", "I") for v in variants]
        for b in ("F", "T"):
            pairs += [(b, "N!"), (b, "S!"), (b + "!", "N"), (b + "!", "S")]
        for key_a, key_b in pairs:
            assert satisfiable(And((basic[key_a], basic[key_b]))), (
                f"{key_a} & {key_b} should be satisfiable"
            )
        assert not satisfiable(And((basic["E"], basic["I"]))), (
            "E and I must exclude each other (distinct hy families)"
        )


def test_criterion_5_rows_distinct_and_nonempty():
    with criterion(5, "16 rows pairwise distinct with non-empty polarities", 5.0):
        interp = builtin_interpretation()
        indicators = list(TypeIndicator)
        for i, a in enumerate(indicators):
            for b in indicators[i + 1 :]:
                assert not equivalent(interp.row(a), interp.row(b)), (
                    f"{a.name} vs {b.name}"
                )
        for ind in indicators:
            assert right_polarity(interp, [ind]), f"polarity of {ind.name} empty"


def test_criterion_6_symbolic_counts_match_oracle():
    with criterion(6, "symbolic counts equal the pinned full-space oracle", 5.0):
        interp = builtin_interpretation()
        for ind in TypeIndicator:
            start = time.perf_counter()
            count = models(interp.row(ind)).count()
            elapsed = time.perf_counter() - start
            assert count == pinned.SINGLETON_COUNTS[ind.name], ind.name
            assert elapsed < 0.010, (
                f"symbolic count for {ind.name} took {elapsed * 1000:.2f} ms"
            )


def _random_negation_free(rng, factors, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return Atom(rng.choice(factors), Signature(rng.randrange(12)))
    if roll < 0.50:
        return TOP if rng.random() < 0.5 else BOTTOM
    items = tuple(
        _random_negation_free(rng, factors, depth - 1)
        for _ in range(rng.randint(2, 4))
    )
    return And(items) if rng.random() < 0.5 else Or(items)


def test_criterion_7_reduced_universe_exhaustive():
    with criterion(7, "boxes/entails/models vs enumeration on 1728 points", 60.0):
        factors = (Factor.H, Factor.K, Factor.P)
        digits = restricted_universe(factors)
        rng = random.Random(1234)
        previous = None
        previous_vector = None
        for _ in range(10_000):
            formula = _random_negation_free(rng, factors, depth=3)
            symbolic = models(formula)
            vector = membership_vector(symbolic, digits)
            enumerated = satisfying_vector(formula, factors)
            assert (vector == enumerated).all()
            if previous is not None:
                claimed = entails(formula, previous)
                truth = bool((~vector | previous_vector).all())
                assert claimed == truth
            previous, previous_vector = formula, vector


def test_criterion_8_cache_integrity(tmp_path):
    with criterion(8, "65,536-entry cache: lookups match live, tamper detected", 600.0):
        interp = builtin_interpretation()
        path = tmp_path / "table.jsonl"
        write_cache(path, interp)
        cache = open_cache(path)
        cache.check_fingerprint(interp)
        rng = random.Random(888)
        masks = [rng.randrange(1 << 16) for _ in range(100)]
        for mask in masks:
            members = [ind for ind in TypeIndicator if mask >> ind & 1]
            assert cache.lookup(members) == right_polarity(interp, members), mask
        # tamper with the recorded fingerprint; the mismatch must be refused
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["fingerprint"] = "deadbeef" * 8
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        message = "cache was built for interpretation deadbeefdeadbeef"
        with pytest.raises(CacheError, match=message):
            open_cache(tampered).check_fingerprint(interp)


def test_criterion_9_dominance_rule_cross_check():
    with criterion(9, "hard-coded rows equal dominance-rule synthesis", 1.0):
        interp = builtin_interpretation()
        synthesized = synthesize_rows(interp.basic)
        for ind in TypeIndicator:
            assert interp.row(ind) == synthesized[ind], ind.name
