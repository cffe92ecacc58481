"""Correctness checks on the answers a run collected.

Every reference here comes from ``reference.py`` (pinned constants and
region tables) or from the numpy oracle in ``mbti_szondi.enumeration``,
which evaluates formulas over digit arrays and never touches ``boxes`` or
``logic.evaluate``.  The rows it evaluates are the interpretations' own
formulas.

:meth:`Checker.self_test` feeds each check a planted wrong answer, so a
check that passes everything stops the run instead of passing vacuously.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

from reference import NORM_PROFILE, NORM_PROFILE_INDICATORS, Regions
from workloads import FACTORS, SIGNATURES, parse_profile, parse_set, profile_digits

TRACEBACK = "Traceback (most recent call last)"
LONGEST_FIRST = sorted(SIGNATURES, key=len, reverse=True)
# Exit codes the CLI documents; any other code is a crash.
DOCUMENTED_EXITS = (0, 2, 3, 4)


class Checker:
    def __init__(self, ms, tables: dict[str, Regions], interpretations: dict):
        self.ms = ms
        self.en = ms.enumeration
        self.tables = tables
        self.rows = {
            name: [interp.row(i) for i in ms.TypeIndicator] for name, interp in interpretations.items()
        }
        self.factors = {
            name: [ms.Factor(FACTORS.index(token)) for token in self._factor_tokens(name)]
            for name in tables
        }
        self.problems: list[str] = []
        # The oracle route itself must reproduce the pinned norm-profile answer.
        self.left_explicit("builtin", [parse_profile(NORM_PROFILE)], NORM_PROFILE_INDICATORS)

    def _factor_tokens(self, name: str) -> list[str]:
        rows = self.rows[name]
        return sorted({f.token for row in rows for f in self.ms.factors_of(row)}, key=FACTORS.index)

    def wrong(self, text: str) -> bool:
        if len(self.problems) < 10:
            self.problems.append(text)
        return False

    # -- answers ----------------------------------------------------------

    def right_count(self, name: str, mask: int, answer: int) -> bool:
        expected = self.tables[name].count(mask)
        return answer == expected or self.wrong(f"{name} |->{mask:#x}| = {answer}, expected {expected}")

    def closure(self, name: str, mask: int, answer: int) -> bool:
        expected = self.tables[name].closure(mask)
        return answer == expected or self.wrong(f"{name} closure of {mask:#x} = {answer:#x}, expected {expected:#x}")

    def _left_of_digits(self, name: str, digits: dict) -> int:
        out = 0
        for bit, row in enumerate(self.rows[name]):
            if self.en.evaluate_on_digits(row, digits).all():
                out |= 1 << bit
        return out

    def _digits(self, indices) -> dict:
        """Digit columns of the listed profiles, one per factor."""
        columns = np.array([profile_digits(i) for i in indices], dtype=np.uint8)
        return {f: columns[:, f] for f in self.ms.Factor}

    def left_explicit(self, name: str, indices, answer: int) -> bool:
        expected = self._left_of_digits(name, self._digits(indices))
        return answer == expected or self.wrong(f"{name} <-{list(indices)} = {answer:#x}, expected {expected:#x}")

    def left_box(self, name: str, masks, answer: int) -> bool:
        factors = self.factors[name]
        choices = [[d for d in range(12) if masks[f] >> d & 1] for f in factors]
        grid = np.array(list(itertools.product(*choices)), dtype=np.uint8)
        digits = {f: grid[:, position] for position, f in enumerate(factors)}
        expected = self._left_of_digits(name, digits)
        return answer == expected or self.wrong(f"{name} <-box{list(masks)} = {answer:#x}, expected {expected:#x}")

    def recount(self, name: str, mask: int, answer: int) -> bool:
        """Count the conjunction of the set's rows by a numpy sweep."""
        expected = self._numpy_count(name, mask)
        return answer == expected or self.wrong(f"{name} numpy recount of {mask:#x} = {expected}, answer {answer}")

    @lru_cache(maxsize=None)
    def _numpy_count(self, name: str, mask: int) -> int:
        rows = self.rows[name]
        formula = self.ms.And(tuple(rows[b] for b in range(16) if mask >> b & 1))
        factors = sorted(self.ms.factors_of(formula))
        if len(factors) <= 6:
            return self.en.count_restricted(formula)
        # Seven factors are 35.8M profiles: sweep one digit of the first at a time.
        grid = self.en.restricted_universe(factors[1:])
        size = len(next(iter(grid.values())))
        total = 0
        for digit in range(12):
            digits = dict(grid)
            digits[factors[0]] = np.full(size, digit, dtype=np.uint8)
            total += int(self.en.evaluate_on_digits(formula, digits).sum())
        return total * 12 ** (8 - len(factors))

    def members(self, name: str, mask: int, indices) -> bool:
        """Whether every listed profile satisfies every row in the set."""
        digits = self._digits(indices)
        for bit, row in enumerate(self.rows[name]):
            if mask >> bit & 1 and not self.en.evaluate_on_digits(row, digits).all():
                return self.wrong(f"{name} sampled profile outside ->{mask:#x}")
        return True

    # -- CLI output -------------------------------------------------------

    def cli(self, kind: str, expect: dict, code: int, stdout: str, stderr: str, fingerprint: str):
        """Outcome of one CLI process, ``ok``, ``wrong`` or ``crash``, and
        its parsed JSON answer (None when it printed none)."""
        if code not in DOCUMENTED_EXITS or TRACEBACK in stderr:
            return "crash", None
        if code in (2, 3) and "sample" in expect and self.tables["builtin"].count(expect["mask"]) == 0:
            return "ok", None  # a documented refusal to sample from an empty set
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            self.wrong(f"{kind}: exit {code} without a JSON answer: {stderr.strip()[:200]}")
            return "wrong", None
        ok = code == 0 and self._cli_answer(kind, expect, payload, fingerprint)
        return ("ok" if ok else "wrong"), payload

    def _cli_answer(self, kind, expect, payload, fingerprint) -> bool:
        if kind == "interp-check":
            return (payload.get("ok") is True and payload.get("fingerprint") == fingerprint) or self.wrong(
                f"interp check answered {payload}"
            )
        if kind == "to-mbti":
            return self.left_explicit("builtin", [expect["profile"]], parse_set(payload["indicators"]))
        mask = expect["mask"]
        count = payload["count"]
        if not self.right_count("builtin", mask, count):
            return False
        if "boxes" in payload and box_total(payload["boxes"]) != count:
            return self.wrong(f"boxes of ->{mask:#x} do not add up to {count}")
        if "sample" in expect:
            drawn = [parse_profile(text) for text in payload.get("sample", [])]
            if count == 0 and not drawn:
                return True  # nothing to draw from an empty set
            if len(drawn) != expect["sample"]:
                return self.wrong(f"asked for {expect['sample']} profiles, got {len(drawn)}")
            return self.members("builtin", mask, drawn)
        return True

    # -- self-test --------------------------------------------------------

    def self_test(self, planted: list[tuple]) -> list[str]:
        """Run each check on a planted wrong answer; list the ones not caught.

        ``planted`` holds (check name, args..., correct answer) tuples taken
        from answers the run already accepted.
        """
        kept = list(self.problems)
        missed = []
        for check, *args, answer in planted:
            wrong_answer = answer + 1 if check in ("right_count", "recount") else answer ^ 1
            if getattr(self, check)(*args, wrong_answer):
                missed.append(check)
        self.problems = kept
        return [f"self-test: planted wrong answer passed the {check} check" for check in missed]


def box_total(boxes: list[list[str]]) -> int:
    """Profiles in a list of serialized boxes (signature tokens per factor)."""
    total = 0
    for tokens in boxes:
        size = 1
        for token in tokens:
            size *= _token_count(token)
        total += size
    return total


def _token_count(text: str) -> int:
    n = pos = 0
    while pos < len(text):
        match = next(s for s in LONGEST_FIRST if text.startswith(s, pos))
        pos += len(match)
        n += 1
    return n
