from __future__ import annotations

from pathlib import Path

import pytest

from mbti_szondi import (
    BOTTOM,
    And,
    Factor,
    Interpretation,
    Not,
    Or,
    builtin_interpretation,
    conj,
    disj,
    load_interpretation,
    parse_formula,
)
from mbti_szondi.boxes import FULL_FACTOR_MASK

DATA = Path(__file__).parent / "data"
# Every document under tests/data but the one whose basic entries conflict.
LOADABLE_DOCUMENTS = sorted(
    path.name for path in DATA.glob("*.txt") if path.name != "conflicting_interpretation.txt"
)


@pytest.fixture(scope="session")
def interp():
    return builtin_interpretation()


@pytest.fixture(scope="session")
def alt_interp():
    return load_interpretation((DATA / "alt_interpretation.txt").read_text())


class DisjunctiveInterpretation(Interpretation):
    """A deliberately broken set translation: disjunction over members."""

    def lift(self, indicators):
        return disj(self.row(i) for i in sorted(set(indicators)))


class DropLastInterpretation(Interpretation):
    """A deliberately broken set translation: conjunction over every member
    but the last, so a singleton translates to TRUE."""

    def lift(self, indicators):
        return conj(self.rows[i] for i in sorted(set(indicators))[:-1])


class FalseLiftInterpretation(Interpretation):
    """A deliberately broken set translation whose →I is too small: FALSE
    for every nonempty set, so every nonempty set has the empty polarity."""

    def lift(self, indicators):
        indicators = set(indicators)
        return BOTTOM if indicators else super().lift(indicators)


class NarrowLiftInterpretation(Interpretation):
    """A deliberately broken set translation whose →I is too small: the
    conjunction of the rows and ``h+`` for every nonempty set."""

    def lift(self, indicators):
        indicators = set(indicators)
        lifted = super().lift(indicators)
        return conj([lifted, parse_formula("h+")]) if indicators else lifted


@pytest.fixture(scope="session")
def disjunctive_interp(interp):
    """The built-in rows with the broken set translation."""
    return DisjunctiveInterpretation(dict(interp.rows), interp.basic)


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def data_path(name: str) -> Path:
    return DATA / name


def fresh(formula):
    """A structurally equal copy sharing no node (and no compiled set) with ``formula``."""
    if isinstance(formula, Not):
        return Not(fresh(formula.operand))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(fresh(item) for item in formula.items))
    return formula


def membership_vector(profile_set, digits):
    """Vectorized membership of ``profile_set`` over signature-ordinal columns.

    ``digits`` maps factors to equal-length integer arrays, as produced by
    the enumeration helpers; the result marks the rows whose profile falls
    in the set.  Factors absent from ``digits`` must be unconstrained in
    every box, otherwise a restricted universe cannot decide membership.
    """
    import numpy as np

    length = len(next(iter(digits.values())))
    result = np.zeros(length, dtype=bool)
    for box in profile_set.boxes:
        inside = np.ones(length, dtype=bool)
        for factor in Factor:
            column = digits.get(factor)
            if column is None:
                if box.masks[factor] != FULL_FACTOR_MASK:
                    raise ValueError(
                        f"box constrains factor {factor.token!r} outside the given universe"
                    )
                continue
            table = np.array([bool(box.masks[factor] >> i & 1) for i in range(12)])
            inside &= table[column]
        result |= inside
    return result
