from __future__ import annotations

from pathlib import Path

import pytest

from mbti_szondi import (
    And,
    Interpretation,
    Not,
    Or,
    builtin_interpretation,
    disj,
    load_interpretation,
)

DATA = Path(__file__).parent / "data"


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
