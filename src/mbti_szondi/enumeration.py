"""Brute-force model counting by direct enumeration.

This module is an independent check on the symbolic model-set algebra: it
never touches the box representation.  Profiles are identified with their
base-12 indices; a chunk of indices is decoded into eight digit arrays and
formulas are evaluated vectorized over the chunk.  A full sweep of all
12^8 = 429,981,696 profiles is feasible (minutes); restricted sweeps over
the factors a formula actually mentions are instant and exact, since every
unconstrained factor contributes a factor of 12 to the count.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .core import Factor, PROFILE_COUNT
from .logic import And, Atom, Formula, Not, Or, factors_of

__all__ = [
    "evaluate_on_digits",
    "restricted_universe",
    "satisfying_vector",
    "count_restricted",
    "count_full",
]

_STRIDES = tuple(12 ** (7 - i) for i in range(8))
# Indices decoded per step of a full sweep; bounds the sweep's working memory.
_CHUNK = 1 << 23


def evaluate_on_digits(formula: Formula, digits: dict[Factor, np.ndarray]) -> np.ndarray:
    """Vectorized truth values of ``formula`` over columns of factor digits."""
    if isinstance(formula, Atom):
        column = digits.get(formula.factor)
        if column is None:
            raise ValueError(
                f"formula mentions factor {formula.factor.token!r} outside the "
                f"enumerated universe"
            )
        return column == int(formula.signature)
    if isinstance(formula, Not):
        return ~evaluate_on_digits(formula.operand, digits)
    if isinstance(formula, And):
        size = len(next(iter(digits.values())))
        out = np.ones(size, dtype=bool)
        for item in formula.items:
            out &= evaluate_on_digits(item, digits)
        return out
    if isinstance(formula, Or):
        size = len(next(iter(digits.values())))
        out = np.zeros(size, dtype=bool)
        for item in formula.items:
            out |= evaluate_on_digits(item, digits)
        return out
    raise TypeError(f"not a formula: {formula!r}")


def digits_of_indices(indices: np.ndarray) -> dict[Factor, np.ndarray]:
    """Decode base-12 profile indices into eight digit columns."""
    return {
        factor: ((indices // _STRIDES[factor]) % 12).astype(np.uint8)
        for factor in Factor
    }


def restricted_universe(factors: Sequence[Factor]) -> dict[Factor, np.ndarray]:
    """Digit columns enumerating all assignments to the given factors.

    The grid has 12^len(factors) rows; the first factor varies slowest.
    """
    k = len(factors)
    if len(set(factors)) != k:
        raise ValueError("duplicate factors in restricted universe")
    indices = np.arange(12**k, dtype=np.int64)
    return {
        factor: ((indices // 12 ** (k - 1 - i)) % 12).astype(np.uint8)
        for i, factor in enumerate(factors)
    }


def satisfying_vector(formula: Formula, factors: Sequence[Factor]) -> np.ndarray:
    """Boolean vector of the formula over the full grid on ``factors``."""
    mentioned = factors_of(formula)
    extra = mentioned - set(factors)
    if extra:
        tokens = ", ".join(f.token for f in sorted(extra))
        raise ValueError(f"formula mentions factors outside the universe: {tokens}")
    return evaluate_on_digits(formula, restricted_universe(factors))


def count_restricted(formula: Formula, factors: Sequence[Factor] | None = None) -> int:
    """Exact model count via a reduced sweep.

    Only the factors the formula mentions (or an explicit superset) are
    enumerated; each free factor multiplies the count by 12.
    """
    if factors is None:
        factors = sorted(factors_of(formula))
    if not factors:
        # Variable-free formula: truth decides between none and all profiles.
        value = bool(
            evaluate_on_digits(formula, restricted_universe([Factor.H]))[0]
        )
        return PROFILE_COUNT if value else 0
    vector = satisfying_vector(formula, factors)
    return int(vector.sum()) * 12 ** (8 - len(factors))


def count_full(formulas: Iterable[Formula]) -> list[int]:
    """Model counts over the entire profile space, one sweep for all inputs.

    This is the heavyweight oracle: it decodes every one of the 12^8
    indices.  Prefer :func:`count_restricted` unless independence from the
    digit-reduction argument itself is wanted.
    """
    formulas = list(formulas)
    counts = [0] * len(formulas)
    for start in range(0, PROFILE_COUNT, _CHUNK):
        stop = min(start + _CHUNK, PROFILE_COUNT)
        digits = digits_of_indices(np.arange(start, stop, dtype=np.int64))
        for slot, formula in enumerate(formulas):
            counts[slot] += int(evaluate_on_digits(formula, digits).sum())
    return counts
