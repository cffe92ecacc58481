"""Answers the benchmark checks against, independent of the code it measures.

Two sources, neither of which runs ``boxes`` or ``logic.evaluate``:

* constants copied from ``tests/pinned.py`` (derived there twice, once by
  the full 12^8 numpy sweep) and the built-in fingerprint;
* ``reference.json``, the region table of each interpretation, derived by
  the numpy oracle (see ``derive_reference.py``).

:func:`load` cross-checks the region table of the built-in interpretation
against the pinned constants before any run uses it, so a stale or damaged
table stops the benchmark instead of judging answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from common import BENCH_DIR

# Copied from tests/pinned.py.
SINGLETON_COUNTS = {
    "ISTJ": 14_340_096,
    "ISFJ": 3_511_296,
    "INFJ": 1_244_160,
    "INTJ": 4_976_640,
    "ISTP": 11_150_784,
    "ISFP": 3_297_024,
    "INFP": 1_244_160,
    "INTP": 3_732_480,
    "ESTP": 11_980_800,
    "ESFP": 2_626_560,
    "ENFP": 1_244_160,
    "ENTP": 4_976_640,
    "ESTJ": 11_150_784,
    "ESFJ": 3_297_024,
    "ENFJ": 1_244_160,
    "ENTJ": 3_732_480,
}
KERNEL_CLASS_COUNT = 38
NONEMPTY_POLARITY_COUNT = 61
BUILTIN_FINGERPRINT = "f3eae8e1ffdc98a7a541a25d6a38908f2c8543234cd30762553d6e854c4d7f55"
NORM_PROFILE = "h+ s+ e- hy- k- p- d+ m+"
NORM_PROFILE_INDICATORS = 0  # the norm profile satisfies no row
PAIR_ISTJ_ESTP = 0b1_0000_0001  # mask of {ISTJ, ESTP}; its polarity is empty

# Indicator names in mask-bit order (TypeIndicator's canonical listing).
INDICATORS = tuple(SINGLETON_COUNTS)
FULL_SPACE = 12**8
ALL_MASK = (1 << 16) - 1


class ReferenceError(RuntimeError):
    """The pinned reference data is inconsistent with itself."""


@dataclass(frozen=True)
class Regions:
    """Region table of one interpretation: (mask, count, witnesses) rows."""

    fingerprint: str
    masks: tuple[int, ...]
    counts: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]

    def above(self, indicator_mask: int) -> list[int]:
        """Positions of the regions whose mask contains ``indicator_mask``."""
        return [r for r, m in enumerate(self.masks) if m & indicator_mask == indicator_mask]

    def count(self, indicator_mask: int) -> int:
        """Size of the right polarity of the indicator set."""
        return sum(self.counts[r] for r in self.above(indicator_mask))

    def closure(self, indicator_mask: int) -> int:
        """Mask of the left polarity of the right polarity of the set."""
        out = ALL_MASK
        for r in self.above(indicator_mask):
            out &= self.masks[r]
        return out

    def kernel_partition(self) -> list[list[int]]:
        """Indicator-set masks grouped by equal right polarity, sorted."""
        classes: dict[tuple[int, ...], list[int]] = {}
        for mask in range(1 << 16):
            classes.setdefault(tuple(self.above(mask)), []).append(mask)
        return sorted(classes.values())

    def nonempty_count(self) -> int:
        return sum(1 for mask in range(1 << 16) if self.above(mask))


def _regions(entry: dict) -> Regions:
    rows = entry["regions"]
    return Regions(
        fingerprint=entry["fingerprint"],
        masks=tuple(r["mask"] for r in rows),
        counts=tuple(r["count"] for r in rows),
        witnesses=tuple(tuple(r["witnesses"]) for r in rows),
    )


@lru_cache(maxsize=1)
def load() -> dict[str, Regions]:
    """Region tables by name (``builtin``, ``custom``), cross-checked."""
    raw = json.loads((BENCH_DIR / "reference.json").read_text())
    tables = {name: _regions(entry) for name, entry in raw.items()}
    builtin = tables["builtin"]
    problems = []
    if builtin.fingerprint != BUILTIN_FINGERPRINT:
        problems.append("built-in fingerprint differs from the pinned one")
    for name, table in tables.items():
        if sum(table.counts) != FULL_SPACE:
            problems.append(f"{name} regions do not cover the profile space")
    for bit, name in enumerate(INDICATORS):
        if builtin.count(1 << bit) != SINGLETON_COUNTS[name]:
            problems.append(f"region sizes disagree with the pinned count of {name}")
    if builtin.count(PAIR_ISTJ_ESTP) != 0:
        problems.append("ISTJ,ESTP has a nonempty polarity in the region table")
    if problems:
        raise ReferenceError("; ".join(problems))
    return tables


def check_lattice_pins(table: Regions) -> list[str]:
    """Kernel-class and nonempty-polarity counts of the built-in table.

    Slower (65,536 sets) than :func:`load`'s checks, so only the workloads
    that compare kernel classes call it.
    """
    problems = []
    if len(table.kernel_partition()) != KERNEL_CLASS_COUNT:
        problems.append("region table does not give 38 kernel classes")
    if table.nonempty_count() != NONEMPTY_POLARITY_COUNT:
        problems.append("region table does not give 61 nonempty polarities")
    return problems
