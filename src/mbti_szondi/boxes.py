"""Symbolic profile sets as disjoint unions of signature boxes.

A :class:`Box` is a Cartesian product of per-factor signature subsets (one
12-bit mask per factor); it denotes ``prod(popcount(mask_f))`` profiles.  A
:class:`ProfileSet` is a union of pairwise-disjoint boxes, which makes
counting a pure sum and subset checking a terminating subtraction loop —
never materializing any part of the 12**8 universe.

Model sets of negation-free formulas are small unions of such boxes, so the
whole translation pipeline runs in microseconds where per-profile
enumeration would need giga-instructions.  Complement (and with it exact
handling of negation) also stays inside the representation: subtracting a
box from a box yields at most eight disjoint boxes.

Boxes and profile sets are immutable; all operations return new values.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence

from .core import (
    _SIGNATURES,
    _Value,
    Factor,
    GrammarError,
    Profile,
    Signature,
    parse_signature_subset,
    render_signature_subset,
)

__all__ = ["Box", "ProfileSet", "FULL_FACTOR_MASK", "pairwise_disjoint"]

FULL_FACTOR_MASK = (1 << 12) - 1


class Box(_Value):
    """Cartesian product of eight non-empty per-factor signature subsets."""

    __slots__ = _fields = ("masks",)
    masks: tuple[int, ...]

    def __init__(self, masks):
        masks = tuple(masks)
        if len(masks) != 8:
            raise ValueError("a box carries one mask per factor (8)")
        for mask in masks:
            if not 0 < mask <= FULL_FACTOR_MASK:
                raise ValueError(f"per-factor mask {mask:#x} must be nonzero and 12-bit")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def full(cls) -> "Box":
        return cls((FULL_FACTOR_MASK,) * 8)

    @classmethod
    def for_atom(cls, factor: Factor, signature: Signature) -> "Box":
        masks = [FULL_FACTOR_MASK] * 8
        masks[factor] = 1 << int(signature)
        return cls(tuple(masks))

    def count(self) -> int:
        return math.prod(mask.bit_count() for mask in self.masks)

    def contains(self, profile: Profile) -> bool:
        return all(
            mask >> int(sig) & 1 for mask, sig in zip(self.masks, profile.signatures)
        )

    def intersect(self, other: "Box") -> "Box | None":
        masks = []
        for a, b in zip(self.masks, other.masks):
            common = a & b
            if not common:
                return None
            masks.append(common)
        return Box(tuple(masks))

    def subtract(self, other: "Box") -> list["Box"]:
        """Disjoint boxes covering exactly ``self`` minus ``other``.

        Peels one factor at a time: the piece for factor f keeps factors
        before f inside the intersection, factor f outside ``other``, and
        factors after f unconstrained (within ``self``).
        """
        if self.intersect(other) is None:
            return [self]
        pieces: list[Box] = []
        prefix = list(self.masks)
        for f in range(8):
            outside = self.masks[f] & ~other.masks[f]
            if outside:
                piece = prefix.copy()
                piece[f] = outside
                pieces.append(Box(tuple(piece)))
                prefix[f] = self.masks[f] & other.masks[f]
        return pieces

    def fuse(self, other: "Box") -> "Box | None":
        """Union with a box whose masks differ on at most one factor.

        Two disjoint boxes that agree on seven factors denote a box again;
        fusing keeps set representations from fragmenting.  Returns None
        when the boxes differ on two or more factors.
        """
        differing = -1
        for factor in range(8):
            if self.masks[factor] != other.masks[factor]:
                if differing >= 0:
                    return None
                differing = factor
        if differing < 0:
            return self
        merged = list(self.masks)
        merged[differing] |= other.masks[differing]
        return Box(tuple(merged))

    def iter_profiles(self) -> Iterator[Profile]:
        """Member profiles in ascending index order (the last factor fastest)."""
        choices = [
            [_SIGNATURES[i] for i in range(12) if mask >> i & 1] for mask in self.masks
        ]
        for sigs in itertools.product(*choices):
            yield Profile(sigs)

    def to_tokens(self) -> list[str]:
        return [render_signature_subset(mask) for mask in self.masks]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Box":
        if len(tokens) != 8:
            raise GrammarError(f"a box serialization has 8 subset tokens, got {len(tokens)}")
        return cls(tuple(parse_signature_subset(token) for token in tokens))


def pairwise_disjoint(boxes: Sequence[Box]) -> bool:
    """Whether no two of the boxes share a profile.

    Boxes meet iff every factor admits a common signature.  Per factor,
    index the boxes admitting each signature; the boxes meeting box b are
    then the AND over factors of those admitting one of b's signatures, so
    the check takes one bitset pass per factor instead of a test per pair.
    """
    box_masks = [box.masks for box in boxes]
    meets = [-1] * len(boxes)
    for factor in range(8):
        groups: defaultdict[int, int] = defaultdict(int)  # factor mask -> boxes
        for b, masks in enumerate(box_masks):
            groups[masks[factor]] |= 1 << b
        holding = [0] * 12
        for mask, members in groups.items():
            for signature in range(12):
                if mask >> signature & 1:
                    holding[signature] |= members
        admitted = {}
        for mask in groups:
            admitted[mask] = 0
            for signature in range(12):
                if mask >> signature & 1:
                    admitted[mask] |= holding[signature]
        for b, masks in enumerate(box_masks):
            meets[b] &= admitted[masks[factor]]
    return all(meets[b] == 1 << b for b in range(len(boxes)))


def _subtract_all(box: Box, obstacles: Iterable[Box]) -> list[Box]:
    remainder = [box]
    for obstacle in obstacles:
        remainder = [piece for part in remainder for piece in part.subtract(obstacle)]
        if not remainder:
            break
    return remainder


def _coalesce(boxes: Iterable[Box]) -> tuple[Box, ...]:
    """Greedily fuse one-factor-apart boxes until no pair fuses.

    Subtraction and union carve boxes into per-factor slivers; without this
    pass, disjunctions over a signature family would cost one box per atom
    instead of one box per factor, and every later intersection would pay
    for the fragmentation.  Fusing disjoint boxes preserves disjointness
    with all remaining boxes, so the invariant survives.
    """
    pending = list(boxes)
    while True:
        fused_any = False
        kept: list[Box] = []
        for box in pending:
            for position, existing in enumerate(kept):
                fused = existing.fuse(box)
                if fused is not None:
                    kept[position] = fused
                    fused_any = True
                    break
            else:
                kept.append(box)
        pending = kept
        if not fused_any:
            return tuple(pending)


class ProfileSet(_Value):
    """A set of profiles represented as pairwise-disjoint signature boxes.

    Equality is semantic (the same profiles, however the boxes cut them),
    so unlike the other values a profile set has no hash.
    """

    __slots__ = _fields = ("boxes",)
    boxes: tuple[Box, ...]

    def __init__(self, boxes: Iterable[Box] = ()):
        object.__setattr__(self, "boxes", _coalesce(boxes))

    @classmethod
    def empty(cls) -> "ProfileSet":
        return _EMPTY

    @classmethod
    def full(cls) -> "ProfileSet":
        return _FULL

    def count(self) -> int:
        return sum(box.count() for box in self.boxes)

    def __bool__(self) -> bool:
        return bool(self.boxes)

    def __contains__(self, profile: Profile) -> bool:
        return any(box.contains(profile) for box in self.boxes)

    def union(self, other: "ProfileSet") -> "ProfileSet":
        # Boxes of `other` are disjoint among themselves, so carving each one
        # around `self` keeps the whole list pairwise disjoint.
        boxes = list(self.boxes)
        for box in other.boxes:
            boxes.extend(_subtract_all(box, self.boxes))
        return ProfileSet(boxes)

    def intersect(self, other: "ProfileSet") -> "ProfileSet":
        # Pairwise intersections of two disjoint families are disjoint.
        boxes = []
        for a in self.boxes:
            for b in other.boxes:
                common = a.intersect(b)
                if common is not None:
                    boxes.append(common)
        return ProfileSet(boxes)

    def subtract(self, other: "ProfileSet") -> "ProfileSet":
        boxes = []
        for box in self.boxes:
            boxes.extend(_subtract_all(box, other.boxes))
        return ProfileSet(boxes)

    def complement(self) -> "ProfileSet":
        return _FULL.subtract(self)

    def issubset(self, other: "ProfileSet") -> bool:
        for box in self.boxes:
            if _subtract_all(box, other.boxes):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileSet):
            return NotImplemented
        return self.count() == other.count() and self.issubset(other)

    __hash__ = None  # semantic equality, no stable hash

    def sample(self, rng, n: int) -> list[Profile]:
        """Draw ``n`` profiles uniformly (with replacement); requires non-empty."""
        if not self.boxes:
            raise ValueError("cannot sample from the empty profile set")
        weights = [box.count() for box in self.boxes]
        picks = rng.choices(self.boxes, weights=weights, k=n)
        profiles = []
        for box in picks:
            sigs = tuple(
                _SIGNATURES[rng.choice([i for i in range(12) if mask >> i & 1])]
                for mask in box.masks
            )
            profiles.append(Profile(sigs))
        return profiles

    def iter_profiles(self) -> Iterator[Profile]:
        for box in self.boxes:
            yield from box.iter_profiles()

    def membership_vector(self, digits):
        """Vectorized membership over per-factor signature-ordinal columns.

        ``digits`` maps factors to equal-length integer arrays, as produced
        by the enumeration helpers; the result marks the rows whose profile
        falls in this set.  Factors absent from ``digits`` must be
        unconstrained in every box, otherwise a restricted universe cannot
        decide membership.
        """
        import numpy as np

        length = len(next(iter(digits.values())))
        result = np.zeros(length, dtype=bool)
        for box in self.boxes:
            inside = np.ones(length, dtype=bool)
            for factor in Factor:
                column = digits.get(factor)
                if column is None:
                    if box.masks[factor] != FULL_FACTOR_MASK:
                        raise ValueError(
                            f"box constrains factor {factor.token!r} outside "
                            f"the given universe"
                        )
                    continue
                table = np.array(
                    [bool(box.masks[factor] >> i & 1) for i in range(12)],
                    dtype=bool,
                )
                inside &= table[column]
            result |= inside
        return result

    def to_payload(self) -> dict:
        """Serialization: box token lists plus a count readers must verify."""
        return {
            "boxes": [box.to_tokens() for box in self.boxes],
            "count": self.count(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ProfileSet":
        boxes = tuple(Box.from_tokens(tokens) for tokens in payload["boxes"])
        result = cls(boxes)
        if result.count() != payload["count"]:
            raise GrammarError(
                f"stored count {payload['count']} does not match boxes ({result.count()})"
            )
        return result

    def __repr__(self) -> str:
        return f"ProfileSet({len(self.boxes)} boxes, count={self.count()})"


_EMPTY = ProfileSet(())
_FULL = ProfileSet((Box.full(),))
