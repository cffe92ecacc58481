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
from functools import lru_cache

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

__all__ = ["Box", "ProfileSet"]

FULL_FACTOR_MASK = (1 << 12) - 1


@lru_cache(maxsize=1 << 12)  # at most 4,095 valid subsets; boxes repeat them
def _mask_signatures(mask: int) -> tuple[Signature, ...]:
    """The signatures of a 12-bit subset mask, in ordinal order."""
    return tuple(_SIGNATURES[i] for i in range(12) if mask >> i & 1)


class Box(_Value):
    """Cartesian product of eight non-empty per-factor signature subsets.

    ``Box(masks)`` checks its masks.  A box that the algebra derives from
    valid boxes (an intersection, a piece of a difference, a fusion) has
    valid masks by construction and is built by :meth:`_of`, unchecked.
    """

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
    def _of(cls, masks: tuple[int, ...]) -> "Box":
        """A box of eight masks already known to be nonzero and 12-bit."""
        box = object.__new__(cls)
        object.__setattr__(box, "masks", masks)
        return box

    @classmethod
    def full(cls) -> "Box":
        return cls((FULL_FACTOR_MASK,) * 8)

    @classmethod
    def for_atom(cls, factor: Factor, signature: Signature) -> "Box":
        masks = [FULL_FACTOR_MASK] * 8
        masks[factor] = 1 << int(signature)
        return cls(tuple(masks))

    def count(self) -> int:
        return math.prod(map(int.bit_count, self.masks))

    def contains(self, profile: Profile) -> bool:
        for mask, sig in zip(self.masks, profile.signatures):
            if not mask >> sig & 1:
                return False
        return True

    def intersect(self, other: "Box") -> "Box | None":
        masks = []
        for a, b in zip(self.masks, other.masks):
            common = a & b
            if not common:
                return None
            masks.append(common)
        return Box._of(tuple(masks))

    def subtract(self, other: "Box") -> list["Box"]:
        """Disjoint boxes covering exactly ``self`` minus ``other``.

        Peels one factor at a time: the piece for factor f keeps factors
        before f inside the intersection, factor f outside ``other``, and
        factors after f unconstrained (within ``self``).
        """
        for a, b in zip(self.masks, other.masks):
            if not a & b:
                return [self]
        pieces: list[Box] = []
        prefix = list(self.masks)
        for f in range(8):
            outside = self.masks[f] & ~other.masks[f]
            if outside:
                piece = prefix.copy()
                piece[f] = outside
                pieces.append(Box._of(tuple(piece)))
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
        return Box._of(tuple(merged))

    def iter_profiles(self) -> Iterator[Profile]:
        """Member profiles in ascending index order (the last factor fastest)."""
        for sigs in itertools.product(*map(_mask_signatures, self.masks)):
            yield Profile._of(sigs)

    def to_tokens(self) -> list[str]:
        return list(map(render_signature_subset, self.masks))

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Box":
        if len(tokens) != 8:
            raise GrammarError(f"a box serialization has 8 subset tokens, got {len(tokens)}")
        return cls(tuple(parse_signature_subset(token) for token in tokens))


# Per factor, two 64-entry tables of box bitsets (see _signature_index).
_SignatureIndex = list[tuple[list[int], list[int]]]


def _signature_index(box_masks: Sequence[tuple[int, ...]]) -> _SignatureIndex:
    """Per factor, the bitset of the boxes (bit b stands for ``box_masks[b]``)
    admitting a signature of any given 12-bit mask, as two 64-entry tables:
    one for the mask's low six signatures, one for its high six.

    Boxes that share a factor's mask are grouped first, so each distinct
    mask is spread over its signatures once.  The tables are built by
    doubling (the subset-OR transform): after the half's first k
    signatures, a table holds the 2**k masks over them, and the next
    signature appends a copy of the table ORed with the boxes admitting it.
    """
    index = []
    for factor in range(8):
        groups: defaultdict[int, int] = defaultdict(int)  # factor mask -> boxes
        for b, masks in enumerate(box_masks):
            groups[masks[factor]] |= 1 << b
        holding = [0] * 12
        for mask, members in groups.items():
            for signature in range(12):
                if mask >> signature & 1:
                    holding[signature] |= members
        low, high = [0], [0]
        for signature in range(6):
            low += [entry | holding[signature] for entry in low]
            high += [entry | holding[6 + signature] for entry in high]
        index.append((low, high))
    return index


def _meeting(index: _SignatureIndex, masks: Sequence[int]) -> int:
    """The indexed boxes that meet the box with per-factor ``masks``.

    Boxes meet iff every factor admits a common signature, so this is the
    AND over factors of the boxes admitting one of the box's signatures.
    """
    meets = -1
    for (low, high), mask in zip(index, masks):
        meets &= low[mask & 63] | high[mask >> 6]
    return meets


def pairwise_disjoint(boxes: Sequence[Box]) -> bool:
    """Whether no two of the boxes share a profile: each box meets only
    itself, read off one signature index of all the boxes (see
    :func:`_meeting`) instead of a test per pair."""
    box_masks = [box.masks for box in boxes]
    index = _signature_index(box_masks)
    return all(_meeting(index, masks) == 1 << b for b, masks in enumerate(box_masks))


def _subtract_all(box: Box, obstacles: Iterable[Box]) -> list[Box]:
    """``box`` minus each obstacle in turn, as disjoint boxes.  A part that
    an obstacle misses stays in the remainder as the same object, so a box
    that no obstacle meets comes back as ``[box]``."""
    remainder = [box]
    for obstacle in obstacles:
        o = obstacle.masks
        carved = []
        for part in remainder:
            p = part.masks
            if (p[0] & o[0] and p[1] & o[1] and p[2] & o[2] and p[3] & o[3]
                    and p[4] & o[4] and p[5] & o[5] and p[6] & o[6] and p[7] & o[7]):
                carved += part.subtract(obstacle)
            else:
                carved.append(part)
        remainder = carved
        if not remainder:
            break
    return remainder


def _coalesce(boxes: Iterable[Box], settled: int = 0) -> tuple[Box, ...]:
    """Greedily fuse one-factor-apart boxes until no pair fuses.

    Subtraction and union carve boxes into per-factor slivers; without this
    pass, disjunctions over a signature family would cost one box per atom
    instead of one box per factor, and every later intersection would pay
    for the fragmentation.  Fusing disjoint boxes preserves disjointness
    with all remaining boxes, so the invariant survives.

    Each pass keeps a box or fuses it into the first kept box it fuses
    with.  The first ``settled`` boxes must have no fusable pair (a
    coalesced list, say): a pass would keep each of them in turn, so the
    first pass starts with them kept.  Kept boxes before the first position
    a pass fused into were never changed and fused with no earlier one, so
    the next pass starts with them kept too.  The result is the plain
    greedy's, box for box.
    """
    pending = list(boxes)
    if len(pending) < 2:
        return tuple(pending)
    while True:
        kept = pending[:settled]
        first_fused = len(pending)  # past every position: nothing fused yet
        for box in itertools.islice(pending, settled, None):
            # Boxes whose masks differ on factors 0 and 1 both cannot fuse;
            # most pairs are such, and are skipped without a call.
            masks = box.masks
            m0, m1 = masks[0], masks[1]
            for position, existing in enumerate(kept):
                other = existing.masks
                if other[0] != m0 and other[1] != m1:
                    continue
                fused = existing.fuse(box)
                if fused is not None:
                    kept[position] = fused
                    if position < first_fused:
                        first_fused = position
                    break
            else:
                kept.append(box)
        if first_fused == len(pending):
            return tuple(kept)
        pending, settled = kept, first_fused


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
    def _of(cls, boxes: list[Box], settled: int) -> "ProfileSet":
        """The set of the disjoint ``boxes``, whose first ``settled`` are
        already coalesced (see :func:`_coalesce`)."""
        profile_set = object.__new__(cls)
        object.__setattr__(profile_set, "boxes", _coalesce(boxes, settled))
        return profile_set

    @classmethod
    def empty(cls) -> "ProfileSet":
        return _EMPTY

    @classmethod
    def full(cls) -> "ProfileSet":
        return _FULL

    def count(self) -> int:
        return sum([math.prod(map(int.bit_count, box.masks)) for box in self.boxes])

    def __bool__(self) -> bool:
        return bool(self.boxes)

    def __contains__(self, profile: Profile) -> bool:
        return any(box.contains(profile) for box in self.boxes)

    def union(self, other: "ProfileSet") -> "ProfileSet":
        # A set's boxes are already coalesced, so with one side empty the
        # other side is the union, box for box.
        if not self.boxes:
            return other
        if not other.boxes:
            return self
        # Boxes of `other` are disjoint among themselves, so carving each one
        # around `self` keeps the whole list pairwise disjoint; `self`'s
        # boxes lead it, already coalesced.
        boxes = list(self.boxes)
        for box in other.boxes:
            boxes.extend(_subtract_all(box, self.boxes))
        return ProfileSet._of(boxes, len(self.boxes))

    def intersect(self, other: "ProfileSet") -> "ProfileSet":
        """The profiles in both sets.  Pairwise intersections of two disjoint
        families are disjoint.  Each pair of boxes is tested with one chain
        of mask ANDs that stops at the first factor where they are disjoint,
        and only a pair that meets builds its box; when no pair meets, the
        answer is the shared ``ProfileSet.empty()``, not coalesced."""
        boxes = []
        others = [b.masks for b in other.boxes]
        for a in self.boxes:
            a0, a1, a2, a3, a4, a5, a6, a7 = a.masks
            for b0, b1, b2, b3, b4, b5, b6, b7 in others:
                if (a0 & b0 and a1 & b1 and a2 & b2 and a3 & b3
                        and a4 & b4 and a5 & b5 and a6 & b6 and a7 & b7):
                    boxes.append(Box._of(
                        (a0 & b0, a1 & b1, a2 & b2, a3 & b3, a4 & b4, a5 & b5, a6 & b6, a7 & b7)
                    ))
        if not boxes:
            return _EMPTY
        return ProfileSet(boxes)

    def subtract(self, other: "ProfileSet") -> "ProfileSet":
        # The boxes before the first one carved are a prefix of a coalesced
        # list; if none is carved, the difference is this set, box for box.
        obstacles = other.boxes
        for settled, box in enumerate(self.boxes):
            pieces = _subtract_all(box, obstacles)
            if len(pieces) != 1 or pieces[0] is not box:
                break
        else:
            return self
        boxes = [*self.boxes[:settled], *pieces]
        for box in self.boxes[settled + 1:]:
            boxes += _subtract_all(box, obstacles)
        return ProfileSet._of(boxes, settled)

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
        choice = rng.choice
        return [
            Profile._of(tuple([choice(_mask_signatures(mask)) for mask in box.masks]))
            for box in picks
        ]

    def iter_profiles(self) -> Iterator[Profile]:
        for box in self.boxes:
            yield from box.iter_profiles()

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
