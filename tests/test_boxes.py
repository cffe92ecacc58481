import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mbti_szondi import (
    Box, Factor, GrammarError, Profile, ProfileSet, Signature, TypeIndicator,
    builtin_interpretation, load_interpretation,
)
from mbti_szondi.boxes import (
    FULL_FACTOR_MASK, _coalesce, _signature_index, _subtract_all, pairwise_disjoint,
)
from mbti_szondi.enumeration import restricted_universe

import pinned
from conftest import LOADABLE_DOCUMENTS, data_path, membership_vector
from test_cache import CUSTOM_DOCUMENT

# Two-factor universe: 144 assignments to (h, k), all other factors free.
UNIVERSE_FACTORS = (Factor.H, Factor.K)
UNIVERSE = restricted_universe(UNIVERSE_FACTORS)
FREE_WEIGHT = 12 ** 6

nonzero_mask = st.integers(min_value=1, max_value=FULL_FACTOR_MASK)


def box_on(factor_masks: dict[Factor, int]) -> Box:
    """The box with these masks on these factors, free elsewhere."""
    masks = [FULL_FACTOR_MASK] * 8
    for factor, mask in factor_masks.items():
        masks[factor] = mask
    return Box(tuple(masks))


def universe_box(h_mask: int, k_mask: int) -> Box:
    """The box with these masks on the two universe factors, free elsewhere."""
    return box_on({Factor.H: h_mask, Factor.K: k_mask})


@st.composite
def boxes_on_universe(draw):
    """Boxes constrained only on the two universe factors."""
    return universe_box(draw(nonzero_mask), draw(nonzero_mask))


@st.composite
def cells_on_universe(draw):
    """One (h, k) cell of the universe: such boxes are often disjoint."""
    return universe_box(1 << draw(st.integers(0, 11)), 1 << draw(st.integers(0, 11)))


def union_of(boxes) -> ProfileSet:
    """The set the boxes cover, overlapping or not."""
    result = ProfileSet.empty()
    for box in boxes:
        result = result.union(ProfileSet((box,)))
    return result


@st.composite
def sets_on_universe(draw):
    return union_of(draw(st.lists(boxes_on_universe(), max_size=4)))


def vector_of(profile_set: ProfileSet) -> np.ndarray:
    return membership_vector(profile_set, UNIVERSE)


# One profile per universe cell, in the order of vector_of.
CELL_PROFILES = [
    Profile.from_mapping({f: Signature({Factor.H: h, Factor.K: k}.get(f, 0)) for f in Factor})
    for h in range(12)
    for k in range(12)
]


def plain_coalesce(boxes) -> tuple[Box, ...]:
    """The reference greedy: each pass keeps a box or fuses it into the
    first kept box it fuses with, until a pass fuses nothing."""
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


def plain_signature_index(box_masks):
    """The reference index, entry by entry: per factor and half, the bitset
    of the boxes whose factor mask meets the half's signatures."""
    return [
        tuple(
            [sum(1 << b for b, masks in enumerate(box_masks) if masks[factor] >> shift & half)
             for half in range(64)]
            for shift in (0, 6)
        )
        for factor in Factor
    ]


def plain_intersect(a: ProfileSet, b: ProfileSet) -> tuple[Box, ...]:
    """The reference intersection: Box.intersect on every pair, then coalesced."""
    return ProfileSet([c for x in a.boxes for y in b.boxes if (c := x.intersect(y)) is not None]).boxes


def plain_subtract_all(box, obstacles) -> list[Box]:
    """The reference carving: every part through Box.subtract, obstacle by obstacle."""
    remainder = [box]
    for obstacle in obstacles:
        remainder = [piece for part in remainder for piece in part.subtract(obstacle)]
    return remainder


def plain_regions(interp) -> list[tuple[int, tuple[Box, ...]]]:
    """The reference formal context: every cell split on each row set in
    turn into its intersection and its difference, each kept if nonempty."""
    cells = [(0, ProfileSet.full())]
    for ind in TypeIndicator:
        row = interp.row_set(ind)
        split = []
        for mask, cell in cells:
            inside, outside = cell.intersect(row), cell.subtract(row)
            if inside:
                split.append((mask | 1 << ind, inside))
            if outside:
                split.append((mask, outside))
        cells = split
    return [(mask, cell.boxes) for mask, cell in cells]


class TestBox:
    def test_arity_and_mask_validation(self):
        with pytest.raises(ValueError):
            Box((FULL_FACTOR_MASK,) * 7)
        with pytest.raises(ValueError):
            Box((0,) + (FULL_FACTOR_MASK,) * 7)
        with pytest.raises(ValueError):
            Box((1 << 12,) + (FULL_FACTOR_MASK,) * 7)

    def test_full_box_counts_whole_space(self):
        assert Box.full().count() == 12 ** 8

    def test_atom_box(self):
        box = Box.for_atom(Factor.HY, Signature.POS)
        assert box.count() == 12 ** 7
        assert box.contains(Profile.from_mapping(
            {f: (Signature.POS if f is Factor.HY else Signature.ZERO) for f in Factor}
        ))

    def test_count_is_product_of_popcounts(self):
        masks = [FULL_FACTOR_MASK] * 8
        masks[Factor.H] = 0b101          # 2 signatures
        masks[Factor.M] = 0b111000       # 3 signatures
        assert Box(tuple(masks)).count() == 2 * 3 * 12 ** 6

    def test_intersect_disjoint_is_none(self):
        a = Box.for_atom(Factor.H, Signature.POS)
        b = Box.for_atom(Factor.H, Signature.NEG)
        assert a.intersect(b) is None

    def test_subtract_splits_into_disjoint_pieces(self):
        a = Box.full()
        b = Box.for_atom(Factor.H, Signature.POS)
        pieces = a.subtract(b)
        assert sum(p.count() for p in pieces) == a.count() - b.count()
        for i, p in enumerate(pieces):
            assert p.intersect(b) is None
            for q in pieces[i + 1:]:
                assert p.intersect(q) is None

    def test_subtract_non_overlapping_returns_self(self):
        a = Box.for_atom(Factor.H, Signature.POS)
        b = Box.for_atom(Factor.H, Signature.NEG)
        assert a.subtract(b) == [a]

    def test_fuse_one_factor_apart(self):
        a = Box.for_atom(Factor.H, Signature.POS)
        b = Box.for_atom(Factor.H, Signature.NEG)
        fused = a.fuse(b)
        assert fused is not None
        assert fused.masks[Factor.H] == (1 << Signature.POS) | (1 << Signature.NEG)

    def test_fuse_two_factors_apart_fails(self):
        a = Box.for_atom(Factor.H, Signature.POS)
        b = Box.for_atom(Factor.K, Signature.NEG)
        assert a.fuse(b) is None

    def test_iter_profiles_enumerates_exactly(self):
        masks = [1 << Signature.ZERO] * 8
        masks[Factor.H] = (1 << Signature.POS) | (1 << Signature.NEG)
        masks[Factor.M] = (1 << Signature.AMBI) | (1 << Signature.ZERO)
        box = Box(tuple(masks))
        profiles = list(box.iter_profiles())
        assert len(profiles) == box.count() == 4
        assert len(set(profiles)) == 4
        assert all(box.contains(p) for p in profiles)

    def test_iter_profiles_order(self):
        # --enumerate-to writes this order: ascending index, the last factor
        # fastest, across three varying factors.
        masks = [1 << Signature.ZERO] * 8
        masks[Factor.H] = (1 << Signature.POS) | (1 << Signature.NEG)
        masks[Factor.K] = (1 << Signature.AMBI_LOW) | (1 << Signature.NEG3)
        masks[Factor.M] = (1 << Signature.POS1) | (1 << Signature.ZERO) | (1 << Signature.AMBI)
        profiles = list(Box(tuple(masks)).iter_profiles())
        assert [str(p) for p in profiles[:4]] == [
            "h- s0 e0 hy0 k-!!! p0 d0 m0",
            "h- s0 e0 hy0 k-!!! p0 d0 m+!",
            "h- s0 e0 hy0 k-!!! p0 d0 m+-",
            "h- s0 e0 hy0 k+-_! p0 d0 m0",
        ]
        indices = [p.index() for p in profiles]
        assert len(indices) == 12
        assert indices == sorted(set(indices))

    def test_token_round_trip(self):
        box = Box.for_atom(Factor.HY, Signature.AMBI_LOW)
        assert Box.from_tokens(box.to_tokens()) == box
        with pytest.raises(GrammarError):
            Box.from_tokens(["+"] * 7)

    @given(boxes_on_universe(), boxes_on_universe())
    def test_intersect_matches_vectors(self, a, b):
        va, vb = vector_of(ProfileSet((a,))), vector_of(ProfileSet((b,)))
        assert [a.contains(p) for p in CELL_PROFILES] == va.tolist()
        common = a.intersect(b)
        expected = va & vb
        if common is None:
            assert not expected.any()
        else:
            assert np.array_equal(vector_of(ProfileSet((common,))), expected)

    @given(boxes_on_universe(), boxes_on_universe())
    def test_subtract_matches_vectors(self, a, b):
        pieces = a.subtract(b)
        got = np.zeros(len(vector_of(ProfileSet((a,)))), dtype=bool)
        for piece in pieces:
            piece_vec = vector_of(ProfileSet((piece,)))
            assert not (got & piece_vec).any()  # pieces pairwise disjoint
            got |= piece_vec
        assert np.array_equal(
            got, vector_of(ProfileSet((a,))) & ~vector_of(ProfileSet((b,)))
        )

    @given(boxes_on_universe(), boxes_on_universe())
    def test_derived_boxes_are_valid(self, a, b):
        # intersect, subtract and fuse build their boxes unchecked: each
        # must be what the checking constructor builds from its masks.
        near = Box(tuple(a.masks[f] if f == Factor.K else mask for f, mask in enumerate(b.masks)))
        common, pieces = a.intersect(b), a.subtract(b)
        fused = a.fuse(near)  # a and near differ on h at most
        assert fused is not None
        for box in [common, a.fuse(b), fused, *pieces]:
            if box is not None:
                assert type(box.masks) is tuple
                assert box == Box(box.masks)
        assert pairwise_disjoint(pieces)
        assert sum(piece.count() for piece in pieces) == a.count() - (
            common.count() if common is not None else 0
        )


class TestProfileSet:
    def test_empty_and_full(self):
        assert ProfileSet.empty().count() == 0
        assert not ProfileSet.empty()
        assert ProfileSet.full().count() == 12 ** 8
        assert ProfileSet.full().complement() == ProfileSet.empty()

    def test_immutable(self):
        s = ProfileSet.full()
        with pytest.raises(AttributeError):
            s.boxes = ()
        with pytest.raises(TypeError):
            hash(s)

    def test_membership(self):
        h_pos = ProfileSet((Box.for_atom(Factor.H, Signature.POS),))
        inside = Profile.from_mapping({f: Signature.POS for f in Factor})
        outside = Profile.from_mapping({f: Signature.NEG for f in Factor})
        assert inside in h_pos and outside not in h_pos

    def test_coalescing_rebuilds_families(self):
        singles = [Box.for_atom(Factor.H, s) for s in Signature]
        rebuilt = union_of(singles)
        assert rebuilt == ProfileSet.full()
        assert len(rebuilt.boxes) == 1

    @given(sets_on_universe(), sets_on_universe())
    @settings(max_examples=60)
    def test_union_intersect_subtract_match_vectors(self, a, b):
        va, vb = vector_of(a), vector_of(b)
        assert np.array_equal(vector_of(a.union(b)), va | vb)
        assert np.array_equal(vector_of(a.intersect(b)), va & vb)
        assert np.array_equal(vector_of(a.subtract(b)), va & ~vb)
        for result in (a.union(b), a.intersect(b), a.subtract(b)):
            assert pairwise_disjoint(result.boxes)

    @given(st.lists(boxes_on_universe(), max_size=4))
    @settings(max_examples=60)
    def test_union_with_the_empty_set(self, holes):
        # With one side empty, union returns the other side: the boxes that
        # carving and coalescing them again gives.  The set is cut by
        # subtraction, so that building it runs no union.
        a = ProfileSet.full()
        for hole in holes:
            a = a.subtract(ProfileSet((hole,)))
        rebuilt = ProfileSet(list(a.boxes)).boxes
        for union in (ProfileSet.empty().union(a), a.union(ProfileSet.empty())):
            assert union.boxes == a.boxes == rebuilt

    @given(
        st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=6),
        st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=6),
        st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=4),
    )
    # The piece that subtracting the cell (1, 0) leaves of the second box is
    # the cell (0, 0), which fuses with the first box, (0, 1).
    @example([universe_box(0b1, 0b10), universe_box(0b11, 0b1)], [], [universe_box(0b10, 0b1)])
    # The first pass fuses the last two boxes into the second, which the
    # second pass fuses into the first.
    @example([], [universe_box(0b11, 0b10), universe_box(0b1, 0b1), universe_box(0b10, 0b1)], [])
    # In the union, the cell (0, 0) fuses with the cell (0, 1) before it.
    @example([universe_box(0b1, 0b10)], [], [universe_box(0b1, 0b1)])
    # Boxes that differ on factor 0 alone fuse, and so do boxes that differ
    # on factor 1 alone: the pre-check skips only pairs differing on both.
    @example([], [box_on({Factor.H: 0b1}), box_on({Factor.H: 0b10})], [])
    @example([], [box_on({Factor.S: 0b1}), box_on({Factor.S: 0b10})], [])
    # Equal on factor 0, but apart on factor 1 and on factor 4: no fusion.
    @example([], [box_on({Factor.S: 0b1, Factor.K: 0b1}), box_on({Factor.S: 0b10, Factor.K: 0b10})], [])
    @settings(max_examples=200)
    def test_settled_prefix_coalesces_like_the_plain_greedy(self, first, extra, second):
        # A coalesced prefix is kept without retrying its pairs, in the
        # first pass and in every later one: the boxes are the plain
        # greedy's, box for box, on a bare list and through union and
        # subtract.
        a, b = union_of(first), union_of(second)
        assert plain_coalesce(a.boxes) == a.boxes
        boxes = [*a.boxes, *extra]
        assert _coalesce(boxes, len(a.boxes)) == plain_coalesce(boxes)
        carved = [piece for box in b.boxes for piece in _subtract_all(box, a.boxes)]
        assert a.union(b).boxes == plain_coalesce([*a.boxes, *carved])
        left = [piece for box in a.boxes for piece in _subtract_all(box, b.boxes)]
        assert a.subtract(b).boxes == plain_coalesce(left)
        for disjoint in (b.subtract(a), a.complement()):
            assert a.subtract(disjoint) is a

    @given(
        st.one_of(boxes_on_universe(), cells_on_universe()),
        st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=4),
    )
    @settings(max_examples=200)
    def test_subtract_all_keeps_what_an_obstacle_misses(self, box, obstacles):
        # The inline test for a part that misses an obstacle gives the plain
        # carving's boxes, and a box that no obstacle meets comes back as
        # itself, the identity ProfileSet.subtract reads.
        carved = _subtract_all(box, obstacles)
        assert carved == plain_subtract_all(box, obstacles)
        if all(box.intersect(obstacle) is None for obstacle in obstacles):
            assert len(carved) == 1 and carved[0] is box

    @given(sets_on_universe(), sets_on_universe())
    @settings(max_examples=100)
    def test_intersect_matches_the_pairwise_box_route(self, a, b):
        assert a.intersect(b).boxes == plain_intersect(a, b)

    @pytest.mark.parametrize("factor", list(Factor))
    def test_intersect_tests_every_factor(self, factor):
        # The hypothesis sets vary two factors only.  Here each pair of boxes
        # is equal on seven factors and differs on `factor`, wherever the
        # pair test reaches it in its chain.
        def on(mask, others=0b101):
            masks = [others << f for f in range(8)]
            masks[factor] = mask
            return Box(tuple(masks))

        a = ProfileSet((on(0b0011), on(0b0011, others=0b10)))
        disjoint = ProfileSet((on(0b1100), on(0b1100, others=0b10)))
        assert a.intersect(disjoint) is ProfileSet.empty()
        assert disjoint.intersect(a) is ProfileSet.empty()
        overlapping = ProfileSet((on(0b0110),))
        assert a.intersect(overlapping).boxes == plain_intersect(a, overlapping) == (on(0b0010),)

    def test_intersect_of_rows_matches_the_pairwise_box_route(self, interp):
        # Row boxes constrain every factor the rows read, not only two.
        rows = [interp.row_set(indicator) for indicator in TypeIndicator]
        for a, b in itertools.product(rows, repeat=2):
            assert a.intersect(b).boxes == plain_intersect(a, b)

    @given(st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=8))
    @settings(max_examples=100)
    def test_signature_index_matches_the_plain_build(self, boxes):
        box_masks = [box.masks for box in boxes]
        assert _signature_index(box_masks) == plain_signature_index(box_masks)

    def test_signature_index_of_the_builtin_regions(self, interp):
        box_masks = [box.masks for _, region in interp.regions() for box in region.boxes]
        assert len(box_masks) == pinned.REGION_BOX_COUNT
        assert _signature_index(box_masks) == plain_signature_index(box_masks)

    @pytest.mark.parametrize("document", ["builtin", "custom", *LOADABLE_DOCUMENTS])
    def test_regions_match_the_plain_split(self, document):
        # A cell the row misses is kept whole: the same boxes as carving it.
        if document == "builtin":
            chosen = builtin_interpretation()
        else:
            path = CUSTOM_DOCUMENT if document == "custom" else data_path(document)
            chosen = load_interpretation(path.read_text())
        regions = [(mask, region.boxes) for mask, region in chosen.regions()]
        assert regions == plain_regions(chosen)

    @given(st.lists(st.one_of(boxes_on_universe(), cells_on_universe()), max_size=6))
    @settings(max_examples=200)
    def test_pairwise_disjoint_matches_pairwise_intersection(self, boxes):
        expected = all(a.intersect(b) is None for a, b in itertools.combinations(boxes, 2))
        assert pairwise_disjoint(boxes) == expected

    @given(sets_on_universe())
    @settings(max_examples=60)
    def test_complement_and_count(self, a):
        va = vector_of(a)
        assert np.array_equal(vector_of(a.complement()), ~va)
        assert a.count() == int(va.sum()) * FREE_WEIGHT
        assert a.complement().complement() == a

    @given(sets_on_universe(), sets_on_universe())
    @settings(max_examples=60)
    def test_issubset_and_equality_match_vectors(self, a, b):
        va, vb = vector_of(a), vector_of(b)
        assert a.issubset(b) == bool((va <= vb).all())
        assert (a == b) == bool((va == vb).all())

    def test_equality_is_semantic(self):
        # Same set, structurally different boxes.
        family = union_of(
            [Box.for_atom(Factor.H, Signature.POS), Box.for_atom(Factor.K, Signature.NEG)]
        )
        reversed_family = union_of(
            [Box.for_atom(Factor.K, Signature.NEG), Box.for_atom(Factor.H, Signature.POS)]
        )
        assert family == reversed_family

    def test_sample_deterministic_and_inside(self):
        target = union_of(
            [Box.for_atom(Factor.H, Signature.POS), Box.for_atom(Factor.K, Signature.NEG)]
        )
        first = target.sample(random.Random(99), 24)
        second = target.sample(random.Random(99), 24)
        assert first == second
        # The draws themselves, not only their determinism: the same
        # generator calls in the same order pick these profiles.
        assert [p.index() for p in first] == [
            201430176, 189529875, 180451475, 206714017, 7926562, 186313886,
            188330600, 258272099, 391853533, 84152204, 200892850, 204057855,
            270113252, 185254647, 174146399, 191081020, 184018420, 410993356,
            211307746, 387914045, 122639523, 210233655, 268370744, 109575447,
        ]
        assert all(p in target for p in first)
        with pytest.raises(ValueError):
            ProfileSet.empty().sample(random.Random(0), 1)

    def test_iter_profiles_matches_count(self):
        masks = [1 << Signature.ZERO] * 8
        masks[Factor.D] = 0b11
        masks[Factor.M] = 0b111
        tiny = ProfileSet((Box(tuple(masks)),))
        profiles = list(tiny.iter_profiles())
        assert len(profiles) == tiny.count() == 6
        assert all(p in tiny for p in profiles)

    def test_payload_round_trip(self):
        target = union_of(
            [Box.for_atom(Factor.HY, Signature.AMBI_HIGH), Box.for_atom(Factor.E, Signature.NEG1)]
        )
        payload = target.to_payload()
        assert ProfileSet.from_payload(payload) == target

    def test_payload_count_tamper_detected(self):
        payload = ProfileSet.full().to_payload()
        payload["count"] += 1
        with pytest.raises(GrammarError):
            ProfileSet.from_payload(payload)

    def test_payload_bad_tokens_detected(self):
        payload = ProfileSet.full().to_payload()
        payload["boxes"][0] = ["bogus"] * 8
        with pytest.raises(GrammarError):
            ProfileSet.from_payload(payload)

    def test_membership_vector_rejects_outside_constraints(self):
        constrained = ProfileSet((Box.for_atom(Factor.M, Signature.POS),))
        with pytest.raises(ValueError):
            membership_vector(constrained, UNIVERSE)
