import copy
import itertools
import json
import pickle
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import mbti_szondi.verification as verification
from mbti_szondi import (
    NORM_PROFILE,
    Box,
    CheckResult,
    ConnectionReport,
    Interpretation,
    Profile,
    ProfileSet,
    TypeIndicator,
    all_right_polarities,
    builtin_interpretation,
    closure_left,
    closure_right,
    conj,
    indicator_set_from_mask,
    kernel_classes,
    left_polarity,
    load_interpretation,
    models,
    open_cache,
    right_polarity,
    run_verification,
    verify_facts,
    verify_lemma,
    verify_theorem,
    write_cache,
)

import pinned
from conftest import (
    LOADABLE_DOCUMENTS,
    DisjunctiveInterpretation,
    DropLastInterpretation,
    FalseLiftInterpretation,
    NarrowLiftInterpretation,
    data_text,
    fresh,
)
from mbti_szondi.boxes import FULL_FACTOR_MASK
from mbti_szondi.connection import DEFAULT_SEED, VERIFY_SUITES
from mbti_szondi.interpret import profile_formula, profiles_formula
from mbti_szondi.logic import _NOT, _flatten
from test_boxes import sets_on_universe, union_of
from test_cache import CUSTOM_DOCUMENT

ALL_INDICATORS = frozenset(TypeIndicator)
# The trials within which README says a drop-last lift fails the theorem.
DROP_LAST_TRIALS = 20


class TestRightPolarity:
    def test_empty_set_maps_to_full_space(self, interp):
        assert right_polarity(interp, []) == ProfileSet.full()

    def test_singleton_counts_pinned(self, interp):
        for indicator in TypeIndicator:
            count = right_polarity(interp, [indicator]).count()
            assert count == pinned.SINGLETON_COUNTS[indicator.name], indicator.name

    def test_conflicting_pair_is_empty(self, interp):
        pair = [TypeIndicator.ISTJ, TypeIndicator.ESTP]
        assert right_polarity(interp, pair).count() == pinned.PAIR_ISTJ_ESTP_COUNT

    def test_norm_profile_satisfies_no_row(self, interp):
        for indicator in TypeIndicator:
            assert NORM_PROFILE not in right_polarity(interp, [indicator])


class TestLeftPolarity:
    def test_empty_profile_set_maps_to_all_indicators(self, interp):
        assert left_polarity(interp, ProfileSet.empty()) == ALL_INDICATORS
        assert left_polarity(interp, []) == ALL_INDICATORS

    def test_norm_profile_maps_to_empty(self, interp):
        assert left_polarity(interp, [NORM_PROFILE]) == frozenset()

    def test_routes_agree(self, interp):
        # Formula evaluation over a list vs the region index on the symbolic set.
        rng = random.Random(99)
        for _ in range(25):
            ind_set = frozenset(i for i in TypeIndicator if rng.random() < 0.4)
            steer = right_polarity(interp, ind_set)
            profiles = steer.sample(rng, 8) if steer else []
            profiles += [Profile.from_index(rng.randrange(12**8)) for _ in range(4)]
            symbolic = models(profiles_formula(profiles))
            assert left_polarity(interp, profiles) == left_polarity(interp, symbolic)

    def test_members_of_singleton_polarity_map_back(self, interp):
        rng = random.Random(3)
        for indicator in (TypeIndicator.INFJ, TypeIndicator.ESTJ):
            for p in right_polarity(interp, [indicator]).sample(rng, 10):
                assert indicator in left_polarity(interp, [p])


@pytest.mark.parametrize("document", ["negation_interpretation.txt", "custom"])
def test_explicit_route_matches_point_boxes(document):
    # Documents with negated entries: the explicit route (the rows' generated
    # program) against the region index on each profile's point box.
    text = CUSTOM_DOCUMENT.read_text() if document == "custom" else data_text(document)
    chosen = load_interpretation(text)
    _, steps, _ = _flatten([chosen.row(ind) for ind in TypeIndicator])
    assert any(kind == _NOT for kind, _, _ in steps)
    rng = random.Random(23)
    regions = chosen.regions()
    profiles = [p for _, region in regions for p in region.sample(rng, 2)]
    profiles += [Profile.from_index(rng.randrange(12**8)) for _ in range(300)]
    for p in profiles:
        point = models(profile_formula(p))
        assert left_polarity(chosen, [p]) == left_polarity(chosen, point), str(p)
    for mask, region in regions:
        assert left_polarity(chosen, region.sample(rng, 3)) == indicator_set_from_mask(mask)


@lru_cache(maxsize=None)
def document_interp(document):
    """The built-in for None, else the loaded test document (memoized)."""
    if document is None:
        return builtin_interpretation()
    return load_interpretation(data_text(document))


def left_by_definition(chosen, profiles):
    """←P as defined: the indicators whose row set contains all of P."""
    return frozenset(i for i in TypeIndicator if profiles.issubset(chosen.row_set(i)))


@pytest.mark.parametrize("document", [None, *LOADABLE_DOCUMENTS])
def test_empty_sets_share_the_answer_of_all_indicators(document, monkeypatch):
    # An empty set, symbolic or explicit, is answered by one shared frozenset
    # of all sixteen, with neither the region index nor the row function.
    chosen = document_interp(document)

    def refused(self):
        raise AssertionError("built for an empty set")

    with monkeypatch.context() as patched:
        patched.setattr(Interpretation, "region_index", refused)
        patched.setattr(Interpretation, "row_program", refused)
        answer = left_polarity(chosen, ProfileSet.empty())
        assert answer == ALL_INDICATORS
        assert left_polarity(chosen, ProfileSet(())) is answer
        assert left_polarity(chosen, []) is answer
        assert left_polarity(chosen, iter(())) is answer
    # A nonempty set, however small, is still decided by the rows: a part
    # of a region holds the region's indicators.
    regions = chosen.regions()
    for mask, region in (*regions[:3], *regions[-3:]):
        part = ProfileSet(region.boxes[:1])
        indicators = indicator_set_from_mask(mask)
        assert left_polarity(chosen, part) == indicators
        assert left_polarity(chosen, [next(part.iter_profiles())]) == indicators


# Basic mode twice and rows mode once.
SYMBOLIC_DOCUMENTS = [None, "alt_interpretation.txt", "row_translations.txt"]

# One signature, any nonempty subset, or the whole factor.
signature_masks = st.one_of(
    st.integers(0, 11).map(lambda signature: 1 << signature),
    st.integers(1, FULL_FACTOR_MASK),
    st.just(FULL_FACTOR_MASK),
)
boxes_anywhere = st.tuples(*[signature_masks] * 8).map(Box)
profile_sets = st.one_of(
    st.lists(boxes_anywhere, min_size=1, max_size=4).map(union_of),
    sets_on_universe(),
    st.just(ProfileSet.empty()),
    st.just(ProfileSet.full()),
)
small_indicator_sets = st.frozensets(st.sampled_from(list(TypeIndicator)), min_size=1, max_size=3)


@pytest.mark.parametrize("document", SYMBOLIC_DOCUMENTS)
class TestSymbolicLeftPolarity:
    """The region-index route of ``left_polarity`` against its definition."""

    @given(profiles=profile_sets)
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, document, profiles):
        chosen = document_interp(document)
        assert left_polarity(chosen, profiles) == left_by_definition(chosen, profiles)

    @given(indicators=small_indicator_sets, cut=st.one_of(st.none(), profile_sets))
    @settings(max_examples=60, deadline=None)
    def test_right_polarities_and_their_parts(self, document, indicators, cut):
        # P is →I or a part of it, so I ⊆ ←P.
        chosen = document_interp(document)
        profiles = right_polarity(chosen, indicators)
        if cut is not None:
            profiles = profiles.intersect(cut)
        answer = left_polarity(chosen, profiles)
        assert answer == left_by_definition(chosen, profiles)
        assert indicators <= answer

    def test_empty_and_full_sets(self, document):
        chosen = document_interp(document)
        assert left_polarity(chosen, ProfileSet.empty()) == ALL_INDICATORS
        full = left_polarity(chosen, ProfileSet.full())
        assert full == left_by_definition(chosen, ProfileSet.full())


class TestClosures:
    def test_left_closure_inflationary(self, interp):
        rng = random.Random(17)
        for _ in range(20):
            ind_set = frozenset(i for i in TypeIndicator if rng.random() < 0.5)
            assert ind_set <= closure_left(interp, ind_set)

    def test_right_closure_inflationary(self, interp):
        rng = random.Random(18)
        steer = right_polarity(interp, [TypeIndicator.ENTP])
        profiles = steer.sample(rng, 6)
        closed = closure_right(interp, profiles)
        for p in profiles:
            assert p in closed

    def test_triple_application_collapses(self, interp):
        # The closure law: right of the closed set equals right of the set.
        rng = random.Random(19)
        for _ in range(10):
            ind_set = frozenset(i for i in TypeIndicator if rng.random() < 0.5)
            closed = closure_left(interp, ind_set)
            assert right_polarity(interp, closed) == right_polarity(interp, ind_set)


class TestKernel:
    def test_closure_never_changes_polarity(self, interp):
        for ind_set in ([], [TypeIndicator.ISTJ], list(TypeIndicator)[:4]):
            closed = closure_left(interp, ind_set)
            assert right_polarity(interp, closed) == right_polarity(interp, ind_set)

    def test_distinct_singletons_not_equivalent(self, interp):
        assert right_polarity(interp, [TypeIndicator.ISTJ]) != right_polarity(
            interp, [TypeIndicator.ESTP]
        )

    def test_empty_polarity_sets_equivalent(self, interp):
        pair = [TypeIndicator.ISTJ, TypeIndicator.ESTP]
        assert right_polarity(interp, pair) == right_polarity(interp, ALL_INDICATORS)

    def test_table_matches_direct_computation(self, interp):
        table = all_right_polarities(interp)
        assert len(table) == 65536
        assert table[0] == ProfileSet.full()
        rng = random.Random(23)
        for mask in [1 << i for i in range(16)] + [rng.randrange(65536) for _ in range(20)]:
            members = [ind for ind in TypeIndicator if mask >> ind & 1]
            assert table[mask] == right_polarity(interp, members), mask

    def test_nonempty_polarity_count_pinned(self, interp):
        table = all_right_polarities(interp)
        assert sum(1 for ps in table if ps) == pinned.NONEMPTY_POLARITY_COUNT

    def test_kernel_partition(self, interp):
        classes = kernel_classes(interp)
        assert len(classes) == pinned.KERNEL_CLASS_COUNT
        sizes = sorted(len(c) for c in classes)
        assert sum(sizes) == 65536
        # one class holds every mask with empty polarity
        assert sizes[-1] == 65536 - pinned.NONEMPTY_POLARITY_COUNT
        flat = sorted(m for c in classes for m in c)
        assert flat == list(range(65536))
        # rows are pairwise distinct, so the 16 singleton masks spread over
        # 16 different classes
        of_mask = {}
        for class_id, members in enumerate(classes):
            for m in members:
                of_mask[m] = class_id
        assert len({of_mask[1 << i] for i in range(16)}) == 16
        assert classes[0] == [0]

    def test_mutating_a_result_leaves_the_next_unchanged(self, interp):
        # The empty polarity's class is sliced from one shared tuple of the
        # masks: each call must still return lists of its own.
        first = kernel_classes(interp)
        expected = copy.deepcopy(first)
        empty = max(first, key=len)
        assert len(empty) == 65536 - pinned.NONEMPTY_POLARITY_COUNT
        empty[0] = -1
        del empty[100:]
        empty.append(-2)
        first[0].append(-3)
        second = kernel_classes(interp)
        assert second == expected
        assert len(second) == pinned.KERNEL_CLASS_COUNT
        assert len(max(second, key=len)) == 65536 - pinned.NONEMPTY_POLARITY_COUNT


# (regions, boxes in all regions, kernel classes, nonempty polarities)
CONTEXT_PINS = {
    "builtin": (
        pinned.REGION_COUNT,
        pinned.REGION_BOX_COUNT,
        pinned.KERNEL_CLASS_COUNT,
        pinned.NONEMPTY_POLARITY_COUNT,
    ),
    "alt": (
        pinned.ALT_REGION_COUNT,
        pinned.ALT_REGION_BOX_COUNT,
        pinned.ALT_KERNEL_CLASS_COUNT,
        pinned.ALT_NONEMPTY_POLARITY_COUNT,
    ),
}


@pytest.fixture(params=sorted(CONTEXT_PINS))
def pinned_interp(request, interp, alt_interp):
    chosen = {"builtin": interp, "alt": alt_interp}[request.param]
    return chosen, CONTEXT_PINS[request.param]


def lattice_by_dp(interp):
    """Reference lattice: each mask's polarity is the polarity of the mask
    without its lowest bit, intersected with that bit's row set."""
    rows = [interp.row_set(ind) for ind in TypeIndicator]
    out = [ProfileSet.full()] * 65536
    for mask in range(1, 65536):
        low_bit = mask & -mask
        out[mask] = out[mask ^ low_bit].intersect(rows[low_bit.bit_length() - 1])
    return out


def partition_by_equality(polarities):
    """Reference kernel: masks merged by semantic equality of polarities."""
    buckets = {}
    for mask, profile_set in enumerate(polarities):
        classes = buckets.setdefault(profile_set.count(), [])
        for representative, members in classes:
            # Equal counts make one-way containment an equality test.
            if profile_set.issubset(representative):
                members.append(mask)
                break
        else:
            classes.append((profile_set, [mask]))
    partition = [members for classes in buckets.values() for _, members in classes]
    return sorted(partition, key=lambda members: members[0])


# The built-in, a basic document and one whose entries carry negations, each
# with its count of nonempty polarities.
SPARSE_PINS = {
    "builtin": pinned.NONEMPTY_POLARITY_COUNT,
    "alt": pinned.ALT_NONEMPTY_POLARITY_COUNT,
    "custom": pinned.CUSTOM_NONEMPTY_POLARITY_COUNT,
}


@pytest.fixture(scope="module", params=sorted(SPARSE_PINS))
def sparse_case(request):
    """A fresh interpretation, its pinned nonempty count and its reference lattice."""
    if request.param == "builtin":
        chosen = builtin_interpretation()
    elif request.param == "alt":
        chosen = load_interpretation(data_text("alt_interpretation.txt"))
    else:
        chosen = load_interpretation(CUSTOM_DOCUMENT.read_text())
    return chosen, SPARSE_PINS[request.param], lattice_by_dp(chosen)


def brute_cover(regions, mask):
    """The bitset of the regions whose mask contains ``mask``, one by one."""
    return sum(1 << r for r, (m, _) in enumerate(regions) if m & mask == mask)


class TestSparseCovers:
    """``covers()`` holds only the masks with a nonempty polarity."""

    def test_keys_are_the_nonempty_polarities(self, sparse_case):
        chosen, nonempty, reference = sparse_case
        covers = chosen.covers()
        assert list(covers) == [mask for mask, p in enumerate(reference) if p]
        assert len(covers) == nonempty

    def test_keys_ascend_and_values_are_nonzero(self, sparse_case):
        chosen, _, _ = sparse_case
        keys = list(chosen.covers())
        assert keys == sorted(set(keys))
        assert all(chosen.covers().values())

    def test_values_match_brute_force(self, sparse_case):
        chosen, _, _ = sparse_case
        regions = chosen.regions()
        for mask, cover in chosen.covers().items():
            assert cover == brute_cover(regions, mask), mask

    def test_read_only(self, sparse_case):
        chosen, _, _ = sparse_case
        with pytest.raises(TypeError):
            chosen.covers()[1 << 16] = 1

    def test_absent_masks_cover_nothing(self, sparse_case):
        # Exhaustive over all 65,536 masks.
        chosen, _, _ = sparse_case
        regions = chosen.regions()
        covers = chosen.covers()
        assert all(brute_cover(regions, mask) == 0 for mask in range(65536) if mask not in covers)

    def test_entries_are_the_dense_covers(self, sparse_case, tmp_path):
        chosen, _, _ = sparse_case
        dense = [0] * 65536
        for mask, cover in chosen.covers().items():
            dense[mask] = cover
        assert open_cache(write_cache(tmp_path / "t.jsonl", chosen)).entries == dense


@pytest.mark.parametrize("document", ["builtin", "alt", "custom", "negation"])
def test_masks_outside_the_covers_share_the_empty_set(document):
    if document == "builtin":
        chosen = builtin_interpretation()
    elif document == "custom":
        chosen = load_interpretation(CUSTOM_DOCUMENT.read_text())
    else:
        chosen = load_interpretation(data_text(f"{document}_interpretation.txt"))
    table = all_right_polarities(chosen)
    covers = chosen.covers()
    outside = [polarity for mask, polarity in enumerate(table) if mask not in covers]
    assert len(outside) == 65536 - len(covers) > 0
    assert all(polarity is ProfileSet.empty() for polarity in outside)
    assert all(table[mask] for mask in covers)


class TestAllTrueDocument:
    """Sixteen TRUE rows: one region, so no indicator set has the empty polarity."""

    @pytest.fixture
    def all_true(self):
        return load_interpretation(data_text("all_true_interpretation.txt"))

    def test_one_region_covers_every_mask(self, all_true):
        assert [(mask, region) for mask, region in all_true.regions()] == [
            (0xFFFF, ProfileSet.full())
        ]
        covers = all_true.covers()
        assert list(covers) == list(range(65536))
        assert set(covers.values()) == {1}

    def test_kernel_is_one_class(self, all_true):
        assert kernel_classes(all_true) == [list(range(65536))]

    def test_every_polarity_is_one_full_set(self, all_true):
        table = all_right_polarities(all_true)
        assert len(table) == 65536
        assert table[0] == ProfileSet.full()
        assert all(p is table[0] for p in table)

    def test_entries_are_all_one(self, all_true, tmp_path):
        assert open_cache(write_cache(tmp_path / "t.jsonl", all_true)).entries == [1] * 65536


class TestFormalContext:
    def test_region_table_pinned(self, pinned_interp):
        chosen, (regions, boxes, _, _) = pinned_interp
        table = chosen.regions()
        assert len(table) == regions
        assert sum(len(region.boxes) for _, region in table) == boxes
        assert chosen.regions() is table

    def test_regions_partition_the_space(self, pinned_interp):
        chosen, _ = pinned_interp
        masks = [mask for mask, _ in chosen.regions()]
        regions = [region for _, region in chosen.regions()]
        assert len(set(masks)) == len(masks)
        assert all(regions)
        assert sum(region.count() for region in regions) == pinned.FULL_SPACE
        for a, b in itertools.combinations(regions, 2):
            assert not a.intersect(b)

    def test_region_masks_match_evaluation(self, pinned_interp):
        # The rows' program, run once over each region's sampled profiles.
        chosen, _ = pinned_interp
        rng = random.Random(37)
        for mask, region in chosen.regions():
            profiles = region.sample(rng, 4)
            rows = chosen.row_program()(profiles)
            for j, profile in enumerate(profiles):
                satisfied = sum(1 << ind for ind, row in zip(TypeIndicator, rows) if row >> j & 1)
                assert satisfied == mask, str(profile)

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 200])
    def test_explicit_left_polarity_is_meet_of_singletons(self, pinned_interp, size):
        # Member masks wider than one machine word, duplicates included.  A
        # member of region R satisfies exactly the rows of mask(R), so a list
        # drawn from one region maps to that mask, and a list drawn from
        # several maps to the meet of their masks.
        chosen, _ = pinned_interp
        rng = random.Random(size)
        regions = [entry for entry in chosen.regions() if entry[0]]
        for _ in range(4):
            drawn = rng.sample(regions, rng.choice((1, 1, 2)))
            pool = [p for _, region in drawn for p in region.sample(rng, size // 3 + 1)]
            members = [rng.choice(pool) for _ in range(size)]
            assert size < 2 or len(set(members)) < size
            expected = ALL_INDICATORS
            for p in members:
                expected = expected & left_polarity(chosen, [p])
            answer = left_polarity(chosen, members)
            assert answer == expected
            present = {mask for mask, region in drawn if any(p in region for p in members)}
            meet = (1 << 16) - 1
            for mask in present:
                meet &= mask
            assert answer == frozenset(i for i in TypeIndicator if meet >> i & 1)
            assert answer == left_polarity(chosen, models(profiles_formula(members)))

    def test_lattice_matches_dp_route(self, pinned_interp):
        chosen, (_, _, class_count, nonempty) = pinned_interp
        table = all_right_polarities(chosen)
        reference = lattice_by_dp(chosen)
        assert [p.count() for p in table] == [p.count() for p in reference]
        classes = kernel_classes(chosen)
        assert classes == partition_by_equality(reference)
        assert len(classes) == class_count
        for members in classes:
            assert table[members[0]] == reference[members[0]]
        # One shared ProfileSet per kernel class.
        assert len({id(p) for p in table}) == class_count
        assert sum(1 for p in table if p) == nonempty

    def test_right_polarity_box_identical_to_models(self, pinned_interp):
        chosen, _ = pinned_interp
        sets = [
            members
            for size in (1, 2, 3)
            for members in itertools.combinations(TypeIndicator, size)
        ]
        assert len(sets) == 696
        for members in sets:
            expected = models(chosen.lift(members))
            assert right_polarity(chosen, members).boxes == expected.boxes, members

    def test_memoized_sets_box_identical_to_fresh_compile(self, pinned_interp):
        # Rows are the singletons; every lift reuses the rows' compiled sets.
        chosen, _ = pinned_interp
        for size in (1, 2, 3):
            for members in itertools.combinations(TypeIndicator, size):
                lifted = chosen.lift(members)
                assert models(lifted).boxes == models(fresh(lifted)).boxes, members
        for indicator in TypeIndicator:
            assert chosen.row_set(indicator) is models(chosen.row(indicator))

    def test_singleton_polarity_is_the_row_set(self, pinned_interp):
        chosen, _ = pinned_interp
        for indicator in TypeIndicator:
            assert right_polarity(chosen, {indicator}) is chosen.row_set(indicator)

    def test_one_cover_dp_per_interpretation(self, monkeypatch):
        import mbti_szondi.interpret as interpret

        runs = []
        dp = interpret.region_covers

        def counted(region_masks):
            runs.append(region_masks)
            return dp(region_masks)

        monkeypatch.setattr(interpret, "region_covers", counted)
        loaded = load_interpretation(data_text("alt_interpretation.txt"))
        classes = kernel_classes(loaded)
        table = all_right_polarities(loaded)
        assert len(runs) == 1
        assert loaded.covers() is loaded.covers()
        assert len({id(p) for p in table}) == len(classes) == pinned.ALT_KERNEL_CLASS_COUNT
        for members in classes:
            assert all(table[mask] is table[members[0]] for mask in members)

    def test_one_row_program_per_interpretation(self, interp, monkeypatch):
        import mbti_szondi.interpret as interpret

        runs = []
        compile_rows = interpret._program

        def counted(formulas):
            runs.append(formulas)
            return compile_rows(formulas)

        monkeypatch.setattr(interpret, "_program", counted)
        chosen = Interpretation(dict(interp.rows), interp.basic)
        for indicator in TypeIndicator:  # what to-spp asks
            right_polarity(chosen, [indicator])
        left_polarity(chosen, right_polarity(chosen, [TypeIndicator.ISTJ]))
        assert runs == []
        rng = random.Random(4)
        for _ in range(100):
            left_polarity(chosen, [Profile.from_index(rng.randrange(12**8))])
        assert len(runs) == 1
        assert chosen.row_program() is chosen.row_program()
        # A broken lift compiles its own rows, and the theorem still sees it.
        broken = DisjunctiveInterpretation(dict(interp.rows), interp.basic)
        (check,) = verify_theorem(broken, trials=1000, seed=2)
        assert not check.passed
        assert len(runs) == 2


def check_names(results):
    return [c.name for c in results]


class TestVerification:
    def test_all_suites_pass_builtin(self, interp):
        report = run_verification(interp, "all", trials=40, seed=7)
        assert report.passed
        assert check_names(report.checks) == [
            "facts.profile-translation-monotone",
            "facts.rows-distinct",
            "lemma.antitone-right",
            "lemma.antitone-left",
            "lemma.closure-indicators",
            "lemma.closure-profiles",
            "theorem.biconditional",
        ]

    def test_every_check_decides_a_case(self, interp):
        # Basic-mode and rows-mode documents alike: every check runs at
        # least one trial, and no law is reported under two names.
        documents = [
            "alt_interpretation.txt",  # basic mode
            "pointwise_interpretation.txt",  # rows mode
            "row_translations.txt",  # rows mode
        ]
        for chosen in [interp, *(load_interpretation(data_text(d)) for d in documents)]:
            report = run_verification(chosen, "all", trials=5, seed=13)
            assert report.passed
            assert all(c.trials > 0 for c in report.checks), report.render()
            names = check_names(report.checks)
            assert len(set(names)) == len(names)

    def test_theorem_passes_alternative_interpretation(self, alt_interp):
        results = verify_theorem(alt_interp, trials=40, seed=11)
        assert all(c.passed for c in results)

    def test_broken_lift_fails_theorem(self, disjunctive_interp):
        # Detection is probabilistic; failure odds at 1000 trials are ~1e-8.
        results = verify_theorem(disjunctive_interp, trials=1000, seed=2)
        (check,) = results
        assert not check.passed
        assert check.witness is not None
        assert "P⊆→I" in check.witness

    @pytest.mark.parametrize(
        "document", [None, "alt_interpretation.txt", "row_translations.txt"]
    )
    def test_drop_last_lift_fails_theorem(self, interp, document):
        # A singleton lifts to TRUE and a pair to its first row, so P ⊆ →I
        # can hold while I ⊆ ←P fails; only draws of small sets reach them.
        base = interp if document is None else load_interpretation(data_text(document))
        broken = DropLastInterpretation(dict(base.rows), base.basic)
        for seed in range(5):
            (check,) = verify_theorem(broken, trials=DROP_LAST_TRIALS, seed=seed)
            assert not check.passed, seed
            assert "P⊆→I" in check.witness

    @pytest.mark.parametrize("broken_lift", [FalseLiftInterpretation, NarrowLiftInterpretation])
    def test_too_small_lift_fails_theorem(self, interp, broken_lift):
        # →I is too small, so P drawn from →I agrees with itself; P drawn
        # from the rows of I lies outside →I while I ⊆ ←P holds.
        broken = broken_lift(dict(interp.rows), interp.basic)
        for seed in range(5):
            (check,) = verify_theorem(broken, trials=20, seed=seed)
            assert not check.passed, seed
            assert "P⊆→I is False but I⊆←P is True" in check.witness

    @pytest.mark.parametrize("document", [None, "alt_interpretation.txt"])
    def test_draws_decide_nontrivial_cases(self, interp, document, monkeypatch):
        # Only small indicator sets have a nonempty →I, and only profiles
        # drawn inside one give a nonempty ←P: count the draws that do.
        chosen = interp if document is None else load_interpretation(data_text(document))
        rights, lefts = [], []

        def spy_right(interp_, indicators):
            result = right_polarity(interp_, indicators)
            rights.append(bool(indicators) and bool(result))
            return result

        def spy_left(interp_, profiles):
            result = left_polarity(interp_, profiles)
            if not isinstance(profiles, ProfileSet):
                lefts.append(bool(result))
            return result

        monkeypatch.setattr(verification, "right_polarity", spy_right)
        monkeypatch.setattr(verification, "left_polarity", spy_left)
        verify_theorem(chosen, trials=200, seed=DEFAULT_SEED)
        assert sum(rights) >= 0.10 * len(rights), (sum(rights), len(rights))
        lefts.clear()
        verify_lemma(chosen, trials=200, seed=DEFAULT_SEED)
        assert sum(lefts) >= 0.05 * len(lefts), (sum(lefts), len(lefts))

    @pytest.mark.parametrize("broken_lift", [DisjunctiveInterpretation, DropLastInterpretation])
    def test_broken_lift_fails_closure_indicators(self, interp, broken_lift):
        # ←→I takes →I through the lift under test, so a broken lift shows
        # in the closure; an intent read off the region masks would not.
        broken = broken_lift(dict(interp.rows), interp.basic)
        for seed in range(5):
            results = {c.name: c for c in verify_lemma(broken, trials=60, seed=seed)}
            check = results["lemma.closure-indicators"]
            assert not check.passed, seed
            assert "⊄ ←→I=" in check.witness

    def test_conjunctive_profile_translation_fails_monotone(self, interp, monkeypatch):
        # Conjoined, a list of two distinct profiles translates to an
        # unsatisfiable formula, which one profile of it does not entail.
        def conjunctive(profiles):
            return conj(profile_formula(p) for p in sorted(set(profiles), key=Profile.index))

        monkeypatch.setattr(verification, "profiles_formula", conjunctive)
        for seed in range(5):
            results = {c.name: c for c in verify_facts(interp, trials=20, seed=seed)}
            check = results["facts.profile-translation-monotone"]
            assert not check.passed, seed
            assert "does not entail" in check.witness

    def test_too_large_left_polarity_fails_antitone(self, interp, monkeypatch):
        # All sixteen indicators for every explicit list of two or more
        # profiles: a one-profile sub-list then has the smaller ←P.
        def too_large(interp_, profiles):
            if not isinstance(profiles, ProfileSet) and len(profiles) >= 2:
                return frozenset(TypeIndicator)
            return left_polarity(interp_, profiles)

        monkeypatch.setattr(verification, "left_polarity", too_large)
        for seed in range(5):
            results = {c.name: c for c in verify_lemma(interp, trials=20, seed=seed)}
            check = results["lemma.antitone-left"]
            assert not check.passed, seed
            assert "but ←P' ⊄ ←P" in check.witness

    def test_broken_lift_fails_antitone(self, disjunctive_interp):
        results = verify_lemma(disjunctive_interp, trials=60, seed=2)
        by_name = {c.name: c for c in results}
        assert not by_name["lemma.antitone-right"].passed
        assert by_name["lemma.antitone-right"].witness is not None

    def test_report_rendering(self, interp):
        report = run_verification(interp, "theorem", trials=5, seed=1)
        text = report.render()
        assert "verification suite: theorem" in text
        assert "PASS  theorem.biconditional" in text
        assert text.endswith("all checks passed")

    def test_report_payload_serializable_and_deterministic(self, interp):
        a = run_verification(interp, "lemma", trials=10, seed=42)
        b = run_verification(interp, "lemma", trials=10, seed=42)
        payload = a.to_payload()
        json.dumps(payload)

        def stable(report):
            return [
                (c.name, c.passed, c.trials, c.witness) for c in report.checks
            ]

        assert stable(a) == stable(b)
        assert payload["fingerprint"] == interp.fingerprint()
        assert payload["passed"] is True

    def test_all_runs_the_other_suites_in_order(self, interp):
        names = {
            suite: [c.name for c in run_verification(interp, suite, trials=1).checks]
            for suite in VERIFY_SUITES
        }
        assert VERIFY_SUITES == ("facts", "lemma", "theorem", "all")
        assert names["all"] == names["facts"] + names["lemma"] + names["theorem"]
        for suite in VERIFY_SUITES[:-1]:
            assert names[suite] and all(n.startswith(f"{suite}.") for n in names[suite])

    def test_unknown_suite_rejected(self, interp):
        # Refused before the report takes a fingerprint.
        class Unfingerprinted(Interpretation):
            def fingerprint(self):
                raise RuntimeError("fingerprint taken")

        unfingerprinted = Unfingerprinted(dict(interp.rows), interp.basic)
        with pytest.raises(ValueError, match="unknown suite 'everything'"):
            run_verification(unfingerprinted, "everything")

    def test_failed_law_counts_the_trials_it_ran(self, disjunctive_interp):
        # The first witness ends a law, so its count is the trials that ran;
        # a passing law ran them all (120 pairs for the rows).
        report = run_verification(disjunctive_interp, "all", trials=1000, seed=1729)
        trials = {c.name: (c.passed, c.trials) for c in report.checks}
        assert trials == {
            "facts.profile-translation-monotone": (True, 1000),
            "facts.rows-distinct": (True, 120),
            "lemma.antitone-right": (False, 1),
            "lemma.antitone-left": (True, 1000),
            "lemma.closure-indicators": (False, 1),
            "lemma.closure-profiles": (False, 1),
            "theorem.biconditional": (False, 1),
        }
        outcomes = iter([None, None, "third", None])
        check = verification._law("law", 4, lambda: next(outcomes))
        assert (check.passed, check.trials, check.witness) == (False, 3, "third")
        assert verification._law("law", 0, lambda: "never run").trials == 0

    @pytest.mark.parametrize("broken_lift", [
        DisjunctiveInterpretation,
        DropLastInterpretation,
        FalseLiftInterpretation,
        NarrowLiftInterpretation,
    ])
    def test_seeded_draws_are_pinned(self, interp, broken_lift):
        # Determinism within one run does not show a change to which draws
        # are made; the witnesses and trial counts of a seeded run do.
        broken = broken_lift(dict(interp.rows), interp.basic)
        report = run_verification(broken, "all", trials=1000, seed=1729)
        failures = pinned.BROKEN_LIFT_FAILURES[broken_lift.__name__]
        for check in report.checks:
            if check.name in failures:
                assert (check.passed, (check.trials, check.witness)) == (False, failures[check.name])
            else:
                passing = 120 if check.name == "facts.rows-distinct" else 1000
                assert (check.passed, check.trials, check.witness) == (True, passing, None)

    def test_failing_report_renders_fail(self, disjunctive_interp):
        report = run_verification(disjunctive_interp, "theorem", trials=1000, seed=2)
        assert not report.passed
        text = report.render()
        assert "FAIL  theorem.biconditional" in text
        assert "witness:" in text
        assert text.endswith("result: FAILED")


class TestRecords:
    """The verification records are immutable values, built positionally."""

    @pytest.fixture
    def check(self):
        return CheckResult("law", False, 3, 0.25, "a witness")

    @pytest.fixture
    def report(self, check):
        return ConnectionReport("lemma", 7, 3, "ab" * 32, [check])

    def test_repr_and_equality(self, check, report):
        assert repr(check) == (
            "CheckResult(name='law', passed=False, trials=3, elapsed=0.25, witness='a witness')"
        )
        assert repr(report) == (
            f"ConnectionReport(suite='lemma', seed=7, trials=3, fingerprint='{'ab' * 32}', "
            f"checks=[{check!r}])"
        )
        assert check == CheckResult("law", False, 3, 0.25, "a witness")
        assert check != CheckResult("law", False, 3, 0.25, None)
        assert report == ConnectionReport("lemma", 7, 3, "ab" * 32, [check])
        assert report != ConnectionReport("lemma", 7, 3, "ab" * 32, [])

    def test_payload(self, check, report):
        assert check.to_payload() == {
            "name": "law", "passed": False, "trials": 3,
            "elapsed_seconds": 0.25, "witness": "a witness",
        }
        assert report.to_payload() == {
            "suite": "lemma", "seed": 7, "trials": 3, "fingerprint": "ab" * 32,
            "passed": False, "checks": [check.to_payload()],
        }

    def test_pickle_and_copy(self, check, report):
        for record in (check, report):
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.copy(record) == record
        assert copy.copy(report).checks is report.checks

    def test_fields_cannot_be_assigned(self, check, report):
        for record, name in ((check, "passed"), (report, "checks")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_report_unhashable(self, report):
        with pytest.raises(TypeError):
            hash(report)

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_wrong_number_of_values(self, count):
        for record in (CheckResult, ConnectionReport):
            with pytest.raises(TypeError, match=f"takes 5 values, got {count}"):
                record(*range(count))
