import pytest

from mbti_szondi import (
    And,
    GrammarError,
    Interpretation,
    InterpretationError,
    NORM_PROFILE,
    Profile,
    TypeIndicator,
    builtin_interpretation,
    equivalent,
    load_interpretation,
    models,
    parse_formula,
    render_formula,
)

import pinned
from conftest import data_text
from mbti_szondi.interpret import (
    _FACT1_PAIRS,
    BASIC_KEYS,
    perception_dominant,
    profile_formula,
    profiles_formula,
    synthesize_rows,
)


class TestDominanceRule:
    def test_perception_dominant_quadrants(self):
        assert perception_dominant(TypeIndicator.ISTJ)
        assert perception_dominant(TypeIndicator.ESTP)
        assert not perception_dominant(TypeIndicator.ISTP)
        assert not perception_dominant(TypeIndicator.ESTJ)

    def test_rows_match_synthesis_structurally(self, interp):
        synthesized = synthesize_rows(interp.basic)
        for indicator in TypeIndicator:
            assert interp.row(indicator) == synthesized[indicator]

    def test_fact1_pairs_are_the_pairs_of_row_conjuncts(self):
        # The load-time pair check restates the rule by hand: its pairs are
        # the conjunct pairs of the synthesized rows, attitude first and
        # judgment before perception.
        rows = synthesize_rows({key: key for key in BASIC_KEYS})
        conjoined = set()
        for row in rows.values():
            attitude, perception, judgment = row.items
            conjoined |= {(attitude, perception), (attitude, judgment), (judgment, perception)}
        assert len(_FACT1_PAIRS) == len(conjoined) == 24
        assert set(_FACT1_PAIRS) == conjoined

    def test_every_basic_key_occurs_in_a_row(self):
        rows = synthesize_rows({key: key for key in BASIC_KEYS})
        assert {key for row in rows.values() for key in row.items} == set(BASIC_KEYS)


class TestTranscriptionPins:
    """The built-in formulas against hand-written transcriptions.

    The fixture files were typed out independently from the construction
    code; both structural equality and semantic equivalence are required, so
    a slip in either the fixtures or the builders shows up.
    """

    def test_basic_translations(self, interp):
        for line in data_text("basic_translations.txt").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, body = line.partition("=")
            expected = parse_formula(body.strip())
            built = interp.basic[key.strip()]
            assert built == expected, f"basic {key.strip()} differs"
            assert render_formula(built) == body.strip()

    def test_row_translations(self, interp):
        seen = []
        for line in data_text("row_translations.txt").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, body = line.partition("=")
            indicator = TypeIndicator[key.strip()]
            expected = parse_formula(body.strip())
            built = interp.row(indicator)
            assert built == expected, f"row {indicator.name} differs"
            assert render_formula(built) == body.strip()
            seen.append(indicator)
        assert len(seen) == 16

    def test_fingerprint_pinned(self, interp):
        assert interp.fingerprint() == pinned.BUILTIN_FINGERPRINT

    def test_builtin_document_passes_validation(self, interp):
        # builtin_interpretation() skips load_interpretation's checks.
        from mbti_szondi import interpret

        loaded = load_interpretation(interpret._BUILTIN_DOCUMENT)
        assert not loaded.warnings
        assert loaded.fingerprint() == pinned.BUILTIN_FINGERPRINT
        assert loaded.basic == interp.basic
        assert dict(loaded.rows) == dict(interp.rows)

    def test_negation_free(self, interp):
        assert interp.negation_free


class TestInterpretationObject:
    def test_missing_rows_rejected(self, interp):
        rows = dict(interp.rows)
        del rows[TypeIndicator.ENTJ]
        with pytest.raises(ValueError, match="ENTJ"):
            Interpretation(rows)

    def test_row_set_memoized(self, interp):
        a = interp.row_set(TypeIndicator.INFJ)
        assert interp.row_set(TypeIndicator.INFJ) is a
        assert a == models(interp.row(TypeIndicator.INFJ))

    def test_rows_read_only(self, interp):
        # The row-set and region memos are only sound if rows cannot change.
        with pytest.raises(TypeError):
            interp.rows[TypeIndicator.ISTJ] = interp.row(TypeIndicator.ESTP)
        # Callers that derive a variant copy the rows into a plain dict.
        copy = dict(interp.rows)
        copy[TypeIndicator.ISTJ] = interp.row(TypeIndicator.ESTP)
        assert len(copy) == 16
        assert interp.row(TypeIndicator.ISTJ) is not copy[TypeIndicator.ISTJ]

    def test_lift_empty_is_true(self, interp):
        from mbti_szondi import TOP

        assert interp.lift([]) is TOP

    def test_lift_singleton(self, interp):
        assert interp.lift([TypeIndicator.ENFP]) == interp.row(TypeIndicator.ENFP)

    def test_lift_sorted_and_deduplicated(self, interp):
        lifted = interp.lift(
            [TypeIndicator.ESTP, TypeIndicator.ISTJ, TypeIndicator.ESTP]
        )
        assert lifted == And(
            (interp.row(TypeIndicator.ISTJ), interp.row(TypeIndicator.ESTP))
        )

    def test_fingerprint_serializes_once(self, monkeypatch, interp):
        fresh = load_interpretation(interp.document())
        calls = []
        document = Interpretation.document
        monkeypatch.setattr(
            Interpretation, "document", lambda self: calls.append(self) or document(self)
        )
        prints = {fresh.fingerprint() for _ in range(3)}
        assert prints == {pinned.BUILTIN_FINGERPRINT}
        assert calls == [fresh]

    def test_document_round_trip(self, interp):
        reloaded = load_interpretation(interp.document())
        assert reloaded.fingerprint() == interp.fingerprint()
        assert reloaded.basic is None
        for indicator in TypeIndicator:
            assert reloaded.row(indicator) == interp.row(indicator)


class TestProfileFormulas:
    def test_profile_formula_has_one_model(self):
        p = Profile.from_index(271828182)
        f = profile_formula(p)
        assert models(f).count() == 1
        assert p in models(f)

    def test_norm_profile_formula(self):
        f = profile_formula(NORM_PROFILE)
        assert render_formula(f) == "h+ & s+ & e- & hy- & k- & p- & d+ & m+"

    def test_profiles_formula(self):
        ps = [Profile.from_index(i) for i in (5, 3, 3, 99)]
        f = profiles_formula(ps)
        m = models(f)
        assert m.count() == 3
        for p in ps:
            assert p in m

    def test_profiles_formula_empty(self):
        from mbti_szondi import BOTTOM

        assert profiles_formula([]) is BOTTOM


class TestLoadInterpretation:
    def test_basic_mode_synthesizes_rows(self, interp):
        doc = data_text("basic_translations.txt")
        loaded = load_interpretation(doc)
        assert loaded.basic is not None
        assert loaded.fingerprint() == interp.fingerprint()
        assert not loaded.warnings

    def test_alt_document_loads(self, alt_interp):
        assert alt_interp.basic is not None
        assert not alt_interp.warnings

    def test_rows_mode(self):
        doc = data_text("pointwise_interpretation.txt")
        loaded = load_interpretation(doc)
        assert loaded.basic is None
        for indicator in TypeIndicator:
            assert loaded.row_set(indicator).count() == 1

    def test_mixed_modes_rejected(self):
        with pytest.raises(GrammarError, match="mixes"):
            load_interpretation("E = hy+\nISTJ = k-\n")

    def test_missing_basic_entries(self):
        with pytest.raises(GrammarError, match="missing basic entries"):
            load_interpretation("E = hy+\nI = hy-\n")

    def test_missing_rows(self, interp):
        doc = "\n".join(
            f"{i.name} = {render_formula(interp.row(i))}"
            for i in list(TypeIndicator)[:15]
        )
        with pytest.raises(GrammarError, match="ENTJ"):
            load_interpretation(doc)

    def test_unknown_key(self):
        with pytest.raises(GrammarError, match="unknown interpretation key"):
            load_interpretation("E = hy+\nX = hy-\n")

    def test_duplicate_key_with_line(self):
        with pytest.raises(GrammarError, match="duplicate") as exc_info:
            load_interpretation("E = hy+\n\nE = hy-\n")
        assert exc_info.value.line == 3

    def test_bad_formula_names_entry_and_line(self):
        with pytest.raises(GrammarError, match="'I'") as exc_info:
            load_interpretation("E = hy+\nI = hy- |\n")
        assert exc_info.value.line == 2

    def test_not_an_assignment(self):
        with pytest.raises(GrammarError, match="KEY = formula"):
            load_interpretation("just some text\n")

    def test_comments_and_case_folding(self):
        doc = "# comment\ne = hy+\n" + "\n".join(
            f"{k} = h+" for k in BASIC_KEYS if k not in ("E",)
        )
        loaded = load_interpretation(doc)
        assert loaded.basic["E"] == parse_formula("hy+")

    def test_unsatisfiable_row_named(self, interp):
        doc = interp.document().replace(
            f"INFP = {render_formula(interp.row(TypeIndicator.INFP))}",
            "INFP = FALSE",
        )
        with pytest.raises(InterpretationError, match="^translation of INFP is unsatisfiable$"):
            load_interpretation(doc)

    def test_contradictory_basic_entry(self):
        doc = "E = hy+ & hy-\n" + "\n".join(
            f"{k} = h+" for k in BASIC_KEYS if k != "E"
        )
        with pytest.raises(InterpretationError, match=r"basic translation of 'E'"):
            load_interpretation(doc)

    def test_consistency_violation_names_pair(self):
        message = "consistency violation: translations of E and T! exclude each other"
        with pytest.raises(InterpretationError, match=message):
            load_interpretation(data_text("conflicting_interpretation.txt"))

    def test_overlap_warning(self):
        # E and I both cover hy+: legal, but worth telling the user about.
        lines = {k: "h+" for k in BASIC_KEYS}
        lines["E"] = "hy+ | hy+!"
        lines["I"] = "hy+ | hy-"
        doc = "\n".join(f"{k} = {v}" for k, v in lines.items())
        loaded = load_interpretation(doc)
        assert any("overlap" in w for w in loaded.warnings)


class TestFact1Builtin:
    """The pairwise-consistency conjunctions for the built-in translation."""

    def test_all_attitude_faculty_pairs_satisfiable(self, interp):
        from mbti_szondi import satisfiable

        for attitude in ("E", "I"):
            for key in ("F", "F!", "T", "T!", "N", "N!", "S", "S!"):
                conjunction = And((interp.basic[attitude], interp.basic[key]))
                assert satisfiable(conjunction), f"{attitude} & {key}"

    def test_judgment_perception_pairs_satisfiable(self, interp):
        from mbti_szondi import satisfiable

        pairs = [
            ("F", "N!"), ("F", "S!"), ("F!", "N"), ("F!", "S"),
            ("T", "N!"), ("T", "S!"), ("T!", "N"), ("T!", "S"),
        ]
        for a, b in pairs:
            assert satisfiable(And((interp.basic[a], interp.basic[b]))), f"{a} & {b}"

    def test_attitudes_exclusive(self, interp):
        from mbti_szondi import satisfiable

        assert not satisfiable(And((interp.basic["E"], interp.basic["I"])))

    def test_rows_pairwise_distinct(self, interp):
        indicators = list(TypeIndicator)
        for i, a in enumerate(indicators):
            for b in indicators[i + 1 :]:
                assert not equivalent(interp.row(a), interp.row(b)), (
                    f"{a.name} and {b.name} translate to equivalent formulas"
                )
