import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from mbti_szondi import (
    NORM_PROFILE,
    PROFILE_COUNT,
    And,
    Atom,
    Box,
    Factor,
    GrammarError,
    Not,
    Or,
    Profile,
    Signature,
    TypeIndicator,
    indicator_set_from_mask,
    indicator_set_mask,
    parse_indicator_set,
    parse_profile,
    render_indicator_set,
)
from mbti_szondi.core import parse_indicator, parse_signature_subset, render_signature_subset

import pinned


class TestSignature:
    def test_twelve_signatures_in_ordinal_order(self):
        tokens = [s.token for s in Signature]
        assert tokens == [
            "-!!!", "-!!", "-!", "-", "0", "+",
            "+!", "+!!", "+!!!", "+-_!", "+-", "+-^!",
        ]
        assert [int(s) for s in Signature] == list(range(12))


class TestFactor:
    def test_tokens_and_canonical_order(self):
        assert [f.token for f in Factor] == ["h", "s", "e", "hy", "k", "p", "d", "m"]


class TestProfile:
    def test_index_zero_and_max(self):
        lowest = Profile.from_index(0)
        assert all(s is Signature.NEG3 for s in lowest.signatures)
        highest = Profile.from_index(PROFILE_COUNT - 1)
        assert all(s is Signature.AMBI_HIGH for s in highest.signatures)

    def test_h_is_most_significant_digit(self):
        p = Profile.from_index(12 ** 7)
        assert p.signatures[Factor.H] is Signature.NEG2
        assert all(p.signatures[f] is Signature.NEG3 for f in list(Factor)[1:])

    @given(st.integers(min_value=0, max_value=PROFILE_COUNT - 1))
    def test_index_round_trip(self, index):
        assert Profile.from_index(index).index() == index

    @given(st.integers(min_value=0, max_value=PROFILE_COUNT - 1))
    def test_text_round_trip(self, index):
        p = Profile.from_index(index)
        assert parse_profile(str(p)) == p

    def test_decoded_signatures_are_members(self):
        rng = random.Random(41)
        for index in [0, PROFILE_COUNT - 1] + [rng.randrange(PROFILE_COUNT) for _ in range(200)]:
            p = Profile.from_index(index)
            assert p.index() == index
            assert all(s is Signature(s.value) for s in p.signatures)
            assert Profile(p.signatures).signatures is p.signatures

    @pytest.mark.parametrize("position", range(4))
    def test_every_signature_pair_decodes(self, position):
        # An index is four base-144 digits, each a pair of factors; every
        # digit value at every position decodes to the members of that pair.
        rng = random.Random(position)
        scale = 144 ** (3 - position)
        for pair in range(144):
            base = rng.randrange(PROFILE_COUNT)
            index = base - (base // scale % 144 - pair) * scale
            p = Profile.from_index(index)
            assert type(p) is Profile and p.index() == index
            assert all(s is Signature(s.value) for s in p.signatures)
            assert p.signatures[2 * position] is Signature(pair // 12)
            assert p.signatures[2 * position + 1] is Signature(pair % 12)
            assert p == Profile(tuple(int(s) for s in p.signatures))

    def test_raw_ordinals_coerced_to_members(self):
        p = Profile((5, 5, 3, 3, 3, 3, 5, 5))
        assert p == NORM_PROFILE
        assert all(type(s) is Signature for s in p.signatures)
        assert Profile(list(NORM_PROFILE.signatures)).signatures == NORM_PROFILE.signatures

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            Profile.from_index(PROFILE_COUNT)
        with pytest.raises(ValueError):
            Profile.from_index(-1)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            Profile((Signature.POS,) * 7)

    def test_norm_profile(self):
        assert str(NORM_PROFILE) == "h+ s+ e- hy- k- p- d+ m+"
        assert NORM_PROFILE.index() == pinned.NORM_PROFILE_INDEX


class TestProfileGrammar:
    def test_any_factor_order_accepted(self):
        shuffled = parse_profile("m+ d+ p- k- hy- e- s+ h+")
        assert shuffled == NORM_PROFILE

    def test_unicode_ambivalence_alias(self):
        assert parse_profile("h± s±_! e±^! hy- k- p- d+ m+") == parse_profile(
            "h+- s+-_! e+-^! hy- k- p- d+ m+"
        )

    def test_hy_not_confused_with_h(self):
        p = parse_profile("hy+ h- s0 e0 k0 p0 d0 m0")
        assert p.signatures[Factor.HY] is Signature.POS
        assert p.signatures[Factor.H] is Signature.NEG

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("h+ s+", "missing factors"),
            ("h+ h- s0 e0 hy0 k0 p0 d0 m0", "twice"),
            ("h+ s+ e- hy- k- p- d+ m*", "unknown signature"),
            ("x+ s+ e- hy- k- p- d+ m+", "factor"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(GrammarError) as err:
            parse_profile(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "token,message",
        [
            ("q+", "token 'q+' does not start with a factor name"),
            ("m+x", "unknown signature '+x' in token 'm+x'"),
            ("m", "unknown signature '' in token 'm'"),
            ("hy", "unknown signature '' in token 'hy'"),  # not h + "y"
            ("m±x", "unknown signature '±x' in token 'm±x'"),
        ],
    )
    def test_token_error_table(self, token, message):
        with pytest.raises(GrammarError) as err:
            parse_profile("h+ s+ e- hy- k- p- d+ " + token)
        assert str(err.value) == message
        assert err.value.column is None


class TestIndicators:
    def test_sixteen_in_canonical_order(self):
        names = [i.name for i in TypeIndicator]
        assert names == [
            "ISTJ", "ISFJ", "INFJ", "INTJ", "ISTP", "ISFP", "INFP", "INTP",
            "ESTP", "ESFP", "ENFP", "ENTP", "ESTJ", "ESFJ", "ENFJ", "ENTJ",
        ]

    def test_letter_decomposition(self):
        i = TypeIndicator.ENFP
        assert (i.attitude, i.perception, i.judgment, i.flag) == ("E", "N", "F", "P")

    def test_parse_case_insensitive(self):
        assert parse_indicator("istj") is TypeIndicator.ISTJ
        assert parse_indicator(" EnTj ") is TypeIndicator.ENTJ
        with pytest.raises(GrammarError):
            parse_indicator("ABCD")

    def test_set_grammar(self):
        assert parse_indicator_set("{}") == frozenset()
        assert parse_indicator_set("  { } ") == frozenset()
        both = parse_indicator_set("estp,istj")
        assert both == {TypeIndicator.ISTJ, TypeIndicator.ESTP}
        assert parse_indicator_set("{ISTJ,ESTP}") == both
        assert parse_indicator_set("istj,ISTJ") == {TypeIndicator.ISTJ}
        # Blank text (an unset shell variable) is not the empty set.
        for blank in ("", "   ", "\t\n"):
            with pytest.raises(GrammarError, match="write {} for the empty set"):
                parse_indicator_set(blank)

    def test_set_render_canonical(self):
        assert render_indicator_set(frozenset()) == "{}"
        text = render_indicator_set(frozenset({TypeIndicator.ESTP, TypeIndicator.ISTJ}))
        assert text == "ISTJ,ESTP"
        assert parse_indicator_set(text) == {TypeIndicator.ISTJ, TypeIndicator.ESTP}

    def test_mask_round_trip_exhaustive(self):
        for mask in range(1 << 16):
            assert indicator_set_mask(indicator_set_from_mask(mask)) == mask

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            indicator_set_from_mask(1 << 16)


class TestSignatureSubsetGrammar:
    def test_round_trip_exhaustive(self):
        for mask in range(1, 1 << 12):
            assert parse_signature_subset(render_signature_subset(mask)) == mask

    def test_cached_render_equals_uncached(self):
        uncached = render_signature_subset.__wrapped__
        for mask in range(1, 1 << 12):
            text = render_signature_subset(mask)
            assert text == uncached(mask)
            assert parse_signature_subset(text) == mask
        assert render_signature_subset.cache_info().maxsize == 1 << 12
        for bad in (0, 1 << 12, -1):
            with pytest.raises(ValueError):
                render_signature_subset(bad)

    def test_examples(self):
        assert render_signature_subset(0b000000001000) == "-"
        assert render_signature_subset((1 << 12) - 1) == "-!!!-!!-!-0++!+!!+!!!+-_!+-+-^!"
        assert parse_signature_subset("0+") == (1 << 4) | (1 << 5)

    def test_rejects_non_canonical_order(self):
        with pytest.raises(GrammarError, match="not in canonical ordinal order"):
            parse_signature_subset("+--!!!")  # +- before -!!! is descending
        with pytest.raises(GrammarError, match="not in canonical ordinal order"):
            parse_signature_subset("00")

    @pytest.mark.parametrize(
        "text,fragment,column",
        [
            ("00", "not in canonical ordinal order", 1),
            ("-!!!-!!!", "not in canonical ordinal order", 4),
            ("±+", "not in canonical ordinal order", 1),  # ± is +-, after +
            ("+-!!!", "unparseable signature subset", 2),
            ("0+x", "unparseable signature subset", 2),
            ("abc", "unparseable signature subset", 0),
            ("", "empty signature subset", None),
        ],
    )
    def test_error_table(self, text, fragment, column):
        with pytest.raises(GrammarError) as err:
            parse_signature_subset(text)
        assert fragment in str(err.value)
        assert err.value.column == column

    def test_aliases_and_longest_match(self):
        assert parse_signature_subset("-±") == (1 << Signature.NEG) | (1 << Signature.AMBI)
        assert parse_signature_subset("±_!±^!") == parse_signature_subset("+-_!+-^!")
        assert parse_signature_subset("+!!!") == 1 << Signature.POS3

    def test_rejects_empty_and_garbage(self):
        with pytest.raises(ValueError):
            render_signature_subset(0)
        with pytest.raises(GrammarError):
            parse_signature_subset("abc")


_H_POS = Atom(Factor.H, Signature.POS)
_S_ZERO = Atom(Factor.S, Signature.ZERO)

# (class, constructor arguments, one field)
VALUE_CLASSES = [
    (Profile, (NORM_PROFILE.signatures,), "signatures"),
    (Box, (Box.for_atom(Factor.K, Signature.NEG).masks,), "masks"),
    (Atom, (Factor.H, Signature.POS), "factor"),
    (Not, (_H_POS,), "operand"),
    (And, ((_H_POS, Not(_S_ZERO)),), "items"),
    (Or, ((_H_POS, _S_ZERO),), "items"),
]


@pytest.mark.parametrize(
    "cls,args,field", VALUE_CLASSES, ids=[case[0].__name__ for case in VALUE_CLASSES]
)
def test_value_class_semantics(cls, args, field):
    value = cls(*args)
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # Equal fields in another class: a subclass, and And/Or for each other.
    twin = type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})
    for other in (twin, {And: Or, Or: And}.get(cls)):
        if other is not None:
            assert other(*args) != value and value != other(*args)

