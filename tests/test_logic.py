import ast
import copy
import pickle
import random
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mbti_szondi.logic as logic
from mbti_szondi import (
    BOTTOM,
    NORM_PROFILE,
    TOP,
    And,
    Atom,
    Factor,
    GrammarError,
    Interpretation,
    Not,
    Or,
    Profile,
    ProfileSet,
    Signature,
    TypeIndicator,
    conj,
    disj,
    entails,
    equivalent,
    evaluate,
    factors_of,
    is_negation_free,
    left_polarity,
    load_interpretation,
    models,
    parse_formula,
    parse_profile,
    render_formula,
    satisfiable,
)
from mbti_szondi.boxes import FULL_FACTOR_MASK
from mbti_szondi.enumeration import evaluate_on_digits, restricted_universe
from mbti_szondi.logic import _AND, _NOT, _OR, _flatten, _fold, _program, _tree_size

import pinned
from conftest import LOADABLE_DOCUMENTS, data_text, fresh, membership_vector

UNIVERSE_FACTORS = (Factor.H, Factor.K)
UNIVERSE = restricted_universe(UNIVERSE_FACTORS)
# The flat disjunction README says is bounded only by the document limit.
WIDE_ATOMS = 120_000


def universe_member(row):
    """The profile of UNIVERSE's row: its h and k digits, the norm elsewhere."""
    signatures = list(NORM_PROFILE.signatures)
    for factor in UNIVERSE_FACTORS:
        signatures[factor] = int(UNIVERSE[factor][row])
    return Profile(signatures)


# All 144 rows of UNIVERSE as one member list, so masks are 144 bits wide.
UNIVERSE_MEMBERS = [universe_member(row) for row in range(144)]

atoms = st.builds(
    Atom,
    st.sampled_from(UNIVERSE_FACTORS),
    st.sampled_from(list(Signature)),
)

formulas = st.recursive(
    atoms | st.just(TOP) | st.just(BOTTOM),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(lambda items: And(tuple(items)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda items: Or(tuple(items)), st.lists(children, min_size=2, max_size=3)),
    ),
    max_leaves=12,
)


class TestEvaluate:
    def setup_method(self):
        self.profile = parse_profile("h+ s+ e- hy- k- p- d+ m+")

    def test_atoms(self):
        assert evaluate(self.profile, Atom(Factor.H, Signature.POS))
        assert not evaluate(self.profile, Atom(Factor.H, Signature.NEG))

    def test_one_signature_per_factor(self):
        both = And((Atom(Factor.H, Signature.POS), Atom(Factor.H, Signature.NEG)))
        assert not evaluate(self.profile, both)
        assert not satisfiable(both)

    def test_junctions_and_negation(self):
        f = parse_formula("h+ & (k- | k+) & !e+")
        assert evaluate(self.profile, f)

    def test_constants_and_empty_junctions(self):
        assert evaluate(self.profile, TOP)
        assert not evaluate(self.profile, BOTTOM)
        assert evaluate(self.profile, And(()))
        assert not evaluate(self.profile, Or(()))

    def test_conj_disj_builders(self):
        assert conj([]) is TOP
        assert disj([]) is BOTTOM
        atom = Atom(Factor.H, Signature.POS)
        assert conj([atom]) is atom
        assert disj([atom]) is atom
        assert conj([atom, TOP]) == And((atom, TOP))


H_POS, M_NEG = Atom(Factor.H, Signature.POS), Atom(Factor.M, Signature.NEG)


def doubled(g, levels):
    """``levels`` nested ``And((g, g))``: one node per level, sharing g."""
    for _ in range(levels):
        g = And((g, g))
    return g


class TestInspection:
    def test_atoms_and_factors(self):
        f = parse_formula("h+ & (hy-! | h+) & !m+-")
        assert factors_of(f) == {Factor.H, Factor.HY, Factor.M}
        assert factors_of(parse_formula("TRUE | !FALSE")) == frozenset()

    def test_factors_of_walks_the_dag(self):
        # Forty levels of And((g, g)) share each level's node: 42 distinct
        # compound nodes that expand to over 2**40 tree nodes, which only a
        # walk over the DAG can finish.
        g = doubled(Or((H_POS, Not(M_NEG))), 40)
        assert _tree_size(g) > 2**40
        assert factors_of(g) == {Factor.H, Factor.M}

    def test_fold_calls_node_once_per_distinct_node(self):
        # Raising on the 43rd call fails a fold that lost its memo at once,
        # where counting to the end would take 2**40 calls.
        g = doubled(Or((H_POS, Not(M_NEG))), 40)
        calls = []

        def node(formula, values):
            calls.append(formula)
            assert len(calls) <= 42, "a compound node was folded twice"
            return len(calls)

        assert _fold((g, g, H_POS), lambda atom: 0, node) == [42, 42, 0]
        assert len({id(formula) for formula in calls}) == 42

    def test_negation_freedom(self):
        assert is_negation_free(parse_formula("h+ & (s- | TRUE)"))
        assert not is_negation_free(parse_formula("h+ & !s-"))

    def test_negation_freedom_walks_the_dag(self):
        g = doubled(Or((H_POS, M_NEG)), 40)
        assert is_negation_free(g)
        negated = Not(g)
        assert not is_negation_free(doubled(And((g, negated, negated)), 40))

    def test_render_builds_the_expanded_text(self):
        # Each shared node's text is built once, and the text is the tree's.
        g = doubled(parse_formula("h+ | !(k- & m+-) | (e0 | TRUE)"), 10)
        text = render_formula(g)
        assert text == render_formula(fresh(g))
        assert text.count("h+") == 2**10
        assert render_formula(parse_formula(text)) == text


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("h+", Atom(Factor.H, Signature.POS)),
            ("hy+-^!", Atom(Factor.HY, Signature.AMBI_HIGH)),
            ("h+ | s- & k0", Or((Atom(Factor.H, Signature.POS),
                                 And((Atom(Factor.S, Signature.NEG),
                                      Atom(Factor.K, Signature.ZERO)))))),
            ("!h+ & s-", And((Not(Atom(Factor.H, Signature.POS)),
                              Atom(Factor.S, Signature.NEG)))),
            ("TRUE", TOP),
            ("FALSE", BOTTOM),
        ],
    )
    def test_parse_structure(self, text, expected):
        assert parse_formula(text) == expected

    def test_precedence_not_tightest(self):
        f = parse_formula("!h+ | s-")
        assert isinstance(f, Or) and isinstance(f.items[0], Not)

    def test_flat_nary_junctions(self):
        f = parse_formula("h+ | s- | k0 | m+")
        assert isinstance(f, Or) and len(f.items) == 4

    def test_arrows_desugar(self):
        imp = parse_formula("h+ -> s-")
        assert imp == Or((Not(Atom(Factor.H, Signature.POS)), Atom(Factor.S, Signature.NEG)))
        iff = parse_formula("h+ <-> s-")
        assert equivalent(iff, parse_formula("(h+ -> s-) & (s- -> h+)"))

    def test_arrows_right_associative(self):
        assert parse_formula("h+ -> s- -> k0") == parse_formula("h+ -> (s- -> k0)")

    def test_arrow_precedence_looser_than_or(self):
        f = parse_formula("h+ | s- -> k0")
        assert equivalent(f, parse_formula("(h+ | s-) -> k0"))

    def test_unicode_alias(self):
        assert parse_formula("h±^!") == Atom(Factor.H, Signature.AMBI_HIGH)

    @pytest.mark.parametrize(
        "text",
        ["", "h", "h+ &", "& h+", "(h+", "h+)", "h+ s-", "q+", "h+ & TRUEX"],
    )
    def test_rejections(self, text):
        with pytest.raises(GrammarError):
            parse_formula(text)

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("!", ""), ("h+ -> ", "")])
    def test_deep_nesting_rejected(self, opener, closer):
        text = opener * 3000 + "h+" + closer * 3000
        with pytest.raises(GrammarError, match="nested too deeply"):
            parse_formula(text)

    def test_ordinary_nesting_parses(self):
        depth = 50
        assert parse_formula("(" * depth + "h+" + ")" * depth) == Atom(Factor.H, Signature.POS)
        nested = parse_formula("!" * depth + "h+")
        for _ in range(depth):
            assert isinstance(nested, Not)
            nested = nested.operand
        assert nested == Atom(Factor.H, Signature.POS)

    def test_iff_expansion_bounded(self):
        # A chain of n links expands to 2**(n + 3) - 7 nodes: 65,529 at 13.
        assert models(parse_formula(iff_chain(13))) == models(parse_formula("TRUE"))
        for links in (14, 30, 99):
            with pytest.raises(GrammarError, match="expands to more than 100,000 nodes"):
                parse_formula(iff_chain(links))
        with pytest.raises(GrammarError, match="expands"):
            parse_formula(f"({iff_chain(13)}) <-> s-")

    def test_flat_formulas_not_bounded_by_expansion(self):
        # Each flat formula parses, and evaluate walks it.
        start = time.perf_counter()
        inside = parse_profile("h+ s- e- hy+ k- p- d+ m+")
        outside = parse_profile("h- s+ e- hy- k- p- d+ m+")
        f = parse_formula(" | ".join(["h+ & s-"] * 20_000))
        assert isinstance(f, Or) and len(f.items) == 20_000
        assert evaluate(inside, f) and not evaluate(outside, f)
        g = parse_formula(" & ".join(["(h+ | s-)"] * 20_000))
        assert isinstance(g, And) and len(g.items) == 20_000
        assert evaluate(inside, g) and not evaluate(outside, g)
        # Wider than the bound itself, with no '<->' to expand.
        wide = parse_formula(" | ".join(["hy+"] * WIDE_ATOMS))
        assert isinstance(wide, Or) and len(wide.items) == WIDE_ATOMS
        assert evaluate(inside, wide) and not evaluate(outside, wide)
        # The explicit left polarity runs the rows' program once.
        rows = dict(load_interpretation(data_text("pointwise_interpretation.txt")).rows)
        rows[TypeIndicator.ISTJ] = f
        chosen = Interpretation(rows)
        assert left_polarity(chosen, [inside, inside]) == {TypeIndicator.ISTJ}
        assert left_polarity(chosen, [inside, outside]) == set()
        # Distinct operands stay apart: the Or of every two-factor pair of
        # atoms that `outside` fails is one junction of 4,004 operands, too
        # deep for the compiler as one expression, so the generated function
        # splits it over statements.
        atoms = [Atom(factor, signature) for factor in Factor for signature in Signature]
        pairs = [And((a, b)) for a in atoms for b in atoms if a.factor < b.factor]
        wide_pairs = Or(tuple(pair for pair in pairs if not evaluate(outside, pair)))
        assert len(wide_pairs.items) == 4_004
        assert _program([wide_pairs])([inside, outside]) == [0b01]
        assert time.perf_counter() - start < 20

    @pytest.mark.parametrize(
        "text,message,column",
        [
            ("h+ & *", "unexpected character '*'", 5),
            ("h", "factor 'h' must be followed by a signature token", 1),
            ("k+ | hy", "factor 'hy' must be followed by a signature token", 7),
            ("hyq", "factor 'hy' must be followed by a signature token", 2),  # hy, not h
            ("h±x", "unexpected character 'x'", 2),
            ("TRUEX", "unexpected character 'X'", 4),
            ("h+ & TRUEX", "unexpected character 'X'", 9),
            ("h+ <- s-", "unexpected character '<'", 3),
            ("s+-^!!", "trailing input after formula", 5),
            ("h+ s-", "trailing input after formula", 3),
            ("& h+", "unexpected token AND", 0),
            ("(h+", "expected ')' (at end of input)", None),
            ("!", "expected a formula (at end of input)", None),
        ],
    )
    def test_error_table(self, text, message, column):
        with pytest.raises(GrammarError) as err:
            parse_formula(text)
        assert message in str(err.value)
        assert err.value.column == column

    @pytest.mark.parametrize(
        "text,signature",
        [("h±", Signature.AMBI), ("h±_!", Signature.AMBI_LOW), ("h±^!", Signature.AMBI_HIGH)],
    )
    def test_unicode_aliases(self, text, signature):
        assert parse_formula(text) == Atom(Factor.H, signature)
        assert parse_formula(f"!{text} & {text}") == And((Not(Atom(Factor.H, signature)),
                                                          Atom(Factor.H, signature)))

    def test_error_carries_column(self):
        with pytest.raises(GrammarError) as err:
            parse_formula("h+ & *")
        assert err.value.column == 5

    @given(formulas)
    @settings(max_examples=150)
    def test_render_parse_stable(self, f):
        text = render_formula(f)
        reparsed = parse_formula(text)
        assert render_formula(reparsed) == text
        # and the round trip never changes meaning
        assert np.array_equal(
            evaluate_on_digits(f, UNIVERSE), evaluate_on_digits(reparsed, UNIVERSE)
        )

    def test_canonical_parenthesization(self):
        assert render_formula(parse_formula("(h+ | s-) & k0")) == "(h+ | s-) & k0"
        assert render_formula(parse_formula("h+ | s- & k0")) == "h+ | s- & k0"
        assert render_formula(parse_formula("!(h+ & s-)")) == "!(h+ & s-)"
        assert render_formula(And((And((Atom(Factor.H, Signature.POS),
                                        Atom(Factor.S, Signature.NEG))),
                                   Atom(Factor.K, Signature.ZERO)))) == "(h+ & s-) & k0"


def iff_chain(links):
    return " <-> ".join(["h+"] * (links + 1))


class TestCompileMemo:
    def test_cache_invisible_to_eq_hash_repr(self):
        text = "(h+ | h+-) & !(k- | k+) & (s0 <-> d+)"
        compiled, plain = parse_formula(text), parse_formula(text)
        models(compiled)
        assert compiled._models is not None and plain._models is None
        assert compiled == plain
        assert hash(compiled) == hash(plain)
        assert repr(compiled) == repr(plain)
        assert "_models" not in repr(compiled)
        assert {compiled} == {plain}

    def test_node_compiles_once(self):
        f = parse_formula("(h+ | s-) & !k0")
        first = models(f)
        assert models(f) is first
        assert models(And((f, parse_formula("m+")))).issubset(first)
        assert models(f) is first

    def test_shared_nodes_compile_once(self, monkeypatch):
        # An iff chain is a DAG with three new compound nodes per link but a
        # tree of about 2**(links + 3) nodes: each node compiles once.
        import mbti_szondi.logic as logic

        calls = []
        compile_compound = logic._compile_compound

        def counted(formula):
            calls.append(formula)
            return compile_compound(formula)

        f = parse_formula(iff_chain(12))
        monkeypatch.setattr(logic, "_compile_compound", counted)
        assert models(f) == models(parse_formula("h+"))  # even links: h+
        assert len(calls) == len({id(node) for node in calls}) == 12 * 5

    def test_memo_equals_fresh_compile(self):
        for text in ("(h+ | h+-) & !(k- | k+)", "!(s0 -> d+) | (h+ <-> m-)", "TRUE & !FALSE"):
            f = parse_formula(text)
            assert models(f).boxes == models(fresh(f)).boxes
            assert models(f).boxes == models(fresh(f)).boxes

    def test_compiled_formula_copies_and_pickles(self):
        f = parse_formula("(h+ | s-) & !k0")
        compiled = models(f)
        for clone in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert clone == f
            assert models(clone) == compiled


class TestTruthConstants:
    """TRUE and FALSE are the empty conjunction and disjunction."""

    def test_constants_are_empty_junctions(self):
        assert TOP == And(())
        assert BOTTOM == Or(())
        assert conj([]) is TOP
        assert disj([]) is BOTTOM

    def test_semantics_agree(self):
        profile = parse_profile("h+ s+ e- hy- k- p- d+ m+")
        for constant, truth in ((TOP, True), (BOTTOM, False)):
            assert evaluate(profile, constant) is truth
            assert models(constant) == (ProfileSet.full() if truth else ProfileSet.empty())
            assert evaluate_on_digits(constant, UNIVERSE).tolist() == [truth] * 144

    @pytest.mark.parametrize(
        "formula,text",
        [
            (And((TOP, Atom(Factor.H, Signature.POS))), "TRUE & h+"),
            (Not(BOTTOM), "!FALSE"),
            (Or((BOTTOM, And((TOP, Atom(Factor.K, Signature.NEG))))), "FALSE | TRUE & k-"),
        ],
    )
    def test_render_bare_and_round_trip(self, formula, text):
        assert render_formula(formula) == text
        assert parse_formula(text) == formula


class TestModelSets:
    def test_atom_count(self):
        assert models(Atom(Factor.H, Signature.POS)).count() == 12 ** 7

    def test_family_disjunction_single_box(self):
        family = parse_formula("k- | k+- | k+-^!")
        result = models(family)
        assert len(result.boxes) == 1
        assert result.count() == 3 * 12 ** 7

    def test_top_bottom(self):
        assert models(TOP) == ProfileSet.full()
        assert models(BOTTOM) == ProfileSet.empty()

    def test_negation_needs_models(self):
        f = parse_formula("!h+")
        assert not is_negation_free(f)
        assert models(f).count() == 11 * 12 ** 7

    def test_excluded_middle_and_contradiction(self):
        assert equivalent(parse_formula("h+ | !h+"), TOP)
        assert not satisfiable(parse_formula("h+ & !h+"))

    def test_entailment_examples(self):
        assert entails(parse_formula("h+ & k-"), parse_formula("h+"))
        assert not entails(parse_formula("h+"), parse_formula("h+ & k-"))
        assert entails(BOTTOM, parse_formula("h+"))
        assert entails(parse_formula("h+"), TOP)

    @given(formulas, formulas)
    @settings(max_examples=100)
    def test_entails_matches_enumeration(self, f, g):
        vf = evaluate_on_digits(f, UNIVERSE)
        vg = evaluate_on_digits(g, UNIVERSE)
        assert entails(f, g) == bool((~vf | vg).all())

    @given(formulas)
    @settings(max_examples=100)
    def test_models_matches_enumeration(self, f):
        assert np.array_equal(
            membership_vector(models(f), UNIVERSE), evaluate_on_digits(f, UNIVERSE)
        )

    @given(formulas)
    @settings(max_examples=60)
    def test_models_agree_with_pointwise_evaluate(self, f):
        # spot-check a fixed profile slate against the symbolic set
        result = models(f)
        for index in (0, 7, 12 ** 8 - 1, 123456789, 194903345):
            p = Profile.from_index(index)
            assert (p in result) == evaluate(p, f)


def dag_nodes(formula, seen=None):
    """The distinct nodes of ``formula`` by identity: id -> node."""
    seen = {} if seen is None else seen
    if id(formula) not in seen:
        seen[id(formula)] = formula
        if isinstance(formula, Not):
            dag_nodes(formula.operand, seen)
        elif isinstance(formula, (And, Or)):
            for item in formula.items:
                dag_nodes(item, seen)
    return seen


def plain_run(program, members) -> list[int]:
    """The reference step interpreter: for each formula of a :func:`_flatten`
    program, the bitmask of the members that satisfy it (bit i stands for
    ``members[i]``).  Each member ORs its bit into the slot of each literal
    key ``factor << 12 | signature set`` whose set holds its signature on
    that factor; the steps then run in order, ``And``/``Or``/``Not`` as
    ``&``, ``|`` and the complement within ``full``, the mask of all
    members."""
    literals, steps, outputs = program
    values = [0] * (len(literals) + len(steps))
    bit = 1
    for profile in members:
        for key, s in literals.items():
            if key >> profile.signatures[key >> 12] & 1:
                values[s] |= bit
        bit <<= 1
    full = bit - 1
    for kind, target, operands in steps:
        if kind == _NOT:
            values[target] = full ^ values[operands]
        elif kind == _AND:
            value = full
            for s in operands:
                value &= values[s]
            values[target] = value
        else:
            value = 0
            for s in operands:
                value |= values[s]
            values[target] = value
    return [values[s] for s in outputs]


def literal_key(text):
    """The :func:`_flatten` literal key of one atom's text."""
    atom = parse_formula(text)
    return atom.factor << 12 | 1 << atom.signature


# Each line shape _program emits: only slot, factor and signature numbers vary.
_FACTOR, _SIGNATURE = r"[0-7]", r"(?:1[01]|\d)"
_PROGRAM_LINE = re.compile(
    "|".join([
        r"def run\(members\):",
        rf"    c{_FACTOR} = \[0\] \* 12",
        r"    bit = 1",
        r"    for profile in members:",
        rf"        (?:f{_FACTOR}|_)(?:, (?:f{_FACTOR}|_)){{7}} = profile\.signatures",
        rf"        c(?P<column>{_FACTOR})\[f(?P=column)\] \|= bit",
        r"        bit <<= 1",
        r"    full = bit - 1",
        rf"    v\d+ = c(?P<literal>{_FACTOR})\[{_SIGNATURE}\](?: \| c(?P=literal)\[{_SIGNATURE}\])*",
        r"    v\d+ = full \^ v\d+",
        r"    v\d+ = (?:full|0)",
        r"    v\d+ &?= v\d+(?: & v\d+)*",
        r"    v\d+ \|?= v\d+(?: \| v\d+)*",
        r"    return \[(?:v\d+(?:, v\d+)*)?\]",
    ])
)


def generated_texts(build) -> list[str]:
    """The source of each function that ``build()`` generates, recorded by a
    ``compile`` set in ``logic``'s namespace."""
    texts = []

    def recording(source, *args):
        texts.append(source)
        return compile(source, *args)

    with mock.patch.object(logic, "compile", recording, create=True):
        build()
    return texts


def off_grammar(text: str) -> list[str]:
    """The lines of a generated function's text that match no emitted shape."""
    return [line for line in text.splitlines() if not _PROGRAM_LINE.fullmatch(line)]


def arrow(left, right, connective):
    """``left -> right`` or ``left <-> right`` as the parser builds it, so
    the operands of ``<->`` are shared nodes."""
    return parse_formula(f"({render_formula(left)}) {connective} ({render_formula(right)})")


# Every connective over all eight factors, the constants and both arrows.
program_formulas = st.recursive(
    st.builds(Atom, st.sampled_from(list(Factor)), st.sampled_from(list(Signature)))
    | st.just(TOP)
    | st.just(BOTTOM),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(lambda items: And(tuple(items)), st.lists(children, min_size=2, max_size=4)),
        st.builds(lambda items: Or(tuple(items)), st.lists(children, min_size=2, max_size=4)),
        st.builds(arrow, children, children, st.sampled_from(["->", "<->"])),
    ),
    max_leaves=12,
)

profiles = st.lists(st.sampled_from(list(Signature)), min_size=8, max_size=8).map(Profile)

# 70 members are wider than a 64-bit word.
member_lists = st.sampled_from([0, 1, 8, 70]).flatmap(
    lambda n: st.lists(profiles, min_size=n, max_size=n)
)


class TestMemberMasks:
    """The evaluator behind the explicit left polarity: one bitmask of
    satisfying members per formula, from one function generated from the
    program of the formula DAG.  ``evaluate`` walks its formula instead, and
    is checked against the same enumeration."""

    @given(formulas)
    @settings(max_examples=150)
    def test_matches_enumeration_over_the_universe(self, f):
        (mask,) = _program([f])(UNIVERSE_MEMBERS)
        expected = evaluate_on_digits(f, UNIVERSE).tolist()
        assert [bool(mask >> row & 1) for row in range(144)] == expected
        assert [evaluate(member, f) for member in UNIVERSE_MEMBERS] == expected

    @given(st.lists(program_formulas, min_size=1, max_size=4), member_lists)
    @settings(max_examples=200, deadline=None)
    def test_generated_function_matches_the_step_interpreter(self, fs, members):
        expected = plain_run(_flatten(fs), members)
        assert _program(fs)(members) == expected
        # At two operands a statement, every junction of three or more
        # operands is split over statements.
        with mock.patch.object(logic, "_OPERANDS_PER_LINE", 2):
            assert _program(fs)(members) == expected

    @pytest.mark.parametrize("document", LOADABLE_DOCUMENTS)
    def test_document_rows_match_the_step_interpreter(self, document):
        chosen = load_interpretation(data_text(document))
        rows = [chosen.row(ind) for ind in TypeIndicator]
        program = _flatten(rows)
        rng = random.Random(document)
        # Members of each row's model set, so that rows hold every member of
        # a list drawn from one, and uniform profiles, which mostly miss.
        drawn = [models(row).sample(rng, 70) for row in rows if models(row)]
        drawn.append([Profile.from_index(rng.randrange(12**8)) for _ in range(70)])
        for pool in drawn:
            for size in (0, 1, 8, 70):
                for members in (pool[:size], rng.sample(pool + drawn[-1], size)):
                    assert chosen.row_program()(members) == plain_run(program, members)

    def test_structurally_equal_nodes_share_a_step(self):
        # The parser builds each "h+ & s-" apart: the 20,000 equal nodes are
        # one AND step, and the Or of 20,000 copies of its slot is that slot.
        f = parse_formula(" | ".join(["h+ & s-"] * 20_000))
        literals, steps, outputs = _flatten([f])
        assert literals == {literal_key("h+"): 0, literal_key("s-"): 1}
        assert steps == ((_AND, 2, (0, 1)),) and outputs == (2,)
        # A junction keeps each operand slot once, in first-occurrence order.
        # The two "!h+" are one NOT step too.  Literal slots k-, h+, s- are
        # 0, 1, 2, numbered as first met.
        literals, steps, _ = _flatten([parse_formula("(k- & h+ & k- & s-) | !h+ | !h+")])
        assert literals == {literal_key("k-"): 0, literal_key("h+"): 1, literal_key("s-"): 2}
        (_, conj, conj_operands), (_, negation, _), (_, _, disj_operands) = steps
        assert [kind for kind, _, _ in steps] == [_AND, _NOT, _OR]
        assert conj_operands == (0, 1, 2) and disj_operands == (conj, negation)

    def test_evaluate_generates_no_program(self, interp):
        # With the program route refused, evaluate answers as models does,
        # on constants, an atom, a 13-link chain (TRUE) and every row.
        rows = [interp.row(ind) for ind in TypeIndicator]
        cases = [TOP, BOTTOM, Atom(Factor.H, Signature.POS), parse_formula(iff_chain(13)), *rows]
        rng = random.Random(11)
        profiles = [NORM_PROFILE] + [Profile.from_index(rng.randrange(12**8)) for _ in range(20)]
        profiles += [p for row in rows for p in models(row).sample(rng, 2)]
        expected = [[p in models(f) for p in profiles] for f in cases]
        assert all(any(truths) and not all(truths) for truths in expected[4:])
        refused = mock.Mock(side_effect=AssertionError("evaluate generated a program"))
        with mock.patch.object(logic, "_flatten", refused), \
                mock.patch.object(logic, "_program", refused):
            answers = [[evaluate(p, f) for p in profiles] for f in cases]
            for not_formula in ("h+", And((TOP, "h+")), Not(None)):
                with pytest.raises(TypeError, match="not a formula"):
                    evaluate(NORM_PROFILE, not_formula)
        assert answers == expected
        assert {type(answer) for truths in answers for answer in truths} == {bool}

    @given(st.lists(program_formulas, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_generated_text_keeps_a_fixed_grammar(self, fs):
        (text,) = generated_texts(lambda: _program(fs))
        assert not off_grammar(text)
        # Split junctions: the continued statements are "v<n> &=" or "|=".
        with mock.patch.object(logic, "_OPERANDS_PER_LINE", 2):
            (text,) = generated_texts(lambda: _program(fs))
        assert not off_grammar(text)

    @pytest.mark.parametrize("document", [None, *LOADABLE_DOCUMENTS])
    def test_row_function_text_keeps_a_fixed_grammar(self, document, interp):
        # A new built-in, whose row function is not memoized yet.
        chosen = Interpretation(dict(interp.rows))
        if document:
            chosen = load_interpretation(data_text(document))
        (text,) = generated_texts(chosen.row_program)
        assert text.startswith("def run(members):\n") and not off_grammar(text)

    def test_only_the_program_generator_executes_text(self):
        # Every call of exec, compile or eval by name in the package's source.
        calls = []
        for path in sorted(Path(logic.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if node.func.id in ("exec", "compile", "eval"):
                    enclosing = min(
                        (f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno,
                    )
                    calls.append((path.name, enclosing.name, node.func.id))
        assert sorted(calls) == [("logic.py", "_program", "compile"), ("logic.py", "_program", "exec")]

    def test_builtin_rows_program_shape(self, interp):
        literals, steps, _ = _flatten([interp.row(ind) for ind in TypeIndicator])
        assert len(literals) == pinned.BUILTIN_ROW_LITERALS
        assert len(steps) == pinned.BUILTIN_ROW_STEPS

    def test_empty_member_list(self):
        formulas = [TOP, BOTTOM, parse_formula("h+ & !k-"), parse_formula("!(h+ | k0)")]
        assert _program(formulas)([]) == [0] * 4

    def test_iff_chain_row_costs_its_dag(self, interp):
        # A chain of 14 atoms (13 links) is TRUE and expands to 65,529 nodes;
        # conjoined with the ISFJ row, whose F entry admits h+, it denotes
        # that row.
        f = And((parse_formula(iff_chain(13)), interp.row(TypeIndicator.ISFJ)))
        assert _tree_size(f) > 65_000
        h_pos = Atom(Factor.H, Signature.POS)
        (witness,) = models(And((f, h_pos))).sample(random.Random(5), 1)
        members = [witness, NORM_PROFILE]  # both h+; the norm satisfies no row
        assert all(p.signatures[Factor.H] is Signature.POS for p in members)
        for p, truth in zip(members, (True, False)):
            assert evaluate(p, f) is truth
            assert (p in models(f)) is truth
        # The program has at most one step per distinct compound node and
        # one literal per distinct (factor, signature set) of the DAG, not
        # one per node of the expanded tree.
        literals, steps, _ = _flatten([f])
        assert _program([f])(members) == [0b01]
        nodes = dag_nodes(f).values()
        compound = [node for node in nodes if not isinstance(node, Atom)]
        signature_sets = {
            (node.factor, 1 << node.signature) for node in nodes if isinstance(node, Atom)
        }
        for node in compound:
            if isinstance(node, Or):
                folded = {}
                for item in node.items:
                    if isinstance(item, Atom):
                        folded[item.factor] = folded.get(item.factor, 0) | 1 << item.signature
                signature_sets |= set(folded.items())
        assert {(key >> 12, key & FULL_FACTOR_MASK) for key in literals} <= signature_sets
        assert len(steps) <= len(compound) < 1_000
        slots = [*literals.values(), *(target for _, target, _ in steps)]
        assert sorted(slots) == list(range(len(literals) + len(steps)))
