import ast
import copy
import pickle
import random
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
from mbti_szondi.enumeration import evaluate_on_digits, restricted_universe
from mbti_szondi.logic import _fold, _tree_size

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
        # The explicit left polarity reads the regions that such a row cuts,
        # and agrees with evaluate.
        rows = dict(load_interpretation(data_text("pointwise_interpretation.txt")).rows)
        rows[TypeIndicator.ISTJ] = f
        chosen = Interpretation(rows)
        for members in ([inside, inside], [inside, outside]):
            expected = {i for i in TypeIndicator if all(evaluate(p, rows[i]) for p in members)}
            assert left_polarity(chosen, members) == expected
        assert left_polarity(chosen, [inside, inside]) == {TypeIndicator.ISTJ}
        # Distinct operands stay apart: the Or of every two-factor pair of
        # atoms that `outside` fails is one junction of 4,004 operands.
        atoms = [Atom(factor, signature) for factor in Factor for signature in Signature]
        pairs = [And((a, b)) for a in atoms for b in atoms if a.factor < b.factor]
        wide_pairs = Or(tuple(pair for pair in pairs if not evaluate(outside, pair)))
        assert len(wide_pairs.items) == 4_004
        assert evaluate(inside, wide_pairs) and not evaluate(outside, wide_pairs)
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


def explicit_rows(formulas) -> Interpretation:
    """An interpretation whose first rows, in indicator order, are
    ``formulas`` and whose other rows are TRUE."""
    rows = dict.fromkeys(TypeIndicator, TOP)
    rows.update(zip(TypeIndicator, formulas))
    return Interpretation(rows)


def evaluated_left(chosen, members) -> frozenset:
    """←P by formula evaluation: the indicators whose row every member satisfies."""
    return frozenset(
        i for i in TypeIndicator if all(evaluate(p, chosen.row(i)) for p in members)
    )


class TestMemberMasks:
    """The explicit left polarity, which reads one region box per member,
    against formula evaluation (``evaluate``) and the numpy enumeration."""

    @given(formulas)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration_over_the_universe(self, f):
        # ISTJ's row is f and ISFJ's its negation, so each member keeps
        # exactly one of the two.
        chosen = explicit_rows([f, Not(f)])
        expected = evaluate_on_digits(f, UNIVERSE).tolist()
        answers = [left_polarity(chosen, [member]) for member in UNIVERSE_MEMBERS]
        assert [TypeIndicator.ISTJ in answer for answer in answers] == expected
        assert [TypeIndicator.ISFJ not in answer for answer in answers] == expected
        assert [evaluate(member, f) for member in UNIVERSE_MEMBERS] == expected
        inside = [m for m, truth in zip(UNIVERSE_MEMBERS, expected) if truth]
        assert (TypeIndicator.ISTJ in left_polarity(chosen, UNIVERSE_MEMBERS)) == all(expected)
        if inside:
            assert TypeIndicator.ISTJ in left_polarity(chosen, inside)

    @given(st.lists(program_formulas, min_size=1, max_size=4), member_lists)
    @settings(max_examples=100, deadline=None)
    def test_explicit_left_polarity_matches_evaluation(self, fs, members):
        # Every connective over all eight factors, lists wider than a word.
        chosen = explicit_rows(fs)
        assert left_polarity(chosen, members) == evaluated_left(chosen, members)

    @pytest.mark.parametrize("document", LOADABLE_DOCUMENTS)
    def test_document_rows_match_the_step_interpreter(self, document):
        # The reference is formula evaluation of each row at each member.
        chosen = load_interpretation(data_text(document))
        rows = [chosen.row(ind) for ind in TypeIndicator]
        rng = random.Random(document)
        # Members of each row's model set, so that rows hold every member of
        # a list drawn from one, and uniform profiles, which mostly miss.
        drawn = [models(row).sample(rng, 70) for row in rows if models(row)]
        drawn.append([Profile.from_index(rng.randrange(12**8)) for _ in range(70)])
        held = {p: evaluated_left(chosen, [p]) for pool in drawn for p in pool}
        for pool in drawn:
            for size in (0, 1, 8, 70):
                for members in (pool[:size], rng.sample(pool + drawn[-1], size)):
                    expected = frozenset(TypeIndicator)
                    for p in members:
                        expected &= held[p]
                    assert left_polarity(chosen, members) == expected

    def test_evaluate_generates_no_program(self, interp):
        # With exec, compile and eval refused, evaluate answers as models
        # does, on constants, an atom, a 13-link chain (TRUE) and every row.
        rows = [interp.row(ind) for ind in TypeIndicator]
        cases = [TOP, BOTTOM, Atom(Factor.H, Signature.POS), parse_formula(iff_chain(13)), *rows]
        rng = random.Random(11)
        profiles = [NORM_PROFILE] + [Profile.from_index(rng.randrange(12**8)) for _ in range(20)]
        profiles += [p for row in rows for p in models(row).sample(rng, 2)]
        expected = [[p in models(f) for p in profiles] for f in cases]
        assert all(any(truths) and not all(truths) for truths in expected[4:])
        refused = mock.Mock(side_effect=AssertionError("evaluate generated a program"))
        with mock.patch("builtins.exec", refused), mock.patch("builtins.compile", refused), \
                mock.patch("builtins.eval", refused):
            answers = [[evaluate(p, f) for p in profiles] for f in cases]
            for not_formula in ("h+", And((TOP, "h+")), Not(None)):
                with pytest.raises(TypeError, match="not a formula"):
                    evaluate(NORM_PROFILE, not_formula)
        assert answers == expected
        assert {type(answer) for truths in answers for answer in truths} == {bool}

    def test_no_text_is_executed(self):
        # Every use of exec, compile or eval by name in the package's source:
        # a formula is compiled to boxes, never to code.
        uses = [
            (path.name, node.lineno, node.id)
            for path in sorted(Path(logic.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id in ("exec", "compile", "eval")
        ]
        assert uses == []

    def test_empty_member_list(self):
        # Every row holds at every member of an empty list, FALSE included.
        formulas = [TOP, BOTTOM, parse_formula("h+ & !k-"), parse_formula("!(h+ | k0)")]
        chosen = explicit_rows(formulas)
        assert left_polarity(chosen, []) == frozenset(TypeIndicator) == evaluated_left(chosen, [])
        assert chosen._region_index is None

    def test_iff_chain_row_costs_its_dag(self, interp):
        # A chain of 14 atoms (13 links) is TRUE and expands to 65,529 nodes;
        # conjoined with the ISFJ row, whose F entry admits h+, it denotes
        # that row.
        f = And((parse_formula(iff_chain(13)), interp.row(TypeIndicator.ISFJ)))
        assert _tree_size(f) > 65_000
        compound = [node for node in dag_nodes(f).values() if not isinstance(node, Atom)]
        assert len(compound) < 1_000
        # models compiles each distinct compound node at most once, not each
        # node of the expanded tree.
        compiled = []
        compile_compound = logic._compile_compound

        def counted(formula):
            compiled.append(id(formula))
            return compile_compound(formula)

        h_pos = Atom(Factor.H, Signature.POS)
        with mock.patch.object(logic, "_compile_compound", counted):
            (witness,) = models(And((f, h_pos))).sample(random.Random(5), 1)
        assert len(set(compiled)) == len(compiled) <= len(compound) + 1
        members = [witness, NORM_PROFILE]  # both h+; the norm satisfies no row
        assert all(p.signatures[Factor.H] is Signature.POS for p in members)
        for p, truth in zip(members, (True, False)):
            assert evaluate(p, f) is truth
            assert (p in models(f)) is truth
        # As ISFJ's row, f cuts the regions that the explicit left polarity
        # reads, with no further compile.
        rows = dict(interp.rows)
        rows[TypeIndicator.ISFJ] = f
        chosen = Interpretation(rows)
        before = len(compiled)
        with mock.patch.object(logic, "_compile_compound", counted):
            for group in ([witness], [NORM_PROFILE], members):
                assert left_polarity(chosen, group) == evaluated_left(chosen, group)
        assert not set(compiled[before:]) & {id(node) for node in compound}
        assert TypeIndicator.ISFJ in left_polarity(chosen, [witness])
