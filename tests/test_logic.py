import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbti_szondi import (
    BOTTOM,
    NORM_PROFILE,
    TOP,
    And,
    Atom,
    Factor,
    GrammarError,
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
    models,
    parse_formula,
    parse_profile,
    render_formula,
    satisfiable,
)
from mbti_szondi.enumeration import evaluate_on_digits, restricted_universe
from mbti_szondi.logic import _fold, _program, _run, _tree_size

from conftest import fresh, membership_vector

UNIVERSE_FACTORS = (Factor.H, Factor.K)
UNIVERSE = restricted_universe(UNIVERSE_FACTORS)


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
        f = parse_formula(" | ".join(["h+ & s-"] * 20_000))
        assert isinstance(f, Or) and len(f.items) == 20_000
        # Wider than the bound itself, with no '<->' to expand.
        f = parse_formula(" | ".join(["hy+"] * 120_000))
        assert isinstance(f, Or) and len(f.items) == 120_000

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


class TestMemberMasks:
    """The evaluator behind ``evaluate`` and the explicit left polarity: one
    bitmask of satisfying members per formula, from a program compiled once
    from the formula DAG."""

    @given(formulas)
    @settings(max_examples=150)
    def test_matches_enumeration_over_the_universe(self, f):
        (mask,) = _run(_program([f]), UNIVERSE_MEMBERS)
        expected = evaluate_on_digits(f, UNIVERSE).tolist()
        assert [bool(mask >> row & 1) for row in range(144)] == expected
        # evaluate compiles a program per call; the line above ran that
        # program on all 144 members, so a handful checks evaluate itself.
        for row in (0, 13, 77, 143):
            assert evaluate(UNIVERSE_MEMBERS[row], f) == expected[row]

    def test_empty_member_list(self):
        formulas = [TOP, BOTTOM, parse_formula("h+ & !k-"), parse_formula("!(h+ | k0)")]
        assert _run(_program(formulas), []) == [0] * 4

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
        program = _program([f])
        table, steps, _, size = program
        assert _run(program, members) == [0b01]
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
        literals = {}
        for factor, by_signature in enumerate(table):
            for signature, slots in enumerate(by_signature):
                for slot in slots:
                    literals.setdefault(slot, set()).add((factor, signature))
        keys = [
            (factor, sum(1 << signature for _, signature in pairs))
            for pairs in literals.values()
            for factor in {factor for factor, _ in pairs}
        ]
        assert len(keys) == len(set(keys)) == len(literals) <= len(signature_sets)
        assert set(keys) <= signature_sets
        assert len(steps) <= len(compound) < 1_000
        assert size == len(literals) + len(steps)
