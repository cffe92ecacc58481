"""The logical pivot language: formulas over the 96 signed-factor atoms.

An atom pairs a factor with a signature; a profile is a model in which, for
each factor, exactly the atom carrying that factor's assigned signature is
true.  Semantics is therefore defined over profile models, not over free
Boolean valuations of 96 independent atoms: ``h+ & h-`` is unsatisfiable
here because no profile assigns two signatures to one factor.  For the
negation-free formulas produced by the translation tables both readings
agree on every entailment; the restriction only shows up in hand-written
formulas.

The truth constants are the empty junctions: TOP is the empty conjunction
``And(())`` and BOTTOM the empty disjunction ``Or(())``, so no other node
kind exists for them.  ``conj``/``disj`` build n-ary junctions, returning
these constants for no items and collapsing singletons.

Text syntax (the formula grammar used by the CLI and interpretation
documents): atoms as ``h+``, ``hy-!``, ``p+-^!``; ``!`` for negation, ``&``
conjunction, ``|`` disjunction, parentheses, and ``TRUE``/``FALSE`` for the
empty conjunction and disjunction.
Precedence ``!`` > ``&`` > ``|``; ``->`` and ``<->`` are accepted as sugar
and expand to their classical definitions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .boxes import FULL_FACTOR_MASK, Box, ProfileSet
from .core import (
    _FACTORS,
    _SIGNATURES,
    Factor,
    GrammarError,
    Profile,
    Signature,
    _scan_factor,
    _scan_signature,
    _Value,
)

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "TOP",
    "BOTTOM",
    "Formula",
    "conj",
    "disj",
    "evaluate",
    "factors_of",
    "is_negation_free",
    "models",
    "entails",
    "equivalent",
    "satisfiable",
    "parse_formula",
    "render_formula",
]


class Atom(_Value):
    __slots__ = _fields = ("factor", "signature")
    factor: Factor
    signature: Signature

    def __init__(self, factor: Factor, signature: Signature):
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "signature", signature)

    def __str__(self) -> str:
        return f"{self.factor.token}{self.signature.token}"


# The 96 atoms, ``_ATOMS[factor][signature]``: the parser and the profile
# formulas share these values instead of building an atom per occurrence.
_ATOMS = tuple(tuple(Atom(f, s) for s in _SIGNATURES) for f in _FACTORS)


class _Compound(_Value):
    """A compound node.  ``_models`` keeps the set it compiles to; it is not
    a field, so structurally equal formulas stay equal, and a copy or an
    unpickled node compiles afresh."""

    __slots__ = ("_models",)
    _models: ProfileSet | None


class Not(_Compound):
    __slots__ = _fields = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "_models", None)


class _Junction(_Compound):
    __slots__ = _fields = ("items",)
    items: tuple[Formula, ...]

    def __init__(self, items: Iterable[Formula]):
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "_models", None)


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


TOP = And(())
BOTTOM = Or(())

Formula = Atom | Not | And | Or


def conj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return TOP
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return BOTTOM
    if len(items) == 1:
        return items[0]
    return Or(items)


def evaluate(profile: Profile, formula: Formula) -> bool:
    """Model-check ``formula`` against ``profile`` (classical semantics);
    each call compiles the formula (:func:`_program`)."""
    return _run(_program((formula,)), (profile,)) == [1]


_AND, _OR, _NOT = range(3)


def _fold(formulas: Iterable[Formula], atom, node) -> list:
    """Fold formulas bottom-up: ``atom(a)`` at each atom occurrence (with
    ``atom`` None, the atom itself) and ``node(f, values)`` at each compound
    node, ``values`` being its operands' results in order.  Compound nodes
    are memoized by identity across all the formulas, so a subformula shared
    within a formula (an operand repeated by ``<->``) or between formulas (a
    basic entry in several rows) is folded once: the walk is linear in the
    DAG, not in the tree it denotes.
    """
    memo: dict[int, object] = {}

    def visit(formula):  # a compound node, or something that is no formula
        key = id(formula)
        if key in memo:
            return memo[key]
        if isinstance(formula, _Junction):
            items = formula.items
        elif isinstance(formula, Not):
            items = (formula.operand,)
        else:
            raise TypeError(f"not a formula: {formula!r}")
        values = []  # a loop, not a comprehension: this is the hot path
        for item in items:
            values.append(visit(item) if type(item) is not Atom else atom(item) if atom else item)
        memo[key] = result = node(formula, values)
        return result

    return [visit(f) if type(f) is not Atom else atom(f) if atom else f for f in formulas]


def _program(formulas: Iterable[Formula]) -> tuple:
    """Compile formulas once into a flat program over member bitsets.

    One :func:`_fold`, so a shared subformula gets one slot.  Each distinct
    (factor, signature set) is one literal slot; the atom disjuncts of an
    ``Or`` on one factor fold into one literal, as they fold into one box
    in ``models``.  Each compound node is one AND, OR or NOT step; a
    junction of one operand reuses that operand's slot.  The program is
    ``(table, steps, outputs, size)``: per factor and signature, the literal
    slots that the signature sets; the steps ``(kind, slot, operands)`` in
    post-order (a NOT's operand is one slot); the slot of each formula; and
    the number of slots.  :func:`_run` executes it.
    """
    literals: dict[int, int] = {}  # factor << 12 | signature set -> slot
    steps: list[tuple[int, int, object]] = []
    table: list[list[tuple[int, ...]]] = [[()] * 12 for _ in range(8)]

    def literal(factor: int, signatures: int) -> int:
        key = factor << 12 | signatures
        if key not in literals:
            literals[key] = len(literals) + len(steps)
            for signature in range(12):
                if signatures >> signature & 1:
                    table[factor][signature] += (literals[key],)
        return literals[key]

    # The fold leaves an atom as itself, so an Or can fold its atoms first.
    def slot(value: Atom | int) -> int:
        if type(value) is int:
            return value
        return literal(value.factor, 1 << value.signature)

    def step(formula: Formula, values: list) -> int:
        if isinstance(formula, Or):
            kind, folded, parts = _OR, [0] * 8, []
            for value in values:
                if type(value) is int:
                    parts.append(value)
                else:
                    folded[value.factor] |= 1 << value.signature
            parts += [literal(factor, mask) for factor, mask in enumerate(folded) if mask]
            operands = tuple(parts)
        elif isinstance(formula, And):
            kind, operands = _AND, tuple(map(slot, values))
        else:
            kind, operands = _NOT, slot(values[0])
        if kind != _NOT and len(operands) == 1:
            return operands[0]
        result = len(literals) + len(steps)
        steps.append((kind, result, operands))
        return result

    outputs = tuple(map(slot, _fold(formulas, None, step)))
    return table, tuple(steps), outputs, len(literals) + len(steps)


def _run(program: tuple, members: Sequence[Profile]) -> list[int]:
    """For each compiled formula, the bitmask of the members that satisfy
    it (bit i stands for ``members[i]``).

    Each member ORs its bit into the literal slots its signatures set; the
    steps then run in order, ``And``/``Or``/``Not`` as ``&``, ``|`` and the
    complement within ``full``, the mask of all members.
    """
    table, steps, outputs, size = program
    values = [0] * size
    bit = 1
    for profile in members:
        for slots, signature in zip(table, profile.signatures):
            for s in slots[signature]:
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


def factors_of(formula: Formula) -> frozenset[Factor]:
    """The factors the formula's atoms mention (one :func:`_fold`)."""
    return _fold(
        (formula,),
        lambda atom: frozenset((atom.factor,)),
        lambda node, factors: frozenset().union(*factors),
    )[0]


def is_negation_free(formula: Formula) -> bool:
    """Whether no ``Not`` occurs in ``formula`` (one :func:`_fold`)."""
    return _fold(
        (formula,), lambda atom: True, lambda node, free: not isinstance(node, Not) and all(free)
    )[0]


def _compile(formula: Formula) -> ProfileSet:
    """Model set of ``formula``; a compound node compiles once and keeps it."""
    if isinstance(formula, Atom):
        return ProfileSet((Box.for_atom(formula.factor, formula.signature),))
    if not isinstance(formula, (And, Or, Not)):
        raise TypeError(f"not a formula: {formula!r}")
    result = formula._models
    if result is None:
        result = _compile_compound(formula)
        object.__setattr__(formula, "_models", result)
    return result


def _compile_compound(formula: And | Or | Not) -> ProfileSet:
    if isinstance(formula, And):
        # Atom conjuncts denote one box together, the per-factor AND of
        # their signature bits; a profile's formula compiles to its box
        # with no intersection.
        atom_masks = [FULL_FACTOR_MASK] * 8
        parts = []
        for item in formula.items:
            if type(item) is Atom:
                factor = item.factor
                mask = atom_masks[factor] & 1 << item.signature
                if not mask:
                    return ProfileSet.empty()
                atom_masks[factor] = mask
                continue
            part = _compile(item)
            if not part:
                return ProfileSet.empty()
            parts.append(part)
        if len(parts) < len(formula.items):
            # Every mask is a nonzero AND of 12-bit masks (checked above).
            atom_set = ProfileSet((Box._of(tuple(atom_masks)),))
            if not parts:  # atoms alone, as in a profile's formula
                return atom_set
            parts.append(atom_set)
        # Smallest box list first keeps every intermediate product small;
        # the fold stops at the first empty result.  Single boxes meet in
        # one box whatever their order, so the atom box's place among them
        # does not change the boxes of the result.
        parts.sort(key=lambda part: len(part.boxes))
        result = parts[0] if parts else ProfileSet.full()
        for part in parts[1:]:
            result = result.intersect(part)
            if not result:
                break
        return result
    if isinstance(formula, Or):
        # Atom disjuncts on one factor denote a single multi-signature box;
        # folding them first keeps family disjunctions at one box per factor.
        factor_masks: dict[Factor, int] = {}
        parts = []
        for item in formula.items:
            if isinstance(item, Atom):
                mask = factor_masks.get(item.factor, 0)
                factor_masks[item.factor] = mask | (1 << int(item.signature))
            else:
                parts.append(_compile(item))
        for factor, mask in factor_masks.items():
            masks = [FULL_FACTOR_MASK] * 8
            masks[factor] = mask
            parts.append(ProfileSet((Box(tuple(masks)),)))
        parts.sort(key=lambda part: len(part.boxes))
        result = ProfileSet.empty()
        for part in parts:
            result = result.union(part)
        return result
    return _compile(formula.operand).complement()


def models(formula: Formula) -> ProfileSet:
    """The satisfying set { p | evaluate(p, formula) } as disjoint boxes.

    Each ``And``/``Or``/``Not`` node keeps the set it compiles to, so a
    subformula reached again (a row inside a lifted set, an operand shared
    by ``<->``) is compiled once per node, not once per occurrence.
    """
    return _compile(formula)


def entails(premise: Formula, conclusion: Formula) -> bool:
    """Logical consequence over profile models."""
    return models(premise).issubset(models(conclusion))


def equivalent(a: Formula, b: Formula) -> bool:
    return models(a) == models(b)


def satisfiable(formula: Formula) -> bool:
    return bool(models(formula))


# --- text syntax ----------------------------------------------------------

# Every token but an atom, in match order: (text, kind, formula if a leaf).
_FIXED_TOKENS = (
    ("(", "LPAREN", None),
    (")", "RPAREN", None),
    ("!", "NOT", None),
    ("&", "AND", None),
    ("|", "OR", None),
    ("<->", "IFF", None),
    ("->", "IMPLIES", None),
    ("TRUE", "LEAF", TOP),
    ("FALSE", "LEAF", BOTTOM),
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, leaf formula or None, column) per token; whitespace only separates."""
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        for token, kind, leaf in _FIXED_TOKENS:
            if text.startswith(token, pos):
                tokens.append((kind, leaf, pos))
                pos += len(token)
                break
        else:
            factor = _scan_factor(text, pos)
            if factor is None:
                raise GrammarError(f"unexpected character {text[pos]!r}", column=pos)
            signature = _scan_signature(text, factor[1])
            if signature is None:
                raise GrammarError(
                    f"factor {factor[0].token!r} must be followed by a signature token",
                    column=factor[1],
                )
            tokens.append(("LEAF", _ATOMS[factor[0]][signature[0]], pos))
            pos = signature[1]
    return tokens


# Deeper formulas would exhaust the interpreter's stack in the parser or in
# the recursive walks over the parsed tree.
_MAX_NESTING = 100
# ``a <-> b`` repeats both operands, so a chain of n links denotes a tree of
# about 2**(n + 3) nodes; rendering writes out that tree.  The bound is on
# the nodes the expansion adds beyond the parsed tokens, so a flat formula
# is bounded only by the length of its text.
_MAX_TREE_NODES = 100_000


def _tree_size(formula: Formula) -> int:
    """Node count of the tree ``formula`` denotes, each shared subformula
    counted once per occurrence (one :func:`_fold`)."""
    return _fold((formula,), lambda atom: 1, lambda node, sizes: 1 + sum(sizes))[0]


class _Parser:
    """Recursive descent; precedence ! > & > | > -> > <->, arrows right-assoc."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def _peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def _next(self) -> tuple[str, object, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _error(self, message: str) -> GrammarError:
        if self.index < len(self.tokens):
            return GrammarError(message, column=self.tokens[self.index][2])
        return GrammarError(message + " (at end of input)")

    def _nested(self, parse) -> Formula:
        """Run one recursive production, refusing more than _MAX_NESTING levels."""
        if self.depth == _MAX_NESTING:
            raise self._error(f"formula nested too deeply (more than {_MAX_NESTING} levels)")
        self.depth += 1
        formula = parse()
        self.depth -= 1
        return formula

    def parse(self) -> Formula:
        formula = self._iff()
        if self.index != len(self.tokens):
            raise self._error("trailing input after formula")
        if _tree_size(formula) - len(self.tokens) > _MAX_TREE_NODES:
            raise GrammarError(
                f"formula expands to more than {_MAX_TREE_NODES:,} nodes "
                "('<->' repeats both of its operands)"
            )
        return formula

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek() == "IFF":
            self._next()
            right = self._nested(self._iff)
            return And((Or((Not(left), right)), Or((Not(right), left))))
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._peek() == "IMPLIES":
            self._next()
            right = self._nested(self._implies)
            return Or((Not(left), right))
        return left

    def _or(self) -> Formula:
        items = [self._and()]
        while self._peek() == "OR":
            self._next()
            items.append(self._and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _and(self) -> Formula:
        items = [self._unary()]
        while self._peek() == "AND":
            self._next()
            items.append(self._unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _unary(self) -> Formula:
        kind = self._peek()
        if kind is None:
            raise self._error("expected a formula")
        if kind == "NOT":
            self._next()
            return Not(self._nested(self._unary))
        if kind == "LPAREN":
            self._next()
            inner = self._nested(self._iff)
            if self._peek() != "RPAREN":
                raise self._error("expected ')'")
            self._next()
            return inner
        if kind == "LEAF":
            return self._next()[1]  # type: ignore[return-value]
        raise self._error(f"unexpected token {kind}")


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def render_formula(formula: Formula) -> str:
    """Canonical rendering; ``parse_formula`` inverts it structurally.

    Junction children of equal-or-looser precedence get parentheses so the
    tree shape survives the round trip; an empty junction is a bare
    ``TRUE``/``FALSE``, so it never needs them.  The text is the expanded
    tree's, but one :func:`_fold` builds each shared subformula's text once.
    """
    return _fold((formula,), str, _render_node)[0]


def _render_node(formula: Formula, texts: list[str]) -> str:
    if isinstance(formula, Not):
        wrap = isinstance(formula.operand, _Junction) and formula.operand.items
        return f"!({texts[0]})" if wrap else f"!{texts[0]}"
    conjunction = isinstance(formula, And)
    if not texts:
        return "TRUE" if conjunction else "FALSE"
    looser = _Junction if conjunction else Or
    for i, item in enumerate(formula.items):
        if isinstance(item, looser) and item.items:
            texts[i] = f"({texts[i]})"
    return (" & " if conjunction else " | ").join(texts)
