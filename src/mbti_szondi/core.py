"""Finite carriers of the two personality spaces and their text grammars.

The Szondi side is an 8-dimensional space: each of the eight drive factors
(h, s, e, hy, k, p, d, m) carries one of twelve reaction signatures, ranging
from graded rejection (-!!! .. -) through neutrality (0) and graded approval
(+ .. +!!!) to the three ambivalent readings (+-_!, +-, +-^!).  A full
assignment is a :class:`Profile`; there are 12**8 = 429,981,696 of them, and
they biject with ``range(12**8)`` through a base-12 positional encoding.

The Myers-Briggs side is the sixteen four-letter type indicators, each the
product of attitude (E/I), perception (S/N), judgment (T/F) and the J/P
dominance flag.

Everything here is an immutable value; instances can be shared freely across
threads.
"""

from __future__ import annotations

import enum
from functools import lru_cache

__all__ = [
    "Signature",
    "Factor",
    "TypeIndicator",
    "Profile",
    "GrammarError",
    "InterpretationError",
    "CacheError",
    "NORM_PROFILE",
    "PROFILE_COUNT",
    "parse_profile",
    "parse_indicator_set",
    "render_indicator_set",
    "indicator_set_mask",
    "indicator_set_from_mask",
]


class GrammarError(ValueError):
    """Text input that does not match one of the declared grammars."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: "
        elif column is not None:
            where = f"column {column}: "
        super().__init__(where + message)


# Declared here beside GrammarError, though raised in interpret and cache, so
# the command line maps all three to exit codes without loading the table.
class InterpretationError(ValueError):
    """An interpretation document that parses but fails validation."""


class CacheError(Exception):
    """A table that cannot be read, is damaged, or was built for another
    interpretation."""


class _Value:
    """Base of the immutable value classes: profiles, boxes, formula nodes,
    the verification records and the open polarity table.

    A subclass lists its constructor arguments in ``_fields`` (and in its
    ``__slots__``); the default constructor stores one value per field, in
    order, and a subclass that converts or checks them sets them in its own
    ``__init__`` with ``object.__setattr__``.  After that, assignment
    raises.  Values are equal when they are of the same class with equal
    fields, equal values hash equal, and ``repr`` shows the fields by name.
    Copying and pickling rebuild a value through its constructor.  A slot
    that is not a field (a memo) stays outside equality, hashing and ``repr``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # The immutability guard refuses the default slot-by-slot restore.
        return (type(self), self._values())


class Signature(enum.IntEnum):
    """The twelve reaction signatures, in canonical ordinal order.

    The integer value is the canonical ordinal used by the base-12 profile
    encoding.  ``AMBI_LOW`` is ambivalence with rejection bias (+-_!),
    ``AMBI_HIGH`` ambivalence with approval bias (+-^!).
    """

    NEG3 = 0       # -!!!
    NEG2 = 1       # -!!
    NEG1 = 2       # -!
    NEG = 3        # -
    ZERO = 4       # 0
    POS = 5        # +
    POS1 = 6       # +!
    POS2 = 7       # +!!
    POS3 = 8       # +!!!
    AMBI_LOW = 9   # +-_!
    AMBI = 10      # +-
    AMBI_HIGH = 11 # +-^!

    @property
    def token(self) -> str:
        return _SIGNATURE_TOKENS[self]

    def __str__(self) -> str:
        return self.token


# Signatures by ordinal: indexing this tuple decodes without an enum call.
_SIGNATURES = tuple(Signature)

_SIGNATURE_TOKENS = dict(zip(Signature, "-!!! -!! -! - 0 + +! +!! +!!! +-_! +- +-^!".split()))

# Unicode +- is accepted on input as an alias for the ASCII spelling.
_SIGNATURE_ALIASES = {
    "±_!": Signature.AMBI_LOW,
    "±": Signature.AMBI,
    "±^!": Signature.AMBI_HIGH,
}

_SIGNATURE_BY_TOKEN = {s.token: s for s in Signature}
_SIGNATURE_BY_TOKEN.update(_SIGNATURE_ALIASES)


class Factor(enum.IntEnum):
    """The eight drive factors, in canonical order (h most significant)."""

    H = 0
    S = 1
    E = 2
    HY = 3
    K = 4
    P = 5
    D = 6
    M = 7

    @property
    def token(self) -> str:
        return _FACTOR_TOKENS[self]

    def __str__(self) -> str:
        return self.token


# Factors in order, like _INDICATORS below: iterating the enum class runs
# EnumType.__iter__ each time.
_FACTORS = tuple(Factor)

_FACTOR_TOKENS = dict(zip(Factor, "h s e hy k p d m".split()))

_FACTOR_BY_TOKEN = {f.token: f for f in Factor}

_LONGEST_TOKEN = max(map(len, [*_SIGNATURE_BY_TOKEN, *_FACTOR_BY_TOKEN]))


def _scan_longest(table: dict, text: str, pos: int):
    # Longest match, so "hy+" is never read as "h" and "+!!" never as "+".
    for end in range(min(len(text), pos + _LONGEST_TOKEN), pos, -1):
        value = table.get(text[pos:end])
        if value is not None:
            return value, end
    return None


def _scan_factor(text: str, pos: int) -> tuple[Factor, int] | None:
    """The factor token at ``pos`` and the position after it, or None."""
    return _scan_longest(_FACTOR_BY_TOKEN, text, pos)


def _scan_signature(text: str, pos: int) -> tuple[Signature, int] | None:
    """The signature token at ``pos`` and the position after it, or None."""
    return _scan_longest(_SIGNATURE_BY_TOKEN, text, pos)


PROFILE_COUNT = 12 ** 8
INDICATOR_SET_COUNT = 1 << 16  # the subsets of the sixteen indicators

# Entry 12 * a + b is the signature pair (a, b): one base-144 digit of a
# profile index decodes to two factors.
_SIGNATURE_PAIRS = tuple((a, b) for a in _SIGNATURES for b in _SIGNATURES)


class Profile(_Value):
    """A total assignment of one signature to each of the eight factors.

    ``signatures`` is ordered by canonical factor order (h, s, e, hy, k, p,
    d, m).  Profiles biject with ``range(12**8)``: the i-th factor's
    signature ordinal is the i-th base-12 digit, h most significant.
    """

    __slots__ = _fields = ("signatures",)
    signatures: tuple[Signature, ...]

    def __init__(self, signatures):
        # Coerce so enum identity holds even when built from raw ordinals;
        # members pass through without an enum call.
        if type(signatures) is not tuple or not all(type(s) is Signature for s in signatures):
            signatures = tuple(Signature(s) for s in signatures)
        if len(signatures) != 8:
            raise ValueError(f"a profile assigns exactly 8 factors, got {len(signatures)}")
        object.__setattr__(self, "signatures", signatures)

    @classmethod
    def from_index(cls, index: int) -> "Profile":
        if not 0 <= index < PROFILE_COUNT:
            raise ValueError(f"profile index {index} outside [0, 12**8)")
        # Base 144: each digit is a pair of factors, most significant first.
        index, dm = divmod(index, 144)
        index, kp = divmod(index, 144)
        hs, ehy = divmod(index, 144)
        pairs = _SIGNATURE_PAIRS
        return cls._of(pairs[hs] + pairs[ehy] + pairs[kp] + pairs[dm])

    @classmethod
    def _of(cls, signatures: tuple[Signature, ...]) -> "Profile":
        """A profile of a tuple of eight members of ``_SIGNATURES``, unchecked:
        the twin of ``Profile(signatures)`` for signatures read off that table."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "signatures", signatures)
        return profile

    @classmethod
    def from_mapping(cls, assignment: dict[Factor, Signature]) -> "Profile":
        if len(assignment) != 8:
            missing = [f.token for f in Factor if f not in assignment]
            raise ValueError(f"assignment missing factors: {', '.join(missing)}")
        return cls(tuple(assignment[f] for f in Factor))

    def index(self) -> int:
        value = 0
        for sig in self.signatures:
            value = value * 12 + int(sig)
        return value

    def __str__(self) -> str:
        return " ".join(f"{f.token}{s.token}" for f, s in zip(Factor, self.signatures))


def parse_profile(text: str) -> Profile:
    """Parse the profile grammar: eight whitespace-separated factor-signature
    tokens, each factor exactly once, any factor order.
    """
    assignment: dict[Factor, Signature] = {}
    tokens = text.split()
    if not tokens:
        raise GrammarError("empty profile")
    for token in tokens:
        scanned = _scan_factor(token, 0)
        if scanned is None:
            raise GrammarError(f"token {token!r} does not start with a factor name")
        factor, end = scanned
        scanned = _scan_signature(token, end)
        if scanned is None or scanned[1] != len(token):
            raise GrammarError(f"unknown signature {token[end:]!r} in token {token!r}")
        sig = scanned[0]
        if factor in assignment:
            raise GrammarError(f"factor {factor.token!r} assigned twice")
        assignment[factor] = sig
    missing = [f.token for f in Factor if f not in assignment]
    if missing:
        raise GrammarError(f"profile missing factors: {', '.join(missing)}")
    return Profile.from_mapping(assignment)


NORM_PROFILE = parse_profile("h+ s+ e- hy- k- p- d+ m+")


class TypeIndicator(enum.IntEnum):
    """The sixteen Myers-Briggs type indicators, in canonical listing order."""

    ISTJ = 0
    ISFJ = 1
    INFJ = 2
    INTJ = 3
    ISTP = 4
    ISFP = 5
    INFP = 6
    INTP = 7
    ESTP = 8
    ESFP = 9
    ENFP = 10
    ENTP = 11
    ESTJ = 12
    ESFJ = 13
    ENFJ = 14
    ENTJ = 15

    @property
    def attitude(self) -> str:
        return self.name[0]

    @property
    def perception(self) -> str:
        return self.name[1]

    @property
    def judgment(self) -> str:
        return self.name[2]

    @property
    def flag(self) -> str:
        return self.name[3]

    def __str__(self) -> str:
        return self.name


# Indicators in order: iterating the enum class runs EnumType.__iter__ each time.
_INDICATORS = tuple(TypeIndicator)


def parse_indicator(text: str) -> TypeIndicator:
    name = text.strip().upper()
    try:
        return TypeIndicator[name]
    except KeyError:
        raise GrammarError(f"unknown type indicator {text.strip()!r}") from None


def parse_indicator_set(text: str) -> frozenset[TypeIndicator]:
    """Parse a comma-separated indicator list; ``{}`` is the empty set, blank text an error."""
    stripped = text.strip()
    if not stripped:
        raise GrammarError("no indicators given; write {} for the empty set")
    if stripped.startswith("{") and stripped.endswith("}"):
        stripped = stripped[1:-1].strip()
    if not stripped:
        return frozenset()
    return frozenset(parse_indicator(part) for part in stripped.split(","))


def render_indicator_set(indicators: frozenset[TypeIndicator]) -> str:
    if not indicators:
        return "{}"
    return ",".join(i.name for i in sorted(indicators))


def indicator_set_mask(indicators: frozenset[TypeIndicator]) -> int:
    mask = 0
    for i in indicators:
        mask |= 1 << int(i)
    return mask


def indicator_set_from_mask(mask: int) -> frozenset[TypeIndicator]:
    if not 0 <= mask < INDICATOR_SET_COUNT:
        raise ValueError(f"indicator-set mask {mask} outside [0, 2**16)")
    return frozenset(i for i in _INDICATORS if mask >> i & 1)


@lru_cache(maxsize=1 << 12)  # at most 4,095 valid subsets; tables repeat them
def render_signature_subset(mask: int) -> str:
    """Render a 12-bit signature subset as concatenated signature tokens in
    canonical ordinal order (the ProfileSet serialization alphabet).
    """
    if not 0 < mask < (1 << 12):
        raise ValueError(f"signature subset mask {mask} must be nonzero and 12-bit")
    return "".join(s.token for s in Signature if mask >> int(s) & 1)


@lru_cache(maxsize=1 << 12)  # at most 4,095 valid subsets; tables repeat them
def parse_signature_subset(text: str) -> int:
    """Inverse of :func:`render_signature_subset` (greedy longest-token scan)."""
    mask = 0
    pos = 0
    last = -1
    while pos < len(text):
        scanned = _scan_signature(text, pos)
        if scanned is None:
            raise GrammarError(f"unparseable signature subset {text!r}", column=pos)
        sig, end = scanned
        if sig <= last:
            raise GrammarError(
                f"signature subset {text!r} not in canonical ordinal order", column=pos
            )
        last = sig
        mask |= 1 << sig
        pos = end
    if mask == 0:
        raise GrammarError("empty signature subset")
    return mask


# Command prose, shared by the CLI and verification's reports without argparse
# (not exported).  Labels other than the payload key with "_" read as "-":
_LABELS = {"suite": "verification suite", "path": "wrote polarity table"}


def render_payload(payload: dict) -> str:
    """A payload as prose: a ``label: value`` line per scalar field in
    payload order, each list in its own form, and the verdict last."""
    if "rows" in payload:  # interp show: the document itself, which loads again
        return "\n".join(f"{name} = {row}" for name, row in payload["rows"].items())
    lines = []
    for key, value in payload.items():
        if key in ("command", "action", "passed", "ok"):
            continue
        if key == "boxes":
            lines.append(f"boxes: {len(value)}")
            lines.extend(f"  box {n}: {' '.join(box)}" for n, box in enumerate(value, 1))
        elif key == "sample":
            lines.append(f"sample: {len(value)} profiles" if value else "sample: none, the set is empty")
            lines.extend(f"  {profile}" for profile in value)
        elif key == "warnings":
            lines.extend(f"warning: {warning}" for warning in value)
        elif key == "checks":
            for check in value:
                trials = f"{check['trials']} trial" + ("" if check["trials"] == 1 else "s")
                lines.append(
                    f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}  "
                    f"({trials}, {check['elapsed_seconds']:.2f}s)"
                )
                if check["witness"]:
                    lines.append(f"      witness: {check['witness']}")
        elif key == "elapsed_ms":
            lines.append(f"elapsed: {value:.1f} ms")
        else:
            text = ("no", "yes")[value] if isinstance(value, bool) else value
            lines.append(f"{_LABELS.get(key, key.replace('_', '-'))}: {text}")
    if "passed" in payload:
        lines.append("result: " + ("all checks passed" if payload["passed"] else "FAILED"))
    if payload.get("ok"):
        lines.append("interpretation document is valid")
    return "\n".join(lines)
