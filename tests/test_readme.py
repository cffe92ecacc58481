"""README's command transcripts and prose numbers, run as tests.

Each ``sh`` block of README.md that shows ``$ mbti-szondi`` lines runs
through ``cli.main`` in-process, its lines in order, in one temporary
directory: ``my.txt`` is a basic document from ``tests/data`` and any table
is written there.  Each line must exit 0, and the output lines the block
shows must appear in what the commands print, in order, with elapsed
times masked.

Each number README's prose states is matched against what the code
computes, or against the constant of the test that pins it.  Timings are
not: they describe one machine.
"""

import argparse
import json
import math
import os
import random
import re
import shlex
from pathlib import Path

import pytest

import test_acceptance
from conftest import data_text
from mbti_szondi import (
    PROFILE_COUNT,
    Factor,
    ProfileSet,
    Signature,
    TypeIndicator,
    builtin_interpretation,
    load_interpretation,
    right_polarity,
    run_verification,
    write_cache,
)
from mbti_szondi import cache, cli, logic
from mbti_szondi.boxes import FULL_FACTOR_MASK
from mbti_szondi.cli import main
from mbti_szondi.connection import DEFAULT_TRIALS
from mbti_szondi.core import INDICATOR_SET_COUNT
from mbti_szondi.interpret import _BUILTIN_DOCUMENT, _FACT1_PAIRS, BASIC_KEYS
from mbti_szondi.verification import _draw_indicators, _draw_profiles
from test_connection import DROP_LAST_TRIALS
from test_logic import WIDE_ATOMS, iff_chain

README = Path(__file__).parent.parent / "README.md"
_ELAPSED = re.compile(r'(elapsed\w*"?:\s*)[0-9.]+')


def transcripts(text: str) -> list[list[tuple[str, list[str]]]]:
    """Per ``sh`` block with ``$ mbti-szondi`` lines: each command line and
    the output lines shown under it."""
    blocks = []
    for body in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        block: list[tuple[str, list[str]]] = []
        for line in body.splitlines():
            if line.startswith("$ mbti-szondi "):
                block.append((line[len("$ mbti-szondi "):], []))
            elif line.strip() and block:
                block[-1][1].append(line)
        if block:
            blocks.append(block)
    return blocks


def _masked(line: str) -> str:
    return _ELAPSED.sub(r"\1<elapsed>", line)


def test_readme_transcripts(capsys, monkeypatch, tmp_path):
    text = README.read_text()
    blocks = transcripts(text)
    # Every command line README shows, and the 13 that it shows today.
    assert sum(len(block) for block in blocks) == text.count("\n$ mbti-szondi ") == 13
    for n, block in enumerate(blocks):
        workdir = tmp_path / f"block{n}"
        workdir.mkdir()
        (workdir / "my.txt").write_text(data_text("basic_translations.txt"))
        monkeypatch.chdir(workdir)
        for command, shown in block:
            code = main(shlex.split(command, comments=True))
            printed = [_masked(line) for line in capsys.readouterr().out.splitlines()]
            assert code == 0, f"$ mbti-szondi {command}: exit {code}"
            lines = iter(printed)
            for want in map(_masked, shown):
                assert want in lines, f"$ mbti-szondi {command}: {want!r} not printed in order"


# README's text with each run of whitespace as one space, so a phrase may
# wrap across lines.
PROSE = " ".join(README.read_text().split())
WORDS = "zero one two three four five six seven eight nine ten eleven twelve".split()
WORDS += "thirteen fourteen fifteen sixteen".split()
# A number as README writes it: digits with "," or "." inside, or a word.
NUMBER = r"(\w+(?:[,.]\w+)*)"


def written(tmp_path, interp=None) -> tuple[Path, dict]:
    """The table ``precompute`` writes, under umask 022, and its header."""
    path = tmp_path / "table.jsonl"
    previous = os.umask(0o022)
    try:
        write_cache(path, interp or builtin_interpretation())
    finally:
        os.umask(previous)
    with open(path, encoding="utf-8") as handle:
        return path, json.loads(handle.readline())


def boolean_document() -> str:
    """Sixteen rows, two per factor, cutting each factor's twelve signatures
    into four classes of three: all 65,536 masks are regions."""
    rows = []
    for f in (factor.token for factor in Factor):
        rows.append(f"{f}+ | {f}+! | {f}+!! | {f}+!!! | {f}+- | {f}+-^!")
        rows.append(f"{f}-! | {f}-!! | {f}-!!! | {f}+! | {f}+!! | {f}+!!!")
    return "".join(f"{i.name} = {row}\n" for i, row in zip(TypeIndicator, rows))


def draw_sizes():
    """The sizes of 400 seeded draws of each kind the law suites make."""
    rng = random.Random(0)
    indicators = {len(_draw_indicators(rng)) for _ in range(400)}
    profiles = {len(_draw_profiles(rng, ProfileSet.empty())) for _ in range(400)}
    return min(indicators), max(indicators), min(profiles), max(profiles)


def boolean_table(tmp_path) -> tuple[int, str, int]:
    """The rows and regions of :func:`boolean_document`, and its table's
    size in MB."""
    interp = load_interpretation(boolean_document())
    path, _ = written(tmp_path, interp)
    return len(interp.rows), f"{len(interp.regions()):,}", round(path.stat().st_size / 10**6)


def table_format(tmp_path) -> tuple[int, str]:
    _, header = written(tmp_path)
    return header["version"], f"{header['entries']:,}"


def table_header(tmp_path) -> tuple[str, int, int]:
    _, header = written(tmp_path)
    return header["fingerprint"][:8], header["entries"], header["regions"]


def refused_chain() -> int:
    """The fewest ``<->`` links whose expansion the parser refuses."""
    for links in range(1, 30):
        try:
            logic.parse_formula(iff_chain(links))
        except logic.GrammarError:
            return links
    raise AssertionError("no chain refused")


def subcommands() -> int:
    (commands,) = [
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return len(commands)


def report():
    return run_verification(builtin_interpretation(), "all", 1, 1729)


def count(*indicators) -> int:
    return right_polarity(builtin_interpretation(), indicators).count()


def nonempty_masks() -> int:
    return len(builtin_interpretation().covers())


def regions_and_boxes() -> tuple[int, int]:
    regions = builtin_interpretation().regions()
    return len(regions), sum(len(region.boxes) for _, region in regions)


def builtin_program() -> tuple[int, int]:
    """Literals and steps of the sixteen built-in rows' program."""
    interp = builtin_interpretation()
    literals, steps, _ = logic._flatten([interp.row(ind) for ind in TypeIndicator])
    return len(literals), len(steps)


# (README phrase, its numbers as the code gives them).  A ``{}`` stands for
# one number, in digits or as a word; every place README states the phrase
# must give these numbers.  Pointers name the test that pins a number.
CLAIMS = [
    ("one of {} signatures to each of {} drive factors", lambda _: (
        WORDS[len(Signature)], WORDS[len(Factor)])),
    ("{}^{} = {} members", lambda _: (len(Signature), len(Factor), f"{PROFILE_COUNT:,}")),
    ("{}^{} profiles", lambda _: (len(Signature), len(Factor))),
    ("exact model count over {}^{}", lambda _: (len(Signature), len(Factor))),
    ("any of the {}^{} subsets", lambda _: (2, len(TypeIndicator))),
    ("in [0, {}^{})", lambda _: (2, len(TypeIndicator))),
    ("subsets of the {} four-letter types", lambda _: (WORDS[len(TypeIndicator)],)),
    ("formula over {} atoms", lambda _: (len(Factor) * len(Signature),)),
    ("the {}-million point space", lambda _: (round(PROFILE_COUNT / 10**6),)),
    ("Requires Python {}+", lambda _: re.search(
        r'requires-python = ">=([\d.]+)"', (README.parent / "pyproject.toml").read_text()).groups()),
    ("entry point has {} subcommands", lambda _: (WORDS[subcommands()],)),
    ("(`count: {}`)", lambda _: (count(TypeIndicator.ISTJ),)),
    ("N below 0 or above {} is a usage error", lambda _: (f"{cli.MAX_SAMPLE:,}",)),
    ("`all` runs {} checks", lambda _: (WORDS[len(report().checks)],)),
    ("`facts.rows-distinct` its {} pairs", lambda _: (
        next(c.trials for c in report().checks if c.name == "facts.rows-distinct"),)),
    ("Each trial draws {}–{} distinct indicators, {}–{} profiles", lambda _: draw_sizes()),
    ("({} of the {} for the built-in)", lambda _: (nonempty_masks(), f"{INDICATOR_SET_COUNT:,}")),
    # test_connection.py::TestVerification::test_drop_last_lift_fails_theorem
    ("within {} trials at every seed the tests try", lambda _: (DROP_LAST_TRIALS,)),
    ("answers all {} indicator sets", lambda _: (f"{INDICATOR_SET_COUNT:,}",)),
    ("{} regions in {} boxes for the built-in translation", lambda _: regions_and_boxes()),
    ("for the built-in translation, about {} KiB", lambda tmp: (
        round(written(tmp)[0].stat().st_size / 1024),)),
    ("a document over {} MiB", lambda _: (cli.MAX_DOCUMENT_BYTES >> 20,)),
    ("the {} MiB limit on a document", lambda _: (cli.MAX_DOCUMENT_BYTES >> 20,)),
    ("a table over {} MiB", lambda _: (cache.MAX_TABLE_BYTES >> 20,)),
    ("unless it is at most {} MiB", lambda _: (cache.MAX_TABLE_BYTES >> 20,)),
    ("a {}-row document whose {} masks are all regions, is about {} MB", boolean_table),
    ("nest at most {} levels deep", lambda _: (logic._MAX_NESTING,)),
    ("a tree of about 2^(n+{}) nodes", lambda _: (
        round(math.log2(logic._tree_size(logic.parse_formula(iff_chain(10))))) - 10,)),
    ("adds more than {} nodes to the tokens", lambda _: (f"{logic._MAX_TREE_NODES:,}",)),
    ("(a chain of {} links) is a parse error", lambda _: (refused_chain(),)),
    # test_logic.py::TestGrammar::test_flat_formulas_not_bounded_by_expansion
    ("a disjunction of {} atoms", lambda _: (f"{WIDE_ATOMS:,}",)),
    ("the **{} basic translations**", lambda _: (WORDS[len(BASIC_KEYS)],)),
    ("(a {}-line basic document", lambda _: (WORDS[len(_BUILTIN_DOCUMENT.splitlines())],)),
    ("`E I F F! T T! N N! S S!`, then the {} pairs", lambda _: (len(_FACT1_PAIRS),)),
    ("spp.count() # {}, exact", lambda _: (count(TypeIndicator.INFJ),)),
    ("ascending order of mask: {} masks for the built-in translation", lambda _: (
        nonempty_masks(),)),
    ("(the other {} masks for the built-in translation)", lambda _: (
        f"{INDICATOR_SET_COUNT - nonempty_masks():,}",)),
    ("one shared tuple of the {} masks", lambda _: (f"{INDICATOR_SET_COUNT:,}",)),
    ("holds {} narrated scripts", lambda _: (
        WORDS[len(list(README.parent.glob("demos/*.py")))],)),
    ("JSON Lines, version {}.", lambda _: (cache.CACHE_VERSION,)),
    ("(version {}) are refused", lambda _: (cache.CACHE_VERSION - 1,)),
    ("names this format, version {} and {} entries", table_format),
    ('"mbti-szondi-polarity-table", "version": {},', lambda tmp: (written(tmp)[1]["version"],)),
    ('"fingerprint": "{}...", "entries": {}, "regions": {},', table_header),
    ('(`{}` under umask {})', lambda tmp: (oct(written(tmp)[0].stat().st_mode & 0o777), "022")),
    ("# all suites, {} trials", lambda _: (DEFAULT_TRIALS,)),
    ("| {} | success |", lambda _: (cli.EXIT_OK,)),
    ("| {} | parse or usage error", lambda _: (cli.EXIT_PARSE,)),
    ("| {} | verification or interpretation-validation failure", lambda _: (cli.EXIT_VERIFY,)),
    ("| {} | cache error", lambda _: (cli.EXIT_CACHE,)),
    ("onto codes {}, {} and {}", lambda _: (cli.EXIT_PARSE, cli.EXIT_VERIFY, cli.EXIT_CACHE)),
    ("`GrammarError` (exit {}), `InterpretationError` (exit {}) and `CacheError` (exit {})",
     lambda _: (cli.EXIT_PARSE, cli.EXIT_VERIFY, cli.EXIT_CACHE)),
    ("nonzero and {}-bit", lambda _: (FULL_FACTOR_MASK.bit_length(),)),
    ("order like the base-{} index", lambda _: (len(Signature),)),
    ("one table of the {} atoms", lambda _: (len(Factor) * len(Signature),)),
    # test_logic.py::TestMemberMasks::test_builtin_rows_program_shape
    ("The sixteen built-in rows flatten to {} literals and {} steps", lambda _: builtin_program()),
    ('its {}-bit "rows satisfied" mask', lambda _: (len(TypeIndicator),)),
    ("(`entries`, a list of {} ints)", lambda _: (f"{INDICATOR_SET_COUNT:,}",)),
    ("[[{} subset tokens]", lambda _: (len(Factor),)),
    ("# the {} headline criteria", lambda _: (
        WORDS[sum(name.startswith("test_criterion_") for name in vars(test_acceptance))],)),
]


@pytest.mark.parametrize("phrase, computed", CLAIMS, ids=[phrase for phrase, _ in CLAIMS])
def test_prose_numbers(phrase, computed, tmp_path):
    pattern = re.escape(phrase).replace(re.escape("{}"), NUMBER)
    stated = {match.groups() for match in re.finditer(pattern, PROSE)}
    assert stated, f"README no longer states {phrase!r}"
    assert stated == {tuple(map(str, computed(tmp_path)))}, phrase
