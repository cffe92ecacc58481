"""README's command transcripts, run as tests in the spirit of ``doctest``.

Each ``sh`` block of README.md that shows ``$ mbti-szondi`` lines runs
through ``cli.main`` in-process, its lines in order, in one temporary
directory: ``my.txt`` is a basic document from ``tests/data`` and any table
is written there.  Each line must exit 0, and the output lines the block
shows must appear in what the commands print, in order, with elapsed
times masked.
"""

import re
import shlex
from pathlib import Path

from conftest import data_text
from mbti_szondi.cli import main

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
