"""Command-line front door.

Commands: ``to-spp`` (indicator set to profile set), ``to-mbti`` (profile
to indicator set), ``verify`` (randomized law suites), ``precompute`` /
``lookup`` (polarity table on disk), ``interp`` (inspect or validate
interpretation documents).  Every command but ``interp``, which names its
document by a positional PATH, takes ``--interp PATH`` in place of the
built-in translation.  Human-readable output is the default;
``--format machine`` prints one JSON object with stable field names, in
which profiles, indicator sets, and boxes use the same text grammars the
parsers accept.  A command builds only that object, its payload, and
returns it; ``main`` prints it, and the prose is rendered from the payload,
so both formats carry the same fields.

Exit codes: 0 success, 2 parse/usage errors, 3 verification or
interpretation-validation failures, 4 cache errors.  ``main`` alone decides
them: it maps the three refusal classes, all declared in ``core``
(``GrammarError`` or an ``OSError`` to 2, ``InterpretationError`` to 3,
``CacheError`` to 4), and a payload whose ``passed`` is false to 3.  A reader
that closes stdout early (``| head``) does not change them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence

# A query loads only what it runs: the table module, the law suites and
# random are imported inside the commands that use them.
from .connection import DEFAULT_SEED, DEFAULT_TRIALS, VERIFY_SUITES, left_polarity, right_polarity
from .core import (
    INDICATOR_SET_COUNT,
    CacheError,
    GrammarError,
    InterpretationError,
    parse_indicator_set,
    parse_profile,
    render_indicator_set,
    render_payload,
)
from .interpret import Interpretation, builtin_interpretation, load_interpretation

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CACHE = 4

# The most profiles --sample draws: the sample is built in memory before it
# is printed, so an unbounded N ends in a MemoryError instead of an answer.
MAX_SAMPLE = 10_000
# The most bytes of an interpretation document read: ten or sixteen formula
# lines are a few KiB (the parser takes about 1.3 us a byte), and an endless
# file such as /dev/zero would otherwise be read until memory runs out.
MAX_DOCUMENT_BYTES = 1 << 20


def _read_text(path: str, kind: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_DOCUMENT_BYTES + 1)
        if len(data) > MAX_DOCUMENT_BYTES:
            raise GrammarError(f"{kind} {path} is larger than {MAX_DOCUMENT_BYTES} bytes")
        return data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise GrammarError(f"cannot read {kind} {path}: {exc}") from exc


def _active_interpretation(path: str | None) -> Interpretation:
    if path:
        return load_interpretation(_read_text(path, "interpretation document"))
    return builtin_interpretation()


def _error(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _emit(args, payload: dict) -> None:
    try:
        print(json.dumps(payload) if args.format_ == "machine" else render_payload(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``| head``).  Python flushes stdout again at exit,
        # so point it at devnull, as the signal module's note on SIGPIPE shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _profile_set_output(args, payload: dict, compute) -> dict:
    """to-spp's and lookup's tail: time ``compute()``, add its set to ``payload``."""
    start = time.perf_counter()
    result = compute()
    elapsed_ms = (time.perf_counter() - start) * 1000
    payload["count"] = result.count()
    if args.boxes:
        payload["boxes"] = result.to_payload()["boxes"]
    if args.sample:
        import random

        drawn = result.sample(random.Random(args.seed), args.sample) if result else []
        payload["seed"] = args.seed
        payload["sample"] = [str(p) for p in drawn]
    target = getattr(args, "enumerate_to", None)  # lookup has no --enumerate-to
    if target:
        written = 0
        with open(target, "w", encoding="utf-8") as handle:
            for profile in result.iter_profiles():
                handle.write(str(profile) + "\n")
                written += 1
        payload["enumerated_to"] = target
        payload["enumerated"] = written
    payload["elapsed_ms"] = round(elapsed_ms, 3)
    return payload


def _cmd_to_spp(args) -> dict:
    interp = _active_interpretation(args.interp)
    indicators = parse_indicator_set(args.indicators)
    payload = {"command": "to-spp", "indicators": render_indicator_set(indicators)}
    return _profile_set_output(args, payload, lambda: right_polarity(interp, indicators))


def _cmd_to_mbti(args) -> dict:
    interp = _active_interpretation(args.interp)
    profile = parse_profile(args.profile)
    start = time.perf_counter()
    indicators = left_polarity(interp, [profile])
    elapsed_ms = (time.perf_counter() - start) * 1000
    return {
        "command": "to-mbti",
        "profile": str(profile),
        "indicators": render_indicator_set(indicators),
        "count": len(indicators),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _cmd_verify(args) -> dict:
    from .verification import run_verification

    interp = _active_interpretation(args.interp)
    report = run_verification(interp, args.suite, args.trials, args.seed)
    return {**report.to_payload(), "command": "verify"}


def _cmd_precompute(args) -> dict:
    from .cache import write_cache

    interp = _active_interpretation(args.interp)
    start = time.perf_counter()
    path = write_cache(args.cache, interp)
    elapsed_ms = (time.perf_counter() - start) * 1000
    return {
        "command": "precompute",
        "path": str(path),
        "entries": INDICATOR_SET_COUNT,
        "regions": len(interp.regions()),
        "fingerprint": interp.fingerprint(),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _cmd_lookup(args) -> dict:
    from .cache import open_cache

    interp = _active_interpretation(args.interp)
    indicators = parse_indicator_set(args.indicators)
    cache = open_cache(args.cache)
    cache.check_fingerprint(interp)
    payload = {
        "command": "lookup",
        "indicators": render_indicator_set(indicators),
        "cache": str(cache.path),
    }
    return _profile_set_output(args, payload, lambda: cache.lookup(indicators))


def _cmd_interp(args) -> dict:
    interp = _active_interpretation(args.path)
    # Decided by whether a document was given, not by its name: a file
    # called "builtin" is still a document.
    if args.path:
        source, mode = args.path, "basic" if interp.basic is not None else "rows"
    else:
        source, mode = "builtin", "builtin"
    payload = {
        "command": "interp",
        "source": source,
        "mode": mode,
        "fingerprint": interp.fingerprint(),
        "negation_free": interp.negation_free,
        "warnings": list(interp.warnings),
        "action": args.action,
    }
    if args.action == "show":
        # The fingerprinted text itself; no formula contains "=".
        payload["rows"] = dict(line.split(" = ", 1) for line in interp.document().splitlines())
    else:
        # A document that loads is valid: validation failures raise, and
        # main turns them into exit codes 2 and 3.
        payload["ok"] = True
    return payload


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at ``shutil.get_terminal_size``'s width (``COLUMNS``,
    else the terminal, else 80, less 2) without importing ``shutil``, which
    loads fnmatch, zlib, bz2 and lzma: every ``add_argument`` builds one."""

    def __init__(self, prog: str):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


def _count_type(minimum: int, maximum: int | None = None):
    """An argparse type for integers in [minimum, maximum]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum:,}, got {value}")
        return value

    return parse


def _path(text: str) -> str:
    """An argparse type for paths the operating system can be handed."""
    try:
        if b"\0" in os.fsencode(text):
            raise ValueError("embedded null byte")
    except ValueError as exc:  # also characters the file system cannot encode
        raise argparse.ArgumentTypeError(f"invalid path {text!r}: {exc}") from None
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--interp",
        type=_path,
        metavar="PATH",
        help="use this interpretation document instead of the built-in translation",
    )
    _add_format(parser)


def _add_format(parser: argparse.ArgumentParser, default: str = "human") -> None:
    parser.add_argument(
        "--format",
        dest="format_",
        choices=("human", "machine"),
        default=default,
        help="output style; machine prints one JSON object",
    )


def _add_set_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample",
        type=_count_type(0, MAX_SAMPLE),
        default=0,
        metavar="N",
        help=(
            f"print N profiles drawn from the result, at most {MAX_SAMPLE:,} "
            "(deterministic per seed)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="random seed for sampling"
    )
    parser.add_argument(
        "--boxes", action="store_true", help="print the result's signature boxes"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbti-szondi",
        formatter_class=_HelpFormatter,
        description=(
            "Translate between Myers-Briggs type-indicator sets and Szondi "
            "personality-profile sets via their Galois connection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, formatter_class=_HelpFormatter)

    p = command("to-spp", "profiles satisfying an indicator set's translation")
    p.add_argument(
        "indicators", help='indicator set, e.g. "ISTJ", "istj,estp", or "{}"'
    )
    _add_set_output_flags(p)
    p.add_argument(
        "--enumerate-to",
        type=_path,
        metavar="PATH",
        help="write every member profile to PATH, one per line",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_to_spp)

    p = command("to-mbti", "indicators whose translation a profile satisfies")
    p.add_argument(
        "profile", help='profile, e.g. "h+ s+ e- hy- k- p- d+ m+"'
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_to_mbti)

    p = command("verify", "run the randomized verification suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=VERIFY_SUITES,
        help="which suite to run (default: all)",
    )
    p.add_argument(
        "--trials",
        type=_count_type(1),
        default=DEFAULT_TRIALS,
        help=f"random cases per check, at least 1 (default: {DEFAULT_TRIALS})",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = command("precompute", "compute all 65,536 polarities into a table file")
    p.add_argument("--cache", type=_path, metavar="PATH", required=True, help="output path")
    _add_common(p)
    p.set_defaults(handler=_cmd_precompute)

    p = command("lookup", "answer to-spp queries from a table file")
    p.add_argument("indicators", help="indicator set to look up")
    p.add_argument("--cache", type=_path, metavar="PATH", required=True, help="table file")
    _add_set_output_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_lookup)

    p = command("interp", "inspect or validate interpretations")
    _add_format(p)
    p.set_defaults(handler=_cmd_interp)
    # Each action takes --format again, so the option may come before or
    # after PATH; left out there, it keeps what interp's own gave.
    actions = p.add_subparsers(dest="action", required=True, metavar="action")
    for action, help in (("show", "show the rows"), ("check", "validate the rows")):
        q = actions.add_parser(action, help=help, formatter_class=_HelpFormatter)
        q.add_argument(
            "path", nargs="?", type=_path, help="document (default: the built-in translation)"
        )
        _add_format(q, argparse.SUPPRESS)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    # Printing stays inside the try: a failed write (stdout on /dev/full) is
    # an OSError, and exits 2 with one error line rather than a traceback.
    try:
        payload = args.handler(args)
        _emit(args, payload)
    except (GrammarError, OSError) as exc:
        return _error(exc, EXIT_PARSE)
    except InterpretationError as exc:
        return _error(exc, EXIT_VERIFY)
    except CacheError as exc:
        return _error(exc, EXIT_CACHE)
    return EXIT_OK if payload.get("passed", True) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
