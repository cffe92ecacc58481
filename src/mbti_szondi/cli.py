"""Command-line front door.

Commands: ``to-spp`` (indicator set to profile set), ``to-mbti`` (profile
to indicator set), ``verify`` (randomized law suites), ``precompute`` /
``lookup`` (polarity table on disk), ``interp`` (inspect or validate
interpretation documents).  Human-readable output is the default;
``--format machine`` prints one JSON object with stable field names, in
which profiles, indicator sets, and boxes use the same text grammars the
parsers accept.

Exit codes: 0 success, 2 parse/usage errors, 3 verification or
interpretation-validation failures, 4 cache errors.
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
from .connection import DEFAULT_SEED, DEFAULT_TRIALS, left_polarity, right_polarity
from .core import (
    GrammarError,
    TypeIndicator,
    parse_indicator_set,
    parse_profile,
    render_indicator_set,
)
from .boxes import ProfileSet
from .interpret import (
    Interpretation,
    InterpretationError,
    builtin_interpretation,
    dominance_consistent,
    load_interpretation,
)
from .logic import render_formula

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CACHE = 4

# The most profiles --sample draws: the sample is built in memory before it
# is printed, so an unbounded N ends in a MemoryError instead of an answer.
MAX_SAMPLE = 10_000


def _read_text(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GrammarError(f"cannot read {kind} {path}: {exc}") from exc


def _active_interpretation(path: str | None) -> Interpretation:
    if path:
        return load_interpretation(_read_text(path, "interpretation document"))
    return builtin_interpretation()


def _error(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.format_ == "machine":
        print(json.dumps(payload))
    else:
        print("\n".join(human_lines))


def _profile_set_output(
    args, payload: dict, lines: list[str], result: ProfileSet
) -> None:
    """Shared count/sample/boxes rendering for to-spp and lookup."""
    payload["count"] = result.count()
    lines.append(f"count: {result.count()}")
    if getattr(args, "boxes", False):
        boxes = result.to_payload()["boxes"]
        payload["boxes"] = boxes
        lines.append(f"boxes: {len(boxes)}")
        for position, tokens in enumerate(boxes, start=1):
            lines.append(f"  box {position}: {' '.join(tokens)}")
    if getattr(args, "sample", 0):
        payload["seed"] = args.seed
        if not result:
            payload["sample"] = []
            lines.append("sample: none, the set is empty")
        else:
            import random

            drawn = result.sample(random.Random(args.seed), args.sample)
            payload["sample"] = [str(p) for p in drawn]
            lines.append(f"sample ({len(drawn)} profiles, seed {args.seed}):")
            lines.extend(f"  {p}" for p in drawn)
    target = getattr(args, "enumerate_to", None)
    if target:
        written = 0
        with open(target, "w", encoding="utf-8") as handle:
            for profile in result.iter_profiles():
                handle.write(str(profile) + "\n")
                written += 1
        payload["enumerated_to"] = target
        payload["enumerated"] = written
        lines.append(f"enumerated {written} profiles to {target}")


def _cmd_to_spp(args) -> int:
    interp = _active_interpretation(args.interp)
    indicators = parse_indicator_set(args.indicators)
    start = time.perf_counter()
    result = right_polarity(interp, indicators)
    elapsed_ms = (time.perf_counter() - start) * 1000
    rendered = render_indicator_set(indicators)
    payload = {"command": "to-spp", "indicators": rendered}
    lines = [f"indicators: {rendered}"]
    _profile_set_output(args, payload, lines, result)
    payload["elapsed_ms"] = round(elapsed_ms, 3)
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_to_mbti(args) -> int:
    interp = _active_interpretation(args.interp)
    profile = parse_profile(args.profile)
    start = time.perf_counter()
    indicators = left_polarity(interp, [profile])
    elapsed_ms = (time.perf_counter() - start) * 1000
    rendered = render_indicator_set(indicators)
    payload = {
        "command": "to-mbti",
        "profile": str(profile),
        "indicators": rendered,
        "count": len(indicators),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    lines = [
        f"profile: {profile}",
        f"indicators: {rendered}",
        f"elapsed: {elapsed_ms:.1f} ms",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_verification

    interp = _active_interpretation(args.interp)
    report = run_verification(interp, args.suite, args.trials, args.seed)
    if args.format_ == "machine":
        payload = report.to_payload()
        payload["command"] = "verify"
        print(json.dumps(payload))
    else:
        print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_precompute(args) -> int:
    from .cache import write_cache

    interp = _active_interpretation(args.interp)
    start = time.perf_counter()
    path = write_cache(args.cache, interp)
    elapsed_ms = (time.perf_counter() - start) * 1000
    regions = len(interp.regions())
    payload = {
        "command": "precompute",
        "path": str(path),
        "entries": 1 << 16,
        "regions": regions,
        "fingerprint": interp.fingerprint(),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    lines = [
        f"wrote polarity table: {path}",
        f"entries: {1 << 16}",
        f"regions: {regions}",
        f"fingerprint: {interp.fingerprint()}",
        f"elapsed: {elapsed_ms:.1f} ms",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_lookup(args) -> int:
    from .cache import CacheError, open_cache

    interp = _active_interpretation(args.interp)
    indicators = parse_indicator_set(args.indicators)
    try:
        cache = open_cache(args.cache)
        cache.check_fingerprint(interp)
    except OSError as exc:
        return _error(f"cannot read cache {args.cache}: {exc}", EXIT_CACHE)
    except CacheError as exc:
        return _error(exc, EXIT_CACHE)
    start = time.perf_counter()
    result = cache.lookup(indicators)
    elapsed_ms = (time.perf_counter() - start) * 1000
    rendered = render_indicator_set(indicators)
    payload = {
        "command": "lookup",
        "indicators": rendered,
        "cache": str(cache.path),
    }
    lines = [f"indicators: {rendered}", f"cache: {cache.path}"]
    _profile_set_output(args, payload, lines, result)
    payload["elapsed_ms"] = round(elapsed_ms, 3)
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    _emit(args, payload, lines)
    return EXIT_OK


def _interp_summary(interp: Interpretation, path: str | None) -> tuple[dict, list[str]]:
    # Decided by whether a document was given, not by its name: a file
    # called "builtin" is still a document.
    if path:
        source, mode = path, "basic" if interp.basic is not None else "rows"
    else:
        source, mode = "builtin", "builtin"
    dominance = dominance_consistent(interp) if interp.basic is not None else None
    payload = {
        "command": "interp",
        "source": source,
        "mode": mode,
        "fingerprint": interp.fingerprint(),
        "negation_free": interp.negation_free,
        "dominance_consistent": dominance,
        "warnings": list(interp.warnings),
    }
    lines = [
        f"source: {source}",
        f"mode: {mode}",
        f"fingerprint: {interp.fingerprint()}",
        f"negation-free: {'yes' if interp.negation_free else 'no'}",
    ]
    if dominance is None:
        lines.append("dominance rule: not checkable (explicit rows, no basic entries)")
    else:
        lines.append(f"dominance rule: {'consistent' if dominance else 'INCONSISTENT'}")
    for warning in interp.warnings:
        lines.append(f"warning: {warning}")
    return payload, lines


def _cmd_interp(args) -> int:
    path = args.path or args.interp
    interp = _active_interpretation(path)
    payload, lines = _interp_summary(interp, path)
    payload["action"] = args.action
    if args.action == "show":
        payload["rows"] = {
            ind.name: render_formula(interp.row(ind)) for ind in TypeIndicator
        }
        if args.format_ == "machine":
            print(json.dumps(payload))
        else:
            print(interp.document(), end="")
        return EXIT_OK

    passed = payload["dominance_consistent"] in (True, None)
    payload["ok"] = passed
    lines.insert(0, "interpretation document is valid")
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_VERIFY


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
    parser.add_argument(
        "--format",
        dest="format_",
        choices=("human", "machine"),
        default="human",
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
        description=(
            "Translate between Myers-Briggs type-indicator sets and Szondi "
            "personality-profile sets via their Galois connection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "to-spp", help="profiles satisfying an indicator set's translation"
    )
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

    p = sub.add_parser(
        "to-mbti", help="indicators whose translation a profile satisfies"
    )
    p.add_argument(
        "profile", help='profile, e.g. "h+ s+ e- hy- k- p- d+ m+"'
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_to_mbti)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("facts", "lemma", "theorem", "all"),
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

    p = sub.add_parser(
        "precompute", help="compute all 65,536 polarities into a table file"
    )
    p.add_argument("--cache", type=_path, metavar="PATH", required=True, help="output path")
    _add_common(p)
    p.set_defaults(handler=_cmd_precompute)

    p = sub.add_parser("lookup", help="answer to-spp queries from a table file")
    p.add_argument("indicators", help="indicator set to look up")
    p.add_argument("--cache", type=_path, metavar="PATH", required=True, help="table file")
    _add_set_output_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_lookup)

    p = sub.add_parser("interp", help="inspect or validate interpretations")
    p.add_argument(
        "action",
        choices=("show", "check"),
        help="show the rows, or validate them",
    )
    p.add_argument(
        "path", nargs="?", type=_path, help="document (default: --interp, else the built-in)"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_interp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except GrammarError as exc:
        return _error(exc, EXIT_PARSE)
    except InterpretationError as exc:
        return _error(exc, EXIT_VERIFY)
    except OSError as exc:
        return _error(exc, EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
