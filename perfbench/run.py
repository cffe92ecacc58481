"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller each):

* ``cli-session``: a seeded sequence of fresh ``python -m mbti_szondi.cli``
  processes, one at a time: ``to-spp`` (some with ``--boxes``, some with
  ``--sample``), ``to-mbti``, ``lookup`` against a table written during
  set-up, and ``interp check`` of ``custom_interpretation.txt``.
* ``query-stream``: in-process ``right_polarity``, ``left_polarity`` (on
  symbolic sets and explicit samples) and ``closure_left`` calls on the warm
  built-in interpretation, a stated share re-asking a small hot pool.
* ``lattice-batch``: rounds of whole-structure jobs (verification, all
  right polarities, kernel classes, table write and open) for the built-in
  interpretation and a freshly loaded custom one.

The package measured is always this checkout's ``src/`` (see
``common.py``).  Every answer is checked against ``reference.py`` and the
numpy oracle after timing.  The report goes to stdout, one metric per line
with its unit and sample count; the last line is one JSON object holding
``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json``: the end-to-end ones, or with ``--trace 1`` the
per-layer ones from a separate traced run (``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from common import (
    BENCH_DIR,
    CALIBRATION_EVERY,
    CUSTOM_DOC,
    WORK_DIR,
    SourceTreeError,
    calibration_point,
    child_env,
    import_package,
    scaled,
)

WORKLOADS = ("cli-session", "query-stream", "lattice-batch")
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER = {
    "python.start_ms": "ms",
    "import.package_ms": "ms",
    "import.numpy_ms": "ms",
    "import.modules_loaded": "count",
    "interpret.builtin_ms": "ms",
    "logic.models_calls": "count",
    "logic.models_ms": "ms",
    "logic.models_share": "ratio",
    "logic.evaluate_calls": "count",
    "boxes.intersect_calls": "count",
    "boxes.intersect_ms": "ms",
    "boxes.union_calls": "count",
    "boxes.union_ms": "ms",
    "boxes.issubset_calls": "count",
    "boxes.issubset_ms": "ms",
    "boxes.sets_built": "count",
    "boxes.boxes_per_set": "count",
    "connection.right_polarity_calls": "count",
    "connection.right_polarity_ms": "ms",
    "connection.left_polarity_calls": "count",
    "connection.left_polarity_ms": "ms",
    "cache.probe_write_ms": "ms",
    "cache.probe_open_ms": "ms",
    "cache.probe_bytes": "bytes",
    "cli.compute_share": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}
# Set-ups per run, the median reported.  A cli-session set-up (a precompute
# process writing the table) varies by up to a third within a run, so it
# takes more samples.
SETUPS = {"cli-session": 11, "query-stream": 7, "lattice-batch": 7}
# A cli-session run asks a fixed number of processes, in whole blocks of
# workloads.CLI_BLOCK, instead of stopping at a deadline: with a fixed
# count, how many processes reach the --sample defect (and so `failed`)
# depends on --seconds alone, not on the machine's speed or the seed.  At
# about 4 processes a second (the reference machine) a run takes about
# --seconds.
CLI_OPS_PER_SECOND = 4
TRACED_CLI_OPS = 40  # processes per pass in a traced cli-session run, two blocks
RECOUNTS = 2  # answers per run recounted by a full numpy sweep
# The timed steps of a lattice-batch job, as the worker names them.
LATTICE_JOBS = ("load_ns", "verify_ns", "polarities_ns", "kernel_ns", "write_ns", "open_ns")
SUBSET = 300  # left-polarity answers per kind re-decided by numpy


class BenchmarkError(RuntimeError):
    """A benchmark process failed; the run has no result."""


class Run:
    """What one invocation collects: metrics, outcomes and input properties."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.crashes = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (value, unit, samples)

    def latencies(self, prefix: str, values_ms: list[float]) -> None:
        self.put(f"{prefix}_p50", statistics.median(values_ms), "ms", len(values_ms))
        p90 = statistics.quantiles(values_ms, n=10, method="inclusive")[8] if len(values_ms) > 1 else values_ms[0]
        self.put(f"{prefix}_p90", p90, "ms", len(values_ms))


# -- processes ------------------------------------------------------------


def spawn(args: list[str], out: Path, err: Path, env: dict) -> tuple[float, int, int]:
    """Run ``python ARGS`` to completion: (wall s, exit code, peak RSS KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    begin = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - begin, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def worker(work: Path, env: dict, args, seconds: float, trace: int, setup_only: bool = False) -> dict:
    out = work / "worker.json"
    argv = [str(BENCH_DIR / "worker.py"), args.workload, str(args.seed), str(seconds), str(trace), str(out)]
    _, code, _ = spawn(argv + (["setup-only"] if setup_only else []), work / "w.out", work / "w.err", env)
    if code != 0:
        raise BenchmarkError(f"worker {argv[1:]} exited {code}:\n{(work / 'w.err').read_text()[-2000:]}")
    return json.loads(out.read_text())


# -- cli-session ----------------------------------------------------------


def run_cli(args, ms, tables, checker, work: Path, run: Run) -> None:
    import workloads

    env = child_env()
    table_path = work / "table.jsonl"
    out, err = work / "out.txt", work / "err.txt"
    setups = []
    for _ in range(SETUPS["cli-session"]):
        before = calibration_point(20)
        wall, code, _ = spawn(
            ["-m", "mbti_szondi.cli", "precompute", "--cache", str(table_path), "--format", "machine"],
            out, err, env,
        )
        if code != 0:
            raise BenchmarkError(f"precompute exited {code}: {err.read_text()[-2000:]}")
        setups.append(scaled(wall, (before + calibration_point(20)) / 2))
    if json.loads(out.read_text())["fingerprint"] != tables["builtin"].fingerprint:
        run.problems.append("precompute wrote a table for another interpretation")
    run.put("setup_s", statistics.median(setups), "s", len(setups))

    stream = workloads.cli_session(args.seed, tables["builtin"], str(table_path), str(CUSTOM_DOC))
    fingerprint = tables["custom"].fingerprint
    ops = []  # (kind, expect, wall s, outcome, parsed answer or None)
    peak_kb = 0
    calibration = [calibration_point()]  # before and after every process

    def one(prefix: list[str], trace_file: Path | None = None):
        nonlocal peak_kb
        kind, argv, expect = next(stream)
        extra = [str(trace_file)] if trace_file else []
        wall, code, rss = spawn([*prefix, *extra, *argv], out, err, env)
        peak_kb = max(peak_kb, rss)
        outcome, payload = checker.cli(kind, expect, code, out.read_text(), err.read_text(), fingerprint)
        ops.append((kind, expect, wall, outcome, payload))
        calibration.append(calibration_point())
        return wall

    cli = ["-m", "mbti_szondi.cli"]
    if args.trace:
        untraced = [one(cli) * 1e9 for _ in range(TRACED_CLI_OPS)]
        stream = workloads.cli_session(args.seed, tables["builtin"], str(table_path), str(CUSTOM_DOC))
        traces = [work / f"trace-{i}.json" for i in range(TRACED_CLI_OPS)]
        traced = [one([str(BENCH_DIR / "shim.py")], path) * 1e9 for path in traces]
        payloads = [json.loads(path.read_text()) for path in traces if path.exists()]
        layer_metrics(run, payloads, traced, untraced)
        import_ns = [p["counts"]["shim.import_ns"] for p in payloads]
        run.put("shim.import_ms", statistics.median(import_ns) / 1e6, "ms", len(import_ns))
    else:
        block = len(workloads.CLI_BLOCK)
        for _ in range(block * max(1, round(args.seconds * CLI_OPS_PER_SECOND / block))):
            one(cli)
        run.put("calibration_ms", 1e-6 * statistics.median(calibration), "ms", len(calibration))
        walls = [scaled(op[2] * 1e3, (calibration[i] + calibration[i + 1]) / 2) for i, op in enumerate(ops)]
        run.latencies("op_ms", walls)
        run.put("ops_per_s", 1e3 * len(walls) / sum(walls), "1/s", len(walls))
        run.put("peak_rss_mb", peak_kb / 1024, "MB", len(ops))
        lookups = [w for w, op in zip(walls, ops) if op[0] == "lookup"]
        if lookups:
            run.put("lookup_ms_p50", statistics.median(lookups), "ms", len(lookups))
        others = [w for w, op in zip(walls, ops) if op[0] != "lookup"]
        run.put("other_ms_p50", statistics.median(others), "ms", len(others))

    # Outcomes were judged per process; recount a few answers by numpy.
    # Refusals (a documented exit without an answer) carry no payload.
    answered = {op[1]["mask"]: op[4]["count"] for op in ops if op[3] == "ok" and op[4] and "mask" in op[1]}
    rng = random.Random(args.seed)
    planted = []
    for mask in rng.sample(sorted(answered), min(RECOUNTS, len(answered))):
        checker.recount("builtin", mask, answered[mask])
        planted.append(("recount", "builtin", mask, answered[mask]))
    first = {}
    for kind, expect, _, outcome, payload in ops:
        if outcome == "ok" and payload and kind not in first and kind != "interp-check":
            first[kind] = (expect, payload)
    for kind, (expect, payload) in first.items():
        if kind == "to-mbti":
            planted.append(("left_explicit", "builtin", [expect["profile"]], workloads.parse_set(payload["indicators"])))
        else:
            planted.append(("right_count", "builtin", expect["mask"], payload["count"]))
    run.problems += checker.self_test(planted)

    outcomes = Counter(op[3] for op in ops)
    run.attempted = len(ops)
    run.failed = outcomes["wrong"] + outcomes["crash"]
    run.crashes = outcomes["crash"]
    mix = Counter(op[0] for op in ops)
    run.notes.append("command mix: " + ", ".join(f"{k} {v}" for k, v in sorted(mix.items())))
    samples = [op for op in ops if "sample" in op[1]]
    empty = [op for op in samples if checker.tables["builtin"].count(op[1]["mask"]) == 0]
    run.notes.append(
        f"--sample on an empty polarity: {len(empty)} of {len(samples)} sample commands, "
        f"{sum(op[3] == 'crash' for op in empty)} crashed"
    )
    sizes = Counter(bin(op[1]["mask"]).count("1") for op in ops if "mask" in op[1])
    run.notes.append("indicator-set sizes: " + ", ".join(f"{k}: {v}" for k, v in sorted(sizes.items())))


# -- query-stream and lattice-batch ---------------------------------------


def scaled_setup(result: dict) -> float:
    return scaled(result["setup_s"], result["setup_calibration_ns"])


def check_queries(args, checker, result: dict, run: Run) -> list[tuple]:
    """Judge every query answer; returns planted-test material."""
    import workloads

    stream = workloads.query_stream(args.seed, checker.tables["builtin"])
    answers = result["answers"]
    rng = random.Random(args.seed)
    verdicts: dict[tuple, bool] = {}
    subset_left = Counter()
    planted: dict[str, tuple] = {}
    sizes, hot, seen, nonempty, rights = Counter(), 0, set(), 0, 0
    asked, repeated = Counter(), Counter()
    failed = crashes = 0
    for answer in answers:
        kind, arg, is_hot = next(stream)
        key = (kind, arg)
        hot += is_hot
        asked[kind] += 1
        repeated[kind] += key in seen
        seen.add(key)
        if kind in ("right", "closure"):
            sizes[bin(arg).count("1")] += 1
        if answer < 0:  # the call raised
            failed += 1
            crashes += 1
            continue
        if kind == "right":
            rights += 1
            nonempty += answer > 0
        if (key, answer) in verdicts:
            failed += not verdicts[(key, answer)]
            continue
        if kind == "right":
            ok = checker.right_count("builtin", arg, answer)
            planted.setdefault(kind, ("right_count", "builtin", arg, answer))
        elif kind == "closure":
            ok = checker.closure("builtin", arg, answer)
            planted.setdefault(kind, ("closure", "builtin", arg, answer))
        elif subset_left[kind] < SUBSET and rng.random() < 0.5:
            subset_left[kind] += 1
            check = "left_box" if kind == "left-symbolic" else "left_explicit"
            ok = getattr(checker, check)("builtin", arg, answer)
            planted.setdefault(kind, (check, "builtin", arg, answer))
        else:
            continue  # not in the re-decided subset
        verdicts[(key, answer)] = ok
        failed += not ok
    run.attempted += len(answers)
    run.failed += failed
    run.crashes += crashes
    run.notes += [f"query raised {message}" for message in result["errors"]]
    right_answers = {key[1]: answer for (key, answer), ok in verdicts.items() if key[0] == "right" and ok}
    for mask in rng.sample(sorted(right_answers), min(RECOUNTS, len(right_answers))):
        checker.recount("builtin", mask, right_answers[mask])
        planted[f"recount-{mask}"] = ("recount", "builtin", mask, right_answers[mask])
    n = len(answers)
    run.notes.append("set sizes (right, closure): " + ", ".join(f"{k}: {v}" for k, v in sorted(sizes.items())))
    run.notes.append(
        f"hot-pool share {hot / n:.3f}, share of calls repeating an earlier call {sum(repeated.values()) / n:.3f} ("
        + ", ".join(f"{kind} {repeated[kind] / asked[kind]:.3f}" for kind in sorted(asked))
        + ")"
    )
    run.notes.append(f"nonempty right polarities {nonempty / max(rights, 1):.3f} of {rights}")
    run.notes.append("left answers re-decided by numpy: " + ", ".join(f"{k} {v}" for k, v in subset_left.items()))
    return list(planted.values())


def check_lattice(args, checker, result: dict, run: Run, expected: dict) -> list[tuple]:
    """Judge every round; returns planted-test material."""
    answered: dict[str, dict[int, int]] = {"builtin": {}, "custom": {}}
    for round_ in result["rounds"]:
        run.attempted += 1
        if "error" in round_:
            run.failed += 1
            run.crashes += 1
            run.notes.append(f"lattice round raised {round_['error']}")
            continue
        ok = True
        for name, job in round_["jobs"].items():
            want = expected[name]
            table = checker.tables[name]
            verdicts = {
                "verification failed": job["passed"],
                "verification checked no cases": job["cases"] > 0,
                "report fingerprint": job["fingerprint"] == table.fingerprint,
                "nonempty polarity count": job["nonempty"] == want["nonempty"],
                "kernel classes": job["partition_digest"] == want["partition_digest"],
                "polarity counts": job.get("counts_digest", want["counts_digest"]) == want["counts_digest"],
                "table fingerprint": job["table_fingerprint"] == table.fingerprint,
                "table entries": job["table_entries"] == 1 << 16,
            }
            for problem, good in verdicts.items():
                if not good:
                    ok = checker.wrong(f"{name}: {problem}")
            for mask, count in job["lookups"]:
                ok = checker.right_count(name, mask, count) and ok
                answered[name][mask] = count
        run.failed += not ok
    planted = []
    rng = random.Random(args.seed)
    for name, answers in answered.items():
        if answers:
            mask = rng.choice(sorted(answers))
            checker.recount(name, mask, answers[mask])
            planted += [("right_count", name, mask, answers[mask]), ("recount", name, mask, answers[mask])]
    return planted


def job_ns(job: dict, keys, scale: bool) -> float:
    """Time of some of one lattice job's steps, raw or scaled."""
    return sum(scaled(job[k], job["cal_" + k]) if scale else job[k] for k in keys)


def lattice_expectations(checker) -> dict:
    """Digests of what every lattice-batch round must reproduce."""
    import hashlib

    from reference import check_lattice_pins

    problems = check_lattice_pins(checker.tables["builtin"])
    if problems:
        raise BenchmarkError("; ".join(problems))

    def digest(value):
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()

    out = {}
    for name, table in checker.tables.items():
        partition = table.kernel_partition()
        out[name] = {
            "nonempty": table.nonempty_count(),
            "partition_digest": digest(partition),
            "counts_digest": digest([table.count(mask) for mask in range(1 << 16)]),
        }
    return out


def run_in_worker(args, ms, tables, checker, work: Path, run: Run) -> None:
    env = child_env()
    lattice = args.workload == "lattice-batch"
    expected = lattice_expectations(checker) if lattice else None
    setups = [] if args.trace else [
        scaled_setup(worker(work, env, args, 0, 0, setup_only=True)) for _ in range(SETUPS[args.workload] - 1)
    ]
    result = worker(work, env, args, args.seconds, args.trace)
    setups.append(scaled_setup(result))
    planted = []
    passes = ["untraced", "traced"] if args.trace else ["run"]
    for name in passes:
        if lattice:
            planted = check_lattice(args, checker, result[name], run, expected)
        else:
            planted = check_queries(args, checker, result[name], run)
    run.problems += checker.self_test(planted)
    run.notes = list(dict.fromkeys(run.notes))  # both traced passes ask the same

    def latencies_ns(part, scale: bool):
        """Per-operation times, raw or scaled to the reference speed."""
        if lattice:
            rounds = [r["jobs"].values() for r in part["rounds"] if "error" not in r]
            return [sum(job_ns(job, LATTICE_JOBS, scale) for job in jobs) for jobs in rounds]
        if not scale:
            return part["latency_ns"]
        points = part["calibration_ns"]
        return [
            scaled(v, (points[i // CALIBRATION_EVERY] + points[i // CALIBRATION_EVERY + 1]) / 2)
            for i, v in enumerate(part["latency_ns"])
        ]

    if args.trace:
        payload = json.loads((work / "trace.json").read_text())
        layer_metrics(run, [payload], latencies_ns(result["traced"], False), latencies_ns(result["untraced"], False))
        return
    values = [v / 1e6 for v in latencies_ns(result["run"], True)]
    run.put("setup_s", statistics.median(setups), "s", len(setups))
    run.latencies("op_ms", values)
    run.put("ops_per_s", 1e3 * len(values) / sum(values), "1/s", len(values))
    run.put("peak_rss_mb", result["peak_rss_kb"] / 1024, "MB", 1)
    if lattice:
        rounds = [r["jobs"].values() for r in result["run"]["rounds"] if "error" not in r]
        for metric, keys in (
            ("verify_s", ("verify_ns",)),
            ("lattice_s", ("polarities_ns", "kernel_ns")),
            ("precompute_s", ("write_ns",)),
        ):
            per_round = [sum(job_ns(job, keys, True) for job in jobs) / 1e9 for jobs in rounds]
            run.put(metric, statistics.median(per_round), "s", len(per_round))
        points = [job["cal_" + key] for jobs in rounds for job in jobs for key in LATTICE_JOBS]
    else:
        points = result["run"]["calibration_ns"]
    run.put("calibration_ms", 1e-6 * statistics.median(points), "ms", len(points))


# -- traced runs ------------------------------------------------------------


def startup_probes(run: Run, work: Path) -> None:
    """Interpreter start, package import, built-in build and a table write
    and open of the built-in interpretation, in fresh processes."""
    from reference import BUILTIN_FINGERPRINT

    env = child_env()
    out, err = work / "probe.out", work / "probe.err"
    starts = [spawn(["-c", "pass"], out, err, env)[0] * 1e3 for _ in range(7)]
    run.put("python.start_ms", statistics.median(starts), "ms", len(starts))
    imports, builtins, numpy_ms, modules = [], [], [], set()
    writes, opens, sizes = [], [], set()
    for _ in range(5):
        probe_args = ["-X", "importtime", str(BENCH_DIR / "probe.py"), str(work / "probe-table.jsonl")]
        _, code, _ = spawn(probe_args, out, err, env)
        if code != 0:
            raise BenchmarkError(f"start-up probe exited {code}: {err.read_text()[-2000:]}")
        probe = json.loads(out.read_text())
        imports.append(probe["import_s"] * 1e3)
        builtins.append(probe["builtin_s"] * 1e3)
        modules.add(probe["modules"])
        writes.append(probe["write_s"] * 1e3)
        opens.append(probe["open_s"] * 1e3)
        sizes.add(probe["table_bytes"])
        if probe["table_fingerprint"] != BUILTIN_FINGERPRINT or probe["table_entries"] != 1 << 16:
            run.problems.append("the probe's table does not hold the built-in interpretation's 65,536 entries")
        numpy_us = 0
        for line in err.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_us = int(parts[1])
        numpy_ms.append(numpy_us / 1e3)
    run.put("import.package_ms", statistics.median(imports), "ms", len(imports))
    run.put("import.numpy_ms", statistics.median(numpy_ms), "ms", len(numpy_ms))
    run.put("import.modules_loaded", max(modules), "count", len(imports))
    run.put("interpret.builtin_ms", statistics.median(builtins), "ms", len(builtins))
    run.put("cache.probe_write_ms", statistics.median(writes), "ms", len(writes))
    run.put("cache.probe_open_ms", statistics.median(opens), "ms", len(opens))
    run.put("cache.probe_bytes", max(sizes), "bytes", len(writes))


def layer_metrics(run: Run, payloads: list[dict], traced_ns: list[int], untraced_ns: list[int]) -> None:
    """Per-layer metrics, and the overhead: the median per-operation ratio
    of traced to untraced wall time over the same operations."""
    import tracing

    for name, (value, unit) in tracing.summarize(payloads, sum(traced_ns)).items():
        run.put(name, value, unit, 1)
    ratios = [t / u for t, u in zip(traced_ns, untraced_ns)]
    run.put("trace.overhead", statistics.median(ratios) - 1, "ratio", len(ratios))


# -- main -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS]
    return max(codes)


def run_workload(args) -> int:
    try:
        ms = import_package()
        from checks import Checker
        from reference import load

        tables = load()
        interpretations = {
            "builtin": ms.builtin_interpretation(),
            "custom": ms.load_interpretation(CUSTOM_DOC.read_text(encoding="utf-8")),
        }
    except (SourceTreeError, ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker = Checker(ms, tables, interpretations)
    run = Run()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.trace:
            startup_probes(run, work)
        if args.workload == "cli-session":
            run_cli(args, ms, tables, checker, work, run)
        else:
            run_in_worker(args, ms, tables, checker, work, run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.problems = checker.problems + run.problems
    if not args.trace:
        run.put("ok_share", 1 - run.failed / run.attempted, "ratio", run.attempted)
        run.put("error_rate", run.failed / run.attempted, "ratio", run.attempted)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in run.metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    report(args, run)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, run: Run) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload}  seed {args.seed}  {args.seconds:g} s  {mode}  python {sys.version.split()[0]}")
    for name, (value, unit, samples) in sorted(run.metrics.items()):
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples}")
    print(f"{'operations':40s} {run.attempted:14d} failed={run.failed} crashed={run.crashes}")
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"wrong: {problem}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
