"""The in-process workloads, each in a process of its own.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT [setup-only]

``run.py`` starts this for ``query-stream`` and ``lattice-batch`` so that
the peak RSS it reports is the workload's alone, and so that each set-up
starts from a fresh interpreter.  The worker imports the package, warms the
built-in interpretation (its row-set memos), then runs the workload's
operations and writes one JSON document to OUT: set-up time, peak RSS, and
each operation's latency and answer.  Inputs are not written: ``run.py``
regenerates them from the seed to check the answers.

With TRACE=1 it runs a fixed number of operations twice, untraced and then
traced (see ``tracing.py``), and also writes the trace, so that per-layer
counts repeat exactly for a seed and the overhead compares equal work.
"""

import time

START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

from common import CALIBRATION_EVERY, CUSTOM_DOC, calibration_point, import_package  # noqa: E402

# Operations per pass in a traced run.
TRACED_OPS = {"query-stream": 6000, "lattice-batch": 2}


def setup():
    ms = import_package()
    interp = ms.builtin_interpretation()
    for indicator in ms.TypeIndicator:
        interp.row_set(indicator)
    return ms, interp, time.perf_counter() - START


def _mask(indicators) -> int:
    return sum(1 << int(i) for i in indicators)


def query_call(ms, interp, kind, arg):
    """A zero-argument call for one query; inputs are built here, untimed."""
    conn = ms.connection
    if kind in ("right", "closure"):
        indicators = frozenset(ms.TypeIndicator(b) for b in range(16) if arg >> b & 1)
        if kind == "right":
            return lambda: conn.right_polarity(interp, indicators).count()
        return lambda: _mask(conn.closure_left(interp, indicators))
    if kind == "left-symbolic":
        profiles = ms.ProfileSet((ms.Box(arg),))
    else:
        profiles = [ms.Profile.from_index(index) for index in arg]
    return lambda: _mask(conn.left_polarity(interp, profiles))


def run_queries(ms, interp, seed, deadline, limit, tracer=None):
    import workloads
    from reference import load

    stream = workloads.query_stream(seed, load()["builtin"])
    latencies, answers, errors, calibration = array("q"), array("q"), [], array("q")
    clock = time.perf_counter_ns
    while len(latencies) < limit and time.perf_counter() < deadline:
        if len(latencies) % CALIBRATION_EVERY == 0:
            calibration.append(calibration_point())
        kind, arg, _ = next(stream)
        call = query_call(ms, interp, kind, arg)
        if tracer is not None:
            tracer.op = len(latencies)
        begin = clock()
        try:
            answer = call()
        except Exception as exc:  # a negative answer marks a failed operation
            answer = -1
            errors.append(repr(exc))
        latencies.append(clock() - begin)
        answers.append(answer)
    calibration.append(calibration_point())
    return {"latency_ns": latencies, "answers": answers, "errors": errors[:10], "calibration_ns": calibration}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def lattice_round(ms, builtin, verify_seed, lookups, path: Path, first: bool) -> dict:
    """One "check my interpretation" pass over the built-in and the custom one."""
    from workloads import LATTICE_TRIALS

    clock = time.perf_counter_ns
    conn, cache = ms.connection, ms.cache
    document = CUSTOM_DOC.read_text(encoding="utf-8")
    point = calibration_point()

    def timed(job, key, call):
        """Run one job; record its time and the calibration around it."""
        nonlocal point
        begin = clock()
        value = call()
        job[key] = clock() - begin
        after = calibration_point()
        job["cal_" + key] = (point + after) / 2
        point = after
        return value

    jobs = {}
    for name in ("builtin", "custom"):
        job = {}
        interp = timed(
            job, "load_ns", lambda: builtin if name == "builtin" else ms.interpret.load_interpretation(document)
        )
        report = timed(job, "verify_ns", lambda: conn.run_verification(interp, "all", LATTICE_TRIALS, verify_seed))
        job["passed"] = report.passed
        job["cases"] = sum(check.trials for check in report.checks)
        job["fingerprint"] = report.fingerprint

        polarities = timed(job, "polarities_ns", lambda: conn.all_right_polarities(interp))
        job["nonempty"] = sum(1 for p in polarities if p)
        if first:
            job["counts_digest"] = _digest([p.count() for p in polarities])
        del polarities

        classes = timed(job, "kernel_ns", lambda: conn.kernel_classes(interp))
        job["partition_digest"] = _digest(classes)
        del classes

        timed(job, "write_ns", lambda: cache.write_cache(path, interp))
        table = timed(job, "open_ns", lambda: cache.open_cache(path))
        job["table_fingerprint"] = table.fingerprint
        job["table_entries"] = len(table.entries)
        job["lookups"] = [
            [mask, table.lookup(ms.indicator_set_from_mask(mask)).count()] for mask in lookups
        ]
        del table
        path.unlink()
        jobs[name] = job
    return jobs


def run_lattice(ms, interp, seed, deadline, limit, work: Path, tracer=None):
    import workloads

    rounds = workloads.lattice_rounds(seed)
    out = []
    while len(out) < limit and time.perf_counter() < deadline:
        verify_seed, lookups = next(rounds)
        if tracer is not None:
            tracer.op = len(out)
        try:
            jobs = lattice_round(ms, interp, verify_seed, lookups, work / "table.jsonl", not out)
            out.append({"jobs": jobs})
        except Exception as exc:  # counted as a failed operation
            out.append({"error": repr(exc)})
    return {"rounds": out}


def main() -> int:
    workload, seed, seconds, trace, out = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    ms, interp, setup_s = setup()
    result = {"setup_s": setup_s, "setup_calibration_ns": calibration_point(20)}
    if sys.argv[6:] != ["setup-only"]:
        work = Path(out).parent

        def run(limit, deadline, tracer=None):
            if workload == "query-stream":
                return run_queries(ms, interp, seed, deadline, limit, tracer)
            return run_lattice(ms, interp, seed, deadline, limit, work, tracer)

        if trace == "1":
            import tracing

            # Bounded by time too, so a much slower build still finishes.
            deadline = time.perf_counter() + 3 * seconds
            result["untraced"] = run(TRACED_OPS[workload], deadline)
            tracer = tracing.Tracer()
            tracing.install(tracer, ms)
            result["traced"] = run(TRACED_OPS[workload], deadline + 3 * seconds, tracer)
            tracer.dump(work / "trace.json")
        else:
            result["run"] = run(float("inf"), time.perf_counter() + seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out).write_text(json.dumps(result, default=list), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
