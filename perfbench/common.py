"""Paths and the source-tree guard shared by every benchmark process.

The benchmark measures the package in this checkout's ``src/``, never an
installed copy: :func:`import_package` puts ``src`` first on ``sys.path``
and refuses to go on if the imported ``mbti_szondi`` lives anywhere else.
Child processes get the same ``src`` through ``PYTHONPATH`` (see
:func:`child_env`) and run the same guard.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
CUSTOM_DOC = BENCH_DIR / "custom_interpretation.txt"


class SourceTreeError(RuntimeError):
    """The checkout has no usable ``src/mbti_szondi``."""


def check_source_tree() -> None:
    if not (SRC / "mbti_szondi" / "__init__.py").is_file():
        raise SourceTreeError(f"no mbti_szondi package under {SRC}")


def check_imported(module) -> None:
    """Refuse a ``mbti_szondi`` imported from outside this checkout's src/."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceTreeError(f"mbti_szondi was imported from {origin}, not from {SRC}")


def import_package():
    """Import ``mbti_szondi`` from this checkout's ``src/`` and return it."""
    check_source_tree()
    sys.path.insert(0, str(SRC))
    import mbti_szondi

    check_imported(mbti_szondi)
    return mbti_szondi


# numpy's BLAS starts a thread pool at import.  With a second thread the
# wall time of a CLI process depended on whether the other vCPU of a shared
# 2-vCPU machine happened to be free (same command: ~175 ms against
# ~290 ms); one thread makes every process single-core, and steady.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's src/ first, and
    numpy's BLAS held to one thread."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


# Reported times are scaled to a reference speed: raw time x CAL_REF_NS /
# (time of the calibration loop, timed just before and after the operation
# in the same run).  On the shared machine this benchmark was built on, the same
# work ran up to 2.5x slower from one half hour to the next; the loop slows
# with it.  The loop builds and drops small tuples and frozensets, the kind
# of work the box algebra does, and calls nothing in the package, so no
# change to the package moves it, short of one that slows the interpreter
# itself (a trace hook, a busy thread).  Every object it makes is freed at
# once, so it never triggers a garbage collection whose cost would depend
# on the process's heap.  Timed in 15 s windows over four minutes of
# query-stream calls while the machine slowed by up to 60%, the window
# medians spread (quartile distance / median) by 0.31 raw, 0.09 scaled by
# an allocation-free integer loop and 0.013 scaled by this loop.
CAL_REF_NS = 1_000_000
CALIBRATION_EVERY = 512  # query-stream calls between two calibration points
_CAL_MASKS = (1, 3, 7, 15)


def calibration_ns() -> int:
    """Wall time of one fixed pure-Python loop of small allocations."""
    begin = time.perf_counter_ns()
    x = 0
    for i in range(1_500):
        x ^= len(frozenset(tuple(m & i for m in _CAL_MASKS)))
    return time.perf_counter_ns() - begin


def calibration_point(slices: int = 3) -> int:
    """Median of a few calibration loops: the machine's speed right now."""
    return sorted(calibration_ns() for _ in range(slices))[slices // 2]


def scaled(raw: float, calibration: float) -> float:
    """A raw time at the calibration given, as a reference-speed time."""
    return raw * CAL_REF_NS / calibration
