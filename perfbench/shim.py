"""One traced CLI process.

``python perfbench/shim.py OUT.json ARG...`` imports the CLI, wraps the
package's layers (see ``tracing.py``) and calls ``mbti_szondi.cli.main``
with ``ARG...``, exactly as ``python -m mbti_szondi.cli ARG...`` would, then
writes the spans to ``OUT.json``.  Exceptions escape as they would from the
real entry point, so a crash still exits 1 with a traceback.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    from common import import_package

    package = import_package()
    import mbti_szondi.cli as cli

    imported = time.perf_counter_ns()
    import tracing

    tracer = tracing.Tracer()
    tracer.op = argv[0] if argv else None
    tracing.install(tracer, package)
    tracer.counts["shim.import_ns"] = imported - start
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
