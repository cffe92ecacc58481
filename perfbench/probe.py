"""Start-up and table probe: ``python perfbench/probe.py TABLE`` in a fresh
interpreter.

Prints one JSON object: the time to import the CLI module (the package
with it), the number of modules loaded by then, the time to build the
built-in interpretation with its sixteen row-set memos, and the time to
write the built-in table to ``TABLE`` with ``write_cache`` and to open it
again with ``open_cache``, with the table's size and fingerprint.  Every
traced run takes these numbers, so the start-up and table layers are
measured on every workload.  ``run.py`` runs it under ``-X importtime`` to
read numpy's share of the import from stderr.
"""

import time

start = time.perf_counter()
from common import import_package  # noqa: E402

package = import_package()
import mbti_szondi.cli  # noqa: E402,F401

imported = time.perf_counter()
modules = len(__import__("sys").modules)
interp = package.builtin_interpretation()
for indicator in package.TypeIndicator:
    interp.row_set(indicator)
built = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

path = sys.argv[1]
package.cache.write_cache(path, interp)
written = time.perf_counter()
table = package.cache.open_cache(path)
opened = time.perf_counter()
size = os.path.getsize(path)
os.unlink(path)

print(
    json.dumps(
        {
            "import_s": imported - start,
            "modules": modules,
            "builtin_s": built - imported,
            "write_s": written - built,
            "open_s": opened - written,
            "table_bytes": size,
            "table_entries": len(table.entries),
            "table_fingerprint": table.fingerprint,
        }
    )
)
