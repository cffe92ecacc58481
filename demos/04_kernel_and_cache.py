"""The whole connection at once: every polarity, its kernel, and a cache.

There are 2^16 = 65,536 indicator sets, but only 61 of them have a
nonempty right polarity under the built-in translation.  Computing all
65,536 polarities takes well under a second: dynamic programming over the
subset lattice visits only those 61, and every other set shares the empty
polarity.  On disk they need not be stored one by one: the table
keeps the regions the sixteen rows cut the profile space into, and the
`precompute`/`lookup` commands wrap the same calls used here.
"""

import tempfile
import time
from pathlib import Path

from mbti_szondi import (
    CacheError,
    TypeIndicator,
    all_right_polarities,
    builtin_interpretation,
    kernel_classes,
    load_interpretation,
    open_cache,
    render_indicator_set,
    indicator_set_from_mask,
    write_cache,
)

interp = builtin_interpretation()

print("== the full polarity table ======================================")

print("1. all 65,536 right polarities...")
start = time.perf_counter()
table = all_right_polarities(interp)
print(f"   computed in {time.perf_counter() - start:.2f}s")
nonempty = [mask for mask, ps in enumerate(table) if ps]
print(f"   non-empty polarities: {len(nonempty)} of 65,536")

print("2. the largest compatible indicator sets...")
biggest = max(nonempty, key=lambda m: bin(m).count("1"))
members = indicator_set_from_mask(biggest)
print(f"   {render_indicator_set(members)}: "
      f"{table[biggest].count():,} profiles")

print("3. the kernel: sets sharing a polarity collapse into classes...")
start = time.perf_counter()
classes = kernel_classes(interp)
print(f"   {len(classes)} classes in {time.perf_counter() - start:.2f}s")
sizes = sorted((len(c) for c in classes), reverse=True)
print(f"   class sizes: {sizes[0]:,} (all empty-polarity sets), then {sizes[1:6]} ...")

print()
print("== the on-disk cache ============================================")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "polarities.jsonl"

    print("4. precompute writes the region table as self-describing JSONL...")
    start = time.perf_counter()
    write_cache(path, interp)
    size_kib = path.stat().st_size / 2**10
    print(f"   {path.name}: {size_kib:.1f} KiB in {time.perf_counter() - start:.3f}s")

    print("5. opening checks the digest, recounts every region and checks the partition...")
    cache = open_cache(path)
    print(f"   {len(cache.regions)} regions answer all {len(cache.entries):,} indicator sets")
    cache.check_fingerprint(interp)
    query = [TypeIndicator.ISTJ, TypeIndicator.ISFJ]
    print(f"   ISTJ,ISFJ -> {cache.lookup(query).count():,} profiles")

    print("6. a table built for another interpretation is refused...")
    other = load_interpretation(
        "\n".join(
            f"{ind.name} = h{'+' if i % 2 else '-'}"
            for i, ind in enumerate(TypeIndicator)
        )
    )
    try:
        cache.check_fingerprint(other)
    except CacheError as exc:
        print(f"   refused: {exc}")
