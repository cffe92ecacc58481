"""Regenerate ``reference.json``: the region tables the benchmark checks against.

The sixteen row sets of an interpretation cut the profile space into
regions, each with a 16-bit mask of the rows its profiles satisfy.  From
that table every answer the benchmark asks for follows without the box
algebra: the right polarity of an indicator set I is the union of the
regions whose mask contains I (so its count is a sum of region sizes), and
the closure of I is the AND of those masks.

The table is derived here by the numpy oracle alone (``enumeration``
sweeps every assignment of the factors the rows mention), never by
``boxes`` or ``logic.evaluate``.  For the built-in interpretation that is
12^7 profiles and takes about a minute; run it only when an interpretation
changes::

    python3 perfbench/derive_reference.py

Each region also keeps a few seeded member profiles, which the benchmark
uses to draw profiles whose indicator sets are nonempty.
"""

from __future__ import annotations

import json

import numpy as np

from common import BENCH_DIR, CUSTOM_DOC, import_package

WITNESSES = 8


def derive(ms, interp, seed: int) -> dict:
    en = ms.enumeration
    rows = [interp.row(ind) for ind in ms.TypeIndicator]
    factors = sorted(set().union(*(ms.factors_of(row) for row in rows)))
    first, rest = factors[0], factors[1:]
    grid = en.restricted_universe(rest)
    size = len(next(iter(grid.values())))
    rng = np.random.default_rng(seed)
    counts: dict[int, int] = {}
    candidates: dict[int, list[list[int]]] = {}
    for digit in range(12):
        digits = dict(grid)
        digits[first] = np.full(size, digit, dtype=np.uint8)
        masks = np.zeros(size, dtype=np.int64)
        for bit, row in enumerate(rows):
            masks |= en.evaluate_on_digits(row, digits).astype(np.int64) << bit
        values, sizes = np.unique(masks, return_counts=True)
        for value, n in zip(values.tolist(), sizes.tolist()):
            counts[value] = counts.get(value, 0) + n
            members = np.flatnonzero(masks == value)
            for position in rng.choice(members, size=min(2, len(members)), replace=False):
                profile = [int(rng.integers(12)) for _ in ms.Factor]
                for factor in factors:
                    profile[factor] = int(digits[factor][position])
                index = int("".join("0123456789ab"[d] for d in profile), 12)
                candidates.setdefault(value, []).append(index)
    scale = 12 ** (8 - len(factors))
    regions = []
    for value in sorted(counts):
        pool = candidates[value]
        picks = rng.choice(len(pool), size=min(WITNESSES, len(pool)), replace=False)
        regions.append(
            {
                "mask": value,
                "count": counts[value] * scale,
                "witnesses": [pool[i] for i in sorted(picks.tolist())],
            }
        )
    return {
        "fingerprint": interp.fingerprint(),
        "factors": [f.token for f in factors],
        "regions": regions,
    }


def main() -> None:
    ms = import_package()
    table = {
        "builtin": derive(ms, ms.builtin_interpretation(), seed=1),
        "custom": derive(ms, ms.load_interpretation(CUSTOM_DOC.read_text()), seed=2),
    }
    lines = ["{"]
    for position, (name, entry) in enumerate(table.items()):
        regions = ",\n".join("   " + json.dumps(r) for r in entry["regions"])
        lines.append(f' "{name}": {{')
        lines.append(f'  "fingerprint": "{entry["fingerprint"]}",')
        lines.append(f'  "factors": {json.dumps(entry["factors"])},')
        lines.append(f'  "regions": [\n{regions}\n  ]')
        lines.append(" }" + ("," if position + 1 < len(table) else ""))
    lines.append("}")
    (BENCH_DIR / "reference.json").write_text("\n".join(lines) + "\n")
    for name, entry in table.items():
        print(f"{name}: {len(entry['regions'])} regions over {entry['factors']}")


if __name__ == "__main__":
    main()
