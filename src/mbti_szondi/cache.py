"""Precomputed polarity tables on disk.

A table stores one interpretation's formal context: the nonempty regions
its row sets cut the profile space into, each with its "rows satisfied"
mask.  The right polarity of an indicator set is the union of the regions
whose mask contains it, so a few dozen region lines answer all 65,536 sets.
The file is JSON Lines: a header with the interpretation's fingerprint (a
lookup against another interpretation is refused rather than silently
wrong) and a SHA-256 of the body, then one line per region.  Opening checks
the digest, recounts every region and checks that the regions partition
the profile space, so a damaged table is refused before it answers.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from .boxes import ProfileSet, pairwise_disjoint
from .core import PROFILE_COUNT, TypeIndicator, _Value, indicator_set_mask
from .interpret import Interpretation, region_covers

__all__ = [
    "CacheError",
    "CacheFormatError",
    "FingerprintMismatchError",
    "CorruptEntryError",
    "PolarityCache",
    "write_cache",
    "open_cache",
]

CACHE_FORMAT = "mbti-szondi-polarity-table"
CACHE_VERSION = 2
_ENTRY_COUNT = 1 << 16


class CacheError(Exception):
    """Base class for cache file problems."""


class CacheFormatError(CacheError):
    """The file is not a polarity table this code can read."""


class FingerprintMismatchError(CacheError):
    """The table was computed from a different interpretation."""

    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(
            f"cache was built for interpretation {found[:16]}... but the "
            f"active interpretation is {expected[:16]}..."
        )


class CorruptEntryError(CacheError):
    """A stored region is malformed or miscounted, or the regions do not
    partition the profile space."""


class PolarityCache(_Value):
    """An open polarity table, fully loaded and checked.

    ``regions`` holds each region's mask and profile set, as
    ``Interpretation.regions()`` does; ``entries[I]`` is the bitset of
    regions that indicator-set mask I covers.  ``entries`` is derived from
    ``regions`` in the constructor and is not a field, so it stays out of
    equality, hashing and ``repr``, and an unpickled table derives it
    afresh.
    """

    _fields = ("path", "fingerprint", "regions")
    __slots__ = (*_fields, "entries")
    path: Path
    fingerprint: str
    regions: tuple[tuple[int, ProfileSet], ...]
    entries: list[int]

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        regions: tuple[tuple[int, ProfileSet], ...],
    ):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "fingerprint", fingerprint)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "entries", region_covers([mask for mask, _ in regions]))

    def check_fingerprint(self, interp: Interpretation) -> None:
        expected = interp.fingerprint()
        if expected != self.fingerprint:
            raise FingerprintMismatchError(expected, self.fingerprint)

    def lookup(self, indicators: Iterable[TypeIndicator]) -> ProfileSet:
        """The right polarity of the set: the union of the regions it covers."""
        cover = self.entries[indicator_set_mask(indicators)]
        covered = (region.boxes for r, (_, region) in enumerate(self.regions) if cover >> r & 1)
        return ProfileSet(chain.from_iterable(covered))


def write_cache(path: str | Path, interp: Interpretation) -> Path:
    """Write the interpretation's region table atomically.

    The table is written to a temporary file in the destination directory,
    flushed to disk and moved into place, so a crash cannot leave a
    half-written cache under the final name.
    """
    import contextlib  # here, not at the top: a lookup writes nothing
    import tempfile

    path = Path(path)
    regions = interp.regions()
    lines = [json.dumps({"mask": mask, **region.to_payload()}) + "\n" for mask, region in regions]
    body = "".join(lines).encode("utf-8")
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "fingerprint": interp.fingerprint(),
        "entries": _ENTRY_COUNT,
        "regions": len(regions),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n" + body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def _read_region(path: Path, lineno: int, line: bytes) -> tuple[int, ProfileSet]:
    """One region line, its boxes recounted against the stored count."""
    try:
        entry = json.loads(line)
        mask, region = entry["mask"], ProfileSet.from_payload(entry)
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CorruptEntryError(f"{path}:{lineno}: bad region line: {exc}") from exc
    # JSON also reads 3.7, true and Infinity; only an integer names a mask.
    if type(mask) is not int or not 0 <= mask < _ENTRY_COUNT:
        raise CorruptEntryError(
            f"{path}:{lineno}: region mask {mask!r} is not an integer in [0, 2**16)"
        )
    return mask, region


def _check_partition(path: Path, regions: list[tuple[int, ProfileSet]]) -> None:
    masks = [mask for mask, _ in regions]
    if len(set(masks)) != len(masks):
        raise CorruptEntryError(f"{path}: two regions share a mask")
    if not pairwise_disjoint([box for _, region in regions for box in region.boxes]):
        raise CorruptEntryError(f"{path}: stored regions overlap")
    total = sum(region.count() for _, region in regions)
    if total != PROFILE_COUNT:
        raise CorruptEntryError(f"{path}: regions hold {total} profiles, expected {PROFILE_COUNT}")


def open_cache(path: str | Path) -> PolarityCache:
    """Read a polarity table, refusing it unless it is intact and a partition."""
    path = Path(path)
    first, _, body = path.read_bytes().partition(b"\n")
    if not first:
        raise CacheFormatError(f"{path}: empty file")
    try:
        header = json.loads(first)
    except (RecursionError, ValueError) as exc:  # also non-UTF-8 bytes, deep nesting
        raise CacheFormatError(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CACHE_FORMAT:
        raise CacheFormatError(f"{path}: not a polarity table")
    if header.get("version") != CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported table version {header.get('version')!r}")
    if header.get("entries") != _ENTRY_COUNT:
        raise CacheFormatError(f"{path}: header declares {header.get('entries')!r} entries")
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise CacheFormatError(f"{path}: body does not match the header's SHA-256 digest")
    lines = body.splitlines()
    if len(lines) != header.get("regions"):
        raise CacheFormatError(f"{path}: {len(lines)} regions present, header declares otherwise")
    regions = [_read_region(path, lineno, line) for lineno, line in enumerate(lines, start=2)]
    _check_partition(path, regions)
    return PolarityCache(
        path=path,
        fingerprint=str(header.get("fingerprint", "")),
        regions=tuple(regions),
    )
