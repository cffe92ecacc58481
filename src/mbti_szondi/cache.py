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

from .boxes import ProfileSet, pairwise_disjoint
from .core import INDICATOR_SET_COUNT, PROFILE_COUNT, CacheError, TypeIndicator, _Value
from .core import indicator_set_mask
from .interpret import Interpretation, region_covers

__all__ = [
    "PolarityCache",
    "write_cache",
    "open_cache",
]

CACHE_FORMAT = "mbti-szondi-polarity-table"
CACHE_VERSION = 2
# The most bytes open_cache reads, so that an endless file (/dev/zero) is not
# read until memory runs out.  The largest table known, for a document whose
# 65,536 masks are all regions of one box each, is 9,033,110 bytes.
MAX_TABLE_BYTES = 64 << 20


class PolarityCache(_Value):
    """An open polarity table, fully loaded and checked.

    ``regions`` holds each region's mask and profile set, as
    ``Interpretation.regions()`` does, and answers every lookup.  Like the
    ``ProfileSet`` values it holds, a table is not hashable.
    """

    __slots__ = _fields = ("path", "fingerprint", "regions")
    __hash__ = None
    path: str | os.PathLike
    fingerprint: str
    regions: tuple[tuple[int, ProfileSet], ...]

    @property
    def entries(self) -> list[int]:
        """Entry I: the bitset of the regions whose mask contains indicator-set
        mask I, for all 65,536 masks.  Filled from the covers of the masks
        with a nonempty polarity (:func:`region_covers`, run on each read);
        every other entry is 0."""
        entries = [0] * INDICATOR_SET_COUNT
        for mask, cover in region_covers([mask for mask, _ in self.regions]).items():
            entries[mask] = cover
        return entries

    def check_fingerprint(self, interp: Interpretation) -> None:
        expected = interp.fingerprint()
        if expected != self.fingerprint:
            raise CacheError(
                f"cache was built for interpretation {self.fingerprint[:16]}... but the "
                f"active interpretation is {expected[:16]}..."
            )

    def lookup(self, indicators: Iterable[TypeIndicator]) -> ProfileSet:
        """The right polarity of the set: the union of the regions whose mask contains it."""
        want = indicator_set_mask(indicators)
        covered = (region.boxes for mask, region in self.regions if mask & want == want)
        return ProfileSet(chain.from_iterable(covered))


def write_cache(path: str | os.PathLike, interp: Interpretation) -> str | os.PathLike:
    """Write the interpretation's region table atomically.

    The table is written to a temporary file in the destination directory,
    flushed to disk and moved into place, so a crash cannot leave a
    half-written cache under the final name.  The file gets the mode
    ``open(path, "w")`` would give it (0o666 less the umask).  ``path`` must
    be absent or a regular file: a directory, FIFO, socket, device or
    symbolic link there is refused before anything is written.  Every error
    is an ``OSError`` that names ``path``, not the temporary file.
    """
    import contextlib  # here, not at the top: a lookup writes nothing
    import errno
    import stat

    regions = interp.regions()
    lines = [json.dumps({"mask": mask, **region.to_payload()}) + "\n" for mask, region in regions]
    body = "".join(lines).encode("utf-8")
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "fingerprint": interp.fingerprint(),
        "entries": INDICATOR_SET_COUNT,
        "regions": len(regions),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    tmp_name = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    try:
        with contextlib.suppress(FileNotFoundError):  # an absent path is written fresh
            mode = os.lstat(path).st_mode
            if not stat.S_ISREG(mode):
                raise OSError(os.strerror(errno.EISDIR) if stat.S_ISDIR(mode) else "not a regular file")
        fd = os.open(tmp_name, flags, 0o666)
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
    except OSError as exc:
        raise OSError(f"cannot write table {path}: {exc.strerror or exc}") from exc
    return path


def _read_region(path: str | os.PathLike, lineno: int, line: bytes) -> tuple[int, ProfileSet]:
    """One region line, its boxes recounted against the stored count."""
    try:
        entry = json.loads(line)
        mask, region = entry["mask"], ProfileSet.from_payload(entry)
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}:{lineno}: bad region line: {exc}") from exc
    # JSON also reads 3.7, true and Infinity; only an integer names a mask.
    if type(mask) is not int or not 0 <= mask < INDICATOR_SET_COUNT:
        raise CacheError(
            f"{path}:{lineno}: region mask {mask!r} is not an integer in [0, 2**16)"
        )
    return mask, region


def _check_partition(path: str | os.PathLike, regions: list[tuple[int, ProfileSet]]) -> None:
    masks = [mask for mask, _ in regions]
    if len(set(masks)) != len(masks):
        raise CacheError(f"{path}: two regions share a mask")
    if not pairwise_disjoint([box for _, region in regions for box in region.boxes]):
        raise CacheError(f"{path}: stored regions overlap")
    total = sum(region.count() for _, region in regions)
    if total != PROFILE_COUNT:
        raise CacheError(f"{path}: regions hold {total} profiles, expected {PROFILE_COUNT}")


def open_cache(path: str | os.PathLike) -> PolarityCache:
    """Read a polarity table, refusing it unless it is intact and a partition."""
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_TABLE_BYTES + 1)
    except OSError as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if len(data) > MAX_TABLE_BYTES:
        raise CacheError(f"{path}: larger than {MAX_TABLE_BYTES} bytes")
    first, _, body = data.partition(b"\n")
    if not first:
        raise CacheError(f"{path}: empty file")
    try:
        header = json.loads(first)
    except (RecursionError, ValueError) as exc:  # also non-UTF-8 bytes, deep nesting
        raise CacheError(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CACHE_FORMAT:
        raise CacheError(f"{path}: not a polarity table")
    if header.get("version") != CACHE_VERSION:
        raise CacheError(f"{path}: unsupported table version {header.get('version')!r}")
    if header.get("entries") != INDICATOR_SET_COUNT:
        raise CacheError(f"{path}: header declares {header.get('entries')!r} entries")
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise CacheError(f"{path}: body does not match the header's SHA-256 digest")
    lines = body.splitlines()
    if len(lines) != header.get("regions"):
        raise CacheError(f"{path}: {len(lines)} regions present, header declares otherwise")
    regions = [_read_region(path, lineno, line) for lineno, line in enumerate(lines, start=2)]
    _check_partition(path, regions)
    return PolarityCache(path, str(header.get("fingerprint", "")), tuple(regions))
