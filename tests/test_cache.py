import hashlib
import json
import pickle
import random

import pytest

from mbti_szondi import (
    Box,
    CacheFormatError,
    CorruptEntryError,
    FingerprintMismatchError,
    ProfileSet,
    indicator_set_from_mask,
    kernel_classes,
    open_cache,
    right_polarity,
    write_cache,
)
from mbti_szondi.core import parse_signature_subset, render_signature_subset

import pinned


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory, interp):
    path = tmp_path_factory.mktemp("cache") / "polarities.jsonl"
    write_cache(path, interp)
    return path


def rewrite(cache_path, out_path, mutate, redigest=False):
    """Copy the cache file with one tampering function applied to its lines.

    With ``redigest`` the header's body digest and region count are
    recomputed, as a deliberate editor would, so that the tamper reaches the
    structural checks behind the digest.
    """
    lines = mutate(cache_path.read_text().splitlines(keepends=True))
    if redigest:
        header = json.loads(lines[0])
        body = "".join(lines[1:])
        header["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        header["regions"] = len(lines) - 1
        lines[0] = json.dumps(header) + "\n"
    out_path.write_text("".join(lines))
    return out_path


def tamper_region(lines, index, change):
    # line 0 is the header; region r sits at line r + 1
    region = json.loads(lines[index + 1])
    change(region)
    lines[index + 1] = json.dumps(region) + "\n"
    return lines


def refused_both_ways(cache_path, tmp_path, mutate, error, match):
    """The tamper is caught by the digest, and behind it by ``error``."""
    plain = rewrite(cache_path, tmp_path / "plain.jsonl", mutate)
    with pytest.raises(CacheFormatError, match="SHA-256"):
        open_cache(plain)
    redigested = rewrite(cache_path, tmp_path / "redigested.jsonl", mutate, redigest=True)
    with pytest.raises(error, match=match):
        open_cache(redigested)


# SHA-256 of the built-in table file exactly as write_cache writes it: any
# change to the regions, their boxes, their order or the token rendering
# moves it.
BUILTIN_TABLE_SHA256 = "9271e9b5794a0229a6e5299e456a2a5cbef5a7e0c15e93412e49dfe9fd293be1"

# A JSON line nested too deeply for the decoder, which raises RecursionError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestRoundTrip:
    def test_builtin_table_bytes_pinned(self, cache_path):
        assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == BUILTIN_TABLE_SHA256

    def test_write_then_open(self, cache_path, interp):
        cache = open_cache(cache_path)
        assert cache.fingerprint == interp.fingerprint()
        cache.check_fingerprint(interp)
        assert len(cache.entries) == 65536
        assert len(cache.regions) == pinned.REGION_COUNT
        assert sum(len(region.boxes) for _, region in cache.regions) == pinned.REGION_BOX_COUNT

    def test_repr_leaves_out_the_derived_entries(self, cache_path):
        # entries (65,536 ints) is derived from the regions, so the repr
        # leaves it out and an unpickled table derives it again.
        cache = open_cache(cache_path)
        assert len(repr(cache)) < 10 * 1024
        copy = pickle.loads(pickle.dumps(cache))
        assert copy == cache
        assert copy.entries == cache.entries

    def test_header_and_size(self, cache_path):
        header = json.loads(cache_path.read_text().splitlines()[0])
        assert header["version"] == 2
        assert header["entries"] == 65536
        assert header["regions"] == pinned.REGION_COUNT
        assert cache_path.stat().st_size <= 64 * 1024

    def test_lookup_matches_live_computation(self, cache_path, interp):
        cache = open_cache(cache_path)
        rng = random.Random(31)
        masks = [0, 65535] + [1 << i for i in range(16)]
        masks += [rng.randrange(65536) for _ in range(30)]
        for mask in masks:
            indicators = indicator_set_from_mask(mask)
            assert cache.lookup(indicators) == right_polarity(interp, indicators)

    def test_every_mask_answers_its_kernel_class(self, cache_path, interp):
        # Masks covering the same regions share a lookup answer, so the
        # entries must partition the 65,536 masks exactly as the kernel does,
        # and each class's answer must be its live polarity.
        cache = open_cache(cache_path)
        by_cover = {}
        for mask, cover in enumerate(cache.entries):
            by_cover.setdefault(cover, []).append(mask)
        assert sorted(by_cover.values()) == sorted(kernel_classes(interp))
        assert len(by_cover) == pinned.KERNEL_CLASS_COUNT
        for members in by_cover.values():
            indicators = indicator_set_from_mask(members[0])
            assert cache.lookup(indicators) == right_polarity(interp, indicators)

    def test_custom_interpretation_round_trip(self, tmp_path, alt_interp):
        path = write_cache(tmp_path / "alt.jsonl", alt_interp)
        cache = open_cache(path)
        cache.check_fingerprint(alt_interp)
        assert len(cache.regions) == pinned.ALT_REGION_COUNT
        for mask in (0, 1, 0b11, 1 << 9, 65535):
            indicators = indicator_set_from_mask(mask)
            assert cache.lookup(indicators) == right_polarity(alt_interp, indicators)

    def test_empty_set_entry_is_full_space(self, cache_path):
        cache = open_cache(cache_path)
        assert cache.lookup([]) == ProfileSet.full()

    def test_no_temp_file_left_behind(self, cache_path):
        leftovers = list(cache_path.parent.glob("*.tmp"))
        assert leftovers == []

    def test_overwrite_existing(self, cache_path, interp):
        # Writing over an existing table must leave a valid one.
        write_cache(cache_path, interp)
        open_cache(cache_path).check_fingerprint(interp)


class TestFingerprint:
    def test_mismatch_raises_with_both_prints(self, cache_path, alt_interp):
        cache = open_cache(cache_path)
        with pytest.raises(FingerprintMismatchError) as exc_info:
            cache.check_fingerprint(alt_interp)
        err = exc_info.value
        assert err.expected == alt_interp.fingerprint()
        assert err.found == cache.fingerprint

    def test_tampered_header_fingerprint_detected(self, cache_path, tmp_path, interp):
        def mutate(lines):
            header = json.loads(lines[0])
            header["fingerprint"] = "0" * 64
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "tampered.jsonl", mutate)
        with pytest.raises(FingerprintMismatchError):
            open_cache(bad).check_fingerprint(interp)


class TestCorruption:
    def test_tampered_count_detected(self, cache_path, tmp_path):
        def bump_count(region):
            region["count"] += 7

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 3, bump_count),
            CorruptEntryError,
            "stored count",
        )

    def test_tampered_boxes_detected(self, cache_path, tmp_path):
        def scramble_boxes(region):
            region["boxes"] = [["+", "+", "+"]]

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 5, scramble_boxes),
            CorruptEntryError,
            "bad region line",
        )

    def test_unparseable_token_detected(self, cache_path, tmp_path):
        def garble(region):
            region["boxes"][0][3] = "%%"

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 7, garble),
            CorruptEntryError,
            "bad region line",
        )

    @pytest.mark.parametrize("mask", [float("inf"), 3.7, "3", True])
    def test_non_integer_mask_refused(self, cache_path, tmp_path, mask):
        # JSON reads these (Infinity, 3.7, "3", true); none names a region.
        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 2, lambda region: region.update(mask=mask)),
            CorruptEntryError,
            "is not an integer",
        )

    def test_rotated_subset_detected(self, cache_path, tmp_path):
        # Rotating one factor's signature subset keeps the box's count, so
        # the recount passes; the moved box then overlaps another region.
        def rotate(lines):
            for index in range(len(lines) - 1):
                region = json.loads(lines[index + 1])
                for tokens in region["boxes"]:
                    for factor, token in enumerate(tokens):
                        subset = parse_signature_subset(token)
                        rotated = (subset << 1 | subset >> 11) & 0xFFF
                        if rotated != subset:
                            tokens[factor] = render_signature_subset(rotated)
                            lines[index + 1] = json.dumps(region) + "\n"
                            return lines
            raise AssertionError("no box with a proper signature subset")

        refused_both_ways(cache_path, tmp_path, rotate, CorruptEntryError, "overlap")


def write_table(path, boxes):
    """A table with one single-box region per box (mask = position)."""
    body = "".join(
        json.dumps({"mask": mask, **ProfileSet((box,)).to_payload()}) + "\n"
        for mask, box in enumerate(boxes)
    )
    header = {
        "format": "mbti-szondi-polarity-table",
        "version": 2,
        "fingerprint": "0" * 64,
        "entries": 65536,
        "regions": len(boxes),
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }
    path.write_text(json.dumps(header) + "\n" + body)
    return path


class TestPartitionCheck:
    @staticmethod
    def grid():
        """144 boxes fixing one signature each of h and s: a partition."""
        full = (1 << 12) - 1
        return [Box((1 << h, 1 << s) + (full,) * 6) for h in range(12) for s in range(12)]

    def test_grid_partition_opens(self, tmp_path):
        cache = open_cache(write_table(tmp_path / "grid.jsonl", self.grid()))
        assert len(cache.regions) == 144
        assert cache.lookup([]) == ProfileSet.full()

    def test_overlap_of_last_two_boxes_refused(self, tmp_path):
        # The last box also takes the previous box's s signature and meets no
        # other box; dropping the first box keeps the total at 12^8, so only
        # the overlap check can refuse the table.
        boxes = self.grid()[1:]
        boxes[-1] = Box((1 << 11, 0b11 << 10) + boxes[-1].masks[2:])
        assert boxes[-1].intersect(boxes[-2]) is not None
        assert all(boxes[-1].intersect(other) is None for other in boxes[:-2])
        assert sum(box.count() for box in boxes) == pinned.FULL_SPACE
        with pytest.raises(CorruptEntryError, match="stored regions overlap"):
            open_cache(write_table(tmp_path / "tampered.jsonl", boxes))


class TestHeaderValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CacheFormatError, match="empty"):
            open_cache(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "notjson.jsonl"
        path.write_text("this is not a cache\n")
        with pytest.raises(CacheFormatError, match="not JSON"):
            open_cache(path)

    def test_header_not_utf8(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\n\x80\x81")
        with pytest.raises(CacheFormatError, match="not JSON"):
            open_cache(path)

    def test_header_nested_too_deep(self, tmp_path):
        # Deep enough to exhaust the JSON decoder's recursion limit.
        path = tmp_path / "deep.jsonl"
        path.write_text(DEEP_JSON + "\n")
        with pytest.raises(CacheFormatError, match="not JSON"):
            open_cache(path)

    def test_region_nested_too_deep(self, cache_path, tmp_path):
        # Behind a digest that matches, only the region reader can refuse it.
        def mutate(lines):
            return [lines[0], DEEP_JSON + "\n"]

        deep = rewrite(cache_path, tmp_path / "deep.jsonl", mutate, redigest=True)
        with pytest.raises(CorruptEntryError, match="bad region line"):
            open_cache(deep)

    def test_wrong_format_name(self, cache_path, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["format"] = "something-else"
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "format.jsonl", mutate)
        with pytest.raises(CacheFormatError, match="not a polarity table"):
            open_cache(bad)

    def test_unsupported_version(self, cache_path, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["version"] = 99
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "version.jsonl", mutate)
        with pytest.raises(CacheFormatError, match="version 99"):
            open_cache(bad)

    def test_missing_entry(self, cache_path, tmp_path):
        def drop(lines):
            return lines[:1] + lines[2:]

        short = rewrite(cache_path, tmp_path / "short.jsonl", drop)
        with pytest.raises(CacheFormatError, match="SHA-256"):
            open_cache(short)

        def drop_keep_count(lines):
            header = json.loads(lines[0])
            lines = drop(lines)
            header["sha256"] = hashlib.sha256("".join(lines[1:]).encode()).hexdigest()
            lines[0] = json.dumps(header) + "\n"
            return lines

        miscounted = rewrite(cache_path, tmp_path / "miscounted.jsonl", drop_keep_count)
        with pytest.raises(CacheFormatError, match="36 regions present"):
            open_cache(miscounted)
        redigested = rewrite(cache_path, tmp_path / "redigested.jsonl", drop, redigest=True)
        with pytest.raises(CorruptEntryError, match="expected 429981696"):
            open_cache(redigested)

    def test_duplicate_mask(self, cache_path, tmp_path):
        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: lines + [lines[1]],
            CorruptEntryError,
            "share a mask",
        )

    def test_corrupt_entry_line(self, cache_path, tmp_path):
        def mutate(lines):
            lines[10] = "{broken json\n"
            return lines

        refused_both_ways(cache_path, tmp_path, mutate, CorruptEntryError, "bad region line")
