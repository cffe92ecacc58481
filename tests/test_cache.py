import hashlib
import json
import os
import pickle
import random
import re
import stat
from pathlib import Path

import pytest

from mbti_szondi import (
    Box,
    CacheError,
    ProfileSet,
    TypeIndicator,
    indicator_set_from_mask,
    kernel_classes,
    load_interpretation,
    open_cache,
    right_polarity,
    write_cache,
)
from mbti_szondi import cache
from mbti_szondi.cli import EXIT_CACHE, main
from mbti_szondi.core import parse_signature_subset, render_signature_subset

import pinned


CUSTOM_DOCUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "custom_interpretation.txt"


@pytest.fixture(scope="module", params=["builtin", "alt", "custom"])
def document(request, interp, alt_interp):
    """The built-in, a basic document and one whose entries carry negations."""
    if request.param == "custom":
        return load_interpretation(CUSTOM_DOCUMENT.read_text())
    return {"builtin": interp, "alt": alt_interp}[request.param]


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


def refused_both_ways(cache_path, tmp_path, mutate, match):
    """The tamper is caught by the digest, and behind it by the check whose
    message ``match`` finds."""
    plain = rewrite(cache_path, tmp_path / "plain.jsonl", mutate)
    with pytest.raises(CacheError, match="SHA-256"):
        open_cache(plain)
    redigested = rewrite(cache_path, tmp_path / "redigested.jsonl", mutate, redigest=True)
    with pytest.raises(CacheError, match=match):
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
        # entries (65,536 ints) is derived from the regions when read, so
        # the repr leaves it out and an unpickled table derives it again.
        cache = open_cache(cache_path)
        assert len(repr(cache)) < 10 * 1024
        copy = pickle.loads(pickle.dumps(cache))
        assert copy == cache
        assert copy.entries == cache.entries
        with pytest.raises(TypeError, match="PolarityCache"):
            hash(cache)

    def test_lookup_is_the_union_its_entry_names(self, tmp_path, document):
        # One mask per kernel class: the regions whose mask contains I are
        # the regions whose bits entries[I] sets, in the same order.
        table = open_cache(write_cache(tmp_path / "t.jsonl", document))
        entries = table.entries
        for members in kernel_classes(document):
            cover = entries[members[0]]
            named = [region for r, (_, region) in enumerate(table.regions) if cover >> r & 1]
            expected = ProfileSet(box for region in named for box in region.boxes)
            assert table.lookup(indicator_set_from_mask(members[0])).boxes == expected.boxes

    def test_covers_derived_only_when_entries_are_read(self, cache_path, monkeypatch):
        runs = []
        dp = cache.region_covers

        def counted(region_masks):
            runs.append(region_masks)
            return dp(region_masks)

        monkeypatch.setattr(cache, "region_covers", counted)
        table = open_cache(cache_path)
        for indicator in TypeIndicator:
            table.lookup({indicator})
        assert runs == []
        assert len(table.entries) == 65536
        assert len(runs) == 1

    @pytest.mark.parametrize("as_path", [False, True], ids=["str", "Path"])
    def test_path_given_as_str_or_path(self, tmp_path, interp, as_path):
        given = tmp_path / "t.jsonl" if as_path else str(tmp_path / "t.jsonl")
        assert write_cache(given, interp) is given
        table = open_cache(given)
        assert table.path is given
        table.check_fingerprint(interp)

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

    def test_errors_name_the_destination(self, tmp_path, interp):
        # Not the temporary file beside it; the system's error is the cause.
        missing = tmp_path / "no-dir" / "t.jsonl"
        message = f"cannot write table {missing}: No such file or directory"
        with pytest.raises(OSError, match=f"^{re.escape(message)}$") as caught:
            write_cache(missing, interp)
        assert isinstance(caught.value.__cause__, FileNotFoundError)

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_table_mode_follows_umask(self, tmp_path, interp):
        # The mode open(path, "w") gives, not a temporary file's 0o600.
        previous = os.umask(0o022)
        try:
            path = write_cache(tmp_path / "t.jsonl", interp)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


class TestFingerprint:
    def test_mismatch_raises_with_both_prints(self, cache_path, alt_interp):
        cache = open_cache(cache_path)
        found, expected = cache.fingerprint[:16], alt_interp.fingerprint()[:16]
        message = f"for interpretation {found}... but the active interpretation is {expected}..."
        with pytest.raises(CacheError, match=re.escape(message)):
            cache.check_fingerprint(alt_interp)

    def test_tampered_header_fingerprint_detected(self, cache_path, tmp_path, interp):
        def mutate(lines):
            header = json.loads(lines[0])
            header["fingerprint"] = "0" * 64
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "tampered.jsonl", mutate)
        with pytest.raises(CacheError, match=f"built for interpretation {'0' * 16}"):
            open_cache(bad).check_fingerprint(interp)


class TestCorruption:
    def test_tampered_count_detected(self, cache_path, tmp_path):
        def bump_count(region):
            region["count"] += 7

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 3, bump_count),
            "stored count",
        )

    def test_tampered_boxes_detected(self, cache_path, tmp_path):
        def scramble_boxes(region):
            region["boxes"] = [["+", "+", "+"]]

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 5, scramble_boxes),
            "bad region line",
        )

    def test_unparseable_token_detected(self, cache_path, tmp_path):
        def garble(region):
            region["boxes"][0][3] = "%%"

        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 7, garble),
            "bad region line",
        )

    @pytest.mark.parametrize("mask", [float("inf"), 3.7, "3", True])
    def test_non_integer_mask_refused(self, cache_path, tmp_path, mask):
        # JSON reads these (Infinity, 3.7, "3", true); none names a region.
        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: tamper_region(lines, 2, lambda region: region.update(mask=mask)),
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

        refused_both_ways(cache_path, tmp_path, rotate, "overlap")


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
        with pytest.raises(CacheError, match="stored regions overlap"):
            open_cache(write_table(tmp_path / "tampered.jsonl", boxes))


class TestHeaderValidation:
    def test_table_over_the_size_bound_refused(self, cache_path, monkeypatch):
        size = cache_path.stat().st_size
        monkeypatch.setattr(cache, "MAX_TABLE_BYTES", size)
        open_cache(cache_path)
        monkeypatch.setattr(cache, "MAX_TABLE_BYTES", size - 1)
        with pytest.raises(CacheError, match=f"larger than {size - 1} bytes"):
            open_cache(cache_path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CacheError, match="empty"):
            open_cache(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "notjson.jsonl"
        path.write_text("this is not a cache\n")
        with pytest.raises(CacheError, match="not JSON"):
            open_cache(path)

    def test_header_not_utf8(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\n\x80\x81")
        with pytest.raises(CacheError, match="not JSON"):
            open_cache(path)

    def test_header_nested_too_deep(self, tmp_path):
        # Deep enough to exhaust the JSON decoder's recursion limit.
        path = tmp_path / "deep.jsonl"
        path.write_text(DEEP_JSON + "\n")
        with pytest.raises(CacheError, match="not JSON"):
            open_cache(path)

    def test_region_nested_too_deep(self, cache_path, tmp_path):
        # Behind a digest that matches, only the region reader can refuse it.
        def mutate(lines):
            return [lines[0], DEEP_JSON + "\n"]

        deep = rewrite(cache_path, tmp_path / "deep.jsonl", mutate, redigest=True)
        with pytest.raises(CacheError, match="bad region line"):
            open_cache(deep)

    def test_wrong_format_name(self, cache_path, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["format"] = "something-else"
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "format.jsonl", mutate)
        with pytest.raises(CacheError, match="not a polarity table"):
            open_cache(bad)

    def test_unsupported_version(self, cache_path, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["version"] = 99
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "version.jsonl", mutate)
        with pytest.raises(CacheError, match="version 99"):
            open_cache(bad)

    def test_wrong_entry_count(self, cache_path, tmp_path, capsys):
        # The digest covers the body only, so the header's count is checked on its own.
        def mutate(lines):
            header = json.loads(lines[0])
            header["entries"] = 65535
            lines[0] = json.dumps(header) + "\n"
            return lines

        bad = rewrite(cache_path, tmp_path / "entries.jsonl", mutate)
        with pytest.raises(CacheError, match="header declares 65535 entries"):
            open_cache(bad)
        assert main(["lookup", "ISTJ", "--cache", str(bad)]) == EXIT_CACHE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: header declares 65535 entries\n"

    def test_missing_entry(self, cache_path, tmp_path):
        def drop(lines):
            return lines[:1] + lines[2:]

        short = rewrite(cache_path, tmp_path / "short.jsonl", drop)
        with pytest.raises(CacheError, match="SHA-256"):
            open_cache(short)

        def drop_keep_count(lines):
            header = json.loads(lines[0])
            lines = drop(lines)
            header["sha256"] = hashlib.sha256("".join(lines[1:]).encode()).hexdigest()
            lines[0] = json.dumps(header) + "\n"
            return lines

        miscounted = rewrite(cache_path, tmp_path / "miscounted.jsonl", drop_keep_count)
        with pytest.raises(CacheError, match="36 regions present"):
            open_cache(miscounted)
        redigested = rewrite(cache_path, tmp_path / "redigested.jsonl", drop, redigest=True)
        with pytest.raises(CacheError, match="expected 429981696"):
            open_cache(redigested)

    def test_duplicate_mask(self, cache_path, tmp_path):
        refused_both_ways(
            cache_path,
            tmp_path,
            lambda lines: lines + [lines[1]],
            "share a mask",
        )

    def test_corrupt_entry_line(self, cache_path, tmp_path):
        def mutate(lines):
            lines[10] = "{broken json\n"
            return lines

        refused_both_ways(cache_path, tmp_path, mutate, "bad region line")
