import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mbti_szondi import (
    Box,
    ProfileSet,
    TypeIndicator,
    equivalent,
    load_interpretation,
    models,
    parse_formula,
    parse_profile,
    right_polarity,
)
from mbti_szondi.cli import EXIT_CACHE, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main

import pinned
from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    payload = json.loads(out) if out else None
    return code, payload, err


def assert_interp_flag_refused(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert "usage:" in err and "unrecognized arguments: --interp" in err
    assert "Traceback" not in err


class TestToSpp:
    def test_singleton_machine(self, capsys):
        code, payload, _ = run_json(capsys, "to-spp", "ISTJ")
        assert code == EXIT_OK
        assert payload["command"] == "to-spp"
        assert payload["indicators"] == "ISTJ"
        assert payload["count"] == pinned.SINGLETON_COUNTS["ISTJ"]

    def test_empty_set_is_full_space(self, capsys):
        code, out, _ = run(capsys, "to-spp", "{}")
        assert code == EXIT_OK
        assert f"count: {pinned.FULL_SPACE}" in out

    def test_conflicting_pair_empty(self, capsys):
        code, payload, _ = run_json(capsys, "to-spp", "istj,estp")
        assert code == EXIT_OK
        assert payload["count"] == 0

    def test_boxes_round_trip(self, capsys, interp):
        code, payload, _ = run_json(capsys, "to-spp", "ENTJ", "--boxes")
        assert code == EXIT_OK
        boxes = [Box.from_tokens(tokens) for tokens in payload["boxes"]]
        rebuilt = ProfileSet(boxes)
        assert rebuilt == right_polarity(interp, [TypeIndicator.ENTJ])

    def test_sample_members_and_determinism(self, capsys, interp):
        args = ("to-spp", "INFJ", "--sample", "5", "--seed", "3")
        code, payload, _ = run_json(capsys, *args)
        assert code == EXIT_OK
        live = right_polarity(interp, [TypeIndicator.INFJ])
        assert len(payload["sample"]) == 5
        for text in payload["sample"]:
            assert parse_profile(text) in live
        code, again, _ = run_json(capsys, *args)
        assert again["sample"] == payload["sample"]

    def test_sample_from_empty_set(self, capsys):
        code, payload, err = run_json(capsys, "to-spp", "istj,estp", "--sample", "3")
        assert code == EXIT_OK
        assert payload["count"] == 0 and payload["sample"] == []
        assert err == ""
        code, out, _ = run(capsys, "to-spp", "istj,estp", "--sample", "3")
        assert code == EXIT_OK
        assert "sample: none, the set is empty" in out

    def test_negative_sample_rejected(self, capsys):
        code, out, err = run(capsys, "to-spp", "ISTJ", "--sample", "-2")
        assert code == EXIT_PARSE
        assert out == ""
        assert "--sample" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["to-spp", "ISTJ"], ["lookup", "ISTJ", "--cache", "t"]])
    def test_sample_above_bound_rejected(self, capsys, command):
        # Just past the bound: without it this draws 10,001 profiles and
        # fails, where a huge N would exhaust memory instead.
        code, out, err = run(capsys, *command, "--sample", "10001")
        assert code == EXIT_PARSE
        assert out == ""
        assert "at most 10,000" in err and "Traceback" not in err

    def test_enumerate_to(self, capsys, tmp_path):
        out_file = tmp_path / "profiles.txt"
        code, payload, _ = run_json(
            capsys,
            "to-spp",
            "INTJ",
            "--interp",
            str(data_path("pointwise_interpretation.txt")),
            "--enumerate-to",
            str(out_file),
        )
        assert code == EXIT_OK
        assert payload["count"] == 1 and payload["enumerated"] == 1
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1
        parse_profile(lines[0])

    def test_enumerate_empty_set(self, capsys, tmp_path):
        out_file = tmp_path / "none.txt"
        code, payload, _ = run_json(
            capsys,
            "to-spp",
            "INTJ,ENTP",
            "--interp",
            str(data_path("pointwise_interpretation.txt")),
            "--enumerate-to",
            str(out_file),
        )
        assert code == EXIT_OK
        assert payload["enumerated"] == 0
        assert out_file.read_text() == ""

    def test_malformed_indicators(self, capsys):
        code, out, err = run(capsys, "to-spp", "ISTJ,XXXX")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:")

    def test_missing_interp_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "to-spp", "ISTJ", "--interp", str(tmp_path / "missing.txt")
        )
        assert code == EXIT_PARSE
        assert "cannot read interpretation document" in err

    def test_non_utf8_interp_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("E = hy+ # caf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "to-spp", "ISTJ", "--interp", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot read interpretation document" in err


class TestToMbti:
    def test_norm_profile_maps_to_empty_set(self, capsys):
        code, payload, _ = run_json(capsys, "to-mbti", "h+ s+ e- hy- k- p- d+ m+")
        assert code == EXIT_OK
        assert payload["indicators"] == "{}"
        assert payload["count"] == 0

    def test_member_profile_maps_back(self, capsys, interp):
        import random

        rng = random.Random(8)
        (profile,) = right_polarity(interp, [TypeIndicator.ESTJ]).sample(rng, 1)
        code, payload, _ = run_json(capsys, "to-mbti", str(profile))
        assert code == EXIT_OK
        assert "ESTJ" in payload["indicators"]

    def test_factor_order_free(self, capsys):
        code, payload, _ = run_json(capsys, "to-mbti", "m+ d+ p- k- hy- e- s+ h+")
        assert code == EXIT_OK
        assert payload["profile"] == "h+ s+ e- hy- k- p- d+ m+"

    def test_malformed_profile(self, capsys):
        code, _, err = run(capsys, "to-mbti", "h+ s+ e-")
        assert code == EXIT_PARSE
        assert "error:" in err


class TestVerify:
    def test_theorem_machine(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "theorem", "--trials", "1", "--seed", "5"
        )
        assert code == EXIT_OK
        assert payload["command"] == "verify"
        assert payload["passed"] is True
        assert [c["name"] for c in payload["checks"]] == ["theorem.biconditional"]
        assert payload["checks"][0]["trials"] == 1

    def test_all_suites_human(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "2")
        assert code == EXIT_OK
        assert "result: all checks passed" in out

    def test_rows_mode_machine_checks_all_decided(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify",
            "--trials",
            "5",
            "--interp",
            str(data_path("pointwise_interpretation.txt")),
        )
        assert code == EXIT_OK
        assert payload["passed"] is True
        assert all(c["trials"] > 0 and "detail" not in c for c in payload["checks"])

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_rejected(self, capsys, trials):
        # Zero or negative trials would check nothing and report a PASS.
        code, out, err = run(capsys, "verify", "--trials", trials)
        assert code == EXIT_PARSE
        assert out == ""
        assert "--trials" in err and "PASS" not in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "bogus")
        assert code == EXIT_PARSE

    def test_duplicate_rows_fail_facts(self, capsys, tmp_path, interp):
        # A rows-mode document with two equal rows loads fine but cannot
        # satisfy the distinctness fact.
        from mbti_szondi import render_formula

        doc = []
        for ind in TypeIndicator:
            source = TypeIndicator.ISTJ if ind is TypeIndicator.ISFJ else ind
            doc.append(f"{ind.name} = {render_formula(interp.row(source))}")
        path = tmp_path / "dup_rows.txt"
        path.write_text("\n".join(doc) + "\n")
        code, out, _ = run(
            capsys, "verify", "facts", "--trials", "5", "--interp", str(path)
        )
        assert code == EXIT_VERIFY
        assert "FAIL  facts.rows-distinct" in out
        assert "ISTJ and ISFJ" in out

    def test_iff_chain_row_verifies(self, capsys, tmp_path, interp):
        # The ISTJ row conjoins a 14-atom iff chain (TRUE, 65,529 nodes when
        # expanded) with the built-in ISTJ row; evaluation walks its DAG.
        from mbti_szondi import render_formula

        chain = " <-> ".join(["h+"] * 14)
        doc = []
        for ind in TypeIndicator:
            row = render_formula(interp.row(ind))
            if ind is TypeIndicator.ISTJ:
                row = f"({chain}) & ({row})"
            doc.append(f"{ind.name} = {row}")
        path = tmp_path / "iff_chain_rows.txt"
        path.write_text("\n".join(doc) + "\n")
        code, out, _ = run(capsys, "verify", "--interp", str(path), "--trials", "20")
        assert code == EXIT_OK
        assert out.endswith("all checks passed\n")

    def test_conflicting_document_rejected_at_load(self, capsys):
        code, _, err = run(
            capsys,
            "verify",
            "facts",
            "--interp",
            str(data_path("conflicting_interpretation.txt")),
        )
        assert code == EXIT_VERIFY
        assert "E" in err and "T!" in err


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clicache") / "table.jsonl"
    code = main(["precompute", "--cache", str(path), "--format", "machine"])
    assert code == EXIT_OK
    return path


class TestCacheCommands:
    def test_precompute_payload(self, capsys, tmp_path, interp):
        path = tmp_path / "t.jsonl"
        code, payload, _ = run_json(capsys, "precompute", "--cache", str(path))
        assert code == EXIT_OK
        assert payload["entries"] == 65536
        assert payload["fingerprint"] == interp.fingerprint()
        assert path.exists()

    def test_lookup_matches_live(self, capsys, cache_file, interp):
        code, payload, _ = run_json(
            capsys, "lookup", "ENTJ", "--cache", str(cache_file)
        )
        assert code == EXIT_OK
        assert payload["count"] == pinned.SINGLETON_COUNTS["ENTJ"]

    def test_lookup_boxes_round_trip(self, capsys, cache_file, interp):
        code, payload, _ = run_json(
            capsys, "lookup", "INFP,ENFP", "--cache", str(cache_file), "--boxes"
        )
        assert code == EXIT_OK
        rebuilt = ProfileSet([Box.from_tokens(t) for t in payload["boxes"]])
        live = right_polarity(interp, [TypeIndicator.INFP, TypeIndicator.ENFP])
        assert rebuilt == live

    def test_lookup_wrong_interpretation(self, capsys, cache_file):
        code, _, err = run(
            capsys,
            "lookup",
            "ISTJ",
            "--cache",
            str(cache_file),
            "--interp",
            str(data_path("alt_interpretation.txt")),
        )
        assert code == EXIT_CACHE
        assert "built for interpretation" in err

    def test_lookup_missing_cache(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "lookup", "ISTJ", "--cache", str(tmp_path / "nope.jsonl")
        )
        assert code == EXIT_CACHE
        assert "cannot read cache" in err

    def test_lookup_random_bytes(self, capsys, tmp_path):
        path = tmp_path / "noise.jsonl"
        noise = bytes(random.Random(4).randrange(256) for _ in range(4096))
        path.write_bytes(b"\xff" + noise)  # not UTF-8 from the first byte
        code, out, err = run(capsys, "lookup", "ISTJ", "--cache", str(path))
        assert code == EXIT_CACHE
        assert out == ""
        assert err.startswith("error:")

    def test_lookup_v1_table_refused(self, capsys, tmp_path, interp):
        # The version-1 layout: one polarity line per indicator-set mask.
        header = {
            "format": "mbti-szondi-polarity-table",
            "version": 1,
            "fingerprint": interp.fingerprint(),
            "entries": 65536,
            "created": "2026-08-23T12:00:00Z",
        }
        entry = {**ProfileSet.full().to_payload(), "mask": 0}
        path = tmp_path / "v1.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        code, _, err = run(capsys, "lookup", "ISTJ", "--cache", str(path))
        assert code == EXIT_CACHE
        assert "unsupported table version 1" in err

    def test_lookup_infinite_mask_refused(self, capsys, tmp_path, cache_file):
        # A digest-consistent edit: only the region check can refuse it.
        header, *regions = cache_file.read_text().splitlines(keepends=True)
        region = json.loads(regions[0])
        region["mask"] = float("inf")
        regions[0] = json.dumps(region) + "\n"
        body = "".join(regions)
        header = json.loads(header)
        header["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        path = tmp_path / "infinite.jsonl"
        path.write_text(json.dumps(header) + "\n" + body)
        assert "Infinity" in body
        code, out, err = run(capsys, "lookup", "ISTJ", "--cache", str(path))
        assert code == EXIT_CACHE
        assert out == ""
        assert "is not an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["header", "region"])
    def test_lookup_deep_nesting_refused(self, capsys, tmp_path, cache_file, where):
        # json.loads raises RecursionError on such a line, not ValueError.
        deep = "[" * 100_000 + "]" * 100_000 + "\n"
        header = json.loads(cache_file.read_text().splitlines()[0])
        header.update(regions=1, sha256=hashlib.sha256(deep.encode("utf-8")).hexdigest())
        text = deep if where == "header" else json.dumps(header) + "\n" + deep
        path = tmp_path / "deep.jsonl"
        path.write_text(text)
        code, out, err = run(capsys, "lookup", "ISTJ", "--cache", str(path))
        assert code == EXIT_CACHE
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_precompute_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "precompute", "--cache", str(tmp_path / "no-dir" / "t.jsonl")
        )
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_precompute_requires_cache_flag(self, capsys):
        code, _, _ = run(capsys, "precompute")
        assert code == EXIT_PARSE


class TestInterpCommand:
    def test_show_human_prints_document(self, capsys, interp):
        code, out, _ = run(capsys, "interp", "show")
        assert code == EXIT_OK
        assert out == interp.document()

    def test_show_machine_rows_round_trip(self, capsys, interp):
        code, payload, _ = run_json(capsys, "interp", "show")
        assert code == EXIT_OK
        assert payload["mode"] == "builtin"
        assert payload["fingerprint"] == pinned.BUILTIN_FINGERPRINT
        assert payload["negation_free"] is True
        assert len(payload["rows"]) == 16
        for name, text in payload["rows"].items():
            assert equivalent(parse_formula(text), interp.row(TypeIndicator[name]))

    def test_check_builtin(self, capsys):
        code, out, _ = run(capsys, "interp", "check")
        assert code == EXIT_OK
        assert "interpretation document is valid" in out

    def test_check_document_path(self, capsys):
        code, payload, _ = run_json(
            capsys, "interp", "check", str(data_path("alt_interpretation.txt"))
        )
        assert code == EXIT_OK
        assert payload["ok"] is True
        assert payload["mode"] == "basic"

    def test_check_rows_document(self, capsys):
        code, payload, _ = run_json(
            capsys, "interp", "check", str(data_path("pointwise_interpretation.txt"))
        )
        assert code == EXIT_OK
        assert payload["mode"] == "rows"
        assert payload["ok"] is True

    @pytest.mark.parametrize(
        "flag, name",
        [((), "alt_interpretation.txt"), ((), "pointwise_interpretation.txt"),
         (("--interp",), "alt_interpretation.txt")],
        ids=["path", "rows-path", "interp-flag"],
    )
    def test_show_document_path(self, capsys, flag, name):
        path = str(data_path(name))
        if flag:
            # interp names its document by PATH only; --interp there is a usage error.
            assert_interp_flag_refused(capsys, "interp", "show", *flag, path)
            return
        code, payload, _ = run_json(capsys, "interp", "show", path)
        assert code == EXIT_OK
        assert payload["source"] == path
        assert payload["fingerprint"] == load_interpretation(data_path(name).read_text()).fingerprint()
        assert payload["fingerprint"] != pinned.BUILTIN_FINGERPRINT

    def test_other_commands_keep_interp_flag(self, capsys, alt_interp):
        path = str(data_path("alt_interpretation.txt"))
        code, payload, _ = run_json(capsys, "to-spp", "ISTJ", "--interp", path)
        assert code == EXIT_OK
        expected = right_polarity(alt_interp, [TypeIndicator.ISTJ]).count()
        assert payload["count"] == expected != pinned.SINGLETON_COUNTS["ISTJ"]

    @pytest.mark.parametrize("action", ["check", "show"])
    @pytest.mark.parametrize(
        "name, mode",
        [(None, "builtin"), ("alt_interpretation.txt", "basic"),
         ("pointwise_interpretation.txt", "rows")],
        ids=["builtin", "basic", "rows"],
    )
    def test_machine_payload_keys(self, capsys, name, mode, action):
        document = [str(data_path(name))] if name else []
        code, payload, _ = run_json(capsys, "interp", action, *document)
        assert code == EXIT_OK
        keys = ["command", "source", "mode", "fingerprint", "negation_free", "warnings", "action"]
        if action == "check":
            assert list(payload) == keys + ["ok"]
            assert payload["ok"] is True
        else:
            assert list(payload) == keys + ["rows"]
        assert payload["mode"] == mode

    @pytest.mark.parametrize(
        "argv",
        [("interp", "check", "builtin"), ("interp", "show", "builtin"),
         ("interp", "check", "--interp", "builtin")],
        ids=["path", "show", "interp-flag"],
    )
    def test_document_named_builtin(self, capsys, monkeypatch, tmp_path, alt_interp, argv):
        # A file called "builtin" is a document, not the built-in translation.
        (tmp_path / "builtin").write_bytes(data_path("alt_interpretation.txt").read_bytes())
        monkeypatch.chdir(tmp_path)
        if "--interp" in argv:
            # Not even an existing file is read through --interp by interp.
            assert_interp_flag_refused(capsys, *argv)
            return
        code, payload, _ = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert payload["fingerprint"] == alt_interp.fingerprint()
        assert payload["source"] == "builtin"
        assert payload["mode"] == "basic"

    def test_load_action_is_gone(self, capsys):
        code, _, err = run(capsys, "interp", "load", str(data_path("alt_interpretation.txt")))
        assert code == EXIT_PARSE
        assert "invalid choice" in err

    def test_check_conflicting_document(self, capsys):
        code, _, err = run(
            capsys, "interp", "check", str(data_path("conflicting_interpretation.txt"))
        )
        assert code == EXIT_VERIFY
        assert "E" in err and "T!" in err

    def test_check_non_utf8_document(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"E = hy+ \xff\xfe\n")
        code, out, err = run(capsys, "interp", "check", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot read interpretation document" in err

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        # An editor that saves UTF-8 with a BOM puts it before the leading '#'.
        plain = str(data_path("alt_interpretation.txt"))
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + data_path("alt_interpretation.txt").read_bytes())
        answers = []
        for path in (plain, str(marked)):
            code, checked, _ = run_json(capsys, "interp", "check", path)
            assert code == EXIT_OK and checked["ok"] is True
            code, queried, _ = run_json(capsys, "to-spp", "ISTJ", "--interp", path)
            assert code == EXIT_OK
            queried.pop("elapsed_ms")
            answers.append((checked["fingerprint"], queried))
        assert answers[0] == answers[1]

    def test_check_deeply_nested_row(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("ISTJ = " + "(" * 3000 + "h+" + ")" * 3000 + "\n")
        code, out, err = run(capsys, "interp", "check", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "nested too deeply" in err

    def test_check_exponential_iff_chain(self, capsys, tmp_path):
        # 30 links would expand to about 2**33 nodes when rendered.
        path = tmp_path / "iff.txt"
        rows = [f"{i.name} = h+" for i in TypeIndicator if i is not TypeIndicator.ISTJ]
        path.write_text("\n".join(rows + ["ISTJ = " + " <-> ".join(["h+"] * 31)]) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "interp", "check", str(path))
        assert time.perf_counter() - start < 5
        assert code == EXIT_PARSE
        assert out == ""
        assert "expands to more than" in err and "ISTJ" in err

    @pytest.mark.parametrize(
        "name",
        ["alt_interpretation.txt", "basic_translations.txt", "row_translations.txt",
         "pointwise_interpretation.txt"],
    )
    def test_data_documents_still_load(self, capsys, name):
        code, payload, _ = run_json(capsys, "interp", "check", str(data_path(name)))
        assert code == EXIT_OK
        loaded = load_interpretation(data_path(name).read_text())
        assert payload["fingerprint"] == loaded.fingerprint()
        assert load_interpretation(loaded.document()).fingerprint() == loaded.fingerprint()

    def test_check_bad_formula(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("E = hy+ |\n")
        code, _, err = run(capsys, "interp", "check", str(path))
        assert code == EXIT_PARSE
        assert "line 1" in err


def prose_line(key, value):
    """The human line of a scalar payload field: ``key: value``, with "_"
    read as "-" and booleans as yes/no, but for the labels below."""
    if key == "passed":
        return "result: " + ("all checks passed" if value else "FAILED")
    if key == "ok":
        return "interpretation document is valid"
    label = {"suite": "verification suite", "path": "wrote polarity table"}.get(
        key, key.replace("_", "-")
    )
    return f"{label}: {('no', 'yes')[value] if isinstance(value, bool) else value}"


class TestOutputParity:
    # Not shown as a line of their own: the command and the interp action,
    # which the command line names, and the timings, which prose shows at
    # 0.1 ms.
    EXEMPT = {"command", "action", "elapsed_ms"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("to-spp", "ISTJ", "--boxes"),
            ("to-spp", "INFJ", "--sample", "3", "--seed", "5"),
            ("to-spp", "istj,estp", "--sample", "3"),
            ("to-spp", "INTJ", "--interp", "{pointwise}", "--enumerate-to", "{tmp}/e.txt"),
            ("to-mbti", "h+ s+ e- hy- k- p- d+ m+"),
            ("verify", "--trials", "3"),
            ("precompute", "--cache", "{tmp}/t.jsonl"),
            ("lookup", "INFJ,INTJ", "--cache", "{table}", "--boxes", "--sample", "2"),
            ("interp", "check"),
            ("interp", "check", "{pointwise}"),
        ],
        ids=["to-spp-boxes", "to-spp-sample", "to-spp-empty-sample", "to-spp-enumerate",
             "to-mbti", "verify", "precompute", "lookup", "interp-check", "interp-check-rows"],
    )
    def test_human_shows_every_scalar_field(self, capsys, tmp_path, cache_file, argv):
        paths = {"tmp": tmp_path, "table": cache_file,
                 "pointwise": data_path("pointwise_interpretation.txt")}
        argv = [arg.format(**paths) for arg in argv]
        code, payload, _ = run_json(capsys, *argv)
        human_code, out, _ = run(capsys, *argv)
        assert code == human_code == EXIT_OK
        lines = out.splitlines()
        for key, value in payload.items():
            if key in self.EXEMPT or isinstance(value, (list, dict)):
                continue
            assert prose_line(key, value) in lines, (key, value, out)


class TestTopLevel:
    def test_cli_path_does_not_import_numpy(self):
        # numpy serves only the enumeration oracle, which no command uses.
        import mbti_szondi

        src = str(Path(mbti_szondi.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from mbti_szondi.cli import main\n"
            "assert main(['to-spp', 'ISTJ']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "count: 14340096" in done.stdout

    # The modules a query loads.  The child runs with -S: a site .pth file
    # (certifi's, say) can preload typing, tempfile or random and hide what
    # the package itself imports.
    QUERY_MODULES = {
        "mbti_szondi",
        "mbti_szondi.boxes",
        "mbti_szondi.cli",
        "mbti_szondi.connection",
        "mbti_szondi.core",
        "mbti_szondi.interpret",
        "mbti_szondi.logic",
    }

    @staticmethod
    def loaded_modules(*argv: str) -> set[str]:
        return TestTopLevel.child_modules(
            "from mbti_szondi.cli import main\n"
            f"code = main({list(argv)!r})\n"
        )

    @staticmethod
    def child_modules(script: str) -> set[str]:
        """The modules loaded by a ``-S`` child that runs ``script``, which
        sets ``code``, its exit status."""
        import mbti_szondi

        src = str(Path(mbti_szondi.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            + script
            + "loaded = sorted(sys.modules)\n"
            "import json\n"
            "print(json.dumps(loaded))\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    @staticmethod
    def package_modules(modules: set[str]) -> set[str]:
        return {m for m in modules if m.startswith("mbti_szondi")}

    @pytest.mark.parametrize(
        "argv",
        [("to-spp", "ISTJ"), ("to-mbti", "h+ s+ e- hy- k- p- d+ m+")],
        ids=["to-spp", "to-mbti"],
    )
    def test_query_loads_only_what_it_runs(self, argv):
        modules = self.loaded_modules(*argv)
        assert self.package_modules(modules) == self.QUERY_MODULES
        assert not modules & {
            "numpy", "dataclasses", "inspect", "hashlib", "shutil", "bz2", "lzma"
        }

    def test_interp_check_loads_neither_table_nor_suites(self):
        modules = self.loaded_modules("interp", "check")
        assert self.package_modules(modules) == self.QUERY_MODULES
        assert "numpy" not in modules

    # The per-command claims of README's Install section: verify adds the
    # suites, the table commands add the table module.
    @pytest.mark.parametrize(
        "argv, extra",
        [
            (("verify", "--trials", "1"), "mbti_szondi.verification"),
            (("precompute", "--cache", "{new}"), "mbti_szondi.cache"),
            (("lookup", "ISTJ", "--cache", "{table}"), "mbti_szondi.cache"),
        ],
        ids=["verify", "precompute", "lookup"],
    )
    def test_command_adds_only_its_own_module(self, argv, extra, cache_file, tmp_path):
        paths = {"new": tmp_path / "t.jsonl", "table": cache_file}
        modules = self.loaded_modules(*(arg.format(**paths) for arg in argv))
        assert self.package_modules(modules) == self.QUERY_MODULES | {extra}
        assert "numpy" not in modules

    def test_lookup_loads_no_writer_modules(self, capsys, tmp_path):
        # tempfile (and random with it) serves only write_cache.
        table = str(tmp_path / "t.jsonl")
        assert run(capsys, "precompute", "--cache", table)[0] == EXIT_OK
        modules = self.loaded_modules("lookup", "ISTJ", "--cache", table)
        assert "mbti_szondi.cache" in modules
        assert not modules & {"tempfile", "random", "shutil", "bz2", "lzma"}

    def test_closed_stdout_keeps_exit_code(self, tmp_path):
        # A reader that takes one line and closes the pipe, as ``| head -1``
        # does: the 10,000-line sample outgrows the pipe, so the command
        # writes to a closed pipe.
        import mbti_szondi

        src = str(Path(mbti_szondi.__file__).resolve().parents[1])
        argv = ["-m", "mbti_szondi.cli", "to-spp", "ISTJ", "--sample", "10000"]
        with open(tmp_path / "err.txt", "wb") as err:
            child = subprocess.Popen(
                [sys.executable, *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=dict(os.environ, PYTHONPATH=src),
            )
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=60)
        assert first == b"indicators: ISTJ\n"
        assert code == EXIT_OK
        assert (tmp_path / "err.txt").read_bytes() == b""

    def test_oracle_reachable_from_package(self):
        import mbti_szondi

        assert mbti_szondi.enumeration.count_full is mbti_szondi.count_full
        with pytest.raises(AttributeError):
            mbti_szondi.no_such_name

    def test_lazy_names_are_the_submodules_own(self):
        import mbti_szondi
        from mbti_szondi import cache, connection, verification

        for name in verification.__all__:
            assert getattr(connection, name) is getattr(verification, name)
            assert getattr(mbti_szondi, name) is getattr(verification, name)
        assert mbti_szondi.cache is cache
        assert mbti_szondi.open_cache is cache.open_cache
        with pytest.raises(AttributeError):
            connection.no_such_name

    def test_each_public_name_is_declared_once(self):
        # The package exports its query modules' __all__ and the lazy names,
        # each declared in its own module's __all__; _LAZY repeats only the
        # lazy modules' names, and must agree with them.
        import mbti_szondi
        from mbti_szondi import (
            boxes, cache, connection, core, enumeration, interpret, logic, verification,
        )

        names = mbti_szondi.__all__
        assert len(names) == len(set(names))
        assert not [n for n in names if n.startswith("_") and n != "__version__"]
        exported = {"__version__"}
        for module in (core, logic, boxes, interpret, connection):
            for name in module.__all__:
                assert getattr(mbti_szondi, name) is getattr(module, name)
            exported.update(module.__all__)
        for module in (cache, verification, enumeration):
            home = module.__name__.rpartition(".")[2]
            lazy = {n for n, m in mbti_szondi._LAZY.items() if m == home and n != home}
            assert lazy == set(module.__all__)
            exported.update(module.__all__)
        assert set(names) == exported
        assert verification.__all__ == list(connection._SUITE_NAMES)

    def test_unknown_name_loads_no_lazy_module(self):
        modules = self.child_modules(
            "import mbti_szondi\n"
            "code = 'resolved' if hasattr(mbti_szondi, 'no_such_name') else 0\n"
        )
        assert self.package_modules(modules) == self.QUERY_MODULES - {"mbti_szondi.cli"}

    def test_report_render_loads_no_cli(self):
        # A library report renders through the shared renderer, not the CLI.
        modules = self.child_modules(
            "from mbti_szondi import builtin_interpretation, run_verification\n"
            "report = run_verification(builtin_interpretation(), 'facts', 1)\n"
            "code = 0 if report.render() and report.checks[0].line() else 1\n"
        )
        assert "mbti_szondi.verification" in modules
        assert not modules & {"mbti_szondi.cli", "argparse"}

    def test_every_exported_name_resolves(self):
        # A star import looks up every name in __all__ (the lazy oracle names
        # included) and raises on a stale one.
        import mbti_szondi

        oracle = {"count_full", "count_restricted", "evaluate_on_digits",
                  "restricted_universe", "satisfying_vector"}
        assert oracle <= set(mbti_szondi.__all__)
        namespace: dict = {}
        exec("from mbti_szondi import *", namespace)
        assert set(mbti_szondi.__all__) <= namespace.keys()

    def test_no_command(self, capsys):
        assert main([]) == EXIT_PARSE
        capsys.readouterr()

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "to-spp" in out and "lookup" in out

    def test_machine_output_is_single_json_line(self, capsys):
        code, out, _ = run(capsys, "to-mbti", "h0 s0 e0 hy0 k0 p0 d0 m0",
                           "--format", "machine")
        assert code == EXIT_OK
        assert out.count("\n") == 1
        json.loads(out)


def run_quietly(argv):
    """``main`` in-process with its output captured; (exit code, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, cache_file):
    """Real paths for the fuzzer to draw: a table, documents, a directory."""
    folder = tmp_path_factory.mktemp("fuzz")
    return [str(cache_file), str(folder)] + [
        str(data_path(name))
        for name in ("alt_interpretation.txt", "conflicting_interpretation.txt")
    ]


# Tokens that steer argparse past its own checks often enough to reach the
# commands; arbitrary text covers the rest.
_KNOWN = [
    "ISTJ", "istj,estp", "{}", "h+ s+ e- hy- k- p- d+ m+", "h0 s0 e0 hy0 k0 p0 d0",
    "--boxes", "--sample", "--seed", "--format", "machine", "human", "--cache",
    "--interp", "-h", "3", "-2", "0", "nul\x00byte", "\ud800", "\udcff",
]


class TestArbitraryArgv:
    @pytest.mark.parametrize(
        "argv",
        [
            ["to-spp", "ISTJ", "--interp", "a\x00b"],
            ["to-spp", "ISTJ", "--enumerate-to", "a\x00b"],
            ["lookup", "ISTJ", "--cache", "a\x00b"],
            ["precompute", "--cache", "a\x00b"],
            ["interp", "check", "a\x00b"],
            ["to-mbti", "h0 s0 e0 hy0 k0 p0 d0 m0", "--interp", "\ud800"],
        ],
    )
    def test_unusable_path_is_a_usage_error(self, argv):
        code, err = run_quietly(argv)
        assert code == EXIT_PARSE
        assert "invalid path" in err

    @given(
        command=st.sampled_from([["to-spp"], ["to-mbti"], ["lookup"], ["interp", "check"]]),
        tail=st.lists(
            st.one_of(st.text(max_size=20), st.sampled_from(_KNOWN), st.integers(0, 3)),
            max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_code_documented(self, fuzz_files, command, tail):
        argv = command + [
            fuzz_files[token] if isinstance(token, int) else token for token in tail
        ]
        # --enumerate-to (or an abbreviation argparse expands to it) writes files.
        argv = [token for token in argv if not token.startswith("--e")]
        code, err = run_quietly(argv)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VERIFY, EXIT_CACHE), argv
        assert "Traceback" not in err, argv

    @given(document=st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_interp_check_any_document(self, document):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "doc.txt"
            path.write_text(document, encoding="utf-8")
            code, err = run_quietly(["interp", "check", str(path)])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VERIFY), document
        assert "Traceback" not in err
