"""Report objects and artifact emission.

Verifies:
  - verdict comparisons and the pass/fail roll-up
  - canonical JSON is byte-stable and free of volatile fields
  - the config digest ignores key order
  - emitted artifacts: report.json, CSV per table, summary.md, and the
    timings sidecar kept out of the canonical report; a write whose final
    rename fails keeps the old file and leaves no temporary file, a
    report whose second file cannot be written leaves no file at all, and
    a failed rename of any file of a report undoes the ones before it
  - a report's other files (a synthesised dataset) join its batch but
    not its canonical JSON, a failed batch removes the directories it
    made, and the output-directory check refuses an unusable path
    without creating anything
  - fuzzed: the JSON loader turns arbitrary bytes into an object or a
    config error, never anything else
"""

import errno
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from calderon_lab.errors import ConfigInvalid
from calderon_lab.report import (
    ExperimentReport,
    Table,
    _write_files,
    check_out_dir,
    emit_report,
    load_json,
)


def _verdict(*args):
    return ExperimentReport("demo", {}).add_verdict(*args)


class TestVerdict:
    def test_comparisons(self):
        assert _verdict("a", 1.0, 2.0, "<=").passed
        assert not _verdict("a", 3.0, 2.0, "<=").passed
        assert _verdict("b", 3.0, 2.0, ">=").passed
        assert not _verdict("b", 1.0, 2.0, ">=").passed

    def test_unknown_comparison(self):
        r = ExperimentReport("demo", {})
        with pytest.raises(KeyError, match="'<'"):
            r.add_verdict("a", 1.0, 2.0, "<")
        assert r.verdicts == []

    def test_boundary_counts_as_pass(self):
        assert _verdict("edge", 2.0, 2.0, "<=").passed
        assert _verdict("edge", 2.0, 2.0, ">=").passed


def _sample_report():
    r = ExperimentReport("demo", {"alpha": 1, "beta": [1, 2]})
    r.scalars["gap"] = 1.25e-3
    r.add_table("gaps", ("size", "gap"), [(9, 0.1), (17, 0.025)])
    r.add_verdict("gap_small", 0.025, 0.1, "<=")
    return r


class TestExperimentReport:
    def test_passed_rollup(self):
        r = _sample_report()
        assert r.passed
        r.add_verdict("impossible", 1.0, 0.0, "<=")
        assert not r.passed

    def test_json_deterministic(self):
        assert _sample_report().to_json() == _sample_report().to_json()

    def test_json_has_no_timings(self):
        r = _sample_report()
        r.timings["assemble"] = 1.23
        doc = json.loads(r.to_json())
        assert "timings" not in doc
        assert doc["passed"] is True

    def test_digest_ignores_key_order(self):
        r1 = ExperimentReport("demo", {"a": 1, "b": 2})
        r2 = ExperimentReport("demo", {"b": 2, "a": 1})
        assert r1.config_digest() == r2.config_digest()

    def test_markdown_mentions_verdicts(self):
        md = _sample_report().to_markdown()
        assert "gap_small" in md and "pass" in md


class TestEmission:
    def test_artifacts(self, tmp_path):
        r = _sample_report()
        r.timings["total"] = 0.5
        written = emit_report(r, tmp_path)
        assert set(written) == {"report.json", "gaps.csv", "summary.md", "timings.json"}
        for p in written.values():
            assert os.path.exists(p)
        csv_text = (tmp_path / "gaps.csv").read_text()
        assert csv_text.splitlines()[0] == "size,gap"
        assert "0.1" in csv_text
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["tables"]["gaps"]["rows"] == [[9, 0.1], [17, 0.025]]

    def test_no_timings_no_sidecar(self, tmp_path):
        written = emit_report(_sample_report(), tmp_path)
        assert "timings.json" not in written

    def test_reports_byte_identical_across_runs(self, tmp_path):
        emit_report(_sample_report(), tmp_path / "one")
        emit_report(_sample_report(), tmp_path / "two")
        a = (tmp_path / "one" / "report.json").read_bytes()
        b = (tmp_path / "two" / "report.json").read_bytes()
        assert a == b

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the second file cannot be written: report.json, written first,
        # was already in place
        made, calls = tempfile.mkstemp, []

        def second_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return made(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", second_fails)
        with pytest.raises(ConfigInvalid, match="disk full"):
            emit_report(_sample_report(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_files_join_the_batch(self, tmp_path):
        r = _sample_report()
        r.files["data.json"] = "{}"
        written = emit_report(r, tmp_path)
        assert "data.json" not in written and "files" not in r.as_dict()
        assert (tmp_path / "data.json").read_text() == "{}"
        assert r.to_json() == _sample_report().to_json()

    # the batch made out_dir and its parent, then failed: both go again
    def test_failed_batch_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(ConfigInvalid, match="replace failed"):
            emit_report(_sample_report(), tmp_path / "new" / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_out_dir_checked_without_a_write(self, tmp_path, out):
        (tmp_path / "taken").write_text("")
        with pytest.raises(ConfigInvalid, match="is not a writable directory"):
            check_out_dir(tmp_path / out)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert check_out_dir(tmp_path / "new" / "out") == [str(tmp_path / "new" / "out"), str(tmp_path / "new")]
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_atomic_overwrite(self, tmp_path):
        p = tmp_path / "f.txt"
        _write_files(tmp_path, {p: "old"})
        _write_files(tmp_path, {p: "new"})
        assert p.read_text() == "new"
        assert [q.name for q in tmp_path.iterdir()] == ["f.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "f.txt"
        _write_files(tmp_path, {p: "old"})

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(ConfigInvalid, match="replace failed"):
            _write_files(tmp_path, {p: "new"})
        assert p.read_bytes() == b"old"
        assert [q.name for q in tmp_path.iterdir()] == ["f.txt"]  # no .tmp-* left

    # an earlier report without the timings sidecar is in place; the rename
    # of each new file into place fails in turn, after the earlier ones
    # went through
    @pytest.mark.parametrize("fails_at", range(4))
    def test_failed_rename_leaves_the_old_files(self, tmp_path, monkeypatch, fails_at):
        old = ExperimentReport("demo", {"alpha": 0})
        old.add_table("gaps", ("size", "gap"), [(9, 0.5)])
        emit_report(old, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["gaps.csv", "report.json", "summary.md"]
        new = _sample_report()
        new.timings["total"] = 0.5
        real, placed = os.replace, []

        def replace(src, dst):
            # into place: from a text's temporary to a target
            if os.path.basename(src).startswith(".tmp-") and not os.fspath(src).endswith(".old") \
                    and not os.path.basename(dst).startswith(".tmp-"):
                placed.append(dst)
                if len(placed) == fails_at + 1:
                    raise OSError(errno.EIO, "injected failure")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(ConfigInvalid, match="injected failure"):
            emit_report(new, tmp_path)
        assert len(placed) == fails_at + 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no .tmp-* left


class TestLoadJson:
    # JSON-like text gets past the decoder more often than random bytes do
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(text=st.binary(max_size=64) | st.text('{}[]":,-+.0123456789eEtrufalsnNIy \\', max_size=64).map(str.encode))
    def test_fuzz_bytes_give_object_or_config_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fuzz-load-json.json"
        p.write_bytes(text)
        try:
            doc = load_json(p)
        except ConfigInvalid:
            return
        assert isinstance(doc, dict)
