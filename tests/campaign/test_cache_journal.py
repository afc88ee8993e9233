"""Tests for the content-addressed cache and the JSONL journal."""

import json

from repro.campaign import Journal, ResultCache

KEY = "ab" + "0" * 30


def record(key=KEY, **extra):
    rec = {"key": key, "status": "ok", "value": 1.5, "wall_s": 0.1}
    rec.update(extra)
    return rec


class TestCache:
    def test_roundtrip_and_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, record())
        assert cache.get(KEY) == record()
        assert KEY in cache
        # Two-level fan-out layout: <root>/<key[:2]>/<key>.json.
        assert (tmp_path / KEY[:2] / f"{KEY}.json").is_file()

    def test_load_returns_the_stored_text(self, tmp_path):
        cache = ResultCache(tmp_path)
        text = cache.put(KEY, record())
        assert text == json.dumps(record(), sort_keys=True)
        assert text == cache.path(KEY).read_text()
        assert cache.load(KEY) == (record(), text)
        assert cache.load("cd" + "1" * 30) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, record())
        cache.path(KEY).write_text("{truncated")
        assert cache.get(KEY) is None
        assert cache.load(KEY) is None

    def test_wrong_key_inside_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, record(key="f" * 32))
        assert cache.get(KEY) is None
        assert cache.load(KEY) is None

    def test_count_size_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = "cd" + "1" * 30
        cache.put(KEY, record())
        cache.put(other, record(key=other))
        assert cache.count() == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert cache.count() == 0
        assert cache.get(KEY) is None

    def test_missing_root_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.count() == 0
        assert cache.size_bytes() == 0
        assert cache.clear() == 0


class TestJournal:
    def test_append_and_completed(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(record())
        journal.append(record(key="f" * 32, status="error", error="boom"))
        done = journal.completed()
        assert set(done) == {KEY}
        assert done[KEY]["value"] == 1.5

    def test_latest_record_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(record(value=1.0))
        journal.append(record(value=2.0))
        assert journal.completed()[KEY]["value"] == 2.0

    def test_torn_final_line_is_skipped(self, tmp_path):
        """A campaign killed mid-write leaves a valid resumable prefix."""
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(record())
        with path.open("a") as fh:
            fh.write(json.dumps(record(key="f" * 32))[:17])  # torn write
        assert set(journal.completed()) == {KEY}
        assert len(list(journal.entries())) == 1

    def test_missing_file(self, tmp_path):
        journal = Journal(tmp_path / "absent.jsonl")
        assert journal.completed() == {}
        assert journal.tail() == []

    def test_tail_and_clear(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        for i in range(5):
            journal.append(record(value=float(i)))
        assert [r["value"] for r in journal.tail(2)] == [3.0, 4.0]
        journal.clear()
        assert journal.tail() == []
