"""Checkpoint store: digests, artifact integrity, staleness."""

import hashlib
import json

import pytest

from repro.errors import CheckpointError
from repro.resilience import CheckpointStore, chain_digest, file_digest


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path)


class TestChainDigest:
    def test_deterministic(self):
        assert chain_digest(None, "a", "b") == chain_digest(None, "a",
                                                            "b")

    def test_order_and_boundaries_matter(self):
        assert chain_digest(None, "a", "b") != chain_digest(None, "b",
                                                            "a")
        assert chain_digest(None, "ab") != chain_digest(None, "a", "b")

    def test_chaining(self):
        d1 = chain_digest(None, "step1")
        assert chain_digest(d1, "step2") != chain_digest(None, "step2")


class TestStore:
    def test_round_trip(self, store, tmp_path):
        store.write("out.bin", b"artifact")
        saved = store.save("step1", "d" * 64, state={"key": "value"})
        loaded = store.load("step1")
        assert loaded.digest == saved.digest
        assert loaded.state == {"key": "value"}
        assert loaded.artifacts == {"out.bin": file_digest(
            tmp_path / "out.bin")}

    def test_save_takes_the_files_written_since_the_last_save(
            self, store, tmp_path):
        store.write("a/one.txt", "one")
        first = store.save("step1", "d")
        store.write("a/b/two.bin", b"two")
        store.write("three.txt", "three")
        second = store.save("step2", "d")
        assert list(first.artifacts) == ["a/one.txt"]
        assert sorted(second.artifacts) == ["a/b/two.bin", "three.txt"]
        assert (tmp_path / "a" / "b" / "two.bin").read_bytes() == b"two"
        assert store.save("step3", "d").artifacts == {}

    def test_record_lists_writes_and_checkpoints(self, store, tmp_path):
        store.write("out.bin", b"artifact")
        store.save("step1", "d")
        on_disk = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                   for p in tmp_path.rglob("*") if p.is_file()}
        assert store.listing() == [
            {"path": rel, "bytes": len(data),
             "sha256": hashlib.sha256(data).hexdigest()}
            for rel, data in sorted(on_disk.items())]
        assert [row["path"] for row in store.listing()] == \
            ["checkpoints/step1.json", "out.bin"]

    def test_checkpoint_is_compact_json(self, store):
        store.save("step1", "d", state={"key": "value"})
        text = (store.directory / "step1.json").read_text()
        assert text.count("\n") == 1 and ": " not in text

    def test_valid_happy_path(self, store):
        store.write("out.bin", b"artifact")
        store.save("step1", "d" * 64)
        assert store.valid("step1", "d" * 64) is not None

    def test_valid_restores_into_a_new_record(self, store, tmp_path):
        store.write("out.bin", b"artifact")
        store.save("step1", "d")
        written = store.listing()
        resumed = CheckpointStore(tmp_path)
        assert resumed.listing() == []
        assert resumed.valid("step1", "d") is not None
        assert resumed.listing() == written

    def test_missing_checkpoint(self, store):
        assert store.load("nope") is None
        assert store.valid("nope", "x") is None

    def test_stale_digest_rejected(self, store):
        store.save("step1", "old-digest")
        assert store.valid("step1", "new-digest") is None

    def test_modified_artifact_rejected(self, store, tmp_path):
        store.write("out.bin", b"artifact")
        store.save("step1", "d" * 64)
        (tmp_path / "out.bin").write_bytes(b"tampered")
        resumed = CheckpointStore(tmp_path)
        assert resumed.valid("step1", "d" * 64) is None
        assert resumed.listing() == []

    def test_deleted_artifact_rejected(self, store, tmp_path):
        store.write("out.bin", b"artifact")
        store.save("step1", "d" * 64)
        (tmp_path / "out.bin").unlink()
        assert store.valid("step1", "d" * 64) is None

    def test_corrupt_json_ignored_by_valid(self, store, tmp_path):
        store.save("step1", "d")
        (store.directory / "step1.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            store.load("step1")
        assert store.valid("step1", "d") is None

    def test_malformed_artifacts_ignored_by_valid(self, store):
        store.save("step1", "d")
        doc = json.loads((store.directory / "step1.json").read_text())
        doc["artifacts"] = ["abc"]
        (store.directory / "step1.json").write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            store.load("step1")
        assert store.valid("step1", "d") is None

    def test_bad_schema_rejected(self, store):
        store.save("step1", "d")
        doc = json.loads((store.directory / "step1.json").read_text())
        doc["schema"] = 999
        (store.directory / "step1.json").write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            store.load("step1")
