"""Flow checkpoints and the build's artifact record.

:class:`CheckpointStore` is the only writer of a build's workdir: each
:meth:`~CheckpointStore.write` records the file's SHA-256 and size from
the bytes in hand.  That record lists the files this run wrote or
restored (the run manifest's ``artifacts``); a stale file an earlier
run left in the workdir is not listed.

Each completed flow step saves ``workdir/checkpoints/<step>.json``: the
step's *chained input digest* (run inputs and every upstream step's
configuration), the digest of each file written since the previous
checkpoint, and a ``state`` dict downstream steps rehydrate from.  On
``condor build --resume`` a step is skipped iff its digest matches the
recomputed chain *and* every artifact re-hashes to its recorded digest
on disk; the first stale, missing or failed step re-runs, and every
step after it.  A skipped step's files and checkpoint join the record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.util.logging import get_logger

__all__ = ["Checkpoint", "CheckpointStore", "chain_digest", "file_digest"]

_log = get_logger("resilience.checkpoint")

CHECKPOINT_SCHEMA = 1
CHECKPOINT_DIRNAME = "checkpoints"


def chain_digest(prev: str | None, *parts: str) -> str:
    """Extend a digest chain: ``sha256(prev || part || ...)``."""
    h = hashlib.sha256()
    if prev:
        h.update(prev.encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Checkpoint:
    """One step's persisted completion record."""

    step: str
    digest: str
    #: Workdir-relative artifact path -> sha256 hex digest.
    artifacts: dict[str, str] = field(default_factory=dict)
    state: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"schema": CHECKPOINT_SCHEMA, "step": self.step,
                "digest": self.digest, "artifacts": self.artifacts,
                "state": self.state}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Checkpoint":
        try:
            if doc["schema"] != CHECKPOINT_SCHEMA:
                raise CheckpointError(
                    f"unsupported checkpoint schema {doc['schema']!r}")
            return cls(step=doc["step"], digest=doc["digest"],
                       artifacts=dict(doc["artifacts"]),
                       state=dict(doc.get("state", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint document: {exc}") from exc


class CheckpointStore:
    """The writer of one run's workdir and its ``checkpoints/``."""

    def __init__(self, workdir: Path | str):
        self.workdir = Path(workdir)
        self.directory = self.workdir / CHECKPOINT_DIRNAME
        #: Workdir-relative path -> (sha256 hex digest, size in bytes)
        #: of every file this run wrote or restored.
        self.record: dict[str, tuple[str, int]] = {}
        #: Path -> digest of the files written since the last checkpoint.
        self._pending: dict[str, str] = {}

    def _rel(self, step: str) -> str:
        return f"{CHECKPOINT_DIRNAME}/{step}.json"

    # -- writing --------------------------------------------------------------

    def _put(self, rel: str, data: bytes | str) -> str:
        if isinstance(data, str):
            data = data.encode()
        path = self.workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        self.record[rel] = (digest, len(data))
        return digest

    def write(self, rel: str, data: bytes | str) -> None:
        """Write ``data`` (text is UTF-8 encoded) to the workdir-relative
        path ``rel``, creating parent directories, and record it for the
        next :meth:`save`."""
        self._pending[rel] = self._put(rel, data)

    def save(self, step: str, digest: str, *,
             state: dict[str, Any] | None = None) -> Checkpoint:
        """Record a completed step: its artifacts are exactly the files
        :meth:`write` wrote since the previous checkpoint."""
        checkpoint = Checkpoint(step=step, digest=digest,
                                artifacts=self._pending, state=state or {})
        self._pending = {}
        self._put(self._rel(step), json.dumps(
            checkpoint.to_dict(), separators=(",", ":")) + "\n")
        return checkpoint

    def listing(self) -> list[dict[str, Any]]:
        """The record as manifest rows, sorted by path."""
        return [{"path": rel, "bytes": size, "sha256": digest}
                for rel, (digest, size) in sorted(self.record.items())]

    # -- reading --------------------------------------------------------------

    def _read(self, step: str) -> tuple[Checkpoint, bytes] | None:
        try:
            raw = (self.workdir / self._rel(step)).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return None
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self._rel(step)}: {exc}") from exc
        return Checkpoint.from_dict(doc), raw

    def load(self, step: str) -> Checkpoint | None:
        read = self._read(step)
        return read[0] if read is not None else None

    def valid(self, step: str, digest: str) -> Checkpoint | None:
        """The checkpoint iff it is fresh: digest matches and every
        artifact is intact on disk.  Returns ``None`` otherwise.  A fresh
        checkpoint's artifacts and its own file join :attr:`record`."""
        try:
            read = self._read(step)
        except CheckpointError as exc:
            _log.warning("ignoring %s: %s", step, exc)
            return None
        if read is None:
            return None
        checkpoint, raw = read
        if checkpoint.digest != digest:
            _log.info("checkpoint %s is stale (inputs changed)", step)
            return None
        restored = {}
        for rel, expected in checkpoint.artifacts.items():
            try:
                data = (self.workdir / rel).read_bytes()
            except OSError:
                data = None
            if data is None or hashlib.sha256(data).hexdigest() != expected:
                _log.info("checkpoint %s: artifact %s missing or"
                          " modified", step, rel)
                return None
            restored[rel] = (expected, len(data))
        self.record.update(restored)
        self.record[self._rel(step)] = (hashlib.sha256(raw).hexdigest(),
                                        len(raw))
        return checkpoint
