"""The write-ahead journal: append-only, CRC-framed, optionally fsync'd.

One journal file per engine, holding a sequence of records.  Each
record is framed as::

    4 bytes  big-endian payload length
    4 bytes  big-endian CRC-32 of the payload
    N bytes  payload (UTF-8 JSON object with a ``"t"`` type tag)

The first record of every (re)created journal is an ``epoch`` record;
the epoch is bumped on each checkpoint, so a journal whose epoch is
older than the checkpoint's is *stale* — its records are already folded
into the checkpoint and the whole file is ignored on recovery (this
closes the crash window between checkpoint rename and journal
truncation, see checkpoint.py).

Reading is crash-tolerant: a torn tail (partial frame from a crash
mid-append) or a CRC mismatch ends the replay cleanly at the last good
record; the writer truncates the torn bytes away before appending
again.

``sync`` policies:

* ``"always"`` — fsync after every append (default; survives OS crash);
* ``"commit"`` — fsync only when :meth:`Journal.commit` is called (the
  manager calls it at detection completion — group commit);
* ``"none"`` — never fsync and never flush eagerly: appends sit in the
  stdio buffer until it fills or the journal closes (a clean shutdown —
  or the crash-injection harness, whose simulated kill closes the
  surviving file object — lands everything; a real ``kill -9`` may lose
  the buffered tail, which the recovery protocol tolerates the same way
  it tolerates a torn tail).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Iterator

from ..obs.metrics import Histogram

__all__ = ["Journal", "JournalReader", "JournalCorruption",
           "SimulatedCrash", "JOURNAL_NAME", "SYNC_POLICIES"]

JOURNAL_NAME = "wal.log"
SYNC_POLICIES = ("always", "commit", "none")

_HEADER = struct.Struct(">II")

# json.dumps(obj, separators=...) constructs a fresh JSONEncoder on
# every call; the journal appends several records per detection, so it
# keeps one compact C encoder for the life of the process
_encode_json = json.JSONEncoder(separators=(",", ":"),
                                ensure_ascii=False).encode


class JournalCorruption(RuntimeError):
    """Raised only for structurally impossible journals (not torn tails,
    which are an expected crash artifact and handled silently)."""


class SimulatedCrash(BaseException):
    """Raised by crash-injecting test journals to model a hard process
    kill mid-append.

    Derives from ``BaseException`` so no ``except Exception`` recovery
    path in the engine or services can accidentally swallow it — just
    like a real ``kill -9`` cannot be caught.
    """


class Journal:
    """Append-only journal writer for one engine.

    ``path`` is the journal *file* path.  Appends are atomic at the
    record level from the reader's point of view: a crash mid-append
    leaves a torn tail that the reader discards.
    """

    def __init__(self, path: str, sync: str = "always",
                 epoch: int = 0) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(f"unknown sync policy {sync!r}")
        self.path = path
        self.sync = sync
        self.epoch = epoch
        self.appended = 0
        #: duration (seconds) of every flush+fsync
        self.fsync_seconds = Histogram()
        #: also called with each flush+fsync's duration when set; the
        #: ledger harness (``benchmarks/ledger/deploy.py``) counts
        #: fsyncs through it
        self.on_fsync = None
        self._file = None
        self._open_for_append()

    # -- lifecycle -----------------------------------------------------------

    def _open_for_append(self) -> None:
        # discard a torn tail left by a previous crash: appending after
        # garbage would hide every later record from the reader
        valid_end, last_epoch = _scan_valid(self.path)
        if last_epoch is not None:
            self.epoch = last_epoch
        fresh = valid_end == 0
        self._file = open(self.path, "ab")
        if self._file.tell() != valid_end:
            self._file.truncate(valid_end)
            self._file.seek(valid_end)
        if fresh:
            self.append({"t": "epoch", "n": self.epoch})

    def restart(self, epoch: int) -> None:
        """Truncate to empty and begin a new epoch (post-checkpoint)."""
        self.epoch = epoch
        self._file.seek(0)
        self._file.truncate(0)
        self.append({"t": "epoch", "n": epoch})
        self.commit()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- writing -------------------------------------------------------------

    def append(self, record: dict) -> None:
        self.append_encoded(_encode_json(record))

    def append_encoded(self, payload_text: str) -> None:
        """Append one record whose JSON text the caller already built.

        The manager's hot-path records (``det``/``exec``/``done``) are
        hand-assembled strings; framing them here skips a generic
        ``json.dumps`` per record.
        """
        payload = payload_text.encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._write(frame)
        self.appended += 1
        if self.sync == "always":
            self._fsync()

    def _write(self, data: bytes) -> None:
        """Single low-level write; crash-injecting tests override this."""
        self._file.write(data)

    def commit(self) -> None:
        """Group-commit point (detection completion).

        ``"commit"`` flushes and fsyncs; ``"always"`` already fsync'd
        every append; ``"none"`` does nothing — its buffered appends
        reach the OS when the stdio buffer fills or the journal closes,
        which is the whole point of the policy.
        """
        if self.sync == "none":
            return
        if self.sync == "commit":
            self._fsync()
        else:
            self._file.flush()

    def _fsync(self) -> None:
        started = time.perf_counter()
        self._file.flush()
        os.fsync(self._file.fileno())
        elapsed = time.perf_counter() - started
        self.fsync_seconds.observe(elapsed)
        if self.on_fsync is not None:
            self.on_fsync(elapsed)


class JournalReader:
    """Crash-tolerant reader over one journal file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.truncated = False   # a torn/corrupt tail was discarded
        self.valid_end = 0
        self.epoch: int | None = None

    def records(self) -> Iterator[dict]:
        """Yield every intact record; stop cleanly at a torn tail."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                self.truncated = True
                break
            length, crc = _HEADER.unpack_from(data, offset)
            end = offset + _HEADER.size + length
            if end > len(data):
                self.truncated = True
                break
            payload = data[offset + _HEADER.size:end]
            if zlib.crc32(payload) != crc:
                self.truncated = True
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except ValueError:
                self.truncated = True
                break
            offset = end
            self.valid_end = offset
            if record.get("t") == "epoch":
                self.epoch = int(record.get("n", 0))
                continue
            yield record


def _scan_valid(path: str) -> tuple[int, int | None]:
    """Byte length of the intact record prefix, and the journal epoch."""
    reader = JournalReader(path)
    for _ in reader.records():
        pass
    return reader.valid_end, reader.epoch
