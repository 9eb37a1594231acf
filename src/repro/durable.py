"""The one durable-log primitive: an fsynced journal plus a snapshot.

:class:`AppendLog` persists a stream of JSON events under a directory::

    <root>/journal.jsonl    one ``[seq, event]`` JSON line per append
    <root>/snapshot.json    ``{"events": [...], "seq": N}``: older history

The durability rules, each stated (and implemented) once, here:

* **Journal before acknowledge.**  ``append`` returns only after the
  line is written, flushed and fsynced (and the journal's own directory
  entry with it, the first time a process appends).
* **A final line without its newline was never acknowledged.**  Appends
  are sequential, so only the tail can be torn.  Readers skip such a
  tail *whether or not it parses* and never touch the file; the first
  append of a process (and the next one after a failed append) drops it
  — truncate to the last newline, fsync — so a new line is never glued
  onto a fragment.  An unparseable line *with* its newline is real
  corruption: a strict load raises, a tolerant one reports and goes on.
* **Compaction order.**  ``compact`` writes the snapshot to a temp file,
  fsyncs it, ``os.replace``-s it in, fsyncs the directory, and only then
  truncates the journal (and fsyncs that): the disk always holds the
  full history.  A kill between replace and truncate leaves journal
  lines the snapshot already folded; every line carries a sequence
  number and the snapshot the highest one it folded, so replay skips
  them — exactly once.  Lines with no number (journals older than the
  numbers) are always replayed.
* **One writer.**  Sequence numbers live in the writing process: one
  root, one appending process.

:func:`atomic_write` is the temp-file + ``os.replace`` swap on its own.
With ``fsync=False`` no reader sees a half-written file but a power loss
may lose or empty it — right for re-derivable data (cache entries,
worker payloads, ledger entries), whose readers treat an unreadable file
as a miss.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["AppendLog", "atomic_write", "corrupt"]


def _fsync_dir(path: Union[str, Path]) -> None:
    """A created or replaced name is durable only once its directory is."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: bytes, fsync: bool) -> None:
    """Replace ``path`` with ``data``: readers see the old or the new
    file; ``fsync=True`` also makes content and name survive power loss."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


def _read(path: Path) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def corrupt(msg: str, errors: Optional[List[str]]) -> None:
    """Strict loads (no ``errors`` sink) raise; tolerant ones report."""
    if errors is None:
        raise ValueError(msg) from None
    errors.append(msg)


class AppendLog:
    """Append-only JSONL journal with atomic snapshot compaction."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        os.makedirs(self.root, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self._lock = threading.Lock()
        #: Last sequence on disk; ``None`` = tail not repaired yet.
        self._seq: Optional[int] = None

    # -- writing -------------------------------------------------------
    def _recover(self) -> None:
        """Drop the never-acknowledged tail; learn the last sequence."""
        seq = (self.snapshot() or {}).get("seq", 0)
        raw = _read(self.journal_path) or b""
        keep = raw.rfind(b"\n") + 1
        with open(self.journal_path, "ab") as fh:  # creates it if missing
            if keep < len(raw):
                fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(self.root)
        for line_seq, _ in self._journal(raw, errors=[]):
            seq = max(seq, line_seq or 0)
        self._seq = seq

    def append(self, event: Dict[str, Any]) -> None:
        """Durably append one event (flush + fsync before returning)."""
        with self._lock:
            if self._seq is None:
                self._recover()
            seq = self._seq + 1
            line = json.dumps([seq, event], sort_keys=True) + "\n"
            self._seq = None  # a failed write may leave a fragment behind
            with open(self.journal_path, "ab") as fh:
                fh.write(line.encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
            self._seq = seq

    def compact(self, state: Dict[str, Any]) -> None:
        """Atomically swap in ``state`` as the snapshot, then truncate
        the journal; ``state["events"]`` must fold every journaled event."""
        with self._lock:
            if self._seq is None:
                self._recover()
            blob = json.dumps({**state, "seq": self._seq}, sort_keys=True)
            atomic_write(self.snapshot_path, blob.encode("utf-8"), fsync=True)
            with open(self.journal_path, "wb") as fh:
                fh.flush()
                os.fsync(fh.fileno())

    # -- reading (never mutates) ---------------------------------------
    def snapshot(self, errors: Optional[List[str]] = None
                 ) -> Optional[Dict[str, Any]]:
        """The compacted state, or ``None``; corrupt raises or reports."""
        raw = _read(self.snapshot_path)
        try:
            return None if raw is None else json.loads(raw)
        except ValueError as exc:
            corrupt(f"corrupt snapshot {self.snapshot_path}: {exc}", errors)
            return None

    def _journal(self, raw: bytes, errors: Optional[List[str]]
                 ) -> Iterator[Tuple[Optional[int], Dict[str, Any]]]:
        """``(seq, event)`` for every acknowledged line of journal ``raw``."""
        raw = raw[: raw.rfind(b"\n") + 1]  # torn tail skipped
        try:
            lines = raw.decode("utf-8").split("\n")
        except UnicodeDecodeError:  # per line, to name the one that rotted
            lines = raw.split(b"\n")
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                seq, event = rec if isinstance(rec, list) else (None, rec)
            except ValueError:
                corrupt(f"corrupt journal line {number} in {self.journal_path}", errors)
                continue
            yield seq, event

    def events(self, errors: Optional[List[str]] = None
               ) -> Iterator[Dict[str, Any]]:
        """Every durable event: snapshot fold first, then the journal.
        Strict by default (corruption raises ``ValueError``); given an
        ``errors`` list, corruption is reported there and skipped."""
        snap = self.snapshot(errors) or {}
        yield from snap.get("events", [])
        folded = snap.get("seq", 0)
        raw = _read(self.journal_path) or b""
        for seq, event in self._journal(raw, errors):
            if seq is None or seq > folded:
                yield event
