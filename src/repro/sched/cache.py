"""Content-addressed on-disk result cache for campaign jobs.

:class:`ResultCache` — the reference
:class:`~repro.sched.interfaces.ResultStore` — lays out entries under
its root::

    science/shard-NNN/<k>.pkl   one AirshedResult per science key
    jobs/shard-NNN/<k>.pkl      job payload: spec, science key, timing
    scratch/<science_key>/      in-flight checkpoint chunks (see runner)

Science results (the expensive sequential numerics) are stored once per
*science* key; a job entry references its science key instead of
duplicating the arrays, so a machine-comparison grid shares one science
pickle across all its replay jobs.  Keys are the
:class:`~repro.sched.job.JobSpec` content hashes, and builders are
deterministic, so a cache hit returns a bitwise-identical result.

Writes go through :func:`repro.durable.atomic_write` without fsync: a
campaign killed mid-write never leaves a truncated entry behind, and an
entry lost to a power cut is re-derived.  Unreadable entries are misses,
removed on the get path; :meth:`~ResultCache.iter_jobs` merely skips
them.  Every instance keeps hit/miss/eviction/corrupt tallies, exposed
by :meth:`~ResultCache.stats` together with per-shard occupancy.

A science entry is a pure function of its key, so each instance also
keeps the few it decoded last in memory (see :class:`ResultCache`): a
read of one of those costs a ``stat``, not an unpickle.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.durable import atomic_write
from repro.model.results import freeze_arrays

__all__ = ["ResultCache", "ShardedResultCache"]

#: Entry-file bytes the decoded-science memo of one cache may hold.  A
#: wave touches at most ``workers`` science keys and an LA entry is
#: 1-5 MB, so this keeps a daemon's working set and bounds its memory.
MEMO_BYTES = 32 << 20


def _signature(path: Path) -> Optional[Tuple[int, int, int]]:
    """(inode, size, mtime) of an entry file, ``None`` without one: what
    tells one version of it from the next.  Writers replace entries
    (:func:`~repro.durable.atomic_write`: a new inode); damage in place
    changes the size or the mtime."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


class ResultCache:
    """Sharded, optionally size-capped, LRU-evicting result store.

    ``shards`` is a fixed count; an entry's shard is a stable function
    of its content hash (``int(key[:8], 16) % shards``), so occupancy
    per shard is inspectable and rebalancing never happens behind a
    running service's back.  ``max_bytes`` is the total on-disk budget
    across science and job entries (scratch is exempt — in-flight
    checkpoints must survive); ``None`` means unbounded.  Reads refresh
    an entry's mtime, and a put that pushes the total over budget evicts
    the least recently *used* entries — job payloads before science
    results (jobs are cheap to lose: they re-derive from science),
    oldest access first — until the cache fits.  The entry just written
    is never evicted by its own put.

    **The decoded-science memo.**  ``get_science`` and ``get_job`` go
    through one in-memory map ``science_key -> decoded entry``.  Its
    invariants: (1) *validated on every access* — a ``stat`` of the
    entry file must match the (inode, size, mtime) the entry was decoded
    from, so an entry that was evicted, unlinked, replaced or damaged on
    disk is never served from memory and is counted exactly as a cold
    read would count it; (2) *recency refreshed* — a memory hit still
    touches the file, so on-disk LRU eviction sees the access; (3)
    *bounded* — at most :data:`MEMO_BYTES` of entry files, least
    recently used dropped first, a larger entry never retained; (4)
    *read-only* — every array of a decoded entry is non-writeable, one
    object serves all threads; (5) *not shipped* — pickling the cache
    (the process executor does) leaves the memo behind.  ``hits`` and
    ``misses`` mean what they always did (a memory-served entry is a
    hit); ``decodes`` / ``decoded_bytes`` count the science entries
    actually unpickled and their file sizes.
    """

    def __init__(self, root: Union[str, Path], shards: int = 16,
                 max_bytes: Optional[int] = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.root = Path(root)
        self.shards = int(shards)
        self.max_bytes = max_bytes
        self._counters = {
            "hits": 0, "misses": 0, "evictions": 0, "corrupt_entries": 0,
            "decodes": 0, "decoded_bytes": 0,
        }
        self._unshipped()

    def _unshipped(self) -> None:
        """The state no pickle carries: locks and the decoded memo."""
        self._stats_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        self._memo_lock = threading.Lock()
        #: science_key -> (file signature, decoded entry), LRU first.
        self._memo: "OrderedDict[str, Tuple[Tuple[int, int, int], Any]]" = (
            OrderedDict())

    # -- pickling (the process executor ships the cache to workers) ----
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in ("_stats_lock", "_evict_lock", "_memo_lock", "_memo"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._unshipped()

    # -- stats ---------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def _entries(self, kind: str) -> Iterator[Tuple[Path, os.stat_result]]:
        """``(path, stat)`` of every entry of one kind, in path order."""
        base = self.root / kind
        if base.is_dir():
            for path in sorted(base.glob("*/*.pkl")):
                try:
                    yield path, path.stat()
                except OSError:  # raced with an eviction
                    continue

    def stats(self) -> Dict[str, Any]:
        """Counter totals plus on-disk occupancy, per kind and shard."""
        kinds: Dict[str, Any] = {}
        for kind in ("science", "jobs"):
            shards: Dict[str, Dict[str, int]] = {}
            for path, st in self._entries(kind):  # path order: sorted shards
                shard = shards.setdefault(
                    path.parent.name, {"entries": 0, "bytes": 0}
                )
                shard["entries"] += 1
                shard["bytes"] += st.st_size
            kinds[kind] = {
                "entries": sum(s["entries"] for s in shards.values()),
                "bytes": sum(s["bytes"] for s in shards.values()),
                "shards": shards,
            }
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "root": str(self.root),
            "counters": counters,
            "kinds": kinds,
            "total_bytes": sum(k["bytes"] for k in kinds.values()),
            "total_entries": sum(k["entries"] for k in kinds.values()),
        }

    # -- paths ---------------------------------------------------------
    def _entry(self, kind: str, key: str) -> Path:
        shard = f"shard-{int(key[:8], 16) % self.shards:03d}"
        return self.root / kind / shard / f"{key}.pkl"

    def science_path(self, science_key: str) -> Path:
        return self._entry("science", science_key)

    def job_path(self, key: str) -> Path:
        return self._entry("jobs", key)

    def scratch_dir(self, science_key: str) -> Path:
        """Checkpoint scratch area for one in-flight science run."""
        d = self.root / "scratch" / science_key
        d.mkdir(parents=True, exist_ok=True)
        return d

    def clear_scratch(self, science_key: str) -> None:
        d = self.root / "scratch" / science_key
        if d.is_dir():
            for p in d.iterdir():
                p.unlink()
            d.rmdir()

    # -- low-level pickle I/O ------------------------------------------
    def _load(self, path: Path, drop: bool = True) -> Optional[Any]:
        if not path.is_file():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # A corrupt entry is a miss; drop it so it gets rebuilt.
            self._bump("corrupt_entries")
            if drop:
                path.unlink(missing_ok=True)
            return None

    def _store(self, path: Path, obj: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(path, blob, fsync=False)
        if self.max_bytes is not None:
            self._evict(keep=path)

    def _mark_used(self, path: Path) -> None:
        """A read refreshes the entry's LRU recency (its mtime)."""
        try:
            os.utime(path)
        except OSError:  # raced with an eviction: recency is best-effort
            pass

    # -- science results -----------------------------------------------
    def _science(self, science_key: str) -> Optional[Any]:
        """The decoded entry — from memory while the file is still the
        one it was decoded from — or ``None``; an access refreshes the
        file's recency either way."""
        path = self.science_path(science_key)
        with self._memo_lock:
            slot = self._memo.get(science_key)
            if slot is not None:
                if slot[0] == _signature(path):
                    self._remember(science_key, path, *slot)
                    return slot[1]
                del self._memo[science_key]  # the file changed under it
        read = _signature(path)
        result = None if read is None else self._load(path)
        if result is None:
            return None
        self._bump("decodes")
        self._bump("decoded_bytes", read[1])
        freeze_arrays(result)
        with self._memo_lock:
            self._remember(science_key, path, read, result)
            while sum(sig[1] for sig, _ in self._memo.values()) > MEMO_BYTES:
                self._memo.popitem(last=False)
        return result

    def _remember(self, science_key: str, path: Path,
                  read: Tuple[int, int, int], result: Any) -> None:
        """Touch the entry and keep ``result`` under the file's new
        signature — if the file touched is still the one ``result`` was
        read from (signature ``read``).  Holding the memo lock across
        validate, touch and record keeps one thread's touch from looking
        like a rewrite to the next."""
        self._mark_used(path)
        now = _signature(path)
        if now is None or now[:2] != read[:2]:
            self._memo.pop(science_key, None)
            return
        self._memo[science_key] = (now, result)
        self._memo.move_to_end(science_key)

    def get_science(self, science_key: str) -> Optional[Any]:
        result = self._science(science_key)
        self._bump("misses" if result is None else "hits")
        return result

    def put_science(self, science_key: str, result: Any) -> None:
        self._store(self.science_path(science_key), result)

    # -- job entries ---------------------------------------------------
    def get_job(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored job payload, or ``None`` on any kind of miss.

        The payload references its science result by key; if that
        science entry has been evicted the job entry is useless and is
        reported (and removed) as a miss.
        """
        payload = self._load(self.job_path(key))
        if payload is None:
            self._bump("misses")
            return None
        science = self._science(payload["science_key"])
        if science is None:
            self._bump("misses")
            self._bump("evictions")
            self.job_path(key).unlink(missing_ok=True)
            return None
        self._bump("hits")
        self._mark_used(self.job_path(key))
        payload["result"] = science
        return payload

    def put_job(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a job payload (must carry ``science_key``; the science
        result itself goes through :meth:`put_science`)."""
        payload = dict(payload)
        payload.pop("result", None)
        if "science_key" not in payload:
            raise ValueError("job payload must reference a science_key")
        self._store(self.job_path(key), payload)

    def iter_jobs(self) -> Iterator[Dict[str, Any]]:
        """Yield every readable job payload (for ``campaign status``).

        A status scan is read-only and best-effort: an entry that does
        not unpickle to a payload dict is *skipped* and tallied in
        ``corrupt_entries`` — never deleted, never aborting the scan.
        """
        for path, _ in self._entries("jobs"):
            payload = self._load(path, drop=False)
            if isinstance(payload, dict):
                yield payload
            elif payload is not None:
                self._bump("corrupt_entries")

    # -- size-capped eviction ------------------------------------------
    def _evict(self, keep: Path) -> None:
        """Evict in the documented order (ties broken by path, for
        determinism) until the cache fits; never ``keep``."""
        with self._evict_lock:
            ranked = sorted(
                (rank, st.st_mtime, str(path), st.st_size)
                for rank, kind in enumerate(("jobs", "science"))
                for path, st in self._entries(kind)
            )
            total = sum(size for _, _, _, size in ranked)
            for _, _, victim, size in ranked:
                if total <= self.max_bytes:
                    break
                if victim == str(keep):
                    continue
                try:
                    os.unlink(victim)
                except OSError:
                    continue
                self._bump("evictions")
                total -= size


#: The service-side name of the one cache class.
ShardedResultCache = ResultCache
