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
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.durable import atomic_write

__all__ = ["ResultCache", "ShardedResultCache"]


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
        self._stats_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        self._counters = {
            "hits": 0, "misses": 0, "evictions": 0, "corrupt_entries": 0,
        }

    # -- pickling (the process executor ships the cache to workers) ----
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_stats_lock"], state["_evict_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()
        self._evict_lock = threading.Lock()

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
    def get_science(self, science_key: str) -> Optional[Any]:
        result = self._load(self.science_path(science_key))
        if result is None:
            self._bump("misses")
        else:
            self._bump("hits")
            self._mark_used(self.science_path(science_key))
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
        science = self._load(self.science_path(payload["science_key"]))
        if science is None:
            self._bump("misses")
            self._bump("evictions")
            self.job_path(key).unlink(missing_ok=True)
            return None
        self._bump("hits")
        self._mark_used(self.job_path(key))
        self._mark_used(self.science_path(payload["science_key"]))
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
