"""The traced run: timing proxies on the service's constructor seams.

An in-process :class:`~repro.service.daemon.CampaignService` is built
with a :class:`TimedStore` (``cache=``), a :class:`TimedJobStore`
(``store=``), a :class:`TimedExecutor` (``executor=``) and a tracer
whose counter set timestamps the two calls the daemon makes at wave
boundaries (``tracer=``); the HTTP server is the real one.  Spans stay
in memory (:class:`SpanLog`) until the round ends; :func:`attribute`
then splits every campaign's latency over the layers.

Attribution is per campaign, so the shares answer "where did a tenant's
waiting go": a campaign's latency is cut into the submit round trip
(journal inside it, HTTP around it), the time none of its jobs was in
the running wave (queue wait), its share of each wave it rode
(cache I/O, execute, journal, plan, and the wave's own remainder) and
the poll lag after its last job.  ``self`` is the residual, so the
shares sum to one.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.observe.counters import CounterSet
from repro.observe.export import write_chrome_trace
from repro.observe.tracer import Tracer
from repro.sched.cache import ShardedResultCache
from repro.sched.costmodel import CampaignCostModel
from repro.sched.executors import build_executor
from repro.sched.job import JobSpec
from repro.sched.planner import LPTPlanner
from repro.service.client import ServiceClient
from repro.service.daemon import CampaignService, build_http_server
from repro.service.jobstore import JournalJobStore

from benchmarks.e2e.harness import WORKERS
from benchmarks.e2e.loadgen import Sample

__all__ = ["CATEGORIES", "SpanLog", "TracedService", "attribute",
           "export_chrome_trace", "submit_appends"]

#: The ``trace.*_share`` buckets, residual last.
CATEGORIES = ("queue_wait", "plan", "execute", "cache_io", "journal",
              "http", "self")


@dataclass
class Rec:
    name: str
    layer: str
    start: float
    end: float
    thread: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Thread-safe in-memory span list on one monotonic clock."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.recs: List[Rec] = []
        self._lock = threading.Lock()

    def add(self, name: str, layer: str, start: float, end: float,
            **attrs: Any) -> None:
        rec = Rec(name, layer, start, end, threading.get_ident(), attrs)
        with self._lock:
            self.recs.append(rec)

    def since(self, t0: float) -> List[Rec]:
        with self._lock:
            return sorted((r for r in self.recs if r.start >= t0),
                          key=lambda r: r.start)


# ---------------------------------------------------------------------------
# proxies
# ---------------------------------------------------------------------------
class TimedStore:
    """A :class:`~repro.sched.interfaces.ResultStore` that times itself."""

    def __init__(self, inner: ShardedResultCache, log: SpanLog):
        self.inner = inner
        self._log = log

    def _timed(self, op: str, fn, *args, **attrs):
        t0 = self._log.clock()
        out = fn(*args)
        self._log.add(f"cache.{op}", "sched.cache", t0, self._log.clock(),
                      hit=out is not None, **attrs)
        return out

    def get_science(self, science_key: str):
        return self._timed("get_science", self.inner.get_science,
                           science_key, key=science_key)

    def put_science(self, science_key: str, result) -> None:
        self._timed("put_science", self.inner.put_science, science_key,
                    result, key=science_key)

    def get_job(self, key: str):
        return self._timed("get_job", self.inner.get_job, key, key=key)

    def put_job(self, key: str, payload) -> None:
        self._timed("put_job", self.inner.put_job, key, payload, key=key)

    def stats(self):
        return self._timed("stats", self.inner.stats)

    def iter_jobs(self):
        return self.inner.iter_jobs()

    def scratch_dir(self, science_key: str) -> Path:
        return self._timed("scratch_dir", self.inner.scratch_dir,
                           science_key)

    def clear_scratch(self, science_key: str) -> None:
        self._timed("clear_scratch", self.inner.clear_scratch, science_key)


class TimedJobStore:
    """A :class:`~repro.sched.interfaces.JobStore` that times itself."""

    def __init__(self, inner: JournalJobStore, log: SpanLog):
        self.inner = inner
        self._log = log

    def append(self, event: Dict[str, Any]) -> None:
        t0 = self._log.clock()
        self.inner.append(event)
        self._log.add("journal.append", "service.jobstore", t0,
                      self._log.clock(), type=event.get("type"),
                      cid=event.get("cid"), key=event.get("key"))

    def events(self):
        return self.inner.events()

    def compact(self, state) -> None:
        self.inner.compact(state)

    def snapshot(self):
        return self.inner.snapshot()


class TimedExecutor:
    """An :class:`~repro.sched.interfaces.Executor` that times attempts."""

    def __init__(self, log: SpanLog):
        self._inner = build_executor("thread")   # the daemon's default
        self.name = self._inner.name
        self.concurrent = self._inner.concurrent
        self._log = log

    def run_attempt(self, spec, attempt, env):
        t0 = self._log.clock()
        try:
            return self._inner.run_attempt(spec, attempt, env)
        finally:
            self._log.add("execute", "sched.executors", t0,
                          self._log.clock(), key=spec.key)


class _MarkingCounters(CounterSet):
    """The daemon observes every item's queue wait as a wave starts and
    bumps ``service:waves`` when the wave's runner returns; stamping the
    two calls gives the wave boundaries without touching the daemon."""

    def __init__(self, log: SpanLog):
        super().__init__()
        self._log = log

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        if name.endswith(":queue_wait_s"):
            now = self._log.clock()
            self._log.add("mark.queue_wait", "service.queue", now, now,
                          wait_s=value)

    def inc(self, name: str, amount: float = 1.0) -> None:
        super().inc(name, amount)
        if name == "service:waves":
            now = self._log.clock()
            self._log.add("mark.wave_ran", "service.daemon", now, now)


class TracedService:
    """The in-process service plus its real HTTP front end."""

    def __init__(self, root: Path):
        self.log = SpanLog()
        self.cache = ShardedResultCache(root / "cache")
        self.journal = JournalJobStore(root)
        tracer = Tracer()
        tracer.counters = _MarkingCounters(self.log)
        # An empty Tracer is falsy (it has __len__) and the service's
        # ``tracer or Tracer()`` would drop it: hand it over non-empty.
        tracer.emit("bench:traced-service", "region", 0.0, 0.0)
        self.service = CampaignService(
            root, cache=TimedStore(self.cache, self.log),
            store=TimedJobStore(self.journal, self.log),
            workers=WORKERS, executor=TimedExecutor(self.log),
            tracer=tracer,
        )
        self.server = build_http_server(self.service)
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()
        self.service.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}", timeout=30.0)

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()
        self.service.stop(compact=False)


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------
@dataclass
class Wave:
    start: float
    ran: Optional[float] = None    # the runner returned
    end: float = 0.0               # the last delivery was journaled
    waits: List[float] = field(default_factory=list)
    cids: Set[str] = field(default_factory=set)
    keys: List[str] = field(default_factory=list)
    comp: Dict[str, float] = field(default_factory=dict)
    plan_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def find_waves(recs: List[Rec]) -> List[Wave]:
    """Wave boundaries from the counter marks and the delivery appends."""
    waves: List[Wave] = []
    cur: Optional[Wave] = None
    for r in recs:
        if r.name == "mark.queue_wait":
            if cur is None or cur.ran is not None:
                cur = Wave(start=r.start, end=r.start)
                waves.append(cur)
            cur.waits.append(r.attrs["wait_s"])
        elif cur is None:
            continue
        elif r.name == "mark.wave_ran":
            cur.ran = cur.end = r.start
        elif (r.name == "journal.append" and cur.ran is not None
              and r.attrs["type"] in ("job", "done")):
            cur.end = r.end
            if r.attrs["type"] == "job":
                cur.cids.add(r.attrs["cid"])
                cur.keys.append(r.attrs["key"])
    return [w for w in waves if w.ran is not None]


def _science_gaps(recs: Iterable[Rec]) -> List[Rec]:
    """Miss -> put of one science key on one thread is compute: the
    batched prefetch runs the numerics outside any executor attempt."""
    open_miss: Dict[Tuple[int, str], float] = {}
    out = []
    for r in recs:
        if r.name == "cache.get_science" and not r.attrs["hit"]:
            open_miss.setdefault((r.thread, r.attrs["key"]), r.end)
        elif r.name == "cache.put_science":
            t0 = open_miss.pop((r.thread, r.attrs["key"]), None)
            if t0 is not None:
                out.append(Rec("science", "model", t0, r.start, r.thread))
    return out


_LEAF = {"sched.cache": "cache_io", "service.jobstore": "journal"}


def _wave_composition(wave: Wave, recs: List[Rec]) -> Dict[str, float]:
    """Split the wave's wall time over the categories.

    Each instant belongs to the innermost span of every thread working
    for the wave (cache and journal calls are leaves, execute contains
    them); threads active together share the instant equally.  Instants
    with nothing open are the wave's own bookkeeping (``idle`` here,
    split into plan and self by the caller).
    """
    events: List[Tuple[float, int, int, str]] = []
    for r in recs:
        if r.name == "cache.stats" or r.attrs.get("type") == "submit":
            continue   # HTTP threads, not the wave
        cat = _LEAF.get(r.layer) or (
            "execute" if r.name in ("execute", "science") else None)
        lo, hi = max(r.start, wave.start), min(r.end, wave.end)
        if cat is None or hi <= lo:
            continue
        events.append((lo, +1, r.thread, cat))
        events.append((hi, -1, r.thread, cat))
    events.sort(key=lambda e: (e[0], e[1]))
    comp: Dict[str, float] = defaultdict(float)
    active: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    prev = wave.start
    for t, delta, thread, cat in events:
        _spread(comp, active, t - prev)
        prev = t
        active[thread][cat] += delta
    _spread(comp, active, wave.end - prev)
    return comp


def _spread(comp, active, dt: float) -> None:
    if dt <= 0:
        return
    cats = []
    for counts in active.values():
        open_cats = [c for c, n in counts.items() if n > 0]
        if open_cats:
            leaf = [c for c in open_cats if c != "execute"]
            cats.append(leaf[0] if leaf else "execute")
    if not cats:
        comp["idle"] += dt
    for cat in cats:
        comp[cat] += dt / len(cats)


class _Presence:
    """Answers the cost model's only cache question from the record."""

    def __init__(self, hits: Set[str]):
        self._hits = hits

    def get_science(self, science_key: str):
        return True if science_key in self._hits else None


def _replay_plan(wave: Wave, recs: List[Rec],
                 specs_by_key: Dict[str, JobSpec]) -> float:
    """Seconds ``LPTPlanner.plan`` takes on the wave's recorded jobs,
    with science presence as the cost model saw it at the time."""
    first: Dict[str, bool] = {}
    for r in recs:
        if r.name == "cache.get_science" and wave.start <= r.start <= wave.ran:
            first.setdefault(r.attrs["key"], r.attrs["hit"])
    specs = [specs_by_key[k] for k in dict.fromkeys(wave.keys)]
    model = CampaignCostModel(
        cache=_Presence({k for k, hit in first.items() if hit}))
    t0 = time.perf_counter()
    LPTPlanner().plan(specs, workers=WORKERS, cost_model=model,
                      fuse_ensembles=True)
    return time.perf_counter() - t0


def submit_appends(recs: Iterable[Rec]) -> Dict[str, float]:
    """cid -> seconds its submit event took to journal (inside the ack)."""
    return {r.attrs["cid"]: r.duration for r in recs
            if r.attrs.get("type") == "submit"}


def attribute(recs: List[Rec], samples: List[Sample],
              specs_by_key: Dict[str, JobSpec]
              ) -> Tuple[Dict[str, float], List[Wave]]:
    """Seconds of campaign latency per category, and the waves."""
    waves = find_waves(recs)
    # Every span of a wave starts inside it: hand each wave its slice.
    work = sorted([*recs, *_science_gaps(recs)], key=lambda r: r.start)
    starts = [r.start for r in work]
    for wave in waves:
        mine = work[bisect_left(starts, wave.start):
                    bisect_right(starts, wave.end)]
        comp = _wave_composition(wave, mine)
        wave.plan_s = _replay_plan(wave, mine, specs_by_key)
        idle = comp.pop("idle", 0.0)
        comp["plan"] = min(wave.plan_s, idle)
        comp["self"] = idle - comp["plan"]
        wave.comp = comp

    submit_journal = submit_appends(recs)
    finished = {r.attrs["cid"]: r.end for r in recs
                if r.attrs.get("type") == "done"}
    totals: Dict[str, float] = dict.fromkeys(CATEGORIES, 0.0)
    for s in samples:
        if s.seen is None:
            continue
        journal = min(submit_journal.get(s.cid, 0.0), s.ack_s)
        totals["journal"] += journal
        totals["http"] += s.ack_s - journal
        totals["self"] += s.submit_start - s.due        # generator lag
        fin = min(max(finished.get(s.cid, s.seen), s.submit_end), s.seen)
        totals["self"] += s.seen - fin                  # poll lag
        in_service = 0.0
        for wave in waves:
            overlap = (min(wave.end, fin) - max(wave.start, s.submit_end))
            if overlap <= 0 or s.cid not in wave.cids:
                continue
            in_service += overlap
            for cat, seconds in wave.comp.items():
                totals[cat] += seconds * overlap / wave.duration
        totals["queue_wait"] += (fin - s.submit_end) - in_service
    return totals, waves


def export_chrome_trace(recs: List[Rec], samples: List[Sample],
                        waves: List[Wave], path: Path) -> Path:
    """Write the round as a Chrome trace: one row per thread, campaign
    spans on the program row, every span parented and tagged ``cid``."""
    tracer = Tracer()
    t0 = min([r.start for r in recs] + [s.due for s in samples])
    rows = {t: i for i, t in enumerate(sorted({r.thread for r in recs}))}
    roots = {}
    for s in samples:
        if s.seen is not None:
            roots[s.cid] = tracer.emit(
                f"campaign:{s.cid}", "campaign", s.due - t0, s.seen - t0,
                cid=s.cid, tenant=s.campaign.tenant).span_id
            tracer.emit("http.submit", "service.http", s.submit_start - t0,
                        s.submit_end - t0, cid=s.cid
                        ).parent_id = roots[s.cid]
    wave_ids = [
        (w, tracer.emit("wave", "service.daemon", w.start - t0, w.end - t0,
                        jobs=len(w.keys), plan_s=w.plan_s).span_id)
        for w in waves
    ]
    for r in recs:
        if r.name.startswith("mark."):
            continue
        span = tracer.emit(r.name, r.layer, r.start - t0, r.end - t0,
                           node=rows[r.thread], **r.attrs)
        span.parent_id = roots.get(r.attrs.get("cid")) or next(
            (sid for w, sid in wave_ids if w.start <= r.start <= w.end),
            None)
    return write_chrome_trace(tracer, path)
