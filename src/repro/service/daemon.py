"""The resident campaign scheduler and its HTTP JSON API.

:class:`CampaignService` keeps the scheduler composed in
:mod:`repro.sched` always-on:

* **submit** journals the campaign (durable before the call returns)
  and enqueues its not-yet-done jobs into the
  :class:`~repro.service.queue.FairShareQueue`;
* a **scheduler loop** drains the queue in *waves* of at most
  ``workers`` jobs — each wave's specs feed the existing
  :class:`~repro.sched.interfaces.Planner` and run on one
  :class:`~repro.sched.runner.CampaignRunner` over the shared
  :class:`~repro.sched.cache.ResultCache`, so planning is
  incremental (later submissions join the next wave) and overlapping
  submissions across tenants resolve from the content-addressed cache
  instead of re-executing;
* every job outcome is journaled before it is acknowledged, so a crash
  or restart resumes from the last durable state: unfinished jobs are
  re-enqueued, and anything that already ran replays from the full-job
  cache (``status="cached"``) rather than executing again;
* **cancel** drops a campaign's still-queued jobs (best effort; the
  in-flight wave completes) and journals the cancellation.

Observability rides the existing
:class:`~repro.observe.counters.CounterSet`: campaign counters
aggregate service-wide, per-tenant counters live under
``service:tenant:<name>:*`` and per-tenant queue-wait histograms under
``service:tenant:<name>:queue_wait_s``.

The HTTP layer (:func:`build_http_server`) is a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking JSON::

    POST /api/submit            {"tenant", "specs": [spec dicts]}
    GET  /api/status/<cid>      campaign summary
    GET  /api/results/<cid>     per-job rows (key, status, sha256, ...)
    POST /api/cancel/<cid>
    GET  /api/stats             queue, tenants, cache, counters
    GET  /api/campaigns         all campaign summaries
    GET  /api/health

Job *results* over HTTP are the journaled rows (content hashes, replay
timings, attempt counts) — the science arrays stay in the cache.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.datasets.registry import DATASET_BUILDERS, dataset_names
from repro.observe.tracer import Tracer
from repro.sched.cache import ResultCache
from repro.sched.interfaces import Executor, JobStore, ResultStore
from repro.sched.job import JobResult, JobSpec
from repro.sched.runner import CampaignRunner
from repro.service.jobstore import (
    ACTIVE_STATUSES,
    CampaignRecord,
    JournalJobStore,
    ServiceState,
)
from repro.service.queue import FairShareQueue, QueueItem
from repro.vm.machine import get_machine

__all__ = ["CampaignService", "build_http_server"]


class CampaignService:
    """Multi-tenant always-on campaign scheduler.

    Parameters
    ----------
    root:
        Service state directory: the journal/snapshot live at its top
        level, the shared result cache under ``<root>/cache`` (unless
        an explicit ``cache`` store is passed).
    workers / executor / retries / backoff / timeout:
        Passed through to the per-wave
        :class:`~repro.sched.runner.CampaignRunner`; ``workers`` is
        also the wave width.
    tenant_weights:
        Fair-share weights (default 1.0 per tenant; a weight-2 tenant
        drains twice as fast under contention).
    cache_shards / cache_max_bytes:
        Layout and size cap of the default
        :class:`~repro.sched.cache.ResultCache`.
    chem_workers:
        Service-wide default ``cores_per_job``: submitted specs that
        did not ask for intra-job cores (``cores_per_job == 1``) run
        their tiled chemistry on this many threads.  Placement is a
        service-side decision — the cores belong to the service host —
        and ``cores_per_job`` is presentation-only (tiled chemistry is
        bitwise-invariant in worker count), so the override never
        changes job keys or cache semantics.
    autotune / tune_store:
        ``autotune=True`` builds a fresh
        :class:`~repro.tune.autotune.Autotuner` per wave from the
        calibration store (``tune_store`` path or store; defaults to
        ``<root>/tune``), so the daemon replans every wave with the
        freshest calibration, and harvests each wave's report back into
        the store.  Tuning rewrites only execution/presentation fields
        — science keys, cache semantics and delivered results stay
        identical; rows are still journaled under the *submitted* keys.
        A ``tune_store`` without ``autotune`` harvests only.
    clock / sleep:
        Injectable time sources (tests drive the service with a fake
        clock and pay no wall time).
    """

    def __init__(
        self,
        root: Union[str, Path],
        cache: Optional[ResultStore] = None,
        store: Optional[JobStore] = None,
        workers: int = 4,
        executor: Union[str, Executor] = "thread",
        retries: int = 2,
        backoff: float = 0.25,
        timeout: Optional[float] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        cache_shards: int = 16,
        cache_max_bytes: Optional[int] = None,
        chem_workers: int = 1,
        fuse_ensembles: bool = True,
        autotune: bool = False,
        tune_store=None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache: ResultStore = cache or ResultCache(
            self.root / "cache", shards=cache_shards,
            max_bytes=cache_max_bytes,
        )
        self.store: JobStore = store or JournalJobStore(self.root)
        self.workers = int(workers)
        self.executor = executor
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        if chem_workers < 1:
            raise ValueError("chem_workers must be >= 1")
        self.chem_workers = int(chem_workers)
        self.fuse_ensembles = bool(fuse_ensembles)
        self.autotune = bool(autotune)
        self.tune_store = None
        if self.autotune or tune_store is not None:
            from repro.tune.store import CalibrationStore

            if tune_store is None:
                tune_store = self.root / "tune"
            self.tune_store = (
                tune_store if isinstance(tune_store, CalibrationStore)
                else CalibrationStore(tune_store)
            )
        self.queue = FairShareQueue()
        for tenant, weight in (tenant_weights or {}).items():
            self.queue.set_weight(tenant, weight)
        self.tracer = tracer if tracer is not None else Tracer()
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.campaigns: Dict[str, CampaignRecord] = {}
        self._seq = 1
        self._resume()

    # -- durable state --------------------------------------------------
    def _resume(self) -> None:
        """Replay the journal; re-enqueue whatever was in flight."""
        state = ServiceState.fold(self.store.events())
        with self._lock:
            self.campaigns = state.campaigns
            self._seq = state.next_seq
            for cid in sorted(self.campaigns):
                record = self.campaigns[cid]
                if record.status in ACTIVE_STATUSES:
                    self._enqueue(record, record.pending_specs())

    def compact(self) -> None:
        """Fold the journal into the snapshot (bounded on-disk state)."""
        with self._lock:
            state = ServiceState()
            state.campaigns = dict(self.campaigns)
            self.store.compact({"events": state.to_events()})

    # -- observability ---------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.tracer.counters.inc(name, amount)

    def _observe(self, name: str, value: float) -> None:
        with self._lock:
            self.tracer.counters.observe(name, value)

    # -- the tenant-facing API -------------------------------------------
    def submit(self, tenant: str, specs: Sequence[JobSpec],
               workers: Optional[int] = None) -> str:
        """Journal and enqueue a campaign; returns its id."""
        specs = list(specs)
        if not specs:
            raise ValueError("a campaign needs at least one job spec")
        for spec in specs:
            # Refused before anything is journaled or an id is consumed:
            # a name the planner cannot resolve would fail its whole wave.
            if spec.dataset not in DATASET_BUILDERS:
                raise ValueError(
                    f"unknown dataset {spec.dataset!r}; "
                    f"choose from {dataset_names()}"
                )
            if spec.variant != "sequential":  # which names no machine
                try:
                    get_machine(spec.machine)
                except KeyError as exc:
                    raise ValueError(exc.args[0]) from None
        if self.chem_workers > 1:
            # Key-stable: cores_per_job is a presentation field.
            specs = [
                replace(s, cores_per_job=self.chem_workers)
                if s.cores_per_job == 1 else s
                for s in specs
            ]
        with self._lock:
            cid = f"c{self._seq:06d}"
            self._seq += 1
            record = CampaignRecord(
                cid=cid, tenant=tenant, specs=specs,
                workers=workers or self.workers,
                fuse=self.fuse_ensembles,
            )
            self.store.append({
                "type": "submit", "cid": cid, "tenant": tenant,
                "specs": [s.to_dict() for s in specs],
                "workers": record.workers, "fuse": record.fuse,
            })
            self.campaigns[cid] = record
            self._count(f"service:tenant:{tenant}:submitted_campaigns")
            self._count(f"service:tenant:{tenant}:submitted_jobs",
                        len(specs))
            self._enqueue(record, record.pending_specs())
        self._wake.set()
        return cid

    def _enqueue(self, record: CampaignRecord,
                 specs: Sequence[JobSpec]) -> None:
        now = self._clock()
        for spec in specs:
            # Fair-share currency is simulated hours: deterministic,
            # known pre-run, and proportional to the numerics cost.
            self.queue.push(QueueItem(
                tenant=record.tenant, cid=record.cid, spec=spec,
                cost=float(spec.hours), enqueued_at=now,
            ))

    def status(self, cid: str) -> Dict[str, Any]:
        with self._lock:
            record = self._record(cid)
            summary = record.summary()
            summary["queued"] = len(record.pending_specs())
            return summary

    def results(self, cid: str) -> List[Dict[str, Any]]:
        """The journaled per-job rows, campaign submission order."""
        with self._lock:
            record = self._record(cid)
            rows, seen = [], set()
            for spec in record.specs:
                if spec.key in seen:
                    continue
                seen.add(spec.key)
                if spec.key in record.jobs:
                    rows.append(record.jobs[spec.key])
            return rows

    def cancel(self, cid: str) -> bool:
        """Drop a campaign's queued jobs; in-flight jobs complete."""
        with self._lock:
            record = self._record(cid)
            if record.status not in ACTIVE_STATUSES:
                return False
            dropped = self.queue.drop(lambda item: item.cid == cid)
            record.status = "cancelled"
            self.store.append({"type": "cancel", "cid": cid})
            self._count(f"service:tenant:{record.tenant}:cancelled_jobs",
                        dropped)
            return True

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            snap = self.tracer.counters.snapshot()
            out = {
                "campaigns": [
                    self.campaigns[c].summary()
                    for c in sorted(self.campaigns)
                ],
                "queue": self.queue.pending(),
                "counters": snap["counters"],
                "histograms": snap["histograms"],
                "cache": self.cache.stats(),
            }
            if self.tune_store is not None:
                out["tune"] = self.tune_store.stats()
            return out

    def _record(self, cid: str) -> CampaignRecord:
        record = self.campaigns.get(cid)
        if record is None:
            raise KeyError(f"unknown campaign {cid!r}")
        return record

    # -- the scheduler loop ----------------------------------------------
    def run_wave(self) -> int:
        """Drain one wave synchronously; returns jobs dispatched."""
        wave = []
        with self._lock:
            while len(wave) < self.workers:
                item = self.queue.pop()
                if item is None:
                    break
                record = self.campaigns.get(item.cid)
                if record is None or record.status not in ACTIVE_STATUSES:
                    continue  # cancelled while queued
                wave.append(item)
        if not wave:
            return 0
        try:
            self._execute_wave(wave)
        except Exception as exc:  # noqa: BLE001 - the loop outlives any wave
            self._fail_wave(wave, f"{type(exc).__name__}: {exc}")
        return len(wave)

    def _fail_wave(self, wave: List[QueueItem], error: str) -> None:
        """Deliver a wave that raised as journaled ``failed`` rows.

        Jobs the wave had already delivered keep their outcome; the rest
        end ``failed`` carrying ``error``, so their campaigns finish and
        a restart does not re-enqueue them.
        """
        self._count("service:failed_waves")
        with self._lock:
            for item in wave:
                record = self.campaigns.get(item.cid)
                if record is not None and item.spec.key not in record.jobs:
                    self._deliver(item, JobResult(
                        spec=item.spec, status="failed", error=error,
                    ))
            for cid in sorted({item.cid for item in wave}):
                self._maybe_finish(cid)

    def run_until_idle(self) -> int:
        """Drain waves until the queue is empty; returns jobs run."""
        total = 0
        while True:
            n = self.run_wave()
            if n == 0:
                return total
            total += n

    def _execute_wave(self, wave: List[QueueItem]) -> None:
        now = self._clock()
        subscribers: Dict[str, List[QueueItem]] = {}
        specs: List[JobSpec] = []
        for item in wave:
            self._observe(
                f"service:tenant:{item.tenant}:queue_wait_s",
                max(0.0, now - item.enqueued_at),
            )
            if item.spec.key not in subscribers:
                specs.append(item.spec)
            subscribers.setdefault(item.spec.key, []).append(item)

        run_specs = specs
        cost_model = None
        tuned_by_key: Dict[str, str] = {}
        if self.autotune:
            # A fresh autotuner per wave: every wave replans with the
            # freshest calibration in the store.  Tuning rewrites only
            # execution/presentation fields, never science keys.
            from repro.tune.autotune import Autotuner

            tuner = Autotuner(store=self.tune_store, cache=self.cache)
            run_specs, records, tuned_by_key = tuner.tune_all(specs)
            cost_model = tuner.cost_model()
            for record in records:
                self.tune_store.record_decision(record)
            self._count("service:tuned_jobs", len(records))

        runner = CampaignRunner(
            self.cache, workers=self.workers, retries=self.retries,
            backoff=self.backoff, timeout=self.timeout,
            executor=self.executor, fuse_ensembles=self.fuse_ensembles,
            cost_model=cost_model, sleep=self._sleep, clock=self._clock,
        )
        report = runner.run(run_specs)
        self._count("service:waves")
        with self._lock:
            for name, value in report.counters.items():
                self.tracer.counters.inc(name, value)
            results_by_key = {r.key: r for r in report.results}
            for submitted_key, items in subscribers.items():
                result = results_by_key.get(
                    tuned_by_key.get(submitted_key, submitted_key)
                )
                if result is None:
                    continue
                for item in items:
                    self._deliver(item, result, key=submitted_key)
            for cid in sorted({item.cid for item in wave}):
                self._maybe_finish(cid)
        if self.tune_store is not None:
            from repro.tune.harvest import harvest_report

            self.tune_store.add_many(
                harvest_report(report, source="service")
            )

    def _deliver(self, item: QueueItem, result: JobResult,
                 key: Optional[str] = None) -> None:
        record = self.campaigns.get(item.cid)
        if record is None:
            return
        # ``key`` is the *submitted* key — the one pending_specs() and
        # the results API index by.  An autotuned wave executed the job
        # under a rewritten (same-science) key, recorded alongside.
        key = key if key is not None else result.key
        row = {
            "key": key,
            "job": result.spec.label,
            "status": result.status,
            "attempts": result.attempts,
            "from_cache": result.from_cache,
            "science_cached": result.science_cached,
            "sha256": result.final_conc_sha256(),
            "sim_total_s": (
                round(result.timing.total_time, 10)
                if result.timing else None
            ),
            "error": result.error,
        }
        if result.key != key:
            row["tuned_key"] = result.key
        record.deliver(key, row)
        self.store.append({
            "type": "job", "cid": item.cid, "key": key, "row": row,
        })
        tenant = record.tenant
        self._count(f"service:tenant:{tenant}:completed_jobs")
        if result.from_cache:
            self._count(f"service:tenant:{tenant}:cache_hits")
        if not result.ok:
            self._count(f"service:tenant:{tenant}:failed_jobs")

    def _maybe_finish(self, cid: str) -> None:
        record = self.campaigns.get(cid)
        if record is None or record.status not in ACTIVE_STATUSES:
            return
        if record.pending_specs():
            return
        ok = all(
            row.get("status") in ("ok", "cached")
            for row in record.jobs.values()
        )
        record.status = "done" if ok else "failed"
        self.store.append({
            "type": "done", "cid": cid, "status": record.status,
        })
        self._count(f"service:tenant:{record.tenant}:completed_campaigns")

    # -- the daemon thread ----------------------------------------------
    def start(self) -> None:
        """Run the scheduler loop on a daemon thread."""
        if self._thread is not None:
            return
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._loop, name="campaign-service", daemon=True
        )
        self._thread.start()

    def stop(self, compact: bool = True) -> None:
        """Stop the loop (the in-flight wave completes) and compact."""
        self._stopping.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        if compact:
            self.compact()

    def _loop(self) -> None:
        while not self._stopping.is_set():
            if self.run_wave() == 0:
                self._wake.wait(timeout=0.05)
                self._wake.clear()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------
class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP facade for one :class:`CampaignService`."""

    service: CampaignService  # injected by build_http_server

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        pass  # the service is the source of truth, not an access log

    def _reply(self, payload: Dict[str, Any], code: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._reply({"error": message}, code=code)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/api/health":
                self._reply({
                    "ok": True,
                    "campaigns": len(self.service.campaigns),
                })
            elif self.path == "/api/stats":
                self._reply(self.service.stats())
            elif self.path == "/api/campaigns":
                with self.service._lock:
                    self._reply({"campaigns": [
                        self.service.campaigns[c].summary()
                        for c in sorted(self.service.campaigns)
                    ]})
            elif self.path.startswith("/api/status/"):
                cid = self.path.rsplit("/", 1)[1]
                self._reply(self.service.status(cid))
            elif self.path.startswith("/api/results/"):
                cid = self.path.rsplit("/", 1)[1]
                self._reply({
                    "cid": cid, "jobs": self.service.results(cid),
                })
            else:
                self._error(404, f"no such resource: {self.path}")
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/api/submit":
                body = self._body()
                specs = [
                    JobSpec.from_dict(d) for d in body.get("specs", [])
                ]
                cid = self.service.submit(
                    tenant=str(body.get("tenant", "default")),
                    specs=specs,
                    workers=body.get("workers"),
                )
                self._reply({"cid": cid}, code=201)
            elif self.path.startswith("/api/cancel/"):
                cid = self.path.rsplit("/", 1)[1]
                self._reply({
                    "cid": cid, "cancelled": self.service.cancel(cid),
                })
            else:
                self._error(404, f"no such resource: {self.path}")
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else str(exc))
        except (TypeError, ValueError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self._error(500, f"{type(exc).__name__}: {exc}")


def build_http_server(service: CampaignService, host: str = "127.0.0.1",
                      port: int = 0) -> ThreadingHTTPServer:
    """A :class:`ThreadingHTTPServer` bound to ``host:port``.

    ``port=0`` binds an ephemeral port (tests); the caller owns the
    server lifecycle (``serve_forever`` / ``shutdown``).
    """
    handler = type(
        "BoundServiceHandler", (_ServiceHandler,), {"service": service}
    )
    return ThreadingHTTPServer((host, port), handler)
