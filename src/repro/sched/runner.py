"""Fault-tolerant campaign execution on a bounded worker pool.

The runner is a thin composition over the scheduler's pluggable seams
(:mod:`repro.sched.interfaces`):

* an :class:`~repro.sched.interfaces.Executor` runs each attempt
  (``thread`` | ``process`` | ``inline``, see
  :mod:`repro.sched.executors`) and decides whether independent chains
  may run concurrently;
* a :class:`~repro.sched.interfaces.ResultStore` persists science
  results and job payloads (:class:`~repro.sched.cache.ResultCache` by
  default; resubmitting a finished campaign does zero simulation work);
* a :class:`~repro.sched.interfaces.Planner` builds the execution plan
  (:class:`~repro.sched.planner.LPTPlanner` by default: dedupe →
  science chaining → ensemble fusion → LPT packing).

What the runner itself owns is the campaign policy loop: per-job
retries after a deterministic exponential backoff
(``backoff * 2**(attempt-1)``; the sleep function is injectable so
tests pay no wall-clock), per-attempt timeouts (cooperative at
checkpoint boundaries in-process, preemptive ``Process.join`` under the
process executor), checkpoint resume (a retry continues from the last
completed chunk and the joined result stays bitwise identical to an
unbroken run), batched-ensemble science prefetch, and observability:
every job emits a ``kind="job"`` span (node = worker slot) into a
:class:`~repro.observe.tracer.Tracer`, and campaign counters (cache
hits, retries, faults, timeouts, simulated hours) accumulate alongside,
so the report's predicted-vs-observed makespan comes straight off the
span stream.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.model.batched import run_batched
from repro.model.config import AirshedConfig
from repro.observe.compare import observed_makespan
from repro.observe.tracer import Tracer
from repro.sched.cache import ResultCache
from repro.sched.costmodel import CampaignCostModel
from repro.sched.executors import (
    JobTimeoutError,
    _build_dataset,
    build_executor,
    execute_job,
)
from repro.sched.faults import FaultPolicy, InjectedFault, InjectedHang
from repro.sched.interfaces import AttemptEnv, Executor, Planner, ResultStore
from repro.sched.job import JobResult, JobSpec
from repro.sched.planner import CampaignPlan, LPTPlanner, PlannedJob
from repro.sched.report import CampaignReport
from repro.sched.sweeps import ensemble_batches

__all__ = ["CampaignRunner", "JobTimeoutError", "execute_job"]


class CampaignRunner:
    """Plan and execute campaigns against one result store.

    Parameters
    ----------
    cache:
        A :class:`~repro.sched.interfaces.ResultStore` (e.g.
        :class:`~repro.sched.cache.ResultCache`) or a directory path.
    workers:
        Bounded pool width (and the planner's packing width).
    retries / backoff:
        Failed attempts retry up to ``retries`` times; attempt ``k``
        waits ``backoff * 2**(k-1)`` seconds first (deterministic).
    timeout:
        Per-attempt seconds; ``None`` disables.  See the module docs
        for cooperative versus preemptive enforcement.
    executor:
        ``"thread"`` (default) | ``"process"`` | ``"inline"``, or any
        :class:`~repro.sched.interfaces.Executor` instance.
    fault_policy:
        Optional :class:`~repro.sched.faults.FaultPolicy` for tests and
        smoke drills.
    checkpoint_hours:
        Science checkpoint cadence (simulated hours per chunk).
    cost_model:
        Planner pricing; defaults to a cache-aware
        :class:`~repro.sched.costmodel.CampaignCostModel`.
    planner:
        A :class:`~repro.sched.interfaces.Planner`; defaults to
        :class:`~repro.sched.planner.LPTPlanner`.
    tracer / sleep / clock:
        Observability sink and injectable time sources (tests pass a
        recording ``sleep`` so backoff charges no wall-clock).
    """

    def __init__(
        self,
        cache: Union[ResultStore, str, Path],
        workers: int = 4,
        retries: int = 2,
        backoff: float = 0.25,
        timeout: Optional[float] = None,
        executor: Union[str, Executor] = "thread",
        fault_policy: Optional[FaultPolicy] = None,
        checkpoint_hours: int = 1,
        cost_model: Optional[CampaignCostModel] = None,
        planner: Optional[Planner] = None,
        tracer: Optional[Tracer] = None,
        sleep: Optional[Callable[[float], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        fuse_ensembles: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff < 0:
            raise ValueError("backoff must be non-negative")
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache: ResultStore = cache
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._executor_impl = build_executor(executor)
        self.executor = self._executor_impl.name
        self.fault_policy = fault_policy
        self.checkpoint_hours = checkpoint_hours
        self.cost_model = cost_model or CampaignCostModel(cache=self.cache)
        self.planner: Planner = planner or LPTPlanner()
        self.tracer = tracer if tracer is not None else Tracer()
        self._sleep = sleep or time.sleep
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self.fuse_ensembles = bool(fuse_ensembles)

    # -- observability -------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.tracer.counters.inc(name, amount)

    def _emit_job_span(self, spec: JobSpec, slot: int, start: float,
                       end: float, status: str, attempts: int,
                       wait_s: float = 0.0) -> None:
        # ``wait_s`` is the span's scheduling-delay share (retry backoff
        # sleeps); the makespan computation subtracts it so observed
        # fits aren't polluted by queue wait.
        with self._lock:
            self.tracer.emit(
                f"job:{spec.label}", "job", start, end, node=slot,
                key=spec.key, status=status, attempts=attempts,
                queue_wait_s=round(wait_s, 6),
            )

    # -- planning ------------------------------------------------------
    def plan(self, specs: Sequence[JobSpec]) -> CampaignPlan:
        return self.planner.plan(specs, workers=self.workers,
                                 cost_model=self.cost_model,
                                 fuse_ensembles=self.fuse_ensembles)

    # -- execution -----------------------------------------------------
    def run(self, specs: Sequence[JobSpec],
            plan: Optional[CampaignPlan] = None) -> CampaignReport:
        """Execute ``specs`` (deduped) and report the campaign."""
        if plan is None:
            plan = self.plan(specs)
        results: Dict[str, JobResult] = {}
        if plan.jobs:
            chains = [[plan.jobs[i] for i in chain] for chain in plan.chains]
            # One chain has nothing to run beside: it stays on the
            # calling thread (the planner puts it on worker 0, the slot
            # a pool thread would have drawn).
            if (not self._executor_impl.concurrent or self.workers == 1
                    or len(chains) == 1):
                for chain in chains:
                    self._run_chain(chain, chain[0].worker, results)
            else:
                slot_pool: List[int] = list(range(self.workers))

                def run_chain(chain: List[PlannedJob]) -> None:
                    with self._lock:
                        slot = slot_pool.pop(0)
                    try:
                        self._run_chain(chain, slot, results)
                    finally:
                        with self._lock:
                            slot_pool.append(slot)

                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    futures = [pool.submit(run_chain, c) for c in chains]
                    for f in futures:
                        f.result()

        observed = observed_makespan(self.tracer.spans, kinds=("job",),
                                     exclude_wait=True)
        ordered = [results[j.key] for j in plan.jobs if j.key in results]
        return CampaignReport(
            plan=plan,
            results=ordered,
            observed_makespan_s=observed,
            counters={
                name: value for name, value in
                self.tracer.counters.snapshot()["counters"].items()
                if name.startswith("campaign:")
            },
        )

    def _run_chain(self, chain: List[PlannedJob], slot: int,
                   results: Dict[str, JobResult]) -> None:
        if self.fuse_ensembles:
            self._prefetch_ensembles(chain, slot)
        for planned in chain:
            result = self._run_job(planned, slot)
            with self._lock:
                results[planned.key] = result

    # -- batched-ensemble science prefetch -----------------------------
    def _prefetch_ensembles(self, chain: List[PlannedJob],
                            slot: int) -> None:
        """Run a chain's fused ensemble members as one batched sweep.

        The planner co-locates an ensemble's member chains on one
        worker; here their sequential numerics execute as a single
        :func:`~repro.model.batched.run_batched` call and each member's
        (bitwise-identical) result lands in the per-member science
        cache.  The per-job flow downstream is untouched — every job
        still passes its own cache lookup, fault points, retries and
        replay, it just finds its science already stored.  Batching is
        exact over any member subset, so partially cached ensembles
        batch only the missing members.  Any batch failure falls back
        to per-job execution silently (the jobs simply run unfused).
        """
        for ek, members in ensemble_batches(
            [p.spec for p in chain]
        ).items():
            todo = [
                s for s in members
                if self.cache.get_science(s.science_key) is None
            ]
            if len(todo) < 2:
                continue
            start = self.tracer.now()
            try:
                configs = [
                    AirshedConfig(
                        dataset=_build_dataset(s), hours=s.hours,
                        start_hour=s.start_hour,
                        chem_workers=s.cores_per_job,
                    )
                    for s in todo
                ]
                batch_results = run_batched(configs)
            except Exception:  # noqa: BLE001 - fall back to per-job runs
                self._count("campaign:batch_fallbacks")
                continue
            for s, res in zip(todo, batch_results):
                self.cache.put_science(s.science_key, res)
                self._count("campaign:sim_hours", s.hours)
            self._count("campaign:batches")
            self._count("campaign:batched_members", len(todo))
            with self._lock:
                self.tracer.emit(
                    f"batch:{todo[0].dataset}x{len(todo)}", "batch",
                    start, self.tracer.now(), node=slot,
                    ensemble_key=ek, members=len(todo),
                )

    # -- one job, with retries ----------------------------------------
    def _run_job(self, planned: PlannedJob, slot: int) -> JobResult:
        spec = planned.spec
        span_start = self.tracer.now()
        self._count("campaign:jobs")

        payload = self.cache.get_job(spec.key)
        if payload is not None:
            self._count("campaign:cache_hits")
            jr = JobResult(
                spec=spec, status="cached", result=payload["result"],
                timing=payload.get("timing"), attempts=0, from_cache=True,
                science_cached=True, wall_s=0.0,
                predicted_s=planned.predicted_s,
            )
            self._emit_job_span(spec, slot, span_start, self.tracer.now(),
                                "cached", 0)
            return jr

        backoffs: List[float] = []
        last_error = ""
        timed_out = False
        attempts = 0
        for attempt in range(1 + self.retries):
            if attempt > 0:
                delay = self.backoff * (2 ** (attempt - 1))
                backoffs.append(delay)
                self._count("campaign:retries")
                if delay > 0:
                    self._sleep(delay)
            attempts = attempt + 1
            t0 = self._clock()
            try:
                science, timing, science_cached = self._attempt(spec, attempt)
            except (InjectedHang, JobTimeoutError) as exc:
                timed_out = True
                last_error = f"{type(exc).__name__}: {exc}"
                self._count("campaign:timeouts")
                continue
            except InjectedFault as exc:
                timed_out = False
                last_error = f"{type(exc).__name__}: {exc}"
                self._count("campaign:faults")
                continue
            except Exception as exc:  # noqa: BLE001 - job isolation
                timed_out = False
                last_error = f"{type(exc).__name__}: {exc}"
                self._count("campaign:failures")
                continue

            wall = self._clock() - t0
            if science_cached:
                self._count("campaign:science_cache_hits")
            self.cache.put_job(spec.key, {
                "spec": spec.to_dict(),
                "science_key": spec.science_key,
                "timing": timing,
                "status": "ok",
                "final_conc_sha256": science.final_conc_sha256,
            })
            jr = JobResult(
                spec=spec, status="ok", result=science, timing=timing,
                attempts=attempts, retries=attempts - 1,
                science_cached=science_cached, wall_s=wall,
                predicted_s=planned.predicted_s, backoffs=backoffs,
            )
            self._emit_job_span(spec, slot, span_start, self.tracer.now(),
                                "ok", attempts, wait_s=sum(backoffs))
            return jr

        status = "timeout" if timed_out else "failed"
        jr = JobResult(
            spec=spec, status=status, attempts=attempts,
            retries=attempts - 1, predicted_s=planned.predicted_s,
            error=last_error, backoffs=backoffs,
        )
        self._emit_job_span(spec, slot, span_start, self.tracer.now(),
                            status, attempts, wait_s=sum(backoffs))
        return jr

    # -- one attempt ---------------------------------------------------
    def _attempt(self, spec: JobSpec, attempt: int):
        env = AttemptEnv(
            cache=self.cache,
            fault_policy=self.fault_policy,
            checkpoint_hours=self.checkpoint_hours,
            timeout=self.timeout,
            clock=self._clock,
            count=self._count,
        )
        return self._executor_impl.run_attempt(spec, attempt, env)
