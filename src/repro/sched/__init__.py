"""Campaign scheduler: cost-model-driven sweeps as managed jobs.

The production payoff of the paper's *predictable performance* claim:
if a simple analytic model prices every run in advance (Section 4),
then large sweeps — machine comparisons, P-scaling ladders, emission
ensembles — can be *scheduled* rather than scripted.  This package
executes such campaigns as managed jobs with content-addressed caching,
bounded-pool LPT packing, per-job timeout, deterministic retry with
checkpoint resume, and a predicted-vs-observed makespan report.

Layers (see ``docs/SCHEDULER.md``):

* :mod:`repro.sched.interfaces` — the pluggable seams: the
  :class:`Executor`, :class:`ResultStore`, :class:`Planner` and
  :class:`JobStore` protocols everything below implements;
* :mod:`repro.sched.job` — :class:`JobSpec` (content-hashed identity)
  and :class:`JobResult`;
* :mod:`repro.sched.cache` — :class:`ResultCache`, the on-disk
  content-addressed store: sharded, optionally size-capped with LRU
  eviction (:class:`ShardedResultCache` is the same class);
* :mod:`repro.sched.costmodel` — :class:`CampaignCostModel`, pricing
  jobs with :mod:`repro.perfmodel` before anything runs;
* :mod:`repro.sched.planner` — dedupe, science-chaining and LPT
  packing into a :class:`CampaignPlan` (:class:`LPTPlanner`);
* :mod:`repro.sched.executors` — the default attempt executors
  (``thread`` | ``process`` | ``inline``);
* :mod:`repro.sched.runner` — :class:`CampaignRunner`, the
  fault-tolerant bounded pool, composed over the seams;
* :mod:`repro.sched.faults` — :class:`FaultPolicy`, deterministic
  fault injection for drills and tests;
* :mod:`repro.sched.sweeps` — generators for the standard studies;
* :mod:`repro.sched.report` — :class:`CampaignReport`.

The always-on, multi-tenant campaign service built on these seams
lives in :mod:`repro.service` (see ``docs/SERVICE.md``).
"""

from repro.sched.cache import ResultCache, ShardedResultCache
from repro.sched.costmodel import CampaignCostModel, PredictedJobCost
from repro.sched.executors import (
    EXECUTORS,
    InlineExecutor,
    ProcessExecutor,
    ThreadExecutor,
    build_executor,
)
from repro.sched.faults import FaultPolicy, InjectedFault, InjectedHang
from repro.sched.interfaces import (
    AttemptEnv,
    Executor,
    JobStore,
    Planner,
    ResultStore,
)
from repro.sched.job import JOB_STATUSES, VARIANTS, JobResult, JobSpec
from repro.sched.planner import (
    CampaignPlan,
    LPTPlanner,
    PlannedJob,
    plan_campaign,
)
from repro.sched.report import CampaignReport, status_rows
from repro.sched.runner import CampaignRunner, JobTimeoutError, execute_job
from repro.sched.sweeps import (
    ensemble_batches,
    ensemble_sweep,
    machine_grid,
    scaling_ladder,
)

__all__ = [
    "AttemptEnv",
    "CampaignCostModel",
    "CampaignPlan",
    "CampaignReport",
    "CampaignRunner",
    "EXECUTORS",
    "Executor",
    "FaultPolicy",
    "InjectedFault",
    "InjectedHang",
    "InlineExecutor",
    "JOB_STATUSES",
    "JobResult",
    "JobSpec",
    "JobStore",
    "JobTimeoutError",
    "LPTPlanner",
    "Planner",
    "PlannedJob",
    "PredictedJobCost",
    "ProcessExecutor",
    "ResultCache",
    "ResultStore",
    "ShardedResultCache",
    "ThreadExecutor",
    "VARIANTS",
    "build_executor",
    "ensemble_batches",
    "ensemble_sweep",
    "execute_job",
    "machine_grid",
    "plan_campaign",
    "scaling_ladder",
    "status_rows",
]
