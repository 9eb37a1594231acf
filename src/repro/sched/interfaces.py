"""The scheduler's pluggable seams.

PR 4 grew :class:`~repro.sched.runner.CampaignRunner` as one class that
hard-wired how attempts execute, how results persist, how campaigns are
planned and where job state lives.  Promoting the scheduler into an
always-on service (:mod:`repro.service`) requires swapping each of
those roles independently, so they are now explicit protocols:

* :class:`Executor` — runs **one attempt** of one job and says whether
  chains may execute concurrently.  Default implementations live in
  :mod:`repro.sched.executors` (``thread`` / ``process`` / ``inline``);
* :class:`ResultStore` — the content-addressed result store.  The
  default, for the one-shot CLI and the service alike, is the sharded
  :class:`~repro.sched.cache.ResultCache` (the service sets its size
  cap);
* :class:`Planner` — turns a bag of specs into a
  :class:`~repro.sched.planner.CampaignPlan`.  The default is
  :class:`~repro.sched.planner.LPTPlanner` (dedupe → science chaining →
  ensemble fusion → LPT packing);
* :class:`JobStore` — durable campaign/job state for long-running
  services.  The one-shot CLI keeps none; the service journals every
  transition through a
  :class:`~repro.service.jobstore.JournalJobStore`.

All four are structural (:func:`typing.runtime_checkable` protocols):
any object with the right methods plugs in, no inheritance required.
:class:`AttemptEnv` is the narrow slice of runner state an
:class:`Executor` may touch — cache, fault policy, deadline policy and
a counter sink — so custom executors cannot reach into the runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

__all__ = [
    "AttemptEnv",
    "AttemptOutcome",
    "Executor",
    "JobStore",
    "Planner",
    "ResultStore",
]

#: What one attempt returns: ``(science result, replay timing or None,
#: science_cached)`` — exactly the historical ``execute_job`` contract.
AttemptOutcome = Tuple[Any, Optional[Any], bool]


@dataclass
class AttemptEnv:
    """The runner state one attempt is allowed to see.

    ``count(name, amount)`` is the only write path back into the
    runner's observability (it feeds the campaign counters under the
    runner's lock); ``clock`` is the runner's injectable monotonic
    clock, so executors honour fake clocks in tests.
    """

    cache: "ResultStore"
    fault_policy: Optional[Any] = None
    checkpoint_hours: int = 1
    timeout: Optional[float] = None
    clock: Callable[[], float] = None  # type: ignore[assignment]
    count: Callable[..., None] = None  # type: ignore[assignment]


@runtime_checkable
class Executor(Protocol):
    """Runs one attempt of one job.

    ``name`` is the CLI-facing identifier (``thread`` | ``process`` |
    ``inline`` | custom); ``concurrent`` tells the runner whether
    independent chains may be dispatched onto pool threads (``False``
    forces deterministic, plan-ordered execution on the calling
    thread).
    """

    name: str
    concurrent: bool

    def run_attempt(self, spec: Any, attempt: int,
                    env: AttemptEnv) -> AttemptOutcome:
        """One attempt; raises whatever the attempt died of."""
        ...


@runtime_checkable
class ResultStore(Protocol):
    """Content-addressed store for science results and job payloads.

    The two-level keying contract is the cache's (science shared across
    replay jobs, job payloads referencing their science by key); see
    :class:`~repro.sched.cache.ResultCache` for the reference
    implementation and the atomicity guarantees implementations must
    keep.
    """

    def get_science(self, science_key: str) -> Optional[Any]: ...

    def put_science(self, science_key: str, result: Any) -> None: ...

    def get_job(self, key: str) -> Optional[Dict[str, Any]]: ...

    def put_job(self, key: str, payload: Dict[str, Any]) -> None: ...

    def iter_jobs(self) -> Iterator[Dict[str, Any]]: ...

    def scratch_dir(self, science_key: str) -> Path: ...

    def clear_scratch(self, science_key: str) -> None: ...

    def stats(self) -> Dict[str, Any]: ...


@runtime_checkable
class Planner(Protocol):
    """Builds an executable plan from a bag of job specs."""

    def plan(self, specs: Sequence[Any], *, workers: int,
             cost_model: Any, fuse_ensembles: bool) -> Any:
        """Return a :class:`~repro.sched.planner.CampaignPlan`."""
        ...


@runtime_checkable
class JobStore(Protocol):
    """Durable, replayable campaign/job state for a service.

    The contract is an event journal: ``append`` must make each event
    durable before returning, ``events`` replays everything already
    durable (tolerating a torn final write), and ``compact`` atomically
    folds history into a snapshot so the journal stays bounded.
    """

    def append(self, event: Dict[str, Any]) -> None: ...

    def events(self) -> Iterator[Dict[str, Any]]: ...

    def compact(self, state: Dict[str, Any]) -> None: ...

    def snapshot(self) -> Optional[Dict[str, Any]]: ...
