"""Default :class:`~repro.sched.interfaces.Executor` implementations.

One attempt of one job — science (cached or run) plus replay — can
execute three ways, unchanged from the original runner:

* :class:`ThreadExecutor` (``thread``) — in the calling process;
  independent chains dispatch onto pool threads; the per-attempt
  deadline is checked cooperatively at checkpoint boundaries;
* :class:`InlineExecutor` (``inline``) — same in-process attempt, but
  chains run deterministically in plan order on the calling thread;
* :class:`ProcessExecutor` (``process``) — each attempt in a child
  process the timeout can really kill (``Process.join(timeout)``).

:func:`execute_job` / :func:`execute_science` are the executor-agnostic
attempt bodies (checkpointed science chunks, fault points, replay);
they are what both the in-process executors and the child-process entry
point call, so every executor produces bitwise-identical results.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets.registry import get_dataset
from repro.durable import atomic_write
from repro.model.checkpoint import load_checkpoint, resume_config, save_checkpoint
from repro.model.config import AirshedConfig
from repro.model.ensemble import PerturbedDataset
from repro.model.results import AirshedResult, concat_results
from repro.model.sequential import SequentialAirshed
from repro.model.taskparallel import replay
from repro.sched.faults import FaultPolicy, InjectedFault, InjectedHang
from repro.sched.interfaces import AttemptEnv, AttemptOutcome, Executor
from repro.sched.job import JobSpec
from repro.vm.machine import get_machine

__all__ = [
    "EXECUTORS",
    "InlineExecutor",
    "JobTimeoutError",
    "ProcessExecutor",
    "ThreadExecutor",
    "build_executor",
    "execute_job",
    "execute_science",
]

#: The built-in executor names, in CLI order.
EXECUTORS = ("thread", "process", "inline")


class JobTimeoutError(RuntimeError):
    """An attempt exceeded its per-job timeout."""


# ---------------------------------------------------------------------------
# job execution (runs in a worker thread or a child process)
# ---------------------------------------------------------------------------
def _build_dataset(spec: JobSpec):
    dataset = get_dataset(spec.dataset)
    if spec.perturb_seed is not None:
        dataset = PerturbedDataset(
            dataset, member_seed=spec.perturb_seed, sigma=spec.perturb_sigma
        )
    return dataset


def _load_scratch(cache, science_key: str):
    """Completed chunks of an interrupted science run, oldest first."""
    scratch = cache.scratch_dir(science_key)
    parts: List[AirshedResult] = []
    checkpoint = None
    idx = 0
    while True:
        part_path = scratch / f"part_{idx:03d}.pkl"
        ck_path = scratch / f"ck_{idx:03d}.npz"
        if not (part_path.is_file() and ck_path.is_file()):
            break
        try:
            with part_path.open("rb") as fh:
                part = pickle.load(fh)
            checkpoint = load_checkpoint(ck_path)
        except Exception:
            break  # unreadable chunk: resume up to the last good one
        parts.append(part)
        idx += 1
    return parts, checkpoint, scratch


def execute_science(
    spec: JobSpec,
    cache,
    fault_point: Callable[[int], None],
    check_time: Callable[[], None],
    checkpoint_hours: int = 1,
    on_hours: Optional[Callable[[int], None]] = None,
) -> AirshedResult:
    """Run (or resume) the sequential numerics of one science key.

    The run advances in chunks of ``checkpoint_hours``; after each
    chunk the chunk result and a :mod:`repro.model.checkpoint` land in
    the cache's scratch area, so a retry resumes instead of restarting.
    ``fault_point(hours_completed)`` is called at every chunk boundary
    (fault injection); ``check_time()`` enforces the cooperative
    deadline.  On success the joined result is cached and the scratch
    cleared.
    """
    if checkpoint_hours < 1:
        raise ValueError("checkpoint_hours must be >= 1")
    dataset = _build_dataset(spec)
    # cores_per_job widens the tiled chemistry pool; bitwise-invariant,
    # so cached results stay valid across core counts.
    full_cfg = AirshedConfig(
        dataset=dataset, hours=spec.hours, start_hour=spec.start_hour,
        chem_workers=spec.cores_per_job,
    )
    parts, checkpoint, scratch = _load_scratch(cache, spec.science_key)
    hours_done = checkpoint.hours_completed if checkpoint else 0

    while hours_done < spec.hours:
        check_time()
        fault_point(hours_done)
        chunk = min(checkpoint_hours, spec.hours - hours_done)
        if hours_done == 0:
            cfg = replace(full_cfg, hours=chunk)
        else:
            cfg = replace(resume_config(full_cfg, checkpoint), hours=chunk)
        part = SequentialAirshed(cfg).run()
        idx = len(parts)
        with (scratch / f"part_{idx:03d}.pkl").open("wb") as fh:
            pickle.dump(part, fh, protocol=pickle.HIGHEST_PROTOCOL)
        checkpoint = save_checkpoint(
            replace(full_cfg, hours=hours_done + chunk),
            part,
            scratch / f"ck_{idx:03d}.npz",
        )
        parts.append(part)
        hours_done += chunk
        if on_hours is not None:
            on_hours(chunk)
    fault_point(hours_done)

    result = concat_results(parts)
    cache.put_science(spec.science_key, result)
    cache.clear_scratch(spec.science_key)
    return result


def execute_job(
    spec: JobSpec,
    cache,
    policy: Optional[FaultPolicy] = None,
    attempt: int = 0,
    checkpoint_hours: int = 1,
    check_time: Optional[Callable[[], None]] = None,
    hang: Optional[Callable[[], None]] = None,
    on_hours: Optional[Callable[[int], None]] = None,
) -> Tuple[AirshedResult, Optional[object], bool]:
    """One attempt at one job: science (cached or run) plus replay.

    Returns ``(science result, replay timing or None, science_cached)``.
    Raises whatever the attempt died of — an injected fault, a
    simulated hang, a cooperative timeout, or a real error.
    """
    if check_time is None:
        check_time = lambda: None  # noqa: E731

    def fault_point(hours_completed: int) -> None:
        action = policy.action(spec.key, attempt) if policy else None
        if action is None or hours_completed < policy.after_hours:
            return
        if action == "raise":
            raise InjectedFault(
                f"injected fault in {spec.label} after {hours_completed}h"
            )
        if hang is not None:
            hang()
        raise InjectedHang(f"injected hang in {spec.label}")

    science = cache.get_science(spec.science_key)
    science_cached = science is not None
    if science_cached:
        fault_point(spec.hours)  # replay-only jobs still get their fault
    else:
        science = execute_science(
            spec, cache, fault_point, check_time,
            checkpoint_hours=checkpoint_hours, on_hours=on_hours,
        )

    check_time()
    timing = None
    if spec.variant != "sequential":  # a sequential job names no machine
        timing = replay(
            spec.variant, science.trace, get_machine(spec.machine),
            spec.nprocs, io_nodes=spec.io_nodes,
        )
    return science, timing, science_cached


def _process_entry(
    spec_dict: Dict,
    cache,
    policy: Optional[FaultPolicy],
    attempt: int,
    checkpoint_hours: int,
    out_path: str,
) -> None:
    """Child-process attempt: run the job, pickle the outcome.

    ``cache`` is the parent's result store, shipped whole (stores are
    picklable) so a sharded store keeps its exact layout in the child.
    """
    spec = JobSpec.from_dict(spec_dict)
    stats = {"sim_hours": 0}

    def on_hours(h: int) -> None:
        stats["sim_hours"] += h

    def hang() -> None:  # a genuinely wedged worker; the parent kills us
        while True:
            time.sleep(0.05)

    try:
        _, timing, science_cached = execute_job(
            spec, cache, policy=policy, attempt=attempt,
            checkpoint_hours=checkpoint_hours, hang=hang, on_hours=on_hours,
        )
        payload = {
            "ok": True,
            "timing": timing,
            "science_cached": science_cached,
            "stats": stats,
        }
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        payload = {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "stats": stats,
        }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(out_path, blob, fsync=False)


# ---------------------------------------------------------------------------
# the executors
# ---------------------------------------------------------------------------
class _InProcessExecutor:
    """Shared attempt body for the thread and inline executors."""

    name = "thread"
    concurrent = True

    def run_attempt(self, spec: JobSpec, attempt: int,
                    env: AttemptEnv) -> AttemptOutcome:
        deadline = (
            None if env.timeout is None else env.clock() + env.timeout
        )

        def check_time() -> None:
            if deadline is not None and env.clock() > deadline:
                raise JobTimeoutError(
                    f"{spec.label} exceeded {env.timeout:g}s"
                )

        def on_hours(h: int) -> None:
            env.count("campaign:sim_hours", h)

        return execute_job(
            spec, env.cache, policy=env.fault_policy, attempt=attempt,
            checkpoint_hours=env.checkpoint_hours, check_time=check_time,
            hang=None, on_hours=on_hours,
        )


class ThreadExecutor(_InProcessExecutor):
    """In-process attempts; chains dispatch onto pool threads."""


class InlineExecutor(_InProcessExecutor):
    """In-process attempts; chains run in plan order, one thread."""

    name = "inline"
    concurrent = False


class ProcessExecutor:
    """Each attempt in a child process a timeout can really kill."""

    name = "process"
    concurrent = True

    def run_attempt(self, spec: JobSpec, attempt: int,
                    env: AttemptEnv) -> AttemptOutcome:
        import multiprocessing

        out_dir = env.cache.root / "scratch"
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"attempt-{spec.key[:16]}-{attempt}.pkl"
        out_path.unlink(missing_ok=True)
        proc = multiprocessing.Process(
            target=_process_entry,
            args=(spec.to_dict(), env.cache, env.fault_policy,
                  attempt, env.checkpoint_hours, str(out_path)),
        )
        proc.start()
        proc.join(env.timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            out_path.unlink(missing_ok=True)
            raise JobTimeoutError(
                f"{spec.label} exceeded {env.timeout:g}s (worker killed)"
            )
        if not out_path.is_file():
            raise RuntimeError(
                f"{spec.label} worker died (exit code {proc.exitcode})"
            )
        with out_path.open("rb") as fh:
            payload = pickle.load(fh)
        out_path.unlink(missing_ok=True)
        env.count("campaign:sim_hours", payload["stats"]["sim_hours"])
        if not payload["ok"]:
            err_type = payload.get("error_type", "")
            message = payload.get("error", "job failed")
            if err_type in ("InjectedHang", "JobTimeoutError"):
                raise JobTimeoutError(message)
            if err_type == "InjectedFault":
                raise InjectedFault(message)
            raise RuntimeError(f"{err_type}: {message}")
        science = env.cache.get_science(spec.science_key)
        if science is None:
            raise RuntimeError(
                f"{spec.label} worker reported success but cached no result"
            )
        return science, payload["timing"], payload["science_cached"]


def build_executor(executor) -> Executor:
    """Resolve an executor name (or pass through an instance)."""
    if isinstance(executor, str):
        if executor == "thread":
            return ThreadExecutor()
        if executor == "process":
            return ProcessExecutor()
        if executor == "inline":
            return InlineExecutor()
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    if not isinstance(executor, Executor):
        raise ValueError(
            f"executor must be one of {EXECUTORS} or implement the "
            "Executor protocol"
        )
    return executor
