"""Turning runs into :class:`~repro.tune.store.Observation` records.

Three harvest paths feed the calibration store:

* :func:`harvest_report` — a finished :class:`~repro.sched.report.
  CampaignReport`: one host ``job`` observation per executed job (wall
  seconds vs the plan's prediction, plus the §4 op count so the host
  rate can refit) and one ``makespan`` observation for the campaign.
* :func:`observations_from_tracer` — an observed span stream reduced to
  the Figure-4 component buckets, paired with the analytic prediction
  for the same (machine, P) point: the drift detector's diet.
* :func:`observations_from_timelines` — simulated-replay
  :class:`~repro.vm.traffic.Timeline` records, yielding per-phase comm
  observations carrying the exact (messages, bytes moved, bytes copied)
  counts that the L/G/H refit regresses against, and per-phase compute
  observations for the machine-rate refit.

:func:`traced_replay` runs the data-parallel replay with both a tracer
and the runtime timeline exposed (``replay_data_parallel`` returns only
the timing summary), optionally under a perturbed
:class:`~repro.vm.machine.MachineSpec` — which is how the drift tests
inject a miscalibrated profile.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.model.dataparallel import replayed
from repro.model.results import WorkloadTrace
from repro.observe.compare import COMPONENTS, breakdown
from repro.observe.tracer import Tracer
from repro.perfmodel.predict import PerformancePredictor
from repro.tune.store import Observation, utc_timestamp
from repro.vm.machine import MachineSpec, get_machine
from repro.vm.traffic import Timeline

__all__ = [
    "job_ops",
    "harvest_report",
    "observations_from_tracer",
    "observations_from_timelines",
    "traced_replay",
]


def job_ops(spec, steps_per_hour: int = 5) -> float:
    """Total §4 abstract ops of a job's estimated workload trace."""
    from repro.sched.costmodel import episode_trace

    trace = episode_trace(spec.dataset, spec.hours, spec.start_hour,
                          steps_per_hour)
    return float(sum(trace.total_ops_by_phase().values()))


def harvest_report(
    report,
    *,
    source: str = "campaign",
    timestamp: Optional[str] = None,
    steps_per_hour: int = 5,
) -> List[Observation]:
    """Observations from one finished campaign report.

    Every executed (non-cached) ok job contributes a host ``job``
    observation — wall seconds already exclude retry queue wait (the
    runner measures the final attempt only) — and, when at least one
    job actually ran, the campaign contributes one host ``makespan``
    observation at the plan's worker count.  Cache hits carry no
    wall-clock signal and are skipped.
    """
    if timestamp is None:
        timestamp = utc_timestamp()
    out: List[Observation] = []
    datasets = set()
    executed = 0
    for r in report.results:
        if not r.ok or r.from_cache or r.wall_s <= 0:
            continue
        executed += 1
        datasets.add(r.spec.dataset)
        ops = None if r.science_cached else job_ops(
            r.spec, steps_per_hour=steps_per_hour
        )
        out.append(Observation(
            dataset=r.spec.dataset,
            machine="host",
            nprocs=1,
            variant=r.spec.variant,
            cores_per_job=r.spec.cores_per_job,
            phase="job",
            observed_s=float(r.wall_s),
            predicted_s=float(r.predicted_s) if r.predicted_s > 0 else None,
            ops=ops,
            hours=r.spec.hours,
            source=source,
            timestamp=timestamp,
        ))
    if executed and report.observed_makespan_s > 0:
        dataset = datasets.pop() if len(datasets) == 1 else "*"
        out.append(Observation(
            dataset=dataset,
            machine="host",
            nprocs=report.plan.workers,
            variant="campaign",
            cores_per_job=1,
            phase="makespan",
            observed_s=float(report.observed_makespan_s),
            predicted_s=float(report.predicted_makespan_s) or None,
            source=source,
            timestamp=timestamp,
        ))
    return out


def observations_from_tracer(
    tracer: Tracer,
    *,
    dataset: str,
    machine: str,
    nprocs: int,
    variant: str = "data",
    trace: Optional[WorkloadTrace] = None,
    machine_spec: Optional[MachineSpec] = None,
    source: str = "trace",
    timestamp: Optional[str] = None,
) -> List[Observation]:
    """Figure-4 bucket observations from an observed span stream.

    Each non-empty component bucket becomes one observation; when the
    workload ``trace`` is given, the §4 prediction for the same
    (machine, P) point is attached per bucket so the drift detector can
    compare.  ``machine_spec`` overrides the predicting profile (the
    perturbed-profile drift scenario); the observation still files
    under ``machine``'s name.
    """
    if timestamp is None:
        timestamp = utc_timestamp()
    obs_buckets = breakdown(tracer)
    pred_buckets: Dict[str, float] = {}
    if trace is not None:
        spec = machine_spec if machine_spec is not None else get_machine(machine)
        pred_buckets = PerformancePredictor(trace, spec).predict(
            nprocs
        ).compute_breakdown()
    out: List[Observation] = []
    for component in COMPONENTS:
        observed = obs_buckets.get(component, 0.0)
        if observed <= 0:
            continue
        out.append(Observation(
            dataset=dataset,
            machine=machine,
            nprocs=nprocs,
            variant=variant,
            cores_per_job=1,
            phase=component,
            observed_s=float(observed),
            predicted_s=pred_buckets.get(component),
            source=source,
            timestamp=timestamp,
        ))
    return out


def observations_from_timelines(
    timelines: Iterable[Timeline],
    *,
    dataset: str,
    machine: str,
    nprocs: int,
    variant: str = "data",
    source: str = "replay",
    timestamp: Optional[str] = None,
) -> List[Observation]:
    """Per-phase comm/compute observations from replay timelines.

    Communication records carry the bottleneck node's exact traffic
    counts — the rows :func:`repro.perfmodel.calibrate.
    refit_observations` regresses L/G/H from.  Compute records carry
    the bottleneck node's op count for the machine-rate refit.
    """
    if timestamp is None:
        timestamp = utc_timestamp()
    out: List[Observation] = []
    for timeline in timelines:
        for rec in timeline.records(kind="comm"):
            if rec.duration <= 0:
                continue
            t = rec.max_node_traffic()
            out.append(Observation(
                dataset=dataset,
                machine=machine,
                nprocs=nprocs,
                variant=variant,
                cores_per_job=1,
                phase=f"comm:{rec.name}",
                observed_s=float(rec.duration),
                messages=float(t.messages),
                bytes_moved=float(t.bytes_moved),
                bytes_copied=float(t.bytes_copied),
                source=source,
                timestamp=timestamp,
            ))
        for rec in timeline.records(kind="compute"):
            if rec.duration <= 0 or not rec.ops:
                continue
            out.append(Observation(
                dataset=dataset,
                machine=machine,
                nprocs=nprocs,
                variant=variant,
                cores_per_job=1,
                phase=f"compute:{rec.name}",
                observed_s=float(rec.duration),
                ops=float(max(rec.ops.values())),
                source=source,
                timestamp=timestamp,
            ))
    return out


def traced_replay(
    trace: WorkloadTrace,
    machine_spec: MachineSpec,
    nprocs: int,
):
    """:func:`~repro.model.dataparallel.replay_data_parallel` returning
    ``(tracer, timeline)`` instead of the timing summary."""
    _, rt = replayed(trace, machine_spec, nprocs, tracer=Tracer())
    return rt.tracer, rt.timeline
