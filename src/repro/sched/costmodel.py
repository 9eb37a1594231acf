"""Pricing campaign jobs with the Section 4 performance model.

The planner needs two numbers per job before anything runs:

* ``wall_s`` — predicted wall-clock seconds to *execute* the job on
  this host.  Executing means running the real Python numerics
  (sequential, dominated by chemistry) plus, for parallel variants, a
  cheap replay of the recorded workload.  The science part is a
  Section-4 prediction of an
  :func:`~repro.perfmodel.estimate.estimated_trace` on the
  :func:`~repro.vm.machine.workstation_spec` host profile at P=1 —
  the same ``T_par = T_seq / min(parallelism, P)`` machinery, pointed
  at the machine that actually does the work;
* ``sim_s`` — predicted *simulated* seconds on the job's target
  machine/P, the number the paper's tables report.  Pure bookkeeping
  for the plan output, but free once the estimated trace exists.

Jobs sharing a science key share one expensive numerics run (the
runner caches it), so the model charges the science cost once per
science key and a replay-only cost to the rest; a cache-aware model
(constructed with the campaign's cache) charges nothing for science
that is already stored.

A price is a pure function of values — the episode, the machine profile
*by value*, the node count — so the estimated trace and each Section-4
total are derived once per process (:func:`episode_trace`,
:func:`_predicted_total`: bounded, keyed by those values) however many
models a daemon builds.  A calibrated profile, a refit host rate or a
tile fraction is a different value and therefore a different price.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from repro.datasets.registry import DATASET_SHAPES, get_dataset
from repro.model.results import WorkloadTrace, freeze_arrays
from repro.perfmodel.estimate import estimated_trace
from repro.perfmodel.intranode import chemistry_fraction, intra_job_speedup
from repro.perfmodel.predict import PerformancePredictor
from repro.sched.cache import ResultCache
from repro.sched.job import JobResult, JobSpec
from repro.vm.machine import (
    HOST_OPS_PER_SECOND,
    MachineSpec,
    get_machine,
    workstation_spec,
)

__all__ = ["PredictedJobCost", "CampaignCostModel", "episode_trace"]

#: Wall overhead of replaying a recorded workload on the simulated
#: machine: per main-loop step plus a fixed layout/plan setup cost.
REPLAY_WALL_PER_STEP = 2e-3
REPLAY_WALL_BASE = 0.05

#: Wall fraction of the *chemistry* phase that an additional member of
#: a batched ensemble sweep costs, relative to running it alone.  The
#: batched solver amortises the adaptive loop's fixed per-iteration
#: overhead (gather/scatter setup, mask bookkeeping, kernel dispatch)
#: across members while the per-point arithmetic still scales with
#: member count, so the marginal member pays roughly this share
#: (measured in ``benchmarks/perf``; see ``docs/SCHEDULER.md``).
#: Non-chemistry phases (transport application, aerosol, I/O packing)
#: run per member and are charged in full.
ENSEMBLE_MARGINAL_CHEMISTRY = 0.3

#: Known (species, layers, points) shapes, so pricing a job never
#: materialises a shipped dataset;
#: unknown (registered) datasets are materialised once and memoized.
_SHAPE_CACHE: Dict[str, Tuple[int, int, int]] = dict(DATASET_SHAPES)


def _dataset_shape(name: str) -> Tuple[int, int, int]:
    if name not in _SHAPE_CACHE:
        _SHAPE_CACHE[name] = get_dataset(name).shape
    return _SHAPE_CACHE[name]


@lru_cache(maxsize=256)
def episode_trace(dataset: str, hours: int, start_hour: int,
                  steps_per_hour: int) -> WorkloadTrace:
    """The nominal-work trace of one episode; shared, so read-only."""
    trace = estimated_trace(
        _dataset_shape(dataset),
        hours=hours,
        start_hour=start_hour,
        steps_per_hour=steps_per_hour,
        dataset_name=dataset,
    )
    freeze_arrays(trace)
    return trace


@lru_cache(maxsize=4096)
def _predicted_total(episode: Tuple[str, int, int, int],
                     machine: MachineSpec, nprocs: int) -> float:
    """Section-4 seconds of ``episode`` on ``nprocs`` nodes of ``machine``
    (hashed by value: a refit profile never reads another's price)."""
    return PerformancePredictor(
        episode_trace(*episode), machine
    ).predict_total(nprocs)


@dataclass(frozen=True)
class PredictedJobCost:
    """The cost model's answer for one job."""

    wall_s: float        # predicted wall-clock to execute here
    science_s: float     # wall share of the sequential numerics
    replay_s: float      # wall share of the simulated replay
    sim_s: float         # predicted simulated seconds on the target

    @property
    def replay_only(self) -> bool:
        return self.science_s == 0.0


class CampaignCostModel:
    """Price jobs for planning; optionally cache-aware.

    ``ops_per_second`` is the host's abstract-op throughput
    (:data:`~repro.vm.machine.HOST_OPS_PER_SECOND` by default);
    :meth:`calibrated` refits it from observed job runtimes, closing
    the predict -> observe -> recalibrate loop of the paper's
    methodology at the campaign level.
    """

    def __init__(
        self,
        ops_per_second: float = HOST_OPS_PER_SECOND,
        cache: Optional[ResultCache] = None,
        steps_per_hour: int = 5,
        machine_overrides: Optional[Dict[str, MachineSpec]] = None,
        tile_fraction: Optional[float] = None,
    ):
        if ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")
        self.ops_per_second = float(ops_per_second)
        self.cache = cache
        self.steps_per_hour = int(steps_per_hour)
        #: Calibrated machine profiles (``repro.tune``) keyed by short
        #: name; missing names fall back to the paper constants.
        self.machine_overrides = dict(machine_overrides or {})
        #: Refit effective tiled fraction f*e; ``None`` keeps the
        #: per-trace ``chemistry_fraction * TILE_EFFICIENCY`` path.
        self.tile_fraction = tile_fraction
        self._host = workstation_spec(self.ops_per_second)

    def _machine(self, name: str) -> MachineSpec:
        override = self.machine_overrides.get(name)
        return override if override is not None else get_machine(name)

    # ------------------------------------------------------------------
    def _episode(self, spec: JobSpec) -> Tuple[str, int, int, int]:
        return (spec.dataset, spec.hours, spec.start_hour,
                self.steps_per_hour)

    def _trace(self, spec: JobSpec) -> WorkloadTrace:
        return episode_trace(*self._episode(spec))

    def science_seconds(self, spec: JobSpec) -> float:
        """Predicted wall seconds of the sequential numerics.

        ``spec.cores_per_job > 1`` divides the single-core prediction
        by the Amdahl intra-job speedup of the tiled chemistry engine
        (:func:`repro.perfmodel.intranode.intra_job_speedup`): only the
        trace's chemistry fraction tiles, everything else stays serial.
        """
        base = _predicted_total(self._episode(spec), self._host, 1)
        if spec.cores_per_job <= 1:
            return base
        if self.tile_fraction is not None:
            # Calibrated Amdahl: the refit f*e replaces the per-trace
            # chemistry_fraction * TILE_EFFICIENCY estimate.
            c = spec.cores_per_job
            fe = min(max(self.tile_fraction, 0.0), 1.0)
            return base * ((1.0 - fe) + fe / c)
        return base / intra_job_speedup(
            spec.cores_per_job, chemistry_fraction(self._trace(spec))
        )

    def marginal_science_seconds(self, spec: JobSpec) -> float:
        """Predicted wall seconds one *extra* batched member adds.

        The §4 trace decomposition prices the fused sweep: the member's
        chemistry share shrinks to :data:`ENSEMBLE_MARGINAL_CHEMISTRY`
        of its standalone cost (amortised adaptive-loop overhead), and
        every other phase — applied per member even in a batch — is
        charged in full.
        """
        trace = self._trace(spec)
        phases = trace.total_ops_by_phase()
        total = sum(phases.values())
        chem_frac = phases["chemistry"] / total if total > 0 else 0.0
        full = self.science_seconds(spec)
        return full * (1.0 - chem_frac * (1.0 - ENSEMBLE_MARGINAL_CHEMISTRY))

    def predict(
        self,
        spec: JobSpec,
        science_charged: bool = True,
        fused_member: bool = False,
    ) -> PredictedJobCost:
        """Price one job.

        ``science_charged=False`` marks a job whose science run is paid
        by an earlier job in the same campaign (shared science key);
        a cache-aware model also waives science that is already stored.
        ``fused_member`` marks a job whose science runs as an
        additional member of a batched ensemble sweep, priced at the
        marginal batched cost instead of the standalone cost.
        """
        if science_charged and self.cache is not None:
            if self.cache.get_science(spec.science_key) is not None:
                science_charged = False
        if not science_charged:
            science_s = 0.0
        elif fused_member:
            science_s = self.marginal_science_seconds(spec)
        else:
            science_s = self.science_seconds(spec)
        if spec.variant == "sequential":
            replay_s = 0.0
            sim_s = 0.0
        else:
            steps = self._trace(spec).total_steps()
            replay_s = REPLAY_WALL_BASE + REPLAY_WALL_PER_STEP * steps
            sim_s = _predicted_total(
                self._episode(spec), self._machine(spec.machine),
                spec.nprocs,
            )
        return PredictedJobCost(
            wall_s=science_s + replay_s,
            science_s=science_s,
            replay_s=replay_s,
            sim_s=sim_s,
        )

    # ------------------------------------------------------------------
    def calibrated(self, results: Iterable[JobResult]) -> "CampaignCostModel":
        """Refit the host rate from executed (non-cached) job results.

        Each observed job contributes ``predicted_ops / wall_s``; the
        median becomes the new rate.  Results that did no science work
        (cache hits, failures) are ignored.  Returns ``self`` when
        nothing usable was observed.
        """
        rates = []
        for r in results:
            if not r.ok or r.from_cache or r.science_cached or r.wall_s <= 0:
                continue
            ops = self.science_seconds(r.spec) * self.ops_per_second
            rates.append(ops / r.wall_s)
        if not rates:
            return self
        rates.sort()
        new_rate = rates[len(rates) // 2]
        return CampaignCostModel(
            ops_per_second=new_rate,
            cache=self.cache,
            steps_per_hour=self.steps_per_hour,
            machine_overrides=self.machine_overrides,
            tile_fraction=self.tile_fraction,
        )
