"""The Fx data-parallel Airshed: every stage on the whole machine.

The first mapping of the one program in :mod:`repro.model.mainloop` —
the three stage bodies run :func:`~repro.model.mainloop.back_to_back`
on the world group, so every node waits through the sequential I/O
(the bottleneck task parallelism later removes).  Two execution modes:

* :class:`DataParallelAirshed` — **live**: the real numerics execute on
  the simulated cluster through distributed arrays (owner-computes), so
  the result can be compared bitwise against the sequential reference
  while the per-node clocks record the parallel timing.
* :func:`replay_data_parallel` — **replay**: charges a recorded
  :class:`~repro.model.results.WorkloadTrace` onto the cluster without
  re-running numerics.  Exact same timing, ~1000x faster; this is what
  the figure-regeneration benchmarks sweep over machines and node
  counts.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.fx.runtime import FxRuntime
from repro.model.config import AirshedConfig
from repro.model.mainloop import (
    D_CHEM,
    D_REPL,
    D_TRANS,
    HourReplayer,
    LiveStages,
    ParallelTiming,
    ReplayStages,
    _timing_from_runtime,  # noqa: F401 - re-exported for hand-driven runtimes
    back_to_back,
)
from repro.model.results import AirshedResult, WorkloadTrace
from repro.observe.tracer import Tracer
from repro.vm.machine import MachineSpec

__all__ = [
    "D_REPL",
    "D_TRANS",
    "D_CHEM",
    "ParallelTiming",
    "DataParallelAirshed",
    "HourReplayer",
    "replay_data_parallel",
]


class DataParallelAirshed:
    """Execute the Airshed model on the simulated cluster, for real."""

    def __init__(
        self,
        config: AirshedConfig,
        machine: MachineSpec,
        nprocs: int,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.runtime = FxRuntime(machine, nprocs, tracer=tracer)

    def run(self) -> Tuple[AirshedResult, ParallelTiming]:
        rt = self.runtime
        stages = LiveStages(self.config, rt, rt.world, rt.world, rt.world)
        timing = back_to_back(rt, stages, self.config.hours)
        return stages.result(), timing


def replayed(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[ParallelTiming, FxRuntime]:
    """:func:`replay_data_parallel` plus the finished runtime (its timeline)."""
    rt = FxRuntime(machine, nprocs, tracer=tracer)
    stages = ReplayStages(trace, rt.world, rt.world, rt.world)
    return back_to_back(rt, stages, len(trace.hours)), rt


def replay_data_parallel(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    tracer: Optional[Tracer] = None,
) -> ParallelTiming:
    """Simulate the data-parallel Airshed from a recorded trace.

    Pass a fresh :class:`~repro.observe.tracer.Tracer` to capture the
    run's span stream (for ``repro trace`` export and the
    predicted-vs-observed overlay).
    """
    return replayed(trace, machine, nprocs, tracer)[0]
