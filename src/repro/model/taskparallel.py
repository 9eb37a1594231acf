"""The task+data-parallel Airshed (Section 5, Figures 8 and 9).

The pure data-parallel version stalls every node during the sequential
I/O processing.  The task-parallel version splits the machine into three
pipelined task groups::

    Processing Inputs     Transport/Chemistry      Processing Outputs
       hour i+1        |       hour i          |       hour i-1
      (1 node)         |    (P - 2 nodes)      |      (1 node)

While the main computation runs hour ``i``, the input subgroup reads and
preprocesses hour ``i+1`` and the output subgroup processes and writes
hour ``i-1``.  The main loop itself is unchanged — it just runs on two
fewer nodes — so for small P the pipeline loses a little and for large P
it wins big (the paper reports ~25% on 64 Paragon nodes).  Here that is
literal: this module is the second mapping of the one program in
:mod:`repro.model.mainloop`, its stage bodies placed
:func:`~repro.model.mainloop.pipelined` on three subgroups.

:func:`replay` is the one ``variant -> replay`` entry point the
scheduler, the CLI and the analyzer's cross-check all go through.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.fx.runtime import FxRuntime
from repro.model.config import AirshedConfig
from repro.model.dataparallel import replay_data_parallel
from repro.model.mainloop import (
    STAGE_IO,
    LiveStages,
    ParallelTiming,
    ReplayStages,
    pipelined,
    task_mapping,
)
from repro.model.results import AirshedResult, WorkloadTrace
from repro.observe.tracer import Tracer
from repro.vm.machine import MachineSpec

__all__ = [
    "STAGE_IO",
    "replay",
    "replay_task_parallel",
    "replay_best_configuration",
    "TaskParallelAirshed",
]

def replay(
    variant: str,
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    io_nodes: int = 1,
    tracer: Optional[Tracer] = None,
) -> Optional[ParallelTiming]:
    """Replay ``trace`` as the ``data`` or ``task`` variant.

    ``sequential`` executes nothing in parallel and returns ``None``.
    """
    if variant == "data":
        return replay_data_parallel(trace, machine, nprocs, tracer=tracer)
    if variant == "task":
        return replay_task_parallel(
            trace, machine, nprocs, io_nodes=io_nodes, tracer=tracer
        )
    if variant == "sequential":
        return None
    raise ValueError(f"unknown variant {variant!r}")


def replay_task_parallel(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    io_nodes: int = 1,
    tracer: Optional[Tracer] = None,
) -> ParallelTiming:
    """Simulate the pipelined task-parallel Airshed from a trace.

    ``io_nodes`` nodes are dedicated to each of the input and output
    stages (1 in the paper); the remaining ``nprocs - 2*io_nodes`` nodes
    run the main computation.  Pass a fresh
    :class:`~repro.observe.tracer.Tracer` to capture the span stream;
    stage regions use their subgroup's own simulated clock.
    """
    sizes = task_mapping(nprocs, io_nodes)
    rt = FxRuntime(machine, nprocs, tracer=tracer)
    return pipelined(rt, ReplayStages(trace, *rt.split(sizes)), len(trace.hours))


def replay_best_configuration(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    io_candidates=(1, 2, 4),
):
    """Optimal-mapping variant (Subhlok & Vondran, cited in Section 5).

    Tries the pure data-parallel configuration and pipelined
    configurations with each candidate I/O-node count, and returns
    ``(mode, timing)`` for the fastest — so dedicating nodes to I/O
    only happens when it actually pays (on small machines it does not,
    which is why the paper's Figure 9 curves coincide at small P).
    """
    best_mode = "data-parallel"
    best = replay_data_parallel(trace, machine, nprocs)
    for io_nodes in io_candidates:
        try:
            task_mapping(nprocs, io_nodes)
        except ValueError:
            continue  # too few nodes to dedicate this many to I/O
        timing = replay_task_parallel(trace, machine, nprocs, io_nodes=io_nodes)
        if timing.total_time < best.total_time:
            best = timing
            best_mode = f"pipelined(io={io_nodes})"
    return best_mode, best


class TaskParallelAirshed:
    """Live pipelined execution: real numerics, three task groups.

    The numerics are identical to the sequential/data-parallel drivers
    (the main loop runs hour-by-hour on the compute subgroup); what the
    pipeline changes is *when* each stage's simulated time is charged:
    the input task reads hour ``i+1`` while the main computation runs
    hour ``i`` and the output task writes hour ``i-1``.
    """

    def __init__(self, config: AirshedConfig, machine: MachineSpec,
                 nprocs: int, io_nodes: int = 1,
                 tracer: Optional[Tracer] = None):
        sizes = task_mapping(nprocs, io_nodes)
        self.config = config
        self.runtime = FxRuntime(machine, nprocs, tracer=tracer)
        self.in_grp, self.main_grp, self.out_grp = self.runtime.split(sizes)

    def run(self) -> Tuple[AirshedResult, ParallelTiming]:
        rt = self.runtime
        stages = LiveStages(self.config, rt, self.in_grp, self.main_grp,
                            self.out_grp)
        timing = pipelined(rt, stages, self.config.hours)
        return stages.result(), timing
