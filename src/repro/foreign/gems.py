"""GEMS-style integrated Airshed + PopExp runs (Figures 12-13).

Environmental scientists drive the combined application through the
GEMS problem-solving environment; the structure is a four-stage
pipeline (Figure 12)::

    PreProc h+1 | Transport/Chemistry h | PostProc h-1 | PopExp h-1

This module replays a recorded Airshed workload trace — the stage
bodies and the :func:`~repro.model.mainloop.pipelined` mapping of the
task-parallel Airshed, on four subgroups instead of three — with a
PopExp stage attached in one of two configurations:

* ``native``  — PopExp written in Fx, placed as an ordinary task on a
  node subgroup (the "all Fx version" of the paper);
* ``foreign`` — PopExp as the PVM foreign module coupled through the
  :class:`~repro.foreign.interface.ForeignModuleBinding` (scenario A by
  default), which adds the small fixed relay overhead Figure 13 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.datasets.generators import Dataset
from repro.foreign.interface import ForeignModuleBinding, Scenario
from repro.foreign.popexp import PopExpFx, PopExpPvm, PopulationRaster
from repro.fx.runtime import FxRuntime
from repro.fx.tasks import PipelineStage
from repro.model.mainloop import (
    ParallelTiming,
    ReplayStages,
    pipelined,
    task_mapping,
)
from repro.model.results import WorkloadTrace
from repro.vm.machine import MachineSpec

__all__ = ["IntegratedTiming", "run_integrated"]


@dataclass
class IntegratedTiming:
    """Timing of a combined Airshed+PopExp run."""

    mode: str
    timing: ParallelTiming
    exposure: np.ndarray

    @property
    def total_time(self) -> float:
        return self.timing.total_time


def run_integrated(
    trace: WorkloadTrace,
    dataset: Dataset,
    machine: MachineSpec,
    nprocs: int,
    mode: Literal["native", "foreign"] = "native",
    scenario: Scenario = Scenario.A,
    popexp_nodes: int = 1,
    io_nodes: int = 1,
) -> IntegratedTiming:
    """Replay the integrated application on the simulated machine.

    The surface fields PopExp consumes are synthesised deterministically
    from the dataset (replay mode carries work counts, not full fields);
    both modes see identical inputs, so their exposure outputs agree
    exactly while their timings differ by the integration overhead.
    """
    sizes = task_mapping(nprocs, io_nodes, extra_nodes=popexp_nodes)
    rt = FxRuntime(machine, nprocs)
    in_grp, main_grp, out_grp, pop_grp = rt.split(sizes + [popexp_nodes])
    population = PopulationRaster.from_grid(dataset.grid)
    mech = dataset.mechanism

    if mode == "native":
        popexp = PopExpFx(pop_grp, population, mech)
        binding = None
    elif mode == "foreign":
        popexp = PopExpPvm(pop_grp, population, mech)
        binding = ForeignModuleBinding(out_grp, pop_grp, scenario=scenario)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    surface_bytes = trace.n_species * trace.npoints * machine.wordsize

    def surface_field(i: int) -> np.ndarray:
        """Deterministic stand-in for the hour's surface concentrations."""
        # Determinism audit (FX050): fixed seed per hour index — the
        # synthetic GEMS feed is identical on every run.
        rng = np.random.default_rng(1000 + i)
        base = dataset.initial_conditions()[:, 0, :]
        return base * rng.uniform(0.8, 1.6, size=(1, trace.npoints))

    def run_popexp(i: int) -> None:
        field = surface_field(i)
        if binding is not None:
            field = binding.transfer_to_foreign(field)
        popexp.process_hour(field)

    # The Airshed stages are the task-parallel program's, unchanged; the
    # foreign binding relays the surface field itself, so only the
    # native PopExp receives it as the output stage's pipeline handoff.
    timing = pipelined(
        rt, ReplayStages(trace, in_grp, main_grp, out_grp), len(trace.hours),
        output_bytes=lambda i: 0 if mode == "foreign" else surface_bytes,
        extra=[PipelineStage("popexp", pop_grp, run_popexp)],
    )
    return IntegratedTiming(
        mode=mode,
        timing=timing,
        exposure=popexp.exposure.copy(),
    )
