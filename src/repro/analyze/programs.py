"""The shipped model drivers as analyzable programs.

Each registered builder produces the :class:`~repro.analyze.program.FxProgram`
description of one mapping of the Airshed program — the same phase
structure the driver executes, written down statically so the analyzer
can check it without running anything:

* ``sequential`` — one node, I/O and compute only (no directives);
* ``dataparallel`` — the Section 2.2 main loop: per step
  ``D_Repl -> D_Trans -> D_Chem -> D_Repl -> D_Trans`` around
  transport/chemistry/aerosol, one output gather per hour;
* ``taskparallel`` — the Section 5 pipeline: input / main / output task
  regions with the declared I/O sets of
  :data:`repro.model.taskparallel.STAGE_IO` and explicit inter-stage
  handoffs.

All three are generated from the tables the drivers themselves execute
(:mod:`repro.model.mainloop`: the step schedule, the stages' I/O phases,
``PHASE_IO`` and ``STAGE_IO``), so a change to the model's program is a
change to the analyzer's; FX030 then checks the generated plan against
the executed trace.

Test fixtures (and future drivers) can add themselves with
:func:`register_program`; ``repro lint --driver <name>`` resolves
against this registry.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.analyze.program import ArrayDecl, FxProgram, PhaseDecl, TaskDecl
from repro.datasets.registry import DATASET_SHAPES
from repro.fx.runtime import dist_label
from repro.model.mainloop import (
    D_REPL,
    INPUT_IO,
    OUTPUT_IO,
    PHASE_IO,
    STAGE_IO,
    STEP_SCHEDULE,
)
from repro.vm.machine import get_machine

__all__ = [
    "DATASET_SHAPES",
    "PHASE_IO",
    "available_programs",
    "register_program",
    "build_program",
    "build_sequential",
    "build_dataparallel",
    "build_taskparallel",
]

def _io(name: str, task: Optional[str]) -> PhaseDecl:
    return PhaseDecl(op="io", name=name, task=task, **PHASE_IO[name])


def _phases(
    hours: int,
    steps_per_hour: int,
    distributed: bool,
    handoffs: Optional[Tuple[int, int]],
) -> List[PhaseDecl]:
    """The model's phase sequence under one mapping.

    ``distributed=False`` is the sequential run (no directives).
    ``handoffs=None`` keeps the stages on one group, where a gather
    precedes ``outputhour``; ``(input_bytes, array_bytes)`` places them
    on the three task regions with those inter-stage transfers.
    """
    staged = handoffs is not None
    in_task, main_task, out_task = tuple(STAGE_IO) if staged else (None,) * 3
    hour = [_io(name, in_task) for name, _, _ in INPUT_IO]
    if staged:
        hour.append(PhaseDecl(
            op="handoff", name=f"pipe:{in_task}->{main_task}", task=in_task,
            nbytes=handoffs[0],
        ))
    step: List[PhaseDecl] = []
    for dist, phase, _ in STEP_SCHEDULE:
        if distributed:
            step.append(PhaseDecl(
                op="redistribute", name=f"->{dist_label(dist)}", array="conc",
                target=dist, task=main_task,
            ))
        step.append(PhaseDecl(
            op="compute", name=phase, array="conc",
            layout=dist if distributed else None, task=main_task,
            **PHASE_IO[phase],
        ))
    hour += step * steps_per_hour
    if staged:
        hour.append(PhaseDecl(
            op="handoff", name=f"pipe:{main_task}->{out_task}",
            task=main_task, nbytes=handoffs[1], reads=frozenset({"conc"}),
        ))
    elif distributed:
        hour.append(PhaseDecl(
            op="gather", name="gather:outputhour", array="conc",
            reads=frozenset({"conc"}),
        ))
    hour += [_io(name, out_task) for name, _, _ in OUTPUT_IO]
    return hour * hours


def _build(
    driver: str,
    dataset: str = "la",
    machine="t3e",
    nprocs: int = 64,
    hours: int = 4,
    steps_per_hour: int = 6,
    io_nodes: int = 1,
    input_bytes: int = 1 << 20,
    shape: Optional[Tuple[int, int, int]] = None,
    **_ignored,
) -> FxProgram:
    """The Airshed program under the mapping ``driver`` names.

    ``io_nodes`` and ``input_bytes`` matter to ``taskparallel`` only:
    ``input_bytes`` sizes the per-hour input-stage handoff (the real
    driver forwards the parsed hourly record; any positive size yields
    the same step sequence), and the main -> output handoff carries the
    whole concentration array.  ``sequential`` always runs on one node.
    """
    if shape is None:
        if dataset not in DATASET_SHAPES:
            raise KeyError(
                f"unknown dataset {dataset!r}; choose from "
                f"{sorted(DATASET_SHAPES)} or pass an explicit shape"
            )
        shape = DATASET_SHAPES[dataset]
    shape = tuple(shape)
    if isinstance(machine, str):
        machine = get_machine(machine)
    distributed = driver != "sequential"
    meta = {"driver": driver, "dataset": dataset, "hours": hours,
            "steps_per_hour": steps_per_hour}
    tasks: List[TaskDecl] = []
    handoffs = None
    if driver == "taskparallel":
        # Sized like repro.model.mainloop.task_mapping, unchecked: an
        # impossible split is the directive checker's to report.
        sizes = (io_nodes, nprocs - 2 * io_nodes, io_nodes)
        tasks = [TaskDecl(name, size, **STAGE_IO[name])
                 for name, size in zip(STAGE_IO, sizes)]
        handoffs = (int(input_bytes),
                    shape[0] * shape[1] * shape[2] * machine.wordsize)
        meta.update(io_nodes=io_nodes, input_bytes=int(input_bytes))
    meta["shape"] = list(shape)
    return FxProgram(
        name=f"{driver}[{dataset}]",
        machine=machine,
        nprocs=nprocs if distributed else 1,
        arrays=[ArrayDecl("conc", shape, itemsize=machine.wordsize,
                          initial=D_REPL if distributed else None,
                          group="main" if tasks else None)],
        tasks=tasks,
        phases=_phases(hours, steps_per_hour, distributed, handoffs),
        meta=meta,
    )


#: The sequential reference: one node, no directives, no comm.
build_sequential = partial(_build, "sequential")
#: The Section 2.2 data-parallel main loop.
build_dataparallel = partial(_build, "dataparallel")
#: The Section 5 pipelined driver: input / main / output regions.
build_taskparallel = partial(_build, "taskparallel")

#: Registered program builders, keyed by driver name.
_REGISTRY: Dict[str, Callable[..., FxProgram]] = {
    "sequential": build_sequential,
    "dataparallel": build_dataparallel,
    "taskparallel": build_taskparallel,
}


def available_programs() -> List[str]:
    return sorted(_REGISTRY)


def register_program(name: str, builder: Callable[..., FxProgram]) -> None:
    """Add a named program builder (test fixtures, future drivers)."""
    _REGISTRY[name] = builder


def build_program(driver: str, **kwargs) -> FxProgram:
    """Build the registered program ``driver`` with the given options."""
    if driver not in _REGISTRY:
        raise KeyError(
            f"unknown driver {driver!r}; registered: {available_programs()}"
        )
    return _REGISTRY[driver](**kwargs)
