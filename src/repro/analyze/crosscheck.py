"""Pass 4 — static plan vs executed trace (FX030).

The analyzer claims to know, without running anything, exactly which
communication steps the runtime will charge.  This module keeps it
honest: it replays a synthetic workload through the *real* simulated
driver with a span tracer attached, extracts the ordered communication
steps that actually executed, and compares them against
:meth:`FxProgram.comm_plan`.  Any divergence — a missing step, an extra
step, a different order — is an **FX030** error: either the program
description or the analyzer is wrong.

For the paper's configuration (LA dataset on the Cray T3E, 64 nodes,
4 hours of 6 main-loop steps each — the 10-minute operational step) the
data-parallel plan has exactly **77** communication steps::

    1                 initial D_Repl->D_Trans of the run
    + 4 x (3 x 6)     three redistributions per step
    + 4               one output gather per hour

:func:`paper_configuration` builds that program; the shipped tests pin
the 77.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.program import FxProgram
from repro.analyze.programs import build_dataparallel
from repro.model.results import HourTrace, StepTrace, WorkloadTrace
from repro.model.taskparallel import replay
from repro.observe.tracer import Span, Tracer

__all__ = [
    "synthetic_trace",
    "executed_comm_steps",
    "crosscheck_spans",
    "run_crosscheck",
    "paper_configuration",
]


#: The replay variant (:func:`repro.model.taskparallel.replay`) that
#: executes each shipped driver — what FX030 runs to check its plan.
DRIVER_VARIANTS = {
    "sequential": "sequential",
    "dataparallel": "data",
    "taskparallel": "task",
}


def paper_configuration() -> FxProgram:
    """The paper's LA / Cray T3E / 64-node data-parallel program.

    4 hours of 6 steps each: ``1 + 4*(3*6) + 4 = 77`` communication
    steps (see the module docstring for the accounting).
    """
    return build_dataparallel(
        dataset="la", machine="t3e", nprocs=64, hours=4, steps_per_hour=6
    )


def synthetic_trace(
    shape: Sequence[int],
    hours: int,
    steps_per_hour: int,
    start_hour: int = 6,
    input_bytes: int = 1 << 20,
    output_bytes: int = 1 << 20,
) -> WorkloadTrace:
    """A zero-work :class:`WorkloadTrace` with the given step structure.

    All op counts are zero, so replaying it charges only communication
    and (zero-cost) compute/I/O phases — the phase *sequence* is
    identical to a real workload's, which is all the cross-check needs,
    and the replay runs in milliseconds.
    """
    species, layers, npoints = (int(s) for s in shape)
    trace = WorkloadTrace(dataset_name="synthetic",
                          shape=(species, layers, npoints))
    for i in range(hours):
        steps = [
            StepTrace(
                transport1_ops=np.zeros(layers),
                chemistry_ops=np.zeros(npoints),
                aerosol_ops=0.0,
                transport2_ops=np.zeros(layers),
            )
            for _ in range(steps_per_hour)
        ]
        trace.hours.append(HourTrace(
            hour=(start_hour + i) % 24,
            input_bytes=int(input_bytes),
            input_ops=0.0,
            pretrans_ops=0.0,
            nsteps=steps_per_hour,
            steps=steps,
            output_bytes=int(output_bytes),
            output_ops=0.0,
        ))
    return trace


def executed_comm_steps(spans: Sequence[Span]) -> List[str]:
    """Ordered communication-step names extracted from a span stream.

    The cluster emits one node span per participant per communication
    phase, all sharing the phase's ``(name, start, end)``; consecutive
    identical keys collapse to one step.
    """
    steps: List[str] = []
    previous = None
    for span in spans:
        if span.kind != "comm":
            continue
        key = (span.name, span.start, span.end)
        if key != previous:
            steps.append(span.name)
            previous = key
    return steps


def crosscheck_spans(
    program: FxProgram, spans: Sequence[Span]
) -> Tuple[List[Diagnostic], Dict[str, Any]]:
    """Compare the static plan with an executed span stream."""
    predicted = [step.name for step in program.comm_plan()]
    executed = executed_comm_steps(spans)
    info: Dict[str, Any] = {
        "predicted_comm_steps": len(predicted),
        "executed_comm_steps": len(executed),
    }
    divergence = None
    for index, (want, got) in enumerate(zip(predicted, executed)):
        if want != got:
            divergence = {"index": index, "predicted": want, "executed": got}
            break
    if divergence is None and len(predicted) != len(executed):
        index = min(len(predicted), len(executed))
        divergence = {
            "index": index,
            "predicted": predicted[index] if index < len(predicted) else None,
            "executed": executed[index] if index < len(executed) else None,
        }
    if divergence is None:
        return [], info
    diag = Diagnostic(
        "FX030",
        f"executed trace diverges from the static plan at step "
        f"{divergence['index']}: predicted {divergence['predicted']!r}, "
        f"executed {divergence['executed']!r} "
        f"({len(predicted)} predicted vs {len(executed)} executed steps)",
        details={**info, "first_divergence": divergence},
    )
    return [diag], info


def run_crosscheck(program: FxProgram) -> Tuple[List[Diagnostic], Dict[str, Any]]:
    """Replay the program's driver on a synthetic workload and compare.

    Only meaningful for the drivers with a replay path; the sequential
    program has an empty plan and trivially passes.
    """
    meta = program.meta
    driver = meta.get("driver")
    if driver not in DRIVER_VARIANTS:
        raise KeyError(
            f"program {program.name!r} has no replayable driver "
            f"(meta.driver = {driver!r})"
        )
    shape = meta.get("shape") or [a.shape for a in program.arrays][0]
    hours = int(meta.get("hours", 1))
    steps = int(meta.get("steps_per_hour", 1))
    trace = synthetic_trace(
        shape, hours, steps,
        input_bytes=int(meta.get("input_bytes", 1 << 20)),
    )
    tracer = Tracer()
    replay(DRIVER_VARIANTS[driver], trace, program.machine, program.nprocs,
           io_nodes=int(meta.get("io_nodes", 1)), tracer=tracer)
    return crosscheck_spans(program, tracer.spans)
