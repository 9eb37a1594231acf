"""The sequential reference Airshed driver (Figure 1 of the paper).

::

    DO i = 1, nhrs
        CALL inputhour(A)
        CALL pretrans(A)
        DO j = 1, nsteps
            CALL transport(A)
            CALL chemistry(A)
            CALL transport(A)
        ENDDO
        CALL outputhour(A)
    ENDDO

Besides producing the science output, the sequential run records the
:class:`~repro.model.results.WorkloadTrace` that the parallel execution
simulator replays for any machine and node count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.io.hourly import inputhour, outputhour, pretrans
from repro.model.config import AirshedConfig
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult, HourTrace, StepTrace, WorkloadTrace
from repro.observe.tracer import Tracer

__all__ = ["SequentialAirshed", "TRACKED_SPECIES", "hour_loop"]

#: Species whose hourly domain means are recorded in results.
TRACKED_SPECIES = ("O3", "NO", "NO2", "PAN", "HCHO", "AERO")


class SequentialAirshed:
    """Run the Airshed model on one (real) processor.

    The run emits wall-clock spans (hours, steps, phases) into
    ``self.tracer`` — a real profile of the numerics, in the same format
    the simulated drivers produce, exportable with
    :func:`repro.observe.write_chrome_trace`.
    """

    def __init__(self, config: AirshedConfig, tracer: Optional[Tracer] = None):
        self.config = config
        self.physics = AirshedPhysics(config)
        self.tracer = tracer if tracer is not None else Tracer()

    def run(self) -> AirshedResult:
        return hour_loop([self.config], self.physics, self.tracer)[0]


def hour_loop(
    configs: Sequence[AirshedConfig],
    phys: AirshedPhysics,
    tracer: Tracer,
) -> List[AirshedResult]:
    """The Figure 1 hour loop over one or more member states.

    The members share ``phys`` (solver, transport setup, step counts)
    and differ only in their emission inventories — see
    :func:`repro.model.batched.run_batched`, which checks that.  One
    member is the sequential run; several are integrated as one
    chemistry sweep per step while every phase that is not per-point
    (transport application, the aerosol step, I/O packing) runs per
    member.  The loop owns the solver's tile pool: it is released when
    the run returns or raises.
    """
    nmem = len(configs)
    # Sequential runs keep the plain span/counter shape; batched runs
    # tag their spans with the member count.
    tag = {"members": nmem} if nmem > 1 else {}
    datasets = [cfg.dataset for cfg in configs]
    head = configs[0]
    mech = datasets[0].mechanism
    solver = phys.solver

    concs = [cfg.starting_concentrations() for cfg in configs]
    traces = [
        WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        for ds in datasets
    ]
    hourly_mean: List[Dict[str, List[float]]] = [
        {s: [] for s in TRACKED_SPECIES} for _ in range(nmem)
    ]
    surfaces: List[List[np.ndarray]] = [[] for _ in range(nmem)]
    members = range(nmem)

    span = tracer.span
    try:
        for h_idx in range(head.hours):
            hour = head.hour_of_day(h_idx)
            with span(f"hour:{hour:02d}", kind="hour", hour=hour, **tag):
                # --- inputhour per member (each parses its own scaled
                # inventory through the real pack/unpack), pretrans once:
                # it depends only on the wind field ---
                with span("io:inputhour", kind="io", **tag):
                    inres = [inputhour(ds, hour) for ds in datasets]
                conds = [r.conditions for r in inres]
                # Perturbation touches only emissions; meteorology is the
                # base dataset's, identical for every member.
                for cond in conds[1:]:
                    if (cond.temperature != conds[0].temperature
                            or cond.sun != conds[0].sun):
                        raise ValueError(
                            "members disagree on meteorology; cannot batch"
                        )
                nsteps, dt = phys.hour_steps(hour)
                with span("io:pretrans", kind="io"):
                    operators, pre_ops = pretrans(
                        datasets[0], phys.transport, hour, dt / 2.0
                    )

                steps: List[List[StepTrace]] = [[] for _ in members]
                for j in range(nsteps):
                    with span(f"step:{j}", kind="step", index=j):
                        with span("transport", kind="compute", **tag):
                            t1 = [
                                _transport_all(phys, concs[i], operators,
                                               conds[i])
                                for i in members
                            ]
                        with span("chemistry", kind="compute", **tag):
                            t_chem = tracer.now()
                            chem = phys.chemistry_members(concs, conds, dt)
                            # Rebind here: the pre-chemistry states are
                            # released inside the span that replaced them.
                            concs = [out for out, _ in chem]
                            if nmem > 1:
                                tracer.counters.inc("ensemble:batches")
                                tracer.counters.inc(
                                    "ensemble:batched_members", nmem)
                                tracer.counters.observe(
                                    "ensemble:members_per_batch", nmem)
                            # Per-worker tile spans (no-op without a pool).
                            solver.emit_tile_spans(tracer, t_chem)
                        with span("aerosol", kind="compute", **tag):
                            # The condensation sink is each member's own
                            # domain-global aerosol mean: strictly per run.
                            aero_ops = [
                                phys.aerosol_step(concs[i]) for i in members
                            ]
                        with span("transport", kind="compute", **tag):
                            t2 = [
                                _transport_all(phys, concs[i], operators,
                                               conds[i])
                                for i in members
                            ]
                    for i in members:
                        steps[i].append(
                            StepTrace(
                                transport1_ops=t1[i],
                                chemistry_ops=chem[i][1],
                                aerosol_ops=aero_ops[i],
                                transport2_ops=t2[i],
                            )
                        )

                with span("io:outputhour", kind="io", **tag):
                    outs = [outputhour(hour, concs[i]) for i in members]
            for i in members:
                _, out_bytes, out_ops = outs[i]
                traces[i].hours.append(
                    HourTrace(
                        hour=hour,
                        input_bytes=inres[i].nbytes,
                        input_ops=inres[i].ops,
                        pretrans_ops=pre_ops,
                        nsteps=nsteps,
                        steps=steps[i],
                        output_bytes=out_bytes,
                        output_ops=out_ops,
                    )
                )
                for s in TRACKED_SPECIES:
                    hourly_mean[i][s].append(
                        float(concs[i][mech.index[s]].mean())
                    )
                if head.track_surface_fields:
                    surfaces[i].append(concs[i][:, 0, :].copy())
    finally:
        solver.close()

    return [
        AirshedResult(
            trace=traces[i],
            final_conc=concs[i],
            hourly_mean=hourly_mean[i],
            hourly_surface=surfaces[i] if head.track_surface_fields else None,
        )
        for i in members
    ]


def _transport_all(phys, conc, operators, conditions) -> np.ndarray:
    """Transport every layer in place; per-layer op counts."""
    ops = np.zeros(phys.dataset.layers)
    for layer, op in enumerate(operators):
        conc[:, layer, :], ops[layer] = phys.transport_layer(
            conc[:, layer, :], op, conditions.boundary
        )
    return ops
