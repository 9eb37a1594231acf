"""The Airshed program, written once (paper Sections 2.2 and 5).

Fx derived three programs from one source plus mapping directives; so
does this package.  The source is here:

* the **tables** — :data:`PHASE_IO` (what each phase reads and writes),
  :data:`STEP_SCHEDULE` (the redistribution cycle of one main-loop
  step), :data:`INPUT_IO` / :data:`OUTPUT_IO` (the sequential I/O phases
  bracketing an hour) and :data:`STAGE_IO` (the task-region
  declarations of the three stages).  The drivers execute them and
  ``repro.analyze.programs`` generates its static programs from the same
  objects;
* the **stage bodies** — ``input(i)`` / ``main(i, gather)`` /
  ``output(i)`` of hour ``i``, once charging a recorded trace
  (:class:`ReplayStages`, on :class:`HourReplayer`) and once executing
  the real numerics (:class:`LiveStages`);
* the **mappings** — :func:`back_to_back` places all three stages on one
  group (the data-parallel Airshed); :func:`pipelined` places them on
  disjoint subgroups sized by :func:`task_mapping` (the task-parallel
  Airshed, and GEMS with a PopExp stage appended).

Distribution sequence per main-loop step (paper Section 2.2)::

    D_Repl -> D_Trans   (copy only; before the first transport)
    D_Trans -> D_Chem   (before chemistry)
    D_Chem -> D_Repl    (the aerosol step needs assembled data)
    D_Repl -> D_Trans   (before the second transport)

with a final ``D_Trans -> D_Repl`` gather before ``outputhour``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.fx.darray import DistributedArray
from repro.fx.distribution import Distribution
from repro.fx.runtime import FxRuntime, dist_label
from repro.fx.tasks import PipelineStage
from repro.io.hourly import inputhour, outputhour, pretrans
from repro.model.config import AirshedConfig
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult, HourTrace, StepTrace, WorkloadTrace
from repro.model.sequential import TRACKED_SPECIES
from repro.vm.cluster import Subgroup
from repro.vm.transferbatch import TransferBatch

__all__ = [
    "D_REPL",
    "D_TRANS",
    "D_CHEM",
    "PHASE_IO",
    "STEP_SCHEDULE",
    "INPUT_IO",
    "OUTPUT_IO",
    "STAGE_IO",
    "ParallelTiming",
    "HourReplayer",
    "ReplayStages",
    "LiveStages",
    "task_mapping",
    "back_to_back",
    "pipelined",
]

#: The three distributions of the concentration array A(species,layers,nodes).
D_REPL = Distribution.replicated(3)
D_TRANS = Distribution.block(3, 1)
D_CHEM = Distribution.block(3, 2)

#: Declared read/write sets of the main-loop phases — the data-access
#: declarations the Fx compiler would derive from the source.
#: Declaration only: execution is unaffected.
PHASE_IO: Dict[str, Dict[str, frozenset]] = {
    "io:inputhour": dict(reads=frozenset({"hourly_inputs"}),
                         writes=frozenset({"conditions", "operators"})),
    "io:pretrans": dict(reads=frozenset({"conditions"}),
                        writes=frozenset({"operators"})),
    "transport": dict(reads=frozenset({"conc", "operators", "conditions"}),
                      writes=frozenset({"conc"})),
    "chemistry": dict(reads=frozenset({"conc", "conditions"}),
                      writes=frozenset({"conc"})),
    "aerosol": dict(reads=frozenset({"conc"}), writes=frozenset({"conc"})),
    "io:outputhour": dict(reads=frozenset({"conc"}),
                          writes=frozenset({"output_files"})),
}

#: One main-loop step: ``(target distribution, phase, StepTrace field)``.
#: Each entry redistributes ``conc`` to the target, then runs the phase.
STEP_SCHEDULE = (
    (D_TRANS, "transport", "transport1_ops"),
    (D_CHEM, "chemistry", "chemistry_ops"),
    (D_REPL, "aerosol", "aerosol_ops"),
    (D_TRANS, "transport", "transport2_ops"),
)

#: The sequential I/O phases of the input and output stages:
#: ``(phase, HourTrace bytes field or None, HourTrace ops field)``.  The
#: input task also performs the pre-transport setup for the hour it is
#: feeding to the main computation.
INPUT_IO = (
    ("io:inputhour", "input_bytes", "input_ops"),
    ("io:pretrans", None, "pretrans_ops"),
)
OUTPUT_IO = (("io:outputhour", "output_bytes", "output_ops"),)

#: Declared per-item data-access sets of the three pipeline stages — the
#: Fx task-region input/output declarations of Section 5, attached to
#: every :class:`~repro.fx.tasks.PipelineStage` :func:`pipelined` builds.
#: ``handoff`` names the variables whose per-item ownership passes to the
#: next stage with the inter-stage transfer.
STAGE_IO: Dict[str, Dict[str, frozenset]] = {
    "input": dict(
        reads=frozenset({"hourly_inputs"}),
        writes=frozenset({"prepared"}),
        handoff=frozenset({"prepared"}),
    ),
    "main": dict(
        reads=frozenset({"prepared", "conc"}),
        writes=frozenset({"conc", "snapshot"}),
        handoff=frozenset({"snapshot"}),
    ),
    "output": dict(
        reads=frozenset({"snapshot"}),
        writes=frozenset({"output_files"}),
        handoff=frozenset(),
    ),
}


@dataclass
class ParallelTiming:
    """Timing summary of one parallel run (live or replay)."""

    machine: str
    nprocs: int
    total_time: float
    breakdown: Dict[str, float]
    comm_by_step: Dict[str, float]
    comm_steps: int

    def component(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)


def _timing_from_runtime(rt: FxRuntime) -> ParallelTiming:
    # All aggregates come from the observability event stream; the
    # totals mirror the timeline's records exactly.
    comm = {
        name: secs
        for (kind, name), secs in rt.tracer.phase_totals.items()
        if kind == "comm"
    }
    return ParallelTiming(
        machine=rt.machine.name,
        nprocs=rt.nprocs,
        total_time=rt.time(),
        breakdown=rt.breakdown(),
        comm_by_step=comm,
        comm_steps=int(rt.tracer.counters.value("phases:comm")),
    )


def task_mapping(nprocs: int, io_nodes: int, extra_nodes: int = 0) -> List[int]:
    """Subgroup sizes ``[input, main, output]`` of the Section 5 mapping.

    ``io_nodes`` nodes are dedicated to each of the input and output
    stages (1 in the paper) and ``extra_nodes`` to stages appended after
    them; the rest run the main computation.  The one statement of the
    rule — a job spec, a live driver and a replay all ask here.
    """
    if io_nodes < 1:
        raise ValueError("io_nodes must be >= 1")
    main_nodes = nprocs - 2 * io_nodes - extra_nodes
    if main_nodes < 1:
        raise ValueError(
            f"task parallelism needs at least "
            f"{2 * io_nodes + extra_nodes + 1} nodes; got {nprocs}"
        )
    return [io_nodes, main_nodes, io_nodes]


# ---------------------------------------------------------------------------
# the end-of-hour gather
# ---------------------------------------------------------------------------
#: Gather batches keyed by (layout, itemsize); layouts are themselves
#: cached and immutable, so the batch is a pure function of the key.
#: Cleared wholesale past the bound, like the layout cache its keys
#: come from.
_GATHER_BATCH_CACHE: Dict[tuple, TransferBatch] = {}
_GATHER_BATCH_CACHE_MAX = 4096


def charge_output_gather(array: DistributedArray) -> None:
    """Charge the copy-out of a distributed array to its group's rank 0.

    ``outputhour`` runs sequentially on the I/O node, which needs the
    whole concentration array; each owner ships its block there once.
    Unlike a redistribution the array's live distribution is unchanged
    (the I/O node reads a snapshot), so this is receiver-bound and far
    cheaper than the all-gather ``D_Chem->D_Repl`` step.  The batched
    transfer set is memoized per (layout, itemsize).
    """
    layout = array.layout
    if layout.is_replicated:
        return  # the I/O node already holds everything
    key = (layout, array.itemsize)
    batch = _GATHER_BATCH_CACHE.get(key)
    if batch is None:
        sizes = np.array(
            [layout.local_nbytes(rank, array.itemsize)
             for rank in range(array.group.size)],
            dtype=np.int64,
        )
        src = np.flatnonzero(sizes)
        batch = TransferBatch(src, np.zeros(src.size, dtype=np.int64), sizes[src])
        if len(_GATHER_BATCH_CACHE) >= _GATHER_BATCH_CACHE_MAX:
            _GATHER_BATCH_CACHE.clear()
        _GATHER_BATCH_CACHE[key] = batch
    if len(batch):  # an array nobody owns a block of gathers nothing
        array.group.charge_communication("gather:outputhour", batch)


# ---------------------------------------------------------------------------
# the main-loop step, replayed
# ---------------------------------------------------------------------------
class HourReplayer:
    """Charges one hour's main-loop work onto a processor subgroup.

    The replay's ``main`` stage body, whatever the mapping: the subgroup
    is the whole machine (data-parallel) or the compute stage
    (pipelined).
    """

    def __init__(self, group: Subgroup, trace: WorkloadTrace, name: str = "conc"):
        self.group = group
        self.trace = trace
        self.array = DistributedArray(
            name, np.zeros(trace.shape), D_REPL, group
        )
        # The main loop cycles through exactly four (src, dst)
        # distribution pairs; label, plan and batch are pure functions
        # of the pair, so they are resolved once and replayed from here.
        self._to_cache: Dict[tuple, tuple] = {}
        # Per-layout ownership selectors for the compute charges.
        self._seg_cache: Dict[object, list] = {}

    def _to(self, dist: Distribution) -> None:
        key = (self.array.distribution, dist)
        cached = self._to_cache.get(key)
        if cached is None:
            label = f"{dist_label(key[0])}->{dist_label(dist)}"
            plan = self.array.set_distribution(dist)
            batch = None if plan.is_empty() else plan.batch
            self._to_cache[key] = (label, batch)
        else:
            label, batch = cached
            self.array.set_distribution(dist)
        if batch is not None:
            self.group.charge_communication(label, batch)

    def _charge_distributed(self, name: str, ops_per_index: np.ndarray) -> None:
        layout = self.array.layout
        segs = self._seg_cache.get(layout)
        if segs is None:
            segs = [self.array.local_indices(r) for r in range(self.group.size)]
            self._seg_cache[layout] = segs
        self.group.charge_compute_column(name, [
            float(ops_per_index[idx].sum()) if idx.size else 0.0
            for idx in segs
        ])

    def run_hour(self, hour: HourTrace, gather: bool = True) -> None:
        """Replay the compute/communication phases of one hour.

        ``gather=True`` charges the end-of-hour gather of the
        concentration array onto the output-processing node (the array's
        *distribution* stays ``D_Trans``; ``outputhour`` reads a copy).
        The pipelined mapping passes ``gather=False`` — the inter-stage
        handoff is the gather there.
        """
        tracer = self.group.cluster.tracer
        for j, step in enumerate(hour.steps):
            with tracer.span(
                f"step:{j}", kind="step", clock=self.group.time, index=j
            ):
                for dist, phase, field in STEP_SCHEDULE:
                    self._to(dist)
                    ops = getattr(step, field)
                    if dist.is_replicated:
                        self.group.charge_replicated_compute(phase, ops)
                    else:
                        self._charge_distributed(phase, ops)
        if gather:
            charge_output_gather(self.array)


# ---------------------------------------------------------------------------
# the stage bodies: replay and live
# ---------------------------------------------------------------------------
def _charge_io(group: Subgroup, hour: HourTrace, table) -> None:
    # Sequential I/O processing: the rest of ``group`` waits (this is
    # the bottleneck task parallelism removes from the main loop).
    for phase, bytes_field, ops_field in table:
        nbytes = getattr(hour, bytes_field) if bytes_field else 0.0
        group.charge_io(phase, nbytes, ops=getattr(hour, ops_field))


class ReplayStages:
    """The three stage bodies of hour ``i``, charging a recorded trace."""

    def __init__(self, trace: WorkloadTrace, in_grp: Subgroup,
                 main_grp: Subgroup, out_grp: Subgroup):
        self.in_grp, self.main_grp, self.out_grp = in_grp, main_grp, out_grp
        self.trace = trace
        self.replayer = HourReplayer(main_grp, trace)

    def hour_of_day(self, i: int) -> int:
        return self.trace.hours[i].hour

    def input(self, i: int) -> None:
        _charge_io(self.in_grp, self.trace.hours[i], INPUT_IO)

    def main(self, i: int, gather: bool) -> None:
        self.replayer.run_hour(self.trace.hours[i], gather=gather)

    def output(self, i: int) -> None:
        _charge_io(self.out_grp, self.trace.hours[i], OUTPUT_IO)


class LiveStages:
    """The same three bodies executing the real numerics.

    The numerics are identical to the sequential driver's, run
    owner-computes through distributed arrays on the main group; each
    body records its share of the hour's :class:`HourTrace` and charges
    it exactly as :class:`ReplayStages` would.  Real data flows between
    the stages through the mailboxes below ("variables mapped onto
    tasks") — the input stage genuinely parses the hourly record the
    main stage consumes.
    """

    def __init__(self, config: AirshedConfig, runtime: FxRuntime,
                 in_grp: Subgroup, main_grp: Subgroup, out_grp: Subgroup):
        self.in_grp, self.main_grp, self.out_grp = in_grp, main_grp, out_grp
        self.config = config
        self.physics = AirshedPhysics(config)
        self.runtime = runtime
        ds = config.dataset
        self.conc = runtime.darray(
            "conc", config.starting_concentrations(), D_REPL, group=main_grp
        )
        self.trace = WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        self.hourly_mean: Dict[str, List[float]] = {
            s: [] for s in TRACKED_SPECIES
        }
        self._prepared: Dict[int, tuple] = {}        # input -> main
        self._snapshots: Dict[int, np.ndarray] = {}  # main -> output

    def hour_of_day(self, i: int) -> int:
        return self.config.hour_of_day(i)

    def input(self, i: int) -> None:
        ds, phys = self.config.dataset, self.physics
        hour = self.hour_of_day(i)
        inres = inputhour(ds, hour)
        nsteps, dt = phys.hour_steps(hour)
        operators, pre_ops = pretrans(ds, phys.transport, hour, dt / 2.0)
        self._prepared[i] = (operators, inres.conditions, dt)
        self.trace.hours.append(HourTrace(
            hour=hour, input_bytes=inres.nbytes, input_ops=inres.ops,
            pretrans_ops=pre_ops, nsteps=nsteps, steps=[],
            output_bytes=0, output_ops=0.0,  # known once ``output`` ran
        ))
        _charge_io(self.in_grp, self.trace.hours[i], INPUT_IO)

    def main(self, i: int, gather: bool) -> None:
        prepared = self._prepared.pop(i)
        hour = self.trace.hours[i]
        conc, rt = self.conc, self.runtime
        for j in range(hour.nsteps):
            with rt.tracer.span(
                f"step:{j}", kind="step", clock=self.main_grp.time, index=j
            ):
                ops = {}
                for dist, phase, field in STEP_SCHEDULE:
                    rt.redistribute(conc, dist)
                    ops[field] = self._KERNELS[phase](self, *prepared)
                hour.steps.append(StepTrace(**ops))
        if gather:
            charge_output_gather(conc)
        self._snapshots[i] = conc.data.copy()
        index = self.config.dataset.mechanism.index
        for s in TRACKED_SPECIES:
            self.hourly_mean[s].append(float(conc.data[index[s]].mean()))

    def output(self, i: int) -> None:
        hour = self.trace.hours[i]
        _, hour.output_bytes, hour.output_ops = outputhour(
            hour.hour, self._snapshots.pop(i)
        )
        _charge_io(self.out_grp, hour, OUTPUT_IO)

    def result(self) -> AirshedResult:
        return AirshedResult(
            trace=self.trace, final_conc=self.conc.data.copy(),
            hourly_mean=self.hourly_mean,
        )

    # -- the phase kernels: op counts as a StepTrace records them --------
    def _transport_phase(self, operators, conditions, dt) -> np.ndarray:
        phys = self.physics
        ops_by_layer = np.zeros(phys.dataset.layers)

        def kernel(local: np.ndarray, layer_ids: np.ndarray, rank: int) -> float:
            total = 0.0
            for i, layer in enumerate(layer_ids):
                local[:, i, :], ops = phys.transport_layer(
                    local[:, i, :], operators[layer], conditions.boundary
                )
                ops_by_layer[layer] = ops
                total += ops
            return total

        self.runtime.parallel_do(self.conc, "transport", kernel)
        return ops_by_layer

    def _chemistry_phase(self, operators, conditions, dt) -> np.ndarray:
        phys = self.physics
        ops_by_point = np.zeros(phys.dataset.npoints)

        def kernel(local: np.ndarray, point_ids: np.ndarray, rank: int) -> float:
            out, per_point = phys.chemistry_columns(
                local, conditions, dt, point_indices=point_ids
            )
            local[...] = out
            ops_by_point[point_ids] = per_point
            return float(per_point.sum())

        self.runtime.parallel_do(self.conc, "chemistry", kernel)
        return ops_by_point

    def _aerosol_phase(self, operators, conditions, dt) -> float:
        holder: Dict[str, float] = {}

        def kernel(data: np.ndarray) -> float:
            holder["ops"] = self.physics.aerosol_step(data)
            return holder["ops"]

        self.runtime.replicated_do(self.conc, "aerosol", kernel)
        return holder["ops"]

    _KERNELS = {"transport": _transport_phase, "chemistry": _chemistry_phase,
                "aerosol": _aerosol_phase}


# ---------------------------------------------------------------------------
# the mappings
# ---------------------------------------------------------------------------
def back_to_back(rt: FxRuntime, stages, nhours: int) -> ParallelTiming:
    """The data-parallel mapping: every stage on one group, in turn.

    ``stages`` was built with the same group three times, so the
    sequential I/O stalls every node and the end-of-hour gather is a
    charge of its own.
    """
    for i in range(nhours):
        hour = stages.hour_of_day(i)
        with rt.span(f"hour:{hour:02d}", kind="hour", hour=hour):
            stages.input(i)
            stages.main(i, gather=True)
            stages.output(i)
    return _timing_from_runtime(rt)


def pipelined(
    rt: FxRuntime,
    stages,
    nhours: int,
    output_bytes: Callable[[int], int] = lambda i: 0,
    extra: Sequence[PipelineStage] = (),
) -> ParallelTiming:
    """The task-parallel mapping (Section 5): one subgroup per stage.

    While the main computation runs hour ``i`` the input subgroup reads
    and preprocesses hour ``i+1`` and the output subgroup writes hour
    ``i-1``.  The main loop itself is unchanged — it just runs on fewer
    nodes; the pipeline handoff to the output stage is the gather.
    Stage regions use their subgroup's own simulated clock.  ``extra``
    stages follow ``output``, which then hands them ``output_bytes(i)``.
    """
    hours = stages.trace.hours
    array_bytes = int(np.prod(stages.trace.shape)) * rt.machine.wordsize

    def stage(name: str, group: Subgroup, body, handoff) -> PipelineStage:
        def run(i: int) -> None:
            with rt.tracer.span(
                f"{name}:{i}", kind="stage", clock=group.time, item=i
            ):
                body(i)
        return PipelineStage(name, group, run, output_bytes=handoff,
                             **STAGE_IO[name])

    rt.pipeline([
        stage("input", stages.in_grp, stages.input,
              lambda i: hours[i].input_bytes),
        stage("main", stages.main_grp,
              lambda i: stages.main(i, gather=False), lambda i: array_bytes),
        stage("output", stages.out_grp, stages.output, output_bytes),
        *extra,
    ]).execute(nhours)
    return _timing_from_runtime(rt)
