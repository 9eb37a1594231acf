"""The Fx runtime: ties distributions, loops and redistribution together.

An :class:`FxRuntime` owns a simulated :class:`~repro.vm.cluster.Cluster`
and exposes the operations an Fx-compiled program performs:

* creating distributed arrays,
* redistributing them (charging the communication cost of the planner's
  exact transfer set),
* running owner-computes parallel loops and replicated computations,
* sequential I/O processing,
* splitting the machine into task subgroups.

The phase naming convention is load-bearing for the benchmarks:
compute phases carry their component name (``"chemistry"``,
``"transport"``, ``"aerosol"``), I/O phases are prefixed ``"io:"``, and
redistributions carry the paper's names (``"D_Repl->D_Trans"`` etc.).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.fx.darray import DistributedArray
from repro.fx.distribution import Distribution
from repro.fx.ploop import Kernel, parallel_do, replicated_do
from repro.fx.tasks import Pipeline, PipelineStage, split_cluster
from repro.observe.compare import breakdown as _span_breakdown
from repro.observe.tracer import Tracer
from repro.vm.cluster import Cluster, Subgroup
from repro.vm.machine import MachineSpec
from repro.vm.traffic import PhaseRecord, Timeline

__all__ = ["FxRuntime", "dist_label"]


def dist_label(distribution: Distribution) -> str:
    """Paper-style short name for a distribution of A(species,layers,nodes)."""
    if distribution.is_replicated:
        return "D_Repl"
    if distribution.ndim == 3 and distribution.dim == 1:
        return "D_Trans"
    if distribution.ndim == 3 and distribution.dim == 2:
        return "D_Chem"
    return f"D_dim{distribution.dim}"


class FxRuntime:
    """Execution context for one Fx program on one simulated machine."""

    def __init__(
        self, machine: MachineSpec, nprocs: int, tracer: Optional[Tracer] = None
    ) -> None:
        self.cluster = Cluster(machine, nprocs, tracer=tracer)
        self.world = self.cluster.subgroup(range(nprocs))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def machine(self) -> MachineSpec:
        return self.cluster.machine

    @property
    def nprocs(self) -> int:
        return self.cluster.nprocs

    @property
    def timeline(self) -> Timeline:
        return self.cluster.timeline

    @property
    def tracer(self) -> Tracer:
        return self.cluster.tracer

    def span(self, name: str, kind: str = "region", **attrs):
        """Open a region span on the run's tracer (context manager)."""
        return self.tracer.span(name, kind=kind, **attrs)

    def time(self) -> float:
        return self.cluster.time()

    # ------------------------------------------------------------------
    # arrays
    # ------------------------------------------------------------------
    def darray(
        self,
        name: str,
        data: np.ndarray,
        distribution: Distribution,
        group: Optional[Subgroup] = None,
    ) -> DistributedArray:
        return DistributedArray(name, data, distribution, group or self.world)

    def redistribute(
        self,
        array: DistributedArray,
        new_distribution: Distribution,
        label: Optional[str] = None,
    ) -> PhaseRecord | None:
        """Change an array's layout, charging the planner's exact cost.

        Returns the communication phase record, or ``None`` when the
        plan is empty (identical layouts: the Fx compiler emits no code).
        """
        if label is None:
            label = f"{dist_label(array.distribution)}->{dist_label(new_distribution)}"
        plan = array.set_distribution(new_distribution)
        if plan.is_empty():
            return None
        return array.group.charge_communication(label, plan.batch)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def parallel_do(self, array: DistributedArray, name: str, kernel: Kernel) -> PhaseRecord:
        return parallel_do(array, name, kernel)

    def replicated_do(
        self,
        array: DistributedArray,
        name: str,
        kernel: Callable[[np.ndarray], float],
        ops: Optional[float] = None,
    ) -> PhaseRecord:
        return replicated_do(array, name, kernel, ops=ops)

    def sequential_io(
        self,
        name: str,
        nbytes: float,
        ops: float = 0.0,
        group: Optional[Subgroup] = None,
        rank: int = 0,
        blocking: bool = True,
    ) -> PhaseRecord:
        grp = group or self.world
        return grp.charge_io(f"io:{name}", nbytes, ops=ops, rank=rank, blocking=blocking)

    # ------------------------------------------------------------------
    # task parallelism
    # ------------------------------------------------------------------
    def split(self, sizes: Sequence[int]) -> List[Subgroup]:
        return split_cluster(self.cluster, sizes)

    def pipeline(self, stages: Sequence[PipelineStage]) -> Pipeline:
        return Pipeline(self.cluster, stages)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def phase_times(self) -> Dict[str, float]:
        """Simulated seconds per phase name."""
        return self.timeline.time_by_name()

    def breakdown(self) -> Dict[str, float]:
        """The paper's Figure 4 decomposition of total execution time.

        Buckets: ``chemistry`` (the tiny replicated aerosol step folded
        in, as in the paper), ``transport``, ``io`` and
        ``communication``; anything else lands in ``other`` so nothing
        is silently dropped.  Computed from the observability event
        stream (:func:`repro.observe.breakdown`), which mirrors the
        timeline exactly.
        """
        return _span_breakdown(self.tracer)
