"""The simulated parallel machine.

A :class:`Cluster` is ``P`` :class:`~repro.vm.node.VirtualNode` objects
plus a :class:`~repro.vm.machine.MachineSpec` that prices work.  The
application (via the Fx runtime) *executes real numpy computation* and
reports deterministic work/traffic counts; the cluster converts those
counts into simulated seconds using the paper's cost model and maintains
per-node clocks — one float64 array, read and advanced a whole group at
a time with the same IEEE-754 operation per element a per-node loop
would perform.

Timing semantics
----------------
* **Compute phases** advance each participating node independently by its
  own cost — nodes in different task subgroups overlap freely, which is
  what makes the Section 5 pipelined task parallelism effective.
* **Communication phases** are collective over their participant group:
  they start when the last participant arrives (``max`` of clocks), every
  participant leaves at ``start + max_i Ct_i`` where
  ``Ct_i = L*(m_sent_i + m_recv_i) + G*max(b_sent_i, b_recv_i) + H*c_i``
  is the per-node cost of the paper's model (Section 4.2) and the phase
  is paced by the most loaded node.
* **I/O phases** run sequentially on one node; callers may pass a
  blocking group whose members wait for the I/O node (the pure
  data-parallel Airshed) or let other subgroups keep running (the
  task-parallel variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.observe.tracer import Tracer
from repro.vm.machine import MachineSpec
from repro.vm.node import VirtualNode
from repro.vm.traffic import NodeColumn, NodeTraffic, PhaseRecord, Timeline
from repro.vm.transferbatch import TransferBatch

__all__ = ["Transfer", "Cluster", "Subgroup"]

#: Communication phases accept either form; both price identically.
Transfers = Union[Sequence["Transfer"], TransferBatch]


@dataclass(frozen=True)
class Transfer:
    """One point-to-point transfer inside a communication phase.

    ``src == dst`` denotes a purely local copy: it contributes ``nbytes``
    to the node's ``H`` term and no messages.
    """

    src: int
    dst: int
    nbytes: int
    messages: int = 1

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.messages < 0:
            raise ValueError("messages must be non-negative")


class Cluster:
    """A simulated distributed-memory machine with ``nprocs`` nodes."""

    def __init__(
        self, machine: MachineSpec, nprocs: int, tracer: Optional[Tracer] = None
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one node")
        self.machine = machine
        self.nprocs = int(nprocs)
        #: Every node's clock (simulated seconds), indexed by node id.
        #: Phases read and advance whole groups of it at once.
        self.clocks = np.zeros(self.nprocs)
        self.nodes: List[VirtualNode] = [
            VirtualNode(i, self.clocks) for i in range(nprocs)
        ]
        self.timeline = Timeline()
        #: Span/counter stream mirroring the timeline at per-node
        #: resolution; pass a Tracer to collect region spans too.
        self.tracer = tracer if tracer is not None else Tracer()
        self.tracer.set_clock(self.time)
        #: Validated groups: sorted id tuple -> (that tuple, its index
        #: array into ``clocks``).  Subgroups charge with the same tuple
        #: object thousands of times; re-sorting it each phase shows up
        #: in replay profiles.
        self._groups: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], np.ndarray]] = {}
        self._all = self._check_ids(range(self.nprocs))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def clock(self, node_id: int) -> float:
        return float(self.clocks[node_id])

    def time(self, node_ids: Optional[Iterable[int]] = None) -> float:
        """Simulated time: max clock over the given nodes (default: all)."""
        if node_ids is None:
            return float(self.clocks.max())
        return float(self.clocks[self._check_ids(node_ids)[1]].max())

    def all_node_ids(self) -> Tuple[int, ...]:
        return self._all[0]

    def subgroup(self, node_ids: Sequence[int]) -> "Subgroup":
        return Subgroup(self, node_ids)

    def _check_ids(
        self, node_ids: Iterable[int]
    ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """The validated group: ``(sorted id tuple, index array)``."""
        if isinstance(node_ids, tuple):
            group = self._groups.get(node_ids)
            if group is not None:
                return group
        ids = tuple(sorted(set(int(i) for i in node_ids)))
        if not ids:
            raise ValueError("empty node group")
        if ids[0] < 0 or ids[-1] >= self.nprocs:
            raise ValueError(f"node ids {ids} out of range for P={self.nprocs}")
        group = self._groups.get(ids)
        if group is None:
            idx = np.array(ids, dtype=np.int64)
            idx.setflags(write=False)
            group = self._groups[ids] = (ids, idx)
        return group

    def _sync(self, idx: np.ndarray, when: float) -> None:
        """Move the group's clocks forward to ``when`` (never back)."""
        self.clocks[idx] = np.maximum(self.clocks[idx], when)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def charge_compute(self, name: str, ops_by_node: Mapping[int, float]) -> PhaseRecord:
        """Advance each node independently by the cost of its own ops.

        The mapping form of :meth:`charge_compute_column`.
        """
        ids, _ = self._check_ids(ops_by_node.keys())
        ops = np.fromiter(
            (ops_by_node[i] for i in ids), np.float64, count=len(ids)
        )
        return self.charge_compute_column(name, ops, ids)

    def charge_compute_column(
        self, name: str, ops, node_ids: Optional[Sequence[int]] = None
    ) -> PhaseRecord:
        """Charge a column of op counts, one per node of the sorted group.

        The per-node costs are priced in one vectorised pass
        (``ops * seconds_per_op`` elementwise is the exact scalar
        arithmetic of :meth:`MachineSpec.compute_cost` per node, and
        ``before + cost`` the exact clock advance, so the clocks move by
        bit-identical amounts).  ``node_ids`` defaults to every node.
        """
        ids, idx = self._all if node_ids is None else self._check_ids(node_ids)
        ops = np.array(ops, dtype=np.float64)
        if ops.shape != (len(ids),):
            raise ValueError(
                f"{name}: ops has shape {ops.shape} for {len(ids)} nodes"
            )
        if ops.min() < 0:
            raise ValueError("ops must be non-negative")
        costs = ops * self.machine.seconds_per_op
        before = self.clocks[idx]
        after = before + costs
        self.clocks[idx] = after
        self.tracer.emit_many(
            name, "compute", before, after, ids, busys=costs, ops=ops,
        )
        record = PhaseRecord(
            name=name,
            kind="compute",
            start=float(before.max()),
            end=float(after.max()),
            node_ids=ids,
            ops=NodeColumn(ids, ops),
        )
        self.timeline.append(record)
        self.tracer.observe_phase(name, "compute", record.duration)
        return record

    def charge_replicated_compute(self, name: str, ops: float,
                                  node_ids: Optional[Sequence[int]] = None) -> PhaseRecord:
        """Every node in the group performs the same (replicated) work.

        Used for the aerosol step, which the paper replicates because it
        cannot be parallelised.
        """
        ids, _ = self._all if node_ids is None else self._check_ids(node_ids)
        return self.charge_compute_column(name, np.full(len(ids), ops), ids)

    def charge_communication(
        self,
        name: str,
        transfers: Transfers,
        node_ids: Optional[Sequence[int]] = None,
    ) -> PhaseRecord:
        """Collective communication phase priced by the paper's model.

        ``transfers`` is either a sequence of :class:`Transfer` records
        or a :class:`~repro.vm.transferbatch.TransferBatch`; the batched
        form aggregates per-node totals with ``np.bincount`` instead of
        walking Python records (the all-gather steps have O(P^2)
        transfers), reads its cost column from the batch's memo, and
        prices identically.

        ``node_ids`` defaults to every node mentioned in ``transfers``;
        pass an explicit group to synchronise bystanders that exchange
        nothing (e.g. nodes holding no data in a skinny distribution).
        """
        batched = isinstance(transfers, TransferBatch)
        traffic_total: Optional[NodeTraffic] = None
        if batched:
            mentioned, shared_traffic, traffic_total = transfers._aggregate()
            traffic = dict(shared_traffic)
        else:
            traffic = {}

            def rec(i: int) -> NodeTraffic:
                return traffic.setdefault(i, NodeTraffic())

            for t in transfers:
                if t.src == t.dst:
                    rec(t.src).bytes_copied += t.nbytes
                    continue
                s, d = rec(t.src), rec(t.dst)
                s.messages_sent += t.messages
                s.bytes_sent += t.nbytes
                d.messages_received += t.messages
                d.bytes_received += t.nbytes
            mentioned = traffic.keys()

        if node_ids is not None:
            ids, idx = self._check_ids(node_ids)
        elif traffic:
            ids, idx = self._check_ids(mentioned)
        else:
            ids, idx = self._all

        # Each node's own Ct_i as a column over the group (members
        # exchanging nothing price to comm_cost(0, 0, 0) == 0.0); an
        # endpoint outside the group is an error either way.
        if batched:
            costs, cost = transfers.cost_column(self.machine, ids)
        else:
            members = set(ids)
            for i in traffic:
                if i not in members:
                    raise ValueError(f"transfer endpoint {i} outside group {ids}")
            idle = NodeTraffic()
            costs = np.array([
                self.machine.comm_cost(t.messages, t.bytes_moved, t.bytes_copied)
                for t in (traffic.get(i, idle) for i in ids)
            ])
            cost = float(costs.max())
        start = float(self.clocks[idx].max())
        end = start + cost
        self._sync(idx, end)
        self.tracer.emit_many(name, "comm", start, end, ids, busys=costs)
        record = PhaseRecord(
            name=name, kind="comm", start=start, end=end, node_ids=ids,
            traffic=traffic,
            # For communication records, ops holds each node's busy
            # seconds (its own Ct_i); the phase is paced by the max.
            ops=NodeColumn(ids, costs),
        )
        self.timeline.append(record)
        self.tracer.observe_phase(
            name, "comm", record.duration, traffic=traffic,
            traffic_total=traffic_total,
        )
        return record

    def charge_io(
        self,
        name: str,
        nbytes: float,
        ops: float = 0.0,
        node_id: int = 0,
        blocking_group: Optional[Sequence[int]] = None,
    ) -> PhaseRecord:
        """Sequential I/O processing on ``node_id``.

        If ``blocking_group`` is given, those nodes wait until the I/O
        completes (the behaviour of the pure data-parallel Airshed, where
        every node sits idle during ``inputhour``/``outputhour``).
        """
        ids, _ = self._check_ids([node_id])
        (nid,) = ids
        node = self.nodes[nid]
        start = node.clock
        cost = self.machine.io_cost(nbytes, ops)
        node.advance(cost)
        self.tracer.emit_many(
            name, "io", start, start + cost, ids, busys=cost,
            nbytes=float(nbytes),
        )
        end = node.clock
        if blocking_group is not None:
            ids, _ = self._check_ids(set(blocking_group) | {nid})
            end = self.barrier(ids)
        record = PhaseRecord(
            name=name,
            kind="io",
            start=start,
            end=end,
            node_ids=ids,
            # For I/O records, ops holds the I/O node's busy seconds
            # (the phase duration can exceed it when the group waits).
            ops=NodeColumn((nid,), np.array([cost])),
        )
        self.timeline.append(record)
        self.tracer.observe_phase(name, "io", record.duration)
        return record

    def barrier(self, node_ids: Optional[Sequence[int]] = None) -> float:
        """Synchronise a group: everyone's clock moves to the group max."""
        ids, idx = self._all if node_ids is None else self._check_ids(node_ids)
        when = float(self.clocks[idx].max())
        self._sync(idx, when)
        return when


class Subgroup:
    """A view of a subset of cluster nodes (an Fx processor subgroup).

    Subgroups are how Fx expresses task parallelism: independent tasks
    are placed on disjoint subgroups whose clocks advance independently.
    Rank ``r`` of the subgroup is node ``node_ids[r]`` (ids ascending).
    """

    def __init__(self, cluster: Cluster, node_ids: Sequence[int]) -> None:
        self.cluster = cluster
        self.node_ids, self._idx = cluster._check_ids(node_ids)

    @property
    def size(self) -> int:
        return len(self.node_ids)

    @property
    def machine(self) -> MachineSpec:
        return self.cluster.machine

    def time(self) -> float:
        return self.cluster.time(self.node_ids)

    def barrier(self) -> float:
        return self.cluster.barrier(self.node_ids)

    def wait_until(self, when: float) -> None:
        """Stall every node of the subgroup until simulated time ``when``.

        Models a blocking dependency on work done elsewhere (e.g. a
        pipeline stage waiting for its upstream item).
        """
        self.cluster._sync(self._idx, when)

    def charge_compute(self, name: str, ops_by_rank: Mapping[int, float]) -> PhaseRecord:
        """Charge compute with *ranks local to the subgroup* (0..size-1)."""
        mapped = {self.node_ids[r]: ops for r, ops in ops_by_rank.items()}
        return self.cluster.charge_compute(name, mapped)

    def charge_compute_column(self, name: str, ops) -> PhaseRecord:
        """Charge a column of op counts, one per rank in rank order."""
        return self.cluster.charge_compute_column(name, ops, self.node_ids)

    def charge_replicated_compute(self, name: str, ops: float) -> PhaseRecord:
        return self.cluster.charge_replicated_compute(name, ops, self.node_ids)

    def charge_communication(self, name: str, transfers: Transfers) -> PhaseRecord:
        """Charge communication with subgroup-local ranks in transfers."""
        if isinstance(transfers, TransferBatch):
            mapped: Transfers = transfers.remap(self._idx)
        else:
            mapped = [
                Transfer(self.node_ids[t.src], self.node_ids[t.dst],
                         t.nbytes, t.messages)
                for t in transfers
            ]
        return self.cluster.charge_communication(
            name, mapped, node_ids=self.node_ids
        )

    def charge_io(self, name: str, nbytes: float, ops: float = 0.0,
                  rank: int = 0, blocking: bool = True) -> PhaseRecord:
        return self.cluster.charge_io(
            name,
            nbytes,
            ops=ops,
            node_id=self.node_ids[rank],
            blocking_group=self.node_ids if blocking else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Subgroup(nodes={self.node_ids})"
