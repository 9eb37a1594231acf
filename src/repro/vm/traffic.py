"""Traffic and time accounting for the simulated machine.

Every phase executed on the :class:`~repro.vm.cluster.Cluster` produces a
:class:`PhaseRecord`; the :class:`Timeline` collects them and offers the
aggregations the paper's figures need (time per phase kind, per phase
name, per redistribution type, ...).

Communication traffic is recorded per node as ``(messages sent, messages
received, bytes sent, bytes received, bytes locally copied)`` so that the
analytic model of Section 4 can be checked against the exact counts the
runtime generated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["NodeTraffic", "NodeColumn", "PhaseRecord", "Timeline"]


@dataclass
class NodeTraffic:
    """Per-node communication counters for one phase."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_copied: int = 0

    def merge(self, other: "NodeTraffic") -> None:
        """Accumulate ``other`` into this record (in place)."""
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.bytes_copied += other.bytes_copied

    @property
    def messages(self) -> int:
        """Total message endpoints handled by the node (sent + received)."""
        return self.messages_sent + self.messages_received

    @property
    def bytes_moved(self) -> int:
        """Bytes the node pushed to or pulled from the network.

        Following the paper's model the per-byte cost is dominated by the
        heavier direction on the node; see
        :meth:`repro.vm.cluster.Cluster.charge_communication`.
        """
        return max(self.bytes_sent, self.bytes_received)


class NodeColumn(Mapping):
    """Read-only ``node id -> value`` view over an id tuple and a column.

    A phase keeps its per-node data as the column the cluster computed;
    the dict is built the first time somebody looks a node up, and
    compares equal to a plain ``dict`` of the same items.
    """

    __slots__ = ("node_ids", "column", "_items")

    def __init__(self, node_ids: Tuple[int, ...], column: np.ndarray) -> None:
        self.node_ids = node_ids
        self.column = column
        self._items: Optional[Dict[int, float]] = None

    def _dict(self) -> Dict[int, float]:
        if self._items is None:
            self._items = dict(zip(self.node_ids, self.column.tolist()))
        return self._items

    def __getitem__(self, node_id: int) -> float:
        return self._dict()[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.node_ids)

    def __len__(self) -> int:
        return len(self.node_ids)

    def __repr__(self) -> str:
        return f"NodeColumn({self._dict()!r})"


@dataclass
class PhaseRecord:
    """One timed phase on the cluster.

    Attributes
    ----------
    name:
        Phase label, e.g. ``"chemistry"`` or ``"D_Chem->D_Repl"``.
    kind:
        ``"compute"``, ``"comm"`` or ``"io"``.
    start / end:
        Simulated seconds.  ``start`` is the maximum clock over the
        participating nodes when the phase began (phases synchronise).
    duration:
        ``end - start``.
    node_ids:
        Participating nodes.
    traffic:
        Per-node traffic (communication phases only).
    ops:
        Per-node phase data, keyed by node id (a :class:`NodeColumn`
        on records the cluster builds).  For **compute** phases:
        op counts.  For **comm** phases: each node's busy seconds (its
        own ``Ct_i``; the phase duration is the maximum).  For **io**
        phases: the I/O node's busy seconds (the duration can be longer
        when a blocking group waited for stragglers).
    """

    name: str
    kind: str
    start: float
    end: float
    node_ids: Tuple[int, ...]
    traffic: Dict[int, NodeTraffic] = field(default_factory=dict)
    ops: Mapping[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def total_bytes_sent(self) -> int:
        return sum(t.bytes_sent for t in self.traffic.values())

    def total_messages_sent(self) -> int:
        return sum(t.messages_sent for t in self.traffic.values())

    def total_bytes_copied(self) -> int:
        return sum(t.bytes_copied for t in self.traffic.values())

    def max_node_traffic(self) -> NodeTraffic:
        """Traffic of the most heavily loaded node (paper's bottleneck node)."""
        if not self.traffic:
            return NodeTraffic()
        return max(
            self.traffic.values(),
            key=lambda t: (t.bytes_moved, t.messages),
        )


class Timeline:
    """Ordered collection of :class:`PhaseRecord` with aggregation helpers."""

    def __init__(self) -> None:
        self._records: List[PhaseRecord] = []

    def append(self, record: PhaseRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PhaseRecord]:
        return iter(self._records)

    def records(self, name: Optional[str] = None, kind: Optional[str] = None) -> List[PhaseRecord]:
        """Records filtered by phase name and/or kind."""
        out = self._records
        if name is not None:
            out = [r for r in out if r.name == name]
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        return list(out)

    def time_by_name(self) -> Dict[str, float]:
        """Total simulated duration per phase name."""
        agg: Dict[str, float] = defaultdict(float)
        for rec in self._records:
            agg[rec.name] += rec.duration
        return dict(agg)

    def time_by_kind(self) -> Dict[str, float]:
        """Total simulated duration per phase kind (compute/comm/io)."""
        agg: Dict[str, float] = defaultdict(float)
        for rec in self._records:
            agg[rec.kind] += rec.duration
        return dict(agg)

    def total_time(self) -> float:
        """End of the last phase (phases are appended in time order)."""
        return max((rec.end for rec in self._records), default=0.0)

    def count(self, name: Optional[str] = None, kind: Optional[str] = None) -> int:
        return len(self.records(name=name, kind=kind))

    def communication_steps(self) -> int:
        """Number of communication phases executed (paper: 77 for their run)."""
        return self.count(kind="comm")

    def summary(self) -> Dict[str, float]:
        """Compact dict used by benches: total plus per-kind breakdown."""
        out = {"total": self.total_time()}
        out.update({f"kind:{k}": v for k, v in sorted(self.time_by_kind().items())})
        return out
