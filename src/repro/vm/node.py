"""A single simulated processing node.

A :class:`VirtualNode` carries a simulated clock (in seconds) and a local
key/value store that the materialised execution mode of
:class:`~repro.fx.darray.DistributedArray` uses to hold physical array
blocks.  All timing decisions live in :class:`~repro.vm.cluster.Cluster`,
which keeps every node's clock in one array and charges whole groups at
once; the node's ``clock`` is a view onto its slot of that array.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

__all__ = ["VirtualNode"]


class VirtualNode:
    """One node of the simulated parallel machine."""

    __slots__ = ("node_id", "_clocks", "store")

    def __init__(self, node_id: int, clocks: np.ndarray) -> None:
        self.node_id = int(node_id)
        self._clocks = clocks
        #: Local memory: name -> arbitrary payload (array blocks, buffers).
        self.store: Dict[str, Any] = {}

    @property
    def clock(self) -> float:
        """Simulated time (seconds) at which this node becomes idle."""
        return float(self._clocks[self.node_id])

    @clock.setter
    def clock(self, when: float) -> None:
        self._clocks[self.node_id] = when

    def advance(self, seconds: float) -> None:
        """Advance the node's clock by a non-negative amount."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} s")
        self.clock += seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualNode(id={self.node_id}, clock={self.clock:.6f})"
