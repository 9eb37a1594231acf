"""Redistribution planning: the communication generator of the Fx compiler.

Given a source and a target :class:`~repro.fx.distribution.ArrayLayout`
over the same array and processor group, the planner produces the exact
set of point-to-point transfers and local copies needed to change the
layout.  These counts drive both the *execution* of a redistribution on
the simulated machine and the *validation* of the paper's closed-form
cost equations (Section 4.2):

* ``D_Repl -> D_Trans``: replicated source means all data is already
  local — the plan is pure local copies (the ``H`` term only).
* ``D_Trans -> D_Chem``: the few layer-owners each send to all ``P``
  nodes — sender-dominated cost.
* ``D_Chem -> D_Repl``: all-gather; every node receives (almost) the
  whole array — receiver-dominated cost, ``~2*L*P`` latency term.

The planner is exact where the paper's formulas are approximations, so
predicted-vs-measured comparisons (Figure 6) show the same small gaps
the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.fx.distribution import ArrayLayout
from repro.vm.cluster import Transfer
from repro.vm.transferbatch import TransferBatch

__all__ = ["RedistributionPlan", "plan_redistribution"]

#: Module-level plan cache; plans are pure functions of the layouts.
#: Cleared wholesale past the bound, like the layout cache beside it: a
#: resident daemon would otherwise keep every all-gather it ever planned
#: (128^2 transfers in three int64 arrays at P=128).
_PLAN_CACHE: Dict[Tuple[ArrayLayout, ArrayLayout, int], "RedistributionPlan"] = {}
_PLAN_CACHE_MAX = 4096


@dataclass(frozen=True)
class RedistributionPlan:
    """Immutable result of planning one redistribution.

    The transfer set is held as a :class:`TransferBatch` (parallel
    ``src``/``dst``/``nbytes`` arrays, built vectorised by the planner
    — the ``D_Chem -> D_Repl`` all-gather is O(P^2) records and
    dominates cold planning time as Python objects).  ``transfers``
    derives the record view on first use for the analyzers and tests
    that still walk records.  Identity is the (source, target,
    itemsize) triple; the batch is a pure function of it.
    """

    source: ArrayLayout
    target: ArrayLayout
    itemsize: int
    batch: TransferBatch = field(compare=False)

    @cached_property
    def transfers(self) -> Tuple[Transfer, ...]:
        """The equivalent ``Transfer`` record view (planning order)."""
        return tuple(self.batch.to_transfers())

    def network_bytes(self) -> int:
        """Total bytes crossing the network (excludes local copies)."""
        b = self.batch
        return int(b.nbytes[b.src != b.dst].sum())

    def copied_bytes(self) -> int:
        """Total bytes copied locally (the ``H`` term)."""
        b = self.batch
        return int(b.nbytes[b.src == b.dst].sum())

    def message_count(self) -> int:
        """Number of network messages (one per communicating pair)."""
        b = self.batch
        net = b.src != b.dst
        if b.messages is None:
            return int(net.sum())
        return int(b.messages[net].sum())

    def bytes_sent_by(self, node: int) -> int:
        b = self.batch
        return int(b.nbytes[(b.src == node) & (b.dst != node)].sum())

    def bytes_received_by(self, node: int) -> int:
        b = self.batch
        return int(b.nbytes[(b.dst == node) & (b.src != node)].sum())

    def bytes_copied_by(self, node: int) -> int:
        b = self.batch
        return int(b.nbytes[(b.src == node) & (b.dst == node)].sum())

    def is_empty(self) -> bool:
        return len(self.batch) == 0


def plan_redistribution(
    source: ArrayLayout, target: ArrayLayout, itemsize: int
) -> RedistributionPlan:
    """Plan the transfers converting ``source`` layout into ``target``.

    Both layouts must describe the same global shape and processor
    count.  The plan is cached: Airshed re-executes the same three
    redistributions thousands of times per run.
    """
    if source.shape != target.shape:
        raise ValueError(
            f"layout shapes differ: {source.shape} vs {target.shape}"
        )
    if source.nprocs != target.nprocs:
        raise ValueError(
            f"layout processor counts differ: {source.nprocs} vs {target.nprocs}"
        )
    key = (source, target, int(itemsize))
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    plan = RedistributionPlan(
        source=source,
        target=target,
        itemsize=int(itemsize),
        batch=_build_batch(source, target, int(itemsize)),
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan


_EMPTY = np.empty(0, dtype=np.int64)


def _build_batch(
    src_layout: ArrayLayout, dst_layout: ArrayLayout, itemsize: int
) -> TransferBatch:
    """The transfer set as parallel arrays, in record-planning order.

    Each branch builds ``(src, dst, nbytes)`` vectorised but enumerates
    pairs exactly as the original record loop did (source-major, then
    destination), so :attr:`RedistributionPlan.transfers` reproduces the
    historical tuple element for element.
    """
    P = src_layout.nprocs
    shape = src_layout.shape

    # Identical layouts (including repl -> repl): nothing moves.
    if src_layout == dst_layout or (
        src_layout.is_replicated and dst_layout.is_replicated
    ):
        return TransferBatch(_EMPTY, _EMPTY, _EMPTY)

    if src_layout.is_replicated:
        # Data is locally available everywhere: each node copies out the
        # part it owns under the target layout.  No network traffic —
        # this is the paper's D_Repl -> D_Trans step.
        nbytes = np.fromiter(
            (dst_layout.local_nbytes(node, itemsize) for node in range(P)),
            np.int64, count=P,
        )
        nodes = np.flatnonzero(nbytes).astype(np.int64)
        return TransferBatch(nodes, nodes, nbytes[nodes])

    if dst_layout.is_replicated:
        # All-gather: every node needs the full array.  Each source block
        # goes to all other nodes; the node's own block is a local copy.
        nbytes = np.fromiter(
            (src_layout.local_nbytes(node, itemsize) for node in range(P)),
            np.int64, count=P,
        )
        senders = np.flatnonzero(nbytes).astype(np.int64)
        return TransferBatch(
            np.repeat(senders, P),
            np.tile(np.arange(P, dtype=np.int64), senders.size),
            np.repeat(nbytes[senders], P),
        )

    # Both distributed.
    dim_s, dim_t = src_layout.dim, dst_layout.dim
    if dim_s == dim_t:
        # Same dimension: pairwise index-set intersections.
        other = src_layout.other_size()
        owned_s = [src_layout.owned_indices(i) for i in range(P)]
        owned_t = [dst_layout.owned_indices(i) for i in range(P)]
        srcs, dsts, sizes = [], [], []
        for src in range(P):
            if owned_s[src].size == 0:
                continue
            for dst in range(P):
                if owned_t[dst].size == 0:
                    continue
                common = np.intersect1d(
                    owned_s[src], owned_t[dst], assume_unique=True
                )
                if common.size:
                    srcs.append(src)
                    dsts.append(dst)
                    sizes.append(int(common.size) * other * itemsize)
        return TransferBatch(srcs, dsts, sizes)

    # Distributed along different dimensions (D_Trans -> D_Chem): the
    # data for (i in A(src), j in B(dst)) forms a rectangular tile.
    other = 1
    for d, s in enumerate(shape):
        if d not in (dim_s, dim_t):
            other *= s
    n_src = np.fromiter(
        (len(src_layout.owned_indices(i)) for i in range(P)),
        np.int64, count=P,
    )
    n_dst = np.fromiter(
        (len(dst_layout.owned_indices(i)) for i in range(P)),
        np.int64, count=P,
    )
    senders = np.flatnonzero(n_src).astype(np.int64)
    receivers = np.flatnonzero(n_dst).astype(np.int64)
    return TransferBatch(
        np.repeat(senders, receivers.size),
        np.tile(receivers, senders.size),
        np.repeat(n_src[senders], receivers.size)
        * np.tile(n_dst[receivers], senders.size)
        * (other * itemsize),
    )
