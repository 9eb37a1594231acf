"""Batched transfer representation for communication phases.

A :class:`TransferBatch` carries the same information as a sequence of
:class:`~repro.vm.cluster.Transfer` records — ``(src, dst, nbytes)`` per
point-to-point transfer, plus an optional per-transfer message count —
as parallel numpy arrays.  The paper's ``D_Chem -> D_Repl`` step is an
all-gather with O(P^2) transfers; at P=64 that is 4096 records charged
four times per main-loop step, and building/walking Python objects for
them dominates replay time.  The batch form reduces the per-node traffic
aggregation to a handful of ``np.bincount`` calls.

Semantics match the record form exactly:

* ``src == dst`` entries are local copies — they contribute ``nbytes``
  to the node's copied-bytes (``H``) term and no messages;
* every endpoint mentioned in the batch participates in the phase, even
  when its totals are zero (e.g. ``messages=0`` entries).

Aggregated totals are integers (the byte sums are accumulated as
float64 by ``bincount`` and cast back; exact below 2**53, far above any
phase this model prices).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.vm.traffic import NodeTraffic

__all__ = ["TransferBatch"]

#: Priced (machine, group) pairs kept per batch.  Batches live as long
#: as the module-level plan caches that hold them, and an autotuned
#: service prices one batch under many calibrated machines; past the cap
#: the memo is cleared wholesale, like the layout cache.
_COST_MEMO_MAX = 8


def _as_locked_int_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.setflags(write=False)
    return arr


class TransferBatch:
    """A communication phase's transfer set as parallel arrays.

    Parameters
    ----------
    src, dst:
        Node ids of sender and receiver per transfer.
    nbytes:
        Payload bytes per transfer.
    messages:
        Network messages per transfer; ``None`` means one message each
        (the :class:`~repro.vm.cluster.Transfer` default).
    """

    __slots__ = ("src", "dst", "nbytes", "messages",
                 "_agg", "_remaps", "_costs")

    def __init__(self, src, dst, nbytes, messages=None) -> None:
        self.src = _as_locked_int_array(src, "src")
        self.dst = _as_locked_int_array(dst, "dst")
        self.nbytes = _as_locked_int_array(nbytes, "nbytes")
        self.messages: Optional[np.ndarray] = (
            None if messages is None else _as_locked_int_array(messages, "messages")
        )
        # Lazy caches (the arrays are immutable, so aggregations are
        # pure): per-node traffic, remapped views, and cost columns
        # keyed by (machine, group) *value* — filling any of them from
        # two threads at once stores equal values twice.
        self._agg = None
        self._remaps: Dict[bytes, "TransferBatch"] = {}
        self._costs: Dict[tuple, Tuple[np.ndarray, float]] = {}
        n = len(self.src)
        for name in ("dst", "nbytes", "messages"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(
                    f"{name} has {len(arr)} entries, src has {n}"
                )
        if n:
            if int(self.src.min()) < 0 or int(self.dst.min()) < 0:
                raise ValueError("node ids must be non-negative")
            if int(self.nbytes.min()) < 0:
                raise ValueError("nbytes must be non-negative")
            if self.messages is not None and int(self.messages.min()) < 0:
                raise ValueError("messages must be non-negative")

    def __len__(self) -> int:
        return len(self.src)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransferBatch(n={len(self)}, "
            f"net_bytes={int(self.nbytes[self.src != self.dst].sum())})"
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_transfers(cls, transfers: Sequence) -> "TransferBatch":
        """Build a batch from ``Transfer`` records (same order)."""
        n = len(transfers)
        src = np.fromiter((t.src for t in transfers), np.int64, count=n)
        dst = np.fromiter((t.dst for t in transfers), np.int64, count=n)
        nbytes = np.fromiter((t.nbytes for t in transfers), np.int64, count=n)
        messages = None
        if any(t.messages != 1 for t in transfers):
            messages = np.fromiter(
                (t.messages for t in transfers), np.int64, count=n
            )
        return cls(src, dst, nbytes, messages)

    def to_transfers(self) -> List:
        """The equivalent ``Transfer`` record list (same order)."""
        from repro.vm.cluster import Transfer

        msgs = self.messages
        return [
            Transfer(
                int(self.src[i]),
                int(self.dst[i]),
                int(self.nbytes[i]),
                1 if msgs is None else int(msgs[i]),
            )
            for i in range(len(self))
        ]

    def remap(self, node_ids: np.ndarray) -> "TransferBatch":
        """Batch with ``src``/``dst`` mapped through ``node_ids``.

        Used by subgroups to translate group-local ranks into global
        cluster node ids in one vectorised gather.  Remaps are memoized
        per mapping (and the identity mapping returns ``self``) so that
        the replay loop, which charges the same cached plan batch every
        step, hits the batch's aggregation caches instead of rebuilding
        per-node totals each call.
        """
        mapping = np.asarray(node_ids, dtype=np.int64)
        if np.array_equal(mapping, np.arange(mapping.size)):
            return self
        key = mapping.tobytes()
        cached = self._remaps.get(key)
        if cached is not None:
            return cached
        out = TransferBatch.__new__(TransferBatch)
        src = mapping[self.src]
        dst = mapping[self.dst]
        src.setflags(write=False)
        dst.setflags(write=False)
        out.src = src
        out.dst = dst
        out.nbytes = self.nbytes
        out.messages = self.messages
        out._agg = None
        out._remaps = {}
        out._costs = {}
        self._remaps[key] = out
        return out

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def participants(self) -> np.ndarray:
        """Sorted unique node ids mentioned by the batch."""
        return np.union1d(self.src, self.dst)

    def _aggregate(self):
        """Cached per-node aggregation (the arrays are immutable).

        Returns ``(parts, traffic, total)`` where ``parts`` is the
        sorted participant id tuple, ``traffic`` maps node id to its
        :class:`NodeTraffic`, and ``total`` is the whole-phase traffic
        sum.  The returned objects are shared across calls and must be
        treated as read-only; :meth:`traffic_by_node` hands out a fresh
        dict view per call.
        """
        if self._agg is not None:
            return self._agg
        parts_arr = self.participants()
        if parts_arr.size == 0:
            self._agg = ((), {}, NodeTraffic())
            return self._agg
        size = int(parts_arr[-1]) + 1
        net = self.src != self.dst
        src_n, dst_n, nb_n = self.src[net], self.dst[net], self.nbytes[net]
        if self.messages is None:
            msent = np.bincount(src_n, minlength=size)
            mrecv = np.bincount(dst_n, minlength=size)
        else:
            msg_n = self.messages[net].astype(np.float64)
            msent = np.bincount(src_n, weights=msg_n, minlength=size).astype(np.int64)
            mrecv = np.bincount(dst_n, weights=msg_n, minlength=size).astype(np.int64)
        w = nb_n.astype(np.float64)
        bsent = np.bincount(src_n, weights=w, minlength=size).astype(np.int64)
        brecv = np.bincount(dst_n, weights=w, minlength=size).astype(np.int64)
        local = ~net
        bcopy = np.bincount(
            self.src[local],
            weights=self.nbytes[local].astype(np.float64),
            minlength=size,
        ).astype(np.int64)
        parts = tuple(int(i) for i in parts_arr)
        traffic = {
            i: NodeTraffic(
                messages_sent=int(msent[i]),
                messages_received=int(mrecv[i]),
                bytes_sent=int(bsent[i]),
                bytes_received=int(brecv[i]),
                bytes_copied=int(bcopy[i]),
            )
            for i in parts
        }
        total = NodeTraffic(
            messages_sent=int(msent.sum()),
            messages_received=int(mrecv.sum()),
            bytes_sent=int(bsent.sum()),
            bytes_received=int(brecv.sum()),
            bytes_copied=int(bcopy.sum()),
        )
        self._agg = (parts, traffic, total)
        return self._agg

    def traffic_by_node(self) -> Dict[int, NodeTraffic]:
        """Per-node traffic totals, identical to charging the records.

        Every mentioned endpoint gets an entry (possibly all-zero), as
        the record-walking path produces.  The :class:`NodeTraffic`
        values are cached on the batch and shared between calls — treat
        them as read-only.
        """
        _, traffic, _ = self._aggregate()
        return dict(traffic)

    def _participant_costs(self, machine) -> np.ndarray:
        """``Ct_i`` on ``machine`` per participant, in participant order.

        Evaluates the paper's ``Ct_i = L*m_i + G*b_i + H*c_i`` for every
        participant in one vectorised pass.  The per-node arithmetic is
        the exact scalar sequence of
        :meth:`~repro.vm.machine.MachineSpec.comm_cost` applied
        elementwise, so each cost is bitwise identical to pricing the
        node's :class:`NodeTraffic` individually.
        """
        parts, traffic, _ = self._aggregate()
        n = len(parts)
        msgs = np.fromiter(
            (t.messages_sent + t.messages_received for t in traffic.values()),
            np.float64, count=n,
        )
        moved = np.fromiter(
            (max(t.bytes_sent, t.bytes_received) for t in traffic.values()),
            np.float64, count=n,
        )
        copied = np.fromiter(
            (t.bytes_copied for t in traffic.values()), np.float64, count=n,
        )
        return (machine.latency * msgs + machine.gap * moved
                + machine.copy_cost * copied)

    def node_costs(self, machine) -> Dict[int, float]:
        """Per-participant communication cost on ``machine``."""
        parts, _, _ = self._aggregate()
        return dict(zip(parts, self._participant_costs(machine).tolist()))

    def cost_column(
        self, machine, node_ids: Tuple[int, ...]
    ) -> Tuple[np.ndarray, float]:
        """``(Ct_i per node of the group, their maximum)`` on ``machine``.

        ``node_ids`` is a sorted group that must contain every endpoint
        of the batch (``ValueError`` otherwise); members exchanging
        nothing price to exactly ``comm_cost(0, 0, 0) == 0.0``.  The
        column is read-only and memoised per ``(machine, node_ids)``
        value, so a replay charging one cached plan every step prices
        it once, and no machine can read another's costs.
        """
        key = (machine, node_ids)
        hit = self._costs.get(key)
        if hit is not None:
            return hit
        parts, _, _ = self._aggregate()
        ids = np.asarray(node_ids, dtype=np.int64)
        parts_arr = np.asarray(parts, dtype=np.int64)
        outside = parts_arr[~np.isin(parts_arr, ids)]
        if outside.size:
            raise ValueError(
                f"transfer endpoint {int(outside[0])} outside group {node_ids}"
            )
        column = np.zeros(ids.size)
        column[np.searchsorted(ids, parts_arr)] = self._participant_costs(machine)
        column.setflags(write=False)
        hit = (column, float(column.max()))
        if len(self._costs) >= _COST_MEMO_MAX:
            self._costs.clear()
        self._costs[key] = hit
        return hit
