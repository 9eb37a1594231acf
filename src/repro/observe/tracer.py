"""Span-based tracing for simulated and real execution.

The tracer is the observability substrate every layer emits into:

* the :class:`~repro.vm.cluster.Cluster` emits one **node span** per
  participating node per phase, with the node's exact busy interval —
  this is the profiler-grade record the paper's phase-by-phase
  measurements correspond to.  A phase hands its nodes over as columns
  (:meth:`Tracer.emit_many`); the tracer keeps them as one block and
  builds the :class:`Span` objects when :attr:`Tracer.spans` is read;
* the Fx runtime and the model drivers open **region spans**
  (``hour:06``, ``step:3``, pipeline stages) with the context-manager
  API, so the node spans nest under the program structure;
* :class:`~repro.observe.counters.CounterSet` totals (messages, bytes,
  redistributions, per-phase wall time) accumulate from the same stream.

Time sources
------------
A tracer reads time from a ``clock`` callable.  A cluster binds its own
simulated clock (:meth:`~repro.vm.cluster.Cluster.time`), so region
spans opened while running on a simulated machine bracket *simulated*
seconds; a standalone tracer defaults to wall time (``perf_counter``
relative to tracer creation), which is what
:class:`~repro.model.sequential.SequentialAirshed` profiles with.
A tracer should observe a single run: sharing one across clusters
mixes their clocks and double-counts totals.

Example::

    tracer = Tracer()
    with tracer.span("chemistry", kind="region", hour=7):
        tracer.emit("solve", "compute", 0.0, 1.5, node=3, busy=1.5)
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.observe.counters import CounterSet

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One timed interval of the run.

    Attributes
    ----------
    name:
        Phase or region label (``"chemistry"``, ``"D_Chem->D_Repl"``,
        ``"hour:06"``...).
    kind:
        ``"compute"`` / ``"comm"`` / ``"io"`` for node spans; region
        spans use structural kinds (``"region"``, ``"hour"``, ``"step"``,
        ``"stage"``).
    start / end:
        Seconds on the tracer's clock (simulated seconds on a cluster).
    node:
        Participating node id, or ``None`` for a program-level region.
    busy:
        The node's *active* seconds within ``[start, end]``; ``None``
        means the whole interval.  Communication spans of a collective
        share the phase interval but carry each node's own cost here.
    attrs:
        Free-form metadata (op counts, item indices, ...).
    """

    name: str
    kind: str
    start: float
    end: float
    node: Optional[int] = None
    busy: Optional[float] = None
    span_id: int = 0
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def busy_seconds(self) -> float:
        """Active seconds (falls back to the full interval)."""
        return self.duration if self.busy is None else self.busy


def _column(values, n: int) -> list:
    """A block column as ``n`` Python values (a scalar is shared)."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    if isinstance(values, (list, tuple)):
        return values
    return [values] * n


def _block_spans(block: tuple) -> List[Span]:
    """The node spans of one :meth:`Tracer.emit_many` block, in order."""
    name, kind, starts, ends, nodes, busys, attrs, sid, parent = block
    n = len(nodes)
    starts, ends, busys = _column(starts, n), _column(ends, n), _column(busys, n)
    attrs = [(key, _column(col, n)) for key, col in attrs.items()]
    return [
        Span(name, kind, starts[j], ends[j], nodes[j], busys[j], sid + j,
             parent, {key: col[j] for key, col in attrs})
        for j in range(n)
    ]


class Tracer:
    """Collects spans and counters for one run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._spans: List[Span] = []
        #: What was emitted since :attr:`spans` was last read, in
        #: emission order: ``emit_many`` blocks (tuples), and the spans
        #: ``emit``/``span`` built after the first of them.
        self._pending: list = []
        self.counters = CounterSet()
        #: Wall seconds per (kind, name) phase, counted once per phase.
        self.phase_totals: Dict[Tuple[str, str], float] = {}
        self.phase_counts: Dict[Tuple[str, str], int] = {}
        self._stack: List[Span] = []
        self._next_id = 1
        if clock is None:
            epoch = _time.perf_counter()
            clock = lambda: _time.perf_counter() - epoch  # noqa: E731
        self._clock = clock

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (a cluster binds its simulated clock)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # span emission
    # ------------------------------------------------------------------
    def current_span(self) -> Optional[Span]:
        """The innermost open region span, if any."""
        return self._stack[-1] if self._stack else None

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    @property
    def spans(self) -> List[Span]:
        """Every span of the run, in emission order — the one read API.

        Always the same list object.  Blocks recorded by
        :meth:`emit_many` become :class:`Span` objects here, once, with
        the ids they reserved at emission; spans built by :meth:`emit`
        and :meth:`span` are the very objects those calls returned.
        """
        if self._pending:
            pending, self._pending = self._pending, []
            for item in pending:
                if isinstance(item, tuple):
                    self._spans.extend(_block_spans(item))
                else:
                    self._spans.append(item)
        return self._spans

    def _record(self, span: Span) -> None:
        (self._pending if self._pending else self._spans).append(span)

    def emit(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        node: Optional[int] = None,
        busy: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Record a complete span, parented under the open region."""
        if end < start:
            raise ValueError(f"span {name!r}: end {end} before start {start}")
        parent = self.current_span()
        span = Span(
            name=name,
            kind=kind,
            start=float(start),
            end=float(end),
            node=node,
            busy=None if busy is None else float(busy),
            span_id=self._new_id(),
            parent_id=parent.span_id if parent else None,
            attrs=attrs,
        )
        self._record(span)
        return span

    def emit_many(
        self,
        name: str,
        kind: str,
        starts,
        ends,
        nodes,
        busys,
        ops=None,
        **attrs,
    ) -> None:
        """Record one complete span per node in a single call.

        Semantically identical to calling :meth:`emit` once per node in
        order (same span ids, same parenting, same values), but the
        phase is *stored* as one block of columns; the per-node
        :class:`Span` objects are built when :attr:`spans` is read.  A
        replay nobody inspects therefore pays per phase, not per node
        (P=64 phases emit thousands of node spans).

        ``starts``/``ends``/``busys`` may each be a scalar (a
        collective's shared interval) or a per-node list, tuple or
        array; ``ops`` and any further keyword column attach
        ``attrs={"ops": ...}`` per node.  The columns are kept by
        reference: hand over arrays nothing will write to again.

        All or nothing: a column of the wrong length or an ``end``
        before its ``start`` raises ``ValueError`` before anything is
        recorded or any span id is consumed.
        """
        n = len(nodes)
        if ops is not None:
            attrs = {"ops": ops, **attrs}
        starts, ends, busys = (
            col if hasattr(col, "__len__") else float(col)
            for col in (starts, ends, busys)
        )
        for label, col in (("starts", starts), ("ends", ends),
                           ("busys", busys), *attrs.items()):
            if hasattr(col, "__len__") and len(col) != n:
                raise ValueError(
                    f"span {name!r}: {label} has {len(col)} entries "
                    f"for {n} nodes"
                )
        if isinstance(starts, float) and isinstance(ends, float):
            early = 0 if ends < starts else None
        else:
            before = np.less(ends, starts)
            early = int(np.argmax(before)) if before.any() else None
        if early is not None:
            raise ValueError(
                f"span {name!r}: end {_column(ends, n)[early]} "
                f"before start {_column(starts, n)[early]}"
            )
        parent = self._stack[-1].span_id if self._stack else None
        self._pending.append(
            (name, kind, starts, ends, nodes, busys, attrs,
             self._next_id, parent)
        )
        self._next_id += n

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "region",
        clock: Optional[Callable[[], float]] = None,
        node: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a region span bracketing the ``with`` body.

        ``clock`` overrides the tracer clock for this span — pipeline
        stages pass their subgroup's local time so a stage region covers
        the stage's own simulated interval, not the global maximum.
        """
        read = clock if clock is not None else self._clock
        parent = self.current_span()
        span = Span(
            name=name,
            kind=kind,
            start=float(read()),
            end=float("nan"),
            node=node,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent else None,
            attrs=attrs,
        )
        span.end = span.start
        self._record(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = max(float(read()), span.start)

    # ------------------------------------------------------------------
    # phase-level accounting (fed by the cluster, once per phase)
    # ------------------------------------------------------------------
    def observe_phase(
        self, name: str, kind: str, duration: float, traffic=None,
        traffic_total=None,
    ) -> None:
        """Account one executed phase into the counter stream.

        ``duration`` is the phase's wall (simulated) duration; it is
        recorded once per phase regardless of how many node spans the
        phase emitted.  ``traffic`` is the phase's per-node
        :class:`~repro.vm.traffic.NodeTraffic` mapping, if any;
        ``traffic_total``, when supplied (the batched communication
        path pre-aggregates it), is the exact integer sum of ``traffic``
        and is accounted with one counter update per field instead of
        one per node.
        """
        key = (kind, name)
        self.phase_totals[key] = self.phase_totals.get(key, 0.0) + duration
        self.phase_counts[key] = self.phase_counts.get(key, 0) + 1
        self.counters.inc(f"phases:{kind}")
        self.counters.observe(f"phase_seconds:{name}", duration)
        if kind == "comm" and "->" in name:
            self.counters.inc("redistributions")
        if traffic_total is not None:
            self.counters.add_traffic(traffic_total)
        elif traffic:
            for node_traffic in traffic.values():
                self.counters.add_traffic(node_traffic)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def node_spans(self) -> List[Span]:
        """Spans attached to a node (the per-node busy record)."""
        return [s for s in self.spans if s.node is not None]

    def filter(
        self,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        node: Optional[int] = None,
    ) -> List[Span]:
        out = self.spans
        if name is not None:
            out = [s for s in out if s.name == name]
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        if node is not None:
            out = [s for s in out if s.node == node]
        return list(out)

    def time_by_phase(self) -> Dict[str, float]:
        """Wall seconds per phase name (each phase counted once)."""
        out: Dict[str, float] = {}
        for (kind, name), secs in self.phase_totals.items():
            out[name] = out.get(name, 0.0) + secs
        return out

    def time_by_kind(self) -> Dict[str, float]:
        """Wall seconds per phase kind (compute/comm/io)."""
        out: Dict[str, float] = {}
        for (kind, name), secs in self.phase_totals.items():
            out[kind] = out.get(kind, 0.0) + secs
        return out

    def busy_by_node(self) -> Dict[int, Dict[str, float]]:
        """Per-node busy seconds split by kind — the profiler totals."""
        out: Dict[int, Dict[str, float]] = {}
        for s in self.spans:
            if s.node is None:
                continue
            bucket = out.setdefault(s.node, {})
            bucket[s.kind] = bucket.get(s.kind, 0.0) + s.busy_seconds
        return out

    def total_time(self) -> float:
        """Latest span end seen (0 for an empty tracer)."""
        return max((s.end for s in self.spans), default=0.0)

    def __len__(self) -> int:
        return len(self.spans)
