"""The column machine equals the per-node scalar machine, bit for bit.

:class:`~repro.vm.cluster.Cluster` keeps every clock in one array and
charges whole groups with array expressions; the tracer and the timeline
keep each phase as columns and build ``Span`` objects and per-node dicts
only when read.  The contract is that none of this is observable: every
clock, span, record and error is the one a per-node loop of Python
floats produces.  That loop — the cluster as it was before the columns —
lives here as the oracle, and one Hypothesis state machine drives both
through random interleavings of every charging operation.
"""

import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.observe.tracer import Span, Tracer
from repro.vm import Cluster, Transfer
from repro.vm.machine import CRAY_T3E, INTEL_PARAGON
from repro.vm.traffic import NodeColumn, NodeTraffic, PhaseRecord, Timeline
from repro.vm.transferbatch import TransferBatch


# ---------------------------------------------------------------------------
# the oracle: one Python float per node, one Span per node, one dict per phase
# ---------------------------------------------------------------------------
class ScalarTracer(Tracer):
    """The eager recorder: a phase appends its node spans as it happens."""

    def emit_many(self, name, kind, starts, ends, nodes, busys, ops=None):
        n = len(nodes)
        if not isinstance(starts, (list, tuple)):
            starts = [float(starts)] * n
        if not isinstance(ends, (list, tuple)):
            ends = [float(ends)] * n
        parent = self._stack[-1].span_id if self._stack else None
        for j in range(n):
            if ends[j] < starts[j]:
                raise ValueError(
                    f"span {name!r}: end {ends[j]} before start {starts[j]}"
                )
            self.spans.append(Span(
                name=name, kind=kind, start=starts[j], end=ends[j],
                node=nodes[j], busy=busys[j], span_id=self._new_id(),
                parent_id=parent,
                attrs={} if ops is None else {"ops": ops[j]},
            ))


class ScalarCluster:
    """The simulated machine as per-node loops over Python floats."""

    def __init__(self, machine, nprocs):
        self.machine = machine
        self.nprocs = nprocs
        self.clocks = [0.0] * nprocs
        self.timeline = Timeline()
        self.tracer = ScalarTracer()
        self.tracer.set_clock(self.time)

    def time(self, node_ids=None):
        ids = range(self.nprocs) if node_ids is None else node_ids
        return max((self.clocks[i] for i in ids), default=0.0)

    def check_ids(self, node_ids):
        ids = tuple(sorted(set(int(i) for i in node_ids)))
        if not ids:
            raise ValueError("empty node group")
        if ids[0] < 0 or ids[-1] >= self.nprocs:
            raise ValueError(f"node ids {ids} out of range for P={self.nprocs}")
        return ids

    def charge_compute(self, name, ops_by_node):
        ids = self.check_ids(ops_by_node.keys())
        ops = [float(ops_by_node[i]) for i in ids]
        if min(ops) < 0:
            raise ValueError("ops must be non-negative")
        costs = [o * self.machine.seconds_per_op for o in ops]
        before = [self.clocks[i] for i in ids]
        after = [b + c for b, c in zip(before, costs)]
        for i, clk in zip(ids, after):
            self.clocks[i] = clk
        self.tracer.emit_many(name, "compute", before, after, ids,
                              busys=costs, ops=ops)
        record = PhaseRecord(
            name=name, kind="compute", start=max(before), end=max(after),
            node_ids=ids, ops=dict(zip(ids, ops)),
        )
        self.timeline.append(record)
        self.tracer.observe_phase(name, "compute", record.duration)

    def charge_replicated_compute(self, name, ops, node_ids=None):
        ids = (tuple(range(self.nprocs)) if node_ids is None
               else self.check_ids(node_ids))
        self.charge_compute(name, {i: ops for i in ids})

    def charge_communication(self, name, transfers, node_ids=None,
                             batched=False):
        traffic = {}

        def rec(i):
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
        total = None
        if batched:
            # A batch lists its participants in id order and accounts
            # its whole-phase sum in one counter update per field.
            traffic = {i: traffic[i] for i in sorted(traffic)}
            total = NodeTraffic()
            for t in traffic.values():
                total.merge(t)

        if node_ids is None:
            ids = (self.check_ids(traffic.keys()) if traffic
                   else tuple(range(self.nprocs)))
        else:
            ids = self.check_ids(node_ids)
            for i in traffic:
                if i not in ids:
                    raise ValueError(f"transfer endpoint {i} outside group {ids}")

        start = self.time(ids)
        costs = {}
        for i in ids:
            t = traffic.get(i, NodeTraffic())
            costs[i] = self.machine.comm_cost(
                t.messages, t.bytes_moved, t.bytes_copied
            )
        cost = max(costs.values())
        end = start + cost
        for i in ids:
            if end > self.clocks[i]:
                self.clocks[i] = end
        self.tracer.emit_many(name, "comm", start, end, ids,
                              busys=list(costs.values()))
        record = PhaseRecord(
            name=name, kind="comm", start=start, end=end, node_ids=ids,
            traffic=traffic, ops=costs,
        )
        self.timeline.append(record)
        self.tracer.observe_phase(name, "comm", record.duration,
                                  traffic=traffic, traffic_total=total)

    def charge_io(self, name, nbytes, ops=0.0, node_id=0,
                  blocking_group=None):
        (nid,) = self.check_ids([node_id])
        start = self.clocks[nid]
        cost = self.machine.io_cost(nbytes, ops)
        self.clocks[nid] += cost
        self.tracer.emit(name, "io", start, start + cost, node=nid,
                         busy=cost, nbytes=float(nbytes))
        ids = (nid,)
        if blocking_group is not None:
            ids = self.check_ids(set(blocking_group) | {nid})
            end = max(self.time(ids), self.clocks[nid])
            for i in ids:
                if end > self.clocks[i]:
                    self.clocks[i] = end
        record = PhaseRecord(
            name=name, kind="io", start=start, end=self.time(ids),
            node_ids=ids, ops={nid: cost},
        )
        self.timeline.append(record)
        self.tracer.observe_phase(name, "io", record.duration)

    def barrier(self, node_ids=None):
        ids = (tuple(range(self.nprocs)) if node_ids is None
               else self.check_ids(node_ids))
        when = self.time(ids)
        self.wait_until(ids, when)
        return when

    def wait_until(self, ids, when):
        for i in ids:
            if when > self.clocks[i]:
                self.clocks[i] = when


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def span_fields(span):
    return (span.name, span.kind, span.start, span.end, span.node,
            span.busy, span.span_id, span.parent_id, span.attrs,
            type(span.start), type(span.end), type(span.busy),
            {k: type(v) for k, v in span.attrs.items()})


def record_fields(rec):
    return (rec.name, rec.kind, rec.start, rec.end, rec.node_ids,
            dict(rec.ops), dict(rec.traffic), type(rec.start), type(rec.end),
            {type(v) for v in rec.ops.values()})


class World:
    """One real cluster beside its oracle, on one machine."""

    def __init__(self, machine, nprocs, spans_every_step):
        self.real = Cluster(machine, nprocs)
        self.oracle = ScalarCluster(machine, nprocs)
        self.spans_every_step = spans_every_step
        self.regions = []  # open (real, oracle) span context managers

    def both(self, real_call, oracle_call):
        """Run one operation on both sides; errors must agree too."""
        outcomes = []
        for call in (real_call, oracle_call):
            try:
                call()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def check_spans(self):
        got = [span_fields(s) for s in self.real.tracer.spans]
        want = [span_fields(s) for s in self.oracle.tracer.spans]
        assert got == want

    def check(self):
        real, oracle = self.real, self.oracle
        P = oracle.nprocs
        assert real.clocks.tolist() == oracle.clocks
        assert [real.clock(i) for i in range(P)] == oracle.clocks
        assert [n.clock for n in real.nodes] == oracle.clocks
        assert real.time() == oracle.time()
        assert type(real.time()) is float
        assert ([record_fields(r) for r in real.timeline]
                == [record_fields(r) for r in oracle.timeline])
        assert real.tracer.phase_totals == oracle.tracer.phase_totals
        assert real.tracer.phase_counts == oracle.tracer.phase_counts
        assert (real.tracer.counters.snapshot()
                == oracle.tracer.counters.snapshot())
        if self.spans_every_step:
            self.check_spans()


# ---------------------------------------------------------------------------
# the state machine
# ---------------------------------------------------------------------------
OPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.integers(0, 10 ** 6),
)
NAMES = st.sampled_from(["chemistry", "transport", "D_Chem->D_Repl", "x"])


class ColumnMachine(RuleBasedStateMachine):
    batches = Bundle("batches")

    @initialize(nprocs=st.integers(1, 7))
    def build(self, nprocs):
        self.P = nprocs
        # Two machines see every operation, so one TransferBatch object
        # is priced on both alternately.  The first world reads its
        # spans after every step, the second lets blocks pile up.
        self.worlds = [World(CRAY_T3E, nprocs, True),
                       World(INTEL_PARAGON, nprocs, False)]

    def group(self, data, min_size=1):
        """A non-empty random node group (ascending ids)."""
        return tuple(sorted(data.draw(st.sets(
            st.integers(0, self.P - 1), min_size=min_size, max_size=self.P
        ))))

    def maybe_group(self, data):
        return None if data.draw(st.booleans()) else self.group(data)

    def each(self, real_call, oracle_call):
        """Apply one operation to every world; returns the shared error."""
        errors = {w.both(lambda: real_call(w.real),
                         lambda: oracle_call(w.oracle))
                  for w in self.worlds}
        assert len(errors) == 1
        return errors.pop()

    # -- compute -----------------------------------------------------------
    @rule(data=st.data(), name=NAMES)
    def compute_mapping(self, data, name):
        ops = {i: data.draw(OPS) for i in self.group(data)}
        self.each(lambda c: c.charge_compute(name, ops),
                  lambda o: o.charge_compute(name, ops))

    @rule(data=st.data(), name=NAMES)
    def compute_mapping_by_rank(self, data, name):
        nodes = self.group(data)
        ranks = data.draw(st.sets(st.integers(0, len(nodes) - 1), min_size=1))
        ops = {r: data.draw(OPS) for r in sorted(ranks)}
        self.each(
            lambda c: c.subgroup(nodes).charge_compute(name, ops),
            lambda o: o.charge_compute(
                name, {nodes[r]: v for r, v in ops.items()}),
        )

    @rule(data=st.data(), name=NAMES, as_array=st.booleans())
    def compute_column(self, data, name, as_array):
        nodes = self.maybe_group(data)
        ids = tuple(range(self.P)) if nodes is None else nodes
        ops = [data.draw(OPS) for _ in ids]
        column = np.array(ops, dtype=float) if as_array else ops
        if nodes is not None and data.draw(st.booleans()):
            self.each(
                lambda c: c.subgroup(nodes).charge_compute_column(name, column),
                lambda o: o.charge_compute(name, dict(zip(ids, ops))),
            )
        else:
            self.each(
                lambda c: c.charge_compute_column(name, column, nodes),
                lambda o: o.charge_compute(name, dict(zip(ids, ops))),
            )

    @rule(data=st.data(), name=NAMES, ops=OPS)
    def replicated(self, data, name, ops):
        nodes = self.maybe_group(data)
        self.each(lambda c: c.charge_replicated_compute(name, ops, nodes),
                  lambda o: o.charge_replicated_compute(name, ops, nodes))

    # -- communication -----------------------------------------------------
    def transfers(self, data, size):
        """Records between ranks ``0..size-1``: copies, 0..3 messages."""
        return [
            Transfer(data.draw(st.integers(0, size - 1)),
                     data.draw(st.integers(0, size - 1)),
                     data.draw(st.integers(0, 10 ** 7)),
                     data.draw(st.integers(0, 3)))
            for _ in range(data.draw(st.integers(0, 6)))
        ]

    @rule(data=st.data(), name=NAMES)
    def comm_records(self, data, name):
        nodes = self.group(data)
        records = [Transfer(nodes[t.src], nodes[t.dst], t.nbytes, t.messages)
                   for t in self.transfers(data, len(nodes))]
        # No group (the endpoints), the group, or any group: bystanders
        # synchronise, an endpoint left outside is an error.
        choice = data.draw(st.sampled_from(["endpoints", "nodes", "any"]))
        ids = (None if choice == "endpoints" else nodes if choice == "nodes"
               else self.group(data))
        self.each(lambda c: c.charge_communication(name, records, ids),
                  lambda o: o.charge_communication(name, records, ids))

    @rule(data=st.data(), name=NAMES)
    def comm_records_by_rank(self, data, name):
        nodes = self.group(data)
        local = self.transfers(data, len(nodes))
        mapped = [Transfer(nodes[t.src], nodes[t.dst], t.nbytes, t.messages)
                  for t in local]
        self.each(
            lambda c: c.subgroup(nodes).charge_communication(name, local),
            lambda o: o.charge_communication(name, mapped, nodes),
        )

    @rule(target=batches, data=st.data())
    def new_batch(self, data):
        size = data.draw(st.integers(1, self.P))
        records = self.transfers(data, size)
        return size, TransferBatch.from_transfers(records), records

    @rule(data=st.data(), name=NAMES, batch=batches)
    def comm_batch(self, data, name, batch):
        _, batch, records = batch
        ids = self.maybe_group(data)
        self.each(
            lambda c: c.charge_communication(name, batch, ids),
            lambda o: o.charge_communication(name, records, ids, batched=True),
        )

    @rule(data=st.data(), name=NAMES, batch=batches)
    def comm_batch_remapped(self, data, name, batch):
        size, batch, records = batch
        nodes = self.group(data, min_size=size)  # ranks >= size stand by
        mapped = [Transfer(nodes[t.src], nodes[t.dst], t.nbytes, t.messages)
                  for t in records]
        self.each(
            lambda c: c.subgroup(nodes).charge_communication(name, batch),
            lambda o: o.charge_communication(name, mapped, nodes,
                                             batched=True),
        )

    # -- io, barriers, waits -------------------------------------------------
    @rule(data=st.data(), nbytes=st.integers(0, 10 ** 8), ops=OPS)
    def io(self, data, nbytes, ops):
        node = data.draw(st.integers(0, self.P - 1))
        blocking = self.maybe_group(data)
        self.each(
            lambda c: c.charge_io("io:x", nbytes, ops, node, blocking),
            lambda o: o.charge_io("io:x", nbytes, ops, node, blocking),
        )

    @rule(data=st.data(), rank=st.integers(0, 6), blocking=st.booleans())
    def io_by_rank(self, data, rank, blocking):
        nodes = self.group(data)
        rank %= len(nodes)
        self.each(
            lambda c: c.subgroup(nodes).charge_io(
                "io:y", 4096, rank=rank, blocking=blocking),
            lambda o: o.charge_io("io:y", 4096, 0.0, nodes[rank],
                                  nodes if blocking else None),
        )

    @rule(data=st.data())
    def barrier(self, data):
        nodes = self.maybe_group(data)
        for w in self.worlds:
            assert w.real.barrier(nodes) == w.oracle.barrier(nodes)

    @rule(data=st.data(), ahead=st.floats(-1.0, 10.0))
    def wait_until(self, data, ahead):
        nodes = self.group(data)
        for w in self.worlds:
            when = w.oracle.time(nodes) + ahead
            w.real.subgroup(nodes).wait_until(when)
            w.oracle.wait_until(nodes, when)

    # -- regions on overlapping subgroups -----------------------------------
    @rule(data=st.data(), kind=st.sampled_from(["hour", "step", "stage"]))
    def open_region(self, data, kind):
        nodes = self.group(data)
        for w in self.worlds:
            if len(w.regions) >= 4:
                continue
            pair = (
                w.real.tracer.span(f"{kind}:r", kind=kind, index=len(nodes),
                                   clock=w.real.subgroup(nodes).time),
                w.oracle.tracer.span(f"{kind}:r", kind=kind, index=len(nodes),
                                     clock=lambda o=w.oracle: o.time(nodes)),
            )
            for cm in pair:
                cm.__enter__()
            w.regions.append(pair)

    @rule()
    def close_region(self):
        for w in self.worlds:
            if w.regions:
                for cm in w.regions.pop():
                    cm.__exit__(None, None, None)

    @rule()
    def read_spans(self):
        for w in self.worlds:
            w.check_spans()

    # -- errors leave no trace -----------------------------------------------
    @rule(data=st.data(), case=st.sampled_from([
        "negative ops", "negative column", "empty group", "out of range",
        "endpoint outside records", "endpoint outside batch",
    ]))
    def refused(self, data, case):
        P = self.P
        inside = data.draw(st.integers(0, P - 1))
        calls = {
            "negative ops": lambda c: c.charge_compute("x", {inside: -1.0}),
            "empty group": lambda c: c.charge_compute("x", {}),
            "out of range": lambda c: c.charge_compute("x", {P: 1.0}),
            "endpoint outside records": lambda c: c.charge_communication(
                "x", [Transfer(inside, (inside + 1) % P, 8)], (inside,)),
        }
        if case == "negative column":
            error = self.each(
                lambda c: c.charge_compute_column("x", [-1.0] * P),
                lambda o: o.charge_compute("x", dict.fromkeys(range(P), -1.0)),
            )
        elif case == "endpoint outside batch":
            records = [Transfer(inside, (inside + 1) % P, 8)]
            batch = TransferBatch.from_transfers(records)
            error = self.each(
                lambda c: c.charge_communication("x", batch, (inside,)),
                lambda o: o.charge_communication("x", records, (inside,),
                                                 batched=True),
            )
        else:
            error = self.each(calls[case], calls[case])
        if P > 1 or not case.startswith("endpoint"):
            assert error is not None

    @invariant()
    def columns_equal_scalars(self):
        for w in getattr(self, "worlds", ()):
            w.check()

    def teardown(self):
        for w in getattr(self, "worlds", ()):
            while w.regions:
                for cm in w.regions.pop():
                    cm.__exit__(None, None, None)
            w.check()
            w.check_spans()


def test_columns_equal_the_scalar_machine():
    run_state_machine_as_test(ColumnMachine, settings=settings(
        max_examples=60, stateful_step_count=30, deadline=None))


# ---------------------------------------------------------------------------
# what reading and keeping columns must not change
# ---------------------------------------------------------------------------
def small_cluster():
    cluster = Cluster(CRAY_T3E, 4)
    cluster.charge_compute("chemistry", {0: 2e6, 1: 1e6, 3: 3e6})
    return cluster


def test_region_span_is_the_object_in_spans_and_closes_after_a_read():
    cluster = small_cluster()
    tracer = cluster.tracer
    with tracer.span("hour:06", kind="hour") as hour:
        cluster.charge_replicated_compute("aerosol", 5e5)
        inside = tracer.spans  # materialises the blocks so far
        assert any(s is hour for s in inside)
        assert hour.end == hour.start
        cluster.charge_communication("x", [Transfer(0, 1, 4096)])
    assert hour.end == cluster.time() > hour.start
    assert tracer.spans is inside
    assert sum(s is hour for s in tracer.spans) == 1
    assert [s.span_id for s in tracer.spans] == list(
        range(1, len(tracer.spans) + 1))
    under = [s for s in tracer.spans if s.parent_id == hour.span_id]
    assert [s.name for s in under] == ["aerosol"] * 4 + ["x"] * 2


def test_reading_spans_twice_returns_the_same_objects():
    cluster = small_cluster()
    first = list(cluster.tracer.spans)
    cluster.charge_io("io:out", 1024, node_id=2)
    second = cluster.tracer.spans
    assert all(a is b for a, b in zip(first, second))
    assert len(second) == len(first) + 1
    assert all(a is b for a, b in zip(second, cluster.tracer.spans))


def test_phase_record_survives_pickle():
    cluster = small_cluster()
    cluster.charge_communication("x", [Transfer(0, 1, 4096)], range(4))
    for rec in cluster.timeline:
        assert isinstance(rec.ops, NodeColumn)
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        assert dict(back.ops) == dict(rec.ops)
        assert back.ops == dict(rec.ops)


def test_recorded_columns_do_not_alias_the_live_clocks():
    cluster = small_cluster()
    cluster.charge_communication("x", [Transfer(0, 1, 4096)], range(4))
    cluster.barrier()
    before = [r.start for r in cluster.timeline]
    cluster.clocks[:] = 99.0  # nothing recorded may move with the clocks
    cluster.nodes[2].clock = 7.0
    assert cluster.clock(2) == 7.0 and cluster.clocks[2] == 7.0
    assert [s.start for s in cluster.tracer.spans[:3]] == [0.0, 0.0, 0.0]
    assert all(s.end < 99.0 for s in cluster.tracer.spans)
    assert [r.start for r in cluster.timeline] == before


def test_a_callers_op_column_is_copied():
    cluster = Cluster(CRAY_T3E, 3)
    ops = np.array([1.0, 2.0, 3.0])
    rec = cluster.charge_compute_column("w", ops)
    ops[:] = 0.0
    assert dict(rec.ops) == {0: 1.0, 1: 2.0, 2: 3.0}
    assert [s.attrs["ops"] for s in cluster.tracer.spans] == [1.0, 2.0, 3.0]


def test_a_column_of_the_wrong_length_is_refused_before_any_clock_moves():
    cluster = Cluster(CRAY_T3E, 3)
    with pytest.raises(ValueError, match="shape"):
        cluster.charge_compute_column("w", [1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        cluster.subgroup([0, 2]).charge_compute_column("w", [1.0, 2.0, 3.0])
    assert cluster.time() == 0.0 and len(cluster.timeline) == 0
    assert cluster.tracer.spans == []
