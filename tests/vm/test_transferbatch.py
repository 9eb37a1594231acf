"""TransferBatch: batched transfers price identically to the records."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.vm.cluster import Cluster, Transfer
from repro.vm.machine import CRAY_T3E, INTEL_PARAGON
from repro.vm.transferbatch import _COST_MEMO_MAX, TransferBatch


def mixed_transfers():
    """Net transfers, a local copy, a multi-message and a zero-byte one."""
    return [
        Transfer(0, 1, 1024),
        Transfer(1, 2, 4096, messages=3),
        Transfer(2, 2, 512),       # local copy: H term only
        Transfer(3, 0, 0),         # participates with zero bytes
        Transfer(0, 2, 2048),
    ]


class TestConstruction:
    def test_roundtrip_preserves_records(self):
        records = mixed_transfers()
        batch = TransferBatch.from_transfers(records)
        assert len(batch) == len(records)
        assert batch.to_transfers() == records

    def test_messages_array_omitted_when_all_single(self):
        batch = TransferBatch.from_transfers([Transfer(0, 1, 8), Transfer(1, 0, 8)])
        assert batch.messages is None

    def test_arrays_are_immutable(self):
        batch = TransferBatch([0], [1], [64])
        with pytest.raises(ValueError):
            batch.src[0] = 5

    @pytest.mark.parametrize("kwargs", [
        dict(src=[0, 1], dst=[1], nbytes=[8, 8]),
        dict(src=[0], dst=[1], nbytes=[8], messages=[1, 1]),
        dict(src=[-1], dst=[1], nbytes=[8]),
        dict(src=[0], dst=[-2], nbytes=[8]),
        dict(src=[0], dst=[1], nbytes=[-8]),
        dict(src=[0], dst=[1], nbytes=[8], messages=[-1]),
        dict(src=[[0]], dst=[[1]], nbytes=[[8]]),
    ])
    def test_invalid_inputs_raise(self, kwargs):
        with pytest.raises(ValueError):
            TransferBatch(**kwargs)


class TestAggregation:
    def test_traffic_by_node_matches_record_walk(self):
        records = mixed_transfers()
        batch = TransferBatch.from_transfers(records)
        cl_records = Cluster(CRAY_T3E, 4)
        cl_batch = Cluster(CRAY_T3E, 4)
        rec_r = cl_records.charge_communication("x", records)
        rec_b = cl_batch.charge_communication("x", batch)
        assert rec_b.traffic == rec_r.traffic
        assert rec_b.ops == rec_r.ops
        assert rec_b.node_ids == rec_r.node_ids
        assert (rec_b.start, rec_b.end) == (rec_r.start, rec_r.end)

    def test_every_endpoint_participates(self):
        batch = TransferBatch.from_transfers([Transfer(1, 3, 0)])
        traffic = batch.traffic_by_node()
        assert set(traffic) == {1, 3}

    def test_node_costs_match_scalar_comm_cost(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        costs = batch.node_costs(CRAY_T3E)
        for node, t in batch.traffic_by_node().items():
            expected = CRAY_T3E.comm_cost(t.messages, t.bytes_moved,
                                          t.bytes_copied)
            assert costs[node] == expected

    def test_counters_match_record_path(self):
        records = mixed_transfers()
        cl_records = Cluster(CRAY_T3E, 4)
        cl_batch = Cluster(CRAY_T3E, 4)
        cl_records.charge_communication("x", records)
        cl_batch.charge_communication("x", TransferBatch.from_transfers(records))
        snap_r = cl_records.tracer.counters.snapshot()["counters"]
        snap_b = cl_batch.tracer.counters.snapshot()["counters"]
        assert snap_b == snap_r

    def test_span_stream_matches_record_path(self):
        records = mixed_transfers()
        cl_records = Cluster(CRAY_T3E, 4)
        cl_batch = Cluster(CRAY_T3E, 4)
        cl_records.charge_communication("x", records)
        cl_batch.charge_communication("x", TransferBatch.from_transfers(records))
        assert [
            (s.name, s.kind, s.start, s.end, s.node, s.busy, s.span_id)
            for s in cl_batch.tracer.spans
        ] == [
            (s.name, s.kind, s.start, s.end, s.node, s.busy, s.span_id)
            for s in cl_records.tracer.spans
        ]


class TestRemap:
    def test_identity_returns_self(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        assert batch.remap(np.arange(4)) is batch

    def test_remap_translates_endpoints(self):
        batch = TransferBatch([0, 1], [1, 0], [64, 32])
        mapped = batch.remap(np.array([10, 20]))
        assert mapped.src.tolist() == [10, 20]
        assert mapped.dst.tolist() == [20, 10]
        assert mapped.nbytes.tolist() == [64, 32]

    def test_remap_is_memoized_per_mapping(self):
        batch = TransferBatch([0, 1], [1, 0], [64, 32])
        mapping = np.array([10, 20])
        assert batch.remap(mapping) is batch.remap(np.array([10, 20]))
        assert batch.remap(np.array([5, 6])) is not batch.remap(mapping)

    def test_subgroup_charges_through_remap(self):
        """A subgroup charge equals charging pre-translated records."""
        batch = TransferBatch([0, 1], [1, 0], [1024, 2048])
        cl_sub = Cluster(CRAY_T3E, 8)
        cl_direct = Cluster(CRAY_T3E, 8)
        rec_s = cl_sub.subgroup([3, 5]).charge_communication("x", batch)
        rec_d = cl_direct.charge_communication(
            "x", [Transfer(3, 5, 1024), Transfer(5, 3, 2048)],
            node_ids=[3, 5],
        )
        assert rec_s.traffic == rec_d.traffic
        assert rec_s.ops == rec_d.ops
        assert (rec_s.start, rec_s.end) == (rec_d.start, rec_d.end)


class TestCostColumn:
    """The per-(machine, group) cost memo the batched charge reads."""

    def test_column_prices_each_group_member(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        group = (0, 1, 2, 3, 5)  # node 5 stands by
        column, peak = batch.cost_column(CRAY_T3E, group)
        traffic = batch.traffic_by_node()
        for node, cost in zip(group, column.tolist()):
            t = traffic.get(node)
            assert cost == (0.0 if t is None else CRAY_T3E.comm_cost(
                t.messages, t.bytes_moved, t.bytes_copied))
        assert peak == max(column.tolist()) and type(peak) is float
        with pytest.raises(ValueError):
            column[0] = 1.0  # shared between every phase that reads it

    def test_endpoint_outside_the_group_is_refused_and_not_memoised(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        with pytest.raises(ValueError, match="endpoint 2 outside group"):
            batch.cost_column(CRAY_T3E, (0, 1, 3))
        with pytest.raises(ValueError, match="endpoint 3 outside group"):
            batch.cost_column(CRAY_T3E, (0, 1, 2))
        assert batch._costs == {}

    def test_memo_is_keyed_by_machine_value(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        group = (0, 1, 2, 3)
        fast, _ = batch.cost_column(CRAY_T3E, group)
        slow, _ = batch.cost_column(INTEL_PARAGON, group)
        assert slow.tolist() != fast.tolist()
        # Alternating machines (two worker threads, consecutive jobs)
        # keeps both columns; an equal-valued fresh spec — what an
        # autotuned wave builds — reads its own machine's entry.
        assert batch.cost_column(CRAY_T3E, group)[0] is fast
        assert batch.cost_column(INTEL_PARAGON, group)[0] is slow
        assert batch.cost_column(replace(CRAY_T3E), group)[0] is fast
        skewed = CRAY_T3E.scaled(comm_factor=3.0)
        assert batch.cost_column(skewed, group)[0].tolist() == [
            skewed.comm_cost(t.messages, t.bytes_moved, t.bytes_copied)
            for t in batch.traffic_by_node().values()
        ]

    def test_memo_is_bounded_per_batch(self):
        batch = TransferBatch.from_transfers(mixed_transfers())
        group = (0, 1, 2, 3)
        for k in range(3 * _COST_MEMO_MAX):
            machine = CRAY_T3E.scaled(comm_factor=1.0 + k)
            column, _ = batch.cost_column(machine, group)
            assert column[1] == machine.comm_cost(4, 4096, 0)
            assert len(batch._costs) <= _COST_MEMO_MAX

    def test_filling_the_memo_from_many_threads_is_harmless(self):
        """More threads than cores price one batch under more machines
        than the memo holds, so fills and wholesale clears interleave;
        every reader must still get its own machine's column."""
        batch = TransferBatch.from_transfers(mixed_transfers())
        group = (0, 1, 2, 3)
        machines = [CRAY_T3E.scaled(comm_factor=1.0 + k)
                    for k in range(_COST_MEMO_MAX + 4)]
        want = [TransferBatch.from_transfers(mixed_transfers())
                .cost_column(m, group)[0].tolist() for m in machines]
        wrong = []

        def reader(offset):
            for i in range(400):
                k = (i + offset) % len(machines)
                if batch.cost_column(machines[k], group)[0].tolist() != want[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=reader, args=(3 * j,))
                   for j in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(batch._costs) <= _COST_MEMO_MAX
