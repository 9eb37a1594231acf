"""Tests for the foreign-module coupling interface and GEMS runs."""

import numpy as np
import pytest

from repro.foreign import ForeignModuleBinding, Scenario, run_integrated
from repro.vm import Cluster, INTEL_PARAGON, MachineSpec

TOY = MachineSpec("toy", latency=1e-4, gap=1e-8, copy_cost=5e-9,
                  seconds_per_op=1e-8, io_seconds_per_byte=1e-7)


def make_binding(scenario, n_native=4, n_foreign=2):
    cluster = Cluster(TOY, n_native + n_foreign)
    native = cluster.subgroup(range(n_native))
    foreign = cluster.subgroup(range(n_native, n_native + n_foreign))
    return ForeignModuleBinding(native, foreign, scenario=scenario), cluster


class TestBinding:
    def test_disjoint_groups_required(self):
        cluster = Cluster(TOY, 4)
        a = cluster.subgroup([0, 1, 2])
        b = cluster.subgroup([2, 3])
        with pytest.raises(ValueError):
            ForeignModuleBinding(a, b)

    def test_same_cluster_required(self):
        c1, c2 = Cluster(TOY, 2), Cluster(TOY, 2)
        with pytest.raises(ValueError):
            ForeignModuleBinding(c1.subgroup([0]), c2.subgroup([1]))

    def test_transfer_delivers_payload(self):
        binding, _ = make_binding(Scenario.A)
        data = np.arange(64.0)
        out = binding.transfer_to_foreign(data)
        assert np.array_equal(out, data)
        assert out is not data

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_transfer_charges_phase(self, scenario):
        binding, cluster = make_binding(scenario)
        binding.transfer_to_foreign(np.zeros(1000))
        recs = cluster.timeline.records(name=f"foreign:{scenario.name}")
        assert len(recs) == 1
        assert recs[0].duration > 0

    def test_scenario_cost_ordering(self):
        """Figure 11: A (relay) >= B (direct) >= C (variable-to-variable)."""
        nbytes = 8 * 50_000
        costs = {}
        for scenario in Scenario:
            binding, _ = make_binding(scenario)
            costs[scenario] = binding.relative_cost(nbytes)
        assert costs[Scenario.A] > costs[Scenario.B] > costs[Scenario.C]

    def test_scenario_a_relay_bottleneck(self):
        """In scenario A the representative handles the whole payload."""
        binding, cluster = make_binding(Scenario.A)
        binding.transfer_to_foreign(np.zeros(10_000))
        rec = cluster.timeline.records(name="foreign:A")[0]
        rep_traffic = rec.traffic[binding.representative]
        assert rep_traffic.bytes_sent >= 80_000


class TestIntegratedRuns:
    @pytest.fixture(scope="class")
    def integrated(self, tiny_trace, tiny_dataset):
        native = run_integrated(
            tiny_trace, tiny_dataset, INTEL_PARAGON, 12, mode="native"
        )
        foreign = run_integrated(
            tiny_trace, tiny_dataset, INTEL_PARAGON, 12, mode="foreign"
        )
        return native, foreign

    def test_exposures_identical(self, integrated):
        native, foreign = integrated
        assert np.allclose(native.exposure, foreign.exposure)
        assert native.exposure.sum() >= 0

    def test_foreign_overhead_small_and_positive(self, integrated):
        """Figure 13: foreign module costs a small fixed extra."""
        native, foreign = integrated
        assert foreign.total_time > native.total_time
        overhead = (foreign.total_time - native.total_time) / native.total_time
        assert overhead < 0.30

    def test_needs_enough_nodes(self, tiny_trace, tiny_dataset):
        with pytest.raises(ValueError):
            run_integrated(tiny_trace, tiny_dataset, INTEL_PARAGON, 3)

    def test_unknown_mode(self, tiny_trace, tiny_dataset):
        with pytest.raises(ValueError):
            run_integrated(
                tiny_trace, tiny_dataset, INTEL_PARAGON, 12, mode="weird"
            )

    def test_popexp_overhead_vs_plain_taskparallel(self, tiny_trace, tiny_dataset):
        """Adding PopExp costs something but pipelining hides most."""
        from repro.model import replay_task_parallel

        base = replay_task_parallel(tiny_trace, INTEL_PARAGON, 12).total_time
        withpop = run_integrated(
            tiny_trace, tiny_dataset, INTEL_PARAGON, 12, mode="native"
        ).total_time
        assert withpop >= base * 0.9


class TestIntegratedIsTheTaskParallelProgram:
    """GEMS places the task-parallel stage bodies on four subgroups."""

    #: ``run_integrated(det_trace(demo shape), demo, Paragon, 12)`` as the
    #: hand-written four-stage pipeline charged it before the stage
    #: bodies were shared: mode -> (total_time, communication, other).
    PINNED = {
        "native": (32.41008856000001, 0.9037846400000049,
                   0.014399999999998414),
        "foreign": (32.51592856000001, 0.9138646400000034,
                    0.21599999999999753),
    }
    EXPOSURE_SHA = ("b20a3d3e48f0b82b9d787a7c6556b3e9"
                    "3aa6b982736e8a431bb7f814787addb3")

    @pytest.mark.parametrize("mode", ["native", "foreign"])
    def test_stage_spans_emitted_and_timing_pinned(self, mode, monkeypatch):
        import hashlib

        from benchmarks.perf.suite import det_trace
        from repro.datasets.registry import get_dataset
        from repro.observe.tracer import Tracer

        opened = []
        original = Tracer.span

        def spy(self, name, kind="region", **kwargs):
            opened.append((name, kind, kwargs.get("item")))
            return original(self, name, kind=kind, **kwargs)

        monkeypatch.setattr(Tracer, "span", spy)
        dataset = get_dataset("demo")
        trace = det_trace(shape=dataset.shape)
        run = run_integrated(trace, dataset, INTEL_PARAGON, 12, mode=mode)

        stages = [(n, i) for n, k, i in opened if k == "stage"]
        assert stages == [
            (f"{stage}:{i}", i)
            for i in range(trace.nhours)
            for stage in ("input", "main", "output")
        ]
        total, comm, other = self.PINNED[mode]
        assert run.total_time == total
        assert run.timing.breakdown["communication"] == comm
        assert run.timing.breakdown["other"] == other
        assert run.timing.comm_steps == 43
        assert hashlib.sha256(
            run.exposure.tobytes()).hexdigest() == self.EXPOSURE_SHA
