"""Tests for the sequential Airshed reference driver."""

import numpy as np
import pytest

from repro.model import AirshedConfig, SequentialAirshed


class TestRun:
    def test_result_shapes(self, tiny_result, tiny_dataset):
        assert tiny_result.final_conc.shape == tiny_dataset.shape
        assert len(tiny_result.hourly_mean["O3"]) == 3

    def test_concentrations_physical(self, tiny_result):
        c = tiny_result.final_conc
        assert np.all(np.isfinite(c))
        assert np.all(c >= 0.0)
        assert c.max() < 50.0  # nothing runs away

    def test_daytime_photochemistry_builds_ozone(self, tiny_dataset):
        """Morning-to-afternoon run: domain O3 should rise."""
        cfg = AirshedConfig(dataset=tiny_dataset, hours=6, start_hour=8,
                            max_steps=3)
        res = SequentialAirshed(cfg).run()
        o3 = res.species_series("O3")
        assert o3[-1] > o3[0]

    def test_deterministic(self, tiny_config, tiny_result):
        again = SequentialAirshed(tiny_config).run()
        assert np.array_equal(again.final_conc, tiny_result.final_conc)

    def test_aerosol_accumulates(self, tiny_result):
        aero = tiny_result.species_series("AERO")
        assert aero[-1] > 0.0

    def test_surface_fields_optional(self, tiny_dataset):
        cfg = AirshedConfig(dataset=tiny_dataset, hours=1, start_hour=9,
                            max_steps=2, track_surface_fields=True)
        res = SequentialAirshed(cfg).run()
        assert len(res.hourly_surface) == 1
        assert res.hourly_surface[0].shape == (35, tiny_dataset.npoints)

    def test_species_series_unknown(self, tiny_result):
        with pytest.raises(KeyError):
            tiny_result.species_series("XENON")


class TestTrace:
    def test_trace_structure(self, tiny_trace, tiny_dataset):
        assert tiny_trace.shape == tiny_dataset.shape
        assert tiny_trace.nhours == 3
        for h in tiny_trace.hours:
            assert h.nsteps == len(h.steps)
            assert h.input_bytes > 0
            assert h.output_bytes > 0
            for s in h.steps:
                assert s.transport1_ops.shape == (tiny_dataset.layers,)
                assert s.chemistry_ops.shape == (tiny_dataset.npoints,)
                assert np.all(s.chemistry_ops > 0)
                assert s.aerosol_ops > 0

    def test_chemistry_dominates(self, tiny_trace):
        """Paper Figure 4: chemistry >> transport >> aerosol."""
        ops = tiny_trace.total_ops_by_phase()
        assert ops["chemistry"] > ops["transport"]
        assert ops["transport"] > ops["aerosol"]

    def test_chemistry_load_varies_by_point(self, tiny_trace):
        """Urban columns are stiffer and cost more substeps."""
        step = tiny_trace.hours[0].steps[0]
        assert step.chemistry_ops.max() > step.chemistry_ops.min()

    def test_comm_step_count_formula(self, tiny_trace):
        expected = sum(3 * h.nsteps + 1 for h in tiny_trace.hours) + 1
        assert tiny_trace.expected_comm_steps() == expected

    def test_runtime_step_counts_bounded(self, tiny_trace):
        for h in tiny_trace.hours:
            assert 2 <= h.nsteps <= 4


class TestConfig:
    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            AirshedConfig(dataset=tiny_dataset, hours=0)
        with pytest.raises(ValueError):
            AirshedConfig(dataset=tiny_dataset, min_steps=5, max_steps=2)
        with pytest.raises(ValueError):
            AirshedConfig(dataset=tiny_dataset, theta=2.0)
        with pytest.raises(ValueError):
            AirshedConfig(dataset=tiny_dataset, boundary_relax=-0.1)

    def test_hour_of_day_wraps(self, tiny_dataset):
        cfg = AirshedConfig(dataset=tiny_dataset, hours=30, start_hour=20)
        assert cfg.hour_of_day(0) == 20
        assert cfg.hour_of_day(5) == 1


class TestObservableShape:
    """What a sequential run shows its observers, pinned.

    The run is the shared hour loop with one member; nothing about
    that may leak into the span stream, the counters, or what
    ``observe.compare`` / ``tune.harvest`` derive from them.
    """

    @pytest.fixture(scope="class")
    def demo_run(self):
        from repro.datasets import get_dataset

        model = SequentialAirshed(
            AirshedConfig(dataset=get_dataset("demo"), hours=1))
        return model, model.run()

    def test_span_sequence(self, demo_run):
        model, result = demo_run
        step = [("transport", "compute", []), ("chemistry", "compute", []),
                ("aerosol", "compute", []), ("transport", "compute", [])]
        expected = [("hour:06", "hour", ["hour"]),
                    ("io:inputhour", "io", []), ("io:pretrans", "io", [])]
        for j in range(3):
            expected += [(f"step:{j}", "step", ["index"])] + step
        expected.append(("io:outputhour", "io", []))
        assert [(s.name, s.kind, sorted(s.attrs))
                for s in model.tracer.spans] == expected
        assert len(result.trace.hours[0].steps) == 3

    def test_no_counters_for_one_member(self, demo_run):
        model, _ = demo_run
        assert model.tracer.counters.snapshot() == {
            "counters": {}, "histograms": {}}

    def test_compare_and_harvest_outputs(self, demo_run):
        from repro.observe.compare import breakdown
        from repro.tune.harvest import observations_from_tracer

        model, result = demo_run
        # Wall-clock spans are not cluster phases: every Figure-4 bucket
        # stays empty, so the harvest yields no observation.
        assert breakdown(model.tracer) == {
            "chemistry": 0.0, "transport": 0.0, "io": 0.0,
            "communication": 0.0, "other": 0.0}
        assert observations_from_tracer(
            model.tracer, dataset="demo", machine="t3e", nprocs=4,
            trace=result.trace, timestamp="t") == []
