"""Tests for the live (real-numerics) task-parallel driver."""

import numpy as np
import pytest

from repro.model import replay_task_parallel
from repro.model.taskparallel import TaskParallelAirshed
from repro.vm import CRAY_T3E, INTEL_PARAGON


class TestLiveTaskParallel:
    @pytest.fixture(scope="class")
    def live(self, tiny_config):
        return TaskParallelAirshed(tiny_config, INTEL_PARAGON, 8).run()

    def test_matches_sequential_numerics(self, live, tiny_result):
        """Pipelining changes timing, never the answer."""
        result, _ = live
        assert np.allclose(
            result.final_conc, tiny_result.final_conc, rtol=1e-10, atol=1e-16
        )
        for s in ("O3", "NO2", "AERO"):
            assert np.allclose(
                result.hourly_mean[s], tiny_result.hourly_mean[s]
            )

    def test_records_equivalent_trace(self, live, tiny_trace):
        result, _ = live
        assert result.trace.nhours == tiny_trace.nhours
        for h_live, h_seq in zip(result.trace.hours, tiny_trace.hours):
            assert h_live.nsteps == h_seq.nsteps
            assert h_live.input_bytes == h_seq.input_bytes

    def test_live_timing_matches_replay_of_own_trace(self, live):
        """The replay path and the live path price identically."""
        result, live_timing = live
        rep = replay_task_parallel(result.trace, INTEL_PARAGON, 8)
        assert rep.total_time == pytest.approx(live_timing.total_time, rel=1e-9)

    def test_shares_the_step_with_the_data_parallel_driver(self, live,
                                                           tiny_config):
        """Both live drivers run the one main-loop step: on equal compute
        groups (6 nodes) the bits and the recorded work are the same."""
        from repro.model import DataParallelAirshed

        result, _ = live
        dp, _ = DataParallelAirshed(tiny_config, INTEL_PARAGON, 6).run()
        assert np.array_equal(result.final_conc, dp.final_conc)
        assert result.hourly_mean == dp.hourly_mean
        assert result.trace.shape == dp.trace.shape
        for h_tp, h_dp in zip(result.trace.hours, dp.trace.hours,
                              strict=True):
            for s_tp, s_dp in zip(h_tp.steps, h_dp.steps, strict=True):
                for field in ("transport1_ops", "chemistry_ops",
                              "aerosol_ops", "transport2_ops"):
                    assert np.array_equal(getattr(s_tp, field),
                                          getattr(s_dp, field)), field
            h_tp, h_dp = vars(h_tp).copy(), vars(h_dp).copy()
            del h_tp["steps"], h_dp["steps"]
            assert h_tp == h_dp

    def test_live_spans_are_the_replay_spans(self, tiny_config):
        """Live and replay are the same stage bodies under the same
        mapping: replaying a live run's own trace emits the same span
        sequence at the same simulated times."""
        from repro.observe.tracer import Tracer

        def stream(tracer):
            return [(s.name, s.kind, s.node, s.start, s.end)
                    for s in tracer.spans]

        live_tracer, replay_tracer = Tracer(), Tracer()
        result, _ = TaskParallelAirshed(
            tiny_config, INTEL_PARAGON, 8, tracer=live_tracer).run()
        replay_task_parallel(result.trace, INTEL_PARAGON, 8,
                             tracer=replay_tracer)
        assert stream(live_tracer) == stream(replay_tracer)

    def test_pipeline_beats_pure_data_parallel_at_scale(self, tiny_config):
        from repro.model import DataParallelAirshed

        _, dp = DataParallelAirshed(tiny_config, INTEL_PARAGON, 24).run()
        _, tp = TaskParallelAirshed(tiny_config, INTEL_PARAGON, 24).run()
        assert tp.total_time < dp.total_time

    def test_validation(self, tiny_config):
        with pytest.raises(ValueError):
            TaskParallelAirshed(tiny_config, CRAY_T3E, 2)
        with pytest.raises(ValueError):
            TaskParallelAirshed(tiny_config, CRAY_T3E, 8, io_nodes=0)
