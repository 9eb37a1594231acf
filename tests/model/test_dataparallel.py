"""Tests for the data-parallel Airshed (live and replay)."""

import numpy as np
import pytest

from repro.model import (
    DataParallelAirshed,
    replay_data_parallel,
)
from repro.vm import CRAY_T3E, INTEL_PARAGON


class TestLiveExecution:
    @pytest.mark.parametrize("P", [1, 3, 4])
    def test_matches_sequential_reference(self, tiny_config, tiny_result, P):
        """THE correctness property: distributed == sequential."""
        par, _ = DataParallelAirshed(tiny_config, CRAY_T3E, P).run()
        assert np.allclose(
            par.final_conc, tiny_result.final_conc, rtol=1e-10, atol=1e-16
        )

    def test_live_timing_is_positive_and_decomposed(self, tiny_config):
        _, timing = DataParallelAirshed(tiny_config, CRAY_T3E, 4).run()
        assert timing.total_time > 0
        assert timing.breakdown["chemistry"] > 0
        assert timing.breakdown["transport"] > 0
        assert timing.breakdown["io"] > 0
        assert timing.breakdown["communication"] > 0
        assert timing.breakdown["other"] == 0.0

    def test_live_records_same_trace_as_sequential(self, tiny_config, tiny_trace):
        par, _ = DataParallelAirshed(tiny_config, CRAY_T3E, 4).run()
        for h_seq, h_par in zip(tiny_trace.hours, par.trace.hours):
            assert h_seq.nsteps == h_par.nsteps
            assert h_seq.input_bytes == h_par.input_bytes
            for s_seq, s_par in zip(h_seq.steps, h_par.steps):
                assert np.allclose(s_seq.chemistry_ops, s_par.chemistry_ops)
                assert np.allclose(s_seq.transport1_ops, s_par.transport1_ops)


class TestReplay:
    def test_replay_matches_live_timing(self, tiny_config):
        """Replaying the live run's own trace reproduces its timing."""
        par, live = DataParallelAirshed(tiny_config, CRAY_T3E, 4).run()
        rep = replay_data_parallel(par.trace, CRAY_T3E, 4)
        assert rep.total_time == pytest.approx(live.total_time, rel=1e-12)
        for key in ("chemistry", "transport", "io", "communication"):
            assert rep.breakdown[key] == pytest.approx(
                live.breakdown[key], rel=1e-12
            )

    def test_comm_step_count(self, tiny_trace):
        rep = replay_data_parallel(tiny_trace, CRAY_T3E, 4)
        assert rep.comm_steps == tiny_trace.expected_comm_steps()

    def test_gather_batches_are_cached_within_a_bound(self, tiny_trace,
                                                      monkeypatch):
        from repro.model import mainloop

        monkeypatch.setattr(mainloop, "_GATHER_BATCH_CACHE_MAX", 2)
        mainloop._GATHER_BATCH_CACHE.clear()
        first = [replay_data_parallel(tiny_trace, CRAY_T3E, P).total_time
                 for P in range(2, 8)]
        assert 0 < len(mainloop._GATHER_BATCH_CACHE) <= 2
        again = [replay_data_parallel(tiny_trace, CRAY_T3E, P).total_time
                 for P in range(2, 8)]
        assert again == first

    def test_single_node_communication_is_copy_only(self, tiny_trace):
        """At P=1 every redistribution degenerates to local copies (the
        paper's H term); there is no network traffic, and the copy cost
        is a small fraction of the total."""
        rep = replay_data_parallel(tiny_trace, CRAY_T3E, 1)
        assert rep.breakdown["communication"] < 0.05 * rep.total_time

    def test_speedup_with_nodes(self, tiny_trace):
        t1 = replay_data_parallel(tiny_trace, CRAY_T3E, 1).total_time
        t4 = replay_data_parallel(tiny_trace, CRAY_T3E, 4).total_time
        t16 = replay_data_parallel(tiny_trace, CRAY_T3E, 16).total_time
        assert t4 < t1
        assert t16 < t4
        assert t1 / t4 > 2.0  # decent speedup at 4 nodes

    def test_io_time_constant_with_nodes(self, tiny_trace):
        """Paper: I/O processing time stays flat as P grows."""
        io4 = replay_data_parallel(tiny_trace, CRAY_T3E, 4).breakdown["io"]
        io32 = replay_data_parallel(tiny_trace, CRAY_T3E, 32).breakdown["io"]
        assert io32 == pytest.approx(io4, rel=1e-9)

    def test_transport_stops_scaling_at_layer_count(self, tiny_trace):
        """3 layers -> transport time flat beyond P=3."""
        t3 = replay_data_parallel(tiny_trace, CRAY_T3E, 3).breakdown["transport"]
        t16 = replay_data_parallel(tiny_trace, CRAY_T3E, 16).breakdown["transport"]
        assert t16 == pytest.approx(t3, rel=1e-9)

    def test_chemistry_keeps_scaling(self, tiny_trace):
        c4 = replay_data_parallel(tiny_trace, CRAY_T3E, 4).breakdown["chemistry"]
        c16 = replay_data_parallel(tiny_trace, CRAY_T3E, 16).breakdown["chemistry"]
        assert c16 < 0.5 * c4

    def test_machine_ordering(self, tiny_trace):
        """Paper Figure 2: T3E fastest, then T3D, Paragon slowest."""
        from repro.vm import CRAY_T3D

        for P in (4, 16):
            t3e = replay_data_parallel(tiny_trace, CRAY_T3E, P).total_time
            t3d = replay_data_parallel(tiny_trace, CRAY_T3D, P).total_time
            para = replay_data_parallel(tiny_trace, INTEL_PARAGON, P).total_time
            assert t3e < t3d < para

    def test_comm_by_step_names(self, tiny_trace):
        rep = replay_data_parallel(tiny_trace, CRAY_T3E, 4)
        assert set(rep.comm_by_step) == {
            "D_Repl->D_Trans",
            "D_Trans->D_Chem",
            "D_Chem->D_Repl",
            "gather:outputhour",
        }
