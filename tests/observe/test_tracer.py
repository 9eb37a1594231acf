"""Tests for the span tracer: nesting, clocks, emission rules."""

import numpy as np
import pytest

from repro.observe import Tracer


class FakeClock:
    """A settable clock for deterministic region spans."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestSpanNesting:
    def test_regions_nest_and_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("hour:06", kind="hour") as hour:
            clock.t = 1.0
            with tracer.span("step:0", kind="step") as step:
                clock.t = 3.0
            clock.t = 4.0
        assert hour.parent_id is None
        assert step.parent_id == hour.span_id
        assert (step.start, step.end) == (1.0, 3.0)
        assert (hour.start, hour.end) == (0.0, 4.0)

    def test_emitted_spans_parent_under_open_region(self):
        tracer = Tracer(clock=FakeClock())
        outside = tracer.emit("a", "compute", 0.0, 1.0, node=0)
        with tracer.span("region") as region:
            inside = tracer.emit("b", "compute", 0.0, 1.0, node=1)
        assert outside.parent_id is None
        assert inside.parent_id == region.span_id

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        assert tracer.current_span() is None
        # The span was still closed and recorded.
        assert [s.name for s in tracer.spans] == ["outer"]

    def test_sibling_regions_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("hour") as hour:
            with tracer.span("step:0") as s0:
                pass
            with tracer.span("step:1") as s1:
                pass
        assert s0.parent_id == hour.span_id
        assert s1.parent_id == hour.span_id
        assert s0.span_id != s1.span_id

    def test_per_span_clock_override(self):
        tracer = Tracer(clock=FakeClock(100.0))
        local = FakeClock(5.0)
        with tracer.span("stage", clock=local) as span:
            local.t = 8.0
        assert (span.start, span.end) == (5.0, 8.0)


class TestEmit:
    def test_rejects_negative_duration(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.emit("x", "compute", 2.0, 1.0)

    def test_busy_defaults_to_duration(self):
        tracer = Tracer()
        span = tracer.emit("x", "comm", 1.0, 4.0, node=2)
        assert span.busy_seconds == pytest.approx(3.0)
        busy = tracer.emit("y", "comm", 1.0, 4.0, node=2, busy=0.5)
        assert busy.busy_seconds == pytest.approx(0.5)

    def test_attrs_recorded(self):
        tracer = Tracer()
        span = tracer.emit("x", "compute", 0.0, 1.0, node=0, ops=42.0)
        assert span.attrs["ops"] == 42.0

    def test_filter_and_aggregates(self):
        tracer = Tracer()
        tracer.emit("chemistry", "compute", 0.0, 2.0, node=0, busy=2.0)
        tracer.emit("chemistry", "compute", 0.0, 1.0, node=1, busy=1.0)
        tracer.emit("x", "comm", 2.0, 3.0, node=0, busy=0.25)
        assert len(tracer.filter(name="chemistry")) == 2
        assert len(tracer.filter(kind="comm")) == 1
        assert len(tracer.filter(node=1)) == 1
        by_node = tracer.busy_by_node()
        assert by_node[0]["compute"] == pytest.approx(2.0)
        assert by_node[0]["comm"] == pytest.approx(0.25)
        assert by_node[1] == {"compute": pytest.approx(1.0)}
        assert tracer.total_time() == pytest.approx(3.0)


class TestEmitMany:
    def test_equals_one_emit_per_node(self):
        many, single = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        for tracer in (many, single):
            tracer.emit("before", "io", 0.0, 1.0, node=0, busy=1.0, nbytes=8.0)
        with many.span("hour") as a, single.span("hour") as b:
            many.emit_many("chem", "compute", np.array([0.0, 1.0]),
                           [2.0, 3.0], (4, 7), busys=(2.0, 2.0),
                           ops=np.array([5.0, 6.0]))
            many.emit_many("x", "comm", 3, 4.5, (4, 7), busys=[0.5, 1.5])
            many.emit_many("io:in", "io", 4.5, 5.0, (7,), busys=0.5,
                           nbytes=64.0)
            for node, start, end, ops in ((4, 0.0, 2.0, 5.0),
                                          (7, 1.0, 3.0, 6.0)):
                single.emit("chem", "compute", start, end, node=node,
                            busy=2.0, ops=ops)
            single.emit("x", "comm", 3, 4.5, node=4, busy=0.5)
            single.emit("x", "comm", 3, 4.5, node=7, busy=1.5)
            single.emit("io:in", "io", 4.5, 5.0, node=7, busy=0.5,
                        nbytes=64.0)
        assert a == b
        assert many.spans == single.spans
        assert [s.span_id for s in many.spans] == list(range(1, 8))
        for s in many.spans[2:]:
            assert s.parent_id == a.span_id
            assert (type(s.start), type(s.end), type(s.busy)) == (float,) * 3

    @pytest.mark.parametrize("starts, ends", [
        ([0.0, 0.0, 5.0], [1.0, 1.0, 4.0]),
        (np.array([0.0, 0.0, 5.0]), np.array([1.0, 1.0, 4.0])),
        ((0.0, 0.0, 5.0), 4.5),
        (5.0, [6.0, 6.0, 4.0]),
        (5.0, 4.0),
    ], ids=["lists", "arrays", "scalar end", "scalar start", "scalars"])
    def test_all_or_nothing(self, starts, ends):
        """A bad column records nothing and consumes no span id (the
        per-node loop used to keep nodes 0 and 1 and reuse their ids)."""
        tracer = Tracer(clock=FakeClock())
        first = tracer.emit("a", "compute", 0.0, 1.0, node=0)
        with pytest.raises(ValueError, match="end 4.* before start 5"):
            tracer.emit_many("x", "compute", starts, ends, [0, 1, 2],
                             busys=[0.0, 0.0, 0.0])
        nxt = tracer.emit("b", "compute", 0.0, 1.0, node=0)
        assert tracer.spans == [first, nxt]
        assert [s.span_id for s in tracer.spans] == [1, 2]

    @pytest.mark.parametrize("column", ["starts", "ends", "busys", "ops"])
    def test_a_short_column_is_refused_at_emission(self, column):
        columns = dict(starts=[0.0, 0.0], ends=[1.0, 1.0],
                       busys=[1.0, 1.0], ops=[1.0, 1.0])
        columns[column] = [1.0]
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError, match=f"{column} has 1 entries"):
            tracer.emit_many("x", "compute", nodes=(0, 1), **columns)
        assert tracer.spans == [] and len(tracer) == 0

    def test_blocks_become_spans_once_in_emission_order(self):
        tracer = Tracer(clock=FakeClock())
        tracer.emit_many("a", "compute", 0.0, 1.0, (0, 1), busys=[1.0, 1.0])
        with tracer.span("region") as region:
            tracer.emit_many("b", "comm", 1.0, 2.0, (0, 1), busys=[0.5, 0.5])
            lone = tracer.emit("c", "io", 2.0, 3.0, node=1)
        spans = tracer.spans
        assert [s.name for s in spans] == ["a", "a", "region", "b", "b", "c"]
        assert spans[2] is region and spans[5] is lone
        assert [s.span_id for s in spans] == [1, 2, 3, 4, 5, 6]
        tracer.emit_many("d", "compute", 3.0, 4.0, (0,), busys=[1.0])
        again = tracer.spans
        assert again is spans and len(again) == 7
        assert all(s is t for s, t in zip(spans[:6], again))
        assert tracer.total_time() == 4.0 and len(tracer.node_spans()) == 6


class TestPhaseAccounting:
    def test_phase_totals_accumulate(self):
        tracer = Tracer()
        tracer.observe_phase("chemistry", "compute", 2.0)
        tracer.observe_phase("chemistry", "compute", 3.0)
        tracer.observe_phase("D_Chem->D_Repl", "comm", 1.0)
        assert tracer.time_by_phase() == {
            "chemistry": pytest.approx(5.0),
            "D_Chem->D_Repl": pytest.approx(1.0),
        }
        assert tracer.time_by_kind() == {
            "compute": pytest.approx(5.0),
            "comm": pytest.approx(1.0),
        }
        assert tracer.phase_counts[("compute", "chemistry")] == 2

    def test_wall_clock_default(self):
        tracer = Tracer()
        with tracer.span("real"):
            pass
        (span,) = tracer.spans
        assert span.end >= span.start >= 0.0
