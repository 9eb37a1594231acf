"""Static plan vs executed trace (FX030), and the paper's 77 steps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import (
    analyze_program,
    available_programs,
    build_program,
    crosscheck_spans,
    executed_comm_steps,
    paper_configuration,
    run_crosscheck,
    synthetic_trace,
)
from repro.analyze.crosscheck import DRIVER_VARIANTS
from repro.model import replay
from repro.observe.tracer import Span, Tracer
from repro.vm import get_machine


class TestPaperConfiguration:
    def test_predicts_77_communication_steps(self):
        """LA / T3E / 64 nodes / 4h x 6 steps: 1 + 4*(3*6) + 4 = 77."""
        plan = paper_configuration().comm_plan()
        assert len(plan) == 77

    def test_replay_matches_the_plan_exactly(self):
        diags, info = run_crosscheck(paper_configuration())
        assert diags == []
        assert info["predicted_comm_steps"] == 77
        assert info["executed_comm_steps"] == 77

    def test_step_name_composition(self):
        """Identity redistributions at step boundaries are elided, so the
        24 main-loop steps charge 3 redistributions each, plus the run's
        initial D_Repl->D_Trans and one output gather per hour."""
        names = [s.name for s in paper_configuration().comm_plan()]
        assert names.count("D_Repl->D_Trans") == 1 + 4 * 6
        assert names.count("D_Trans->D_Chem") == 4 * 6
        assert names.count("D_Chem->D_Repl") == 4 * 6
        assert names.count("gather:outputhour") == 4
        assert len(names) == 77


@pytest.mark.parametrize("driver", ["sequential", "dataparallel",
                                    "taskparallel"])
def test_shipped_drivers_crosscheck_clean(driver):
    prog = build_program(driver, dataset="demo", machine="t3e",
                         nprocs=16, hours=2, steps_per_hour=2)
    report = analyze_program(prog, crosscheck=True)
    assert not [d for d in report.diagnostics if d.code == "FX030"]
    assert report.summary["predicted_comm_steps"] == \
        report.summary["executed_comm_steps"]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 7), st.integers(1, 40)),
    hours=st.integers(1, 3),
    steps_per_hour=st.integers(1, 4),
    io_nodes=st.integers(1, 3),
    main_nodes=st.integers(1, 20),
)
def test_generated_plan_is_the_executed_plan(shape, hours, steps_per_hour,
                                             io_nodes, main_nodes):
    """For every registered program the plan generated from the model's
    tables names exactly the communication steps the replay — through
    the one ``variant -> replay`` entry point — charges, in order."""
    nprocs = main_nodes + 2 * io_nodes  # always a possible task mapping
    machine = get_machine("t3e")
    trace = synthetic_trace(shape, hours, steps_per_hour)
    assert set(available_programs()) == set(DRIVER_VARIANTS)
    for driver in available_programs():
        prog = build_program(
            driver, shape=shape, machine=machine, nprocs=nprocs,
            hours=hours, steps_per_hour=steps_per_hour, io_nodes=io_nodes,
        )
        tracer = Tracer()
        replay(DRIVER_VARIANTS[driver], trace, machine, prog.nprocs,
               io_nodes=io_nodes, tracer=tracer)
        assert [s.name for s in prog.comm_plan()] == \
            executed_comm_steps(tracer.spans), driver


class TestSpanComparison:
    def comm(self, name, start, end):
        return Span(name=name, kind="comm", start=start, end=end, node=0)

    def test_collapses_per_node_spans(self):
        spans = [
            Span(name="x", kind="comm", start=0.0, end=1.0, node=n)
            for n in range(4)
        ]
        assert executed_comm_steps(spans) == ["x"]

    def test_repeated_step_at_different_times_kept(self):
        spans = [self.comm("x", 0.0, 1.0), self.comm("x", 2.0, 3.0)]
        assert executed_comm_steps(spans) == ["x", "x"]

    def test_missing_step_is_fx030(self):
        prog = build_program("dataparallel", dataset="demo", nprocs=8,
                             hours=1, steps_per_hour=1)
        predicted = [s.name for s in prog.comm_plan()]
        spans = [self.comm(name, float(i), float(i) + 0.5)
                 for i, name in enumerate(predicted[:-1])]
        diags, info = crosscheck_spans(prog, spans)
        assert [d.code for d in diags] == ["FX030"]
        assert info["executed_comm_steps"] == len(predicted) - 1

    def test_wrong_order_is_fx030(self):
        prog = build_program("dataparallel", dataset="demo", nprocs=8,
                             hours=1, steps_per_hour=1)
        predicted = [s.name for s in prog.comm_plan()]
        swapped = [predicted[1], predicted[0], *predicted[2:]]
        spans = [self.comm(name, float(i), float(i) + 0.5)
                 for i, name in enumerate(swapped)]
        diags, _ = crosscheck_spans(prog, spans)
        assert [d.code for d in diags] == ["FX030"]
        assert diags[0].details["first_divergence"]["index"] == 0

    def test_matching_spans_are_clean(self):
        prog = build_program("dataparallel", dataset="demo", nprocs=8,
                             hours=1, steps_per_hour=1)
        spans = [self.comm(s.name, float(i), float(i) + 0.5)
                 for i, s in enumerate(prog.comm_plan())]
        diags, _ = crosscheck_spans(prog, spans)
        assert diags == []


def test_synthetic_trace_structure():
    trace = synthetic_trace((35, 4, 150), hours=2, steps_per_hour=3)
    assert trace.nhours == 2
    assert all(h.nsteps == 3 for h in trace.hours)
    assert all(len(h.steps) == 3 for h in trace.hours)
