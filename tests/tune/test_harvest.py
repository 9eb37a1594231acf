"""Harvest paths: reports, span traces and replay timelines to obs."""

from repro.observe.compare import COMPONENTS
from repro.sched.job import JobSpec
from repro.tune import (
    CalibrationStore,
    harvest_report,
    job_ops,
    observations_from_timelines,
    observations_from_tracer,
    traced_replay,
)
from repro.vm.machine import get_machine

SPEC = JobSpec(dataset="demo", hours=1, variant="sequential")


class FakeResult:
    def __init__(self, spec, ok=True, from_cache=False,
                 science_cached=False, wall_s=1.0, predicted_s=0.9):
        self.spec = spec
        self.ok = ok
        self.from_cache = from_cache
        self.science_cached = science_cached
        self.wall_s = wall_s
        self.predicted_s = predicted_s


class FakePlan:
    def __init__(self, workers=2):
        self.workers = workers


class FakeReport:
    def __init__(self, results, observed_makespan_s=2.0,
                 predicted_makespan_s=1.8, workers=2):
        self.results = results
        self.observed_makespan_s = observed_makespan_s
        self.predicted_makespan_s = predicted_makespan_s
        self.plan = FakePlan(workers)


class TestHarvestReport:
    def test_executed_job_and_makespan_observations(self):
        report = FakeReport([FakeResult(SPEC)])
        obs = harvest_report(report, timestamp="t")
        assert [o.phase for o in obs] == ["job", "makespan"]
        job, makespan = obs
        assert job.machine == "host"
        assert job.dataset == "demo"
        assert job.observed_s == 1.0
        assert job.predicted_s == 0.9
        assert job.ops == job_ops(SPEC) > 0
        assert job.hours == 1
        assert makespan.nprocs == 2  # the plan's worker count
        assert makespan.variant == "campaign"
        assert makespan.observed_s == 2.0
        assert makespan.predicted_s == 1.8

    def test_cache_hits_carry_no_signal(self):
        report = FakeReport([FakeResult(SPEC, from_cache=True)])
        assert harvest_report(report, timestamp="t") == []

    def test_science_cached_job_has_no_ops(self):
        report = FakeReport([FakeResult(SPEC, science_cached=True)])
        job = harvest_report(report, timestamp="t")[0]
        assert job.ops is None
        assert job.observed_s == 1.0

    def test_failed_jobs_skipped(self):
        report = FakeReport(
            [FakeResult(SPEC, ok=False), FakeResult(SPEC)])
        obs = harvest_report(report, timestamp="t")
        assert len([o for o in obs if o.phase == "job"]) == 1

    def test_unknown_predictions_become_none(self):
        report = FakeReport([FakeResult(SPEC, predicted_s=0.0)],
                            predicted_makespan_s=0.0)
        job, makespan = harvest_report(report, timestamp="t")
        assert job.predicted_s is None
        assert makespan.predicted_s is None

    def test_reharvest_is_idempotent_in_the_store(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        report = FakeReport([FakeResult(SPEC)])
        first = store.add_many(harvest_report(report, timestamp="t1"))
        assert first == 2
        # a later re-harvest stamps new provenance but adds nothing
        assert store.add_many(harvest_report(report, timestamp="t2")) == 0
        assert store.generation == 2


class TestHarvestTrace:
    def test_tracer_observations_cover_figure4_buckets(self, tiny_trace):
        tracer, _ = traced_replay(tiny_trace, get_machine("t3e"), 4)
        obs = observations_from_tracer(
            tracer, dataset="tiny", machine="t3e", nprocs=4,
            trace=tiny_trace, timestamp="t")
        assert obs
        assert {o.phase for o in obs} <= set(COMPONENTS)
        for o in obs:
            assert o.observed_s > 0
            assert o.predicted_s is not None and o.predicted_s > 0
            assert o.machine == "t3e" and o.nprocs == 4

    def test_perturbed_profile_changes_predictions_only(self, tiny_trace):
        tracer, _ = traced_replay(tiny_trace, get_machine("t3e"), 4)
        kw = dict(dataset="tiny", machine="t3e", nprocs=4,
                  trace=tiny_trace, timestamp="t")
        clean = observations_from_tracer(tracer, **kw)
        skewed = observations_from_tracer(
            tracer, machine_spec=get_machine("t3e").scaled(3.0, 3.0), **kw)
        assert [o.observed_s for o in clean] == [o.observed_s for o in skewed]
        assert any(c.predicted_s != s.predicted_s
                   for c, s in zip(clean, skewed))

    def test_traced_replay_is_the_public_replay(self, tiny_trace,
                                                monkeypatch):
        """One replay, two views: the spans and the timeline records are
        field for field those ``replay_data_parallel`` produces."""
        from repro.model import dataparallel
        from repro.observe.tracer import Tracer

        runtimes = []
        real = dataparallel.FxRuntime

        def capture(*args, **kwargs):
            runtimes.append(real(*args, **kwargs))
            return runtimes[-1]

        monkeypatch.setattr(dataparallel, "FxRuntime", capture)
        machine = get_machine("t3e")
        tracer, timeline = traced_replay(tiny_trace, machine, 4)
        reference = Tracer()
        dataparallel.replay_data_parallel(tiny_trace, machine, 4,
                                          tracer=reference)
        assert tracer.spans == reference.spans
        assert timeline is runtimes[0].timeline
        assert len(timeline) > 0
        assert list(timeline) == list(runtimes[1].timeline)

    def test_timeline_observations_carry_traffic_and_ops(self, tiny_trace):
        _, timeline = traced_replay(tiny_trace, get_machine("t3e"), 4)
        obs = observations_from_timelines(
            [timeline], dataset="tiny", machine="t3e", nprocs=4,
            timestamp="t")
        comm = [o for o in obs if o.phase.startswith("comm:")]
        compute = [o for o in obs if o.phase.startswith("compute:")]
        assert comm and compute
        assert set(o.phase for o in obs) == {o.phase for o in comm + compute}
        for o in comm:
            # every comm record carries traffic counts, possibly a pure
            # local copy (messages 0, bytes_copied > 0)
            assert o.messages + o.bytes_moved + o.bytes_copied > 0
            assert o.ops is None
        assert any(o.messages > 0 for o in comm)
        for o in compute:
            assert o.ops > 0
            assert o.messages is None
