"""CampaignRunner: caching, retries, timeouts, bitwise identity.

The mandated edge cases live here: empty campaign, dedupe by hash,
bitwise-identical cache hits, retry-then-succeed with checkpoint
resume, and timeout-then-fail with a partial summary.
"""

import numpy as np
import pytest

from repro.datasets import get_dataset, register_dataset
from repro.model import AirshedConfig, SequentialAirshed
from repro.sched import (
    CampaignRunner,
    FaultPolicy,
    JobSpec,
    ResultCache,
)

SPEC = JobSpec(dataset="tinysched", hours=2, start_hour=7,
               variant="sequential")


def make_runner(tmp_path, **kw):
    sleeps = []
    kw.setdefault("executor", "inline")
    kw.setdefault("workers", 2)
    runner = CampaignRunner(ResultCache(tmp_path / "cache"),
                            sleep=sleeps.append, **kw)
    return runner, sleeps


def reference_result():
    cfg = AirshedConfig(dataset=get_dataset("tinysched"), hours=2,
                        start_hour=7)
    return SequentialAirshed(cfg).run()


def test_empty_campaign(tmp_path):
    runner, _ = make_runner(tmp_path)
    report = runner.run([])
    assert report.complete
    assert report.results == []
    assert report.predicted_makespan_s == 0.0
    assert report.observed_makespan_s == 0.0
    assert "(empty campaign)" in report.render()


def test_duplicate_specs_run_once(tmp_path):
    runner, _ = make_runner(tmp_path)
    report = runner.run([SPEC, JobSpec(**{**SPEC.to_dict(), "tag": "twin"}),
                         SPEC])
    assert report.plan.n_duplicates == 2
    assert len(report.results) == 1
    assert report.counters["campaign:jobs"] == 1


def test_campaign_result_bitwise_identical_to_direct_run(tmp_path):
    runner, _ = make_runner(tmp_path)
    report = runner.run([SPEC])
    [res] = report.results
    assert res.status == "ok"
    direct = reference_result()
    np.testing.assert_array_equal(res.result.final_conc, direct.final_conc)
    for sp in direct.hourly_mean:
        np.testing.assert_array_equal(res.result.hourly_mean[sp],
                                      direct.hourly_mean[sp])


def test_cache_hit_rerun_does_zero_simulation(tmp_path):
    runner, _ = make_runner(tmp_path)
    first = runner.run([SPEC])
    assert first.counters["campaign:sim_hours"] == SPEC.hours

    rerun, _ = make_runner(tmp_path)
    report = rerun.run([SPEC])
    [res] = report.results
    assert res.status == "cached" and res.from_cache
    assert res.attempts == 0
    assert report.cache_hits == 1
    assert report.counters.get("campaign:sim_hours", 0) == 0
    np.testing.assert_array_equal(res.result.final_conc,
                                  first.results[0].result.final_conc)


def test_retry_after_fault_resumes_from_checkpoint(tmp_path):
    policy = FaultPolicy(keys=(SPEC.key,), mode="raise", after_hours=1)
    runner, sleeps = make_runner(tmp_path, fault_policy=policy,
                                 retries=2, backoff=0.5)
    report = runner.run([SPEC])
    [res] = report.results
    assert res.status == "ok"
    assert res.attempts == 2 and res.retries == 1
    assert res.backoffs == [0.5] and sleeps == [0.5]
    assert report.counters["campaign:faults"] == 1
    # resume, not restart: 1h before the fault + 1h after = 2h total
    # (a restart would have charged 3 simulated hours)
    assert report.counters["campaign:sim_hours"] == SPEC.hours
    np.testing.assert_array_equal(res.result.final_conc,
                                  reference_result().final_conc)


def test_hang_with_no_retry_budget_fails_with_partial_summary(tmp_path):
    hung = JobSpec(dataset="tinysched", hours=1, start_hour=7,
                   variant="sequential")
    policy = FaultPolicy(keys=(hung.key,), mode="hang", after_hours=0)
    runner, sleeps = make_runner(tmp_path, fault_policy=policy, retries=0,
                                 timeout=30.0)
    report = runner.run([SPEC, hung])
    assert not report.complete
    assert report.n_ok == 1 and report.n_failed == 1
    by_key = {r.key: r for r in report.results}
    failed = by_key[hung.key]
    assert failed.status == "timeout"
    assert failed.attempts == 1
    assert "InjectedHang" in failed.error
    assert sleeps == []  # no retry budget, no backoff charged
    assert report.counters["campaign:timeouts"] == 1
    # the surviving job still reports normally
    assert by_key[SPEC.key].status == "ok"
    assert "1 failed" in report.render()


def test_exhausted_real_failure_reports_failed(tmp_path):
    # a dataset whose builder works once (so planning can price the
    # job) and then breaks: every execution attempt fails for real
    calls = {"n": 0}

    def flaky_builder():
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("inventory service down")
        return get_dataset("tinysched")

    register_dataset("flakysched", flaky_builder)
    bad = JobSpec(dataset="flakysched", hours=1, variant="sequential")
    runner, sleeps = make_runner(tmp_path, retries=1, backoff=0.1)
    report = runner.run([bad])
    [res] = report.results
    assert res.status == "failed"
    assert res.attempts == 2
    assert "inventory service down" in res.error
    assert sleeps == [0.1]
    assert report.counters["campaign:failures"] == 2


def test_science_shared_across_replay_jobs(tmp_path):
    specs = [JobSpec(dataset="tinysched", hours=1, start_hour=7,
                     variant="data", machine=m, nprocs=8)
             for m in ("t3e", "paragon")]
    runner, _ = make_runner(tmp_path)
    report = runner.run(specs)
    assert report.n_ok == 2
    assert report.counters["campaign:sim_hours"] == 1
    assert report.counters["campaign:science_cache_hits"] == 1
    digests = {r.final_conc_sha256() for r in report.results}
    assert len(digests) == 1
    timings = [r.timing for r in report.results]
    assert all(t is not None and t.total_time > 0 for t in timings)


def test_thread_executor_matches_inline(tmp_path):
    specs = [JobSpec(dataset="tinysched", hours=1, start_hour=7,
                     variant="data", machine="t3e", nprocs=p)
             for p in (2, 8)]
    inline, _ = make_runner(tmp_path / "a", executor="inline")
    threaded, _ = make_runner(tmp_path / "b", executor="thread")
    ra, rb = inline.run(specs), threaded.run(specs)
    assert {r.key: r.final_conc_sha256() for r in ra.results} == \
        {r.key: r.final_conc_sha256() for r in rb.results}


def test_job_spans_and_makespan(tmp_path):
    runner, _ = make_runner(tmp_path)
    report = runner.run([SPEC])
    spans = [s for s in runner.tracer.spans if s.kind == "job"]
    assert len(spans) == 1
    assert report.observed_makespan_s > 0.0
    assert report.predicted_makespan_s > 0.0
    # a cached rerun still emits a span, at ~zero cost
    report2 = runner.run([SPEC])
    assert report2.observed_makespan_s >= 0.0


def test_callers_empty_tracer_is_kept(tmp_path):
    """``Tracer`` has ``__len__``: an empty one is falsy, not absent."""
    from repro.observe import Tracer

    tracer = Tracer()
    runner, _ = make_runner(tmp_path, tracer=tracer)
    assert runner.tracer is tracer
    runner.run([SPEC])
    assert [s.kind for s in tracer.spans] == ["job"]
    assert tracer.counters.value("campaign:jobs") == 1


def test_thread_executor_campaign_leaves_no_tile_threads(tmp_path):
    """Every job's tiled pool dies with its run, checkpoint chunks and
    the fused ensemble batch included."""
    from repro.sched import ensemble_sweep
    from tests.chemistry.test_tiled import tile_threads

    assert tile_threads() == set()
    specs = [JobSpec(dataset="tinysched", hours=2, start_hour=7,
                     variant="data", machine="t3e", nprocs=p,
                     cores_per_job=2) for p in (2, 8)]
    specs += [JobSpec(**{**m.to_dict(), "cores_per_job": 2})
              for m in ensemble_sweep(dataset="tinysched", members=2,
                                      hours=1)]
    runner, _ = make_runner(tmp_path, executor="thread")
    report = runner.run(specs)
    assert report.complete, report.render()
    assert report.counters["campaign:batches"] == 1
    assert tile_threads() == set()


def test_retry_backoff_excluded_from_observed_makespan(tmp_path):
    from repro.observe.compare import observed_makespan

    policy = FaultPolicy(keys=(SPEC.key,), mode="raise", after_hours=1)
    runner, _ = make_runner(tmp_path, fault_policy=policy,
                            retries=2, backoff=0.5)
    report = runner.run([SPEC])
    [span] = [s for s in runner.tracer.spans if s.kind == "job"]
    # the backoff charged to the retry is on the span, not in the makespan
    assert span.attrs["queue_wait_s"] == pytest.approx(0.5)
    raw = observed_makespan(runner.tracer.spans, kinds=("job",))
    assert report.observed_makespan_s == pytest.approx(
        max(raw - 0.5, 0.0))


def test_invalid_runner_parameters(tmp_path):
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(ValueError):
        CampaignRunner(cache, workers=0)
    with pytest.raises(ValueError):
        CampaignRunner(cache, retries=-1)
    with pytest.raises(ValueError):
        CampaignRunner(cache, backoff=-0.1)
    with pytest.raises(ValueError):
        CampaignRunner(cache, executor="gpu")


@pytest.mark.slow
def test_process_executor_kills_real_hang(tmp_path):
    spec = JobSpec(dataset="demo", hours=1, variant="sequential")
    policy = FaultPolicy(keys=(spec.key,), mode="hang", after_hours=1)
    runner, sleeps = make_runner(tmp_path, executor="process",
                                 fault_policy=policy, retries=1,
                                 backoff=0.0, timeout=15.0)
    report = runner.run([spec])
    [res] = report.results
    assert res.status == "ok"
    assert res.attempts == 2
    assert report.counters["campaign:timeouts"] == 1


def test_fused_ensemble_batches_members_and_hits_cache(tmp_path):
    from repro.sched import ensemble_sweep

    specs = ensemble_sweep(dataset="tinysched", members=4, sigma=0.3,
                           seed=2, hours=1, start_hour=7,
                           variant="sequential")
    runner, _ = make_runner(tmp_path)
    report = runner.run(specs)
    assert report.complete and report.n_ok == 4
    # one fused sweep primed the science cache for every member...
    assert report.counters["campaign:batches"] == 1
    assert report.counters["campaign:batched_members"] == 4
    assert report.counters["campaign:sim_hours"] == 4
    # ...so each member job lands on its own per-member cache entry
    assert report.counters["campaign:science_cache_hits"] == 4
    [span] = [s for s in runner.tracer.spans if s.kind == "batch"]
    assert span.attrs["members"] == 4
    # bitwise: fused members equal what an unfused campaign produces
    plain, _ = make_runner(tmp_path / "plain", fuse_ensembles=False)
    unfused = plain.run(specs)
    assert unfused.counters.get("campaign:batches", 0) == 0
    assert {r.key: r.final_conc_sha256() for r in report.results} == \
        {r.key: r.final_conc_sha256() for r in unfused.results}


def test_partially_cached_ensemble_batches_only_uncached(tmp_path):
    from repro.sched import ensemble_sweep

    specs = ensemble_sweep(dataset="tinysched", members=3, sigma=0.3,
                           seed=5, hours=1, start_hour=7,
                           variant="sequential")
    warm, _ = make_runner(tmp_path)
    warm.run([specs[0]])

    runner, _ = make_runner(tmp_path)  # same cache directory
    report = runner.run(specs)
    assert report.complete and report.n_ok == 3
    # subset batching is exact, so only the 2 uncached members fuse
    assert report.counters["campaign:batches"] == 1
    assert report.counters["campaign:batched_members"] == 2
    assert report.counters["campaign:sim_hours"] == 2
    # member 0 replays from the full result cache; the two batched
    # members land on the science entries the prefetch just wrote
    assert report.cache_hits == 1
    assert report.counters["campaign:science_cache_hits"] == 2
