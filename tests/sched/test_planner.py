"""Dedupe, science chaining and LPT packing."""

from dataclasses import replace
from unittest import mock

import pytest

import repro.sched.costmodel as costmodel_mod
from repro.perfmodel.predict import PerformancePredictor
from repro.sched import (
    CampaignCostModel,
    JobSpec,
    ResultCache,
    machine_grid,
    plan_campaign,
)
from repro.vm.machine import get_machine


def test_empty_campaign_plans_to_nothing():
    plan = plan_campaign([], workers=4)
    assert plan.n_jobs == 0
    assert plan.predicted_makespan == 0.0
    assert plan.chains == []


def test_dedupe_by_content_hash():
    spec = JobSpec(dataset="demo", hours=1)
    twin = JobSpec(dataset="demo", hours=1, tag="same job, different tag")
    plan = plan_campaign([spec, twin, spec], workers=2)
    assert plan.n_jobs == 1
    assert plan.n_duplicates == 2
    assert plan.duplicates == {spec.key: 2}


def test_science_chain_shares_one_worker():
    specs = machine_grid(dataset="demo", machines=("t3e", "paragon"),
                         node_counts=(4, 16), hours=1)
    assert len({s.science_key for s in specs}) == 1
    plan = plan_campaign(specs, workers=4)
    assert plan.n_jobs == 4
    assert len(plan.chains) == 1
    workers = {plan.jobs[i].worker for i in plan.chains[0]}
    assert len(workers) == 1
    # exactly the first job of the chain pays the science run
    charged = [plan.jobs[i].science_charged for i in plan.chains[0]]
    assert charged[0] and not any(charged[1:])


def test_distinct_science_keys_spread_over_workers():
    specs = [JobSpec(dataset="demo", hours=h) for h in (1, 2, 3, 4)]
    plan = plan_campaign(specs, workers=4)
    assert len(plan.chains) == 4
    assert {plan.jobs[c[0]].worker for c in plan.chains} == {0, 1, 2, 3}


def test_ensemble_members_fuse_into_one_chain():
    """Members of one ensemble co-locate so the runner can batch them."""
    specs = [JobSpec(dataset="demo", hours=1, perturb_seed=i,
                     perturb_sigma=0.3) for i in range(4)]
    plan = plan_campaign(specs, workers=4)
    assert len(plan.chains) == 1
    # first member pays full science; the rest the marginal batched rate
    chain = [plan.jobs[i] for i in plan.chains[0]]
    assert not chain[0].fused
    assert all(j.fused for j in chain[1:])
    first = chain[0].predicted_s
    assert all(0.0 < j.predicted_s < first for j in chain[1:])
    # member order inside the chain is deterministic by seed
    seeds = [j.spec.perturb_seed for j in chain]
    assert seeds == sorted(seeds)


def test_no_fuse_spreads_ensemble_members():
    specs = [JobSpec(dataset="demo", hours=1, perturb_seed=i,
                     perturb_sigma=0.3) for i in range(4)]
    plan = plan_campaign(specs, workers=4, fuse_ensembles=False)
    assert len(plan.chains) == 4
    assert {plan.jobs[c[0]].worker for c in plan.chains} == {0, 1, 2, 3}
    assert not any(j.fused for j in plan.jobs)


def test_makespan_is_max_worker_load():
    specs = [JobSpec(dataset="demo", hours=h, perturb_seed=h,
                     perturb_sigma=0.1) for h in (1, 2, 3)]
    plan = plan_campaign(specs, workers=2)
    load = {}
    for job in plan.jobs:
        load[job.worker] = load.get(job.worker, 0.0) + job.predicted_s
    assert plan.predicted_makespan == max(load.values())
    # intra-worker schedule is contiguous
    for job in plan.jobs:
        assert job.end_s > job.start_s


def test_plan_is_deterministic():
    specs = machine_grid(dataset="demo", hours=1)
    a = plan_campaign(specs, workers=3).to_dict()
    b = plan_campaign(list(reversed(specs)), workers=3).to_dict()
    assert a["predicted_makespan_s"] == b["predicted_makespan_s"]
    assert {j["key"] for j in a["jobs"]} == {j["key"] for j in b["jobs"]}


def test_cached_science_waives_its_charge(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = JobSpec(dataset="demo", hours=1)
    model = CampaignCostModel(cache=cache)
    charged = model.predict(spec, science_charged=True)
    cache.put_science(spec.science_key, {"stub": True})
    waived = model.predict(spec, science_charged=True)
    assert waived.science_s == 0.0
    assert waived.wall_s < charged.wall_s


class TestPricesAreKeyedByValue:
    """Traces and Section-4 totals are derived once per process; a model
    that differs in any pricing input must still read its own price."""

    SPEC = JobSpec(dataset="demo", hours=1, machine="t3e", nprocs=16,
                   cores_per_job=4)

    def test_calibrated_machine_profile(self):
        default = CampaignCostModel().predict(self.SPEC)
        slow = replace(get_machine("t3e"),
                       seconds_per_op=2 * get_machine("t3e").seconds_per_op)
        tuned = CampaignCostModel(machine_overrides={"t3e": slow})
        assert tuned.predict(self.SPEC).sim_s > default.sim_s
        assert tuned.predict(self.SPEC).science_s == default.science_s
        assert CampaignCostModel().predict(self.SPEC) == default

    def test_refit_host_rate(self):
        default = CampaignCostModel()
        fast = CampaignCostModel(ops_per_second=2 * default.ops_per_second)
        assert fast.science_seconds(self.SPEC) == pytest.approx(
            default.science_seconds(self.SPEC) / 2)
        assert fast.predict(self.SPEC).sim_s == default.predict(
            self.SPEC).sim_s

    def test_tile_fraction(self):
        default = CampaignCostModel().science_seconds(self.SPEC)
        serial = CampaignCostModel(tile_fraction=0.0)
        assert serial.science_seconds(self.SPEC) > default
        assert CampaignCostModel().science_seconds(self.SPEC) == default

    def test_steps_per_hour(self):
        default = CampaignCostModel().predict(self.SPEC)
        finer = CampaignCostModel(steps_per_hour=10).predict(self.SPEC)
        assert finer.science_s > default.science_s
        assert finer.replay_s > default.replay_s

    def test_a_second_model_builds_nothing(self):
        first = CampaignCostModel().predict(self.SPEC)
        with mock.patch.object(
                costmodel_mod, "estimated_trace",
                wraps=costmodel_mod.estimated_trace) as build, \
            mock.patch.object(
                PerformancePredictor, "predict_total", autospec=True,
                side_effect=PerformancePredictor.predict_total) as total:
            assert CampaignCostModel().predict(self.SPEC) == first
        assert build.call_count == total.call_count == 0


def test_predicted_for_unknown_key_raises():
    plan = plan_campaign([JobSpec(dataset="demo", hours=1)], workers=1)
    with pytest.raises(KeyError):
        plan.predicted_for("no-such-key")
