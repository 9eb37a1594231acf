"""Per-layer numbers from timed calls into each layer's public functions.

Every function returns ``{metric name: list of samples}`` (or a single
exact value); ``run.py`` reduces samples to medians.  The service
layers are cheap and measured on every traced run; the model layers
run real numerics and are measured only where the workload does.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Sequence

from repro.analyze import paper_configuration, run_crosscheck
from repro.datasets.registry import get_dataset
from repro.fx import redistribute
from repro.fx.distribution import Distribution
from repro.model import (
    AirshedConfig,
    PerturbedDataset,
    SequentialAirshed,
    run_batched,
)
from repro.model.dataparallel import replay_data_parallel
from repro.sched.cache import ShardedResultCache
from repro.sched.costmodel import CampaignCostModel
from repro.sched.job import JobSpec
from repro.sched.planner import LPTPlanner
from repro.sched.runner import CampaignRunner
from repro.service.jobstore import JournalJobStore, ServiceState
from repro.service.queue import FairShareQueue, QueueItem
from repro.vm.cluster import Cluster
from repro.vm.machine import get_machine

from benchmarks.e2e.harness import WORKERS, fresh_root

__all__ = ["model_layers", "batched_layers", "service_layers",
           "store_layers"]

Samples = Dict[str, Any]
LA_SHAPE = (35, 5, 700)
NPROCS = 64


def _timed(fn: Callable[[], Any], reps: int, scale: float = 1e3
           ) -> List[float]:
    """``reps`` wall times of ``fn()``, in ms unless ``scale`` says so."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * scale)
    return out


# ---------------------------------------------------------------------------
# service layers: jobstore, queue, planner, cost model, fx, vm
# ---------------------------------------------------------------------------
def service_layers(replay_specs: Sequence[JobSpec]) -> Samples:
    """``replay_specs`` is one 48-job ``replay_sweep`` campaign."""
    out: Samples = {}

    root = fresh_root()
    try:
        store = JournalJobStore(root)
        event = {"type": "job", "cid": "c000001", "key": "0" * 64,
                 "row": {"status": "ok", "sha256": "0" * 64}}
        out["jobstore.append_ms_p50"] = _timed(
            lambda: store.append(event), 200)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    queue = FairShareQueue()
    items = [QueueItem(tenant="ab"[i % 2], cid="c", spec=None)
             for i in range(1000)]

    def push_pop() -> None:
        for item in items:
            queue.push(item)
        while queue.pop() is not None:
            pass

    out["queue.push_pop_us_p50"] = [
        t / len(items) for t in _timed(push_pop, 9, scale=1e6)]

    model = CampaignCostModel()
    out["planner.plan_ms_48jobs"] = _timed(
        lambda: LPTPlanner().plan(replay_specs, workers=WORKERS,
                                  cost_model=model, fuse_ensembles=True), 9)
    out["costmodel.predict_ms_p50"] = [
        t for spec in replay_specs
        for t in _timed(lambda: model.predict(spec), 1)]

    # A plan is memoized per (layouts, itemsize): a fresh itemsize each
    # repetition keeps every call cold without reaching into the cache.
    chem = Distribution.block(3, 2).layout(LA_SHAPE, NPROCS)
    repl = Distribution.replicated(3).layout(LA_SHAPE, NPROCS)
    itemsizes = iter(range(1 << 20, (1 << 20) + 64))
    out["fx.plan_redistribution_cold_ms"] = _timed(
        lambda: redistribute.plan_redistribution(chem, repl,
                                                 next(itemsizes)), 9)
    batch = redistribute.plan_redistribution(chem, repl, 8).batch
    group = Cluster(get_machine("t3e"), NPROCS).subgroup(range(NPROCS))
    out["vm.charge_comm_ms"] = _timed(
        lambda: group.charge_communication("D_Chem->D_Repl", batch), 50)

    _, info = run_crosscheck(paper_configuration())
    out["replay.comm_steps"] = info["executed_comm_steps"]
    return out


# ---------------------------------------------------------------------------
# the traced round's own cache and journal, after the round
# ---------------------------------------------------------------------------
def store_layers(cache: ShardedResultCache, journal: JournalJobStore,
                 delivered: Sequence[JobSpec]) -> Samples:
    """Runner, replay and journal costs on what the round left behind."""
    out: Samples = {}
    out["jobstore.fold_ms"] = _timed(
        lambda: ServiceState.fold(journal.events()), 5)

    hits = list(delivered[:18])
    # P > 128 is outside every generator's range: always a job miss on
    # a science entry the round has already stored.
    novel = [replace(hits[0], variant="data", machine="t3e",
                     nprocs=129 + i, tag="") for i in range(6)]

    def per_job(specs: Sequence[JobSpec]) -> float:
        runner = CampaignRunner(cache, workers=WORKERS)
        t0 = time.perf_counter()
        report = runner.run(specs)
        assert report.complete, report.render()
        return (time.perf_counter() - t0) * 1e3 / len(specs)

    out["runner.replay_job_ms_p50"] = [per_job([s]) for s in novel]
    out["runner.hit_job_ms_p50"] = [per_job(hits) for _ in range(5)]

    science_key = hits[0].science_key
    out["cache.science_entry_bytes"] = (
        cache.science_path(science_key).stat().st_size)
    out["cache.stats_ms"] = _timed(cache.stats, 5)
    trace = cache.get_science(science_key).trace
    out["replay.data_ms_p50"] = _timed(
        lambda: replay_data_parallel(trace, get_machine("t3e"), NPROCS), 5)
    return out


# ---------------------------------------------------------------------------
# model layers (real numerics)
# ---------------------------------------------------------------------------
def _config(spec: JobSpec) -> AirshedConfig:
    dataset = get_dataset(spec.dataset)
    if spec.perturb_seed is not None:
        dataset = PerturbedDataset(dataset, member_seed=spec.perturb_seed,
                                   sigma=spec.perturb_sigma)
    return AirshedConfig(dataset=dataset, hours=spec.hours,
                         start_hour=spec.start_hour)


def model_layers(spec: JobSpec) -> Samples:
    """One sequential run of ``spec`` split by the driver's own spans."""
    cfg = _config(spec)
    model = SequentialAirshed(cfg)
    t0 = time.perf_counter()
    result = model.run()
    wall = time.perf_counter() - t0

    by_name: Dict[str, List[float]] = {}
    for span in model.tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
    hours = [d for name, ds in by_name.items() if name.startswith("hour:")
             for d in ds]
    phases = ("io:inputhour", "io:pretrans", "io:outputhour", "transport",
              "chemistry", "aerosol")
    total = sum(hours)
    layers = cfg.dataset.layers
    steps = [s for h in result.trace.hours for s in h.steps]
    return {
        "model.hour_s": hours,
        "model.driver_self_s": wall - sum(
            sum(by_name.get(p, ())) for p in phases),
        "chemistry.step_ms_p50": [d * 1e3 for d in by_name["chemistry"]],
        "chemistry.ops_per_step": sum(
            float(s.chemistry_ops.sum()) for s in steps) / len(steps),
        # Computed from array sizes, not measured: one read and one
        # write of the concentration array per chemistry step.
        "chemistry.computed_bytes_per_step": 2 * result.final_conc.nbytes,
        "chemistry.share_of_hour": sum(by_name["chemistry"]) / total,
        "transport.layer_ms_p50": [
            d * 1e3 / layers for d in by_name["transport"]],
        "transport.pretrans_ms_p50": [
            d * 1e3 for d in by_name["io:pretrans"]],
        "transport.share_of_hour": (
            sum(by_name["transport"]) + sum(by_name["io:pretrans"])) / total,
        "io.inputhour_ms_p50": [d * 1e3 for d in by_name["io:inputhour"]],
        "io.outputhour_ms_p50": [d * 1e3 for d in by_name["io:outputhour"]],
    }


def batched_layers(members: Sequence[JobSpec]) -> Samples:
    """One wave's worth of members, batched against independent, both
    timed here; the results must be bitwise equal."""
    configs = [_config(s) for s in members]
    t0 = time.perf_counter()
    batched = run_batched(configs)
    batched_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    alone = [SequentialAirshed(c).run() for c in configs]
    alone_s = time.perf_counter() - t0
    for b, a in zip(batched, alone):
        assert (b.final_conc == a.final_conc).all(), "batched != sequential"
    return {
        "batched.member_hour_s": batched_s / sum(s.hours for s in members),
        "batched.vs_independent_ratio": alone_s / batched_s,
    }
