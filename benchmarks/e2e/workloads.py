"""Pure seeded workload generator: seed -> campaigns, tenants, schedule.

Nothing here touches a clock, a socket or the disk.  A workload is a
sequence of identically shaped *rounds*; each round runs on a fresh
daemon and is a pure function of ``(workload, seed, round index,
scale)``.  The daemon only ever sees the generated
:class:`~repro.sched.job.JobSpec` lists.

:func:`self_test` (run by ``test_smoke.py``) pins the generator.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sched.job import JobSpec
from repro.sched.sweeps import ensemble_sweep, machine_grid, scaling_ladder

__all__ = [
    "FULL", "SMOKE", "WORKLOADS", "Campaign", "Round", "Scale",
    "make_round", "replay_campaigns", "science_specs", "self_test",
]

#: name -> the one-line reason it exists (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "cold_science": (
        "two tenants race cold LA ladders while a third asks for a cached "
        "job: model, chemistry and transport do the work, the service "
        "almost none"
    ),
    "cold_ensemble": (
        "one cold LA emission ensemble with fusion on: the only path "
        "through model.batched, and it must not move with cold_science"
    ),
    "replay_sweep": (
        "distinct replay configs on one warm science key: fx/vm replay, "
        "planner and a job-cache write per job, chemistry does nothing"
    ),
    "warm_hits": (
        "two tenants resubmit a fully cached campaign back to back: "
        "cache reads, journal, queue and HTTP with zero numerics"
    ),
    "open_mixed": (
        "open-loop arrivals at 10/s then 30/s, 80% cached and 20% novel "
        "replays: the only workload with a queue"
    ),
}

MACHINES = ("t3e", "t3d", "paragon")
#: The already-cached job of ``cold_science`` and every round's warm-up.
PROBE = JobSpec(dataset="demo", hours=1, start_hour=18, machine="t3e",
                nprocs=8, tag="probe")
OPEN_RATES = ((10, "r10"), (30, "r30"))
NOVEL_SHARE = 0.2


@dataclass(frozen=True)
class Scale:
    """Round sizes.  Shapes are fixed; only these counts scale."""

    dataset: str             # the "big" dataset of the cold/replay rounds
    ensemble_members: int
    replay_jobs: int         # jobs per replay_sweep campaign
    replay_campaigns: int    # replay_sweep campaigns per round
    warm_resubmits: int      # warm_hits resubmissions per tenant per round
    open_phase_s: float      # open_mixed seconds at each rate per round
    probe_delay_s: float     # cold_science probe arrival


# Sized on a 2-core host so one round measures 3-9 s (ISSUE.md shapes,
# counts scaled down to fit the driver's 30 s-per-run budget).
FULL = Scale(dataset="la", ensemble_members=4, replay_jobs=48,
             replay_campaigns=4, warm_resubmits=8, open_phase_s=3.5,
             probe_delay_s=1.0)
SMOKE = Scale(dataset="demo", ensemble_members=2, replay_jobs=6,
              replay_campaigns=1, warm_resubmits=2, open_phase_s=0.5,
              probe_delay_s=0.1)


@dataclass(frozen=True)
class Campaign:
    """One submission.  ``due_s`` (offset from the round start) only
    matters in a schedule; ``phase`` groups latencies in the report."""

    tenant: str
    specs: Tuple[JobSpec, ...]
    due_s: float = 0.0
    phase: str = ""

    @property
    def keys(self) -> List[str]:
        """Unique job keys, submission order (the daemon dedupes too)."""
        return list(dict.fromkeys(s.key for s in self.specs))


@dataclass(frozen=True)
class Round:
    """Set-up campaigns, then either closed-loop clients (each submits
    its next campaign when the previous one is terminal) or a timed
    schedule (submitted at ``due_s`` whatever the daemon is doing)."""

    prefill: Tuple[Campaign, ...]
    clients: Tuple[Tuple[Campaign, ...], ...] = ()
    schedule: Tuple[Campaign, ...] = ()

    @property
    def measured(self) -> List[Campaign]:
        return [c for client in self.clients for c in client] + list(
            self.schedule)


def _warm_pool() -> Tuple[JobSpec, ...]:
    return tuple(machine_grid("demo", machines=MACHINES,
                              node_counts=(1, 4, 8, 16, 32, 64), hours=1))


def _replay_spec(dataset: str, hours: int, machine: str, p: int) -> JobSpec:
    return JobSpec(dataset=dataset, hours=hours, variant="data",
                   machine=machine, nprocs=p, tag=f"{dataset}:{machine}/{p}")


def replay_campaigns(seed: int, scale: Scale) -> List[Campaign]:
    """The 8 ``replay_sweep`` campaigns: {t3e, t3d, paragon} x P in
    [1, 128], every config drawn exactly once.

    The draw is stratified — campaign k takes the k-th element of a
    seeded permutation of each (machine, 8 consecutive P) cell — so every
    campaign holds one job per cell and costs the same whatever the
    seed; replay cost grows with P.
    """
    rng = random.Random(f"replay_sweep/{seed}")
    cells = []
    for machine in MACHINES:
        for lo in range(1, 129, 8):
            cell = [(machine, p) for p in range(lo, lo + 8)]
            rng.shuffle(cell)
            cells.append(cell)
    campaigns = []
    for k in range(8):
        configs = [cell[k] for cell in cells]
        rng.shuffle(configs)
        campaigns.append(Campaign(
            tenant="ab"[k % 2],
            specs=tuple(_replay_spec(scale.dataset, 2, m, p)
                        for m, p in configs[:scale.replay_jobs]),
        ))
    return campaigns


def _cold_science(scale: Scale) -> Round:
    # Tenant b arrives 50 ms behind a.  Submitted together, whether b's
    # first job joins a's in wave 1 (two sciences side by side) or waits
    # for wave 2 (one after the other) is decided by a ~4 ms race with
    # the scheduler loop; the gap pins the second, usual outcome.
    ladders = [
        Campaign(tenant=tenant, due_s=due_s, specs=tuple(scaling_ladder(
            scale.dataset, hours=1, node_counts=(1, 8, 64),
            start_hour=start)))
        for tenant, start, due_s in (("a", 6, 0.0), ("b", 12, 0.05))
    ]
    probe = Campaign("probe", (PROBE,), due_s=scale.probe_delay_s,
                     phase="probe")
    return Round(prefill=(Campaign("probe", (PROBE,)),),
                 schedule=(*ladders, probe))


def _cold_ensemble(scale: Scale) -> Round:
    members = ensemble_sweep(scale.dataset, hours=1,
                             members=scale.ensemble_members)
    return Round(prefill=(Campaign("probe", (PROBE,)),),
                 schedule=(Campaign("a", tuple(members)),))


def _replay_sweep(seed: int, index: int, scale: Scale) -> Round:
    campaigns = replay_campaigns(seed, scale)
    n = scale.replay_campaigns
    mine = [campaigns[(index * n + i) % len(campaigns)] for i in range(n)]
    # A sequential job warms the science entry without claiming any of
    # the replay keys the round is about to miss on.
    warm = JobSpec(dataset=scale.dataset, hours=2, variant="sequential",
                   tag=f"{scale.dataset}:science")
    return Round(
        prefill=(Campaign("probe", (PROBE,)), Campaign("a", (warm,))),
        clients=(tuple(mine),),
    )


def _warm_hits(seed: int, index: int, scale: Scale) -> Round:
    pool = _warm_pool()
    rng = random.Random(f"warm_hits/{seed}/{index}")

    def resubmissions(tenant: str) -> Tuple[Campaign, ...]:
        out = []
        for _ in range(scale.warm_resubmits):
            order = list(pool)
            rng.shuffle(order)
            out.append(Campaign(tenant, tuple(order)))
        return tuple(out)

    return Round(prefill=(Campaign("a", pool),),
                 clients=(resubmissions("a"), resubmissions("b")))


def _open_mixed(seed: int, index: int, scale: Scale) -> Round:
    pool = _warm_pool()
    rng = random.Random(f"open_mixed/{seed}/{index}")
    warm_keys = {s.key for s in pool}
    novel = [
        s for s in (_replay_spec("demo", 1, m, p)
                    for m in MACHINES for p in range(1, 129))
        if s.key not in warm_keys
    ]
    rng.shuffle(novel)
    # A campaign is drawn whole from the warm pool or whole from the
    # novel configs.  Within each phase the sizes and the novel share
    # are exact and balanced against each other (every fifth campaign is
    # novel, sizes cycle 1-2-3); only their order is drawn, so every
    # seed offers every phase the same work and the latency median
    # stays inside the dense, all-cached mode of the distribution.
    every = round(1 / NOVEL_SHARE)
    schedule, base = [], 0.0
    for rate, phase in OPEN_RATES:
        n = round(rate * scale.open_phase_s)
        kinds = [(1 + i % 3, i % every == 0) for i in range(n)]
        rng.shuffle(kinds)
        for i, (size, is_novel) in enumerate(kinds):
            specs = ([novel.pop() for _ in range(size)] if is_novel
                     else rng.sample(pool, size))
            schedule.append(Campaign("ab"[len(schedule) % 2], tuple(specs),
                                     due_s=base + i / rate, phase=phase))
        base += scale.open_phase_s
    return Round(prefill=(Campaign("a", pool),), schedule=tuple(schedule))


def make_round(workload: str, seed: int, index: int,
               scale: Scale = FULL) -> Round:
    """Round ``index`` of ``workload``.  The cold workloads ignore the
    seed: their scenarios are fixed so their hashes can be pinned."""
    if workload == "cold_science":
        return _cold_science(scale)
    if workload == "cold_ensemble":
        return _cold_ensemble(scale)
    if workload == "replay_sweep":
        return _replay_sweep(seed, index, scale)
    if workload == "warm_hits":
        return _warm_hits(seed, index, scale)
    if workload == "open_mixed":
        return _open_mixed(seed, index, scale)
    raise KeyError(f"unknown workload {workload!r}; "
                   f"choose from {sorted(WORKLOADS)}")


def science_specs(scale: Scale) -> List[JobSpec]:
    """One spec per distinct science key any workload can deliver."""
    by_key: Dict[str, JobSpec] = {}
    for name in WORKLOADS:
        rnd = make_round(name, 0, 0, scale)
        for campaign in (*rnd.prefill, *rnd.measured):
            for spec in campaign.specs:
                by_key.setdefault(spec.science_key, spec)
    return list(by_key.values())


def digest(rnd: Round) -> str:
    """Content hash of everything a round sends, in order."""
    def rows(campaigns):
        return [[c.tenant, c.due_s, c.phase, [s.to_dict() for s in c.specs]]
                for c in campaigns]
    payload = [rows(rnd.prefill), [rows(c) for c in rnd.clients],
               rows(rnd.schedule)]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: ``digest(make_round("open_mixed", 0, 0))``: one seed, one schedule.
OPEN_MIXED_SEED0_SHA256 = (
    "ed328b1a7dee19b90051a913943028faf39049161497323317eef916815e4e7c"
)


def self_test() -> None:
    """One seed gives one schedule; the replay keys are what they claim."""
    for name in WORKLOADS:
        for scale in (FULL, SMOKE):
            assert digest(make_round(name, 3, 1, scale)) == digest(
                make_round(name, 3, 1, scale)), name
    for name in ("replay_sweep", "warm_hits", "open_mixed"):
        assert digest(make_round(name, 0, 0)) != digest(
            make_round(name, 1, 0)), f"{name} ignores its seed"
        assert digest(make_round(name, 0, 0)) != digest(
            make_round(name, 0, 1)), f"{name} repeats its rounds"
    assert digest(make_round("open_mixed", 0, 0)) == OPEN_MIXED_SEED0_SHA256

    specs = [s for c in replay_campaigns(0, FULL) for s in c.specs]
    assert len(specs) == 384
    assert len({s.key for s in specs}) == 384
    assert len({s.science_key for s in specs}) == 1
    rnd = make_round("replay_sweep", 0, 0)
    assert rnd.prefill[-1].specs[0].science_key == specs[0].science_key
    assert rnd.prefill[-1].specs[0].key not in {s.key for s in specs}

    rnd = make_round("open_mixed", 0, 0)
    assert [c.phase for c in rnd.schedule].count("r10") == 35
    assert [c.phase for c in rnd.schedule].count("r30") == 105
    dues = [c.due_s for c in rnd.schedule]
    assert dues == sorted(dues)
    warm = {s.key for s in _warm_pool()}
    jobs = [s for c in rnd.schedule for s in c.specs]
    novel = [s for s in jobs if s.key not in warm]
    assert len({s.key for s in novel}) == len(novel), "a novel job repeats"
    assert 0.19 < len(novel) / len(jobs) < 0.21
    mixed = [c for c in rnd.schedule
             if len({s.key in warm for s in c.specs}) > 1]
    assert not mixed, "a campaign mixes cached and novel jobs"
