"""Exact work counts of a cached campaign (``time = count x rate``).

Everything the service derives from a content key is a pure function of
that key, so a warm daemon computes it once: these tests count the work
itself — spec digests, science unpickles and their bytes, estimated
traces, Section-4 predictions, ``final_conc`` hashes, thread pools and
``Span`` objects — and pin it.  The counts are exact and host-independent, which wall time
on a shared two-core machine is not.
"""

import hashlib
import os
import pickle
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

import repro.observe.tracer as tracer_mod
import repro.sched.cache as cache_mod
import repro.sched.costmodel as costmodel_mod
import repro.sched.job as job_mod
import repro.sched.runner as runner_mod
from repro.perfmodel.predict import PerformancePredictor
from repro.sched import JobSpec, machine_grid
from repro.service import CampaignService

MACHINES = ("t3e", "t3d", "paragon")


def demo_grid():
    """The 18-job grid ``benchmarks/e2e`` resubmits in ``warm_hits``."""
    return machine_grid("demo", machines=MACHINES,
                        node_counts=(1, 4, 8, 16, 32, 64), hours=1)


def fresh(specs):
    """What an HTTP submit builds: new instances, nothing derived yet."""
    return [JobSpec.from_dict(s.to_dict()) for s in specs]


class _CountingPickle:
    """``pickle`` as the cache module sees it, tallying science loads."""

    def __init__(self, work):
        self._work = work

    def __getattr__(self, name):
        return getattr(pickle, name)

    def load(self, fh):
        if f"{os.sep}science{os.sep}" in fh.name:
            self._work["science_decodes"] += 1
            self._work["science_bytes"] += os.fstat(fh.fileno()).st_size
        return pickle.load(fh)


@contextmanager
def counted(conc_nbytes):
    """Count the work done inside the block; yields the tally."""
    work = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_sha256 = hashlib.sha256

    def sha256(data=b"", **kwargs):
        if len(data) == conc_nbytes:
            work["conc_hashes"] += 1
        return real_sha256(data, **kwargs)

    class Pool(runner_mod.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            work["thread_pools"] += 1
            super().__init__(*args, **kwargs)

    with mock.patch.object(job_mod, "_digest",
                           counting("digests", job_mod._digest)), \
            mock.patch.object(tracer_mod, "Span",
                              counting("spans", tracer_mod.Span)), \
            mock.patch.object(cache_mod, "pickle", _CountingPickle(work)), \
            mock.patch.object(
                costmodel_mod, "estimated_trace",
                counting("trace_builds", costmodel_mod.estimated_trace)), \
            mock.patch.object(
                PerformancePredictor, "predict_total",
                counting("predictions",
                         PerformancePredictor.predict_total)), \
            mock.patch.object(hashlib, "sha256", sha256), \
            mock.patch.object(runner_mod, "ThreadPoolExecutor", Pool):
        yield work


@pytest.fixture
def warm(tmp_path):
    """A two-worker thread-executor service (the daemon's defaults) that
    has run the demo grid once; also the byte size of its ``final_conc``."""
    svc = CampaignService(tmp_path / "svc", workers=2)
    cid = svc.submit("a", demo_grid())
    svc.run_until_idle()
    assert svc.status(cid)["status"] == "done"
    science = svc.cache.get_science(demo_grid()[0].science_key)
    return svc, science.final_conc.nbytes


def decode_counters(svc):
    counters = svc.cache.stats()["counters"]
    return counters["decodes"], counters["decoded_bytes"]


def test_cached_resubmission_pays_for_identity_only(warm):
    svc, conc_nbytes = warm
    before = decode_counters(svc)
    specs = fresh(demo_grid())
    with counted(conc_nbytes) as work:
        cid = svc.submit("b", specs)
        svc.run_until_idle()
        for _ in range(10):
            status = svc.status(cid)
        rows = svc.results(cid)
    assert status["status"] == "done" and status["queued"] == 0
    assert [r["status"] for r in rows] == ["cached"] * 18
    assert work["digests"] <= 2 * len(specs)      # key + science_key, once
    assert work["science_decodes"] == 0
    assert work["science_bytes"] == 0
    assert decode_counters(svc) == before
    assert work["trace_builds"] == 0
    assert work["predictions"] == 0
    assert work["conc_hashes"] <= 1
    assert work["thread_pools"] == 0


def test_status_polls_hash_nothing(warm):
    svc, conc_nbytes = warm
    cid = svc.submit("b", fresh(demo_grid()))
    with counted(conc_nbytes) as work:
        for _ in range(10):
            svc.status(cid)
    svc.run_until_idle()
    with counted(conc_nbytes) as after:
        for _ in range(10):
            svc.status(cid)
    assert work["digests"] == after["digests"] == 0


def test_novel_replays_on_a_warm_science_key_decode_it_once(tmp_path):
    svc = CampaignService(tmp_path / "svc", workers=2)
    warmup = JobSpec(dataset="demo", hours=1, variant="sequential")
    svc.submit("a", [warmup])
    svc.run_until_idle()
    conc_nbytes = svc.cache.get_science(
        warmup.science_key).final_conc.nbytes
    # A restart: nothing decoded is carried over, the entry is on disk.
    svc = CampaignService(tmp_path / "svc", workers=2)
    specs = fresh(
        JobSpec(dataset="demo", hours=1, machine=m, nprocs=p)
        for m in MACHINES for p in range(1, 17))
    assert len({s.key for s in specs}) == 48
    assert {s.science_key for s in specs} == {warmup.science_key}
    specs = fresh(specs)
    with counted(conc_nbytes) as work:
        cid = svc.submit("b", specs)
        svc.run_until_idle()
        rows = svc.results(cid)
    assert [r["status"] for r in rows] == ["ok"] * 48
    assert all(r["science_cached"] for r in rows)
    assert len({r["sha256"] for r in rows}) == 1
    assert work["digests"] <= 2 * len(specs)
    assert work["science_decodes"] <= 1
    assert decode_counters(svc)[0] == work["science_decodes"]
    assert work["conc_hashes"] <= 1
    assert work["thread_pools"] == 0
    # A replay nobody reads builds its hour and step regions (at most
    # 12 here) and no span per node; the runner adds one span per job.
    assert 48 < work["spans"] <= 48 * 12 + 48
