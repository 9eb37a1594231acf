"""The resident campaign service: tenancy, resume, cancel, e2e."""

import json

import pytest

from repro.sched import JobSpec, scaling_ladder
from repro.service import CampaignService, JournalJobStore


class FakeClock:
    """Deterministic monotonic clock: one tick per read."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_service(root, workers=2, **kwargs):
    kwargs.setdefault("executor", "inline")
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("clock", FakeClock())
    return CampaignService(root, workers=workers, **kwargs)


def ladder(nodes=(4, 16)):
    return scaling_ladder(dataset="demo", machine="t3e",
                          node_counts=nodes, hours=1)


class TestSubmitRunStatus:
    def test_campaign_runs_to_done(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        cid = svc.submit("alice", ladder())
        assert svc.status(cid)["status"] == "queued"
        assert svc.run_until_idle() == 2
        status = svc.status(cid)
        assert status["status"] == "done"
        assert status["n_ok"] == status["n_jobs"] == 2
        rows = svc.results(cid)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert len({r["sha256"] for r in rows}) == 1  # same science

    def test_callers_empty_tracer_is_kept(self, tmp_path):
        """``Tracer`` has ``__len__``: an empty one is falsy, not absent."""
        from repro.observe import Tracer

        tracer = Tracer()
        svc = make_service(tmp_path / "svc", tracer=tracer)
        assert svc.tracer is tracer
        svc.submit("alice", ladder())
        svc.run_until_idle()
        assert tracer.counters.value("service:waves") == 1

    def test_empty_submission_rejected(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        with pytest.raises(ValueError):
            svc.submit("alice", [])

    def test_unknown_campaign_raises(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        with pytest.raises(KeyError):
            svc.status("c999999")

    def test_per_tenant_counters_and_queue_wait(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        svc.submit("alice", ladder())
        svc.run_until_idle()
        stats = svc.stats()
        c = stats["counters"]
        assert c["service:tenant:alice:submitted_jobs"] == 2
        assert c["service:tenant:alice:completed_jobs"] == 2
        assert c["service:tenant:alice:completed_campaigns"] == 1
        waits = stats["histograms"]["service:tenant:alice:queue_wait_s"]
        assert waits["count"] == 2
        assert waits["min"] >= 0.0
        assert stats["cache"]["total_entries"] > 0

    def test_cross_campaign_cache_hits(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        svc.submit("alice", ladder())
        svc.run_until_idle()
        cid = svc.submit("alice", ladder())
        svc.run_until_idle()
        rows = svc.results(cid)
        assert all(r["from_cache"] for r in rows)
        assert all(r["attempts"] == 0 for r in rows)


class TestCancel:
    def test_cancel_drops_queued_jobs(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        cid = svc.submit("alice", ladder((1, 4, 16, 64)))
        assert svc.cancel(cid) is True
        assert svc.status(cid)["status"] == "cancelled"
        assert svc.run_until_idle() == 0  # nothing left to run
        counters = svc.stats()["counters"]
        assert counters["service:tenant:alice:cancelled_jobs"] == 4

    def test_cancel_is_idempotent_and_terminal(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        cid = svc.submit("alice", ladder())
        assert svc.cancel(cid) is True
        assert svc.cancel(cid) is False
        svc.run_until_idle()
        assert svc.status(cid)["status"] == "cancelled"

    def test_cancelled_campaign_survives_restart(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        cid = svc.submit("alice", ladder())
        svc.cancel(cid)
        svc2 = make_service(tmp_path / "svc")
        assert svc2.status(cid)["status"] == "cancelled"
        assert svc2.run_until_idle() == 0


class TestCrashRecovery:
    def test_torn_journal_line_resume_no_duplicate_execution(
            self, tmp_path):
        root = tmp_path / "svc"
        svc = make_service(root, workers=2)
        cid = svc.submit("alice", ladder((1, 4, 16, 64)))
        assert svc.run_wave() == 2  # first wave only: 2 of 4 jobs

        # crash mid-append: a torn, newline-less partial job event
        store = JournalJobStore(root)
        with store.journal_path.open("a") as fh:
            fh.write('{"type": "job", "cid": "c000001", "key": "dead')

        svc2 = make_service(root, workers=2)
        status = svc2.status(cid)
        assert status["status"] == "running"
        assert status["n_done"] == 2   # wave-1 outcomes were durable
        assert status["queued"] == 2   # only the unfinished jobs re-queue
        assert svc2.run_until_idle() == 2
        assert svc2.status(cid)["status"] == "done"

        # no duplicated execution: the resumed service dispatched only
        # the two unfinished jobs, and their science was already warm
        # in the shared cache so they replayed without new numerics
        counters = svc2.stats()["counters"]
        assert counters["service:tenant:alice:completed_jobs"] == 2
        assert counters.get("campaign:sim_hours", 0) == 0
        rows = svc2.results(cid)
        assert len(rows) == 4
        assert all(r["status"] in ("ok", "cached") for r in rows)
        shas = {r["sha256"] for r in rows}
        assert len(shas) == 1  # bitwise-identical science across the crash

        # second restart: svc2's acknowledged events were written after
        # the fragment was dropped, not glued onto it, so the journal
        # still loads strict and every one of them is there
        svc3 = make_service(root, workers=2)
        assert svc3.status(cid)["status"] == "done"
        assert svc3.results(cid) == rows
        assert svc3.run_until_idle() == 0
        assert svc3.stats()["counters"].get("campaign:sim_hours", 0) == 0

    def test_compacted_state_resumes_identically(self, tmp_path):
        root = tmp_path / "svc"
        svc = make_service(root)
        cid = svc.submit("alice", ladder())
        svc.run_until_idle()
        svc.compact()
        svc2 = make_service(root)
        assert svc2.status(cid)["status"] == "done"
        assert len(svc2.results(cid)) == 2


def journal_bytes(root):
    path = JournalJobStore(root).journal_path
    return path.read_bytes() if path.exists() else b""


@pytest.fixture
def boom_dataset():
    """A registered dataset whose builder raises: it passes submit
    validation and blows up inside the wave's planner."""
    from repro.datasets.registry import DATASET_BUILDERS, register_dataset

    def builder():
        raise RuntimeError("boom: dataset cannot be built")

    register_dataset("boom", builder)
    yield "boom"
    del DATASET_BUILDERS["boom"]


class TestPoisonSubmissions:
    """One bad submit must not take the daemon down (or be journaled)."""

    @pytest.mark.parametrize("bad", [
        dict(machine="cray"),
        dict(dataset="mars"),
        dict(dataset="mars", variant="sequential"),
    ])
    def test_unregistered_names_rejected_before_the_journal(
            self, tmp_path, bad):
        root = tmp_path / "svc"
        svc = make_service(root)
        svc.submit("alice", ladder((4,)))
        before = journal_bytes(root)
        with pytest.raises(ValueError, match="unknown"):
            svc.submit("mallory", [JobSpec(hours=1, **bad)])
        assert journal_bytes(root) == before
        # no campaign id was consumed and nothing was enqueued
        assert svc.submit("alice", ladder((16,))) == "c000002"
        assert svc.run_until_idle() == 2

    def test_sequential_specs_name_no_machine(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        cid = svc.submit("alice", [JobSpec(
            dataset="demo", hours=1, variant="sequential", machine="")])
        svc.run_until_idle()
        assert svc.status(cid)["status"] == "done"

    def test_wave_exception_becomes_failed_rows(self, tmp_path,
                                                boom_dataset):
        svc = make_service(tmp_path / "svc")
        bad = svc.submit("mallory", [JobSpec(dataset=boom_dataset, hours=1)])
        good = svc.submit("alice", ladder((4,)))
        svc.run_until_idle()
        assert svc.status(bad)["status"] == "failed"
        (row,) = svc.results(bad)
        assert row["status"] == "failed"
        assert "RuntimeError: boom" in row["error"]
        # the good job shared the poisoned wave: it failed with it (and
        # says why) rather than hanging queued forever...
        assert svc.status(good)["status"] == "failed"
        # ...and the loop kept draining: the same work resubmitted runs
        again = svc.submit("alice", ladder((4,)))
        svc.run_until_idle()
        assert svc.status(again)["status"] == "done"
        counters = svc.stats()["counters"]
        assert counters["service:failed_waves"] == 1
        # failed rows are durable: a restart re-enqueues nothing
        svc2 = make_service(tmp_path / "svc")
        assert svc2.status(bad)["status"] == "failed"
        assert svc2.run_until_idle() == 0

    def test_daemon_thread_survives_a_poison_wave(self, tmp_path,
                                                  boom_dataset):
        import time

        svc = CampaignService(tmp_path / "svc", workers=1,
                              executor="inline")
        svc.start()
        thread = svc._thread
        try:
            bad = svc.submit("mallory",
                             [JobSpec(dataset=boom_dataset, hours=1)])
            good = svc.submit("alice", ladder((4,)))
            deadline = time.monotonic() + 30.0
            # fair share decides which tenant's wave goes first
            while (any(svc.status(c)["status"] not in ("done", "failed")
                       for c in (bad, good))
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert svc.status(bad)["status"] == "failed"
            assert svc.status(good)["status"] == "done"
            assert thread.is_alive()
        finally:
            svc.stop()
        assert not thread.is_alive()

    def test_journal_holding_a_poison_spec_resumes(self, tmp_path):
        """A journal written before submit validated names: the queued
        spec fails its wave, durably, and the service carries on."""
        root = tmp_path / "svc"
        poison = JobSpec(hours=1, machine="cray").to_dict()
        JournalJobStore(root).append({
            "type": "submit", "cid": "c000001", "tenant": "mallory",
            "specs": [poison], "workers": 2, "fuse": True,
        })
        svc = make_service(root)
        assert svc.status("c000001")["queued"] == 1
        good = svc.submit("alice", ladder((4,)))
        assert good == "c000002"
        svc.run_until_idle()
        assert svc.status("c000001")["status"] == "failed"
        assert "cray" in svc.results("c000001")[0]["error"]
        # workers=2 put both jobs in the one poisoned wave; the retry runs
        retry = svc.submit("alice", ladder((4,)))
        svc.run_until_idle()
        assert svc.status(retry)["status"] == "done"
        svc2 = make_service(root)
        assert svc2.run_until_idle() == 0

    def test_journal_holding_an_impossible_mapping_resumes(self, tmp_path):
        """``variant=task, nprocs=2`` was accepted (and failed after its
        retries) before specs validated their mapping; replaying such a
        journal must not stop the service from starting."""
        root = tmp_path / "svc"
        spec = dict(JobSpec(hours=1).to_dict(), variant="task", nprocs=2)
        JournalJobStore(root).append({
            "type": "submit", "cid": "c000001", "tenant": "mallory",
            "specs": [spec], "workers": 2, "fuse": True,
        })
        svc = make_service(root)
        assert svc.status("c000001")["status"] == "failed"
        assert svc.run_until_idle() == 0
        cid = svc.submit("alice", ladder((4,)))
        assert cid == "c000002"
        svc.run_until_idle()
        assert svc.status(cid)["status"] == "done"


class TestMultiTenantE2E:
    def test_overlap_resolves_from_cache_and_fair_share_interleaves(
            self, tmp_path):
        root = tmp_path / "svc"
        svc = make_service(root, workers=1)  # 1-job waves: strict order

        # tenant A's first sweep executes the shared science
        warm = svc.submit("alice", ladder((4, 16)))
        svc.run_until_idle()
        assert svc.status(warm)["status"] == "done"

        # now both tenants submit concurrently: B's sweep overlaps the
        # warm jobs, plus both bring fresh work
        cid_a = svc.submit("alice", ladder((1, 64)))
        cid_b = svc.submit("bob", ladder((4, 16, 32, 128)))
        svc.run_until_idle()
        assert svc.status(cid_a)["status"] == "done"
        assert svc.status(cid_b)["status"] == "done"

        # B's shared-science jobs resolved from the cache: zero attempts
        rows_b = {r["job"]: r for r in svc.results(cid_b)}
        for job in ("demo:t3e/P4", "demo:t3e/P16"):
            assert rows_b[job]["from_cache"] is True
            assert rows_b[job]["attempts"] == 0
        for job in ("demo:t3e/P32", "demo:t3e/P128"):
            assert rows_b[job]["from_cache"] is False
            assert rows_b[job]["status"] == "ok"

        # fair-share interleave: the journal's job-event order is the
        # dispatch order; with equal weights the tenants alternate
        # until alice's two jobs drain
        events = [
            e for e in JournalJobStore(root).events() if e["type"] == "job"
        ]
        phase2 = [e["cid"] for e in events[2:]]  # skip the warm sweep
        tenants = ["alice" if c == cid_a else "bob" for c in phase2]
        assert tenants[:4] == ["alice", "bob", "alice", "bob"]

        # every result is bitwise identical to the single-science run
        all_shas = {e["row"]["sha256"] for e in events}
        assert len(all_shas) == 1

    def test_in_wave_sharing_across_tenants(self, tmp_path):
        # the same key submitted by two tenants and dispatched in one
        # wave executes once; both campaigns get the outcome
        svc = make_service(tmp_path / "svc", workers=2)
        cid_a = svc.submit("alice", ladder((4,)))
        cid_b = svc.submit("bob", ladder((4,)))
        assert svc.run_wave() == 2  # two queue items, one unique job
        assert svc.status(cid_a)["status"] == "done"
        assert svc.status(cid_b)["status"] == "done"
        counters = svc.stats()["counters"]
        assert counters["campaign:jobs"] == 1  # executed once
        assert counters["service:tenant:alice:completed_jobs"] == 1
        assert counters["service:tenant:bob:completed_jobs"] == 1


class TestDaemonThread:
    def test_background_loop_drains_submissions(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=2,
                              executor="inline")
        svc.start()
        try:
            cid = svc.submit("alice", ladder())
            import time
            deadline = time.monotonic() + 30.0
            while (svc.status(cid)["status"] not in
                   ("done", "failed") and time.monotonic() < deadline):
                time.sleep(0.01)
            assert svc.status(cid)["status"] == "done"
        finally:
            svc.stop()
        # graceful stop compacted the journal into the snapshot
        store = JournalJobStore(tmp_path / "svc")
        assert store.journal_path.read_text() == ""
        assert json.loads(store.snapshot_path.read_text())["events"]
