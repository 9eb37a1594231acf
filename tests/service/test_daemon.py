"""The resident campaign service: tenancy, resume, cancel, e2e."""

import json

import pytest

from repro.sched import scaling_ladder
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
