"""The job journal as a ``ServiceState`` fold, and snapshot compaction.

Torn tails, interior corruption and crash recovery are the log's own
behaviour: ``tests/test_durable.py`` drills them against this store too.
"""

import json

from repro.sched import JobSpec
from repro.service import JournalJobStore, ServiceState


def _submit_event(cid="c000001", tenant="alice", hours=(1, 2)):
    return {
        "type": "submit", "cid": cid, "tenant": tenant,
        "specs": [JobSpec(dataset="demo", hours=h).to_dict()
                  for h in hours],
        "workers": 2, "fuse": True,
    }


class TestJournal:
    def test_append_then_events_roundtrip(self, tmp_path):
        store = JournalJobStore(tmp_path)
        store.append(_submit_event())
        store.append({"type": "done", "cid": "c000001", "status": "done"})
        events = list(store.events())
        assert [e["type"] for e in events] == ["submit", "done"]

    def test_compact_snapshots_and_truncates(self, tmp_path):
        store = JournalJobStore(tmp_path)
        store.append(_submit_event())
        store.append({"type": "done", "cid": "c000001", "status": "done"})
        state = ServiceState.fold(store.events())
        store.compact({"events": state.to_events()})
        assert store.journal_path.read_text() == ""
        assert json.loads(store.snapshot_path.read_text())["events"]
        refolded = ServiceState.fold(store.events())
        assert refolded.campaigns["c000001"].status == "done"

    def test_events_survive_compaction_plus_new_appends(self, tmp_path):
        store = JournalJobStore(tmp_path)
        store.append(_submit_event("c000001"))
        store.compact(
            {"events": ServiceState.fold(store.events()).to_events()}
        )
        store.append(_submit_event("c000002", tenant="bob"))
        state = ServiceState.fold(store.events())
        assert sorted(state.campaigns) == ["c000001", "c000002"]
        assert state.next_seq == 3


    def test_pair_written_before_sequence_numbers_loads_unchanged(
            self, tmp_path):
        # journal.jsonl + snapshot.json exactly as the pre-AppendLog
        # JournalJobStore wrote them: bare event objects, no "seq"
        older, newer = _submit_event("c000001"), _submit_event(
            "c000002", tenant="bob")
        done = {"type": "done", "cid": "c000001", "status": "done"}
        (tmp_path / "snapshot.json").write_text(
            json.dumps({"events": [older]}, sort_keys=True))
        (tmp_path / "journal.jsonl").write_text("".join(
            json.dumps(e, sort_keys=True) + "\n" for e in (done, newer)))
        state = ServiceState.fold(JournalJobStore(tmp_path).events())
        expected = ServiceState.fold(iter([older, done, newer]))
        assert state.to_events() == expected.to_events()
        assert state.campaigns["c000001"].status == "done"
        assert state.next_seq == 3
        # and it keeps taking appends, old lines and new side by side
        store = JournalJobStore(tmp_path)
        store.append({"type": "cancel", "cid": "c000002"})
        state = ServiceState.fold(JournalJobStore(tmp_path).events())
        assert state.campaigns["c000002"].status == "cancelled"
        assert len(state.campaigns) == 2


class TestServiceState:
    def test_fold_tracks_jobs_and_status(self):
        state = ServiceState()
        state.apply(_submit_event())
        spec = JobSpec(dataset="demo", hours=1)
        state.apply({
            "type": "job", "cid": "c000001", "key": spec.key,
            "row": {"status": "ok"},
        })
        record = state.campaigns["c000001"]
        assert record.status == "running"
        assert record.n_done == 1
        assert [s.hours for s in record.pending_specs()] == [2]

    def test_duplicates_count_once_and_pending_follows_deliveries(self):
        a, b = JobSpec(dataset="demo", hours=1), JobSpec(dataset="demo",
                                                         hours=2)
        event = _submit_event()
        event["specs"] = [s.to_dict() for s in (a, b, a, b, a)]
        state = ServiceState()
        state.apply(event)
        record = state.campaigns["c000001"]
        assert record.n_jobs == record.summary()["n_jobs"] == 2
        assert record.pending_specs() == [a, b]  # submission order
        record.deliver(b.key, {"status": "ok"})
        assert record.pending_specs() == [a]
        record.deliver(b.key, {"status": "cached"})  # a redelivery
        record.deliver("not-a-submitted-key", {"status": "ok"})
        assert record.pending_specs() == [a] and record.n_jobs == 2
        record.deliver(a.key, {"status": "ok"})
        assert record.pending_specs() == []
        # a refold of the same history starts where this one stands
        refolded = ServiceState.fold(iter(state.to_events()))
        assert refolded.campaigns["c000001"].pending_specs() == []

    def test_cancel_is_terminal(self):
        state = ServiceState()
        state.apply(_submit_event())
        state.apply({"type": "cancel", "cid": "c000001"})
        assert state.campaigns["c000001"].status == "cancelled"

    def test_events_for_unknown_campaign_are_ignored(self):
        state = ServiceState()
        state.apply({"type": "job", "cid": "c999999", "key": "k",
                     "row": {}})
        assert state.campaigns == {}

    def test_to_events_is_a_fixed_point(self):
        state = ServiceState()
        state.apply(_submit_event())
        spec = JobSpec(dataset="demo", hours=1)
        state.apply({
            "type": "job", "cid": "c000001", "key": spec.key,
            "row": {"status": "ok"},
        })
        refolded = ServiceState.fold(iter(state.to_events()))
        assert refolded.to_events() == state.to_events()
