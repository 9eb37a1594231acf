"""CalibrationStore: content addressing, durability, integrity.

Torn tails and crash recovery are the log's own behaviour:
``tests/test_durable.py`` drills them against this store too.
"""

import json

import pytest

from repro.tune import CalibrationStore, Observation


def obs(phase="job", observed_s=2.0, **kw):
    base = dict(dataset="demo", machine="host", nprocs=1,
                variant="sequential", cores_per_job=1, phase=phase,
                observed_s=observed_s)
    base.update(kw)
    return Observation(**base)


class TestObservation:
    def test_phase_key_format(self):
        o = obs(machine="t3e", nprocs=16, variant="data", cores_per_job=4,
                phase="chemistry")
        assert o.phase_key == "demo|t3e|p16|data|c4|chemistry"

    def test_digest_excludes_provenance_timestamp(self):
        a = obs(timestamp="2026-01-01T00:00:00Z")
        b = obs(timestamp="2026-12-31T23:59:59Z")
        assert a.digest == b.digest
        assert "timestamp" not in a.payload()

    def test_digest_covers_the_measurement(self):
        assert obs(observed_s=1.0).digest != obs(observed_s=2.0).digest
        assert obs(phase="job").digest != obs(phase="makespan").digest

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            obs(observed_s=-1.0)
        with pytest.raises(ValueError):
            obs(nprocs=-1)

    def test_round_trips_through_dict(self):
        o = obs(predicted_s=1.5, ops=1e9, timestamp="t")
        assert Observation.from_dict(o.to_dict()) == o


class TestStore:
    def test_add_dedupes_by_content(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        assert store.add(obs(timestamp="a"))
        assert not store.add(obs(timestamp="a"))
        # a different provenance stamp is still the same measurement
        assert not store.add(obs(timestamp="b"))
        assert store.generation == 1

    def test_add_many_is_idempotent(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        batch = [obs(observed_s=1.0), obs(observed_s=2.0)]
        assert store.add_many(batch) == 2
        assert store.add_many(batch) == 0
        # a re-opened store sees the same durable state
        assert CalibrationStore(tmp_path / "s").add_many(batch) == 0

    def test_generation_and_fingerprint_track_content(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        assert store.generation == 0
        assert store.fingerprint == ""
        store.add(obs(observed_s=1.0))
        f1 = store.fingerprint
        store.add(obs(observed_s=2.0))
        assert store.generation == 2
        assert store.fingerprint != f1

    def test_fingerprint_is_order_independent(self, tmp_path):
        a, b = obs(observed_s=1.0), obs(observed_s=2.0)
        s1 = CalibrationStore(tmp_path / "s1")
        s1.add(a), s1.add(b)
        s2 = CalibrationStore(tmp_path / "s2")
        s2.add(b), s2.add(a)
        assert s1.fingerprint == s2.fingerprint

    def test_decisions_journal_in_order_never_deduped(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.record_decision({"key": "k1", "generation": 0})
        store.record_decision({"key": "k1", "generation": 0})
        assert store.decisions() == [
            {"key": "k1", "generation": 0},
            {"key": "k1", "generation": 0},
        ]

    def test_interior_corruption_raises_strict_reports_tolerant(
        self, tmp_path
    ):
        store = CalibrationStore(tmp_path / "s")
        store.add(obs(observed_s=1.0))
        with store.journal_path.open("a") as fh:
            fh.write("not json\n")
        store.add(obs(observed_s=2.0))  # a later durable append
        fresh = CalibrationStore(tmp_path / "s")
        with pytest.raises(ValueError):
            fresh.observations()
        scan = fresh.scan()
        assert len(scan.errors) == 1
        assert "journal line 2" in scan.errors[0]
        assert len(scan.observations) == 2  # good records survive

    def test_digest_mismatch_detected(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        event = {"type": "obs", "digest": "0" * 64,
                 "obs": obs().to_dict()}
        with store.journal_path.open("a") as fh:
            fh.write(json.dumps(event) + "\n")
        fresh = CalibrationStore(tmp_path / "s")
        with pytest.raises(ValueError):
            fresh.observations()
        scan = fresh.scan()
        assert len(scan.errors) == 1
        assert "digest mismatch" in scan.errors[0]
        assert scan.observations == []

    def test_malformed_record_reported(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        with store.journal_path.open("a") as fh:
            fh.write(json.dumps({"type": "obs", "obs": {"bogus": 1}}) + "\n")
        scan = CalibrationStore(tmp_path / "s").scan()
        assert len(scan.errors) == 1
        assert "malformed" in scan.errors[0]

    def test_compact_preserves_everything(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.add_many([obs(observed_s=1.0), obs(observed_s=2.0)])
        store.record_decision({"key": "k", "generation": 2})
        before = (store.generation, store.fingerprint, store.decisions())
        store.compact()
        assert store.snapshot_path.is_file()
        assert store.journal_path.read_text() == ""
        fresh = CalibrationStore(tmp_path / "s")
        assert (fresh.generation, fresh.fingerprint,
                fresh.decisions()) == before
        # dedupe still holds against the snapshot
        assert not fresh.add(obs(observed_s=1.0))
        # and new appends land after it
        assert fresh.add(obs(observed_s=3.0))
        assert fresh.generation == 3

    def test_pair_written_before_sequence_numbers_loads_unchanged(
        self, tmp_path
    ):
        # journal.jsonl + snapshot.json exactly as the pre-AppendLog
        # CalibrationStore wrote them: bare event objects, no "seq"
        def event(o):
            return {"type": "obs", "digest": o.digest, "obs": o.to_dict()}

        a, b = obs(observed_s=1.0), obs(observed_s=2.0)
        d1, d2 = {"key": "k", "generation": 1}, {"key": "k", "generation": 2}
        root = tmp_path / "s"
        root.mkdir()
        (root / "snapshot.json").write_text(json.dumps({"events": [
            event(a), {"type": "decision", "record": d1},
        ]}, sort_keys=True))
        (root / "journal.jsonl").write_text("".join(
            json.dumps(e, sort_keys=True) + "\n"
            for e in (event(b), {"type": "decision", "record": d2})))
        store = CalibrationStore(root)
        assert store.scan().errors == []
        reference = CalibrationStore(tmp_path / "ref")
        reference.add_many([a, b])
        assert (store.generation, store.fingerprint, store.decisions()) == (
            2, reference.fingerprint, [d1, d2])
        # and it keeps taking appends, old lines and new side by side
        assert not store.add(b)
        assert store.add(obs(observed_s=3.0))
        store.compact()
        fresh = CalibrationStore(root)
        assert (fresh.generation, fresh.decisions()) == (3, [d1, d2])

    def test_stats_tolerates_corruption(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.add(obs(observed_s=1.0))
        with store.journal_path.open("a") as fh:
            fh.write("not json\n")
        store.add(obs(observed_s=2.0))
        stats = CalibrationStore(tmp_path / "s").stats()  # must not raise
        assert stats["n_errors"] == 1
        assert stats["n_observations"] == 2
        assert stats["fingerprint"] != ""

    def test_stats_shape(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.add(obs())
        stats = store.stats()
        assert stats["generation"] == 1
        assert stats["n_observations"] == 1
        assert stats["n_decisions"] == 0
        assert stats["n_errors"] == 0
        assert stats["phase_keys"] == {obs().phase_key: 1}
