"""Content-addressed result cache behaviour."""

import pickle

import pytest

from repro.sched import JobSpec, ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")  # 16 shards, as the daemon runs


class _OneShard:
    """Re-run a test class against a one-shard cache (a single fan-out
    directory per kind).  A mixin rather than ``params=`` on the fixture
    so the 16-shard tests keep the ids they have always had."""

    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache", shards=1)


def _payload(spec, **extra):
    return {"spec": spec.to_dict(), "science_key": spec.science_key,
            "status": "ok", **extra}


class TestScience:
    def test_roundtrip(self, cache):
        cache.put_science("aa" * 32, {"x": 1})
        assert cache.get_science("aa" * 32) == {"x": 1}

    def test_miss(self, cache):
        assert cache.get_science("bb" * 32) is None

    def test_corrupt_entry_is_a_removed_miss(self, cache):
        key = "cc" * 32
        cache.put_science(key, {"x": 1})
        cache.science_path(key).write_bytes(b"not a pickle")
        assert cache.get_science(key) is None
        assert not cache.science_path(key).is_file()

    def test_overwrite_is_atomic_no_leftover_tmp(self, cache):
        key = "dd" * 32
        cache.put_science(key, {"x": 1})
        cache.put_science(key, {"x": 2})
        assert cache.get_science(key) == {"x": 2}
        leftovers = [p for p in cache.science_path(key).parent.iterdir()
                     if ".tmp." in p.name]
        assert leftovers == []


class TestJobs:
    def test_roundtrip_resolves_science(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec))
        got = cache.get_job(spec.key)
        assert got["result"] == {"conc": 42}
        assert got["science_key"] == spec.science_key

    def test_payload_never_duplicates_the_result(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec, result={"conc": 42}))
        with cache.job_path(spec.key).open("rb") as fh:
            on_disk = pickle.load(fh)
        assert "result" not in on_disk

    def test_requires_science_key(self, cache):
        with pytest.raises(ValueError):
            cache.put_job("ee" * 32, {"status": "ok"})

    def test_evicted_science_invalidates_job(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec))
        cache.science_path(spec.science_key).unlink()
        assert cache.get_job(spec.key) is None
        assert not cache.job_path(spec.key).is_file()

    def test_iter_jobs(self, cache):
        assert list(cache.iter_jobs()) == []
        for hours in (1, 2, 3):
            spec = JobSpec(hours=hours)
            cache.put_science(spec.science_key, {})
            cache.put_job(spec.key, _payload(spec))
        assert len(list(cache.iter_jobs())) == 3


class TestScratch:
    def test_scratch_dir_creates_and_clears(self, cache):
        d = cache.scratch_dir("ff" * 32)
        (d / "part_000.pkl").write_bytes(b"x")
        cache.clear_scratch("ff" * 32)
        assert not d.exists()

    def test_clear_missing_scratch_is_noop(self, cache):
        cache.clear_scratch("00" * 32)


class TestStatsAndCounters:
    def test_hit_miss_corrupt_tallies(self, cache):
        key = "ee" * 32
        assert cache.get_science(key) is None          # miss
        cache.put_science(key, {"x": 1})
        assert cache.get_science(key) == {"x": 1}      # hit
        cache.science_path(key).write_bytes(b"rot")
        assert cache.get_science(key) is None          # corrupt -> miss
        counters = cache.stats()["counters"]
        assert counters["hits"] == 1
        assert counters["misses"] == 2
        assert counters["corrupt_entries"] == 1

    def test_stats_reports_shard_occupancy(self, cache):
        spec = JobSpec(dataset="demo", hours=1)
        cache.put_science(spec.science_key, {"x": 1})
        cache.put_job(spec.key, _payload(spec))
        stats = cache.stats()
        assert stats["total_entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["kinds"]["science"]["entries"] == 1
        assert stats["kinds"]["jobs"]["entries"] == 1
        # shards are the fixed shard-NNN fan-out directories
        for kind, key in (("science", spec.science_key), ("jobs", spec.key)):
            shard = f"shard-{int(key[:8], 16) % cache.shards:03d}"
            assert list(stats["kinds"][kind]["shards"]) == [shard]

    def test_pickled_cache_keeps_root_and_fresh_lock(self, cache):
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        clone._bump("hits")  # the recreated lock works


class TestIterJobsTolerance:
    def _store_three(self, cache):
        specs = [JobSpec(dataset="demo", hours=h) for h in (1, 2, 3)]
        for spec in specs:
            cache.put_job(spec.key, _payload(spec))
        return specs

    def test_corrupt_entry_skipped_not_deleted(self, cache):
        specs = self._store_three(cache)
        victim = cache.job_path(specs[0].key)
        victim.write_bytes(b"definitely not a pickle")
        rows = list(cache.iter_jobs())
        assert len(rows) == 2
        assert victim.is_file()  # a status scan never deletes
        assert cache.stats()["counters"]["corrupt_entries"] == 1

    def test_non_dict_payload_counts_as_corrupt(self, cache):
        specs = self._store_three(cache)
        with cache.job_path(specs[1].key).open("wb") as fh:
            pickle.dump(["not", "a", "payload"], fh)
        rows = list(cache.iter_jobs())
        assert len(rows) == 2
        assert cache.stats()["counters"]["corrupt_entries"] == 1


class TestScienceOneShard(_OneShard, TestScience):
    pass


class TestJobsOneShard(_OneShard, TestJobs):
    pass


class TestStatsAndCountersOneShard(_OneShard, TestStatsAndCounters):
    pass


class TestIterJobsToleranceOneShard(_OneShard, TestIterJobsTolerance):
    pass


class TestShardedCache:
    def test_both_names_construct_the_one_class(self, tmp_path):
        from repro.sched import ShardedResultCache

        assert ShardedResultCache is ResultCache
        assert ResultCache(tmp_path / "a").shards == 16
        capped = ShardedResultCache(tmp_path / "b", shards=4, max_bytes=10)
        assert (capped.shards, capped.max_bytes) == (4, 10)

    def test_old_prefix_layout_reads_cold_never_wrong(self, tmp_path):
        # a cache directory written with the retired <k[:2]> fan-out
        spec = JobSpec(dataset="demo", hours=1)
        old = tmp_path / "c" / "science" / spec.science_key[:2]
        old.mkdir(parents=True)
        with (old / f"{spec.science_key}.pkl").open("wb") as fh:
            pickle.dump({"stale": True}, fh)
        cache = ResultCache(tmp_path / "c")
        assert cache.get_science(spec.science_key) is None
        cache.put_science(spec.science_key, {"x": 1})
        assert cache.get_science(spec.science_key) == {"x": 1}

    def test_fixed_shard_layout(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=4)
        spec = JobSpec(dataset="demo", hours=1)
        cache.put_science(spec.science_key, {"x": 1})
        shard = int(spec.science_key[:8], 16) % 4
        assert (tmp_path / "c" / "science" / f"shard-{shard:03d}"
                / f"{spec.science_key}.pkl").is_file()
        stats = cache.stats()
        assert list(stats["kinds"]["science"]["shards"]) == [
            f"shard-{shard:03d}"
        ]

    def test_validation(self, tmp_path):
        from repro.sched import ShardedResultCache

        with pytest.raises(ValueError):
            ShardedResultCache(tmp_path / "c", shards=0)
        with pytest.raises(ValueError):
            ShardedResultCache(tmp_path / "c", max_bytes=0)

    def test_size_cap_evicts_lru_jobs_before_science(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2,
                                   max_bytes=1)  # everything over budget
        specs = [JobSpec(dataset="demo", hours=h) for h in (1, 2)]
        cache.put_science(specs[0].science_key, {"x": 1})
        cache.put_job(specs[0].key, _payload(specs[0]))
        # the put that overflows evicts older entries, never itself
        assert cache.job_path(specs[0].key).is_file()
        assert not cache.science_path(specs[0].science_key).is_file()
        assert cache.stats()["counters"]["evictions"] >= 1

    def test_unbounded_sharded_cache_keeps_everything(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2)
        for h in (1, 2, 3):
            spec = JobSpec(dataset="demo", hours=h)
            cache.put_science(spec.science_key, {"h": h})
            cache.put_job(spec.key, _payload(spec))
        assert cache.stats()["total_entries"] == 6
        assert cache.stats()["counters"]["evictions"] == 0

    def test_reads_refresh_recency(self, tmp_path):
        import os

        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2)
        a, b = (JobSpec(dataset="demo", hours=h) for h in (1, 2))
        cache.put_science(a.science_key, {"h": 1})
        cache.put_science(b.science_key, {"h": 2})
        # age both, then touch a via a read: b becomes the LRU victim
        for spec in (a, b):
            os.utime(cache.science_path(spec.science_key), (1, 1))
        assert cache.get_science(a.science_key) == {"h": 1}
        sizes = [
            cache.science_path(s.science_key).stat().st_size
            for s in (a, b)
        ]
        cache.max_bytes = sum(sizes) - 1
        cache._evict(keep=cache.science_path(a.science_key))
        assert cache.science_path(a.science_key).is_file()
        assert not cache.science_path(b.science_key).is_file()

    def test_runner_integration(self, tmp_path):
        from repro.sched import CampaignRunner, ShardedResultCache
        from repro.sched import scaling_ladder

        cache = ShardedResultCache(tmp_path / "c", shards=4)
        runner = CampaignRunner(cache, workers=1, executor="inline",
                                sleep=lambda s: None)
        specs = scaling_ladder(dataset="demo", machine="t3e",
                               node_counts=(4, 16), hours=1)
        report = runner.run(specs)
        assert report.complete
        rerun = CampaignRunner(
            ShardedResultCache(tmp_path / "c", shards=4),
            workers=1, executor="inline", sleep=lambda s: None,
        ).run(specs)
        assert all(r.from_cache for r in rerun.results)
