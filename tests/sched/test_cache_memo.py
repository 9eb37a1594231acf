"""The decoded-science memo of :class:`ResultCache` can never lie.

A Hypothesis state machine drives the memoizing cache and a memo-less
oracle — the read path as it was before the memo, kept here — through
the same interleaving of puts, gets and outside interference, and
requires the same answers, the same tallies and the same files on disk
after every step.  Single-property tests pin the rest of the memo's
contract: read-only arrays, nothing shipped to worker processes,
bounded memory, bounded decodes under contention.
"""

import os
import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro.sched.cache as cache_mod
from repro.durable import atomic_write
from repro.model.results import AirshedResult, WorkloadTrace
from repro.sched import ResultCache

TALLIES = ("hits", "misses", "evictions", "corrupt_entries")
SCIENCE = [f"{i:02x}" * 32 for i in range(1, 5)]
JOBS = [f"{i:02x}" * 32 for i in range(0xa1, 0xa7)]


class OracleCache(ResultCache):
    """The read path with no memo: every read unpickles the file."""

    def get_science(self, science_key):
        result = self._load(self.science_path(science_key))
        if result is None:
            self._bump("misses")
        else:
            self._bump("hits")
            self._mark_used(self.science_path(science_key))
        return result

    def get_job(self, key):
        payload = self._load(self.job_path(key))
        if payload is None:
            self._bump("misses")
            return None
        science = self._load(self.science_path(payload["science_key"]))
        if science is None:
            self._bump("misses")
            self._bump("evictions")
            self.job_path(key).unlink(missing_ok=True)
            return None
        self._bump("hits")
        self._mark_used(self.job_path(key))
        self._mark_used(self.science_path(payload["science_key"]))
        payload["result"] = science
        return payload


def result_of(value, shape=(2, 3, 4)):
    return AirshedResult(
        trace=WorkloadTrace("memo", shape),
        final_conc=np.full(shape, float(value)),
        hourly_mean={"O3": [float(value)]},
        hourly_surface=[np.full(shape[2], float(value))],
    )


# ---------------------------------------------------------------------------
# the state machine
# ---------------------------------------------------------------------------
class MemoMachine(RuleBasedStateMachine):
    """Both caches see one logical clock (every touch and every write
    lands one tick after the last), so their LRU orders are comparable
    whatever the host's timestamp granularity; and every version of an
    entry has its own byte size, so the machine does not depend on
    whether the filesystem reuses inode numbers within one mtime tick
    (``stat`` cannot tell such a rewrite apart — a content-addressed
    writer produces the same bytes then)."""

    tmp_factory = None  # set by the test
    DISK_BYTES = 500    # ~4 entries on disk, ~2 decoded in memory:
    MEMO_BYTES = 200    # both bounds bite

    def __init__(self):
        super().__init__()
        root = self.tmp_factory.mktemp("memo")
        self.caches = [
            ResultCache(root / "memo", shards=2, max_bytes=self.DISK_BYTES),
            OracleCache(root / "oracle", shards=2, max_bytes=self.DISK_BYTES),
        ]
        self.version = 0
        self.tick = 0
        self._real_utime = os.utime
        self._patches = [
            mock.patch.object(os, "utime", self._touch),
            mock.patch.object(cache_mod, "MEMO_BYTES", self.MEMO_BYTES),
        ]
        for patch in self._patches:
            patch.start()

    def teardown(self):
        for patch in self._patches:
            patch.stop()

    # -- the logical clock ----------------------------------------------
    def _touch(self, path, *_, **__):
        self.tick += 1
        when = (1_000_000 + self.tick) * 10 ** 9
        self._real_utime(path, ns=(when, when))

    def _value(self):
        """A payload no earlier one shares its pickled size with."""
        self.version += 1
        return {"version": self.version, "pad": "x" * self.version}

    def _both(self, act):
        """Run ``act`` on each cache; the answers must agree."""
        memo, oracle = (act(cache) for cache in self.caches)
        assert memo == oracle

    # -- the cache's own operations ---------------------------------------
    @rule(key=st.sampled_from(SCIENCE))
    def put_science(self, key):
        value = self._value()

        def act(cache):
            cache.put_science(key, value)
            self._touch(cache.science_path(key))
        self._both(act)

    @rule(key=st.sampled_from(SCIENCE))
    def get_science(self, key):
        self._both(lambda cache: cache.get_science(key))

    @rule(key=st.sampled_from(JOBS), science_key=st.sampled_from(SCIENCE))
    def put_job(self, key, science_key):
        payload = {"science_key": science_key, **self._value()}

        def act(cache):
            cache.put_job(key, payload)
            self._touch(cache.job_path(key))
        self._both(act)

    @rule(key=st.sampled_from(JOBS))
    def get_job(self, key):
        self._both(lambda cache: cache.get_job(key))

    # -- outside interference ---------------------------------------------
    @rule(key=st.sampled_from(SCIENCE))
    def unlink(self, key):
        self._both(lambda cache: cache.science_path(key).unlink(
            missing_ok=True))

    @rule(key=st.sampled_from(SCIENCE))
    def overwrite_with_other_bytes(self, key):
        """Another process replaces the entry (the way every writer of
        this cache writes), behind the instance's back."""
        blob = pickle.dumps(self._value())

        def act(cache):
            if cache.science_path(key).is_file():
                atomic_write(cache.science_path(key), blob, fsync=False)
                self._touch(cache.science_path(key))
        self._both(act)

    @rule(key=st.sampled_from(SCIENCE))
    def truncate_to_garbage(self, key):
        def act(cache):
            if cache.science_path(key).is_file():
                cache.science_path(key).write_bytes(b"\x80garbage")
                self._touch(cache.science_path(key))
        self._both(act)

    # -- what must hold after every step ----------------------------------
    @invariant()
    def same_tallies(self):
        memo, oracle = (c.stats()["counters"] for c in self.caches)
        assert {n: memo[n] for n in TALLIES} == {
            n: oracle[n] for n in TALLIES}

    @invariant()
    def same_files(self):
        """Equal survivors after every put is equal eviction order."""
        memo, oracle = (
            sorted(str(p.relative_to(c.root)) for p in c.root.rglob("*.pkl"))
            for c in self.caches)
        assert memo == oracle

    @invariant()
    def memo_within_budget(self):
        held = self.caches[0]._memo.values()
        assert sum(sig[1] for sig, _ in held) <= self.MEMO_BYTES


def test_memo_agrees_with_the_memoless_oracle(tmp_path_factory):
    machine = type("Machine", (MemoMachine,),
                   {"tmp_factory": tmp_path_factory})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None))


# ---------------------------------------------------------------------------
# single properties
# ---------------------------------------------------------------------------
@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def decodes(cache):
    counters = cache.stats()["counters"]
    return counters["decodes"], counters["decoded_bytes"]


def test_second_read_is_served_from_memory(cache):
    key = SCIENCE[0]
    cache.put_science(key, result_of(1))
    size = cache.science_path(key).stat().st_size
    first = cache.get_science(key)
    assert decodes(cache) == (1, size)
    assert cache.get_science(key) is first
    cache.put_job(JOBS[0], {"science_key": key})
    assert cache.get_job(JOBS[0])["result"] is first
    assert decodes(cache) == (1, size)
    assert cache.stats()["counters"]["hits"] == 3


def test_memory_hit_refreshes_the_files_recency(cache):
    key = SCIENCE[0]
    cache.put_science(key, result_of(1))
    cache.put_job(JOBS[0], {"science_key": key})
    cache.get_science(key)
    touched = []
    real_utime = os.utime
    with mock.patch.object(os, "utime", lambda path, *a, **kw: (
            touched.append(path), real_utime(path, *a, **kw))):
        cache.get_science(key)
        assert touched == [cache.science_path(key)]
        cache.get_job(JOBS[0])
        assert sorted(touched[1:]) == sorted(
            [cache.science_path(key), cache.job_path(JOBS[0])])
    assert decodes(cache)[0] == 1  # both reads came from memory


def test_returned_arrays_are_read_only(cache):
    cache.put_science(SCIENCE[0], result_of(1))
    for got in (cache.get_science(SCIENCE[0]),     # decoded
                cache.get_science(SCIENCE[0])):    # from memory
        with pytest.raises(ValueError, match="read-only"):
            got.final_conc[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            got.hourly_surface[0][0] = 2.0
    assert got.final_conc_sha256 == result_of(1).final_conc_sha256


def test_digest_is_never_stored_in_the_entry(cache):
    result = result_of(1)
    plain = pickle.dumps(result)
    assert len(result.final_conc_sha256) == 64
    assert pickle.dumps(result) == plain
    assert "final_conc_sha256" not in vars(pickle.loads(plain))


def test_a_shipped_cache_holds_no_decoded_entries(cache):
    """What ``ProcessExecutor`` pickles into a child process."""
    cache.put_science(SCIENCE[0], result_of(1))
    cache.get_science(SCIENCE[0])
    assert len(cache._memo) == 1
    blob = pickle.dumps(cache)
    assert len(blob) < 1024  # no arrays travelled
    shipped = pickle.loads(blob)
    assert len(shipped._memo) == 0
    assert decodes(shipped)[0] == 1  # tallies are copied, as ever
    assert shipped.get_science(SCIENCE[0]).final_conc[0, 0, 0] == 1.0
    assert decodes(shipped)[0] == 2


def test_memo_stays_within_its_budget(cache, monkeypatch):
    cache.put_science(SCIENCE[0], result_of(0))
    size = cache.science_path(SCIENCE[0]).stat().st_size
    monkeypatch.setattr(cache_mod, "MEMO_BYTES", 5 * size)
    keys = [f"{i:064x}" for i in range(100)]
    for i, key in enumerate(keys):
        cache.put_science(key, result_of(i))
        assert cache.get_science(key).final_conc[0, 0, 0] == float(i)
        held = sum(sig[1] for sig, _ in cache._memo.values())
        assert held <= 5 * size
    assert list(cache._memo) == keys[-5:]  # least recently used went first
    # an entry larger than the whole budget is served but never retained
    cache.put_science(SCIENCE[1], result_of(7, shape=(2, 3, 400)))
    assert cache.get_science(SCIENCE[1]).final_conc[0, 0, 0] == 7.0
    assert SCIENCE[1] not in cache._memo


def test_threads_on_one_key_decode_it_a_bounded_number_of_times(cache):
    key = SCIENCE[0]
    cache.put_science(key, result_of(3, shape=(4, 5, 600)))
    threads, rounds = 8, 200   # more threads than the host has cores
    problems, barrier = [], threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(rounds):
            got = cache.get_science(key)
            # a half-built entry: not yet frozen, or not fully decoded
            if (got is None or got.final_conc.flags.writeable
                    or got.hourly_surface[0].flags.writeable
                    or got.final_conc[3, 4, 599] != 3.0):
                problems.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert problems == []
    counters = cache.stats()["counters"]
    assert counters["hits"] == threads * rounds
    assert 1 <= counters["decodes"] <= threads
