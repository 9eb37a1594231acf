"""Crash drills for :mod:`repro.durable`, the one durable-log primitive.

The production classes take no injection parameter: the drills swap the
module's ``os`` and ``open`` for a :class:`FakeDisk` that models what a
real disk promises and nothing more —

* every call that changes the disk is a **write boundary** (``open`` for
  writing, ``write``, ``flush``, ``fsync``, ``truncate``, ``replace``,
  ``fsync-dir``); the disk can kill the process (:class:`Killed`) or
  fail with ``ENOSPC`` at the n-th one;
* a **page cache**: bytes written since a file's last ``fsync`` are, on
  power loss, dropped or kept up to a seeded prefix; an un-fsynced
  truncate or directory change (create, replace) lands or does not, so
  a replaced file whose bytes were never fsynced can surface empty;
* **atomic rename**: a replace that had not reached the platter lands
  whole or not at all, never leaving both names on one inode.

One :class:`Drill` drives a *subject* — the bare log, ``JournalJobStore``
folded by ``ServiceState``, or ``CalibrationStore`` — and keeps the
model: the tokens whose append was acknowledged.  After any kill and
restart the three properties must hold:

1. acknowledged => recovered exactly once, in order;
2. unacknowledged => absent or whole, never partial;
3. a strict load never raises.
"""

import errno
import itertools
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro.durable as durable
from repro.durable import AppendLog
from repro.sched import JobSpec
from repro.service import JournalJobStore, ServiceState
from repro.tune import CalibrationStore, Observation

ROOT = "/drill"
JOURNAL = f"{ROOT}/journal.jsonl"
SNAPSHOT = f"{ROOT}/snapshot.json"
_DIR = object()  # what a directory's file descriptor refers to


class Killed(BaseException):
    """The process died at a write boundary (not an ``Exception``: no
    handler in the code under test may swallow its own death)."""


# ---------------------------------------------------------------------------
# the disk
# ---------------------------------------------------------------------------
class _Inode:
    def __init__(self):
        self.data = bytearray()  # what a reader sees (the page cache)
        self.durable = b""       # what the last fsync put on the platter


class _File:
    """The slice of the file-object API ``repro.durable`` uses."""

    def __init__(self, disk, inode):
        self.disk, self.inode, self.buffer = disk, inode, b""
        self.fd = disk.new_fd(inode)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is None:  # close() flushes; a dying process does not
            self._land(len(self.buffer))
        self.disk.fds.pop(self.fd, None)

    def _land(self, n):
        """The first ``n`` buffered bytes reach the page cache."""
        self.inode.data += self.buffer[:n]
        self.buffer = b""

    def fileno(self):
        return self.fd

    def read(self):
        return bytes(self.inode.data)

    def write(self, data):
        self.disk.boundary("write")
        self.buffer += data
        return len(data)

    def flush(self):
        try:
            self.disk.boundary("flush")
        except OSError:  # disk full part-way through the write-out
            self._land(self.disk.rng.randrange(len(self.buffer) + 1))
            raise
        self._land(len(self.buffer))

    def truncate(self, size):
        self.disk.boundary("truncate")
        del self.inode.data[size:]


class FakeDisk:
    """One directory of files with a page cache and an fsync contract."""

    def __init__(self):
        self.names = {}          # the directory as readers see it
        self.durable_names = {}  # the directory as of its last fsync
        self.renames = []        # (src, dst) replaced since that fsync
        self.fds, self.last_fd = {}, 2
        self.trace = []          # every write boundary reached, in order
        self.kill_at = self.fail_at = None
        self.dead = False
        self.rng = random.Random(0)

    # -- fault injection ------------------------------------------------
    def boundary(self, kind):
        if self.dead:
            raise Killed(kind)
        n = len(self.trace)
        self.trace.append(kind)
        if n == self.kill_at:
            self.dead = True
            raise Killed(kind)
        if n == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")

    def crash(self, seed):
        """The process is gone; one time in four that is all (the page
        cache survives), otherwise the power went with it."""
        rng = self.rng = random.Random(seed)
        if rng.random() < 0.75:
            names = {}
            for name in sorted(set(self.names) | set(self.durable_names)):
                live, old = self.names.get(name), self.durable_names.get(name)
                inode = live if live is old or rng.random() < 0.5 else old
                if inode is not None:
                    names[name] = inode
            for src, dst in self.renames:  # landed whole: the old name is gone
                if names.get(src) is names.get(dst) is not None:
                    del names[src]
            self.names = names
            for inode in {id(i): i for i in names.values()}.values():
                data, old = bytes(inode.data), inode.durable
                if data.startswith(old):  # appended: a prefix survives
                    data = data[: rng.randint(len(old), len(data))]
                elif rng.random() < 0.5:  # truncated: all or nothing
                    data = old
                inode.data = bytearray(data)
        for inode in self.names.values():
            inode.durable = bytes(inode.data)
        self.durable_names = dict(self.names)
        self.renames = []
        self.fds.clear()
        self.trace = []
        self.kill_at = self.fail_at = None
        self.dead = False

    # -- direct access for the drills (durable at once) -------------------
    def get(self, name):
        return bytes(self.names[name].data)

    def put(self, name, data):
        inode = self.names.setdefault(name, _Inode())
        inode.data, inode.durable = bytearray(data), bytes(data)
        self.durable_names[name] = inode

    # -- what repro.durable calls ---------------------------------------
    def new_fd(self, target):
        self.last_fd += 1
        self.fds[self.last_fd] = target
        return self.last_fd

    def open(self, path, mode):
        path = str(path)
        if mode == "rb":
            if path not in self.names:
                raise FileNotFoundError(errno.ENOENT, "no such file", path)
            return _File(self, self.names[path])
        self.boundary("open")  # may create, may truncate: a write
        inode = self.names.setdefault(path, _Inode())
        if mode == "wb":
            del inode.data[:]
        return _File(self, inode)


class _Os:
    """The slice of ``os`` that ``repro.durable`` uses."""

    O_RDONLY = os.O_RDONLY
    path = os.path

    def __init__(self, disk):
        self.disk = disk

    def getpid(self):
        return 4242

    def makedirs(self, path, exist_ok=False):
        pass  # the one directory always exists

    def open(self, path, flags):
        return self.disk.new_fd(_DIR)

    def close(self, fd):
        del self.disk.fds[fd]

    def fsync(self, fd):
        target = self.disk.fds[fd]
        if target is _DIR:
            self.disk.boundary("fsync-dir")
            self.disk.durable_names = dict(self.disk.names)
            self.disk.renames = []
        else:
            self.disk.boundary("fsync")
            target.durable = bytes(target.data)

    def replace(self, src, dst):
        self.disk.boundary("replace")
        self.disk.names[str(dst)] = self.disk.names.pop(str(src))
        self.disk.renames.append((str(src), str(dst)))


# ---------------------------------------------------------------------------
# the subjects: how a token becomes an event and how it is read back
# ---------------------------------------------------------------------------
class BareLog:
    """``AppendLog`` itself: one stream of tokens."""

    def __init__(self):
        self.log = AppendLog(ROOT)

    @staticmethod
    def streams(tokens):
        return (list(tokens),)

    def append(self, token):
        self.log.append({"type": "token", "n": token})

    def compact(self):
        self.log.compact({"events": list(self.log.events())})

    def recovered(self, errors=None):
        return ([e["n"] for e in self.log.events(errors)],)


class JobStoreFold(BareLog):
    """``JournalJobStore`` read through ``ServiceState.fold``: a token is
    one submitted campaign (the fold is idempotent, so a replayed line
    cannot show here; the other two subjects watch for that)."""

    SPEC = JobSpec(dataset="demo", hours=1).to_dict()

    def __init__(self):
        self.log = JournalJobStore(ROOT)

    def append(self, token):
        self.log.append({
            "type": "submit", "cid": f"c{token:06d}", "tenant": "drill",
            "specs": [self.SPEC], "workers": 1, "fuse": True,
        })

    def compact(self):
        state = ServiceState.fold(self.log.events())
        self.log.compact({"events": state.to_events()})

    def recovered(self, errors=None):
        state = ServiceState.fold(self.log.events(errors))
        tokens = [int(cid[1:]) for cid in sorted(state.campaigns)]
        assert state.next_seq == max(tokens, default=0) + 1
        return (tokens,)


class Calibration:
    """``CalibrationStore``: odd tokens are observations (deduped by
    content), even tokens are decisions (never deduped)."""

    def __init__(self):
        self.store = CalibrationStore(ROOT)

    @staticmethod
    def _obs(token):
        return Observation(
            dataset="demo", machine="host", nprocs=1, variant="sequential",
            cores_per_job=1, phase="job", observed_s=float(token),
        )

    @staticmethod
    def streams(tokens):
        return ([t for t in tokens if t % 2], [t for t in tokens if not t % 2])

    def append(self, token):
        if token % 2:
            assert self.store.add(self._obs(token)) is True
            assert self.store.add(self._obs(token)) is False  # no 2nd line
        else:
            self.store.record_decision({"n": token})

    def compact(self):
        self.store.compact()

    def recovered(self, errors=None):
        if errors is None:
            observations = self.store.observations()
            decisions = self.store.decisions()
        else:
            scan = self.store.scan()
            errors.extend(scan.errors)
            observations, decisions = scan.observations, scan.decisions
        return ([int(o.observed_s) for o in observations],
                [d["n"] for d in decisions])


SUBJECTS = [BareLog, JobStoreFold, Calibration]
subjects = pytest.mark.parametrize(
    "subject", SUBJECTS, ids=lambda cls: cls.__name__)


# ---------------------------------------------------------------------------
# the drill: a subject on a fake disk, and the model it is held to
# ---------------------------------------------------------------------------
class Drill:
    def __init__(self, subject):
        self.subject = subject
        self.disk = FakeDisk()
        self._patch = mock.patch.multiple(
            durable, os=_Os(self.disk), open=self.disk.open, create=True)
        self.acked = []  # tokens whose append returned
        self.limbo = []  # tokens whose append did not: killed or failed
        self.next_token = 1

    def __enter__(self):
        self._patch.start()
        self.reopen()
        return self

    def __exit__(self, *_):
        self._patch.stop()

    # -- the operations (OSError = that call failed; the process lives) --
    def reopen(self):
        """A new process: nothing in memory carries over."""
        self.handle = self.subject()

    def append(self):
        token, self.next_token = self.next_token, self.next_token + 1
        self.limbo.append(token)  # until acknowledged
        try:
            self.handle.append(token)
        except OSError:
            return self.check()
        self.limbo.remove(token)
        self.acked.append(token)

    def compact(self):
        try:
            self.handle.compact()
        except OSError:
            self.check()

    def tear(self):
        """A crash mid-append left a newline-less fragment, durably."""
        self.disk.put(JOURNAL, self.disk.get(JOURNAL) + b'[99, {"type": "to')
        self.reopen()

    def kill(self, op, boundary, seed):
        """Die at ``op``'s n-th write boundary (if it has that many),
        lose power, restart."""
        self.disk.kill_at = len(self.disk.trace) + boundary
        try:
            getattr(self, op)()
        except Killed:
            pass
        self.crash(seed)

    def run(self, script):
        for step in script:
            getattr(self, step)()

    # -- the properties --------------------------------------------------
    def crash(self, seed):
        self.disk.crash(seed)
        self.reopen()
        self.check(settle=True)

    def check(self, settle=False):
        """A strict load (must not raise) against the model: every
        acknowledged token, and each unacknowledged one whole or absent.
        What a restart finds on disk is settled: it stays."""
        got = self.subject().recovered()
        for k in range(len(self.limbo) + 1):
            for whole in itertools.combinations(self.limbo, k):
                tokens = sorted(self.acked + list(whole))
                if got == self.subject.streams(tokens):
                    if settle:
                        self.acked, self.limbo = tokens, []
                    return
        raise AssertionError(
            f"recovered {got}; acknowledged {self.acked}, "
            f"unacknowledged {self.limbo}")


#: Every write path: first append (creates the journal), steady appends,
#: both compactions (first snapshot, replaced snapshot), a restart, the
#: tail repair after a torn append, and appends after each of those.
SCRIPT = ["append", "append", "compact", "append", "reopen", "append",
          "tear", "append", "append", "compact", "append"]
SEEDS = range(8)


def boundaries(subject, script=SCRIPT):
    with Drill(subject) as probe:
        probe.run(script)
        return list(probe.disk.trace)


# ---------------------------------------------------------------------------
# enumerated drills
# ---------------------------------------------------------------------------
def test_write_boundaries_of_each_operation():
    """The boundary table of docs/SERVICE.md, as the code really runs."""
    recover = ["open", "flush", "fsync", "fsync-dir"]
    line = ["open", "write", "flush", "fsync"]
    compact = ["open", "write", "flush", "fsync", "replace", "fsync-dir",
               "open", "flush", "fsync"]
    assert boundaries(BareLog, ["append"]) == recover + line
    assert boundaries(BareLog, ["append", "append"]) == recover + 2 * line
    assert boundaries(BareLog, ["compact"]) == recover + compact
    assert boundaries(BareLog, ["append", "tear", "append"]) == (
        recover + line + ["open", "truncate", "flush", "fsync", "fsync-dir"]
        + line)


@subjects
def test_kill_at_every_write_boundary(subject):
    trace = boundaries(subject)
    assert {"open", "write", "flush", "fsync", "truncate", "replace",
            "fsync-dir"} == set(trace)
    for n in range(len(trace)):
        for seed in SEEDS:
            with Drill(subject) as drill:
                drill.disk.kill_at = n
                with pytest.raises(Killed):
                    drill.run(SCRIPT)
                drill.crash(seed)
                # the survivor still takes appends, and they survive too
                drill.append()
                drill.crash(seed + 1)


@subjects
def test_enospc_at_every_write_and_sync(subject):
    trace = boundaries(subject)
    for n, kind in enumerate(trace):
        if kind not in ("write", "flush", "fsync", "fsync-dir"):
            continue
        with Drill(subject) as drill:
            drill.disk.fail_at = n
            drill.run(SCRIPT)  # the failed call raised; the rest went on
            assert len(drill.acked) >= SCRIPT.count("append") - 1
            drill.crash(seed=n)


@subjects
def test_tail_torn_at_every_byte_offset(subject):
    with Drill(subject) as drill:
        drill.run(["append", "append", "append"])
        full = drill.disk.get(JOURNAL)
        start = full[:-1].rfind(b"\n") + 1  # the third line
        for cut in range(start, len(full)):  # up to: whole, bar its newline
            drill.disk.put(JOURNAL, full[:cut])
            drill.acked, drill.limbo, drill.next_token = [1, 2], [], 4
            drill.reopen()
            drill.check()
            errors = []
            assert drill.subject().recovered(errors) == drill.subject.streams(
                [1, 2])
            assert errors == []
            assert drill.disk.get(JOURNAL) == full[:cut]  # readers: no write
            # the fragment is dropped, not glued onto: a second restart
            drill.append()
            assert drill.disk.get(JOURNAL).startswith(full[:start])
            drill.crash(seed=cut)
            assert drill.acked == [1, 2, 4]


@subjects
def test_interior_corruption_raises_strict_reports_tolerant(subject):
    with Drill(subject) as drill:
        drill.run(["append", "append", "append"])
        raw = bytearray(drill.disk.get(JOURNAL))
        raw[raw.index(b"\n") + 1] ^= 0xFF  # first byte of line 2
        drill.disk.put(JOURNAL, bytes(raw))
        with pytest.raises(ValueError, match="corrupt journal line 2"):
            drill.subject().recovered()
        errors = []
        assert drill.subject().recovered(errors) == drill.subject.streams(
            [1, 3])
        assert len(errors) == 1 and "corrupt journal line 2" in errors[0]


def test_any_flipped_byte_is_a_value_error_or_unnoticed():
    with Drill(BareLog) as drill:
        drill.run(["append", "append", "append"])
        clean = drill.disk.get(JOURNAL)
        for i in range(len(clean)):
            raw = bytearray(clean)
            raw[i] ^= 0x80
            drill.disk.put(JOURNAL, bytes(raw))
            try:
                list(AppendLog(ROOT).events())
            except ValueError as exc:
                assert "corrupt journal line" in str(exc)


@subjects
def test_corrupt_snapshot_strict_names_the_file(subject):
    with Drill(subject) as drill:
        drill.run(["append", "append", "compact", "append"])
        drill.disk.put(SNAPSHOT, drill.disk.get(SNAPSHOT)[:-7])
        with pytest.raises(ValueError, match="corrupt snapshot .*snapshot.json"):
            drill.subject().recovered()
        errors = []
        assert drill.subject().recovered(errors) == drill.subject.streams([3])
        assert len(errors) == 1 and "corrupt snapshot" in errors[0]


@subjects
def test_snapshot_keeps_events_key_and_journal_empties(subject):
    with Drill(subject) as drill:
        drill.run(["append", "append", "compact"])
        assert drill.disk.get(JOURNAL) == b""
        assert len(json.loads(drill.disk.get(SNAPSHOT))["events"]) == 2
        drill.run(["append", "reopen", "append"])
        drill.check()


def test_three_kills_inside_compact_keep_the_snapshot():
    """Pinned from a failing ``test_state_machine[BareLog]`` run (about
    one tier-1 run in eight).  The second kill falls between ``replace``
    and the directory fsync; the disk used to resolve the two names of
    that rename one by one and could keep the temp name *and* the
    snapshot name on one inode, so the third compaction's
    ``open(tmp, "wb")`` truncated the live snapshot.  A real rename is
    atomic: the fault was the disk's, not the log's."""
    with Drill(BareLog) as drill:
        drill.run(["append", "append", "compact", "append"])
        drill.kill("compact", 2, seed=0)  # temp written, not yet replaced
        drill.kill("compact", 9, seed=7)  # replaced, directory not fsynced
        drill.kill("compact", 5, seed=0)  # temp reopened for writing
        assert drill.acked == [1, 2, 3]


def test_append_does_not_mutate_the_callers_event():
    with Drill(BareLog):
        event = {"type": "token", "n": 1}
        AppendLog(ROOT).append(event)
        assert event == {"type": "token", "n": 1}
        assert list(AppendLog(ROOT).events()) == [event]


# ---------------------------------------------------------------------------
# the state machine: any interleaving of the same operations
# ---------------------------------------------------------------------------
class LogMachine(RuleBasedStateMachine):
    subject = BareLog

    def __init__(self):
        super().__init__()
        self.drill = Drill(self.subject).__enter__()

    def teardown(self):
        self.drill.__exit__()

    @rule()
    def append(self):
        self.drill.append()

    @rule()
    def compact(self):
        self.drill.compact()

    @rule()
    def reopen(self):
        self.drill.reopen()

    @rule(op=st.sampled_from(["append", "compact"]),
          boundary=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
    def kill(self, op, boundary, seed):
        self.drill.kill(op, boundary, seed)

    @invariant()
    def acknowledged_is_readable(self):
        self.drill.check()


@subjects
def test_state_machine(subject):
    machine = type(f"{subject.__name__}Machine", (LogMachine,),
                   {"subject": subject})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=40, stateful_step_count=20, deadline=None))
