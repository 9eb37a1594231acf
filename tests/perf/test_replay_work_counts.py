"""Exact work counts of a replay (``time = count x rate``).

A replay prices about eighty phases; what it costs on the host is how
many Python objects those phases build.  The phases are kept as columns
— one block per phase in the tracer, one column view per phase in the
timeline — so a replay nobody inspects builds its region spans and
nothing per node, and a replay somebody does inspect builds exactly the
per-node stream it always had, once, when ``Tracer.spans`` is read.
The counts are exact and host-independent; wall time on a shared
two-core machine is not.
"""

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

from benchmarks.perf.suite import det_trace

import repro.observe.tracer as tracer_mod
from repro.datasets import get_dataset
from repro.model import AirshedConfig, SequentialAirshed
from repro.model.taskparallel import replay
from repro.observe import Tracer, chrome_trace, csv_rows
from repro.vm.machine import CRAY_T3E
from repro.vm.traffic import NodeColumn

#: LA-shaped, 2 h, five steps an hour as the real LA trace has: 40
#: compute, 33 communication and 6 I/O phases under 2 hour and 10 step
#: regions.
PHASES = 79
REGIONS = 12


def node_spans(nprocs):
    return (PHASES - 6) * nprocs + 6  # I/O busies one node


@contextmanager
def counted():
    """Count ``Span`` constructions and per-node dicts built inside."""
    work = Counter()
    real_span = tracer_mod.Span
    real_dict = NodeColumn._dict

    def span(*args, **kwargs):
        work["spans"] += 1
        return real_span(*args, **kwargs)

    def as_dict(self):
        work["node_dicts"] += self._items is None
        return real_dict(self)

    with mock.patch.object(tracer_mod, "Span", span), \
            mock.patch.object(NodeColumn, "_dict", as_dict):
        yield work


@pytest.mark.parametrize("nprocs", [64, 128])
def test_an_unread_replay_builds_its_regions_and_nothing_per_node(nprocs):
    trace = det_trace(steps=5)
    with counted() as work:
        # execute_job's call shape: no tracer handed in, only the timing read.
        timing = replay("data", trace, CRAY_T3E, nprocs)
    assert timing.comm_steps == 33
    assert work["spans"] == REGIONS
    assert work["node_dicts"] == 0


@pytest.mark.parametrize("nprocs", [64, 128])
def test_a_traced_replay_builds_the_node_stream_once_when_read(nprocs):
    trace = det_trace(steps=5)
    tracer = Tracer()
    with counted() as work:
        replay("data", trace, CRAY_T3E, nprocs, tracer=tracer)
        assert work["spans"] == REGIONS
        spans = tracer.spans
        assert work["spans"] == len(spans) == REGIONS + node_spans(nprocs)
        assert tracer.spans is spans and len(tracer) == len(spans)
        assert work["spans"] == len(spans)
    assert work["node_dicts"] == 0
    assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
    assert sum(s.node is None for s in spans) == REGIONS


# ---------------------------------------------------------------------------
# the stream that is read is the stream that always was
# ---------------------------------------------------------------------------
#: SHA-256 of the Chrome-trace and CSV exports of the demo dataset's one
#: recorded hour replayed on 8 T3E nodes, captured before the columns
#: (every span then built per node, eagerly).
PINNED = {
    "data": ("04a45e23fc8db736f6db9d2a9b1b033456d9144b3080904a0d63496514d5b3e4",
             "f0fd3071a236d78a7586b24071c7f4bcb08e24d27580d9566462bb28541ad2b2",
             191),
    "task": ("f1e1edfe2fe754c487632092f1e6cf35c0619d98d0f580e874136be4d969bfc1",
             "20952c2a60de72cac24db8421ee0c41c799db8926c7d7005f9e3560f6db18f46",
             155),
}


@pytest.fixture(scope="module")
def demo_trace():
    config = AirshedConfig(dataset=get_dataset("demo"), hours=1)
    return SequentialAirshed(config).run().trace


def sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("variant", ["data", "task"])
def test_exports_of_the_demo_replays_are_byte_identical(demo_trace, variant):
    tracer = Tracer()
    replay(variant, demo_trace, CRAY_T3E, 8, tracer=tracer)
    chrome, rows, nspans = PINNED[variant]
    assert len(tracer.spans) == nspans
    assert sha(chrome_trace(tracer)) == chrome
    assert sha(csv_rows(tracer)) == rows
