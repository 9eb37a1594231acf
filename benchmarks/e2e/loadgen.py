"""Drive a campaign service over HTTP: closed loops and timed schedules.

One load-generator process, at most two threads: two closed-loop
clients, or one submitter plus one poller.  Every campaign becomes a
:class:`Sample` carrying the four instants the metrics are made of:
when it was *due*, when the submit went out, when the ack came back and
when a status poll first saw it terminal.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.service.client import TERMINAL, ServiceClient, ServiceError

from benchmarks.e2e.workloads import Campaign

__all__ = ["LoadGen", "Sample"]

#: A campaign is polled at 5% of its age, at least every 2 ms and at
#: most every 50 ms: completion is seen within max(2 ms, 5%) of the true
#: latency.  A status request hashes every spec of the campaign under
#: the service lock, so polling harder than this measures polling.
POLL_S = 0.002
POLL_SHARE = 0.05
POLL_MAX_S = 0.05
#: One poll step is POLL_S plus a ~3 ms status round trip, as long as a
#: cached campaign takes, so a fixed first poll would sort latencies into
#: "seen by poll 1" and "seen by poll 2" with nothing between, and the
#: median would jump a step whenever the split crossed one half.  The
#: first poll of campaign i therefore goes out frac(i * golden ratio) of
#: a step after the ack: consecutive campaigns cover the step evenly and
#: the poll grid adds a uniform 0..step to every latency instead.
FIRST_POLL_SPREAD_S = 0.005
_GOLDEN = 0.6180339887498949
#: A campaign not terminal this long after its submit counts as failed.
CAMPAIGN_TIMEOUT_S = 120.0


@dataclass
class Sample:
    campaign: Campaign
    due: float
    submit_start: float = 0.0
    submit_end: float = 0.0
    cid: Optional[str] = None
    seen: Optional[float] = None
    poll_at: float = 0.0
    status: str = "unsent"
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Due -> seen terminal (an open loop charges its own lateness)."""
        return self.seen - self.due

    @property
    def ack_s(self) -> float:
        return self.submit_end - self.submit_start


class LoadGen:
    #: The one clock of the benchmark (``tracing.SpanLog`` reads it too).
    clock = staticmethod(time.perf_counter)

    def __init__(self, client: ServiceClient):
        self.client = client
        self.status_rtts: List[float] = []
        self.other_requests = 0   # submits and result fetches
        self._submits = itertools.count()

    # -- one campaign ---------------------------------------------------
    def _submit(self, sample: Sample) -> None:
        sample.submit_start = self.clock()
        try:
            sample.cid = self.client.submit(sample.campaign.specs,
                                            tenant=sample.campaign.tenant)
            sample.status = "submitted"
        except (ServiceError, OSError) as exc:
            sample.status, sample.error = "refused", str(exc)
        sample.submit_end = self.clock()
        phase = next(self._submits) * _GOLDEN % 1.0
        sample.poll_at = sample.submit_end + phase * FIRST_POLL_SPREAD_S

    def _poll(self, sample: Sample) -> bool:
        """One status request; true once the sample needs no more."""
        t0 = self.clock()
        try:
            status = self.client.status(sample.cid)["status"]
        except (ServiceError, OSError) as exc:
            sample.status, sample.error = "unreachable", str(exc)
            return True
        now = self.clock()
        self.status_rtts.append(now - t0)
        sample.poll_at = now + min(POLL_MAX_S, max(
            POLL_S, POLL_SHARE * (now - sample.submit_end)))
        if status in TERMINAL:
            sample.status, sample.seen = status, now
            return True
        if now - sample.submit_end > CAMPAIGN_TIMEOUT_S:
            sample.status = "timeout"
            return True
        return False

    def rows(self, sample: Sample) -> List[Dict[str, Any]]:
        """The delivered job rows (fetched after timing stops)."""
        if sample.cid is None:
            return []
        self.other_requests += 1
        try:
            return self.client.results(sample.cid)
        except (ServiceError, OSError) as exc:
            sample.error = sample.error or str(exc)
            return []

    # -- loops ----------------------------------------------------------
    def closed(self, clients: Sequence[Sequence[Campaign]]) -> List[Sample]:
        """Each client submits its next campaign when the last is terminal."""
        per_client: List[List[Sample]] = [[] for _ in clients]

        def client_loop(campaigns: Sequence[Campaign],
                        out: List[Sample]) -> None:
            for campaign in campaigns:
                sample = Sample(campaign, due=self.clock())
                out.append(sample)
                self._submit(sample)
                while sample.cid is not None:
                    time.sleep(max(0.0, sample.poll_at - self.clock()))
                    if self._poll(sample):
                        break

        _run_threads([
            (client_loop, (campaigns, out))
            for campaigns, out in zip(clients, per_client)
        ])
        self.other_requests += sum(len(c) for c in clients)
        return [s for out in per_client for s in out]

    def schedule(self, campaigns: Sequence[Campaign]) -> List[Sample]:
        """Submit each campaign at its due time; poll them all."""
        t0 = self.clock()
        samples = [Sample(c, due=t0 + c.due_s) for c in campaigns]
        submitted: List[Sample] = []   # appended by the submitter only
        done = threading.Event()

        def submitter() -> None:
            try:
                for sample in samples:
                    delay = sample.due - self.clock()
                    if delay > 0:
                        time.sleep(delay)
                    self._submit(sample)
                    submitted.append(sample)
            finally:
                done.set()

        def poller() -> None:
            taken, waiting = 0, []
            while True:
                finished = done.is_set()
                fresh = submitted[taken:]
                taken += len(fresh)
                waiting += [s for s in fresh if s.cid is not None]
                waiting = [s for s in waiting
                           if s.poll_at > self.clock() or not self._poll(s)]
                if finished and not waiting:
                    return
                time.sleep(POLL_S)

        _run_threads([(submitter, ()), (poller, ())])
        self.other_requests += len(samples)
        return samples


def _run_threads(jobs) -> None:
    """Run ``(fn, args)`` pairs on threads; re-raise the first failure."""
    errors: List[BaseException] = []

    def guarded(fn, args) -> None:
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=job) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
