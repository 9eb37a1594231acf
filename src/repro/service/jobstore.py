"""Campaign state for the service, as a fold over the durable log.

:class:`JournalJobStore` — the service's
:class:`~repro.sched.interfaces.JobStore` — *is*
:class:`repro.durable.AppendLog` (``journal.jsonl`` + ``snapshot.json``
under the service root); the durability contract is stated there.

:class:`ServiceState` is the pure fold of those events into
:class:`CampaignRecord` objects — the daemon replays it on startup and
re-enqueues whatever was in flight (each job's ``job`` event is written
only after its result is cached, so a resumed job either replays from
the full-job cache or genuinely never ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.durable import AppendLog
from repro.sched.job import JobSpec

__all__ = ["CampaignRecord", "JournalJobStore", "ServiceState"]

#: Campaign states a restart must re-enqueue.
ACTIVE_STATUSES = ("queued", "running")
#: Campaign states that are final.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


@dataclass
class CampaignRecord:
    """One submitted campaign, as folded from the journal."""

    cid: str
    tenant: str
    specs: List[JobSpec]
    workers: int
    fuse: bool = True
    status: str = "queued"
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Unique job count; with ``_pending`` derived once, from ``specs``
    #: as constructed, and kept current by :meth:`deliver`.
    n_jobs: int = field(init=False)
    _pending: Dict[str, JobSpec] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        unique: Dict[str, JobSpec] = {}
        for spec in self.specs:
            unique.setdefault(spec.key, spec)
        self.n_jobs = len(unique)
        self._pending = {
            key: spec for key, spec in unique.items() if key not in self.jobs
        }

    @property
    def n_done(self) -> int:
        return len(self.jobs)

    def pending_specs(self) -> List[JobSpec]:
        """Unique specs with no durable job outcome yet, submission
        order."""
        return list(self._pending.values())

    def deliver(self, key: str, row: Dict[str, Any]) -> None:
        """Record one job's durable outcome (the only writer of
        ``jobs``)."""
        self.jobs[key] = row
        self._pending.pop(key, None)
        if self.status == "queued":
            self.status = "running"

    def summary(self) -> Dict[str, Any]:
        return {
            "cid": self.cid,
            "tenant": self.tenant,
            "status": self.status,
            "n_jobs": self.n_jobs,
            "n_done": self.n_done,
            "n_ok": sum(
                1 for j in self.jobs.values()
                if j.get("status") in ("ok", "cached")
            ),
            "workers": self.workers,
        }


#: The durable log itself, under its service-side name.
JournalJobStore = AppendLog


class ServiceState:
    """The pure fold of journal events into campaign records."""

    def __init__(self) -> None:
        self.campaigns: Dict[str, CampaignRecord] = {}
        self.next_seq = 1

    @classmethod
    def fold(cls, events: Iterator[Dict[str, Any]]) -> "ServiceState":
        state = cls()
        for event in events:
            state.apply(event)
        return state

    def apply(self, event: Dict[str, Any]) -> None:
        etype = event.get("type")
        cid = event.get("cid", "")
        if etype == "submit":
            specs, status = [], "queued"
            for d in event.get("specs", []):
                try:
                    specs.append(JobSpec.from_dict(d))
                except (TypeError, ValueError):
                    # Journaled by a version that accepted what this one
                    # refuses (an impossible task mapping): it can never
                    # run, so the campaign is failed, not re-enqueued.
                    status = "failed"
            self.campaigns[cid] = CampaignRecord(
                cid=cid,
                tenant=event.get("tenant", "default"),
                specs=specs,
                workers=int(event.get("workers", 1)),
                fuse=bool(event.get("fuse", True)),
                status=status,
            )
            try:
                self.next_seq = max(self.next_seq, int(cid[1:]) + 1)
            except ValueError:
                pass
            return
        record = self.campaigns.get(cid)
        if record is None:
            return  # event for a campaign compacted away
        if etype == "job":
            record.deliver(event["key"], event.get("row", {}))
        elif etype == "done":
            record.status = event.get("status", "done")
        elif etype == "cancel":
            record.status = "cancelled"

    def to_events(self) -> List[Dict[str, Any]]:
        """Re-serialize the folded state as a minimal event list."""
        events: List[Dict[str, Any]] = []
        for cid in sorted(self.campaigns):
            record = self.campaigns[cid]
            events.append({
                "type": "submit",
                "cid": record.cid,
                "tenant": record.tenant,
                "specs": [s.to_dict() for s in record.specs],
                "workers": record.workers,
                "fuse": record.fuse,
            })
            for key in sorted(record.jobs):
                events.append({
                    "type": "job", "cid": record.cid, "key": key,
                    "row": record.jobs[key],
                })
            if record.status in TERMINAL_STATUSES:
                etype = "cancel" if record.status == "cancelled" else "done"
                events.append({
                    "type": etype, "cid": record.cid,
                    "status": record.status,
                })
        return events
