"""Content-addressed, append-only calibration store.

One :class:`Observation` is a single per-phase measurement keyed by
*phase key* — ``dataset × machine × P × variant × chem_workers ×
phase`` — harvested from :mod:`repro.observe` span traces, campaign
reports, or simulated-replay timelines.  The :class:`CalibrationStore`
persists observations (and the autotuner's decision records) as events
in a :class:`repro.durable.AppendLog` — the same ``journal.jsonl`` +
``snapshot.json`` pair, under the same durability contract, as the
service's job journal.

Every observation is **content addressed**: its digest covers the
measurement payload but *not* the frozen provenance timestamp, so
re-ingesting the same campaign twice is idempotent (the duplicate
collapses to one record) and the store's ``generation`` — the number of
distinct observation digests — advances only on genuinely new data.
The refit layer (:func:`repro.perfmodel.calibrate.refit_observations`)
never reads timestamps; they exist purely so a human can audit when a
measurement arrived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.durable import AppendLog, corrupt

__all__ = [
    "Observation",
    "CalibrationStore",
    "ScanResult",
    "fingerprint_digests",
    "utc_timestamp",
]

#: Observation fields that are provenance, not measurement: excluded
#: from the content digest so identical measurements dedupe across
#: ingest runs.
_PROVENANCE_FIELDS = ("timestamp",)


def utc_timestamp() -> str:
    """Frozen provenance stamp for newly harvested observations.

    The wall-clock read lives here and only here: timestamps are
    excluded from every digest and phase key and never read by the
    refit or the autotuner (see ``.repro-determinism-allow``).
    """
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def fingerprint_digests(digests: Iterable[str]) -> str:
    """Order-independent content hash of an observation-digest set."""
    ordered = sorted(digests)
    if not ordered:
        return ""
    return hashlib.sha256("\n".join(ordered).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Observation:
    """One measured (phase key → seconds) sample.

    ``observed_s`` is the measurement; ``predicted_s`` (when known at
    harvest time) feeds drift detection; ``ops`` feeds compute-rate
    refits; ``messages`` / ``bytes_moved`` / ``bytes_copied`` feed the
    L/G/H refit (comm phases from simulated timelines).  ``machine`` is
    ``"host"`` for wall-clock measurements of the executing workstation
    and a machine short name (``t3e`` ...) for simulated-replay
    measurements.
    """

    dataset: str
    machine: str
    nprocs: int
    variant: str
    cores_per_job: int
    phase: str
    observed_s: float
    predicted_s: Optional[float] = None
    ops: Optional[float] = None
    messages: Optional[float] = None
    bytes_moved: Optional[float] = None
    bytes_copied: Optional[float] = None
    hours: int = 0
    source: str = ""
    timestamp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.observed_s < 0:
            raise ValueError("observed_s must be non-negative")
        if self.nprocs < 0 or self.cores_per_job < 0:
            raise ValueError("nprocs/cores_per_job must be non-negative")

    @property
    def phase_key(self) -> str:
        """``dataset|machine|pP|variant|cC|phase`` — the calibration key."""
        return "|".join((
            self.dataset, self.machine, f"p{self.nprocs}", self.variant,
            f"c{self.cores_per_job}", self.phase,
        ))

    def payload(self) -> Dict[str, Any]:
        """The digested measurement fields (provenance excluded)."""
        d = asdict(self)
        for field in _PROVENANCE_FIELDS:
            d.pop(field, None)
        return d

    @property
    def digest(self) -> str:
        """Content hash of the measurement payload."""
        blob = json.dumps(self.payload(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Observation":
        return cls(**d)


@dataclass
class ScanResult:
    """Tolerant load of a store: data plus any integrity errors."""

    observations: List[Observation]
    decisions: List[Dict[str, Any]]
    errors: List[str]


class CalibrationStore:
    """Observations and decisions as a fold over one durable log.

    ``add`` / ``record_decision`` return only once the event is fsynced;
    the strict loaders raise on any corruption, :meth:`scan` reports it
    and keeps every good record (see :mod:`repro.durable` for the
    torn-tail and compaction rules).
    """

    def __init__(self, root: Union[str, Path]):
        self._log = AppendLog(root)
        self.root = self._log.root
        self.journal_path = self._log.journal_path
        self.snapshot_path = self._log.snapshot_path
        self._digest_cache: Optional[set] = None

    # -- writing -------------------------------------------------------
    def add(self, obs: Observation) -> bool:
        """Durably append one observation; ``False`` if already stored.

        Dedupe is by content digest, so the same measurement with a
        different provenance timestamp is still a duplicate.
        """
        digests = self._digests()
        if obs.digest in digests:
            return False
        self._log.append({
            "type": "obs", "digest": obs.digest, "obs": obs.to_dict(),
        })
        digests.add(obs.digest)
        return True

    def add_many(self, observations: Iterable[Observation]) -> int:
        """Append each new observation; returns how many were new."""
        return sum(1 for obs in observations if self.add(obs))

    def record_decision(self, record: Dict[str, Any]) -> None:
        """Journal one autotuner decision record (never deduped)."""
        self._log.append({"type": "decision", "record": record})

    # -- reading -------------------------------------------------------
    def scan(self) -> ScanResult:
        """Tolerant load: observations, decisions and integrity errors.

        A stored digest that no longer matches its payload (bit rot or
        a hand-edited journal) is reported and the record skipped; the
        strict loaders (:meth:`observations`) raise instead.
        """
        errors: List[str] = []
        observations, decisions = self._fold(
            self._log.events(errors), errors=errors
        )
        return ScanResult(observations, decisions, errors)

    def _fold(self, events, errors: Optional[List[str]] = None):
        observations: List[Observation] = []
        decisions: List[Dict[str, Any]] = []
        seen: set = set()
        for event in events:
            etype = event.get("type")
            if etype == "decision":
                decisions.append(event.get("record", {}))
                continue
            if etype != "obs":
                continue
            try:
                obs = Observation.from_dict(event.get("obs", {}))
            except (TypeError, ValueError) as exc:
                corrupt(f"malformed observation record: {exc}", errors)
                continue
            stored = event.get("digest")
            if stored is not None and stored != obs.digest:
                corrupt(f"digest mismatch for {obs.phase_key}: stored "
                        f"{stored[:12]}, payload {obs.digest[:12]}", errors)
                continue
            if obs.digest in seen:
                continue
            seen.add(obs.digest)
            observations.append(obs)
        return observations, decisions

    def observations(self) -> List[Observation]:
        """Every distinct stored observation (strict: corruption raises)."""
        observations, _ = self._fold(self._log.events())
        return observations

    def decisions(self) -> List[Dict[str, Any]]:
        """Journaled autotuner decision records, oldest first."""
        _, decisions = self._fold(self._log.events())
        return decisions

    def _digests(self) -> set:
        if self._digest_cache is None:
            self._digest_cache = {
                obs.digest for obs in self.observations()
            }
        return self._digest_cache

    # -- calibration identity ------------------------------------------
    @property
    def generation(self) -> int:
        """Number of distinct observations; 0 for an empty store."""
        return len(self.observations())

    @property
    def fingerprint(self) -> str:
        """Order-independent content hash of the whole observation set."""
        return fingerprint_digests(self._digests())

    def stats(self) -> Dict[str, Any]:
        scan = self.scan()
        by_key: Dict[str, int] = {}
        for obs in scan.observations:
            by_key[obs.phase_key] = by_key.get(obs.phase_key, 0) + 1
        return {
            "root": str(self.root),
            "generation": len(scan.observations),
            "fingerprint": fingerprint_digests(
                o.digest for o in scan.observations
            ),
            "n_observations": len(scan.observations),
            "n_decisions": len(scan.decisions),
            "n_errors": len(scan.errors),
            "phase_keys": dict(sorted(by_key.items())),
        }

    # -- compaction ----------------------------------------------------
    def compact(self) -> None:
        """Fold the journal into the snapshot (bounded on-disk state)."""
        observations, decisions = self._fold(self._log.events())
        events = [
            {"type": "obs", "digest": obs.digest, "obs": obs.to_dict()}
            for obs in observations
        ] + [{"type": "decision", "record": rec} for rec in decisions]
        self._log.compact({"events": events})
