"""Campaign job descriptions and their content-addressed identity.

A :class:`JobSpec` is the unit of campaign work: one simulation
scenario (dataset, hours, emission perturbation) evaluated under one
execution configuration (machine profile, node count, model variant).
Its identity is a **content hash** over the fields that determine the
outputs, so

* resubmitting the same spec hits the result cache,
* duplicate specs inside one campaign collapse to a single execution,
* presentation-only fields (``tag``) never fragment the cache.

Two hash scopes matter.  The *science* of a job — the sequential
numerics producing the :class:`~repro.model.results.AirshedResult` —
depends only on (dataset, hours, start_hour, scenario), not on which
simulated machine the trace is later replayed on.  ``science_key``
hashes exactly that subset, so a machine-comparison grid over M
machines and N node counts runs the expensive numerics once and replays
them M*N times.  ``key`` additionally hashes the execution
configuration and names the full job result.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

from repro.model.dataparallel import ParallelTiming
from repro.model.mainloop import task_mapping

__all__ = ["JobSpec", "JobResult", "VARIANTS", "JOB_STATUSES"]

#: Execution variants a job can request.  ``sequential`` is the pure
#: science run; ``data`` / ``task`` additionally replay the recorded
#: workload on the simulated machine (Sections 2.2 and 5).
VARIANTS = ("sequential", "data", "task")

#: Terminal states a job can end a campaign in.
JOB_STATUSES = ("ok", "cached", "failed", "timeout")

_SCIENCE_FIELDS = (
    "dataset",
    "hours",
    "start_hour",
    "perturb_seed",
    "perturb_sigma",
)
_EXEC_FIELDS = ("variant", "machine", "nprocs", "io_nodes")
_FIELD_TYPES = {
    "dataset": str, "variant": str, "machine": str, "tag": str,
    "hours": int, "start_hour": int, "nprocs": int, "io_nodes": int,
    "cores_per_job": int,
}

# Every dataclass field must appear in _SCIENCE_FIELDS, _EXEC_FIELDS or
# the class's PRESENTATION_FIELDS — the FX040 key-drift verifier
# (repro.analyze.campaign) introspects live instances to enforce it, so
# a new physics field that is not hashed fails `repro lint --campaign`.


@dataclass(frozen=True)
class JobSpec:
    """One campaign job.

    Parameters
    ----------
    dataset:
        Registered dataset name (:mod:`repro.datasets.registry`).
    hours / start_hour:
        Simulated episode length and local start hour.
    variant:
        ``sequential`` | ``data`` | ``task`` (see :data:`VARIANTS`).
    machine / nprocs / io_nodes:
        Replay configuration for the parallel variants; ignored by
        ``sequential`` jobs and excluded from their content hash.
    perturb_seed / perturb_sigma:
        When ``perturb_seed`` is not ``None``, the job runs a
        :class:`~repro.model.ensemble.PerturbedDataset` member with a
        log-normal emission perturbation — the ensemble-sweep scenario.
    cores_per_job:
        Worker-pool width handed to the job's tiled chemistry engine
        (:mod:`repro.chemistry.tiling`).  Results are bitwise identical
        at every core count — the tiling is a wall-clock knob — so this is
        a presentation/placement field, never hashed: resubmitting a
        cached job with a different core count must stay a cache hit.
    tag:
        Free-form label for reports; never hashed.
    """

    #: Fields that are presentation-only by design: excluded from the
    #: content hash AND exempt from the FX040 drift check.  Subclasses
    #: adding cosmetic fields must extend this tuple.  ``cores_per_job``
    #: qualifies because tiled chemistry is bitwise-invariant in the
    #: worker count (pinned by tests/chemistry/test_tiled.py).
    PRESENTATION_FIELDS = ("tag", "cores_per_job")

    dataset: str = "demo"
    hours: int = 2
    start_hour: int = 6
    variant: str = "data"
    machine: str = "t3e"
    nprocs: int = 64
    io_nodes: int = 1
    perturb_seed: Optional[int] = None
    perturb_sigma: float = 0.0
    cores_per_job: int = 1
    tag: str = ""

    def __post_init__(self) -> None:
        # Specs arrive from outside the program (HTTP submit, journals):
        # a wrong type must be refused here, not deep inside a wave.
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(
                    f"{name} must be {kind.__name__}, not {value!r}"
                )
        if not isinstance(self.perturb_seed, (int, type(None))):
            raise TypeError("perturb_seed must be an integer or null")
        if self.hours < 1:
            raise ValueError("hours must be >= 1")
        if self.cores_per_job < 1:
            raise ValueError("cores_per_job must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if self.variant != "sequential" and self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.variant == "task":
            # An impossible mapping is refused before any science runs.
            task_mapping(self.nprocs, self.io_nodes)
        if self.perturb_sigma < 0:
            raise ValueError("perturb_sigma must be non-negative")

    # -- identity ------------------------------------------------------
    # The three keys are pure functions of frozen fields, so each is
    # derived once per instance (``cached_property`` writes straight into
    # ``__dict__``, which a frozen dataclass allows).  ``replace()`` goes
    # through ``__init__`` and so yields an instance that re-derives.
    def science_fields(self) -> Dict[str, Any]:
        d = asdict(self)
        return {k: d[k] for k in _SCIENCE_FIELDS}

    def exec_fields(self) -> Dict[str, Any]:
        d = asdict(self)
        out = {k: d[k] for k in _EXEC_FIELDS}
        if self.variant == "sequential":
            # Machine/node choices don't affect a sequential job.
            out.update(machine="", nprocs=0, io_nodes=0)
        return out

    @cached_property
    def science_key(self) -> str:
        """Content hash of the fields determining the science output."""
        return _digest(self.science_fields())

    @cached_property
    def key(self) -> str:
        """Content hash naming the full job (science + execution)."""
        return _digest({**self.science_fields(), **self.exec_fields()})

    @cached_property
    def ensemble_key(self) -> Optional[str]:
        """Content hash of the science fields minus the member seed.

        Two jobs with the same ``ensemble_key`` are members of one
        emission ensemble: identical base dataset, episode window and
        perturbation width, differing only in ``perturb_seed``.  Their
        sequential numerics can then run as one batched sweep
        (:func:`repro.model.batched.run_batched`) with bitwise-identical
        per-member results — which is why the planner may fuse them
        without touching cache semantics.  ``None`` for unperturbed
        jobs: a lone deterministic run has nothing to fuse with.
        """
        if self.perturb_seed is None:
            return None
        fields = self.science_fields()
        fields.pop("perturb_seed")
        return _digest(fields)

    # -- presentation --------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable one-liner for plans and reports."""
        if self.tag:
            return self.tag
        parts = [self.dataset, f"{self.hours}h", self.variant]
        if self.variant != "sequential":
            parts.append(f"{self.machine}/{self.nprocs}")
        if self.perturb_seed is not None:
            parts.append(f"member{self.perturb_seed}")
        if self.cores_per_job > 1:
            parts.append(f"{self.cores_per_job}c")
        return ":".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobSpec":
        return cls(**d)


def _digest(fields: Dict[str, Any]) -> str:
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if os.environ.get("REPRO_SANITIZE"):
        # Sanitizer mode: shim every hash input through the stability
        # checks (insertion order, JSON round-trip, cross-process
        # ledger).  Imported lazily — the analyze package must not load
        # on the hot path, and importing it here at module scope would
        # be circular (analyze.campaign imports this module).
        from repro.analyze.sanitize import check_digest

        check_digest(fields, payload, digest)
    return digest


@dataclass
class JobResult:
    """Terminal record of one campaign job.

    ``result`` is the science output (``None`` when the job failed);
    ``timing`` is the simulated-machine replay summary for parallel
    variants.  ``attempts`` counts executions actually started (0 for a
    pure cache hit); ``backoffs`` records the deterministic retry delays
    that were charged.
    """

    spec: JobSpec
    status: str
    result: Optional[Any] = None          # AirshedResult
    timing: Optional[ParallelTiming] = None
    attempts: int = 0
    retries: int = 0
    from_cache: bool = False
    science_cached: bool = False
    wall_s: float = 0.0
    predicted_s: float = 0.0
    error: str = ""
    backoffs: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def final_conc_sha256(self) -> Optional[str]:
        if self.result is None:
            return None
        return self.result.final_conc_sha256

    def summary_row(self) -> Dict[str, Any]:
        """Flat dict for report tables and JSON output."""
        return {
            "key": self.spec.key[:12],
            "job": self.spec.label,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "cached": self.from_cache,
            "science_cached": self.science_cached,
            "predicted_s": round(self.predicted_s, 4),
            "wall_s": round(self.wall_s, 4),
            "sha256": self.final_conc_sha256(),
            "error": self.error,
        }
