"""Result containers: workload traces and run summaries.

The central artefact is the :class:`WorkloadTrace`.  A sequential run of
the real numerics records, deterministically, every quantity that
determines parallel performance:

* per hour: input/output byte counts, sequential preprocessing ops, and
  the runtime-chosen number of steps;
* per step: transport ops *per layer*, chemistry ops *per grid point*
  (the load the distributions have to spread), and the replicated
  aerosol ops.

Replaying a trace on the simulated machine for any (machine, P) is then
exact and cheap — precisely the decomposition the paper's Section 4
performance model exploits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "StepTrace",
    "HourTrace",
    "WorkloadTrace",
    "AirshedResult",
    "concat_results",
    "freeze_arrays",
]


@dataclass
class StepTrace:
    """Work counts of one main-loop step (transport/chemistry/transport)."""

    transport1_ops: np.ndarray  # (layers,) ops per layer, first half-step
    chemistry_ops: np.ndarray   # (npoints,) ops per grid column (gas+vertical)
    aerosol_ops: float          # replicated ops
    transport2_ops: np.ndarray  # (layers,) ops per layer, second half-step

    def total_ops(self) -> float:
        return float(
            self.transport1_ops.sum()
            + self.chemistry_ops.sum()
            + self.aerosol_ops
            + self.transport2_ops.sum()
        )


@dataclass
class HourTrace:
    """Work counts of one simulated hour."""

    hour: int
    input_bytes: int
    input_ops: float
    pretrans_ops: float
    nsteps: int
    steps: List[StepTrace]
    output_bytes: int
    output_ops: float

    def io_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


@dataclass
class WorkloadTrace:
    """Deterministic record of one full Airshed run's work."""

    dataset_name: str
    shape: Tuple[int, int, int]  # (species, layers, points)
    hours: List[HourTrace] = field(default_factory=list)

    @property
    def n_species(self) -> int:
        return self.shape[0]

    @property
    def layers(self) -> int:
        return self.shape[1]

    @property
    def npoints(self) -> int:
        return self.shape[2]

    @property
    def nhours(self) -> int:
        return len(self.hours)

    def total_steps(self) -> int:
        return sum(h.nsteps for h in self.hours)

    def total_ops_by_phase(self) -> Dict[str, float]:
        """Sequential op totals per phase (for the performance model)."""
        out = {"transport": 0.0, "chemistry": 0.0, "aerosol": 0.0, "io": 0.0}
        for h in self.hours:
            out["io"] += h.input_ops + h.pretrans_ops + h.output_ops
            for s in h.steps:
                out["transport"] += float(
                    s.transport1_ops.sum() + s.transport2_ops.sum()
                )
                out["chemistry"] += float(s.chemistry_ops.sum())
                out["aerosol"] += s.aerosol_ops
        return out

    def total_io_bytes(self) -> int:
        return sum(h.io_bytes() for h in self.hours)

    def expected_comm_steps(self) -> int:
        """Communication phases of the data-parallel main loop.

        Per step: ``D_Trans->D_Chem``, ``D_Chem->D_Repl`` and
        ``D_Repl->D_Trans`` (the last entering the second transport).
        Per hour: one end-of-hour output gather.  Plus the single
        initial ``D_Repl->D_Trans`` of the first step of the run (the
        array starts replicated; afterwards each hour already begins in
        ``D_Trans``): ``sum_h (3*nsteps_h + 1) + 1``.
        """
        return sum(3 * h.nsteps + 1 for h in self.hours) + 1


@dataclass
class AirshedResult:
    """Output of a full (sequential or parallel) Airshed run."""

    trace: WorkloadTrace
    final_conc: np.ndarray                    # (species, layers, points)
    hourly_mean: Dict[str, List[float]]       # species -> per-hour domain mean
    hourly_surface: Optional[List[np.ndarray]] = None  # per-hour layer-0 fields

    @cached_property
    def final_conc_sha256(self) -> str:
        """SHA-256 of ``final_conc``'s bytes, derived once per object.

        Always computed from the array this process holds (fresh from
        the numerics or decoded from a cache entry) and never pickled,
        so a stored result cannot vouch for itself.
        """
        return hashlib.sha256(self.final_conc.tobytes()).hexdigest()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("final_conc_sha256", None)
        return state

    def species_series(self, name: str) -> np.ndarray:
        if name not in self.hourly_mean:
            raise KeyError(f"no series recorded for species {name!r}")
        return np.asarray(self.hourly_mean[name])

    def peak(self, name: str) -> float:
        """Peak hourly domain-mean of a species over the run."""
        return float(self.species_series(name).max())


def freeze_arrays(obj: Any) -> None:
    """Mark every array of a result tree (dataclasses, dicts, lists)
    read-only: what a memo hands to every caller must not be written."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, dict):
        for value in obj.values():
            freeze_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            freeze_arrays(value)
    elif hasattr(obj, "__dict__"):
        freeze_arrays(vars(obj))


def concat_results(parts: List["AirshedResult"]) -> AirshedResult:
    """Join consecutive chunk results into one run's result.

    ``parts`` must be results of back-to-back runs of the same dataset
    (hour ``k`` resumed from hour ``k-1``'s final state, e.g. via
    :mod:`repro.model.checkpoint`).  Because each hour's outputs depend
    only on the entering concentrations and the hour of day, the joined
    result is bitwise identical to an unbroken run over the same hours.
    """
    if not parts:
        raise ValueError("concat_results needs at least one part")
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    for p in parts[1:]:
        if p.trace.dataset_name != first.trace.dataset_name:
            raise ValueError(
                f"cannot concat results of {p.trace.dataset_name!r} onto "
                f"{first.trace.dataset_name!r}"
            )
        if p.trace.shape != first.trace.shape:
            raise ValueError("cannot concat results of different shapes")
        if set(p.hourly_mean) != set(first.hourly_mean):
            raise ValueError("cannot concat results tracking different species")
    trace = WorkloadTrace(
        dataset_name=first.trace.dataset_name,
        shape=first.trace.shape,
        hours=[h for p in parts for h in p.trace.hours],
    )
    hourly_mean = {
        s: [v for p in parts for v in p.hourly_mean[s]] for s in first.hourly_mean
    }
    if all(p.hourly_surface is not None for p in parts):
        surface = [f for p in parts for f in p.hourly_surface]
    else:
        surface = None
    return AirshedResult(
        trace=trace,
        final_conc=parts[-1].final_conc,
        hourly_mean=hourly_mean,
        hourly_surface=surface,
    )
