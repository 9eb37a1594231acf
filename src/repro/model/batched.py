"""Batched ensemble execution: N members, one chemistry sweep.

An :class:`~repro.model.ensemble.EmissionEnsemble` of N perturbed
inventories is N full simulations, yet ~97% of each is per-grid-point
chemistry and the members differ *only* in their emission factors.
:class:`BatchedEnsemble` exploits that: the member states are stacked
along the point axis into one ``(n_species, members*layers*points)``
structure-of-arrays block and integrated in a single
:meth:`~repro.chemistry.youngboris.YoungBorisSolver.integrate` call per
operator-split step, with ``member_edges`` keeping each member's BLAS
matmuls on its own columns.  Hourly transport setup (``pretrans`` wind
interpolation + SUPG factorisation) depends only on the wind field, so
it is computed once and shared by every member.

The contract is **bitwise identity**: each member's
:class:`~repro.model.results.AirshedResult` — final concentrations,
hourly means, surface snapshots and the full
:class:`~repro.model.results.WorkloadTrace` — equals what its own
:class:`~repro.model.sequential.SequentialAirshed` run produces, on
every chemistry backend.  The ground rules making that possible are
documented in ``docs/ENSEMBLES.md`` and pinned by
``tests/model/test_batched.py``:

* every solver stage except the two matmuls is elementwise per point,
  and per-point adaptivity (substep size, remaining time, error) never
  couples columns, so batching cannot perturb a member's trajectory;
* the matmuls run per member slice (``member_edges``), feeding dgemm
  exactly the operands the independent run would;
* phases that are *not* per-point run per member: the aerosol step
  (its condensation sink is a domain-global mean), vertical diffusion,
  transport application, and all I/O packing.

Because batching is exact over *any* subset, the scheduler can fuse
only the uncached members of an ensemble group and still hit the
per-member science cache for the rest (see ``repro.sched.runner``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.model.config import AirshedConfig
from repro.model.ensemble import EmissionEnsemble, EnsembleSummary
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult
from repro.model.sequential import TRACKED_SPECIES, hour_loop
from repro.observe.tracer import Tracer

__all__ = ["BatchedEnsemble", "run_batched"]

#: Config fields that must agree for members to share one physics
#: (solver controls, transport setup, step-count bounds, run window).
_SHARED_FIELDS = (
    "hours", "start_hour", "min_steps", "max_steps", "theta",
    "boundary_relax", "chem_eps", "chem_max_substeps",
    "track_surface_fields",
)


def _check_fusable(configs: Sequence[AirshedConfig]) -> None:
    if not configs:
        raise ValueError("need at least one member config")
    head = configs[0]
    for cfg in configs[1:]:
        for f in _SHARED_FIELDS:
            if getattr(cfg, f) != getattr(head, f):
                raise ValueError(
                    f"member configs disagree on {f!r}: cannot share "
                    "physics across the batch"
                )
        if cfg.dataset.shape != head.dataset.shape:
            raise ValueError("member datasets have different shapes")
        if cfg.dataset.name != head.dataset.name:
            raise ValueError("member datasets derive from different bases")


def run_batched(
    configs: Sequence[AirshedConfig],
    tracer: Optional[Tracer] = None,
) -> List[AirshedResult]:
    """Run member configs as one batched sweep; per-member results.

    The configs must share everything except their dataset's emission
    scaling (``PerturbedDataset`` members of one base dataset).  Each
    returned :class:`AirshedResult` is bitwise identical to running the
    corresponding config through :class:`SequentialAirshed` alone —
    batching over any subset of members is exact, which the scheduler
    relies on when some members are already science-cached.
    """
    _check_fusable(configs)
    return hour_loop(
        configs, AirshedPhysics(configs[0]),
        tracer if tracer is not None else Tracer(),
    )


class BatchedEnsemble(EmissionEnsemble):
    """An :class:`EmissionEnsemble` executed as one batched sweep.

    Same membership, seeding (``seed*7919 + index``) and summary as the
    independent runner — and, by the batching ground rules, the same
    results bit for bit — at a small multiple of single-run cost
    instead of N times it (see ``docs/PERFORMANCE.md`` for measured
    throughput).
    """

    def __init__(self, config: AirshedConfig, members: int = 8,
                 sigma: float = 0.3, seed: int = 0,
                 tracer: Optional[Tracer] = None):
        super().__init__(config, members=members, sigma=sigma, seed=seed)
        self.tracer = tracer if tracer is not None else Tracer()

    def run_members(self) -> List[AirshedResult]:
        """Per-member results, bitwise equal to N independent runs."""
        configs = [self.member_config(i) for i in range(self.members)]
        return run_batched(configs, tracer=self.tracer)

    def run(self) -> EnsembleSummary:
        results = self.run_members()
        series: Dict[str, List[np.ndarray]] = {
            s: [] for s in TRACKED_SPECIES
        }
        for result in results:
            for s in TRACKED_SPECIES:
                series[s].append(result.species_series(s))
        stacked = {s: np.vstack(v) for s, v in series.items()}
        return EnsembleSummary(
            members=self.members,
            sigma=self.sigma,
            mean={s: v.mean(axis=0) for s, v in stacked.items()},
            std={s: v.std(axis=0) for s, v in stacked.items()},
            peaks={s: v.max(axis=1) for s, v in stacked.items()},
        )
