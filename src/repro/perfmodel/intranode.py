"""Intra-job multi-core pricing for the tiled chemistry engine.

The Section 4 model prices a job's *science* seconds from its workload
trace and a host rate; the tiled chemistry engine
(:mod:`repro.chemistry.tiling`) adds a second resource axis — cores
handed to one job's worker pool.  Only the chemistry operator tiles (the
transport, aerosol and I/O phases stay single-threaded), and within
chemistry a serial residue remains on the dispatching thread: the two
BLAS matmuls per mechanism evaluation, the ``np.exp`` asymptotic
updates, the stiff-index merge and the pool dispatch itself.  That is
textbook Amdahl structure:

    speedup(c) = 1 / ((1 - f·e) + f·e / c)

with ``f`` the chemistry fraction of the job's total ops (measured per
trace via ``WorkloadTrace.total_ops_by_phase``; ~0.97 on LA-sized
grids) and ``e`` the tiled fraction *within* chemistry after the serial
residue (:data:`TILE_EFFICIENCY`).

The model is deliberately conservative and deterministic — it feeds
planner packing decisions (worker-pool width vs. per-job cores), not
science.  Results are bitwise identical at every core count, so
``cores_per_job`` never enters a job's content hash.
"""

from __future__ import annotations

__all__ = ["TILE_EFFICIENCY", "chemistry_fraction", "intra_job_speedup"]

#: Fraction of the chemistry operator that actually tiles.  The serial
#: residue — BLAS matmuls, asymptotic ``exp`` updates, stiff-index
#: merge, pool dispatch — stays on the dispatching thread (measured on
#: the LA chemistry hour; conservative on larger grids where the
#: elementwise stages grow linearly and the residue does not).
TILE_EFFICIENCY = 0.80


def chemistry_fraction(trace) -> float:
    """Chemistry's share of a trace's total ops (0 when trace is empty)."""
    by_phase = trace.total_ops_by_phase()
    total = sum(by_phase.values())
    if total <= 0:
        return 0.0
    return float(by_phase.get("chemistry", 0.0)) / float(total)


def intra_job_speedup(
    cores: int,
    chem_fraction: float,
    efficiency: float = TILE_EFFICIENCY,
) -> float:
    """Amdahl wall-clock speedup of one job given ``cores`` tile workers.

    ``chem_fraction`` is the job's chemistry share of total ops;
    ``efficiency`` the tiled fraction within chemistry.  ``cores <= 1``
    (or a degenerate fraction) returns exactly 1.0 so single-core
    pricing is untouched.
    """
    if cores <= 1:
        return 1.0
    f = min(max(chem_fraction, 0.0), 1.0) * min(max(efficiency, 0.0), 1.0)
    if f <= 0.0:
        return 1.0
    return 1.0 / ((1.0 - f) + f / float(cores))
