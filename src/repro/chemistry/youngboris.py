"""Young–Boris hybrid integrator for stiff chemical kinetics.

Airshed solves the chemistry (and vertical transport) operator ``Lcz``
with "the hybrid scheme of Young and Boris for stiff systems of ordinary
differential equations" (Young & Boris, J. Phys. Chem. 81, 1977).

The scheme writes each species' equation in production/loss form
``dc/dt = P - L*c`` and classifies species per point and per substep:

* **stiff** (``L*h`` large): use the asymptotic exponential update
  ``c(t+h) = P/L + (c - P/L) * exp(-L*h)``, exact for frozen P, L;
* **non-stiff**: explicit predictor.

A corrector pass re-evaluates ``P, L`` at the predicted state and
averages, giving second-order accuracy for the non-stiff species and a
stable treatment of the stiff ones.  Substep sizes adapt per grid point
to the fastest *non-stiff* timescale; everything is vectorised across
points with an active mask, so points in clean air take a handful of
substeps while the urban core takes many — the source of the chemistry
load variation the data distribution has to spread.

The integrator reports a deterministic operation count (substeps summed
over points, scaled by per-substep work), which drives the simulated
machine time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chemistry.mechanism import Mechanism

__all__ = ["ChemistryStats", "YoungBorisSolver"]

#: Abstract ops per (species, point) per substep: two mechanism
#: evaluations (predictor + corrector) plus the update arithmetic.
OPS_PER_SUBSTEP_PER_SPECIES = 60.0


@dataclass
class ChemistryStats:
    """Deterministic work accounting for one integration call."""

    substeps_total: int = 0
    max_substeps: int = 0
    points: int = 0
    ops: float = 0.0
    #: Substep attempts per point — the per-point work profile the
    #: workload trace records.  Merging accumulates elementwise when
    #: both sides profile the *same* point set (equal lengths); merging
    #: profiles of different lengths is a usage error and raises.
    per_point_substeps: Optional[np.ndarray] = None

    def merge(self, other: "ChemistryStats") -> None:
        self.substeps_total += other.substeps_total
        self.max_substeps = max(self.max_substeps, other.max_substeps)
        self.points += other.points
        self.ops += other.ops
        if other.per_point_substeps is not None:
            if self.per_point_substeps is None:
                self.per_point_substeps = other.per_point_substeps.copy()
            elif self.per_point_substeps.shape == other.per_point_substeps.shape:
                self.per_point_substeps = (
                    self.per_point_substeps + other.per_point_substeps
                )
            else:
                raise ValueError(
                    "cannot merge per_point_substeps profiles of different "
                    f"shapes {self.per_point_substeps.shape} vs "
                    f"{other.per_point_substeps.shape}"
                )


def _active_slices(
    idx: np.ndarray, edges: Optional[np.ndarray]
) -> Optional[List[Tuple[int, int]]]:
    """Member column ranges within the gathered active subset.

    ``idx`` is ascending, so the active columns of member ``j`` (global
    columns in ``[edges[j], edges[j+1])``) land contiguously in the
    gathered block; ``searchsorted`` finds where each member's run
    starts and stops.
    """
    if edges is None:
        return None
    cuts = np.searchsorted(idx, edges)
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


class YoungBorisSolver:
    """Hybrid stiff/non-stiff kinetics integrator.

    Parameters
    ----------
    mechanism:
        The compiled :class:`~repro.chemistry.mechanism.Mechanism`.
    eps:
        Relative accuracy target steering the adaptive substep size.
    stiff_threshold:
        Species with ``L*h > stiff_threshold`` take the asymptotic
        update (Young & Boris use ~1).
    min_substeps / max_substeps:
        Bounds on substeps per call, keeping work finite on
        pathological states.
    h_max:
        Hard cap on the substep length (seconds).  The asymptotic
        update freezes each stiff species' equilibrium over a substep;
        coupled stiff cycles (the NOx photostationary state) need that
        equilibrium refreshed on a tens-of-seconds cadence to converge.
    floor:
        Concentration floor (ppm); negative excursions are clipped.
    fast:
        Use the workspace-backed fast kernel
        (:mod:`repro.chemistry.kernel`).  Results are bitwise identical
        to the reference stages; ``fast=False`` selects the original
        allocation-per-substep implementation
        (:mod:`repro.chemistry.reference`) for cross-checking.
    workers / tile_cols / tile_min_cols:
        Multi-core tiling of the fast kernel's elementwise stages
        (:mod:`repro.chemistry.tiling`).  ``workers > 1`` (or an
        explicit ``tile_cols``) fans columns out over a persistent
        thread pool; results stay bitwise identical for every worker
        count and tile size, so this is purely a wall-clock knob.
        Ignored by the ``fast=False`` reference stages.  Whoever
        integrates with a pool owns it: call :meth:`close` when done.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        eps: float = 0.01,
        stiff_threshold: float = 1.0,
        min_substeps: int = 2,
        max_substeps: int = 300,
        h_max: float = 20.0,
        floor: float = 0.0,
        fast: bool = True,
        workers: int = 1,
        tile_cols: Optional[int] = None,
        tile_min_cols: int = 128,
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_substeps < 1 or max_substeps < min_substeps:
            raise ValueError("bad substep bounds")
        if h_max <= 0:
            raise ValueError("h_max must be positive")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.mechanism = mechanism
        self.eps = float(eps)
        self.stiff_threshold = float(stiff_threshold)
        self.min_substeps = int(min_substeps)
        self.max_substeps = int(max_substeps)
        self.h_max = float(h_max)
        self.floor = float(floor)
        self.fast = bool(fast)
        self.workers = int(workers)
        self.tile_cols = None if tile_cols is None else int(tile_cols)
        self.tile_min_cols = int(tile_min_cols)
        self._kern: Optional["FastKernel"] = None
        self._pool = None
        self._tile_seen: Optional[List[dict]] = None

    def _stages(self):
        """The stage backend, chosen once per call and never per substep.

        Both backends answer the same five calls (``evaluate``,
        ``gather_cols``, ``substep``, ``errmax``, ``scatter_cols``):
        the workspace-backed :class:`~repro.chemistry.kernel.FastKernel`
        or the allocation-per-substep oracle
        :class:`~repro.chemistry.reference.ReferenceStages`.
        """
        if not self.fast:
            from repro.chemistry.reference import ReferenceStages

            return ReferenceStages(self.mechanism)
        if self._kern is None:
            from repro.chemistry.kernel import FastKernel

            self._kern = FastKernel(self.mechanism)
        if self._pool is None and (
            self.workers > 1 or self.tile_cols is not None
        ):
            from repro.chemistry.tiling import TilePool

            self._pool = TilePool(self.workers)
            self._kern.configure_tiling(
                self._pool, self.tile_cols, self.tile_min_cols
            )
        return self._kern

    def close(self) -> None:
        """Release the tile worker pool (idempotent; pool is lazy)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._tile_seen = None
            if self._kern is not None:
                self._kern.configure_tiling(None)

    def tile_stats(self) -> list:
        """Per-worker ``{worker, busy_s, tasks, cols}`` accounting."""
        return [] if self._pool is None else self._pool.snapshot()

    def emit_tile_spans(self, tracer, start: float) -> None:
        """Emit one per-worker tile span covering ``[start, now]``.

        Each span carries the worker's *busy* seconds (time inside tile
        kernels since the previous emission) plus dispatch/column
        counts, nesting under whatever region span the caller holds
        open (the hour loop calls this inside its ``chemistry`` span).
        No-op without a pool — the single-span trace shape is unchanged.
        """
        stats = self.tile_stats()
        if not stats:
            return
        end = tracer.now()
        prev = self._tile_seen
        for w, cur in enumerate(stats):
            old = prev[w] if prev is not None else None
            busy = cur["busy_s"] - (old["busy_s"] if old else 0.0)
            tasks = cur["tasks"] - (old["tasks"] if old else 0)
            cols = cur["cols"] - (old["cols"] if old else 0)
            if tasks == 0:
                continue
            tracer.emit(
                f"chem:tile:w{w}", "compute", start, end,
                node=w, busy=min(busy, max(end - start, 0.0)),
                tasks=tasks, cols=cols,
            )
        self._tile_seen = stats

    # ------------------------------------------------------------------
    def choose_substeps(
        self, conc: np.ndarray, k: np.ndarray, dt: float,
        col_slices: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> np.ndarray:
        """Per-point substep counts from the non-stiff timescales.

        The step is limited by ``eps * c / |dc/dt|`` over the species
        that the hybrid scheme treats explicitly; stiff species are
        handled stably by the asymptotic update and do not constrain h.
        """
        c = np.atleast_2d(conc)
        P, L = self._stages().evaluate(c, k, col_slices)
        return self._substeps_from(P, L, c, dt)

    def _substeps_from(
        self, P: np.ndarray, L: np.ndarray, c: np.ndarray, dt: float
    ) -> np.ndarray:
        """Substep counts from an already-evaluated ``(P, L)`` state."""
        rate = np.abs(P - L * c)
        # Dynamic absolute scale: 1% of the point's largest mixing ratio
        # (so trace species near zero do not force the minimum step).
        atol = np.maximum(1e-4, 0.01 * c.max(axis=0, initial=0.0))
        tau = (c + atol[None, :]) / np.maximum(rate, 1e-30)
        # Only non-stiff species constrain the explicit step; stiff ones
        # are unconditionally stable under the asymptotic update.
        trial_h = dt / self.min_substeps
        nonstiff = (L * trial_h) <= self.stiff_threshold
        tau = np.where(nonstiff, tau, np.inf)
        # Allow ~20*eps relative change per substep (eps=0.01 -> 20%),
        # and never exceed the stiff-equilibrium refresh cadence h_max.
        h_point = np.maximum(np.min(tau, axis=0) * (20.0 * self.eps), 1e-12)
        h_point = np.minimum(h_point, self.h_max)
        n = np.ceil(dt / h_point).astype(int)
        return np.clip(n, self.min_substeps, self.max_substeps)

    # ------------------------------------------------------------------
    def integrate(
        self,
        conc: np.ndarray,
        dt: float,
        temperature: float,
        sun: float,
        emissions: Optional[np.ndarray] = None,
        stats: Optional[ChemistryStats] = None,
        member_edges: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance ``conc`` (n_species, n_points) by ``dt`` seconds.

        ``emissions`` (ppm/s, same shape) enter as an extra production
        term.  Returns a new array; the input is not modified.

        ``member_edges`` marks ensemble-member boundaries along the
        point axis: an ascending int64 array ``[0, m1, m1+m2, ...,
        n_points]`` splitting the columns into per-member blocks.  Every
        solver stage is per-point except the two BLAS matmuls, which
        are then performed per member block so each member's dgemm sees
        the operand its independent run would — making the batched
        sweep bitwise identical to integrating each block separately.
        Per-point adaptivity (h, remaining, error) never couples
        columns, so members cannot perturb each other's trajectories.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        conc = np.asarray(conc, dtype=float)
        # A 1-D state is one point's (n_species,) column.
        c = np.array(conc[:, None] if conc.ndim == 1 else conc, dtype=float)
        if c.shape[0] != self.mechanism.n_species:
            raise ValueError(
                f"conc has {c.shape[0]} species, mechanism expects "
                f"{self.mechanism.n_species}"
            )
        npts = c.shape[1]
        k = self.mechanism.rate_constants(temperature, sun)
        E = None
        if emissions is not None:
            # C order so the fused kernels can consume it directly; the
            # values (all that matters bitwise) are unchanged.
            E = np.ascontiguousarray(np.atleast_2d(emissions), dtype=float)
            if E.shape != c.shape:
                raise ValueError(
                    f"emissions shape {E.shape} != concentration shape {c.shape}"
                )

        # Per-point adaptive substepping with the Young-Boris corrector
        # convergence test: a substep is accepted when predictor and
        # corrector agree to within ``eps`` relative (the convergence
        # criterion of the original paper); otherwise the point retries
        # with half the step.  This is what keeps the stiff (asymptotic)
        # and non-stiff (trapezoidal) updates flux-consistent.
        stages = self._stages()
        edges = None
        full_slices = None
        if member_edges is not None:
            edges = np.ascontiguousarray(member_edges, dtype=np.int64)
            if edges.ndim != 1 or edges.size < 2 or edges[0] != 0 \
                    or edges[-1] != npts or np.any(np.diff(edges) < 0):
                raise ValueError(
                    f"member_edges must ascend from 0 to {npts}, got "
                    f"{member_edges!r}"
                )
            full_slices = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
        if npts:
            # The first substep reuses this evaluation as its (P0, L0):
            # the state has not changed.
            P_init, L_init = stages.evaluate(c, k, full_slices)
            nsub0 = self._substeps_from(P_init, L_init, c, dt)
        else:
            nsub0 = np.zeros(0, int)
        h = np.minimum(dt / np.maximum(nsub0, 1), self.h_max)
        h_min = dt / self.max_substeps
        remaining = np.full(npts, float(dt))
        attempts = np.zeros(npts, dtype=int)
        all_idx = np.arange(npts)
        # Hard iteration bound: enough for max_substeps acceptances plus
        # halving cascades.  Iteration ``max_iters`` itself is the
        # forced one: the budget is exhausted, so the stragglers finish
        # in one accepted step each and the integration always
        # completes dt.
        max_iters = 4 * self.max_substeps

        for it in range(max_iters + 1):
            active = remaining > 1e-9 * dt
            if not active.any():
                break
            forced = it == max_iters
            full = bool(active.all())
            if full:
                # All points active: operate on `c` directly — same
                # values as the gathered copy, no 35 x npts move.
                idx = all_idx
                hs, rs = h, remaining
                ca = c
                slices = full_slices
            else:
                idx = np.where(active)[0]
                hs, rs = h[idx], remaining[idx]
                ca = stages.gather_cols(c, idx)
                slices = _active_slices(idx, edges)
            ha = rs.copy() if forced else np.minimum(hs, rs)
            c1, cp = stages.substep(
                ca, k, ha, E, idx, full, it == 0, slices,
                self.stiff_threshold, self.floor,
            )
            attempts[idx] += 1
            if forced:
                ok = np.ones(idx.size, dtype=bool)
            else:
                err = stages.errmax(c1, cp)
                ok = (err <= 3.0 * self.eps) | (ha <= h_min * 1.0001)
            acc = idx[ok]
            rej = idx[~ok]
            stages.scatter_cols(c, c1, idx, ok)
            remaining[acc] -= ha[ok]
            # Mild growth after success, halving after failure.
            h[acc] = np.minimum(h[acc] * 1.26, self.h_max)
            h[rej] = np.maximum(h[rej] * 0.5, h_min)

        if stats is not None:
            local = ChemistryStats(
                substeps_total=int(attempts.sum()),
                max_substeps=int(attempts.max()) if npts else 0,
                points=npts,
                ops=float(attempts.sum())
                * self.mechanism.n_species
                * OPS_PER_SUBSTEP_PER_SPECIES,
                per_point_substeps=attempts.copy(),
            )
            stats.merge(local)
        return c if np.ndim(conc) == 2 else c[:, 0]
