"""Shared numerical kernels of the Airshed model.

Both the sequential reference driver and the live data-parallel driver
call these kernels, which is what makes the "distributed result equals
sequential result" verification meaningful: the physics is defined once,
and every kernel is independent per layer (transport) or per grid column
(chemistry), so partitioned execution is bitwise identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chemistry import (
    AerosolModel,
    ChemistryStats,
    VerticalDiffusion,
    YoungBorisSolver,
)
from repro.chemistry.youngboris import OPS_PER_SUBSTEP_PER_SPECIES
from repro.datasets.generators import Dataset, HourlyConditions
from repro.model.config import AirshedConfig
from repro.transport import SUPGTransport
from repro.transport.supg import TransportOperator

__all__ = ["AirshedPhysics"]

#: Dry-deposition velocities (m/s) for the species that deposit.
DEPOSITION_VELOCITIES: Dict[str, float] = {
    "O3": 0.004, "NO2": 0.003, "HNO3": 0.02, "H2O2": 0.005,
    "SO2": 0.008, "NH3": 0.01, "HCHO": 0.005, "PAN": 0.002,
    "AERO": 0.002,
}


class AirshedPhysics:
    """The numerical engines of one configured Airshed run."""

    def __init__(self, config: AirshedConfig):
        self.config = config
        self.dataset: Dataset = config.dataset
        mech = self.dataset.mechanism
        self.mechanism = mech

        deposition = np.zeros(mech.n_species)
        for name, vd in DEPOSITION_VELOCITIES.items():
            deposition[mech.index[name]] = vd

        #: ``chem_workers > 1`` gives the solver a (lazy) tile pool; the
        #: hour loop that integrates with it closes it when done.
        self.solver = YoungBorisSolver(
            mech,
            eps=config.chem_eps,
            max_substeps=config.chem_max_substeps,
            workers=config.chem_workers,
            tile_cols=config.chem_tile_cols,
        )
        self.vertical = VerticalDiffusion(
            heights=self.dataset.layer_heights,
            kz=self.dataset.kz_profile,
            deposition=deposition,
        )
        self.aerosol = AerosolModel(mech)
        self.transport = SUPGTransport(
            self.dataset.mesh,
            diffusivity=self.dataset.wind.diffusivity,
            theta=config.theta,
        )

    # ------------------------------------------------------------------
    # per-hour setup
    # ------------------------------------------------------------------
    def hour_steps(self, hour: int) -> Tuple[int, float]:
        """Runtime step count and step length for the hour."""
        nsteps = self.dataset.steps_per_hour(
            hour, self.config.min_steps, self.config.max_steps
        )
        return nsteps, 3600.0 / nsteps

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def transport_layer(
        self,
        conc_layer: np.ndarray,
        operator: TransportOperator,
        boundary: np.ndarray,
    ) -> Tuple[np.ndarray, float]:
        """Horizontal transport of one layer (n_species, n_points).

        Applies the factorised SUPG step, then relaxes the open-boundary
        nodes toward the hourly background concentrations.
        """
        out, ops = operator.step(conc_layer)
        relax = self.config.boundary_relax
        if relax > 0.0:
            b = self.dataset.mesh.boundary
            out[:, b] = (1.0 - relax) * out[:, b] + relax * boundary[:, None]
        # Standard "negative fixer": SUPG can undershoot slightly near
        # sharp gradients; chemistry needs non-negative mixing ratios.
        np.maximum(out, 0.0, out=out)
        return out, ops

    def chemistry_columns(
        self,
        conc: np.ndarray,
        conditions: HourlyConditions,
        dt: float,
        point_indices: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``Lcz`` operator on a set of grid columns.

        ``conc``: (n_species, layers, n_subset).  ``point_indices``
        selects the emission columns when operating on a partition.
        Returns the new concentrations and per-point op counts.
        """
        return self.chemistry_members(
            [conc], [conditions], dt, point_indices
        )[0]

    def chemistry_members(
        self,
        concs: Sequence[np.ndarray],
        conds: Sequence[HourlyConditions],
        dt: float,
        point_indices: Optional[np.ndarray] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``Lcz`` application over every member's columns.

        The members (same shape, same meteorology, own emissions) are
        stacked along the point axis and integrated in one solver call
        with ``member_edges`` keeping each member's matmuls on its own
        columns; one member is the plain sequential step, integrated
        through reshaped views with no packing at all.  Vertical
        diffusion and the op accounting run per member.  Returns
        ``(new concentrations, per-point op counts)`` per member.
        """
        nmem = len(concs)
        ns, nl, npts = concs[0].shape
        cells = nl * npts
        flat_c, flat_E = [], []
        for conc, cond in zip(concs, conds):
            # Area emissions enter the bottom layer; elevated point
            # sources inject into the layer their plume reaches.
            E = np.zeros((ns, nl, npts))
            E[:, 0, :] = (
                cond.emissions
                if point_indices is None
                else cond.emissions[:, point_indices]
            )
            if cond.elevated is not None:
                E += (
                    cond.elevated
                    if point_indices is None
                    else cond.elevated[:, :, point_indices]
                )
            flat_c.append(conc.reshape(ns, cells))
            flat_E.append(E.reshape(ns, cells))

        stats = ChemistryStats()
        if nmem == 1:
            batch, E_b, edges = flat_c[0], flat_E[0], None
        else:
            # Packing is pure data movement.
            batch = np.concatenate(flat_c, axis=1)
            E_b = np.concatenate(flat_E, axis=1)
            edges = np.arange(nmem + 1, dtype=np.int64) * cells
        flat = self.solver.integrate(
            batch, dt, conds[0].temperature, conds[0].sun,
            emissions=E_b, stats=stats, member_edges=edges,
        )

        attempts = stats.per_point_substeps
        results = []
        for i in range(nmem):
            s = i * cells
            out = np.ascontiguousarray(flat[:, s:s + cells]).reshape(
                ns, nl, npts
            )
            out, vd_ops = self.vertical.step(out, dt)
            per_cell = attempts[s:s + cells].reshape(nl, npts)
            results.append((
                out,
                per_cell.sum(axis=0) * ns * OPS_PER_SUBSTEP_PER_SPECIES
                + vd_ops / npts,
            ))
        return results

    def aerosol_step(self, conc: np.ndarray) -> float:
        """The replicated aerosol step on the full array (in place)."""
        return self.aerosol.step(conc)
