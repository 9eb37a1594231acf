"""Configuration for Airshed runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.generators import Dataset

__all__ = ["AirshedConfig"]


@dataclass
class AirshedConfig:
    """Parameters of one Airshed simulation.

    Parameters
    ----------
    dataset:
        The materialised :class:`~repro.datasets.generators.Dataset`.
    hours:
        Number of simulated hours (the paper's outer ``nhrs`` loop).
    start_hour:
        Local-time hour of day the run starts at (6 = morning rush).
    min_steps / max_steps:
        Bounds on the runtime-chosen per-hour step count.
    theta:
        Transport time-integration parameter (0.5 = Crank-Nicolson).
    boundary_relax:
        Per-step relaxation factor pulling inflow-boundary nodes toward
        the hourly background concentrations (1 = hard reset, 0 = off).
    chem_eps / chem_max_substeps:
        Young-Boris solver controls (accuracy versus work).
    chem_workers / chem_tile_cols:
        Multi-core tiled chemistry (:mod:`repro.chemistry.tiling`):
        ``chem_workers > 1`` fans the solver's elementwise stages out
        over a persistent thread pool in contiguous column tiles
        (``chem_tile_cols`` wide, or one balanced tile per worker when
        ``None``).  Results are bitwise identical for every worker
        count and tile size — a wall-clock knob, never a science knob.
    track_surface_fields:
        Keep per-hour surface-layer snapshots in the result (used by the
        population exposure model); costs memory on large datasets.
    initial_conc:
        Starting concentrations ``(species, layers, points)``; defaults
        to the dataset's morning initial conditions.  Used to resume
        from a checkpoint.
    """

    dataset: Dataset
    hours: int = 6
    start_hour: int = 6
    min_steps: int = 2
    max_steps: int = 10
    theta: float = 0.5
    boundary_relax: float = 0.5
    chem_eps: float = 0.01
    chem_max_substeps: int = 300
    chem_workers: int = 1
    chem_tile_cols: Optional[int] = None
    track_surface_fields: bool = False
    initial_conc: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.hours < 1:
            raise ValueError("hours must be >= 1")
        if not (1 <= self.min_steps <= self.max_steps):
            raise ValueError("need 1 <= min_steps <= max_steps")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (0.0 <= self.boundary_relax <= 1.0):
            raise ValueError("boundary_relax must lie in [0, 1]")
        if self.chem_workers < 1:
            raise ValueError("chem_workers must be >= 1")
        if self.chem_tile_cols is not None and self.chem_tile_cols < 1:
            raise ValueError("chem_tile_cols must be >= 1")
        if self.initial_conc is not None:
            self.initial_conc = np.asarray(self.initial_conc, dtype=float)
            if self.initial_conc.shape != self.dataset.shape:
                raise ValueError(
                    f"initial_conc shape {self.initial_conc.shape} != "
                    f"dataset shape {self.dataset.shape}"
                )

    def starting_concentrations(self) -> np.ndarray:
        """The run's starting state (checkpoint or dataset default)."""
        if self.initial_conc is not None:
            return self.initial_conc.copy()
        return self.dataset.initial_conditions()

    def hour_of_day(self, index: int) -> int:
        """Wall-clock hour for the ``index``-th simulated hour."""
        return (self.start_hour + index) % 24
