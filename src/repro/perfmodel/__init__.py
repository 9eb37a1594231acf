"""The Section 4 'predictable performance' model."""

from repro.perfmodel.alternatives import UniformAirshedModel, compare_grid_strategies
from repro.perfmodel.calibrate import (
    DEFAULT_DRIFT_BAND,
    CalibratedModel,
    FittedParameters,
    RefitResult,
    drift_report,
    fit_comm_parameters,
    fit_compute_rate,
    refit_observations,
)
from repro.perfmodel.communication import ArrayGeometry, CommunicationModel
from repro.perfmodel.estimate import NOMINAL_RATES, estimated_trace
from repro.perfmodel.intranode import (
    TILE_EFFICIENCY,
    chemistry_fraction,
    intra_job_speedup,
)
from repro.perfmodel.computation import (
    PhaseModel,
    block_phase_time,
    simple_phase_time,
)
from repro.perfmodel.predict import PerformancePredictor, PredictedTimes

__all__ = [
    "ArrayGeometry",
    "CalibratedModel",
    "CommunicationModel",
    "DEFAULT_DRIFT_BAND",
    "FittedParameters",
    "RefitResult",
    "drift_report",
    "refit_observations",
    "NOMINAL_RATES",
    "PerformancePredictor",
    "PhaseModel",
    "PredictedTimes",
    "TILE_EFFICIENCY",
    "UniformAirshedModel",
    "block_phase_time",
    "chemistry_fraction",
    "compare_grid_strategies",
    "estimated_trace",
    "fit_comm_parameters",
    "fit_compute_rate",
    "intra_job_speedup",
    "simple_phase_time",
]
