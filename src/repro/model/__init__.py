"""The Airshed application: sequential reference, data- and task-parallel."""

from repro.model.checkpoint import (
    Checkpoint,
    load_checkpoint,
    resume_config,
    save_checkpoint,
)
from repro.model.batched import BatchedEnsemble, run_batched
from repro.model.config import AirshedConfig
from repro.model.ensemble import EmissionEnsemble, EnsembleSummary, PerturbedDataset
from repro.model.dataparallel import (
    D_CHEM,
    D_REPL,
    D_TRANS,
    DataParallelAirshed,
    HourReplayer,
    ParallelTiming,
    replay_data_parallel,
)
from repro.model.physics import AirshedPhysics
from repro.model.results import (
    AirshedResult,
    HourTrace,
    StepTrace,
    WorkloadTrace,
    concat_results,
)
from repro.model.sequential import TRACKED_SPECIES, SequentialAirshed
from repro.model.taskparallel import (
    TaskParallelAirshed,
    replay,
    replay_best_configuration,
    replay_task_parallel,
)

__all__ = [
    "AirshedConfig",
    "BatchedEnsemble",
    "Checkpoint",
    "EmissionEnsemble",
    "EnsembleSummary",
    "PerturbedDataset",
    "TaskParallelAirshed",
    "load_checkpoint",
    "replay_best_configuration",
    "resume_config",
    "save_checkpoint",
    "AirshedPhysics",
    "AirshedResult",
    "D_CHEM",
    "D_REPL",
    "D_TRANS",
    "DataParallelAirshed",
    "HourReplayer",
    "HourTrace",
    "ParallelTiming",
    "SequentialAirshed",
    "StepTrace",
    "TRACKED_SPECIES",
    "WorkloadTrace",
    "concat_results",
    "replay",
    "replay_data_parallel",
    "replay_task_parallel",
    "run_batched",
]
