"""Named dataset registry shared by the CLI and the campaign scheduler.

Datasets are referred to by short names everywhere a run description is
serialised (CLI flags, :class:`~repro.sched.job.JobSpec` content
hashes, cache keys), so the name -> builder mapping has to live in one
place.  ``la`` and ``ne`` are the paper's datasets; ``demo`` is a small
grid for fast demonstration runs and CI smoke jobs.

Builders must be deterministic: two calls with the same name produce
bitwise-identical datasets, which is what makes content-addressed
result caching sound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.datasets.generators import Dataset, DatasetSpec
from repro.datasets.la import make_la
from repro.datasets.ne import make_ne
from repro.grid import RefinementCore

__all__ = [
    "DATASET_BUILDERS",
    "DATASET_SHAPES",
    "DEMO_SPEC",
    "dataset_names",
    "get_dataset",
    "register_dataset",
]

#: A small grid for fast demonstration runs.
DEMO_SPEC = DatasetSpec(
    name="demo",
    domain=(160.0, 120.0),
    base_shape=(6, 5),
    npoints=30 + 3 * 40,
    cores=(RefinementCore(60.0, 60.0, 8.0, 25.0),),
    layers=4,
    seed=5,
)

#: The live name -> builder mapping (mutated by ``register_dataset``).
DATASET_BUILDERS: Dict[str, Callable[[], Dataset]] = {
    "la": make_la,
    "ne": make_ne,
    "demo": DEMO_SPEC.build,
}


#: ``A(species, layers, points)`` shapes of the shipped datasets; kept
#: static so pricing a job or building an analyzer program never pays
#: for dataset materialisation.  A test pins these to the real shapes.
DATASET_SHAPES: Dict[str, Tuple[int, int, int]] = {
    "la": (35, 5, 700),
    "ne": (35, 5, 3328),
    "demo": (35, 4, 150),
}


def dataset_names() -> List[str]:
    return sorted(DATASET_BUILDERS)


def get_dataset(name: str) -> Dataset:
    """Build the registered dataset ``name`` (``la``/``ne``/``demo``)."""
    if name not in DATASET_BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {dataset_names()}"
        )
    return DATASET_BUILDERS[name]()


def register_dataset(name: str, builder: Callable[[], Dataset]) -> None:
    """Add a named dataset builder (test fixtures, new inventories).

    The builder must be deterministic for result caching to be sound.
    Note that ``--executor process`` campaign workers import the
    registry fresh, so builders registered at runtime are only visible
    to in-process (thread/inline) execution.
    """
    DATASET_BUILDERS[name] = builder
