"""The registered driver programs: registry, shapes, declaration sync."""

import pytest

from repro.analyze import available_programs, build_program, register_program
from repro.analyze.programs import DATASET_SHAPES
from repro.model.taskparallel import STAGE_IO


class TestRegistry:
    def test_shipped_drivers_registered(self):
        assert {"sequential", "dataparallel", "taskparallel"} <= \
            set(available_programs())

    def test_unknown_driver_raises(self):
        with pytest.raises(KeyError, match="unknown driver"):
            build_program("mpi")

    def test_register_and_build(self):
        def builder(**kwargs):
            return build_program("sequential", **kwargs)

        register_program("alias-sequential", builder)
        try:
            prog = build_program("alias-sequential", dataset="demo", hours=1)
            assert prog.meta["driver"] == "sequential"
        finally:
            from repro.analyze import programs
            del programs._REGISTRY["alias-sequential"]

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            build_program("dataparallel", dataset="mars")


def test_demo_shape_matches_the_real_dataset():
    """The static shape table must track the actual generators."""
    from repro.datasets import DEMO_SPEC

    dataset = DEMO_SPEC.build()
    assert DATASET_SHAPES["demo"] == dataset.shape


def test_taskparallel_program_mirrors_stage_io():
    prog = build_program("taskparallel", dataset="la", nprocs=64)
    assert [t.name for t in prog.tasks] == ["input", "main", "output"]
    for task in prog.tasks:
        assert task.reads == STAGE_IO[task.name]["reads"]
        assert task.writes == STAGE_IO[task.name]["writes"]
        assert task.handoff == STAGE_IO[task.name]["handoff"]


def test_taskparallel_node_split():
    prog = build_program("taskparallel", dataset="la", nprocs=64, io_nodes=1)
    sizes = {t.name: t.size for t in prog.tasks}
    assert sizes == {"input": 1, "main": 62, "output": 1}
