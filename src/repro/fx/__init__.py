"""Fx/HPF-style data- and task-parallel runtime (simulated).

Implements the programming model the paper's Airshed was written in:
HPF-style data distributions with compiler-generated redistribution,
owner-computes parallel loops, replicated computations, processor
subgroups and pipelined task parallelism.
"""

from repro.fx.darray import DistributedArray
from repro.fx.distribution import ArrayLayout, DistKind, Distribution
from repro.fx.ploop import parallel_do, parallel_reduce, replicated_do
from repro.fx.redistribute import RedistributionPlan, plan_redistribution
from repro.fx.runtime import FxRuntime, dist_label
from repro.fx.tasks import Pipeline, PipelineResult, PipelineStage, split_cluster

__all__ = [
    "ArrayLayout",
    "DistKind",
    "Distribution",
    "DistributedArray",
    "FxRuntime",
    "Pipeline",
    "PipelineResult",
    "PipelineStage",
    "RedistributionPlan",
    "dist_label",
    "parallel_do",
    "parallel_reduce",
    "plan_redistribution",
    "replicated_do",
    "split_cluster",
]
