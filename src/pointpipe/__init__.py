"""Streaming point-cloud pipeline toolkit.

Schedules inter-stage line buffers for fully streaming point-cloud
pipelines (exact integer optimization), checks schedules with an exact
token simulator, and provides the enabling point kernels: spatial chunking
with sliding chunk groups, serial splitting, chunked sorting, and kd-tree
search with deterministic step-capped termination.
"""

from .graph import (
    Edge,
    ParseError,
    PipelineError,
    PipelineGraph,
    Shape,
    StageKind,
    StageSpec,
    ValidationError,
    load_pipeline,
    parse_pipeline,
)
from .optimizer import (
    ScheduleError,
    ScheduleSolution,
    optimize,
    schedule_chunks,
)
from .oracle import OracleReport, verify_against_oracle
from .simulator import SimTrace, simulate

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "OracleReport",
    "ParseError",
    "PipelineError",
    "PipelineGraph",
    "ScheduleError",
    "ScheduleSolution",
    "Shape",
    "SimTrace",
    "StageKind",
    "StageSpec",
    "ValidationError",
    "load_pipeline",
    "optimize",
    "parse_pipeline",
    "schedule_chunks",
    "simulate",
    "verify_against_oracle",
]
