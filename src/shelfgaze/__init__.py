"""Planning and simulation toolkit for shelf-mounted gaze capture.

Covers the pre-deployment questions of a shelf gaze setup: where to mount
the camera (geometry, placement), how gaze points map to product cells
(grid), whether an eye is usably open (ear), what frame rate the capture
pipeline sustains (pipeline), and which calibration targets to record
(calibration). Everything is seeded and deterministic.

The package exports what the README examples and the benchmark harness use,
plus the domain errors; everything else is imported from its submodule.
"""

from .calibration import CalibrationSpec, emit_ground_truth, ground_truth_jsonl, plan, validate_spec
from .ear import EyeLandmarks, batch_stats, ear
from .errors import (
    AllSamplesRejectedError,
    DegenerateEyeError,
    EmptyBatchError,
    EyeBelowPanelBottomError,
    IndexOutOfRangeError,
    NoIntersectionError,
    NoValidDistanceError,
    OutOfPanelError,
    ShelfGazeError,
    UnknownSetSizeError,
)
from .geometry import PersonSample, ShelfConfig, bisector_split, imbalance_sweep
from .grid import GazeRay, GridSpec, PlanePoint, cell_center, point_to_cell, ray_to_cell
from .pipeline import (
    FixedTime,
    NormalTime,
    SimConfig,
    UniformTime,
    replay_metrics,
    simulate,
    sweep_processing_time,
    trace,
)
from .placement import PopulationSpec, distance_table, optimize_camera_drop, sample_population

__version__ = "0.1.0"

__all__ = [
    "AllSamplesRejectedError",
    "CalibrationSpec",
    "DegenerateEyeError",
    "EmptyBatchError",
    "EyeBelowPanelBottomError",
    "EyeLandmarks",
    "FixedTime",
    "GazeRay",
    "GridSpec",
    "IndexOutOfRangeError",
    "NoIntersectionError",
    "NoValidDistanceError",
    "NormalTime",
    "OutOfPanelError",
    "PersonSample",
    "PlanePoint",
    "PopulationSpec",
    "ShelfConfig",
    "ShelfGazeError",
    "SimConfig",
    "UniformTime",
    "UnknownSetSizeError",
    "batch_stats",
    "bisector_split",
    "cell_center",
    "distance_table",
    "ear",
    "emit_ground_truth",
    "ground_truth_jsonl",
    "imbalance_sweep",
    "optimize_camera_drop",
    "plan",
    "point_to_cell",
    "ray_to_cell",
    "replay_metrics",
    "sample_population",
    "simulate",
    "sweep_processing_time",
    "trace",
    "validate_spec",
]
