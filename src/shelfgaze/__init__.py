"""Planning and simulation toolkit for shelf-mounted gaze capture.

Covers the pre-deployment questions of a shelf gaze setup: where to mount
the camera (geometry, placement), how gaze points map to product cells
(grid), whether an eye is usably open (blink), what frame rate the capture
pipeline sustains (pipeline), and which calibration targets to record
(calibration). Everything is seeded and deterministic.

The package exports what the README examples and the benchmark harness use,
plus the domain errors; everything else is imported from its submodule.
Each export loads its submodule the first time it is read.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "blink": ("EyeLandmarks", "batch_stats", "ear"),
    "calibration": ("CalibrationSpec", "emit_ground_truth", "ground_truth_jsonl", "plan", "validate_spec"),
    "errors": (
        "AllSamplesRejectedError", "DegenerateEyeError", "EmptyBatchError", "EyeBelowPanelBottomError",
        "IndexOutOfRangeError", "NoIntersectionError", "NoValidDistanceError", "OutOfPanelError",
        "ShelfGazeError", "UnknownSetSizeError",
    ),
    "geometry": ("PersonSample", "ShelfConfig", "bisector_split", "imbalance_sweep"),
    "grid": ("GazeRay", "GridSpec", "PlanePoint", "cell_center", "point_to_cell", "ray_to_cell"),
    "pipeline": (
        "FixedTime", "NormalTime", "SimConfig", "UniformTime", "replay_metrics", "simulate",
        "sweep_processing_time", "trace",
    ),
    "placement": ("PopulationSpec", "distance_table", "optimize_camera_drop", "sample_population"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
