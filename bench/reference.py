"""Reference answers the benchmark checks shelfgaze against.

Everything here is written from the documented behaviour of the toolkit
(README.md and the module docstrings) with numpy closed forms and a small
stand-alone simulator. Nothing in this module imports shelfgaze, so a change
to the package cannot change the answers it is checked against.

All lengths are centimeters and the layout is the default 181 cm shelf with a
102x138 cm panel split into 6x6 cells of 17x23 cm, camera at (51, 55.5).
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

SHELF_TOP = 181.0
PANEL_H = 138.0
PANEL_W = 102.0
PANEL_BOTTOM = SHELF_TOP - PANEL_H
ROWS = COLS = 6
CELL_W = PANEL_W / COLS
CELL_H = PANEL_H / ROWS
CAMERA = (51.0, 55.5)
EYE_OFFSET = 4.8
MAX_EYE = 250.0
OPEN_THRESHOLD = 0.2

# The published calibration protocol (README, "Which calibration targets").
VALIDATION_CELLS = (8, 11, 26, 29)
TRAINING_SETS = {
    2: (6, 31),
    4: (3, 13, 18, 33),
    8: (1, 3, 6, 13, 18, 31, 33, 36),
    16: (1, 3, 4, 6, 13, 15, 16, 18, 19, 21, 22, 24, 31, 33, 34, 36),
    32: (
        1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18,
        19, 20, 21, 22, 23, 24, 25, 27, 28, 30, 31, 32, 33, 34, 35, 36,
    ),
}
FRAMES_PER_POINT, TRAIN_FRAMES, VAL_FRAMES = 10, 3, 1

# Outcome markers shared with the workloads for answers that are errors.
OFF_PANEL = "off-panel"
NO_INTERSECTION = "no-intersection"
DEGENERATE = "degenerate"


def close(a: float, b: float, rel: float = 1e-12, abs_tol: float = 1e-14) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --- placement and geometry -------------------------------------------------


def population(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Valid (eye heights, distances) and the rejected count for the default
    population: stature N(165, 6) from a Philox stream of 53-bit bucket
    midpoints through the inverse normal CDF, distance U(75, 150)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    scale = 1 << 53

    def uniform() -> np.ndarray:
        return (gen.integers(0, scale, n).astype(np.float64) + 0.5) / scale

    stature = 165.0 + 6.0 * ndtri(uniform())
    distance = 75.0 + 75.0 * uniform()
    eye = stature - EYE_OFFSET
    valid = (eye > PANEL_BOTTOM) & (eye < MAX_EYE)
    return eye[valid], distance[valid], int(n - valid.sum())


def bisector_drop(eye: np.ndarray, distance: np.ndarray) -> np.ndarray:
    ab = np.hypot(distance, SHELF_TOP - eye)
    ac = np.hypot(distance, eye - PANEL_BOTTOM)
    return PANEL_H * ab / (ab + ac)


def placement(seed: int, n: int) -> dict:
    """Statistics optimize_camera_drop must report for this seed and size.

    The residual drop is found independently: a 1 cm scan, then bounded
    Brent to 1e-7 cm around the best grid point.
    """
    eye, distance, rejected = population(seed, n)
    db = bisector_drop(eye, distance)
    theta_sum = np.arctan2(SHELF_TOP - eye, distance) + np.arctan2(PANEL_BOTTOM - eye, distance)

    def mean_sq(drop: float) -> float:
        r = theta_sum - 2.0 * np.arctan2(SHELF_TOP - drop - eye, distance)
        return float(np.mean(r * r))

    coarse = np.arange(0.0, PANEL_H + 0.5, 1.0)
    best = float(coarse[int(np.argmin([mean_sq(d) for d in coarse]))])
    lo, hi = max(best - 1.0, 0.0), min(best + 1.0, PANEL_H)
    residual = minimize_scalar(mean_sq, bounds=(lo, hi), method="bounded", options={"xatol": 1e-7}).x
    return {
        "mean_db_cm": float(db.mean()),
        "median_db_cm": float(np.median(db)),
        "std_db_cm": float(db.std()),
        "residual_db_cm": float(residual),
        "rejected_samples": rejected,
        "sample_count": n,
    }


def placement_matches(got: dict, want: dict) -> bool:
    """The tolerances of the package's own pinned tests."""
    return (
        all(close(got[k], want[k]) for k in ("mean_db_cm", "median_db_cm", "std_db_cm"))
        and abs(got["residual_db_cm"] - want["residual_db_cm"]) <= 1e-3
        and got["rejected_samples"] == want["rejected_samples"]
        and got["sample_count"] == want["sample_count"]
    )


def split_angles(eye: np.ndarray, distance: np.ndarray, drop: float) -> tuple[np.ndarray, np.ndarray]:
    top = np.arctan2(SHELF_TOP - eye, distance)
    cam = np.arctan2(SHELF_TOP - drop - eye, distance)
    bottom = np.arctan2(PANEL_BOTTOM - eye, distance)
    return top - cam, cam - bottom


def recommended_distance(stature: np.ndarray) -> np.ndarray:
    """Distance putting the default camera on the bisector; NaN where none exists."""
    h = stature - EYE_OFFSET
    r = CAMERA[1] / (PANEL_H - CAMERA[1])
    d_sq = (r * r * (h - PANEL_BOTTOM) ** 2 - (SHELF_TOP - h) ** 2) / (1.0 - r * r)
    ok = (h > PANEL_BOTTOM) & (h < MAX_EYE) & (d_sq > 0)
    return np.where(ok, np.sqrt(np.where(ok, d_sq, 1.0)), np.nan)


def imbalance(eye: float, distance: float, drops: np.ndarray) -> np.ndarray:
    """Signed alpha1 - alpha2 of one person for cameras at each drop."""
    top = np.arctan2(SHELF_TOP - eye, distance)
    cam = np.arctan2(SHELF_TOP - drops - eye, distance)
    bottom = np.arctan2(PANEL_BOTTOM - eye, distance)
    return (top - cam) - (cam - bottom)


# --- grid -------------------------------------------------------------------


def cell_of(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-major cell 1..36 of panel points; cells are half-open except that
    the right and bottom panel edges belong to the last column and row."""
    col = np.minimum(np.floor(x / CELL_W), COLS - 1).astype(np.int64)
    row = np.minimum(np.floor(y / CELL_H), ROWS - 1).astype(np.int64)
    return row * COLS + col + 1


def on_panel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x >= 0.0) & (x <= PANEL_W) & (y >= 0.0) & (y <= PANEL_H)


def cell_center(index: int) -> tuple[float, float]:
    col, row = (index - 1) % COLS, (index - 1) // COLS
    return col * CELL_W + CELL_W / 2.0, row * CELL_H + CELL_H / 2.0


def aim(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unit directions from eyes (N,3) toward panel points (N,2) at z = 0."""
    d = np.column_stack([target[:, 0] - eye[:, 0], target[:, 1] - eye[:, 1], -eye[:, 2]])
    norm = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    return d / norm[:, None]


def rays(eye: np.ndarray, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hit x, hit y, outcome) per ray: the cell number, or OFF_PANEL or
    NO_INTERSECTION as object entries."""
    dz = direction[:, 2]
    away = dz >= 0
    t = -eye[:, 2] / np.where(away, -1.0, dz)
    x = eye[:, 0] + t * direction[:, 0]
    y = eye[:, 1] + t * direction[:, 1]
    outcome = cell_of(x, y).astype(object)
    outcome[~on_panel(x, y)] = OFF_PANEL
    outcome[away] = NO_INTERSECTION
    return x, y, outcome


# --- ear --------------------------------------------------------------------


def ear(landmarks: np.ndarray) -> np.ndarray:
    """EAR of (N,12) flat landmarks x1,y1..x6,y6; NaN where the corners coincide."""
    p = landmarks.reshape(-1, 6, 2)

    def dist(i: int, j: int) -> np.ndarray:
        return np.hypot(p[:, i, 0] - p[:, j, 0], p[:, i, 1] - p[:, j, 1])

    width = dist(0, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (dist(1, 5) + dist(2, 4)) / (2.0 * width)
    return np.where(width == 0, np.nan, value)


# --- calibration ------------------------------------------------------------


def ground_truth(size: int, seed: int) -> list[dict]:
    """The JSONL records calib-plan prints: training cells in listed order,
    then validation cells, each with a seeded shuffle of its frame indices."""
    rng = random.Random(seed)
    records = []
    for cell in TRAINING_SETS[size] + VALIDATION_CELLS:
        perm = list(range(FRAMES_PER_POINT))
        rng.shuffle(perm)
        x, y = cell_center(cell)
        camera = [x - CAMERA[0], y - CAMERA[1]]
        for frame in perm[:TRAIN_FRAMES]:
            records.append({"frame": frame, "cell": cell, "shelf": [x, y], "camera": camera, "split": "train"})
        for frame in perm[TRAIN_FRAMES : TRAIN_FRAMES + VAL_FRAMES]:
            records.append({"frame": frame, "cell": cell, "shelf": [x, y], "camera": camera, "split": "val"})
    return records


# --- pipeline ---------------------------------------------------------------


def fixed(ms: float):
    return lambda rng: ms


def uniform(lo: float, hi: float):
    return lambda rng: rng.uniform(lo, hi)


def normal(mean: float, std: float):
    def draw(rng: random.Random) -> float:
        while True:
            value = rng.gauss(mean, std)
            if value > 0:
                return value

    return draw


def simulate(proc, fps: float, duration_s: float, seed: int, jitter=None) -> dict:
    """Latest-frame queue run: a camera captures every 1000/fps ms (plus
    jitter, never reordering) into one slot; the consumer takes the newest
    frame whenever it is free. A capture at the same instant as a completion
    comes first. Frames left in the slot at the end are dropped; a frame
    taken but not finished by the end stays in flight."""
    interval, end = 1000.0 / fps, duration_s * 1000.0
    proc_rng = random.Random(seed)
    jitter_rng = random.Random(f"{seed}:capture-jitter")
    caps: list[float] = []
    while True:
        t = len(caps) * interval
        if jitter is not None:
            t += jitter(jitter_rng)
            if caps and t < caps[-1]:
                t = caps[-1]
        if t >= end:
            break
        caps.append(t)

    slot = current = last = None
    done = math.inf
    dropped = processed = takes = 0
    latencies: list[float] = []
    skips: dict[int, int] = {}
    k = 0
    while True:
        busy = current is not None and done <= end
        if k < len(caps) and (not busy or caps[k] <= done):
            if slot is not None:
                dropped += 1
            slot, k = k, k + 1
            if current is None:
                current, slot, takes = slot, None, takes + 1
                done = caps[current] + proc(proc_rng)
        elif busy:
            processed += 1
            latencies.append(done - caps[current])
            if last is not None:
                skips[current - last - 1] = skips.get(current - last - 1, 0) + 1
            last, current, t, done = current, None, done, math.inf
            if slot is not None and t < end:
                current, slot, takes = slot, None, takes + 1
                done = t + proc(proc_rng)
        else:
            break
    if slot is not None:
        dropped += 1

    total = sum(skips.values())
    return {
        "processed_count": processed,
        "captured_count": len(caps),
        "dropped_count": dropped,
        "in_flight_count": takes - processed,
        "effective_fps": processed / duration_s,
        "skips_per_processed": skips,
        "mean_skips": sum(g * c for g, c in skips.items()) / total if total else None,
        "latency_mean_ms": float(np.mean(latencies)) if latencies else None,
        "latency_p95_ms": float(np.percentile(latencies, 95)) if latencies else None,
    }


def metrics_match(got: dict, want: dict) -> bool:
    """Exact counts and histogram, floats at rel 1e-12."""
    for key, value in want.items():
        if isinstance(value, float):
            if got[key] is None or not close(got[key], value):
                return False
        elif got[key] != value:
            return False
    return True
