"""Monte Carlo search for the camera drop that best bisects gaze over a
population, plus the inverse solve: how far a given person should stand so
the configured camera lands on their bisector.

Sampling uses a counter-based uniform stream (Philox) pushed through the
inverse normal CDF, so results are reproducible bit-for-bit for a given
seed regardless of platform math-library quirks in rejection samplers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AllSamplesRejectedError, NoValidDistanceError, require_finite
from .geometry import MAX_EYE_HEIGHT_CM, PersonSample, ShelfConfig, angular_imbalance

RESIDUAL_GRID_STEP_CM = 0.1
RESIDUAL_REFINE_TOL_CM = 1e-4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_U53 = 1 << 53


@dataclass(frozen=True)
class PopulationSpec:
    """Stature is Gaussian, standing distance uniform; both in centimeters."""

    height_mean_cm: float = 165.0
    height_std_cm: float = 6.0
    distance_min_cm: float = 75.0
    distance_max_cm: float = 150.0
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, "height_mean_cm", "height_std_cm", "distance_min_cm", "distance_max_cm")
        if self.height_std_cm <= 0:
            raise ValueError("height std must be positive")
        if not self.distance_min_cm < self.distance_max_cm:
            raise ValueError("distance range must satisfy min < max")
        if self.distance_min_cm <= 0:
            raise ValueError("distances must be positive")
        if self.sample_count < 1:
            raise ValueError("sample count must be at least 1")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class PlacementResult:
    """Aggregate statistics of per-sample optimal camera drops.

    ``residual_db_cm`` is the alternative estimator: the drop minimizing the
    mean squared angular imbalance over the same samples. The two estimators
    target the same bisector optimum but are not identical.
    """

    mean_db_cm: float
    median_db_cm: float
    std_db_cm: float
    residual_db_cm: float
    rejected_samples: int
    sample_count: int

    def as_dict(self) -> dict:
        return asdict(self)


def _uniform01(gen: np.random.Generator, n: int) -> np.ndarray:
    # Midpoints of 2^53 buckets: strictly inside (0, 1), safe for ndtri.
    return (gen.integers(0, _U53, n).astype(np.float64) + 0.5) / _U53


def sample_population(
    cfg: ShelfConfig, pop: PopulationSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw (eye heights, distances) for valid samples plus the rejected count.

    Rejection mirrors geometry.validate_person: eyes at or below the panel
    bottom, or beyond the sane height bound, are excluded rather than
    clamped. A stature spread that overflows is a ValueError.
    """
    # Imported here so that `import shelfgaze` does not load scipy.
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=pop.seed))
    try:
        with np.errstate(over="raise"):
            stature = pop.height_mean_cm + pop.height_std_cm * ndtri(_uniform01(gen, pop.sample_count))
    except FloatingPointError:
        raise ValueError(f"height_std_cm overflows the sampled statures, got {pop.height_std_cm}") from None
    span = pop.distance_max_cm - pop.distance_min_cm
    distance = pop.distance_min_cm + span * _uniform01(gen, pop.sample_count)
    with np.errstate(over="ignore"):  # an eye overflowing to -inf is rejected below
        eye = stature - cfg.eye_crown_offset_cm
    valid = (eye > cfg.panel_bottom_height_cm) & (eye < MAX_EYE_HEIGHT_CM)
    rejected = int(pop.sample_count - valid.sum())
    return eye[valid], distance[valid], rejected


def _golden_min(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b] to absolute x tolerance."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _grid_argmin(residual, grid: np.ndarray) -> int:
    """First index i minimizing mean(residual(grid[i]) ** 2), the index a scan
    of the whole grid picks, found coarse to fine from far fewer evaluations.

    Each element of residual(x) must rise with x. Between grid points p < q
    it then stays within its values at p and q, so the mean of its smallest
    square there bounds the curve from below. The levels scan every 100th,
    every 10th, then every point, each only inside the spans whose bound can
    still beat the best point so far. The margin covers rounding in the
    residuals (about 1e-15) through the square and the mean.
    """
    best = (math.inf, 0)  # (mean square, index): ties keep the first index
    spans = [(0, len(grid) - 1)]
    for stride in (100, 10, 1):
        bounded = []
        for first, last in spans:
            prev = None
            for i in [*range(first, last, stride), last]:
                r = residual(grid[i])
                best = min(best, (float(np.mean(r * r)), i))
                if prev is not None and i - prev[0] > 1:
                    low = np.maximum(prev[1], 0.0)
                    low += np.minimum(r, 0.0)
                    low *= low
                    bounded.append((float(np.mean(low)), prev[0], i))
                prev = (i, r)
        spans = [(p, q) for low, p, q in bounded if low <= best[0] * (1.0 + 1e-9) + 1e-18]
    return best[1]


def optimize_camera_drop(cfg: ShelfConfig, pop: PopulationSpec) -> PlacementResult:
    """Per-sample bisector drops aggregated over the population.

    Also runs the residual estimator: the drop minimizing the mean squared
    imbalance. Its minimum on a 0.1 cm drop grid is found coarse to fine
    (``_grid_argmin``): about 70 evaluations for typical populations instead
    of 1,381, and the same grid point as evaluating every drop, even where
    the curve has several local minima. That point is refined once by golden
    section to 1e-4 cm between its neighbours, which assumes the curve is
    unimodal there.
    Deterministic for a fixed seed; samples are aggregated in draw order.
    """
    eye, distance, rejected = sample_population(cfg, pop)
    if eye.size == 0:
        raise AllSamplesRejectedError(
            f"all {pop.sample_count} samples failed geometry preconditions"
        )

    top = cfg.shelf_height_cm
    bottom = cfg.panel_bottom_height_cm
    # Residual estimator: the camera ray should bisect theta_top..theta_bottom,
    # so the squared residual is (theta_top + theta_bottom - 2*theta_cam)^2.
    theta_sum = np.arctan2(top - eye, distance) + np.arctan2(bottom - eye, distance)

    def residual(drop: float) -> np.ndarray:
        return theta_sum - 2.0 * np.arctan2(top - drop - eye, distance)

    def mean_sq_residual(drop: float) -> float:
        r = residual(drop)
        return float(np.mean(r * r))

    grid = np.arange(0.0, cfg.panel_height_cm + RESIDUAL_GRID_STEP_CM / 2, RESIDUAL_GRID_STEP_CM)
    best = _grid_argmin(residual, grid)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    residual_db = _golden_min(mean_sq_residual, float(lo), float(hi), RESIDUAL_REFINE_TOL_CM)

    # Per-sample drops come after the search, whose two residual vectors
    # would otherwise raise the peak memory on top of these three arrays.
    # Valid eyes lie within the panel's reach, so only a huge distance overflows.
    try:
        with np.errstate(over="raise"):
            ab = np.hypot(distance, top - eye)
            ac = np.hypot(distance, eye - bottom)
            db = cfg.panel_height_cm * ab / (ab + ac)
    except FloatingPointError:
        raise ValueError(f"distance_max_cm overflows the per-sample drops, got {pop.distance_max_cm}") from None

    return PlacementResult(
        mean_db_cm=float(db.mean()),
        median_db_cm=float(np.median(db)),
        std_db_cm=float(db.std()),
        residual_db_cm=residual_db,
        rejected_samples=rejected,
        sample_count=pop.sample_count,
    )


def recommended_distance(cfg: ShelfConfig, stature_cm: float) -> float:
    """Standing distance at which the configured camera bisects this person's gaze.

    Solving alpha1 = alpha2 for d with r = drop / (panel_height - drop)
    gives d^2 = (r^2 (h - bottom)^2 - (top - h)^2) / (1 - r^2); the same
    expression covers r > 1 after rearrangement. Raises NoValidDistanceError
    when no positive distance exists (person too short or too tall for the
    configured drop, or the camera sits exactly mid-panel).
    """
    h = stature_cm - cfg.eye_crown_offset_cm
    bottom = cfg.panel_bottom_height_cm
    if h <= bottom or h >= MAX_EYE_HEIGHT_CM:
        raise NoValidDistanceError(
            f"stature {stature_cm} cm yields eye height {h} cm outside"
            f" ({bottom}, {MAX_EYE_HEIGHT_CM})"
        )
    dc = cfg.panel_height_cm - cfg.camera_drop_cm
    if dc <= 0 or cfg.camera_drop_cm == dc:
        raise NoValidDistanceError(
            f"camera drop {cfg.camera_drop_cm} cm admits no unique bisector distance"
        )
    r = cfg.camera_drop_cm / dc
    d_sq = (r * r * (h - bottom) ** 2 - (cfg.shelf_height_cm - h) ** 2) / (1.0 - r * r)
    if d_sq <= 0:
        raise NoValidDistanceError(
            f"no positive distance puts the camera on the bisector for stature {stature_cm} cm"
        )
    return math.sqrt(d_sq)


STATUS_OK = "ok"
STATUS_NO_DISTANCE = "no_valid_distance"


@dataclass(frozen=True)
class DistanceRow:
    stature_cm: float
    distance_cm: float | None
    status: str


def distance_table(cfg: ShelfConfig, statures_cm: list[float]) -> list[DistanceRow]:
    """Recommended distance per stature; unreachable rows are marked, not dropped."""
    if not statures_cm:
        raise ValueError("stature list must be non-empty")
    rows = []
    for stature in statures_cm:
        try:
            rows.append(DistanceRow(stature, recommended_distance(cfg, stature), STATUS_OK))
        except NoValidDistanceError:
            rows.append(DistanceRow(stature, None, STATUS_NO_DISTANCE))
    return rows


def imbalance_sweep(
    cfg: ShelfConfig, p: PersonSample, drops: list[float]
) -> list[tuple[float, float]]:
    """Signed imbalance at each candidate drop; crosses zero at the bisector."""
    return [(drop, angular_imbalance(cfg, p, drop)) for drop in drops]
