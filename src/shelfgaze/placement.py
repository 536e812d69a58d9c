"""Monte Carlo search for the camera drop that best bisects gaze over a
population, plus the inverse solve: how far a given person should stand so
the configured camera lands on their bisector.

Sampling uses a counter-based uniform stream (Philox) pushed through the
inverse normal CDF, so results are reproducible bit-for-bit for a given
seed regardless of platform math-library quirks in rejection samplers.

numpy is imported inside the functions that sample or search a population,
so that importing the module, and the scalar solves, do not load it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import AllSamplesRejectedError, NoValidDistanceError, check_ranges, check_value, field_range, in_range
from .geometry import MAX_EYE_HEIGHT_CM, PersonSample, ShelfConfig

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_GRID_STEP_CM = 0.1
RESIDUAL_REFINE_TOL_CM = 1e-4
# The search's work vector is this many times shorter than the population.
_WORK_CHUNKS = 4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_U53 = 1 << 53


@dataclass(frozen=True)
class PopulationSpec:
    """Stature is Gaussian, standing distance uniform; both in centimeters."""

    height_mean_cm: float = in_range(0.0, 1_000.0, default=165.0)
    height_std_cm: float = in_range(1e-3, 100.0, default=6.0)
    distance_min_cm: float = in_range(1e-3, 10_000.0, default=75.0)
    distance_max_cm: float = in_range(1e-3, 10_000.0, default=150.0)
    sample_count: int = in_range(1, 1_000_000, default=100_000)
    seed: int = in_range(0, 2**128 - 1, default=0)  # a Philox key

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.distance_min_cm < self.distance_max_cm:
            raise ValueError("distance range must satisfy min < max")


class PlacementResult(NamedTuple):
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
        """``_asdict()``, under the name bench/workloads.py calls."""
        return self._asdict()


def _uniform01(gen: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np

    # Midpoints of 2^53 buckets, strictly inside (0, 1) as ndtri needs. The
    # top midpoint rounds to 1.0, so it becomes the largest float below 1.
    u = gen.integers(0, _U53, n).astype(np.float64)
    u += 0.5
    u /= _U53
    return np.minimum(u, np.nextafter(1.0, 0.0), out=u)


def sample_population(
    cfg: ShelfConfig, pop: PopulationSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw (eye heights, distances) for valid samples plus the rejected count.

    Rejection mirrors geometry.validate_person: eyes at or below the panel
    bottom, or beyond the sane height bound, are excluded rather than
    clamped.

    Each draw is scaled in place, with the bits of mean + std * ndtri(u) -
    offset and min + span * u. The peak is 3 population vectors (8 bytes a
    shopper each), while the distances are drawn: the eye heights and the
    draw's integers and floats. Only when some draw was rejected are the
    valid samples copied out, one array at a time.
    """
    # Imported here, with numpy, so that `import shelfgaze` and every
    # subcommand but `optimize` load neither.
    import numpy as np
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=pop.seed))
    eye = _uniform01(gen, pop.sample_count)
    ndtri(eye, out=eye)
    eye *= pop.height_std_cm
    eye += pop.height_mean_cm
    eye -= cfg.eye_crown_offset_cm
    distance = _uniform01(gen, pop.sample_count)
    distance *= pop.distance_max_cm - pop.distance_min_cm
    distance += pop.distance_min_cm
    valid = (eye > cfg.panel_bottom_height_cm) & (eye < MAX_EYE_HEIGHT_CM)
    rejected = int(pop.sample_count - valid.sum())
    if rejected:
        eye = eye[valid]
        distance = distance[valid]
    return eye, distance, rejected


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


def _square_mean(r: np.ndarray) -> float:
    """mean(r * r), with np.mean's bits, squaring r in place."""
    r *= r
    return float(r.sum()) / r.size


def _mean_squares(r: np.ndarray, part: np.ndarray) -> tuple[float, float, float]:
    """(M, P, N) of one residual vector: its mean square, and the mean squares
    of its positive and negative parts. P and N pass through the work vector
    part, one chunk of its length at a time, so part may be shorter than r;
    then r is squared in place for M."""
    import numpy as np

    pos = neg = 0.0
    for lo in range(0, r.size, part.size):
        chunk = r[lo:lo + part.size]
        work = part[:chunk.size]
        np.maximum(chunk, 0.0, out=work)
        pos += float(work.dot(work))
        np.minimum(chunk, 0.0, out=work)
        neg += float(work.dot(work))
    return _square_mean(r), pos / r.size, neg / r.size


def _grid_argmin(evaluate, last: int) -> int:
    """First i in 0..last minimizing M(i), the index a scan of the whole grid
    picks; evaluate(i) returns the floats (M(i), P(i), N(i)).

    The bound contract: for grid indices p < q, P(p) + N(q) is a lower bound
    on M at every index in p..q, up to a margin of 1e-9 times the best M
    plus 1e-18. The margin holds for P and N accurate to a relative n * eps,
    as any sum of n nonnegative squares is (1.1e-10 at a million terms), and
    for squares that underflow. Best first, the span with the lowest bound
    is split at its midpoint until no bound can beat the best point: about
    30 evaluations, none repeated.
    """
    seen = {i: evaluate(i) for i in {0, last}}
    best = min((m, i) for i, (m, _, _) in seen.items())  # ties keep the first index
    spans = [(seen[0][1] + seen[last][2], 0, last)] if last > 1 else []
    while spans and spans[0][0] <= best[0] * (1.0 + 1e-9) + 1e-18:
        _, p, q = heapq.heappop(spans)
        mid = (p + q) // 2
        seen[mid] = evaluate(mid)
        best = min(best, (seen[mid][0], mid))
        for a, b in ((p, mid), (mid, q)):
            if b - a > 1:
                heapq.heappush(spans, (seen[a][1] + seen[b][2], a, b))
    return best[1]


def _residual_minimum(eye: np.ndarray, distance: np.ndarray, top: float, bottom: float, last: int) -> float:
    """Drop minimizing the mean of the squared residual theta_top +
    theta_bottom - 2 * theta_cam, which is 0 where the camera ray bisects a
    shopper's view of the panel: the grid argmin over 0..last, refined by
    golden section. Each element of the residual rises with the drop
    (theta_cam falls), so between grid points p < q it stays within its
    values at p and q, and _grid_argmin's bound P(p) + N(q) holds. This
    function owns the vectors: next to eye and distance, theta_top +
    theta_bottom, the residual that every evaluation overwrites, and a work
    vector 1/_WORK_CHUNKS as long for P and N; a peak of 4.25 population
    vectors. All but eye and distance are freed on return."""
    import numpy as np

    theta_sum = np.subtract(top, eye)
    np.arctan2(theta_sum, distance, out=theta_sum)
    r = np.subtract(bottom, eye)
    theta_sum += np.arctan2(r, distance, out=r)
    part = np.empty(-(-r.size // _WORK_CHUNKS))

    def residual(drop: float) -> np.ndarray:
        # theta_sum - 2.0 * arctan2(top - drop - eye, distance), in place.
        np.subtract(top - drop, eye, out=r)
        np.arctan2(r, distance, out=r)
        np.multiply(2.0, r, out=r)
        return np.subtract(theta_sum, r, out=r)

    best = _grid_argmin(lambda i: _mean_squares(residual(i * RESIDUAL_GRID_STEP_CM), part), last)
    lo = max(best - 1, 0) * RESIDUAL_GRID_STEP_CM
    hi = min(best + 1, last) * RESIDUAL_GRID_STEP_CM
    return _golden_min(lambda drop: _square_mean(residual(drop)), lo, hi, RESIDUAL_REFINE_TOL_CM)


def optimize_camera_drop(cfg: ShelfConfig, pop: PopulationSpec) -> PlacementResult:
    """Per-sample bisector drops aggregated over the population.

    Also runs the residual estimator: the drop minimizing the mean squared
    imbalance (``_residual_minimum``, whose bound makes ``_grid_argmin`` pick
    the same 0.1 cm grid point as evaluating every drop). That point is
    refined once by golden section to 1e-4 cm between its neighbours, which
    assumes the curve is unimodal there.
    Deterministic for a fixed seed; samples are aggregated in draw order.
    The declared ranges of the settings bound the grid to 10,001 points and
    keep every drop and squared residual finite and, at drop 0, nonzero.
    Its peak is the search's, 4.25 population vectors (8 bytes a sampled
    shopper each): 34 MB at a million shoppers.
    """
    import numpy as np

    eye, distance, rejected = sample_population(cfg, pop)
    if eye.size == 0:
        raise AllSamplesRejectedError(
            f"all {pop.sample_count} samples failed geometry preconditions"
        )

    top = cfg.shelf_height_cm
    bottom = cfg.panel_bottom_height_cm
    last = math.ceil((cfg.panel_height_cm + RESIDUAL_GRID_STEP_CM / 2) / RESIDUAL_GRID_STEP_CM) - 1
    residual_db = _residual_minimum(eye, distance, top, bottom, last)

    # Per-sample drops, panel * ab / (ab + ac) with ab = hypot(distance, top -
    # eye) and ac = hypot(distance, eye - bottom), in two vectors: ac
    # overwrites eye, and distance goes once both are computed.
    db = np.subtract(top, eye)
    np.hypot(distance, db, out=db)
    eye -= bottom
    ac = np.hypot(distance, eye, out=eye)
    del eye, distance
    ac += db
    db *= cfg.panel_height_cm
    db /= ac
    del ac

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
    expression covers r > 1 after rearrangement. ValueError: a stature outside
    ``PersonSample.stature_cm``'s range, NaN included. NoValidDistanceError:
    no positive distance (eye too low or high for the drop, or mid-panel camera).
    """
    h = stature_cm - cfg.eye_crown_offset_cm
    bottom = cfg.panel_bottom_height_cm
    if not bottom < h < MAX_EYE_HEIGHT_CM:  # every invalid stature lands here, NaN too
        check_value("stature_cm", stature_cm, *field_range(PersonSample, "stature_cm"))
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


class DistanceRow(NamedTuple):
    stature_cm: float
    distance_cm: float | None
    status: str


def distance_table(cfg: ShelfConfig, statures_cm: list[float]) -> list[DistanceRow]:
    """Recommended distance per stature; unreachable rows are marked, and invalid statures raise ValueError."""
    if not statures_cm:
        raise ValueError("stature list must be non-empty")
    rows = []
    for stature in statures_cm:
        try:
            rows.append(DistanceRow(stature, recommended_distance(cfg, stature), STATUS_OK))
        except NoValidDistanceError:
            rows.append(DistanceRow(stature, None, STATUS_NO_DISTANCE))
    return rows

