"""Deterministic discrete-event simulation of the two-process capture
pipeline: a camera process captures at a fixed rate into a single-slot
latest-frame queue, and a consumer takes the newest frame, processes it,
and repeats. Frames overwritten in the slot are dropped, which is what
keeps the consumer working on fresh imagery when it cannot keep up.

Times are milliseconds. When a capture tick coincides with a completion,
the capture is applied first, so the consumer always picks up the newest
possible frame.

One loop, `_events`, states these rules. `trace` runs it for its events;
`simulate` runs it in tally mode, taking its frame counts from frame
conservation. `replay_metrics` folds recorded events (int frame ids, times
that never fall and stay in [0, end of run]) following the consumer's state.
Both end in `_metrics`, the one place that turns completed ids into skip gaps.

Standard library only: the latency mean and 95th percentile are computed the
way numpy computes ``np.mean`` and ``np.percentile``, bit for bit, so the
module does not load numpy.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import partial, wraps
from itertools import islice, starmap
from operator import sub
from typing import Generator, Iterable, NamedTuple, Union

from .errors import check_ranges, check_value, field_range, in_range

CAPTURE = "capture"
DROP = "drop"
TAKE = "take"
COMPLETE = "complete"


@dataclass(frozen=True)
class FixedTime:
    ms: float = in_range(1e-3, 1e6)

    def __post_init__(self) -> None:
        check_ranges(self)

    def sample(self, rng: random.Random) -> float:
        return self.ms


@dataclass(frozen=True)
class UniformTime:
    lo_ms: float = in_range(1e-3, 1e6)
    hi_ms: float = in_range(1e-3, 1e6)

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.lo_ms <= self.hi_ms:
            raise ValueError(f"need lo <= hi, got [{self.lo_ms}, {self.hi_ms}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo_ms, self.hi_ms)


@dataclass(frozen=True)
class NormalTime:
    """Gaussian duration truncated to positive values by resampling."""

    mean_ms: float = in_range(1e-3, 1e6)
    std_ms: float = in_range(0.0, 1e6)

    def __post_init__(self) -> None:
        check_ranges(self)

    def sample(self, rng: random.Random) -> float:
        while True:
            value = rng.gauss(self.mean_ms, self.std_ms)
            if value > 0:
                return value


Distribution = Union[FixedTime, UniformTime, NormalTime]


@dataclass(frozen=True)
class SimConfig:
    processing_time: Distribution
    capture_fps: float = in_range(1e-3, 1e9, default=30.0)
    duration_s: float = in_range(1e-3, 1e6, default=60.0)
    seed: int = in_range(0, 2**128 - 1, default=0)
    # Optional per-capture timing noise; None keeps capture ticks exact.
    capture_jitter: Distribution | None = None

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True, slots=True)
class SimEvent:
    t_ms: float
    kind: str
    frame_id: int


def _init_event(self, t_ms, kind, frame_id):
    _set_t_ms(self, t_ms)
    _set_kind(self, kind)
    _set_frame_id(self, frame_id)


# The generated __init__ stores each field through object.__setattr__, about
# 1.6 times as slow as the slot's own member descriptor. The signature stays.
_set_t_ms, _set_kind, _set_frame_id = (SimEvent.__dict__[f.name].__set__ for f in fields(SimEvent))
SimEvent.__init__ = wraps(SimEvent.__init__)(_init_event)


class SimMetrics(NamedTuple):
    processed_count: int
    captured_count: int
    dropped_count: int
    in_flight_count: int
    effective_fps: float
    mean_skips: float | None
    skips_per_processed: dict[int, int]
    latency_mean_ms: float | None
    latency_p95_ms: float | None


def _events(cfg: SimConfig, tally: bool = False) -> Generator[tuple[float, str, int], None, SimMetrics | None]:
    """Chronological event stream of one run, as plain `(t_ms, kind,
    frame_id)` tuples; `trace` builds the `SimEvent`s.

    The run alternates two phases. While the consumer is idle the slot is
    empty, and a capture is taken at once. While it is busy, each capture
    overwrites the slot and drops the frame there, until the frame in flight
    completes; the consumer then takes the slot's frame, or turns idle. At
    equal timestamps the order is capture, drop, complete, take. At the end,
    a frame in the slot is dropped and a frame in flight emits nothing.

    With `tally`, the run yields nothing and returns the metrics that
    `simulate` reads. It records each latency (completion time less the
    capture time of the frame in flight) and completed frame id. One frame is
    in flight when the last take completes past the end; the rest were dropped.
    """
    interval_ms = 1000.0 / cfg.capture_fps
    duration_ms = cfg.duration_s * 1000.0
    process = partial(cfg.processing_time.sample, random.Random(cfg.seed))
    jitter = (None if cfg.capture_jitter is None
              else partial(cfg.capture_jitter.sample, random.Random(f"{cfg.seed}:capture-jitter")))
    next_id = 0
    next_cap = 0.0 if jitter is None else 0.0 + jitter()  # a float, as every later capture time is
    slot: int | None = None
    done_t = 0.0  # no frame in flight before the first take; next_id counts the captures
    latencies: list[float] = []
    done: list[int] = []

    while next_cap < duration_ms:
        # Idle: the capture is taken at once.
        t = cap_t = next_cap
        current = next_id
        if not tally:
            yield t, CAPTURE, current
        next_id += 1
        next_cap = next_id * interval_ms
        if jitter is not None:
            next_cap += jitter()
            if next_cap < t:
                next_cap = t  # jitter never reorders the capture clock
        while True:
            # Busy with `current`, captured at cap_t and taken at t.
            if not tally:
                yield t, TAKE, current
            done_t = t + process()
            while next_cap <= done_t and next_cap < duration_ms:
                t = next_cap
                if not tally:
                    yield t, CAPTURE, next_id
                    if slot is not None:
                        yield t, DROP, slot
                slot, slot_t = next_id, t
                next_id += 1
                next_cap = next_id * interval_ms
                if jitter is not None:
                    next_cap += jitter()
                    if next_cap < t:
                        next_cap = t  # jitter never reorders the capture clock
            if done_t > duration_ms:
                break  # in flight at the end
            t = done_t
            if tally:
                latencies.append(t - cap_t)
                done.append(current)
            else:
                yield t, COMPLETE, current
            if slot is None or t == duration_ms:
                break  # idle, or the run ends with a frame in the slot
            current, cap_t, slot = slot, slot_t, None

    if tally:
        in_flight = int(done_t > duration_ms)
        return _metrics(next_id, next_id - len(latencies) - in_flight, in_flight, latencies, done, cfg)
    if slot is not None:
        yield duration_ms, DROP, slot


def _pairwise_sum(xs: list[float], lo: int, n: int) -> float:
    """Sum of ``xs[lo:lo + n]`` in numpy's pairwise order: a span longer than
    128 values is split at half its length rounded down to a multiple of 8;
    a shorter one is summed in 8 interleaved lanes, then the lanes pairwise,
    then the tail past the last multiple of 8 one by one."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)
    res, end = 0.0, lo  # fewer than 8 values: one plain loop
    if n >= 8:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            x0, x1, x2, x3, x4, x5, x6, x7 = xs[i:i + 8]
            r0 += x0
            r1 += x1
            r2 += x2
            r3 += x3
            r4 += x4
            r5 += x5
            r6 += x6
            r7 += x7
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in xs[end:lo + n]:
        res += x
    return res


def _mean_p95(xs: list[float]) -> tuple[float, float]:
    """``np.mean(xs)`` and ``np.percentile(xs, 95)`` of a non-empty list, bit
    for bit. numpy adds the pairwise sum to a +0.0 start and divides by n. Its
    linear percentile takes the sorted neighbours a, b of the virtual index
    (n - 1) * 0.95 and lerps from whichever end is nearer. Any NaN makes the
    percentile NaN."""
    n = len(xs)
    mean = (0.0 + _pairwise_sum(xs, 0, n)) / n
    if mean != mean and any(x != x for x in xs):
        return mean, math.nan
    s = sorted(xs)
    v = (n - 1) * 0.95
    # numpy moves an index at the last position to -1, so a lone value is
    # both neighbours, at weight 1.
    k = int(v) if n > 1 else -1
    a, b = s[k], s[k + 1]
    g = v - k
    d = b - a
    return mean, (b - d * (1 - g) if g >= 0.5 else a + d * g)


def _metrics(captured: int, dropped: int, in_flight: int, latencies: list[float],
             done: list[int], cfg: SimConfig) -> SimMetrics:
    """Metrics from a run's tallies: one latency per completion, and the ids
    of completed frames in order; consecutive ids n < m skip m - n - 1 frames."""
    processed = len(latencies)
    latency_mean, latency_p95 = _mean_p95(latencies) if latencies else (None, None)
    skips = {step - 1: count for step, count in sorted(Counter(map(sub, done[1:], done)).items())}
    total = sum(skips.values())
    return SimMetrics(
        processed_count=processed,
        captured_count=captured,
        dropped_count=dropped,
        in_flight_count=in_flight,
        effective_fps=processed / cfg.duration_s,
        mean_skips=sum(gap * count for gap, count in skips.items()) / total if total else None,
        skips_per_processed=skips,
        latency_mean_ms=latency_mean,
        latency_p95_ms=latency_p95,
    )


def replay_metrics(events: Iterable[SimEvent], cfg: SimConfig) -> SimMetrics:
    """Fold the events of a whole run, read by `t_ms`, `kind` and `frame_id`,
    into the metrics of the run that emitted it. ValueError names the kind,
    frame and time of an event before the one it follows (or 0) or past the
    run's end, NaN included; the kind and frame of a frame id not of type `int`,
    a capture whose id is not the count of captures so far, a drop or take of a
    frame not waiting, a take while one is in flight, a complete of a frame not
    in flight, or an unknown kind; and a frame left waiting at the end."""
    last_t, end_ms = 0.0, cfg.duration_s * 1000.0  # the end as `_events` computes it
    captured = dropped = 0
    waiting: dict[int, float] = {}  # capture times of frames not yet dropped or taken
    flight = None  # the frame taken and not completed
    latencies: list[float] = []
    done: list[int] = []
    capture, drop, take, complete = CAPTURE, DROP, TAKE, COMPLETE  # local names read faster
    for ev in events:
        t_ms, kind, frame_id = ev.t_ms, ev.kind, ev.frame_id
        if not last_t <= t_ms <= end_ms:
            raise ValueError(f"{kind!r} event for frame {frame_id} at {t_ms} ms is outside [{last_t}, {end_ms}]")
        last_t = t_ms
        try:
            if frame_id.__class__ is not int:  # 0.0 and False would pass for frame 0 below
                raise KeyError
            if kind == capture and frame_id == captured:
                waiting[frame_id] = t_ms
                captured += 1
            elif kind == drop:
                del waiting[frame_id]
                dropped += 1
            elif kind == take and flight is None:
                flight, cap_t = frame_id, waiting.pop(frame_id)
            elif kind == complete and frame_id == flight:
                latencies.append(t_ms - cap_t)
                done.append(frame_id)
                flight = None
            else:
                raise KeyError
        except KeyError:
            raise ValueError(f"unexpected {kind!r} event for frame {frame_id!r}") from None
    if waiting:
        raise ValueError(f"frame {next(iter(waiting))} is captured but never taken or dropped")

    return _metrics(captured, dropped, int(flight is not None), latencies, done, cfg)


def simulate(cfg: SimConfig) -> SimMetrics:
    # A tallied run yields nothing; its metrics come back with StopIteration.
    try:
        next(_events(cfg, tally=True))
    except StopIteration as end:
        return end.value


def trace(cfg: SimConfig, limit: int | None = None) -> list[SimEvent]:
    """First `limit` events of the run (all of them by default),
    chronologically ordered."""
    if limit is not None:
        check_value("limit", limit, 0, math.inf)
    # islice stops at most at sys.maxsize; no run has that many events.
    stop = None if limit is None else min(limit, sys.maxsize)
    return list(starmap(SimEvent, islice(_events(cfg), stop)))


class SweepRow(NamedTuple):
    time_ms: float
    effective_fps: float
    mean_skips: float


def sweep_processing_time(cfg: SimConfig, times_ms: list[float]) -> list[SweepRow]:
    """One fixed-time simulation per entry; row i runs with seed cfg.seed + i,
    which wraps to 0 past the top of the seed range."""
    if not times_ms:
        raise ValueError("times list must be non-empty")
    seeds = field_range(SimConfig, "seed")[1] + 1
    rows = []
    for i, time_ms in enumerate(times_ms):
        metrics = simulate(replace(cfg, processing_time=FixedTime(time_ms), seed=(cfg.seed + i) % seeds))
        rows.append(SweepRow(time_ms, metrics.effective_fps, metrics.mean_skips or 0.0))
    return rows
