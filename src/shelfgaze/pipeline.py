"""Deterministic discrete-event simulation of the two-process capture
pipeline: a camera process captures at a fixed rate into a single-slot
latest-frame queue, and a consumer takes the newest frame, processes it,
and repeats. Frames overwritten in the slot are dropped, which is what
keeps the consumer working on fresh imagery when it cannot keep up.

Times are milliseconds. When a capture tick coincides with a completion,
the capture is applied first, so the consumer always picks up the newest
possible frame.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import require_finite

CAPTURE = "capture"
DROP = "drop"
TAKE = "take"
COMPLETE = "complete"


@dataclass(frozen=True)
class FixedTime:
    ms: float

    def __post_init__(self) -> None:
        require_finite(self, "ms")
        if self.ms <= 0:
            raise ValueError(f"fixed time must be positive, got {self.ms}")

    def sample(self, rng: random.Random) -> float:
        return self.ms


@dataclass(frozen=True)
class UniformTime:
    lo_ms: float
    hi_ms: float

    def __post_init__(self) -> None:
        require_finite(self, "lo_ms", "hi_ms")
        if not 0 < self.lo_ms <= self.hi_ms:
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo_ms}, {self.hi_ms}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo_ms, self.hi_ms)


@dataclass(frozen=True)
class NormalTime:
    """Gaussian duration truncated to positive values by resampling."""

    mean_ms: float
    std_ms: float

    def __post_init__(self) -> None:
        require_finite(self, "mean_ms", "std_ms")
        if self.mean_ms <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_ms}")
        if self.std_ms < 0:
            raise ValueError(f"std must be nonnegative, got {self.std_ms}")

    def sample(self, rng: random.Random) -> float:
        while True:
            value = rng.gauss(self.mean_ms, self.std_ms)
            if value > 0:
                return value


Distribution = Union[FixedTime, UniformTime, NormalTime]


def parse_distribution(text: str) -> Distribution:
    """Parse CLI notation: fixed:T, uniform:LO,HI, or normal:MEAN,STD."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"expected kind:params, got {text!r}")
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad distribution parameters in {text!r}") from exc
    if kind == "fixed" and len(params) == 1:
        return FixedTime(params[0])
    if kind == "uniform" and len(params) == 2:
        return UniformTime(params[0], params[1])
    if kind == "normal" and len(params) == 2:
        return NormalTime(params[0], params[1])
    raise ValueError(f"unknown distribution {text!r}")


@dataclass(frozen=True)
class SimConfig:
    processing_time: Distribution
    capture_fps: float = 30.0
    duration_s: float = 60.0
    seed: int = 0
    # Optional per-capture timing noise; None keeps capture ticks exact.
    capture_jitter: Distribution | None = None

    def __post_init__(self) -> None:
        require_finite(self, "capture_fps", "duration_s")
        if self.capture_fps <= 0:
            raise ValueError(f"capture fps must be positive, got {self.capture_fps}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")


@dataclass(frozen=True, slots=True)
class SimEvent:
    t_ms: float
    kind: str
    frame_id: int


@dataclass(frozen=True)
class SimMetrics:
    processed_count: int
    captured_count: int
    dropped_count: int
    in_flight_count: int
    effective_fps: float
    skips_per_processed: dict[int, int] = field(default_factory=dict)
    latency_mean_ms: float | None = None
    latency_p95_ms: float | None = None

    @property
    def mean_skips(self) -> float | None:
        total = sum(self.skips_per_processed.values())
        if total == 0:
            return None
        weighted = sum(gap * count for gap, count in self.skips_per_processed.items())
        return weighted / total


def _events(cfg: SimConfig) -> Iterator[SimEvent]:
    """Chronological event stream of one run.

    Event order at equal timestamps is capture, drop (of the overwritten
    slot frame), complete, take. A drop is emitted the moment a newer
    capture overwrites the slot; a frame still waiting in the slot when the
    run ends is dropped at the end time. A frame taken but not completed by
    the end stays in flight and emits no completion.
    """
    interval_ms = 1000.0 / cfg.capture_fps
    duration_ms = cfg.duration_s * 1000.0
    proc_rng = random.Random(cfg.seed)
    jitter_rng = random.Random(f"{cfg.seed}:capture-jitter")

    def capture_time(index: int, prev: float | None) -> float:
        t = index * interval_ms
        if cfg.capture_jitter is not None:
            t += cfg.capture_jitter.sample(jitter_rng)
            if prev is not None and t < prev:
                t = prev  # jitter never reorders the capture clock
        return t

    next_id = 0
    next_cap = capture_time(0, None)
    slot: int | None = None
    current: int | None = None
    done_t = math.inf

    while True:
        cap_pending = next_cap < duration_ms
        done_pending = current is not None and done_t <= duration_ms
        if cap_pending and (not done_pending or next_cap <= done_t):
            t = next_cap
            yield SimEvent(t, CAPTURE, next_id)
            if slot is not None:
                yield SimEvent(t, DROP, slot)
            slot = next_id
            next_id += 1
            next_cap = capture_time(next_id, t)
            if current is None:
                current = slot
                slot = None
                yield SimEvent(t, TAKE, current)
                done_t = t + cfg.processing_time.sample(proc_rng)
        elif done_pending:
            t = done_t
            yield SimEvent(t, COMPLETE, current)
            current = None
            done_t = math.inf
            if slot is not None and t < duration_ms:
                current = slot
                slot = None
                yield SimEvent(t, TAKE, current)
                done_t = t + cfg.processing_time.sample(proc_rng)
        else:
            break

    if slot is not None:
        yield SimEvent(duration_ms, DROP, slot)


def replay_metrics(events: Iterable[SimEvent], cfg: SimConfig) -> SimMetrics:
    """Fold an event stream into metrics. Uses nothing but the events, so a
    recorded trace reproduces the metrics of the run that emitted it."""
    captured = dropped = processed = takes = 0
    capture_t: dict[int, float] = {}
    taken_t: dict[int, float] = {}
    latencies: list[float] = []
    skips: dict[int, int] = {}
    last_done: int | None = None

    for ev in events:
        if ev.kind == CAPTURE:
            captured += 1
            capture_t[ev.frame_id] = ev.t_ms
        elif ev.kind == DROP:
            dropped += 1
            capture_t.pop(ev.frame_id, None)
        elif ev.kind == TAKE:
            takes += 1
            taken_t[ev.frame_id] = capture_t.pop(ev.frame_id)
        elif ev.kind == COMPLETE:
            processed += 1
            latencies.append(ev.t_ms - taken_t.pop(ev.frame_id))
            if last_done is not None:
                gap = ev.frame_id - last_done - 1
                skips[gap] = skips.get(gap, 0) + 1
            last_done = ev.frame_id
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")

    return SimMetrics(
        processed_count=processed,
        captured_count=captured,
        dropped_count=dropped,
        in_flight_count=takes - processed,
        effective_fps=processed / cfg.duration_s,
        skips_per_processed=skips,
        latency_mean_ms=float(np.mean(latencies)) if latencies else None,
        latency_p95_ms=float(np.percentile(latencies, 95)) if latencies else None,
    )


def simulate(cfg: SimConfig) -> SimMetrics:
    return replay_metrics(_events(cfg), cfg)


def trace(cfg: SimConfig, limit: int | None = None) -> list[SimEvent]:
    """First `limit` events of the run (all of them by default),
    chronologically ordered."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    return list(islice(_events(cfg), limit))


@dataclass(frozen=True)
class SweepRow:
    time_ms: float
    effective_fps: float
    mean_skips: float


def sweep_processing_time(cfg: SimConfig, times_ms: list[float]) -> list[SweepRow]:
    """One fixed-time simulation per entry; row i runs with seed cfg.seed + i."""
    if not times_ms:
        raise ValueError("times list must be non-empty")
    rows = []
    for i, time_ms in enumerate(times_ms):
        metrics = simulate(replace(cfg, processing_time=FixedTime(time_ms), seed=cfg.seed + i))
        rows.append(SweepRow(time_ms, metrics.effective_fps, metrics.mean_skips or 0.0))
    return rows
