"""Capture/processing pipeline simulation with a latest-frame queue."""

import copy
import dataclasses
import inspect
import math
import pickle
import random
import re
import struct
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shelfgaze import pipeline
from shelfgaze.cli import main, parse_distribution
from shelfgaze.pipeline import (
    CAPTURE,
    COMPLETE,
    DROP,
    TAKE,
    FixedTime,
    NormalTime,
    SimConfig,
    SimEvent,
    UniformTime,
    replay_metrics,
    simulate,
    sweep_processing_time,
    trace,
)


def fixed_cfg(ms, fps=30.0, duration=60.0, seed=0):
    return SimConfig(processing_time=FixedTime(ms), capture_fps=fps, duration_s=duration, seed=seed)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FixedTime(0.0)
    with pytest.raises(ValueError):
        UniformTime(0.0, 5.0)
    with pytest.raises(ValueError):
        UniformTime(10.0, 5.0)
    with pytest.raises(ValueError):
        NormalTime(-1.0, 2.0)
    with pytest.raises(ValueError):
        NormalTime(5.0, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^ms must be finite"):
            FixedTime(bad)
        with pytest.raises(ValueError, match="^hi_ms must be finite"):
            UniformTime(1.0, bad)
        with pytest.raises(ValueError, match="^mean_ms must be finite"):
            NormalTime(bad, 1.0)
        with pytest.raises(ValueError, match="^std_ms must be finite"):
            NormalTime(5.0, bad)


def test_normal_samples_stay_positive():
    import random

    dist = NormalTime(1.0, 50.0)  # heavy truncation
    rng = random.Random(0)
    assert all(dist.sample(rng) > 0 for _ in range(2000))


def test_parse_distribution():
    assert parse_distribution("fixed:83.33") == FixedTime(83.33)
    assert parse_distribution("uniform:66.7,100") == UniformTime(66.7, 100.0)
    assert parse_distribution("normal:83,10") == NormalTime(83.0, 10.0)
    for bad in ("fixed", "fixed:a", "uniform:5", "normal:1,2,3", "gamma:1,2"):
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        fixed_cfg(80.0, fps=0.0)
    with pytest.raises(ValueError):
        fixed_cfg(80.0, duration=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^capture_fps must be finite"):
            fixed_cfg(80.0, fps=bad)
        with pytest.raises(ValueError, match="^duration_s must be finite"):
            fixed_cfg(80.0, duration=bad)


def test_slow_consumer_frozen_metrics():
    # 83.33 ms of work against 33.3 ms capture spacing: the consumer finishes
    # 720 of the 1800 captured frames in a minute.
    m = simulate(fixed_cfg(83.33))
    assert m.processed_count == 720
    assert m.captured_count == 1800
    assert m.dropped_count == 1079
    assert m.in_flight_count == 1
    assert m.effective_fps == pytest.approx(12.0)
    assert m.skips_per_processed == {1: 360, 2: 359}
    assert m.mean_skips == pytest.approx(1.4993045897079276, rel=1e-12)
    assert m.latency_mean_ms == pytest.approx(107.08537037069, rel=1e-9)
    assert m.latency_p95_ms == pytest.approx(116.41699999999578, rel=1e-9)


def test_first_events_frozen():
    events = trace(fixed_cfg(83.33), 7)
    interval = 1000.0 / 30.0
    expected = [
        (0.0, CAPTURE, 0),
        (0.0, TAKE, 0),
        (interval, CAPTURE, 1),
        (2 * interval, CAPTURE, 2),
        (2 * interval, DROP, 1),
        (83.33, COMPLETE, 0),
        (83.33, TAKE, 2),
    ]
    assert len(events) == 7
    for ev, (t, kind, frame) in zip(events, expected):
        assert ev.t_ms == pytest.approx(t, abs=1e-9)
        assert ev.kind == kind
        assert ev.frame_id == frame


def test_events_sorted_and_within_run():
    events = trace(fixed_cfg(83.33))
    times = [ev.t_ms for ev in events]
    assert times == sorted(times)
    assert all(t <= 60000.0 for t in times)


def test_fast_consumer_keeps_up():
    m = simulate(fixed_cfg(20.0, duration=10.0))
    assert m.processed_count == 300
    assert m.captured_count == 300
    assert m.dropped_count == 0
    assert m.in_flight_count == 0
    assert m.effective_fps == pytest.approx(30.0)
    assert m.skips_per_processed == {0: 299}
    assert m.mean_skips == 0.0
    assert m.latency_mean_ms == pytest.approx(20.0)


def test_very_slow_consumer_fps():
    assert simulate(fixed_cfg(200.0)).effective_fps == pytest.approx(5.0)


def test_completion_at_exact_end_counts():
    # Work that finishes exactly when the run ends is still processed.
    m = simulate(fixed_cfg(100.0, fps=10.0, duration=1.0))
    assert m.processed_count == 10
    assert m.in_flight_count == 0
    assert m.dropped_count == 0


def test_uniform_processing_stays_in_band():
    m = simulate(SimConfig(processing_time=UniformTime(66.7, 100.0), seed=0))
    assert 10.0 <= m.effective_fps <= 15.0
    assert set(m.skips_per_processed) <= {1, 2, 3, 4, 5}


def test_replay_reproduces_metrics():
    configs = [
        fixed_cfg(83.33),
        SimConfig(processing_time=UniformTime(66.7, 100.0), seed=11),
        SimConfig(processing_time=NormalTime(83.0, 10.0), seed=2),
        SimConfig(processing_time=FixedTime(50.0), capture_jitter=UniformTime(0.5, 3.0), seed=3),
    ]
    for cfg in configs:
        assert replay_metrics(trace(cfg), cfg) == simulate(cfg)


# How a run ends, with its processed, captured, dropped and in-flight counts,
# skip histogram and mean latency, which `simulate` tallies in the loop.
RUN_ENDS = [
    # Frame 1 completes at the end, 200 ms after its capture; frame 2, in the
    # slot, is dropped at the end.
    pytest.param(fixed_cfg(150.0, fps=10.0, duration=0.3), (2, 3, 1, 0, {0: 1}, 175.0), id="done-at-end-slot-full"),
    pytest.param(fixed_cfg(83.33, duration=0.1), (1, 3, 1, 1, {}, 83.33), id="frame-in-flight"),
    pytest.param(fixed_cfg(20.0, duration=0.1), (3, 3, 0, 0, {0: 2}, 20.0), id="idle"),
    # The first capture, jittered to 5 ms, falls past a 1 ms run.
    pytest.param(SimConfig(FixedTime(50.0), capture_jitter=FixedTime(5.0), duration_s=0.001),
                 (0, 0, 0, 0, {}, None), id="first-capture-past-the-end"),
]


@pytest.mark.parametrize(("cfg", "counts"), RUN_ENDS)
def test_tally_at_the_end_of_a_run(cfg, counts):
    m = simulate(cfg)
    assert m == replay_metrics(trace(cfg), cfg)
    assert (*m[:4], m.skips_per_processed, m.latency_mean_ms) == counts


def test_determinism_and_seed_sensitivity():
    cfg = SimConfig(processing_time=UniformTime(66.7, 100.0), seed=4)
    assert trace(cfg) == trace(cfg)
    other = SimConfig(processing_time=UniformTime(66.7, 100.0), seed=5)
    assert trace(cfg) != trace(other)


def test_jitter_keeps_capture_clock_monotone():
    cfg = SimConfig(
        processing_time=FixedTime(83.33),
        capture_jitter=NormalTime(2.0, 1.0),
        duration_s=20.0,
        seed=6,
    )
    captures = [ev for ev in trace(cfg) if ev.kind == CAPTURE]
    times = [ev.t_ms for ev in captures]
    assert times == sorted(times)
    assert all(t < 20000.0 for t in times)
    # Jitter shifts ticks off the exact schedule.
    assert any(not math.isclose(t % (1000.0 / 30.0), 0.0, abs_tol=1e-9) for t in times[1:])


def test_trace_csv_format(capsys):
    assert main(["simulate", "--proc", "fixed:83.33", "--trace", "2"]) == 0
    assert capsys.readouterr().out == "t_ms,event,frame_id\n0.0,capture,0\n0.0,take,0\n"
    # The limit is a count: a bool, a fraction, NaN or a string is rejected
    # like a negative number, as `cell_center` rejects such an index.
    for limit in (-1, True, 2.5, math.nan, "3"):
        with pytest.raises(ValueError, match="^limit must be "):
            trace(fixed_cfg(83.33), limit)


def test_trace_limit_past_the_stream_returns_the_whole_stream(capsys):
    cfg = fixed_cfg(83.33)
    assert trace(cfg, 2**70) == trace(cfg, 2**63) == trace(cfg)
    outputs = []
    for limit in ("99999999999999999999999", "1000"):
        assert main(["simulate", "--duration", "1", "--trace", limit]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + len(trace(fixed_cfg(83.33, duration=1.0)))


def test_replay_rejects_unknown_kind():
    cfg = fixed_cfg(83.33)
    # Rows the latest-frame consumer could not have emitted, each with the
    # kind and frame of the first row it rejects.
    streams = [
        ([(0.0, "teleport", 0)], "teleport", 0),
        ([(0.0, CAPTURE, 0), (0.0, TAKE, 0), (1.0, "teleport", 0)], "teleport", 0),
        # A completion needs a take of its frame, which needs a capture that
        # was not dropped.
        ([(0.0, COMPLETE, 5)], COMPLETE, 5),
        ([(0.0, CAPTURE, 0), (0.0, DROP, 0), (1.0, COMPLETE, 0)], COMPLETE, 0),
        ([(0.0, CAPTURE, 0), (5.0, COMPLETE, 0)], COMPLETE, 0),
        ([(0.0, CAPTURE, 0), (0.0, TAKE, 0), (5.0, COMPLETE, 5)], COMPLETE, 5),
        ([(0.0, COMPLETE, None)], COMPLETE, None),
        # A drop of a frame never captured.
        ([(0.0, DROP, 3)], DROP, 3),
        # A take while a frame is in flight.
        ([(0.0, CAPTURE, 0), (0.0, TAKE, 0), (1.0, CAPTURE, 1), (2.0, TAKE, 1)], TAKE, 1),
        # A capture whose id is not the number of captures so far.
        ([(0.0, CAPTURE, 0), (0.0, CAPTURE, 0)], CAPTURE, 0),
        # A frame id that is not an int, though it equals one.
        ([(0.0, CAPTURE, 0.0), (0.0, TAKE, 0.0), (5.0, CAPTURE, 1.0), (10.0, COMPLETE, 0.0), (10.0, TAKE, 1.0),
          (20.0, COMPLETE, 1.0)], CAPTURE, 0.0),
        ([(0.0, CAPTURE, False)], CAPTURE, False),
        ([(0.0, CAPTURE, 0), (0.0, TAKE, 0.0)], TAKE, 0.0),
        ([(0.0, CAPTURE, 0), (0.0, DROP, False)], DROP, False),
        ([(0.0, CAPTURE, 0), (0.0, TAKE, 0), (5.0, COMPLETE, 0.0)], COMPLETE, 0.0),
    ]
    for rows, kind, frame in streams:
        with pytest.raises(ValueError, match=f"^unexpected '{kind}' event for frame {frame}$"):
            replay_metrics([SimEvent(*row) for row in rows], cfg)
    # A whole run drops the frame left in the slot at the end.
    waiting = [SimEvent(0.0, CAPTURE, 0), SimEvent(0.0, TAKE, 0), SimEvent(1.0, CAPTURE, 1)]
    with pytest.raises(ValueError, match="^frame 1 is captured but never taken or dropped$"):
        replay_metrics(waiting, cfg)
    # Times no run emits: a completion before the take it ends, at NaN, and
    # past the end of a 60 s run; a capture before the run starts.
    taken = [SimEvent(5.0, CAPTURE, 0), SimEvent(5.0, TAKE, 0)]
    for stream, message in (
        (taken + [SimEvent(1.0, COMPLETE, 0)], "'complete' event for frame 0 at 1.0 ms is outside [5.0, 60000.0]"),
        (taken + [SimEvent(math.nan, COMPLETE, 0)], "'complete' event for frame 0 at nan ms is outside [5.0, 60000.0]"),
        (taken + [SimEvent(9e9, COMPLETE, 0)],
         "'complete' event for frame 0 at 9000000000.0 ms is outside [5.0, 60000.0]"),
        ([SimEvent(-1.0, CAPTURE, 0)], "'capture' event for frame 0 at -1.0 ms is outside [0.0, 60000.0]"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay_metrics(stream, cfg)
    # An event at the last time, and one at the end, are in time.
    at_end = taken + [SimEvent(5.0, CAPTURE, 1), SimEvent(5.0, CAPTURE, 2), SimEvent(5.0, DROP, 1),
                      SimEvent(60000.0, DROP, 2)]
    assert replay_metrics(at_end, cfg)[:4] == (0, 3, 2, 1)


class _Row(NamedTuple):
    """An event of another type, its fields in another order."""

    frame_id: int
    kind: str
    t_ms: float


def _rows(events):
    return [_Row(ev.frame_id, ev.kind, ev.t_ms) for ev in events]


def test_replay_reads_events_by_attribute():
    cfg = SimConfig(UniformTime(66.7, 100.0), duration_s=3.0, seed=11)
    events = trace(cfg)
    assert replay_metrics(_rows(events), cfg) == replay_metrics(events, cfg) == simulate(cfg)
    # The same errors, by the same names.
    for damaged in (events[:5] + events[6:], events[:-1]):
        messages = []
        for stream in (damaged, _rows(damaged)):
            with pytest.raises(ValueError) as raised:
                replay_metrics(stream, cfg)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def test_sweep_rows():
    rows = sweep_processing_time(fixed_cfg(83.33), [20.0, 83.33, 200.0])
    assert [row.time_ms for row in rows] == [20.0, 83.33, 200.0]
    assert rows[0].effective_fps == pytest.approx(30.0)
    assert rows[0].mean_skips == 0.0
    assert rows[1].effective_fps == pytest.approx(12.0)
    assert rows[1].mean_skips == pytest.approx(1.4993045897079276)
    assert rows[2].effective_fps == pytest.approx(5.0)
    assert sweep_processing_time(fixed_cfg(83.33), [20.0]) == sweep_processing_time(
        fixed_cfg(83.33), [20.0]
    )
    with pytest.raises(ValueError):
        sweep_processing_time(fixed_cfg(83.33), [])


def test_sweep_seeds_wrap_past_the_top_of_the_range(monkeypatch):
    seeds = []
    run = pipeline.simulate
    monkeypatch.setattr(pipeline, "simulate", lambda cfg: seeds.append(cfg.seed) or run(cfg))
    sweep_processing_time(fixed_cfg(83.33, seed=2**128 - 2), [20.0, 20.0, 20.0])
    assert seeds == [2**128 - 2, 2**128 - 1, 0]


def test_metrics_json_shape(capsys):
    import json

    assert main(["simulate", "--proc", "fixed:83.33"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["processed_count"] == 720
    assert data["effective_fps"] == 12.0
    assert data["skips_per_processed"] == {"1": 360, "2": 359}
    # Histogram keys are strings because JSON objects cannot key on ints.
    assert main(["simulate", "--proc", "fixed:50", "--duration", "0.01"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert short["mean_skips"] is None
    assert short["latency_p95_ms"] is None


def test_skip_histogram_lists_gaps_in_order():
    # The gaps of this run first occur in the order 2, 1, 4, 0, 3, 5; the
    # histogram, and so the JSON output, lists them by gap.
    cfg = SimConfig(processing_time=UniformTime(20.0, 200.0), duration_s=10.0, seed=9)
    expected = [(0, 22), (1, 22), (2, 17), (3, 15), (4, 12), (5, 10)]
    for m in (simulate(cfg), replay_metrics(trace(cfg), cfg)):
        assert list(m.skips_per_processed.items()) == expected
        assert m.mean_skips == 2.0306122448979593


MS = st.floats(1.0, 300.0)
DISTRIBUTIONS = st.one_of(
    MS.map(FixedTime),
    st.tuples(MS, MS).map(lambda v: UniformTime(min(v), max(v))),
    st.tuples(MS, st.floats(0.0, 100.0)).map(lambda v: NormalTime(*v)),
)


CONFIGS = st.builds(
    SimConfig,
    processing_time=DISTRIBUTIONS,
    capture_fps=st.floats(5.0, 120.0),
    duration_s=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32),
    capture_jitter=st.none() | DISTRIBUTIONS,
)


@settings(max_examples=100, deadline=None)
@given(CONFIGS)
@example(fixed_cfg(83.33))
@example(fixed_cfg(20.0, duration=10.0))
@example(fixed_cfg(200.0))
@example(SimConfig(processing_time=UniformTime(66.7, 100.0), seed=5))
@example(SimConfig(processing_time=NormalTime(83.0, 10.0), seed=9))
@example(SimConfig(processing_time=FixedTime(83.33), capture_jitter=UniformTime(0.5, 3.0)))
def test_frame_conservation(cfg):
    # Every captured frame ends up processed, dropped, or still in flight.
    # `simulate` takes its counts from this balance, so it is checked on the
    # replay, which counts each kind of event on its own.
    m = replay_metrics(trace(cfg), cfg)
    assert m.captured_count == m.processed_count + m.dropped_count + m.in_flight_count
    assert m.in_flight_count in (0, 1)
    # Exactly ints: a bool count would print as `true` in the JSON output.
    assert [type(count) for count in simulate(cfg)[:4]] == [int] * 4


@settings(max_examples=200, deadline=None)
@given(CONFIGS, st.integers(0, 2**32), st.booleans())
def test_replay_rejects_or_conserves_a_damaged_trace(cfg, k, duplicate):
    # One event of a whole trace deleted or repeated: the fold rejects the
    # stream, or what it accepts still conserves frames.
    events = trace(cfg)
    if events:
        i = k % len(events)
        events[i:i + 1] = [events[i]] * (2 if duplicate else 0)
    try:
        m = replay_metrics(events, cfg)
    except ValueError:
        return
    assert m.in_flight_count in (0, 1)
    assert m.captured_count == m.processed_count + m.dropped_count + m.in_flight_count


@settings(max_examples=200, deadline=None)
@given(MS, st.floats(5.0, 120.0), st.floats(0.01, 5.0))
@example(83.33, 30.0, 60.0)  # the paper's 12 FPS
# Work exactly one capture interval long, over a whole number of them: in
# exact arithmetic the last completion lands on the end.
@example(1000 / 39, 39.0, 4.230769230769233)
def test_throughput_law_with_fixed_processing(ms, fps, duration_s):
    # With fixed work T and exact capture ticks, the consumer finishes
    # min(fps, 1000 / T) frames a second: it keeps up, or it takes the slot's
    # frame at each completion. Over the run that is right to within one
    # frame, plus the rounding of float event times at the end.
    m = simulate(fixed_cfg(ms, fps=fps, duration=duration_s))
    assert abs(m.processed_count - min(fps, 1000.0 / ms) * duration_s) <= 1 + 1e-9


def _oracle(fps, ms, duration_s):
    """A fixed-time, unjittered run in closed form, in exact arithmetic: the
    capture interval I, the run's end D, the capture count, the (completion
    time, frame) of each processed frame, and the frames in flight at the end.

    With T <= I each capture kI is taken at once and done at kI + T, if that
    is by D. With T > I take k is at kT, of frame floor(kT / I), the newest
    capture by then: a capture at a completion's time comes first. The run
    stops at the first take done past D, or after a completion at D."""
    interval, t_proc, end = Fraction(1000.0 / fps), Fraction(ms), Fraction(duration_s * 1000.0)
    captured = math.ceil(end / interval)  # the captures kI < D
    if t_proc <= interval:
        done = [(k * interval + t_proc, k) for k in range(captured) if k * interval + t_proc <= end]
        return interval, end, captured, done, captured - len(done)
    done, t = [], Fraction(0)
    while t < end and t + t_proc <= end:
        done.append((t + t_proc, t // interval))
        t += t_proc
    return interval, end, captured, done, int(t < end)


@st.composite
def exact_runs(draw):
    """(fps, ms, duration_s) with I = 1000 / fps = 2^a * 5^b / 2^j, T = m / 2^j
    and D a multiple of 15.625 ms, so that every time the loop computes is an
    exact float; T up to I or from I to 8 I, as often; at most 3,000 captures,
    as many runs in each octave of length."""
    fps = 2.0 ** draw(st.integers(-3, 7)) * 5 ** draw(st.integers(0, 3))
    scale = 2 ** draw(st.integers(0, 6))
    top = int(1000 / fps * scale)  # the largest m with T <= I
    ms = draw(st.integers(1, max(1, top)) if draw(st.booleans()) else st.integers(top + 1, 8 * top + 1)) / scale
    units = max(1, int(3000 * 64 / fps))  # the most 1/64 s units in 3,000 captures
    octave = draw(st.integers(0, units.bit_length() - 1))
    return fps, ms, draw(st.integers(2**octave, min(2 ** (octave + 1), units))) / 64


@settings(max_examples=150, deadline=None)
@given(exact_runs())
@example((25.0, 20.0, 1.0))  # T < I: each capture taken at once
@example((10.0, 100.0, 1.0))  # T = I: each completion on the next capture, the last at D
@example((32.0, 83.25, 60.0))  # T > I, near the paper's 12 FPS
# T > I: completions on the capture ticks at 300, 600 and 900 ms, and frame 9,
# taken at 900 ms, is in flight at the end.
@example((10.0, 150.0, 1.0))
@example((10.0, 150.0, 0.3))  # T > I: frame 1 done at D, frame 2 in the slot
def test_fixed_unjittered_runs_match_the_exact_oracle(run):
    fps, ms, duration_s = run
    interval, end, captured, done, in_flight = _oracle(fps, ms, duration_s)
    # The family's premise: I as the loop computes it is exact, and so is
    # each latency.
    assert interval == Fraction(1000) / Fraction(fps)
    latencies = [float(c - frame * interval) for c, frame in done]
    assert [Fraction(x) for x in latencies] == [c - frame * interval for c, frame in done]
    m = simulate(fixed_cfg(ms, fps=fps, duration=duration_s))
    assert m.captured_count == captured
    dropped = captured - len(done) - in_flight
    assert (m.processed_count, m.dropped_count, m.in_flight_count) == (len(done), dropped, in_flight)
    gaps = Counter(b - a - 1 for (_, a), (_, b) in zip(done, done[1:]))
    assert list(m.skips_per_processed.items()) == sorted(gaps.items())
    if latencies:
        assert _bits(m.latency_mean_ms) == _bits(float(np.mean(latencies)))
        assert _bits(m.latency_p95_ms) == _bits(float(np.percentile(latencies, 95)))
    else:
        assert m.latency_mean_ms is m.latency_p95_ms is None


def test_oracle_examples_reach_their_cases():
    # The explicit examples above do reach the cases they are named for.
    interval, end, captured, done, in_flight = _oracle(25.0, 20.0, 1.0)
    assert 20 < interval and len(done) == captured
    interval, end, captured, done, in_flight = _oracle(10.0, 100.0, 1.0)
    assert 100 == interval and done[-1][0] == end and in_flight == 0
    for run in ((32.0, 83.25, 60.0), (10.0, 150.0, 1.0), (10.0, 150.0, 0.3)):
        assert run[1] > _oracle(*run)[0]
    # Completions on capture ticks before the end, and a run that ends busy.
    interval, end, captured, done, in_flight = _oracle(10.0, 150.0, 1.0)
    assert [c for c, _ in done if c % interval == 0 and c < end] == [300, 600, 900]
    assert in_flight == 1 and done[-1][0] + 150 > end
    # A completion at D, with the newest capture in the slot.
    interval, end, captured, done, in_flight = _oracle(10.0, 150.0, 0.3)
    assert done[-1][0] == end and in_flight == 0 and captured - 1 not in [frame for _, frame in done]


@settings(max_examples=100, deadline=None)
@given(CONFIGS, st.integers(0, 700))
def test_trace_and_simulate_fold_alike(cfg, k):
    events = trace(cfg)
    assert all(type(ev) is SimEvent for ev in events)
    assert replay_metrics(events, cfg) == simulate(cfg)
    assert replay_metrics(iter(events), cfg) == simulate(cfg)
    assert trace(cfg, k) == events[:k]


@settings(max_examples=100, deadline=None)
@given(CONFIGS)
# The slowest capture, longest run and longest processing time in range: each
# completion falls on the next capture, which the consumer takes at once.
@example(SimConfig(FixedTime(1e6), capture_fps=1e-3, duration_s=1e6))
def test_trace_follows_the_latest_frame_policy(cfg):
    events = trace(cfg)
    slot = in_flight = overwritten = None
    newest = -1
    taken, dropped = set(), set()
    for i, ev in enumerate(events):
        prev = events[i - 1] if i else None
        if overwritten is not None:
            # The capture that overwrote the slot is directly followed by its drop.
            assert (ev.t_ms, ev.kind, ev.frame_id) == (prev.t_ms, DROP, overwritten)
            overwritten = None
            dropped.add(ev.frame_id)
        elif ev.kind == CAPTURE:
            assert ev.frame_id == newest + 1
            overwritten = slot
            newest = slot = ev.frame_id
        elif ev.kind == DROP:
            # Not at a capture time: the one frame left in the slot at the end.
            assert i == len(events) - 1
            assert (ev.t_ms, ev.frame_id) == (cfg.duration_s * 1000.0, slot)
            slot = None
            dropped.add(ev.frame_id)
        elif ev.kind == TAKE:
            assert prev.kind in (CAPTURE, COMPLETE) and prev.t_ms == ev.t_ms
            assert in_flight is None
            assert ev.frame_id == slot == newest and ev.frame_id not in dropped
            assert ev.frame_id not in taken
            taken.add(ev.frame_id)
            in_flight, slot = ev.frame_id, None
        else:
            assert ev.kind == COMPLETE and ev.frame_id == in_flight
            in_flight = None
    assert overwritten is None and slot is None


def _reference_events(cfg):
    """`pipeline._events` written as one loop with one branch per event and
    the capture clock in a nested function: slower, and kept here as the
    definition of the event stream."""
    interval_ms = 1000.0 / cfg.capture_fps
    duration_ms = cfg.duration_s * 1000.0
    proc_rng = random.Random(cfg.seed)
    jitter_rng = random.Random(f"{cfg.seed}:capture-jitter")

    def capture_time(index, prev):
        t = index * interval_ms
        if cfg.capture_jitter is not None:
            t += cfg.capture_jitter.sample(jitter_rng)
            if prev is not None and t < prev:
                t = prev
        return t

    next_id = 0
    next_cap = capture_time(0, None)
    slot = None
    current = 0
    done_t = None
    while next_cap < duration_ms or (done_t is not None and done_t <= duration_ms):
        if next_cap < duration_ms and (done_t is None or next_cap <= done_t):
            t = next_cap
            yield t, CAPTURE, next_id
            if slot is not None:
                yield t, DROP, slot
            slot = next_id
            next_id += 1
            next_cap = capture_time(next_id, t)
        else:
            t = done_t
            yield t, COMPLETE, current
            done_t = None
        if done_t is None and slot is not None and t < duration_ms:
            current, slot = slot, None
            yield t, TAKE, current
            done_t = t + cfg.processing_time.sample(proc_rng)
    if slot is not None:
        yield duration_ms, DROP, slot


def _stream(events):
    return [(t.hex(), kind, frame_id) for t, kind, frame_id in events]


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
# A completion exactly at the end, with the slot empty and with a frame in it.
@example(fixed_cfg(100.0, fps=10.0, duration=1.0))
@example(fixed_cfg(150.0, fps=10.0, duration=0.3))
# Jitter up to 500 ms on a 33 ms clock: many captures clamped to the one before.
@example(SimConfig(FixedTime(83.33), capture_jitter=UniformTime(0.001, 500.0), duration_s=2.0))
@example(SimConfig(FixedTime(1e6), capture_fps=1e-3, duration_s=1e6))
# Integer times still give float timestamps.
@example(SimConfig(FixedTime(50), capture_jitter=FixedTime(5), duration_s=1))
def test_events_match_the_reference_loop_bit_for_bit(cfg):
    assert _stream(pipeline._events(cfg)) == _stream(_reference_events(cfg))


def test_reference_examples_reach_their_edge_cases():
    # The explicit examples above do reach the cases they are named for.
    for cfg, slot_full_at_end in ((fixed_cfg(100.0, fps=10.0, duration=1.0), False),
                                  (fixed_cfg(150.0, fps=10.0, duration=0.3), True)):
        events = list(_reference_events(cfg))
        assert (1000.0 * cfg.duration_s, COMPLETE) in [(t, kind) for t, kind, _ in events]
        assert (events[-1][1] == DROP) is slot_full_at_end
    jittered = SimConfig(FixedTime(83.33), capture_jitter=UniformTime(0.001, 500.0), duration_s=2.0)
    captures = [t for t, kind, _ in _reference_events(jittered) if kind == CAPTURE]
    assert sum(a == b for a, b in zip(captures, captures[1:])) > 10


def test_run_past_the_float_range_ends():
    # Runs whose clock ran past the float range (1e306 s is an infinite
    # number of milliseconds; frame 10 of the others finished past it) are
    # rejected by name: the processing time first, then rate and length.
    for duration_s in (1e306, sys.float_info.max / 1000.0, 1.5e305):
        with pytest.raises(ValueError, match=r"^ms must be in \[0.001, 1000000.0\], got 1e\+308$"):
            SimConfig(FixedTime(1e308), capture_fps=1e-304, duration_s=duration_s)
    with pytest.raises(ValueError, match=r"^capture_fps must be in \[0.001, 1000000000.0\], got 1e-304$"):
        SimConfig(FixedTime(1e6), capture_fps=1e-304, duration_s=1.5e305)
    with pytest.raises(ValueError, match=r"^duration_s must be in \[0.001, 1000000.0\], got 1e\+306$"):
        SimConfig(FixedTime(1e6), capture_fps=1e-3, duration_s=1e306)
    # The longest run in range ends at 1e9 ms, its last frame done on time.
    m = simulate(SimConfig(FixedTime(1e6), capture_fps=1e-3, duration_s=1e6))
    assert (m.captured_count, m.processed_count, m.dropped_count, m.in_flight_count) == (1000, 1000, 0, 0)
    assert m.latency_mean_ms == m.latency_p95_ms == 1e6


# Sizes at the edges of numpy's pairwise sum: the 8 lanes, the 128-value
# block, and 8192, which a buffered reduction would cut at.
BLOCK_EDGES = (1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 20_011)


@st.composite
def latency_lists(draw):
    """Any floats, NaN, infinities and signed zeros included: a drawn list,
    or a list of a block-edge size filled from a drawn pool by a seeded
    stream, some values scaled so that the order of the additions shows."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(), min_size=1, max_size=300))
    pool = draw(st.lists(st.floats(), min_size=1, max_size=16))
    rng = random.Random(draw(st.integers(0, 2**32)))
    scaled = draw(st.floats(0.0, 1.0))
    values = [rng.choice(pool) for _ in range(draw(st.sampled_from(BLOCK_EDGES)))]
    return [x * rng.uniform(-1.0, 1.0) if rng.random() < scaled else x for x in values]


def _bits(x):
    return struct.pack("<d", math.nan if math.isnan(x) else x)


@settings(max_examples=200, deadline=None)
@given(latency_lists())
# numpy's reduction starts from +0.0, so a sum of -0.0s is +0.0.
@example([-0.0])
@example([-0.0] * 9)
@example([-0.0] * 129)
# A NaN sum with no NaN in the list: the percentile still interpolates.
@example([math.inf] + [1.0] * 40 + [-math.inf])
@example([math.inf])
@example([2.0, math.nan, 1.0])
def test_fold_latency_statistics_match_numpy_bit_for_bit(latencies):
    # Any floats, so not a run's: the tallies of frames 0, 1, ... completed
    # with these latencies go to `_metrics`, where both folds end.
    n = len(latencies)
    metrics = pipeline._metrics(n, 0, 0, latencies, list(range(n)), fixed_cfg(50.0))
    with np.errstate(all="ignore"):
        mean = float(np.array(latencies).mean())
        p95 = float(np.percentile(latencies, 95))
    assert _bits(metrics.latency_mean_ms) == _bits(mean)
    if metrics.latency_p95_ms == p95 == 0.0 and {_bits(x) for x in latencies} >= {_bits(0.0), _bits(-0.0)}:
        # numpy's partition leaves equal values in no set order, so with
        # both zeros in the list the sign of a zero percentile is unset.
        return
    assert _bits(metrics.latency_p95_ms) == _bits(p95)


def test_trace_memory_per_event():
    # A frozen slotted SimEvent keeps the trace near 91 B per event; a
    # NamedTuple event reads about 107 B.
    cfg = SimConfig(UniformTime(66.7, 100.0), seed=3)
    trace(cfg)
    tracemalloc.start()
    try:
        events = trace(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 4321
    assert peak <= 96 * len(events)


def test_sim_event_keeps_the_frozen_slotted_dataclass_contract():
    ev = SimEvent(12.5, CAPTURE, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.t_ms = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ev.kind
    assert not hasattr(ev, "__dict__")
    same = SimEvent(t_ms=12.5, kind=CAPTURE, frame_id=3)
    assert ev == same and hash(ev) == hash(same)
    assert ev != SimEvent(12.5, CAPTURE, 4)
    assert repr(ev) == "SimEvent(t_ms=12.5, kind='capture', frame_id=3)"
    assert dataclasses.replace(ev, kind=DROP) == SimEvent(12.5, DROP, 3)
    assert copy.copy(ev) == ev and copy.deepcopy(ev) == ev
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ev, protocol))
        assert type(back) is SimEvent and back == ev
    with pytest.raises(TypeError):
        SimEvent(12.5, CAPTURE)
    with pytest.raises(TypeError):
        SimEvent(12.5, CAPTURE, 3, 4)
    with pytest.raises(TypeError):
        SimEvent(12.5, CAPTURE, 3, kind=DROP)
    assert str(inspect.signature(SimEvent)) == "(t_ms: 'float', kind: 'str', frame_id: 'int') -> None"
