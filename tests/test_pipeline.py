"""Capture/processing pipeline simulation with a latest-frame queue."""

import math

import pytest

from shelfgaze.cli import main
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
    parse_distribution,
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


def test_frame_conservation():
    # Every captured frame ends up processed, dropped, or still in flight.
    configs = [
        fixed_cfg(83.33),
        fixed_cfg(20.0, duration=10.0),
        fixed_cfg(200.0),
        SimConfig(processing_time=UniformTime(66.7, 100.0), seed=5),
        SimConfig(processing_time=NormalTime(83.0, 10.0), seed=9),
        SimConfig(processing_time=FixedTime(83.33), capture_jitter=UniformTime(0.5, 3.0)),
    ]
    for cfg in configs:
        m = simulate(cfg)
        assert m.captured_count == m.processed_count + m.dropped_count + m.in_flight_count


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
    with pytest.raises(ValueError):
        trace(fixed_cfg(83.33), -1)


def test_replay_rejects_unknown_kind():
    cfg = fixed_cfg(83.33)
    with pytest.raises(ValueError):
        replay_metrics([SimEvent(0.0, "teleport", 0)], cfg)


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
