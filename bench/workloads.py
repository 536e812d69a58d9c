"""The four benchmark workloads.

Each workload is a closed loop in one process: it starts its next operation
only after the previous one returned, until the measured window is used up.
An operation is short (a few to about a hundred milliseconds) and gets inputs
of its own, drawn from the workload seed and the operation's index, so no
answer can be reused from an earlier operation. Timed regions hold nothing
but calls into shelfgaze's public functions and the loop that feeds them;
every reference check runs after the timed region it checks.

A workload is split into four steps: ``make`` draws the inputs of one
operation, ``run`` makes the timed calls, ``check`` compares the answers with
the reference, and ``finish`` turns the timings into per-layer figures.
``run_workload`` drives them and returns an ``Outcome``: the wall time of
each operation and of each of its parts (one public call, or one block of
calls), the per-layer figures, the memory peak of one operation, and how
many checked answers were attempted and failed. Time figures are the fastest
seen over the run, part by part, so that they compare across runs on a
shared host (see README.md).
"""

from __future__ import annotations

import gc
import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from time import perf_counter as clock
from types import SimpleNamespace
from typing import Callable

import numpy as np

import reference as ref
from shelfgaze import (
    CalibrationSpec,
    DegenerateEyeError,
    EyeLandmarks,
    FixedTime,
    GazeRay,
    GridSpec,
    NoIntersectionError,
    NormalTime,
    OutOfPanelError,
    PersonSample,
    PlanePoint,
    PopulationSpec,
    ShelfConfig,
    SimConfig,
    UniformTime,
    batch_stats,
    bisector_split,
    distance_table,
    ear,
    emit_ground_truth,
    ground_truth_jsonl,
    imbalance_sweep,
    optimize_camera_drop,
    plan,
    ray_to_cell,
    replay_metrics,
    sample_population,
    simulate,
    sweep_processing_time,
    trace,
    validate_spec,
)
from shelfgaze.cli import main as cli_main
from tracer import NullTracer

CFG = ShelfConfig()
GRID = GridSpec.from_shelf(CFG)
# Exit code the CLI promises for invalid input (README, "Command line").
EXIT_INVALID = 1


def _speed_loop() -> int:
    total = 0
    for i in range(15_000):
        total += i * i
    return total


class Speedometer:
    """Times a fixed pure-Python loop between operations, never inside one.
    Its fastest time over a run tracks how fast the host ran that run."""

    EVERY_S = 0.02

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        t0 = clock()
        _speed_loop()
        self.samples.append(clock() - t0)
        self._due = clock() + self.EVERY_S

    def tick(self) -> None:
        """Sample once for every period passed since the last sample (at
        most 8), so that long and short operations get as many samples."""
        behind = (clock() - self._due) / self.EVERY_S
        for _ in range(min(8, int(behind) + 1) if behind >= 0 else 0):
            self.sample()


# The third-party modules that `import shelfgaze` loads, as of the commit
# that added this benchmark. Importing them alone is the set-up speedometer.
DEPENDENCIES = "import numpy, scipy.special"


class SetupTimer:
    """Times, each in a fresh interpreter, a bare start, an import of the
    package's dependencies alone, and `import shelfgaze`, at even intervals
    between operations. How fast the host starts an interpreter drifts by up
    to 40% in phases of seconds to minutes. Both imports load the same
    libraries, so their ratio cancels most of that drift; spreading the
    samples over the run evens out the rest."""

    def __init__(self, env: dict, reps: int, every_s: float) -> None:
        self.env, self.reps, self.every_s = env, reps, every_s
        self.bare: list[float] = []
        self.deps: list[float] = []
        self.imported: list[float] = []
        self.spent_s = 0.0
        self._due = 0.0

    def sample(self) -> float:
        """Take one sample of each; the seconds that took."""
        t0 = clock()
        for code, walls in (("pass", self.bare), (DEPENDENCIES, self.deps), ("import shelfgaze", self.imported)):
            ts = clock()
            subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
            walls.append(clock() - ts)
        spent = clock() - t0
        self.spent_s += spent
        self._due = t0 + spent + self.every_s
        return spent

    def tick(self) -> float:
        """Sample if a sample is due; the seconds that took."""
        return self.sample() if len(self.imported) < self.reps and clock() >= self._due else 0.0

    def finish(self) -> None:
        while len(self.imported) < self.reps:
            self.sample()


@dataclass
class Context:
    seed: int
    seconds: float
    quick: bool
    tracer: object
    meter: Speedometer
    setup: SetupTimer


@dataclass
class Outcome:
    op_samples_s: list[float] = field(default_factory=list)
    # Parts of one operation; their fastest times sum to `op_ref_ms`.
    parts: dict[str, list[float]] = field(default_factory=dict)
    # Calls timed for a per-layer figure only, outside the operation.
    aside: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    window_s: float = 0.0
    peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: dict[str, int] = field(default_factory=dict)

    def count(self, total: int, bad: int, what: str) -> None:
        self.attempted += total
        self.failed += bad
        if bad:
            self.problems[what] = self.problems.get(what, 0) + bad

    def one(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def time(self, part: str, secs: float) -> None:
        self.parts.setdefault(part, []).append(secs)

    def time_aside(self, name: str, secs: float) -> None:
        self.aside.setdefault(name, []).append(secs)

    def best(self, part: str) -> float:
        return min(self.parts[part])


@dataclass
class Workload:
    layers: tuple[str, ...]  # the package layers whose per-layer figures it reports
    make: Callable  # (ctx, op seed) -> inputs of one operation
    run: Callable  # (ctx, inputs, outcome) -> answers; the timed calls
    check: Callable  # (inputs, answers, outcome, op index) -> None
    finish: Callable  # (ctx, outcome) -> None; per-layer figures


def _isclose(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.isclose(got, want, rtol=1e-12, atol=1e-14)


def _op_seed(seed: int, op: int) -> int:
    return seed * 1_000_003 + op


def _timed(w: Workload, ctx: Context, inputs, out: Outcome):
    # The inputs are many long-lived objects that the harness owns; keep the
    # cyclic collector from rescanning them in the middle of timed calls.
    gc.collect()
    gc.freeze()
    try:
        return w.run(ctx, inputs, out)
    finally:
        gc.unfreeze()


def run_workload(w: Workload, ctx: Context) -> Outcome:
    """Operations until `ctx.seconds` are used up, each checked after it
    ran, with the set-up samples taken between them; then the per-layer
    figures, and the memory peak of one more operation."""
    out = Outcome()
    start = clock()
    deadline = start + ctx.seconds
    op = 0
    while op == 0 or clock() < deadline:
        deadline += ctx.setup.tick()
        inputs = w.make(ctx, _op_seed(ctx.seed, op))
        answers = _timed(w, ctx, inputs, out)
        ctx.meter.tick()
        w.check(inputs, answers, out, op)
        op += 1
    out.window_s = clock() - start - ctx.setup.spent_s
    ctx.setup.finish()
    w.finish(ctx, out)

    # tracemalloc sees what the operation allocates from the moment it is
    # started, so neither its inputs nor the harness count; it slows the
    # calls down, so it runs after the measured window.
    inputs = w.make(ctx, _op_seed(ctx.seed, op))
    bare = replace(ctx, tracer=NullTracer(), meter=Speedometer())
    gc.collect()
    tracemalloc.start()
    try:
        answers = _timed(w, bare, inputs, Outcome())
        out.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    w.check(inputs, answers, out, op)
    return out


# --- placement-population ---------------------------------------------------


def _placement_sizes(ctx: Context) -> tuple[int, int]:
    """(population size, shoppers split) of one pass."""
    return (2_000, 200) if ctx.quick else (10_000, 2_000)


def _placement_make(ctx: Context, seed: int) -> SimpleNamespace:
    samples, shoppers = _placement_sizes(ctx)
    rng = np.random.default_rng(seed)
    eye = 165.0 + 6.0 * rng.standard_normal(shoppers) - ref.EYE_OFFSET
    dist = rng.uniform(75.0, 150.0, shoppers)
    # 601 statures 0.1 cm apart from 140 cm, shifted by a seeded fraction of
    # a step so that no stature repeats from one pass to the next.
    statures = (140.0 + np.arange(601) / 10 + rng.uniform(0.0, 0.1)).tolist()
    return SimpleNamespace(
        seed=seed, samples=samples, eye=eye, dist=dist, statures=statures,
        drops=[i / 10 for i in range(1381)],
        persons=[PersonSample.from_eye_height(e, d, CFG) for e, d in zip(eye.tolist(), dist.tolist())],
        pop=PopulationSpec(sample_count=samples, seed=seed),
    )


def _placement_run(ctx: Context, x: SimpleNamespace, out: Outcome) -> tuple:
    """One planning pass: the population drop, bisector splits of sampled
    shoppers, the stature-to-distance table and one imbalance sweep."""
    tr = ctx.tracer
    with tr.span("harness.pass"):
        t0 = clock()
        with tr.span("placement.sample_population"):
            sampled = sample_population(CFG, x.pop)
        t1 = clock()
        with tr.span("placement.optimize_camera_drop"):
            result = optimize_camera_drop(CFG, x.pop)
        t2 = clock()
        with tr.span("geometry.bisector_split", len(x.persons)):
            splits = [bisector_split(CFG, q) for q in x.persons]
        t3 = clock()
        with tr.span("placement.distance_table", len(x.statures)):
            rows = distance_table(CFG, x.statures)
        t4 = clock()
        with tr.span("placement.imbalance_sweep", len(x.drops)):
            sweep = imbalance_sweep(CFG, x.persons[0], x.drops)
        t5 = clock()
    out.op_samples_s.append(t5 - t0)
    for part, secs in zip(("sample", "optimize", "split", "table", "sweep"),
                          (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
        out.time(part, secs)
    return sampled, result, splits, rows, sweep


def _placement_check(x: SimpleNamespace, answers: tuple, out: Outcome, op: int) -> None:
    sampled, result, splits, rows, sweep = answers
    want_eye, want_dist, want_rejected = ref.population(x.seed, x.samples)
    out.one(
        np.array_equal(sampled[0], want_eye)
        and np.array_equal(sampled[1], want_dist)
        and sampled[2] == want_rejected,
        "sample_population",
    )
    out.one(ref.placement_matches(result.as_dict(), ref.placement(x.seed, x.samples)), "optimize_camera_drop")
    if op == 0:
        out.layers["placement.rejected"] = result.rejected_samples

    got = np.array([(s.ab_cm, s.ac_cm, s.db_cm, s.alpha1_rad, s.alpha2_rad) for s in splits])
    eye, dist = x.eye, x.dist
    ab, ac = np.hypot(dist, ref.SHELF_TOP - eye), np.hypot(dist, eye - ref.PANEL_BOTTOM)
    a1, a2 = ref.split_angles(eye, dist, ref.CAMERA[1])
    want = np.column_stack([ab, ac, ref.bisector_drop(eye, dist), a1, a2])
    out.count(len(splits), int((~_isclose(got, want).all(axis=1)).sum()), "bisector_split")

    want_d = ref.recommended_distance(np.array(x.statures))
    bad = sum(
        row.stature_cm != s
        or (row.status == "ok") != (not math.isnan(d))
        or (row.distance_cm is not None and not ref.close(row.distance_cm, d))
        for row, s, d in zip(rows, x.statures, want_d.tolist())
    )
    out.count(len(x.statures), bad + abs(len(rows) - len(x.statures)), "distance_table")

    want_r = ref.imbalance(float(eye[0]), float(dist[0]), np.array(x.drops))
    got_r = np.array([r for _, r in sweep])
    bad = int((~_isclose(got_r, want_r)).sum()) + sum(d != w for (d, _), w in zip(sweep, x.drops))
    out.count(len(x.drops), bad, "imbalance_sweep")


def _placement_finish(ctx: Context, out: Outcome) -> None:
    out.layers.update({
        "placement.sample_ms": out.best("sample") * 1e3,
        "placement.optimize_ms": out.best("optimize") * 1e3,
        "placement.solve_ms": (out.best("optimize") - out.best("sample")) * 1e3,
        "placement.distance_table_ms": out.best("table") * 1e3,
        "placement.imbalance_sweep_ms": out.best("sweep") * 1e3,
        "geometry.bisector_split_us": out.best("split") / _placement_sizes(ctx)[1] * 1e6,
    })


# --- gaze-log ---------------------------------------------------------------

BLOCK = 250


def gaze_frames(seed: int, n: int) -> dict[str, np.ndarray]:
    """A deployment log: per frame an eye position, a panel target or (for
    frames looking away) a direction, and six eye landmarks.

    About 74% of targets fall inside a cell, at least 2% of a cell away from
    its edges; 1% are grid vertices hit straight on along (0, 0, -1); 15% lie
    off the panel; 10% of rays point away from the panel or run parallel to
    it. About 0.5% of eyes have coinciding corners.
    """
    rng = np.random.default_rng(seed)
    eye = np.column_stack([rng.uniform(10, 92, n), rng.uniform(5, 70, n), rng.uniform(50, 150, n)])
    kind = rng.random(n)
    target = np.column_stack([
        (rng.integers(0, ref.COLS, n) + rng.uniform(0.02, 0.98, n)) * ref.CELL_W,
        (rng.integers(0, ref.ROWS, n) + rng.uniform(0.02, 0.98, n)) * ref.CELL_H,
    ])

    edge = kind < 0.01
    vertex = np.column_stack([
        rng.integers(0, ref.COLS + 1, n) * ref.CELL_W,
        rng.integers(0, ref.ROWS + 1, n) * ref.CELL_H,
    ])
    target[edge] = vertex[edge]
    eye[edge, :2] = vertex[edge]

    off = (kind >= 0.75) & (kind < 0.90)
    outside = rng.uniform(1, 30, n)
    side = rng.integers(0, 4, n)
    target[off & (side == 0), 0] = -outside[off & (side == 0)]
    target[off & (side == 1), 0] = ref.PANEL_W + outside[off & (side == 1)]
    target[off & (side == 2), 1] = -outside[off & (side == 2)]
    target[off & (side == 3), 1] = ref.PANEL_H + outside[off & (side == 3)]

    away = kind >= 0.90
    direction = rng.normal(size=(n, 3))
    direction[:, 2] = np.abs(direction[:, 2]) + 0.1
    direction[kind >= 0.98, 2] = 0.0
    direction /= np.linalg.norm(direction, axis=1)[:, None]

    # Outer corner p1 and inner corner p4 on the eye's axis, lid points p2, p3
    # above it and p5, p6 below, then rotated and placed in the image.
    width = rng.uniform(20, 40, n)
    lids = rng.uniform(0.05, 0.45, (n, 4)) * width[:, None] / 2
    local = np.zeros((n, 6, 2))
    local[:, 0, 0], local[:, 3, 0] = -width / 2, width / 2
    for point, x_sign, lid, y_sign in ((1, -1, 0, 1), (2, 1, 1, 1), (4, 1, 2, -1), (5, -1, 3, -1)):
        local[:, point, 0] = x_sign * width / 6
        local[:, point, 1] = y_sign * lids[:, lid]
    degenerate = rng.random(n) < 0.005
    local[degenerate, 3] = local[degenerate, 0]
    angle = rng.uniform(-0.3, 0.3, n)
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    landmarks = np.stack(
        [c * local[..., 0] - s * local[..., 1], s * local[..., 0] + c * local[..., 1]], axis=-1
    ) + rng.uniform(100, 500, (n, 1, 2))
    return {"eye": eye, "away": away, "target": target, "direction": direction,
            "landmarks": landmarks.reshape(n, 12)}


def _gaze_make(ctx: Context, seed: int) -> SimpleNamespace:
    n = 2_500 if ctx.quick else 10_000
    log = gaze_frames(seed, n)
    frames = [
        (False, tuple(e), tuple(d)) if a else (True, tuple(e), PlanePoint(*xy))
        for e, a, xy, d in zip(
            log["eye"].tolist(), log["away"].tolist(), log["target"].tolist(), log["direction"].tolist()
        )
    ]
    marks = [tuple(m) for m in log["landmarks"].tolist()]
    blocks = [(frames[i : i + BLOCK], marks[i : i + BLOCK]) for i in range(0, n, BLOCK)]
    return SimpleNamespace(n=n, log=log, blocks=blocks)


def _gaze_run(ctx: Context, x: SimpleNamespace, out: Outcome) -> tuple:
    """Resolve every frame of a log through the scalar API, block by block,
    then summarise the log's EAR values."""
    tr = ctx.tracer
    aimed_at, from_flat = GazeRay.aimed_at, EyeLandmarks.from_flat
    hits, values = [], []
    with tr.span("harness.pass"):
        for ray_in, mark_in in x.blocks:
            t0 = clock()
            with tr.span("grid.aimed_at", len(ray_in)):
                rays = [aimed_at(e, a) if k else GazeRay(e, a) for k, e, a in ray_in]
            t1 = clock()
            with tr.span("grid.ray_to_cell", len(rays)):
                for ray in rays:
                    try:
                        hits.append(ray_to_cell(GRID, ray))
                    except OutOfPanelError:
                        hits.append(ref.OFF_PANEL)
                    except NoIntersectionError:
                        hits.append(ref.NO_INTERSECTION)
            t2 = clock()
            with tr.span("ear.from_flat", len(mark_in)):
                landmarks = [from_flat(m) for m in mark_in]
            t3 = clock()
            with tr.span("ear.ear", len(landmarks)):
                for lm in landmarks:
                    try:
                        values.append(ear(lm))
                    except DegenerateEyeError:
                        values.append(ref.DEGENERATE)
            t4 = clock()
            out.op_samples_s.append(t4 - t0)
            for part, secs in zip(("aimed_at", "ray_to_cell", "from_flat", "ear"),
                                  (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                out.time(part, secs)
            ctx.meter.tick()
        readings = [v for v in values if v is not ref.DEGENERATE]
        t5 = clock()
        with tr.span("ear.batch_stats", len(readings)):
            stats = batch_stats(readings)
        out.time_aside("batch_stats", clock() - t5)
    return hits, values, readings, stats


def _gaze_check(x: SimpleNamespace, answers: tuple, out: Outcome, op: int) -> None:
    hits, values, readings, stats = answers
    log, n = x.log, x.n
    direction = np.where(log["away"][:, None], log["direction"], ref.aim(log["eye"], log["target"]))
    want_x, want_y, want = ref.rays(log["eye"], direction)
    bad = 0
    for got, wx, wy, w in zip(hits, want_x.tolist(), want_y.tolist(), want.tolist()):
        if isinstance(got, tuple):
            point, cell = got
            bad += cell != w or abs(point.x_cm - wx) > 1e-9 or abs(point.y_cm - wy) > 1e-9
        else:
            bad += got != w
    out.count(n, bad + abs(len(hits) - n), "ray_to_cell")
    want_ear = ref.ear(log["landmarks"]).tolist()
    bad = sum(
        (v is ref.DEGENERATE) != math.isnan(w) or (v is not ref.DEGENERATE and not ref.close(v, w))
        for v, w in zip(values, want_ear)
    )
    out.count(n, bad + abs(len(values) - n), "ear")
    # The package sums left to right; fsum is exact, so allow the
    # rounding of a 10k-term running sum.
    ok = readings and (
        math.isclose(stats.mean, math.fsum(readings) / len(readings), rel_tol=1e-10)
        and stats.min == min(readings)
        and stats.fraction_open == sum(v > ref.OPEN_THRESHOLD for v in readings) / len(readings)
    )
    out.one(bool(ok), "batch_stats")
    if op == 0:
        out.layers.update({
            "grid.hit_frac": sum(isinstance(h, tuple) for h in hits) / n,
            "grid.off_panel": hits.count(ref.OFF_PANEL),
            "grid.no_intersection": hits.count(ref.NO_INTERSECTION),
            "ear.degenerate": n - len(readings),
            "ear.open_frac": stats.fraction_open,
        })


def _gaze_finish(ctx: Context, out: Outcome) -> None:
    for layer, part in (("grid", "aimed_at"), ("grid", "ray_to_cell"), ("ear", "from_flat"), ("ear", "ear")):
        out.layers[f"{layer}.{part}_us"] = out.best(part) / BLOCK * 1e6
    out.layers["ear.batch_stats_ms"] = min(out.aside["batch_stats"]) * 1e3


# --- pipeline-sim -----------------------------------------------------------


def _metrics_dict(m) -> dict:
    return {
        "processed_count": m.processed_count,
        "captured_count": m.captured_count,
        "dropped_count": m.dropped_count,
        "in_flight_count": m.in_flight_count,
        "effective_fps": m.effective_fps,
        "skips_per_processed": m.skips_per_processed,
        "mean_skips": m.mean_skips,
        "latency_mean_ms": m.latency_mean_ms,
        "latency_p95_ms": m.latency_p95_ms,
    }


def _events(m) -> int:
    """Events of a run: capture, drop, take and complete."""
    return m.captured_count + m.dropped_count + 2 * m.processed_count + m.in_flight_count


# Rounds whose every answer is checked against the reference simulator; all
# rounds are checked for frame balance and replay equality.
REFERENCE_ROUNDS = 8
KINDS = ("fixed", "uniform", "normal")


def _pipeline_sizes(ctx: Context) -> tuple[float, int, float]:
    """(length of the three runs, sweep rows, length of a sweep run) in s."""
    return (10.0, 6, 2.0) if ctx.quick else (60.0, 18, 10.0)


def _pipeline_make(ctx: Context, seed: int) -> SimpleNamespace:
    run_s, rows, row_s = _pipeline_sizes(ctx)
    # A 10 ms grid from 5 ms up, shifted by a seeded fraction of a
    # millisecond, so every round asks for the same amount of simulation.
    offset = round(random.Random(seed).uniform(0.0, 1.0), 3)
    return SimpleNamespace(
        seed=seed, run_s=run_s, row_s=row_s,
        runs=[
            SimConfig(FixedTime(83.33), duration_s=run_s, seed=seed),
            SimConfig(UniformTime(66.7, 100.0), duration_s=run_s, seed=seed),
            SimConfig(NormalTime(83.0, 10.0), duration_s=run_s, seed=seed, capture_jitter=UniformTime(0.5, 3.0)),
        ],
        times=[5.0 + 10.0 * i + offset for i in range(rows)],
        sweep_cfg=SimConfig(FixedTime(1.0), duration_s=row_s, seed=seed),
    )


def _pipeline_run(ctx: Context, x: SimpleNamespace, out: Outcome) -> tuple:
    """One round: three simulated runs (fixed, uniform, and normal with
    capture jitter), a full trace of the uniform run and its replay, and a
    processing-time sweep of short runs."""
    tr = ctx.tracer
    with tr.span("harness.round"):
        t0 = clock()
        results = []
        for kind, cfg in zip(KINDS, x.runs):
            ts = clock()
            with tr.span("pipeline.simulate"):
                results.append(simulate(cfg))
            out.time(kind, clock() - ts)
        t1 = clock()
        with tr.span("pipeline.trace"):
            events = trace(x.runs[1], 1 << 62)
        t2 = clock()
        with tr.span("pipeline.replay_metrics", len(events)):
            replayed = replay_metrics(events, x.runs[1])
        t3 = clock()
        with tr.span("pipeline.sweep_processing_time", len(x.times)):
            sweep = sweep_processing_time(x.sweep_cfg, x.times)
        t4 = clock()
    out.op_samples_s.append(t4 - t0)
    for part, secs in zip(("trace", "replay", "sweep"), (t2 - t1, t3 - t2, t4 - t3)):
        out.time(part, secs)
    return results, events, replayed, sweep


def _pipeline_check(x: SimpleNamespace, answers: tuple, out: Outcome, op: int) -> None:
    results, events, replayed, sweep = answers
    for m in results:
        out.one(m.captured_count == m.processed_count + m.dropped_count + m.in_flight_count, "frame balance")
    out.one(replayed == results[1] and len(events) == _events(results[1]), "replay_metrics(trace) == simulate")
    if op < REFERENCE_ROUNDS:
        wants = [
            ref.simulate(ref.fixed(83.33), 30.0, x.run_s, x.seed),
            ref.simulate(ref.uniform(66.7, 100.0), 30.0, x.run_s, x.seed),
            ref.simulate(ref.normal(83.0, 10.0), 30.0, x.run_s, x.seed, ref.uniform(0.5, 3.0)),
        ]
        for m, want in zip(results, wants):
            out.one(ref.metrics_match(_metrics_dict(m), want), "simulate")
        bad = 0
        for i, (row, ms) in enumerate(zip(sweep, x.times)):
            want = ref.simulate(ref.fixed(ms), 30.0, x.row_s, x.seed + i)
            bad += (
                row.time_ms != ms
                or not ref.close(row.effective_fps, want["effective_fps"])
                or not ref.close(row.mean_skips, want["mean_skips"] or 0.0)
            )
        out.count(len(x.times), bad + abs(len(sweep) - len(x.times)), "sweep_processing_time")
    if op == 0:
        captured = sum(m.captured_count for m in results)
        out.layers.update({
            "pipeline.events": sum(_events(m) for m in results),
            "pipeline.processed_frac": sum(m.processed_count for m in results) / captured,
            "pipeline.dropped": sum(m.dropped_count for m in results),
        })


def _pipeline_finish(ctx: Context, out: Outcome) -> None:
    # Every round simulates the same number of seconds, so the event counts of
    # the first round stand for all of them.
    simulate_s = sum(out.best(kind) for kind in KINDS)
    out.layers.update({
        "pipeline.simulate_ms": simulate_s / len(KINDS) * 1e3,
        "pipeline.trace_ms": out.best("trace") * 1e3,
        "pipeline.replay_ms": out.best("replay") * 1e3,
        "pipeline.sweep_row_ms": out.best("sweep") / _pipeline_sizes(ctx)[1] * 1e3,
        "pipeline.event_ns": simulate_s / out.layers["pipeline.events"] * 1e9,
    })


# --- cli-session ------------------------------------------------------------

SIZES = (2, 4, 8, 16, 32)


def _json(text: str):
    return json.loads(text)


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_cell_center(index: int):
    x, y = ref.cell_center(index)
    return lambda out: _json(out) == {"x_cm": x, "y_cm": y, "cell": index}


def _check_cell(x: float, y: float):
    cell = int(ref.cell_of(np.array([x]), np.array([y]))[0])
    return lambda out: _json(out) == {"x_cm": x, "y_cm": y, "cell": cell}


def _check_gaze(eye: tuple, target: tuple):
    want_x, want_y, want = ref.rays(np.array([eye]), ref.aim(np.array([eye]), np.array([target])))

    def check(out: str) -> bool:
        got = _json(out)
        return got["cell"] == want[0] and abs(got["x_cm"] - want_x[0]) <= 1e-9 and abs(got["y_cm"] - want_y[0]) <= 1e-9

    return check


def _check_ear(landmarks: np.ndarray):
    want = ref.ear(landmarks).tolist()

    def check(out: str) -> bool:
        got = [_json(line) for line in out.splitlines()]
        return len(got) == len(want) and all(
            ref.close(g["value"], w) and g["open"] == (w > ref.OPEN_THRESHOLD) and g["threshold"] == ref.OPEN_THRESHOLD
            for g, w in zip(got, want)
        )

    return check


def _check_plan(size: int, seed: int):
    want = ref.ground_truth(size, seed)
    return lambda out: [_json(line) for line in out.splitlines()] == want


def _check_distance_table(statures: list[float]):
    want = ref.recommended_distance(np.array(statures)).tolist()

    def check(out: str) -> bool:
        rows = _csv(out, "stature_mm,distance_mm,status")
        return len(rows) == len(statures) and all(
            abs(float(s) - st * 10.0) <= 1e-6 and status == "ok" and abs(float(d) - w * 10.0) <= 5e-4
            for (s, d, status), st, w in zip(rows, statures, want)
        )

    return check


def _check_sweep(stature: float, distance: float):
    drops = np.arange(0.0, ref.PANEL_H + 0.5, 1.0)
    want = ref.imbalance(stature - ref.EYE_OFFSET, distance, drops).tolist()

    def check(out: str) -> bool:
        rows = _csv(out, "drop_cm,residual_rad")
        return len(rows) == len(want) and all(
            float(d) == dw and ref.close(float(r), w) for (d, r), dw, w in zip(rows, drops.tolist(), want)
        )

    return check


def _check_simulate(proc_ms: float, seed: int):
    want = ref.simulate(ref.fixed(proc_ms), 30.0, 60.0, seed)

    def check(out: str) -> bool:
        got = _json(out)
        got["skips_per_processed"] = {int(k): v for k, v in got["skips_per_processed"].items()}
        return ref.metrics_match(got, want)

    return check


def _check_optimize(seed: int, samples: int):
    want = ref.placement(seed, samples)
    return lambda out: ref.placement_matches(_json(out), want)


def cli_script(seed: int) -> list[tuple[str, list[str], str | None, object]]:
    """(subcommand, arguments, stdin, output check) of one scripted session.
    Every call gets arguments drawn from the seed, so no session repeats an
    earlier session's question."""
    rng = random.Random(seed)

    def inside(cells: int, size: float) -> float:
        return round((rng.randrange(cells) + rng.uniform(0.05, 0.95)) * size, 2)

    index = rng.randint(1, ref.COLS * ref.ROWS)
    px, py = inside(ref.COLS, ref.CELL_W), inside(ref.ROWS, ref.CELL_H)
    eye = (round(rng.uniform(20, 80), 1), round(rng.uniform(10, 60), 1), round(rng.uniform(60, 140), 1))
    target = (inside(ref.COLS, ref.CELL_W), inside(ref.ROWS, ref.CELL_H))
    landmarks = gaze_frames(seed, 64)["landmarks"]
    landmarks = landmarks[~np.isnan(ref.ear(landmarks))][:5]
    eyes_csv = "".join(",".join(repr(v) for v in row) + "\n" for row in landmarks.tolist())
    plan_seed = rng.randrange(1_000_000)
    stature, distance = round(rng.uniform(150, 185), 1), round(rng.uniform(80, 140), 1)
    sim_seed, opt_seed = rng.randrange(1_000_000), rng.randrange(1_000_000)
    # The default table has seven statures; these seven vary by session.
    statures = sorted(round(rng.uniform(150, 185), 1) for _ in range(7))
    # Around the default fixed:83.33, whose answer would not depend on the seed.
    proc_ms = round(rng.uniform(80.0, 87.0), 2)
    # The seed is recorded in the protocol; it does not change the checks.
    val_seed = rng.randrange(1_000_000)

    script = [
        ("cell", ["cell", "--index", str(index)], None, _check_cell_center(index)),
        ("cell", ["cell", "--x", repr(px), "--y", repr(py)], None, _check_cell(px, py)),
        ("gaze", ["gaze", "--eye", ",".join(map(repr, eye)), "--target", ",".join(map(repr, target))],
         None, _check_gaze(eye, target)),
        ("ear", ["ear", "--input", "-"], eyes_csv, _check_ear(landmarks)),
    ]
    script += [
        ("calib-plan", ["calib-plan", "--size", str(size), "--seed", str(plan_seed)], None, _check_plan(size, plan_seed))
        for size in SIZES
    ]
    script += [
        ("validate-calib", ["validate-calib", "--seed", str(val_seed)], None, lambda out: _json(out) == []),
        ("distance-table", ["distance-table", "--statures", ",".join(map(repr, statures))], None,
         _check_distance_table(statures)),
        ("sweep", ["sweep", "--stature", repr(stature), "--distance", repr(distance)], None,
         _check_sweep(stature, distance)),
        ("simulate", ["simulate", "--proc", f"fixed:{proc_ms!r}", "--seed", str(sim_seed)], None,
         _check_simulate(proc_ms, sim_seed)),
        ("optimize", ["optimize", "--samples", "2000", "--seed", str(opt_seed)], None,
         _check_optimize(opt_seed, 2000)),
    ]
    return script


# Inputs the CLI should reject with exit 1 (ROADMAP item 3).
INVALID_PROBES = [
    (["simulate", "--proc", "fixed:nan"], None),
    (["simulate", "--proc", "fixed:inf"], None),
    (["simulate", "--fps", "nan"], None),
    (["optimize", "--samples", "2000", "--dist-max", "inf"], None),
    (["optimize", "--samples", "2000", "--height-mean", "nan"], None),
    (["sweep", "--distance", "nan"], None),
    (["ear", "--input", "-"], "nan," + ",".join(["1.0"] * 11) + "\n"),
    (["gaze", "--eye", "51,55.5,nan", "--target", "8.5,80.5"], None),
]


def call_in_process(args: list[str], stdin: str | None) -> tuple[int, str]:
    """(exit code, stdout) of ``shelfgaze <args>`` run through cli.main."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _passes(code: int, stdout: str, check) -> bool:
    try:
        return code == 0 and bool(check(stdout))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def _cli_make(ctx: Context, seed: int) -> SimpleNamespace:
    return SimpleNamespace(seed=seed, script=cli_script(seed), spec=CalibrationSpec(seed=seed))


def _cli_run(ctx: Context, x: SimpleNamespace, out: Outcome) -> tuple:
    """The calibration layer called directly (plans for every set size,
    their ground truth as JSONL, the protocol check), then one scripted
    session through the CLI entry point."""
    tr = ctx.tracer
    t0 = clock()
    with tr.span("calibration.plan", len(SIZES)):
        plans = [plan(x.spec, size, GRID) for size in SIZES]
    t1 = clock()
    with tr.span("calibration.ground_truth", len(plans)):
        texts = [ground_truth_jsonl(emit_ground_truth(p, GRID)) for p in plans]
    t2 = clock()
    with tr.span("calibration.validate_spec"):
        found = validate_spec(x.spec, GRID)
    t3 = clock()
    for name, secs in zip(("plan", "ground_truth", "validate"), (t1 - t0, t2 - t1, t3 - t2)):
        out.time_aside(name, secs)

    answers = []
    with tr.span("harness.session"):
        t0 = clock()
        for i, (sub, args, stdin, _) in enumerate(x.script):
            ts = clock()
            with tr.span(f"cli.{sub}"):
                answers.append(call_in_process(args, stdin))
            out.time(f"{sub} {i}", clock() - ts)
        out.op_samples_s.append(clock() - t0)
    return texts, found, answers


def _cli_check(x: SimpleNamespace, answers: tuple, out: Outcome, op: int) -> None:
    texts, found, calls = answers
    got = [[json.loads(line) for line in text.splitlines()] for text in texts]
    out.count(len(texts), sum(g != ref.ground_truth(size, x.seed) for g, size in zip(got, SIZES)), "calibration plan")
    out.one(found == [], "validate_spec")
    out.layers["calibration.records"] = sum(len(g) for g in got)
    for (sub, args, _, check), (code, stdout) in zip(x.script, calls):
        out.one(_passes(code, stdout, check), f"shelfgaze {' '.join(args)}")


def _cli_finish(ctx: Context, out: Outcome) -> None:
    out.layers.update({
        "calibration.plan_us": min(out.aside["plan"]) / len(SIZES) * 1e6,
        "calibration.ground_truth_us": min(out.aside["ground_truth"]) / len(SIZES) * 1e6,
        "calibration.validate_us": min(out.aside["validate"]) * 1e6,
    })
    # Per subcommand, the mean over its calls in the script of each call's
    # fastest time.
    calls: dict[str, list[float]] = {}
    for part, secs in out.parts.items():
        calls.setdefault(part.split()[0], []).append(min(secs))
    for sub, best in calls.items():
        out.layers[f"cli.{sub}_ms"] = sum(best) / len(best) * 1e3
    out.layers["cli.invalid_misreported"] = sum(
        call_in_process(args, stdin)[0] != EXIT_INVALID for args, stdin in INVALID_PROBES
    )


WORKLOADS = {
    "placement-population": Workload(("placement", "geometry"), _placement_make, _placement_run,
                                     _placement_check, _placement_finish),
    "gaze-log": Workload(("grid", "ear"), _gaze_make, _gaze_run, _gaze_check, _gaze_finish),
    "pipeline-sim": Workload(("pipeline",), _pipeline_make, _pipeline_run, _pipeline_check, _pipeline_finish),
    "cli-session": Workload(("calibration", "cli"), _cli_make, _cli_run, _cli_check, _cli_finish),
}
