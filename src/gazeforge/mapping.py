"""Mapping labeled velocity signals to 2D gaze traces over a stimulus."""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import GazeTrace, RandomSource, SampledSignal, TargetSet
from .core import effective_labels, label_runs
from .errors import MappingError, ParameterError
from .params import REMAP_NEW_STIMULUS, REMAP_SAME_STIMULUS, MappingParams, MovementLabel


@dataclass
class SceneTargets:
    """Fixation targets per frame, as (frame_time, targets) in time order; a
    static stimulus is one frame at t = 0. No frame is empty; all have one size."""

    frames: list[tuple[float, TargetSet]]
    frame_rate: float = 0.0

    def __post_init__(self):
        self._times = [t for t, _ in self.frames]
        if not self._times:
            raise ParameterError("a scene needs at least one frame")
        if any(b <= a for a, b in zip(self._times, self._times[1:])):
            raise ParameterError("frame times must be strictly increasing")
        width, height = self.bounds
        for t, targets in self.frames:
            if len(targets) == 0:
                raise MappingError(f"frame at t={t:.6g} s has no fixation targets")
            if (targets.width, targets.height) != (width, height):
                raise MappingError(
                    f"frame at t={t:.6g} s is {targets.width}x{targets.height} px, "
                    f"not {width}x{height} px as the first frame"
                )
        self._sums = [_weight_sums(targets) for _, targets in self.frames]

    @classmethod
    def from_static(cls, targets: TargetSet) -> "SceneTargets":
        return cls([(0.0, targets)])

    @classmethod
    def from_frames(
        cls, frames: list[tuple[float, TargetSet]], frame_rate: float
    ) -> "SceneTargets":
        return cls(frames, frame_rate)

    @property
    def bounds(self) -> tuple[int, int]:
        ts = self.frames[0][1]
        return ts.width, ts.height

    def at(self, time: float) -> TargetSet:
        """Target set in effect at the given time: the frame nearest in
        ``abs(frame_time - time)``, the earliest on a tie."""
        return self.frames[self._frame(time)][1]

    def choose(self, time: float, rng: RandomSource) -> tuple[float, float, float]:
        """One weighted draw from the targets in effect at the given time:
        probability proportional to the weight clipped at 0, uniform if no
        weight is positive."""
        k = self._frame(time)
        points, sums = self.frames[k][1].points, self._sums[k]
        total = float(sums[-1])
        u = rng.uniform()
        if total <= 0:
            return points[min(int(u * len(points)), len(points) - 1)]
        # The first target whose running sum exceeds u; none for a NaN or
        # infinite total or u at the total, which picks the last target.
        i = int(np.searchsorted(sums, u * total, side="right"))
        return points[min(i, len(points) - 1)]

    def _frame(self, time: float) -> int:
        times = self._times
        # Distances fall up to the first frame at or after `time`, then rise
        # (a NaN time finds index 0, which is also the scan's pick).
        k = bisect.bisect_left(times, time)
        if k == 0:
            return 0
        best = time - times[k - 1]
        if k < len(times) and times[k] - time < best:
            return k
        # Rounding can give earlier frames the same distance: take the first.
        return bisect.bisect_left(times, -best, 0, k, key=lambda t: t - time)


def fixation_walk(
    center: tuple[float, float],
    n: int,
    dispersion: float,
    rng: RandomSource,
) -> list[tuple[float, float]]:
    """Mean-reverting random walk around a fixation center.

    The walk starts at the center. Each of its n - 1 steps has a uniform
    direction and |Normal(0, dispersion/3)| length clamped to dispersion/2,
    plus a restoring pull of 0.1x the offset from the center; a point that
    lands outside the dispersion disc is pulled back onto its edge.
    Random stream v2: the n - 1 direction uniforms are drawn as one block,
    then the n - 1 normals; dispersion 0 draws nothing.
    """
    return list(zip(*_walk_xy(center, n, dispersion, rng)))


def _walk_xy(
    center: tuple[float, float], n: int, dispersion: float, rng: RandomSource
) -> tuple[list[float], list[float]]:
    """The x and the y coordinates of :func:`fixation_walk`'s points."""
    if n < 1:
        raise ParameterError("fixation walk needs n >= 1")
    if dispersion < 0:
        raise ParameterError("dispersion must be >= 0")
    cx, cy = center
    if dispersion == 0:
        return [cx] * n, [cy] * n
    angs = (2.0 * math.pi * rng.uniforms(n - 1)).tolist()
    steps = np.minimum(np.abs(rng.normals(n - 1)) * (dispersion / 3.0), dispersion / 2.0)
    # math.cos and math.sin per element: numpy's SIMD versions can differ
    # from libm in the last ulp, and by host.
    sx = (steps * np.fromiter(map(math.cos, angs), float, n - 1)).tolist()
    sy = (steps * np.fromiter(map(math.sin, angs), float, n - 1)).tolist()
    xs, ys = [cx], [cy]
    px, py = cx, cy
    for dx, dy in zip(sx, sy):
        nx = px + dx + 0.1 * (cx - px)
        ny = py + dy + 0.1 * (cy - py)
        # Clamp into the dispersion disc.
        d = math.hypot(nx - cx, ny - cy)
        if d > dispersion:
            nx = cx + (nx - cx) * dispersion / d
            ny = cy + (ny - cy) * dispersion / d
        xs.append(nx)
        ys.append(ny)
        px, py = nx, ny
    return xs, ys


def _weight_sums(targets: TargetSet) -> np.ndarray:
    """Running sums of the target weights clipped at 0, for
    :meth:`SceneTargets.choose`. ``np.cumsum`` adds in order, one weight at a
    time, so each sum has the bits of a scalar ``acc += w`` loop."""
    return np.cumsum(np.maximum([p[2] for p in targets.points], 0.0))


def map_to_gaze(
    signal: SampledSignal,
    targets: SceneTargets,
    p: MappingParams,
    rng: RandomSource,
) -> GazeTrace:
    """Turn a labeled velocity signal into a gaze trace over the stimulus.

    Fixation runs scatter around a weighted-drawn target; saccade and
    pursuit runs advance along the line to the next target with per-sample
    steps proportional to velocity, rescaled so the run ends exactly on the
    target, plus a bounded perpendicular deviation that vanishes at both
    endpoints.
    """
    if len(signal) == 0:
        raise MappingError("cannot map an empty signal")
    width, height = targets.bounds
    ts = signal.timestamps
    steps = signal.velocities * np.diff(ts, prepend=0.0) * p.pixels_per_degree
    xs = np.empty(len(signal))
    ys = np.empty(len(signal))
    cur: tuple[float, float] | None = None
    for start, end, label in label_runs(effective_labels(signal.labels)):
        t_end = float(ts[end - 1])
        if label == MovementLabel.FIXATION:
            center = targets.choose(t_end, rng)[:2]
            xs[start:end], ys[start:end] = _walk_xy(
                center, end - start, p.fixation_dispersion, rng
            )
        else:
            if cur is None:
                cur = targets.choose(float(ts[start]), rng)[:2]
            dest = targets.choose(t_end, rng)[:2]
            xs[start:end], ys[start:end] = _movement_path(
                steps[start:end], cur, dest, p, rng
            )
        cur = (xs[end - 1], ys[end - 1])
    np.clip(xs, 0.0, max(width - 1, 0), out=xs)
    np.clip(ys, 0.0, max(height - 1, 0), out=ys)
    return GazeTrace(
        ts.copy(), xs, ys, signal.labels.copy(), width, height, p.pixels_per_degree
    )


def _movement_path(
    steps: np.ndarray,
    origin: tuple[float, float],
    dest: tuple[float, float],
    p: MappingParams,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y of a saccade or pursuit run from origin to dest, whose
    samples advance by the given steps (pixels)."""
    cum = np.cumsum(np.maximum(steps, 0.0))
    total = float(cum[-1])
    n = len(steps)
    if total > 0:
        progress = cum / total
    else:
        progress = np.arange(1, n + 1) / n
    ox, oy = origin
    dx, dy = dest[0] - ox, dest[1] - oy
    dist = math.hypot(dx, dy)
    if dist > 0:
        ux, uy = dx / dist, dy / dist
    else:
        ux, uy = 0.0, 0.0
    perp_x, perp_y = -uy, ux
    px = ox + progress * dx
    py = oy + progress * dy
    amp = p.max_path_deviation * 2.0 * np.minimum(progress, 1.0 - progress)
    # One uniform per sample with amp > 0, in sample order: the draws of a
    # per-sample loop that draws only where the path deviates.
    dev = amp > 0
    off = (2.0 * rng.uniforms(int(np.count_nonzero(dev))) - 1.0) * amp[dev]
    px[dev] += off * perp_x
    py[dev] += off * perp_y
    # Endpoint renormalization guarantees the final sample is exactly on target.
    px[-1], py[-1] = dest
    return px, py


def extract_velocities(trace: GazeTrace) -> np.ndarray:
    """Velocity magnitudes (deg/s) from positions by central finite
    differences (one-sided at the ends)."""
    n = len(trace)
    if n < 2:
        raise ParameterError("need at least 2 samples to compute velocities")
    t, x, y = trace.timestamps, trace.x, trace.y
    i = np.arange(n)
    a = np.maximum(i - 1, 0)
    b = np.minimum(i + 1, n - 1)
    dt = t[b] - t[a]
    bad = np.flatnonzero(~(dt > 0))
    if len(bad):
        raise ParameterError(f"non-increasing timestamps at sample {int(bad[0])}")
    # math.hypot per element: np.hypot can differ from it in the last ulp.
    dist = np.fromiter(
        map(math.hypot, (x[b] - x[a]).tolist(), (y[b] - y[a]).tolist()),
        dtype=float,
        count=n,
    )
    return dist / dt / trace.pixels_per_degree


def fixation_centroids(trace: GazeTrace) -> TargetSet:
    """Centroids of the trace's fixation runs, weight 1 each."""
    eff = effective_labels(trace.labels)
    pts = []
    for start, end, label in label_runs(eff):
        if label == MovementLabel.FIXATION:
            pts.append(
                (
                    float(trace.x[start:end].mean()),
                    float(trace.y[start:end].mean()),
                    1.0,
                )
            )
    return TargetSet(pts, width=trace.width, height=trace.height)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit: the mean of the
    middle one or two values of the same partition, or its NaN. (np.median
    checks for NaN through numpy.ma, whose import every remap would pay.)"""
    mid = len(a) // 2
    kth = [mid - 1, mid] if len(a) % 2 == 0 else [mid]
    part = np.partition(a, kth + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[kth[0] : mid + 1].mean())


def remap_real(
    real: GazeTrace,
    mode: str,
    p: MappingParams,
    rng: RandomSource,
    new_targets: SceneTargets | None = None,
) -> GazeTrace:
    """Re-generate a trace from real data: extract per-segment velocities,
    shuffle the segment order, and map onto fixation centroids
    (same stimulus) or a provided target set (new stimulus)."""
    if mode not in (REMAP_SAME_STIMULUS, REMAP_NEW_STIMULUS):
        raise ParameterError(f"unknown remap mode {mode!r}")
    if len(real) < 2:
        raise ParameterError("real trace too short to remap")
    velocities = extract_velocities(real)
    eff = effective_labels(real.labels)
    if mode == REMAP_SAME_STIMULUS:
        targets = fixation_centroids(real)
        if len(targets) == 0:
            raise MappingError("same-stimulus remap requires at least one fixation")
        scene = SceneTargets.from_static(targets)
    else:
        if new_targets is None:
            raise ParameterError("new-stimulus remap requires a target set")
        scene = new_targets
    # extract_velocities has seen t[1] > t[0], so some interval is positive.
    dts = np.diff(real.timestamps, prepend=0.0)
    dts = np.where(dts > 0, dts, _median(dts[dts > 0]))
    segments = []
    for start, end, _ in label_runs(eff):
        segments.append(
            (dts[start:end], velocities[start:end], real.labels[start:end])
        )
    rng.shuffle(segments)
    new_dts, new_v, new_l = (np.concatenate(column) for column in zip(*segments))
    return map_to_gaze(SampledSignal(np.cumsum(new_dts), new_v, new_l), scene, p, rng)
