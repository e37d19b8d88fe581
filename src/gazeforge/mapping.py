"""Mapping labeled velocity signals to 2D gaze traces over a stimulus."""
from __future__ import annotations

import bisect
import math

import numpy as np

from .core import GazeTrace, RandomSource, SampledSignal, TargetSet
from .core import effective_labels, label_runs, window_means
from .errors import MappingError, ParameterError
from .params import REMAP_NEW_STIMULUS, REMAP_SAME_STIMULUS, MappingParams, MovementLabel, record


@record
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
        return self._choices([time], np.array([rng.uniform()]))[0]

    def _choices(self, times: list[float], u: np.ndarray) -> list[tuple[float, float, float]]:
        """The targets that :meth:`choose` draws at the given times with the
        uniforms u: the first whose running sum exceeds u times the total;
        none for a NaN or infinite total or u at the total, which picks the
        last target."""
        frames = [self._frame(t) for t in times] if len(self._times) > 1 else [0] * len(times)
        order = np.argsort(frames, kind="stable")
        used, first = np.unique(np.take(frames, order), return_index=True)
        chosen = [None] * len(times)
        for k, at in zip(used.tolist(), np.split(order, first[1:])):
            points, sums = self.frames[k][1].points, self._sums[k]
            total = float(sums[-1])
            with np.errstate(invalid="ignore"):  # 0 * inf, as with floats: NaN
                i = (u[at] * len(points)).astype(np.intp) if total <= 0 else np.searchsorted(
                    sums, u[at] * total, side="right")
            for r, m in zip(at.tolist(), np.minimum(i, len(points) - 1).tolist()):
                chosen[r] = points[m]
        return chosen

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
    if n < 1:
        raise ParameterError("fixation walk needs n >= 1")
    if dispersion < 0:
        raise ParameterError("dispersion must be >= 0")
    m = n - 1 if dispersion else 0
    u = rng.uniforms(m)
    walk = _walks(np.array([center], dtype=float), np.array([n]), dispersion, u, rng.normals(m))
    return list(map(tuple, walk.tolist()))


# Below this many walks still walking, a step costs less one walk at a time.
_FEW_WALKS = 32


def _walks(centers: np.ndarray, n: np.ndarray, dispersion: float, u: np.ndarray,
           z: np.ndarray) -> np.ndarray:
    """The points of :func:`fixation_walk` around each center, n[r] of them,
    walk after walk, from the n[r] - 1 uniforms and normals of each walk in
    u and z (none at dispersion 0). The walks take each step together,
    longest first, so that those still walking are a prefix of the ones
    before; once fewer than _FEW_WALKS are left, those finish one at a time.
    Every point has the loop's arithmetic; only those near the disc's edge,
    the only ones that can be clamped, take libm's hypot."""
    if not len(u):
        return centers.repeat(n, axis=0)
    # Each row holds the step to its point, then the point. math.cos and
    # math.sin per element: numpy's SIMD versions can differ from libm in
    # the last ulp, and by host.
    starts = np.cumsum(n) - n
    out = np.empty((len(u) + len(n), 2))
    steps = np.delete(np.arange(len(out)), starts)
    angs, length = 2.0 * math.pi * u, np.minimum(np.abs(z) * (dispersion / 3.0), dispersion / 2.0)
    for axis, f in enumerate((math.cos, math.sin)):
        trig = np.fromiter(map(f, memoryview(angs)), float, len(angs))
        trig *= length
        out[steps, axis] = trig
    del steps, angs, length, trig
    out[starts] = centers
    order = np.argsort(-n, kind="stable")
    first, point = starts[order], centers[order]
    center = point
    live = np.cumsum(np.bincount(n)[::-1])[::-1][1:]  # live[j] walks have more than j points
    # A point with ox^2 + oy^2 below lim lies inside the disc whatever the
    # rounding; squares of a tiny or huge dispersion lose that margin.
    lim = (1.0 - 1e-9) * dispersion * dispersion if 1e-100 < dispersion < 1e100 else 0.0
    together = max(int(np.count_nonzero(live >= _FEW_WALKS)), 1)  # steps, the first included
    for j, k in enumerate(live[1:together].tolist(), 1):
        rows, c, point = first[:k] + j, center[:k], point[:k]
        new = point + out[rows]
        new += 0.1 * (c - point)
        off = new - c
        sq = off * off
        edge = np.flatnonzero(~(sq[:, 0] + sq[:, 1] < lim))
        d = np.fromiter(map(math.hypot, *off[edge].T.tolist()), float, len(edge))
        e, d = edge[d > dispersion], d[d > dispersion, None]
        new[e] = c[e] + off[e] * dispersion / d
        out[rows] = point = new
    for r, end in enumerate(n[order][: np.count_nonzero(n > together)].tolist()):
        (x, y), (cx, cy) = point[r].tolist(), center[r].tolist()
        xy = memoryview(out[first[r] + together : first[r] + end].reshape(-1))  # dx, dy -> x, y
        for i in range(0, len(xy), 2):
            x = x + xy[i] + 0.1 * (cx - x)
            y = y + xy[i + 1] + 0.1 * (cy - y)
            d = math.hypot(x - cx, y - cy)
            if d > dispersion:
                x = cx + (x - cx) * dispersion / d
                y = cy + (y - cy) * dispersion / d
            xy[i], xy[i + 1] = x, y
    return out


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

    Random stream v2, run after run: a fixation draws its target, then its
    walk's uniforms and normals (:func:`fixation_walk`); a saccade or
    pursuit draws its start's target if it is the first run, its end's,
    then one uniform per sample with a deviation. No draw depends on a
    position, so all are taken first; then all walks are computed together,
    then every saccade and pursuit is placed from the end of the run before.
    """
    if len(signal) == 0:
        raise MappingError("cannot map an empty signal")
    width, height = targets.bounds
    ts = signal.timestamps
    eff = effective_labels(signal.labels)
    ends = np.append(np.flatnonzero(eff[1:] != eff[:-1]) + 1, len(eff))
    n = np.diff(ends, prepend=0)
    fix, moving = eff[ends - 1] == MovementLabel.FIXATION, eff != MovementLabel.FIXATION
    steps = signal.velocities * np.diff(ts, prepend=0.0) * p.pixels_per_degree
    progress, amp = _progress(steps[moving], n[~fix], p.max_path_deviation)
    del steps
    # Per run: the uniform of its target, those of its walk or deviations,
    # then its walk's normals. Uniforms drawn in one block or in several are
    # the same, so only the normals break the blocks.
    walk = np.where(fix, n - 1, 0) if p.fixation_dispersion else np.zeros_like(n)
    rest = walk.copy()
    rest[~fix] = np.add.reduceat(amp > 0, np.cumsum(n[~fix]) - n[~fix], dtype=np.intp)
    extra = int(not fix[0])  # a first run that moves draws its start's target first
    upto = extra + np.cumsum(1 + rest)
    u, z, taken = [], [np.empty(0)], 0
    for end, m in zip(upto[walk > 0].tolist(), walk[walk > 0].tolist()):
        u.append(rng.uniforms(end - taken))
        z.append(rng.normals(m))
        taken = end
    u.append(rng.uniforms(int(upto[-1]) - taken))
    u, z = np.concatenate(u), np.concatenate(z)
    at = np.append(np.arange(extra), upto - rest - 1)
    times = ts[:extra].tolist() + ts[ends - 1].tolist()
    picked = np.array([q[:2] for q in targets._choices(times, u[at])], dtype=float)
    dest, u, of_walk = picked[extra:], np.delete(u, at), fix.repeat(rest)
    u, u_dev = u[of_walk], u[~of_walk]
    walks = _walks(dest[fix], n[fix], p.fixation_dispersion, u, z)
    del u, z
    xs_ys = np.empty((2, len(signal)))
    xy = xs_ys.T
    xy[~moving] = walks
    del walks
    # A saccade or pursuit ends on its target and starts where the run
    # before it ends.
    xy[ends[~fix] - 1] = dest[~fix]
    origin = xy[np.maximum(ends[~fix] - n[~fix] - 1, 0)]
    origin[:extra] = picked[:extra]
    xy[moving] = _paths(progress, amp, u_dev, n[~fix], origin, dest[~fix])
    np.clip(xy, 0.0, [max(width - 1, 0), max(height - 1, 0)], out=xy)
    xs, ys = xs_ys
    return GazeTrace(
        ts.copy(), xs, ys, signal.labels.copy(), width, height, p.pixels_per_degree
    )


def _progress(steps: np.ndarray, n: np.ndarray, deviation: float) -> tuple[np.ndarray, np.ndarray]:
    """Per sample of the saccade and pursuit runs of lengths n, run after
    run, whose samples advance by the given steps (pixels): its progress
    along its run, and the amplitude of its deviation across it."""
    ends = np.cumsum(n)
    cum = np.maximum(steps, 0.0)
    for a, b in zip((ends - n).tolist(), ends.tolist()):
        np.add.accumulate(cum[a:b], out=cum[a:b])
    total = cum[ends - 1].repeat(n)
    even = ~(total > 0)  # no path: even progress
    progress = np.divide(cum, total, out=cum, where=~even)
    progress[even] = (np.arange(1, len(cum) + 1) - (ends - n).repeat(n))[even] / n.repeat(n)[even]
    return progress, deviation * 2.0 * np.minimum(progress, 1.0 - progress)


def _paths(progress: np.ndarray, amp: np.ndarray, u: np.ndarray, n: np.ndarray,
           origin: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """The points of the saccade and pursuit runs of lengths n from
    origin[r] to dest[r], run after run: at the given progress along the
    line, moved across it by amp times (2u - 1) where amp > 0, one u per
    such sample in order. Each run ends on its dest."""
    delta = dest - origin
    dist = np.fromiter(map(math.hypot, *delta.T.tolist()), float, len(n))[:, None]
    unit = np.where(dist > 0, delta, 0.0) / np.where(dist > 0, dist, 1.0)
    points = origin.repeat(n, axis=0)
    points += progress[:, None] * delta.repeat(n, axis=0)
    dev = amp > 0
    across = (unit[:, ::-1] * [-1.0, 1.0]).repeat(n, axis=0)[dev]  # (-uy, ux)
    points[dev] += ((2.0 * u - 1.0) * amp[dev])[:, None] * across
    points[np.cumsum(n) - 1] = dest
    return points


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
    runs = [(s, e) for s, e, lab in label_runs(effective_labels(trace.labels))
            if lab == MovementLabel.FIXATION]
    lo, hi = np.array(runs, dtype=np.intp).reshape(-1, 2).T
    xs, ys = (window_means(v, lo, hi).tolist() for v in (trace.x, trace.y))
    return TargetSet([(x, y, 1.0) for x, y in zip(xs, ys)], trace.width, trace.height)


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
