"""Per-segment re-simulation and squared-error summaries.

Mirrors the protocol of comparing simulated segments against labeled real
recordings: each fixation, saccade and smooth pursuit is re-simulated several
times with the same length, and the per-sample squared errors are pooled per
movement type into whisker-plot statistics. A saccade is re-simulated as the
Gamma profile whose mode, solved in closed form, lands on the run's peak,
placed between samples by a parabola through the argmax.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, label_runs
from .errors import ParameterError
from .generators import gamma_profiles, gamma_tail, shape_for_mode_ratio
from .params import DEFAULT_REPEATS, MAX_GAMMA_SHAPE, MovementLabel


@dataclass(frozen=True)
class TypeStats:
    """Whisker-plot statistics of pooled per-sample squared errors."""

    count: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    min: float
    max: float


@dataclass
class ErrorSummary:
    per_type: dict[MovementLabel, TypeStats]
    pooled: dict[MovementLabel, np.ndarray]


def fit_shape_for_peak_index(length: int, peak_index: float) -> tuple[float, bool]:
    """Gamma shape whose profile argmax lands on peak_index (within 1 sample).

    The profile's mode lies at the fractional index (length - 1) (k - 1) /
    gamma_tail(k); ``shape_for_mode_ratio`` inverts that in closed form, so
    peak_index may be fractional. Returns (shape, exact): a peak past the
    mode of MAX_GAMMA_SHAPE (the run's last samples) is unattainable, and the
    fit returns (MAX_GAMMA_SHAPE, False). The fit draws no random numbers.
    """
    if length < 2:
        raise ParameterError("saccade run must have at least 2 samples")
    ratio = max(peak_index, 0) / (length - 1)
    if ratio * gamma_tail(MAX_GAMMA_SHAPE) > MAX_GAMMA_SHAPE - 1.0:
        return MAX_GAMMA_SHAPE, False
    return min(shape_for_mode_ratio(ratio), MAX_GAMMA_SHAPE), True


def _peak_position(seg: np.ndarray, i: int) -> float:
    """Sub-sample position of the peak at argmax i: the vertex of the
    parabola through seg[i - 1 : i + 2], which lies within half a sample of
    i. At either end of the run, or where that parabola is flat or not
    finite, the peak stays at i."""
    if 0 < i < len(seg) - 1:
        a, b, c = (float(v) for v in seg[i - 1 : i + 2])
        curve = a - 2.0 * b + c
        if curve < 0.0:
            return i + 0.5 * (a - c) / curve
    return float(i)


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation between neighbouring order statistics."""
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _quartiles(errors: np.ndarray) -> tuple[float, float, float]:
    """``np.percentile(errors, [25, 50, 75])`` of a non-empty 1-D array, bit
    for bit: the same partition and interpolation, without the numpy.ma
    import that np.percentile's ``np.unique`` pays."""
    n = len(errors)
    at = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    lo = [-1 if v >= n - 1 else math.floor(v) for v in at]
    hi = [-1 if v >= n - 1 else math.floor(v) + 1 for v in at]
    part = np.partition(errors, sorted({0, -1, *lo, *hi}))
    if np.isnan(part[-1]):
        return (float(part[-1]),) * 3
    return tuple(
        _lerp(float(part[i]), float(part[j]), v - i) for v, i, j in zip(at, lo, hi)
    )


def _stats(errors: np.ndarray) -> TypeStats:
    q1, med, q3 = _quartiles(errors)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    within = errors[(errors >= lo_fence) & (errors <= hi_fence)]
    # Whiskers follow the usual convention: extreme data inside the fences.
    wlo = float(within.min()) if len(within) else float(errors.min())
    whi = float(within.max()) if len(within) else float(errors.max())
    return TypeStats(
        count=int(len(errors)),
        mean=float(errors.mean()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        whisker_low=wlo,
        whisker_high=whi,
        min=float(errors.min()),
        max=float(errors.max()),
    )


def evaluate_dataset(
    velocities: np.ndarray,
    labels: np.ndarray,
    rng: RandomSource,
    repeats: int = DEFAULT_REPEATS,
) -> ErrorSummary:
    """Simulate every labeled segment `repeats` times with its own length and
    pool the per-sample squared errors by movement type, repeat after repeat.

    A saccade is the Gamma profile with the run's peak, its mode at the
    vertex of the parabola through the run's argmax and its neighbours (the
    argmax itself at either end of the run); it draws nothing, so its errors are pooled `repeats`
    times. A fixation or pursuit is the run's mean plus its (ddof 1) std times
    unit normals, clipped to 10 std around the mean and at 0. Random stream
    v2: each draws all of its repeats as one block of normals from
    ``rng.derive(i)``, where i counts the non-noise segments.
    """
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    velocities = np.asarray(velocities, dtype=float)
    labels = np.asarray(labels)
    if len(velocities) != len(labels):
        raise ParameterError("velocities and labels must have equal length")
    pooled: dict[MovementLabel, list[np.ndarray]] = {}
    saccades = []  # (n, shape, peak) of each saccade run, simulated below
    seg_index = 0
    for start, end, lab in label_runs(labels):
        label = MovementLabel(lab)
        if label == MovementLabel.NOISE:
            continue
        seg = velocities[start:end]
        n = len(seg)
        chunks = pooled.setdefault(label, [])
        if label == MovementLabel.SACCADE:
            i = int(np.argmax(seg))
            shape = fit_shape_for_peak_index(n, _peak_position(seg, i))[0] if n > 1 else 1.0
            saccades.append((n, shape, float(seg[i])))
        else:
            mean = float(seg.mean())
            std = float(seg.std(ddof=1)) if n > 1 else 0.0
            z = rng.derive(seg_index).normals(repeats * n).reshape(repeats, n)
            sim = np.clip(mean + std * z, mean - 10.0 * std, mean + 10.0 * std)
            chunks.append(((np.maximum(0.0, sim) - seg) ** 2).ravel())
        seg_index += 1
    if saccades:  # one kernel pass over the runs of 2 samples or more
        n, shape, peak = (np.array(column) for column in zip(*saccades))
        sim, long = peak.repeat(n), n > 1  # a one-sample run is its peak
        sim[long.repeat(n)] = gamma_profiles(n[long], shape[long].tolist(), peak[long].tolist())
        errors = (sim - velocities[labels == MovementLabel.SACCADE]) ** 2
        pooled[MovementLabel.SACCADE] = [
            run for run in np.split(errors, np.cumsum(n)[:-1]) for _ in range(repeats)
        ]
    per_type = {}
    vectors = {}
    for label, chunks in pooled.items():
        errs = np.concatenate(chunks)
        per_type[label] = _stats(errs)
        vectors[label] = errs
    return ErrorSummary(per_type=per_type, pooled=vectors)
