"""Per-segment re-simulation and squared-error summaries.

Mirrors the protocol of comparing simulated segments against labeled real
recordings: each fixation, saccade and smooth pursuit is re-simulated several
times with the same length, and the per-sample squared errors are pooled per
movement type into whisker-plot statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gamma import MAX_GAMMA_SHAPE
from .core import RandomSource, label_runs
from .errors import ParameterError
from .generators import gamma_profile, gamma_tail
from .params import DEFAULT_REPEATS, MovementLabel


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


def _mode_index(shape: float, length: int) -> float:
    """Fractional sample index of the Gamma profile mode for a run of the
    given length."""
    return (length - 1) * (shape - 1.0) / gamma_tail(shape)


def _root(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f with f(a) <= 0 <= f(b): regula falsi with the Anderson-Bjorck
    weighting (BIT 13, 1973). Each step takes the secant of the two latest
    points that bracket the root; when the new point c lands on the side of
    the latest point b, the end kept again has its value scaled by
    m = 1 - f(c) / f(b), or by 1/2 when m <= 0, so that it cannot stall.
    Stops when a step moves by at most xtol + rtol * |c|, and raises
    RuntimeError after maxiter steps."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    for _ in range(maxiter):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0 or abs(c - b) <= xtol + rtol * abs(c):
            return c
        if (fc > 0) == (fb > 0):
            m = 1.0 - fc / fb
            fa *= m if m > 0 else 0.5
        else:
            a, fa = b, fb
        b, fb = c, fc
    raise RuntimeError(f"no root within {xtol} + {rtol}|x| after {maxiter} steps")


def _estimated_shape(ratio: float) -> float:
    """The shape k with (k - 1) / q(k) = ratio for q(k) = k + z sqrt(k) +
    (z^2 - 1) / 3, the Cornish-Fisher tail quantile to its constant term: a
    quadratic in sqrt(k). Within 3.3 % of the fitted shape for runs of up to
    5,000 samples."""
    z = 4.753424308822899  # the standard normal quantile of GAMMA_TAIL_QUANTILE
    a, b, c = 1.0 - ratio, ratio * z, 1.0 + ratio * (z * z - 1.0) / 3.0
    return ((b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)) ** 2


def fit_shape_for_peak_index(length: int, peak_index: int) -> tuple[float, bool]:
    """Gamma shape whose profile argmax lands on peak_index (within 1 sample).

    Returns (shape, exact). When the requested index is unattainable (the
    run boundary), the nearest attainable mode is used and exact is False.
    The fit is deterministic and draws no random numbers.
    """
    if length < 2:
        raise ParameterError("saccade run must have at least 2 samples")
    if peak_index <= 0:
        return 1.0, True  # mode at the first sample
    k_lo, k_hi = 1.0 + 1e-9, MAX_GAMMA_SHAPE

    def f(k):
        return _mode_index(k, length) - peak_index

    if f(k_hi) < 0:
        # Peak at (or past) the final sample cannot be reached; fall back to
        # the latest attainable mode.
        return k_hi, False
    # Regula falsi from within 5 % of the estimated root needs far fewer
    # tail quantiles than from [k_lo, k_hi], which stays the fallback.
    k = _estimated_shape(peak_index / (length - 1))
    lo, hi = max(0.95 * k, k_lo), min(1.05 * k, k_hi)
    if not lo < hi or f(lo) > 0 or f(hi) < 0:
        lo, hi = k_lo, k_hi
    shape = _root(f, lo, hi, xtol=1e-9, rtol=1e-12)
    return shape, abs(_mode_index(shape, length) - peak_index) <= 1.0


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

    A saccade is the Gamma profile with the run's peak, at the run's argmax
    within one sample; it draws nothing, so its errors are pooled `repeats`
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
    seg_index = 0
    for start, end, lab in label_runs(labels):
        label = MovementLabel(lab)
        if label == MovementLabel.NOISE:
            continue
        seg = velocities[start:end]
        n = len(seg)
        chunks = pooled.setdefault(label, [])
        if label == MovementLabel.SACCADE:
            peak_index = int(np.argmax(seg))
            peak = float(seg[peak_index])
            if n < 2:
                sim = np.full(n, peak)
            else:
                sim = gamma_profile(n, fit_shape_for_peak_index(n, peak_index)[0], peak)
            chunks.extend([(sim - seg) ** 2] * repeats)
        else:
            mean = float(seg.mean())
            std = float(seg.std(ddof=1)) if n > 1 else 0.0
            z = rng.derive(seg_index).normals(repeats * n).reshape(repeats, n)
            sim = np.clip(mean + std * z, mean - 10.0 * std, mean + 10.0 * std)
            chunks.append(((np.maximum(0.0, sim) - seg) ** 2).ravel())
        seg_index += 1
    per_type = {}
    vectors = {}
    for label, chunks in pooled.items():
        errs = np.concatenate(chunks)
        per_type[label] = _stats(errs)
        vectors[label] = errs
    return ErrorSummary(per_type=per_type, pooled=vectors)
